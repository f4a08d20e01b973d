"""Command-line interface: ``repro-dvfs``.

Subcommands:

* ``features <kernel.cl>`` — extract and print the ten static features;
* ``lint [kernel.cl ... | --store DIR]`` — run the diagnostics analysis
  pass over kernel sources (or a campaign store's measured corpus) and
  print ``path:line: severity: message`` findings; exits nonzero when any
  error-severity finding (unknown trip count, no feature ops, frontend
  failure) is present;
* ``train --save <models.json>`` — fit the paper's models and persist them
  as a versioned artifact for later ``predict --model`` runs;
* ``predict <kernel.cl>`` — print the predicted Pareto set of frequency
  settings, training in-process, loading a saved artifact (``--model``),
  or routing through a campaign store's fleet (``--device`` + ``--store``,
  no model file needed);
* ``predict-batch <kernel.cl>...`` — predict many kernels through the
  serving path (one vectorized model pass) and print per-kernel fronts;
  also store-servable via ``--device`` + ``--store``, and bulk-drivable
  via ``--requests FILE.jsonl`` (one request object per line, each with
  its own device);
* ``serve-status --store DIR`` — what a campaign store can serve: every
  device with a registered bundle, its aliases, recipe, and provenance;
* ``serve-daemon --store DIR`` — the long-lived HTTP front door over the
  store's fleet: micro-batched grouped predictions (``--batch-window-ms``
  / ``--max-batch``), per-device admission control (``--max-queue``, 503 +
  Retry-After), hot reload when a campaign publishes new bundles, and
  ``/predict``, ``/predict-batch``, ``/pareto``, ``/healthz``, ``/stats``
  endpoints;
* ``traces --store DIR`` — the measurement side of ``serve-status``:
  every registered trace with its format version (v2 JSONL / v3
  columnar), record and row counts, bytes, compaction status, and the
  compacted-prefix sha;
* ``store compact [--store DIR]`` — one maintenance pass: compact every
  trace into its memory-mapped v3 columnar sidecar, migrate ``traces/``
  and ``models/`` to the two-level sharded layout, and expire
  superseded streaming-trainer states;
* ``stats --store DIR [--format prom|json]`` — export the store's merged
  ``repro.obs`` metrics (sweep-duration histograms per device, campaign
  counters, serve/cache counters) as Prometheus text exposition or JSON;
  ``campaign`` and ``predict-batch`` additionally take ``--metrics-out
  FILE`` to write their run's snapshot anywhere;
* ``devices`` — list registered devices, aliases, and frequency grids;
* ``campaign --devices a,b`` — run a multi-device measurement campaign:
  device-interleaved sweeps over one shared worker pool, JSONL traces
  registered in the trace registry, per-device models trained and
  registered, all in one command — with live progress on stderr
  (``--progress``/``--no-progress``) and crash recovery (``--resume``
  finishes an interrupted campaign byte-identically);
* ``characterize <benchmark>`` — sweep one of the twelve suite benchmarks
  and print its per-domain speedup/energy series;
* ``table2`` — regenerate the paper's Table 2.

``train``, ``predict``, ``predict-batch``, ``characterize`` and ``table2``
are device- and backend-parameterized: ``--device`` picks any registered
GPU by name or alias (``titan-x``, ``tesla-p100``), ``--backend`` selects
the measurement engine (``simulator``, ``nvml``, or ``replay`` with
``--trace``), and ``--record-trace`` captures every sweep into a versioned
JSON trace for later replay.  Cross-device workflows are one command each::

    repro-dvfs train --device tesla-p100 --save p100.json
    repro-dvfs predict kernel.cl --model p100.json

or, once a campaign store exists, zero-file fleet serving::

    repro-dvfs campaign --devices titan-x,tesla-p100 --store repro-store
    repro-dvfs serve-status --store repro-store
    repro-dvfs predict kernel.cl --device p100 --store repro-store
"""

from __future__ import annotations

import argparse
import pathlib
import sys

#: Choices for --backend.
BACKEND_CHOICES = ("simulator", "nvml", "replay")

#: Default artifact-store root (traces/ and models/ live under it).
DEFAULT_STORE = "repro-store"


class CLIUsageError(RuntimeError):
    """Raised for flag combinations argparse cannot express."""


def _resolve_device_cli(name: str):
    """Resolve a --device value, surfacing unknown names as usage errors."""
    from .gpusim.device import resolve_device

    try:
        return resolve_device(name)
    except KeyError as exc:
        raise CLIUsageError(exc.args[0]) from None


def _resolve_setup(args):
    """Resolve (device, backend, recorder) from the common CLI flags."""
    from .harness.context import DEFAULT_DEVICE
    from .measure import (
        NvmlBackend,
        RecordingBackend,
        ReplayBackend,
        SimulatorBackend,
        TraceRegistry,
    )

    kind = getattr(args, "backend", "simulator") or "simulator"
    trace = getattr(args, "trace", None)
    trace_key = getattr(args, "trace_key", None)
    record = getattr(args, "record_trace", None)
    device = _resolve_device_cli(args.device) if getattr(args, "device", None) else None

    if kind == "replay":
        if trace and trace_key:
            raise CLIUsageError("pass either --trace PATH or --trace-key KEY, not both")
        cached = getattr(args, "max_cached_kernels", None)
        if trace:
            backend = ReplayBackend(trace, device=device, max_cached_kernels=cached)
        elif trace_key:
            from .campaign.engine import TRACES_SUBDIR

            registry = TraceRegistry(_store_root(args) / TRACES_SUBDIR)
            # Resolve to the file and construct directly so an explicit
            # --device gets the same mismatch check as --trace PATH.
            backend = ReplayBackend(
                registry.resolve(trace_key), device=device, max_cached_kernels=cached
            )
        else:
            raise CLIUsageError(
                "--backend replay requires --trace PATH or --trace-key KEY"
            )
        device = backend.device
    elif kind == "nvml":
        backend = NvmlBackend(device)
        device = backend.device
    else:
        device = device or _resolve_device_cli(DEFAULT_DEVICE)
        backend = SimulatorBackend(device)

    recorder = None
    if record:
        backend = recorder = RecordingBackend(backend)
    return device, backend, recorder


def _store_root(args) -> pathlib.Path:
    return pathlib.Path(getattr(args, "store", None) or DEFAULT_STORE)


def _context_for(args):
    """Build (or fetch cached) training context for the CLI flags."""
    from .harness.context import build_context, paper_context, quick_context
    from .measure import SimulatorBackend

    device, backend, recorder = _resolve_setup(args)
    recipe = "quick" if getattr(args, "quick", False) else "paper"
    features = _feature_recipe(args)
    if (
        recorder is None
        and isinstance(backend, SimulatorBackend)
        and features == "paper10"
    ):
        maker = quick_context if recipe == "quick" else paper_context
        return maker(device=device.name), None
    return (
        build_context(
            device=device, recipe=recipe, backend=backend, feature_recipe=features
        ),
        recorder,
    )


def _feature_recipe(args) -> str:
    """Validate and return --features (default recipe when absent)."""
    name = getattr(args, "features", None) or "paper10"
    from .analysis.recipes import RecipeError, resolve_recipe

    try:
        resolve_recipe(name)
    except RecipeError as exc:
        raise CLIUsageError(str(exc)) from None
    return name


def _save_recorded(recorder, args) -> None:
    if recorder is not None:
        path = recorder.save(args.record_trace)
        print(f"recorded measurement trace to {path}")


def _cmd_features(args: argparse.Namespace) -> int:
    from .features import extract_features

    source = pathlib.Path(args.kernel).read_text()
    features = extract_features(source, kernel_name=args.name)
    print(f"kernel: {features.kernel_name}")
    print(f"total weighted instructions: {features.total_instructions:.1f}")
    for name, value in features.as_dict().items():
        print(f"  {name:<12} {value:7.4f}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_paths, lint_store

    if args.store and args.sources:
        raise CLIUsageError(
            "pass kernel source paths or --store DIR, not both"
        )
    if args.store:
        try:
            report = lint_store(_store_root(args))
        except FileNotFoundError as exc:
            raise CLIUsageError(str(exc)) from None
    elif args.sources:
        report = lint_paths(args.sources)
    else:
        raise CLIUsageError("pass kernel source paths or --store DIR")
    for line in report.render_lines(args.min_severity):
        print(line)
    for name in report.unresolved:
        print(f"warning: cannot resolve kernel source: {name}", file=sys.stderr)
    print(report.summary())
    return 1 if report.has_errors else 0


def _print_front(result) -> None:
    from .harness.report import format_front

    print(format_front(result))


def _cmd_train(args: argparse.Namespace) -> int:
    from .serve.artifacts import save_models

    features = _feature_recipe(args)
    if getattr(args, "trainer", "exact") == "streaming":
        if features != "paper10":
            raise CLIUsageError(
                "--trainer streaming supports only the default 'paper10' "
                "feature recipe"
            )
        return _cmd_train_streaming(args)
    ctx, recorder = _context_for(args)
    meta = {
        "device": ctx.device.name,
        "recipe": "quick" if args.quick else "paper",
        # The default recipe keeps the pre-recipe meta spelling so its
        # artifacts stay byte-identical; named recipes record their name.
        "features": "interactions" if features == "paper10" else features,
        "backend": ctx.backend.capabilities.kind,
    }
    path = save_models(args.save, ctx.models, meta=meta)
    print(
        f"trained on {ctx.models.n_training_samples} samples "
        f"({ctx.dataset.n_kernels} codes x {len(ctx.settings)} settings) "
        f"for {ctx.device.name}"
    )
    print(f"saved model artifact to {path} ({path.stat().st_size} bytes)")
    _save_recorded(recorder, args)
    return 0


def _cmd_train_streaming(args: argparse.Namespace) -> int:
    """`repro train --trainer streaming`: out-of-core mini-batch training.

    Measurements are recorded once into a scratch JSONL trace; the
    streaming trainer then replays that file in ``--batch-rows``-bounded
    mini-batches, so the dense design matrix never materializes.  The
    peak-resident-rows line printed at the end is the contract CI's
    memory-budget smoke parses.
    """
    import tempfile

    from .core.config import TRAINING_RECIPES, sample_training_settings
    from .core.dataset import iter_kernel_measurements
    from .core.incremental import train_streaming_from_trace
    from .measure.trace import TraceWriter
    from .serve.artifacts import save_models
    from .synthetic.generator import generate_micro_benchmarks

    device, backend, recorder = _resolve_setup(args)
    recipe = "quick" if args.quick else "paper"
    stride, budget = TRAINING_RECIPES[recipe]
    specs = generate_micro_benchmarks()[::stride]
    settings = sample_training_settings(device, total=budget)

    with tempfile.TemporaryDirectory(prefix="repro-train-") as tmp:
        trace_path = pathlib.Path(tmp) / "train.jsonl"
        writer = TraceWriter(trace_path, device=device.name)
        try:
            for _spec, _static, measurements in iter_kernel_measurements(
                backend, specs, settings
            ):
                writer.write_measurements(measurements)
        finally:
            writer.close(success=True)
        result = train_streaming_from_trace(
            trace_path,
            specs,
            settings,
            interactions=True,
            batch_rows=args.batch_rows,
        )

    models = result.models
    summary = result.summary
    meta = {
        "device": device.name,
        "recipe": recipe,
        "features": "interactions",
        "backend": backend.capabilities.kind,
        "trainer": "streaming",
        "batch_rows": args.batch_rows,
    }
    path = save_models(args.save, models, meta=meta)
    print(
        f"trained on {models.n_training_samples} samples "
        f"({summary.n_kernels} codes x {len(settings)} settings) "
        f"for {device.name} [streaming]"
    )
    print(
        f"streaming peak resident rows: {summary.peak_resident_rows} "
        f"(cap {args.batch_rows}, {summary.peak_resident_bytes} bytes)"
    )
    print(f"saved model artifact to {path} ({path.stat().st_size} bytes)")
    _save_recorded(recorder, args)
    return 0


def _reject_backend_flags_with_model(args) -> None:
    """--backend/--trace select the measurement engine for in-process
    training; combined with a pre-trained --model artifact they would be
    silently ignored, so refuse the mix outright."""
    if (
        getattr(args, "backend", "simulator") != "simulator"
        or getattr(args, "trace", None)
        or getattr(args, "trace_key", None)
    ):
        raise CLIUsageError(
            "--backend/--trace/--trace-key configure in-process training and "
            "cannot be combined with --model (the artifact is already trained)"
        )


def _serves_from_store(args) -> bool:
    """True when predict/predict-batch should route through a campaign
    store's fleet: an explicit ``--store`` with no model file and no
    replay/trace flags (those keep their in-process training meaning)."""
    if args.model and getattr(args, "store", None):
        raise CLIUsageError(
            "pass either --model PATH (one saved bundle) or --store DIR "
            "(serve from a campaign store), not both"
        )
    return (
        getattr(args, "store", None) is not None
        and not args.model
        and getattr(args, "backend", "simulator") == "simulator"
        and not getattr(args, "trace", None)
        and not getattr(args, "trace_key", None)
    )


def _fleet_for(args):
    """A FleetService over --store, surfacing bad stores as CLI errors.

    ``--quick`` narrows routing to quick-recipe bundles — without the
    filter a store holding both recipes would silently serve the
    preferred (paper) bundle to a user who asked for quick.
    """
    from .serve.fleet import FleetService

    recipe = "quick" if getattr(args, "quick", False) else None
    return FleetService.from_campaign_store(_store_root(args), recipe=recipe)


def _fleet_device(fleet, args) -> str:
    """The --device to route to; a single-device store needs no flag."""
    if args.device:
        return args.device
    devices = fleet.devices()
    if len(devices) == 1:
        return devices[0]
    raise CLIUsageError(
        f"--device required: the store serves {len(devices)} devices "
        f"({', '.join(devices)})"
    )


def _print_stats(summary: dict, prefix: str = "  ") -> None:
    """Flatten nested stats dicts into aligned `a.b.c: value` lines."""

    def walk(mapping: dict, path: str) -> None:
        for name, value in mapping.items():
            dotted = f"{path}.{name}" if path else str(name)
            if isinstance(value, dict):
                walk(value, dotted)
            else:
                print(f"{prefix}{dotted}: {value}")

    walk(summary, "")


def _save_metrics_out(snapshot, args) -> None:
    """Honor --metrics-out: persist a run's metric snapshot to FILE."""
    path = getattr(args, "metrics_out", None)
    if path:
        from .obs import save_snapshot

        print(f"wrote metrics snapshot to {save_snapshot(snapshot, path)}")


def _cmd_predict(args: argparse.Namespace) -> int:
    source = pathlib.Path(args.kernel).read_text()
    if _serves_from_store(args):
        fleet = _fleet_for(args)
        result = fleet.predict(
            source, kernel_name=args.name, device=_fleet_device(fleet, args)
        )
    elif args.model:
        from .serve.service import PredictionService

        _reject_backend_flags_with_model(args)
        device = _resolve_device_cli(args.device) if args.device else None
        service = PredictionService.from_artifact(args.model, device=device)
        result = service.predict(source, kernel_name=args.name)
    else:
        ctx, _ = _context_for(args)
        result = ctx.predictor.predict_from_source(source, kernel_name=args.name)
    _print_front(result)
    return 0


def _load_request_lines(
    path: pathlib.Path,
) -> list[tuple[str | None, str, str | None, str]]:
    """Parse a --requests JSONL file → (device, source, name, label) rows.

    Each line is one request object carrying ``source`` (inline kernel
    text) or ``kernel`` (a path to read), optionally ``device`` and
    ``name``.  Blank lines and ``#`` comments are skipped.
    """
    import json

    if not path.exists():
        raise CLIUsageError(f"--requests file not found: {path}")
    entries: list[tuple[str | None, str, str | None, str]] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CLIUsageError(f"{path}:{lineno}: not valid JSON ({exc})")
        if not isinstance(obj, dict):
            raise CLIUsageError(
                f"{path}:{lineno}: each request must be a JSON object"
            )
        source = obj.get("source")
        kernel = obj.get("kernel")
        if (source is None) == (kernel is None):
            raise CLIUsageError(
                f"{path}:{lineno}: each request needs exactly one of "
                f"'source' (inline text) or 'kernel' (a file path)"
            )
        if kernel is not None:
            kernel_path = pathlib.Path(kernel)
            if not kernel_path.exists():
                raise CLIUsageError(
                    f"{path}:{lineno}: kernel file not found: {kernel}"
                )
            source = kernel_path.read_text()
            label = str(kernel)
        else:
            label = obj.get("name") or f"{path.name}:{lineno}"
        entries.append((obj.get("device"), source, obj.get("name"), label))
    if not entries:
        raise CLIUsageError(f"{path}: no requests (file is empty)")
    return entries


def _cmd_predict_batch(args: argparse.Namespace) -> int:
    from .serve.service import PredictionService

    requests_file = getattr(args, "requests", None)
    if requests_file and args.kernels:
        raise CLIUsageError(
            "pass kernel file paths or --requests FILE.jsonl, not both"
        )
    if not requests_file and not args.kernels:
        raise CLIUsageError(
            "pass kernel file paths or --requests FILE.jsonl"
        )

    if _serves_from_store(args):
        fleet = _fleet_for(args)
        if requests_file:
            entries = _load_request_lines(pathlib.Path(requests_file))
            default_device: str | None = None
            items = []
            labels = []
            for device, source, name, label in entries:
                if device is None:
                    if default_device is None:
                        # --device, or the store's only device.
                        default_device = _fleet_device(fleet, args)
                    device = default_device
                items.append((device, source, name))
                labels.append(f"{label} @ {device}")
        else:
            device = _fleet_device(fleet, args)
            items = [
                (device, pathlib.Path(p).read_text(), args.name)
                for p in args.kernels
            ]
            labels = list(args.kernels)
        results = fleet.predict_batch(items)
        for label, result in zip(labels, results):
            print(f"== {label}")
            _print_front(result)
        if args.stats:
            print("-- fleet stats")
            _print_stats(fleet.stats_summary())
        _save_metrics_out(fleet.metrics_snapshot(), args)
        return 0
    if args.model:
        _reject_backend_flags_with_model(args)
        device = _resolve_device_cli(args.device) if args.device else None
        service = PredictionService.from_artifact(args.model, device=device)
    else:
        ctx, _ = _context_for(args)
        service = PredictionService(models=ctx.models, device=ctx.device)

    if requests_file:
        entries = _load_request_lines(pathlib.Path(requests_file))
        routed = sorted({d for d, *_ in entries if d is not None})
        if routed:
            raise CLIUsageError(
                f"--requests lines name devices ({', '.join(routed)}) but "
                f"there is no fleet to route them; add --store DIR"
            )
        requests = [(source, name) for _, source, name, _ in entries]
        labels = [label for *_, label in entries]
    else:
        requests = [
            (pathlib.Path(p).read_text(), args.name) for p in args.kernels
        ]
        labels = list(args.kernels)
    results = service.predict_batch(requests)
    for label, result in zip(labels, results):
        print(f"== {label}")
        _print_front(result)
    if args.stats:
        print("-- service stats")
        _print_stats(service.stats_summary())
    _save_metrics_out(service.stats.registry.snapshot(), args)
    return 0


def _cmd_serve_daemon(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .serve.daemon import DaemonConfig, ServeDaemon

    _require_store(_store_root(args))
    config = DaemonConfig(
        host=args.host,
        port=args.port,
        batch_window_ms=args.batch_window_ms,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        reload_interval_s=args.reload_interval,
    )
    daemon = ServeDaemon.from_store(
        _store_root(args),
        config=config,
        recipe="quick" if args.quick else None,
        max_services=args.max_services,
    )
    if args.warm:
        daemon.fleet.warm()
    daemon.start()
    host, port = daemon.address
    print(
        f"repro serve-daemon: {len(daemon.fleet.devices())} device(s) from "
        f"{_store_root(args)} at http://{host}:{port} "
        f"(window {config.batch_window_ms}ms, max-batch {config.max_batch}, "
        f"max-queue {config.max_queue})",
        flush=True,
    )
    print(
        "endpoints: POST /predict /predict-batch /pareto; GET /healthz /stats",
        flush=True,
    )
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    stop.wait()
    daemon.close()
    print(
        f"serve-daemon shut down cleanly: {daemon.request_count()} HTTP "
        f"request(s), {daemon.fleet.stats.requests_routed} prediction(s) "
        f"served",
        flush=True,
    )
    return 0


def _cmd_serve_status(args: argparse.Namespace) -> int:
    from .gpusim.device import device_aliases
    from .harness.report import format_table

    fleet = _fleet_for(args)
    rows = []
    for key in fleet.model_keys():
        spec = key.device_spec()
        path = fleet.registry.path_for(key)
        meta = fleet.registry.meta_for(key) or {}
        sha = meta.get("trace_sha256") or ""
        rows.append(
            (
                spec.name,
                ", ".join(device_aliases(spec.name)) or "-",
                key.recipe,
                key.features,
                f"{path.stat().st_size}",
                sha[:12] or "-",
            )
        )
    print(
        f"fleet over {_store_root(args)}: {len(rows)} device(s) servable"
    )
    print(
        format_table(
            ["device", "aliases", "recipe", "features", "bytes", "trace sha256"],
            rows,
        )
    )
    example = rows[0][0]
    print(
        f"serve it: repro predict KERNEL.cl --device "
        f"{device_aliases(example)[0] if device_aliases(example) else example} "
        f"--store {_store_root(args)}"
    )
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from .campaign.engine import TRACES_SUBDIR
    from .harness.report import format_table
    from .measure import TraceRegistry
    from .measure.columnar import ColumnarTrace, sidecar_path
    from .measure.trace import scan_stream_records

    _require_store(_store_root(args))
    registry = TraceRegistry(_store_root(args) / TRACES_SUBDIR, memory_capacity=1)
    slugs = registry.entries()
    if not slugs:
        raise CLIUsageError(
            f"no recorded traces under {registry.root} "
            f"(run `repro campaign --store {_store_root(args)}` first)"
        )
    rows = []
    for slug in sorted(slugs):
        path = registry.store.path_for_slug(slug)
        size = path.stat().st_size
        columnar = ColumnarTrace.open(path)
        if columnar is not None:
            version = "v3"
            records = len(columnar.records)
            rows_n = columnar.n_rows
            sha = columnar.prefix_sha256[:12]
            if size == columnar.prefix_bytes:
                status = "fresh"
            else:
                # Columnar prefix plus appended JSONL tail: count the
                # tail's records/rows on top of what the sidecar covers.
                _, scanned = scan_stream_records(path)
                tail_records = [
                    r for r in scanned if r.end_offset > columnar.prefix_bytes
                ]
                records += len(tail_records)
                rows_n += sum(len(r.kernel.configs) for r in tail_records)
                status = "tail"
        else:
            version = "v2"
            _, scanned = scan_stream_records(path)
            records = len(scanned)
            rows_n = sum(len(r.kernel.configs) for r in scanned)
            sha = "-"
            status = "stale" if sidecar_path(path).exists() else "none"
        rows.append((slug, version, str(records), str(rows_n), str(size), status, sha))
    print(f"traces under {registry.root}: {len(rows)} registered")
    print(
        format_table(
            ["trace", "format", "records", "rows", "bytes", "columnar", "prefix sha256"],
            rows,
        )
    )
    print(f"compact them: repro store compact --store {_store_root(args)}")
    return 0


def _require_store(root) -> None:
    """Maintenance and inventory commands must not conjure a store.

    Registry construction mkdirs its root, so a typo'd ``--store`` would
    otherwise leave an empty store skeleton behind and report success.
    """
    if not root.is_dir():
        raise CLIUsageError(
            f"no campaign store at {root} "
            f"(run `repro campaign --store {root}` first)"
        )


def _cmd_store_compact(args: argparse.Namespace) -> int:
    from .campaign import compact_store

    _require_store(_store_root(args))
    report = compact_store(
        _store_root(args), migrate=not args.no_migrate, force=args.force
    )
    print(report.format())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .obs import load_store_metrics, to_json, to_prometheus
    from .store.layout import METRICS_SUBDIR

    store = _store_root(args)
    metrics_dir = store / METRICS_SUBDIR
    snapshot = load_store_metrics(metrics_dir)
    if not snapshot.families:
        raise CLIUsageError(
            f"no metric snapshots under {metrics_dir} "
            f"(run `repro campaign --store {store}` first, or point --store "
            f"at a store that has one)"
        )
    if args.format == "json":
        print(to_json(snapshot))
    else:
        # Exposition format is line-oriented and already newline-terminated.
        print(to_prometheus(snapshot), end="")
    return 0


def _cmd_devices(_args: argparse.Namespace) -> int:
    from .gpusim.device import DEVICE_REGISTRY, device_aliases

    for name, dev in sorted(DEVICE_REGISTRY.items()):
        print(f"{name} (CC {dev.compute_capability})")
        aliases = device_aliases(name)
        if aliases:
            print(f"  aliases: {', '.join(aliases)}")
        for domain in dev.domains:
            real = domain.real_core_mhz
            reported = domain.reported_core_mhz
            clamp = (
                f", {len(reported) - len(real)} clamped"
                if len(reported) != len(real)
                else ""
            )
            print(
                f"  mem-{domain.label} {domain.mem_mhz:6.0f} MHz: "
                f"{len(real)} real core clocks ({min(real):.0f}-{max(real):.0f})"
                f"{clamp}"
            )
        print(
            f"  grid: {len(dev.reported_configurations())} reported / "
            f"{len(dev.real_configurations())} real configurations"
        )
        print(
            f"  default: core {dev.default_core_mhz:.0f} / "
            f"mem {dev.default_mem_mhz:.0f} MHz"
        )
    return 0


def _campaign_progress_renderer(stream):
    """A throttled, repaint-in-place renderer for campaign progress."""
    import time as _time

    last_paint = [0.0]

    def render(progress) -> None:
        now = _time.monotonic()
        finished = progress.finished is not None
        if not finished and now - last_paint[0] < 0.1:
            return
        last_paint[0] = now
        stream.write("\r\x1b[2K" + progress.render())
        if finished:
            stream.write("\n")
        stream.flush()

    return render


def _cmd_campaign(args: argparse.Namespace) -> int:
    import os

    from .campaign import CampaignPlan, run_campaign

    devices = tuple(d.strip() for d in args.devices.split(",") if d.strip())
    if not devices:
        raise CLIUsageError("--devices needs at least one device name or alias")
    for name in devices:
        _resolve_device_cli(name)  # surface typos as usage errors
    quick = args.quick or bool(os.environ.get("REPRO_QUICK"))
    try:
        plan = CampaignPlan(
            devices=devices,
            recipe="quick" if quick else "paper",
            repeats=args.repeats,
            workers=args.workers,
            trainer=getattr(args, "trainer", "exact"),
            batch_rows=getattr(args, "batch_rows", 4096),
            features=_feature_recipe(args),
        )
    except ValueError as exc:
        raise CLIUsageError(exc.args[0]) from None

    show_progress = (
        args.progress if args.progress is not None else sys.stderr.isatty()
    )
    on_progress = _campaign_progress_renderer(sys.stderr) if show_progress else None
    report = run_campaign(
        plan,
        store_root=_store_root(args),
        resume=args.resume,
        on_progress=on_progress,
    )
    print(report.format())
    if report.metrics is not None:
        _save_metrics_out(report.metrics, args)
    example = report.results[0]
    print(
        "replay a device's training set exactly:\n"
        f"  repro train --backend replay --trace-key {example.trace_key} "
        f"--store {report.store_root}{' --quick' if quick else ''} "
        f"--save models.json"
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .core.config import sample_training_settings
    from .harness.characterize import characterize_kernel
    from .suite import get_benchmark

    try:
        spec = get_benchmark(args.benchmark)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    # Characterization needs only a sweep, not trained models — build the
    # backend directly instead of paying for a training context.
    device, backend, recorder = _resolve_setup(args)
    budget = 24 if args.quick else None
    settings = (
        sample_training_settings(device, total=budget)
        if budget
        else sample_training_settings(device)
    )
    ch = characterize_kernel(backend, spec, settings)
    print(f"{spec.name} on {device.name}: {ch.classify()}-dominated "
          f"(memory sensitivity {ch.mem_sensitivity():.2f})")
    for label in sorted(ch.series, key=lambda l: -ch.series[l].mem_mhz):
        series = ch.series[label]
        print(f"\nmem-{label} ({series.mem_mhz:.0f} MHz):")
        for core, speedup, energy in series.rows():
            print(f"  core {core:6.0f} MHz  speedup {speedup:6.3f}  "
                  f"norm energy {energy:6.3f}")
    _save_recorded(recorder, args)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .harness.evaluation import evaluate_suite
    from .harness.report import format_table
    from .suite import test_benchmarks

    ctx, _ = _context_for(args)
    evals = evaluate_suite(ctx.backend, ctx.predictor, test_benchmarks(), ctx.settings)
    rows = [ev.table_row() for ev in evals]
    print(
        format_table(
            ["Benchmark", "D(P*,P')", "|P'|", "|P*|", "max speedup Δ", "min energy Δ"],
            rows,
        )
    )
    return 0


def _add_device_flags(parser: argparse.ArgumentParser, record: bool = False) -> None:
    """The shared measurement-selection flags."""
    parser.add_argument(
        "--device", metavar="NAME",
        help="target device, full name or alias (titan-x, tesla-p100); "
             "default: titan-x (or the replay trace's device)",
    )
    parser.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="simulator",
        help="measurement backend (default: the vectorized simulator)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="measurement trace file to serve from (with --backend replay)",
    )
    parser.add_argument(
        "--trace-key", metavar="KEY", dest="trace_key",
        help="registered trace to serve from, as device/suite[/noise-hash] "
             "(with --backend replay; e.g. titan-x/default)",
    )
    parser.add_argument(
        "--max-cached-kernels", type=int, metavar="N", dest="max_cached_kernels",
        help="(with --backend replay) LRU bound on materialized per-kernel "
             "records; memory-mapped columnar slices bypass the cache "
             "entirely (default: 64)",
    )
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="campaign store root: with --trace-key, where traces resolve "
             "from; on predict/predict-batch without --model, serve "
             "predictions for --device straight from the store's registered "
             f"bundles (default: {DEFAULT_STORE})",
    )
    if record:
        parser.add_argument(
            "--record-trace", metavar="PATH", dest="record_trace",
            help="record every sweep into a JSON trace for later replay",
        )


def _add_features_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--features", metavar="RECIPE", default="paper10",
        help="static feature recipe: paper10 (the default; the paper's "
             "exact ten-share layout), paper10-raw (unnormalized counts), "
             "or an extension like paper10+loops, paper10+memmix, "
             "paper10+divergence (blocks compose: paper10+loops+memmix)",
    )


def _add_trainer_flags(parser: argparse.ArgumentParser) -> None:
    """Training-mode flags shared by `train` and `campaign`."""
    parser.add_argument(
        "--trainer", choices=("exact", "streaming"), default="exact",
        help="exact: dense in-memory fit (default); streaming: out-of-core "
             "mini-batch fit from the measurement trace (bounded memory; "
             "campaigns delta-fit from persisted accumulators when the "
             "trace merely grew)",
    )
    parser.add_argument(
        "--batch-rows", type=int, default=4096, metavar="N", dest="batch_rows",
        help="mini-batch row cap for --trainer streaming: peak resident "
             "dataset rows never exceed N (default: 4096)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dvfs",
        description=(
            "Predictable GPU frequency scaling (ICPP'19 reproduction): "
            "predict Pareto-optimal (core, memory) clocks for OpenCL kernels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_feat = sub.add_parser("features", help="extract static code features")
    p_feat.add_argument("kernel", help="path to an OpenCL .cl source file")
    p_feat.add_argument("--name", help="kernel function name (if several)")
    p_feat.set_defaults(func=_cmd_features)

    p_lint = sub.add_parser(
        "lint",
        help="diagnose kernel sources with the analysis passes: unknown "
             "loop trip counts, zero-weight regions, assumed branch "
             "probabilities; exits nonzero on error-severity findings",
    )
    p_lint.add_argument(
        "sources", nargs="*", metavar="KERNEL.cl",
        help="OpenCL source files to lint (one translation unit each)",
    )
    p_lint.add_argument(
        "--store", metavar="DIR", default=None,
        help="lint the kernel corpus behind a campaign store's traces "
             "instead of source files (kernels resolve by recorded name)",
    )
    p_lint.add_argument(
        "--min-severity", choices=("info", "warning", "error"),
        default="info", dest="min_severity",
        help="hide findings below this severity (default: info; the exit "
             "code always reflects error findings, shown or not)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_train = sub.add_parser(
        "train", help="train the paper's models and save them to disk"
    )
    p_train.add_argument(
        "--save", required=True, metavar="PATH",
        help="where to write the model artifact (JSON)",
    )
    p_train.add_argument(
        "--quick", action="store_true",
        help="use the reduced training setup (faster, less accurate)",
    )
    _add_features_flag(p_train)
    _add_trainer_flags(p_train)
    _add_device_flags(p_train, record=True)
    p_train.set_defaults(func=_cmd_train)

    p_pred = sub.add_parser("predict", help="predict Pareto-optimal clocks")
    p_pred.add_argument("kernel", help="path to an OpenCL .cl source file")
    p_pred.add_argument("--name", help="kernel function name (if several)")
    p_pred.add_argument(
        "--quick", action="store_true",
        help="(without --model) use the reduced training setup "
             "(faster, less accurate)",
    )
    p_pred.add_argument(
        "--model", metavar="PATH",
        help="load a saved model artifact instead of training in-process",
    )
    _add_device_flags(p_pred)
    p_pred.set_defaults(func=_cmd_predict)

    p_batch = sub.add_parser(
        "predict-batch",
        help="predict many kernels via the batched serving path",
    )
    p_batch.add_argument(
        "kernels", nargs="*", help="paths to OpenCL .cl source files"
    )
    p_batch.add_argument(
        "--requests", metavar="FILE",
        help="bulk requests from a JSONL file instead of kernel paths: one "
             '{"device": ..., "source": ...|"kernel": PATH[, "name": ...]} '
             "object per line; per-line devices need --store routing",
    )
    p_batch.add_argument(
        "--name",
        help="kernel function name, applied to every file "
             "(for multi-kernel translation units)",
    )
    p_batch.add_argument(
        "--model", metavar="PATH",
        help="load a saved model artifact instead of training in-process",
    )
    p_batch.add_argument(
        "--quick", action="store_true",
        help="(without --model) use the reduced training setup",
    )
    p_batch.add_argument(
        "--stats", action="store_true",
        help="print service cache/latency counters after the batch",
    )
    p_batch.add_argument(
        "--metrics-out", metavar="FILE", dest="metrics_out",
        help="write the run's metric snapshot (counters + latency "
             "histograms) to FILE as JSON",
    )
    _add_device_flags(p_batch)
    p_batch.set_defaults(func=_cmd_predict_batch)

    p_dev = sub.add_parser(
        "devices", help="list registered devices, aliases, and frequency grids"
    )
    p_dev.set_defaults(func=_cmd_devices)

    p_stats = sub.add_parser(
        "stats",
        help="export a campaign store's merged metrics (sweep-duration "
             "histograms per device, campaign counters, serve/cache "
             "counters) as Prometheus text exposition or JSON",
    )
    p_stats.add_argument(
        "--store", metavar="DIR", default=None,
        help=f"campaign store root to read metrics/ from "
             f"(default: {DEFAULT_STORE})",
    )
    p_stats.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="output format: Prometheus text exposition 0.0.4 (prom, the "
             "default) or the JSON snapshot document",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_traces = sub.add_parser(
        "traces",
        help="list a campaign store's registered measurement traces: format "
             "version (v2 JSONL / v3 columnar), record and row counts, "
             "bytes, compaction status, and compacted-prefix sha",
    )
    p_traces.add_argument(
        "--store", metavar="DIR", default=None,
        help=f"campaign store root (default: {DEFAULT_STORE})",
    )
    p_traces.set_defaults(func=_cmd_traces)

    p_store = sub.add_parser(
        "store",
        help="campaign-store maintenance (see `repro store compact --help`)",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_compact = store_sub.add_parser(
        "compact",
        help="one maintenance pass: compact every trace into its v3 "
             "columnar sidecar, migrate traces/ and models/ to the sharded "
             "layout, and expire superseded streaming-trainer states",
    )
    p_compact.add_argument(
        "--store", metavar="DIR", default=None,
        help=f"campaign store root (default: {DEFAULT_STORE})",
    )
    p_compact.add_argument(
        "--force", action="store_true",
        help="rewrite sidecars even when already fresh",
    )
    p_compact.add_argument(
        "--no-migrate", action="store_true", dest="no_migrate",
        help="skip the sharded-layout migration (compaction and trainer-"
             "state expiry still run)",
    )
    p_compact.set_defaults(func=_cmd_store_compact)

    p_status = sub.add_parser(
        "serve-status",
        help="list what a campaign store can serve: devices with registered "
             "bundles, their aliases, recipes, and trace provenance",
    )
    p_status.add_argument(
        "--store", metavar="DIR", default=None,
        help=f"campaign store root (default: {DEFAULT_STORE})",
    )
    p_status.set_defaults(func=_cmd_serve_status)

    p_daemon = sub.add_parser(
        "serve-daemon",
        help="serve a campaign store over HTTP: micro-batched grouped "
             "predictions, per-device admission control (503 + Retry-After), "
             "hot reload when a campaign publishes new bundles",
    )
    p_daemon.add_argument(
        "--store", metavar="DIR", default=None,
        help=f"campaign store root to serve (default: {DEFAULT_STORE})",
    )
    p_daemon.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    p_daemon.add_argument(
        "--port", type=int, default=8077,
        help="bind port; 0 picks a free one (default: 8077)",
    )
    p_daemon.add_argument(
        "--batch-window-ms", type=float, default=5.0, dest="batch_window_ms",
        metavar="W",
        help="how long the first request of a micro-batch waits for company "
             "before the grouped model pass runs (default: 5.0)",
    )
    p_daemon.add_argument(
        "--max-batch", type=int, default=32, dest="max_batch", metavar="N",
        help="most requests coalesced into one grouped pass; 1 disables "
             "micro-batching (default: 32)",
    )
    p_daemon.add_argument(
        "--max-queue", type=int, default=64, dest="max_queue", metavar="Q",
        help="per-device admission bound on queued + in-flight requests; "
             "beyond it the daemon sheds with 503 (default: 64)",
    )
    p_daemon.add_argument(
        "--reload-interval", type=float, default=2.0, dest="reload_interval",
        metavar="SECONDS",
        help="how often to poll the store for newly published bundles; "
             "0 disables hot reload (default: 2.0)",
    )
    p_daemon.add_argument(
        "--max-services", type=int, default=None, dest="max_services",
        metavar="N",
        help="LRU bound on concurrently loaded per-device services",
    )
    p_daemon.add_argument(
        "--quick", action="store_true",
        help="route only quick-recipe bundles",
    )
    p_daemon.add_argument(
        "--no-warm", action="store_false", dest="warm",
        help="skip materializing every device's bundle at startup (first "
             "request per device then pays the disk load)",
    )
    p_daemon.set_defaults(func=_cmd_serve_daemon, warm=True)

    p_camp = sub.add_parser(
        "campaign",
        help="run a multi-device measurement campaign: parallel sweeps -> "
             "registered traces -> trained, registered models",
    )
    p_camp.add_argument(
        "--devices", required=True, metavar="NAMES",
        help="comma-separated device names/aliases, e.g. titan-x,tesla-p100",
    )
    p_camp.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="measurement worker processes per device sweep (default: 1)",
    )
    p_camp.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="measurement passes over the grid (default: 1)",
    )
    p_camp.add_argument(
        "--quick", action="store_true",
        help="use the reduced training setup (also implied by REPRO_QUICK=1)",
    )
    p_camp.add_argument(
        "--store", metavar="DIR", default=None,
        help=f"artifact store root (default: {DEFAULT_STORE})",
    )
    p_camp.add_argument(
        "--resume", action="store_true",
        help="reuse every sweep already recorded under the store (finishes "
             "a crashed or interrupted campaign; final artifacts are "
             "byte-identical to a one-shot run)",
    )
    p_camp.add_argument(
        "--metrics-out", metavar="FILE", dest="metrics_out",
        help="also write the campaign's metric snapshot to FILE (the store "
             "always keeps one under metrics/campaign.json)",
    )
    p_camp.add_argument(
        "--progress", action="store_true", default=None,
        help="render live per-leg progress (kernels/sec, ETA, worker "
             "utilization) on stderr; default: only when stderr is a TTY",
    )
    p_camp.add_argument(
        "--no-progress", action="store_false", dest="progress",
        help="never render live progress",
    )
    _add_features_flag(p_camp)
    _add_trainer_flags(p_camp)
    p_camp.set_defaults(func=_cmd_campaign)

    p_char = sub.add_parser("characterize", help="sweep a suite benchmark")
    p_char.add_argument("benchmark", help="benchmark name, e.g. k-NN or MT")
    p_char.add_argument("--quick", action="store_true")
    _add_device_flags(p_char, record=True)
    p_char.set_defaults(func=_cmd_characterize)

    p_t2 = sub.add_parser("table2", help="regenerate the paper's Table 2")
    p_t2.add_argument("--quick", action="store_true")
    _add_device_flags(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    return parser


#: Errors a command reports as ``error: ...`` with exit status 2, besides
#: :class:`CLIUsageError` and :class:`FileNotFoundError`: (module, class).
_USER_ERRORS = (
    ("repro.clkernel.errors", "CLFrontendError"),
    ("repro.measure.replay", "ReplayError"),
    ("repro.serve.artifacts", "ArtifactError"),
    ("repro.serve.service", "ServiceError"),
)


def _user_error_types() -> tuple[type[Exception], ...]:
    """The user-facing error classes the command could have raised.

    Looked up, never imported: a class whose module the command did not
    load cannot have been raised, and importing it here would cost every
    command the measure and serve stacks.
    """
    types: list[type[Exception]] = [CLIUsageError, FileNotFoundError]
    for module_name, class_name in _USER_ERRORS:
        module = sys.modules.get(module_name)
        if module is not None:
            types.append(getattr(module, class_name))
    return tuple(types)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if not isinstance(exc, _user_error_types()):
            raise
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
  trace into its memory-mapped v3 columnar sidecar (the store's
  ``traces/`` and ``models/`` stay flat directories of files);
* ``stats --store DIR [--format prom|json]`` — export the store's merged
  ``repro.obs`` metrics (sweep-duration histograms per device, campaign
  counters, serve/cache counters) as Prometheus text exposition or JSON;
  ``campaign`` and ``predict-batch`` additionally take ``--metrics-out
  FILE`` to write their run's snapshot anywhere;
* ``devices`` — list registered devices, aliases, and frequency grids;
* ``campaign --devices a,b`` — run a multi-device measurement campaign:
  leg-major sweeps over one shared worker pool, JSONL traces
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
the measurement engine (``simulator``, or ``replay`` with ``--trace`` or
``--trace-key``), and ``--record-trace`` streams every sweep into a
JSONL trace for later replay.  Cross-device workflows are one command each::

    repro-dvfs train --device tesla-p100 --save p100.json
    repro-dvfs predict kernel.cl --model p100.json

or, once a campaign store exists, zero-file fleet serving::

    repro-dvfs campaign --devices titan-x,tesla-p100 --store repro-store
    repro-dvfs serve-status --store repro-store
    repro-dvfs predict kernel.cl --device p100 --store repro-store
"""

from __future__ import annotations

import argparse
import contextlib
import os
import pathlib
import sys

#: Choices for --backend.
BACKEND_CHOICES = ("simulator", "replay")

#: The flags that only mean something with ``--backend replay``, as
#: (argparse dest, flag spelling).
REPLAY_FLAGS = (
    ("trace", "--trace"),
    ("trace_key", "--trace-key"),
    ("max_cached_kernels", "--max-cached-kernels"),
)

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


def _replay_flags(args) -> list[str]:
    """The replay-only flags set on the command line."""
    return [flag for dest, flag in REPLAY_FLAGS if getattr(args, dest) is not None]


def _resolve_setup(args):
    """Resolve (device, backend, recorder) from the common CLI flags."""
    from .harness.context import DEFAULT_DEVICE
    from .measure import (
        RecordingBackend,
        ReplayBackend,
        SimulatorBackend,
        TraceRegistry,
    )

    trace, trace_key, cached = args.trace, args.trace_key, args.max_cached_kernels
    record = getattr(args, "record_trace", None)
    device = _resolve_device_cli(args.device) if args.device else None

    if args.backend == "replay":
        if trace and trace_key:
            raise CLIUsageError("pass either --trace PATH or --trace-key KEY, not both")
        if cached is not None and cached < 1:
            raise CLIUsageError("--max-cached-kernels must be >= 1")
        if trace_key:
            from .campaign.engine import TRACES_SUBDIR

            trace = TraceRegistry(_store_root(args) / TRACES_SUBDIR).resolve(trace_key)
        elif not trace:
            raise CLIUsageError(
                "--backend replay requires --trace PATH or --trace-key KEY"
            )
        try:
            backend = ReplayBackend(trace, device=device, max_cached_kernels=cached)
        except FileNotFoundError:
            raise
        except (OSError, UnicodeDecodeError) as exc:
            reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
            raise CLIUsageError(f"{trace}: {reason or exc}") from None
        device = backend.device
    else:
        stray = _replay_flags(args)
        if stray:
            raise CLIUsageError(
                f"{', '.join(stray)} only applies with --backend replay"
            )
        device = device or _resolve_device_cli(DEFAULT_DEVICE)
        backend = SimulatorBackend(device)

    recorder = None
    if record:
        # Opened before anything is measured, so a bad path costs nothing.
        try:
            backend = recorder = RecordingBackend(backend, stream=record)
        except FileNotFoundError:
            raise
        except OSError as exc:
            raise CLIUsageError(f"{record}: {exc.strerror or exc}") from None
    return device, backend, recorder


def _store_root(args) -> pathlib.Path:
    return pathlib.Path(args.store or DEFAULT_STORE)


def _training_recipe(args) -> str:
    """The training recipe: ``quick`` under ``--quick`` or ``REPRO_QUICK``.

    Resolved once per command, so the context a command trains and the
    recipe it records in artifact meta can never disagree.
    """
    return "quick" if args.quick or os.environ.get("REPRO_QUICK") else "paper"


def _context_for(args, setup=None):
    """Build (or fetch cached) training context for the CLI flags.

    ``setup`` is a ``(device, backend, recorder)`` triple the caller has
    already resolved; by default the flags are resolved here.
    """
    from .analysis.recipes import DEFAULT_RECIPE
    from .harness.context import build_context, paper_context, quick_context
    from .measure import SimulatorBackend

    device, backend, recorder = setup or _resolve_setup(args)
    recipe = _training_recipe(args)
    features = _feature_recipe(args)
    if (
        recorder is None
        and isinstance(backend, SimulatorBackend)
        and features == DEFAULT_RECIPE
    ):
        maker = quick_context if recipe == "quick" else paper_context
        return maker(device=device.name)
    return build_context(
        device=device, recipe=recipe, backend=backend, feature_recipe=features
    )


def _feature_recipe(args) -> str:
    """Validate and return --features (default recipe when absent)."""
    from .analysis.recipes import DEFAULT_RECIPE, RecipeError, resolve_recipe

    name = getattr(args, "features", None) or DEFAULT_RECIPE

    try:
        resolve_recipe(name)
    except RecipeError as exc:
        raise CLIUsageError(str(exc)) from None
    return name


def _report_recorded(recorder) -> None:
    if recorder is not None:
        print(f"recorded measurement trace to {recorder.stream_path}")


def _read_text(path, where: str = "") -> str:
    """Read a kernel source or ``--requests`` file as UTF-8 text.

    A missing file propagates as :class:`FileNotFoundError` (``main``
    names its path); any other unreadable or undecodable input is a
    usage error, ``<where><path>: <reason>``.
    """
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except OSError as exc:
        reason = exc.strerror or str(exc)
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        reason = f"byte {byte:#04x} at offset {exc.start} is not UTF-8"
    raise CLIUsageError(f"{where}{path}: {reason}")


def _cmd_features(args: argparse.Namespace) -> int:
    from .features import extract_features

    source = _read_text(args.kernel)
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
        if report.unresolved:  # a path, not a kernel, is at fault
            raise CLIUsageError(report.unresolved[0])
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
    from .core.pipeline import save_models
    from .serve.registry import features_for_recipe

    features = _feature_recipe(args)
    if pathlib.Path(args.save).expanduser().is_dir():
        raise CLIUsageError(f"{args.save}: Is a directory")
    setup = _resolve_setup(args)
    recorder = setup[2]
    with recorder or contextlib.nullcontext():
        ctx = _context_for(args, setup)
        meta = {
            "device": ctx.device.name,
            "recipe": _training_recipe(args),
            "features": features_for_recipe(features),
            "backend": ctx.backend.kind,
        }
        path = save_models(args.save, ctx.models, meta=meta)
    print(
        f"trained on {ctx.models.n_training_samples} samples "
        f"({ctx.dataset.n_kernels} codes x {len(ctx.settings)} settings) "
        f"for {ctx.device.name}"
    )
    print(f"saved model artifact to {path} ({path.stat().st_size} bytes)")
    _report_recorded(recorder)
    return 0


def _reject_backend_flags_with_model(args) -> None:
    """--backend and its replay flags select the measurement engine for
    in-process training; combined with a pre-trained --model artifact they
    would be silently ignored, so refuse the mix outright."""
    if args.backend != "simulator" or _replay_flags(args):
        raise CLIUsageError(
            "--backend and its replay flags configure in-process training and "
            "cannot be combined with --model (the artifact is already trained)"
        )


def _serves_from_store(args) -> bool:
    """True when predict/predict-batch should route through a campaign
    store's fleet: an explicit ``--store`` with no model file and no
    replay/trace flags (those keep their in-process training meaning)."""
    if args.model and args.store:
        raise CLIUsageError(
            "pass either --model PATH (one saved bundle) or --store DIR "
            "(serve from a campaign store), not both"
        )
    return (
        args.store is not None
        and not args.model
        and args.backend == "simulator"
        and not _replay_flags(args)
    )


def _fleet_for(args, recipe: str | None = None):
    """A FleetService over --store (routing only ``recipe`` bundles when
    given), surfacing bad stores as CLI errors."""
    from .serve.fleet import FleetService

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
    path = args.metrics_out
    if path:
        from .obs import save_snapshot

        print(f"wrote metrics snapshot to {save_snapshot(snapshot, path)}")


def _prediction_server(args):
    """The server predict and predict-batch run on, as ``(kind, server)``.

    ``kind`` is ``"fleet"`` for a campaign store's :class:`FleetService`
    (``--store``; items carry a device) and ``"service"`` for a
    :class:`PredictionService` over a saved bundle (``--model``) or over
    in-process training.
    """
    if _serves_from_store(args):
        # --quick narrows routing to quick-recipe bundles — without the
        # filter a store holding both recipes would silently serve the
        # preferred (paper) bundle to a user who asked for quick.
        return "fleet", _fleet_for(args, recipe="quick" if args.quick else None)
    from .serve.service import PredictionService

    if args.model:
        _reject_backend_flags_with_model(args)
        device = _resolve_device_cli(args.device) if args.device else None
        return "service", PredictionService.from_artifact(args.model, device=device)
    ctx = _context_for(args)
    return "service", PredictionService(models=ctx.models, device=ctx.device)


def _predict_entries(args, entries, label_devices: bool = False):
    """Predict ``(device, source, name, label)`` entries in one batch.

    Returns ``(kind, server, fronts)`` with ``fronts`` a list of
    ``(label, outcome)`` in entry order: the predicted set, or the
    frontend error of a kernel that does not extract.  On a fleet,
    entries without a device go to ``--device`` (or the store's only
    device), and ``label_devices`` appends the routed device to each
    label.
    """
    kind, server = _prediction_server(args)
    if kind == "fleet":
        default_device: str | None = None
        items = []
        labels = []
        for device, source, name, label in entries:
            if device is None:
                if default_device is None:
                    default_device = _fleet_device(server, args)
                device = default_device
            items.append((device, source, name))
            labels.append(f"{label} @ {device}" if label_devices else label)
    else:
        routed = sorted({d for d, *_ in entries if d is not None})
        if routed:
            raise CLIUsageError(
                f"--requests lines name devices ({', '.join(routed)}) but "
                f"there is no fleet to route them; add --store DIR"
            )
        items = [(source, name) for _, source, name, _ in entries]
        labels = [label for *_, label in entries]
    return kind, server, list(zip(labels, server.predict_batch(items)))


def _cmd_predict(args: argparse.Namespace) -> int:
    from .serve.service import answered

    source = _read_text(args.kernel)
    _, _, [(_, outcome)] = _predict_entries(
        args, [(None, source, args.name, args.kernel)]
    )
    _print_front(answered(outcome))
    return 0


def _load_request_lines(
    path: pathlib.Path,
) -> list[tuple[str | None, str, str | None, str]]:
    """Parse a --requests JSONL file → (device, source, name, label) rows.

    Each line is one request object carrying ``source`` (inline kernel
    text) or ``kernel`` (a path to read), optionally ``device`` and
    ``name``, each a string.  Blank lines and ``#`` comments are skipped.
    """
    import json

    if not path.exists():
        raise CLIUsageError(f"--requests file not found: {path}")
    entries: list[tuple[str | None, str, str | None, str]] = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
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
        for field in ("source", "kernel", "device", "name"):
            if obj.get(field) is not None and not isinstance(obj[field], str):
                raise CLIUsageError(f"{path}:{lineno}: '{field}' must be a string")
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
            source = _read_text(kernel_path, where=f"{path}:{lineno}: ")
            label = str(kernel)
        else:
            label = obj.get("name") or f"{path.name}:{lineno}"
        entries.append((obj.get("device"), source, obj.get("name"), label))
    if not entries:
        raise CLIUsageError(f"{path}: no requests (file is empty)")
    return entries


def _cmd_predict_batch(args: argparse.Namespace) -> int:
    from .clkernel.errors import CLFrontendError

    if args.requests and args.kernels:
        raise CLIUsageError(
            "pass kernel file paths or --requests FILE.jsonl, not both"
        )
    if args.requests:
        entries = _load_request_lines(pathlib.Path(args.requests))
    elif args.kernels:
        entries = [
            (None, _read_text(p), args.name, p) for p in args.kernels
        ]
    else:
        raise CLIUsageError("pass kernel file paths or --requests FILE.jsonl")
    kind, server, fronts = _predict_entries(
        args, entries, label_devices=bool(args.requests)
    )
    failed = 0
    for label, outcome in fronts:
        # Answered per item, as the daemon does: a kernel that does not
        # extract is one error line and costs the others nothing.
        if isinstance(outcome, CLFrontendError):
            print(f"error: {label}: {outcome}", file=sys.stderr)
            failed += 1
            continue
        print(f"== {label}")
        _print_front(outcome)
    if args.stats:
        print(f"-- {kind} stats")
        _print_stats(server.stats_summary())
    _save_metrics_out(server.metrics.snapshot(), args)
    return 2 if failed else 0


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
    routed = daemon.fleet.stats_summary()["routing"]["requests_routed"]
    print(
        f"serve-daemon shut down cleanly: {daemon.request_count()} HTTP "
        f"request(s), {routed} prediction(s) served",
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
    registry = TraceRegistry(_store_root(args) / TRACES_SUBDIR)
    slugs = registry.entries()
    if not slugs:
        raise CLIUsageError(
            f"no recorded traces under {registry.root} "
            f"(run `repro campaign --store {_store_root(args)}` first)"
        )
    rows = []
    for slug in sorted(slugs):
        path = registry.path_for_slug(slug)
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
    report = compact_store(_store_root(args), force=args.force)
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
    from .campaign import CampaignPlan, run_campaign

    devices = tuple(d.strip() for d in args.devices.split(",") if d.strip())
    if not devices:
        raise CLIUsageError("--devices needs at least one device name or alias")
    for name in devices:
        _resolve_device_cli(name)  # surface typos as usage errors
    recipe = _training_recipe(args)
    try:
        plan = CampaignPlan(
            devices=devices,
            recipe=recipe,
            workers=args.workers,
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
        f"--store {report.store_root}{' --quick' if recipe == 'quick' else ''} "
        f"--save models.json"
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .core.config import TRAINING_RECIPES, sample_training_settings
    from .harness.characterize import characterize_kernel
    from .suite import get_benchmark

    try:
        spec = get_benchmark(args.benchmark)
    except KeyError as exc:
        raise CLIUsageError(exc.args[0]) from None
    # Characterization needs only a sweep, not trained models — build the
    # backend directly instead of paying for a training context.
    device, backend, recorder = _resolve_setup(args)
    _, budget = TRAINING_RECIPES[_training_recipe(args)]
    settings = sample_training_settings(device, total=budget)
    with recorder or contextlib.nullcontext():
        ch = characterize_kernel(backend, spec, settings)
    print(f"{spec.name} on {device.name}: {ch.classify()}-dominated "
          f"(memory sensitivity {ch.mem_sensitivity():.2f})")
    for label in sorted(ch.series, key=lambda l: -ch.series[l].mem_mhz):
        series = ch.series[label]
        print(f"\nmem-{label} ({series.mem_mhz:.0f} MHz):")
        for core, speedup, energy in series.rows():
            print(f"  core {core:6.0f} MHz  speedup {speedup:6.3f}  "
                  f"norm energy {energy:6.3f}")
    _report_recorded(recorder)
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .harness.evaluation import evaluate_suite
    from .harness.report import format_table
    from .suite import test_benchmarks

    ctx = _context_for(args)
    evals = evaluate_suite(ctx.backend, ctx.predictor, test_benchmarks(), ctx.settings)
    rows = [ev.table_row() for ev in evals]
    print(
        format_table(
            ["Benchmark", "D(P*,P')", "|P'|", "|P*|", "max speedup Δ", "min energy Δ"],
            rows,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dvfs",
        description=(
            "Predictable GPU frequency scaling (ICPP'19 reproduction): "
            "predict Pareto-optimal (core, memory) clocks for OpenCL kernels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every flag more than one subcommand takes is declared once, on a
    # parent parser the subcommands list in ``parents=``.
    kernel = argparse.ArgumentParser(add_help=False)
    kernel.add_argument("kernel", help="path to an OpenCL .cl source file")
    name = argparse.ArgumentParser(add_help=False)
    name.add_argument(
        "--name",
        help="kernel function name, for translation units with several "
             "(predict-batch applies it to every file)",
    )
    quick = argparse.ArgumentParser(add_help=False)
    quick.add_argument(
        "--quick", action="store_true",
        help="the reduced quick recipe (faster, less accurate; also implied "
             "by REPRO_QUICK=1): train on it, sweep its 24-setting sample, "
             "or route only quick-recipe bundles from a store",
    )
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument(
        "--model", metavar="PATH",
        help="load a saved model artifact instead of training in-process",
    )
    metrics_out = argparse.ArgumentParser(add_help=False)
    metrics_out.add_argument(
        "--metrics-out", metavar="FILE", dest="metrics_out",
        help="also write the run's metric snapshot (counters + latency "
             "histograms) to FILE as JSON",
    )
    store = argparse.ArgumentParser(add_help=False)
    store.add_argument(
        "--store", metavar="DIR", default=None,
        help=f"campaign store root (default: {DEFAULT_STORE}); with "
             "--trace-key, where traces resolve from; on predict and "
             "predict-batch without --model, serve --device's predictions "
             "from the store's registered bundles",
    )
    features = argparse.ArgumentParser(add_help=False)
    features.add_argument(
        "--features", metavar="RECIPE", default=None,
        help="static feature recipe: a base layout (by default the "
             "paper's exact ten-share layout, or its '-raw' variant of "
             "unnormalized counts) extended by +loops, +memmix and/or "
             "+divergence column blocks (an unknown name lists the bases)",
    )
    # The measurement-selection flags (with --store, where --trace-key
    # resolves) of every command that trains or sweeps.
    measure = argparse.ArgumentParser(add_help=False, parents=[store])
    measure.add_argument(
        "--device", metavar="NAME",
        help="target device, full name or alias (titan-x, tesla-p100); "
             "default: titan-x (or the replay trace's device)",
    )
    measure.add_argument(
        "--backend", choices=BACKEND_CHOICES, default="simulator",
        help="measurement backend (default: the vectorized simulator)",
    )
    measure.add_argument(
        "--trace", metavar="PATH",
        help="measurement trace file to serve from (with --backend replay)",
    )
    measure.add_argument(
        "--trace-key", metavar="KEY", dest="trace_key",
        help="registered trace to serve from, as device/suite[/noise-hash] "
             "(with --backend replay; e.g. titan-x/default)",
    )
    measure.add_argument(
        "--max-cached-kernels", type=int, metavar="N", dest="max_cached_kernels",
        help="(with --backend replay) LRU bound on materialized per-kernel "
             "records; memory-mapped columnar slices bypass the cache "
             "entirely (default: 64)",
    )
    record = argparse.ArgumentParser(add_help=False)
    record.add_argument(
        "--record-trace", metavar="PATH", dest="record_trace",
        help="stream every sweep into a JSONL trace for later replay (the "
             "file appears only when the command succeeds)",
    )

    p_feat = sub.add_parser(
        "features", parents=[kernel, name], help="extract static code features"
    )
    p_feat.set_defaults(func=_cmd_features)

    p_lint = sub.add_parser(
        "lint", parents=[store],
        help="diagnose kernel sources with the kernel analysis: unknown "
             "loop trip counts, zero-trip loops, assumed branch "
             "probabilities; exits nonzero on error-severity findings "
             "(with --store, lint the kernels behind the store's traces)",
    )
    p_lint.add_argument(
        "sources", nargs="*", metavar="KERNEL.cl",
        help="OpenCL source files to lint (one translation unit each)",
    )
    p_lint.add_argument(
        "--min-severity", choices=("info", "warning", "error"),
        default="info", dest="min_severity",
        help="hide findings below this severity (default: info; the exit "
             "code always reflects error findings, shown or not)",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_train = sub.add_parser(
        "train", parents=[quick, features, measure, record],
        help="train the paper's models and save them to disk",
    )
    p_train.add_argument(
        "--save", required=True, metavar="PATH",
        help="where to write the model artifact (JSON)",
    )
    p_train.set_defaults(func=_cmd_train)

    p_pred = sub.add_parser(
        "predict", parents=[kernel, name, quick, model, measure],
        help="predict Pareto-optimal clocks",
    )
    p_pred.set_defaults(func=_cmd_predict)

    p_batch = sub.add_parser(
        "predict-batch", parents=[name, model, quick, metrics_out, measure],
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
        "--stats", action="store_true",
        help="print service cache/latency counters after the batch",
    )
    p_batch.set_defaults(func=_cmd_predict_batch)

    p_dev = sub.add_parser(
        "devices", help="list registered devices, aliases, and frequency grids"
    )
    p_dev.set_defaults(func=_cmd_devices)

    p_stats = sub.add_parser(
        "stats", parents=[store],
        help="export a campaign store's merged metrics (sweep-duration "
             "histograms per device, campaign counters, serve/cache "
             "counters) as Prometheus text exposition or JSON",
    )
    p_stats.add_argument(
        "--format", choices=("prom", "json"), default="prom",
        help="output format: Prometheus text exposition 0.0.4 (prom, the "
             "default) or the JSON snapshot document",
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_traces = sub.add_parser(
        "traces", parents=[store],
        help="list a campaign store's registered measurement traces: format "
             "version (v2 JSONL / v3 columnar), record and row counts, "
             "bytes, compaction status, and compacted-prefix sha",
    )
    p_traces.set_defaults(func=_cmd_traces)

    p_store = sub.add_parser(
        "store",
        help="campaign-store maintenance (see `repro store compact --help`)",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_compact = store_sub.add_parser(
        "compact", parents=[store],
        help="one maintenance pass: compact every trace into its v3 "
             "columnar sidecar",
    )
    p_compact.add_argument(
        "--force", action="store_true",
        help="rewrite sidecars even when already fresh",
    )
    p_compact.set_defaults(func=_cmd_store_compact)

    p_status = sub.add_parser(
        "serve-status", parents=[store],
        help="list what a campaign store can serve: devices with registered "
             "bundles, their aliases, recipes, and trace provenance",
    )
    p_status.set_defaults(func=_cmd_serve_status)

    p_daemon = sub.add_parser(
        "serve-daemon", parents=[store, quick],
        help="serve a campaign store over HTTP: micro-batched grouped "
             "predictions, per-device admission control (503 + Retry-After), "
             "hot reload when a campaign publishes new bundles",
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
        "--no-warm", action="store_false", dest="warm",
        help="skip materializing every device's bundle at startup (first "
             "request per device then pays the disk load)",
    )
    p_daemon.set_defaults(func=_cmd_serve_daemon, warm=True)

    p_camp = sub.add_parser(
        "campaign", parents=[quick, store, metrics_out, features],
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
        "--resume", action="store_true",
        help="reuse every sweep already recorded under the store (finishes "
             "a crashed or interrupted campaign; final artifacts are "
             "byte-identical to a one-shot run)",
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
    p_camp.set_defaults(func=_cmd_campaign)

    p_char = sub.add_parser(
        "characterize", parents=[quick, measure, record],
        help="sweep a suite benchmark",
    )
    p_char.add_argument("benchmark", help="benchmark name, e.g. k-NN or MT")
    p_char.set_defaults(func=_cmd_characterize)

    p_t2 = sub.add_parser(
        "table2", parents=[quick, measure], help="regenerate the paper's Table 2"
    )
    p_t2.set_defaults(func=_cmd_table2)

    return parser


#: Errors a command reports as ``error: ...`` with exit status 2, besides
#: :class:`CLIUsageError` and :class:`FileNotFoundError`: (module, class).
_USER_ERRORS = (
    ("repro.clkernel.errors", "CLFrontendError"),
    ("repro.measure.replay", "ReplayError"),
    ("repro.store.envelope", "ArtifactError"),
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
        if isinstance(exc, OSError) and exc.filename is not None:
            # args[0] of an OSError is its errno; name the path instead.
            message = f"{exc.strerror}: {exc.filename}"
        else:
            message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

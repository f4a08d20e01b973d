"""`repro lint` engine: diagnostics-pass findings over kernel sources.

Runs the clkernel frontend over every kernel of every given translation
unit and folds the ``diagnostics`` analysis pass into location-tagged
findings (``path:line: severity: message``).  Frontend failures (lex,
parse, lowering) are findings too — a lint run never throws on bad kernel
source, it reports it.

Two collection modes mirror the CLI:

* **paths** — lint ``.cl`` files (each file is one translation unit);
* **store** — lint the kernel corpus a campaign store's traces were
  measured from.  Traces record measurements, not source, so kernels are
  resolved *by name* against the known corpora (synthetic generator +
  paper test suite); unresolvable names are reported, not ignored.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from ..clkernel.errors import CLFrontendError
from ..clkernel.lowering import Lowerer
from ..clkernel.parser import parse
from .passes import (
    AnalysisConfig,
    DiagnosticsReport,
    Finding,
    PassManager,
    severity_rank,
)


@dataclass(frozen=True)
class LintFinding:
    """One finding with its source location label (path or spec name)."""

    label: str
    finding: Finding

    @property
    def severity(self) -> str:
        return self.finding.severity

    def render(self) -> str:
        f = self.finding
        kernel = f" [{f.kernel}]" if f.kernel else ""
        return f"{self.label}:{f.line}: {f.severity}: {f.message} ({f.code}){kernel}"


@dataclass(frozen=True)
class LintReport:
    """Every finding of one lint run, plus names that could not resolve."""

    findings: tuple[LintFinding, ...] = ()
    unresolved: tuple[str, ...] = ()
    kernels_checked: int = 0

    @property
    def errors(self) -> tuple[LintFinding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def has_errors(self) -> bool:
        return any(f.severity == "error" for f in self.findings)

    def render_lines(self, min_severity: str = "info") -> list[str]:
        floor = severity_rank(min_severity)
        return [
            f.render() for f in self.findings if severity_rank(f.severity) >= floor
        ]

    def summary(self) -> str:
        by_severity = {"error": 0, "warning": 0, "info": 0}
        for f in self.findings:
            by_severity[f.severity] = by_severity.get(f.severity, 0) + 1
        parts = [
            f"{count} {name}{'s' if count != 1 else ''}"
            for name, count in by_severity.items()
            if count
        ]
        checked = f"{self.kernels_checked} kernel(s) checked"
        if not parts:
            return f"{checked}, clean"
        text = f"{checked}: " + ", ".join(parts)
        if self.unresolved:
            text += f"; {len(self.unresolved)} kernel name(s) unresolved"
        return text


def lint_source(
    source: str,
    label: str = "<source>",
    config: AnalysisConfig | None = None,
    kernel_name: str | None = None,
) -> tuple[list[LintFinding], int]:
    """Lint one translation unit; returns (findings, kernels checked).

    Every ``__kernel`` in the unit is lowered and diagnosed (or just the
    named one when ``kernel_name`` is given).  Frontend errors become
    error-severity ``frontend-error`` findings at the failing line.
    """
    cfg = config or AnalysisConfig()
    manager = PassManager(cfg)
    findings: list[LintFinding] = []
    try:
        unit = parse(source)
        kernels = unit.kernels()
        if kernel_name is not None:
            kernels = [k for k in kernels if k.name == kernel_name]
            if not kernels:
                raise CLFrontendError(f"no kernel named {kernel_name!r}")
    except CLFrontendError as exc:
        findings.append(_frontend_finding(label, exc))
        return findings, 0
    if not kernels:
        findings.append(
            LintFinding(
                label=label,
                finding=Finding(
                    severity="error",
                    code="frontend-error",
                    message="source contains no __kernel function",
                ),
            )
        )
        return findings, 0
    checked = 0
    for kernel in kernels:
        try:
            ir = Lowerer(
                unit, branch_probability=cfg.branch_probability
            ).lower_kernel(kernel)
        except CLFrontendError as exc:
            findings.append(_frontend_finding(label, exc, kernel.name))
            continue
        checked += 1
        report = manager.run(ir, "diagnostics")
        assert isinstance(report, DiagnosticsReport)
        findings.extend(LintFinding(label=label, finding=f) for f in report.findings)
    return findings, checked


def _frontend_finding(
    label: str, exc: CLFrontendError, kernel: str = ""
) -> LintFinding:
    return LintFinding(
        label=label,
        finding=Finding(
            severity="error",
            code="frontend-error",
            message=exc.message,
            line=exc.line,
            kernel=kernel,
        ),
    )


def lint_paths(
    paths: "list[str | pathlib.Path]", config: AnalysisConfig | None = None
) -> LintReport:
    """Lint kernel source files (one translation unit per file); a path
    that cannot be read as UTF-8 text is listed in ``unresolved``."""
    findings: list[LintFinding] = []
    unresolved: list[str] = []
    checked = 0
    for raw in paths:
        path = pathlib.Path(raw).expanduser()
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            unresolved.append(f"{path}: {exc.strerror or exc}")
            continue
        except UnicodeDecodeError:
            unresolved.append(f"{path}: not UTF-8 text")
            continue
        file_findings, file_checked = lint_source(source, str(path), config)
        findings.extend(file_findings)
        checked += file_checked
    return LintReport(
        findings=tuple(findings),
        unresolved=tuple(unresolved),
        kernels_checked=checked,
    )


def _known_specs() -> dict[str, object]:
    """Name → spec over every kernel corpus this build can reproduce."""
    from ..suite.registry import test_benchmarks
    from ..synthetic.generator import generate_micro_benchmarks

    specs: dict[str, object] = {}
    for spec in generate_micro_benchmarks():
        specs[spec.name] = spec
    for spec in test_benchmarks():
        specs.setdefault(spec.name, spec)
    return specs


def _store_kernel_names(root: pathlib.Path) -> list[str]:
    """Kernel names recorded in any trace under a campaign store."""
    from ..measure.trace import ReplayError, scan_trace_offsets
    from ..measure.trace_registry import TraceRegistry
    from ..store.layout import TRACES_SUBDIR

    registry = TraceRegistry(root / TRACES_SUBDIR)
    names: dict[str, None] = {}
    for path in map(registry.path_for_slug, registry.entries()):
        try:
            _header, offsets = scan_trace_offsets(path)
        except (ReplayError, OSError, ValueError):
            continue
        for name in offsets:
            names.setdefault(name)
    return list(names)


def lint_store(
    store_root: "str | pathlib.Path", config: AnalysisConfig | None = None
) -> LintReport:
    """Lint the kernel corpus behind a campaign store's traces.

    Kernel names come from the store's trace records; sources resolve by
    name against the synthetic micro-benchmark generator and the paper
    test suite.  A name with no known source lands in ``unresolved`` —
    the caller decides whether that is fatal (the CLI treats it as a
    warning, not an error exit).
    """
    root = pathlib.Path(store_root).expanduser()
    from ..store.layout import TRACES_SUBDIR

    if not (root / TRACES_SUBDIR).is_dir():
        raise FileNotFoundError(
            f"{root} is not a campaign store (no {TRACES_SUBDIR}/ directory)"
        )
    specs = _known_specs()
    findings: list[LintFinding] = []
    unresolved: list[str] = []
    checked = 0
    for name in _store_kernel_names(root):
        spec = specs.get(name)
        if spec is None:
            unresolved.append(name)
            continue
        spec_findings, spec_checked = lint_source(
            spec.source,  # type: ignore[attr-defined]
            label=name,
            config=config,
            kernel_name=getattr(spec, "kernel_name", None),
        )
        findings.extend(spec_findings)
        checked += spec_checked
    return LintReport(
        findings=tuple(findings),
        unresolved=tuple(unresolved),
        kernels_checked=checked,
    )

"""Pass-manager framework over the counted kernel IR.

The paper extracts its features "with an LLVM pass running on the
intermediate representation of the kernel" (§3.2).  This module is that
pass layer for our IR: small, registered analyses that each fold one view
out of a :class:`~repro.clkernel.ir.KernelIR` region tree, run through a
:class:`PassManager` that keeps one IR's results so a recipe composed of
many blocks never re-walks the tree.

Pass contract
-------------
A pass is a stateless object with a unique ``name`` and a
``run(ir, config, manager)`` method returning an immutable result.  Passes
may request other passes' results through the manager (``memory-mix`` and
``diagnostics`` both build on ``opcode-histogram``); the manager's memo
makes such composition free.  Register with :func:`register_pass`.

Built-in passes
---------------
``opcode-histogram``
    Per-op weighted counts — byte-identical to
    :meth:`KernelIR.weighted_counts`, which it delegates to (that fold is
    the canonical arithmetic every persisted feature vector depends on).
``memory-mix``
    Global/local/compute weight split and access-per-op intensity.
``loop-structure``
    Nesting depth, static vs defaulted trip counts, loop-resident op share.
``divergence``
    Branch density and the weighted feature mass under conditional regions.
``diagnostics``
    Extraction-fidelity findings (unknown trip counts, zero-weight regions,
    kernels lowering to zero feature ops, weighted counts that overflow)
    — the engine behind ``repro lint``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..clkernel.ir import (
    AUX_OPS,
    FEATURE_OPS,
    IROp,
    IRRegion,
    KernelIR,
    RegionVisitor,
    WalkFrame,
)

#: Lint severity levels, least to most severe.
SEVERITIES: tuple[str, ...] = ("info", "warning", "error")


def severity_rank(severity: str) -> int:
    """Numeric order of a severity (unknown severities sort lowest)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return -1


class AnalysisError(RuntimeError):
    """Raised on unknown pass names or invalid pass registrations."""


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs every pass sees (mirrors the extractor's weighting choices).

    ``branch_probability`` is recorded for provenance/fingerprints: the
    probabilities themselves are annotated on the IR during lowering, so
    passes only ever *read* them — but two IRs lowered under different
    assumed probabilities must never share cached results or cache keys.
    """

    default_trip_count: int = 16
    branch_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.default_trip_count < 0:
            raise ValueError("default_trip_count must be non-negative")
        if not 0.0 <= self.branch_probability <= 1.0:
            raise ValueError("branch_probability must be in [0, 1]")


class AnalysisPass:
    """Base class for registered passes (stateless; results are cached)."""

    name: str = ""

    def run(self, ir: KernelIR, config: AnalysisConfig, manager: "PassManager") -> object:
        raise NotImplementedError


_PASS_REGISTRY: dict[str, AnalysisPass] = {}


def register_pass(cls: type[AnalysisPass]) -> type[AnalysisPass]:
    """Class decorator: instantiate and register an analysis pass by name."""
    instance = cls()
    if not instance.name:
        raise AnalysisError(f"pass {cls.__name__} declares no name")
    if instance.name in _PASS_REGISTRY:
        raise AnalysisError(f"duplicate analysis pass {instance.name!r}")
    _PASS_REGISTRY[instance.name] = instance
    return cls


def get_pass(name: str) -> AnalysisPass:
    try:
        return _PASS_REGISTRY[name]
    except KeyError:
        raise AnalysisError(
            f"unknown analysis pass {name!r}; registered: {registered_passes()}"
        ) from None


def registered_passes() -> tuple[str, ...]:
    """Names of every registered pass, sorted."""
    return tuple(sorted(_PASS_REGISTRY))


class PassManager:
    """Runs registered passes over kernel IRs, memoizing for one IR at a time.

    A recipe's blocks ask for the same passes of the IR they are
    extracting (``memory-mix`` and ``diagnostics`` both build on
    ``opcode-histogram``), so results are kept until a different IR comes
    in.  Repeats across kernels are the feature cache's job, not this
    one's.  Not thread-safe; the serving layers own locking at the cache
    above.
    """

    def __init__(self, config: AnalysisConfig | None = None) -> None:
        self.config = config or AnalysisConfig()
        self._ir: KernelIR | None = None
        self._results: dict[str, object] = {}

    def run(self, ir: KernelIR, name: str) -> object:
        """Run (or recall) one pass over ``ir``."""
        if ir is not self._ir:
            self._ir = ir
            self._results = {}
        if name not in self._results:
            self._results[name] = get_pass(name).run(ir, self.config, self)
        return self._results[name]

    def run_all(self, ir: KernelIR) -> dict[str, object]:
        """Every registered pass over one IR, keyed by pass name."""
        return {name: self.run(ir, name) for name in registered_passes()}


# ---------------------------------------------------------------------------
# opcode-histogram

#: Why a kernel whose weighted counts are not finite has no feature vector.
NON_FINITE_WEIGHT = (
    "weighted instruction count is not finite: the product of its static "
    "loop trip counts overflows a float"
)


@dataclass(frozen=True)
class OpcodeHistogram:
    """Weighted per-op counts plus the unweighted static size."""

    weighted: Mapping[str, float]
    static_size: int

    @property
    def feature_counts(self) -> dict[str, float]:
        """Weighted counts restricted to the ten feature-bearing ops."""
        return {op: self.weighted[op] for op in FEATURE_OPS}

    @property
    def feature_total(self) -> float:
        """The paper's normalizer: weighted total over feature ops."""
        return sum(self.weighted[op] for op in FEATURE_OPS)

    @property
    def aux_total(self) -> float:
        return sum(self.weighted[op] for op in AUX_OPS)

    @property
    def finite(self) -> bool:
        """Whether every weighted count is a finite number."""
        return all(math.isfinite(w) for w in self.weighted.values())


@register_pass
class OpcodeHistogramPass(AnalysisPass):
    """Per-op weighted counts (the feature vector's raw material).

    Delegates to :meth:`KernelIR.weighted_counts` — the canonical fold —
    rather than re-deriving the arithmetic, so the pass framework can
    never drift a bit from what every persisted artifact was trained on.
    """

    name = "opcode-histogram"

    def run(
        self, ir: KernelIR, config: AnalysisConfig, manager: "PassManager"
    ) -> OpcodeHistogram:
        return OpcodeHistogram(
            weighted=ir.weighted_counts(config.default_trip_count),
            static_size=ir.root.static_size(),
        )


# ---------------------------------------------------------------------------
# memory-mix


@dataclass(frozen=True)
class MemoryMix:
    """Weighted memory/compute split of one kernel."""

    global_weight: float
    local_weight: float
    compute_weight: float

    @property
    def memory_weight(self) -> float:
        return self.global_weight + self.local_weight

    @property
    def total_weight(self) -> float:
        return self.memory_weight + self.compute_weight

    @property
    def global_share_of_accesses(self) -> float:
        """Global fraction of all memory accesses (0 when memory-free)."""
        mem = self.memory_weight
        return self.global_weight / mem if mem > 0 else 0.0

    @property
    def local_share_of_accesses(self) -> float:
        mem = self.memory_weight
        return self.local_weight / mem if mem > 0 else 0.0

    @property
    def access_per_op(self) -> float:
        """Memory accesses per feature op — the intensity knob the paper's
        mem-L heuristic keys on (memory-heavy kernels prefer high f_mem)."""
        total = self.total_weight
        return self.memory_weight / total if total > 0 else 0.0


@register_pass
class MemoryMixPass(AnalysisPass):
    """Global/local/compute weight split, derived from the histogram."""

    name = "memory-mix"

    def run(
        self, ir: KernelIR, config: AnalysisConfig, manager: "PassManager"
    ) -> MemoryMix:
        hist = manager.run(ir, "opcode-histogram")
        assert isinstance(hist, OpcodeHistogram)
        counts = hist.feature_counts
        global_w = counts["gl_access"]
        local_w = counts["loc_access"]
        compute_w = hist.feature_total - global_w - local_w
        return MemoryMix(
            global_weight=global_w,
            local_weight=local_w,
            compute_weight=compute_w,
        )


# ---------------------------------------------------------------------------
# loop-structure


@dataclass(frozen=True)
class LoopStructure:
    """Loop shape of one kernel, weighted and unweighted."""

    max_depth: int
    n_loops: int
    n_static_trip: int
    n_defaulted_trip: int
    n_zero_trip: int
    #: Weighted feature mass emitted inside at least one loop, over total.
    loop_resident_share: float
    #: Weighted feature mass under at least one *defaulted* (unknown
    #: trip count) loop, over total — how much of the vector rides on the
    #: default-trip assumption.
    defaulted_weight_share: float


class _LoopVisitor(RegionVisitor):
    def __init__(self) -> None:
        self.n_loops = 0
        self.n_static = 0
        self.n_defaulted = 0
        self.n_zero = 0
        self.total = 0.0
        self.in_loop = 0.0
        self.under_defaulted = 0.0

    def enter_region(self, region: IRRegion, frame: WalkFrame) -> None:
        if region.kind != "loop":
            return
        self.n_loops += 1
        if region.trip_count is None:
            self.n_defaulted += 1
        else:
            self.n_static += 1
            if region.trip_count == 0:
                self.n_zero += 1

    def visit_op(self, op: IROp, frame: WalkFrame) -> None:
        if op.op not in FEATURE_OPS:
            return
        mass = frame.weight * op.count
        self.total += mass
        if frame.loop_depth > 0:
            self.in_loop += mass
        if frame.defaulted_trips > 0:
            self.under_defaulted += mass


@register_pass
class LoopStructurePass(AnalysisPass):
    """Loop nesting/trip-count structure via the weighted region walk."""

    name = "loop-structure"

    def run(
        self, ir: KernelIR, config: AnalysisConfig, manager: "PassManager"
    ) -> LoopStructure:
        visitor = _LoopVisitor()
        ir.accept(visitor, config.default_trip_count)
        total = visitor.total
        return LoopStructure(
            max_depth=ir.root.max_loop_depth(),
            n_loops=visitor.n_loops,
            n_static_trip=visitor.n_static,
            n_defaulted_trip=visitor.n_defaulted,
            n_zero_trip=visitor.n_zero,
            loop_resident_share=visitor.in_loop / total if total > 0 else 0.0,
            defaulted_weight_share=(
                visitor.under_defaulted / total if total > 0 else 0.0
            ),
        )


# ---------------------------------------------------------------------------
# divergence


@dataclass(frozen=True)
class Divergence:
    """Control-flow divergence profile of one kernel."""

    n_branch_regions: int
    branch_ops: int
    #: Static branch ops per static instruction (0 when the kernel is empty).
    branch_density: float
    #: Weighted feature mass under at least one conditional region, over
    #: total — how much of the vector is probability-scaled.
    conditional_mass: float
    #: Smallest probability annotated on any branch region (None without
    #: branches) — the most aggressively down-weighted path.
    min_branch_probability: float | None


class _DivergenceVisitor(RegionVisitor):
    def __init__(self) -> None:
        self.n_branch_regions = 0
        self.min_probability: float | None = None
        self.total = 0.0
        self.conditional = 0.0

    def enter_region(self, region: IRRegion, frame: WalkFrame) -> None:
        if region.kind != "branch":
            return
        self.n_branch_regions += 1
        if self.min_probability is None or region.probability < self.min_probability:
            self.min_probability = region.probability

    def visit_op(self, op: IROp, frame: WalkFrame) -> None:
        if op.op not in FEATURE_OPS:
            return
        mass = frame.weight * op.count
        self.total += mass
        if frame.branch_depth > 0:
            self.conditional += mass


@register_pass
class DivergencePass(AnalysisPass):
    """Branch density + probability-scaled feature mass."""

    name = "divergence"

    def run(
        self, ir: KernelIR, config: AnalysisConfig, manager: "PassManager"
    ) -> Divergence:
        visitor = _DivergenceVisitor()
        ir.accept(visitor, config.default_trip_count)
        hist = manager.run(ir, "opcode-histogram")
        assert isinstance(hist, OpcodeHistogram)
        branch_ops = sum(
            op.count for op in ir.root.iter_ops() if op.op == "branch"
        )
        static = hist.static_size
        return Divergence(
            n_branch_regions=visitor.n_branch_regions,
            branch_ops=branch_ops,
            branch_density=branch_ops / static if static > 0 else 0.0,
            conditional_mass=(
                visitor.conditional / visitor.total if visitor.total > 0 else 0.0
            ),
            min_branch_probability=visitor.min_probability,
        )


# ---------------------------------------------------------------------------
# diagnostics


@dataclass(frozen=True)
class Finding:
    """One extraction-fidelity finding, anchored to a source line."""

    severity: str
    code: str
    message: str
    line: int = 0
    kernel: str = ""

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )


@dataclass(frozen=True)
class DiagnosticsReport:
    """Every finding of one kernel, line-ordered."""

    kernel: str
    findings: tuple[Finding, ...] = ()

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity == "error")

    @property
    def max_severity(self) -> str | None:
        if not self.findings:
            return None
        return max((f.severity for f in self.findings), key=severity_rank)


class _DiagnosticsVisitor(RegionVisitor):
    def __init__(self, config: AnalysisConfig, kernel: str) -> None:
        self.config = config
        self.kernel = kernel
        self.findings: list[Finding] = []
        self._assumed_lines: set[int] = set()

    def enter_region(self, region: IRRegion, frame: WalkFrame) -> None:
        if region.kind == "loop":
            if region.trip_count is None:
                self.findings.append(
                    Finding(
                        severity="error",
                        code="unknown-trip-count",
                        message=(
                            "loop bound is not statically known; its body is "
                            f"weighted with the default trip count "
                            f"({self.config.default_trip_count})"
                        ),
                        line=region.line,
                        kernel=self.kernel,
                    )
                )
            elif region.trip_count == 0:
                self.findings.append(
                    Finding(
                        severity="warning",
                        code="zero-weight-region",
                        message=(
                            "loop has a statically zero trip count; its body "
                            "contributes nothing to the feature vector"
                        ),
                        line=region.line,
                        kernel=self.kernel,
                    )
                )
        elif region.kind == "branch":
            if region.probability == 0.0:
                self.findings.append(
                    Finding(
                        severity="warning",
                        code="zero-weight-region",
                        message=(
                            "branch region has probability 0; its body "
                            "contributes nothing to the feature vector"
                        ),
                        line=region.line,
                        kernel=self.kernel,
                    )
                )
            elif region.probability < 1.0 and region.line not in self._assumed_lines:
                self._assumed_lines.add(region.line)
                self.findings.append(
                    Finding(
                        severity="info",
                        code="assumed-branch-probability",
                        message=(
                            "conditional weighted with the static "
                            f"branch-probability estimate "
                            f"(p={region.probability:g})"
                        ),
                        line=region.line,
                        kernel=self.kernel,
                    )
                )


@register_pass
class DiagnosticsPass(AnalysisPass):
    """Extraction-fidelity findings: what the feature vector had to assume.

    Severities (see DESIGN.md "Analysis passes & feature recipes"):

    * ``error`` — the vector rests on a guess that can be arbitrarily wrong
      (unknown trip count), is degenerate (zero feature ops) or does not
      exist (non-finite weighted counts: extraction refuses the kernel);
    * ``warning`` — a region provably contributes nothing (zero weight);
    * ``info`` — a documented default was applied (branch probability).
    """

    name = "diagnostics"

    def run(
        self, ir: KernelIR, config: AnalysisConfig, manager: "PassManager"
    ) -> DiagnosticsReport:
        visitor = _DiagnosticsVisitor(config, ir.name)
        ir.accept(visitor, config.default_trip_count)
        findings = list(visitor.findings)
        hist = manager.run(ir, "opcode-histogram")
        assert isinstance(hist, OpcodeHistogram)
        if not hist.finite:
            findings.append(
                Finding(
                    severity="error",
                    code="non-finite-weight",
                    message=NON_FINITE_WEIGHT,
                    line=ir.root.line,
                    kernel=ir.name,
                )
            )
        if hist.feature_total == 0.0:
            findings.append(
                Finding(
                    severity="error",
                    code="no-feature-ops",
                    message=(
                        "kernel lowers to zero feature ops"
                        + (
                            " (only branch/sync auxiliary ops)"
                            if hist.aux_total > 0
                            else ""
                        )
                        + "; its feature vector is all-zero"
                    ),
                    line=ir.root.line,
                    kernel=ir.name,
                )
            )
        findings.sort(key=lambda f: (f.line, -severity_rank(f.severity), f.code))
        return DiagnosticsReport(kernel=ir.name, findings=tuple(findings))

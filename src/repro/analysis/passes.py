"""One analysis object per kernel IR.

The paper extracts its features "with an LLVM pass running on the
intermediate representation of the kernel" (§3.2).  This module is that
analysis for our IR: :class:`KernelAnalysis` wraps one
:class:`~repro.clkernel.ir.KernelIR` and exposes each view of it as a
lazily computed, cached attribute, so a recipe composed of many blocks
never re-walks the tree and nothing outlives the one IR it describes.

Attributes
----------
``histogram``
    Per-op weighted counts — byte-identical to
    :meth:`KernelIR.weighted_counts`, which it delegates to (that fold is
    the canonical arithmetic every persisted feature vector depends on).
``memory_mix``
    Global/local/compute weight split and access-per-op intensity.
``loops``
    Nesting depth, static vs defaulted trip counts, loop-resident op share.
``divergence``
    Branch density and the weighted feature mass under conditional regions.
``diagnostics``
    Extraction-fidelity findings (unknown trip counts, zero-trip loops,
    kernels lowering to zero feature ops, weighted counts that overflow)
    — the engine behind ``repro lint``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
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
from ..clkernel.lowering import DEFAULT_UNKNOWN_TRIP_COUNT

#: Lint severity levels, least to most severe.
SEVERITIES: tuple[str, ...] = ("info", "warning", "error")


def severity_rank(severity: str) -> int:
    """Numeric order of a severity (unknown severities sort lowest)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        return -1


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
        """Whether twice the sum of the weighted counts is a finite number.

        Then every count is finite, and the factor of two is headroom:
        every other fold of the same non-negative masses (the feature
        total, the loop and divergence walks, the memory split) stays
        finite whatever its summation order, so a kernel has a finite
        vector under every recipe or under none.
        """
        return math.isfinite(2.0 * sum(self.weighted.values()))


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
    def __init__(self, default_trip_count: int, kernel: str) -> None:
        self.default_trip_count = default_trip_count
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
                            f"({self.default_trip_count})"
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
        elif region.kind == "branch" and region.line not in self._assumed_lines:
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


class KernelAnalysis:
    """Every analysis of one kernel IR, each computed once on first access.

    Results are frozen dataclasses and a pure function of the IR and
    ``default_trip_count``; the IR is never mutated.  Build one object per
    IR: each extraction or lint of a kernel gets its own, so concurrent
    extractions never share results.
    """

    def __init__(
        self, ir: KernelIR, default_trip_count: int = DEFAULT_UNKNOWN_TRIP_COUNT
    ) -> None:
        if default_trip_count < 0:
            raise ValueError("default_trip_count must be non-negative")
        self.ir = ir
        self.default_trip_count = default_trip_count

    @cached_property
    def histogram(self) -> OpcodeHistogram:
        """Per-op weighted counts (the feature vector's raw material).

        Delegates to :meth:`KernelIR.weighted_counts` — the canonical fold —
        rather than re-deriving the arithmetic, so the analysis can never
        drift a bit from what every persisted artifact was trained on.
        """
        return OpcodeHistogram(
            weighted=self.ir.weighted_counts(self.default_trip_count),
            static_size=self.ir.root.static_size(),
        )

    @cached_property
    def memory_mix(self) -> MemoryMix:
        """Global/local/compute weight split, derived from the histogram."""
        hist = self.histogram
        counts = hist.feature_counts
        global_w = counts["gl_access"]
        local_w = counts["loc_access"]
        compute_w = hist.feature_total - global_w - local_w
        return MemoryMix(
            global_weight=global_w,
            local_weight=local_w,
            compute_weight=compute_w,
        )

    @cached_property
    def loops(self) -> LoopStructure:
        """Loop nesting/trip-count structure via the weighted region walk."""
        visitor = _LoopVisitor()
        self.ir.accept(visitor, self.default_trip_count)
        total = visitor.total
        return LoopStructure(
            max_depth=self.ir.root.max_loop_depth(),
            n_loops=visitor.n_loops,
            n_static_trip=visitor.n_static,
            n_defaulted_trip=visitor.n_defaulted,
            n_zero_trip=visitor.n_zero,
            loop_resident_share=visitor.in_loop / total if total > 0 else 0.0,
            defaulted_weight_share=(
                visitor.under_defaulted / total if total > 0 else 0.0
            ),
        )

    @cached_property
    def divergence(self) -> Divergence:
        """Branch density + probability-scaled feature mass."""
        visitor = _DivergenceVisitor()
        self.ir.accept(visitor, self.default_trip_count)
        branch_ops = sum(
            op.count for op in self.ir.root.iter_ops() if op.op == "branch"
        )
        static = self.histogram.static_size
        return Divergence(
            n_branch_regions=visitor.n_branch_regions,
            branch_ops=branch_ops,
            branch_density=branch_ops / static if static > 0 else 0.0,
            conditional_mass=(
                visitor.conditional / visitor.total if visitor.total > 0 else 0.0
            ),
            min_branch_probability=visitor.min_probability,
        )

    @cached_property
    def diagnostics(self) -> DiagnosticsReport:
        """Extraction-fidelity findings: what the feature vector had to assume.

        Severities (see DESIGN.md "Lint severities"):

        * ``error`` — the vector rests on a guess that can be arbitrarily
          wrong (unknown trip count), is degenerate (zero feature ops) or
          does not exist (non-finite weighted counts: extraction refuses
          the kernel);
        * ``warning`` — a zero-trip loop contributes nothing (zero weight);
        * ``info`` — a documented default was applied (branch probability).
        """
        ir = self.ir
        visitor = _DiagnosticsVisitor(self.default_trip_count, ir.name)
        ir.accept(visitor, self.default_trip_count)
        findings = list(visitor.findings)
        hist = self.histogram
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

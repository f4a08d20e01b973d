"""Counted intermediate representation (IR) for static feature extraction.

The paper extracts its ten features "with an LLVM pass running on the
intermediate representation of the kernel" (§3.2).  Our analog is a small
structured IR: a region tree whose leaves are typed operations.  Regions
capture control structure (loops carry a static trip count when it can be
determined; branches carry an execution-probability weight), so the feature
extractor can weight leaf counts without re-walking the AST.

Op codes map 1:1 onto the paper's feature components:

===============  =================================================
op code          feature component
===============  =================================================
``int_add``      integer add/sub (``k_int_add``)
``int_mul``      integer multiply (``k_int_mul``)
``int_div``      integer divide/modulo (``k_int_div``)
``int_bw``       integer bitwise/shift (``k_int_bw``)
``float_add``    float add/sub (``k_float_add``)
``float_mul``    float multiply (``k_float_mul``)
``float_div``    float divide (``k_float_div``)
``sf``           special function (``k_sf``)
``gl_access``    global-memory load/store (``k_gl_access``)
``loc_access``   local-memory load/store (``k_loc_access``)
===============  =================================================

Two auxiliary codes — ``branch`` and ``sync`` — are kept for the GPU
simulator (divergence and barrier costs) but are *not* features.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

#: Feature-bearing op codes in canonical order (paper §3.2 vector order).
FEATURE_OPS: tuple[str, ...] = (
    "int_add",
    "int_mul",
    "int_div",
    "int_bw",
    "float_add",
    "float_mul",
    "float_div",
    "sf",
    "gl_access",
    "loc_access",
)

#: Non-feature auxiliary ops retained for the simulator.
AUX_OPS: tuple[str, ...] = ("branch", "sync")

ALL_OPS: tuple[str, ...] = FEATURE_OPS + AUX_OPS

_VALID_OPS = frozenset(ALL_OPS)


@dataclass(slots=True)
class IROp:
    """A single counted operation (leaf of the region tree)."""

    op: str
    count: int = 1
    line: int = 0

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise ValueError(f"unknown IR op code {self.op!r}")
        if self.count < 0:
            raise ValueError("op count must be non-negative")


@dataclass(frozen=True)
class WalkFrame:
    """Weighted position of one visit during a region-tree walk.

    ``weight`` is the product of every enclosing loop's trip count (the
    default standing in for unknown bounds) and every enclosing branch's
    probability — exactly the multiplier :meth:`IRRegion.weighted_counts`
    applies to leaf ops at this position, so a visitor that sums
    ``frame.weight * op.count`` reproduces the fold bit-for-bit.
    """

    weight: float = 1.0
    loop_depth: int = 0
    branch_depth: int = 0
    #: Enclosing loops whose trip count was *not* statically known (and
    #: therefore weighted with the caller-supplied default).
    defaulted_trips: int = 0

    @property
    def in_loop(self) -> bool:
        return self.loop_depth > 0


class RegionVisitor:
    """Hook interface for :meth:`IRRegion.walk` / :meth:`KernelIR.accept`.

    Subclass and override any of the three hooks; the walk is depth-first
    in child order (the order :meth:`IRRegion.weighted_counts` folds in).
    ``enter_region``/``visit_op`` receive the frame *inside* the region —
    its weight already includes the region's own trip-count/probability
    multiplier, and its depths count the region itself.
    """

    def enter_region(self, region: "IRRegion", frame: WalkFrame) -> None:
        """Called before a region's children are visited."""

    def leave_region(self, region: "IRRegion", frame: WalkFrame) -> None:
        """Called after a region's children were visited."""

    def visit_op(self, op: IROp, frame: WalkFrame) -> None:
        """Called for every leaf op, with its effective weight frame."""


@dataclass
class IRRegion:
    """A region of the kernel body.

    ``kind`` is one of:

    * ``"body"``   — straight-line region (weight 1);
    * ``"loop"``   — repeated region; ``trip_count`` is the statically
      determined iteration count or ``None`` when unknown;
    * ``"branch"`` — conditionally executed region; ``probability`` is the
      static execution-probability estimate.
    """

    kind: str = "body"
    trip_count: int | None = None
    probability: float = 1.0
    children: list["IRRegion | IROp"] = field(default_factory=list)
    line: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("body", "loop", "branch"):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.trip_count is not None and self.trip_count < 0:
            raise ValueError("trip_count must be non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    # -- construction helpers -------------------------------------------------

    def emit(self, op: str, count: int = 1, line: int = 0) -> None:
        """Append a counted op, merging with the previous op when equal."""
        if count == 0:
            return
        children = self.children
        if children:
            last = children[-1]
            if type(last) is IROp and last.op == op and last.line == line:
                last.count += count
                return
        children.append(IROp(op, count, line))

    def add_region(self, region: "IRRegion") -> "IRRegion":
        self.children.append(region)
        return region

    # -- queries ---------------------------------------------------------------

    def iter_ops(self) -> Iterator[IROp]:
        """Depth-first iteration over every leaf op (unweighted)."""
        for child in self.children:
            if isinstance(child, IROp):
                yield child
            else:
                yield from child.iter_ops()

    def weighted_counts(self, default_trip_count: int = 16) -> dict[str, float]:
        """Fold the region tree into per-op weighted counts.

        Loops multiply their body by ``trip_count`` (or the supplied default
        when the bound is not statically known — the paper's pass faces the
        same problem and our default of 16 is the ablated choice, see
        DESIGN.md §5.1).  Branches scale by their probability.
        """
        totals: dict[str, float] = dict.fromkeys(ALL_OPS, 0.0)
        self._accumulate(totals, 1.0, default_trip_count)
        return totals

    def _accumulate(
        self, totals: dict[str, float], weight: float, default_tc: int
    ) -> None:
        if self.kind == "loop":
            trips = self.trip_count if self.trip_count is not None else default_tc
            weight = weight * trips
        elif self.kind == "branch":
            weight = weight * self.probability
        for child in self.children:
            if isinstance(child, IROp):
                totals[child.op] += weight * child.count
            else:
                child._accumulate(totals, weight, default_tc)

    def inner_frame(self, frame: WalkFrame, default_trip_count: int = 16) -> WalkFrame:
        """The frame this region's children execute under.

        Applies the same multiplier :meth:`_accumulate` does — in the same
        order (``weight * trips``) — so walk-based analyses agree with the
        canonical fold to the last bit.
        """
        if self.kind == "loop":
            trips = self.trip_count if self.trip_count is not None else default_trip_count
            return WalkFrame(
                weight=frame.weight * trips,
                loop_depth=frame.loop_depth + 1,
                branch_depth=frame.branch_depth,
                defaulted_trips=frame.defaulted_trips
                + (1 if self.trip_count is None else 0),
            )
        if self.kind == "branch":
            return WalkFrame(
                weight=frame.weight * self.probability,
                loop_depth=frame.loop_depth,
                branch_depth=frame.branch_depth + 1,
                defaulted_trips=frame.defaulted_trips,
            )
        return frame

    def walk(
        self,
        visitor: RegionVisitor,
        default_trip_count: int = 16,
        frame: WalkFrame | None = None,
    ) -> None:
        """Depth-first weighted walk, firing the visitor's hooks."""
        outer = frame if frame is not None else WalkFrame()
        inner = self.inner_frame(outer, default_trip_count)
        visitor.enter_region(self, inner)
        for child in self.children:
            if isinstance(child, IROp):
                visitor.visit_op(child, inner)
            else:
                child.walk(visitor, default_trip_count, inner)
        visitor.leave_region(self, inner)

    def static_size(self) -> int:
        """Total number of leaf ops (unweighted static instruction count)."""
        return sum(op.count for op in self.iter_ops())

    def max_loop_depth(self) -> int:
        """Maximum loop nesting depth in this region."""
        best = 0
        for child in self.children:
            if isinstance(child, IRRegion):
                depth = child.max_loop_depth()
                if child.kind == "loop":
                    depth += 1
                best = max(best, depth)
        return best

    def pretty(self, indent: int = 0) -> str:
        """Human-readable dump used by tests and the CLI."""
        pad = "  " * indent
        if self.kind == "loop":
            bound = self.trip_count if self.trip_count is not None else "?"
            header = f"{pad}loop x{bound}:"
        elif self.kind == "branch":
            header = f"{pad}branch p={self.probability:g}:"
        else:
            header = f"{pad}body:"
        lines = [header]
        for child in self.children:
            if isinstance(child, IROp):
                lines.append(f"{pad}  {child.op} x{child.count}")
            else:
                lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


@dataclass
class KernelIR:
    """Lowered kernel: name, parameter metadata and the root region."""

    name: str
    root: IRRegion
    num_params: int = 0
    uses_local_memory: bool = False
    has_barrier: bool = False

    def weighted_counts(self, default_trip_count: int = 16) -> dict[str, float]:
        return self.root.weighted_counts(default_trip_count)

    def feature_counts(self, default_trip_count: int = 16) -> dict[str, float]:
        """Weighted counts restricted to the ten feature-bearing ops."""
        counts = self.weighted_counts(default_trip_count)
        return {op: counts[op] for op in FEATURE_OPS}

    def total_instructions(self, default_trip_count: int = 16) -> float:
        """Weighted total over feature ops (the paper's normalizer)."""
        return sum(self.feature_counts(default_trip_count).values())

    def accept(self, visitor: RegionVisitor, default_trip_count: int = 16) -> None:
        """Walk the whole region tree with ``visitor`` (see :class:`RegionVisitor`)."""
        self.root.walk(visitor, default_trip_count)

    def pretty(self) -> str:
        return f"kernel {self.name}:\n{self.root.pretty(1)}"

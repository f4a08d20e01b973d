"""Feature vector representation (paper §3.2).

A kernel is represented by the static feature vector::

    k = (k_int_add, k_int_mul, k_int_div, k_int_bw,
         k_float_add, k_float_mul, k_float_div, k_sf,
         k_gl_access, k_loc_access)

with each component *normalized over the total number of instructions*, so
codes with the same arithmetic intensity but different total sizes share a
representation.  A kernel execution is ``w = (k, f)`` where the frequency
pair ``f = (f_core, f_mem)`` is linearly mapped to [0, 1] over the device's
frequency intervals ([135, 1189] core and [405, 3505] memory on Titan X —
the paper's mapping bounds).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..clkernel.ir import FEATURE_OPS

#: Human-readable names of the ten static components, in vector order.
STATIC_FEATURE_NAMES: tuple[str, ...] = FEATURE_OPS

#: Names of the two frequency components appended for a kernel *execution*.
FREQUENCY_FEATURE_NAMES: tuple[str, ...] = ("f_core", "f_mem")

#: Interaction columns: every static share multiplied by each frequency.
#: Fig. 3 step (3) says the static features and the frequency configuration
#: are "combined together to form a set of feature vectors"; following the
#: modular component decomposition the features are designed around
#: (Guerreiro et al. [11]: per-component utilization × frequency response),
#: the combination is multiplicative.  These products are what allow the
#: *linear*-kernel speedup SVR to express kernel-dependent frequency
#: slopes — without them a linear model can only fit one global slope.
INTERACTION_FEATURE_NAMES: tuple[str, ...] = tuple(
    f"{k}*{f}" for f in FREQUENCY_FEATURE_NAMES for k in STATIC_FEATURE_NAMES
)

#: Full 32-component layout used by the models.
FULL_FEATURE_NAMES: tuple[str, ...] = (
    STATIC_FEATURE_NAMES + FREQUENCY_FEATURE_NAMES + INTERACTION_FEATURE_NAMES
)

#: Paper's normalization intervals for the frequency features (Titan X, MHz).
CORE_FREQ_INTERVAL: tuple[float, float] = (135.0, 1189.0)
MEM_FREQ_INTERVAL: tuple[float, float] = (405.0, 3505.0)


@dataclass(frozen=True)
class StaticFeatures:
    """The static code features of one kernel.

    By default this is the paper's ten-component layout
    (:data:`STATIC_FEATURE_NAMES`); feature recipes
    (:mod:`repro.analysis.recipes`) may append extra columns, in which
    case ``names`` carries the widened layout.  ``values`` and ``names``
    always agree in length.
    """

    values: tuple[float, ...]
    kernel_name: str = ""
    total_instructions: float = 0.0
    raw_counts: tuple[float, ...] = field(default=(), compare=False)
    names: tuple[str, ...] = STATIC_FEATURE_NAMES

    def __post_init__(self) -> None:
        if len(self.values) != len(self.names):
            raise ValueError(
                f"expected {len(self.names)} features, got {len(self.values)}"
            )

    @classmethod
    def from_counts(
        cls, counts: dict[str, float], kernel_name: str = ""
    ) -> "StaticFeatures":
        """Build normalized features from weighted instruction counts.

        Normalization divides each class count by the total count (paper
        §3.2).  An all-zero kernel maps to the zero vector.
        """
        raw = tuple(float(counts.get(op, 0.0)) for op in STATIC_FEATURE_NAMES)
        total = sum(raw)
        if total > 0:
            values = tuple(c / total for c in raw)
        else:
            values = tuple(0.0 for _ in raw)
        return cls(
            values=values,
            kernel_name=kernel_name,
            total_instructions=total,
            raw_counts=raw,
        )

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    def as_dict(self) -> dict[str, float]:
        return dict(zip(self.names, self.values))

    def __getitem__(self, name: str) -> float:
        try:
            idx = self.names.index(name)
        except ValueError:
            raise KeyError(name) from None
        return self.values[idx]

    @property
    def memory_share(self) -> float:
        """Fraction of instructions that touch memory (global + local)."""
        return self["gl_access"] + self["loc_access"]

    @property
    def compute_share(self) -> float:
        """Fraction of instructions that are arithmetic (incl. SF)."""
        return 1.0 - self.memory_share if self.total_instructions else 0.0

    def describe(self) -> str:
        parts = [f"{n}={v:.3f}" for n, v in zip(self.names, self.values)]
        name = self.kernel_name or "<kernel>"
        return f"{name}: " + ", ".join(parts)


def build_batch_design_matrix(
    statics: "list[StaticFeatures]",
    settings: list[tuple[float, float]],
    core_interval: tuple[float, float] = CORE_FREQ_INTERVAL,
    mem_interval: tuple[float, float] = MEM_FREQ_INTERVAL,
) -> np.ndarray:
    """Stack combined rows for many kernels across the same settings.

    The output has one block of ``len(settings)`` rows per kernel, in order:
    row ``i * len(settings) + j`` is kernel ``i`` at setting ``j``, laid out
    as :data:`FULL_FEATURE_NAMES` (statics, ``f_core``, ``f_mem``, then the
    ``k·f_core`` and ``k·f_mem`` interaction blocks).  A one-kernel matrix
    is a batch of one.  Construction is fully vectorized (no per-row Python
    loop), so a whole N×M block feeds a single scaler transform and a
    single predict per model.  This is the only place the frequency map is
    applied: training (``DatasetAssembler.finish``) and prediction
    (``TrainedModels.predict_objective_arrays``) both call it.
    """
    n_kernels = len(statics)
    n_settings = len(settings)
    # Width follows the statics' layout: the default recipe gives the
    # paper's 10 (→ 32 combined); extended recipes widen uniformly.
    if statics:
        d_static = len(statics[0].values)
        for s in statics[1:]:
            if len(s.values) != d_static:
                raise ValueError(
                    "statics mix feature widths "
                    f"({d_static} vs {len(s.values)}); one design matrix "
                    "needs one feature recipe"
                )
    else:
        d_static = len(STATIC_FEATURE_NAMES)
    width = 3 * d_static + 2

    core_lo, core_hi = core_interval
    mem_lo, mem_hi = mem_interval
    if core_hi <= core_lo or mem_hi <= mem_lo:
        raise ValueError("frequency intervals must be non-degenerate")

    settings_arr = np.asarray(settings, dtype=np.float64).reshape(n_settings, 2)
    fc = (settings_arr[:, 0] - core_lo) / (core_hi - core_lo)
    fm = (settings_arr[:, 1] - mem_lo) / (mem_hi - mem_lo)

    base = np.asarray([s.values for s in statics], dtype=np.float64).reshape(
        n_kernels, d_static
    )
    static_block = np.repeat(base, n_settings, axis=0)
    fc_col = np.tile(fc, n_kernels)
    fm_col = np.tile(fm, n_kernels)

    rows = np.empty((n_kernels * n_settings, width), dtype=np.float64)
    rows[:, :d_static] = static_block
    rows[:, d_static] = fc_col
    rows[:, d_static + 1] = fm_col
    rows[:, d_static + 2 : 2 * d_static + 2] = static_block * fc_col[:, None]
    rows[:, 2 * d_static + 2 :] = static_block * fm_col[:, None]
    return rows

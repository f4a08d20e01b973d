"""The multi-objective Pareto predictor (paper Fig. 3 steps 5–9 and §4.5).

Given trained single-objective models and a *new* kernel, the predictor:

1. extracts the kernel's static features,
2. forms feature vectors for every candidate frequency configuration
   (real settings of mem-l/h/H — mem-L is excluded from modeling),
3. predicts speedup and normalized energy for each,
4. extracts the Pareto set of the predicted point cloud (the vectorized
   dominance test, which returns exactly Algorithm 1's set), and
5. applies the paper's **mem-L heuristic**: always append the last
   (highest-core) mem-L configuration to the predicted set.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Callable, NamedTuple, Sequence

import numpy as np

from ..features.extractor import ExtractorConfig, FeatureExtractor
from ..features.vector import StaticFeatures
from ..gpusim.device import DeviceSpec
from ..pareto.algorithms import pareto_front_masks
from ..workloads import KernelSpec
from .config import mem_l_heuristic_config, prediction_candidates
from .pipeline import TrainedModels


class PredictedPoint(NamedTuple):
    """One candidate configuration with its predicted objectives.

    ``modeled`` is False for the mem-L heuristic point, which is selected
    by rule rather than by the regressors (its predicted objectives are
    unavailable; evaluation uses its measured objectives instead).

    A ``NamedTuple`` rather than a frozen dataclass: the batched serving
    path builds one per front point per request, and tuple construction
    is ~10x cheaper than a frozen dataclass's ``object.__setattr__`` per
    field.  Field access, equality and keyword construction are unchanged.
    """

    core_mhz: float
    mem_mhz: float
    speedup: float
    norm_energy: float
    modeled: bool = True

    @property
    def config(self) -> tuple[float, float]:
        return (self.core_mhz, self.mem_mhz)

    @property
    def objectives(self) -> tuple[float, float]:
        return (self.speedup, self.norm_energy)


class PredictedParetoSet:
    """The predictor's output: the predicted front plus all predictions.

    ``all_points`` (the full predicted point cloud, one entry per candidate
    configuration) is materialized lazily: the serving path never pays for
    N×M :class:`PredictedPoint` objects unless a caller actually inspects
    the cloud.
    """

    def __init__(
        self,
        kernel: str,
        front: list[PredictedPoint],
        cloud_factory: Callable[[], list[PredictedPoint]],
    ) -> None:
        self.kernel = kernel
        self.front = front
        self._all_points: list[PredictedPoint] | None = None
        self._cloud_factory = cloud_factory

    def __repr__(self) -> str:
        return (
            f"PredictedParetoSet(kernel={self.kernel!r}, "
            f"front={len(self.front)} points)"
        )

    @property
    def all_points(self) -> list[PredictedPoint]:
        if self._all_points is None:
            self._all_points = self._cloud_factory()
            self._cloud_factory = None  # release the captured objectives
        return self._all_points

    @property
    def configs(self) -> list[tuple[float, float]]:
        return [p.config for p in self.front]

    @property
    def size(self) -> int:
        return len(self.front)

    def modeled_front(self) -> list[PredictedPoint]:
        return [p for p in self.front if p.modeled]

    def heuristic_points(self) -> list[PredictedPoint]:
        return [p for p in self.front if not p.modeled]


class ParetoPredictor:
    """Predicts Pareto-optimal frequency settings for unseen kernels."""

    def __init__(
        self,
        models: TrainedModels,
        device: DeviceSpec,
        use_mem_l_heuristic: bool = True,
        candidates: list[tuple[float, float]] | None = None,
    ) -> None:
        self.models = models
        self.device = device
        self.use_mem_l_heuristic = use_mem_l_heuristic
        self.candidates = candidates or prediction_candidates(device)
        # The extractor must follow the models' feature recipe or the
        # design-matrix widths (and column meanings) diverge at predict time.
        self._extractor = FeatureExtractor(
            ExtractorConfig(recipe=models.feature_recipe)
        )
        # Device-constant; resolved once so the serving hot path never
        # re-walks the frequency menus per request.
        self._heuristic_config = mem_l_heuristic_config(device)
        #: Candidate columns that are the heuristic configuration.
        self._heuristic_columns = [
            i for i, config in enumerate(self.candidates) if config == self._heuristic_config
        ]
        #: Each candidate's clocks by column, then the heuristic point's.
        extra = [self._heuristic_config] if self._heuristic_config is not None else []
        self._cores = [core for core, _ in [*self.candidates, *extra]]
        self._mems = [mem for _, mem in [*self.candidates, *extra]]

    # -- feature entry points ------------------------------------------------

    def predict_from_source(
        self, source: str, kernel_name: str | None = None
    ) -> PredictedParetoSet:
        return self.predict_batch([self._extractor.extract(source, kernel_name)])[0]

    def predict_for_spec(self, spec: KernelSpec) -> PredictedParetoSet:
        return self.predict_batch([spec.static_features(self.models.feature_recipe)])[0]

    # -- the prediction phase ---------------------------------------------------

    def predict_batch(
        self, statics: Sequence[StaticFeatures]
    ) -> list[PredictedParetoSet]:
        """Predict Pareto sets for many kernels with one model pass.

        The one prediction path: a single kernel is a batch of one.  All
        kernels share ``self.candidates``; the stacked design matrix is
        scaled and predicted once per model (see
        :meth:`TrainedModels.predict_objective_arrays`), and each kernel's
        front is its row of the batched dominance test.  Front membership
        never depends on the batch; predicted objectives may differ by
        ~1 ulp between batch sizes (BLAS reassociates sums differently for
        different matrix shapes).
        """
        statics = list(statics)
        if not statics:
            return []
        speedups, energies = self.models.predict_objective_arrays(
            statics, self.candidates
        )
        fronts = self._fronts(speedups, energies)
        return [
            PredictedParetoSet(
                static.kernel_name,
                front,
                # Row copies, so a retained result pins M floats per
                # objective instead of the whole (N, M) batch matrix.
                partial(_cloud, self.candidates, speedups[i].copy(), energies[i].copy()),
            )
            for i, (static, front) in enumerate(zip(statics, fronts))
        ]

    def _fronts(
        self, speedups: np.ndarray, energies: np.ndarray
    ) -> list[list[PredictedPoint]]:
        """Fig. 3 steps 5–9 for every kernel of a batch at once.

        Each kernel's front is its row of the batched dominance test, plus
        the mem-L heuristic point where the front lacks it, sorted by
        ``(speedup, norm_energy)``.  Ties keep candidate order, with the
        heuristic point last.  The whole batch is one ``lexsort`` and one
        pass of C-level point construction; per kernel only a slice is left.
        """
        n_kernels, n_candidates = speedups.shape
        masks = pareto_front_masks(speedups, energies)
        rows, cols = np.nonzero(masks)
        front_speedups, front_energies = speedups[rows, cols], energies[rows, cols]
        if self.use_mem_l_heuristic and self._heuristic_config is not None:
            # The heuristic point is appended with NaN-free placeholder
            # objectives at the front's conservative corner; it is a
            # *configuration* recommendation, not a model output.  Its
            # column is n_candidates, one past the candidates.
            lacking = np.flatnonzero(~masks[:, self._heuristic_columns].any(axis=1))
            rows = np.concatenate([rows, lacking])
            cols = np.concatenate([cols, np.full(lacking.size, n_candidates)])
            corner_speedups = np.where(masks, speedups, np.inf).min(axis=1)
            corner_energies = np.where(masks, energies, np.inf).min(axis=1)
            front_speedups = np.concatenate([front_speedups, corner_speedups[lacking]])
            front_energies = np.concatenate([front_energies, corner_energies[lacking]])
        # Stable: by kernel, then speedup, then energy, ties in input order.
        order = np.lexsort((front_energies, front_speedups, rows))
        cols = cols[order].tolist()
        # Points are built by ``tuple.__new__`` over zipped columns, not by
        # a ``PredictedPoint(...)`` comprehension: over the quick bundle's
        # 50 × 171 batch (2,577 points) the comprehension measured 0.5–0.7
        # ms slower, and bench_serve_throughput's batched-over-core ratio
        # read 1.13–1.30 with it against 1.04–1.18 with this form.
        points = list(
            map(
                tuple.__new__,
                repeat(PredictedPoint),
                zip(
                    map(self._cores.__getitem__, cols),
                    map(self._mems.__getitem__, cols),
                    front_speedups[order].tolist(),
                    front_energies[order].tolist(),
                    map(n_candidates.__gt__, cols),
                ),
            )
        )
        ends = np.cumsum(np.bincount(rows, minlength=n_kernels)).tolist()
        return [points[start:end] for start, end in zip([0, *ends], ends)]


def _cloud(
    candidates: list[tuple[float, float]], speedups: np.ndarray, energies: np.ndarray
) -> list[PredictedPoint]:
    """One kernel's full predicted point cloud, in candidate order."""
    return [
        PredictedPoint(core_mhz=core, mem_mhz=mem, speedup=s, norm_energy=e)
        for (core, mem), s, e in zip(candidates, speedups.tolist(), energies.tolist())
    ]

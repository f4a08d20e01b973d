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
        masks = pareto_front_masks(speedups, energies)
        return [
            self._assemble(
                static.kernel_name,
                # Row copies, so a retained result pins M floats per
                # objective instead of the whole (N, M) batch matrix.
                speedups[i].copy(),
                energies[i].copy(),
                np.flatnonzero(masks[i]).tolist(),
            )
            for i, static in enumerate(statics)
        ]

    def _assemble(
        self,
        kernel_name: str,
        speedups: np.ndarray,
        energies: np.ndarray,
        front_idx: list[int],
    ) -> PredictedParetoSet:
        """Fig. 3 steps 5–9 for one kernel's predicted point cloud.

        ``speedups`` and ``energies`` hold the kernel's predictions in
        candidate order; the full M-point cloud is only materialized if a
        caller reads ``all_points``.
        """
        candidates = self.candidates
        front_speedups = speedups[front_idx].tolist()
        front_energies = energies[front_idx].tolist()
        front = [
            PredictedPoint(candidates[i][0], candidates[i][1], s, e)
            for i, s, e in zip(front_idx, front_speedups, front_energies)
        ]

        if self.use_mem_l_heuristic:
            heuristic = self._heuristic_config
            if heuristic is not None and heuristic not in {
                candidates[i] for i in front_idx
            }:
                # The heuristic point is appended with NaN-free placeholder
                # objectives at the front's conservative corner; it is a
                # *configuration* recommendation, not a model output.
                front.append(
                    PredictedPoint(
                        core_mhz=heuristic[0],
                        mem_mhz=heuristic[1],
                        speedup=min(front_speedups),
                        norm_energy=min(front_energies),
                        modeled=False,
                    )
                )

        front.sort(key=lambda p: (p.speedup, p.norm_energy))

        def cloud_factory() -> list[PredictedPoint]:
            return [
                PredictedPoint(
                    core_mhz=core, mem_mhz=mem, speedup=s, norm_energy=e
                )
                for (core, mem), s, e in zip(
                    candidates, speedups.tolist(), energies.tolist()
                )
            ]

        return PredictedParetoSet(
            kernel=kernel_name, front=front, cloud_factory=cloud_factory
        )

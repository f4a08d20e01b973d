"""The two-phase modeling pipeline (paper Fig. 2 / Fig. 3).

Training phase: extract features from the micro-benchmarks, execute them at
the sampled frequency settings, normalize features, fit the speedup model
(linear SVR) and the normalized-energy model (RBF SVR).

Prediction phase: extract features from a *new* code, combine with every
candidate frequency configuration, run both models, and hand the point
cloud to the Pareto stage (:mod:`repro.core.predictor`).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..analysis.recipes import DEFAULT_RECIPE
from ..features.vector import StaticFeatures, build_batch_design_matrix
from ..ml.scaling import StandardScaler
from ..ml.svr import SVR, make_energy_svr, make_speedup_svr
from ..store.envelope import ArtifactError, load_artifact, save_artifact
from ..workloads import KernelSpec
from .config import sample_training_settings
from .dataset import TrainingDataset, build_training_dataset


@dataclass
class TrainedModels:
    """The fitted pair of single-objective models plus the shared scaler:
    the paper's linear SVR for speedup and RBF SVR for energy."""

    scaler: StandardScaler
    speedup_model: SVR
    energy_model: SVR
    settings: list[tuple[float, float]]
    n_training_samples: int
    #: Named feature recipe the static vectors were extracted with
    #: (:mod:`repro.analysis.recipes`); prediction must extract with the
    #: same recipe or the design-matrix widths (and meanings) diverge.
    feature_recipe: str = DEFAULT_RECIPE

    def predict_objectives(
        self,
        static: StaticFeatures,
        configs: list[tuple[float, float]],
    ) -> list[tuple[float, float]]:
        """Predicted (speedup, norm. energy) for one kernel at many configs.

        A pair-list view of :meth:`predict_objective_arrays` for a batch
        of one kernel.
        """
        speedups, energies = self.predict_objective_arrays([static], configs)
        return list(zip(speedups[0].tolist(), energies[0].tolist()))

    def predict_objective_arrays(
        self,
        statics: list[StaticFeatures],
        configs: list[tuple[float, float]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized batch prediction, returned as ``(N, M)`` arrays.

        The N kernels × M configs block is stacked into one design matrix
        and each model predicts it in a single vectorized call.  Row ``i``
        holds kernel ``i``'s predicted speedups (resp. normalized
        energies) across all configs, in config order.
        """
        x = self.scaler.transform(build_batch_design_matrix(statics, configs))
        shape = (len(statics), len(configs))
        speedups = self.speedup_model.predict(x).reshape(shape)
        energies = self.energy_model.predict(x).reshape(shape)
        return speedups, energies

    # -- persistence ------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-safe snapshot of the full trained bundle.

        ``feature_recipe`` is serialized **only when non-default**: every
        pre-recipe artifact was (implicitly) trained with the default
        recipe, and omitting it keeps default-recipe artifacts
        byte-identical to those — the serve/replay layers' standing
        guarantee.  ``interactions`` is always ``true``: the design matrix
        has one layout, and the key stays so bundle bytes never change.
        """
        state = {
            "kind": "trained_models",
            "scaler": self.scaler.to_state(),
            "speedup_model": self.speedup_model.to_state(),
            "energy_model": self.energy_model.to_state(),
            "settings": [list(s) for s in self.settings],
            "n_training_samples": self.n_training_samples,
            "interactions": True,
        }
        if self.feature_recipe != DEFAULT_RECIPE:
            state["feature_recipe"] = self.feature_recipe
        return state

    @classmethod
    def from_state(cls, state: dict) -> "TrainedModels":
        if state["interactions"] is not True:
            raise ValueError(
                f"interactions={state['interactions']!r}: only the interaction "
                "design matrix is supported (retrain the bundle)"
            )
        return cls(
            scaler=StandardScaler.from_state(state["scaler"]),
            speedup_model=SVR.from_state(state["speedup_model"]),
            energy_model=SVR.from_state(state["energy_model"]),
            settings=[tuple(s) for s in state["settings"]],
            n_training_samples=int(state["n_training_samples"]),
            feature_recipe=str(state.get("feature_recipe", DEFAULT_RECIPE)),
        )


def save_models(
    path: str | pathlib.Path, models: TrainedModels, meta: dict | None = None
) -> pathlib.Path:
    """Persist a trained bundle as a versioned JSON artifact.

    Python's float repr round-trips every IEEE-754 double exactly, so a
    loaded bundle predicts **bit-identically** to the one that was saved.
    """
    return save_artifact(path, models.to_state(), meta)


def load_models(path: str | pathlib.Path) -> tuple[TrainedModels, dict]:
    """Load a trained bundle together with its provenance meta.

    A payload that does not decode into a bundle (a scaler other than a
    ``standard_scaler``, a model other than an SVR, a kernel other than
    linear or RBF, a missing or mistyped field) raises
    :class:`~repro.store.envelope.ArtifactError` naming the file, like
    any other unreadable artifact.
    """
    payload, meta = load_artifact(path, expected_kind="trained_models")
    try:
        models = TrainedModels.from_state(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ArtifactError(
            f"artifact {pathlib.Path(path).expanduser()} is not a loadable "
            f"model bundle: {detail}"
        ) from None
    return models, meta


def train_models(
    dataset: TrainingDataset,
    make_energy: Callable[[], SVR] = make_energy_svr,
    settings: list[tuple[float, float]] | None = None,
    feature_recipe: str = DEFAULT_RECIPE,
) -> TrainedModels:
    """Fit both models on an assembled dataset (Fig. 2 steps 5–6).

    Width-agnostic: the models and scaler fit whatever column count the
    dataset carries, so any feature recipe trains through here —
    ``feature_recipe`` only records which one, for prediction-time
    validation.  ``make_energy`` builds the energy SVR (the model ablation
    sweeps its C through it).
    """
    scaler = StandardScaler().fit(dataset.x)
    x_scaled = scaler.transform(dataset.x)

    speedup_model = make_speedup_svr()
    energy_model = make_energy()
    speedup_model.fit(x_scaled, dataset.y_speedup)
    energy_model.fit(x_scaled, dataset.y_energy)

    return TrainedModels(
        scaler=scaler,
        speedup_model=speedup_model,
        energy_model=energy_model,
        settings=settings or [],
        n_training_samples=dataset.n_samples,
        feature_recipe=feature_recipe,
    )


def train_from_specs(
    backend,
    specs: list[KernelSpec],
    settings: list[tuple[float, float]] | None = None,
    feature_recipe: str = DEFAULT_RECIPE,
) -> tuple[TrainedModels, TrainingDataset]:
    """End-to-end training phase: measure, assemble, fit.

    ``backend`` is a :class:`~repro.measure.backend.MeasurementBackend` (or
    a bare :class:`GPUSimulator`, wrapped on the fly).  With paper-default
    arguments this is: 106 micro-benchmarks × 40 sampled settings = 4240
    training samples, linear-SVR speedup model and RBF-SVR energy model.
    Static vectors are extracted with ``feature_recipe``.
    """
    from ..measure.backend import as_backend

    backend = as_backend(backend)
    chosen = (
        settings if settings is not None else sample_training_settings(backend.device)
    )
    dataset = build_training_dataset(
        backend, specs, chosen, feature_recipe=feature_recipe
    )
    models = train_models(dataset, settings=chosen, feature_recipe=feature_recipe)
    return models, dataset

"""The paper's primary contribution: the predictive DVFS-tuning framework."""

from .config import (
    MODELED_LABELS,
    PAPER_SAMPLE_SIZE,
    SamplingPlan,
    exhaustive_settings,
    make_sampling_plans,
    mem_l_heuristic_config,
    prediction_candidates,
    sample_training_settings,
)
from .dataset import (
    KernelMeasurements,
    MeasuredPoint,
    TrainingDataset,
    build_training_dataset,
)
from .pipeline import TrainedModels, train_from_specs, train_models
from .predictor import ParetoPredictor, PredictedParetoSet, PredictedPoint

__all__ = [
    "KernelMeasurements",
    "MODELED_LABELS",
    "MeasuredPoint",
    "PAPER_SAMPLE_SIZE",
    "ParetoPredictor",
    "PredictedParetoSet",
    "PredictedPoint",
    "SamplingPlan",
    "TrainedModels",
    "TrainingDataset",
    "build_training_dataset",
    "exhaustive_settings",
    "make_sampling_plans",
    "mem_l_heuristic_config",
    "prediction_candidates",
    "sample_training_settings",
    "train_from_specs",
    "train_models",
]

"""Static code features (paper §3.2) and feature-vector assembly."""

from .extractor import ExtractorConfig, FeatureExtractor, extract_features
from .vector import (
    CORE_FREQ_INTERVAL,
    FREQUENCY_FEATURE_NAMES,
    FULL_FEATURE_NAMES,
    MEM_FREQ_INTERVAL,
    STATIC_FEATURE_NAMES,
    StaticFeatures,
)

__all__ = [
    "CORE_FREQ_INTERVAL",
    "ExtractorConfig",
    "FeatureExtractor",
    "FREQUENCY_FEATURE_NAMES",
    "FULL_FEATURE_NAMES",
    "MEM_FREQ_INTERVAL",
    "STATIC_FEATURE_NAMES",
    "StaticFeatures",
    "extract_features",
]

"""Tests for the feature-vector representation (paper §3.2)."""

import numpy as np
import pytest

from repro.features.vector import (
    CORE_FREQ_INTERVAL,
    FULL_FEATURE_NAMES,
    INTERACTION_FEATURE_NAMES,
    MEM_FREQ_INTERVAL,
    STATIC_FEATURE_NAMES,
    StaticFeatures,
    build_batch_design_matrix,
)


def make_static(**overrides):
    counts = dict.fromkeys(STATIC_FEATURE_NAMES, 0.0)
    counts.update(overrides)
    return StaticFeatures.from_counts(counts, kernel_name="t")


class TestStaticFeatures:
    def test_normalization_sums_to_one(self):
        f = make_static(int_add=3, float_mul=5, gl_access=2)
        assert sum(f.values) == pytest.approx(1.0)

    def test_share_values(self):
        f = make_static(int_add=1, float_add=3)
        assert f["int_add"] == pytest.approx(0.25)
        assert f["float_add"] == pytest.approx(0.75)

    def test_scale_invariance(self):
        a = make_static(int_add=1, gl_access=1)
        b = make_static(int_add=100, gl_access=100)
        assert a.values == pytest.approx(b.values)

    def test_zero_kernel_is_zero_vector(self):
        f = make_static()
        assert all(v == 0.0 for v in f.values)
        assert f.total_instructions == 0.0

    def test_total_preserved(self):
        f = make_static(int_add=3, float_mul=5)
        assert f.total_instructions == 8.0

    def test_raw_counts_preserved(self):
        f = make_static(int_add=3, float_mul=5)
        assert f.raw_counts[STATIC_FEATURE_NAMES.index("int_add")] == 3.0

    def test_memory_share(self):
        f = make_static(gl_access=2, loc_access=1, int_add=7)
        assert f.memory_share == pytest.approx(0.3)
        assert f.compute_share == pytest.approx(0.7)

    def test_unknown_key_raises(self):
        f = make_static(int_add=1)
        with pytest.raises(KeyError):
            f["bogus"]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            StaticFeatures(values=(0.0, 1.0))

    def test_as_dict_roundtrip(self):
        f = make_static(int_add=1, sf=1)
        d = f.as_dict()
        assert d["int_add"] == pytest.approx(0.5)
        assert len(d) == 10

    def test_describe_mentions_name(self):
        f = make_static(int_add=1)
        assert "t:" in f.describe()


def frequency_columns(setting, **intervals):
    """The design matrix's two normalized frequency columns for one setting."""
    row = build_batch_design_matrix([make_static(int_add=1)], [setting], **intervals)[0]
    return tuple(row[10:12])


class TestFrequencyNormalization:
    def test_interval_endpoints(self):
        lo = frequency_columns((CORE_FREQ_INTERVAL[0], MEM_FREQ_INTERVAL[0]))
        hi = frequency_columns((CORE_FREQ_INTERVAL[1], MEM_FREQ_INTERVAL[1]))
        assert lo == pytest.approx((0.0, 0.0))
        assert hi == pytest.approx((1.0, 1.0))

    def test_paper_default_config_position(self):
        fc, fm = frequency_columns((1001.0, 3505.0))
        assert 0.8 < fc < 0.85
        assert fm == pytest.approx(1.0)

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ValueError):
            frequency_columns((500.0, 800.0), core_interval=(100.0, 100.0))


class TestDesignMatrix:
    def test_shape_with_interactions(self):
        f = make_static(int_add=1)
        m = build_batch_design_matrix([f], [(500.0, 810.0), (1000.0, 3505.0)])
        assert m.shape == (2, len(FULL_FEATURE_NAMES))

    def test_kernel_blocks_stack_in_order(self):
        a = make_static(int_add=1)
        b = make_static(gl_access=1)
        settings = [(500.0, 810.0), (1000.0, 3505.0)]
        m = build_batch_design_matrix([a, b], settings)
        assert np.array_equal(m[:2], build_batch_design_matrix([a], settings))
        assert np.array_equal(m[2:], build_batch_design_matrix([b], settings))

    def test_static_part_repeats(self):
        f = make_static(int_add=1, gl_access=1)
        m = build_batch_design_matrix([f], [(500.0, 810.0), (1000.0, 3505.0)])
        assert np.allclose(m[0, :10], m[1, :10])

    def test_interaction_columns_are_products(self):
        f = make_static(int_add=1, gl_access=3)
        m = build_batch_design_matrix([f], [(700.0, 3304.0)])
        base = m[0, :10]
        fc, fm = m[0, 10], m[0, 11]
        assert np.allclose(m[0, 12:22], base * fc)
        assert np.allclose(m[0, 22:32], base * fm)

    def test_names_align_with_width(self):
        assert len(FULL_FEATURE_NAMES) == 32
        assert len(INTERACTION_FEATURE_NAMES) == 20


class TestExtractorIntegration:
    def test_extract_features_on_source(self):
        from repro.features import extract_features

        src = """
        __kernel void k(__global float* x) {
            x[0] = sqrt(x[1]) + 1.0f;
        }
        """
        f = extract_features(src)
        assert f["sf"] > 0
        assert f["gl_access"] > 0
        assert sum(f.values) == pytest.approx(1.0)

    def test_raw_counts_ablation(self):
        from repro.features import ExtractorConfig, FeatureExtractor

        src = "__kernel void k(__global float* x) { x[0] = x[1] + 1.0f; }"
        norm = FeatureExtractor().extract(src)
        raw = FeatureExtractor(ExtractorConfig(recipe="paper10-raw")).extract(src)
        assert sum(norm.values) == pytest.approx(1.0)
        assert sum(raw.values) == raw.total_instructions > 1.0

    def test_trip_count_config_changes_shares(self):
        from repro.features import ExtractorConfig, FeatureExtractor

        src = """
        __kernel void k(__global float* x, const int n) {
            float a = 0.0f;
            for (int i = 0; i < n; i++) { a = a + 1.0f; }
            x[0] = a;
        }
        """
        small = FeatureExtractor(ExtractorConfig(default_trip_count=1)).extract(src)
        large = FeatureExtractor(ExtractorConfig(default_trip_count=64)).extract(src)
        assert large["float_add"] > small["float_add"]

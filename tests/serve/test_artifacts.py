"""Artifact store: state round-trips and bit-identical reloads."""

import json

import numpy as np
import pytest

from repro.core.pipeline import load_models, save_models
from repro.harness.context import quick_context
from repro.ml import (
    SVR,
    LinearKernel,
    RBFKernel,
    StandardScaler,
    make_energy_svr,
    make_speedup_svr,
)
from repro.store.envelope import (
    ARTIFACT_FORMAT_VERSION,
    ArtifactError,
    load_artifact,
    save_artifact,
)
from repro.suite import test_benchmarks as suite_benchmarks


@pytest.fixture(scope="module")
def ctx():
    return quick_context()


@pytest.fixture(scope="module")
def training_data():
    rng = np.random.default_rng(42)
    x = rng.normal(size=(60, 5))
    y = x @ rng.normal(size=5) + 0.1 * rng.normal(size=60)
    return x, y


def json_round_trip(state: dict) -> dict:
    """Force the state through actual JSON text, as the store does."""
    return json.loads(json.dumps(state))


class TestScalerRoundTrip:
    def test_standard_scaler(self, training_data):
        x, _ = training_data
        scaler = StandardScaler().fit(x)
        clone = StandardScaler.from_state(json_round_trip(scaler.to_state()))
        assert np.array_equal(scaler.transform(x), clone.transform(x))

    def test_unfitted_scaler_round_trips(self):
        clone = StandardScaler.from_state(StandardScaler().to_state())
        assert clone.mean_ is None and clone.scale_ is None

    def test_unknown_kind_rejected(self):
        state = StandardScaler().to_state() | {"kind": "minmax_scaler"}
        with pytest.raises(ValueError, match="unknown scaler kind 'minmax_scaler'"):
            StandardScaler.from_state(state)

    @pytest.mark.parametrize("kind", ["identity_scaler", "welford_scaler"])
    def test_only_the_standard_scaler_decodes(self, kind, training_data):
        x, _ = training_data
        state = StandardScaler().fit(x).to_state() | {"kind": kind}
        with pytest.raises(ValueError, match=f"unknown scaler kind '{kind}'"):
            StandardScaler.from_state(json_round_trip(state))


class TestKernelRoundTrip:
    @pytest.mark.parametrize(
        "kernel", [LinearKernel(), RBFKernel(gamma=0.25)], ids=["linear", "rbf"]
    )
    def test_round_trip(self, kernel):
        state = json_round_trip(make_speedup_svr().to_state())
        state["kernel"] = json_round_trip(kernel.to_state())
        assert SVR.from_state(state).kernel == kernel

    @pytest.mark.parametrize("kind", ["poly", "sigmoid", "precomputed"])
    def test_unknown_kernel_kind_rejected(self, kind):
        state = json_round_trip(make_energy_svr().to_state())
        state["kernel"] = {"kind": kind, "gamma": 0.1}
        with pytest.raises(ValueError, match=f"unknown kernel kind '{kind}'"):
            SVR.from_state(state)


class TestRegressorRoundTrip:
    @pytest.mark.parametrize(
        "make_model", [make_speedup_svr, make_energy_svr], ids=["speedup", "energy"]
    )
    def test_predictions_bit_identical(self, make_model, training_data):
        x, y = training_data
        model = make_model().fit(x, y)
        clone = SVR.from_state(json_round_trip(model.to_state()))
        assert np.array_equal(model.predict(x), clone.predict(x))

    def test_unknown_kind_rejected(self):
        state = make_speedup_svr().to_state() | {"kind": "ols"}
        with pytest.raises(ValueError, match="unknown regressor kind 'ols'"):
            SVR.from_state(state)

    @pytest.mark.parametrize("kind", ["ridge", "lasso", "poly_regression", "rff_svr"])
    def test_ablation_model_kinds_rejected(self, kind, training_data):
        """The ablation regressors fit and predict but never persist."""
        x, y = training_data
        state = make_speedup_svr().fit(x, y).to_state() | {"kind": kind}
        with pytest.raises(ValueError, match=f"unknown regressor kind '{kind}'"):
            SVR.from_state(json_round_trip(state))

    def test_compact_svr_state_keeps_only_support_vectors(self, training_data):
        x, y = training_data
        model = make_energy_svr().fit(x, y)
        state = model.to_state()
        assert len(state["beta"]) == model.n_support_
        assert len(state["x_train"]) == model.n_support_
        clone = SVR.from_state(json_round_trip(state))
        assert np.array_equal(model.predict(x), clone.predict(x))
        with pytest.raises(RuntimeError, match="full training state"):
            clone.dual_objective()

    def test_primal_svr_state_has_no_training_matrix(self, training_data):
        x, y = training_data
        model = make_speedup_svr().fit(x, y)
        state = model.to_state()
        assert state["x_train"] is None and state["beta"] is None
        assert state["coef"] is not None


class TestModelBundleRoundTrip:
    def test_save_load_predictions_bit_identical(self, ctx, tmp_path):
        path = save_models(tmp_path / "m.json", ctx.models)
        clone, _meta = load_models(path)
        statics = list(ctx.dataset.static_features.values())[:2]
        for want, got in zip(
            ctx.models.predict_objective_arrays(statics, ctx.settings),
            clone.predict_objective_arrays(statics, ctx.settings),
        ):
            assert np.array_equal(want, got)
        assert clone.settings == ctx.models.settings
        assert clone.n_training_samples == ctx.models.n_training_samples
        assert clone.feature_recipe == ctx.models.feature_recipe

    def test_resaved_bundle_is_byte_identical(self, ctx, tmp_path):
        path = save_models(tmp_path / "m.json", ctx.models)
        clone, _meta = load_models(path)
        again = save_models(tmp_path / "again.json", clone)
        assert again.read_bytes() == path.read_bytes()

    def test_bundle_is_one_standard_scaler_and_two_svrs(self, ctx, tmp_path):
        clone, _meta = load_models(save_models(tmp_path / "m.json", ctx.models))
        assert type(clone.scaler) is StandardScaler
        assert type(clone.speedup_model) is SVR
        assert type(clone.energy_model) is SVR

    def test_bundle_kernels_are_the_paper_pair(self, ctx, tmp_path):
        """Linear for speedup, RBF with γ = 0.1 for energy (§3.4)."""
        path = save_models(tmp_path / "m.json", ctx.models)
        payload = json.loads(path.read_text())["payload"]
        assert payload["speedup_model"]["kernel"] == {"kind": "linear"}
        assert payload["energy_model"]["kernel"] == {"kind": "rbf", "gamma": 0.1}
        clone, _meta = load_models(path)
        assert clone.speedup_model.kernel == LinearKernel()
        assert clone.energy_model.kernel == RBFKernel(gamma=0.1)

    def test_reloaded_pareto_fronts_bit_identical_on_suite(self, ctx, tmp_path):
        """Acceptance: saved+reloaded bundle reproduces every front exactly."""
        from repro.core.predictor import ParetoPredictor

        path = save_models(tmp_path / "m.json", ctx.models)
        clone, _meta = load_models(path)
        original = ctx.predictor
        reloaded = ParetoPredictor(
            clone, ctx.device, candidates=original.candidates
        )
        for spec in suite_benchmarks():
            a = original.predict_for_spec(spec)
            b = reloaded.predict_for_spec(spec)
            assert [
                (p.config, p.objectives, p.modeled) for p in a.front
            ] == [(p.config, p.objectives, p.modeled) for p in b.front], spec.name

    def test_artifact_is_compact(self, ctx, tmp_path):
        """Only support vectors ship — not the whole training matrix."""
        path = save_models(tmp_path / "m.json", ctx.models)
        assert path.stat().st_size < 500_000

    def test_meta_round_trips(self, ctx, tmp_path):
        path = save_models(
            tmp_path / "m.json", ctx.models, meta={"device": "X", "recipe": "quick"}
        )
        _models, meta = load_models(path)
        assert meta == {"device": "X", "recipe": "quick"}


class TestEnvelopeValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError, match="no artifact"):
            load_artifact(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ArtifactError, match="not valid JSON"):
            load_artifact(path)

    def test_future_format_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": ARTIFACT_FORMAT_VERSION + 1,
                    "artifact_kind": "trained_models",
                    "payload": {"kind": "trained_models"},
                }
            )
        )
        with pytest.raises(ArtifactError, match="not supported"):
            load_artifact(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = save_artifact(tmp_path / "s.json", {"kind": "standard_scaler"})
        with pytest.raises(ArtifactError, match="expected a 'trained_models'"):
            load_artifact(path, expected_kind="trained_models")

    def test_payload_without_kind_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no 'kind'"):
            save_artifact(tmp_path / "x.json", {"no": "kind"})

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        save_artifact(tmp_path / "a.json", {"kind": "standard_scaler"})
        assert [p.name for p in tmp_path.iterdir()] == ["a.json"]

    def test_overwrite_existing_artifact(self, tmp_path):
        path = tmp_path / "a.json"
        save_artifact(path, {"kind": "standard_scaler"})
        save_artifact(path, {"kind": "identity_scaler"})
        payload, _meta = load_artifact(path)
        assert payload["kind"] == "identity_scaler"


class TestUndecodableBundle:
    """A payload that does not decode is an ArtifactError naming the file."""

    @pytest.mark.parametrize(
        "edit, detail",
        [
            (
                lambda p: p["scaler"].update(kind="welford_scaler"),
                "unknown scaler kind 'welford_scaler'",
            ),
            (
                lambda p: p["energy_model"].update(kind="bogus"),
                "unknown regressor kind 'bogus'",
            ),
            (lambda p: p["scaler"].pop("mean"), "missing field 'mean'"),
            (
                lambda p: p.update(interactions=False),
                "interactions=False: only the interaction design matrix is "
                "supported (retrain the bundle)",
            ),
            (lambda p: p.pop("interactions"), "missing field 'interactions'"),
            # Kinds that once had a decoder: only the scaler and the SVR
            # pair the pipeline writes load.
            (
                lambda p: p["speedup_model"].update(kind="ols"),
                "unknown regressor kind 'ols'",
            ),
            (
                lambda p: p["energy_model"].update(kind="rff_svr"),
                "unknown regressor kind 'rff_svr'",
            ),
            (
                lambda p: p["scaler"].update(kind="minmax_scaler"),
                "unknown scaler kind 'minmax_scaler'",
            ),
            (
                lambda p: p["energy_model"]["kernel"].update(kind="poly"),
                "unknown kernel kind 'poly'",
            ),
            (
                lambda p: p["speedup_model"].update(kind="ridge"),
                "unknown regressor kind 'ridge'",
            ),
            (
                lambda p: p["energy_model"].update(kind="lasso"),
                "unknown regressor kind 'lasso'",
            ),
            (
                lambda p: p["speedup_model"].update(kind="poly_regression"),
                "unknown regressor kind 'poly_regression'",
            ),
            (
                lambda p: p["scaler"].update(kind="identity_scaler"),
                "unknown scaler kind 'identity_scaler'",
            ),
            (
                lambda p: p["speedup_model"]["kernel"].update(kind="poly", degree=2),
                "unknown kernel kind 'poly'",
            ),
            (
                lambda p: p["energy_model"]["kernel"].pop("gamma"),
                "missing field 'gamma'",
            ),
            (
                lambda p: p["energy_model"]["kernel"].update(gamma=-0.1),
                "gamma must be positive",
            ),
            (
                lambda p: p["speedup_model"]["kernel"].pop("kind"),
                "missing field 'kind'",
            ),
        ],
        ids=[
            "scaler-kind",
            "regressor-kind",
            "missing-field",
            "no-interactions",
            "missing-interactions",
            "speedup-ols",
            "energy-rff-svr",
            "minmax-scaler",
            "poly-kernel",
            "speedup-ridge",
            "energy-lasso",
            "speedup-poly-regression",
            "identity-scaler",
            "speedup-poly-kernel",
            "rbf-without-gamma",
            "rbf-negative-gamma",
            "kernel-without-kind",
        ],
    )
    def test_load_names_path_and_cause(self, ctx, tmp_path, edit, detail):
        path = save_models(tmp_path / "m.json", ctx.models)
        envelope = json.loads(path.read_text())
        edit(envelope["payload"])
        path.write_text(json.dumps(envelope))
        with pytest.raises(ArtifactError) as err:
            load_models(path)
        assert str(err.value) == (
            f"artifact {path} is not a loadable model bundle: {detail}"
        )

"""Cross-device transfer error: the paper's portability claim (Fig. 4b).

The paper argues the approach "can be easily applied to different
GPU architectures" by training on one device and predicting on another
(§4.1, Fig. 4b: Titan X vs Tesla P100).  This bench quantifies that claim
under the simulator: train the two models on device A, predict the twelve
test benchmarks' (speedup, normalized energy) on device B's modeled
frequency settings, and compare against B's measured objectives — side by
side with the *native* model (trained on B itself).  The gap between
transfer and native error is the portability cost.

Quick mode (``REPRO_BENCH_QUICK=1`` or ``REPRO_QUICK=1``) uses the reduced
training contexts so CI's smoke step stays fast.
"""

import os

import numpy as np
from _common import write_artifact

from repro.core.config import modeled_subset
from repro.harness.context import paper_context
from repro.harness.report import format_heading, format_table
from repro.measure import SimulatorBackend
from repro.ml.metrics import mape
from repro.suite import test_benchmarks

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK") or os.environ.get("REPRO_QUICK"))

DEVICES = ("NVIDIA GTX Titan X", "NVIDIA Tesla P100")
SHORT = {"NVIDIA GTX Titan X": "titan-x", "NVIDIA Tesla P100": "tesla-p100"}


def _contexts():
    # paper_context honours REPRO_QUICK, so quick mode shrinks training.
    return {device: paper_context(device=device) for device in DEVICES}


def prediction_errors(models, eval_ctx) -> tuple[float, float]:
    """(speedup MAPE %, energy MAPE %) of ``models`` on ``eval_ctx``'s device.

    Evaluated over the twelve test benchmarks at the evaluation device's
    modeled frequency settings, against its measured objectives.
    """
    device = eval_ctx.device
    settings = modeled_subset(device, eval_ctx.settings) or eval_ctx.settings
    backend = SimulatorBackend(sim=eval_ctx.sim)
    true_speedup, true_energy = [], []
    pred_speedup, pred_energy = [], []
    for spec in test_benchmarks():
        measured = backend.measure(spec, settings)
        predicted = models.predict_objectives(spec.static_features(), settings)
        true_speedup.extend(measured.speedup.tolist())
        true_energy.extend(measured.norm_energy.tolist())
        pred_speedup.extend(p[0] for p in predicted)
        pred_energy.extend(p[1] for p in predicted)
    return (
        mape(np.asarray(true_speedup), np.asarray(pred_speedup)),
        mape(np.asarray(true_energy), np.asarray(pred_energy)),
    )


def transfer_matrix():
    """Rows of (train device, eval device, speedup MAPE, energy MAPE)."""
    contexts = _contexts()
    rows = []
    for train_device in DEVICES:
        for eval_device in DEVICES:
            err_s, err_e = prediction_errors(
                contexts[train_device].models, contexts[eval_device]
            )
            rows.append((train_device, eval_device, err_s, err_e))
    return rows


def regenerate_transfer_error() -> tuple[str, dict]:
    """The table, and its rows keyed ``train->eval`` (short device names)
    with each row's kind and speedup/energy MAPE in percent."""
    rows = transfer_matrix()
    native = {
        eval_device: (err_s, err_e)
        for train_device, eval_device, err_s, err_e in rows
        if train_device == eval_device
    }
    table_rows = []
    data_rows = {}
    for train_device, eval_device, err_s, err_e in rows:
        kind = "native" if train_device == eval_device else "transfer"
        data_rows[f"{SHORT[train_device]}->{SHORT[eval_device]}"] = {
            "kind": kind,
            "speedup_mape_pct": err_s,
            "energy_mape_pct": err_e,
        }
        penalty_s = err_s - native[eval_device][0]
        penalty_e = err_e - native[eval_device][1]
        table_rows.append(
            (
                f"{SHORT[train_device]} -> {SHORT[eval_device]}",
                kind,
                f"{err_s:7.2f}",
                f"{err_e:7.2f}",
                "-" if kind == "native" else f"{penalty_s:+6.2f}",
                "-" if kind == "native" else f"{penalty_e:+6.2f}",
            )
        )
    table = format_table(
        [
            "train -> eval",
            "kind",
            "speedup MAPE %",
            "energy MAPE %",
            "Δ speedup pp",
            "Δ energy pp",
        ],
        table_rows,
    )
    text = (
        format_heading(
            "cross-device transfer error — Fig. 4b portability "
            f"({'quick' if QUICK else 'paper'} contexts)"
        )
        + "\n"
        + table
        + "\n(Δ = transfer error minus the eval device's native-model error)"
    )
    return text, {"quick": QUICK, "rows": data_rows}


def test_transfer_error():
    text, data = regenerate_transfer_error()
    write_artifact("transfer_error", text, data=data)
    # Two devices → four (train, eval) pairs: two native, two transfer.
    lines = text.splitlines()
    assert sum(1 for line in lines if "| native " in line) == 2
    assert sum(1 for line in lines if "| transfer" in line) == 2


def test_errors_are_finite_and_bounded():
    rows = transfer_matrix()
    for _train, _eval, err_s, err_e in rows:
        assert np.isfinite(err_s) and np.isfinite(err_e)
        # Even cross-device, a trained model must beat noise wildly;
        # triple-digit MAPE would mean the transfer story is broken.
        assert err_s < 100.0 and err_e < 100.0, (err_s, err_e)


def test_native_training_is_competitive():
    """Native models should not be (much) worse than transferred ones."""
    rows = {(t, e): (s, en) for t, e, s, en in transfer_matrix()}
    for eval_device in DEVICES:
        native_s, _ = rows[(eval_device, eval_device)]
        for train_device in DEVICES:
            if train_device == eval_device:
                continue
            transfer_s, _ = rows[(train_device, eval_device)]
            assert native_s <= transfer_s + 5.0, (
                eval_device,
                native_s,
                transfer_s,
            )

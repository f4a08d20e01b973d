"""Start-up import hygiene: a command loads only the stacks it runs.

Each check runs in a fresh interpreter, since this test session has long
since imported everything.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.daemon"])
def test_scipy_is_not_imported(module):
    assert run_python(f"import sys, {module}; print('scipy' in sys.modules)") == "False"


#: A small Titan X training set: 4 micro-benchmarks x 8 sampled settings.
SMALL_DATASET = (
    "import sys\n"
    "from repro.core.config import sample_training_settings\n"
    "from repro.core.dataset import build_training_dataset\n"
    "from repro.core.pipeline import train_models\n"
    "from repro.gpusim.device import make_titan_x\n"
    "from repro.measure import SimulatorBackend\n"
    "from repro.synthetic import generate_micro_benchmarks\n"
    "device = make_titan_x()\n"
    "specs = generate_micro_benchmarks()[:4]\n"
    "settings = sample_training_settings(device, total=8)\n"
    "dataset = build_training_dataset(SimulatorBackend(device), specs, settings)\n"
)


def test_training_loads_no_scipy():
    code = SMALL_DATASET + (
        "models = train_models(dataset, settings=settings)\n"
        "print(models.speedup_model.converged_, 'scipy' in sys.modules)\n"
    )
    assert run_python(code) == "True False"


def test_pooled_sweep_and_train_load_no_scipy():
    """A ``workers=2`` pool sweeps and trains a leg: neither the parent
    nor the worker that trained loads scipy."""
    code = SMALL_DATASET + (
        "from repro.campaign.scheduler import train_leg_task\n"
        "from repro.measure import DevicePool\n"
        "def train_then_check(payload):\n"
        "    train_leg_task(payload)\n"
        "    return 'scipy' in sys.modules\n"
        "with DevicePool(workers=2) as pool:\n"
        "    tasks = [(device.name, spec, settings, 'paper10') for spec in specs]\n"
        "    swept = len(list(pool.imap_sweeps(tasks)))\n"
        "    in_worker = pool.apply_async(\n"
        "        train_then_check, (dataset, settings, device.name, 'paper10')\n"
        "    ).get()\n"
        "print(swept, in_worker, 'scipy' in sys.modules)\n"
    )
    assert run_python(code) == "4 False False"


def test_campaign_and_predict_run_with_scipy_blocked(tmp_path):
    """The runtime needs numpy alone.  ``sys.modules['scipy'] = None``
    makes any scipy import fail, here and in every forked pool worker; a
    quick 2-device campaign and a prediction from its store still work."""
    kernel = tmp_path / "k.cl"
    kernel.write_text(
        "__kernel void k(__global float* x) {\n"
        "  int i = get_global_id(0);\n"
        "  x[i] = x[i] * 2.0f + 1.0f;\n"
        "}\n"
    )
    store = tmp_path / "store"
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from repro.campaign import CampaignPlan, run_campaign\n"
        "from repro.cli import main\n"
        "plan = CampaignPlan(devices=('titan-x', 'tesla-p100'), recipe='quick', workers=2)\n"
        f"report = run_campaign(plan, store_root={str(store)!r})\n"
        "assert len(report.results) == 2\n"
        f"status = main(['predict', {str(kernel)!r}, '--device', 'tesla-p100',\n"
        f"               '--store', {str(store)!r}])\n"
        "print('exit', status)\n"
    )
    assert run_python(code).splitlines()[-1] == "exit 0"


def test_package_import_loads_no_stack():
    loaded = run_python(
        "import sys, repro; print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    assert loaded == "['repro']"


def test_every_export_resolves():
    code = (
        "import repro\n"
        "exec('from repro import ' + ', '.join(repro.__all__))\n"
        "print(len(repro.__all__))\n"
    )
    assert run_python(code) == "26"


def test_submodules_resolve_as_attributes():
    code = (
        "import repro\n"
        "print(repro.PredictionService is repro.serve.service.PredictionService,"
        " repro.clkernel.parser.__name__)\n"
    )
    assert run_python(code) == "True repro.clkernel.parser"


def test_unknown_attribute_raises_attribute_error():
    code = (
        "import repro\n"
        "for name in ('no_such_thing', '_private', '__wrapped__'):\n"
        "    try:\n"
        "        getattr(repro, name)\n"
        "    except AttributeError as exc:\n"
        "        print(type(exc).__name__, end=' ')\n"
    )
    assert run_python(code) == "AttributeError AttributeError AttributeError"


#: Measurement-side packages a serving process must never load: serving
#: only loads bundles that a campaign or ``repro train`` built.
BUILD_ONLY_PREFIXES = ("repro.measure", "repro.synthetic", "repro.campaign")


@pytest.mark.parametrize("module", ["repro.serve.fleet", "repro.serve.daemon"])
def test_serving_loads_no_measurement_code(module):
    code = (
        f"import sys, {module}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('repro.'))))\n"
    )
    loaded = run_python(code).split()
    offending = [
        m
        for m in loaded
        if m.startswith(BUILD_ONLY_PREFIXES)
        or (m.startswith("repro.harness.") and m != "repro.harness.report")
    ]
    assert offending == []


def test_report_import_skips_the_runner():
    code = "import sys, repro.harness.report; print('repro.harness.runner' in sys.modules)"
    assert run_python(code) == "False"


def test_harness_package_exports_resolve():
    code = (
        "import repro.harness\n"
        "from repro.harness import evaluate_suite, prediction_errors\n"
        "exec('from repro.harness import ' + ', '.join(repro.harness.__all__))\n"
        "print(evaluate_suite.__module__, prediction_errors.__module__)\n"
    )
    assert run_python(code) == "repro.harness.evaluation repro.harness.errors"

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

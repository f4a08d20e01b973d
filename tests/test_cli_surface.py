"""The CLI's flag surface, pinned: every subcommand's options as a table.

Each row is ``option → (dest, default, required, nargs, choices, type)``;
positionals are keyed by their dest.  The table is written out literally
so that any change to how ``build_parser`` declares flags (shared parent
parsers, helper functions) must keep what users can type unchanged.
"""

import argparse

import pytest

from repro.cli import build_parser

#: The measurement-selection flags shared by the training commands.
MEASURE = {
    "--device": ("device", None, False, None, None, None),
    "--backend": ("backend", "simulator", False, None, ("simulator", "replay"), None),
    "--trace": ("trace", None, False, None, None, None),
    "--trace-key": ("trace_key", None, False, None, None, None),
    "--max-cached-kernels": ("max_cached_kernels", None, False, None, None, "int"),
    "--store": ("store", None, False, None, None, None),
}
QUICK = {"--quick": ("quick", False, False, 0, None, None)}
STORE = {"--store": ("store", None, False, None, None, None)}
NAME = {"--name": ("name", None, False, None, None, None)}
MODEL = {"--model": ("model", None, False, None, None, None)}
METRICS_OUT = {"--metrics-out": ("metrics_out", None, False, None, None, None)}
KERNEL = {"kernel": ("kernel", None, True, None, None, None)}
RECORD = {"--record-trace": ("record_trace", None, False, None, None, None)}
FEATURES = {"--features": ("features", None, False, None, None, None)}

SURFACE = {
    "features": ("_cmd_features", {**KERNEL, **NAME}),
    "lint": ("_cmd_lint", {
        "sources": ("sources", None, True, "*", None, None),
        **STORE,
        "--min-severity": (
            "min_severity", "info", False, None, ("info", "warning", "error"), None
        ),
    }),
    "train": ("_cmd_train", {
        "--save": ("save", None, True, None, None, None),
        **QUICK, **FEATURES, **MEASURE, **RECORD,
    }),
    "predict": ("_cmd_predict", {**KERNEL, **NAME, **QUICK, **MODEL, **MEASURE}),
    "predict-batch": ("_cmd_predict_batch", {
        "kernels": ("kernels", None, True, "*", None, None),
        "--requests": ("requests", None, False, None, None, None),
        **NAME, **MODEL, **QUICK,
        "--stats": ("stats", False, False, 0, None, None),
        **METRICS_OUT, **MEASURE,
    }),
    "devices": ("_cmd_devices", {}),
    "stats": ("_cmd_stats", {
        **STORE,
        "--format": ("format", "prom", False, None, ("prom", "json"), None),
    }),
    "traces": ("_cmd_traces", STORE),
    "store": (None, {
        "store_command": ("store_command", None, True, "A...", ("compact",), None),
    }),
    "store compact": ("_cmd_store_compact", {
        **STORE, "--force": ("force", False, False, 0, None, None),
    }),
    "serve-status": ("_cmd_serve_status", STORE),
    "serve-daemon": ("_cmd_serve_daemon", {
        **STORE,
        "--host": ("host", "127.0.0.1", False, None, None, None),
        "--port": ("port", 8077, False, None, None, "int"),
        "--batch-window-ms": ("batch_window_ms", 5.0, False, None, None, "float"),
        "--max-batch": ("max_batch", 32, False, None, None, "int"),
        "--max-queue": ("max_queue", 64, False, None, None, "int"),
        "--reload-interval": ("reload_interval", 2.0, False, None, None, "float"),
        "--max-services": ("max_services", None, False, None, None, "int"),
        **QUICK,
        "--no-warm": ("warm", True, False, 0, None, None),
    }),
    "campaign": ("_cmd_campaign", {
        "--devices": ("devices", None, True, None, None, None),
        "--workers": ("workers", 1, False, None, None, "int"),
        **QUICK, **STORE,
        "--resume": ("resume", False, False, 0, None, None),
        **METRICS_OUT,
        "--progress": ("progress", None, False, 0, None, None),
        "--no-progress": ("progress", True, False, 0, None, None),
        **FEATURES,
    }),
    "characterize": ("_cmd_characterize", {
        "benchmark": ("benchmark", None, True, None, None, None),
        **QUICK, **MEASURE, **RECORD,
    }),
    "table2": ("_cmd_table2", {**QUICK, **MEASURE}),
}

#: What a minimal invocation of each command parses to: the effective
#: defaults, including which of two flags sharing a dest sets it first
#: (``campaign``'s ``progress`` stays None until a flag is given).
PARSED = {
    ("features", "k.cl"): {"kernel": "k.cl", "name": None},
    ("lint",): {"sources": [], "store": None, "min_severity": "info"},
    ("train", "--save", "m.json"): {
        "save": "m.json", "quick": False, "features": None,
        "device": None, "backend": "simulator", "trace": None,
        "trace_key": None, "max_cached_kernels": None, "store": None,
        "record_trace": None,
    },
    ("predict", "k.cl"): {
        "kernel": "k.cl", "name": None, "quick": False, "model": None,
        "device": None, "backend": "simulator", "trace": None,
        "trace_key": None, "max_cached_kernels": None, "store": None,
    },
    ("predict-batch",): {
        "kernels": [], "requests": None, "name": None, "model": None,
        "quick": False, "stats": False, "metrics_out": None, "device": None,
        "backend": "simulator", "trace": None, "trace_key": None,
        "max_cached_kernels": None, "store": None,
    },
    ("devices",): {},
    ("stats",): {"store": None, "format": "prom"},
    ("traces",): {"store": None},
    ("store", "compact"): {"store_command": "compact", "store": None, "force": False},
    ("serve-status",): {"store": None},
    ("serve-daemon",): {
        "store": None, "host": "127.0.0.1", "port": 8077,
        "batch_window_ms": 5.0, "max_batch": 32, "max_queue": 64,
        "reload_interval": 2.0, "max_services": None, "quick": False,
        "warm": True,
    },
    ("campaign", "--devices", "titan-x"): {
        "devices": "titan-x", "workers": 1, "quick": False,
        "store": None, "resume": False, "metrics_out": None,
        "progress": None, "features": None,
    },
    ("characterize", "MT"): {
        "benchmark": "MT", "quick": False, "device": None,
        "backend": "simulator", "trace": None, "trace_key": None,
        "max_cached_kernels": None, "store": None, "record_trace": None,
    },
    ("table2",): {
        "quick": False, "device": None, "backend": "simulator",
        "trace": None, "trace_key": None, "max_cached_kernels": None,
        "store": None,
    },
}


def _commands(parser, prefix=()):
    """Every (sub-)subparser under ``parser``, keyed by its command words."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield " ".join(prefix + (name,)), sub
                yield from _commands(sub, prefix + (name,))


def _surface(parser):
    rows = {}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        key = "/".join(action.option_strings) or action.dest
        choices = None if action.choices is None else tuple(action.choices)
        kind = getattr(action.type, "__name__", None)
        rows[key] = (
            action.dest, action.default, action.required, action.nargs,
            choices, kind,
        )
    return rows


def test_command_set_is_pinned():
    assert {name for name, _ in _commands(build_parser())} == set(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_subcommand_surface_is_pinned(command):
    func, rows = SURFACE[command]
    sub = dict(_commands(build_parser()))[command]
    handler = sub.get_default("func")
    assert (handler.__name__ if handler else None) == func
    assert _surface(sub) == rows


@pytest.mark.parametrize("argv", sorted(PARSED), ids=" ".join)
def test_minimal_invocation_parses_to_pinned_defaults(argv):
    namespace = vars(build_parser().parse_args(list(argv)))
    namespace.pop("func")
    assert namespace.pop("command") == argv[0]
    assert namespace == PARSED[argv]

"""The lint engine and `repro lint` CLI: findings, stores, exit codes."""

import pathlib

import pytest

from repro.analysis import lint_paths, lint_source, lint_store
from repro.cli import main
from tests.analysis.test_diagnostics import OVERFLOW

CLEAN = """
__kernel void scale(__global float* x) {
    for (int i = 0; i < 16; i++) {
        x[i] = x[i] * 2.0f;
    }
}
"""

UNKNOWN_LOOP = """
__kernel void spin(__global float* x) {
    while (x[0] > 0.0f) {
        x[0] = x[0] - 1.0f;
    }
}
"""

BROKEN = "__kernel void oops(__global float* x) { x[0] = ; }"


class TestLintSource:
    def test_clean_source(self):
        findings, checked = lint_source(CLEAN)
        assert checked == 1
        assert not [f for f in findings if f.severity == "error"]

    def test_unknown_trip_count_is_an_error(self):
        findings, checked = lint_source(UNKNOWN_LOOP, label="k.cl")
        assert checked == 1
        errors = [f for f in findings if f.severity == "error"]
        assert errors
        assert errors[0].finding.code == "unknown-trip-count"
        rendered = errors[0].render()
        assert rendered.startswith("k.cl:")
        assert ": error: " in rendered
        assert "[spin]" in rendered

    def test_frontend_failure_is_a_finding_not_a_crash(self):
        findings, checked = lint_source(BROKEN, label="broken.cl")
        assert checked == 0
        assert findings
        assert findings[0].finding.code == "frontend-error"
        assert findings[0].severity == "error"

    @pytest.mark.parametrize("literal", ["0xg", "08", "1e5u", "\u00b2", "1\u00b2"])
    def test_malformed_literal_is_a_finding_not_a_crash(self, literal):
        source = f"__kernel void k(__global float* a) {{ a[0] = {literal}; }}"
        findings, checked = lint_source(source, label="lit.cl")
        assert checked == 0
        assert [f.finding.code for f in findings] == ["frontend-error"]
        assert findings[0].severity == "error"
        assert findings[0].render().startswith("lit.cl:1:")

    def test_too_deep_nesting_is_a_finding_not_a_crash(self):
        depth = 400
        source = "__kernel void k(__global float* a) { a[0] = %s1%s; }" % (
            "(" * depth,
            ")" * depth,
        )
        findings, checked = lint_source(source, label="deep.cl")
        assert checked == 0
        assert [f.finding.code for f in findings] == ["frontend-error"]
        assert "nesting deeper than" in findings[0].finding.message
        assert findings[0].render().startswith("deep.cl:1:")

    def test_kernel_name_filter(self):
        two = CLEAN + UNKNOWN_LOOP
        findings, checked = lint_source(two, kernel_name="scale")
        assert checked == 1
        assert not [f for f in findings if f.severity == "error"]


class TestLintPaths:
    def test_reports_per_file_labels_and_lines(self, tmp_path):
        good = tmp_path / "good.cl"
        bad = tmp_path / "bad.cl"
        good.write_text(CLEAN)
        bad.write_text(UNKNOWN_LOOP)
        report = lint_paths([good, bad])
        assert report.kernels_checked == 2
        assert report.has_errors
        labels = {f.label for f in report.errors}
        assert labels == {str(bad)}
        line = report.errors[0].render()
        # path:line: severity: message (code) [kernel]
        path_part, line_part, severity_part = line.split(":", 2)
        assert path_part == str(bad)
        assert int(line_part) > 0
        assert severity_part.strip().startswith("error")

    def test_missing_file_is_unresolved_not_fatal(self, tmp_path):
        report = lint_paths([tmp_path / "absent.cl"])
        assert report.kernels_checked == 0
        assert report.unresolved
        assert not report.has_errors

    def test_directory_and_non_utf8_file_are_unresolved(self, tmp_path):
        latin1 = tmp_path / "latin1.cl"
        latin1.write_bytes(b"// caf\xe9\n")
        report = lint_paths([tmp_path, latin1])
        assert report.kernels_checked == 0
        assert report.unresolved == (
            f"{tmp_path}: Is a directory",
            f"{latin1}: not UTF-8 text",
        )

    def test_min_severity_filter(self, tmp_path):
        src = tmp_path / "branchy.cl"
        src.write_text(
            "__kernel void f(__global float* x, int n) "
            "{ int i = get_global_id(0); if (i < n) { x[i] = 1.0f; } }"
        )
        report = lint_paths([src])
        assert report.render_lines("info")
        assert report.render_lines("error") == []


class TestLintStore:
    def test_not_a_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            lint_store(tmp_path / "nowhere")

    def test_lints_a_campaign_stores_corpus(self, tmp_path):
        from repro.campaign import CampaignPlan, run_campaign

        store = tmp_path / "store"
        run_campaign(
            CampaignPlan(devices=("titan-x",), recipe="quick"), store_root=store
        )
        report = lint_store(store)
        assert report.kernels_checked > 0
        assert not report.unresolved
        # The synthetic corpus is built from known-clean templates.
        assert not report.has_errors

    def test_unreadable_traces_are_skipped(self, tmp_path):
        """A v1 file or undecodable record names no kernels; no crash."""
        traces = tmp_path / "store" / "traces"
        traces.mkdir(parents=True)
        (traces / "v1.jsonl").write_text(
            '{"format": "repro.measurement-trace", "version": 1, '
            '"device": "NVIDIA GTX Titan X", "kernels": {}}\n'
        )
        (traces / "latin1.jsonl").write_bytes(
            b'{"format":"repro.measurement-trace","version":2,'
            b'"device":"NVIDIA GTX Titan X","meta":{}}\n{"kernel":"caf\xe9"}\n'
        )
        report = lint_store(tmp_path / "store")
        assert report.kernels_checked == 0
        assert not report.unresolved


class TestLintCLI:
    def test_clean_suite_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.cl"
        path.write_text(CLEAN)
        assert main(["lint", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_error_findings_exit_nonzero(self, tmp_path, capsys):
        path = tmp_path / "spin.cl"
        path.write_text(UNKNOWN_LOOP)
        code = main(["lint", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert f"{path}:" in out
        assert "unknown-trip-count" in out

    def test_overflowing_trip_product_exits_one(self, tmp_path, capsys):
        path = tmp_path / "overflow.cl"
        path.write_text(OVERFLOW)
        assert main(["lint", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"{path}:1: error: " in out
        assert "(non-finite-weight) [k]" in out
        assert "1 kernel(s) checked: 1 error" in out

    def test_exit_reflects_errors_even_when_hidden(self, tmp_path, capsys):
        path = tmp_path / "spin.cl"
        path.write_text(UNKNOWN_LOOP)
        # --min-severity only filters the printout, never the exit code.
        assert main(["lint", "--min-severity", "error", str(path)]) == 1

    def test_no_inputs_is_a_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sources_and_store_conflict(self, tmp_path, capsys):
        path = tmp_path / "clean.cl"
        path.write_text(CLEAN)
        assert main(["lint", str(path), "--store", str(tmp_path)]) == 2

    def test_examples_kernels_are_lint_clean(self, capsys):
        examples = sorted(
            pathlib.Path(__file__).resolve().parents[2].glob("examples/kernels/*.cl")
        )
        assert examples, "examples/kernels/ should ship lintable kernels"
        assert main(["lint", *[str(p) for p in examples]]) == 0

"""End-to-end bench suite + CLI: real runs, reduced to one benchmark.

The kernel microbench is the cheapest member of the suite, so these
tests run it for real (``only=("kernel_micro",)``) and validate the
emitted report rather than mocking the measurement layer.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    BENCHMARK_NAMES,
    BenchReport,
    run_bench_suite,
    validate_report,
)
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def kernel_report():
    return run_bench_suite(scale="smoke", seed=0, only=("kernel_micro",))


class TestRunBenchSuite:
    def test_report_is_schema_valid(self, kernel_report):
        assert validate_report(kernel_report.to_dict()) == []
        assert kernel_report.scale == "smoke"
        assert list(kernel_report.benchmarks) == ["kernel_micro"]

    def test_measurements_are_populated(self, kernel_report):
        bench = kernel_report.benchmarks["kernel_micro"]
        assert bench.wall_seconds > 0
        # Each kernel solve leaves its span behind, counted.
        assert bench.span_seconds["linear_solve"] > 0
        assert bench.span_counts == {"linear_solve": bench.params["solves"]}
        # One kernel, one sparsity pattern: the factorization is built
        # once and every solve is charged to the lifetime stats.
        assert bench.work["linear_solves"] == bench.params["solves"]
        assert bench.work["preconditioner_builds"] == 1.0
        assert bench.peak_rss_kb > 0
        assert bench.params["seed"] == 0

    def test_work_metrics_are_deterministic_across_runs(self, kernel_report):
        again = run_bench_suite(scale="smoke", seed=0, only=("kernel_micro",))
        assert again.benchmarks["kernel_micro"].work == (
            kernel_report.benchmarks["kernel_micro"].work
        )
        assert again.benchmarks["kernel_micro"].span_counts == (
            kernel_report.benchmarks["kernel_micro"].span_counts
        )

    def test_save_load_round_trip(self, kernel_report, tmp_path):
        path = kernel_report.save(tmp_path / "BENCH_1.json")
        again = BenchReport.load(path)
        assert again.to_dict() == kernel_report.to_dict()

    def test_unknown_scale_and_benchmark_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_bench_suite(scale="galactic")
        with pytest.raises(ValueError, match="unknown benchmark"):
            run_bench_suite(only=("kernel_micro", "frobnicate"))

    def test_progress_callback_sees_each_benchmark(self, tmp_path):
        seen = []
        run_bench_suite(only=("kernel_micro",), progress=seen.append)
        assert seen == ["kernel_micro"]

    def test_suite_names_are_the_documented_seven(self):
        assert BENCHMARK_NAMES == (
            "trajectory",
            "figure8_seeding",
            "serve_batch",
            "kernel_micro",
            "service_soak",
            "fleet_soak",
            "certify_soak",
        )


class TestBenchCli:
    def test_bench_writes_report_and_exits_zero(self, tmp_path):
        out = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--only", "kernel_micro", "--out", str(out)]) == 0
        assert validate_report(json.loads(out.read_text())) == []

    def test_bench_auto_numbers_in_cwd(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--only", "kernel_micro"]) == 0
        assert (tmp_path / "BENCH_1.json").exists()
        assert "wrote BENCH_1.json" in capsys.readouterr().out

    def test_bench_no_out_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--only", "kernel_micro", "--no-out"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_compare_against_own_run_passes(self, kernel_report, tmp_path):
        baseline = kernel_report.save(tmp_path / "BENCH_base.json")
        code = main(
            [
                "bench",
                "--only",
                "kernel_micro",
                "--no-out",
                "--compare",
                str(baseline),
            ]
        )
        assert code == 0

    def test_compare_fails_on_regressed_work(self, kernel_report, tmp_path, capsys):
        # A baseline claiming half the inner iterations makes the real
        # run look like a 2x work regression: the gate must exit 1.
        doc = kernel_report.to_dict()
        doc["benchmarks"]["kernel_micro"]["work"]["inner_iterations"] *= 0.5
        baseline = tmp_path / "BENCH_shrunk.json"
        baseline.write_text(json.dumps(doc))
        code = main(
            [
                "bench",
                "--only",
                "kernel_micro",
                "--no-out",
                "--compare",
                str(baseline),
            ]
        )
        assert code == 1
        assert "gate: FAIL" in capsys.readouterr().out

    def test_compare_refuses_scale_mismatch(self, kernel_report, tmp_path, capsys):
        doc = kernel_report.to_dict()
        doc["scale"] = "full"
        baseline = tmp_path / "BENCH_full.json"
        baseline.write_text(json.dumps(doc))
        code = main(
            [
                "bench",
                "--only",
                "kernel_micro",
                "--no-out",
                "--compare",
                str(baseline),
            ]
        )
        assert code == 2
        assert "not comparable" in capsys.readouterr().err

    def test_compare_missing_baseline_exits_three(self, tmp_path, capsys):
        # A mistyped or never-committed snapshot path is its own exit
        # code (3), distinct from a real regression (1) or a scale
        # mismatch (2) — CI must not report "perf regressed" when the
        # truth is "there was nothing to compare against".
        code = main(
            [
                "bench",
                "--only",
                "kernel_micro",
                "--no-out",
                "--compare",
                str(tmp_path / "BENCH_nope.json"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "BENCH_nope.json" in err


class TestRegressionScript:
    """scripts/check_bench_regression.py — the CI gate entry point."""

    SCRIPT = REPO_ROOT / "scripts" / "check_bench_regression.py"

    def run_script(self, *argv):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *map(str, argv)],
            capture_output=True,
            text=True,
        )

    def test_identical_reports_pass(self, kernel_report, tmp_path):
        path = kernel_report.save(tmp_path / "BENCH_1.json")
        proc = self.run_script(path, path)
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "gate: OK" in proc.stdout

    def test_injected_slowdown_fails(self, kernel_report, tmp_path):
        path = kernel_report.save(tmp_path / "BENCH_1.json")
        proc = self.run_script(
            path,
            path,
            "--inject-slowdown",
            "kernel_micro:work.inner_iterations:1.3",
        )
        assert proc.returncode == 1, proc.stderr + proc.stdout
        assert "gate: FAIL" in proc.stdout

    def test_scale_mismatch_exits_two(self, kernel_report, tmp_path):
        path = kernel_report.save(tmp_path / "BENCH_1.json")
        doc = kernel_report.to_dict()
        doc["scale"] = "full"
        other = tmp_path / "BENCH_2.json"
        other.write_text(json.dumps(doc))
        proc = self.run_script(path, other)
        assert proc.returncode == 2, proc.stderr + proc.stdout

    def test_invalid_report_exits_one(self, kernel_report, tmp_path):
        path = kernel_report.save(tmp_path / "BENCH_1.json")
        broken = tmp_path / "BENCH_broken.json"
        broken.write_text('{"bench_schema": 1}')
        proc = self.run_script(path, broken)
        assert proc.returncode == 1, proc.stderr + proc.stdout

    def test_missing_report_exits_three(self, kernel_report, tmp_path):
        path = kernel_report.save(tmp_path / "BENCH_1.json")
        proc = self.run_script(tmp_path / "BENCH_nope.json", path)
        assert proc.returncode == 3, proc.stderr + proc.stdout
        assert "does not exist" in proc.stderr


    def test_help_documents_all_four_exit_codes(self):
        # The exit-code contract is CI-facing API: the epilog must name
        # every code so a red job explains itself without reading the
        # source.
        proc = self.run_script("--help")
        assert proc.returncode == 0
        help_text = proc.stdout
        assert "exit codes" in help_text
        assert "0  gate passed" in help_text
        assert "1  regression past tolerance" in help_text
        assert "2  reports not comparable" in help_text
        assert "3  missing baseline" in help_text


class TestValidateReportsScript:
    """scripts/validate_bench_reports.py — CI schema check over the
    committed BENCH_<n>.json trajectory."""

    SCRIPT = REPO_ROOT / "scripts" / "validate_bench_reports.py"

    def run_script(self, *argv):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), *map(str, argv)],
            capture_output=True,
            text=True,
        )

    def test_committed_trajectory_is_valid(self):
        proc = self.run_script(str(REPO_ROOT))
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "bench report(s) valid" in proc.stdout

    def test_valid_report_dir_passes(self, kernel_report, tmp_path):
        kernel_report.save(tmp_path / "BENCH_1.json")
        proc = self.run_script(str(tmp_path))
        assert proc.returncode == 0, proc.stderr + proc.stdout

    def test_corrupt_report_fails(self, kernel_report, tmp_path):
        kernel_report.save(tmp_path / "BENCH_1.json")
        (tmp_path / "BENCH_2.json").write_text('{"bench_schema": 1}')
        proc = self.run_script(str(tmp_path))
        assert proc.returncode == 1, proc.stderr + proc.stdout
        assert "INVALID" in proc.stdout
        assert "BENCH_2.json" in proc.stdout

    def test_unparseable_json_fails(self, kernel_report, tmp_path):
        kernel_report.save(tmp_path / "BENCH_1.json")
        (tmp_path / "BENCH_2.json").write_text("{ torn mid-write")
        proc = self.run_script(str(tmp_path))
        assert proc.returncode == 1, proc.stderr + proc.stdout

    def test_empty_dir_exits_two(self, tmp_path):
        proc = self.run_script(str(tmp_path))
        assert proc.returncode == 2, proc.stderr + proc.stdout


class TestCommittedCertifySnapshot:
    """The committed BENCH trajectory must carry the certify_soak
    acceptance numbers once the certification layer lands."""

    def test_latest_snapshot_pins_certify_overhead_and_catch_rate(self):
        from repro.bench import latest_bench_path

        path = latest_bench_path(REPO_ROOT)
        assert path is not None, "no committed BENCH_<n>.json found"
        report = BenchReport.load(path)
        bench = report.benchmarks.get("certify_soak")
        assert bench is not None, (
            f"{path.name} predates certify_soak; re-run `repro bench` and "
            "commit the new snapshot"
        )
        # Acceptance: certification overhead <= 10%, every injected
        # corruption deterministically caught, certified clean runs
        # bitwise identical to uncertified ones.
        assert bench.counters["certify_overhead_ratio"] <= 1.10
        assert bench.work["corruption_caught"] >= 1
        assert bench.work["bitwise_identical"] == 1.0
        assert bench.work["certificates_failed"] == bench.work["corruption_caught"]

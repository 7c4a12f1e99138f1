"""Golden-file regression tests for the CLI's rendered output.

Pins the exact text of the deterministic commands (``table5``,
``figure2`` at a fixed seed/resolution) and the stable structure of
``table1`` (whose measured-time column is wall-clock derived and masked
before comparison). Any formatting or numeric drift fails loudly;
intentional changes are recorded with ``pytest --update-golden``.
"""

import re

from repro.cli import main


def _normalize(text: str) -> str:
    """Strip trailing whitespace: ascii_table pads the last column."""
    return "\n".join(line.rstrip() for line in text.splitlines()) + "\n"


def _mask_measured_times(text: str) -> str:
    """Replace the trailing measured-seconds token of each table1 row.

    The last column is a wall-clock measurement and legitimately varies
    run to run; the rest of the table (disciplines, solvers, the
    paper's kernel fractions) must not.
    """
    lines = []
    for line in text.splitlines():
        stripped = line.rstrip()
        lines.append(re.sub(r"(\| )\d+(?:\.\d+)?(?:e-?\d+)?$", r"\1<measured>", stripped))
    return "\n".join(lines) + "\n"


def _run_cli(argv, capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


class TestGoldenCli:
    def test_table5_matches_golden(self, capsys, golden):
        golden("table5", _normalize(_run_cli(["table5"], capsys)))

    def test_figure2_fixed_seed_matches_golden(self, capsys, golden):
        golden("figure2", _normalize(_run_cli(["figure2", "--resolution", "24"], capsys)))

    def test_table1_structure_matches_golden(self, capsys, golden):
        golden("table1", _mask_measured_times(_run_cli(["table1"], capsys)))

    def test_health_report_matches_golden(self, capsys, golden):
        """The degraded-board aging story is fully seeded (die, drift
        walk, per-solve problems), so the rendered report — ladder
        verdicts, gate rejections, quarantine and recalibration
        counters — is pinned byte for byte."""
        golden(
            "health_report",
            _normalize(
                _run_cli(
                    [
                        "health-report",
                        "--solves",
                        "4",
                        "--seed",
                        "1",
                        "--degradation",
                        "offset_drift_sigma=0.1,seed=5",
                        "--analog-time-limit",
                        "20",
                    ],
                    capsys,
                )
            ),
        )

    def test_figure8_matches_golden(self, capsys, golden):
        """Figure 8 drives HybridSolver (analog seed, undamped polish,
        damped fallback) against the damped baseline; every counted
        column is seeded, so the table is pinned byte for byte."""
        golden(
            "figure8",
            _normalize(
                _run_cli(
                    [
                        "figure8",
                        "--grid",
                        "4",
                        "--reynolds",
                        "0.25,1.0,2.0",
                        "--trials",
                        "2",
                        "--seed",
                        "0",
                    ],
                    capsys,
                )
            ),
        )

    def test_consecutive_same_seed_runs_identical(self, capsys):
        """Two figure2 runs at the same settings render byte-identically
        (the golden files above are meaningful only if this holds)."""
        first = _run_cli(["figure2", "--resolution", "24"], capsys)
        second = _run_cli(["figure2", "--resolution", "24"], capsys)
        assert first == second

    def test_masking_is_stable_across_runs(self, capsys):
        first = _mask_measured_times(_run_cli(["table1"], capsys))
        second = _mask_measured_times(_run_cli(["table1"], capsys))
        assert first == second

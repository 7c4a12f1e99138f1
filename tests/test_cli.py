"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table4" in out
    assert "figure9" in out


def test_table4_prints_rows(capsys):
    assert main(["table4"]) == 0
    out = capsys.readouterr().out
    assert "16 x 16" in out
    assert "352" in out


def test_table5_prints_matrix(capsys):
    assert main(["table5"]) == 0
    assert "this work" in capsys.readouterr().out


def test_figure2_small(capsys):
    assert main(["figure2", "--resolution", "24"]) == 0
    assert "contiguity" in capsys.readouterr().out


def test_figure6_small(capsys):
    assert main(["figure6", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "total RMS error" in out


def test_figure7_tiny(capsys):
    assert main(["figure7", "--grids", "2", "--reynolds", "1.0", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "2x2" in out
    # The linear-kernel accounting is surfaced with the figure.
    assert "digital linear kernel" in out
    assert "preconditioner builds" in out


def test_sweep_serial(capsys):
    assert main(["sweep", "--experiments", "table2,table4", "--workers", "1"]) == 0
    out = capsys.readouterr().out
    assert "sweep of 2 experiment(s)" in out
    assert "table2" in out and "table4" in out


def test_sweep_rejects_unknown_experiment():
    with pytest.raises(ValueError, match="unknown experiment"):
        main(["sweep", "--experiments", "figure99"])


def test_list_mentions_sweep(capsys):
    assert main(["list"]) == 0
    assert "sweep" in capsys.readouterr().out


def test_health_report_healthy_board(capsys):
    assert main(["health-report", "--solves", "2"]) == 0
    out = capsys.readouterr().out
    assert "degradation off" in out
    assert "analog health report" in out
    assert "seeds_rejected" in out


def test_health_report_rejects_bad_degradation_spec():
    with pytest.raises(SystemExit):
        main(["health-report", "--degradation", "not_a_knob=1.0"])


def test_health_report_fleet_renders_idle_boards(capsys):
    # More boards than solves: some boards never settle anything. Their
    # rate columns must render "-", not raise ZeroDivisionError.
    assert (
        main(
            [
                "health-report",
                "--solves",
                "2",
                "--boards",
                "4",
                "--settle-max-steps",
                "2000",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "fleet boards:" in out
    assert "fleet of 4 board(s)" in out
    idle_rows = [
        line
        for line in out.splitlines()
        if line.startswith(("2 ", "3 ")) and "| -" in line
    ]
    assert idle_rows, out


def test_list_mentions_health_report(capsys):
    assert main(["list"]) == 0
    assert "health-report" in capsys.readouterr().out


def test_serve_batch_with_degradation(capsys):
    assert (
        main(
            [
                "serve-batch",
                "--requests",
                "2",
                "--workers",
                "1",
                "--seed",
                "3",
                "--analog-time-limit",
                "1e-3",
                "--degradation",
                "offset_drift_sigma=0.05,seed=2",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "outcome" in out or "converged" in out


def test_requires_command(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["figure99"])


def test_list_mentions_verify_journal_and_certify(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "verify-journal" in out
    assert "--certify" in out


def test_serve_batch_certify_writes_verifiable_journal(tmp_path, capsys):
    journal = tmp_path / "batch.journal"
    assert (
        main(
            [
                "serve-batch",
                "--requests",
                "2",
                "--workers",
                "1",
                "--seed",
                "3",
                "--analog-time-limit",
                "1e-3",
                "--certify",
                "--journal",
                str(journal),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "certificates_checked" in out
    # The journal the certified run wrote must audit clean.
    assert main(["verify-journal", str(journal)]) == 0
    assert "verdict: ok" in capsys.readouterr().out


def test_verify_journal_flags_tampering(tmp_path, capsys):
    import json

    from repro.checkpoint.atomic import decode_array, encode_array, payload_digest

    journal = tmp_path / "batch.journal"
    assert (
        main(
            [
                "serve-batch",
                "--requests",
                "2",
                "--workers",
                "1",
                "--seed",
                "3",
                "--analog-time-limit",
                "1e-3",
                "--certify",
                "--journal",
                str(journal),
            ]
        )
        == 0
    )
    capsys.readouterr()
    lines = []
    tampered = False
    for line in journal.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if (
            not tampered
            and record.get("kind") == "outcome_committed"
            and record["outcome"].get("solution") is not None
        ):
            record.pop("sha256", None)
            outcome = record["outcome"]
            outcome["solution"] = encode_array(
                decode_array(outcome["solution"]) * 1.001
            )
            record["sha256"] = payload_digest(record)
            line = json.dumps(record)
            tampered = True
        lines.append(line)
    assert tampered
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify-journal", str(journal)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_journal_missing_file_exits_two(tmp_path, capsys):
    assert main(["verify-journal", str(tmp_path / "nope.journal")]) == 2
    assert "cannot audit" in capsys.readouterr().err


def test_verify_journal_unknown_problem_kind_exits_two(tmp_path, capsys):
    import json

    from repro.checkpoint.atomic import payload_digest

    journal = tmp_path / "batch.journal"
    argv = ["serve-batch", "--requests", "1", "--workers", "1", "--seed", "3"]
    assert main(argv + ["--analog-time-limit", "1e-3", "--journal", str(journal)]) == 0
    capsys.readouterr()
    lines = []
    for line in journal.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if record.get("kind") == "request_accepted":
            record.pop("sha256", None)
            record["request"]["problem"]["kind"] = "bratu"
            record["sha256"] = payload_digest(record)
            line = json.dumps(record)
        lines.append(line)
    journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["verify-journal", str(journal)]) == 2
    assert "unknown problem kind 'bratu'" in capsys.readouterr().err


def test_serve_canary_interval_requires_boards():
    with pytest.raises(SystemExit):
        main(
            [
                "serve",
                "--requests",
                "2",
                "--canary-interval",
                "2",
            ]
        )


def test_serve_and_serve_batch_build_the_same_request_stream():
    from repro.cli import _build_parser, _burgers_requests

    stream = [
        "--requests", "5", "--grids", "2,4", "--reynolds", "0.5", "--seed", "7",
        "--deadline", "3.0", "--analog-time-limit", "0.25",
    ]
    parser = _build_parser()
    batch_args = parser.parse_args(["serve-batch", *stream])
    service_args = parser.parse_args(["serve", *stream])
    batch = _burgers_requests(batch_args)
    assert batch == _burgers_requests(service_args)
    assert [r.request_id for r in batch] == [f"req-{i:04d}" for i in range(5)]
    assert [r.problem.as_dict()["grid_n"] for r in batch] == [2, 4, 2, 4, 2]
    assert batch[3].problem.as_dict()["seed"] == 10
    assert all(r.deadline_seconds == 3.0 and r.analog_time_limit == 0.25 for r in batch)
    # Every shared option parses to the same value under both commands.
    shared = (
        "requests grids reynolds seed deadline max_attempts analog_time_limit "
        "faults degradation boards kill_board settle_max_steps certify"
    ).split()
    for name in shared:
        assert getattr(batch_args, name) == getattr(service_args, name), name

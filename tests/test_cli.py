"""The `python -m repro` experiment runner."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "microbench" in out and "rubis" in out and "nfs" in out


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bogus"])


def test_cli_start_up_does_not_load_openssl():
    """Building the CLI parser (every ``python -m repro`` start-up,
    ``repro serve`` included) must not load OpenSSL through ``hashlib``;
    only hashing a trace does."""
    code = (
        "import sys, repro.cli; repro.cli.build_parser(); "
        "print('_hashlib' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    assert out.strip() == "False"


def test_parser_defaults():
    args = build_parser().parse_args(["rubis"])
    assert args.scheduler == "both"
    assert args.duration == 20.0
    args = build_parser().parse_args(["nfs", "--threads", "1,2"])
    assert args.threads == "1,2"


def test_nfs_command_small(capsys):
    assert main(["nfs", "--threads", "1", "--ops", "6"]) == 0
    out = capsys.readouterr().out
    assert "Figures 4 & 5" in out
    assert "proxy user ms" in out


def test_rubis_command_single_scheduler(capsys):
    assert main(["rubis", "--scheduler", "dwcs", "--duration", "4"]) == 0
    out = capsys.readouterr().out
    assert "bidding" in out and "comment" in out


def test_microbench_quick(capsys):
    assert main(["microbench", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "linpack" in out
    assert "overhead vs configuration" in out


def test_failures_parser_defaults():
    args = build_parser().parse_args(["failures"])
    assert args.scenario == "both"
    assert args.seed == 9
    assert args.fault_start == 6.0
    assert args.fault_duration == 5.0


def test_diagnose_parser_defaults():
    args = build_parser().parse_args(["diagnose"])
    assert args.smoke is False
    assert args.seed is None


def test_diagnose_smoke_command(capsys):
    assert main(["diagnose", "--smoke"]) == 0
    out = capsys.readouterr().out
    assert "online diagnosis closed loop" in out
    assert "closed loop complete" in out
    assert "blame" in out


def test_failures_command_single_scenario(capsys):
    assert main([
        "failures", "--scenario", "daemon-crash",
        "--fault-start", "3", "--fault-duration", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "failure injection" in out
    assert "daemon-crash" in out
    assert "reconnects" in out


def test_calibrate_parser_defaults():
    args = build_parser().parse_args(["calibrate"])
    assert args.smoke is False
    assert args.seed == 23
    assert args.resource is None
    assert args.no_record is False
    assert args.jobs == 1


def test_calibrate_partial_run_skips_trajectory(capsys, tmp_path):
    # A single fast resource keeps this tier-1-cheap; partial selections
    # must never rewrite the committed BENCH trajectory.
    assert main([
        "calibrate", "--smoke", "--resource", "kprof_buffer",
    ]) == 0
    out = capsys.readouterr().out
    assert "kprof_buffer" in out
    assert "1/1 within tolerance" in out
    assert "BENCH_calibration.json not updated" in out


def test_microbench_quick_skips_trajectory(capsys):
    assert main(["microbench", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "BENCH_microbench.json not updated" in out

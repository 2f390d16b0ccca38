import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beliefgames import cli
from beliefgames.cli import main
from beliefgames.games import matching_game, random_game, save_game
from beliefgames.verify import CHECKS


@pytest.fixture()
def workdir(tmp_path):
    save_game(matching_game(2), tmp_path / "game.json")
    cfg = {
        "game": "game.json",
        "risk_families": {"type": "exponential", "gamma": 3.0},
        "schedule": {"type": "power", "c": 1.0, "a": 0.6},
        "horizon": 300,
        "downsample": 10,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    return tmp_path


def _cfg_path(workdir):
    return str(workdir / "cfg.json")


def _rewrite(workdir, **changes):
    doc = json.loads((workdir / "cfg.json").read_text())
    doc.update(changes)
    (workdir / "cfg.json").write_text(json.dumps(doc))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_trace_and_summary(workdir, capsys):
    out = workdir / "run"
    code = main(["simulate", "--config", _cfg_path(workdir), "--out", str(out)])
    assert code == 0
    assert (out / "trace.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["horizon"] == 300
    assert summary["config"]["horizon"] == 300
    assert "final residual" in capsys.readouterr().out


def test_simulate_and_solve_record_their_timing(workdir):
    out = workdir / "timed"
    assert main(["simulate", "--config", _cfg_path(workdir), "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    timing = summary["timing"]
    assert set(timing) == {"dynamics_s", "csv_s", "rounds_per_s"}
    assert all(s > 0.0 for s in timing.values())
    assert timing["rounds_per_s"] == summary["horizon"] / timing["dynamics_s"]
    assert main(["solve", "--config", _cfg_path(workdir), "--out", str(out), "--quiet"]) == 0
    timing = json.loads((out / "equilibrium.json").read_text())["timing"]
    assert set(timing) == {"solve_s"} and timing["solve_s"] > 0.0


def test_simulate_traces_are_byte_identical(workdir):
    out1, out2 = workdir / "a", workdir / "b"
    assert main(["simulate", "--config", _cfg_path(workdir),
                 "--out", str(out1), "--quiet"]) == 0
    assert main(["simulate", "--config", _cfg_path(workdir),
                 "--out", str(out2), "--quiet"]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_three_player_simulate_traces_are_byte_identical(tmp_path):
    # the M >= 3 payoff contraction must be as deterministic as the two-player one
    save_game(random_game(3, 3, np.random.default_rng(33)), tmp_path / "game.json")
    cfg = {
        "game": "game.json",
        "risk_families": {"type": "uniform", "gamma": 1.0},
        "schedule": {"type": "power", "c": 1.0, "a": 0.6},
        "horizon": 500,
        "downsample": 1,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["simulate", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out), "--quiet"]) == 0
        blobs.append((out / "trace.csv").read_bytes())
    assert blobs[0].count(b"\n") == 1 + 500 * 3 * 3
    assert blobs[0] == blobs[1]


REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("stem", ["coordination", "mixed_families", "skewed_sparse",
                                  "unstable_demo"])
def test_shipped_config_traces_match_the_reference_digests(stem, tmp_path):
    # the reference digests are the ones the benchmark gates on
    reference = json.loads((REPO / "perfbench" / "reference.json").read_text())
    out = tmp_path / stem
    code = main(["simulate", "--config", str(REPO / "configs" / f"{stem}.json"),
                 "--out", str(out), "--quiet"])
    assert code in (0, 2, 3)
    digest = hashlib.sha256((out / "trace.csv").read_bytes()).hexdigest()
    assert digest == reference["trace_sha256"][stem]


def test_simulate_warns_on_summable_schedule(workdir, capsys):
    _rewrite(workdir, schedule={"type": "power", "c": 1.0, "a": 1.5})
    code = main(["simulate", "--config", _cfg_path(workdir),
                 "--out", str(workdir / "run")])
    assert code == 2
    assert "summable" in capsys.readouterr().out


def test_simulate_dry_run_writes_nothing(workdir, capsys):
    out = workdir / "run"
    code = main(["simulate", "--config", _cfg_path(workdir),
                 "--out", str(out), "--dry-run"])
    assert code == 0
    assert not out.exists()
    plan = json.loads(capsys.readouterr().out)
    assert plan["horizon"] == 300
    assert plan["schedule"] == {"type": "power", "c": 1.0, "a": 0.6}


def test_simulate_downsample_and_seed_overrides(workdir):
    out = workdir / "run"
    code = main(["simulate", "--config", _cfg_path(workdir), "--out", str(out),
                 "--downsample", "100", "--seed", "7", "--quiet"])
    assert code == 0
    rows = (out / "trace.csv").read_text().splitlines()
    # header plus (players x actions) rows for each of rounds 100, 200, 300
    assert len(rows) == 1 + 4 * 3
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 7
    assert summary["config"]["downsample"] == 100


def test_simulate_rejects_bad_downsample(workdir, capsys):
    code = main(["simulate", "--config", _cfg_path(workdir),
                 "--downsample", "0"])
    assert code == 1
    assert "downsample" in capsys.readouterr().err


def test_simulate_missing_config(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_malformed_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_simulate_quiet_suppresses_output(workdir, capsys):
    code = main(["simulate", "--config", _cfg_path(workdir),
                 "--out", str(workdir / "run"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# solve and check


def test_solve_writes_equilibrium(workdir, capsys):
    out = workdir / "eq"
    code = main(["solve", "--config", _cfg_path(workdir), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "equilibrium.json").read_text())
    assert doc["converged"] is True
    assert doc["residual"] <= 1e-10
    assert len(doc["profile"]) == 2
    assert "solve:" in capsys.readouterr().out


def test_check_passes_with_strong_regularization(workdir, capsys):
    out = workdir / "chk"
    code = main(["check", "--config", _cfg_path(workdir), "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "stability.json").read_text())
    assert doc["all_passed"] is True
    assert len(doc["concavity"]) == 2
    captured = capsys.readouterr().out
    assert "player 0" in captured and "pass" in captured


def test_check_flags_weak_regularization(workdir, capsys):
    _rewrite(workdir, risk_families={"type": "exponential", "gamma": 0.5})
    code = main(["check", "--config", _cfg_path(workdir),
                 "--out", str(workdir / "chk")])
    assert code == 3
    assert "NOT certified" in capsys.readouterr().out


def test_check_reports_an_unbounded_family_as_not_strongly_concave(tmp_path, capsys):
    # the shipped config's player 1 has a Pareto family with q = 2.5 > 2
    configs = Path(__file__).resolve().parents[1] / "configs"
    for name in ("mixed_families.json", "matching2.json"):
        (tmp_path / name).write_text((configs / name).read_text())
    out = tmp_path / "chk"
    code = main(["check", "--config", str(tmp_path / "mixed_families.json"), "--out", str(out)])
    assert code == 3
    assert "player 1: not strongly concave -> FAIL" in capsys.readouterr().out

    def reject(name):
        raise ValueError(f"stability.json is not strict JSON: {name}")

    doc = json.loads((out / "stability.json").read_text(), parse_constant=reject)
    assert doc["players"][1]["curvature"] == 0.0
    assert doc["players"][1]["passed"] is False
    assert doc["concavity"][1]["verified"] is False
    assert doc["concavity"][1]["lipschitz_constant"] is None
    assert doc["concavity"][0]["verified"] is True


# ---------------------------------------------------------------------------
# verify


def test_verify_filtered_run(tmp_path, capsys):
    code = main(["verify", "--only", "sparsemax", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS sparsemax_projection" in out
    assert "softmax_bisection" not in out
    manifest = json.loads((tmp_path / "verify.json").read_text())
    assert manifest["all_passed"] is True
    assert set(manifest["checks"]) == {"sparsemax_projection", "sparsemax_bisection"}


def test_verify_records_each_checks_wall_time(tmp_path, capsys):
    assert main(["verify", "--only", "sparsemax", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    timing = json.loads((tmp_path / "verify.json").read_text())["timing"]
    assert set(timing["checks_s"]) == {"sparsemax_projection", "sparsemax_bisection"}
    assert all(s > 0.0 for s in timing["checks_s"].values())
    assert timing["total_s"] == pytest.approx(sum(timing["checks_s"].values()))


def test_verify_rejects_unknown_filter(capsys):
    assert main(["verify", "--only", "zzz_nothing"]) == 1
    assert "error:" in capsys.readouterr().err


def _src_env():
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_module_form_runs_the_cli(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "beliefgames", "verify", "--only", "sparsemax_projection"],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS sparsemax_projection" in done.stdout


def test_cli_module_runs_the_cli(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "beliefgames.cli", "verify", "--only", "sparsemax_projection"],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "PASS sparsemax_projection" in done.stdout


def test_import_does_not_load_scipy(tmp_path):
    # scipy's import would dominate CLI start-up; the package never needs it
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, beliefgames, beliefgames.cli; print('scipy' in sys.modules)"],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # scipy is a test-only dependency; None in sys.modules makes its import fail
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from beliefgames.cli import main\n"
        "codes = [main(['verify'])]\n"
        "for command in ('simulate', 'solve', 'check'):\n"
        "    codes.append(main([command, '--config', sys.argv[1], '--out', command, '--quiet']))\n"
        "print(codes)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(REPO / "configs" / "coordination.json")],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "[0, 0, 0, 0]"
    assert sum(line.startswith("PASS ") for line in lines) == len(CHECKS) == 13
    assert not any(line.startswith("FAIL ") for line in lines)


@pytest.mark.parametrize("command, work", [
    ("simulate", "run_dynamics"), ("solve", "fixed_point_iterate"),
    ("check", "stability_check"), ("verify", "verification_suite")])
def test_an_unwritable_out_fails_before_any_work(command, work, workdir, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError(f"{work} ran although --out cannot be made")

    monkeypatch.setattr(cli, work, never)
    blocker = workdir / "file"
    blocker.write_text("")
    config = [] if command == "verify" else ["--config", _cfg_path(workdir)]
    assert main([command, *config, "--out", str(blocker / "out"), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(blocker / "out") in err


# ---------------------------------------------------------------------------
# argument handling


def test_no_command_is_an_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# test tooling


def test_an_unregistered_marker_in_a_marker_expression_is_a_usage_error():
    def collect(expression):
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "--collect-only", "-q",
             "-m", expression, str(REPO / "tests" / "test_games.py")],
            cwd=REPO, env=_src_env(), capture_output=True, text=True, timeout=120,
        )

    done = collect("not slwo")
    assert done.returncode == 4
    assert "slwo" in done.stdout + done.stderr
    for expression in ("not slow", "skip or xfail or parametrize or slow"):
        done = collect(expression)
        assert done.returncode == 0, done.stdout + done.stderr
        assert "collected" in done.stdout

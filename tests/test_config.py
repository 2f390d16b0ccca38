import json
import re
import subprocess
import sys

import pytest

from beliefgames.cli import _write_json, main
from beliefgames.config import ExperimentConfig, load_experiment_config
from beliefgames.dynamics import RunConfig
from beliefgames.games import matching_game, save_game
from test_cli import REPO, _src_env

GOOD = {
    "game": "game.json",
    "risk_families": {"type": "exponential", "gamma": 3.0},
    "schedule": {"type": "power", "c": 1.0, "a": 0.6},
    "horizon": 50,
    "downsample": 10,
}


def _write(tmp_path, doc) -> str:
    save_game(matching_game(2), tmp_path / "game.json")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


# (config document, a phrase the error must contain)
MALFORMED = {
    "clamp_above_one_over_n": (GOOD | {"clamp": 0.6}, "probability clamp"),
    "nan_initial_estimates": (GOOD | {"initial_estimates": [[float("nan"), 0], [0, 0]]},
                              "finite"),
    "misshaped_initial_estimates": (GOOD | {"initial_estimates": [[0, 0, 0], [0, 0, 0]]},
                                    "(players, actions)"),
    "null_horizon": (GOOD | {"horizon": None}, "NoneType"),
    "zero_horizon": (GOOD | {"horizon": 0}, "horizon must be at least 1"),
    "zero_downsample": (GOOD | {"downsample": 0}, "downsample"),
    "non_numeric_step_scale": (GOOD | {"schedule": {"type": "constant", "c": "x"}},
                               "'x'"),
    "missing_schedule": ({k: v for k, v in GOOD.items() if k != "schedule"},
                         "missing required field 'schedule'"),
    "unknown_tolerance": (GOOD | {"tolerances": {"speed": 1.0}},
                          "unknown tolerance 'speed'"),
    "non_numeric_tolerance": (GOOD | {"tolerances": {"damping": "x"}},
                              "tolerance 'damping'"),
    "zero_damping": (GOOD | {"tolerances": {"damping": 0}},
                     "tolerance 'damping' must lie in (0, 1]"),
    "damping_above_one": (GOOD | {"tolerances": {"damping": 1.5}},
                          "tolerance 'damping' must lie in (0, 1]"),
    "nan_residual_tolerance": (GOOD | {"tolerances": {"residual": float("nan")}},
                               "tolerance 'residual' must be positive and finite"),
    "infinite_fixed_point_tolerance": (GOOD | {"tolerances": {"fixed_point": float("inf")}},
                                       "tolerance 'fixed_point' must be positive and finite"),
    "negative_fixed_point_tolerance": (GOOD | {"tolerances": {"fixed_point": -1e-9}},
                                       "tolerance 'fixed_point' must be positive and finite"),
    "zero_max_iterations": (GOOD | {"tolerances": {"max_iterations": 0}},
                            "tolerance 'max_iterations' must be at least 1"),
    "family_list_wrong_length": (GOOD | {"risk_families": [GOOD["risk_families"]] * 3},
                                 "lists 3 families, game has 2 players"),
    "missing_game_file": (GOOD | {"game": "absent.json"}, "cannot read game file"),
    "infinite_gamma": (GOOD | {"risk_families": {"type": "exponential", "gamma": float("inf")}},
                       "risk_families[0]: gamma must be positive and finite"),
    "infinite_pareto_q": (GOOD | {"belief_families": {"type": "pareto", "q": float("inf")}},
                          "belief_families[0]: q must be positive and finite"),
    "bool_step_scale": (GOOD | {"schedule": {"type": "constant", "c": True}},
                        "schedule.c: expected a number, got True"),
    "bool_damping": (GOOD | {"tolerances": {"damping": True}},
                     "tolerance 'damping': expected a number, got True"),
    "bool_gamma": (GOOD | {"risk_families": {"type": "exponential", "gamma": True}},
                   "risk_families[0]: gamma: expected a number, got True"),
    "fractional_uniform_actions": (
        GOOD | {"risk_families": {"type": "uniform", "actions": 2.5}},
        "risk_families[0]: actions: expected an integer, got 2.5"),
    "fractional_horizon": (GOOD | {"horizon": 2.5}, "horizon: expected an integer, got 2.5"),
}

INVOCATIONS = {
    "simulate": ["simulate"],
    "solve": ["solve"],
    "check": ["check"],
    "dry_run": ["simulate", "--dry-run"],
}


@pytest.mark.parametrize("invocation", INVOCATIONS)
@pytest.mark.parametrize("case", MALFORMED)
def test_every_command_rejects_a_malformed_config(case, invocation, tmp_path, capsys):
    doc, phrase = MALFORMED[case]
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    code = main([*INVOCATIONS[invocation], "--config", path, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}: ")
    assert err.count("\n") == 1
    assert phrase in err
    assert not out.exists()


def test_malformed_config_exits_without_a_traceback(tmp_path):
    path = _write(tmp_path, GOOD | {"horizon": None})
    done = subprocess.run(
        [sys.executable, "-m", "beliefgames", "simulate", "--config", path],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"error: {path}: ")


def test_loading_builds_the_run_config(tmp_path):
    cfg = load_experiment_config(_write(tmp_path, GOOD | {"clamp": 1e-9}))
    assert isinstance(cfg.run, RunConfig)
    assert (cfg.run.horizon, cfg.run.record_every) == (50, 10)
    assert cfg.run.probability_clamp == 1e-9
    assert cfg.run.belief_families == cfg.run.risk_families
    plan = cfg.describe()
    assert (plan["horizon"], plan["downsample"], plan["clamp"]) == (50, 10, 1e-9)


def test_summary_records_the_initial_estimates(tmp_path, capsys):
    start = [[1.0, 0.0], [0.0, 0.5]]
    path = _write(tmp_path, GOOD | {"initial_estimates": start})
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["config"]["initial_estimates"] == start
    path = _write(tmp_path, GOOD)
    assert main(["simulate", "--config", path, "--dry-run"]) == 0
    assert json.loads(capsys.readouterr().out)["initial_estimates"] is None


@pytest.mark.parametrize("stem", ["coordination", "mixed_families", "skewed_sparse",
                                  "unstable_demo"])
def test_dry_run_plan_is_the_recorded_config(stem, tmp_path, capsys):
    config = str(REPO / "configs" / f"{stem}.json")
    written = {"simulate": "summary.json", "solve": "equilibrium.json",
               "check": "stability.json"}
    for command, name in written.items():
        assert main([command, "--config", config, "--dry-run"]) == 0
        plan = json.loads(capsys.readouterr().out)
        out = tmp_path / command
        assert main([command, "--config", config, "--out", str(out), "--quiet"]) in (0, 2, 3)
        assert json.loads((out / name).read_text())["config"] == plan


# (config document, the field a type error must name)
MISTYPED = {
    "horizon": (GOOD | {"horizon": None}, "horizon"),
    "clamp": (GOOD | {"clamp": "tiny"}, "clamp"),
    "downsample": (GOOD | {"downsample": [10]}, "downsample"),
    "seed": (GOOD | {"seed": "x"}, "seed"),
    "schedule_c": (GOOD | {"schedule": {"type": "constant", "c": "x"}}, "schedule.c"),
    "schedule_a": (GOOD | {"schedule": {"type": "power", "c": 1.0, "a": None}}, "schedule.a"),
    "game": (GOOD | {"game": 5}, "game"),
    "out_dir": (GOOD | {"out_dir": 5}, "out_dir"),
    "tolerance": (GOOD | {"tolerances": {"max_iterations": "many"}},
                  "tolerance 'max_iterations'"),
}


@pytest.mark.parametrize("case", MISTYPED)
def test_a_mistyped_scalar_field_is_named(case, tmp_path, capsys):
    doc, name = MISTYPED[case]
    path = _write(tmp_path, doc)
    assert main(["simulate", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: {name}: ")


# integer fields: (where the field sits, its label in the error)
INTEGER_FIELDS = {
    "horizon": (lambda v: {"horizon": v}, "horizon"),
    "downsample": (lambda v: {"downsample": v}, "downsample"),
    "seed": (lambda v: {"seed": v}, "seed"),
    "max_iterations": (lambda v: {"tolerances": {"max_iterations": v}},
                       "tolerance 'max_iterations'"),
}


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_an_integer_field_rejects_bools_and_fractions(field, tmp_path):
    place, label = INTEGER_FIELDS[field]
    for bad in (2.7, True, 1.9, float("inf")):
        path = _write(tmp_path, GOOD | place(bad))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {label}: expected an integer, got {bad!r}")):
            load_experiment_config(path)
    cfg = load_experiment_config(_write(tmp_path, GOOD | place(100.0)))
    value = {"horizon": cfg.run.horizon, "downsample": cfg.run.record_every,
             "seed": cfg.seed, "max_iterations": cfg.tolerances.max_iterations}[field]
    assert value == 100 and type(value) is int


@pytest.mark.parametrize("command", ["simulate", "solve", "check"])
def test_dry_run_prints_the_strict_json_the_outputs_record(command, tmp_path, capsys,
                                                           monkeypatch):
    # an unbounded number prints as null, as in the written outputs' "config"
    path = _write(tmp_path, GOOD)
    plan = load_experiment_config(path).describe() | {"bound": float("inf")}
    monkeypatch.setattr(ExperimentConfig, "describe", lambda self: plan)
    assert main([command, "--config", path, "--dry-run"]) == 0
    printed = capsys.readouterr().out
    _write_json(str(tmp_path / "plan.json"), plan)
    assert printed == (tmp_path / "plan.json").read_text()
    assert json.loads(printed)["bound"] is None

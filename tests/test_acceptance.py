"""End-to-end acceptance checks, one test per criterion.

Each test prints a single machine-greppable ``criterion NN: PASS/FAIL`` line
(visible under ``pytest -s``) and pins its tolerances in the assertions.
Criteria with runtime budgets time themselves and fail when over budget.
"""

import json
import time

import numpy as np
import pytest

from beliefgames.analysis import (
    diagonal_dominance_check,
    fixed_point_iterate,
    game_hessian,
    hessian_blocks,
    negdef_on_tangent_check,
    residual_series,
    stability_check,
    variational_stability_probe,
)
from beliefgames.cli import main
from beliefgames.dynamics import RunConfig, StepSchedule, run_dynamics
from beliefgames.families import ExponentialFamily, ParetoFamily, UniformFamily
from beliefgames.games import (
    StrategyProfile,
    matching_game,
    payoff_vector,
    random_game,
    save_game,
)
from beliefgames.oracles import (
    coupling_expected_max,
    finite_difference_gradient,
    grid_fixed_point,
    gumbel_choice_frequencies,
    project_simplex,
)
from beliefgames.response import (
    optimistic_value,
    response_probabilities,
    smooth_payoff_gradient,
    sparsemax,
    weighted_softmax,
)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def _interior_rows(rng, players, actions, floor=0.05):
    rows = rng.dirichlet(np.ones(actions), size=players)
    rows = np.maximum(rows, floor)
    return rows / rows.sum(axis=1, keepdims=True)


def test_criterion_01_bisection_matches_closed_forms():
    budget, tol = 10.0, 1e-8
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (2, 5, 20, 50):
        exp = ExponentialFamily(gamma=1.0, n_actions=n)
        uni = UniformFamily(gamma=1.0, n_actions=n)
        for _ in range(200):
            u = rng.random(n)
            gap_exp = np.abs(response_probabilities(exp, u, method="bisection")
                             - weighted_softmax(u, exp.eta, exp.gamma)).max()
            gap_uni = np.abs(response_probabilities(uni, u, method="bisection")
                             - sparsemax(u / uni.gamma)).max()
            worst = max(worst, gap_exp, gap_uni)
    elapsed = time.perf_counter() - start
    _line(1, worst <= tol and elapsed < budget,
          f"max deviation {worst:.2e} <= {tol:g}, {elapsed:.1f}s < {budget:g}s")


def test_criterion_02_sparsemax_is_a_simplex_projection():
    budget, tol = 5.0, 1e-10
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 11))
        v = rng.normal(scale=2.0, size=n)
        worst = max(worst, np.abs(sparsemax(v)
                                  - project_simplex(v / (2.0 * n))).max())
    elapsed = time.perf_counter() - start
    _line(2, worst <= tol and elapsed < budget,
          f"max deviation {worst:.2e} <= {tol:g} over 10^4 vectors, "
          f"{elapsed:.1f}s < {budget:g}s")


def test_criterion_03_sparse_response_component_bound():
    rng = np.random.default_rng(103)
    violations = 0
    combos = 0
    for sigma in (0.3, 0.5):
        for n in (3, 5):
            threshold = 2.0 / sigma - n
            if threshold <= 0.0:
                continue
            combos += 1
            gamma = max(1.0 / threshold, 1e-3)
            cap = 1.0 / (n * sigma)
            for _ in range(10_000):
                u = rng.random(n)
                if sparsemax(u / gamma).max() > cap:
                    violations += 1
    _line(3, violations == 0 and combos == 3,
          f"{violations} violations of the 1/(N sigma) cap over "
          f"{combos} x 10^4 draws")


def test_criterion_04_optimistic_value_dominates_couplings():
    budget = 60.0
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    failures = 0
    total = 0
    for n in (2, 3, 5):
        for fam in (ExponentialFamily(gamma=1.0, n_actions=n),
                    UniformFamily(gamma=1.0, n_actions=n)):
            for k in range(50):
                u = rng.random(n)
                value = optimistic_value(fam, u)
                for copula in ("independence", "comonotone", "permutation"):
                    est = coupling_expected_max(fam, u, copula, 10_000,
                                                seed=1000 * n + k)
                    total += 1
                    if est.mean > value + 3.0 * est.stderr:
                        failures += 1
    elapsed = time.perf_counter() - start
    _line(4, failures == 0 and elapsed < budget,
          f"{failures}/{total} coupling estimates above value + 3 stderr, "
          f"{elapsed:.1f}s < {budget:g}s")


def test_criterion_05_gumbel_sampling_matches_softmax():
    tol = 0.002
    u = np.array([1.0, 0.0])
    freq = gumbel_choice_frequencies(u, 1.0, 1_000_000, seed=105)
    target = weighted_softmax(u, np.ones(2), 1.0)
    gap = np.abs(freq - target).max()
    _line(5, gap <= tol, f"max frequency gap {gap:.2e} <= {tol:g} at n=10^6")


def test_criterion_06_solver_agrees_with_grid_oracle():
    budget, res_tol, grid_tol = 60.0, 1e-9, 2e-3
    start = time.perf_counter()
    rng = np.random.default_rng(106)
    fams = tuple(ExponentialFamily(gamma=3.0, n_actions=2) for _ in range(2))
    worst_res, worst_gap = 0.0, 0.0
    for _ in range(20):
        game = random_game(2, 2, rng)
        solved = fixed_point_iterate(game, fams)
        worst_res = max(worst_res, solved.residual)
        gridded = grid_fixed_point(game, fams, resolution=1e-3)
        worst_gap = max(worst_gap,
                        np.abs(gridded.probs - solved.profile.probs).max())
    elapsed = time.perf_counter() - start
    _line(6, worst_res <= res_tol and worst_gap <= grid_tol and elapsed < budget,
          f"max residual {worst_res:.2e} <= {res_tol:g}, max grid gap "
          f"{worst_gap:.2e} <= {grid_tol:g}, {elapsed:.1f}s < {budget:g}s")


@pytest.mark.slow
def test_criterion_07_dynamics_converge_on_random_games():
    budget, res_tol = 300.0, 1e-3
    horizon = 100_000
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    fams = tuple(ExponentialFamily(gamma=6.0, n_actions=3) for _ in range(2))
    finals = []
    improved = 0
    for i in range(20):
        game = random_game(2, 3, rng)
        cfg = RunConfig(horizon=horizon, schedule=StepSchedule.power(1.0, 0.6),
                        risk_families=fams, belief_families=fams,
                        record_every=horizon // 10)
        trace = run_dynamics(game, cfg)
        series = residual_series(game, trace, fams)
        finals.append(trace.final_residual)
        # residual at T vs at T/10; once both sit at the float noise floor
        # the comparison is last-ulp lottery, so grant anything below 1e-12
        if series[-1] <= max(series[0], 1e-12):
            improved += 1
    elapsed = time.perf_counter() - start
    worst = max(finals)
    _line(7, worst <= res_tol and improved >= 19 and elapsed < budget,
          f"max final residual {worst:.2e} <= {res_tol:g}, improved on "
          f"{improved}/20 instances (need 19), {elapsed:.0f}s < {budget:g}s")


def test_criterion_08_curvature_grid_and_coupling_cap():
    tol = 1e-6
    game2 = matching_game(2)
    exp_grid = stability_check(
        game2, tuple(ExponentialFamily(gamma=0.7, n_actions=2)
                     for _ in range(2))).players[0].curvature_grid
    uni_grid = stability_check(
        game2, tuple(UniformFamily(gamma=0.7, n_actions=2)
                     for _ in range(2))).players[0].curvature_grid
    exp_ok = abs(exp_grid - 0.7) <= tol
    uni_ok = abs(uni_grid - 2.0 * 0.7 * 2) <= tol

    rng = np.random.default_rng(108)
    shapes = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
    cap_ok = True
    for i in range(50):
        players, actions = shapes[i % len(shapes)]
        game = random_game(players, actions, rng)
        report = stability_check(
            game, tuple(ExponentialFamily(gamma=1.0, n_actions=actions)
                        for _ in range(players)))
        for p in report.players:
            cap_ok = cap_ok and p.coupling <= actions * (players - 1) + 1e-12
    _line(8, exp_ok and uni_ok and cap_ok,
          f"grid curvature gaps {abs(exp_grid - 0.7):.1e} and "
          f"{abs(uni_grid - 2.8):.1e} <= {tol:g}; coupling <= N(M-1) on 50 games: "
          f"{cap_ok}")


@pytest.mark.slow
def test_criterion_09_stability_chain_holds_on_passing_instances():
    rng = np.random.default_rng(109)
    instances = []
    for _ in range(5):
        game = random_game(2, 2, rng)
        instances.append((game, tuple(ExponentialFamily(gamma=3.0, n_actions=2)
                                      for _ in range(2))))
        instances.append((game, tuple(UniformFamily(gamma=1.5, n_actions=2)
                                      for _ in range(2))))
    passing = dominance_fail = negdef_fail = probe_violations = 0
    for game, fams in instances:
        if not stability_check(game, fams).all_passed:
            continue
        passing += 1
        for _ in range(10):
            profile = StrategyProfile(_interior_rows(rng, 2, 2))
            blocks = hessian_blocks(game, profile, fams)
            if not diagonal_dominance_check(blocks):
                dominance_fail += 1
            if not negdef_on_tangent_check(game_hessian(game, profile, fams),
                                           n_players=2):
                negdef_fail += 1
        star = fixed_point_iterate(game, fams).profile
        probe = variational_stability_probe(game, star, fams,
                                            n_samples=10_000, seed=0)
        probe_violations += probe.violations
    ok = (passing == len(instances) and dominance_fail == 0
          and negdef_fail == 0 and probe_violations == 0)
    _line(9, ok,
          f"{passing}/{len(instances)} instances pass the curvature check; "
          f"{dominance_fail} dominance and {negdef_fail} tangent failures over "
          f"10 interior profiles each; {probe_violations} probe violations "
          f"over 10^4 samples each")


def test_criterion_10_gradient_matches_finite_differences():
    h, tol = 1e-5, 1e-5
    rng = np.random.default_rng(110)
    game = random_game(2, 3, rng)
    fams = [ExponentialFamily(gamma=1.3, n_actions=3),
            UniformFamily(gamma=0.8, n_actions=3),
            ParetoFamily(gamma=1.1, q=1.5, eta=np.full(3, 1.0 / 3.0))]
    worst = 0.0
    for i in range(100):
        player = i % 2
        fam = fams[i % len(fams)]
        profile = StrategyProfile(_interior_rows(rng, 2, 3))
        grad = smooth_payoff_gradient(game, player, profile, fam)
        u = payoff_vector(game, player, profile)
        # own-payoff term is linear in own probabilities, so freezing u is exact
        numeric = finite_difference_gradient(
            lambda x: float(x @ u) + fam.regularizer_terms(x),
            profile.player(player), h=h)
        worst = max(worst, np.abs(grad - numeric).max())
    _line(10, worst <= tol,
          f"max gradient gap {worst:.2e} <= {tol:g} at 100 interior points, "
          f"central differences h={h:g}")


def test_criterion_11_repeated_runs_are_byte_identical(tmp_path):
    save_game(matching_game(2), tmp_path / "game.json")
    cfg = {
        "game": "game.json",
        "risk_families": {"type": "exponential", "gamma": 3.0},
        "schedule": {"type": "power", "c": 1.0, "a": 0.6},
        "horizon": 2000,
        "downsample": 20,
        "seed": 11,
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    blobs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["simulate", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(out), "--quiet"])
        assert code == 0
        blobs.append((out / "trace.csv").read_bytes())
    _line(11, blobs[0] == blobs[1],
          f"two runs, {len(blobs[0])} trace bytes each, identical: "
          f"{blobs[0] == blobs[1]}")

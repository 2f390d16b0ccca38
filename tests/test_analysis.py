import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefgames.analysis import (
    assemble_hessian,
    coupling_bound,
    diagonal_dominance_check,
    equilibrium_residual,
    fixed_point_iterate,
    game_hessian,
    hessian_blocks,
    negdef_on_tangent_check,
    residual_series,
    stability_check,
    strong_concavity_check,
    variational_stability_probe,
)
from beliefgames.dynamics import RunConfig, StepSchedule, run_dynamics
from beliefgames.families import ExponentialFamily, ParetoFamily, TabulatedFamily, UniformFamily
from beliefgames.games import (
    StrategyProfile,
    matching_game,
    pairwise_payoff_matrix,
    random_game,
    uniform_profile,
)


def _exp(gamma, n=2, players=2):
    return tuple(ExponentialFamily(gamma=gamma, n_actions=n) for _ in range(players))


# ---------------------------------------------------------------------------
# residuals and fixed points


def test_residual_frozen_value_at_a_vertex():
    game = matching_game(2)
    vertex = StrategyProfile([[1.0, 0.0], [1.0, 0.0]])
    res = equilibrium_residual(game, vertex, _exp(1.0))
    # the response to payoffs (1, 0) is softmax, so the gap is 1 - 0.731...
    assert res == pytest.approx(0.2689414213699951, abs=1e-15)


def test_residual_zero_exactly_at_the_response_fixed_point():
    game = matching_game(2)
    fams = _exp(3.0)
    result = fixed_point_iterate(game, fams)
    assert result.converged
    assert result.residual <= 1e-10
    assert equilibrium_residual(game, result.profile, fams) == result.residual


def _pareto_fixed_point_cases():
    """The kkt-pareto benchmark's shape: 2x3 games, Pareto q in [0.5, 0.8] or [1.5, 2.5]."""
    rng = np.random.default_rng(71)
    cases = []
    for k in range(8):
        q = rng.uniform(0.5, 0.8) if k % 2 == 0 else rng.uniform(1.5, 2.5)
        fams = tuple(ParetoFamily(6.0, q, rng.uniform(0.5, 2.0, 3)) for _ in range(2))
        cases.append((random_game(2, 3, rng), fams))
    return cases


def _counted_fixed_point(count_cdf_kernel, game, fams):
    """(rows per CDF kernel call, result) of ``fixed_point_iterate``."""
    with count_cdf_kernel(*fams) as calls:
        return calls, fixed_point_iterate(game, fams)


def test_warm_fixed_point_evaluates_a_quarter_fewer_cdfs(monkeypatch, count_cdf_kernel):
    # each bound solver restarts Newton from its row's predicted kappa; a cold
    # solver per call must reach the same bits
    import beliefgames.response as response

    cases = _pareto_fixed_point_cases()
    warm = [_counted_fixed_point(count_cdf_kernel, game, fams) for game, fams in cases]
    monkeypatch.setattr(response, "response_solver", lambda fam: lambda u: np.apply_along_axis(
        lambda row: response._bisection_response(fam, row)[0], -1, u))
    cold = [_counted_fixed_point(count_cdf_kernel, game, fams) for game, fams in cases]
    for (_, a), (_, b) in zip(warm, cold):
        assert a.profile.probs.tobytes() == b.profile.probs.tobytes()
        assert (a.iterations, a.residual) == (b.iterations, b.residual)
        assert a.converged and a.residual <= 1e-10
    warm_rows, cold_rows = (sum(sum(calls) for calls, _ in runs) for runs in (warm, cold))
    assert warm_rows <= 0.75 * cold_rows


def test_warm_fixed_point_makes_few_kernel_calls_per_solve(count_solves, count_cdf_kernel):
    # The first certification points on both sides of Newton's root share one
    # kernel call with the bisection midpoints they would leave to evaluate:
    # the first inside them and the first inside each half after it, so at
    # most 5 rows.  On these 522 warm solves that is 2.34 kernel calls and
    # 6.23 rows per solve; with the pair alone it was 3.51 calls and 4.48 rows.
    calls = [n for game, fams in _pareto_fixed_point_cases()
             for n in _counted_fixed_point(count_cdf_kernel, game, fams)[0]]
    assert len(calls) <= 2.6 * len(count_solves)
    assert max(calls) <= 5


@pytest.mark.parametrize("horizon", [40, 400])
def test_warm_dynamics_makes_few_kernel_calls_per_solve(count_solves, count_cdf_kernel, horizon):
    # A learning round moves every payoff estimate, so the row's last kappa
    # alone is a poor start: 5.71 kernel calls per solve at horizon 40 and
    # 5.31 at 400 (a cold solve makes about 6.4).  The predicted start
    # kappa + p . (u_new - u_old) makes 3.47 and 3.15, and evaluating the
    # bisection midpoints in the certification call 2.27 and 2.06, the
    # final residual's cold solves included.
    calls = []
    for game, fams in _pareto_fixed_point_cases():
        cfg = RunConfig(horizon=horizon, schedule=StepSchedule.power(1.0, 0.6),
                        risk_families=fams, belief_families=fams, record_every=1)
        with count_cdf_kernel(*fams) as run_calls:
            run_dynamics(game, cfg)
        calls += run_calls
    assert len(count_solves) >= 16 * horizon
    assert len(calls) <= 2.5 * len(count_solves)


def test_residual_checks_family_count():
    with pytest.raises(ValueError, match="one family per player"):
        equilibrium_residual(matching_game(2), uniform_profile(2, 2), _exp(1.0, players=3))
    with pytest.raises(ValueError, match="action count"):
        equilibrium_residual(matching_game(2), uniform_profile(2, 2), _exp(1.0, n=3))


def test_analysis_rejects_non_families():
    game, start = matching_game(2), uniform_profile(2, 2)
    for call in (lambda fams: stability_check(game, fams),
                 lambda fams: equilibrium_residual(game, start, fams),
                 lambda fams: fixed_point_iterate(game, fams),
                 lambda fams: hessian_blocks(game, start, fams)):
        for fams in ([1, 2], [_exp(1.0)[0], "exponential"]):
            with pytest.raises(ValueError, match="MarginalFamily"):
                call(fams)


def test_fixed_point_on_random_games():
    rng = np.random.default_rng(31)
    for _ in range(5):
        game = random_game(2, 3, rng)
        result = fixed_point_iterate(game, _exp(2.0, n=3))
        assert result.converged
        assert result.residual < 1e-9


@st.composite
def _regularized_games(draw):
    """A random game, M in {2, 3} and N in 2..4, with one family for every player
    at gamma in [1.5, 8]: any of the four kinds, Pareto with q on both sides of 1."""
    m, n = draw(st.sampled_from([2, 3])), draw(st.integers(2, 4))
    game = random_game(m, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    gamma = draw(st.floats(1.5, 8.0))
    kind = draw(st.sampled_from(["exponential", "uniform", "pareto", "tabulated"]))
    if kind == "exponential":
        fam = ExponentialFamily(gamma, n_actions=n)
    elif kind == "uniform":
        fam = UniformFamily(gamma, n)
    elif kind == "pareto":
        fam = ParetoFamily(gamma, draw(st.floats(0.2, 0.95) | st.floats(1.05, 1.95)),
                           np.ones(n))
    else:
        ts = np.linspace(0.0, 1.0, 5)
        steps = st.lists(st.floats(0.2, 2.0), min_size=4, max_size=4)
        fam = TabulatedFamily([np.column_stack((ts, gamma * np.cumsum([0.0, *draw(steps)])))
                               for _ in range(n)])
    return game, (fam,) * m


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_regularized_games())
def test_a_certified_games_fixed_point_has_zero_residual(case):
    game, fams = case
    assume(stability_check(game, fams).all_passed)
    result = fixed_point_iterate(game, fams, tol=1e-12)
    assert result.converged
    assert result.residual <= 1e-10


def test_fixed_point_reports_nonconvergence():
    game = matching_game(2)
    start = StrategyProfile([[0.9, 0.1], [0.9, 0.1]])
    result = fixed_point_iterate(game, _exp(0.2), start=start, max_iter=2)
    assert not result.converged
    assert result.iterations == 2
    with pytest.raises(ValueError, match="damping"):
        fixed_point_iterate(game, _exp(1.0), damping=0.0)


def test_fixed_point_rejects_a_mismatched_start_profile():
    start = StrategyProfile([[0.5, 0.25, 0.25], [0.5, 0.25, 0.25]])
    with pytest.raises(ValueError, match="does not match game"):
        fixed_point_iterate(matching_game(2), _exp(1.0), start=start)


def test_fixed_point_accepts_a_start_profile():
    game = matching_game(2)
    fams = _exp(3.0)
    start = StrategyProfile([[0.9, 0.1], [0.9, 0.1]])
    result = fixed_point_iterate(game, fams, start=start)
    assert result.converged
    # symmetric game, strong regularization: same equilibrium from anywhere
    base = fixed_point_iterate(game, fams)
    np.testing.assert_allclose(result.profile.probs, base.profile.probs, atol=1e-8)


def test_residual_series_tracks_a_run():
    for players in (2, 3, 4):
        game = matching_game(3) if players == 2 else random_game(
            players, 3, np.random.default_rng(players))
        fams = _exp(6.0, n=3, players=players)
        cfg = RunConfig(horizon=500, schedule=StepSchedule.power(1.0, 0.6),
                        risk_families=fams, belief_families=fams, record_every=100)
        trace = run_dynamics(game, cfg)
        series = residual_series(game, trace, fams)
        assert series.shape == (trace.rounds.size,)
        assert series[-1] == trace.final_residual
        assert series[-1] <= series[0]
        # the stacked call gives every record the bits of its own residual
        want = [equilibrium_residual(game, StrategyProfile(p), fams) for p in trace.probabilities]
        assert series.tobytes() == np.array(want).tobytes()
        with pytest.raises(ValueError, match="shape"):
            residual_series(game, replace(trace, probabilities=trace.probabilities[..., :2]), fams)
        off = trace.probabilities.copy()
        off[2, 0] *= 1.01
        with pytest.raises(ValueError, match="sum to 1"):
            residual_series(game, replace(trace, probabilities=off), fams)


# ---------------------------------------------------------------------------
# Hessian pieces


def test_hessian_blocks_frozen_values():
    game = matching_game(2)
    prof = StrategyProfile([[0.25, 0.75], [0.5, 0.5]])
    blocks = hessian_blocks(game, prof, _exp(3.0))
    # diagonal: -gamma / p per action
    np.testing.assert_allclose(np.diagonal(blocks[0, 0]), [-12.0, -4.0], atol=1e-12)
    np.testing.assert_allclose(np.diagonal(blocks[1, 1]), [-6.0, -6.0], atol=1e-12)
    # symmetrized identity cross-payoffs
    np.testing.assert_array_equal(blocks[0, 1], np.eye(2))
    np.testing.assert_array_equal(blocks[1, 0], np.eye(2))


def test_hessian_is_exactly_symmetric():
    rng = np.random.default_rng(33)
    game = random_game(3, 3, rng)
    prof = StrategyProfile(rng.dirichlet(np.ones(3), size=3) * 0.94 + 0.02)
    fams = _exp(1.5, n=3, players=3)
    h = game_hessian(game, prof, fams)
    assert np.array_equal(h, h.T)
    # off-diagonal blocks are the symmetrized pairwise payoff matrices
    blocks = hessian_blocks(game, prof, fams)
    for j, k in itertools.permutations(range(3), 2):
        (r,) = {0, 1, 2} - {j, k}
        a_jk = pairwise_payoff_matrix(game, j, k, [prof.player(r)])
        a_kj = pairwise_payoff_matrix(game, k, j, [prof.player(r)])
        np.testing.assert_allclose(blocks[j, k], 0.5 * (a_jk + a_kj.T), rtol=0, atol=1e-12)


def test_hessian_raises_at_exponential_boundary():
    game = matching_game(2)
    vertex = StrategyProfile([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError):
        hessian_blocks(game, vertex, _exp(1.0))
    # bounded uniform marginals are fine at the vertex
    blocks = hessian_blocks(game, vertex,
                            tuple(UniformFamily(gamma=1.0, n_actions=2) for _ in range(2)))
    np.testing.assert_allclose(np.diagonal(blocks[0, 0]), [-4.0, -4.0])


def test_assemble_hessian_layout():
    blocks = np.arange(16, dtype=float).reshape(2, 2, 2, 2)
    full = assemble_hessian(blocks)
    assert full.shape == (4, 4)
    np.testing.assert_array_equal(full[:2, :2], blocks[0, 0])
    np.testing.assert_array_equal(full[:2, 2:], blocks[0, 1])
    np.testing.assert_array_equal(full[2:, :2], blocks[1, 0])


# ---------------------------------------------------------------------------
# stability condition


def _brute_force_coupling(game, j):
    """Half the summed max norms of A_jk + A_kj^T, one pure profile of the rest at a time."""
    m, n = game.num_players, game.num_actions
    total = 0.0
    for k in range(m):
        if k == j:
            continue
        rest = [r for r in range(m) if r not in (j, k)]
        best = 0.0
        for combo in itertools.product(range(n), repeat=len(rest)):
            sym = np.empty((n, n))
            for i, i2 in itertools.product(range(n), repeat=2):
                a = [0] * m
                for r, c in zip(rest, combo):
                    a[r] = c
                a[j], a[k] = i, i2
                sym[i, i2] = game.payoffs[j][tuple(a)] + game.payoffs[k][tuple(a)]
            best = max(best, np.linalg.norm(sym, 2))
        total += 0.5 * best
    return total


def test_coupling_bound_frozen_and_capped():
    assert coupling_bound(matching_game(2), 0) == pytest.approx(1.0, abs=1e-10)
    rng = np.random.default_rng(35)
    for players, actions in [(2, 2), (2, 4), (3, 2), (3, 3), (4, 3)]:
        game = random_game(players, actions, rng)
        for j in range(players):
            bound = coupling_bound(game, j)
            assert bound <= actions * (players - 1) + 1e-9
            assert bound == pytest.approx(_brute_force_coupling(game, j), rel=0, abs=1e-12)


def test_both_players_of_a_two_player_game_read_the_same_coupling():
    # the pair's two matrices are transposes: one orientation gives one set of bits
    rng = np.random.default_rng(5)
    for actions in (2, 3, 4, 5):
        for _ in range(50):
            game = random_game(2, actions, rng)
            assert coupling_bound(game, 0) == coupling_bound(game, 1)


def test_stability_check_passes_with_strong_regularization():
    report = stability_check(matching_game(2), _exp(3.0))
    assert report.all_passed
    assert report.diag_dominant
    assert report.negdef_on_tangent
    p0 = report.players[0]
    assert p0.curvature == pytest.approx(3.0)
    assert p0.coupling == pytest.approx(1.0, abs=1e-10)
    assert p0.curvature_conservative == pytest.approx(3.0)
    assert not p0.readings_differ
    # identical per-action densities: the grid agrees with the closed form
    assert p0.curvature_grid == pytest.approx(3.0, rel=1e-6)


def test_stability_check_fails_with_weak_regularization():
    report = stability_check(matching_game(2), _exp(0.5))
    assert not report.all_passed
    assert not report.diag_dominant        # floor 1 vs coupling 1 is not strict
    assert not report.players[0].passed
    doc = report.to_dict()
    assert doc["all_passed"] is False
    assert len(doc["players"]) == 2


def test_stability_check_uniform_curvature_is_exact():
    fams = tuple(UniformFamily(gamma=1.5, n_actions=2) for _ in range(2))
    report = stability_check(matching_game(2), fams)
    p0 = report.players[0]
    assert p0.curvature == pytest.approx(6.0)
    assert p0.curvature_grid == pytest.approx(6.0, abs=1e-12)
    assert report.all_passed


def test_stability_check_closed_form_for_pareto():
    fams = tuple(ParetoFamily(gamma=3.0, q=1.5, eta=np.array([0.2, 0.8]))
                 for _ in range(2))
    report = stability_check(matching_game(2), fams)
    p0 = report.players[0]
    # gamma q / min eta^(q - 1) and gamma q / max eta^(q - 1)
    assert p0.curvature == pytest.approx(4.5 / np.sqrt(0.2))
    assert p0.curvature_conservative == pytest.approx(4.5 / np.sqrt(0.8))
    assert p0.readings_differ  # per-action densities genuinely differ
    assert p0.curvature_conservative < p0.curvature
    assert p0.passed


def test_diagonal_dominance_rejects_degenerate_blocks():
    good = hessian_blocks(matching_game(2), uniform_profile(2, 2), _exp(3.0))
    assert diagonal_dominance_check(good)
    bad = good.copy()
    bad[0, 0] = np.array([[-3.0, 0.5], [0.5, -3.0]])  # not diagonal
    assert not diagonal_dominance_check(bad)
    sing = good.copy()
    sing[1, 1] = np.zeros((2, 2))
    assert not diagonal_dominance_check(sing)


def test_negdef_on_tangent_frozen_examples():
    # strong regularization: [[-2 I, I], [I, -2 I]] has tangent spectrum {-1, -3}
    h = np.block([[-2.0 * np.eye(2), np.eye(2)], [np.eye(2), -2.0 * np.eye(2)]])
    assert negdef_on_tangent_check(h, n_players=2)
    # pure coupling with no curvature is indefinite on the tangent space
    j = np.ones((2, 2))
    h_bad = np.block([[np.zeros((2, 2)), j], [j.T, np.zeros((2, 2))]])
    assert not negdef_on_tangent_check(h_bad, n_players=2)


def test_negdef_dimension_handling():
    h = -np.eye(6)
    assert negdef_on_tangent_check(h, n_players=2)
    assert negdef_on_tangent_check(h, n_players=3)
    with pytest.raises(ValueError, match="split"):
        negdef_on_tangent_check(-np.eye(6), n_players=4)
    with pytest.raises(ValueError, match="square"):
        negdef_on_tangent_check(np.zeros((2, 3)), n_players=2)


def test_negdef_answer_depends_on_the_player_split():
    # v is constant on each of 3 players' 2 actions, so h = -I + 2 v v^T is -I on the
    # 3 x 2 tangent space; read as 2 players x 3 actions, v's blocks (-1, -1, 2) and
    # (2, -1, -1) are zero-sum, and the eigenvalue 1 along v shows up.  No split is
    # guessed: a smallest-viable-split guess would read 2 x 3 here.
    v = np.array([-1.0, -1.0, 2.0, 2.0, -1.0, -1.0]) / np.sqrt(12.0)
    h = -np.eye(6) + 2.0 * np.outer(v, v)
    assert negdef_on_tangent_check(h, n_players=3)
    assert not negdef_on_tangent_check(h, n_players=2)
    with pytest.raises(TypeError):
        negdef_on_tangent_check(h)


# ---------------------------------------------------------------------------
# variational stability probe and concavity


def test_probe_confirms_stable_equilibrium():
    game = matching_game(2)
    fams = _exp(3.0)
    star = fixed_point_iterate(game, fams).profile
    probe = variational_stability_probe(game, star, fams, n_samples=2000, seed=0)
    assert probe.violations == 0
    assert probe.min_margin > 0.0
    assert probe.samples == 2000


def test_sampled_certificates_need_at_least_one_sample():
    # zero samples would certify vacuously: no violation, infinite margin
    fams = _exp(3.0)
    with pytest.raises(ValueError, match="at least one sample"):
        variational_stability_probe(matching_game(2), uniform_profile(2, 2), fams, n_samples=0)
    with pytest.raises(ValueError, match="at least one trial"):
        strong_concavity_check(fams[0], n_trials=0)


def test_probe_catches_unstable_candidate():
    # with weak regularization the uniform point is a fixed point, but the
    # coordination payoffs pull trajectories toward the corners
    game = matching_game(2)
    fams = _exp(0.1)
    probe = variational_stability_probe(game, uniform_profile(2, 2), fams,
                                        n_samples=2000, seed=0)
    assert probe.violations > 0
    assert probe.worst_value > 0.0


@pytest.mark.parametrize("fam", [
    ExponentialFamily(gamma=0.5, n_actions=3),
    UniformFamily(gamma=0.5, n_actions=3),
    ParetoFamily(gamma=0.5, q=1.5, eta=np.full(3, 1 / 3)),
])
def test_strong_concavity_verified(fam):
    report = strong_concavity_check(fam, n_trials=150, seed=2)
    assert report.verified
    assert report.worst_slack >= -1e-9
    assert report.modulus == pytest.approx(1.0 / report.lipschitz_constant)


def test_unbounded_pareto_is_never_certified():
    # q > 2: the density at the quantile grows without bound as p -> 0
    fam = ParetoFamily(gamma=3.0, q=2.5, eta=np.array([0.5, 0.5]))
    report = stability_check(matching_game(2), (ExponentialFamily(3.0, n_actions=2), fam))
    p1 = report.players[1]
    assert p1.curvature == 0.0 and p1.curvature_conservative == 0.0
    assert not p1.passed and not report.all_passed
    assert 0.0 < p1.curvature_grid < 1e-3  # the grid reading is only a cross-check
    concavity = strong_concavity_check(fam, n_trials=200)
    assert concavity.lipschitz_constant == np.inf
    assert concavity.modulus == 0.0
    assert not concavity.verified
    assert np.isnan(concavity.worst_slack)


def test_strong_concavity_modulus_closed_forms():
    assert strong_concavity_check(ExponentialFamily(gamma=0.5, n_actions=3),
                                  n_trials=10).modulus == pytest.approx(0.5)
    assert strong_concavity_check(UniformFamily(gamma=0.5, n_actions=3),
                                  n_trials=10).modulus == pytest.approx(3.0)

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from beliefgames.analysis import (
    CURVATURE_GRID,
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
    payoff_vector_rows,
    random_game,
    random_profile,
    uniform_profile,
)
from beliefgames.response import response_operator


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


def _damped_sweep(game, fams, damping=0.5, tol=1e-10, max_iter=10_000):
    """The damped response sweep P <- (1 - damping) P + damping R(U(P)) from the
    uniform profile, stopped once a sweep moves by at most ``tol``.

    Returns the profile rows, the sweeps taken and the residual from one more
    response call.  A reference for :func:`fixed_point_iterate`, and the warm
    solver's row sequence for the kernel-count tests.
    """
    respond = response_operator(fams)
    probs = uniform_profile(game.num_players, game.num_actions).probs
    for iterations in range(1, max_iter + 1):
        new = (1.0 - damping) * probs + damping * respond(payoff_vector_rows(game, None, probs))
        movement = np.abs(new - probs).max()
        probs = new
        if movement <= tol:
            break
    residual = float(np.abs(probs - respond(payoff_vector_rows(game, None, probs))).max())
    return probs, iterations, residual


def _reference_cross_blocks(game, probs):
    """(M, M, N, N) cross-payoff blocks at ``probs``: the pure-action profiles
    tiled from ``probs``, one contraction, and the diagonal blocks zeroed."""
    m, n = probs.shape
    profiles = np.tile(probs, (m, n, 1, 1))
    profiles[np.arange(m), :, np.arange(m)] = np.eye(n)
    cross = payoff_vector_rows(game, None, profiles).transpose(2, 0, 3, 1)
    cross[np.arange(m), np.arange(m)] = 0.0
    return cross


def _reference_newton_step(game, fams, probs, targets):
    """P + delta from (I - D C) delta = R(U(P)) - P, each player's response
    Jacobian D_j = diag(f) - f f^T / sum f built on its own; None when the
    system is singular or the step is not finite."""
    m, n = probs.shape
    cross = _reference_cross_blocks(game, probs)
    inside = targets > 0.0
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = np.stack([np.where(inside[j], fam._density(np.where(inside[j], targets[j], 1.0)), 0.0)
                      for j, fam in enumerate(fams)])
        jac = f[..., None] * np.eye(n) - (
            f[..., :, None] * f[..., None, :] / f.sum(axis=-1)[:, None, None])
        jac = np.matmul(jac[:, None], cross)
    system = np.eye(m * n) - assemble_hessian(jac)
    if not np.isfinite(system).all():
        return None
    try:
        delta = np.linalg.solve(system, (targets - probs).ravel())
    except np.linalg.LinAlgError:
        return None
    new = np.maximum(probs + delta.reshape(m, n), 0.0)
    totals = new.sum(axis=-1, keepdims=True)
    if not (np.isfinite(new).all() and (totals > 0.0).all()):
        return None
    return new / totals


def _reference_fixed_point(game, fams, damping=0.5, tol=1e-10, max_iter=10_000, start=None):
    """The guarded Newton iteration with every step built from scratch: a
    reference for :func:`fixed_point_iterate`, which binds what its steps
    reuse.  Returns (profile rows, converged, iterations, movement, residual)."""
    respond = response_operator(fams)

    def evaluate(probs):
        targets = respond(payoff_vector_rows(game, None, probs))
        return targets, float(np.abs(probs - targets).max())

    probs = (uniform_profile(game.num_players, game.num_actions) if start is None
             else start).probs
    targets, residual = evaluate(probs)
    movement, iterations = 0.0, 0
    while residual > tol and iterations < max_iter:
        iterations += 1
        new = _reference_newton_step(game, fams, probs, targets)
        if new is not None:
            new_targets, new_residual = evaluate(new)
        if new is None or not new_residual < residual:
            new = (1.0 - damping) * probs + damping * targets
            new_targets, new_residual = evaluate(new)
        movement = float(np.abs(new - probs).max())
        probs, targets, residual = new, new_targets, new_residual
    return probs, residual <= tol, iterations, movement, residual


def _assert_reference_bits(game, fams, **kwargs):
    """Every field of ``fixed_point_iterate``'s result equals the reference's, bit for bit."""
    result = fixed_point_iterate(game, fams, **kwargs)
    probs, converged, iterations, movement, residual = _reference_fixed_point(game, fams, **kwargs)
    assert result.profile.probs.tobytes() == probs.tobytes()
    assert (result.converged, result.iterations) == (converged, iterations)
    assert np.array([result.movement, result.residual]).tobytes() == (
        np.array([movement, residual]).tobytes())
    return result


def _counted(count_cdf_kernel, solve, game, fams):
    """(rows per CDF kernel call, result) of ``solve(game, fams)``."""
    with count_cdf_kernel(*fams) as calls:
        return calls, solve(game, fams)


def test_warm_fixed_point_evaluates_a_quarter_fewer_cdfs(monkeypatch, count_cdf_kernel):
    # each bound solver restarts Newton from its row's predicted kappa; a cold
    # solver per call must reach the same bits on the damped sweep's rows
    import beliefgames.response as response

    cases = _pareto_fixed_point_cases()
    warm = [_counted(count_cdf_kernel, _damped_sweep, game, fams) for game, fams in cases]

    def cold_solver(fam):
        # the players' families differ only in eta, so one stacked family answers
        # for both: row k of its (..., M, N) rows is player k % M's
        members = fam._members

        def solve(u, out=None):
            out = np.empty(u.shape) if out is None else out
            rows, solved = u.reshape(-1, u.shape[-1]), out.reshape(-1, u.shape[-1])
            for k, row in enumerate(rows):
                solved[k] = response._bisection_response(members[k % len(members)], row)[0]
            return out

        return solve

    monkeypatch.setattr(response, "response_solver", cold_solver)
    cold = [_counted(count_cdf_kernel, _damped_sweep, game, fams) for game, fams in cases]
    for (_, (a, a_iters, a_res)), (_, (b, b_iters, b_res)) in zip(warm, cold):
        assert a.tobytes() == b.tobytes()
        assert (a_iters, a_res) == (b_iters, b_res)
        assert a_res <= 1e-10
    warm_rows, cold_rows = (sum(sum(calls) for calls, _ in runs) for runs in (warm, cold))
    assert warm_rows <= 0.75 * cold_rows


def test_warm_fixed_point_makes_few_kernel_calls_per_solve(count_solves, count_cdf_kernel):
    # The first certification points on both sides of the root share one
    # kernel call with the bisection midpoints they would leave to evaluate:
    # the first inside them and the first inside each half after it, so at
    # most 5 rows.  On the damped sweep's 522 warm solves that is 1.68 kernel
    # calls and 5.62 rows per solve (2.34 and 6.23 when every warm solve took a
    # Newton step first); with the pair alone it was 3.51 calls and 4.48 rows.
    calls = [n for game, fams in _pareto_fixed_point_cases()
             for n in _counted(count_cdf_kernel, _damped_sweep, game, fams)[0]]
    assert len(calls) <= 2.6 * len(count_solves)
    assert max(calls) <= 5


def test_newton_fixed_point_evaluates_a_seventh_of_the_sweeps_cdfs(count_cdf_kernel):
    # two Newton steps per game against about 30 damped sweeps
    newton = sweep = 0
    for game, fams in _pareto_fixed_point_cases():
        calls, result = _counted(count_cdf_kernel, fixed_point_iterate, game, fams)
        assert result.converged and result.residual <= 1e-10
        newton += sum(calls)
        sweep += sum(_counted(count_cdf_kernel, _damped_sweep, game, fams)[0])
    assert newton <= 0.15 * sweep


@pytest.mark.parametrize("horizon", [40, 400])
def test_warm_dynamics_makes_few_kernel_calls_per_solve(count_solves, count_cdf_kernel, horizon):
    # A learning round moves every payoff estimate, so the row's last kappa
    # alone is a poor start: 5.71 kernel calls per solve at horizon 40 and
    # 5.31 at 400 (a cold solve makes about 6.4).  The predicted start
    # kappa + p . (u_new - u_old) made 3.47 and 3.15, and evaluating the
    # bisection midpoints in the certification call 2.27 and 2.06.  The start
    # kappa + f / sum f . (u_new - u_old), certified in one call where the last
    # start was close, makes 1.68 and 1.35, the final residual's cold solves
    # included.
    calls = []
    for game, fams in _pareto_fixed_point_cases():
        cfg = RunConfig(horizon=horizon, schedule=StepSchedule.power(1.0, 0.6),
                        risk_families=fams, belief_families=fams, record_every=1)
        with count_cdf_kernel(*fams) as run_calls:
            run_dynamics(game, cfg)
        calls += run_calls
    assert len(count_solves) >= 16 * horizon
    assert len(calls) <= 2.5 * len(count_solves)


@pytest.mark.parametrize("horizon, most", [(40, 1.8), (400, 1.5)])
def test_warm_dynamics_certifies_most_predicted_starts_in_one_kernel_call(
        count_solves, count_cdf_kernel, horizon, most):
    # About three in four warm solves take the one-call path: their predicted
    # kappa and the midpoints around it in one kernel call, no Newton step
    calls = []
    for game, fams in _pareto_fixed_point_cases():
        cfg = RunConfig(horizon=horizon, schedule=StepSchedule.power(1.0, 0.6),
                        risk_families=fams, belief_families=fams, record_every=1)
        with count_cdf_kernel(*fams) as run_calls:
            run_dynamics(game, cfg)
        calls += run_calls
    assert len(count_solves) >= 16 * horizon
    assert len(calls) <= most * len(count_solves)
    assert max(calls) <= 5


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_regularized_games())
def test_newton_fixed_point_matches_a_damped_sweep(case):
    # Both stop under the same tol, Newton at its first iterate there; so its
    # residual is not always below the sweep's (9.2e-11 against 6.5e-11 on one
    # 2x2 Pareto game among these examples), but it gets there in far fewer iterations
    game, fams = case
    assume(stability_check(game, fams).all_passed)
    result = fixed_point_iterate(game, fams)
    probs, iterations, _ = _damped_sweep(game, fams)
    assert result.converged and result.residual <= 1e-10
    assert np.abs(result.profile.probs - probs).max() <= 1e-9
    assert 4 * result.iterations <= iterations


def test_guarded_newton_converges_on_a_weakly_regularized_game():
    # Unguarded, Newton's steps stall here far from the root; the guard keeps
    # only steps that lower the residual and sweeps in place of the others
    game = random_game(2, 3, np.random.default_rng(39))
    for fam in (ExponentialFamily(0.1, n_actions=3), ParetoFamily(0.1, 2.2, np.ones(3))):
        fams = (fam, fam)
        assert not stability_check(game, fams).all_passed
        result = fixed_point_iterate(game, fams)
        assert result.converged and result.residual <= 1e-10


def test_a_newton_step_whose_jacobian_overflows_is_rejected_silently():
    # gamma = 1e-160: f = p / gamma reaches 1e154, and f f^T overflows; the step
    # is rejected for a sweep, and the product with C raises no warning
    game = random_game(2, 3, np.random.default_rng(0))
    fam = ExponentialFamily(1e-160, np.ones(3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fixed_point_iterate(game, (fam, fam), max_iter=20)
    assert result.iterations == 20 and np.isfinite(result.residual)


@st.composite
def _fixed_point_cases(draw):
    """A :func:`_regularized_games` case; or its game with per-player mixed kinds
    (exponential beside Pareto) or an eta-stacked Pareto group; with or
    without a random interior start."""
    game, fams = draw(_regularized_games())
    m, n = game.num_players, game.num_actions
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gamma, q = draw(st.floats(1.5, 8.0)), draw(st.floats(0.2, 0.95) | st.floats(1.05, 1.95))
    variant = draw(st.sampled_from(["shared", "mixed", "stacked"]))
    if variant == "mixed":
        fams = tuple(ExponentialFamily(gamma, rng.uniform(0.5, 2.0, n)) if j % 2 == 0
                     else ParetoFamily(gamma, q, rng.uniform(0.5, 2.0, n)) for j in range(m))
    elif variant == "stacked":
        fams = tuple(ParetoFamily(gamma, q, rng.uniform(0.5, 2.0, n)) for _ in range(m))
    start = random_profile(m, n, rng, floor=0.01) if draw(st.booleans()) else None
    return game, fams, start


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fixed_point_cases())
def test_bound_fixed_point_has_the_reference_bits(case):
    # the bound solve makes the reference step's array operations on the same
    # operand layouts, so every field keeps its bits, certified game or not
    game, fams, start = case
    _assert_reference_bits(game, fams, start=start)


@pytest.mark.parametrize("seed, fam, max_iter", [
    (39, ExponentialFamily(0.1, n_actions=3), 10_000),  # guarded: Newton steps are rejected
    (39, ParetoFamily(0.1, 2.2, np.ones(3)), 10_000),
    (0, ExponentialFamily(1e-160, np.ones(3)), 20),  # f f^T overflows: every step is a sweep
])
def test_guarded_and_overflowing_solves_have_the_reference_bits(seed, fam, max_iter):
    game = random_game(2, 3, np.random.default_rng(seed))
    _assert_reference_bits(game, (fam, fam), max_iter=max_iter)


def _criterion_07_games(count=4):
    """The acceptance criterion-07 shape: random 2x3 games, exponential gamma = 6."""
    rng = np.random.default_rng(107)
    fams = tuple(ExponentialFamily(gamma=6.0, n_actions=3) for _ in range(2))
    return [(random_game(2, 3, rng), fams) for _ in range(count)]


def _counting(monkeypatch, owner, name, counts, key, when=lambda *a, **k: True):
    """Replace ``owner.name`` by a wrapper that counts its calls under ``key``."""
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key] += bool(when(*args, **kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_a_two_player_solve_builds_its_cross_blocks_once(monkeypatch):
    import beliefgames.analysis as analysis

    counts = dict.fromkeys(["blocks", "solve", "density"], 0)
    _counting(monkeypatch, analysis, "_cross_blocks", counts, "blocks")
    _counting(monkeypatch, np.linalg, "solve", counts, "solve")
    games = _criterion_07_games()
    for fam in games[0][1]:  # equal families form one group: one kernel call a step
        _counting(monkeypatch, fam, "_density", counts, "density")
    for game, fams in games:
        counts.update(dict.fromkeys(counts, 0))
        result = fixed_point_iterate(game, fams)
        assert result.converged and result.iterations >= 2  # one Newton system per iteration
        assert counts == {"blocks": 1, "solve": result.iterations, "density": result.iterations}


def test_a_three_player_solve_makes_one_contraction_a_step_and_no_tile(monkeypatch):
    import beliefgames.analysis as analysis

    counts = dict.fromkeys(["stacks", "solve", "tile"], 0)
    _counting(monkeypatch, analysis, "payoff_vector_rows", counts, "stacks",
              lambda game, player, rows: rows.ndim == 4)
    _counting(monkeypatch, np.linalg, "solve", counts, "solve")
    _counting(monkeypatch, np, "tile", counts, "tile")
    game = random_game(3, 4, np.random.default_rng(3))
    result = fixed_point_iterate(game, _exp(1.5, n=4, players=3))
    assert result.converged and counts["solve"] >= 2
    assert counts == {"stacks": counts["solve"], "solve": counts["solve"], "tile": 0}


def test_fixed_point_stops_at_once_on_a_fixed_point():
    game = matching_game(2)
    fams = _exp(3.0)
    solved = fixed_point_iterate(game, fams)
    again = fixed_point_iterate(game, fams, start=solved.profile)
    assert (again.iterations, again.movement, again.converged) == (0, 0.0, True)
    assert again.profile.probs.tobytes() == solved.profile.probs.tobytes()
    assert again.residual == solved.residual


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
    # the grid agrees with the closed form
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
    # gamma q / max eta^(q - 1): the worst action's density sets the curvature
    assert p0.curvature == pytest.approx(4.5 / np.sqrt(0.8))
    assert p0.passed


def _stability_families(kind, m, n):
    """``m`` players' families: one shared object, distinct exponential objects
    that differ in gamma, or Pareto, uniform and tabulated families, players 0
    and 2 sharing one Pareto object."""
    if kind == "shared":
        return (ExponentialFamily(2.0, n_actions=n),) * m
    if kind == "distinct":
        return tuple(ExponentialFamily(1.0 + j, n_actions=n) for j in range(m))
    ts = np.linspace(0.0, 1.0, 4)
    kinds = (ParetoFamily(1.5, 0.6, np.linspace(0.5, 2.0, n)), UniformFamily(0.8, n),
             TabulatedFamily([np.column_stack((ts, [0.0, 1.0, 1.5, 3.0]))] * n))
    return tuple(kinds[j % 2] if j < 3 else kinds[2] for j in range(m))


def _assembled_stability(game, fams):
    """A stability report's dict assembled from per-player public calls; the
    grid curvature read off the p-grid as ``PlayerStability`` describes it."""
    p = np.linspace(1e-9, 1.0 - 1e-9, CURVATURE_GRID)
    players = []
    for j, fam in enumerate(fams):
        dens = fam.density_vector(np.repeat(p[:, None], fam.n_actions, axis=1))
        with np.errstate(divide="ignore", over="ignore"):
            grid = float(1.0 / dens.max())
        curvature, coupling = 1.0 / float(fam.lipschitz_constant()), coupling_bound(game, j)
        players.append({"player": j, "curvature": curvature, "curvature_grid": grid,
                        "coupling": coupling, "passed": curvature > coupling})
    blocks = hessian_blocks(game, uniform_profile(game.num_players, game.num_actions), fams)
    return {"all_passed": all(p["passed"] for p in players),
            "diag_dominant": diagonal_dominance_check(blocks),
            "negdef_on_tangent": negdef_on_tangent_check(assemble_hessian(blocks),
                                                         n_players=game.num_players),
            "players": players}


@pytest.mark.parametrize("kind", ["shared", "distinct", "mixed"])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_stability_report_equals_its_per_player_assembly(kind, m):
    # one norm batch per pair and one grid per family object keep every bit
    game = random_game(m, 3, np.random.default_rng(10 + m))
    fams = _stability_families(kind, m, 3)
    report = stability_check(game, fams).to_dict()
    assert report == _assembled_stability(game, fams)
    assert len({p["curvature_grid"] for p in report["players"]}) == len(set(map(id, fams)))


@pytest.mark.parametrize("kind, grids", [("shared", 1), ("distinct", 3), ("mixed", 2)])
def test_stability_check_takes_each_pair_and_each_family_object_once(monkeypatch, kind, grids):
    import beliefgames.analysis as analysis

    counts = {"batches": 0, "norms": 0, "grids": 0}
    _counting(monkeypatch, np.linalg, "norm", counts, "batches", lambda *a, **k: "axis" in k)
    _counting(monkeypatch, np.linalg, "norm", counts, "norms")
    _counting(monkeypatch, analysis, "_curvature_grid", counts, "grids")
    stability_check(random_game(3, 4, np.random.default_rng(5)), _stability_families(kind, 3, 4))
    # one batch per pair, and one for every off-diagonal block of the dominance check
    assert counts == {"batches": 4, "norms": 4, "grids": grids}


def _near_pure(players, actions, k):
    """Every player puts 0.9 on action k and spreads the rest evenly."""
    row = np.full(actions, 0.1 / (actions - 1))
    row[k] = 0.9
    return StrategyProfile(np.tile(row, (players, 1)))


def test_a_coordination_game_with_three_equilibria_is_not_certified():
    # the best action's density would give 2.012 > 1, which bounds nothing; the worst
    # action's gives 0.45
    fam = ParetoFamily(gamma=0.3, q=1.5, eta=[0.05, 1.0, 1.0])
    game = matching_game(3)
    report = stability_check(game, (fam, fam))
    for player in report.players:
        assert player.curvature == pytest.approx(0.45)
        assert player.coupling == pytest.approx(1.0)
        assert not player.passed
    assert not report.all_passed
    assert strong_concavity_check(fam, n_trials=10).modulus == report.players[0].curvature
    # a pass would be false: three starts reach three distinct fixed points
    ends = []
    for k in range(3):
        result = fixed_point_iterate(game, (fam, fam), start=_near_pure(2, 3, k))
        assert result.converged
        ends.append(result.profile.probs)
    assert all(np.abs(a - b).max() > 0.4 for a, b in itertools.combinations(ends, 2))


def _zero_sum_basis(n):
    """Orthonormal columns spanning {d : sum(d) = 0}, from the SVD of a row of ones."""
    return np.linalg.svd(np.ones((1, n)))[2][1:].T


@st.composite
def _unequal_families(draw):
    """A Pareto or strictly increasing tabulated family of 2-4 actions whose
    per-action parameters are drawn independently, so that they differ."""
    n = draw(st.integers(2, 4))
    unit = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        q = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 2.0), st.floats(2.05, 3.0)))
        return ParetoFamily(0.1 + 5.0 * draw(unit), q, [0.05 + 3.0 * draw(unit) for _ in range(n)])
    tables = []
    for _ in range(n):
        knots = sorted(set(draw(st.lists(st.integers(1, 99), max_size=3))))
        ts = [0.0, *(k / 100.0 for k in knots), 1.0]
        steps = [0.05 + 4.0 * draw(unit) for _ in ts]
        tables.append(np.column_stack((ts, np.cumsum(steps) - 1.0)))
    return TabulatedFamily(tables)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_unequal_families(), st.integers(0, 2**32 - 1))
def test_reported_curvature_bounds_the_tangent_concavity(fam, seed):
    # on the simplex's tangent space the regularizer's Hessian is -diag(1 / f_i(p_i)):
    # the curvature may not exceed its smallest eigenvalue there at any profile
    n = fam.n_actions
    curvature = stability_check(matching_game(n), (fam, fam)).players[0].curvature
    assert strong_concavity_check(fam, n_trials=1).modulus == curvature
    rows = np.random.default_rng(seed).dirichlet(np.ones(n), size=400)
    weights = 1.0 / fam.density_vector(rows)
    basis = _zero_sum_basis(n)
    tangent = np.linalg.eigvalsh(basis.T @ (weights[:, :, None] * basis)).min(axis=-1)
    # eigvalsh is accurate to a few ulps of the matrix norm, the largest weight
    assert np.all(curvature <= tangent + 1e-12 * weights.max(axis=-1))


@st.composite
def _games_and_families(draw):
    """A random 2- or 3-player game of 2-3 actions, one random family per player."""
    m, n = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    game = random_game(m, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    unit = st.floats(0.0, 1.0)
    fams = []
    for _ in range(m):
        kind = draw(st.sampled_from(("exponential", "uniform", "pareto")))
        gamma = 1.0 + 8.0 * draw(unit)
        if kind == "exponential":
            fams.append(ExponentialFamily(gamma, [0.1 + 2.0 * draw(unit) for _ in range(n)]))
        elif kind == "uniform":
            fams.append(UniformFamily(gamma, n))
        else:
            fams.append(ParetoFamily(gamma, draw(st.floats(1.05, 2.0)),
                                     [0.1 + 2.0 * draw(unit) for _ in range(n)]))
    return game, tuple(fams)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_games_and_families())
def test_a_certified_game_has_one_equilibrium(case):
    # wherever every player passes, fixed points from the uniform start and from
    # a start near each pure profile agree
    game, fams = case
    if not stability_check(game, fams).all_passed:
        return
    m, n = game.num_players, game.num_actions
    starts = [uniform_profile(m, n), *(_near_pure(m, n, k) for k in range(n))]
    ends = []
    for start in starts:
        result = fixed_point_iterate(game, fams, start=start)
        assert result.converged
        ends.append(result.profile.probs)
    assert all(np.abs(end - ends[0]).max() <= 1e-8 for end in ends[1:])


def test_diagonal_dominance_rejects_degenerate_blocks():
    good = hessian_blocks(matching_game(2), uniform_profile(2, 2), _exp(3.0))
    assert diagonal_dominance_check(good)
    bad = good.copy()
    bad[0, 0] = np.array([[-3.0, 0.5], [0.5, -3.0]])  # not diagonal
    assert not diagonal_dominance_check(bad)
    sing = good.copy()
    sing[1, 1] = np.zeros((2, 2))
    assert not diagonal_dominance_check(sing)


def _reference_diagonal_dominance(blocks: np.ndarray) -> bool:
    """The per-block loop: one spectral norm per off-diagonal block, summed per row."""
    m = blocks.shape[0]
    for j in range(m):
        own = blocks[j, j]
        if not np.allclose(own, np.diag(np.diagonal(own)), atol=1e-12):
            return False
        floor = float(np.abs(np.diagonal(own)).min())
        if floor == 0.0 or not np.isfinite(floor):
            return False
        off = sum(float(np.linalg.norm(blocks[j, k], 2)) for k in range(m) if k != j)
        if not floor > off:
            return False
    return True


@pytest.mark.parametrize("m", [2, 3, 4])
def test_diagonal_dominance_equals_the_per_block_loop(m):
    # one batched norm call, each row summed in column order: the loop's bits,
    # so a floor at the loop's exact sum fails and one float above it passes
    rng, verdicts = np.random.default_rng(90 + m), []
    for trial in range(80):
        n = int(rng.integers(2, 5))
        blocks = rng.normal(0.0, 1.0, (m, m, n, n))
        sums = [sum(float(np.linalg.norm(blocks[j, k], 2)) for k in range(m) if k != j)
                for j in range(m)]
        floors = {0: [np.nextafter(total, np.inf) for total in sums],
                  1: sums[:-1] + [np.nextafter(sums[-1], np.inf)]}.get(
                      trial % 5, [total * rng.uniform(0.9, 1.5) for total in sums])
        for j, floor in enumerate(floors):
            blocks[j, j] = -floor * np.eye(n)
        if trial % 5 == 2:
            blocks[m - 1, m - 1, 0, 1] = 1e-6  # a non-diagonal own block
        if trial % 5 == 3:
            blocks[0, 0, 0, 0] = 0.0  # a zero on the diagonal
        want = _reference_diagonal_dominance(blocks)
        assert diagonal_dominance_check(blocks) is want
        verdicts.append(want)
        assert want is (trial % 5 == 0 or (trial % 5 == 4 and all(
            floor > total for floor, total in zip(floors, sums))))
    assert True in verdicts and False in verdicts


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


def _per_trial_concavity(fam, n_trials, seed):
    """The concavity check as a loop that takes each trial's objective in its own
    calls, one row at a time: (worst slack, verified)."""
    modulus = 1.0 / fam.lipschitz_constant()
    rng = np.random.default_rng(seed)
    n = fam.n_actions
    worst, ok = np.inf, True
    for _ in range(n_trials):
        u = rng.random(n)
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        alpha = rng.uniform(0.05, 0.95)

        def g(x):
            return float(np.dot(x, u)) + fam.regularizer_terms(x)

        values = g(alpha * p + (1.0 - alpha) * q), g(p), g(q)
        slack = values[0] - (alpha * values[1] + (1.0 - alpha) * values[2]
                             + 0.5 * modulus * alpha * (1.0 - alpha) * float(np.sum((p - q) ** 2)))
        worst = min(worst, slack)
        # roundoff: 64 ulps of the largest magnitude the trial compares
        ok = ok and not slack < -64.0 * np.finfo(float).eps * max(*map(abs, values), modulus)
    return worst, ok


@pytest.mark.parametrize("fam", [
    ExponentialFamily(gamma=0.7, eta=[0.3, 1.0, 2.5, 0.9, 1.4]),
    UniformFamily(gamma=1.3, n_actions=9),
    ParetoFamily(gamma=2.0, q=0.6, eta=[0.5, 1.5, 0.8]),
    ParetoFamily(gamma=0.9, q=1.7, eta=[0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4]),
    TabulatedFamily([[[0.0, -1.0], [0.3, 0.2], [0.8, 0.5], [1.0, 2.0]],
                     [[0.0, 0.0], [0.5, 0.1], [1.0, 3.0]],
                     [[0.0, -2.0], [0.1, -1.0], [0.2, 0.0], [0.9, 0.4], [1.0, 1.0]],
                     [[0.0, 0.5], [1.0, 1.5]]]),
])
def test_stacked_concavity_check_has_the_bits_of_the_per_trial_loop(fam):
    report = strong_concavity_check(fam, n_trials=300, seed=11)
    worst, ok = _per_trial_concavity(fam, 300, 11)
    assert np.float64(report.worst_slack).tobytes() == np.float64(worst).tobytes()
    assert report.verified is ok


@st.composite
def _scaled_families(draw):
    """A family of any kind with N in 1..6 and its scale gamma from 1e-3 to 1e14.

    Pareto q lies below 1, within 1e-3 of 1 or in (1, 2], where the slope
    bound is finite; a table's values are gamma times steps of order one.
    """
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["exponential", "uniform", "pareto", "tabulated"]))
    gamma = 10.0 ** draw(st.floats(-3.0, 14.0))
    weight = st.floats(-3.0, 3.0).map(lambda k: 10.0 ** k)
    if kind == "exponential":
        return ExponentialFamily(gamma, eta=[draw(weight) for _ in range(n)])
    if kind == "uniform":
        return UniformFamily(gamma, n)
    if kind == "pareto":
        q = draw(st.one_of(st.floats(0.05, 0.999), st.floats(0.999, 1.001).filter(lambda q: q != 1.0),
                           st.floats(1.001, 2.0)))
        return ParetoFamily(gamma, q, [draw(weight) for _ in range(n)])
    tables = []
    for _ in range(n):
        ts = [0.0, *sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3)))), 1.0]
        steps = [draw(st.floats(0.05, 2.0)) for _ in ts]
        tables.append(np.column_stack((ts, gamma * (np.cumsum(steps) - 1.0))))
    return TabulatedFamily(tables)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_scaled_families(), st.integers(0, 2 ** 32 - 1))
def test_the_sampled_concavity_check_passes_wherever_the_slope_bound_holds(fam, seed):
    # 1 / L is a proven modulus, so only roundoff can push a trial's slack below
    # 0; the exactly quadratic uniform regularizer has a true slack of 0
    report = strong_concavity_check(fam, n_trials=200, seed=seed)
    assert report.modulus > 0.0
    assert report.verified, (fam.to_dict(), report)


def test_the_sampled_concavity_check_fails_a_modulus_a_billionth_too_large():
    # a slope bound 1e-9 below the true one claims a modulus the regularizer
    # does not have: the uniform regularizer's slack is then about -1e-9 of it
    fam = UniformFamily(1e8, 3)
    fam.lipschitz_constant = lambda: (1.0 - 1e-9) / (2.0 * 1e8 * 3)
    report = strong_concavity_check(fam, n_trials=200)
    assert not report.verified and report.worst_slack < -1e-2


def test_unbounded_pareto_is_never_certified():
    # q > 2: the density at the quantile grows without bound as p -> 0
    fam = ParetoFamily(gamma=3.0, q=2.5, eta=np.array([0.5, 0.5]))
    report = stability_check(matching_game(2), (ExponentialFamily(3.0, n_actions=2), fam))
    p1 = report.players[1]
    assert p1.curvature == 0.0
    assert not p1.passed and not report.all_passed
    assert 0.0 < p1.curvature_grid < 1e-3  # the grid reading is only a cross-check
    concavity = strong_concavity_check(fam, n_trials=200)
    assert concavity.lipschitz_constant == np.inf
    assert concavity.modulus == 0.0
    assert not concavity.verified
    assert np.isnan(concavity.worst_slack)


@pytest.mark.parametrize("fam", [
    UniformFamily(1e308, 2),
    ParetoFamily(1e300, 0.5, [1e300, 1e300]),
    ExponentialFamily(np.finfo(float).max, n_actions=2),
])
def test_a_slope_bound_that_underflows_is_rounded_up(fam):
    # each closed form reads 0.0 or a subnormal in floats; 0.0 bounds no slope, and
    # the reciprocal of a subnormal need not be finite
    lipschitz = fam.lipschitz_constant()
    assert lipschitz == np.finfo(float).tiny
    report = stability_check(matching_game(2), (fam, fam))
    concavity = strong_concavity_check(fam, n_trials=20)
    for player in report.players:
        assert player.curvature == concavity.modulus == 1.0 / lipschitz
        assert player.passed
    # the Pareto regularizer, about 2e450 at every profile, is past the float
    # range: the sampled check cannot verify it
    assert concavity.verified is not isinstance(fam, ParetoFamily)


def test_strong_concavity_modulus_closed_forms():
    assert strong_concavity_check(ExponentialFamily(gamma=0.5, n_actions=3),
                                  n_trials=10).modulus == pytest.approx(0.5)
    assert strong_concavity_check(UniformFamily(gamma=0.5, n_actions=3),
                                  n_trials=10).modulus == pytest.approx(3.0)

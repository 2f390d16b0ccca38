import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from beliefgames.families import (
    ExponentialFamily,
    ParetoFamily,
    TabulatedFamily,
    UniformFamily,
)
from beliefgames.games import matching_game, uniform_profile
from beliefgames.oracles import (
    bisection_response,
    finite_difference_gradient,
    project_simplex,
    quadrature_regularizer,
)
from beliefgames.response import (
    _bisection_response,
    _family_groups,
    optimistic_value,
    quantal_response,
    response_operator,
    response_probabilities,
    response_solver,
    smooth_payoff,
    smooth_payoff_gradient,
    sparsemax,
    weighted_softmax,
)


def test_weighted_softmax_frozen_value():
    p = weighted_softmax(np.array([1.0, 0.0]), np.ones(2), gamma=1.0)
    assert p[0] == pytest.approx(0.7310585786300049, abs=1e-15)
    assert p.sum() == pytest.approx(1.0, abs=1e-15)


def test_weighted_softmax_handles_extreme_inputs():
    p = weighted_softmax(np.array([1000.0, 0.0]), np.ones(2), gamma=1.0)
    assert p[0] == 1.0 and p[1] == 0.0  # underflow becomes an exact zero
    with pytest.raises(ValueError, match="gamma"):
        weighted_softmax(np.ones(2), np.ones(2), gamma=0.0)


@pytest.mark.parametrize("u, eta, gamma, match", [
    ([0.0, np.nan], [1.0, 1.0], 1.0, "finite payoffs"),
    ([0.0, np.inf], [1.0, 1.0], 1.0, "finite payoffs"),
    ([0.0, 1.0], [1.0, 1.0], np.nan, "gamma"),
    ([0.0, 1.0], [1.0, 1.0], np.inf, "gamma"),
    ([0.0, 1.0], [1.0, 1.0], -1.0, "gamma"),
    ([0.0, 1.0], [1.0, 0.0], 1.0, "eta"),
    ([0.0, 1.0], [1.0, np.inf], 1.0, "eta"),
    ([0.0, 1.0], [1.0, np.nan], 1.0, "eta"),
    ([0.0, 1.0], [1.0, 1.0, 1.0], 1.0, "eta"),
    ([0.0, 1.0], 1.0, 1.0, "eta"),
    (0.0, [1.0], 1.0, "last axis"),
], ids=["nan-u", "inf-u", "nan-gamma", "inf-gamma", "negative-gamma", "zero-eta",
        "inf-eta", "nan-eta", "eta-length", "scalar-eta", "scalar-u"])
def test_weighted_softmax_rejects_bad_input(u, eta, gamma, match):
    # a NaN used to come out as NaN probabilities, and gamma = inf as the uniform vector
    with pytest.raises(ValueError, match=match):
        weighted_softmax(np.asarray(u), np.asarray(eta), gamma)


def test_weighted_softmax_prior_weights_tilt_the_outcome():
    p = weighted_softmax(np.zeros(2), np.array([3.0, 1.0]), gamma=1.0)
    np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-15)


def test_sparsemax_frozen_values():
    np.testing.assert_array_equal(sparsemax(np.array([4.0, 0.0])), [1.0, 0.0])
    np.testing.assert_allclose(sparsemax(np.zeros(2)), [0.5, 0.5], atol=1e-15)
    # one dominated action dropped, the rest shared
    p = sparsemax(np.array([3.0, 3.0, -9.0]))
    np.testing.assert_allclose(p, [0.5, 0.5, 0.0], atol=1e-15)


def test_sparsemax_is_simplex_projection_of_scaled_input():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        u = rng.normal(0.0, 3.0, size=n)
        gap = np.abs(sparsemax(u) - project_simplex(u / (2.0 * n))).max()
        assert gap < 1e-12


def test_sparsemax_permutation_equivariance():
    rng = np.random.default_rng(4)
    u = rng.normal(0.0, 2.0, size=6)
    perm = rng.permutation(6)
    np.testing.assert_array_equal(sparsemax(u)[perm], sparsemax(u[perm]))


def _family_of(kind, gamma, q, per_action):
    """A family of ``kind`` with one parameter (eta or a table) per action."""
    if kind == "exponential":
        return ExponentialFamily(gamma, eta=per_action)
    if kind == "uniform":
        return UniformFamily(gamma, len(per_action))
    if kind == "pareto":
        return ParetoFamily(gamma, q, per_action)
    return TabulatedFamily(per_action)


@st.composite
def _permuted_families(draw):
    """(family, the family with its per-action parameters permuted, u, permutation)."""
    n = draw(st.integers(2, 6))
    perm = list(draw(st.permutations(range(n))))
    kind = draw(st.sampled_from(["exponential", "uniform", "pareto", "tabulated"]))
    unit = st.floats(0.0, 1.0)
    gamma = 0.2 + 6.0 * draw(unit)
    q = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)))
    if kind == "tabulated":
        per_action = []
        for _ in range(n):
            ts = [0.0, *sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3)))), 1.0]
            steps = [0.05 + 2.0 * draw(unit) for _ in ts]
            per_action.append(np.column_stack((ts, np.cumsum(steps) - 1.0)))
    else:
        per_action = [0.2 + 3.0 * draw(unit) for _ in range(n)]
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    u = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return (_family_of(kind, gamma, q, per_action),
            _family_of(kind, gamma, q, [per_action[k] for k in perm]), u, perm)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_permuted_families())
def test_response_is_permutation_equivariant_for_every_family(case):
    # relabelling the actions, payoffs and per-action parameters together,
    # relabels the response; only the order of the solver's sums changes
    fam, relabelled, u, perm = case
    np.testing.assert_allclose(response_probabilities(relabelled, u[perm]),
                               response_probabilities(fam, u)[perm], rtol=0.0, atol=1e-12)


def test_sparsemax_validation():
    with pytest.raises(ValueError, match="1-D"):
        sparsemax(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        sparsemax(np.array([1.0, np.nan]))


def test_optimistic_value_frozen_constants():
    # constant payoffs: exponential adds gamma log N, uniform adds nothing
    u = np.full(4, 0.3)
    exp_val = optimistic_value(ExponentialFamily(gamma=0.7, n_actions=4), u)
    assert exp_val == pytest.approx(0.3 + 0.7 * np.log(4.0), abs=1e-12)
    uni_val = optimistic_value(UniformFamily(gamma=0.7, n_actions=4), u)
    assert uni_val == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 20])
def test_bisection_matches_softmax(n):
    rng = np.random.default_rng(40 + n)
    fam = ExponentialFamily(gamma=0.4, n_actions=n)
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, size=n)
        direct = weighted_softmax(u, fam.eta, fam.gamma)
        solved = response_probabilities(fam, u, method="bisection")
        assert np.abs(direct - solved).max() < 1e-10


@pytest.mark.parametrize("n", [2, 5, 20])
def test_bisection_matches_sparsemax(n):
    rng = np.random.default_rng(60 + n)
    fam = UniformFamily(gamma=0.4, n_actions=n)
    for _ in range(20):
        u = rng.uniform(0.0, 1.0, size=n)
        direct = sparsemax(u / fam.gamma)
        solved = response_probabilities(fam, u, method="bisection")
        assert np.abs(direct - solved).max() < 1e-10


def test_kkt_multiplier_agrees_across_routes():
    rng = np.random.default_rng(8)
    u = rng.uniform(0.0, 1.0, size=5)

    exp = ExponentialFamily(gamma=0.6, n_actions=5)
    closed = quantal_response(exp, u)
    solved = quantal_response(exp, u, method="bisection")
    assert closed.solver_tag == "softmax" and solved.solver_tag == "bisection"
    assert closed.kkt_multiplier == pytest.approx(solved.kkt_multiplier, abs=1e-8)
    assert closed.optimistic_value == pytest.approx(solved.optimistic_value, abs=1e-10)

    uni = UniformFamily(gamma=0.6, n_actions=5)
    closed = quantal_response(uni, u)
    solved = quantal_response(uni, u, method="bisection")
    assert closed.solver_tag == "sparsemax"
    assert closed.kkt_multiplier == pytest.approx(solved.kkt_multiplier, abs=1e-8)


def test_kkt_multiplier_satisfies_stationarity():
    # on the support, u_i + quantile(1 - p_i) must equal the multiplier
    rng = np.random.default_rng(9)
    u = rng.uniform(0.0, 1.0, size=4)
    for fam in (ExponentialFamily(gamma=0.5, n_actions=4),
                ParetoFamily(gamma=0.5, q=1.8, eta=np.full(4, 0.25))):
        res = quantal_response(fam, u)
        station = u + fam.tail_quantile_vector(res.probabilities)
        np.testing.assert_allclose(station, res.kkt_multiplier, atol=1e-7)


def test_pareto_response_reduces_to_uniform_at_q_two():
    n = 4
    par = ParetoFamily(gamma=0.7, q=2.0, eta=np.full(n, 1.0 / n))
    uni = UniformFamily(gamma=0.7, n_actions=n)
    rng = np.random.default_rng(10)
    for _ in range(10):
        u = rng.uniform(0.0, 1.0, size=n)
        got = response_probabilities(par, u)
        want = response_probabilities(uni, u)
        assert np.abs(got - want).max() < 1e-9


def test_response_is_the_simplex_maximizer():
    rng = np.random.default_rng(11)
    for fam in (ExponentialFamily(gamma=0.3, n_actions=3),
                UniformFamily(gamma=0.3, n_actions=3),
                ParetoFamily(gamma=0.3, q=2.5, eta=np.full(3, 1 / 3))):
        u = rng.uniform(0.0, 1.0, size=3)
        res = quantal_response(fam, u)
        for _ in range(200):
            other = rng.dirichlet(np.ones(3))
            value = float(np.dot(other, u)) + fam.regularizer(other)
            assert value <= res.optimistic_value + 1e-9


def test_response_solver_closures_match_dispatch():
    rng = np.random.default_rng(12)
    u = rng.uniform(0.0, 1.0, size=4)
    for fam in (ExponentialFamily(gamma=0.5, n_actions=4),
                UniformFamily(gamma=0.5, n_actions=4),
                ParetoFamily(gamma=0.5, q=1.5, eta=np.full(4, 0.25))):
        np.testing.assert_array_equal(
            response_solver(fam)(u), response_probabilities(fam, u)
        )


def test_row_wise_responses_equal_the_one_dimensional_calls():
    rng = np.random.default_rng(31)
    u = rng.normal(0.0, 3.0, size=(6, 4))
    u[1] = u[1, 0]  # an all-tied row
    u[2, :2] = u[2, 2]  # a partial tie
    eta = rng.uniform(0.5, 2.0, 4)
    rows = weighted_softmax(u, eta, 0.7)
    for k in range(u.shape[0]):
        assert rows[k].tobytes() == weighted_softmax(u[k], eta, 0.7).tobytes()
    for fam in (ExponentialFamily(0.7, eta=eta), UniformFamily(0.4, 4), UniformFamily(5.0, 4),
                ParetoFamily(0.5, 1.5, eta)):
        want = np.stack([response_probabilities(fam, row) for row in u])
        assert response_solver(fam)(u).tobytes() == want.tobytes()
        stacked = response_solver(fam)(u.reshape(2, 3, 4))
        assert stacked.tobytes() == want.tobytes()


def test_bisection_refuses_nonunique_responses():
    flat = TabulatedFamily(
        [np.array([[0.0, -1.0], [0.4, 0.0], [0.6, 0.0], [1.0, 1.0]])] * 2
    )
    with pytest.raises(ValueError, match="TabulatedFamily"):
        response_probabilities(flat, np.array([0.2, 0.1]))


@st.composite
def _kkt_cases(draw):
    """A family of any kind with N in 1..8 and payoffs at scales 1e-3..1e3.

    Wide payoff spreads push components past bounded supports (p_i = 0);
    zero table steps give atoms, where both solvers must refuse.
    """
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["exponential", "uniform", "pareto", "tabulated"]))
    unit = st.floats(0.0, 1.0)
    if kind == "exponential":
        fam = ExponentialFamily(0.2 + 6.0 * draw(unit),
                                eta=[0.2 + 3.0 * draw(unit) for _ in range(n)])
    elif kind == "uniform":
        fam = UniformFamily(0.2 + 6.0 * draw(unit), n)
    elif kind == "pareto":
        q = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)))
        fam = ParetoFamily(0.3 + 8.0 * draw(unit), q,
                           [0.2 + 3.0 * draw(unit) for _ in range(n)])
    else:
        atom = draw(st.integers(0, 7)) == 0
        tables = []
        for i in range(n):
            knots = sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3))))
            ts = [0.0, *knots, 1.0]
            steps = [0.05 + 2.0 * draw(unit) for _ in ts]
            if atom and i == 0:
                steps[1] = 0.0  # a flat first segment: an atom at the bottom
            tables.append(np.column_stack((ts, np.cumsum(steps) - 1.0)))
        fam = TabulatedFamily(tables)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    u = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    return fam, u


def _solve_or_raise(solver, fam, u):
    try:
        p, kappa = solver(fam, u)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return p.tobytes(), np.float64(kappa).tobytes()


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_kkt_cases())
def test_bisection_replay_is_bitwise_plain_bisection(case):
    fam, u = case
    replayed = _solve_or_raise(_bisection_response, fam, u)
    assert replayed == _solve_or_raise(bisection_response, fam, u)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_kkt_cases(), st.floats(-1.0, 1.0), st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 1e4]))
def test_bisection_replay_from_any_start_is_bitwise_plain_bisection(case, shift, reach):
    # starts near the root (warm), far below lo and far above hi (ignored)
    fam, u = case
    want = _solve_or_raise(bisection_response, fam, u)
    root = float(np.frombuffer(want[1])[0]) if isinstance(want, tuple) else 0.0
    start = root + reach * shift * (1.0 + float(np.abs(u).max()))
    assert _solve_or_raise(lambda f, v: _bisection_response(f, v, start), fam, u) == want


def _counted(count_cdf_kernel, fam, solve, *args):
    """(CDF rows evaluated, result) of ``solve(fam, *args)``."""
    with count_cdf_kernel(fam) as calls:
        out = solve(fam, *args)
    return sum(calls), out


def _random_family(kind: str, n: int, rng):
    if kind == "exponential":
        return ExponentialFamily(0.2 + 6.0 * rng.random(), eta=0.2 + 3.0 * rng.random(n))
    if kind == "uniform":
        return UniformFamily(0.2 + 6.0 * rng.random(), n)
    if kind == "pareto":
        q = rng.uniform(0.2, 0.95) if rng.random() < 0.5 else rng.uniform(1.05, 4.0)
        return ParetoFamily(0.3 + 8.0 * rng.random(), q, 0.2 + 3.0 * rng.random(n))
    tables = []
    for _ in range(n):
        knots = np.sort(rng.uniform(0.01, 0.99, int(rng.integers(0, 4))))
        ts = np.concatenate(([0.0], knots, [1.0]))
        tables.append(np.column_stack((ts, np.cumsum(0.05 + 2.0 * rng.random(ts.size)) - 1.0)))
    return TabulatedFamily(tables)


@pytest.mark.parametrize("kind", ["exponential", "uniform", "pareto", "tabulated"])
def test_kkt_evaluation_counts_across_families(kind, count_cdf_kernel):
    # On a pure or near-pure row the root sits at a kink that Newton crawls to,
    # and a warm start from that row's own kappa begins exactly there: such a
    # row may cost only a few evaluations more than plain bisection.  Over all
    # rows, Newton overshooting past a kink must not hand over to the bisection.
    rng = np.random.default_rng(["exponential", "uniform", "pareto", "tabulated"].index(kind))
    pure = plain_total = cold_total = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        fam = _random_family(kind, n, rng)
        u = 10.0 ** rng.uniform(-3.0, 3.0) * rng.uniform(-1.0, 1.0, n)
        plain, (p, kappa) = _counted(count_cdf_kernel, fam, bisection_response, u)
        cold, _ = _counted(count_cdf_kernel, fam, _bisection_response, u)
        plain_total += plain
        cold_total += cold
        if p.max() < 1.0 - 1e-6:
            continue
        pure += 1
        warm, _ = _counted(count_cdf_kernel, fam, _bisection_response, u, kappa)
        assert max(cold, warm) <= plain + 4, (fam.to_dict(), u.tolist(), cold, warm, plain)
    assert pure >= 100
    assert cold_total <= plain_total / 3


def test_bound_solver_gives_shuffled_rows_their_cold_bits():
    # rows of three drifting payoff paths, fed in shuffled order and in stacks:
    # every warm start is some other row's kappa
    rng = np.random.default_rng(41)
    eta = rng.uniform(0.5, 2.0, 4)
    tables = [[[0.0, -2.0 - 0.1 * i], [0.3, -0.5], [0.7, 0.4 + 0.1 * i], [1.0, 2.0]]
              for i in range(4)]
    for fam in (ParetoFamily(2.0, 0.6, eta), ParetoFamily(2.0, 2.5, eta), TabulatedFamily(tables)):
        paths = np.cumsum(rng.normal(0.0, 0.3, size=(3, 20, 4)), axis=1)
        rows = paths.reshape(-1, 4)[rng.permutation(60)]
        want = np.stack([response_probabilities(fam, row) for row in rows])
        solve = response_solver(fam)
        got = np.stack([solve(row) for row in rows])
        assert got.tobytes() == want.tobytes()
        for shape in ((60, 4), (6, 10, 4), (60, 4)):
            assert solve(rows.reshape(shape)).tobytes() == want.reshape(shape).tobytes()
        respond = response_operator((fam, fam))
        pairs = rows.reshape(30, 2, 4)
        for k in rng.permutation(30):
            assert respond(pairs[k]).tobytes() == want.reshape(30, 2, 4)[k].tobytes()


def test_bound_solver_ignores_a_non_finite_predicted_start():
    # The bound solver starts Newton at kappa + p . (u_new - u_old).  A jump of
    # 1.8e308 overflows that prediction to -inf or nan, which the solver takes
    # as no start at all; the row still gets its cold bits.
    tables = [[[0.0, -2e307], [0.5, 1e306 * i], [1.0, 3e307]] for i in range(3)]
    for fam in (ParetoFamily(1e307, 0.6, [0.5, 1.0, 2.0]), ParetoFamily(1e307, 1.5, [0.5, 1.0, 2.0]),
                ParetoFamily(1e307, 2.5, [0.5, 1.0, 2.0]), TabulatedFamily(tables)):
        for before, after in (([0.9e308, 0.0, 0.0], [-0.9e308, 0.0, 0.0]),
                              ([0.0, 0.9e308, 1e307], [0.0, -0.9e308, 1e307])):
            before, after = np.array(before), np.array(after)
            p, kappa = _bisection_response(fam, before)
            start = kappa + sum(w * (b - a) for w, a, b in zip(p.tolist(), before.tolist(),
                                                                  after.tolist()))
            assert not np.isfinite(start)
            solve = response_solver(fam)
            assert solve(before).tobytes() == p.tobytes()
            want = _solve_or_raise(bisection_response, fam, after)
            assert solve(after).tobytes() == want[0]
            assert solve(before).tobytes() == p.tobytes()  # and back


@st.composite
def _drifting_paths(draw):
    """(family, (K, T, N) payoff paths): K random walks of T rows each.

    Like the payoff estimates of learning rounds, each row moves from the
    last by a step of its own size.  Pareto q comes from below 1, between 1
    and 2 and above 2 (unbounded densities); tables have no atoms.
    """
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["low", "mid", "high", "tabulated"]))
    unit = st.floats(0.0, 1.0)
    if kind == "tabulated":
        tables = []
        for _ in range(n):
            ts = [0.0, *sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3)))), 1.0]
            steps = [0.05 + 2.0 * draw(unit) for _ in ts]
            tables.append(np.column_stack((ts, np.cumsum(steps) - 1.0)))
        fam = TabulatedFamily(tables)
    else:
        q = draw({"low": st.floats(0.2, 0.95), "mid": st.floats(1.05, 2.0),
                  "high": st.floats(2.0, 4.0, exclude_min=True)}[kind])
        fam = ParetoFamily(0.3 + 8.0 * draw(unit), q, [0.2 + 3.0 * draw(unit) for _ in range(n)])
    k, t = draw(st.integers(1, 3)), draw(st.integers(2, 10))
    scale, step = 10.0 ** draw(st.floats(-2.0, 2.0)), 10.0 ** draw(st.floats(-4.0, 0.0))
    moves = draw(arrays(float, (k, t, n), elements=st.floats(-1.0, 1.0)))
    moves[:, 1:] *= step
    return fam, scale * np.cumsum(moves, axis=1)


def _plain_or_message(fam, u):
    """Plain bisection's probabilities as bytes, or its error message."""
    try:
        return bisection_response(fam, u)[0].tobytes()
    except (ValueError, RuntimeError) as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_drifting_paths())
def test_predicted_starts_on_drifting_paths_give_plain_bisection_bits(case):
    # each bound solver starts a row at its last kappa plus p . (u - u_old):
    # rows fed one path at a time, then each round's rows of all paths as a stack
    fam, paths = case
    want = [[_plain_or_message(fam, row) for row in path] for path in paths]
    for path, wanted in zip(paths, want):
        solve = response_solver(fam)
        for row, w in zip(path, wanted):
            try:
                got = solve(row).tobytes()
            except RuntimeError as exc:
                got = str(exc)
            assert got == w
    solve = response_solver(fam)
    for t in range(paths.shape[1]):
        wanted = [w[t] for w in want]
        failed = [w for w in wanted if isinstance(w, str)]
        if failed:
            with pytest.raises(RuntimeError) as info:
                solve(paths[:, t])
            assert str(info.value) == failed[0]
        else:
            assert solve(paths[:, t]).tobytes() == b"".join(wanted)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_permuted_families(), st.lists(st.floats(1e-4, 0.5), min_size=4, max_size=4),
       st.integers(0, 2**32 - 1))
def test_response_maximizes_the_regularized_payoff_for_every_family(case, weights, seed):
    # on the simplex, and no mix (1 - w) p + w r with a simplex point r does better;
    # h at the response agrees with an independent quadrature of the quantiles
    fam, _, u, _ = case
    p = response_probabilities(fam, u)
    assert np.all(p >= 0.0) and p.sum() == pytest.approx(1.0, abs=1e-12)
    h = fam.regularizer(p)
    assert quadrature_regularizer(fam, p) == pytest.approx(h, rel=1e-9, abs=1e-10)
    best = float(np.dot(p, u)) + h
    others = np.random.default_rng(seed).dirichlet(np.full(fam.n_actions, 0.5), len(weights))
    others[0] = np.eye(fam.n_actions)[0]  # a vertex
    for w, r in zip(weights, others):
        near = project_simplex((1.0 - w) * p + w * r)
        assert float(np.dot(near, u)) + fam.regularizer(near) <= best + 1e-9 * (1.0 + np.abs(u).max())


def test_unbounded_densities_in_a_solve_stay_silent():
    # Newton's slope evaluates the density at every component, and for q > 2 a
    # zero probability meets 0 ** (2 - q).  One errstate block per solve keeps
    # that silent.  (The solver's probabilities are 1 - F, so 0 or at least
    # 2^-53: a subnormal one never reaches the density.)
    fam = ParetoFamily(1.0, 3.0, np.array([0.5, 1.0, 2.0]))
    density, unguarded = fam._density, []

    def checked(p):
        with np.errstate(all="raise"):
            try:
                density(p)
            except FloatingPointError:
                unguarded.append(p)
        return density(p)

    fam._density = checked
    rows = np.array([[0.0, -5.0, -40.0], [0.0, 0.0, -1.0], [3.0, 0.0, 0.0], [0.0, -1e-3, -2.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in rows:
            assert (_solve_or_raise(_bisection_response, fam, u)
                    == _solve_or_raise(bisection_response, fam, u))
        got = response_solver(fam)(rows)
    assert got.tobytes() == np.stack([bisection_response(fam, u)[0] for u in rows]).tobytes()
    assert len(unguarded) >= 10 and all((p == 0.0).any() for p in unguarded)


def test_family_groups_serialize_each_object_once():
    calls = []

    class Counted(ExponentialFamily):
        def to_dict(self):
            calls.append(self)
            return super().to_dict()

    fam = Counted(1.0, n_actions=2)
    assert [g for _, g, _ in _family_groups((fam, fam, fam))] == [[0, 1, 2]]
    assert calls == [fam]
    # equal but distinct objects still share a group; 0.0 and -0.0 stay apart
    twins = (Counted(1.0, eta=[0.5, 1.0]), Counted(1.0, eta=[0.5, 1.0]))
    assert [g for _, g, _ in _family_groups(twins)] == [[0, 1]]
    tabs = [TabulatedFamily([[[0.0, z], [1.0, 1.0]]] * 2) for z in (0.0, -0.0, 0.0)]
    assert [g for _, g, _ in _family_groups(tabs)] == [[0, 2], [1]]


def test_bisection_replay_fails_like_plain_bisection(count_cdf_kernel):
    # a near-vertical CDF at |kappa| ~ 1e3: adjacent floats straddle the root,
    # and the bisection stops at the midpoint that equals an end, in the state
    # where repeating that step would leave it
    steep = np.array([[0.0, -1.0], [0.2, 0.0], [0.8, 1e-13], [1.0, 1.0]])
    fam = TabulatedFamily([steep, steep])
    u = np.array([1000.0, 1000.0])
    messages = []
    for solver in (_bisection_response, bisection_response):
        with count_cdf_kernel(fam) as calls, \
                pytest.raises(RuntimeError, match="failed to converge") as info:
            solver(fam, u)
        messages.append(str(info.value))
        assert len(calls) < 100
    assert messages[0] == messages[1]
    assert "at kappa = 1000.0 (bracket [1000.0, 1000.0000000000001])" in messages[0]


@pytest.mark.parametrize("fam", [
    ParetoFamily(6.0, 0.6, [0.5, 1.0, 2.0]),
    ParetoFamily(6.0, 1.5, [0.5, 1.0, 2.0]),
    ParetoFamily(6.0, 2.5, [0.5, 1.0, 2.0]),
    TabulatedFamily([[[0.0, -2.0], [0.5, 0.0], [1.0, 1.0 + i]] for i in range(3)]),
], ids=["pareto-q0.6", "pareto-q1.5", "pareto-q2.5", "tabulated"])
def test_rows_spanning_the_float_range_solve_like_plain_bisection(fam):
    # a bracket about 1e308 wide takes about 1070 halvings to reach the root
    u = np.array([-1e308, 0.3, 0.0])
    p, kappa = _bisection_response(fam, u)
    want = bisection_response(fam, u)
    assert (p.tobytes(), kappa) == (want[0].tobytes(), want[1])
    assert p[0] == 0.0 and p.sum() == pytest.approx(1.0, abs=1e-12)


def test_rows_wider_than_the_float_range_solve_silently():
    # kappa - u overflows to +-inf, whose CDF is the exact limit (0 or 1)
    fam = ParetoFamily(6.0, 0.6, [0.5, 1.0, 2.0])
    u = np.array([1.7e308, -1.7e308, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = response_probabilities(fam, u)
        cold = _bisection_response(fam, u)
        want = bisection_response(fam, u)
    assert got.tolist() == [1.0, 0.0, 0.0]
    assert (got.tobytes(), cold[0].tobytes(), cold[1]) == (want[0].tobytes(),) * 2 + (want[1],)


def test_the_widest_row_solves_to_its_response():
    p = response_probabilities(ParetoFamily(6.0, 0.6, [0.5, 1.0, 2.0]), [-1e308, 0.3, 0.0])
    np.testing.assert_allclose(p, [0.0, 0.3454, 0.6546], atol=1e-4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 6).flatmap(lambda k: st.integers(1, 32).flatmap(
    lambda n: arrays(float, (k, n), elements=st.floats(-1e3, 1e3)))))
def test_batched_row_sums_have_the_bits_of_1d_sums(rows):
    # the generic solver caches each row sum of one (K, N) reduce
    sums = np.add.reduce(rows, axis=-1)
    for row, total in zip(rows, sums):
        assert np.float64(total).tobytes() == np.add.reduce(row).tobytes()


def test_bisection_evaluates_few_cdfs_on_pareto_games(count_cdf_kernel):
    # the kkt-pareto benchmark's families: plain bisection needs about 41 evaluations
    rng = np.random.default_rng(101)
    rows = 0
    for k in range(200):
        q = rng.uniform(0.5, 0.8) if k % 2 == 0 else rng.uniform(1.5, 2.5)
        fam = ParetoFamily(6.0, q, rng.uniform(0.5, 2.0, 3))
        rows += _counted(count_cdf_kernel, fam, _bisection_response, rng.random(3))[0]
    assert rows / 200 <= 14


def test_payoff_vector_input_validation():
    fam = ExponentialFamily(gamma=1.0, n_actions=3)
    with pytest.raises(ValueError, match="length 3"):
        quantal_response(fam, np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        quantal_response(fam, np.array([1.0, np.inf, 0.0]))
    with pytest.raises(ValueError, match="method"):
        quantal_response(fam, np.ones(3), method="newton")


def test_smooth_payoff_adds_regularizer_to_expectation():
    game = matching_game(2)
    prof = uniform_profile(2, 2)
    fam = ExponentialFamily(gamma=1.0, n_actions=2)
    # 0.5 expected payoff plus entropy log 2
    assert smooth_payoff(game, 0, prof, fam) == pytest.approx(0.5 + np.log(2.0), abs=1e-12)


def test_smooth_payoff_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    game = matching_game(3)
    fam = ExponentialFamily(gamma=0.8, n_actions=3)
    rows = rng.dirichlet(np.ones(3), size=2) * 0.9 + 0.1 / 3
    from beliefgames.games import StrategyProfile, payoff_vector

    prof = StrategyProfile(rows)
    grad = smooth_payoff_gradient(game, 0, prof, fam)
    u = payoff_vector(game, 0, prof)

    def f(p):
        return float(np.dot(p, u)) + fam.regularizer_terms(p)

    fd = finite_difference_gradient(f, rows[0], h=1e-6)
    np.testing.assert_allclose(grad, fd, atol=1e-6)


def test_smooth_payoff_gradient_raises_on_boundary():
    game = matching_game(2)
    fam = ExponentialFamily(gamma=1.0, n_actions=2)
    from beliefgames.games import StrategyProfile

    prof = StrategyProfile([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="clamp"):
        smooth_payoff_gradient(game, 0, prof, fam)

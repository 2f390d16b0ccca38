import os
import subprocess
import sys
import warnings
from pathlib import Path

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


def test_rows_whose_u_over_gamma_overflows_get_the_limit_response_silently():
    # u / gamma overflowed before the max was subtracted: NaN rows and warnings;
    # the suite turns every RuntimeWarning into an error
    fam = ExponentialFamily(1e-300, [0.5, 0.5])
    assert response_probabilities(fam, [1e80, 0.0]).tolist() == [1.0, 0.0]
    result = quantal_response(fam, [1e80, 0.0])
    assert result.probabilities.tolist() == [1.0, 0.0] and result.kkt_multiplier == 1e80
    # ties share the mass by eta; a finite row keeps its bits in a stack
    u = np.array([[1e80, 0.0], [1e80, 1e80], [-1e80, 0.0], [1e-300, 0.0]])
    p = weighted_softmax(u, [0.5, 1.5], 1e-300)
    assert p[:3].tolist() == [[1.0, 0.0], [0.25, 0.75], [0.0, 1.0]]
    assert p[3].tobytes() == weighted_softmax(u[3], [0.5, 1.5], 1e-300).tobytes()
    with pytest.raises(ValueError, match=r"^sparsemax sums to nan at \|u\| / gamma = inf, "):
        response_probabilities(UniformFamily(1e-300, 2), [1e80, 0.0])


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


def _plain_sparsemax(z):
    """The sort-based projection of one row, written plainly: the reference
    that the bound kernel's bits are pinned to.  Returns (p, kappa)."""
    n = z.size
    sorted_z = np.sort(z)[::-1]
    cumsum = sorted_z.cumsum()
    j = np.arange(1, n + 1)
    k = np.maximum.reduce(j * (2.0 * n + j * sorted_z > cumsum))
    kappa = (np.add.reduce(cumsum * (j == k)) - 2.0 * n) / k
    return np.minimum(np.maximum(z - kappa, 0.0) / (2.0 * n), 1.0), kappa


@st.composite
def _sparsemax_stacks(draw):
    """(gamma, a (B, N) payoff stack), N in 1..8.  Entries come from [-1, 1] or
    a pool of ties and signed zeros; |u| / gamma reaches about 1e8, where
    4-action rows start to miss the simplex by 1e-9."""
    n, b = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    gamma = draw(st.sampled_from([0.1, 1.0, 3.0]))
    scale = 10.0 ** draw(st.floats(-3.0, 7.0))
    entry = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]))
    rows = draw(st.lists(entry, min_size=b * n, max_size=b * n))
    return gamma, scale * np.array(rows).reshape(b, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_sparsemax_stacks())
def test_sparsemax_kernel_has_the_bits_of_the_plain_projection(case):
    # every route into the one kernel, row by row: the bound route on the stack,
    # and the public calls on each row the projection places within 1e-9
    gamma, u = case
    fam = UniformFamily(gamma, u.shape[-1])
    stacked = response_solver(fam)(u)
    for row, got in zip(u, stacked):
        want, kappa = _plain_sparsemax(row / gamma)
        assert got.tobytes() == want.tobytes()
        if abs(float(np.add.reduce(want)) - 1.0) <= 1e-9:
            res = quantal_response(fam, row)
            assert res.probabilities.tobytes() == want.tobytes()
            assert res.kkt_multiplier == gamma * (1.0 + kappa)
            assert response_probabilities(fam, row).tobytes() == want.tobytes()
            assert sparsemax(row / gamma).tobytes() == want.tobytes()


def test_sparsemax_rows_off_the_simplex_raise_naming_the_scale():
    # 2N is lost in 2N + 1e17, so the rows used to come out [1, 1, 1] after a
    # division by zero; one action still gets all the mass at any scale
    u, fam = np.array([1e17, 0.0, 0.0]), UniformFamily(1.0, 3)
    for call in (sparsemax, lambda u: response_probabilities(fam, u),
                 lambda u: quantal_response(fam, u)):
        with pytest.raises(ValueError, match=r"sums to 0\.0 at \|u\| / gamma = 1e\+17"):
            call(u)
    assert sparsemax(np.array([1e17])).tolist() == [1.0]
    assert response_probabilities(UniformFamily(1.0, 1), [-1e300]).tolist() == [1.0]


def _route_families(kind, m, n, shared):
    """m families of ``kind``: one object for every player, or each with its own parameters."""
    rng = np.random.default_rng(77)
    fams = []
    for _ in range(1 if shared else m):
        eta = rng.uniform(0.5, 2.0, n)
        if kind == "exponential":
            fams.append(ExponentialFamily(0.7, eta=eta))
        elif kind == "uniform":
            fams.append(UniformFamily(float(rng.uniform(0.3, 3.0)), n))
        else:
            fams.append(ParetoFamily(0.7, 1.5, eta))
    return tuple(fams * m if shared else fams)


@pytest.mark.parametrize("stack", [(), (2,)], ids=["M-N", "B-M-N"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-player"])
@pytest.mark.parametrize("kind", ["exponential", "uniform", "pareto"])
def test_responses_written_into_out_have_the_bits_of_fresh_ones(kind, shared, stack):
    m, n = 3, 4
    fams = _route_families(kind, m, n, shared)
    # per-player exponential and Pareto families differ only in eta: one stacked group
    assert len(_family_groups(fams)) == (1 if shared or kind != "uniform" else m)
    u = np.random.default_rng(78).normal(0.0, 2.0, size=(*stack, m, n))
    want = response_operator(fams)(u)
    buf = np.full(u.shape, np.nan)
    assert response_operator(fams)(u, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    rows = np.full(u.shape, np.nan)
    assert response_solver(fams[0])(u, out=rows) is rows
    assert rows.tobytes() == response_solver(fams[0])(u).tobytes()


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


def test_bound_closed_form_routes_match_the_bisection():
    # the softmax and sparsemax routes that response_solver binds for the round
    # loop, on stacked rows and through response_probabilities, one row at a time
    u = np.random.default_rng(70).uniform(-1.0, 1.0, size=(2, 5, 4))
    rows = u.reshape(-1, 4)
    for fam in (ExponentialFamily(gamma=0.4, eta=[0.5, 1.0, 2.0, 1.0]),
                ExponentialFamily(gamma=3.0, n_actions=4),
                UniformFamily(gamma=0.4, n_actions=4), UniformFamily(gamma=3.0, n_actions=4)):
        want = np.stack([response_probabilities(fam, row, method="bisection") for row in rows])
        assert np.abs(response_solver(fam)(u).reshape(-1, 4) - want).max() < 1e-10
        for row, p in zip(rows, want):
            assert np.abs(response_probabilities(fam, row) - p).max() < 1e-10


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
    # The bound solver starts a row at kappa + w . (u_new - u_old).  A jump of
    # 1.8e308 overflows to -inf, so that prediction is -inf or nan for any
    # weights (p here), which the solver takes as no start at all; the row
    # still gets its cold bits.
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
    # each bound solver starts a row at its last kappa plus w . (u - u_old):
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
        else:  # each row written in place into out, which is returned
            out = np.full(paths[:, t].shape, np.nan)
            assert solve(paths[:, t], out=out) is out
            assert out.tobytes() == b"".join(wanted)


def test_family_groups_stack_families_that_differ_only_in_eta():
    eta = np.array([[0.5, 1.0, 2.0], [1.5, 0.7, 0.9], [1.0, 1.0, 1.0]])
    for make in (lambda e: ExponentialFamily(0.7, eta=e), lambda e: ParetoFamily(0.7, 1.5, e)):
        fams = tuple(make(e) for e in eta)
        ((stacked, players, index),) = _family_groups(fams)
        assert (players, index) == ([0, 1, 2], slice(None))
        assert type(stacked) is type(fams[0]) and stacked._members == fams
        assert stacked.eta.tobytes() == eta.tobytes()
        assert [fam.eta.shape for fam in fams] == [(3,)] * 3  # the players' own stay
    # any other difference, mixed kinds, and kinds without eta stay per player
    tables = [[[[0.0, -1.0], [1.0, 1.0 + i]]] * 3 for i in range(2)]
    for fams in ((ExponentialFamily(0.7, eta=eta[0]), ExponentialFamily(0.8, eta=eta[1])),
                 (ParetoFamily(0.7, 1.5, eta[0]), ParetoFamily(0.8, 1.5, eta[1])),
                 (ParetoFamily(0.7, 1.5, eta[0]), ParetoFamily(0.7, 1.6, eta[1])),
                 (ParetoFamily(0.7, 1.5, eta[0]), ExponentialFamily(0.7, eta=eta[1])),
                 (UniformFamily(0.7, 3), UniformFamily(0.8, 3)),
                 tuple(TabulatedFamily(table) for table in tables)):
        assert [group for _, group, _ in _family_groups(fams)] == [[0], [1]]


@pytest.mark.parametrize("lead", [(), (4,), (2, 3)])
@pytest.mark.parametrize("kind", ["exponential", "pareto-q0.6", "pareto-q1.5", "pareto-q2.5"])
def test_a_stacked_group_gives_each_row_its_own_players_bits(kind, lead):
    # one solver for players whose families differ only in eta: softmax
    # broadcasts the stacked etas, and the generic route binds each row's own
    # player's operands; repeated calls start each row from its predicted kappa
    rng = np.random.default_rng(79)
    etas = rng.uniform(0.5, 2.0, (3, 4))
    fams = tuple(ExponentialFamily(0.7, eta=e) if kind == "exponential"
                 else ParetoFamily(0.7, float(kind[-3:]), e) for e in etas)
    respond = response_operator(fams)
    u = rng.normal(0.0, 2.0, (*lead, 3, 4))
    for _ in range(3):
        want = np.empty_like(u)
        for idx in np.ndindex(*lead, 3):
            want[idx] = response_probabilities(fams[idx[-1]], u[idx])
        assert respond(u).tobytes() == want.tobytes()
        u = u + rng.normal(0.0, 0.1, (*lead, 3, 1))


@st.composite
def _common_drift_paths(draw):
    """(families, (T, M, N) payoff paths): one family, or an eta-stacked pair.

    Each step moves all of a player's payoffs by one common amount and each
    by a tiny amount of its own, as learning rounds near a fixed point move
    the estimates, so the predicted starts are close enough for the one-call
    path.  Pareto q comes from below 1, between 1 and 2 and above 2; tables
    have no atoms; the pair is Pareto with a shared gamma and q.
    """
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["low", "mid", "high", "tabulated", "stacked"]))
    unit = st.floats(0.0, 1.0)
    if kind == "tabulated":
        tables = []
        for _ in range(n):
            ts = [0.0, *sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3)))), 1.0]
            steps = [0.05 + 2.0 * draw(unit) for _ in ts]
            tables.append(np.column_stack((ts, np.cumsum(steps) - 1.0)))
        fams = (TabulatedFamily(tables),)
    else:
        low, mid, high = st.floats(0.2, 0.95), st.floats(1.05, 2.0), st.floats(2.0, 4.0,
                                                                               exclude_min=True)
        q = draw({"low": low, "mid": mid, "high": high,
                  "stacked": st.one_of(low, mid, high)}[kind])
        gamma = 0.3 + 8.0 * draw(unit)
        fams = tuple(ParetoFamily(gamma, q, [0.2 + 3.0 * draw(unit) for _ in range(n)])
                     for _ in range(2 if kind == "stacked" else 1))
    m, t = len(fams), draw(st.integers(2, 12))
    scale, tiny = 10.0 ** draw(st.floats(-2.0, 2.0)), 10.0 ** draw(st.floats(-12.0, -3.0))
    moves = draw(arrays(float, (t, m, n), elements=st.floats(-1.0, 1.0)))
    common = draw(arrays(float, (t, m, 1), elements=st.floats(-1.0, 1.0)))
    moves[1:] = common[1:] + tiny * moves[1:]
    return fams, scale * np.cumsum(moves, axis=0)


def _cold_or_message(fam, u):
    """A cold ``response_probabilities`` call's bytes, or its error message."""
    try:
        return response_probabilities(fam, u).tobytes()
    except (ValueError, RuntimeError) as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_common_drift_paths())
def test_predicted_starts_on_common_drift_paths_give_each_row_its_cold_bits(case):
    # a bound solver starts each row at its last kappa plus f / sum f . (u - u_old),
    # and certifies that start in one kernel call where its last start was close
    fams, path = case
    respond = response_operator(fams)
    for rows in path:
        wanted = [_cold_or_message(fam, row) for fam, row in zip(fams, rows)]
        failed = [(j, w) for j, w in enumerate(wanted) if isinstance(w, str)]
        if failed:
            with pytest.raises(RuntimeError) as info:
                respond(rows)
            assert str(info.value) == "player {}: {}".format(*failed[0])
        else:
            assert respond(rows).tobytes() == b"".join(wanted)


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


def test_family_groups_follow_identity_and_the_eta_stack_rule():
    class Unserialized(ExponentialFamily):
        def to_dict(self):
            raise AssertionError("grouping reads no serialized form")

    def groups(fams):
        return [(g, index) for _, g, index in _family_groups(fams)]

    fam, other = Unserialized(1.0, n_actions=2), Unserialized(2.0, n_actions=2)
    assert groups((fam, fam, fam)) == [([0, 1, 2], slice(None))]
    assert groups((fam, fam, other)) == [([0], 0), ([1], 1), ([2], 2)]
    # equal but distinct objects share a group only by the eta-stack rule, which
    # takes the exponential and Pareto classes themselves, not a subclass
    assert groups((Unserialized(1.0, n_actions=2),) * 2) == [([0, 1], slice(None))]
    assert groups((Unserialized(1.0, n_actions=2), Unserialized(1.0, n_actions=2))) == [
        ([0], 0), ([1], 1)]
    ((stacked, _, _),) = _family_groups((ExponentialFamily(1.0, n_actions=2),) * 2)
    assert not hasattr(stacked, "_members")  # one object: no stack
    for make in (lambda: UniformFamily(1.0, 2),
                 lambda: TabulatedFamily([[[0.0, -1.0], [1.0, 1.0]]] * 2)):
        assert groups((make(), make())) == [([0], 0), ([1], 1)]
        one = make()
        assert groups((one, one)) == [([0, 1], slice(None))]
    # one action count: etas of different lengths never stack
    two, three = ExponentialFamily(1.0, n_actions=2), ExponentialFamily(1.0, n_actions=3)
    assert groups((two, three)) == [([0], 0), ([1], 1)]


@st.composite
def _grouped_families(draw, kind, how):
    """(families, the number of groups the rule gives, (B, M, N) payoff rows).

    Families of ``kind`` built ``how``: one object for every player, equal
    copies, eta-only differences (other per-action parameters for kinds
    without eta), or other differences (Pareto's q, the others' gamma).
    """
    m, n, b = draw(st.integers(2, 3)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0)
    gamma = 0.3 + 5.0 * draw(unit)
    q = draw(st.one_of(st.floats(0.3, 0.95), st.floats(1.05, 3.5)))

    def per_action():
        if kind != "tabulated":
            return [0.2 + 3.0 * draw(unit) for _ in range(n)]
        tables = []
        for _ in range(n):
            ts = [0.0, *sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=2)))), 1.0]
            tables.append(np.column_stack((ts, np.cumsum([0.05 + 2.0 * draw(unit) for _ in ts])
                                           - 1.0)))
        return tables

    shared = per_action()
    if how == "same":
        fams = (_family_of(kind, gamma, q, shared),) * m
    elif how == "copies":
        fams = tuple(_family_of(kind, gamma, q, shared) for _ in range(m))
    elif how == "eta":
        fams = tuple(_family_of(kind, gamma, q, per_action()) for _ in range(m))
    else:  # Pareto's q differs; the others' gamma (tabulated tables are copies)
        pareto = kind == "pareto"
        fams = tuple(_family_of(kind, gamma if pareto else gamma * (1.0 + 0.5 * j),
                                q * (1.0 + 0.05 * j) if pareto else q, shared)
                     for j in range(m))
    stacks = how != "other" and kind in ("exponential", "pareto")
    u = 10.0 ** draw(st.floats(-1.0, 1.0)) * draw(arrays(float, (b, m, n),
                                                         elements=st.floats(-1.0, 1.0)))
    return fams, 1 if how == "same" or stacks else m, u


@pytest.mark.parametrize("how", ["same", "copies", "eta", "other"])
@pytest.mark.parametrize("kind", ["exponential", "uniform", "pareto", "tabulated"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_family_groups_follow_the_rule_and_keep_each_player_s_bits(kind, how, data):
    # the same object, or exponential or Pareto families with equal gamma (and q),
    # give one group; anything else one group per player; every row keeps the
    # bits of its own player's single-row call, on two calls in turn
    fams, count, u = data.draw(_grouped_families(kind, how))
    assert len(_family_groups(fams)) == count
    respond = response_operator(fams)
    for rows in (u, u + 0.01):
        want = [response_probabilities(fams[j], rows[k, j])
                for k, j in np.ndindex(rows.shape[:2])]
        assert respond(rows).tobytes() == b"".join(p.tobytes() for p in want)


@pytest.mark.parametrize("how", ["shared", "stacked", "per-player"])
def test_a_failing_row_names_its_player_from_its_own_solve(how, count_solves):
    pareto = [ParetoFamily(0.7, 1.5, eta) for eta in ([0.5, 1.0], [1.5, 0.7], [1.0, 1.0])]
    fams = {"shared": (pareto[0],) * 3, "stacked": tuple(pareto),
            "per-player": (ExponentialFamily(0.7, n_actions=2), pareto[1],
                           ParetoFamily(0.9, 1.5, [1.0, 1.0]))}[how]
    u = np.random.default_rng(81).normal(0.0, 1.0, (2, 3, 2))
    u[1, 2] = [np.nan, 0.0]
    single = r"payoff row \[nan, 0\.0\] is not finite$"
    with pytest.raises(RuntimeError, match="^" + single):  # the row's own solve
        response_solver(fams[2])(u[1, 2])
    count_solves.clear()
    with pytest.raises(RuntimeError, match="^player 2: " + single):
        response_operator(fams)(u)
    # each KKT row up to the failing one, once: all six rows of one group in
    # order, or players 1 and 2 of their own groups (player 0 takes softmax)
    assert len(count_solves) == (4 if how == "per-player" else 6)


def test_a_stacked_pair_whose_second_bracket_overflows_names_player_one(count_solves):
    fams = (ParetoFamily(1e300, 0.5, [1.0, 1.0]), ParetoFamily(1e300, 0.5, [1e300, 1e300]))
    assert len(_family_groups(fams)) == 1
    with pytest.raises(RuntimeError, match=r"^player 1: ParetoFamily \{'type': 'pareto', "
                                           r"'gamma': 1e\+300, 'q': 0\.5, 'eta': \[1e\+300, "
                                           r"1e\+300\]\}: the response bracket lies beyond"):
        response_operator(fams)(np.zeros((2, 2)))
    assert count_solves == []


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


def test_a_row_whose_direct_solve_fails_solves_shifted():
    # at (1e3, 1e3) adjacent floats straddle the root of the steep CDF above, and
    # plain bisection fails; the same row at level 0 solves
    steep = np.array([[0.0, -1.0], [0.2, 0.0], [0.8, 1e-13], [1.0, 1.0]])
    fam = TabulatedFamily([steep, steep])
    u = np.array([1000.0, 1000.0])
    with pytest.raises(RuntimeError, match="failed to converge"):
        bisection_response(fam, u)
    p, kappa = bisection_response(fam, u - 1000.0)
    got = quantal_response(fam, u)
    assert (got.probabilities.tobytes(), got.kkt_multiplier) == (p.tobytes(), kappa + 1000.0)
    assert response_solver(fam)(np.stack([u, u - 1000.0])).tobytes() == p.tobytes() * 2
    # a non-finite row still raises at once, and so does a row that fails shifted too
    with pytest.raises(RuntimeError, match=r"^payoff row \[nan, 1000.0\] is not finite$"):
        response_solver(fam)(np.array([np.nan, 1000.0]))
    shifted_steep = steep + [0.0, 1000.0]
    with pytest.raises(RuntimeError, match=r"failed to converge: .* at kappa = 1000.0 "):
        response_probabilities(TabulatedFamily([shifted_steep] * 2), [0.0, 0.0])


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


@st.composite
def _leveled_rows(draw):
    """(family, u): a family of any kind with N in 2..5 and its payoffs at a level.

    The row is ``level + scale * offsets`` with level = +-10^k scale, k up to
    300, scale the family's (gamma, or a table's span) and offsets in
    [-1, 1].  Tables have no atoms.
    """
    n = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["exponential", "uniform", "pareto", "tabulated"]))
    unit = st.floats(0.0, 1.0)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    if kind == "exponential":
        fam = ExponentialFamily(scale, eta=[0.2 + 3.0 * draw(unit) for _ in range(n)])
    elif kind == "uniform":
        fam = UniformFamily(scale, n)
    elif kind == "pareto":
        q = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)))
        fam = ParetoFamily(scale, q, [0.2 + 3.0 * draw(unit) for _ in range(n)])
    else:
        tables = []
        for _ in range(n):
            ts = [0.0, *sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3)))), 1.0]
            steps = [0.05 + draw(unit) for _ in ts]
            tables.append(np.column_stack((ts, scale * (np.cumsum(steps) - 1.0))))
        fam = TabulatedFamily(tables)
    level = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(0.0, 300.0)) * scale
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return fam, level + scale * np.array(offsets)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_leveled_rows())
def test_rows_at_any_level_solve_like_their_shifted_rows(case):
    # The direct solve works at the row's level, where kappa takes only the
    # floats of that level; where it fails, the solver solves u - max u.  Where
    # it succeeds, its sum was within 1e-9 of one before p / sum, which moves
    # each p_i by at most about 1e-9 from the exact response of the row.
    fam, u = case
    shifted = u - u.max()
    p = response_probabilities(fam, u, method="bisection")
    want = response_probabilities(fam, shifted, method="bisection")
    assert abs(p.sum() - 1.0) <= 1e-9
    assert np.abs(p - want).max() <= 2e-9, (fam.to_dict(), u.tolist())
    if not isinstance(fam, (ExponentialFamily, UniformFamily)):  # the bound generic route
        assert response_solver(fam)(np.stack([u, shifted])).tobytes() == np.concatenate(
            [p, want]).tobytes()


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


#: a child that should end at once gets this long: a regression that hangs fails
_HANG_TIMEOUT_S = 5


def _run_child(script: str) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter on this project's ``src``, under a timeout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=_HANG_TIMEOUT_S)


def test_a_non_finite_row_ends_the_generic_solve_at_once():
    # a NaN bracket end never compares true, so the bracket expansion looped for
    # ever on such a row; the bound solver does not validate its rows
    done = _run_child(
        "import numpy as np\n"
        "from beliefgames.families import ParetoFamily\n"
        "from beliefgames.response import response_solver\n"
        "solve = response_solver(ParetoFamily(1.0, 1.5, [0.5, 0.5]))\n"
        "for row in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, np.nan]):\n"
        "    try:\n"
        "        solve(np.array(row))\n"
        "    except RuntimeError as exc:\n"
        "        print(exc)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["payoff row [nan, 0.0] is not finite",
                                        "payoff row [0.0, inf] is not finite",
                                        "payoff row [-inf, nan] is not finite"]


def test_a_run_whose_payoffs_turn_nan_ends_with_an_error():
    # the tiny-gamma softmax player's estimates overflow u / gamma, so their
    # response and the Pareto player's next payoff row are NaN; the run ends,
    # naming the first bad response, instead of hanging in the Pareto solve
    done = _run_child(
        "from beliefgames.dynamics import RunConfig, StepSchedule, run_dynamics\n"
        "from beliefgames.families import ExponentialFamily, ParetoFamily\n"
        "from beliefgames.games import matching_game\n"
        "fams = (ExponentialFamily(1e-300, n_actions=2), ParetoFamily(1.0, 1.5, [0.5, 0.5]))\n"
        "config = RunConfig(horizon=50, schedule=StepSchedule.power(1e10, 0.6),\n"
        "                   risk_families=fams, belief_families=fams, record_every=10)\n"
        "try:\n"
        "    run_dynamics(matching_game(), config)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n")
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("round 2, player 0: argument must lie in [0, 1], and the response "
                           "sum to one within 1e-9: [nan, nan]\n")


def test_a_response_bracket_beyond_the_float_range_names_the_family():
    # the offsets overflow to inf; the error names the family, without a warning
    fam = ParetoFamily(1e300, 0.5, [1e300, 1e300])
    match = (r"^ParetoFamily \{'type': 'pareto', 'gamma': 1e\+300, 'q': 0\.5, "
             r"'eta': \[1e\+300, 1e\+300\]\}: the response bracket lies beyond the float range$")
    with pytest.raises(ValueError, match=match):
        response_probabilities(fam, [0.0, 0.0])
    with pytest.raises(RuntimeError, match=r"^player 0: ParetoFamily .* beyond the float range$"):
        response_operator((fam, fam))(np.zeros((2, 2)))


def test_a_per_player_group_failure_names_the_player():
    flat = TabulatedFamily([np.array([[0.0, -1.0], [0.4, 0.0], [0.6, 0.0], [1.0, 1.0]])] * 2)
    respond = response_operator((ExponentialFamily(1.0, n_actions=2), flat))
    with pytest.raises(RuntimeError, match=r"^player 1: TabulatedFamily has a "
                                           r"non-strictly-increasing CDF; the response is not "
                                           r"unique$"):
        respond(np.zeros((2, 2)))


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


@pytest.mark.parametrize("tiny", [1e-10, 1e-17])
def test_smooth_payoff_gradient_keeps_the_digits_of_tiny_probabilities(tiny):
    # F^{-1}(1 - p) taken in its tail form: 1 - p would lose p's digits, or all of p
    import math

    from beliefgames.games import StrategyProfile, payoff_vector

    game = matching_game(2)
    fam = ExponentialFamily(gamma=2.0, eta=[1.5, 0.5])
    prof = StrategyProfile([[tiny, 1.0 - tiny], [0.3, 0.7]])
    u = payoff_vector(game, 0, prof)
    grad = smooth_payoff_gradient(game, 0, prof, fam)
    for i, p in enumerate(prof.player(0)):
        expected = u[i] + 2.0 * (math.log(fam.eta[i] / p) - 1.0)
        assert grad[i] == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_smooth_payoff_gradient_raises_on_boundary():
    game = matching_game(2)
    fam = ExponentialFamily(gamma=1.0, n_actions=2)
    from beliefgames.games import StrategyProfile

    prof = StrategyProfile([[1.0, 0.0], [0.5, 0.5]])
    with pytest.raises(ValueError, match="clamp"):
        smooth_payoff_gradient(game, 0, prof, fam)

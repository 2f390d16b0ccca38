import math
import warnings

import mpmath
import numpy as np
import pytest

from beliefgames.analysis import fixed_point_iterate
from beliefgames.families import (
    ExponentialFamily,
    ParetoFamily,
    TabulatedFamily,
    UniformFamily,
)
from beliefgames.games import matching_game, random_game
from beliefgames.oracles import (
    _BLOCK,
    _T_CAP,
    COPULAS,
    coupling_expected_max,
    finite_difference_gradient,
    grid_fixed_point,
    gumbel_choice_frequencies,
    project_simplex,
    quadrature_regularizer,
)
from beliefgames.response import optimistic_value


# ---------------------------------------------------------------------------
# simplex projection and finite differences


def test_project_simplex_known_points():
    np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(project_simplex([0.3, 0.3]), [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(project_simplex([0.2, 0.3, 0.5]),
                               [0.2, 0.3, 0.5], atol=1e-15)


def test_project_simplex_properties():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(scale=3.0, size=int(rng.integers(1, 8)))
        p = project_simplex(v)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert (p >= 0.0).all()
        # projection is idempotent
        np.testing.assert_allclose(project_simplex(p), p, atol=1e-12)


def test_project_simplex_rejects_matrices():
    with pytest.raises(ValueError, match="1-D"):
        project_simplex(np.ones((2, 2)))


def test_finite_difference_gradient_on_a_quadratic():
    a = np.array([[2.0, 0.5], [0.5, 1.0]])

    def f(x):
        return 0.5 * float(x @ a @ x)

    x0 = np.array([0.3, -0.7])
    np.testing.assert_allclose(finite_difference_gradient(f, x0), a @ x0,
                               atol=1e-8)


# ---------------------------------------------------------------------------
# coupling estimates


def _fam(n=2):
    return ExponentialFamily(gamma=1.0, n_actions=n)


def test_coupling_validation():
    fam = _fam()
    with pytest.raises(ValueError, match="length 2"):
        coupling_expected_max(fam, [1.0, 2.0, 3.0], "independence", 100)
    with pytest.raises(ValueError, match="copula"):
        coupling_expected_max(fam, [1.0, 2.0], "gaussian", 100)
    with pytest.raises(ValueError, match="two samples"):
        coupling_expected_max(fam, [1.0, 2.0], "independence", 1)


def test_coupling_seed_determinism():
    fam = _fam()
    u = [0.4, 0.9]
    a = coupling_expected_max(fam, u, "independence", 5000, seed=3)
    b = coupling_expected_max(fam, u, "independence", 5000, seed=3)
    assert a == b
    c = coupling_expected_max(fam, u, "independence", 5000, seed=4)
    assert c.mean != a.mean
    assert a.n == 5000 and a.seed == 3 and a.stderr > 0.0


def test_comonotone_never_exceeds_independence():
    # max(x) = x_1 + (x_2 - x_1)_+ and the positive part is smallest when the
    # coordinates move together, so the comonotone mean sits below independence
    fam = _fam()
    u = [0.3, 0.7]
    ind = coupling_expected_max(fam, u, "independence", 40_000, seed=0)
    com = coupling_expected_max(fam, u, "comonotone", 40_000, seed=0)
    assert com.mean <= ind.mean + 3.0 * (ind.stderr + com.stderr)
    # one shared driver: the max is max(u) plus a single zero-mean draw
    assert com.mean == pytest.approx(max(u), abs=4.0 * com.stderr)


@pytest.mark.parametrize("copula", COPULAS)
def test_optimistic_value_dominates_every_coupling(copula):
    for fam in (ExponentialFamily(gamma=0.8, n_actions=3),
                UniformFamily(gamma=0.8, n_actions=3)):
        u = np.array([0.2, 0.9, 0.5])
        value = optimistic_value(fam, u)
        est = coupling_expected_max(fam, u, copula, 20_000, seed=1)
        assert est.mean <= value + 3.0 * est.stderr


def _one_shot_expected_max(fam, u, copula, n, seed):
    """(mean, stderr) of ``coupling_expected_max`` with all n rows drawn at once."""
    rng = np.random.default_rng(seed)
    k = fam.n_actions
    if copula == "independence":
        t = np.minimum(rng.random((n, k)), _T_CAP)
    else:
        t = np.minimum(rng.random(n), _T_CAP)[:, None] * np.ones((1, k))
    draws = fam.quantile_vector(t)
    if copula == "permutation":
        perms = rng.permuted(np.tile(np.arange(k), (n, 1)), axis=1)
        draws = np.take_along_axis(draws, perms, axis=1)
    vals = (u[None, :] + draws).max(axis=1)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n))


@pytest.mark.parametrize("copula", COPULAS)
def test_blocked_coupling_draws_equal_one_shot_draws(copula):
    fam = ParetoFamily(1.5, 0.6, [0.7, 1.0, 1.6])
    u = np.array([0.4, -0.2, 0.1])
    n = 2 * _BLOCK + 37
    est = coupling_expected_max(fam, u, copula, n, seed=5)
    assert (est.mean, est.stderr) == _one_shot_expected_max(fam, u, copula, n, 5)


def test_blocked_gumbel_draws_equal_one_shot_draws():
    u = np.array([0.5, 0.1, 0.2])
    n = 2 * _BLOCK + 37
    rng = np.random.default_rng(9)
    noisy = u[None, :] + rng.gumbel(0.0, 0.7, size=(n, u.size))
    want = np.bincount(np.argmax(noisy, axis=1), minlength=u.size) / float(n)
    assert gumbel_choice_frequencies(u, 0.7, n, seed=9).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Gumbel argmax frequencies


def test_gumbel_frequencies_match_logit_probabilities():
    freq = gumbel_choice_frequencies([1.0, 0.0], 1.0, 200_000, seed=0)
    assert freq.sum() == pytest.approx(1.0, abs=1e-12)
    p = math.e / (math.e + 1.0)
    assert freq[0] == pytest.approx(p, abs=0.004)


def test_gumbel_frequencies_determinism_and_validation():
    a = gumbel_choice_frequencies([0.5, 0.1, 0.2], 0.7, 1000, seed=9)
    b = gumbel_choice_frequencies([0.5, 0.1, 0.2], 0.7, 1000, seed=9)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (3,)
    with pytest.raises(ValueError, match="scale"):
        gumbel_choice_frequencies([1.0, 0.0], 0.0, 100)


# ---------------------------------------------------------------------------
# quadrature route for the regularizer


def test_quadrature_matches_exponential_closed_form():
    fam = ExponentialFamily(gamma=1.3, n_actions=2)
    p = np.array([0.25, 0.75])
    assert quadrature_regularizer(fam, p) == pytest.approx(fam.regularizer(p),
                                                           abs=1e-8)


def test_quadrature_matches_uniform_closed_form():
    fam = UniformFamily(gamma=0.9, n_actions=3)
    p = np.array([0.2, 0.3, 0.5])
    assert quadrature_regularizer(fam, p) == pytest.approx(fam.regularizer(p),
                                                           abs=1e-8)


def test_quadrature_skips_zero_mass_components():
    fam = UniformFamily(gamma=0.9, n_actions=2)
    val = quadrature_regularizer(fam, np.array([1.0, 0.0]))
    assert val == pytest.approx(fam.regularizer_terms(np.array([1.0, 0.0])),
                                abs=1e-8)


def test_quadrature_validates_length():
    with pytest.raises(ValueError, match="length-2"):
        quadrature_regularizer(_fam(), np.array([0.5, 0.3, 0.2]))


_MASSES = np.array([1e-6, 1e-3, 0.37, 1.0])


def _mpmath_regularizer(quantile, eta, p, power=1.0):
    """sum_i of the integral of quantile(s, eta_i) over (0, p_i), by mpmath at 30 digits.

    Each integral is taken over v in (0, 1) with s = p_i v^power, which turns
    a quantile that grows like s^(q - 1) near 0 into a bounded integrand when
    power = 1 / q.
    """
    total = 0.0
    with mpmath.workdps(30):
        for e, m in zip(eta.tolist(), p.tolist()):
            e, m = mpmath.mpf(e), mpmath.mpf(m)
            total += float(mpmath.quad(
                lambda v: quantile(m * v ** power, e) * m * power * v ** (power - 1), [0, 1]))
    return total


@pytest.mark.parametrize("q", [None, 0.2, 0.5, 0.95, 1.05, 2.5, 4.0],
                         ids=["exponential", *(f"pareto-q{q}" for q in (0.2, 0.5, 0.95, 1.05, 2.5, 4.0))])
def test_quadrature_matches_a_30_digit_reference(q):
    eta = np.random.default_rng(31).uniform(0.3, 2.5, _MASSES.size)
    gamma = 1.7
    if q is None:
        fam = ExponentialFamily(gamma, eta=eta)
        reference = _mpmath_regularizer(lambda s, e: gamma * (mpmath.log(e / s) - 1), eta, _MASSES)
    else:
        fam = ParetoFamily(gamma, q, eta)
        reference = _mpmath_regularizer(
            lambda s, e: gamma / (q - 1) * (1 - q * (s / e) ** (q - 1)), eta, _MASSES,
            power=1.0 / min(q, 1.0))
    assert quadrature_regularizer(fam, _MASSES) == pytest.approx(reference, rel=0.0, abs=1e-10)


def test_quadrature_matches_exact_tabulated_integrals_across_interior_knots():
    rng = np.random.default_rng(32)
    for _ in range(20):
        tables = []
        for _ in range(_MASSES.size):
            ts = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 1.0, 3)), [1.0]))
            tables.append(np.column_stack((ts, np.cumsum(rng.uniform(0.05, 2.0, 5)) - 2.0)))
        fam = TabulatedFamily(tables)
        p = rng.permutation(_MASSES)
        exact = fam.regularizer_terms(p)
        assert quadrature_regularizer(fam, p) == pytest.approx(exact, rel=0.0, abs=1e-10)


def test_quadrature_finds_a_kink_outside_the_outermost_nodes():
    # at mass 1 the kink at t = 0.002 lies beyond the first panel's outermost
    # node, 0.0043 from its end: all 15 nodes see one straight line
    fam = TabulatedFamily([[[0.0, -5.0], [0.002, 0.0], [1.0, 1.0]]])
    assert quadrature_regularizer(fam, np.array([1.0])) == pytest.approx(
        fam.regularizer_terms(np.array([1.0])), rel=0.0, abs=1e-10)


@pytest.mark.parametrize("fam", [
    ExponentialFamily(gamma=1.0, eta=np.array([1.0, 0.6])),
    ParetoFamily(gamma=2.0, q=0.5, eta=np.array([1.0, 0.6])),
    ParetoFamily(gamma=2.0, q=2.5, eta=np.array([1.0, 0.6])),
], ids=["exponential", "pareto-q0.5", "pareto-q2.5"])
@pytest.mark.parametrize("tiny", [5e-324, 1e-310])
def test_quadrature_is_finite_at_subnormal_masses(fam, tiny):
    p = np.array([1.0, tiny])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = quadrature_regularizer(fam, p)
    assert val == pytest.approx(fam.regularizer_terms(p), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("fam", [
    ExponentialFamily(gamma=1e4, n_actions=3),
    ParetoFamily(gamma=1e4, q=0.5, eta=np.ones(3)),
    ParetoFamily(gamma=1e4, q=2.5, eta=np.array([0.5, 1.0, 2.0])),
    UniformFamily(gamma=1e4, n_actions=3),
    TabulatedFamily([[[0.0, -3e4], [0.4, -1e4 * (i + 1)], [1.0, 2e4]] for i in range(3)]),
], ids=["exponential", "pareto-q0.5", "pareto-q2.5", "uniform", "tabulated"])
def test_quadrature_reaches_large_scales(fam):
    # integrals of order 1e4: roundoff alone exceeds an absolute 1e-12, so
    # each action stops at a bound relative to its value
    p = np.array([0.2, 0.3, 0.5])
    assert quadrature_regularizer(fam, p) == pytest.approx(fam.regularizer(p), rel=1e-10, abs=0.0)


def test_quadrature_names_the_action_with_a_non_finite_quantile(monkeypatch):
    fam = _fam(3)
    kernel = fam._tail_quantile

    def broken(mass):
        out = kernel(mass)
        out[..., 1] = np.nan
        return out

    monkeypatch.setattr(fam, "_tail_quantile", broken)
    with pytest.raises(RuntimeError, match="action 1 met a non-finite quantile"):
        quadrature_regularizer(fam, np.array([0.2, 0.5, 0.3]))
    # an action without mass is never integrated
    assert quadrature_regularizer(fam, np.array([0.4, 0.0, 0.6])) == pytest.approx(
        fam.regularizer_terms(np.array([0.4, 0.0, 0.6])), abs=1e-12)


def test_quadrature_rejects_masses_outside_the_unit_interval():
    with pytest.raises(ValueError, match="masses"):
        quadrature_regularizer(_fam(), np.array([1.2, -0.2]))


# ---------------------------------------------------------------------------
# grid search for 2x2 fixed points


def test_grid_fixed_point_agrees_with_the_solver():
    game = matching_game(2)
    fams = tuple(ExponentialFamily(gamma=3.0, n_actions=2) for _ in range(2))
    solved = fixed_point_iterate(game, fams).profile
    gridded = grid_fixed_point(game, fams, resolution=1e-2)
    assert np.abs(gridded.probs - solved.probs).max() <= 1e-2


def test_grid_fixed_point_loop_fallback():
    game = matching_game(2)
    fams = tuple(ParetoFamily(gamma=3.0, q=1.5, eta=np.array([0.5, 0.5]))
                 for _ in range(2))
    solved = fixed_point_iterate(game, fams).profile
    gridded = grid_fixed_point(game, fams, resolution=0.05)
    assert np.abs(gridded.probs - solved.probs).max() <= 0.05


def test_grid_fixed_point_uniform_closed_form_agrees_with_the_solver():
    rng = np.random.default_rng(12)
    fams = (UniformFamily(0.8, 2),) * 2
    for _ in range(10):
        game = random_game(2, 2, rng)
        solved = fixed_point_iterate(game, fams)
        assert solved.converged
        gridded = grid_fixed_point(game, fams, resolution=1e-3)
        assert np.abs(gridded.probs - solved.profile.probs).max() <= 1e-3


def test_grid_fixed_point_validation():
    fams2 = tuple(_fam() for _ in range(2))
    with pytest.raises(ValueError, match="2-player, 2-action"):
        grid_fixed_point(matching_game(3), tuple(_fam(3) for _ in range(2)))
    with pytest.raises(ValueError, match="per player"):
        grid_fixed_point(matching_game(2), (_fam(),))
    # a 3-action family on the 2-action game is refused, not read in its first two weights
    with pytest.raises(ValueError, match="action count does not match"):
        grid_fixed_point(matching_game(2), [ExponentialFamily(1.0, n_actions=3)] * 2)
    with pytest.raises(ValueError, match="resolution"):
        grid_fixed_point(matching_game(2), fams2, resolution=0.7)

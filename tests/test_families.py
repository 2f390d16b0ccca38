import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgames.analysis import _GRID_EDGE, stability_check, strong_concavity_check
from beliefgames.families import (
    ExponentialFamily,
    ParetoFamily,
    TabulatedFamily,
    UniformFamily,
    family_from_dict,
)
from beliefgames.games import matching_game, random_game
from beliefgames.oracles import finite_difference_gradient, quadrature_regularizer
from beliefgames.response import quantal_response, response_probabilities


def _every_action(t, n):
    """The 1-D grid t repeated for each of n actions: shape (t.size, n)."""
    return np.repeat(np.asarray(t, dtype=float)[:, None], n, axis=1)


def _density_finite_difference(fam, p):
    """Per-action CDF slopes at the quantiles at 1 - p, by central differences."""
    return finite_difference_gradient(lambda s: fam.cdf_vector(s).sum(),
                                      fam.tail_quantile_vector(p))


# ---------------------------------------------------------------------------
# exponential marginals


def test_exponential_cdf_frozen_value():
    fam = ExponentialFamily(gamma=1.0, n_actions=2)
    assert float(fam.cdf(0, 0.0)) == pytest.approx(0.6321205588285577, abs=1e-15)
    assert float(fam.cdf(0, -50.0)) == 0.0  # clipped, no overflow warning


def test_exponential_quantile_inverts_cdf():
    fam = ExponentialFamily(gamma=0.7, eta=np.array([0.5, 1.5, 1.0]))
    t = _every_action([0.01, 0.3, 0.5, 0.9, 0.999], 3)
    np.testing.assert_allclose(fam.cdf_vector(fam.quantile_vector(t)), t, rtol=0.0, atol=1e-12)


def test_exponential_support_and_unbounded_top():
    fam = ExponentialFamily(gamma=2.0, n_actions=2)
    lo, hi = fam.quantile_vector(_every_action([0.0, 1.0], 2))
    np.testing.assert_allclose(lo, -2.0)  # quantile at 0 is gamma (log eta - 1)
    assert np.all(hi == np.inf)


def test_exponential_density_is_mass_over_gamma():
    fam = ExponentialFamily(gamma=0.5, n_actions=2)
    p = np.full(2, 0.3)
    np.testing.assert_allclose(fam.density_vector(p), 0.6)
    # agrees with a finite difference of the CDFs at the quantiles
    np.testing.assert_allclose(_density_finite_difference(fam, p), 0.6, rtol=0.0, atol=1e-6)


def test_exponential_regularizer_is_weighted_entropy():
    fam = ExponentialFamily(gamma=1.0, n_actions=2)
    assert fam.regularizer([0.5, 0.5]) == pytest.approx(np.log(2.0), abs=1e-14)
    assert fam.regularizer([1.0, 0.0]) == 0.0  # 0 log 0 = 0 and log(1/1) = 0
    # adaptive quadrature of the quantile lands on the same number
    generic = quadrature_regularizer(fam, np.array([0.5, 0.5]))
    assert generic == pytest.approx(np.log(2.0), abs=1e-9)


def test_exponential_regularizer_survives_subnormal_masses():
    # eta / p overflows at p = 5e-324; p (log eta - log p) is about 3.7e-321
    fam = ExponentialFamily(gamma=1.0, n_actions=2)
    term = fam.regularizer_terms(np.array([1.0, 5e-324]))
    assert np.isfinite(term)
    assert term == pytest.approx(5e-324 * -np.log(5e-324), rel=0.1)
    # the softmax gives the losing action a subnormal mass; the value is
    # gamma * logaddexp(0, -740), about 4e-322
    res = quantal_response(fam, np.array([0.0, -740.0]))
    assert 0.0 < res.probabilities[1] < 1e-300
    assert res.optimistic_value == pytest.approx(np.logaddexp(0.0, -740.0), abs=1e-300)


def test_exponential_tail_quantile_survives_tiny_masses():
    fam = ExponentialFamily(gamma=1.0, n_actions=2)
    # 1 - (1 - mass) rounds to 0 below float eps; the tail form must not
    mass = 1e-20
    np.testing.assert_allclose(fam.tail_quantile_vector(np.full(2, mass)),
                               np.log(1.0 / mass) - 1.0)
    assert np.all(np.isinf(fam.quantile_vector(np.ones(2))))


def test_exponential_tail_quantile_survives_subnormal_masses():
    # eta / mass overflows at mass 5e-324; gamma (log eta - log mass - 1) is about 743 gamma
    fam = ExponentialFamily(gamma=1.5, eta=np.array([0.7, 2.0]))
    out = fam.tail_quantile_vector([5e-324, 0.5])
    np.testing.assert_allclose(
        out, 1.5 * (np.log(fam.eta) - np.log([5e-324, 0.5]) - 1.0), rtol=1e-15)
    assert np.all(np.isposinf(fam.tail_quantile_vector(np.zeros(2))))


def test_exponential_tail_quantile_keeps_its_bits_where_eta_over_mass_is_finite():
    rng = np.random.default_rng(8)
    fam = ExponentialFamily(gamma=2.3, eta=rng.uniform(0.2, 3.0, 4))
    mass = np.concatenate((10.0 ** rng.uniform(-300.0, 0.0, (50_000, 4)),
                           rng.uniform(0.0, 1.0, (50_000, 4))))
    mass[mass == 0.0] = 0.5
    before = fam.gamma * (np.log(fam.eta / mass) - 1.0)
    assert fam.tail_quantile_vector(mass).tobytes() == before.tobytes()
    # the round loop binds the unguarded kernel while its clamp keeps eta / mass finite
    assert fam._tail_quantile_above(1e-6)(mass).tobytes() == before.tobytes()
    kernel = fam._tail_quantile_above(5e-324)
    assert kernel(mass).tobytes() == before.tobytes()
    assert np.isfinite(kernel(np.full(4, 5e-324))).all()


@pytest.mark.parametrize("fam", [
    ExponentialFamily(gamma=1.5, eta=np.array([0.5, 2.0])),
    ParetoFamily(gamma=1.5, q=0.6, eta=np.array([0.5, 2.0])),
], ids=["exponential", "pareto-q0.6"])
def test_unbounded_top_quantile_is_inf_without_a_warning(fam):
    # the public methods are the paths that pass mass 0 to the kernels; a
    # RuntimeWarning here fails the suite
    assert np.all(np.isposinf(fam.quantile_vector(np.ones(2))))
    assert np.all(np.isposinf(fam.tail_quantile_vector(np.zeros(2))))
    assert np.all(np.isposinf(fam.tail_quantile_vector(np.zeros((3, 2)))))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("make,field", [
    (lambda g: ExponentialFamily(gamma=g, n_actions=2), "gamma"),
    (lambda g: UniformFamily(gamma=g, n_actions=2), "gamma"),
    (lambda g: ParetoFamily(gamma=g, q=1.5, eta=np.ones(2)), "gamma"),
    (lambda q: ParetoFamily(gamma=1.0, q=q, eta=np.ones(2)), "q"),
], ids=["exponential-gamma", "uniform-gamma", "pareto-gamma", "pareto-q"])
def test_nonfinite_scale_and_shape_are_rejected(make, field, bad):
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        make(bad)


def test_exponential_validation():
    with pytest.raises(ValueError, match="gamma"):
        ExponentialFamily(gamma=0.0, n_actions=2)
    with pytest.raises(ValueError, match="eta"):
        ExponentialFamily(gamma=1.0, eta=np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="eta or n_actions"):
        ExponentialFamily(gamma=1.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ExponentialFamily(gamma=1.0, n_actions=2).quantile_vector([1.5, 0.5])


# ---------------------------------------------------------------------------
# uniform marginals


def test_uniform_cdf_frozen_value():
    fam = UniformFamily(gamma=1.0, n_actions=2)
    assert float(fam.cdf(0, 0.0)) == pytest.approx(0.75, abs=1e-15)


def test_uniform_support_and_density():
    fam = UniformFamily(gamma=1.5, n_actions=2)
    lo, hi = fam.quantile_vector(_every_action([0.0, 1.0], 2))
    np.testing.assert_allclose(lo, -4.5)
    np.testing.assert_allclose(hi, 1.5)
    np.testing.assert_allclose(fam.density_vector([0.4, 0.4]), 1.0 / 6.0)
    fam2 = UniformFamily(gamma=1.0, n_actions=2)
    np.testing.assert_allclose(fam2.density_vector([0.9, 0.9]), 0.25)


def test_uniform_regularizer_closed_form():
    fam = UniformFamily(gamma=2.0, n_actions=3)
    assert fam.regularizer([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(0.0, abs=1e-15)
    assert fam.regularizer([1.0, 0.0, 0.0]) == pytest.approx(2.0 * (1.0 - 3.0))
    generic = quadrature_regularizer(fam, np.array([0.2, 0.5, 0.3]))
    assert generic == pytest.approx(fam.regularizer([0.2, 0.5, 0.3]), abs=1e-10)


def test_uniform_quantile_roundtrip_inside_support():
    fam = UniformFamily(gamma=0.8, n_actions=4)
    t = _every_action([0.05, 0.4, 0.75, 1.0], 4)
    np.testing.assert_allclose(fam.cdf_vector(fam.quantile_vector(t)), t, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# generalized Pareto marginals


def test_pareto_with_q_two_matches_uniform():
    n = 3
    uni = UniformFamily(gamma=1.2, n_actions=n)
    par = ParetoFamily(gamma=1.2, q=2.0, eta=np.full(n, 1.0 / n))
    ts = _every_action(np.linspace(0.01, 0.99, 23), n)
    np.testing.assert_allclose(par.quantile_vector(ts), uni.quantile_vector(ts), atol=1e-12)
    np.testing.assert_allclose(par.density_vector(ts), uni.density_vector(ts), atol=1e-12)
    ss = _every_action(np.linspace(-6.0, 1.5, 31), n)
    np.testing.assert_allclose(par.cdf_vector(ss), uni.cdf_vector(ss), atol=1e-12)
    p = np.array([0.2, 0.5, 0.3])
    assert par.regularizer(p) == pytest.approx(uni.regularizer(p), abs=1e-9)


def test_pareto_near_one_approaches_exponential():
    n = 2
    par = ParetoFamily(gamma=0.9, q=1.0001, eta=np.ones(n))
    exp = ExponentialFamily(gamma=0.9, n_actions=n)
    t = _every_action([0.1, 0.5, 0.9], n)
    np.testing.assert_allclose(par.quantile_vector(t), exp.quantile_vector(t), rtol=0.0, atol=2e-4)
    p = np.array([0.4, 0.6])
    assert par.regularizer(p) == pytest.approx(exp.regularizer(p), abs=2e-4)


def test_pareto_tail_quantile_at_eta_is_minus_gamma():
    # the quantile at tail mass eta_i equals -gamma for every shape q
    for q in (0.3, 0.5, 1.7, 2.5):
        fam = ParetoFamily(gamma=0.9, q=q, eta=np.array([0.2, 0.7]))
        np.testing.assert_allclose(fam.tail_quantile_vector(fam.eta), -0.9, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("q", [0.2, 0.5, 1.5, 2.5])
def test_pareto_regularizer_agrees_with_adaptive_quadrature(q):
    fam = ParetoFamily(gamma=0.8, q=q, eta=np.array([0.3, 0.7]))
    p = np.array([0.35, 0.65])
    assert fam.regularizer(p) == pytest.approx(quadrature_regularizer(fam, p), abs=1e-8)


def test_pareto_regularizer_survives_subnormal_and_zero_masses():
    # q near 0 and p_0 = 1e-320: (p/eta)^(q - 1) overflows, (p/eta)^q does not;
    # a zero mass adds nothing, whatever its eta
    fam = ParetoFamily(gamma=1.0, q=0.01, eta=np.array([1.0, 1.0, 5.0]))
    p = np.array([1e-320, 0.5, 0.0])
    expected = sum(x - x ** 0.01 for x in p[:2]) / (0.01 - 1.0)
    assert fam.regularizer_terms(p) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("q", [1.0 - 1e-9, 1.0 + 1e-9])
def test_pareto_regularizer_stays_accurate_as_q_nears_one(q):
    # the q -> 1 limit is the weighted entropy; the gap is O(q - 1) plus rounding,
    # where the plain power form would lose about eps / |q - 1| ~ 1e-7 to cancellation
    eta = np.array([0.3, 0.7])
    p = np.array([0.35, 0.65])
    par = ParetoFamily(gamma=0.9, q=q, eta=eta)
    exp = ExponentialFamily(gamma=0.9, eta=eta)
    assert par.regularizer(p) == pytest.approx(exp.regularizer(p), abs=1e-8)


def test_pareto_density_matches_finite_difference():
    fam = ParetoFamily(gamma=1.1, q=1.6, eta=np.array([0.5, 0.5]))
    for p in (0.1, 0.5, 0.9):
        mass = np.full(2, p)
        np.testing.assert_allclose(fam.density_vector(mass),
                                   _density_finite_difference(fam, mass), rtol=1e-5)


def test_pareto_validation():
    with pytest.raises(ValueError, match="q must"):
        ParetoFamily(gamma=1.0, q=1.0, eta=np.ones(2))
    with pytest.raises(ValueError, match="q must"):
        ParetoFamily(gamma=1.0, q=-0.5, eta=np.ones(2))
    with pytest.raises(ValueError, match="per-action"):
        ParetoFamily(gamma=1.0, q=2.0, eta=1.0)


# ---------------------------------------------------------------------------
# tabulated marginals


def _pareto_cdf_with_errstate(fam, s):
    """The Pareto CDF kernel as it was written with an errstate block, and its w.

    Where w ** (1 / (q - 1)) overflows, the body is -inf and the CDF 0.  Where
    s (q - 1) overflows at a finite s (q > 2 only), w divides by gamma q first.
    """
    q, g = fam.q, fam.gamma
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        shift = s * (q - 1.0)
        w = 1.0 / q - np.where(np.isinf(shift) & np.isfinite(s), s / (g * q) * (q - 1.0),
                               shift / (g * q))
        body = 1.0 - fam.eta * np.power(np.maximum(w, 0.0), 1.0 / (q - 1.0))
    edge = 1.0 if q > 1.0 else 0.0
    return np.where(w > 0.0, np.minimum(np.maximum(body, 0.0), 1.0), edge), w


@pytest.mark.parametrize("q, zero", [(0.5, -2.0), (1.0 - 2.0 ** -7, -128.0),
                                     (1.0 + 2.0 ** -10, 1024.0), (1.5, 2.0), (3.0, 0.5)])
def test_pareto_cdf_is_silent_and_unchanged_beyond_the_support(q, zero):
    # w(s) = 1/q - s (q - 1) / (gamma q) is 0 at s = zero; w <= 0 takes the
    # edge value without raising 0 ** negative.  Far below the support, at
    # w large for q in (1, 2) and at w near 0 for q near 1 from below,
    # w ** (1 / (q - 1)) overflows; the CDF there is 0, without a warning.
    fam = ParetoFamily(1.0, q, np.array([0.5, 1.0, 2.0]))
    s = _every_action(np.array([-1e300, -1e100, zero - 3.0, zero - 1e-6, zero - 1e-9, zero,
                                zero + 1e-9, zero + 1e-6, zero + 3.0, 1e100, 1e300]), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            got = fam.cdf_vector(s)
    want, w = _pareto_cdf_with_errstate(fam, s)
    assert (w < 0.0).any() and (w == 0.0).any() and (w > 0.0).any()
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("eta, q", [
    (5e-324, 1.2), (1e-320, 1.001), (1e-310, 1.5), (9e-309, 1.9),  # no bound verifies
    (1e200, 3.0), (1e300, 3.0), (1.7e308, 2.5), (1e300, 8.0),  # the bound underflows
    (1e-320, 0.99), (1e305, 1.0 - 2.0 ** -52),  # q < 1: w near 0 overflows
])
def test_pareto_cdf_is_silent_and_unchanged_at_extreme_weights(eta, q):
    # Far below the support eta * w ** (1 / (q - 1)) overflows where no clamp
    # bound can verify (eta near the subnormals, q within an ulp of 1) and
    # where the bound underflows (eta huge, q > 2); the CDF there is 0.
    fam = ParetoFamily(1.0, q, np.array([eta, 1.0]))
    zero = 1.0 / (q - 1.0)  # w = 0 here
    near = np.logspace(-300, 3, 60)
    s = _every_action(np.concatenate((-np.logspace(-3, 300, 80), np.logspace(-3, 300, 20),
                                      zero - near, zero + near, [0.0, zero])), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            got = fam.cdf_vector(s)
    want, _ = _pareto_cdf_with_errstate(fam, s)
    assert got.tobytes() == want.tobytes()


@st.composite
def _pareto_cdf_cases(draw):
    """A Pareto family and a stack of CDF arguments, one column per action.

    q lies below 1, within a few ulps of 1 on either side, in (1, 2] or above
    2; gamma and eta range from 1e-300 to 1e300.  The stack holds +-inf,
    +-0.0, the float extremes, the zero of w and the floats a few ulps on
    either side of it, and points spread over the whole float range.
    """
    regime = draw(st.sampled_from(["below", "near one", "middle", "above two"]))
    if regime == "below":
        q = draw(st.floats(1e-3, 0.999))
    elif regime == "near one":
        q = 1.0 + draw(st.sampled_from([-0.5, 1.0])) * draw(st.integers(1, 8)) * 2.0 ** -52
    elif regime == "middle":
        q = draw(st.floats(1.001, 2.0))
    else:
        q = draw(st.floats(2.0, 50.0, exclude_min=True))
    scale = st.floats(-300.0, 300.0).map(lambda k: 10.0 ** k)
    n = draw(st.integers(1, 4))
    fam = ParetoFamily(draw(scale), q, [draw(scale) for _ in range(n)])
    zero = fam.gamma / (q - 1.0)  # w = 0 in exact arithmetic
    near = [zero]
    for direction in (-np.inf, np.inf):
        x = zero
        for _ in range(4):
            x = np.nextafter(x, direction)
            near.append(x)
    spread = draw(st.lists(st.floats(-300.0, 308.0), min_size=1, max_size=8))
    far = [sign * 10.0 ** k for k in spread for sign in (-1.0, 1.0)]
    s = np.array([-np.inf, np.inf, 0.0, -0.0, -1.7e308, 1.7e308, 5e-324, -5e-324,
                  *near, *far])
    return fam, _every_action(s, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_pareto_cdf_cases())
def test_pareto_cdf_kernel_has_the_errstate_formulas_bits_and_is_silent(case):
    fam, s = case
    want, _ = _pareto_cdf_with_errstate(fam, s)
    with np.errstate(over="ignore"):  # the kernel's callers hold this guard
        got = fam._cdf(s)
    assert got.tobytes() == want.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            public = fam.cdf_vector(s)
    assert public.tobytes() == want.tobytes()


def test_pareto_response_far_below_the_support_is_silent():
    # the solver evaluates the dominated actions 3000 below the dominant one,
    # where w ** 1000 overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = response_probabilities(ParetoFamily(1.0, 1.001, [1.0, 1.0, 1.0]), [0.0, 0.0, 3000.0])
    assert p.tolist() == [0.0, 0.0, 1.0]


def test_pareto_cdf_where_w_itself_overflows_is_silent():
    # w = 1/q - s (q - 1) / (gamma q) overflows at |s| = 1e306 with
    # gamma = 1e-3; w = +-inf is the exact limit, far below (CDF 0) or above
    # (CDF 1) the support.  At s = -1e308 with q = 3 only the product
    # s (q - 1) overflows, and the CDF at the finite w is 0 as well
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        below = ParetoFamily(1.0, 3.0, np.array([0.5, 1.0, 2.0])).cdf_vector(np.full(3, -1e308))
        narrow = ParetoFamily(1e-3, 1.5, np.array([0.5, 1.0, 2.0]))
        both = narrow.cdf_vector(_every_action([1e306, -1e306], 3))
        one = narrow.cdf(0, [1e306, -1e306])
    assert below.tolist() == [0.0, 0.0, 0.0]
    assert both.tolist() == [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
    assert one.tolist() == [1.0, 0.0]


def test_pareto_cdf_keeps_its_value_where_only_the_product_overflows():
    # At s = -1e308 with q = 3, s (q - 1) overflows but w = 1/3 + 1e308 / 15 is
    # finite, and with eta = 5e-324 the first CDF is 1 - 5e-324 * sqrt(w) = 1
    fam = ParetoFamily(10.0, 3.0, [5e-324, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far, near = fam.cdf_vector(_every_action([-1e308, -1e307], 2))
    assert far.tolist() == near.tolist() == [1.0, 0.0]
    assert fam.cdf(0, -1e308) == 1.0
    assert fam.cdf_vector([-np.inf, -np.inf]).tolist() == [0.0, 0.0]


def test_pareto_density_is_finite_where_eta_over_gamma_q_overflows():
    # eta / (gamma q) overflows for eta = 1.7e308 and gamma q = 0.75, while the
    # density eta^(q - 1) p^(2 - q) / (gamma q) is about 1.2e154; the action with
    # a finite scale keeps the bits of scale * (p / eta)^(2 - q)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = ParetoFamily(0.5, 1.5, [1.7e308, 1.0])
        dens = fam.density_vector([0.5, 0.5])
    assert dens[0] == pytest.approx(1.7e308 ** 0.5 * 0.5 ** 0.5 / 0.75, rel=1e-14)
    assert dens[1] == 1.0 / (0.5 * 1.5) * np.power(0.5 / 1.0, 2.0 - 1.5)


def test_pareto_density_is_finite_where_p_over_eta_to_the_two_minus_q_overflows():
    # eta = 1e-218 and q = 0.41: (p / eta)^1.59 overflows near p = 1, where the
    # density eta^(q - 1) p^(2 - q) / (gamma q) is about 1e129, so the grid
    # curvature read 0.0 and the stability check warned
    fam = ParetoFamily(1.0, 0.41, [1e-218] * 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = stability_check(random_game(2, 2, np.random.default_rng(1)), (fam, fam))
    top = 1.0 - _GRID_EDGE  # the grid's largest p, where the density peaks
    with mpmath.workdps(40):
        want = 0.41 / (mpmath.mpf(1e-218) ** (0.41 - 1) * mpmath.mpf(top) ** (2 - 0.41))
    for player in report.players:
        assert player.curvature_grid == pytest.approx(float(want), rel=1e-13)
        assert player.curvature_grid >= player.curvature


def test_pareto_regularizer_is_silent_where_p_over_eta_underflows():
    # 5e-324 / 2 underflows to 0: its log is log p - log eta, and its term,
    # about -5e-324, leaves the value at p = 0
    fam = ParetoFamily(1.0, 1.5, [2.0] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = fam.regularizer([0.0, 1.0, 0.0, 5e-324])
    assert value == fam.regularizer([0.0, 1.0, 0.0, 0.0])


def test_pareto_quadrature_is_silent_where_mass_over_eta_underflows():
    # the quadrature evaluates the tail quantile at masses down to 5e-324,
    # where mass / eta underflows to 0; for q < 1 its power must stay finite
    fam = ParetoFamily(1.0, 0.6, [2.0] * 3)
    p = [1 - 2e-323, 1e-323, 1e-323]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = quadrature_regularizer(fam, p)
        tops = fam.tail_quantile_vector(np.full(3, 5e-324))
    assert value == pytest.approx(fam.regularizer(p), abs=1e-8)
    # (5e-324 / 2)^(-0.4), taken as exp(-0.4 (log 5e-324 - log 2))
    want = 1.0 / (0.6 - 1.0) * (1.0 - 0.6 * np.exp(-0.4 * (np.log(5e-324) - np.log(2.0))))
    np.testing.assert_allclose(tops, want, rtol=1e-13)


def test_pareto_log_ratio_forms_keep_their_bits_where_p_over_eta_is_positive():
    # the underflow fallbacks of the regularizer and the tail quantile change
    # no point at which p / eta is a positive float
    rng = np.random.default_rng(31)
    for q in (0.4, 1.6, 2.7):
        fam = ParetoFamily(1.3, q, rng.uniform(0.2, 3.0, 4))
        p = 10.0 ** rng.uniform(-320.0, 0.0, (20_000, 4))
        assert (p / fam.eta > 0.0).all()
        with np.errstate(all="ignore"):  # (p / eta)^(q - 1) overflows at tiny p for q < 1
            logs = np.log(p / fam.eta)
            x = (q - 1.0) * logs
            gaps = np.where(x < 1.0, p * np.expm1(x), fam.eta * np.exp(q * logs) - p)
            reg = -fam.gamma * gaps.sum(axis=-1) / (q - 1.0)
            tail = fam.gamma / (q - 1.0) * (1.0 - q * np.power(p / fam.eta, q - 1.0))
            assert fam._regularizer(p).tobytes() == reg.tobytes()
            assert fam._tail_quantile(p).tobytes() == tail.tobytes()


# Each per-round kernel binds its scalars once as 0-d float64 operands; each
# must give the bits of its formula written with Python floats, with and
# without ``out=`` (the round loop passes the mass array itself).

def _masses(rng, k: int, n: int) -> np.ndarray:
    return np.concatenate((10.0 ** rng.uniform(-12.0, 0.0, (k, n)), rng.uniform(1e-12, 1.0, (k, n))))


def _check_tail_kernel(kernel, mass, want):
    before = mass.copy()
    assert kernel(mass).tobytes() == want.tobytes()
    assert mass.tobytes() == before.tobytes()  # without out=, the argument is left alone
    got = kernel(mass, out=mass)
    assert got is mass
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 3, 7])
def test_exponential_and_uniform_tail_kernels_keep_the_python_float_bits(n):
    rng = np.random.default_rng(40 + n)
    exp = ExponentialFamily(gamma=rng.uniform(0.1, 10.0), eta=rng.uniform(0.2, 3.0, n))
    uni = UniformFamily(gamma=rng.uniform(0.1, 10.0), n_actions=n)
    for mass in (_masses(rng, 500, n), _masses(rng, 1, n)[0]):
        _check_tail_kernel(exp._ratio_tail_quantile, mass.copy(),
                           exp.gamma * (np.log(exp.eta / mass) - 1.0))
        _check_tail_kernel(exp._tail_quantile, mass.copy(),
                           exp.gamma * (np.log(exp.eta / mass) - 1.0))
        _check_tail_kernel(uni._tail_quantile, mass.copy(),
                           uni.gamma * (1.0 - 2.0 * uni.n_actions * mass))


def _pareto_cdf_with_python_floats(fam, s):
    """The Pareto CDF kernel's formula, every scalar a Python float."""
    q, gq = fam.q, fam.gamma * fam.q
    shift = s * (q - 1.0)
    if q - 1.0 > 1.0 and np.minimum.reduce(shift, axis=None) == -np.inf:
        w = 1.0 / q - np.where(shift > -np.inf, shift / gq, s / gq * (q - 1.0))
    else:
        w = 1.0 / q - shift / gq
    inside = w > 0.0
    body = 1.0 - fam.eta * np.power(np.where(inside, w, 1.0), 1.0 / (q - 1.0))
    return np.where(inside, np.maximum(body, 0.0), 1.0 if q > 1.0 else 0.0)


@pytest.mark.parametrize("q", [0.3, 0.7, 1.4, 1.9, 2.6, 5.0])
def test_pareto_kernels_keep_the_python_float_bits(q):
    n = 4
    rng = np.random.default_rng(int(10 * q))
    fam = ParetoFamily(gamma=rng.uniform(0.5, 8.0), q=q, eta=rng.uniform(0.2, 3.0, n))
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (1000, 1))
    s = scale * rng.uniform(-1.0, 1.0, (1000, n))
    far = rng.choice([-1e308, -1e307, 1e308, -np.inf, np.inf], size=(50, n))
    with np.errstate(over="ignore"):  # far from the support: the exact limit
        for stack in (s, s[0], far, np.vstack((s, far))):  # the last two overflow s (q - 1) for q > 2
            assert fam._cdf(stack).tobytes() == _pareto_cdf_with_python_floats(fam, stack).tobytes()
    for mass in (_masses(rng, 500, n), _masses(rng, 1, n)[0]):
        want = fam.gamma / (q - 1.0) * (1.0 - q * np.power(mass / fam.eta, q - 1.0))
        _check_tail_kernel(fam._ratio_tail_quantile, mass.copy(), want)
        _check_tail_kernel(fam._tail_quantile, mass.copy(), want)
        assert fam._tail_quantile_above(1e-12) == fam._ratio_tail_quantile
        dens = fam._density(mass)
        assert dens.tobytes() == (fam.eta / (fam.gamma * q)
                                  * np.power(mass / fam.eta, 2.0 - q)).tobytes()


def _exp_table(gamma: float, points: int = 2001):
    """Tabulate an exponential quantile on a dense grid (top end capped)."""
    fam = ExponentialFamily(gamma=gamma, n_actions=1)
    ts = np.linspace(0.0, 1.0, points)
    ts[-1] = 1.0
    vs = fam.quantile_vector(np.minimum(ts, 0.9995)[:, None])[:, 0]
    return np.column_stack((ts, vs))


def test_tabulated_tracks_its_source_family():
    gamma = 0.9
    table = _exp_table(gamma)
    fam = TabulatedFamily([table, table])
    src = ExponentialFamily(gamma=gamma, n_actions=2)
    t = _every_action([0.1, 0.37, 0.62, 0.9], 2)
    np.testing.assert_allclose(fam.quantile_vector(t), src.quantile_vector(t), rtol=0.0, atol=1e-5)
    s = _every_action([-0.5, 0.0, 1.0], 2)
    np.testing.assert_allclose(fam.cdf_vector(s), src.cdf_vector(s), rtol=0.0, atol=1e-5)
    p = _every_action([0.2, 0.5, 0.8], 2)
    np.testing.assert_allclose(fam.density_vector(p), src.density_vector(p), rtol=1e-2)


def test_tabulated_regularizer_is_exact_for_piecewise_linear():
    table = np.array([[0.0, -3.0], [0.25, -1.0], [0.7, 0.2], [1.0, 1.0]])
    fam = TabulatedFamily([table, table])
    p = np.array([0.45, 0.55])
    exact = fam.regularizer(p)
    generic = quadrature_regularizer(fam, p)
    assert exact == pytest.approx(generic, abs=1e-10)


def test_tabulated_density_is_the_exact_segment_slope():
    # both tables have a knot at t = 0.5, i.e. at p = 0.5; there the density is
    # the slope of the segment starting at the knot, at t = 1 that of the last one
    tables = [np.array([[0.0, -1.0], [0.5, 0.3], [1.0, 1.0]]),
              np.array([[0.0, -2.0], [0.25, -1.1], [0.5, 0.0], [1.0, 0.7]])]
    fam = TabulatedFamily(tables)
    slopes = [np.diff(table[:, 0]) / np.diff(table[:, 1]) for table in tables]
    p = np.array([0.0, 0.2, 0.5, 0.6, 0.75, 1.0])  # t = 1 - p is exact
    expected = np.column_stack((slopes[0][[1, 1, 1, 0, 0, 0]], slopes[1][[2, 2, 2, 1, 1, 0]]))
    np.testing.assert_array_equal(fam.density_vector(_every_action(p, 2)), expected)
    grid = np.linspace(0.0, 1.0, 1001)
    assert fam.density_vector(_every_action(grid, 2)).max() == fam.lipschitz_constant()


def test_tabulated_flat_segment_marks_cdf_not_strictly_increasing():
    strict = TabulatedFamily([np.array([[0.0, -1.0], [0.5, 0.0], [1.0, 1.0]])] * 2)
    flat = TabulatedFamily([np.array([[0.0, -1.0], [0.5, 0.0], [0.8, 0.0], [1.0, 1.0]])] * 2)
    assert strict.strictly_increasing_cdf
    assert not flat.strictly_increasing_cdf


def test_tabulated_validation():
    with pytest.raises(ValueError, match="increase strictly"):
        TabulatedFamily([np.array([[0.0, 0.0], [0.4, 0.5], [0.4, 0.6], [1.0, 1.0]])])
    with pytest.raises(ValueError, match="from 0 to 1"):
        TabulatedFamily([np.array([[0.1, 0.0], [1.0, 1.0]])])
    with pytest.raises(ValueError, match="nondecreasing"):
        TabulatedFamily([np.array([[0.0, 1.0], [1.0, 0.0]])])
    with pytest.raises(ValueError, match="rows"):
        TabulatedFamily([np.array([0.0, 1.0])])


def test_tabulated_tables_wider_than_the_float_range_are_rejected():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"table 0: .* float range: \[-1e\+308, 1e\+308\]"):
            TabulatedFamily([[[0, -1e308], [1, 1e308]], [[0, 0], [1, 1]]])
        # a segment steeper than the float range has an unbounded slope
        assert TabulatedFamily([[[0.0, 0.0], [1.0, 5e-324]]]).lipschitz_constant() == np.inf


def test_tabulated_trapezoids_near_the_float_max_do_not_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = TabulatedFamily([[[0, 1e308], [1, 1.5e308]]] * 2)
        # the whole table's quantile integral, then twice its top half
        assert fam.regularizer_terms(np.array([1.0, 0.0])) == 1.25e308
        assert fam.regularizer_terms(np.array([0.5, 0.5])) == 1.375e308


def test_halved_tabulated_trapezoids_keep_the_bits_of_the_plain_sum():
    rng = np.random.default_rng(8)
    for _ in range(200):
        ts = np.concatenate([[0.0], np.sort(rng.random(5)), [1.0]])
        vs = np.sort(rng.normal(size=7)) * 10.0 ** rng.uniform(-300, 300)
        fam = TabulatedFamily([np.column_stack([ts, vs])] * 2)
        areas = np.diff(ts) * (vs[1:] + vs[:-1]) / 2.0
        tails = np.append(np.cumsum(areas[::-1])[::-1], 0.0)
        assert fam.regularizer_terms(np.array([1.0, 0.0])) == tails[0] + 0.0
        for mass in rng.random(3):
            terms = []
            for a in (1.0 - mass, 1.0 - (1.0 - mass)):  # each action's start, 1 - p_i
                k = min(np.searchsorted(ts, a, side="right"), ts.size - 1)
                terms.append((ts[k] - a) * (np.interp(a, ts, vs) + vs[k]) / 2.0 + tails[k])
            assert fam.regularizer_terms(np.array([mass, 1.0 - mass])) == terms[0] + terms[1]


# ---------------------------------------------------------------------------
# vectorized fast paths stay glued to the scalar definitions


@pytest.fixture(params=["exponential", "uniform", "pareto_heavy", "pareto_light", "tabulated"])
def any_family(request):
    n = 4
    return {
        "exponential": ExponentialFamily(gamma=0.7, eta=np.array([0.5, 1.0, 1.5, 2.0])),
        "uniform": UniformFamily(gamma=1.3, n_actions=n),
        "pareto_heavy": ParetoFamily(gamma=0.9, q=2.5, eta=np.full(n, 0.25)),
        "pareto_light": ParetoFamily(gamma=0.9, q=0.5, eta=np.full(n, 0.25)),
        "tabulated": TabulatedFamily([_exp_table(0.8, 101)] * n),
    }[request.param]


def test_vectorized_methods_match_scalar_loops(any_family):
    fam = any_family
    rng = np.random.default_rng(17)
    n = fam.n_actions
    # a leading batch axis broadcasts: each row has the bits of its own 1-D call
    batch = rng.uniform(0.01, 0.99, size=(5, n))
    for vector in (fam.cdf_vector, fam.quantile_vector, fam.tail_quantile_vector,
                   fam.density_vector):
        got = vector(batch)
        assert got.shape == (5, n)
        for row, values in zip(batch, got):
            np.testing.assert_array_equal(values, vector(row))
    # cdf(i, s) is column i of the CDF kernel on s broadcast to every action
    s = rng.normal(0.0, 2.0, size=7)
    columns = fam.cdf_vector(_every_action(s, n))
    for i in range(n):
        np.testing.assert_array_equal(fam.cdf(i, s), columns[:, i])
        assert fam.cdf(i, float(s[0])) == columns[0, i]


@st.composite
def _kernel_stacks(draw):
    """A family of any kind, Pareto with q below and above 1, and a ``(K, N)`` stack
    of CDF arguments and one of masses for the density and regularizer kernels, with
    K and N around SIMD widths."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["exponential", "uniform", "pareto_light", "pareto_heavy",
                                 "tabulated"]))
    unit = st.floats(0.0, 1.0)
    if kind == "exponential":
        fam = ExponentialFamily(0.2 + 6.0 * draw(unit), eta=[0.2 + 3.0 * draw(unit) for _ in range(n)])
    elif kind == "uniform":
        fam = UniformFamily(0.2 + 6.0 * draw(unit), n)
    elif kind == "tabulated":
        tables = []
        for _ in range(n):
            ts = [0.0, *sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3)))), 1.0]
            tables.append(np.column_stack((ts, np.cumsum([0.05 + 2.0 * draw(unit) for _ in ts]))))
        fam = TabulatedFamily(tables)
    else:
        q = draw(st.floats(0.2, 0.95) if kind == "pareto_light" else st.floats(1.05, 4.0))
        fam = ParetoFamily(0.3 + 8.0 * draw(unit), q, [0.2 + 3.0 * draw(unit) for _ in range(n)])
    k = draw(st.integers(1, 9))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    s = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k * n, max_size=k * n)))
    p = np.array(draw(st.lists(st.floats(1e-300, 1.0), min_size=k * n, max_size=k * n)))
    return fam, s.reshape(k, n), p.reshape(k, n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_kernel_stacks())
def test_stacked_kernel_rows_have_the_bits_of_their_own_calls(case):
    # the generic solver evaluates two CDF points in one (2, N) call and caches
    # each row as if it were its own 1-D call; the concavity check takes the
    # regularizer of all its trials in one call
    fam, s, p = case
    with np.errstate(all="ignore"):  # huge densities at tiny masses for q > 2
        for kernel, x in ((fam._cdf, s), (fam._density, p), (fam._regularizer, p)):
            stacked = kernel(x)
            for row, values in zip(x, stacked):
                assert values.tobytes() == kernel(row).tobytes()


#: CDF arguments over the whole float range, increasing: +-inf, then +-1.8e308 in
#: to +-5e-324, and 0
_MAGNITUDES = np.concatenate(([np.finfo(float).max], np.logspace(308.25, -323.3, 300)))
_WHOLE_RANGE = np.concatenate(([-np.inf], -_MAGNITUDES, [0.0], _MAGNITUDES[::-1], [np.inf]))


@st.composite
def _wide_families(draw):
    """A family of any kind, its scales and weights anywhere from 1e-300 to 1e300;
    a tabulated family's values reach 8e307 in size and may repeat (atoms)."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["exponential", "uniform", "pareto", "tabulated"]))
    scale = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    if kind == "exponential":
        return ExponentialFamily(draw(scale), eta=[draw(scale) for _ in range(n)])
    if kind == "uniform":
        return UniformFamily(draw(scale), n)
    if kind == "pareto":
        q = draw(st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 8.0)))
        return ParetoFamily(draw(scale), q, [draw(scale) for _ in range(n)])
    # values of random sign and size, each table from its own seed
    tables = []
    for _ in range(n):
        ts = [0.0, *sorted(set(draw(st.lists(st.floats(0.01, 0.99), max_size=3)))), 1.0]
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        vs = rng.choice([-1.0, 1.0], len(ts)) * 10.0 ** rng.uniform(-320.0, 307.9, len(ts))
        if draw(st.booleans()):
            vs[1] = vs[0]  # an atom, or a flat top
        tables.append(np.column_stack((ts, np.sort(vs))))
    return TabulatedFamily(tables)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_wide_families())
def test_cdf_is_a_silent_distribution_function_over_the_whole_float_range(fam):
    # the points also take each kink of a CDF (the lower end of the support, a
    # table's knots) and the floats on either side of it
    n = fam.n_actions
    with np.errstate(over="ignore"):
        kinks = fam.quantile_vector(np.zeros(n)).tolist()
    if isinstance(fam, TabulatedFamily):
        kinks += [v for table in fam.to_dict()["table"] for _, v in table]
    kinks = np.array(kinks)
    s = np.unique(np.concatenate((_WHOLE_RANGE, kinks, np.nextafter(kinks, -np.inf),
                                  np.nextafter(kinks, np.inf))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = fam.cdf_vector(np.repeat(s[:, None], n, axis=1))
    assert np.all((values >= 0.0) & (values <= 1.0))
    assert np.all(np.diff(values, axis=0) >= 0.0)
    assert values[0].tolist() == [0.0] * n and values[-1].tolist() == [1.0] * n


def test_action_index_checked(any_family):
    fam = any_family
    for i in (fam.n_actions, -1):
        with pytest.raises(ValueError, match="out of range"):
            fam.cdf(i, 0.0)


def test_nan_arguments_are_rejected(any_family):
    # NaN fails every range test; the CDF takes +-inf (its limits) but not NaN
    fam = any_family
    n = fam.n_actions
    bad = np.full(n, 0.5)
    bad[1] = np.nan
    for method in (fam.quantile_vector, fam.tail_quantile_vector, fam.density_vector,
                   fam.regularizer_terms):
        with pytest.raises(ValueError, match="must lie in"):
            method(bad)
    with pytest.raises(ValueError, match="NaN"):
        fam.cdf_vector(bad)
    with pytest.raises(ValueError, match="NaN"):
        fam.cdf(0, [0.0, np.nan])
    ends = fam.cdf_vector(_every_action([-np.inf, np.inf], n))
    assert ends.tolist() == [[0.0] * n, [1.0] * n]
    assert fam.cdf(1, [-np.inf, np.inf]).tolist() == [0.0, 1.0]


def test_regularizer_requires_simplex_but_terms_do_not():
    fam = ExponentialFamily(gamma=1.0, n_actions=3)
    with pytest.raises(ValueError, match="simplex"):
        fam.regularizer([0.9, 0.9, 0.9])
    with pytest.raises(ValueError, match="finite"):
        fam.regularizer([np.nan, 0.5, 0.5])
    assert np.isfinite(fam.regularizer_terms(np.array([0.9, 0.9, 0.9])))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        fam.regularizer_terms(np.array([1.2, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# analysis hooks and serialization


def test_curvature_and_lipschitz_hooks():
    exp = ExponentialFamily(gamma=0.6, n_actions=3)
    uni = UniformFamily(gamma=0.6, n_actions=3)
    # eta^(q - 1) = 1/sqrt(3) for every action: a slope bound of 1 / (gamma q sqrt(3))
    par = ParetoFamily(gamma=0.6, q=1.5, eta=np.full(3, 1 / 3))
    for fam, curvature in ((exp, 0.6), (uni, 3.6), (par, 0.9 * np.sqrt(3.0))):
        assert fam.lipschitz_constant() == pytest.approx(1.0 / curvature)
        player = stability_check(matching_game(3), (fam, fam)).players[0]
        assert player.curvature == 1.0 / fam.lipschitz_constant()
        assert player.curvature == pytest.approx(curvature)


@pytest.mark.parametrize("fam", [
    ExponentialFamily(gamma=0.4, eta=np.array([0.5, 1.5])),
    UniformFamily(gamma=2.0, n_actions=3),
    ParetoFamily(gamma=1.1, q=2.5, eta=np.array([0.3, 0.7])),
    TabulatedFamily([np.array([[0.0, -1.0], [0.5, 0.0], [1.0, 1.0]])] * 2),
])
def test_family_dict_roundtrip(fam):
    back = family_from_dict(fam.to_dict())
    assert type(back) is type(fam)
    assert back.n_actions == fam.n_actions
    ts = _every_action(np.linspace(0.05, 0.95, 7), fam.n_actions)
    np.testing.assert_allclose(back.quantile_vector(ts), fam.quantile_vector(ts), atol=1e-14)


def test_family_from_dict_validation():
    with pytest.raises(ValueError, match="type"):
        family_from_dict({"gamma": 1.0})
    with pytest.raises(ValueError, match="unknown"):
        family_from_dict({"type": "gaussian"})
    # scalar eta broadcasts over the action count
    fam = family_from_dict({"type": "exponential", "gamma": 2.0, "eta": 0.5}, n_actions=3)
    assert isinstance(fam, ExponentialFamily)
    np.testing.assert_array_equal(fam.eta, [0.5, 0.5, 0.5])
    with pytest.raises(ValueError, match="action"):
        family_from_dict({"type": "uniform", "gamma": 1.0, "actions": 3}, n_actions=2)


# ---------------------------------------------------------------------------
# closed forms against independent readings


@st.composite
def _closed_form_cases(draw):
    """A Pareto or strictly increasing tabulated family and a simplex point.

    Pareto shapes stay 0.05 away from q = 1, where the oracle's quantile
    1 - q (s / eta)^(q - 1) cancels; table knots lie on a 1/100 lattice so
    that the density grid samples the inside of every segment.
    """
    n = draw(st.integers(2, 5))
    unit = st.floats(0.0, 1.0)
    if draw(st.booleans()):
        q = draw(st.one_of(st.floats(0.2, 0.95), st.floats(1.05, 4.0)))
        fam = ParetoFamily(0.3 + 8.0 * draw(unit), q,
                           [0.2 + 3.0 * draw(unit) for _ in range(n)])
    else:
        tables = []
        for _ in range(n):
            knots = sorted(set(draw(st.lists(st.integers(1, 99), max_size=3))))
            ts = [0.0, *(k / 100.0 for k in knots), 1.0]
            steps = [0.05 + 2.0 * draw(unit) for _ in ts]
            tables.append(np.column_stack((ts, np.cumsum(steps) - 1.0)))
        fam = TabulatedFamily(tables)
    # about 30% of the actions get no mass, and a nonzero weight is tiny or
    # subnormal about as often as it is ordinary
    weight = st.one_of(st.floats(0.01, 1.0), st.floats(1e-300, 1e-2),
                       st.floats(5e-324, 1e-300, allow_subnormal=True))
    weights = np.array([draw(weight) if draw(st.integers(0, 9)) >= 3 else 0.0
                        for _ in range(n)])
    if weights.sum() == 0.0:
        weights[0] = 1.0
    return fam, weights / weights.sum()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_closed_form_cases())
def test_closed_forms_match_independent_readings(case):
    fam, p = case
    assert fam.regularizer(p) == pytest.approx(quadrature_regularizer(fam, p), abs=1e-8)

    lipschitz = fam.lipschitz_constant()
    grid = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    dens = fam.density_vector(np.repeat(grid[:, None], fam.n_actions, axis=1))
    assert np.all(dens <= lipschitz * (1.0 + 1e-6))

    report = stability_check(matching_game(fam.n_actions), (fam, fam))
    curvature = 1.0 / lipschitz
    concavity = strong_concavity_check(fam, n_trials=3)
    assert concavity.modulus == curvature
    for player in report.players:
        assert player.curvature == curvature
        if curvature > 0.0:
            assert player.curvature_grid == pytest.approx(curvature, rel=1e-6)
        else:
            assert not player.passed
    if lipschitz == np.inf:
        assert not concavity.verified

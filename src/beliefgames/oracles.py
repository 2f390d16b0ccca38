"""Independent numeric checks: sampling, quadrature, projection, brute force.

Nothing here reuses the closed forms it is meant to confirm.  Expectations of
maxima are estimated by Monte Carlo under explicit couplings of the marginals;
regularizers are integrated by adaptive Gauss-Kronrod quadrature; the sparse
response is rebuilt from a sort-based simplex projection; the generic response
is re-solved by plain bisection, evaluating every midpoint; small fixed points
are located by exhaustive grid search.  All sampling goes through NumPy's
seeded PCG64 generator, so every estimate is reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .families import ExponentialFamily, MarginalFamily, UniformFamily
from .games import Game, StrategyProfile
from .response import _BISECT_MAX_ITER, BISECT_TOL, response_solver

#: quantile arguments are capped at this level so draws stay finite even for
#: unbounded marginals.
_T_CAP = 1.0 - 1e-15

COPULAS = ("independence", "comonotone", "permutation")

#: Monte Carlo draws are made and reduced this many rows at a time.  PCG64
#: fills the blocks in the order of one draw of all n rows, so the estimates
#: keep the one-shot bits in bounded memory.
_BLOCK = 2048


@dataclass(frozen=True)
class SampleEstimate:
    """Monte Carlo estimate with its standard error and provenance."""

    mean: float
    stderr: float
    n: int
    seed: int


def coupling_expected_max(fam: MarginalFamily, u, copula: str, n: int,
                          seed: int = 0) -> SampleEstimate:
    """Estimate E[max_i (u_i + xi_i)] under a specific coupling of marginals.

    Couplings: ``independence`` draws each coordinate from its own marginal
    independently; ``comonotone`` feeds one shared uniform through every
    quantile; ``permutation`` applies a uniformly random coordinate
    permutation to each comonotone draw (a marginal-preserving mixture when
    the marginals are exchangeable), drawn after all n uniforms.
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (fam.n_actions,):
        raise ValueError(f"payoff vector must have length {fam.n_actions}")
    if copula not in COPULAS:
        raise ValueError(f"copula must be one of {COPULAS}")
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(seed)
    k = fam.n_actions
    shared = None if copula == "independence" else np.minimum(rng.random(n), _T_CAP)
    vals = np.empty(n)
    for lo in range(0, n, _BLOCK):
        rows = min(_BLOCK, n - lo)
        if shared is None:
            t = np.minimum(rng.random((rows, k)), _T_CAP)
        else:
            t = shared[lo:lo + rows, None] * np.ones((1, k))
        draws = fam.quantile_vector(t)
        if copula == "permutation":
            perms = rng.permuted(np.tile(np.arange(k), (rows, 1)), axis=1)
            draws = np.take_along_axis(draws, perms, axis=1)
        vals[lo:lo + rows] = (u + draws).max(axis=1)
    return SampleEstimate(
        mean=float(vals.mean()),
        stderr=float(vals.std(ddof=1) / np.sqrt(n)),
        n=n,
        seed=seed,
    )


def gumbel_choice_frequencies(u, scale: float, n: int, seed: int = 0) -> np.ndarray:
    """Frequencies of argmax(u + Gumbel(0, scale) noise) over n draws."""
    u = np.asarray(u, dtype=float)
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    rng = np.random.default_rng(seed)
    counts = np.zeros(u.size, dtype=np.int64)
    for lo in range(0, n, _BLOCK):
        noisy = u + rng.gumbel(0.0, scale, size=(min(_BLOCK, n - lo), u.size))
        counts += np.bincount(np.argmax(noisy, axis=1), minlength=u.size)
    return counts / float(n)


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort and threshold)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a 1-D vector")
    dropped = np.sort(v)[::-1]
    cumulative = (np.cumsum(dropped) - 1.0) / np.arange(1, v.size + 1)
    k = np.nonzero(dropped > cumulative)[0][-1]
    return np.maximum(v - cumulative[k], 0.0)


def finite_difference_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        grad[i] = (f(x + bump) - f(x - bump)) / (2.0 * h)
    return grad


# QUADPACK's Gauss-Kronrod (7, 15) rule: the positive Kronrod nodes on [-1, 1]
# (every other one, from the second, is a Gauss node), then the Kronrod and the
# Gauss weights of the nodes from -1 up to the middle one.
_GK_X = np.array([0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
                  0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
                  0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
                  0.207784955007898467600689403773245])
_GK_WK = np.array([0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
                   0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
                   0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
                   0.204432940075298892414161999234649, 0.209482141084727828012999174891714])
_GK_WG = np.array([0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
                   0.381830050505118944950369775488975, 0.417959183673469387755102040816327])
_KRONROD = np.concatenate((_GK_WK, _GK_WK[-2::-1]))
_GAUSS = np.zeros(15)
_GAUSS[1::2] = np.concatenate((_GK_WG, _GK_WG[-2::-1]))
#: the 15 nodes on [0, 1], and the Kronrod weights and the Kronrod minus the
#: Gauss weights, both scaled to [0, 1]
_GK_NODES = 0.5 * (1.0 + np.concatenate((-_GK_X, [0.0], _GK_X[::-1])))
_GK_WEIGHTS = 0.5 * np.stack((_KRONROD, _KRONROD - _GAUSS))
#: Lagrange weights of the nodes at the left end, 0, and at the right end, 1:
#: the degree-14 interpolant's values there
_GK_ENDS = (np.prod(np.array([[0.0], [1.0]]) - _GK_NODES, axis=1, keepdims=True)
            / (np.array([[0.0], [1.0]]) - _GK_NODES)
            / np.prod(_GK_NODES[:, None] - _GK_NODES + np.eye(15), axis=1))

#: nodes that underflow to 0 (at a subnormal mass) move up to this
_TINY = np.finfo(float).smallest_subnormal
#: which ends of the two halves of a bisected panel are its midpoint
_FRESH_MIDPOINT = np.array([[[False], [True]], [[True], [False]]])

#: the quadrature stops once each action's error estimates sum to at most
#: the larger of this and ``_QUAD_RTOL`` times the magnitude of its value
_QUAD_TOL = 1e-12
_QUAD_RTOL = 1e-11
#: and gives up on an action that would need more panels than this
_QUAD_LIMIT = 1000


def quadrature_regularizer(fam: MarginalFamily, p) -> float:
    """Regularizer by adaptive Gauss-Kronrod quadrature of the quantile integrals.

    An independent route around the families' own closed forms: h(p) = sum_i
    integral over (0, p_i) of the quantile at upper-tail mass s.  Each action
    starts from one G7-K15 panel and bisects its panel of largest error
    estimate until the estimates sum to at most ``_QUAD_TOL``, or to
    ``_QUAD_RTOL`` times the magnitude of its value if that is larger: at
    large scales roundoff alone exceeds an absolute bound.  A panel's
    estimate is its width times |K15 - G7| plus the gaps between the quantile
    and the 15-node interpolant at the panel's ends.  Every step evaluates
    the new points of all actions in one call of the family's tail-quantile
    kernel on a ``(K, N)`` stack.  The integrable singularities at s = 0 are
    never evaluated; a node that underflows to 0 (a subnormal mass) moves to
    the smallest positive float.  Raises RuntimeError, naming the action, on
    a non-finite quantile or when ``_QUAD_LIMIT`` panels do not suffice.
    """
    p = np.asarray(p, dtype=float)
    n = fam.n_actions
    if p.shape != (n,):
        raise ValueError(f"need a length-{n} vector")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("masses must lie in [0, 1]")
    # per panel slot and action: ends, quantiles at the ends, value, error estimate
    lo, hi, at_lo, at_hi, val, err = np.zeros((6, _QUAD_LIMIT, n))
    cols = np.arange(n)
    used = np.ones(n, dtype=int)
    active = p > 0.0
    # The first step takes each interval as one panel; every later step bisects
    # each active action's worst panel, whose left half keeps its slot.  Each
    # step also evaluates the one new panel end: p, then the midpoint.
    slots, starts, ends, new_end = np.zeros((1, n), dtype=int), np.zeros((1, n)), p[None], p
    known, fresh_at = np.zeros((1, 2, n)), np.array([[[False], [True]]])
    while active.any():
        widths = ends - starts
        nodes = (starts[:, None] + widths[:, None] * _GK_NODES[:, None]).reshape(-1, n)
        nodes = np.where(active, np.maximum(np.vstack((nodes, new_end)), _TINY), 1.0)
        values = fam._tail_quantile(nodes)
        bad = active & ~np.isfinite(values).all(axis=0)
        if bad.any():
            raise RuntimeError(
                f"quadrature of action {int(np.argmax(bad))} met a non-finite quantile")
        inner = values[:-1].reshape(-1, 15, n)
        sums = np.einsum("wk,hkn->hwn", _GK_WEIGHTS, inner)
        # a kink between a panel end and its outermost node hides from both rules
        # but not from the interpolant's value at that end
        end_values = np.where(fresh_at, values[-1], known)
        misfit = np.abs(end_values - np.einsum("ek,hkn->hen", _GK_ENDS, inner))
        misfit[:, 0][starts == 0.0] = 0.0
        rows, acts = slots[:, active], cols[active]
        lo[rows, acts], hi[rows, acts] = starts[:, active], ends[:, active]
        at_lo[rows, acts], at_hi[rows, acts] = end_values[:, 0, active], end_values[:, 1, active]
        val[rows, acts] = (widths * sums[:, 0])[:, active]
        err[rows, acts] = (widths * (np.abs(sums[:, 1]) + misfit.sum(axis=1)))[:, active]
        top = used.max()
        bound = np.maximum(_QUAD_TOL, _QUAD_RTOL * np.abs(val[:top].sum(axis=0)))
        active = err[:top].sum(axis=0) > bound
        full = active & (used == _QUAD_LIMIT)
        if full.any():
            i = int(np.argmax(full))
            raise RuntimeError(
                f"quadrature of action {i} did not reach an error estimate of "
                f"{bound[i]:g} within {_QUAD_LIMIT} panels")
        worst = err[:top].argmax(axis=0)
        a, b = lo[worst, cols], hi[worst, cols]
        new_end = a + 0.5 * (b - a)
        slots, starts, ends = np.array((worst, used)), np.array((a, new_end)), np.array((new_end, b))
        known = np.zeros((2, 2, n))
        known[0, 0], known[1, 1] = at_lo[worst, cols], at_hi[worst, cols]
        fresh_at = _FRESH_MIDPOINT
        used = used + active
    return float(val[:used.max()].sum())


def bisection_response(fam: MarginalFamily, u) -> tuple[np.ndarray, float]:
    """Plain bisection for sum_i (1 - F_i(kappa - u_i)) = 1: (p, kappa).

    Evaluates the CDFs at every midpoint.  The package's solver must return
    exactly these bits while skipping the midpoints it has certified.  The
    bracket doubles its step until the sum at its upper end is at most one,
    and fails once that end would overflow.  The bisection stops at the
    first midpoint within BISECT_TOL, or at one that equals an end of the
    bracket (from there every step would repeat it).
    """
    u = np.asarray(u, dtype=float)
    if not fam.strictly_increasing_cdf:
        raise ValueError(
            f"{type(fam).__name__} has a non-strictly-increasing CDF; "
            "the response is not unique"
        )
    n = fam.n_actions
    lows = fam.quantile_vector(np.zeros(n))

    def probs(kappa: float) -> np.ndarray:
        return 1.0 - fam.cdf_vector(kappa - u)

    # kappa - u overflows to its exact limit on rows spanning the float range
    with np.errstate(over="ignore"):
        lo = float(np.min(u + lows))  # here some component hits probability 1
        if n == 1:
            return np.array([1.0]), lo
        hi = float(np.max(u + fam.tail_quantile_vector(np.full(n, 1.0 / n))))
        hi = max(hi, lo + 1e-12)
        step = max(1.0, hi - lo)
        while not probs(hi).sum() <= 1.0:
            if hi + step == np.inf:
                raise RuntimeError(
                    f"bisection bracket failure: sum of probabilities still above 1 at "
                    f"kappa = {hi!r} (lo = {lo!r})"
                )
            hi += step
            step *= 2.0
        for _ in range(_BISECT_MAX_ITER):
            kappa = 0.5 * (lo + hi)
            last = not lo < kappa < hi  # adjacent ends: the next steps would repeat this one
            gap = probs(kappa).sum() - 1.0
            if abs(gap) <= BISECT_TOL:
                break
            if gap > 0.0:
                lo = kappa
            else:
                hi = kappa
            if last:
                break
        p = probs(kappa)
        total = p.sum()
        if not (0.5 < total < 2.0) or abs(total - 1.0) > 1e-9:
            raise RuntimeError(
                f"bisection failed to converge: sum p = {total!r} at kappa = {kappa!r} "
                f"(bracket [{lo!r}, {hi!r}])"
            )
    return p / total, float(kappa)


def grid_fixed_point(game: Game, fams, resolution: float = 1e-2) -> StrategyProfile:
    """Exhaustive grid minimizer of the response residual for 2x2 games.

    Scans the (p_1, p_2) unit square at the given resolution and returns the
    profile with the smallest sup-norm response gap.  Exponential and uniform
    families evaluate closed forms on the whole grid at once; other families
    solve the grid's payoff rows in one :func:`response_solver` call.
    """
    fams = tuple(fams)
    if game.num_players != 2 or game.num_actions != 2:
        raise ValueError("grid search is implemented for 2-player, 2-action games")
    if len(fams) != 2:
        raise ValueError("need one family per player")
    if not 0.0 < resolution <= 0.5:
        raise ValueError("resolution must lie in (0, 0.5]")
    steps = int(round(1.0 / resolution))
    xs = np.linspace(0.0, 1.0, steps + 1)
    x, y = np.meshgrid(xs, xs, indexing="ij")  # rows: p of player 1's action 0

    u1 = game.payoffs[0]
    u2 = game.payoffs[1]
    # expected payoff of each own action against the other player's mix
    u1_a = u1[0, 0] * y + u1[0, 1] * (1.0 - y)
    u1_b = u1[1, 0] * y + u1[1, 1] * (1.0 - y)
    u2_a = u2[0, 0] * x + u2[1, 0] * (1.0 - x)
    u2_b = u2[0, 1] * x + u2[1, 1] * (1.0 - x)

    q1 = _first_component_response(fams[0], u1_a, u1_b)
    q2 = _first_component_response(fams[1], u2_a, u2_b)
    residual = np.maximum(np.abs(x - q1), np.abs(y - q2))
    best = np.unravel_index(int(residual.argmin()), residual.shape)
    px, py = float(xs[best[0]]), float(xs[best[1]])
    return StrategyProfile([[px, 1.0 - px], [py, 1.0 - py]])


def _first_component_response(fam: MarginalFamily, ua: np.ndarray,
                              ub: np.ndarray) -> np.ndarray:
    """First response probability for a 2-action family on a grid of payoffs."""
    if isinstance(fam, ExponentialFamily):
        top = np.maximum(ua, ub)
        wa = fam.eta[0] * np.exp((ua - top) / fam.gamma)
        wb = fam.eta[1] * np.exp((ub - top) / fam.gamma)
        return wa / (wa + wb)
    if isinstance(fam, UniformFamily):
        # projection of u / (4 gamma) onto the 2-simplex
        return np.clip(0.5 * ((ua - ub) / (4.0 * fam.gamma) + 1.0), 0.0, 1.0)
    return response_solver(fam)(np.stack([ua, ub], axis=-1))[..., 0]


def exhaustive_profile_payoff(game: Game, player: int, profile: StrategyProfile) -> float:
    """Expected payoff by brute-force enumeration of pure action profiles.

    Exponentially slower than the tensor contraction it double-checks.
    """
    from itertools import product

    m, n = game.num_players, game.num_actions
    total = 0.0
    for combo in product(range(n), repeat=m):
        weight = 1.0
        for j, a in enumerate(combo):
            weight *= profile.probs[j, a]
        total += weight * float(game.payoffs[player][combo])
    return total

"""Quantal response maps induced by marginal perturbation families.

Given a payoff vector u and a family with regularizer h, the response is the
unique maximizer of ``p . u + h(p)`` over the simplex.  Exponential families
give a weighted softmax, uniform families give a sparse thresholded map, and
everything else is solved through the stationarity system

    u_i + F_i^{-1}(1 - p_i) = kappa   (p_i > 0),

whose scalar unknown kappa is bisected until sum_i p_i(kappa) = 1.  A
safeguarded Newton phase first brackets the root between two points whose
sums certify the sign of every gap beyond them; the bisection then takes
each branch decided by that bracket without evaluating the CDFs, so it
returns the bits plain bisection would, after a fraction of the evaluations.
Where Newton starts changes only which CDFs are evaluated: the solver that
:func:`response_solver` binds starts each row at a predicted kappa, that
row's last kappa plus p . (u_new - u_old) with p its last response.  This
is the first-order step of a predictor-corrector continuation, since
dkappa/du_i = f_i / sum_k f_k over the density terms f, which is p_i for an
exponential family.  The solver calls the family's CDF kernel directly.  The
first certification points on both sides of Newton's root share one call on
a ``(K, N)`` stack with the bisection midpoints they would leave to evaluate
(K <= 5), and the bisection resumes past the midpoints it would skip.  One
function body runs Newton, the certification and the bisection over one
cache of evaluated rows, each with its sum as a Python float.  On 2x3
Pareto games a cold solve evaluates about 9.3 rows in 5.3 kernel calls
(plain bisection: about 41) and takes about 85 us, half of it in the
kernel.  A warm one evaluates about 6.2 rows in 2.3 calls in a fixed-point
sweep or in 40 learning rounds, and 6.0 rows in 2.1 calls over 400 rounds,
and takes about 45 us, 20 of them in the kernel (2-core Intel Xeon VM,
Python 3.11, numpy 2.4).

:func:`response_operator` gives every player's response at once, one
:func:`response_solver` call per group of players with equal families.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .families import ExponentialFamily, MarginalFamily, UniformFamily, _positive_finite
from .games import Game, StrategyProfile, payoff_vector

#: |sum p - 1| target for the kappa bisection.
BISECT_TOL = 1e-12
#: Enough halvings to take any finite bracket down to adjacent floats (about
#: 2100 from the widest); the bisection stops sooner at a midpoint that equals
#: an end, where plain bisection would repeat that step for ever.
_BISECT_MAX_ITER = 2200
#: Newton stops once |sum p - 1| and its step are both this small (the step
#: relative to |kappa|); the next step then lands within the certification
#: step of the root.  Its iterations and the certification tries are capped,
#: since failing only leaves more midpoints to evaluate.
_NEWTON_GAP = 1e-6
_NEWTON_MAX_ITER = 30
_CERT_MAX_TRIES = 6
#: Newton stops at a near-pure iterate: its largest probability and its sum
#: both this close to 1 (see :func:`_bisection_response`).
_KINK = 1e-6
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ResponseResult:
    """Solved response: probabilities, attained value, and solver details.

    ``kkt_multiplier`` is the stationarity constant kappa above (all solver
    routes report it on the same scale, so they can be cross-checked);
    ``solver_tag`` records which route produced the answer.
    """

    probabilities: np.ndarray
    optimistic_value: float
    kkt_multiplier: float
    solver_tag: str


def _check_response_input(fam: MarginalFamily, u, method: str) -> np.ndarray:
    if method not in ("auto", "bisection"):
        raise ValueError("method must be 'auto' or 'bisection'")
    u = np.asarray(u, dtype=float)
    if u.shape != (fam.n_actions,):
        raise ValueError(f"payoff vector must have length {fam.n_actions}")
    if not np.isfinite(u).all():
        raise ValueError("payoff vector must be finite")
    return u


def weighted_softmax(u, eta, gamma: float) -> np.ndarray:
    """Softmax of u / gamma with positive prior weights eta, along the last axis.

    Computed with the max subtracted from the exponent, so any finite inputs
    are safe; components whose exponent underflows come out as exact zeros.
    Each row of a ``(..., N)`` input gets the bits of its own 1-D call.
    """
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if u.ndim < 1 or u.shape[-1] < 1:
        raise ValueError("weighted_softmax needs payoff rows along the last axis")
    if not np.isfinite(u).all():
        raise ValueError("weighted_softmax needs finite payoffs")
    if eta.shape != u.shape[-1:] or not (np.all(eta > 0.0) and np.isfinite(eta).all()):
        raise ValueError(f"eta must hold {u.shape[-1]} positive finite weights")
    return _softmax_rows(u, eta, _positive_finite(gamma, "gamma"))


def _softmax_rows(u: np.ndarray, eta: np.ndarray, gamma: float) -> np.ndarray:
    """:func:`weighted_softmax` of already-valid float arrays.

    ``np.maximum.reduce`` and ``np.add.reduce`` are the ufuncs that ``.max``
    and ``.sum`` call, so skipping the method wrappers keeps every bit.
    """
    z = u / gamma
    w = eta * np.exp(z - np.maximum.reduce(z, axis=-1, keepdims=True))
    return w / np.add.reduce(w, axis=-1, keepdims=True)


def sparsemax(u) -> np.ndarray:
    """Sparse simplex map: p_i = max(u_i - kappa, 0) / (2N).

    The threshold kappa is chosen so the output sums to one; the result
    equals the Euclidean projection of u / (2N) onto the simplex.  kappa
    depends only on the sorted values, so permuting u permutes the output
    exactly.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("sparsemax needs a 1-D vector")
    if not np.isfinite(u).all():
        raise ValueError("sparsemax needs finite inputs")
    return _sparsemax_rows(u)[0]


def _sparsemax_rows(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sparsemax along the last axis of finite ``(..., N)`` rows; kappa is ``(..., 1)``.

    The sort-based simplex projection (Duchi et al., ICML 2008): the support
    size k is the largest j with 2N + j * z_(j) > z_(1) + ... + z_(j) over the
    entries sorted in decreasing order.  Equal entries are equal values, so
    the sort order among ties does not change the sums.  A pure row can
    round a hair above one, so the map is capped at one; that leaves every
    value at or below one unchanged.
    """
    n = u.shape[-1]
    sorted_u = np.sort(u, axis=-1)[..., ::-1]
    cumsum = sorted_u.cumsum(axis=-1)
    j = np.arange(1, n + 1)
    in_support = 2.0 * n + j * sorted_u > cumsum
    k = np.maximum.reduce(j * in_support, axis=-1, keepdims=True)  # j = 1 always qualifies
    top = np.add.reduce(cumsum * (j == k), axis=-1, keepdims=True)  # k-th sum plus exact zeros
    kappa = (top - 2.0 * n) / k
    return np.minimum(np.maximum(u - kappa, 0.0) / (2.0 * n), 1.0), kappa


def _bisection_response(fam: MarginalFamily, u: np.ndarray,
                        start: float | None = None) -> tuple[np.ndarray, float]:
    """Solve sum_i (1 - F_i(kappa - u_i)) = 1 for kappa by bisection.

    Components with kappa - u_i at or above the support's upper end come out
    exactly zero (their CDF saturates at one).  The midpoints are those of
    plain bisection, but a midpoint outside the certified bracket (a, b)
    takes its branch without evaluating the CDFs: the result is the plain
    bisection's, bit for bit.  The computed gap g = sum p - 1 is at least
    ``need`` at a and at most ``-need`` at b.  The computed sum is monotone in
    kappa up to a few ulps per term, and ``need`` exceeds BISECT_TOL by a
    margin above that noise, so the gap computed at any kappa <= a is still
    above BISECT_TOL (and at any kappa >= b below -BISECT_TOL).

    A safeguarded Newton phase from ``start`` locates the root inside the
    sign bracket [lo, hi]: ``start`` is used when it lies strictly inside
    (a warm start, such as the kappa of a nearby payoff vector), otherwise
    Newton begins at hi.  Points a small step to each side of Newton's root
    are then evaluated, the step growing fourfold until that side
    certifies.  Every point Newton or that search evaluates certifies
    wherever its gap allows, and the certified ends combine by max and
    min, so where Newton starts changes only which midpoints are skipped,
    never the result.  Failure only widens the bracket, up to (-inf, inf).

    The first point of each side usually certifies both ends.  So one CDF
    kernel call on a ``(K, N)`` stack evaluates that pair together with the
    midpoints plain bisection from [lo, hi] would evaluate inside it: the
    first midpoint strictly inside, and the first inside midpoint of each
    half the bisection could take next (K <= 5).  Each row and each row sum
    has the bits of its own 1-D call.  When the certified ends are that
    pair, the bisection resumes at the first inside midpoint, with the
    steps of :func:`_walk` before it counted.

    On pure and near-pure responses the root sits at or just below a kink:
    the ``kinks`` entry where the top component's probability reaches one.
    There Newton zigzags across the kink or crawls towards it, while plain
    bisection lands on the flat stretch below it in a few steps.  So Newton
    hands over to the bisection at an iterate whose top probability and sum
    are both within ``_KINK`` of one (a step that overshoots past a kink,
    far from the root, goes on), and at an iterate with a single positive
    component whose kink sums to no more than one.

    Every evaluated row and its sum, as a float, live in one cache keyed by
    kappa, and the per-step tests read Python floats, not numpy reductions.
    ``u`` must be a finite float vector of the family's length, since the
    family's CDF kernel is called on it without validation.
    """
    if not fam.strictly_increasing_cdf:
        raise ValueError(
            f"{type(fam).__name__} has a non-strictly-increasing CDF; "
            "the response is not unique"
        )
    n = fam.n_actions
    lows, tops = fam._response_offsets
    us = u.tolist()
    kinks = list(map(operator.add, us, lows))  # where each component's probability reaches 1
    lo = min(kinks)
    if n == 1:
        return np.array([1.0]), lo
    hi = max(max(map(operator.add, us, tops)), lo + 1e-12)
    if start is None or not lo < start < hi:
        start = hi
    cdf = fam._cdf
    cache: dict = {}  # kappa -> (p, sum p)
    need = BISECT_TOL + max(1e-13, 64.0 * n * _EPS)
    a_cert, b_cert, walked = -np.inf, np.inf, None
    # the solve's one floating-point guard: kappa - u and the CDF kernels
    # overflow to their exact limits on rows far from the support, and Newton's
    # slope evaluates every component's density, unbounded at p = 0 for Pareto q > 2
    with np.errstate(divide="ignore", over="ignore"):
        # Newton inside the sign bracket [a, b]; its midpoint when a step leaves it.
        # No sum exceeds one at hi, so b starts there, unless rounding says otherwise.
        a, b = lo, hi
        kappa, root = float(start), None
        for _ in range(_NEWTON_MAX_ITER):
            p, total = _row(cache, cdf, u, kappa)
            g = total - 1.0
            if g > 0.0:
                a = max(a, kappa)
                if a >= b:
                    b = np.inf
            elif g < 0.0:
                b = min(b, kappa)
            ps = p.tolist()
            big = max(ps)
            if abs(g) <= _KINK and big >= 1.0 - _KINK:
                break
            if ps.count(0.0) == n - 1:
                # the sum is this component's alone, so the root is at or below its kink;
                # a sum of one there means a flat stretch that the bisection hits at once
                kink = kinks[ps.index(big)]
                if a < kink < b and _row(cache, cdf, u, kink)[1] <= 1.0:
                    break
            # -dg/dkappa: the densities of the components inside their support
            f = fam._density(p)
            if not (min(ps) > 0.0 and big < 1.0):
                f = f[(p > 0.0) & (p < 1.0)]
            d = float(np.add.reduce(f))
            if 0.0 < d < np.inf:
                nxt = kappa + g / d
                if abs(g) <= _NEWTON_GAP and abs(nxt - kappa) <= _NEWTON_GAP * max(1.0, abs(kappa)):
                    root = nxt
                    break
            elif g == 0.0:  # every component saturated, and the sum is exactly one
                break
            else:
                nxt = np.nan
            if not a < nxt < b:
                if b == np.inf:
                    break
                nxt = 0.5 * (a + b)
            kappa = nxt
        for x, (_, total) in cache.items():  # so far, the points Newton evaluated
            if total - 1.0 >= need:
                a_cert = max(a_cert, x)
            elif total - 1.0 <= -need:
                b_cert = min(b_cert, x)
        if root is not None:
            first = 1.25 * need / d
            a, b = root - first, root + first
            if a_cert < a and b < b_cert:
                lo_mid, hi_mid, mid, steps = _walk(lo, hi, a, b)
                points = [a, b]
                if mid is not None:
                    walked = lo_mid, hi_mid, steps
                    points.append(mid)
                    for half in ((mid, hi_mid), (lo_mid, mid)):
                        nxt = _walk(*half, a, b)[2]
                        if nxt is not None:
                            points.append(nxt)
                rows = 1.0 - cdf(np.array(points)[:, None] - u)
                cache.update(zip(points, zip(rows, np.add.reduce(rows, axis=-1).tolist())))
            for side in (-1.0, 1.0):
                h = first
                for _ in range(_CERT_MAX_TRIES):
                    x = root + side * h
                    if (x <= a_cert) if side < 0.0 else (x >= b_cert):
                        break
                    g = _row(cache, cdf, u, x)[1] - 1.0
                    if g >= need:
                        a_cert = max(a_cert, x)
                    elif g <= -need:
                        b_cert = min(b_cert, x)
                    elif g == 0.0:  # a flat stretch of saturated components
                        break
                    h *= 4.0
            if a_cert != a or b_cert != b:
                walked = None
        top, step = hi, max(1.0, hi - lo)
        while not (hi >= b_cert or (hi > a_cert and _row(cache, cdf, u, hi)[1] <= 1.0)):
            if hi + step == np.inf:
                raise RuntimeError(
                    f"bisection bracket failure: sum of probabilities still above 1 at "
                    f"kappa = {hi!r} (lo = {lo!r})"
                )
            hi += step
            step *= 2.0
        iters = _BISECT_MAX_ITER
        if walked is not None and hi == top:
            lo, hi, steps = walked
            iters -= steps
        for _ in range(iters):
            kappa = 0.5 * (lo + hi)
            last = not lo < kappa < hi  # adjacent ends: plain bisection repeats this step
            if kappa <= a_cert:
                lo = kappa
            elif kappa >= b_cert:
                hi = kappa
            else:
                gap = _row(cache, cdf, u, kappa)[1] - 1.0
                if abs(gap) <= BISECT_TOL:
                    break
                if gap > 0.0:
                    lo = kappa
                else:
                    hi = kappa
            if last:
                break
        p, total = _row(cache, cdf, u, kappa)
        if not (0.5 < total < 2.0) or abs(total - 1.0) > 1e-9:
            raise RuntimeError(
                f"bisection failed to converge: sum p = {np.float64(total)!r} at "
                f"kappa = {kappa!r} (bracket [{lo!r}, {hi!r}])"
            )
        return p / total, float(kappa)


def _row(cache: dict, cdf, u: np.ndarray, kappa: float) -> tuple[np.ndarray, float]:
    """(p, sum p) at kappa: the cached row, else one CDF kernel call stored in the cache."""
    hit = cache.get(kappa)
    if hit is None:
        p = 1.0 - cdf(kappa - u)
        hit = cache[kappa] = p, float(np.add.reduce(p))
    return hit


def _walk(lo: float, hi: float, a: float, b: float) -> tuple[float, float, float | None, int]:
    """Plain bisection's steps from [lo, hi] while its midpoints lie outside (a, b).

    Returns the bracket at the first midpoint strictly inside (a, b), that
    midpoint and the number of steps before it.  The midpoint is None when
    the iteration cap, or a bracket of adjacent floats, comes first.  A
    midpoint at or below a moves lo and one at or above b moves hi, as the
    bisection does beyond its certified ends.
    """
    for steps in range(_BISECT_MAX_ITER):
        kappa = 0.5 * (lo + hi)
        if a < kappa < b:
            return lo, hi, kappa, steps
        if not lo < kappa < hi:
            break
        if kappa <= a:
            lo = kappa
        else:
            hi = kappa
    return lo, hi, None, _BISECT_MAX_ITER


def response_probabilities(fam: MarginalFamily, u, method: str = "auto") -> np.ndarray:
    """Probabilities of the quantal response, skipping value bookkeeping.

    ``method`` is "auto" (the :func:`response_solver` route) or "bisection"
    (force the generic solver; useful for agreement checks).
    """
    u = _check_response_input(fam, u, method)
    if method == "bisection":
        return _bisection_response(fam, u)[0]
    return response_solver(fam)(u)


def response_solver(fam: MarginalFamily):
    """Bind the family's response route once, for per-round hot loops.

    Returns a callable mapping payoff rows ``(..., N)`` to their response
    probabilities, without input validation: softmax and sparsemax work
    along the last axis, and the generic route solves the rows of a
    ``(-1, N)`` view one at a time.  Each row starts Newton at the kappa of
    the same row in the previous call of the same shape plus p . (u - u_old),
    the change in its payoffs weighted by its last response (the first call,
    and the first after a shape change, start cold).  The prediction is
    computed in Python floats, so one that overflows comes out inf or nan
    without a warning, and the solver ignores it like any start outside the
    bracket.  Each row gets the bits of its own 1-D call.
    """
    if isinstance(fam, ExponentialFamily):
        eta, gamma = fam.eta, fam.gamma
        return lambda u: _softmax_rows(u, eta, gamma)
    if isinstance(fam, UniformFamily):
        gamma = fam.gamma
        return lambda u: _sparsemax_rows(u / gamma)[0]

    shape, last = None, []

    def bisection_rows(u):
        nonlocal shape, last
        rows = u.reshape(-1, u.shape[-1])
        if u.shape != shape:
            shape, last = u.shape, [(np.nan, (), ())] * len(rows)
        out = np.empty_like(rows)
        for k, row in enumerate(rows):
            kappa, p, before = last[k]
            now = row.tolist()
            start = kappa + sum(map(operator.mul, p, map(operator.sub, now, before)))
            p, kappa = _bisection_response(fam, row, start)
            out[k], last[k] = p, (kappa, p.tolist(), now)
        return out.reshape(u.shape)

    return bisection_rows


def _family_groups(families) -> list[tuple[MarginalFamily, list[int], object]]:
    """Players with equal families, each group with one index into the player axis.

    Equal means the same class and the same ``to_dict()``, compared as JSON
    text so that 0.0 and -0.0 stay apart; a family without a JSON form equals
    only itself.  Each distinct object is serialized once.  A group of every
    player indexes with ``slice(None)`` and a group of one with its int, so
    both give views; other groups take an index array.
    """
    keys: dict = {}
    groups: dict = {}
    for j, fam in enumerate(families):
        key = keys.get(id(fam))
        if key is None:
            try:
                key = (type(fam), json.dumps(fam.to_dict(), sort_keys=True))
            except NotImplementedError:
                key = id(fam)
            keys[id(fam)] = key
        groups.setdefault(key, (fam, []))[1].append(j)
    out = []
    for fam, group in groups.values():
        if len(group) == len(families):
            index = slice(None)
        elif len(group) == 1:
            index = group[0]
        else:
            index = np.array(group)
        out.append((fam, group, index))
    return out


def response_operator(families):
    """Bind every player's response once: a callable from ``(..., M, N)`` payoff
    rows (player j's on row j) to the ``(..., M, N)`` responses of ``families``.

    Each group of equal families makes one :func:`response_solver` call, and
    each row gets the bits of its own :func:`response_probabilities` call.
    When all players form one group, that group's solver answers directly.
    Rows are not validated; a failing solve raises RuntimeError naming the
    player.
    """
    groups = [(response_solver(fam), group, (..., index, slice(None)))
              for fam, group, index in _family_groups(families)]

    if len(groups) == 1:
        solve, group, _ = groups[0]

        def respond_all(u: np.ndarray) -> np.ndarray:
            try:
                return solve(u)
            except (ValueError, RuntimeError) as exc:
                _name_failing_player(solve, group, u, exc)

        return respond_all

    def respond(u: np.ndarray) -> np.ndarray:
        out = np.empty(u.shape)
        for solve, group, rows in groups:
            try:
                out[rows] = solve(u[rows])
            except (ValueError, RuntimeError) as exc:
                _name_failing_player(solve, group, u, exc)
        return out

    return respond


def _name_failing_player(solve, group: list[int], u: np.ndarray, exc: Exception):
    """Re-raise a group's failed solve as a RuntimeError naming the player.

    The group's rows are solved singly, and the first that fails names its
    player; if none fails alone, the error names the whole group.
    """
    for j in group:
        try:
            solve(u[..., j, :])
        except (ValueError, RuntimeError) as single:
            raise RuntimeError(f"player {j}: {single}") from single
    raise RuntimeError(f"players {group}: {exc}") from exc


def quantal_response(fam: MarginalFamily, u, method: str = "auto") -> ResponseResult:
    """Maximize ``p . u + h(p)`` over the simplex for payoff vector u."""
    u = _check_response_input(fam, u, method)
    if method == "auto" and isinstance(fam, ExponentialFamily):
        p = weighted_softmax(u, fam.eta, fam.gamma)
        z = u / fam.gamma
        m = float(z.max())
        lse = m + np.log(np.dot(fam.eta, np.exp(z - m)))
        kappa = fam.gamma * lse - fam.gamma
        tag = "softmax"
    elif method == "auto" and isinstance(fam, UniformFamily):
        p, kappa_star = _sparsemax_rows(u / fam.gamma)
        kappa = fam.gamma * (1.0 + kappa_star[0])
        tag = "sparsemax"
    else:
        p, kappa = _bisection_response(fam, u)
        tag = "bisection"
    value = float(np.dot(p, u)) + fam.regularizer(p)
    return ResponseResult(p, value, float(kappa), tag)


def optimistic_value(fam: MarginalFamily, u) -> float:
    """Value of the response problem: max over the simplex of p . u + h(p)."""
    return quantal_response(fam, u).optimistic_value


def smooth_payoff(game: Game, player: int, profile: StrategyProfile,
                  fam: MarginalFamily) -> float:
    """Player's expected payoff plus the perturbation value of their own mix."""
    u = payoff_vector(game, player, profile)
    return float(np.dot(profile.player(player), u)) + fam.regularizer(profile.player(player))


def smooth_payoff_gradient(game: Game, player: int, profile: StrategyProfile,
                           fam: MarginalFamily) -> np.ndarray:
    """Gradient of :func:`smooth_payoff` in the player's own probabilities.

    Component i is ``u_i + F_i^{-1}(1 - p_i)``.  Raises when some p_i = 0
    meets an unbounded quantile; clamp the profile away from the boundary
    before calling in that case.
    """
    u = payoff_vector(game, player, profile)
    grad = u + fam.quantile_vector(1.0 - profile.player(player))
    if not np.all(np.isfinite(grad)):
        raise ValueError(
            "gradient is infinite at a boundary probability; clamp the profile "
            "away from 0 before differentiating"
        )
    return grad

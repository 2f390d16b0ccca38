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
returns the bits plain bisection would, after a fraction of the evaluations
(see :func:`_kkt_solve`).  Where the solve starts changes only which CDFs
are evaluated, so the solver that :func:`response_solver` binds starts each
row at a kappa predicted from its last solve, by the derivative of the root
in the payoffs, and certifies a close prediction in one CDF kernel call,
with no Newton step.  That solver binds each family's operands
(:func:`_kkt_route`) with each new call shape, and holds one ``np.errstate``
for all the rows of a call.  On 2x3 Pareto games a cold solve evaluates
about 9.3 rows in 5.3 CDF kernel calls (plain bisection: about 41).  In the
learning dynamics a warm solve evaluates about 5.4 rows in 1.35 calls over
400 rounds (1.68 calls over 40), and 97 in 100 warm solves (7 in 10 over 40
rounds) take the one-call path, which evaluates at most 5 rows.  A warm
solve takes about 26 us, about 5 us of it in the CDF kernel (about 3.5 us
per Pareto call); the rest is numpy call overhead and the walk and
bisection steps in Python (2-core Intel Xeon VM, Python 3.11, numpy 2.4).
A row whose solve fails at its own level, far above the family's scale, is
solved again as u - max u (:func:`_kkt_solve_or_shift`).  The sparse map is
one kernel, :func:`_sparsemax_rows`, that every sparsemax route calls.

A route is chosen in one place for each call shape: the single-row calls
:func:`response_probabilities` and :func:`quantal_response` validate a row
and solve it, with its kappa, in one body (:func:`_solve_row`), and
:func:`response_solver` binds the route once for unvalidated ``(..., N)``
stacks, written into ``out`` and without kappa.  :func:`response_operator`
gives every player's response at once: one :func:`response_solver` call for
all players when they hold one family object or families that differ only in
eta, one per player otherwise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .families import (_ONE, _ZERO, ExponentialFamily, MarginalFamily, ParetoFamily,
                       UniformFamily, _positive_finite, _stack_eta)
from .games import Game, StrategyProfile, payoff_vector

#: |sum p - 1| target for the kappa bisection.
BISECT_TOL = 1e-12
#: |sum p - 1| bound on every response: the generic solver's acceptance test.
_RESPONSE_TOL = 1e-9
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
#: both this close to 1 (see :func:`_kkt_solve`).
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


def weighted_softmax(u, eta, gamma: float) -> np.ndarray:
    """Softmax of u / gamma with positive prior weights eta, along the last axis.

    Computed with the max subtracted from the exponent, so any finite inputs
    are safe; components whose exponent underflows come out as exact zeros.
    A row whose u / gamma overflows is taken as u - max u, the same response.
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
    gamma = _positive_finite(gamma, "gamma")
    with np.errstate(over="ignore"):  # a row whose u / gamma overflows is taken as u - max u
        wide = ~np.isfinite(np.divide(u, gamma)).all(axis=-1, keepdims=True)
        top = np.maximum.reduce(u, axis=-1, keepdims=True)
        return _softmax_rows(np.where(wide, u - top, u), eta, gamma)


def _softmax_rows(u: np.ndarray, eta: np.ndarray, gamma: float, out=None) -> np.ndarray:
    """:func:`weighted_softmax` of already-valid float arrays, written into ``out``.

    ``np.maximum.reduce`` and ``np.add.reduce`` are the ufuncs that ``.max``
    and ``.sum`` call, so skipping the method wrappers keeps every bit, and
    each operation after ``u / gamma`` runs in place on that one array.
    """
    w = np.divide(u, gamma, out=out)
    np.subtract(w, np.maximum.reduce(w, axis=-1, keepdims=True), out=w)
    np.exp(w, out=w)
    np.multiply(eta, w, out=w)
    return np.divide(w, np.add.reduce(w, axis=-1, keepdims=True), out=w)


def sparsemax(u) -> np.ndarray:
    """Sparse simplex map: p_i = max(u_i - kappa, 0) / (2N).

    The threshold kappa is chosen so the output sums to one; the result
    equals the Euclidean projection of u / (2N) onto the simplex.  kappa
    depends only on the sorted values, so permuting u permutes the output
    exactly.  Raises ValueError where |u| is too large for a sum within 1e-9.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise ValueError("sparsemax needs a 1-D vector")
    return response_probabilities(UniformFamily(1.0, u.size), u)


def _sparsemax_rows(z: np.ndarray, j: np.ndarray, two_n) -> tuple[np.ndarray, np.ndarray]:
    """Sparsemax along the last axis of finite ``(..., N)`` rows, written over ``z``.

    Returns ``z`` and kappa, ``(..., 1)``, given the float ``j = arange(1,
    N + 1)`` and ``two_n`` = 2N.  The sort-based simplex projection (Duchi et
    al., ICML 2008): the support size k is the largest j, and at least 1, with
    2N + j * z_(j) > z_(1) + ... + z_(j) over the entries sorted in
    decreasing order (negated, sorted ascending and negated: all exact).
    Ties are equal values, so their order does not change the sums.  A pure
    row can round a hair above one, so the map is capped at one.
    """
    s = np.negative(z)
    s.sort(axis=-1)
    np.negative(s, out=s)
    c = np.add.accumulate(s, axis=-1)
    np.greater(np.add(two_n, np.multiply(j, s, out=s), out=s), c, out=s)  # j in the support
    k = np.maximum.reduce(np.multiply(j, s, out=s), axis=-1, keepdims=True, initial=1.0)
    kappa = np.vecdot(c, np.equal(j, k, out=s), keepdims=True)  # k-th sum plus exact zeros
    np.divide(np.subtract(kappa, two_n, out=kappa), k, out=kappa)
    np.maximum(np.subtract(z, kappa, out=z), _ZERO, out=z)
    np.minimum(np.divide(z, two_n, out=z), _ONE, out=z)
    if j.size == 1:  # z - kappa reads 0 only where 2N is lost; one action always gets 1
        z[z == 0.0] = 1.0
    return z, kappa


def _bisection_response(fam: MarginalFamily, u: np.ndarray,
                        start: float | None = None) -> tuple[np.ndarray, float]:
    """Solve sum_i (1 - F_i(kappa - u_i)) = 1 for kappa: one row, bound and guarded here.

    The direct solve of one row, with the bits of plain bisection
    (``oracles.bisection_response``) or its error, from a Newton phase at
    ``start``: it binds the family's operands (:func:`_kkt_route`) and runs
    :func:`_kkt_solve` inside its own ``np.errstate``, as the solver of
    :func:`response_solver` does once per call for all its rows.  The public
    routes add the shifted retry of :func:`_kkt_solve_or_shift`.  ``u`` must
    be a float vector of the family's length; a row with a NaN or an
    infinite entry raises RuntimeError.
    """
    route = _kkt_route(fam)
    # the solve's one floating-point guard: kappa - u overflows on rows near the
    # float range and the CDF kernels outside the support, each to its exact
    # limit, and Newton's slope evaluates every component's density, unbounded
    # at p = 0 for Pareto q > 2
    with np.errstate(divide="ignore", over="ignore"):
        return _kkt_solve(route, u, start)[:2]


def _kkt_route(fam: MarginalFamily) -> tuple:
    """The generic route's per-family operands, which a bound solver takes once.

    ``(cdf, density, lows, tops, need)``: the CDF and density kernels, the
    response offsets (:attr:`MarginalFamily._response_offsets`) and the
    certification margin ``need`` of :func:`_kkt_solve`.  Raises ValueError
    for a family whose response is not unique or whose bracket lies beyond
    the float range.
    """
    if not fam.strictly_increasing_cdf:
        raise ValueError(
            f"{type(fam).__name__} has a non-strictly-increasing CDF; "
            "the response is not unique"
        )
    lows, tops = fam._response_offsets
    need = BISECT_TOL + max(1e-13, 64.0 * fam.n_actions * _EPS)
    return fam._cdf, fam._density, lows, tops, need


def _kkt_solve_or_shift(route: tuple, u: np.ndarray, start: float | None, slope: float | None,
                        us: list | None = None,
                        out: np.ndarray | None = None) -> tuple[np.ndarray, float, tuple | None, bool]:
    """:func:`_kkt_solve`, retried on u - max u where a finite row fails.

    A response depends only on u - max u, but the direct solve works at the
    row's own level, where kappa - u_i loses digits as |u| grows far beyond
    the family's scale: there the bisection can end on one float with a sum
    away from one, or its bracket overflow.  Where the direct solve raises
    (bisection failed to converge, or a bracket failure), the shifted row is
    solved cold and kappa + max u reported.  Rows that solve directly keep
    their bits; a non-finite row still raises at once, and where the
    shifted solve fails too, the direct solve's error stands.  ``us`` and
    ``out`` are passed on to :func:`_kkt_solve`; a failed solve writes nothing.
    """
    try:
        return _kkt_solve(route, u, start, slope, us, out)
    except RuntimeError as exc:
        top = float(np.maximum.reduce(u))
        if top == 0.0 or not np.isfinite(u).all():  # nothing to shift, or the guard's row
            raise
        try:
            p, kappa = _kkt_solve(route, u - top, None, None, None, out)[:2]
        except RuntimeError:
            raise exc from None
        return p, kappa + top, None, False


def _kkt_solve(route: tuple, u: np.ndarray, start: float | None, slope: float | None = None,
               us: list | None = None,
               out: np.ndarray | None = None) -> tuple[np.ndarray, float, tuple | None, bool]:
    """Solve sum_i (1 - F_i(kappa - u_i)) = 1 for kappa by bisection.

    Returns ``(p, kappa, weights, accurate)``: the response and its kappa,
    then what a bound solver keeps for the row's next start (see
    :func:`response_solver`).  ``route`` comes from :func:`_kkt_route`, and
    the caller holds the ``np.errstate`` of :func:`_bisection_response`.  A
    row with a NaN or an infinite entry raises RuntimeError at once: its
    bracket would never close.

    Components with kappa - u_i at or above the support's upper end come out
    exactly zero (their CDF saturates at one).  The midpoints are those of
    plain bisection, but a midpoint outside the certified bracket (a, b)
    takes its branch without evaluating the CDFs: the result is the plain
    bisection's, bit for bit.  The computed gap g = sum p - 1 is at least
    ``need`` at a and at most ``-need`` at b.  The computed sum is monotone in
    kappa up to a few ulps per term, and ``need`` exceeds BISECT_TOL by a
    margin above that noise, so the gap computed at any kappa <= a is still
    above BISECT_TOL (and at any kappa >= b below -BISECT_TOL).  Every
    evaluated point certifies wherever its gap allows, and the certified ends
    combine by max and min, so where the solve starts changes only which
    midpoints are skipped, never the result.  Failure only widens the
    bracket, up to (-inf, inf).

    ``start`` is used when it lies strictly inside the sign bracket [lo, hi]
    (a warm start, such as a kappa predicted from a nearby payoff vector).
    Given also ``slope``, the sum of the densities at the row's last Newton
    iterate, the solve first tries its one-call path: one CDF kernel call on
    a ``(K, N)`` stack (K <= 5) evaluates the pair ``start -+ h``, h =
    2 ``need`` / ``slope``, with the midpoints plain bisection from
    [lo, hi] would evaluate inside it (see :func:`_evaluate_pair`).  When the
    pair certifies both ends, the bisection resumes at the first inside
    midpoint, with no Newton step and no density call.  Otherwise, and on
    every solve without a slope, the Newton phase of :func:`_newton_bracket`
    runs from ``start`` (or from hi) with the evaluated rows in its cache.

    ``weights`` is ``(f, sum f)``, the densities of Newton's last iterate as
    a list, 0.0 outside 0 < p_i < 1, or None when no Newton iterate took a
    density.  ``accurate`` says that the start was close: its one-call path
    certified, or Newton's first gap, at ``start``, was within 2 ``need``.

    Every evaluated row and its sum, as a float, live in one cache keyed by
    kappa, and the per-step tests read Python floats, not numpy reductions.
    ``us`` is ``u.tolist()`` when the caller has read it already.  The
    response p / sum p is written into ``out`` when it is given, a float
    vector of the row's length, and returned; nothing is written when the
    solve raises.
    """
    cdf, density, lows, tops, need = route
    if us is None:
        us = u.tolist()
    if not all(map(math.isfinite, us)):
        raise RuntimeError(f"payoff row {us} is not finite")
    kinks = list(map(operator.add, us, lows))  # where each component's probability reaches 1
    lo = min(kinks)
    if len(us) == 1:
        p = np.empty(1) if out is None else out
        p.fill(1.0)
        return p, lo, None, False
    hi = max(max(map(operator.add, us, tops)), lo + 1e-12)
    warm = start is not None and lo < start < hi
    cache: dict = {}  # kappa -> (p, sum p)
    a_cert, b_cert, weights, accurate = -np.inf, np.inf, None, False
    if warm and slope is not None:
        h = 2.0 * need / slope
        a, b = start - h, start + h
        walked = _evaluate_pair(cache, cdf, u, lo, hi, a, b)
        for x in (a, b):
            g = cache[x][1] - 1.0
            if g >= need:
                a_cert = max(a_cert, x)
            elif g <= -need:
                b_cert = min(b_cert, x)
        accurate = a_cert == a and b_cert == b
    if not accurate:
        a_cert, b_cert, walked, weights = _newton_bracket(
            cache, cdf, density, u, kinks, lo, hi, need, float(start) if warm else hi, a_cert,
            b_cert)
        accurate = warm and abs(cache[start][1] - 1.0) <= 2.0 * need
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
    if not (0.5 < total < 2.0) or abs(total - 1.0) > _RESPONSE_TOL:
        raise RuntimeError(
            f"bisection failed to converge: sum p = {np.float64(total)!r} at "
            f"kappa = {kappa!r} (bracket [{lo!r}, {hi!r}])"
        )
    return np.divide(p, total, out=out), float(kappa), weights, accurate


def _newton_bracket(cache: dict, cdf, density, u: np.ndarray, kinks: list, lo: float,
                    hi: float, need: float, kappa: float, a_cert: float,
                    b_cert: float) -> tuple[float, float, tuple | None, tuple | None]:
    """The Newton phase of :func:`_kkt_solve`: ``(a_cert, b_cert, walked, weights)``.

    A safeguarded Newton iteration from ``kappa`` locates the root inside
    the sign bracket [lo, hi].  Points a small step to each side of Newton's
    root are then evaluated, the step growing fourfold until that side
    certifies.  Every point evaluated here certifies wherever its gap allows,
    on top of the certified ends given.

    The first point of each side usually certifies both ends, so it is
    evaluated in one kernel call with the bisection's midpoints inside the
    pair (:func:`_evaluate_pair`).  ``walked`` is the bisection's bracket at
    the first inside midpoint and the steps before it, when the certified
    ends are that pair; else None.  ``weights`` is ``(f, sum f)`` at the last
    iterate that took a density (see :func:`_kkt_solve`), or None.

    On pure and near-pure responses the root sits at or just below a kink:
    the ``kinks`` entry where the top component's probability reaches one.
    There Newton zigzags across the kink or crawls towards it, while plain
    bisection lands on the flat stretch below it in a few steps.  So Newton
    hands over to the bisection at an iterate whose top probability and sum
    are both within ``_KINK`` of one (a step that overshoots past a kink,
    far from the root, goes on), and at an iterate with a single positive
    component whose kink sums to no more than one.
    """
    n = len(kinks)
    # Newton inside the sign bracket [a, b]; its midpoint when a step leaves it.
    # No sum exceeds one at hi, so b starts there, unless rounding says otherwise.
    a, b = lo, hi
    root, weights, walked = None, None, None
    for _ in range(_NEWTON_MAX_ITER):
        p, total = _row(cache, cdf, u, kappa)
        g = total - 1.0
        if g > 0.0:
            a = max(a, kappa)
            if a >= b:
                b = np.inf
            if g >= need:
                a_cert = max(a_cert, kappa)
        elif g < 0.0:
            b = min(b, kappa)
            if g <= -need:
                b_cert = min(b_cert, kappa)
        ps = p.tolist()
        big = max(ps)
        if abs(g) <= _KINK and big >= 1.0 - _KINK:
            break
        if ps.count(0.0) == n - 1:
            # the sum is this component's alone, so the root is at or below its kink;
            # a sum of one there means a flat stretch that the bisection hits at once
            kink = kinks[ps.index(big)]
            if a < kink < b:
                gap = _row(cache, cdf, u, kink)[1] - 1.0
                if gap >= need:
                    a_cert = max(a_cert, kink)
                elif gap <= -need:
                    b_cert = min(b_cert, kink)
                if gap <= 0.0:
                    break
        # -dg/dkappa: the densities of the components inside their support
        f = density(p)
        if not (min(ps) > 0.0 and big < 1.0):
            f[(p <= 0.0) | (p >= 1.0)] = 0.0
        d = float(np.add.reduce(f))
        if 0.0 < d < np.inf:
            weights = f, d
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
    if weights is not None:
        weights = weights[0].tolist(), weights[1]
    if root is not None:
        first = 1.25 * need / d
        a, b = root - first, root + first
        if a_cert < a and b < b_cert:
            walked = _evaluate_pair(cache, cdf, u, lo, hi, a, b)
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
    return a_cert, b_cert, walked, weights


def _evaluate_pair(cache: dict, cdf, u: np.ndarray, lo: float, hi: float, a: float,
                   b: float) -> tuple[float, float, int] | None:
    """Evaluate a < b in one CDF kernel call with the midpoints plain bisection
    from [lo, hi] would evaluate inside (a, b), and cache every row.

    The midpoints are the first strictly inside (a, b) and the first inside
    midpoint of each half the bisection could take next, so the ``(K, N)``
    stack has K <= 5 rows, each row and each row sum with the bits of its own
    1-D call.  Returns the bisection's bracket at that first inside midpoint
    and the steps of :func:`_walk` before it, or None when there is none: the
    bisection resumes there when a and b are its certified ends.
    """
    lo_mid, hi_mid, mid, steps = _walk(lo, hi, a, b)
    points, walked = [a, b], None
    if mid is not None:
        walked = lo_mid, hi_mid, steps
        points.append(mid)
        for half in ((mid, hi_mid), (lo_mid, mid)):
            nxt = _walk(*half, a, b)[2]
            if nxt is not None:
                points.append(nxt)
    rows = cdf(np.array(points)[:, None] - u)
    np.subtract(_ONE, rows, out=rows)
    cache.update(zip(points, zip(rows, np.add.reduce(rows, axis=-1).tolist())))
    return walked


def _row(cache: dict, cdf, u: np.ndarray, kappa: float) -> tuple[np.ndarray, float]:
    """(p, sum p) at kappa: the cached row, else one CDF kernel call stored in the cache."""
    hit = cache.get(kappa)
    if hit is None:
        p = cdf(kappa - u)
        np.subtract(_ONE, p, out=p)
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
        if lo < kappa <= a:
            lo = kappa
        elif b <= kappa < hi:
            hi = kappa
        elif a < kappa < b:
            return lo, hi, kappa, steps
        else:  # a midpoint that equals an end (adjacent ends), or that overflowed
            break
    return lo, hi, None, _BISECT_MAX_ITER


def _solve_row(fam: MarginalFamily, u, method: str) -> tuple[np.ndarray, np.ndarray, float, str]:
    """Validate one payoff row and solve it: ``(u, p, kappa, route)``, u as floats.

    The routes and bits of :func:`response_solver`, plus each route's kappa.
    Where u / gamma overflows, which the bound closed forms leave NaN,
    softmax takes u - max u and sparsemax raises its scale error.
    """
    if method not in ("auto", "bisection"):
        raise ValueError("method must be 'auto' or 'bisection'")
    u = np.asarray(u, dtype=float)
    if u.shape != (fam.n_actions,):
        raise ValueError(f"payoff vector must have length {fam.n_actions}")
    if not np.isfinite(u).all():
        raise ValueError("payoff vector must be finite")
    if method == "auto" and isinstance(fam, ExponentialFamily):
        with np.errstate(over="ignore"):  # u - max u where u / gamma overflows, kappa shifted back
            top = 0.0 if np.isfinite(u / fam._gamma).all() else float(u.max())
            v = u - top
            z = v / fam._gamma
            p = _softmax_rows(v, fam.eta, fam._gamma)
        m = float(z.max())
        kappa = fam.gamma * (m + np.log(np.dot(fam.eta, np.exp(z - m)))) - fam.gamma
        return u, p, top + kappa, "softmax"
    if method == "auto" and isinstance(fam, UniformFamily):
        # u / gamma past the float range leaves a NaN sum, which raises below
        with np.errstate(over="ignore", invalid="ignore"):
            p, kappa = _sparsemax_rows(u / fam._gamma, np.arange(1.0, fam.n_actions + 1),
                                       fam._two_n)
        total = float(np.add.reduce(p))
        if not abs(total - 1.0) <= _RESPONSE_TOL:
            scale = float(np.abs(u).max()) / fam.gamma
            raise ValueError(f"sparsemax sums to {total!r} at |u| / gamma = {scale:.3g}, "
                             "where 2N is lost in rounding")
        return u, p, fam.gamma * (1.0 + kappa[0]), "sparsemax"
    route = _kkt_route(fam)
    with np.errstate(divide="ignore", over="ignore"):  # as in _bisection_response
        p, kappa = _kkt_solve_or_shift(route, u, None, None)[:2]
    return u, p, kappa, "bisection"


def response_probabilities(fam: MarginalFamily, u, method: str = "auto") -> np.ndarray:
    """Probabilities of the quantal response, skipping value bookkeeping.

    ``method`` is "auto" (the family's closed form where it has one) or
    "bisection" (force the generic solver; useful for agreement checks).  A
    sparsemax row that misses the simplex by more than 1e-9 raises ValueError.
    """
    return _solve_row(fam, u, method)[1]


def response_solver(fam: MarginalFamily):
    """Bind the family's response route once, for per-round hot loops.

    Returns ``solve(u, out=None)``, mapping payoff rows ``(..., N)`` to their
    response probabilities (into ``out`` if given) without input validation:
    softmax and sparsemax work along the last axis on operands bound here,
    and the generic route solves the rows of a ``(-1, N)`` view one by one.
    A family with etas stacked to ``(M, N)`` (see :func:`_family_groups`)
    takes ``(..., M, N)`` rows: softmax broadcasts its etas, and the generic
    route solves row k with the operands of player k % M's own family.

    Each generic row starts at the kappa of the same row in the previous call
    of the same shape plus w . (u - u_old), with w = f / sum f, the densities
    of its last Newton iterate at the quantiles (0 outside 0 < p_i < 1):
    implicit differentiation of sum_i (1 - F_i(kappa - u_i)) = 1 gives
    d kappa / d u_i = f_i / sum f.  A row whose Newton phase took no density
    (a near-pure one) keeps its last w, or else weighs by its response p, as
    softmax's f, proportional to p, does.  Where the row's last start was
    close (see :func:`_kkt_solve`), the solve tries the one-call path with
    its last sum f.  The first call, and the first after a shape change,
    start cold.  The prediction is computed in Python floats, so one that
    overflows comes out inf or nan without a warning, and the solver ignores
    it like any start outside the bracket.  A row that fails at its own level
    is solved as u - max u (:func:`_kkt_solve_or_shift`).  Each row's floats,
    read once for its prediction, go on to the solve, which writes the row's
    response into its row of ``out`` in place.  Each row gets the bits of its
    own :func:`response_probabilities` call.
    """
    if isinstance(fam, ExponentialFamily):
        eta, gamma = fam.eta, fam._gamma  # gamma as its 0-d operand
        return lambda u, out=None: _softmax_rows(u, eta, gamma, out)
    if isinstance(fam, UniformFamily):
        gamma, j, two_n = fam._gamma, np.arange(1.0, fam.n_actions + 1), fam._two_n
        return lambda u, out=None: _sparsemax_rows(np.divide(u, gamma, out=out), j, two_n)[0]

    members = getattr(fam, "_members", (fam,))  # a stacked group's own families
    shape, last, routes = None, [], []

    def bisection_rows(u, out=None):
        nonlocal shape, last, routes
        rows = u.reshape(-1, u.shape[-1])
        if u.shape != shape:
            bound = []
            for k, member in enumerate(members):
                try:
                    bound.append(_kkt_route(member))
                except ValueError as exc:
                    exc._row = k  # the failing member, whose player response_operator names
                    raise
            # row k of a stacked group's (..., M, N) rows is player k % M's
            routes = bound * (len(rows) // len(members))
            shape, last = u.shape, [(np.nan, ((), 1.0), (), False)] * len(rows)
        out = np.empty(u.shape) if out is None else out
        solved = out.reshape(rows.shape, copy=False)  # a view of out's rows
        with np.errstate(divide="ignore", over="ignore"):  # as in _bisection_response
            for k, (row, route) in enumerate(zip(rows, routes)):
                kappa, (f, d), before, accurate = last[k]
                now = row.tolist()
                start = kappa + sum(map(operator.mul, f, map(operator.sub, now, before))) / d
                try:
                    p, kappa, weights, accurate = _kkt_solve_or_shift(
                        route, row, start, d if accurate else None, now, solved[k])
                except RuntimeError as exc:
                    exc._row = k  # the failing row, whose player response_operator names
                    raise
                if weights is None:  # no Newton density: keep the last, else weigh by p
                    weights = (f, d) if accurate else (p.tolist(), 1.0)
                last[k] = kappa, weights, now, accurate
        return out

    return bisection_rows


def _family_groups(families) -> list[tuple[MarginalFamily, list[int], int | slice]]:
    """The players' groups for shared family work, each with its index into the player axis.

    One rule, read off the families themselves.  When every player has the
    same object, they are one group, indexed by ``slice(None)``, with that
    family.  When they are all exponential, or all Pareto, of one class and
    one action count, with equal gamma (and q), they are one group too, with
    their etas stacked to ``(M, N)`` (``families._stack_eta``).  Otherwise
    each player is their own group, indexed by their int.  Both indices give
    views.  So equal uniform or tabulated families share a group only as one
    object, as a config that gives its family once builds them.
    """
    first, players = families[0], list(range(len(families)))
    if all(fam is first for fam in families):
        return [(first, players, slice(None))]
    kind = type(first)
    if kind in (ExponentialFamily, ParetoFamily) and all(
            type(fam) is kind and fam.n_actions == first.n_actions and fam.gamma == first.gamma
            and getattr(fam, "q", None) == getattr(first, "q", None) for fam in families):
        return [(_stack_eta(families), players, slice(None))]
    return [(fam, [j], j) for j, fam in enumerate(families)]


def response_operator(families):
    """Bind every player's response once: ``respond(u, out=None)`` maps
    ``(..., M, N)`` payoff rows (player j's on row j) to the ``(..., M, N)``
    responses of ``families``, into ``out`` when it is given.

    When all players have one family object, or families that differ only
    in eta, one :func:`response_solver` answers for every player directly:
    softmax broadcasts the stacked etas, and the generic route solves each
    row with its own player's operands.  Otherwise each player's solver
    answers for their rows (see :func:`_family_groups`).  Each row gets the
    bits of its own :func:`response_probabilities` call.  Rows are not
    validated; a generic solve that fails marks its row on the error (or the
    member whose route fails to bind), which is raised again as a
    RuntimeError naming that row's player, with no row solved again.
    """
    groups = [(response_solver(fam), group, (..., index, slice(None)))
              for fam, group, index in _family_groups(tuple(families))]

    def name(exc: Exception, group: list[int]) -> None:
        """Raise a failure its solver marked again, naming the player of the marked row."""
        if hasattr(exc, "_row"):
            raise RuntimeError(f"player {group[exc._row % len(group)]}: {exc}") from exc

    if len(groups) == 1:
        solve, group, _ = groups[0]

        def respond_all(u: np.ndarray, out=None) -> np.ndarray:
            try:
                return solve(u, out=out)
            except (ValueError, RuntimeError) as exc:
                name(exc, group)
                raise

        return respond_all

    def respond(u: np.ndarray, out=None) -> np.ndarray:
        out = np.empty(u.shape) if out is None else out
        for solve, group, rows in groups:
            try:
                solve(u[rows], out=out[rows])
            except (ValueError, RuntimeError) as exc:
                name(exc, group)
                raise
        return out

    return respond


def quantal_response(fam: MarginalFamily, u, method: str = "auto") -> ResponseResult:
    """Maximize ``p . u + h(p)`` over the simplex for payoff vector u."""
    u, p, kappa, tag = _solve_row(fam, u, method)
    value = float(np.dot(p, u)) + fam.regularizer_terms(p)  # p sums to one within 1e-9
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

    Component i is ``u_i + F_i^{-1}(1 - p_i)``, the quantile taken in its tail
    form at mass p_i (:meth:`MarginalFamily.tail_quantile_vector`), as the
    learning dynamics take it, so tiny p_i keep their digits.  Raises when
    some p_i = 0 meets an unbounded quantile; clamp the profile away from the
    boundary before calling in that case.
    """
    u = payoff_vector(game, player, profile)
    grad = u + fam.tail_quantile_vector(profile.player(player))
    if not np.all(np.isfinite(grad)):
        raise ValueError(
            "gradient is infinite at a boundary probability; clamp the profile "
            "away from 0 before differentiating"
        )
    return grad

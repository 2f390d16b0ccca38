"""Per-action marginal distributions of payoff perturbations.

A family bundles one CDF per action, and every query asks for all N at once:
arrays broadcast, and their last axis is the action axis.  Three things are
derived from the CDFs:

* quantiles, used by the learning dynamics and by sampling oracles;
* densities evaluated at quantiles, which set the curvature of the induced
  regularizer (and hence stability margins);
* the concave regularizer itself, ``h(p) = sum_i integral of the quantile
  over [1 - p_i, 1]``, whose maximization over the simplex defines the
  quantal response.

Every shipped family gives the density, the regularizer and the CDF slope
bound in closed form; the base class has no numeric fallback for them.

The CDF kernels run bare: outside the support an intermediate can overflow
to inf, which IEEE arithmetic carries to the exact limit, a CDF of 0 or 1.
The guard that silences that overflow belongs to their callers: the public
CDF methods, the generic KKT solve and the plain-bisection oracle.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .games import _check_simplex_rows, _field, _integer, _known_fields, _real, _reals

def _check_unit(t, domain: str = "[0, 1]") -> np.ndarray:
    """t as a float array inside ``domain``, the unit interval with or without ends."""
    arr = np.asarray(t, dtype=float)
    above_bottom = arr > 0.0 if domain[0] == "(" else arr >= 0.0
    below_top = arr < 1.0 if domain[-1] == ")" else arr <= 1.0
    if not (above_bottom & below_top).all():  # NaN fails both
        raise ValueError(f"argument must lie in {domain}")
    return arr


def _check_not_nan(s: np.ndarray) -> np.ndarray:
    if np.isnan(s).any():
        raise ValueError("CDF argument must not be NaN")
    return s


def _positive_finite(value, name: str) -> float:
    value = float(value)
    if not (value > 0.0 and np.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")
    return value


def _scalar(out):
    """0-d results come back as plain floats; arrays pass through."""
    return out if np.ndim(out) else float(out)


def _operand(value) -> np.ndarray:
    """``value`` as a read-only 0-d float64 array: a ufunc operand bound once.

    Under NumPy 2's promotion rules a ufunc call converts a Python float
    operand on every call, which a 0-d array skips.  The bits are those of the
    Python float.  Never bind a scalar as an ``(N,)``-shaped array instead: an
    ``np.power`` exponent of that shape takes another SIMD loop, whose bits
    differ.
    """
    out = np.array(float(value))
    out.setflags(write=False)
    return out


_ZERO, _ONE = _operand(0.0), _operand(1.0)
#: the smallest normal float, the floor of every CDF slope bound
_TINY = 2.0 ** -1022


class MarginalFamily:
    """Base class: N per-action marginals plus the induced regularizer.

    Subclasses write each formula once, as a kernel on arrays whose last axis
    is the action axis: ``_cdf``, then ``_tail_quantile`` or ``_quantile``
    (each defaults to the other), and ``_density``, ``_regularizer`` and
    :meth:`lipschitz_constant`, which have no default.  The ``*_vector``
    methods validate once and call the kernels; the kernels take valid
    arrays only, and ``_cdf`` runs bare and returns a new array, which the
    generic solve overwrites with 1 - F.  The quantile methods, the only
    paths that pass an unbounded end, silence its divide-by-zero; the CDF
    methods silence the kernel's overflow outside the support, as the
    generic solve, which calls ``_cdf`` directly, does.
    """

    #: The p-interval on which the density at the quantile is defined.
    density_domain = "(0, 1)"

    #: False for families whose CDF has flat stretches strictly inside (0, 1),
    #: which break uniqueness of the quantal response.
    strictly_increasing_cdf = True

    def __init__(self, n_actions: int) -> None:
        if n_actions < 1:
            raise ValueError("need at least one action")
        self.n_actions = int(n_actions)

    # -- argument checks and kernel defaults ---------------------------------

    def _action(self, i) -> int:
        i = operator.index(i)
        if not 0 <= i < self.n_actions:
            raise ValueError(f"action index {i} out of range")
        return i

    def _actions_last(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (self.n_actions,):
            raise ValueError(f"last axis must hold the {self.n_actions} actions")
        return x

    def _quantile(self, t):
        return self._tail_quantile(1.0 - t)

    def _tail_quantile(self, mass, out=None):
        """Quantiles at 1 - mass; written into ``out`` when it is given."""
        values = self._quantile(1.0 - mass)
        if out is None:
            return values
        out[...] = values
        return out

    def _tail_quantile_above(self, floor: float):
        """A kernel equal to ``_tail_quantile`` on masses of at least ``floor`` > 0.

        A loop that clamps its masses binds it once; a family whose kernel
        pays for a guard at tiny masses returns a leaner one when ``floor``
        is above them.  Each takes ``out=``, which may be the mass array.
        """
        return self._tail_quantile

    def _density(self, p):
        """CDF slope at the quantile at 1 - p_i, per action."""
        raise NotImplementedError

    def _regularizer(self, p):
        """Sum over actions of the quantile integral over [1 - p_i, 1]."""
        raise NotImplementedError

    # -- batched queries: the last axis is the action axis -------------------

    def cdf_vector(self, s) -> np.ndarray:
        """Per-action CDF values: component i is F_i(s_i); s may be +-inf, not NaN."""
        s = _check_not_nan(self._actions_last(s))
        with np.errstate(over="ignore"):  # outside the support: the exact limit
            return self._cdf(s)

    def quantile_vector(self, t) -> np.ndarray:
        """Per-action left quantiles: component i is F_i^{-1}(t_i).

        t = 0 gives the lower end of the support; t = 1 gives the upper end,
        which is +inf for unbounded marginals.
        """
        t = _check_unit(self._actions_last(t))
        with np.errstate(divide="ignore"):  # t = 1: the unbounded top
            return self._quantile(t)

    def tail_quantile_vector(self, mass) -> np.ndarray:
        """Per-action quantiles at 1 - mass_i, stable for tiny tail masses.

        Closed-form families evaluate directly in the mass variable, so
        masses far below float epsilon do not collapse onto t = 1.
        """
        mass = _check_unit(self._actions_last(mass))
        with np.errstate(divide="ignore"):  # mass 0: the unbounded top
            return self._tail_quantile(mass)

    def density_vector(self, p) -> np.ndarray:
        """Per-action densities at the quantiles: F_i' at F_i^{-1}(1 - p_i)."""
        return self._density(_check_unit(self._actions_last(p), self.density_domain))

    def cdf(self, i: int, s):
        """F_i evaluated at s (scalar or array): column i of the CDF kernel on s.

        The only per-action query.  It stays for callers that read one
        marginal at points of their own, such as a KKT condition check;
        everything else asks for all N actions through the vector methods.
        """
        i = self._action(i)
        s = _check_not_nan(np.asarray(s, dtype=float))
        every = np.broadcast_to(s[..., None], s.shape + (self.n_actions,))
        with np.errstate(over="ignore"):  # outside the support: the exact limit
            return _scalar(self._cdf(every)[..., i])

    # -- response bracket ----------------------------------------------------

    @functools.cached_property
    def _response_offsets(self) -> tuple[list[float], list[float]]:
        """Quantiles at 0 and at 1 - 1/N, which bracket every response's kappa.

        At kappa = min_i(u_i + lows_i) some component has probability one; at
        kappa = max_i(u_i + tops_i) every component has at most 1/N.  Both
        depend only on the family, so they are computed once, as float lists.
        Both are finite in exact arithmetic, so an infinite one has overflowed.
        """
        n = self.n_actions
        with np.errstate(over="ignore"):
            lows = self.quantile_vector(np.zeros(n))
            tops = self.tail_quantile_vector(np.full(n, 1.0 / n))
        if not (np.isfinite(lows).all() and np.isfinite(tops).all()):
            raise ValueError(f"{type(self).__name__} {self.to_dict()}: the response bracket "
                             "lies beyond the float range")
        return lows.tolist(), tops.tolist()

    # -- regularizer ---------------------------------------------------------

    def regularizer_terms(self, p):
        """Sum over actions of the quantile integral over [1 - p_i, 1], per row.

        One value per row of p, a float for a single row.  Unlike
        :meth:`regularizer` this does not require the rows to be on the
        simplex, which makes it usable inside finite-difference checks.
        """
        return _scalar(self._regularizer(_check_unit(self._actions_last(p))))

    def regularizer(self, p):
        """Concave perturbation value h(p) of each simplex row of p."""
        return self.regularizer_terms(_check_simplex_rows(p))

    # -- analysis hooks ------------------------------------------------------

    def lipschitz_constant(self) -> float:
        """Common Lipschitz constant of the CDFs, in closed form; inf if unbounded.

        It is the largest density at any quantile of any action, and its
        reciprocal is the regularizer's curvature, the side of the stability
        condition that must beat the payoff coupling.  A closed form that
        underflows is rounded up to the smallest normal float, which is still
        an upper bound and has a finite reciprocal.
        """
        raise NotImplementedError

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        raise NotImplementedError


class ExponentialFamily(MarginalFamily):
    """Shifted-exponential marginals with per-action weights eta.

    F_i(s) = max(0, 1 - eta_i * exp(-s / gamma - 1)).  The induced
    regularizer is the weighted entropy gamma * sum_i p_i log(eta_i / p_i)
    and the quantal response is a weighted softmax.
    """

    density_domain = "(0, 1]"

    def __init__(self, gamma: float, eta=None, n_actions: int | None = None) -> None:
        eta = np.asarray(1.0 if eta is None else eta, dtype=float)
        if eta.ndim == 0:
            if n_actions is None:
                raise ValueError("give a per-action eta or n_actions")
            eta = np.full(n_actions, float(eta))
        super().__init__(eta.size)
        self.gamma = _positive_finite(gamma, "gamma")
        if np.any(eta <= 0.0) or not np.all(np.isfinite(eta)):
            raise ValueError("eta must be positive and finite")
        self.eta = eta.copy()
        self.eta.setflags(write=False)
        self._gamma = _operand(self.gamma)

    def _cdf(self, s):
        return np.maximum(0.0, 1.0 - self.eta * np.exp(-s / self.gamma - 1.0))

    def _log_ratio(self, mass):
        """log(eta / mass); log eta - log mass where eta / mass overflows (a subnormal mass)."""
        with np.errstate(over="ignore"):
            ratio = self.eta / mass
        return np.where(ratio < np.inf, np.log(ratio), np.log(self.eta) - np.log(mass))

    def _tail_quantile(self, mass, out=None):
        values = np.subtract(self._log_ratio(mass), _ONE, out=out)
        return np.multiply(self._gamma, values, out=values)

    def _ratio_tail_quantile(self, mass, out=None):
        """``_tail_quantile`` for masses at which every eta / mass is finite.

        gamma (log(eta / mass) - 1), one ufunc call per operation, each after
        the first in place.
        """
        values = np.divide(self.eta, mass, out=out)
        np.log(values, out=values)
        np.subtract(values, _ONE, out=values)
        return np.multiply(self._gamma, values, out=values)

    def _tail_quantile_above(self, floor: float):
        with np.errstate(over="ignore"):
            finite = bool(np.all(self.eta / floor < np.inf))
        return self._ratio_tail_quantile if finite else self._tail_quantile

    def _density(self, p):
        return p / self.gamma

    def _regularizer(self, p):
        # p log(eta/p) with the 0 log 0 = 0 convention
        logs = self._log_ratio(np.where(p > 0.0, p, 1.0))
        return self.gamma * np.where(p > 0.0, p * logs, 0.0).sum(axis=-1)

    def lipschitz_constant(self) -> float:
        return max(1.0 / self.gamma, _TINY)

    def to_dict(self) -> dict:
        return {"type": "exponential", "gamma": self.gamma, "eta": self.eta.tolist()}


class UniformFamily(MarginalFamily):
    """Identical uniform marginals on [gamma * (1 - 2N), gamma].

    F(s) = min(1, max(0, 1 - ((1/2) - s / (2 gamma)) / N)).  The induced
    regularizer is gamma * (sum_i p_i - N sum_i p_i^2) and the quantal
    response is the sparse thresholded map (see ``response.sparsemax``).
    """

    density_domain = "[0, 1]"

    def __init__(self, gamma: float, n_actions: int) -> None:
        super().__init__(n_actions)
        self.gamma = _positive_finite(gamma, "gamma")
        self._gamma, self._two_n = _operand(self.gamma), _operand(2.0 * self.n_actions)

    def _cdf(self, s):
        raw = 1.0 - (0.5 - s / (2.0 * self.gamma)) / self.n_actions
        return np.clip(raw, 0.0, 1.0)

    def _tail_quantile(self, mass, out=None):
        # gamma (1 - 2N mass), one ufunc call per operation
        values = np.multiply(self._two_n, mass, out=out)
        np.subtract(_ONE, values, out=values)
        return np.multiply(self._gamma, values, out=values)

    def _density(self, p):
        return np.full_like(p, 1.0 / (2.0 * self.gamma * self.n_actions))

    def _regularizer(self, p):
        return self.gamma * (p.sum(axis=-1) - self.n_actions * np.vecdot(p, p))

    def lipschitz_constant(self) -> float:
        return max(1.0 / (2.0 * self.gamma * self.n_actions), _TINY)

    def to_dict(self) -> dict:
        return {"type": "uniform", "gamma": self.gamma, "actions": self.n_actions}


class ParetoFamily(MarginalFamily):
    """Generalized Pareto marginals with shape q > 0 (q != 1) and weights eta.

    F_i(s) = max(0, 1 - eta_i * w(s)^(1/(q-1))) on its support, where
    w(s) = 1/q - s (q - 1) / (gamma q).  The quantile has the closed form
    F_i^{-1}(1 - p) = gamma / (q - 1) * (1 - q (p / eta_i)^(q - 1)), and so
    does the regularizer, gamma / (q - 1) * sum_i (p_i - eta_i (p_i / eta_i)^q).
    q -> 1 recovers the exponential family and q = 2 with eta = 1/N recovers
    the uniform family.  The density at the quantile, eta_i^(q - 1) p^(2 - q)
    / (gamma q), peaks at p = 1 for q <= 2; for q > 2 it is unbounded near
    p = 0, and the regularizer is not strongly concave.
    """

    density_domain = "(0, 1]"

    def __init__(self, gamma: float, q: float, eta) -> None:
        eta = np.asarray(eta, dtype=float)
        if eta.ndim == 0:
            raise ValueError("eta must be a per-action vector")
        super().__init__(eta.size)
        self.gamma = _positive_finite(gamma, "gamma")
        self.q = _positive_finite(q, "q")
        if self.q == 1.0:
            raise ValueError("q must be different from 1")
        if np.any(eta <= 0.0) or not np.all(np.isfinite(eta)):
            raise ValueError("eta must be positive and finite")
        self.eta = eta.copy()
        self.eta.setflags(write=False)
        q = self.q
        # the kernels' scalars as 0-d operands, each rounded as its formula rounds
        # it; the last is the floor of w, which takes w <= 0 to the CDF's value
        # beyond the zero of w (see _cdf)
        self._cdf_constants = tuple(map(_operand, (
            1.0 / q, q - 1.0, self.gamma * q, 1.0 / (q - 1.0), 0.0 if q > 1.0 else 5e-324)))
        self._tail_constants = tuple(map(_operand, (self.gamma / (q - 1.0), q, q - 1.0)))
        # the density is scale * (p / eta)^(2 - q), with scale = eta / (gamma q);
        # where that quotient overflows (eta near the float maximum, gamma q < 1),
        # or (1 / eta)^(2 - q) does, and so the power near p = 1 (tiny eta, q < 2),
        # it is eta^(q - 1) / (gamma q) * (p / 1)^(2 - q) instead
        with np.errstate(over="ignore"):
            scale = self.eta / (self.gamma * q)
            wide = (scale == np.inf) | (np.power(1.0 / self.eta, 2.0 - q) == np.inf)
            self._density_constants = (
                np.where(wide, np.power(self.eta, q - 1.0) / (self.gamma * q), scale),
                np.where(wide, 1.0, self.eta), _operand(2.0 - q))

    def _cdf(self, s):
        inv_q, q_less_1, gq, power, floor = self._cdf_constants
        w = np.multiply(s, q_less_1)
        # for q > 2 that product can overflow to -inf where its quotient by gq is
        # finite (to +inf, w and its exact value both lie above the support);
        # in a stack that holds such a product, those entries divide first
        if self.q > 2.0 and np.minimum.reduce(w, axis=None) == -np.inf:
            w = inv_q - np.where(w > -np.inf, w / gq, s / gq * q_less_1)
        else:
            np.subtract(inv_q, np.divide(w, gq, out=w), out=w)
        # w > 0 is at least the floor, so only w <= 0 moves, and no w is -0.0.  For
        # q > 1 it moves to 0, whose power is 0 and body 1, the CDF above the
        # support.  For q < 1 the exponent is at most -1, so the floor's power
        # overflows to inf, as it does far below the support for either q; the
        # body is then -inf, which the last np.maximum takes to 0.  The body is
        # never above 1 nor -0.0, so that np.maximum alone gives np.clip's bits.
        np.maximum(w, floor, out=w)
        np.power(w, power, out=w)
        np.multiply(self.eta, w, out=w)
        np.subtract(_ONE, w, out=w)
        return np.maximum(w, _ZERO, out=w)

    def _log_ratio(self, p):
        """log(p / eta) of positive p; log p - log eta where p / eta underflows to 0 (a subnormal p)."""
        ratio = p / self.eta
        under = ratio == 0.0
        if not under.any():
            return np.log(ratio)
        return np.where(under, np.log(p) - np.log(self.eta), np.log(np.where(under, 1.0, ratio)))

    def _tail_quantile(self, mass, out=None):
        under = (mass > 0.0) & (mass / self.eta == 0.0)
        if not under.any():
            return self._ratio_tail_quantile(mass, out)
        # a subnormal mass over eta underflows to 0, whose power would be that of
        # mass 0; there the power is exp((q - 1) log(mass / eta)), from _log_ratio
        scale, q, q_less_1 = self._tail_constants
        powers = np.power(np.where(under, 1.0, mass / self.eta), q_less_1)
        powers[under] = np.exp(q_less_1 * self._log_ratio(np.where(under, mass, 1.0))[under])
        np.multiply(q, powers, out=powers)
        np.subtract(_ONE, powers, out=powers)
        return np.multiply(scale, powers, out=out)

    def _ratio_tail_quantile(self, mass, out=None):
        """``_tail_quantile`` for masses at which every mass / eta is positive.

        gamma / (q - 1) (1 - q (mass / eta)^(q - 1)), one ufunc call per
        operation, each after the first in place.
        """
        scale, q, q_less_1 = self._tail_constants
        values = np.divide(mass, self.eta, out=out)
        np.power(values, q_less_1, out=values)
        np.multiply(q, values, out=values)
        np.subtract(_ONE, values, out=values)
        return np.multiply(scale, values, out=values)

    def _tail_quantile_above(self, floor: float):
        return (self._ratio_tail_quantile if bool(np.all(floor / self.eta > 0.0))
                else self._tail_quantile)

    def _density(self, p):
        scale, eta, exponent = self._density_constants
        return scale * np.power(p / eta, exponent)

    def _regularizer(self, p):
        # eta (p/eta)^q - p = p expm1(x), x = (q - 1) log(p/eta), stays accurate as q -> 1;
        # from x = 1 on the power form has no cancellation, and expm1 could overflow
        logs = self._log_ratio(np.where(p > 0.0, p, 1.0))
        x = (self.q - 1.0) * logs
        with np.errstate(over="ignore"):
            gaps = np.where(x < 1.0, p * np.expm1(x), self.eta * np.exp(self.q * logs) - p)
        return -self.gamma * np.where(p > 0.0, gaps, 0.0).sum(axis=-1) / (self.q - 1.0)

    def lipschitz_constant(self) -> float:
        if self.q > 2.0:
            return np.inf
        return max(float(np.power(self.eta, self.q - 1.0).max()) / (self.gamma * self.q), _TINY)

    def to_dict(self) -> dict:
        return {"type": "pareto", "gamma": self.gamma, "q": self.q, "eta": self.eta.tolist()}


class TabulatedFamily(MarginalFamily):
    """Marginals given by per-action quantile tables, interpolated linearly.

    Each table is a sequence of (t, value) rows with t strictly increasing
    from 0 to 1 and finite values, nondecreasing and less than the float
    range apart.  Piecewise-linear quantiles keep the
    regularizer concave and piecewise quadratic, so it integrates exactly, and
    the density is constant on each segment, so the slope bound is an exact maximum.
    """

    density_domain = "[0, 1]"

    def __init__(self, tables) -> None:
        grids = []
        for i, table in enumerate(tables):
            arr = np.asarray(table, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
                raise ValueError(f"table {i} must be a list of (t, value) rows")
            ts, vs = arr[:, 0], arr[:, 1]
            if ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0.0):
                raise ValueError(f"table {i}: t grid must increase strictly from 0 to 1")
            with np.errstate(over="ignore", invalid="ignore"):
                steps = np.diff(vs)
            if np.any(steps < 0.0):
                raise ValueError(f"table {i}: quantile values must be nondecreasing")
            if not np.all(np.isfinite(vs)):
                raise ValueError(f"table {i}: quantile values must be finite")
            if not np.all(np.isfinite(steps)):
                raise ValueError(f"table {i}: quantile values must not span more than the "
                                 f"float range: {vs.tolist()}")
            grids.append((ts.copy(), vs.copy()))
        super().__init__(len(grids))
        self._grids = grids
        # a flat run of quantile values is an atom of the marginal
        self.strictly_increasing_cdf = all(np.all(np.diff(vs) > 0.0) for _, vs in grids)
        with np.errstate(divide="ignore", over="ignore"):  # dt/dv, inf if flat or too steep
            self._slopes = [np.diff(ts) / np.diff(vs) for ts, vs in grids]
        # the exact quantile integral from each knot to 1: its segments' trapezoids,
        # summed from the top; each end is halved before the sum, which cannot overflow
        areas = [np.diff(ts) * (vs[1:] / 2.0 + vs[:-1] / 2.0) for ts, vs in grids]
        self._tails = [np.append(np.cumsum(area[::-1])[::-1], 0.0) for area in areas]

    def _columns(self, fn, x):
        """``fn(column, ts, vs, slopes, tails)`` on each column of x with its action's table."""
        return np.stack([fn(x[..., i], ts, vs, slopes, tails) for i, ((ts, vs), slopes, tails)
                         in enumerate(zip(self._grids, self._slopes, self._tails))], axis=-1)

    def _cdf(self, s):
        # np.interp's slope form can round past the segment's top t, or overflow to
        # inf on a segment too steep for a float slope; capping at that top keeps
        # the CDF nondecreasing and in [0, 1] (a steep segment jumps, as an atom does)
        return self._columns(lambda x, ts, vs, *_: np.minimum(
            np.interp(x, vs, ts), ts.take(np.searchsorted(vs, x, side="right"), mode="clip")), s)

    def _quantile(self, t):
        return self._columns(lambda x, ts, vs, *_: np.interp(x, ts, vs), t)

    def _density(self, p):
        # the stored slope of the segment holding t = 1 - p; at a knot, the segment
        # starting there (the last one at t = 1); a flat run is an atom, inf
        return self._columns(
            lambda x, ts, _, slopes, __: slopes[np.clip(
                np.searchsorted(ts, 1.0 - x, side="right") - 1, 0, slopes.size - 1)], p)

    def _regularizer(self, p):
        # per action, the trapezoid from a = 1 - p_i to the next knot above it plus the
        # stored integral from that knot to 1; p_i = 0 is the empty segment at the top knot
        def tail(mass, ts, vs, _, tails):
            a = 1.0 - mass
            k = np.minimum(np.searchsorted(ts, a, side="right"), ts.size - 1)
            return (ts[k] - a) * (np.interp(a, ts, vs) / 2.0 + vs[k] / 2.0) + tails[k]

        return self._columns(tail, p).sum(axis=-1)

    def lipschitz_constant(self) -> float:
        return float(max(_TINY, *(slopes.max() for slopes in self._slopes)))

    def to_dict(self) -> dict:
        return {
            "type": "tabulated",
            "table": [np.column_stack((ts, vs)).tolist() for ts, vs in self._grids],
        }


def _stack_eta(fams) -> MarginalFamily:
    """One family of ``fams[0]``'s class with the players' etas stacked to ``(M, N)``.

    For exponential or Pareto families of one class whose other parameters,
    gamma (and q), are equal, so their 0-d operands have equal bits.  Every
    kernel operation on eta is elementwise, so on ``(..., M, N)`` stacks of
    the players' rows each entry has the bits of its own player's call.  ``_members`` holds the
    players' own families, whose operands the generic solver binds per row.
    """
    stacked = object.__new__(type(fams[0]))
    stacked.__dict__.update(fams[0].__dict__)
    stacked.__dict__.pop("_response_offsets", None)  # one player's cached bracket
    stacked.eta = np.array([fam.eta for fam in fams])
    stacked.eta.setflags(write=False)
    if isinstance(stacked, ParetoFamily):
        scales, etas, exponents = zip(*(fam._density_constants for fam in fams))
        stacked._density_constants = np.array(scales), np.array(etas), exponents[0]
    stacked._members = tuple(fams)
    return stacked


#: the fields of each family type's JSON form
_FAMILY_FIELDS = {
    "exponential": ("type", "gamma", "eta"),
    "uniform": ("type", "gamma", "actions"),
    "pareto": ("type", "gamma", "q", "eta"),
    "tabulated": ("type", "table"),
}


def _tables(value) -> list:
    """A tabulated family's ``table``: a list of per-action tables, each entry
    read by the number rule."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list of per-action tables, got {value!r}")
    return [_reals(t) for t in value]


def family_from_dict(doc: dict, n_actions: int | None = None) -> MarginalFamily:
    """Build a family from its JSON form; ``n_actions`` fills in defaults.

    Raises ValueError for unknown types or fields, bad parameters, or an
    action-count mismatch with ``n_actions``.
    """
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("family spec must be an object with a 'type' field")
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in _FAMILY_FIELDS:
        raise ValueError(f"unknown family type {kind!r}")
    _known_fields(doc, _FAMILY_FIELDS[kind], f"{kind} family field")
    eta = None
    if "eta" in doc:  # one number, or one per action
        eta = _field(doc, "eta", lambda v: _real(v) if np.ndim(v) == 0 else [_real(x) for x in v])
    if kind == "exponential":
        fam: MarginalFamily = ExponentialFamily(
            _field(doc, "gamma", _real, 1.0), eta=eta,
            n_actions=n_actions if eta is None or np.ndim(eta) == 0 else None,
        )
    elif kind == "uniform":
        if "actions" not in doc and n_actions is None:
            raise ValueError("uniform family needs an action count")
        fam = UniformFamily(_field(doc, "gamma", _real, 1.0),
                            _field(doc, "actions", _integer, n_actions))
    elif kind == "pareto":
        if eta is None or np.ndim(eta) == 0:
            if n_actions is None:
                raise ValueError("pareto family needs a per-action eta or an action count")
            eta = np.full(n_actions, 1.0 if eta is None else eta)
        fam = ParetoFamily(_field(doc, "gamma", _real, 1.0), _field(doc, "q", _real), eta)
    else:
        fam = TabulatedFamily(_field(doc, "table", _tables))
    if n_actions is not None and fam.n_actions != n_actions:
        raise ValueError(
            f"family covers {fam.n_actions} actions, game has {n_actions}"
        )
    return fam

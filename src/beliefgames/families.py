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

Every shipped family gives the density, the regularizer, its curvature scale
and the CDF slope bound in closed form; the base class has no numeric
fallback for them.

The CDF kernels run bare: far from the support an intermediate overflows to
inf, which IEEE arithmetic carries to the exact limit, a CDF of 0 or 1.  The
guard that silences that overflow belongs to their callers: the public CDF
methods, the generic KKT solve and the plain-bisection oracle.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .games import _check_simplex_rows, _field, _integer, _real

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


class MarginalFamily:
    """Base class: N per-action marginals plus the induced regularizer.

    Subclasses write each formula once, as a kernel on arrays whose last axis
    is the action axis: ``_cdf``, then ``_tail_quantile`` or ``_quantile``
    (each defaults to the other), and ``_density``, ``_regularizer``,
    :meth:`curvature_scale` and :meth:`lipschitz_constant`, which have no
    default.  The ``*_vector`` methods validate once and call the kernels;
    the kernels take valid arrays only, and ``_cdf`` runs bare.  The quantile
    methods, the only paths that pass an unbounded end, silence its
    divide-by-zero; the CDF methods silence the kernel's overflow far from
    the support, as the generic solve, which calls ``_cdf`` directly, does.
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

    def _tail_quantile(self, mass):
        return self._quantile(1.0 - mass)

    def _tail_quantile_above(self, floor: float):
        """A kernel equal to ``_tail_quantile`` on masses of at least ``floor`` > 0.

        A loop that clamps its masses binds it once; a family whose kernel
        pays for a guard at tiny masses returns a leaner one when ``floor``
        is above them.
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
        with np.errstate(over="ignore"):  # far from the support: the exact limit
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
        with np.errstate(over="ignore"):  # far from the support: the exact limit
            return _scalar(self._cdf(every)[..., i])

    # -- response bracket ----------------------------------------------------

    @functools.cached_property
    def _response_offsets(self) -> tuple[list[float], list[float]]:
        """Quantiles at 0 and at 1 - 1/N, which bracket every response's kappa.

        At kappa = min_i(u_i + lows_i) some component has probability one; at
        kappa = max_i(u_i + tops_i) every component has at most 1/N.  Both
        depend only on the family, so they are computed once, as float lists.
        """
        n = self.n_actions
        return (self.quantile_vector(np.zeros(n)).tolist(),
                self.tail_quantile_vector(np.full(n, 1.0 / n)).tolist())

    # -- regularizer ---------------------------------------------------------

    def regularizer_terms(self, p) -> float:
        """Sum over actions of the quantile integral over [1 - p_i, 1].

        Unlike :meth:`regularizer` this does not require p to be on the
        simplex, which makes it usable inside finite-difference checks.
        """
        p = _check_unit(p)
        if p.shape != (self.n_actions,):
            raise ValueError(f"need a length-{self.n_actions} vector")
        return float(self._regularizer(p))

    def regularizer(self, p) -> float:
        """Concave perturbation value h(p) for a simplex point p."""
        return self.regularizer_terms(_check_simplex_rows(p))

    # -- analysis hooks ------------------------------------------------------

    def curvature_scale(self) -> float:
        """inf over p of 1 / min(density_vector(p, ..., p)), in closed form.

        This is the regularization-strength side of the stability condition;
        0.0 when the densities are unbounded at some p.
        """
        raise NotImplementedError

    def lipschitz_constant(self) -> float:
        """Common Lipschitz constant of the CDFs, in closed form; inf if unbounded."""
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

    def _cdf(self, s):
        return np.maximum(0.0, 1.0 - self.eta * np.exp(-s / self.gamma - 1.0))

    def _tail_quantile(self, mass):
        # log eta - log mass where eta / mass overflows (a subnormal mass)
        with np.errstate(over="ignore"):
            ratio = self.eta / mass
        logs = np.where(ratio < np.inf, np.log(ratio), np.log(self.eta) - np.log(mass))
        return self.gamma * (logs - 1.0)

    def _ratio_tail_quantile(self, mass):
        """``_tail_quantile`` for masses at which every eta / mass is finite."""
        return self.gamma * (np.log(self.eta / mass) - 1.0)

    def _tail_quantile_above(self, floor: float):
        with np.errstate(over="ignore"):
            finite = bool(np.all(self.eta / floor < np.inf))
        return self._ratio_tail_quantile if finite else self._tail_quantile

    def _density(self, p):
        return p / self.gamma

    def _regularizer(self, p):
        # p log(eta/p) with the 0 log 0 = 0 convention; log eta - log p where eta/p overflows
        safe = np.where(p > 0.0, p, 1.0)
        with np.errstate(over="ignore"):
            ratio = self.eta / safe
        logs = np.where(np.isfinite(ratio), np.log(ratio), np.log(self.eta) - np.log(safe))
        return self.gamma * np.where(p > 0.0, p * logs, 0.0).sum()

    def curvature_scale(self) -> float:
        return self.gamma

    def lipschitz_constant(self) -> float:
        return 1.0 / self.gamma

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

    def _cdf(self, s):
        raw = 1.0 - (0.5 - s / (2.0 * self.gamma)) / self.n_actions
        return np.clip(raw, 0.0, 1.0)

    def _tail_quantile(self, mass):
        return self.gamma * (1.0 - 2.0 * self.n_actions * mass)

    def _density(self, p):
        return np.full_like(p, 1.0 / (2.0 * self.gamma * self.n_actions))

    def _regularizer(self, p):
        return self.gamma * (p.sum() - self.n_actions * np.dot(p, p))

    def curvature_scale(self) -> float:
        return 2.0 * self.gamma * self.n_actions

    def lipschitz_constant(self) -> float:
        return 1.0 / (2.0 * self.gamma * self.n_actions)

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
        # the CDF's scalars, each rounded as the formula rounds it; beyond the
        # zero of w the CDF is 1 when q > 1 (above the support) and 0 when q < 1
        self._cdf_constants = (1.0 / q, q - 1.0, self.gamma * q, 1.0 / (q - 1.0),
                               1.0 if q > 1.0 else 0.0)
        self._density_scale = self.eta / (self.gamma * q)  # as the density formula rounds it

    def _cdf(self, s):
        inv_q, q_less_1, gq, power, edge = self._cdf_constants
        w = inv_q - s * q_less_1 / gq
        inside = w > 0.0
        # w <= 0 takes the edge value, so its power is taken at 1 (no 0 ** negative);
        # far below the support the power overflows, and the body is -inf
        body = 1.0 - self.eta * np.power(np.where(inside, w, 1.0), power)
        # body is never above 1 nor -0.0, so np.maximum alone gives np.clip's bits
        return np.where(inside, np.maximum(body, 0.0), edge)

    def _tail_quantile(self, mass):
        q = self.q
        return self.gamma / (q - 1.0) * (1.0 - q * np.power(mass / self.eta, q - 1.0))

    def _density(self, p):
        return self._density_scale * np.power(p / self.eta, 2.0 - self.q)

    def _regularizer(self, p):
        # eta (p/eta)^q - p = p expm1(x), x = (q - 1) log(p/eta), stays accurate as q -> 1;
        # from x = 1 on the power form has no cancellation, and expm1 could overflow
        logs = np.log(np.where(p > 0.0, p, 1.0) / self.eta)
        x = (self.q - 1.0) * logs
        with np.errstate(over="ignore"):
            gaps = np.where(x < 1.0, p * np.expm1(x), self.eta * np.exp(self.q * logs) - p)
        return -self.gamma * np.sum(np.where(p > 0.0, gaps, 0.0)) / (self.q - 1.0)

    def curvature_scale(self) -> float:
        if self.q > 2.0:
            return 0.0
        return self.gamma * self.q / float(np.power(self.eta, self.q - 1.0).min())

    def lipschitz_constant(self) -> float:
        if self.q > 2.0:
            return np.inf
        return float(np.power(self.eta, self.q - 1.0).max()) / (self.gamma * self.q)

    def to_dict(self) -> dict:
        return {"type": "pareto", "gamma": self.gamma, "q": self.q, "eta": self.eta.tolist()}


class TabulatedFamily(MarginalFamily):
    """Marginals given by per-action quantile tables, interpolated linearly.

    Each table is a sequence of (t, value) rows with t strictly increasing
    from 0 to 1 and values nondecreasing.  Piecewise-linear quantiles keep the
    regularizer concave and piecewise quadratic, so it integrates exactly, and
    the density is constant on each segment, so both bounds are exact maxima.
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
            if np.any(np.diff(vs) < 0.0):
                raise ValueError(f"table {i}: quantile values must be nondecreasing")
            if not np.all(np.isfinite(vs)):
                raise ValueError(f"table {i}: quantile values must be finite")
            grids.append((ts.copy(), vs.copy()))
        super().__init__(len(grids))
        self._grids = grids
        # a flat run of quantile values is an atom of the marginal
        self.strictly_increasing_cdf = all(np.all(np.diff(vs) > 0.0) for _, vs in grids)
        with np.errstate(divide="ignore"):  # CDF slope dt/dv per segment, inf on a flat one
            self._slopes = [np.diff(ts) / np.diff(vs) for ts, vs in grids]

    def _columns(self, fn, x):
        """``fn(column, ts, vs, slopes)`` on each column of x with its action's table."""
        return np.stack([fn(x[..., i], ts, vs, slopes)
                         for i, ((ts, vs), slopes) in enumerate(zip(self._grids, self._slopes))],
                        axis=-1)

    def _cdf(self, s):
        return self._columns(lambda x, ts, vs, _: np.interp(x, vs, ts), s)

    def _quantile(self, t):
        return self._columns(lambda x, ts, vs, _: np.interp(x, ts, vs), t)

    def _density(self, p):
        # the stored slope of the segment holding t = 1 - p; at a knot, the segment
        # starting there (the last one at t = 1); a flat run is an atom, inf
        return self._columns(
            lambda x, ts, _, slopes: slopes[np.clip(
                np.searchsorted(ts, 1.0 - x, side="right") - 1, 0, slopes.size - 1)], p)

    def _regularizer(self, p):
        return sum(self._exact_tail(i, float(p[i])) for i in range(self.n_actions))

    def curvature_scale(self) -> float:
        # min over actions is constant between merged breakpoints: take each interval's midpoint
        knots = np.unique(np.concatenate([ts for ts, _ in self._grids]))
        mids = 0.5 * (knots[:-1] + knots[1:])
        least = np.min([slopes[np.searchsorted(ts, mids) - 1]
                        for (ts, _), slopes in zip(self._grids, self._slopes)], axis=0)
        return float(1.0 / least.max())

    def lipschitz_constant(self) -> float:
        return float(max(slopes.max() for slopes in self._slopes))

    def _exact_tail(self, i: int, mass: float) -> float:
        """Exact integral of the piecewise-linear quantile over [1 - mass, 1]."""
        if mass == 0.0:
            return 0.0
        ts, vs = self._grids[i]
        a = 1.0 - mass
        knots = ts[(ts > a) & (ts < 1.0)]
        xs = np.concatenate(([a], knots, [1.0]))
        ys = np.interp(xs, ts, vs)
        return float(np.trapezoid(ys, xs))

    def to_dict(self) -> dict:
        return {
            "type": "tabulated",
            "table": [np.column_stack((ts, vs)).tolist() for ts, vs in self._grids],
        }


def family_from_dict(doc: dict, n_actions: int | None = None) -> MarginalFamily:
    """Build a family from its JSON form; ``n_actions`` fills in defaults.

    Raises ValueError for unknown types, bad parameters, or an action-count
    mismatch with ``n_actions``.
    """
    if not isinstance(doc, dict) or "type" not in doc:
        raise ValueError("family spec must be an object with a 'type' field")
    kind = doc["type"]
    if kind == "exponential":
        eta = doc.get("eta")
        fam: MarginalFamily = ExponentialFamily(
            _field(doc, "gamma", _real, 1.0), eta=eta,
            n_actions=n_actions if eta is None or np.ndim(eta) == 0 else None,
        )
    elif kind == "uniform":
        if doc.get("actions", n_actions) is None:
            raise ValueError("uniform family needs an action count")
        fam = UniformFamily(_field(doc, "gamma", _real, 1.0),
                            _field(doc, "actions", _integer, n_actions))
    elif kind == "pareto":
        eta = doc.get("eta")
        if eta is None or np.ndim(eta) == 0:
            if n_actions is None:
                raise ValueError("pareto family needs a per-action eta or an action count")
            eta = np.full(n_actions, 1.0 if eta is None else _field(doc, "eta", _real))
        fam = ParetoFamily(_field(doc, "gamma", _real, 1.0), _field(doc, "q", _real), eta)
    elif kind == "tabulated":
        fam = TabulatedFamily(doc["table"])
    else:
        raise ValueError(f"unknown family type {kind!r}")
    if n_actions is not None and fam.n_actions != n_actions:
        raise ValueError(
            f"family covers {fam.n_actions} actions, game has {n_actions}"
        )
    return fam

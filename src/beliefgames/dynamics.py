"""Dual-averaging play against optimistic payoff estimates.

Each round every player responds to their running payoff estimates through a
quantal response (shaped by their *belief* family), receives the expected
payoff vector of the realized mixed profile, and moves the estimates by

    estimate_i += rate_t * (payoff_i + F_i^{-1}(1 - p_i)),

where F is the player's *risk* family and p is clamped away from zero before
the quantile is taken.  Everything is deterministic given the configuration,
so repeated runs produce byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import _check_families, _residuals
from .families import MarginalFamily, _operand
from .games import (Game, StrategyProfile, _field, _known_fields, _produced_profile, _real,
                    payoff_vector_rows)
from .response import _RESPONSE_TOL, _family_groups, response_operator

#: default lower clamp applied to probabilities inside the update rule.
PROBABILITY_CLAMP = 1e-12
#: recorded rounds per block of ``Trace.to_csv`` text.
_CSV_BLOCK_ROUNDS = 16
#: rounds per block of :func:`run_dynamics` bookkeeping (movement, clamp
#: count, response check), done as one vectorized pass per block.
_BLOCK_ROUNDS = 64


@dataclass(frozen=True)
class StepSchedule:
    """Step-size sequence: constant c, or power-law c * t^(-a).

    The power exponent is accepted on [0, inf) so that schedules outside the
    convergent regime can still be constructed, classified, and warned about.
    """

    kind: str
    c: float
    a: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "power"):
            raise ValueError("schedule kind must be 'constant' or 'power'")
        if not (self.c > 0.0 and np.isfinite(self.c)):
            raise ValueError("step scale c must be positive and finite")
        if not (self.a >= 0.0 and np.isfinite(self.a)):
            raise ValueError("power exponent must be nonnegative and finite")

    @classmethod
    def constant(cls, c: float) -> "StepSchedule":
        return cls("constant", float(c))

    @classmethod
    def power(cls, c: float, a: float) -> "StepSchedule":
        return cls("power", float(c), float(a))

    def rates(self, upto: int) -> np.ndarray:
        """Vector of step sizes for rounds 1..upto."""
        t = np.arange(1, upto + 1, dtype=float)
        if self.kind == "constant":
            return np.full(upto, self.c)
        return self.c * t ** (-self.a)

    def to_dict(self) -> dict:
        doc = {"type": self.kind, "c": self.c}
        if self.kind == "power":
            doc["a"] = self.a
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "StepSchedule":
        if not isinstance(doc, dict) or "type" not in doc:
            raise ValueError("schedule spec must be an object with a 'type' field")
        if doc["type"] == "constant":
            _known_fields(doc, ("type", "c"), "constant schedule field")
            return cls.constant(_field(doc, "c", _real, label="schedule.c"))
        if doc["type"] == "power":
            _known_fields(doc, ("type", "c", "a"), "power schedule field")
            return cls.power(_field(doc, "c", _real, label="schedule.c"),
                             _field(doc, "a", _real, label="schedule.a"))
        raise ValueError(f"unknown schedule type {doc['type']!r}")


@dataclass(frozen=True)
class ScheduleReport:
    """Divergence/decay classification of a step schedule.

    ``sum_diverges``: the partial sums of the rates grow without bound.
    ``ratio_vanishes``: sum of squared rates over sum of rates tends to zero.
    Both must hold for the dynamics' convergence guarantees.
    """

    sum_diverges: bool
    ratio_vanishes: bool


def classify_schedule(schedule: StepSchedule) -> ScheduleReport:
    """Classify a schedule symbolically (see :class:`ScheduleReport`).

    Constant schedules: the sum diverges but the ratio tends to the constant.
    Power schedules c * t^(-a): the sum diverges iff a <= 1, and the ratio
    vanishes iff 0 < a <= 1 (for a > 1 both sums converge, so the ratio tends
    to a positive constant).
    """
    if schedule.kind == "constant":
        return ScheduleReport(sum_diverges=True, ratio_vanishes=False)
    a = schedule.a
    return ScheduleReport(sum_diverges=a <= 1.0, ratio_vanishes=0.0 < a <= 1.0)


@dataclass
class RunConfig:
    """Everything :func:`run_dynamics` needs besides the game itself.

    ``risk_families`` shape the estimate updates (their quantiles are the
    optimism adjustment); ``belief_families`` shape the per-round responses.
    They may differ.  ``record_every`` thins the trace: round t is recorded
    when t is a multiple of it (the final round is always recorded).
    """

    horizon: int
    schedule: StepSchedule
    risk_families: tuple
    belief_families: tuple
    initial_estimates: np.ndarray | None = None
    probability_clamp: float = PROBABILITY_CLAMP
    record_every: int = 1

    def __post_init__(self) -> None:
        self.risk_families = tuple(self.risk_families)
        self.belief_families = tuple(self.belief_families)
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every (downsample) must be at least 1")
        if len(self.risk_families) != len(self.belief_families):
            raise ValueError("need matching numbers of risk and belief families")
        if not self.risk_families:
            raise ValueError("need at least one player")
        for fam in (*self.risk_families, *self.belief_families):
            if not isinstance(fam, MarginalFamily):
                raise ValueError("families must be MarginalFamily instances")
        n = self.risk_families[0].n_actions
        for fam in (*self.risk_families, *self.belief_families):
            if fam.n_actions != n:
                raise ValueError("all families must cover the same action count")
        if not 0.0 < self.probability_clamp < 1.0 / n:
            raise ValueError("probability clamp must lie in (0, 1/N)")
        if self.initial_estimates is not None:
            est = np.asarray(self.initial_estimates, dtype=float)
            if est.shape != (len(self.risk_families), n):
                raise ValueError("initial estimates must be (players, actions)")
            if not np.all(np.isfinite(est)):
                raise ValueError("initial estimates must be finite")
            self.initial_estimates = est


def update_estimates(estimates, payoffs, probabilities, rate: float,
                     fam: MarginalFamily, clamp: float = PROBABILITY_CLAMP) -> np.ndarray:
    """One player's estimate update; returns a new vector.

    Probabilities are clamped below at ``clamp`` only inside the quantile
    argument, so exact zeros from sparse responses stay harmless.  The
    quantile at 1 - p is taken through the tail form, which stays accurate
    when p is tiny.
    """
    estimates = np.asarray(estimates, dtype=float)
    payoffs = np.asarray(payoffs, dtype=float)
    probabilities = np.asarray(probabilities, dtype=float)
    if not 0.0 < clamp < 1.0 / fam.n_actions:
        raise ValueError("probability clamp must lie in (0, 1/N)")
    adjustment = fam.tail_quantile_vector(np.maximum(probabilities, clamp))
    if not np.all(np.isfinite(adjustment)):
        raise RuntimeError("quantile adjustment is non-finite despite clamping")
    return estimates + rate * (payoffs + adjustment)


@dataclass
class Trace:
    """Recorded history of one dynamics run.

    Per recorded round: the round index, step size, played profile, the
    post-update estimates, and the realized payoff vectors.  ``movement``
    holds the per-round sup-norm profile change for *every* round (entry 0 is
    zero by convention).  ``final_residual`` is the equilibrium residual of
    the last profile under the risk families.  ``profile_at`` and
    ``final_profile`` check their rows by the loop's own rule (entries in
    [0, 1], sums within 1e-9 of one) and keep their bits; a run at payoffs far
    from zero can miss a user profile's 1e-12 rule.
    """

    horizon: int
    record_every: int
    rounds: np.ndarray
    rates: np.ndarray
    probabilities: np.ndarray  # (records, players, actions)
    estimates: np.ndarray      # (records, players, actions)
    payoffs: np.ndarray        # (records, players, actions)
    movement: np.ndarray       # (horizon,)
    clamp_triggers: int
    final_residual: float

    def _row(self, t: int) -> int:
        hits = np.nonzero(self.rounds == t)[0]
        if hits.size == 0:
            raise ValueError(f"round {t} was not recorded (record_every = {self.record_every})")
        return int(hits[0])

    def profile_at(self, t: int) -> StrategyProfile:
        return _produced_profile(self.probabilities[self._row(t)], _RESPONSE_TOL)

    @property
    def final_profile(self) -> StrategyProfile:
        return _produced_profile(self.probabilities[-1], _RESPONSE_TOL)

    def summary(self) -> dict:
        last = self.movement[-min(100, self.movement.size):]
        return {
            "horizon": int(self.horizon),
            "recorded_rounds": int(self.rounds.size),
            "record_every": int(self.record_every),
            "final_residual": float(self.final_residual),
            "clamp_triggers": int(self.clamp_triggers),
            "last_movement": float(self.movement[-1]),
            "max_movement_last_100": float(last.max()),
        }

    def to_csv(self, path) -> None:
        """Long-format CSV: one row per recorded round, player, and action.

        Floats are written as their ``repr``, which round-trips exactly.  Rows
        are formatted a block of recorded rounds at a time, one ``write`` per
        block, which bounds the memory the text takes.  A block's probability,
        estimate, payoff and lambda values are keyed together on their bits
        (the int64 view), and ``repr`` runs once per distinct key: a run that
        settles replays the same floats, and sparse responses repeat exact
        zeros.  Equal bits have equal ``repr``, and ``-0.0`` keeps apart from
        ``0.0``, so the bytes stay those of one ``repr`` per value.  Each
        cell's ``player,action,`` text is formatted once per file, and each
        round's ``round,`` head once.
        """
        n_players, n_actions = self.probabilities.shape[1:]
        cells = n_players * n_actions
        # a block's lines as rows of pieces: round, cell, probability, ",", estimate,
        # ",", payoff, ",", lambda, "\n"; the cells and separators never change
        lines = np.empty((_CSV_BLOCK_ROUNDS, cells, 10), dtype=object)
        lines[:, :, 1] = [f"{j},{i}," for j in range(n_players) for i in range(n_actions)]
        lines[:, :, 3:9:2] = ","
        lines[:, :, 9] = "\n"
        with open(path, "w", newline="") as fh:
            fh.write("round,player,action,probability,estimate,payoff,lambda\n")
            for start in range(0, self.rounds.size, _CSV_BLOCK_ROUNDS):
                block = slice(start, start + _CSV_BLOCK_ROUNDS)
                rounds = self.rounds[block].tolist()
                size = len(rounds) * cells
                values = np.concatenate([a[block].ravel() for a in (
                    self.probabilities, self.estimates, self.payoffs, self.rates)])
                keys, where = np.unique(values.view(np.int64), return_inverse=True)
                texts = np.array(list(map(repr, keys.view(float).tolist())), dtype=object)[where]
                rows = lines[:len(rounds)]
                rows[:, :, 0] = [[f"{t},"] for t in rounds]
                rows[:, :, 2:7:2] = texts[:3 * size].reshape(3, -1, cells).transpose(1, 2, 0)
                rows[:, :, 8] = texts[3 * size:, None]
                fh.write("".join(rows.ravel().tolist()))


def run_dynamics(game: Game, config: RunConfig) -> Trace:
    """Run the estimate-response loop for ``config.horizon`` rounds.

    Deterministic: no randomness enters the loop (responses and payoffs are
    exact expectations).  Each round is one operation on the (M, N) state:
    one ``response_operator`` call gives every response, one payoff
    contraction every payoff vector, and one quantile kernel call each risk
    group: every player when their risk families are equal or differ only in
    eta (the kernel then broadcasts the ``(M, N)`` stack of their etas), else
    each player (see ``response._family_groups``).  Inputs are validated
    once, here and in :class:`RunConfig`, not every round.

    The state a round touches is bound once per run: an ``(M, N)`` buffer
    each for the profile, which each round's responses are written into, the
    payoffs and the quantile adjustments.  For M = 2 the profile's player
    views feed ``np.matvec`` and ``np.vecmat`` with ``out=`` the payoff buffer
    (M >= 3 copies ``payoff_vector_rows`` into it).  A round writes
    ``max(p, clamp)`` into the adjustment buffer, each risk group's quantile
    kernel overwrites its own rows, and ``y + adj``, ``rate * (...)`` and
    ``estimates += ...`` run once on the whole state, in that order, in place.
    Every scalar operand (the clamp, the rate, the families' constants) is a
    0-d float64 array, which spares each ufunc call the conversion of a Python
    float and keeps its bits; an ``(N,)``-shaped one would not, since
    ``np.power`` takes another SIMD loop for an array exponent.

    After the update the profile is copied into a block of ``_BLOCK_ROUNDS``
    rounds; at each block end one vectorized pass takes the movement, the
    clamp count, and the checks that each response lies in [0, 1] and sums to
    one within 1e-9, whose error names the round and player.  It is the only
    check of the loop's rows: the final residual is the last recorded
    profile's, under the risk families' responses.  Where every player's risk
    family is their belief family object, the loop's own bound operator
    answers it, so each generic row starts warm from its last round; else a
    ``response_operator`` of the risk families is bound for it.  Either way
    each row has the bits of its own ``response_probabilities`` call.  Solver failures
    are re-raised with the round and the failing player attached, and
    estimates that leave the float range end the run with the round and
    player where they did; the loop runs under one ``np.errstate``.
    """
    _check_families(game, config.risk_families)
    m, n = game.num_players, game.num_actions
    estimates = (np.zeros((m, n)) if config.initial_estimates is None
                 else config.initial_estimates.copy())
    horizon, every = config.horizon, config.record_every
    recorded = sorted({t for t in range(every, horizon + 1, every)} | {horizon})
    record_index = {t: idx for idx, t in enumerate(recorded)}

    probs_hist = np.empty((len(recorded), m, n))
    est_hist = np.empty((len(recorded), m, n))
    pay_hist = np.empty((len(recorded), m, n))
    rate_hist = np.empty(len(recorded))
    movement = np.zeros(horizon)
    clamp_triggers = 0
    clamp = config.probability_clamp
    # row 0: the last profile before the block; rows 1..: the block's rounds
    block = np.empty((_BLOCK_ROUNDS + 1, m, n))

    respond = response_operator(config.belief_families)
    profile, pays, mass = np.empty((m, n)), np.empty((m, n)), np.empty((m, n))
    rate, clamp0 = np.empty(()), _operand(clamp)  # rate: this round's step, set in place
    quantiles = [(fam._tail_quantile_above(clamp), mass[index])
                 for fam, _, index in _family_groups(config.risk_families)]
    if m == 2:
        (t0, t1), (p0, p1), (y0, y1) = game.payoffs, profile, pays
    steps = config.schedule.rates(horizon).tolist()
    start = estimates.copy()  # the estimates before the open block's first round

    def advance(step: float) -> None:
        """A round's payoffs and estimate update, from the responses in ``profile``."""
        if m == 2:
            np.matvec(t0, p1, out=y0)
            np.vecmat(p0, t1, out=y1)
        else:
            pays[...] = payoff_vector_rows(game, None, profile)
        rate[()] = step
        np.maximum(profile, clamp0, out=mass)
        for tail_quantile, rows in quantiles:
            tail_quantile(rows, out=rows)
        np.add(pays, mass, out=mass)
        np.multiply(rate, mass, out=mass)
        np.add(estimates, mass, out=estimates)

    def close_block(last: int, size: int) -> None:
        """Bookkeeping of the ``size`` rounds ending at round ``last``."""
        nonlocal clamp_triggers
        first = last - size + 1
        # a non-finite estimate stays non-finite: replay the block's updates from its
        # start on its recorded responses to find the round that left the float range
        if not np.isfinite(estimates).all():
            estimates[...] = start
            for k in range(size):
                profile[...] = block[k + 1]
                advance(steps[first - 1 + k])
                if not np.isfinite(estimates).all():
                    _check_rounds(block[1:k + 2], first)  # an earlier bad round goes first
                    j = np.argwhere(~np.isfinite(estimates))[0][0]
                    raise RuntimeError(f"round {first + k}, player {j}: "
                                       "estimates diverged to non-finite values")
        _check_rounds(block[1:size + 1], first)
        if first == 1:
            block[0] = block[1]  # round 1 has no move
        clamp_triggers += int(np.count_nonzero(block[1:size + 1] < clamp))
        movement[first - 1:last] = np.abs(np.diff(block[:size + 1], axis=0)).max(axis=(1, 2))
        block[0] = block[size]
        start[...] = estimates

    row = 0
    # estimates past the float range overflow and give NaN responses; the block's
    # end catches both, so the loop raises no warning on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for t, step in enumerate(steps, start=1):
            try:
                respond(estimates, out=profile)
            except RuntimeError as exc:
                close_block(t - 1, row)  # an earlier bad round goes first
                raise RuntimeError(f"round {t}, {exc}") from exc
            advance(step)
            row += 1
            block[row] = profile
            if t in record_index:
                idx = record_index[t]
                probs_hist[idx] = profile
                est_hist[idx] = estimates
                pay_hist[idx] = pays
                rate_hist[idx] = step
            if row == _BLOCK_ROUNDS:
                close_block(t, row)
                row = 0
        if row:
            close_block(horizon, row)

    # risk families that are the belief objects answer with the loop's warm solver
    shared = all(risk is belief for risk, belief in
                 zip(config.risk_families, config.belief_families))
    final_residual = float(_residuals(game, probs_hist[-1], respond if shared
                                      else response_operator(config.risk_families)))
    return Trace(
        horizon=horizon,
        record_every=every,
        rounds=np.array(recorded, dtype=int),
        rates=rate_hist,
        probabilities=probs_hist,
        estimates=est_hist,
        payoffs=pay_hist,
        movement=movement,
        clamp_triggers=clamp_triggers,
        final_residual=final_residual,
    )


def _check_rounds(profiles: np.ndarray, first: int) -> None:
    """The check that each response lies in [0, 1] and sums to one within 1e-9.

    ``profiles`` holds the ``(M, N)`` profiles of consecutive rounds from
    round ``first`` on; the error names the first round and player at fault.
    A response is never negative, and NaN fails the sum test.
    """
    miss = np.abs(np.add.reduce(profiles, axis=-1) - 1.0)
    bad = (profiles > 1.0).any(axis=-1) | ~(miss <= _RESPONSE_TOL)
    if bad.any():
        k, j = np.argwhere(bad)[0]
        raise ValueError(f"round {first + k}, player {j}: argument must lie in [0, 1], and the "
                         f"response sum to one within 1e-9: {profiles[k, j].tolist()}")

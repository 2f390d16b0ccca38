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

from .analysis import equilibrium_residual
from .families import MarginalFamily
from .games import Game, StrategyProfile, _field, _real, payoff_vector_rows
from .response import _family_groups, response_operator

#: default lower clamp applied to probabilities inside the update rule.
PROBABILITY_CLAMP = 1e-12
#: recorded rounds per block of ``Trace.to_csv`` text.
_CSV_BLOCK_ROUNDS = 16
#: rounds per block of :func:`run_dynamics` bookkeeping (movement, clamp
#: count, probability range check), done as one vectorized pass per block.
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
            return cls.constant(_field(doc, "c", _real, label="schedule.c"))
        if doc["type"] == "power":
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
    the last profile under the risk families.
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
        return StrategyProfile(self.probabilities[self._row(t)])

    @property
    def final_profile(self) -> StrategyProfile:
        return StrategyProfile(self.probabilities[-1])

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
        are formatted and written a block of recorded rounds at a time, which
        bounds the memory the text takes.  Each cell's ``player,action,`` text
        is formatted once per file, and each round's ``round,`` head and
        ``,lambda`` tail once per round.
        """
        n_players, n_actions = self.probabilities.shape[1:]
        cells = [f"{j},{i}," for j in range(n_players) for i in range(n_actions)]
        with open(path, "w", newline="") as fh:
            fh.write("round,player,action,probability,estimate,payoff,lambda\n")
            for start in range(0, self.rounds.size, _CSV_BLOCK_ROUNDS):
                block = slice(start, start + _CSV_BLOCK_ROUNDS)
                columns = [a[block].reshape(-1, len(cells)).tolist()
                           for a in (self.probabilities, self.estimates, self.payoffs)]
                fh.write("".join(
                    f"{head}{cell}{p!r},{e!r},{y!r}{tail}"
                    for head, tail, ps, es, ys in zip(
                        [f"{t}," for t in self.rounds[block].tolist()],
                        [f",{lam!r}\n" for lam in self.rates[block].tolist()], *columns)
                    for cell, p, e, y in zip(cells, ps, es, ys)
                ))


def run_dynamics(game: Game, config: RunConfig) -> Trace:
    """Run the estimate-response loop for ``config.horizon`` rounds.

    Deterministic: no randomness enters the loop (responses and payoffs are
    exact expectations).  Each round is one operation on the (M, N) state:
    one ``response_operator`` call gives every response, one
    ``payoff_vector_rows`` call every payoff vector, and players with equal
    risk families take one call of the family's quantile kernel.  Inputs are
    validated once, here and in :class:`RunConfig`, not every round.  The
    rounds' profiles are kept in blocks of ``_BLOCK_ROUNDS``; at each block
    end one vectorized pass takes the movement, the clamp count and the
    range check of the clamped probabilities, whose error names the round.
    Solver failures are re-raised with the round and the failing player
    attached.
    """
    m, n = game.num_players, game.num_actions
    if len(config.risk_families) != m:
        raise ValueError(f"config covers {len(config.risk_families)} players, game has {m}")
    if config.risk_families[0].n_actions != n:
        raise ValueError("family action count does not match the game")

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

    def close_block(last: int, size: int) -> None:
        """Bookkeeping of the ``size`` rounds ending at round ``last``."""
        nonlocal clamp_triggers
        first = last - size + 1
        _check_clamped(block[1:size + 1], clamp, first)
        if first == 1:
            block[0] = block[1]  # round 1 has no move
        clamp_triggers += int(np.count_nonzero(block[1:size + 1] < clamp))
        movement[first - 1:last] = np.abs(np.diff(block[:size + 1], axis=0)).max(axis=(1, 2))
        block[0] = block[size]

    respond = response_operator(config.belief_families)
    tail_quantiles = [(fam._tail_quantile_above(clamp), index)
                      for fam, _, index in _family_groups(config.risk_families)]

    row = 0
    for t, rate in enumerate(config.schedule.rates(horizon).tolist(), start=1):
        try:
            probs = respond(estimates)
        except RuntimeError as exc:
            _check_clamped(block[1:row + 1], clamp, t - row)  # an earlier bad round goes first
            raise RuntimeError(f"round {t}, {exc}") from exc
        row += 1
        block[row] = probs
        pays = payoff_vector_rows(game, None, probs)
        for tail_quantile, index in tail_quantiles:
            adjustment = tail_quantile(np.maximum(probs[index], clamp))
            estimates[index] += rate * (pays[index] + adjustment)
        if t in record_index:
            idx = record_index[t]
            probs_hist[idx] = probs
            est_hist[idx] = estimates
            pay_hist[idx] = pays
            rate_hist[idx] = rate
        if row == _BLOCK_ROUNDS:
            close_block(t, row)
            row = 0
    if row:
        close_block(horizon, row)

    if not np.all(np.isfinite(estimates)):
        raise RuntimeError("estimates diverged to non-finite values")

    final_residual = equilibrium_residual(
        game, StrategyProfile(probs_hist[-1]), config.risk_families
    )
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


def _check_clamped(profiles: np.ndarray, clamp: float, first: int) -> None:
    """The range check of the public quantile methods on ``max(p, clamp)``.

    ``profiles`` holds the ``(M, N)`` profiles of consecutive rounds from
    round ``first`` on; the error names the first round and player at fault.
    """
    masses = np.maximum(profiles, clamp)
    bad = (masses < 0.0) | (masses > 1.0)
    if bad.any():
        k, j, _ = np.argwhere(bad)[0]
        raise ValueError(f"round {first + k}, player {j}: argument must lie in [0, 1]")

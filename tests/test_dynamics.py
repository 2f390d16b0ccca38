import csv
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import zeta

from beliefgames.analysis import _residuals, equilibrium_residual, residual_series
from beliefgames import dynamics, response
from beliefgames.dynamics import (
    _BLOCK_ROUNDS,
    _CSV_BLOCK_ROUNDS,
    PROBABILITY_CLAMP,
    RunConfig,
    StepSchedule,
    Trace,
    classify_schedule,
    run_dynamics,
    update_estimates,
)
from beliefgames.families import (
    ExponentialFamily,
    ParetoFamily,
    TabulatedFamily,
    UniformFamily,
)
from beliefgames.games import StrategyProfile, matching_game, payoff_vector, random_game
from beliefgames.response import _family_groups, response_operator, response_probabilities


# ---------------------------------------------------------------------------
# step schedules


def test_schedule_validation():
    with pytest.raises(ValueError, match="kind"):
        StepSchedule("harmonic", 1.0)
    with pytest.raises(ValueError, match="positive"):
        StepSchedule.constant(0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        StepSchedule.power(1.0, -0.5)


@pytest.mark.parametrize("kind,c,a", [
    ("power", 1.0, np.nan),
    ("power", 1.0, np.inf),
    ("power", np.nan, 0.6),
    ("power", np.inf, 0.6),
    ("constant", np.nan, 0.0),
    ("constant", np.inf, 0.0),
])
def test_schedule_rejects_nonfinite_parameters(kind, c, a):
    # a NaN exponent would otherwise surface only as diverged estimates
    # after the whole horizon
    with pytest.raises(ValueError, match="finite"):
        StepSchedule(kind, c, a)


def test_schedule_rate_and_rates_agree():
    sched = StepSchedule.power(0.7, 0.6)
    t = np.arange(1, 51, dtype=float)
    np.testing.assert_allclose(sched.rates(50), 0.7 * t ** -0.6, rtol=1e-15)
    const = StepSchedule.constant(0.3)
    assert np.all(const.rates(10) == 0.3)


def test_schedule_dict_roundtrip():
    for sched in (StepSchedule.constant(2.0), StepSchedule.power(1.0, 0.8)):
        assert StepSchedule.from_dict(sched.to_dict()) == sched
    with pytest.raises(ValueError, match="unknown"):
        StepSchedule.from_dict({"type": "warmup", "c": 1.0})
    with pytest.raises(ValueError, match="'type'"):
        StepSchedule.from_dict({"c": 1.0})


@pytest.mark.parametrize("sched,expect", [
    (StepSchedule.constant(0.5), (True, False)),
    (StepSchedule.power(1.0, 0.0), (True, False)),
    (StepSchedule.power(1.0, 0.6), (True, True)),
    (StepSchedule.power(2.0, 1.0), (True, True)),
    (StepSchedule.power(1.0, 1.5), (False, False)),
])
def test_classify_schedule(sched, expect):
    report = classify_schedule(sched)
    assert (report.sum_diverges, report.ratio_vanishes) == expect


def _partial_sums(a: float, upto: int, chunk: int = 1_000_000):
    """Numeric partial sums of t^-a and t^-2a, chunked to bound memory."""
    s1 = s2 = 0.0
    start = 1
    while start <= upto:
        stop = min(start + chunk, upto + 1)
        t = np.arange(start, stop, dtype=float)
        s1 += float(np.sum(t ** (-a)))
        s2 += float(np.sum(t ** (-2.0 * a)))
        start = stop
    return s1, s2


def test_divergent_schedule_classification_matches_numerics():
    # a = 0.6: partial sums keep growing, squared-over-plain ratio decays
    sums, ratios = [], []
    for upto in (10**3, 10**5, 10**7):
        s1, s2 = _partial_sums(0.6, upto)
        sums.append(s1)
        ratios.append(s2 / s1)
    assert sums[1] > 2.0 * sums[0] and sums[2] > 2.0 * sums[1]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 0.005
    report = classify_schedule(StepSchedule.power(1.0, 0.6))
    assert report.sum_diverges and report.ratio_vanishes


def test_summable_schedule_classification_matches_numerics():
    # a = 1.5: the sum closes in on zeta(1.5) and the ratio stays bounded away
    # from zero (it tends to zeta(3) / zeta(1.5))
    s1, s2 = _partial_sums(1.5, 10**6)
    assert s1 == pytest.approx(float(zeta(1.5, 1)), abs=3e-3)
    assert s2 / s1 == pytest.approx(float(zeta(3.0, 1)) / float(zeta(1.5, 1)), abs=1e-3)
    report = classify_schedule(StepSchedule.power(1.0, 1.5))
    assert not report.sum_diverges and not report.ratio_vanishes


# ---------------------------------------------------------------------------
# run configuration


def _exp_pair(gamma=1.0, n=2):
    return tuple(ExponentialFamily(gamma=gamma, n_actions=n) for _ in range(2))


def test_run_config_validation():
    fams = _exp_pair()
    sched = StepSchedule.constant(0.1)
    with pytest.raises(ValueError, match="horizon"):
        RunConfig(horizon=0, schedule=sched, risk_families=fams, belief_families=fams)
    with pytest.raises(ValueError, match="record_every"):
        RunConfig(horizon=5, schedule=sched, risk_families=fams, belief_families=fams,
                  record_every=0)
    with pytest.raises(ValueError, match="matching numbers"):
        RunConfig(horizon=5, schedule=sched, risk_families=fams, belief_families=fams[:1])
    with pytest.raises(ValueError, match="same action count"):
        RunConfig(horizon=5, schedule=sched, risk_families=fams,
                  belief_families=_exp_pair(n=3))
    with pytest.raises(ValueError, match="clamp"):
        RunConfig(horizon=5, schedule=sched, risk_families=fams, belief_families=fams,
                  probability_clamp=0.6)
    with pytest.raises(ValueError, match="MarginalFamily"):
        RunConfig(horizon=5, schedule=sched, risk_families=(1, 2), belief_families=fams)
    with pytest.raises(ValueError, match="initial estimates"):
        RunConfig(horizon=5, schedule=sched, risk_families=fams, belief_families=fams,
                  initial_estimates=np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# single-step update


def test_update_estimates_frozen_step():
    fam = ExponentialFamily(gamma=1.0, n_actions=2)
    out = update_estimates(np.zeros(2), np.array([1.0, 0.0]), np.array([0.5, 0.5]),
                           rate=0.1, fam=fam)
    # payoff plus quantile at 1 - 1/2, scaled by the step
    np.testing.assert_allclose(
        out, [0.1 * np.log(2.0), 0.1 * (np.log(2.0) - 1.0)], atol=1e-15
    )


def test_update_estimates_clamps_vanishing_probabilities():
    fam = ExponentialFamily(gamma=2.0, n_actions=2)
    out = update_estimates(np.zeros(2), np.zeros(2), np.array([1.0, 0.0]),
                           rate=1.0, fam=fam, clamp=1e-12)
    assert out[1] == pytest.approx(2.0 * (np.log(1e12) - 1.0))
    assert np.all(np.isfinite(out))
    with pytest.raises(ValueError, match="clamp"):
        update_estimates(np.zeros(2), np.zeros(2), np.full(2, 0.5), 1.0, fam, clamp=0.0)


# ---------------------------------------------------------------------------
# the full loop


def _quick_config(horizon=300, every=1, gamma=3.0, n=2, schedule=None):
    fams = _exp_pair(gamma=gamma, n=n)
    return RunConfig(
        horizon=horizon,
        schedule=schedule or StepSchedule.power(1.0, 0.6),
        risk_families=fams,
        belief_families=fams,
        record_every=every,
    )


def test_run_dynamics_is_deterministic():
    game = matching_game(2)
    cfg = _quick_config()
    a, b = run_dynamics(game, cfg), run_dynamics(game, cfg)
    np.testing.assert_array_equal(a.probabilities, b.probabilities)
    np.testing.assert_array_equal(a.estimates, b.estimates)
    np.testing.assert_array_equal(a.payoffs, b.payoffs)
    np.testing.assert_array_equal(a.movement, b.movement)
    assert a.final_residual == b.final_residual


def _family(kind: str, n: int, variant: int):
    """A family of each kind; different ``variant`` values give different parameters."""
    eta = np.linspace(0.5, 1.5, n) + 0.25 * variant
    if kind == "exponential":
        return ExponentialFamily(gamma=2.0 + variant, eta=eta)
    if kind == "uniform":  # weak enough to produce exact zeros and clamp triggers
        return UniformFamily(gamma=0.05 + 0.05 * variant, n_actions=n)
    if kind == "pareto":
        return ParetoFamily(gamma=3.0 + variant, q=0.7 if variant else 1.5, eta=eta)
    return TabulatedFamily([
        [[0.0, -2.0 - 0.1 * i - variant], [0.3, -0.5], [0.7, 0.4 + 0.1 * i], [1.0, 2.0 + variant]]
        for i in range(n)
    ])


def _player_families(kind: str, m: int, n: int, setup: str) -> tuple:
    if setup == "shared":  # one object for every player
        return (_family(kind, n, 0),) * m
    if setup == "equal":  # equal but distinct objects, as the config loader builds
        return tuple(_family(kind, n, 0) for _ in range(m))
    # per player; with three players, players 0 and 2 share parameters
    return tuple(_family(kind, n, j % 2) for j in range(m))


@pytest.mark.parametrize("setup", ["shared", "equal", "per-player"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["exponential", "uniform", "pareto", "tabulated"])
def test_run_dynamics_replays_the_public_single_step_api(kind, m, setup):
    # the stacked rounds must agree bit for bit with the per-player documented update
    n = 3
    rng = np.random.default_rng(21)
    game = random_game(m, n, rng)
    fams = _player_families(kind, m, n, setup)
    cfg = RunConfig(horizon=60, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=fams, belief_families=fams)
    trace = run_dynamics(game, cfg)

    est = np.zeros((m, n))
    rates = cfg.schedule.rates(cfg.horizon)
    movement = np.zeros(cfg.horizon)
    clamp_triggers = 0
    prev = None
    for t in range(1, cfg.horizon + 1):
        probs = np.stack([
            response_probabilities(cfg.belief_families[j], est[j]) for j in range(m)
        ])
        prof = StrategyProfile(probs)
        pays = np.stack([payoff_vector(game, j, prof) for j in range(m)])
        clamp_triggers += int((probs < cfg.probability_clamp).sum())
        for j in range(m):
            est[j] = update_estimates(est[j], pays[j], probs[j], rates[t - 1],
                                      cfg.risk_families[j], cfg.probability_clamp)
        if prev is not None:
            movement[t - 1] = np.abs(probs - prev).max()
        prev = probs
        row = int(np.nonzero(trace.rounds == t)[0][0])
        np.testing.assert_array_equal(trace.probabilities[row], probs)
        np.testing.assert_array_equal(trace.payoffs[row], pays)
        np.testing.assert_array_equal(trace.estimates[row], est)
    np.testing.assert_array_equal(trace.movement, movement)
    assert trace.clamp_triggers == clamp_triggers
    if kind == "uniform":
        assert clamp_triggers > 0


def _split_families(setup: str) -> tuple:
    """(belief, risk) families of three players that the kind-by-kind replay leaves out."""
    n = 3
    if setup == "mixed-kinds":  # one risk group per player, each with its own kind of kernel
        fams = (_family("exponential", n, 0), _family("pareto", n, 1), _family("tabulated", n, 0))
        return fams, fams
    # one shared belief family; a risk group per player, not the belief group
    return (_family("exponential", n, 0),) * 3, tuple(_family("pareto", n, j) for j in range(3))


@pytest.mark.parametrize("setup", ["mixed-kinds", "shared-belief-per-player-risk"])
def test_risk_groups_that_differ_from_the_belief_groups_replay_the_single_step_api(setup):
    # every risk group's kernel fills its own rows of the one adjustment buffer
    game = random_game(3, 3, np.random.default_rng(21))
    belief, risk = _split_families(setup)
    assert len(_family_groups(risk)) == 3
    cfg = RunConfig(horizon=_BLOCK_ROUNDS + 9, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=risk, belief_families=belief)
    trace = run_dynamics(game, cfg)
    want = _replay(game, cfg)
    for name in ("probabilities", "estimates", "payoffs", "movement"):
        assert getattr(trace, name).tobytes() == want[name].tobytes(), name
    assert trace.clamp_triggers == want["clamp_triggers"]
    assert trace.final_residual == want["final_residual"]


def test_a_run_far_from_zero_ends_with_its_last_row_s_residual():
    # at estimates near 1e6 the sparsemax rows miss a sum of one by up to about 6e-11:
    # inside the loop's 1e-9 check, which is the run's only check of its rows, and
    # outside the 1e-12 rule of a StrategyProfile
    game = random_game(2, 4, np.random.default_rng(3))
    fam = UniformFamily(1.0, 4)
    cfg = RunConfig(horizon=50, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=(fam, fam), belief_families=(fam, fam),
                    initial_estimates=1e6 + np.random.default_rng(1).uniform(-3.0, 3.0, (2, 4)))
    trace = run_dynamics(game, cfg)
    assert np.abs(trace.probabilities.sum(axis=-1) - 1.0).max() > 1e-12
    want = _residuals(game, trace.probabilities[-1], response_operator(cfg.risk_families))
    assert np.float64(trace.final_residual).tobytes() == want.tobytes()


def test_a_run_far_from_zero_reads_back_its_recorded_rows():
    # the trace's readers check its rows by the loop's own rule, and keep their bits
    game = matching_game(3)
    fam = UniformFamily(1.0, 3)
    cfg = RunConfig(horizon=200, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=(fam,) * 2, belief_families=(fam,) * 2,
                    initial_estimates=1e6 + np.random.default_rng(1).uniform(-3.0, 3.0, (2, 3)))
    trace = run_dynamics(game, cfg)
    series = residual_series(game, trace, cfg.risk_families)
    assert np.float64(series[-1]).tobytes() == np.float64(trace.final_residual).tobytes()
    for profile in (trace.final_profile, trace.profile_at(200)):
        assert profile.probs.tobytes() == trace.probabilities[-1].tobytes()
    off = np.abs(trace.probabilities[-1].sum(axis=-1) - 1.0).max()
    assert 1e-12 < off < 1e-9
    # a user's profile keeps the 1e-12 rule
    with pytest.raises(ValueError, match=r"sum to 1 within 1e-12 .*\(off by 2e-11\)"):
        StrategyProfile([[0.5, 0.5 + 2e-11, 0.0], [1.0, 0.0, 0.0]])
    # rows outside [0, 1] are not the loop's, whatever their sum
    bad = trace.probabilities.copy()
    bad[-1, 0] = [1.5, -0.5, 0.0]
    with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
        replace(trace, probabilities=bad).final_profile


@pytest.mark.parametrize("setup", ["shared", "equal", "unlike"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["exponential", "uniform", "pareto", "tabulated"])
def test_final_residual_has_the_bits_of_a_fresh_risk_operator(kind, m, setup):
    # risk families that are the belief objects answer with the loop's warm
    # solver, and equal copies and unlike families with an operator of their own:
    # every way, the residual has the bits of a freshly bound operator
    n = 3
    game = random_game(m, n, np.random.default_rng(23))
    belief = _player_families(kind, m, n, "shared" if setup == "shared" else "equal")
    risk = {"shared": belief, "equal": _player_families(kind, m, n, "equal"),
            "unlike": _player_families(kind, m, n, "per-player")[::-1]}[setup]
    cfg = RunConfig(horizon=45, schedule=StepSchedule.power(1.0, 0.6), risk_families=risk,
                    belief_families=belief,
                    initial_estimates=np.random.default_rng(24).normal(0.0, 1.0, (m, n)))
    trace = run_dynamics(game, cfg)
    want = _residuals(game, trace.probabilities[-1], response_operator(risk))
    assert np.float64(trace.final_residual).tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["pareto", "tabulated"])
def test_a_run_whose_risk_families_are_its_beliefs_binds_one_operator(monkeypatch, kind, m):
    # the final residual is answered by the loop's own solver: every generic row
    # solved after the last round starts warm, inside its sign bracket
    game = random_game(m, 3, np.random.default_rng(25))
    binds, starts, after = [], [], []
    operator, solve, residuals = (dynamics.response_operator, response._kkt_solve,
                                  dynamics._residuals)

    def counted_operator(fams):
        binds.append(fams)
        return operator(fams)

    def recorded_solve(*args):
        if after:
            (_, _, lows, tops, _), u, start = args[:3]
            us = u.tolist()
            lo = min(x + low for x, low in zip(us, lows))
            hi = max(max(x + top for x, top in zip(us, tops)), lo + 1e-12)
            starts.append(start is not None and lo < start < hi)
        return solve(*args)

    def marked_residuals(*args):
        after.append(True)
        return residuals(*args)

    monkeypatch.setattr(dynamics, "response_operator", counted_operator)
    monkeypatch.setattr(response, "_kkt_solve", recorded_solve)
    monkeypatch.setattr(dynamics, "_residuals", marked_residuals)
    for setup, bound in (("shared", 1), ("equal", 1), ("equal-copies", 2)):
        fams = _player_families(kind, m, 3, "equal" if setup != "shared" else "shared")
        risk = tuple(_family(kind, 3, 0) for _ in fams) if setup == "equal-copies" else fams
        del binds[:], starts[:], after[:]
        run_dynamics(game, RunConfig(horizon=30, schedule=StepSchedule.power(1.0, 0.6),
                                     risk_families=risk, belief_families=fams))
        assert len(binds) == bound, setup
        assert len(starts) == m, setup
        assert all(starts) == (bound == 1), setup


@pytest.mark.parametrize("lead", [(), (5,), (2, 3)])
@pytest.mark.parametrize("setup", ["shared", "equal", "per-player"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["exponential", "uniform", "pareto", "tabulated"])
def test_response_operator_equals_the_per_row_calls(kind, m, setup, lead):
    n = 3
    fams = _player_families(kind, m, n, setup)
    u = np.random.default_rng(22).normal(0.0, 2.0, size=(*lead, m, n))
    got = response_operator(fams)(u)
    want = np.empty_like(u)
    for idx in np.ndindex(*lead, m):
        want[idx] = response_probabilities(fams[idx[-1]], u[idx])
    assert got.tobytes() == want.tobytes()


def test_families_without_a_json_form_still_run():
    # such families group by identity: here one single-player group each
    class Unserialized(ExponentialFamily):
        def to_dict(self):
            raise NotImplementedError

    def run(fams):
        return run_dynamics(matching_game(3), RunConfig(
            horizon=30, schedule=StepSchedule.constant(0.2),
            risk_families=fams, belief_families=fams))

    bare = run(tuple(Unserialized(gamma=2.0, n_actions=3) for _ in range(2)))
    np.testing.assert_array_equal(bare.estimates, run(_exp_pair(gamma=2.0, n=3)).estimates)


def test_run_dynamics_converges_on_coordination():
    game = matching_game(3)
    cfg = _quick_config(horizon=3000, every=100, gamma=6.0, n=3)
    trace = run_dynamics(game, cfg)
    assert trace.final_residual < 1e-6
    assert trace.movement[-1] < 1e-8
    # the reported residual is exactly the residual of the final profile
    recomputed = equilibrium_residual(game, trace.final_profile, cfg.risk_families)
    assert trace.final_residual == recomputed


def test_recording_grid_includes_final_round():
    game = matching_game(2)
    cfg = _quick_config(horizon=23, every=7)
    trace = run_dynamics(game, cfg)
    np.testing.assert_array_equal(trace.rounds, [7, 14, 21, 23])
    np.testing.assert_array_equal(
        trace.rates, cfg.schedule.rates(23)[trace.rounds - 1]
    )
    trace.profile_at(14)
    with pytest.raises(ValueError, match="not recorded"):
        trace.profile_at(5)


def test_sparse_beliefs_trip_the_clamp_counter():
    # weak uniform beliefs produce exact zeros once one action leads; the
    # clamp keeps the risk-quantile updates finite anyway
    game = matching_game(2)
    fams = tuple(UniformFamily(gamma=0.05, n_actions=2) for _ in range(2))
    cfg = RunConfig(horizon=200, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=fams, belief_families=fams,
                    initial_estimates=np.array([[1.0, 0.0], [1.0, 0.0]]))
    trace = run_dynamics(game, cfg)
    assert trace.clamp_triggers > 0
    assert np.all(np.isfinite(trace.estimates))
    assert np.array_equal(trace.final_profile.probs, [[1.0, 0.0], [1.0, 0.0]])


def test_run_dynamics_wraps_solver_failures_with_context():
    flat = TabulatedFamily(
        [np.array([[0.0, -1.0], [0.4, 0.0], [0.6, 0.0], [1.0, 1.0]])] * 2
    )
    game = matching_game(2)
    fams = (flat, flat)
    cfg = RunConfig(horizon=5, schedule=StepSchedule.constant(0.1),
                    risk_families=_exp_pair(), belief_families=fams)
    with pytest.raises(RuntimeError, match="round 1, player 0"):
        run_dynamics(game, cfg)


def test_solver_failure_names_the_failing_player_of_a_shared_group():
    # a CDF near-vertical at 1e3: the response at (0, -1) exists, while at (5, 5)
    # adjacent floats straddle the root, as they do for the shifted row (0, 0)
    steep = np.array([[0.0, -1.0], [0.2, 1000.0], [0.8, 1000.0 + 1e-13], [1.0, 1001.0]])
    fam = TabulatedFamily([steep, steep])
    cfg = RunConfig(horizon=5, schedule=StepSchedule.constant(0.1),
                    risk_families=_exp_pair(), belief_families=(fam, fam),
                    initial_estimates=np.array([[0.0, -1.0], [5.0, 5.0]]))
    with pytest.raises(RuntimeError, match="round 1, player 1: bisection failed to converge"):
        run_dynamics(matching_game(2), cfg)


@pytest.mark.parametrize("gamma", [1e307, 1e308])
def test_beliefs_far_above_their_scale_solve_at_a_shifted_level(gamma):
    # uniform risk families of scale gamma drive the estimates towards -gamma;
    # there kappa - u keeps no digit of the belief family's scale, and the direct
    # solve ended the run at round 2 with "bisection failed to converge"
    belief = ParetoFamily(gamma / 10.0 if gamma == 1e308 else 1.0, 1.5, [0.5, 0.5])
    cfg = RunConfig(horizon=50, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=(UniformFamily(gamma, 2),) * 2, belief_families=(belief,) * 2)
    if gamma == 1e308:  # the estimates leave the float range at round 3
        with pytest.raises(RuntimeError, match="^round 3, player 0: estimates diverged"):
            run_dynamics(matching_game(2), cfg)
        cfg.horizon = 2
    trace = run_dynamics(matching_game(2), cfg)
    assert trace.estimates.max() < -gamma / 10.0
    assert trace.probabilities.tolist() == [[[0.5, 0.5]] * 2] * cfg.horizon


def _replay(game, cfg) -> dict:
    """The run of ``cfg`` one round at a time, through the public single-step API."""
    m = game.num_players
    est = (np.zeros((m, game.num_actions)) if cfg.initial_estimates is None
           else cfg.initial_estimates.copy())
    rates = cfg.schedule.rates(cfg.horizon)
    probs_hist, est_hist, pay_hist = [], [], []
    movement = np.zeros(cfg.horizon)
    clamp_triggers = 0
    prev = None
    for t in range(1, cfg.horizon + 1):
        probs = np.stack([response_probabilities(cfg.belief_families[j], est[j])
                          for j in range(m)])
        prof = StrategyProfile(probs)
        pays = np.stack([payoff_vector(game, j, prof) for j in range(m)])
        clamp_triggers += int((probs < cfg.probability_clamp).sum())
        est = np.stack([update_estimates(est[j], pays[j], probs[j], rates[t - 1],
                                         cfg.risk_families[j], cfg.probability_clamp)
                        for j in range(m)])
        if prev is not None:
            movement[t - 1] = np.abs(probs - prev).max()
        prev = probs
        if t % cfg.record_every == 0 or t == cfg.horizon:
            probs_hist.append(probs)
            est_hist.append(est)
            pay_hist.append(pays)
    return {
        "probabilities": np.array(probs_hist),
        "estimates": np.array(est_hist),
        "payoffs": np.array(pay_hist),
        "movement": movement,
        "clamp_triggers": clamp_triggers,
        "final_residual": equilibrium_residual(game, StrategyProfile(probs),
                                               cfg.risk_families),
    }


@pytest.mark.parametrize("every", ["1", "3", "horizon"])
@pytest.mark.parametrize("horizon", [1, _BLOCK_ROUNDS - 1, _BLOCK_ROUNDS, _BLOCK_ROUNDS + 1,
                                     2 * _BLOCK_ROUNDS + 1])
@pytest.mark.parametrize("kind,m", [("exponential", 2), ("uniform", 3), ("pareto", 2)])
def test_block_bookkeeping_equals_a_per_round_replay(kind, m, horizon, every):
    # movement, clamp count and range check run once per block of rounds; the
    # block edges must not show in any field
    game = random_game(m, 3, np.random.default_rng(23))
    fams = _player_families(kind, m, 3, "per-player")
    cfg = RunConfig(horizon=horizon, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=fams, belief_families=fams,
                    record_every=horizon if every == "horizon" else int(every))
    trace = run_dynamics(game, cfg)
    want = _replay(game, cfg)
    for name in ("probabilities", "estimates", "payoffs", "movement"):
        got = getattr(trace, name)
        assert got.shape == want[name].shape, name
        assert got.tobytes() == want[name].tobytes(), name
    assert trace.clamp_triggers == want["clamp_triggers"]
    assert trace.final_residual == want["final_residual"]
    if kind == "uniform" and horizon > 1:
        assert trace.clamp_triggers > 0


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["exponential", "pareto-q0.7", "pareto-q2.5"])
def test_families_that_differ_only_in_eta_replay_the_single_step_api(kind, m):
    # one stacked group answers every player's response and takes every risk
    # quantile in one kernel call, each entry with its own player's bits
    game = random_game(m, 3, np.random.default_rng(26))
    etas = np.random.default_rng(27).uniform(0.5, 2.0, (m, 3))
    fams = tuple(ExponentialFamily(2.0, eta=e) if kind == "exponential"
                 else ParetoFamily(3.0, float(kind[-3:]), e) for e in etas)
    assert len(_family_groups(fams)) == 1
    cfg = RunConfig(horizon=_BLOCK_ROUNDS + 9, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=fams, belief_families=fams, record_every=3)
    trace = run_dynamics(game, cfg)
    want = _replay(game, cfg)
    for name in ("probabilities", "estimates", "payoffs", "movement"):
        assert getattr(trace, name).tobytes() == want[name].tobytes(), name
    assert trace.final_residual == want["final_residual"]


@pytest.mark.parametrize("setup", ["shared", "equal", "per-player"])
@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("kind", ["exponential", "uniform", "pareto"])
def test_bound_buffers_leak_nowhere(kind, m, setup):
    # the round loop works in place on buffers and views bound once per run;
    # none of them may reach the config, a later run or the returned trace
    n = 3
    game = random_game(m, n, np.random.default_rng(24))
    fams = _player_families(kind, m, n, setup)
    start = np.random.default_rng(25).normal(0.0, 0.5, (m, n))
    cfg = RunConfig(horizon=_BLOCK_ROUNDS + 9, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=fams, belief_families=fams,
                    initial_estimates=start.copy(), record_every=4)
    first, second = run_dynamics(game, cfg), run_dynamics(game, cfg)
    assert cfg.initial_estimates.tobytes() == start.tobytes()
    arrays = []
    for trace in (first, second):
        fields = {name: getattr(trace, name) for name in Trace.__dataclass_fields__}
        arrays += [a for a in fields.values() if isinstance(a, np.ndarray)]
    for name in Trace.__dataclass_fields__:
        a, b = getattr(first, name), getattr(second, name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
    assert len(arrays) == 2 * 6  # rounds, rates, probabilities, estimates, payoffs, movement
    for i, a in enumerate(arrays):
        assert not np.shares_memory(a, cfg.initial_estimates)
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def _predicted_start_cases():
    """(game, families) with Pareto q < 1, in (1, 2) and > 2, a tabulated family,
    and a 3-player game of three groups (Pareto q = 2.5, tabulated, exponential)."""
    rng = np.random.default_rng(57)
    eta = np.array([0.6, 1.0, 1.7])
    cases = [(random_game(2, 3, rng), (ParetoFamily(3.0, q, eta), ParetoFamily(4.0, q, eta[::-1])))
             for q in (0.6, 1.5, 2.5)]
    cases.append((random_game(2, 3, rng), (_family("tabulated", 3, 0), _family("tabulated", 3, 1))))
    mixed = (ParetoFamily(3.0, 2.5, eta), _family("tabulated", 3, 0), ExponentialFamily(2.0, eta))
    cases.append((random_game(3, 3, rng), mixed))
    return cases


@pytest.mark.parametrize("horizon", [40, 400])
def test_predicted_starts_give_a_cold_solver_s_bits(monkeypatch, horizon):
    # each bound generic-route solver starts a row at
    # kappa + w . (u_new - u_old) from that row's last call; a solver that
    # starts every row cold must give every Trace field the same bytes
    runs = []
    for game, fams in _predicted_start_cases():
        cfg = RunConfig(horizon=horizon, schedule=StepSchedule.power(1.0, 0.6),
                        risk_families=fams, belief_families=fams, record_every=1)
        runs.append((game, cfg, run_dynamics(game, cfg)))
    bound = response.response_solver

    def cold_solver(fam):
        if isinstance(fam, ExponentialFamily):  # softmax: no start to predict
            return bound(fam)

        def solve(u, out=None):
            out = np.empty(u.shape) if out is None else out
            out[...] = np.apply_along_axis(
                lambda row: response._bisection_response(fam, row)[0], -1, u)
            return out

        return solve

    monkeypatch.setattr(response, "response_solver", cold_solver)
    for game, cfg, warm in runs:
        cold = run_dynamics(game, cfg)
        for name in Trace.__dataclass_fields__:
            a, b = getattr(warm, name), getattr(cold, name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


def _solver_with_bad_round(monkeypatch, bad_round: int, fail_round: int | None = None):
    """Patch the response solvers: player 1's response at ``bad_round`` gets a
    probability above one, and the solve of ``fail_round`` raises."""
    solver = response.response_solver
    calls = {"n": 0}

    def patched(fam):
        solve = solver(fam)

        def tampered(u, out=None):
            p = solve(u, out=out)
            if u.ndim == 2:  # one call per round; an error replay's single rows are 1-D
                calls["n"] += 1
                if calls["n"] == bad_round:
                    p[1, 0] = 1.5
                if calls["n"] == fail_round:
                    raise RuntimeError("solver failed")
            return p

        return tampered

    monkeypatch.setattr(response, "response_solver", patched)


def test_out_of_range_probability_names_its_round(monkeypatch):
    _solver_with_bad_round(monkeypatch, bad_round=_BLOCK_ROUNDS + 5)
    cfg = _quick_config(horizon=3 * _BLOCK_ROUNDS, n=3)
    with pytest.raises(ValueError, match=rf"round {_BLOCK_ROUNDS + 5}, player 1: "
                                         r"argument must lie in \[0, 1\]"):
        run_dynamics(matching_game(3), cfg)


def test_out_of_range_probability_is_reported_before_a_later_solver_failure(monkeypatch):
    # the range check of a block runs at its end, but an error within the block
    # still comes after the earlier round's bad probability
    _solver_with_bad_round(monkeypatch, bad_round=3, fail_round=7)
    with pytest.raises(ValueError, match="round 3, player 1"):
        run_dynamics(matching_game(3), _quick_config(horizon=20, n=3))


def test_a_response_off_the_simplex_is_reported_with_its_round_and_player():
    # 2N is lost in 2N + 1e17: player 1's sparsemax row sums to 0, which the
    # block's check catches without a per-round test
    fam = UniformFamily(1.0, 3)
    cfg = RunConfig(horizon=5, schedule=StepSchedule.constant(0.1),
                    risk_families=(fam, fam), belief_families=(fam, fam),
                    initial_estimates=np.array([[0.0, 0.0, 0.0], [1e17, 0.0, 0.0]]))
    with pytest.raises(ValueError, match=r"round 1, player 1: argument must lie in \[0, 1\], "
                                         r"and the response sum to one within 1e-9: "
                                         r"\[0\.0, 0\.0, 0\.0\]"):
        run_dynamics(matching_game(3), cfg)


def test_sparsemax_response_is_capped_at_one():
    # this pure response rounded to 1.0000000000000142, which made the loop's
    # range check fail on round 1
    u = np.array([-1056.96946453229, -1021.383518530686, -1335.950176070203,
                  -2008.8137361421898])
    fam = UniformFamily(1.0, 4)
    p = response_probabilities(fam, u)
    assert p.tolist() == [0.0, 1.0, 0.0, 0.0]
    cfg = RunConfig(horizon=5, schedule=StepSchedule.constant(0.1),
                    risk_families=(fam, fam), belief_families=(fam, fam),
                    initial_estimates=np.stack([u, u]))
    trace = run_dynamics(matching_game(4), cfg)
    assert trace.probabilities[0].tolist() == [p.tolist()] * 2
    assert trace.probabilities.max() <= 1.0


@pytest.mark.parametrize("fam, last_finite", [
    (UniformFamily(1e308, 2), 2),
    (ExponentialFamily(1e308, n_actions=2), 16),
    (UniformFamily(1e307, 2), 178),  # in the third block: replayed from that block's start
])
def test_estimates_that_leave_the_float_range_end_the_run_naming_the_round(fam, last_finite):
    # the estimate update overflows, and the next responses are NaN; no warning
    # is raised (pytest turns RuntimeWarnings into errors)
    def cfg(horizon):
        return RunConfig(horizon=horizon, schedule=StepSchedule.power(1.0, 0.6),
                         risk_families=(fam, fam), belief_families=(fam, fam))

    assert np.isfinite(run_dynamics(matching_game(2), cfg(last_finite)).estimates).all()
    with pytest.raises(RuntimeError, match=rf"^round {last_finite + 1}, player 0: "
                                           "estimates diverged to non-finite values$"):
        run_dynamics(matching_game(2), cfg(last_finite + 50))


def test_diverged_estimates_are_reported_before_a_later_solver_failure(monkeypatch):
    solver = response.response_solver

    def refusing(fam):
        solve = solver(fam)

        def checked(u, out=None):
            if not np.isfinite(u).all():
                raise RuntimeError("no response to non-finite payoffs")
            return solve(u, out=out)

        return checked

    monkeypatch.setattr(response, "response_solver", refusing)
    fam = UniformFamily(1e308, 2)
    cfg = RunConfig(horizon=50, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=(fam, fam), belief_families=(fam, fam))
    with pytest.raises(RuntimeError, match="^round 3, player 0: estimates diverged"):
        run_dynamics(matching_game(2), cfg)


def test_run_dynamics_rejects_mismatched_game():
    cfg = _quick_config(n=2)
    with pytest.raises(ValueError, match="does not match"):
        run_dynamics(matching_game(3), cfg)
    cfg3 = RunConfig(horizon=5, schedule=StepSchedule.constant(0.1),
                     risk_families=_exp_pair() * 2, belief_families=_exp_pair() * 2)
    with pytest.raises(ValueError, match="players"):
        run_dynamics(matching_game(2), cfg3)


def test_initial_estimates_shift_the_trajectory():
    game = matching_game(2)
    fams = _exp_pair(gamma=3.0)
    base = RunConfig(horizon=50, schedule=StepSchedule.power(1.0, 0.6),
                     risk_families=fams, belief_families=fams)
    seeded = RunConfig(horizon=50, schedule=StepSchedule.power(1.0, 0.6),
                       risk_families=fams, belief_families=fams,
                       initial_estimates=np.array([[2.0, 0.0], [2.0, 0.0]]))
    a, b = run_dynamics(game, base), run_dynamics(game, seeded)
    assert np.abs(a.probabilities[0] - b.probabilities[0]).max() > 0.05


# ---------------------------------------------------------------------------
# trace output


def test_trace_csv_roundtrips_exact_floats(tmp_path):
    game = matching_game(2)
    cfg = _quick_config(horizon=12, every=4)
    trace = run_dynamics(game, cfg)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == trace.rounds.size * 2 * 2
    for row in rows:
        t = int(row["round"])
        j, i = int(row["player"]), int(row["action"])
        r = int(np.nonzero(trace.rounds == t)[0][0])
        assert float(row["probability"]) == trace.probabilities[r, j, i]
        assert float(row["estimate"]) == trace.estimates[r, j, i]
        assert float(row["payoff"]) == trace.payoffs[r, j, i]
        assert float(row["lambda"]) == trace.rates[r]


def _reference_csv(trace) -> str:
    """The long-format CSV text, one plain f-string per line."""
    lines = ["round,player,action,probability,estimate,payoff,lambda\n"]
    for r, t in enumerate(trace.rounds.tolist()):
        lam = float(trace.rates[r])
        for j in range(trace.probabilities.shape[1]):
            for i in range(trace.probabilities.shape[2]):
                p, e, y = (float(a[r, j, i]) for a in
                           (trace.probabilities, trace.estimates, trace.payoffs))
                lines.append(f"{t},{j},{i},{p!r},{e!r},{y!r},{lam!r}\n")
    return "".join(lines)


#: the values a writer test draws its columns from: exact zeros of both signs,
#: infinities, two NaN payloads, subnormals and a few plain floats, so that values
#: repeat within a block and across blocks
_CSV_POOL = [0.0, -0.0, np.inf, -np.inf,
             *np.array([0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float),
             5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1 / 3, -1e-5, 1e16, 123456789.0]


def _pooled_trace(rng, players, actions, records, every, pool) -> Trace:
    shape = (records, players, actions)
    columns = [rng.choice(pool, size=shape) for _ in range(3)]
    columns[0][0, 0, :2] = [0.0, -0.0]  # both zeros in the first block
    return Trace(horizon=records * every, record_every=every,
                 rounds=np.arange(1, records + 1) * every, rates=rng.choice(pool, size=records),
                 probabilities=columns[0], estimates=columns[1], payoffs=columns[2],
                 movement=np.zeros(records * every), clamp_triggers=0, final_residual=0.0)


@pytest.mark.parametrize("players, actions, records, every", [
    pytest.param(2, 3, 3 * _CSV_BLOCK_ROUNDS - 1, 5, id="full-blocks-and-a-short-one"),
    pytest.param(3, 4, _CSV_BLOCK_ROUNDS, 1, id="one-block"),
    pytest.param(3, 2, _CSV_BLOCK_ROUNDS // 2, 3, id="one-short-block"),
])
def test_trace_csv_equals_a_plain_line_writer(tmp_path, players, actions, records, every):
    rng = np.random.default_rng(players * 100 + records)
    pool = _CSV_POOL + (rng.normal(size=4) * 10.0 ** rng.integers(-20, 20, size=4)).tolist()
    trace = _pooled_trace(rng, players, actions, records, every, pool)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == _reference_csv(trace).encode()


def test_trace_csv_of_an_every_round_sparse_run_equals_a_plain_line_writer(tmp_path):
    fams = (UniformFamily(0.05, 4),) * 3
    cfg = RunConfig(horizon=5 * _CSV_BLOCK_ROUNDS + 3, schedule=StepSchedule.power(1.0, 0.6),
                    risk_families=fams, belief_families=fams)
    trace = run_dynamics(random_game(3, 4, np.random.default_rng(11)), cfg)
    assert (trace.probabilities == 0.0).any()  # sparse responses repeat exact zeros
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == _reference_csv(trace).encode()


class _RecordingFile:
    """A text file that keeps the line and character count of each ``write``."""

    def __init__(self, fh, writes):
        self._fh, self.writes = fh, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self.writes.append((text.count("\n"), len(text)))
        return self._fh.write(text)


def test_trace_csv_holds_one_block_of_text_at_a_time(tmp_path, monkeypatch):
    writes = []
    monkeypatch.setattr(dynamics, "open", lambda *args, **kwargs: _RecordingFile(
        open(*args, **kwargs), writes), raising=False)
    rng = np.random.default_rng(3)
    path = tmp_path / "trace.csv"

    def peak_while_writing(records):
        trace = _pooled_trace(rng, 3, 4, records, 1, rng.normal(size=10000).tolist())
        writes.clear()
        tracemalloc.start()
        try:
            trace.to_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = _reference_csv(trace)
        assert path.read_text() == text and sum(size for _, size in writes) == len(text)
        return peak

    small = peak_while_writing(2 * _CSV_BLOCK_ROUNDS)
    large = peak_while_writing(12 * _CSV_BLOCK_ROUNDS + 5)
    # the header, then one write per block that carries that block's lines
    assert [lines for lines, _ in writes] == [1] + [_CSV_BLOCK_ROUNDS * 12] * 12 + [5 * 12]
    # text formatted ahead of its block would grow with the trace
    assert large < 1.5 * small


def test_trace_summary_json():
    game = matching_game(2)
    trace = run_dynamics(game, _quick_config(horizon=40, every=10))
    doc = json.loads(json.dumps(trace.summary()))
    assert doc["horizon"] == 40
    assert doc["final_residual"] == trace.final_residual
    assert set(doc) >= {"recorded_rounds", "clamp_triggers", "last_movement"}


def test_default_clamp_constant_is_sane():
    assert 0.0 < PROBABILITY_CLAMP < 1e-6
    assert isinstance(Trace.__dataclass_fields__, dict)  # dataclass stays a dataclass

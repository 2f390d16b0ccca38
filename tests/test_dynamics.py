import csv
import json

import numpy as np
import pytest
from scipy.special import zeta

from beliefgames.analysis import equilibrium_residual
from beliefgames.dynamics import (
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
from beliefgames.response import response_operator, response_probabilities


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
    # near-vertical CDF: the response at (0, 0) exists, the one at (1e3, 1e3) fails
    steep = np.array([[0.0, -1.0], [0.2, 0.0], [0.8, 1e-13], [1.0, 1.0]])
    fam = TabulatedFamily([steep, steep])
    cfg = RunConfig(horizon=5, schedule=StepSchedule.constant(0.1),
                    risk_families=_exp_pair(), belief_families=(fam, fam),
                    initial_estimates=np.array([[0.0, 0.0], [1000.0, 1000.0]]))
    with pytest.raises(RuntimeError, match="round 1, player 1: bisection failed to converge"):
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

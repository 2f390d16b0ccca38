import csv
import json

import numpy as np
import pytest
from scipy.special import zeta

from beliefgames.analysis import equilibrium_residual
from beliefgames import response
from beliefgames.dynamics import (
    _BLOCK_ROUNDS,
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
    # each bound generic-route solver starts a row's Newton phase at
    # kappa + p . (u_new - u_old) from that row's last call; a solver that
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
        return lambda u: np.apply_along_axis(
            lambda row: response._bisection_response(fam, row)[0], -1, u)

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

        def tampered(u):
            p = solve(u)
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


@pytest.mark.parametrize("players, actions, records, every", [
    (2, 3, 37, 5),   # two full 16-round blocks and a short one
    (3, 4, 16, 1),   # one full block
    (3, 2, 5, 3),    # one short block
])
def test_trace_csv_equals_a_plain_line_writer(tmp_path, players, actions, records, every):
    rng = np.random.default_rng(players * 100 + records)
    special = [-0.0, 5e-324, 2.2e-308, 1e16, 1e-5, 0.1, -1e16, 123456789.0]
    shape = (records, players, actions)

    def column():
        values = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        values.flat[:len(special)] = rng.permutation(special)
        return values

    rates = rng.random(records)
    rates[:3] = [1e-5, 5e-324, 1e16]
    trace = Trace(horizon=records * every, record_every=every,
                  rounds=np.arange(1, records + 1) * every, rates=rates,
                  probabilities=column(), estimates=column(), payoffs=column(),
                  movement=np.zeros(records * every), clamp_triggers=0, final_residual=0.0)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    assert path.read_bytes() == _reference_csv(trace).encode()


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

"""Named self-checks pairing every closed form with an independent oracle.

Each check returns (passed, detail).  The suite is deterministic (fixed
seeds), fast enough to run on every install, and callable by name subsets
from the command line (``beliefgames verify --only sparsemax``).
"""

from __future__ import annotations

import time

import numpy as np

from .analysis import equilibrium_residual, fixed_point_iterate
from .dynamics import RunConfig, StepSchedule, run_dynamics
from .families import ExponentialFamily, ParetoFamily, TabulatedFamily, UniformFamily
from .games import matching_game, random_game
from .oracles import (
    bisection_response,
    coupling_expected_max,
    finite_difference_gradient,
    grid_fixed_point,
    gumbel_choice_frequencies,
    project_simplex,
    quadrature_regularizer,
)
from .response import (
    _bisection_response,
    quantal_response,
    response_operator,
    response_probabilities,
    sparsemax,
    weighted_softmax,
)


def _check_softmax_bisection() -> tuple[bool, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 8))
        fam = ExponentialFamily(float(rng.uniform(0.2, 4.0)), eta=rng.uniform(0.2, 3.0, n))
        u = rng.random(n)
        direct = weighted_softmax(u, fam.eta, fam.gamma)
        generic = response_probabilities(fam, u, method="bisection")
        worst = max(worst, float(np.abs(direct - generic).max()))
    return worst <= 1e-8, f"max deviation {worst:.3e}"


def _check_sparsemax_projection() -> tuple[bool, str]:
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 12))
        u = rng.uniform(-4.0, 4.0, n) * float(rng.uniform(0.5, 8.0))
        gap = np.abs(sparsemax(u) - project_simplex(u / (2.0 * n))).max()
        worst = max(worst, float(gap))
    return worst <= 1e-10, f"max deviation {worst:.3e}"


def _check_sparsemax_bisection() -> tuple[bool, str]:
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 8))
        fam = UniformFamily(float(rng.uniform(0.2, 3.0)), n)
        u = rng.random(n)
        direct = sparsemax(u / fam.gamma)
        generic = response_probabilities(fam, u, method="bisection")
        worst = max(worst, float(np.abs(direct - generic).max()))
    return worst <= 1e-8, f"max deviation {worst:.3e}"


def _check_kkt_bisection_replay() -> tuple[bool, str]:
    """Each case solved cold and warm-started from the kappa of a nearby payoff
    vector; then drifting payoff paths through bound solvers, whose rows start
    at predicted kappas: one family's, and an eta-stacked pair's."""
    rng = np.random.default_rng(22)
    nudge = np.random.default_rng(23)
    mismatches = 0
    for trial in range(40):
        n = int(rng.integers(2, 6))
        if trial % 4 == 3:
            tables = []
            for _ in range(n):
                ts = np.concatenate(([0.0], np.sort(rng.uniform(0.05, 0.95, 3)), [1.0]))
                tables.append(np.column_stack((ts, np.cumsum(rng.uniform(0.1, 2.0, 5)))))
            fam = TabulatedFamily(tables)
        else:
            q = float(rng.uniform(0.3, 0.9) if trial % 2 == 0 else rng.uniform(1.2, 3.0))
            fam = ParetoFamily(float(rng.uniform(0.5, 6.0)), q, rng.uniform(0.5, 2.0, n))
        u = rng.uniform(-1.0, 1.0, n) * float(rng.uniform(0.1, 10.0))
        p_ref, kappa_ref = bisection_response(fam, u)
        nearby = _bisection_response(fam, u + nudge.normal(0.0, 0.01, n))[1]
        for start in (None, nearby):
            p, kappa = _bisection_response(fam, u, start)
            mismatches += not (p.tobytes() == p_ref.tobytes() and kappa == kappa_ref)
    # each step moves every payoff by one common amount and each by a tiny one of
    # its own, as learning rounds near a fixed point move the estimates: the
    # predicted kappas then certify in one kernel call
    drift = np.random.default_rng(24)
    pair = tuple(ParetoFamily(6.0, 1.8, drift.uniform(0.5, 2.0, 3)) for _ in range(2))
    paths = 0
    for fams in (pair[:1], pair):
        respond = response_operator(fams)
        u = drift.uniform(-1.0, 1.0, (len(fams), 3))
        for _ in range(20):
            u = u + drift.normal(0.0, 1.0, (len(fams), 1)) + drift.normal(0.0, 1e-7, u.shape)
            for fam, row, p in zip(fams, u, respond(u)):
                mismatches += p.tobytes() != bisection_response(fam, row)[0].tobytes()
                paths += 1
    return mismatches == 0, (f"{mismatches} of {80 + paths} solves (40 cold, 40 warm, {paths} "
                             "on drifting paths) differ in some bit")


def _check_regularizer_quadrature() -> tuple[bool, str]:
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n))
        fams = [
            ExponentialFamily(float(rng.uniform(0.5, 3.0)), eta=rng.uniform(0.5, 2.0, n)),
            UniformFamily(float(rng.uniform(0.5, 3.0)), n),
            ParetoFamily(float(rng.uniform(0.5, 3.0)), float(rng.uniform(1.2, 3.0)),
                         rng.uniform(0.5, 2.0, n)),
        ]
        for fam in fams:
            gap = abs(fam.regularizer(p) - quadrature_regularizer(fam, p))
            worst = max(worst, float(gap))
    return worst <= 1e-8, f"max deviation {worst:.3e}"


def _check_density_finite_difference() -> tuple[bool, str]:
    rng = np.random.default_rng(15)
    worst = 0.0
    grid = np.linspace(0.05, 0.95, 10)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        fams = [
            ExponentialFamily(float(rng.uniform(0.5, 3.0)), eta=rng.uniform(0.5, 2.0, n)),
            UniformFamily(float(rng.uniform(0.5, 3.0)), n),
            ParetoFamily(float(rng.uniform(0.8, 2.0)), float(rng.uniform(1.3, 2.5)),
                         rng.uniform(0.6, 1.8, n)),
        ]
        ps = np.repeat(grid[:, None], n, axis=1)
        for fam in fams:
            s = fam.quantile_vector(1.0 - ps)
            h = 1e-6
            fd = (fam.cdf_vector(s + h) - fam.cdf_vector(s - h)) / (2.0 * h)
            worst = max(worst, float(np.abs(fam.density_vector(ps) - fd).max()))
    return worst <= 1e-5, f"max deviation {worst:.3e}"


def _check_quantile_roundtrip() -> tuple[bool, str]:
    rng = np.random.default_rng(16)
    ts = np.linspace(0.01, 0.99, 25)
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        fams = [
            ExponentialFamily(float(rng.uniform(0.5, 3.0)), eta=rng.uniform(0.5, 2.0, n)),
            UniformFamily(float(rng.uniform(0.5, 3.0)), n),
            ParetoFamily(float(rng.uniform(0.8, 2.0)), float(rng.uniform(0.3, 0.8)),
                         rng.uniform(0.6, 1.8, n)),
        ]
        t = np.repeat(ts[:, None], n, axis=1)
        for fam in fams:
            back = fam.cdf_vector(fam.quantile_vector(t))
            worst = max(worst, float(np.abs(back - t).max()))
    return worst <= 1e-9, f"max deviation {worst:.3e}"


def _check_gumbel_softmax() -> tuple[bool, str]:
    u = np.array([1.0, 0.0])
    freq = gumbel_choice_frequencies(u, 1.0, 200_000, seed=17)
    target = weighted_softmax(u, np.ones(2), 1.0)
    gap = float(np.abs(freq - target).max())
    return gap <= 5e-3, f"max deviation {gap:.3e}"


def _check_coupling_bound() -> tuple[bool, str]:
    rng = np.random.default_rng(18)
    worst = -np.inf
    for trial in range(6):
        n = int(rng.integers(2, 5))
        fam = ExponentialFamily(float(rng.uniform(0.5, 2.0)), n_actions=n)
        u = rng.random(n)
        upper = quantal_response(fam, u).optimistic_value
        for copula in ("independence", "comonotone", "permutation"):
            est = coupling_expected_max(fam, u, copula, 20_000, seed=100 + trial)
            worst = max(worst, est.mean - 3.0 * est.stderr - upper)
    return worst <= 0.0, f"max (estimate - 3 se - bound) = {worst:.3e}"


def _check_gradient_finite_difference() -> tuple[bool, str]:
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        fam = ExponentialFamily(float(rng.uniform(0.5, 2.0)), eta=rng.uniform(0.5, 2.0, n))
        u = rng.random(n)
        p = rng.dirichlet(np.ones(n)) * 0.9 + 0.1 / n

        def value(x):
            return float(np.dot(x, u)) + fam.regularizer_terms(x)

        grad = u + fam.tail_quantile_vector(p)
        fd = finite_difference_gradient(value, p, h=1e-5)
        worst = max(worst, float(np.abs(grad - fd).max()))
    return worst <= 1e-5, f"max deviation {worst:.3e}"


def _check_grid_fixed_point() -> tuple[bool, str]:
    game = matching_game()
    fams = [ExponentialFamily(3.0, n_actions=2)] * 2
    coarse = grid_fixed_point(game, fams, resolution=1e-2)
    solved = fixed_point_iterate(game, fams).profile
    gap = float(np.abs(coarse.probs - solved.probs).max())
    return gap <= 2e-2, f"profile gap {gap:.3e}"


def _check_dynamics_residual() -> tuple[bool, str]:
    rng = np.random.default_rng(20)
    game = random_game(2, 2, rng)
    fams = tuple(ExponentialFamily(3.0, n_actions=2) for _ in range(2))
    trace = run_dynamics(game, RunConfig(
        horizon=3000,
        schedule=StepSchedule.power(1.0, 0.6),
        risk_families=fams,
        belief_families=fams,
        record_every=3000,
    ))
    solved = fixed_point_iterate(game, fams)
    gap = float(np.abs(trace.final_profile.probs - solved.profile.probs).max())
    ok = trace.final_residual <= 1e-4 and gap <= 1e-4
    return ok, f"final residual {trace.final_residual:.3e}, gap to solver {gap:.3e}"


def _check_residual_zero_at_solution() -> tuple[bool, str]:
    rng = np.random.default_rng(21)
    game = random_game(2, 3, rng)
    fams = tuple(ExponentialFamily(6.0, n_actions=3) for _ in range(2))
    res = fixed_point_iterate(game, fams)
    val = equilibrium_residual(game, res.profile, fams)
    return res.converged and val <= 1e-9, f"residual {val:.3e}"


CHECKS = {
    "softmax_bisection": _check_softmax_bisection,
    "sparsemax_projection": _check_sparsemax_projection,
    "sparsemax_bisection": _check_sparsemax_bisection,
    "kkt_bisection_replay": _check_kkt_bisection_replay,
    "regularizer_quadrature": _check_regularizer_quadrature,
    "density_finite_difference": _check_density_finite_difference,
    "quantile_roundtrip": _check_quantile_roundtrip,
    "gumbel_softmax": _check_gumbel_softmax,
    "coupling_bound": _check_coupling_bound,
    "gradient_finite_difference": _check_gradient_finite_difference,
    "grid_fixed_point": _check_grid_fixed_point,
    "dynamics_residual": _check_dynamics_residual,
    "residual_zero_at_solution": _check_residual_zero_at_solution,
}


def verification_suite(only: str | None = None) -> dict:
    """Run the named checks (optionally filtered by substring) and collect results.

    A check that raises fails with ``type: message`` as its detail, and the
    remaining checks still run.  ``timing`` holds each check's wall seconds
    and their total.
    """
    names = [n for n in CHECKS if only is None or only in n]
    if not names:
        raise ValueError(f"no verification checks match {only!r}")
    results, wall_s = {}, {}
    for name in names:
        start = time.perf_counter()
        try:
            passed, detail = CHECKS[name]()
        except Exception as exc:
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        wall_s[name] = time.perf_counter() - start
        results[name] = {"passed": bool(passed), "detail": detail}
    return {
        "checks": results,
        "all_passed": all(r["passed"] for r in results.values()),
        "timing": {"checks_s": wall_s, "total_s": sum(wall_s.values())},
    }

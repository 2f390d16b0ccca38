"""Pinned mutants: each planted defect must make its guard test fail.

A mutant is a file, one exact source line in it, the line that replaces it,
and the node id of the test that guards against it.  Each case copies
``src/``, ``tests/`` and ``pyproject.toml`` to a scratch directory, plants
the mutant there and runs the guard on that copy in a fresh interpreter,
under a hypothesis profile that reports a failing example without shrinking
or explaining it; two cases run at a time.  A guard that still passes has
stopped guarding; a line that no longer exists means the code moved, and the
mutant has to be planted again on its new form.
"""

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

MUTANTS = {
    # the certification margin of a KKT solve cut below the bisection's own resolution
    "kkt_certification_margin": (
        "src/beliefgames/response.py",
        "    need = BISECT_TOL + max(1e-13, 64.0 * fam.n_actions * _EPS)",
        "    need = 1e-14",
        "tests/test_response.py::test_predicted_starts_on_drifting_paths_give_plain_bisection_bits",
    ),
    # a regularizer kernel that sums a stack of rows into one number
    "regularizer_sums_the_whole_stack": (
        "src/beliefgames/families.py",
        "        return self.gamma * np.where(p > 0.0, p * logs, 0.0).sum(axis=-1)",
        "        return self.gamma * np.where(p > 0.0, p * logs, 0.0).sum()",
        "tests/test_families.py::test_stacked_kernel_rows_have_the_bits_of_their_own_calls",
    ),
    # a fixed-point solve that keeps every Newton step, whether or not it lowers the residual
    "newton_step_always_accepted": (
        "src/beliefgames/analysis.py",
        "        if new is None or not new_residual < residual:",
        "        if new is None:",
        "tests/test_analysis.py::test_guarded_newton_converges_on_a_weakly_regularized_game",
    ),
    # a three-player solve whose every Newton step reuses the start profile's cross blocks
    "cross_blocks_bound_at_the_start_profile": (
        "src/beliefgames/analysis.py",
        "    fixed = blocks(probs) if m == 2 else None  # a two-player game's blocks at every P",
        "    fixed = blocks(probs)",
        "tests/test_analysis.py::test_bound_fixed_point_has_the_reference_bits",
    ),
    # a stability check that reuses one curvature grid for every family of a class
    "curvature_grid_cached_by_family_class": (
        "src/beliefgames/analysis.py",
        "        key = id(fam)  # not the class: families of one class differ in their parameters",
        "        key = type(fam)",
        "tests/test_analysis.py::test_stability_report_equals_its_per_player_assembly[3-distinct]",
    ),
    # a risk group's rows of the adjustment buffer bound as a copy: the kernel
    # fills the copy, and the update reads max(p, clamp) in place of the quantiles
    "risk_group_updates_a_copy": (
        "src/beliefgames/dynamics.py",
        "    quantiles = [(fam._tail_quantile_above(clamp), mass[index])",
        "    quantiles = [(fam._tail_quantile_above(clamp), mass[index].copy())",
        "tests/test_dynamics.py::test_run_dynamics_replays_the_public_single_step_api"
        "[pareto-3-per-player]",
    ),
    # the bound softmax route at a temperature 1% off the family's
    "softmax_route_off_gamma": (
        "src/beliefgames/response.py",
        "        return lambda u, out=None: _softmax_rows(u, eta, gamma, out)",
        "        return lambda u, out=None: _softmax_rows(u, eta, 1.01 * gamma, out)",
        "tests/test_response.py::test_bound_closed_form_routes_match_the_bisection",
    ),
    # the bound sparsemax route at a temperature 1% off the family's
    "sparsemax_route_off_gamma": (
        "src/beliefgames/response.py",
        "        return lambda u, out=None:"
        " _sparsemax_rows(np.divide(u, gamma, out=out), j, two_n)[0]",
        "        return lambda u, out=None:"
        " _sparsemax_rows(np.divide(u, 1.01 * gamma, out=out), j, two_n)[0]",
        "tests/test_response.py::test_bound_closed_form_routes_match_the_bisection",
    ),
    # the sparsemax kernel's threshold from the partial sum one past the support
    "sparsemax_sum_one_past_the_support": (
        "src/beliefgames/response.py",
        "    kappa = np.vecdot(c, np.equal(j, k, out=s), keepdims=True)"
        "  # k-th sum plus exact zeros",
        "    kappa = np.vecdot(c, np.equal(j, k + 1, out=s), keepdims=True)",
        "tests/test_response.py::test_sparsemax_kernel_has_the_bits_of_the_plain_projection",
    ),
    # a resumed bisection whose certified ends are not the predicted pair
    "resume_without_the_predicted_ends_check": (
        "src/beliefgames/response.py",
        "        if a_cert != a or b_cert != b:",
        "        if False:",
        "tests/test_response.py::test_bisection_replay_is_bitwise_plain_bisection",
    ),
    # a resumed bisection after the bracket expansion moved hi
    "resume_without_the_unchanged_hi_check": (
        "src/beliefgames/response.py",
        "    if walked is not None and hi == top:",
        "    if walked is not None:",
        "tests/test_response.py::test_bisection_replay_is_bitwise_plain_bisection",
    ),
    # a one-call path that resumes the bisection at its walked bracket although
    # only the lower end of its pair certified
    "one_call_path_without_the_upper_certificate": (
        "src/beliefgames/response.py",
        "        accurate = a_cert == a and b_cert == b",
        "        accurate = a_cert == a",
        "tests/test_response.py::"
        "test_predicted_starts_on_common_drift_paths_give_each_row_its_cold_bits",
    ),
    # a stacked group whose generic route solves every row with player 0's operands
    "stacked_group_with_player_zero_s_route": (
        "src/beliefgames/response.py",
        "                    bound.append(_kkt_route(member))",
        "                    bound.append(_kkt_route(members[0]))",
        "tests/test_response.py::test_a_stacked_group_gives_each_row_its_own_players_bits"
        "[pareto-q1.5-lead0]",
    ),
    # an eta-stack rule that ignores Pareto's q: families of another shape share a group
    "stack_rule_ignores_q": (
        "src/beliefgames/response.py",
        "            and getattr(fam, \"q\", None) == getattr(first, \"q\", None)"
        " for fam in families):",
        "            for fam in families):",
        "tests/test_response.py::"
        "test_family_groups_follow_the_rule_and_keep_each_player_s_bits[pareto-other]",
    ),
    # a solver that raises inside the replay check: one FAIL, and the suite runs on
    "kkt_replay_solver_raises": (
        "src/beliefgames/verify.py",
        "            for fam, row, p in zip(fams, u, respond(u)):",
        "            for fam, row, p in zip(fams, u, respond(u * np.nan)):",
        "tests/test_verify.py::test_kkt_bisection_replay_reaches_the_one_call_path",
    ),
    # a generic solve that takes a row holding a NaN or an infinite entry: its
    # bracket never closes, so the guard's child process runs into its timeout
    "non_finite_row_guard_removed": (
        "src/beliefgames/response.py",
        "    if not all(map(math.isfinite, us)):",
        "    if False:",
        "tests/test_response.py::test_a_non_finite_row_ends_the_generic_solve_at_once",
    ),
    # the Pareto CDF's floor of w at 0 for q < 1 too: the same bits, but 0 ** (1 / (q - 1))
    # divides by zero where the floor's power should overflow
    "pareto_floor_at_zero_below_one": (
        "src/beliefgames/families.py",
        "            1.0 / q, q - 1.0, self.gamma * q, 1.0 / (q - 1.0), 0.0 if q > 1.0 else 5e-324)))",
        "            1.0 / q, q - 1.0, self.gamma * q, 1.0 / (q - 1.0), 0.0)))",
        "tests/test_families.py::test_pareto_cdf_kernel_has_the_errstate_formulas_bits_and_is_silent",
    ),
    # the sampled concavity check back at its absolute slack, which roundoff fails at large gamma
    "concavity_check_absolute_slack": (
        "src/beliefgames/analysis.py",
        "        verified=bool((slack >= -_CONCAVITY_ULPS * _EPS * scale).all()),",
        "        verified=bool((slack >= -1e-9).all()),",
        "tests/test_cli.py::test_check_certifies_a_sparse_game_at_a_large_scale",
    ),
    # the CSV writer's dedupe keyed on float values, which merges -0.0 with 0.0
    "csv_dedupe_on_float_values": (
        "src/beliefgames/dynamics.py",
        "                keys, where = np.unique(values.view(np.int64), return_inverse=True)",
        "                keys, where = np.unique(values, return_inverse=True)",
        "tests/test_dynamics.py::test_trace_csv_equals_a_plain_line_writer[one-block]",
    ),
    # the curvature read off the best action's density instead of the worst's
    "best_action_curvature": (
        "src/beliefgames/families.py",
        "        return max(float(np.power(self.eta, self.q - 1.0).max()) / (self.gamma * self.q),"
        " _TINY)",
        "        return max(float(np.power(self.eta, self.q - 1.0).min()) / (self.gamma * self.q),"
        " _TINY)",
        "tests/test_analysis.py::test_reported_curvature_bounds_the_tangent_concavity",
    ),
}


def _run_guard(name: str, where: Path) -> subprocess.CompletedProcess:
    """Plant mutant ``name`` in a copy of the project at ``where`` and run its guard there."""
    path, line, replacement, guard = MUTANTS[name]
    shutil.copytree(REPO / "src", where / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(REPO / "tests", where / "tests",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "pyproject.toml", where)
    target = where / path
    lines = target.read_text().split("\n")
    assert lines.count(line) == 1, (
        f"mutant {name!r}: {path} no longer holds the line {line.strip()!r} once; "
        "plant the mutant again on the code's new form")
    lines[lines.index(line)] = replacement
    target.write_text("\n".join(lines))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutant-guard", guard],
        cwd=where, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def guard_runs(request, tmp_path_factory):
    """The guard run of every selected mutant, started two at a time when the
    first case asks: name -> a future of its finished process.  Each run keeps
    its own copy and its own fresh interpreter."""
    names = [item.callspec.params["name"] for item in request.session.items
             if getattr(item, "originalname", None) == "test_each_mutant_fails_its_guard"]
    pool = ThreadPoolExecutor(max_workers=2)
    yield {name: pool.submit(_run_guard, name, tmp_path_factory.mktemp(name)) for name in names}
    pool.shutdown(cancel_futures=True)  # a stopped test run starts no further case


@pytest.mark.parametrize("name", MUTANTS)
def test_each_mutant_fails_its_guard(name, guard_runs):
    done = guard_runs[name].result()
    # the guard must run and fail: a pass lets the mutant survive, and a guard
    # that is not found or does not collect proves nothing
    guard = MUTANTS[name][3]
    assert "1 failed" in done.stdout, f"mutant {name!r} does not fail {guard}:\n{done.stdout}"

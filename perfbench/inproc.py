"""In-process workloads: one closed-loop caller driving the beliefgames library.

Run by ``run.py`` in a fresh interpreter, either as a set-up probe
(``--setup-only``: import the package, build the inputs, report, exit) or as
the measured worker.  A *pass* runs every operation of the workload once over
inputs generated from ``--seed``; passes repeat until ``--seconds`` elapse.
Correctness gates run after each pass, outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3

#: correctness gates: learn-* final residual, fixed-point residual,
#: softmax vs forced bisection, sparsemax vs simplex projection, KKT sum.
RESIDUAL_TOL = 1e-3
FIXED_POINT_TOL = 1e-9
SOFTMAX_TOL = 1e-8
SPARSEMAX_TOL = 1e-10
KKT_TOL = 1e-9
#: two routes to the same residual (trace vs. direct call) must agree to this.
SAME_TOL = 1e-12


def import_package():
    """Import beliefgames from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import beliefgames
    from beliefgames import analysis, dynamics, families, games, oracles, response

    where = os.path.dirname(os.path.abspath(beliefgames.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"beliefgames imported from {where}, not from {src}")
    return {"analysis": analysis, "dynamics": dynamics, "families": families,
            "games": games, "oracles": oracles, "response": response}


# -- workloads ---------------------------------------------------------------
#
# Each workload builds a list of operation inputs from the seed; ``run_op``
# is the timed operation and returns its outputs plus phase timings, and
# ``gate`` checks those outputs afterwards, returning failure messages.

class Workload:
    def __init__(self, bg: dict, seed: int, workdir: str) -> None:
        import numpy as np

        self.np = np
        self.bg = bg
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.inputs = self.make_inputs()

    def schedule(self):
        return self.bg["dynamics"].StepSchedule.power(1.0, 0.6)

    def run_config(self, fams, horizon: int, every: int):
        return self.bg["dynamics"].RunConfig(
            horizon=horizon, schedule=self.schedule(), risk_families=fams,
            belief_families=fams, record_every=every)

    def sampled_payoffs(self, game, trace, fp):
        """Payoff vectors the operation fed to its responses: first and last
        recorded estimates of the dynamics, and the fixed point's payoffs."""
        games = self.bg["games"]
        vecs = []
        for j in range(game.num_players):
            vecs.append((j, trace.estimates[0][j]))
            vecs.append((j, trace.estimates[-1][j]))
            vecs.append((j, games.payoff_vector(game, j, fp.profile)))
        return vecs


class Learn2pExp(Workload):
    """Criterion-07 shape: many 2x3 games, softmax responses, sparse records."""

    games_per_pass, horizon = 8, 2000

    def make_inputs(self):
        fam = self.bg["families"].ExponentialFamily(6.0, n_actions=3)
        return [(self.bg["games"].random_game(2, 3, self.rng), (fam, fam))
                for _ in range(self.games_per_pass)]

    def run_op(self, inp):
        game, fams = inp
        ana, dyn = self.bg["analysis"], self.bg["dynamics"]
        t0 = time.perf_counter()
        trace = dyn.run_dynamics(game, self.run_config(fams, self.horizon, self.horizon // 10))
        t1 = time.perf_counter()
        series = ana.residual_series(game, trace, fams)
        t2 = time.perf_counter()
        fp = ana.fixed_point_iterate(game, fams)
        t3 = time.perf_counter()
        return {"trace": trace, "series": series, "fp": fp, "rounds": self.horizon,
                "op_s": t3 - t0, "dyn_s": t1 - t0, "solve_s": t3 - t2}

    def gate(self, inp, out):
        game, fams = inp
        resp = self.bg["response"]
        fails = _learn_gates(out) + _fixed_point_gate(out["fp"])
        for j, u in self.sampled_payoffs(game, out["trace"], out["fp"]):
            auto = resp.response_probabilities(fams[j], u)
            forced = resp.response_probabilities(fams[j], u, method="bisection")
            gap = float(self.np.abs(auto - forced).max())
            if not gap <= SOFTMAX_TOL:
                fails.append(f"softmax vs bisection gap {gap:.3e}")
        return fails


class Learn3pSparse(Workload):
    """M >= 3 tensordot payoffs, sparsemax, every round recorded and written."""

    games_per_pass, horizon, gamma = 4, 1000, 1.0

    def make_inputs(self):
        fam = self.bg["families"].UniformFamily(self.gamma, 4)
        return [(self.bg["games"].random_game(3, 4, self.rng), (fam, fam, fam),
                 os.path.join(self.workdir, f"trace{k}.csv"))
                for k in range(self.games_per_pass)]

    def run_op(self, inp):
        game, fams, csv_path = inp
        ana, dyn = self.bg["analysis"], self.bg["dynamics"]
        t0 = time.perf_counter()
        trace = dyn.run_dynamics(game, self.run_config(fams, self.horizon, 1))
        t1 = time.perf_counter()
        trace.to_csv(csv_path)
        t2 = time.perf_counter()
        fp = ana.fixed_point_iterate(game, fams)
        t3 = time.perf_counter()
        stability = ana.stability_check(game, fams)
        t4 = time.perf_counter()
        return {"trace": trace, "fp": fp, "stable": stability.all_passed,
                "rounds": self.horizon, "op_s": t4 - t0, "dyn_s": t1 - t0,
                "solve_s": t3 - t2}

    def gate(self, inp, out):
        game, fams, csv_path = inp
        resp, oracles = self.bg["response"], self.bg["oracles"]
        fails = _learn_gates(out) + _fixed_point_gate(out["fp"])
        with open(csv_path, "rb") as fh:
            lines = fh.read().count(b"\n")
        want = 1 + self.horizon * game.num_players * game.num_actions
        if lines != want:
            fails.append(f"trace.csv has {lines} lines, expected {want}")
        n = game.num_actions
        for j, u in self.sampled_payoffs(game, out["trace"], out["fp"]):
            p = resp.response_probabilities(fams[j], u)
            ref = oracles.project_simplex(self.np.asarray(u) / (fams[j].gamma * 2.0 * n))
            gap = float(self.np.abs(p - ref).max())
            if not gap <= SPARSEMAX_TOL:
                fails.append(f"sparsemax vs projection gap {gap:.3e}")
        return fails


class KktPareto(Workload):
    """Pareto families, q below and above 1: the generic KKT bisection."""

    games_per_pass, horizon = 8, 40

    def make_inputs(self):
        fam_mod, rng = self.bg["families"], self.rng
        inputs = []
        for k in range(self.games_per_pass):
            q = rng.uniform(0.5, 0.8) if k % 2 == 0 else rng.uniform(1.5, 2.5)
            fams = tuple(fam_mod.ParetoFamily(6.0, q, rng.uniform(0.5, 2.0, 3))
                         for _ in range(2))
            inputs.append((self.bg["games"].random_game(2, 3, rng), fams))
        return inputs

    def run_op(self, inp):
        game, fams = inp
        ana, dyn = self.bg["analysis"], self.bg["dynamics"]
        t0 = time.perf_counter()
        fp = ana.fixed_point_iterate(game, fams)
        t1 = time.perf_counter()
        trace = dyn.run_dynamics(game, self.run_config(fams, self.horizon, self.horizon // 4))
        t2 = time.perf_counter()
        residual = ana.equilibrium_residual(game, trace.final_profile, fams)
        t3 = time.perf_counter()
        return {"trace": trace, "fp": fp, "residual": residual, "rounds": self.horizon,
                "op_s": t3 - t0, "dyn_s": t2 - t1, "solve_s": t1 - t0}

    def gate(self, inp, out):
        game, fams = inp
        resp = self.bg["response"]
        fails = _fixed_point_gate(out["fp"])
        if not abs(out["residual"] - out["trace"].final_residual) <= SAME_TOL:
            fails.append("equilibrium_residual disagrees with the trace's final residual")
        for j, u in self.sampled_payoffs(game, out["trace"], out["fp"]):
            fam = fams[j]
            res = resp.quantal_response(fam, u)
            # independent route: the scalar per-action CDFs at the reported kappa
            q = self.np.array([1.0 - float(fam.cdf(i, res.kkt_multiplier - u[i]))
                               for i in range(fam.n_actions)])
            kkt = abs(float(q.sum()) - 1.0)
            gap = float(self.np.abs(res.probabilities - q).max())
            if not (kkt <= KKT_TOL and gap <= KKT_TOL):
                fails.append(f"KKT residual {kkt:.3e}, probability gap {gap:.3e}")
        return fails


def _learn_gates(out) -> list:
    fails = []
    final = out["trace"].final_residual
    if not final <= RESIDUAL_TOL:
        fails.append(f"final residual {final:.3e} above {RESIDUAL_TOL:g}")
    if "series" in out and not abs(out["series"][-1] - final) <= SAME_TOL:
        fails.append("residual_series disagrees with the trace's final residual")
    return fails


def _fixed_point_gate(fp) -> list:
    if not fp.residual <= FIXED_POINT_TOL:
        return [f"fixed-point residual {fp.residual:.3e} above {FIXED_POINT_TOL:g}"]
    return []


WORKLOADS = {
    "learn-2p-exp": Learn2pExp,
    "learn-3p-sparse": Learn3pSparse,
    "kkt-pareto": KktPareto,
}


def cli_setup(bg_root: str) -> None:
    """Set-up probe for cli-configs: what each invocation does before its command."""
    from beliefgames import cli

    configs = os.path.join(bg_root, "configs")
    for name in sorted(os.listdir(configs)):
        path = os.path.join(configs, name)
        with open(path) as fh:
            if "game" in json.load(fh):
                cli.load_experiment_config(path)


# -- measured worker ---------------------------------------------------------

def run_pass(wl: Workload, loops: list | None = None, tracer=None):
    """Every operation once; with ``loops``, a calibration loop is timed before each."""
    outs = []
    for k, inp in enumerate(wl.inputs):
        if loops is not None:
            loops.append(calibrate.loop_s())
        if tracer is not None:
            tracer.run_id = k + 1  # one run id per operation
        outs.append(wl.run_op(inp))
    return outs


def gate_pass(wl: Workload, outs, failures: list) -> int:
    failed = 0
    for inp, out in zip(wl.inputs, outs):
        try:
            fails = wl.gate(inp, out)
        except (ValueError, RuntimeError) as exc:
            fails = [f"gate raised {exc!r}"]
        if fails:
            failed += 1
            failures.extend(fails[: max(0, 10 - len(failures))])
    return failed


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    """Untraced passes for ``seconds`` (half of it when tracing), then one traced pass.

    Returns, per pass and operation, ``[op_s, dyn_s, solve_s, rounds]``, and
    the calibration loop times interleaved with the operations.
    """
    budget = seconds / 2.0 if trace else seconds
    passes = []
    loops: list = []
    attempted = failed = 0
    failures: list = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < budget:
        try:
            outs = run_pass(wl, loops)
        except (ValueError, RuntimeError) as exc:
            attempted += len(wl.inputs)
            failed += len(wl.inputs)
            failures.append(f"pass raised {exc!r}")
            break
        passes.append([[o["op_s"], o["dyn_s"], o["solve_s"], o["rounds"]] for o in outs])
        attempted += len(outs)
        failed += gate_pass(wl, outs, failures)
    if not passes:
        raise SystemExit(f"no pass completed: {failures[0]}")
    result = {"attempted": attempted, "failed": failed, "failures": failures,
              "passes": passes, "loop_times": loops}
    if trace:
        import spans

        tracer = spans.Tracer()
        traced_loops: list = []
        tracer.install(wl.bg)
        try:
            outs = run_pass(wl, traced_loops, tracer)
        finally:
            tracer.uninstall()
        result["attempted"] += len(outs)
        result["failed"] += gate_pass(wl, outs, failures)
        result["spans"] = tracer.export()
        result["missing_hooks"] = tracer.missing
        result["traced_wall_s"] = sum(o["op_s"] for o in outs)
        result["traced_loop_times"] = traced_loops
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["cli-configs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", help="result JSON path (measured worker)")
    args = parser.parse_args(argv)

    bg = import_package()
    if args.workload == "cli-configs":
        cli_setup(ROOT)
        wl = None
    else:
        wl = WORKLOADS[args.workload](bg, args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "loops": calibrate.loops_s()}))
        return 0
    result = measure(wl, args.seconds, bool(args.trace))
    result["ready"] = ready
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

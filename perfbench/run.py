"""beliefgames benchmark: one command, four workloads, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metrics are the ``end_to_end`` ones of BENCHMARK.json with ``--trace 0`` and
the ``per_layer`` ones with ``--trace 1``.  A result file stamped with the
machine, versions, commit, seed and thread settings goes to
``.perfbench/results/``.  Every child process runs with BLAS/OpenMP pinned
to one thread and is waited for before exit.

Workloads ``learn-2p-exp``, ``learn-3p-sparse`` and ``kkt-pareto`` run in
one worker interpreter (``inproc.py``); ``cli-configs`` starts a fresh
interpreter per command (``clicall.py``).  End-to-end times are scaled by
the run's machine-speed factor (``calibrate.py``); per-layer times are raw.
See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 4
CHILD_TIMEOUT = 170.0

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

CLI_COMMANDS = ("simulate", "solve", "check")
CLI_OUTPUTS = {
    "simulate": ("trace.csv", "summary.json"),
    "solve": ("equilibrium.json",),
    "check": ("stability.json",),
    "verify": ("verify.json",),
}
#: exit codes that are results, not failures: 2 = warnings, 3 = a check failed.
CLI_RESULT_CODES = {"simulate": (0, 2, 3), "solve": (0, 2, 3), "check": (0, 2, 3), "verify": (0,)}


class BenchError(Exception):
    """The benchmark could not run (not a failed correctness gate)."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def spawn(argv: list, log_stem: str, timeout: float = CHILD_TIMEOUT):
    """Run a child to completion; returns (spawn time, latency, exit code, peak RSS KiB).

    Latency runs from just before the spawn to the reaping of the child.
    """
    with open(log_stem + ".out", "wb") as out, open(log_stem + ".err", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        latency = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return started, latency, proc.returncode, usage.ru_maxrss


def tail(path: str, lines: int = 15) -> str:
    with open(path, errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def setup_sample(workload: str, seed: int, workdir: str, k: int, loops: list) -> float:
    """One fresh interpreter from spawn to inputs ready (import + input generation)."""
    log = os.path.join(workdir, f"setup{k}")
    started, _, rc, _ = spawn(
        [sys.executable, os.path.join(HERE, "inproc.py"), "--workload", workload,
         "--seed", str(seed), "--workdir", workdir, "--setup-only"], log)
    if rc != 0:
        raise BenchError(f"set-up probe exited {rc}:\n{tail(log + '.err')}")
    with open(log + ".out") as fh:
        report = json.loads(fh.read().strip().splitlines()[-1])
    loops.extend(report["loops"])
    return report["ready"] - started


def run_inproc(args, workdir: str, setups: list, loops: list) -> dict:
    for k in range(SETUP_PROBES):
        setups.append(setup_sample(args.workload, args.seed, workdir, k, loops))
    out_path = os.path.join(workdir, "result.json")
    log = os.path.join(workdir, "worker")
    started, _, rc, maxrss = spawn(
        [sys.executable, os.path.join(HERE, "inproc.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", workdir, "--out", out_path], log)
    if rc != 0:
        raise BenchError(f"worker exited {rc}:\n{tail(log + '.err')}")
    with open(out_path) as fh:
        result = json.load(fh)
    setups.append(result.pop("ready") - started)
    loops.extend(result.pop("loop_times"))
    result["peak_rss_kib"] = maxrss
    return result


def shipped_configs() -> list:
    """(stem, path, horizon) of every shipped config that names a game."""
    configs = os.path.join(ROOT, "configs")
    found = []
    for name in sorted(os.listdir(configs)):
        path = os.path.join(configs, name)
        with open(path) as fh:
            doc = json.load(fh)
        if "game" in doc:
            found.append((os.path.splitext(name)[0], path, int(doc["horizon"])))
    return found


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_pass(calls: list, workdir: str, reference: dict, spans_dir: str | None,
             result: dict, loops: list) -> list:
    """Every call once, one after another; returns ``[op_s, dyn_s, solve_s, rounds]`` per call.

    A ``simulate`` call counts as dynamics time and a ``solve`` call as solve
    time.  The child's calibration loops (its last stdout line) go to
    ``loops`` and are not counted in its latency.  Exit codes, peak RSS and
    failures are recorded into ``result``.
    """
    ops = []
    for k, (command, stem, path, horizon, extra) in enumerate(calls):
        label = f"{stem}-{command}" if stem else command
        out_dir = os.path.join(workdir, "out", label)
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [sys.executable, os.path.join(HERE, "clicall.py")]
        if spans_dir:
            argv += ["--spans", os.path.join(spans_dir, f"{k}.jsonl"), "--run-id", str(k + 1)]
        argv += [command] + (["--config", path] if path else []) + extra
        argv += ["--out", out_dir, "--quiet"]
        _, latency, rc, maxrss = spawn(argv, os.path.join(workdir, label))
        calibration = child_loops(os.path.join(workdir, label + ".out"))
        loops.extend(calibration)
        latency -= sum(calibration)
        simulate = command == "simulate"
        ops.append([latency, latency if simulate else 0.0,
                    latency if command == "solve" else None, horizon if simulate else 0])
        result["peak_rss_kib"] = max(result["peak_rss_kib"], maxrss)
        result["exit_codes"].setdefault(label, rc)
        result["attempted"] += 1
        fails = []
        if rc not in CLI_RESULT_CODES[command]:
            fails.append(f"{label}: exit code {rc}: {tail(os.path.join(workdir, label + '.err'), 3)}")
        missing = [f for f in CLI_OUTPUTS[command] if not os.path.isfile(os.path.join(out_dir, f))]
        if missing:
            fails.append(f"{label}: did not write {', '.join(missing)}")
        elif simulate:
            digest = sha256(os.path.join(out_dir, "trace.csv"))
            if digest != reference.get(stem):
                fails.append(f"{label}: trace.csv sha256 {digest} differs from the reference")
        if fails:
            result["failed"] += 1
            result["failures"].extend(fails[: max(0, 10 - len(result["failures"]))])
    return ops


def child_loops(out_path: str) -> list:
    """Calibration loop times a CLI child printed last; none if it crashed first."""
    with open(out_path) as fh:
        lines = fh.read().strip().splitlines()
    try:
        return json.loads(lines[-1])["loops"] if lines else []
    except (ValueError, KeyError, TypeError):
        return []


def run_cli(args, workdir: str, setups: list, loops: list) -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)["trace_sha256"]
    calls = []
    for stem, path, horizon in shipped_configs():
        for command in CLI_COMMANDS:
            extra = ["--seed", str(args.seed)] if command == "check" else []
            calls.append((command, stem, path, horizon, extra))
    calls.append(("verify", None, None, 0, []))
    random.Random(args.seed).shuffle(calls)

    for k in range(SETUP_PROBES):
        setups.append(setup_sample(args.workload, args.seed, workdir, k, loops))
    budget = args.seconds / 2.0 if args.trace else args.seconds
    result = {"attempted": 0, "failed": 0, "failures": [], "exit_codes": {},
              "peak_rss_kib": 0, "passes": []}
    start = time.monotonic()
    while not result["passes"] or time.monotonic() - start < budget:
        result["passes"].append(cli_pass(calls, workdir, reference, None, result, loops))
    if args.trace:
        spans_dir = os.path.join(workdir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        result["traced_loop_times"] = []
        traced = cli_pass(calls, workdir, reference, spans_dir, result, result["traced_loop_times"])
        import spans

        # a child that crashed wrote no spans; its exit code already counts as a failure
        paths = [os.path.join(spans_dir, f"{k}.jsonl") for k in range(len(calls))]
        result["spans"] = [s for path in paths if os.path.exists(path)
                           for s in spans.read_spans(path)]
        result["traced_wall_s"] = sum(op[0] for op in traced)
    return result


def e2e_metrics(passes: list, peak_rss_kib: int, setups: list, loops: list) -> dict:
    """End-to-end metrics from ``[op_s, dyn_s, solve_s, rounds]`` per pass and operation.

    Every pass repeats the same operations in the same order.  An operation's
    time is its mean over the repeats; all times are scaled by the run's
    speed factor (see calibrate.py), and rates divided by it.
    """
    factor = calibrate.speed_factor(loops)
    count = len(passes[0])

    def mean_s(i: int, j: int) -> float:
        return factor * statistics.fmean(p[i][j] for p in passes)

    ops = [mean_s(i, 0) for i in range(count)]
    solves = [mean_s(i, 2) for i in range(count) if passes[0][i][2] is not None]
    return {
        "setup_s": factor * statistics.median(setups),
        "wall_s": sum(ops),
        "rounds_per_s": sum(op[3] for op in passes[0]) / sum(mean_s(i, 1) for i in range(count)),
        "solve_p50_ms": 1e3 * statistics.median(solves),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "peak_rss_mb": peak_rss_kib / 1024.0,
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not its own git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def machine_stamp(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "unknown"

    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "seed": seed,
        "thread_env": THREAD_ENV,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for need in ("src/beliefgames/__init__.py", "configs", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"error: {need} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if not 0 < args.seconds <= 60:
        print("error: --seconds must lie in (0, 60]", file=sys.stderr)
        return 2

    workdir = os.path.join(STATE, "work", args.workload)
    results = os.path.join(STATE, "results")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.makedirs(results, exist_ok=True)

    setups: list = []
    loops: list = []
    try:
        if args.workload == "cli-configs":
            result = run_cli(args, workdir, setups, loops)
        else:
            result = run_inproc(args, workdir, setups, loops)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = result["passes"]
    e2e = e2e_metrics(passes, result["peak_rss_kib"], setups, loops)

    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        import spans

        recorded = result.pop("spans")
        spans.write_spans(stem + ".spans.jsonl", recorded)
        measured = spans.layer_metrics(recorded)
        traced = result["traced_wall_s"] * calibrate.speed_factor(result["traced_loop_times"])
        measured["trace.overhead_ratio"] = traced / e2e["wall_s"]
        chosen = spec["per_layer"]
    else:
        measured = e2e
        chosen = spec["end_to_end"]
    metrics = {}
    for m in chosen:
        value = measured.get(m["name"])
        if value is None:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    doc = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
           "stamp": machine_stamp(args.seed), **summary,
           "end_to_end": e2e,
           "samples": {"setup": len(setups), "passes": len(passes),
                       "ops_per_pass": len(passes[0])},
           "speed_factor": calibrate.speed_factor(loops), "loop_times_s": loops,
           "setup_samples_s": setups, "op_samples": passes, "failures": result["failures"]}
    for key in ("exit_codes", "missing_hooks", "traced_wall_s"):
        if key in result:
            doc[key] = result[key]
    with open(stem + ".json", "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in result["failures"]:
        print(f"failure: {line}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

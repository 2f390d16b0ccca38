"""Command-line front end.

Subcommands:

* ``simulate``: run the learning dynamics from a config, write ``trace.csv``
  and ``summary.json``.
* ``solve``: damped fixed-point iteration on the smooth game, write
  ``equilibrium.json``.
* ``check``: stability and concavity diagnostics, write ``stability.json``.
* ``verify``: run the built-in oracle cross-checks.

``summary.json`` and ``equilibrium.json`` carry a ``"timing"`` object of wall
seconds (``perf_counter``), as ``verify.json`` does: the dynamics, the CSV
writing and rounds per second for ``simulate``, the iteration for ``solve``.

Every command runs through :func:`main` in the same steps: parse the
arguments, load the config (every scalar field read by one number rule, under
which a bool is not a number and an integer field takes no fraction), print
``simulate``'s schedule warnings, print the ``--dry-run`` plan and stop, create
the output directory, run.  A bad input, an output that cannot be written or a
solver that fails ends the command with one ``error:`` line; an unwritable
output is found before any work is done.

Exit codes: 0 success, 1 usage, input or output error, 2 completed with
warnings (e.g. residual above tolerance), 3 a requested check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from .analysis import fixed_point_iterate, stability_check, strong_concavity_check
from .config import ExperimentConfig, load_experiment_config
from .dynamics import classify_schedule, run_dynamics
from .verify import verification_suite

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_WARN = 2
EXIT_CHECK_FAILED = 3


def _say(quiet: bool, *parts) -> None:
    if not quiet:
        print(*parts)


def _out_dir(args, cfg: ExperimentConfig) -> str:
    out = args.out or cfg.out_dir
    if not out:
        stem = os.path.splitext(os.path.basename(args.config))[0]
        out = os.path.join(os.path.dirname(os.path.abspath(args.config)), stem + "_out")
    return out


def _strict_json(doc: dict) -> str:
    """Strict JSON text: a non-finite number (an unbounded bound) becomes null."""
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    return json.dumps(doc, indent=2, sort_keys=True)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(_strict_json(doc) + "\n")


def _config(args) -> ExperimentConfig:
    """Load the config file and apply the command-line overrides."""
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "downsample", None) is not None:
        cfg.run = replace(cfg.run, record_every=args.downsample)
    return cfg


def cmd_simulate(args, cfg: ExperimentConfig, out: str) -> int:
    report = classify_schedule(cfg.run.schedule)
    start = time.perf_counter()
    trace = run_dynamics(cfg.game, cfg.run)
    dynamics_s = time.perf_counter() - start
    start = time.perf_counter()
    trace.to_csv(os.path.join(out, "trace.csv"))
    csv_s = time.perf_counter() - start
    converged = trace.final_residual <= cfg.tolerances.residual
    _write_json(os.path.join(out, "summary.json"), trace.summary() | {
        "config": cfg.describe(),
        "converged": bool(converged),
        "residual_tolerance": cfg.tolerances.residual,
        "schedule_sum_diverges": report.sum_diverges,
        "schedule_ratio_vanishes": report.ratio_vanishes,
        "timing": {"dynamics_s": dynamics_s, "csv_s": csv_s,
                   "rounds_per_s": cfg.run.horizon / dynamics_s},
    })
    _say(args.quiet,
         f"simulate: {cfg.run.horizon} rounds, final residual {trace.final_residual:.3e} "
         f"(tolerance {cfg.tolerances.residual:g}), outputs in {out}")
    if not converged:
        _say(args.quiet, "warning: final residual above tolerance")
    warned = not (report.sum_diverges and report.ratio_vanishes)
    return EXIT_WARN if warned or not converged else EXIT_OK


def cmd_solve(args, cfg: ExperimentConfig, out: str) -> int:
    start = time.perf_counter()
    result = fixed_point_iterate(
        cfg.game, cfg.run.risk_families,
        damping=cfg.tolerances.damping,
        tol=cfg.tolerances.fixed_point,
        max_iter=cfg.tolerances.max_iterations,
    )
    solve_s = time.perf_counter() - start
    _write_json(os.path.join(out, "equilibrium.json"), {
        "profile": result.profile.probs.tolist(),
        "residual": result.residual,
        "iterations": result.iterations,
        "converged": result.converged,
        "config": cfg.describe(),
        "timing": {"solve_s": solve_s},
    })
    _say(args.quiet,
         f"solve: residual {result.residual:.3e} after {result.iterations} iterations, "
         f"outputs in {out}")
    if not result.converged:
        _say(args.quiet, "warning: iteration stopped before reaching tolerance")
        return EXIT_WARN
    return EXIT_OK


def cmd_check(args, cfg: ExperimentConfig, out: str) -> int:
    report = stability_check(cfg.game, cfg.run.risk_families)
    concavity = [strong_concavity_check(fam, n_trials=200, seed=cfg.seed)
                 for fam in cfg.run.risk_families]
    doc = report.to_dict()
    doc["concavity"] = [vars(c) | {} for c in concavity]
    doc["config"] = cfg.describe()
    _write_json(os.path.join(out, "stability.json"), doc)
    # each failing player's reason: an unbounded density, curvature <= coupling,
    # or the sampled concavity check
    for p, c in zip(report.players, concavity):
        if p.curvature == 0.0:
            _say(args.quiet, f"player {p.player}: not strongly concave -> FAIL (unbounded density)")
            continue
        _say(args.quiet,
             f"player {p.player}: curvature {p.curvature:.4g} "
             f"{'>' if p.passed else '<='} coupling {p.coupling:.4g} "
             f"-> {'pass' if p.passed else 'FAIL'}")
        if not c.verified:
            _say(args.quiet, f"player {p.player}: sampled concavity check, worst slack "
                             f"{c.worst_slack:.4g} -> FAIL")
    all_ok = report.all_passed and all(c.verified for c in concavity)
    _say(args.quiet,
         f"check: {'stable' if all_ok else 'NOT certified stable'} "
         f"(diagonal dominance {report.diag_dominant}, "
         f"tangent negative-definite {report.negdef_on_tangent}), outputs in {out}")
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def cmd_verify(args, cfg, out: str | None) -> int:
    manifest = verification_suite(only=args.only)
    for name, result in manifest["checks"].items():
        _say(args.quiet,
             f"{'PASS' if result['passed'] else 'FAIL'} {name}: {result['detail']}")
    if out:
        _write_json(os.path.join(out, "verify.json"), manifest)
    return EXIT_OK if manifest["all_passed"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefgames",
        description="Quantal responses, learning dynamics, and stability checks "
                    "for games with optimistic payoff perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True, downsample=False):
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config (JSON)")
            p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory")
        if downsample:
            p.add_argument("--downsample", type=int,
                           help="record every k-th round of the trace")
        p.add_argument("--dry-run", action="store_true",
                       help="print the resolved plan and exit")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    common(sub.add_parser("simulate", help="run the learning dynamics"), downsample=True)
    common(sub.add_parser("solve", help="find the smooth-game fixed point"))
    common(sub.add_parser("check", help="stability diagnostics for a config"))
    p_verify = sub.add_parser("verify", help="run built-in oracle cross-checks")
    p_verify.add_argument("--only", help="run only checks whose name contains this string")
    common(p_verify, needs_config=False)
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "solve": cmd_solve,
    "check": cmd_check,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = None if args.command == "verify" else _config(args)
        if args.command == "simulate":
            report = classify_schedule(cfg.run.schedule)
            if not report.sum_diverges:
                _say(args.quiet, "warning: step sizes are summable; "
                                 "the dynamics can stall short of equilibrium")
            if not report.ratio_vanishes:
                _say(args.quiet, "warning: squared-to-plain step ratio does not vanish; "
                                 "convergence is not guaranteed")
        if args.dry_run:
            _say(args.quiet, _strict_json({"only": args.only, "checks": "oracle suite"}
                                          if cfg is None else cfg.describe()))
            return EXIT_OK
        out = args.out if cfg is None else _out_dir(args, cfg)
        if out:
            os.makedirs(out, exist_ok=True)
        return _COMMANDS[args.command](args, cfg, out)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Span recording around calls into the beliefgames layers.

Tracing never edits the package: it replaces module and class attributes
where the callers look them up (``dynamics`` binds ``response_solver``,
``payoff_vector_rows`` and the families' bound methods by name at the start
of a run), records one span per call, and restores the originals afterwards.
Spans stay in memory until the run ends.  This module uses only the standard
library, so tracing a CLI child imports nothing the CLI itself does not.
"""

from __future__ import annotations

import json
import os
import statistics
import time

_ORACLES = ("coupling_expected_max", "finite_difference_gradient", "grid_fixed_point",
            "gumbel_choice_frequencies", "project_simplex", "quadrature_regularizer")


class Tracer:
    """In-memory span recorder.

    A span is ``(run_id, span_id, parent_id, name, start, end, note)``; the
    parent is the innermost span open when the call began (0 for none) and
    ``note`` carries a per-layer count (rounds, iterations, bytes, ...).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next = 0
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` recording a span per call; ``note(args, result)`` runs after it closes."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            self._next += 1
            sid = self._next
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((self.run_id, sid, parent, name, start, end,
                          None if note is None else note(args, out)))
            return out

        return traced

    def span(self, name: str, start: float, end: float, note=None) -> None:
        """Record a span measured by the caller (top level, no parent)."""
        self._next += 1
        self.spans.append((self.run_id, self._next, 0, name, start, end, note))

    def patch(self, owner, attr: str, name: str, note=None, factory=None) -> None:
        """Replace ``owner.attr`` by a traced version, remembering the original."""
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        orig = vars(owner)[attr]
        new = factory(orig) if factory else self.wrap(name, orig, note)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, new)

    def install(self, bg: dict) -> None:
        """Trace every layer boundary of the imported package modules in ``bg``.

        ``bg`` maps module names (``families``, ``analysis``, ``dynamics``,
        ``cli``, ``verify``) to modules; absent ones are skipped.
        """
        fam, ana, dyn = bg.get("families"), bg.get("analysis"), bg.get("dynamics")
        cli, ver = bg.get("cli"), bg.get("verify")
        if fam is not None:
            for cls in vars(fam).values():
                if isinstance(cls, type) and issubclass(cls, fam.MarginalFamily):
                    for attr, name, note in (
                            ("tail_quantile_vector", "families.tail_quantile", None),
                            ("cdf_vector", "families.cdf", _keep_result),
                            ("regularizer_terms", "families.regularizer", None)):
                        if attr in vars(cls):
                            self.patch(cls, attr, name, note)
        if dyn is not None:
            self.patch(dyn, "response_solver", "response", factory=self._solver_factory)
            self.patch(dyn, "payoff_vector_rows", "games.payoff")
            self.patch(dyn, "StrategyProfile", "games.profile")
            self.patch(dyn, "run_dynamics", "dynamics", _rounds_and_records)
            self.patch(getattr(dyn, "Trace", None), "to_csv", "dynamics.csv", _file_bytes)
        if ana is not None:
            self.patch(ana, "response_probabilities", "response")
            self.patch(ana, "payoff_vector", "games.payoff")
            self.patch(ana, "StrategyProfile", "games.profile")
            self.patch(ana, "equilibrium_residual", "analysis.residual")
            self.patch(ana, "fixed_point_iterate", "analysis.fixed_point", _iterations)
            self.patch(ana, "stability_check", "analysis.stability")
            self.patch(ana, "strong_concavity_check", "analysis.concavity")
        if cli is not None:
            self.patch(cli, "run_dynamics", "dynamics", _rounds_and_records)
            self.patch(cli, "fixed_point_iterate", "analysis.fixed_point", _iterations)
            self.patch(cli, "stability_check", "analysis.stability")
            self.patch(cli, "strong_concavity_check", "analysis.concavity")
            self.patch(cli, "load_experiment_config", "config.load")
            self.patch(cli, "verification_suite", "verify")
        if ver is not None:
            self.patch(ver, "response_probabilities", "response")
            self.patch(ver, "equilibrium_residual", "analysis.residual")
            self.patch(ver, "fixed_point_iterate", "analysis.fixed_point", _iterations)
            for attr in _ORACLES:
                self.patch(ver, attr, "oracles")

    def _solver_factory(self, response_solver):
        def traced_solver(fam):
            return self.wrap("response", response_solver(fam))
        return traced_solver

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def export(self) -> list[tuple]:
        """Spans with JSON-ready notes (a CDF evaluation keeps whether sum p > 1)."""
        out = []
        for run, sid, parent, name, start, end, note in self.spans:
            if name == "families.cdf":
                note = bool(float((1.0 - note).sum()) > 1.0)
            out.append((run, sid, parent, name, start, end, note))
        return out


def _keep_result(args, out):
    return out


def _rounds_and_records(args, trace):
    return [int(trace.horizon), int(trace.rounds.size)]


def _file_bytes(args, out):
    return os.path.getsize(args[1])


def _iterations(args, result):
    return int(result.iterations)


def write_spans(path: str, spans) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def read_spans(path: str) -> list[tuple]:
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


def layer_metrics(spans) -> dict:
    """Per-layer metrics from spans; layers the workload never reached read 0.

    Self time is a span's duration minus its direct children's durations
    (children of one span never overlap: every call is synchronous).
    """
    child_time: dict = {}
    children: dict = {}
    for run, sid, parent, name, start, end, note in spans:
        if parent:
            key = (run, parent)
            child_time[key] = child_time.get(key, 0.0) + (end - start)
            children.setdefault(key, []).append((start, name, note))
    calls: dict = {}
    total: dict = {}
    self_s: dict = {}
    durations: dict = {}
    notes: dict = {}
    kkt_calls = kkt_evals = expansions = 0
    for run, sid, parent, name, start, end, note in spans:
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get((run, sid), 0.0)
        durations.setdefault(name, []).append(dur)
        if note is not None:
            notes.setdefault(name, []).append(note)
        if name == "response":
            evals = [n for _, kind, n in sorted(children.get((run, sid), []),
                                                key=lambda c: c[0])
                     if kind == "families.cdf"]
            if evals:
                kkt_calls += 1
                kkt_evals += len(evals)
                # evaluations spent before the first one with sum p <= 1
                lead = 0
                while lead < len(evals) and evals[lead]:
                    lead += 1
                expansions += lead

    def per_call_us(name):
        return 1e6 * total[name] / calls[name] if calls.get(name) else 0.0

    def median(name):
        return statistics.median(durations[name]) if name in durations else 0.0

    rounds = sum(n[0] for n in notes.get("dynamics", []))
    out = {
        "families.tail_quantile.calls": calls.get("families.tail_quantile", 0),
        "families.tail_quantile.us_per_call": per_call_us("families.tail_quantile"),
        "families.tail_quantile.self_s": self_s.get("families.tail_quantile", 0.0),
        "families.cdf.calls": calls.get("families.cdf", 0),
        "families.regularizer.self_s": self_s.get("families.regularizer", 0.0),
        "games.payoff.calls": calls.get("games.payoff", 0),
        "games.payoff.us_per_call": per_call_us("games.payoff"),
        "games.payoff.self_s": self_s.get("games.payoff", 0.0),
        "games.profile.builds": calls.get("games.profile", 0),
        "response.calls": calls.get("response", 0),
        "response.us_per_call": per_call_us("response"),
        "response.self_s": self_s.get("response", 0.0),
        "response.kkt.evals_per_call": kkt_evals / kkt_calls if kkt_calls else 0.0,
        "response.kkt.bracket_expansions": expansions,
        "dynamics.rounds": rounds,
        "dynamics.us_per_round": 1e6 * total.get("dynamics", 0.0) / rounds if rounds else 0.0,
        "dynamics.self_s": self_s.get("dynamics", 0.0),
        "dynamics.records": sum(n[1] for n in notes.get("dynamics", [])),
        "dynamics.csv_s": total.get("dynamics.csv", 0.0),
        "dynamics.csv_bytes": sum(notes.get("dynamics.csv", [])),
        "analysis.residual.calls": calls.get("analysis.residual", 0),
        "analysis.residual.self_s": self_s.get("analysis.residual", 0.0),
        "analysis.fixed_point.iters": sum(notes.get("analysis.fixed_point", [])),
        "analysis.fixed_point.self_s": self_s.get("analysis.fixed_point", 0.0),
        "analysis.stability.self_s": self_s.get("analysis.stability", 0.0),
        "analysis.concavity.self_s": self_s.get("analysis.concavity", 0.0),
        "verify.self_s": self_s.get("verify", 0.0),
        "oracles.self_s": self_s.get("oracles", 0.0),
        "config.load_s": total.get("config.load", 0.0),
        "cli.import_s": median("cli.import"),
    }
    for command in ("simulate", "solve", "check", "verify"):
        out[f"cli.{command}.run_s"] = median(f"cli.{command}")
    return out

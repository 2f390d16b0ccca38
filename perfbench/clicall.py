"""One CLI invocation in a fresh interpreter, through ``beliefgames.cli.main``.

Usage: ``clicall.py [--spans PATH --run-id K] <cli arguments...>``.  The
package is imported from this checkout's ``src``.  With ``--spans`` every
layer boundary is traced and the spans are written to PATH on exit.
``python -m beliefgames.cli`` is deliberately not used: that form has no
``__main__`` guard, runs nothing and exits 0.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    spans_path = None
    run_id = 0
    if argv[:1] == ["--spans"]:
        spans_path, run_id, argv = argv[1], int(argv[3]), argv[4:]
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import beliefgames.cli as cli
    imported = time.perf_counter()
    if os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))) != src:
        print(f"beliefgames imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 4
    import calibrate

    if spans_path is None:
        rc = cli.main(argv)
        report_calibration(calibrate.loops_s())
        return rc

    import spans

    tracer = spans.Tracer()
    tracer.run_id = run_id
    tracer.span("cli.import", start, imported)
    # only modules the CLI itself loaded, so tracing does not change what is imported
    tracer.install({name: sys.modules.get(f"beliefgames.{name}")
                    for name in ("families", "analysis", "dynamics", "cli", "verify")})
    if tracer.missing:
        print(f"untraced (not found): {', '.join(tracer.missing)}", file=sys.stderr)
    begin = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        tracer.span(f"cli.{argv[0]}", begin, time.perf_counter())
        tracer.uninstall()
        spans.write_spans(spans_path, tracer.export())
    report_calibration(calibrate.loops_s())
    return rc


def report_calibration(loops: list) -> None:
    """Last stdout line: calibration loop times taken in this process after the
    command (the parent subtracts their sum from the invocation latency)."""
    print(json.dumps({"loops": loops}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

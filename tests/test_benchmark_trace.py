"""The benchmark's traced pass runs the package with its layer boundaries
swapped for recording wrappers (``perfbench/spans.py``), outside the worker's
error handling.  These cases run that pass on a small input, so that a change
which works untraced but not traced fails here and not only in the benchmark.
They read ``perfbench/`` and change nothing there.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"


@pytest.fixture
def inproc(monkeypatch):
    """``perfbench/inproc.py``, imported with its directory on the path, as the worker runs it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files in perfbench/
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("inproc")


@pytest.mark.parametrize("workload", ["learn-2p-exp", "learn-3p-sparse", "kkt-pareto"])
def test_a_traced_in_process_pass_passes_its_gates(inproc, workload, tmp_path):
    wl = inproc.WORKLOADS[workload](inproc.import_package(), 7, str(tmp_path))
    wl.inputs = wl.inputs[:1]
    result = inproc.measure(wl, 0.0, True)
    assert result["failed"] == 0, result["failures"]
    assert result["spans"]


def test_a_traced_cli_child_exits_with_a_result_and_writes_its_spans(tmp_path):
    spans = tmp_path / "spans.jsonl"
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "clicall.py"), "--spans", str(spans), "--run-id", "1",
         "simulate", "--config", str(REPO / "configs" / "mixed_families.json"),
         "--out", str(tmp_path / "out"), "--quiet"],
        cwd=tmp_path, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode in (0, 2, 3), done.stderr
    assert (tmp_path / "out" / "trace.csv").is_file()
    assert spans.read_text().strip()

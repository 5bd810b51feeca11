"""Smoke test of the benchmark's traced run.

perfbench/trace.py wraps layer functions by name (pipeline.find_witness,
solver.modification_witness, solver.verify_grid, solver.close_mask,
smalls.probe_pair and others), so renaming one of them would silently
zero its metrics; these runs catch that.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACE = os.path.join(ROOT, "perfbench", "trace.py")


def traced(tmp_path, *argv):
    out = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, TRACE, str(out), *argv],
                            cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    data = json.loads(out.read_text())
    assert data["status"] == 0
    return data["metrics"]


def test_traced_classify_counts_witness_searches(tmp_path):
    metrics = traced(tmp_path, "classify", "-n", "2")
    assert metrics["solver.witnesses"] > 0
    assert metrics["solver.edits"] > 0
    assert metrics["rewrite.closures"] > 0
    assert metrics["board.verifies"] > 0
    assert metrics["symmetry.keys"] > 0
    assert metrics["symmetry.images"] > 0


def test_traced_probe_counts_probes(tmp_path):
    metrics = traced(tmp_path, "probe", "--missing", "R2,R5,R8,C2,C5,C8",
                     "--sample", "3")
    assert metrics["smalls.probes"] > 0
    assert metrics["solver.solves"] > 0

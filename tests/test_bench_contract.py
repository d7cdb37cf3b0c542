"""The benchmark's contract with the package: its self-tests pass, every
parameter it differentiates exists, every function and method its
tracer wraps resolves, and a short run of each workload passes its own
output checks. Each check runs in a fresh interpreter, so the bench's
imports and path setup never touch this test process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# prints the GRAD_PARAMS the model does not name and the tracer targets
# that do not resolve, as one JSON object
PROBE = """
import importlib, json
import numpy as np
from mhcvse import Model, TrainConfig, build_graph
from mhcvse.data import Vocabulary
import tracer, workloads

cfg = TrainConfig()
graph = build_graph([[f"c{i}" for i in range(cfg.concepts)]], cfg.concepts,
                    cfg.embed_dim, np.random.default_rng(0))
names = Model(cfg, Vocabulary(["a"]), graph).named_parameters()
print(json.dumps({
    "params": [n for n in workloads.GRAD_PARAMS if n not in names],
    "functions": [f"{m}.{a}" for m, a, _ in tracer.FUNCTIONS
                  if not hasattr(importlib.import_module(m), a)],
    "methods": [f"{c.__name__}.{a}" for c, a, _ in tracer.METHODS if not hasattr(c, a)],
}))
"""


def _python(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)


def test_bench_selftest_passes():
    proc = _python("bench/selftest.py")
    assert proc.returncode == 0, proc.stderr


def test_every_name_the_bench_uses_resolves():
    proc = _python("-c", PROBE)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"params": [], "functions": [], "methods": []}


SHORT_RUNS = [(workload, trace) for trace in ("0", "1")
              for workload in ("train", "gallery", "cli")]


@pytest.mark.parametrize("workload,trace", SHORT_RUNS,
                         ids=[w if t == "0" else f"{w}-traced" for w, t in SHORT_RUNS])
def test_a_short_run_of_each_workload_passes_its_checks(workload, trace):
    # the bench compares outputs with the package's own at 1e-12, so a
    # numeric change that breaks those checks fails here; a traced run also
    # fails when the traced call counts differ between passes (its spans go
    # to the gitignored .bench_out/)
    proc = _python("bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.1",
                   "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] > 0

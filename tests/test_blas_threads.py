"""Outputs and raw metric values do not depend on the BLAS thread count.

Each thread count runs in its own interpreter, because OpenBLAS reads
OPENBLAS_NUM_THREADS once, when numpy is imported.
"""

import json
import os
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

# Prints a JSON object: the digest of every file and stdout of the golden
# detect and bench runs, and the raw values of each metric that reaches a
# BLAS or LAPACK call (hsic's binned lattice products, hgr's smoothing and
# SVD, pse's lstsq).
SCRIPT = r"""
import json
import tempfile

import numpy as np

import test_golden
from biasaudit.metrics import run_metric
from biasaudit.tabular import Column, categorical

out = {}
with tempfile.TemporaryDirectory() as tmp:
    for name, digest in test_golden.bench_digests(tmp).items():
        out["bench " + name] = digest
for features in sorted(test_golden.DETECT):
    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in test_golden.detect_digests(features, tmp).items():
            out[f"detect {features}: {name}"] = digest


def pair(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    return Column("x", x), Column("y", 0.45 * x + rng.standard_normal(n))


for n in (400, 3048, 20_000):
    out[f"hsic n={n}"] = dict(run_metric("hsic", pair(n)).raw)
for n in (400, 5000, 200_000):
    out[f"hgr_approximation n={n}"] = dict(run_metric("hgr_approximation",
                                                      pair(n)).raw)
rng = np.random.default_rng(7)
g = rng.integers(0, 2, 200_000)
m = 0.8 * g + rng.standard_normal(g.size)
y = 0.5 * g + 0.7 * m + rng.standard_normal(g.size)
out["pse n=200000"] = dict(run_metric(
    "pse", [categorical("g", g, ["a", "b"]), Column("y", y)],
    mediator=Column("m", m)).raw)
print(json.dumps(out))
"""


def run_with_threads(threads: int) -> subprocess.Popen:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([SRC, TESTS]))
    return subprocess.Popen([sys.executable, "-c", SCRIPT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_one_and_two_threads_give_the_same_bytes():
    runs = [run_with_threads(1), run_with_threads(2)]
    outputs = []
    for proc in runs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        outputs.append(json.loads(stdout))
    one, two = outputs
    assert one.keys() == two.keys()
    moved = {key: (one[key], two[key]) for key in one if one[key] != two[key]}
    assert not moved, f"differ at 1 and 2 threads: {moved}"

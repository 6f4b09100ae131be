"""skewness's and kurtosis's raw values, and the `score` session, do not
depend on which SIMD kernels numpy dispatches to.

One child interpreter runs with numpy's default dispatch and one with the
AVX-512 groups disabled, because numpy reads NPY_DISABLE_CPU_FEATURES once,
when it is imported. The inputs are built from products only: a dispatched
function such as ``np.exp`` would move the input itself.
"""

import json
import os
import subprocess
import sys

import pytest

try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as umath

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")

NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR AVX512_SKX"

# Prints a JSON object: the moments' raw values on skewed inputs of a few
# sizes, and the digest of every file and stdout of the golden `score` run.
SCRIPT = r"""
import json
import tempfile

import numpy as np

import test_golden
from biasaudit.metrics import run_metric
from biasaudit.tabular import Column

out = {}
for n in (20, 400, 5000, 200_000):
    z = np.random.default_rng(n).standard_normal(n)
    x = z * z + z
    for metric_id in ("skewness", "kurtosis"):
        out[f"{metric_id} n={n}"] = dict(run_metric(metric_id,
                                                    [Column("x", x)]).raw)
with tempfile.TemporaryDirectory() as tmp:
    for name, digest in test_golden.detect_digests("score", tmp).items():
        out[f"detect score: {name}"] = digest
print(json.dumps(out))
"""


def avx512_dispatch() -> bool:
    """Whether numpy here was built with, and now runs, X86_V4 kernels."""
    return ("X86_V4" in getattr(umath, "__cpu_dispatch__", ())
            and bool(getattr(umath, "__cpu_features__", {}).get("X86_V4")))


def run_with(disabled: str) -> subprocess.Popen:
    env = {key: value for key, value in os.environ.items()
           if key not in ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = os.pathsep.join([SRC, TESTS])
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    return subprocess.Popen([sys.executable, "-c", SCRIPT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


@pytest.mark.skipif(not avx512_dispatch(),
                    reason="numpy does not dispatch to X86_V4 kernels here")
def test_moments_give_the_same_bits_without_avx512():
    runs = [run_with(""), run_with(NO_AVX512)]
    outputs = []
    for proc in runs:
        stdout, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr
        outputs.append(json.loads(stdout))
    default, narrow = outputs
    assert default.keys() == narrow.keys()
    moved = {key: (default[key], narrow[key]) for key in default
             if default[key] != narrow[key]}
    assert not moved, f"differ without AVX-512 dispatch: {moved}"

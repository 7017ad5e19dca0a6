"""The pinned trajectories must not depend on numpy's SIMD dispatch.

numpy picks a kernel per CPU at run time among the features its build
dispatches above its baseline. ``NPY_DISABLE_CPU_FEATURES`` turns those off,
so rerunning ``test_trajectories.py`` in a subprocess with every dispatched
feature off checks that the baseline kernels give the same bits as the ones
this CPU would pick. The rerun also takes the surrogate's reduce-order canary
and its bit-identity tests against the loop reference, so the order of its
sums is pinned at the baseline kernels too, the SHSADE generation step's
edge shapes against its loop reference (one or no row of a strategy, D=1,
an empty, full or absent archive, all ties, crossover with the best), and
aging evolution's runs at draw blocks of 1 to 256 steps, whose tournaments
come from numpy's ``argpartition`` and ``sort``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath

ROOT = Path(__file__).resolve().parent.parent
DISPATCHED = list(_multiarray_umath.__cpu_dispatch__)


@pytest.mark.skipif(not DISPATCHED, reason="this numpy build dispatches no CPU feature above its baseline")
def test_trajectories_hold_at_the_baseline_dispatch():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED))
    # the variable took effect: no dispatched feature is left on
    enabled = subprocess.run(
        [sys.executable, "-c", f"from {_multiarray_umath.__name__} import __cpu_features__ as f; "
         f"print(' '.join(k for k in {DISPATCHED!r} if f.get(k)))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert enabled == []
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/test_trajectories.py",
         "tests/test_shsade.py::TestEdgeShapesMatchLoopReference",
         "tests/test_baselines.py::TestDrawBlock",
         "tests/test_objectives.py::TestReductionOrderCanary",
         "tests/test_objectives.py::TestSurrogateKernelsBitIdentical"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]

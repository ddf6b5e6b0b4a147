"""Reference kernels that gauge how fast the machine runs at the moment.

The machine this benchmark was built on changes speed from minute to
minute by up to 60 % (see "Run-to-run noise" in perfbench/README.md), and
that drift is larger than any bound a timing may have. So before every
operation it times, the worker also times the kernels its workload names,
and run.py scales each timing by how fast these kernels ran in the same
run, relative to REFERENCE_S.

The kernels use numpy and scipy only, never swarmtrack, so a change to
the package cannot move them. Each does one kind of work the package
does, because the machine's slow phases do not slow every kind of work
alike: a small-matrix Kalman step (``fusion.fuse_log``) and a full-frame
Gaussian filter (``synth.soften``, ``synth.degrade_mask``). A plain Python
loop, a sort and a run of small vector calls were tried as well; each
followed the workloads less closely than the kernel of their own kind.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import ndimage

_rng = np.random.default_rng(0)
_IMAGE = _rng.random((360, 640))
_F = np.eye(6) + 0.01 * _rng.random((6, 6))
_Q = 0.1 * np.eye(6)
_R = 0.5 * np.eye(6)


def _small_linalg() -> None:
    p = np.eye(6)
    for _ in range(100):
        p = _F @ p @ _F.T + _Q
        c = np.linalg.cholesky(p + _R)
        k = np.linalg.solve(c.T, np.linalg.solve(c, p.T)).T
        p = (np.eye(6) - k) @ p


def _image_filter() -> None:
    ndimage.gaussian_filter(_IMAGE, 3.0)


KERNELS = {"small_linalg": _small_linalg, "image_filter": _image_filter}

# Median time of each kernel over nine minutes on a 2-vCPU VM (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1). A reference second is a second on
# that machine at that speed.
REFERENCE_S = {"small_linalg": 0.00304, "image_filter": 0.00817}


def sample(kernels: tuple[str, ...]) -> dict[str, float]:
    """Seconds each of ``kernels`` takes, once."""
    out = {}
    for name in kernels:
        start = time.perf_counter()
        KERNELS[name]()
        out[name] = time.perf_counter() - start
    return out


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Each kernel's median time over the samples."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def speed(kernel_medians: dict[str, float]) -> float:
    """How fast the machine ran against the reference (below 1 is slower):
    the geometric mean over the kernels of reference time / median time."""
    return math.exp(statistics.fmean(
        math.log(REFERENCE_S[name] / t) for name, t in kernel_medians.items()
    ))

"""One benchmark process: set up a workload, then run it until time is up.

Started by run.py, never by hand. It prints ``ready <t> <kernels>`` once
set-up is done, where ``t`` is ``time.monotonic()`` (the system-wide
monotonic clock, so run.py can subtract its own spawn time) and
``kernels`` the JSON median times of calibrate.py's kernels, taken just
after ``t``; with ``--setup-only`` it exits there. Otherwise it runs the workload at least
SUBSEEDS times and until its iterations have taken ``--seconds``, then
prints one JSON line with every iteration's figures. Before each
iteration after the first it prints ``pause <measured seconds>`` and
waits for a ``go`` line on standard input, so that run.py can take a
set-up sample while this process is idle.

With ``--trace 1`` the iterations alternate untraced and traced,
starting untraced, so the run measures its own tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import logging
import platform
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

import calibrate

SETUP_KERNEL_SAMPLES = 5


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    root = Path.cwd().resolve()
    sys.path.insert(0, str(root / "src"))
    # Keep the package's INFO lines off stderr: cli.main's basicConfig
    # is a no-op once the root logger has a handler.
    logging.basicConfig(stream=sys.stderr, level=logging.WARNING)

    import swarmtrack
    import workloads
    from spans import Tracer

    package = Path(swarmtrack.__file__).resolve()
    if not package.is_relative_to(root / "src"):
        print(f"error: imported swarmtrack from {package}, not from ./src", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    ready = time.monotonic()
    # The machine's speed right after this set-up, outside its time.
    kernels = calibrate.medians([calibrate.sample(tuple(calibrate.KERNELS))
                                 for _ in range(SETUP_KERNEL_SAMPLES)])
    print(f"ready {ready!r} {json.dumps(kernels)}", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    iterations, calibration = [], []
    measured = 0.0
    while len(iterations) < workloads.SUBSEEDS or measured < args.seconds:
        if iterations:
            print(f"pause {measured!r}", flush=True)
            if sys.stdin.readline().strip() != "go":
                return 1
        start = time.perf_counter()
        sub = len(iterations) % workloads.SUBSEEDS
        traced = tracer is not None and len(iterations) % 2 == 1
        first = tracer.begin() if traced else 0
        it = workload.run(sub)
        layers = tracer.end(first) if traced else None
        iterations.append({
            "traced": traced,
            "ops": it.ops,
            "cpu": it.cpu,
            "speed": it.speed,
            "frames": it.frames,
            "attempted": it.attempted,
            "failures": it.failures,
            "quality": it.quality,
            "digests": it.digests,
            "layers": layers,
        })
        calibration += it.calibration
        measured += time.perf_counter() - start
    if tracer is not None and args.spans_out:
        tracer.write(Path(args.spans_out))
    kernel_medians = calibrate.medians(calibration)
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    print(json.dumps({
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "size": workload.size,
        "expected_spans": workload.expected_spans,
        "subseeds": workloads.SUBSEEDS,
        "peak_rss_mb": peak_kb / 1024.0,
        "calibration_kernels_s": kernel_medians,
        "speed": calibrate.speed(kernel_medians),
        "iterations": iterations,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

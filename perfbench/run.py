"""swarmtrack benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 25 --trace 0

Workloads are ``pipeline``, ``markers`` and ``robustness`` (see
perfbench/README.md). One worker process sets the workload up and runs
it for ``--seconds``. Between its iterations it pauses while a fresh
interpreter sets the workload up once more; ``setup_s`` is the median of
SETUP_SAMPLES such set-ups (the worker's own included), spread over the
run so that they see the same machine as the timed iterations.

Every end-to-end timing is in reference seconds: each operation's
measured seconds times how fast the kernels of calibrate.py ran around
it against their reference times, and each set-up sample times how fast
all the kernels ran right after that set-up. That takes out the drift of the machine's
speed, which is larger than any bound, and leaves a change in the
package's own speed in full. The measured seconds are printed beside
them. With
``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds
the per-layer metrics, and the spans are written to
``.bench_out/spans-<workload>-<seed>.jsonl``.

Lines before the last one are for people: every end-to-end metric of
the benchmark's design by name and unit, a run record (seed, versions,
CPU count, load, input sizes) and which output classes changed against
the digests in perfbench/reference_digests.json, which hold the outputs
of the seed commit for seed 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

import calibrate
from spans import missing

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference_digests.json"
SETUP_SAMPLES = 10
DEADLINE_S = 170.0

# Every end-to-end figure the benchmark reports, in print order. Those
# that can be zero, exist on one workload only (the stage times are
# pipeline's), or vary with the seed by more than any bound could allow
# (world_err_m) are printed here but left out of BENCHMARK.json; see
# perfbench/README.md.
REPORTED = [
    ("setup_s", "s"), ("wall_s", "s"), ("simulate_s", "s"), ("track_s", "s"),
    ("eval_s", "s"), ("frames_per_s", "1/s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"),
    ("error_rate", "ratio"), ("sdr10_pct", "%"), ("sdr30_pct", "%"),
    ("mask_iou", "ratio"), ("world_err_m", "m"), ("lost_frames", "count"),
    ("fusion_order_pct", "%"),
]


def _worker_cmd(args, workdir: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", str(workdir)]


def _ready(line_rest: str, started: float) -> tuple[float, dict[str, float]]:
    """(seconds from ``started`` to the end of a worker's set-up, its
    calibration kernels) from the rest of its ``ready`` line."""
    t, kernels = line_rest.split(" ", 1)
    return float(t) - started, json.loads(kernels)


def _setup_sample(args, root: Path, timeout: float) -> tuple[float, dict[str, float]]:
    """Set-up seconds of a freshly spawned worker, and its kernels."""
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=root))
    started = time.monotonic()
    proc = subprocess.Popen(_worker_cmd(args, workdir) + ["--setup-only"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"set-up exceeded {timeout:.0f} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.startswith("ready "):
        raise RuntimeError(f"set-up worker exited {proc.returncode}:\n{err}")
    return _ready(out.split(" ", 1)[1], started)


def _measure(args, work_root: Path, spans_out: Path | None, deadline: float):
    """Run the workload in one worker; returns (set-up samples, its result)."""
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    cmd = _worker_cmd(args, workdir)
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    setups, last = [], ""
    with open(workdir / "stderr.txt", "w+") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, text=True)
        watchdog = threading.Timer(deadline - time.monotonic(), proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                word, _, rest = line.partition(" ")
                if word == "ready":
                    setups.append(_ready(rest, started))
                elif word == "pause":
                    # Keep the samples taken in step with the measured time.
                    due = 1 + int((SETUP_SAMPLES - 1) * float(rest) / args.seconds)
                    while len(setups) < min(due, SETUP_SAMPLES):
                        setups.append(_setup_sample(args, work_root,
                                                    deadline - time.monotonic()))
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
                else:
                    last = line
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        if proc.returncode != 0 or not setups:
            err.seek(0)
            raise RuntimeError(f"worker exited {proc.returncode}:\n{err.read()}")
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample(args, work_root, deadline - time.monotonic()))
    return setups, json.loads(last)


def _op_medians(iterations, key: str, scaled: bool) -> dict[str, float]:
    """Each operation's median time over the iterations, in reference
    seconds if ``scaled``.

    Every iteration repeats the same operations, so a slow phase of the
    machine that hits one repetition of an operation does not move the
    figure (see "Run-to-run noise" in perfbench/README.md)."""
    times = defaultdict(list)
    for it in iterations:
        for op, seconds in it[key].items():
            times[op].append(seconds * it["speed"][op] if scaled else seconds)
    return {op: statistics.median(t) for op, t in times.items()}


def _end_to_end(result, setups, scaled: bool) -> dict[str, float | None]:
    """Timings are sums of per-operation medians over the untraced
    iterations, and the median of the set-up samples."""
    timed = [it for it in result["iterations"] if not it["traced"]]
    ops = _op_medians(timed, "ops", scaled)
    wall = sum(ops.values())
    first = result["iterations"][0]
    attempted = sum(it["attempted"] for it in result["iterations"])
    failed = sum(len(it["failures"]) for it in result["iterations"])
    values = {
        "setup_s": statistics.median(
            seconds * (calibrate.speed(kernels) if scaled else 1.0)
            for seconds, kernels in setups
        ),
        "wall_s": wall,
        # The stages are pipeline's CLI commands; other workloads have none.
        "simulate_s": ops.get("simulate"),
        "track_s": ops.get("track"),
        "eval_s": ops.get("eval"),
        "frames_per_s": first["frames"] / wall,
        "cpu_s": sum(_op_medians(timed, "cpu", scaled).values()),
        "peak_rss_mb": result["peak_rss_mb"],
        "error_rate": failed / attempted,
    }
    rotation = result["iterations"][:result["subseeds"]]
    for key in ("sdr10_pct", "sdr30_pct", "mask_iou", "world_err_m",
                "lost_frames", "fusion_order_pct"):
        per_sub = [it["quality"].get(key) for it in rotation]
        values[key] = None if None in per_sub else statistics.fmean(per_sub)
    return values


def _combined_digests(result) -> dict[str, str]:
    """One digest per output class over the sub-seeds of one rotation."""
    rotation = result["iterations"][:result["subseeds"]]
    out = {}
    for key in rotation[0]["digests"]:
        h = hashlib.sha256()
        for it in rotation:
            h.update(it["digests"].get(key, "").encode())
        out[key] = h.hexdigest()
    return out


def _per_layer(result, names) -> tuple[dict[str, float], list[str]]:
    traced = [it for it in result["iterations"] if it["traced"]]
    untraced = [it for it in result["iterations"] if not it["traced"]]
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (sum(_op_medians(traced, "ops", True).values())
                            - sum(_op_medians(untraced, "ops", True).values()))
        else:
            values[name] = statistics.median([it["layers"][name] for it in traced])
    gaps = sorted({name for it in traced
                   for name in missing(it["layers"], result["expected_spans"])})
    return values, gaps


def _identity(workload: str, seed: int, digests: dict[str, str]) -> str:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if workload not in reference.get("digests", {}):
        return f"identity: no reference digests for {workload}"
    if seed != reference["seed"]:
        return f"identity: reference digests are for seed {reference['seed']}; not compared"
    ref = reference["digests"][workload]
    changed = sorted(k for k in ref if digests.get(k) != ref[k])
    same = sorted(k for k in ref if digests.get(k) == ref[k])
    return (f"identity vs reference (seed {seed}): changed {changed or 'none'}; "
            f"unchanged {same or 'none'}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "markers", "robustness"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "swarmtrack" / "__init__.py").is_file():
        print("error: run from the root of a swarmtrack checkout (no src/swarmtrack)",
              file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())

    load_at_start = os.getloadavg()
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    spans_out = (root / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
                 if args.trace else None)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups, result = _measure(args, work_root, spans_out, deadline)
    except (RuntimeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    iterations = result["iterations"]
    attempted = sum(it["attempted"] for it in iterations)
    failures = [f for it in iterations for f in it["failures"]]
    problems = list(failures)
    subseeds = result["subseeds"]
    for i in range(subseeds, len(iterations)):
        earlier, it = iterations[i - subseeds], iterations[i]
        if it["digests"] != earlier["digests"] or it["quality"] != earlier["quality"]:
            problems.append(f"iteration {i} does not repeat iteration {i - subseeds}")

    measured = _end_to_end(result, setups, scaled=False)
    e2e = _end_to_end(result, setups, scaled=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        **result["versions"],
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "input": result["size"],
        "iteration_ops_s": [it["ops"] for it in iterations],
        "setup_samples_s": [seconds for seconds, _ in setups],
        "setup_kernels_s": [kernels for _, kernels in setups],
        "calibration_kernels_s": result["calibration_kernels_s"],
        "speed": result["speed"],
        "tracing_overhead_s": None,
    }
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, gaps = _per_layer(result, names)
        record["tracing_overhead_s"] = values["trace.overhead_s"]
        if gaps:
            problems.append(f"span coverage: no calls recorded for {gaps}")
        for name in names:
            print(f"{name:40s} {values[name]!r:>24} {units[name]}")
    else:
        names = [m["name"] for m in bench["end_to_end"]]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values = {name: e2e[name] for name in names}
        print(f"{'':20s} {'reference':>24} {'measured':>24}")
        for name, unit in REPORTED:
            shown = ["n/a" if v[name] is None else repr(v[name]) for v in (e2e, measured)]
            print(f"{name:20s} {shown[0]:>24} {shown[1]:>24} {unit}")
    print(_identity(args.workload, args.seed, _combined_digests(result)))
    for problem in problems:
        print(f"FAIL {problem}")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads.

Each workload is built from the run seed (the set-up) and then run as
many times as the run has time for. One run of a workload returns an
``Iteration``: the wall and CPU time of each of its operations, the
operations it attempted and which failed, its quality figures and the
digests of its outputs.

Run seed n gives SUBSEEDS sub-seeds, n*SUBSEEDS .. n*SUBSEEDS+SUBSEEDS-1,
and iteration i uses sub-seed i % SUBSEEDS. The quality figures of a run
are the mean over its first SUBSEEDS iterations, which makes them steady
across run seeds while staying a pure function of the seed; an iteration
must repeat the outputs of the one SUBSEEDS before it byte for byte.

The operations are the units a run times: on ``pipeline`` the three
CLI commands (``simulate``, ``track``, ``eval``, which are also its
stages), on ``markers`` one marker seed, on ``robustness`` one pass (the
clean pass or one degradation level). Every iteration repeats the same
operations, so run.py can take each one's median over the iterations.
Around each operation the iteration times the workload's CALIBRATION
kernels of calibrate.py, twice before and twice after, outside the
operation's own time, and keeps how fast they ran as the operation's
``speed``.

The package is called through module attributes (``synth.degrade_mask``,
not a name imported from ``synth``) so that the tracer's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import shutil
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

import calibrate
from swarmtrack import cli, fusion, geometry, io_formats, metrics, synth, tracker

# Tier-1 thresholds (tests/test_acceptance.py), applied to every run.
SDR30_MIN = 95.0
SDR20_MIN = 90.0
IOU_MIN = 0.70
FUSION_ORDER_MIN_PCT = 95.0
FUSED_ERR_MAX_M = 0.5
BASELINE_DROP_MIN = 20.0
CLEAN_SDR_MIN = 95.0

SUBSEEDS = 3


def cpu_seconds() -> float:
    """User + system time of this process and its children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


@dataclass
class Iteration:
    kernels: tuple[str, ...]  # calibrate.KERNELS timed around each operation
    ops: dict[str, float] = field(default_factory=dict)  # wall seconds per operation
    cpu: dict[str, float] = field(default_factory=dict)  # CPU seconds per operation
    speed: dict[str, float] = field(default_factory=dict)  # calibrate.speed around it
    calibration: list[dict[str, float]] = field(default_factory=list)  # every kernel sample
    frames: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    @contextmanager
    def timed(self, op: str):
        """Record the wall and CPU time of one operation and the machine's
        speed around it, also if it raises."""
        around = [calibrate.sample(self.kernels) for _ in range(2)]
        wall0, cpu0 = time.perf_counter(), cpu_seconds()
        try:
            yield
        finally:
            self.ops[op] = time.perf_counter() - wall0
            self.cpu[op] = cpu_seconds() - cpu0
            around += [calibrate.sample(self.kernels) for _ in range(2)]
            self.speed[op] = calibrate.speed(calibrate.medians(around))
            self.calibration += around


def digest_files(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def digest_arrays(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _bundled(name: str) -> dict:
    return json.loads(resources.files("swarmtrack.data").joinpath(name).read_text())


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def _cli(*argv) -> int:
    """``swarmtrack`` in process, as the Tier-1 tests invoke it."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0


class Pipeline:
    """simulate -> track -> eval through ``cli.main`` on the bundled configs.

    The default scenario is cut to its first FRAMES frames; resolution,
    particle count, alpha and every other setting stay as bundled, so
    the per-frame work is the default pipeline's.
    """

    name = "pipeline"
    # soften and the alpha shapes' numpy work: both kinds.
    CALIBRATION = ("small_linalg", "image_filter")
    FRAMES = 75
    expected_spans = [
        "cli.simulate", "cli.track", "cli.eval",
        "synth.write_scenario", "synth.soften",
        "io_formats.write_mask", "io_formats.read_mask",
        "io_formats.read_binary_mask", "io_formats.csv",
        "fusion.fuse_log",
        "geometry.motion_between_poses", "geometry.backproject",
        "tracker.track_sequence", "tracker.predict",
        "tracker.update_weights", "tracker.resample",
        "shapes.alpha_shape", "shapes.rasterize", "shapes.support_points",
        "metrics.mask_scores", "metrics.sdr", "metrics.relative_distance_error",
    ]

    def __init__(self, seed: int, workdir: Path):
        # default_alpha runs only when the run config leaves alpha_px
        # unset; the bundled config sets it, so that span is not expected.
        self.configs = []
        for sub in range(SUBSEEDS):
            scenario = _bundled("default_scenario.json")
            scenario["duration"] = self.FRAMES
            scenario["seed"] += SUBSEEDS * seed + sub
            run = _bundled("default_run.json")
            run["tracker"]["seed"] += SUBSEEDS * seed + sub
            self.configs.append((
                _write_json(workdir / f"scenario-{sub}.json", scenario),
                _write_json(workdir / f"run-{sub}.json", run),
            ))
        self.size = {
            "frames": self.FRAMES,
            "resolution": f"{scenario['width']}x{scenario['height']}",
            "particles": run["tracker"]["n_particles"],
        }
        self.sim = workdir / "sim"
        self.trk = workdir / "track"
        self.ev = workdir / "eval"

    def run(self, sub: int) -> Iteration:
        for d in (self.sim, self.trk, self.ev):
            shutil.rmtree(d, ignore_errors=True)
        scenario_cfg, run_cfg = self.configs[sub]
        commands = [
            ("simulate", ["simulate", "--config", scenario_cfg, "--out", self.sim]),
            ("track", ["track", "--masks", self.sim / "masks",
                       "--sensors", self.sim / "sensors.csv",
                       "--config", run_cfg, "--out", self.trk]),
            ("eval", ["eval", "--pred", self.trk, "--gt", self.sim, "--out", self.ev]),
        ]
        it = Iteration(self.CALIBRATION, frames=self.FRAMES)
        for stage, argv in commands:
            it.attempted += 1
            with it.timed(stage):
                try:
                    rc = _cli(*argv)
                    error = f"exited {rc}" if rc else None
                except Exception as e:  # a command that raises is a failed operation
                    error = f"raised {type(e).__name__}: {e}"
            if error:
                it.failures.append(f"swarmtrack {stage} {error}")
                return it
        report = json.loads((self.ev / "report.json").read_text())
        sdr_scores = report["sdr"]
        micro = report["masks"]["micro"]
        it.quality = {
            "sdr10_pct": sdr_scores["radius_10"],
            "sdr30_pct": sdr_scores["radius_30"],
            "mask_iou": micro["iou"],
            "world_err_m": report["world"]["rel_dist_mean_m"],
            "lost_frames": report["frames"]["lost_pred"],
        }
        gates = [
            (sdr_scores["radius_30"] >= SDR30_MIN, f"SDR@30 {sdr_scores['radius_30']:.2f} < {SDR30_MIN}"),
            (sdr_scores["radius_20"] >= SDR20_MIN, f"SDR@20 {sdr_scores['radius_20']:.2f} < {SDR20_MIN}"),
            (sdr_scores["monotone"], "SDR not monotone in radius"),
            (micro["iou"] >= IOU_MIN, f"micro IoU {micro['iou']:.4f} < {IOU_MIN}"),
            (micro["recall"] >= micro["precision"], "mask recall < precision"),
        ]
        missed = [msg for ok, msg in gates if not ok]
        if missed:
            it.failures.append("swarmtrack eval gate: " + "; ".join(missed))
        it.digests = {
            "masks": digest_files((self.sim / "masks").glob("*.pgm")),
            "gt_masks": digest_files((self.sim / "gt_masks").glob("*.pgm")),
            "trajectory": digest_files([self.trk / "trajectory.csv"]),
            "shapes": digest_files((self.trk / "shapes").glob("*.pgm")),
        }
        return it


class Markers:
    """The marker-survey study behind Tier-1's fusion gate, on BATCH seeds.

    Run seed n takes marker seeds n*BATCH .. n*BATCH+BATCH-1, in every
    iteration (the batch already averages its quality over BATCH seeds).
    Each seed is one operation: generate the run, fuse its log, build
    the GPS-only and dead-reckoning baselines, map the markers through
    each pose set and score the maps.
    """

    name = "markers"
    # The Kalman filter in fuse_log is most of the time.
    CALIBRATION = ("small_linalg",)
    BATCH = 25
    expected_spans = [
        "synth.generate_marker_run", "fusion.fuse_log", "fusion.baselines",
        "geometry.backproject", "metrics.relative_distance_error",
    ]

    def __init__(self, seed: int, workdir: Path):
        self.seeds = range(seed * self.BATCH, (seed + 1) * self.BATCH)
        defaults = inspect.signature(synth.generate_marker_run).parameters
        self.size = {
            "marker_runs": self.BATCH,
            "resolution": f"{defaults['width'].default}x{defaults['height'].default}",
            "particles": 0,
        }

    @staticmethod
    def _map(run, poses, intr) -> np.ndarray:
        est = np.zeros((len(run.markers), 2))
        for idx, frame, u, v in run.sightings:
            gx, gy = geometry.backproject_pixels(
                u - intr.cx, v - intr.cy, poses[frame], intr
            )
            est[idx] = (float(gx), float(gy))
        return est

    def run(self, sub: int) -> Iteration:
        it = Iteration(self.CALIBRATION)
        fused_errors, fused_arrays = [], []
        ordered = 0
        for seed in self.seeds:
            it.attempted += 1
            try:
                with it.timed(f"seed {seed}"):
                    run = synth.generate_marker_run(seed)
                    cfg = run.config
                    intr = geometry.Intrinsics.centered(cfg.focal_px, cfg.width, cfg.height)
                    n = cfg.duration
                    fused = fusion.fuse_log(run.sensor_log, cfg.noise, cfg.fps, n)
                    gps = fusion.gps_only_poses(run.sensor_log, cfg.fps, n)
                    dr = fusion.dead_reckoning_poses(run.sensor_log, cfg.fps, n)
                    gt = run.markers[:, :2]
                    ef, eg, ed = (
                        metrics.relative_distance_error(self._map(run, poses, intr), gt)[0]
                        for poses in (fused, gps, dr)
                    )
            except Exception as e:  # one marker seed is one operation
                it.failures.append(f"marker seed {seed}: {type(e).__name__}: {e}")
                continue
            it.frames += n
            fused_errors.append(ef)
            ordered += ef < eg < ed
            fused_arrays.append(
                np.array([[p.x, p.y, p.z, p.pitch, p.yaw, p.roll] for p in fused])
            )
        if not fused_errors:
            return it
        order_pct = 100.0 * ordered / len(self.seeds)
        fused_mean = float(np.mean(fused_errors))
        it.quality = {
            "world_err_m": fused_mean,
            "fusion_order_pct": order_pct,
        }
        # The Tier-1 gates hold for the batch as a whole, so a miss
        # fails every seed in it.
        if order_pct < FUSION_ORDER_MIN_PCT or fused_mean >= FUSED_ERR_MAX_M:
            it.failures += [
                f"marker batch gate: order {order_pct:.0f}% (min {FUSION_ORDER_MIN_PCT:.0f}), "
                f"fused error {fused_mean:.3f} m (max {FUSED_ERR_MAX_M})"
            ] * len(fused_errors)
        it.digests = {"fused_poses": digest_arrays(fused_arrays)}
        return it


class Robustness:
    """Tier-1's degradation study: clean pass plus four degradation levels.

    Each pass runs the frame-wise centroid baseline and
    ``track_sequence(keep_particles=False)`` over masks read from disk
    and degraded on the fly. The scenario is the bundled degradation
    scenario cut to FRAMES frames at its own speed, starting START_X m
    along the crossing. Over a window this short the fixed gain field
    either dims the swarm or leaves it alone; START_X picks a stretch
    where every level dims it for the baseline, so each level is a real
    stress and the Tier-1 drop gates are meaningful. Simulating the
    scenario and fusing its sensor log are set-up; the sub-seed sets the
    tracker seed. The world error projects the filter track through the
    true camera poses, so it measures the tracker, not the fusion.
    """

    name = "robustness"
    # degrade_mask's full-frame Gaussian is most of the time.
    CALIBRATION = ("image_filter",)
    FRAMES = 50
    START_X = -14.0
    LEVELS = ((0, 1.0), (0, 4.0), (0, 8.0), (4, 4.0))  # (gain field seed, blur px)
    expected_spans = [
        "io_formats.read_mask", "synth.degrade_mask", "synth.make_gain_field",
        "geometry.motion_between_poses", "geometry.backproject",
        "tracker.track_sequence", "tracker.predict", "tracker.update_weights",
        "tracker.resample", "metrics.framewise_baseline", "metrics.sdr",
        "metrics.relative_distance_error",
    ]

    def __init__(self, seed: int, workdir: Path):
        scenario = _bundled("degradation_scenario.json")
        scenario["duration"] = self.FRAMES
        scenario["seed"] += seed
        scenario["swarm"]["waypoints"][0][0] = self.START_X
        self.tracker_seeds = [SUBSEEDS * seed + sub for sub in range(SUBSEEDS)]
        sim = workdir / "sim"
        shutil.rmtree(sim, ignore_errors=True)
        cfg_path = _write_json(workdir / "scenario.json", scenario)
        rc = _cli("simulate", "--config", cfg_path, "--out", sim)
        if rc != 0:
            raise RuntimeError(f"swarmtrack simulate exited {rc}")
        traj = io_formats.read_trajectory(sim / "gt_track.csv")
        self.gt = metrics.Trajectory2D(
            {int(f): (uv[0], uv[1]) for f, uv in zip(traj["frame"], traj["uv"])}
        )
        self.gt_world = traj["world"]
        self.gt_poses = io_formats.read_poses(sim / "gt_poses.csv")
        log = io_formats.read_sensor_log(sim / "sensors.csv")
        self.scen = io_formats.scenario_config_from_json((sim / "scenario.json").read_text())
        self.poses = fusion.fuse_log(log, self.scen.noise, self.scen.fps, self.scen.duration)
        self.mask_paths = io_formats.mask_sequence_paths(sim / "masks")
        self.setup_digests = {
            "masks": digest_files(self.mask_paths),
            "gt_masks": digest_files((sim / "gt_masks").glob("*.pgm")),
        }
        self.size = {
            "frames": self.FRAMES,
            "resolution": f"{self.scen.width}x{self.scen.height}",
            "particles": 1000,
            "levels": len(self.LEVELS),
        }

    def _masks(self, blur=0.0, gain=None):
        for path in self.mask_paths:
            m = io_formats.read_mask(path)
            if blur or gain is not None:
                m = synth.degrade_mask(m, blur_sigma=blur, gain=gain)
            yield m

    def _pass(self, tracker_seed, blur, gain):
        base_traj = metrics.framewise_centroid_baseline(self._masks(blur, gain))
        cfg = tracker.TrackerConfig(
            n_particles=self.size["particles"], motion_noise_sigma=6.0,
            seed=tracker_seed,
        )
        res = tracker.track_sequence(
            self._masks(blur, gain), self.poses, self.scen.intrinsics, cfg,
            keep_particles=False,
        )
        intr = self.scen.intrinsics
        world = np.array([
            (g.x, g.y) for g in (
                geometry.backproject_image_to_ground(
                    geometry.PixelPoint(u - intr.cx, v - intr.cy), pose, intr
                )
                for (u, v), pose in zip(res.centroids, self.gt_poses)
            )
        ])
        found = metrics.Trajectory2D({
            i: (res.centroids[i][0], res.centroids[i][1])
            for i in range(len(res.centroids)) if not res.lost[i]
        })
        scores = {
            "baseline30": metrics.sdr(base_traj, self.gt, 30.0),
            "filter30": metrics.sdr(found, self.gt, 30.0),
            "filter10": metrics.sdr(found, self.gt, 10.0),
            "world_err": metrics.relative_distance_error(
                world[~res.lost], self.gt_world[~res.lost, :2]
            )[0],
            "lost": int(res.lost.sum()),
        }
        return scores, res

    def run(self, sub: int) -> Iteration:
        it = Iteration(self.CALIBRATION, frames=self.FRAMES)
        tracks = []
        it.attempted += 1
        tracker_seed = self.tracker_seeds[sub]
        try:
            with it.timed("clean"):
                clean, res = self._pass(tracker_seed, 0.0, None)
        except Exception as e:  # a pass that raises is a failed operation
            it.failures.append(f"clean pass raised {type(e).__name__}: {e}")
            return it
        tracks += [res.centroids, res.lost]
        if min(clean["baseline30"], clean["filter30"]) < CLEAN_SDR_MIN or clean["lost"]:
            it.failures.append(f"clean pass gate: {clean}")
        levels = []
        for field_seed, blur in self.LEVELS:
            it.attempted += 1
            try:
                with it.timed(f"level {field_seed} {blur}"):
                    gain = synth.make_gain_field(
                        self.scen.width, self.scen.height, 1.0, 150.0,
                        np.random.default_rng(field_seed),
                    )
                    scores, res = self._pass(tracker_seed, blur, gain)
            except Exception as e:
                it.failures.append(
                    f"level (field {field_seed}, blur {blur}) raised {type(e).__name__}: {e}"
                )
                continue
            tracks += [res.centroids, res.lost]
            levels.append(scores)
            baseline_drop = clean["baseline30"] - scores["baseline30"]
            filter_drop = clean["filter30"] - scores["filter30"]
            if (baseline_drop < 2.0 * filter_drop or baseline_drop < BASELINE_DROP_MIN
                    or scores["lost"]):
                it.failures.append(
                    f"level (field {field_seed}, blur {blur}) gate: baseline "
                    f"-{baseline_drop:.1f}pp, filter -{filter_drop:.1f}pp, "
                    f"lost {scores['lost']}"
                )
        if not levels:
            return it
        it.quality = {
            "sdr10_pct": min(s["filter10"] for s in levels),
            "sdr30_pct": min(s["filter30"] for s in levels),
            "world_err_m": max(s["world_err"] for s in levels),
            "lost_frames": max(s["lost"] for s in [clean] + levels),
        }
        it.digests = dict(self.setup_digests, tracks=digest_arrays(tracks))
        return it


WORKLOADS = {w.name: w for w in (Pipeline, Markers, Robustness)}

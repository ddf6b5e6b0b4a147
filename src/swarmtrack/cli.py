"""Command-line pipeline: simulate, fuse, track, project, eval, selftest.

Stages communicate only through documented files, so every step can be
rerun or replayed in isolation. Logs go to standard error; data goes to
files and standard output. Every command writes effective_config.json
(its fully resolved configuration) and version.txt into its output
directory.

Exit codes: 0 success, 1 runtime failure (unreadable or inconsistent
data), 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, io_formats, synth
from .fusion import FusionError, NoiseConfig, fuse_log
from .geometry import GeometryError, Intrinsics, PixelPoint, backproject_image_to_ground
from .io_formats import FormatError
from .metrics import (
    MaskScoreAccumulator,
    MetricError,
    Trajectory2D,
    relative_distance_error,
    sdr,
)
from .shapes import (
    BinaryMask,
    ShapeError,
    alpha_shape,
    default_alpha,
    rasterize,
    support_points,
)
from .synth import ScenarioError
from .tracker import TrackerConfig, track_sequence

logger = logging.getLogger("swarmtrack")


class UsageError(ValueError):
    """Bad configuration or flags; maps to exit code 2."""


DEFAULT_RADII = (10.0, 20.0, 30.0)


# -- run config (track) ----------------------------------------------------


def _reject_unknown(doc: dict, allowed: set[str], path: str) -> None:
    for k in doc:
        if k not in allowed:
            raise UsageError(f"{path}{k}: unknown key")


def _num(doc: dict, key: str, default, path: str, required: bool = False):
    if key not in doc:
        if required:
            raise UsageError(f"{path}{key}: missing required key")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise UsageError(f"{path}{key}: must be a number, got {v!r}")
    return v


def _int(doc: dict, key: str, default, path: str):
    if key not in doc:
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise UsageError(f"{path}{key}: must be an integer, got {v!r}")
    return v


def parse_run_config(text: str) -> dict:
    """Parse and resolve the track run config; unknown keys rejected.

    Returns a plain dict with every default filled in; this dict is
    what gets echoed to effective_config.json.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"run config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise UsageError("run config must be a JSON object")
    _reject_unknown(
        doc,
        {"fps", "focal_px", "cx", "cy", "tracker", "noise", "orientation_alpha", "alpha_px"},
        "",
    )
    tracker_doc = doc.get("tracker", {})
    if not isinstance(tracker_doc, dict):
        raise UsageError("tracker: must be a JSON object")
    _reject_unknown(
        tracker_doc,
        {
            "n_particles", "motion_noise_sigma", "resample_every", "seed",
            "likelihood_exponent", "lost_reinit_after",
        },
        "tracker.",
    )
    noise_doc = doc.get("noise", {})
    if not isinstance(noise_doc, dict):
        raise UsageError("noise: must be a JSON object")
    _reject_unknown(
        noise_doc, {"gps_sigma", "imu_vel_sigma", "process_accel_sigma"}, "noise."
    )
    for key in ("cx", "cy", "alpha_px"):
        if key in doc and doc[key] is not None:
            v = doc[key]
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise UsageError(f"{key}: must be a number or null, got {v!r}")
    cfg = {
        "fps": float(_num(doc, "fps", None, "", required=True)),
        "focal_px": float(_num(doc, "focal_px", None, "", required=True)),
        "cx": None if doc.get("cx") is None else float(doc["cx"]),
        "cy": None if doc.get("cy") is None else float(doc["cy"]),
        "orientation_alpha": float(_num(doc, "orientation_alpha", 1.0, "")),
        "alpha_px": None if doc.get("alpha_px") is None else float(doc["alpha_px"]),
        "tracker": {
            "n_particles": _int(tracker_doc, "n_particles", 1000, "tracker."),
            "motion_noise_sigma": float(
                _num(tracker_doc, "motion_noise_sigma", 3.0, "tracker.")
            ),
            "resample_every": _int(tracker_doc, "resample_every", 1, "tracker."),
            "seed": _int(tracker_doc, "seed", 0, "tracker."),
            "likelihood_exponent": float(
                _num(tracker_doc, "likelihood_exponent", 1.0, "tracker.")
            ),
            "lost_reinit_after": _int(tracker_doc, "lost_reinit_after", 30, "tracker."),
        },
        "noise": {
            "gps_sigma": float(_num(noise_doc, "gps_sigma", 0.5, "noise.")),
            "imu_vel_sigma": float(_num(noise_doc, "imu_vel_sigma", 0.2, "noise.")),
            "process_accel_sigma": float(
                _num(noise_doc, "process_accel_sigma", 1.0, "noise.")
            ),
        },
    }
    if cfg["fps"] <= 0:
        raise UsageError(f"fps: must be > 0, got {cfg['fps']}")
    if cfg["focal_px"] <= 0:
        raise UsageError(f"focal_px: must be > 0, got {cfg['focal_px']}")
    if cfg["alpha_px"] is not None and cfg["alpha_px"] <= 0:
        raise UsageError(f"alpha_px: must be > 0 or null, got {cfg['alpha_px']}")
    return cfg


def _tracker_config(cfg: dict) -> TrackerConfig:
    t = cfg["tracker"]
    try:
        return TrackerConfig(
            n_particles=t["n_particles"],
            motion_noise_sigma=t["motion_noise_sigma"],
            resample_every=t["resample_every"],
            seed=t["seed"],
            likelihood_exponent=t["likelihood_exponent"],
            lost_reinit_after=t["lost_reinit_after"],
        )
    except ValueError as e:
        raise UsageError(f"tracker.{e}") from None


def _noise_config(cfg: dict) -> NoiseConfig:
    n = cfg["noise"]
    try:
        return NoiseConfig(
            gps_sigma=n["gps_sigma"],
            imu_vel_sigma=n["imu_vel_sigma"],
            process_accel_sigma=n["process_accel_sigma"],
        )
    except ValueError as e:
        raise UsageError(f"noise.{e}") from None


# -- provenance ------------------------------------------------------------


def _write_provenance(out_dir: Path, effective: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "effective_config.json").write_text(
        json.dumps(effective, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "version.txt").write_text(__version__ + "\n", encoding="utf-8")


# -- subcommands -----------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read config: {e}") from None
    try:
        config = io_formats.scenario_config_from_json(text)
    except FormatError as e:
        raise UsageError(str(e)) from None
    out = Path(args.out)
    logger.info("generating %d frames to %s", config.duration, out)
    try:
        synth.write_scenario(config, out)
    except ScenarioError as e:
        raise UsageError(str(e)) from None
    _write_provenance(
        out,
        {
            "command": "simulate",
            "config_path": str(args.config),
            "scenario": json.loads(io_formats.scenario_config_to_json(config)),
        },
    )
    logger.info("scenario written: %s", out)
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    if args.fps <= 0:
        raise UsageError(f"--fps must be > 0, got {args.fps}")
    if args.n_frames is not None and args.n_frames < 1:
        raise UsageError(f"--n-frames must be >= 1, got {args.n_frames}")
    try:
        noise = NoiseConfig(
            gps_sigma=args.gps_sigma,
            imu_vel_sigma=args.imu_vel_sigma,
            process_accel_sigma=args.process_accel_sigma,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    log = io_formats.read_sensor_log(args.sensors)
    poses = fuse_log(
        log,
        noise,
        args.fps,
        n_frames=args.n_frames,
        orientation_alpha=args.orientation_alpha,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io_formats.write_poses(poses, args.fps, out / "fused_poses.csv")
    _write_provenance(
        out,
        {
            "command": "fuse",
            "sensors": str(args.sensors),
            "fps": args.fps,
            "n_frames": args.n_frames,
            "orientation_alpha": args.orientation_alpha,
            "noise": {
                "gps_sigma": noise.gps_sigma,
                "imu_vel_sigma": noise.imu_vel_sigma,
                "process_accel_sigma": noise.process_accel_sigma,
            },
        },
    )
    logger.info("fused %d poses -> %s", len(poses), out / "fused_poses.csv")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read config: {e}") from None
    cfg = parse_run_config(text)
    if args.no_resample:
        cfg["tracker"]["resample_every"] = 0
    tracker_cfg = _tracker_config(cfg)
    noise = _noise_config(cfg)
    mask_paths = io_formats.mask_sequence_paths(args.masks)
    n_frames = len(mask_paths)
    first = io_formats.read_mask(mask_paths[0])
    width, height = first.width, first.height
    cx = cfg["cx"] if cfg["cx"] is not None else width / 2.0
    cy = cfg["cy"] if cfg["cy"] is not None else height / 2.0
    try:
        intr = Intrinsics(cfg["focal_px"], cx, cy, width, height)
    except ValueError as e:
        raise UsageError(str(e)) from None
    log = io_formats.read_sensor_log(args.sensors)
    poses = fuse_log(
        log, noise, cfg["fps"], n_frames=n_frames,
        orientation_alpha=cfg["orientation_alpha"],
    )
    logger.info(
        "tracking %d frames (%dx%d, %d particles)",
        n_frames, width, height, tracker_cfg.n_particles,
    )
    masks = (io_formats.read_mask(p) for p in mask_paths)
    result = track_sequence(masks, poses, intr, tracker_cfg)
    out = Path(args.out)
    shapes_dir = out / "shapes"
    shapes_dir.mkdir(parents=True, exist_ok=True)
    world = np.zeros((n_frames, 2))
    for t in range(n_frames):
        if result.lost[t]:
            # No posterior support this frame: emit an empty outline.
            mask_bits = np.zeros((height, width), dtype=bool)
        else:
            pts = support_points(result.particles[t], result.weights[t])
            try:
                alpha = (
                    cfg["alpha_px"]
                    if cfg["alpha_px"] is not None
                    else default_alpha(pts)
                )
                shape = alpha_shape(pts, alpha)
                mask_bits = rasterize(shape, width, height).bits
            except ShapeError:
                mask_bits = np.zeros((height, width), dtype=bool)
        io_formats.write_mask(BinaryMask(mask_bits), shapes_dir / f"{t:06d}.pgm")
        u, v = result.centroids[t]
        ground = backproject_image_to_ground(
            PixelPoint(u - intr.cx, v - intr.cy), poses[t], intr
        )
        world[t] = (ground.x, ground.y)
    io_formats.write_trajectory(
        frames=list(range(n_frames)),
        uv=result.centroids,
        world=world,
        lost=result.lost,
        path=out / "trajectory.csv",
    )
    effective = dict(cfg)
    effective.update(
        {
            "command": "track",
            "masks": str(args.masks),
            "sensors": str(args.sensors),
            "no_resample": bool(args.no_resample),
            "width": width,
            "height": height,
        }
    )
    _write_provenance(out, effective)
    logger.info(
        "trajectory written: %s (%d lost frames)",
        out / "trajectory.csv", int(result.lost.sum()),
    )
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    if args.focal <= 0:
        raise UsageError(f"--focal must be > 0, got {args.focal}")
    if args.width <= 0 or args.height <= 0:
        raise UsageError("--width/--height must be > 0")
    cx = args.cx if args.cx is not None else args.width / 2.0
    cy = args.cy if args.cy is not None else args.height / 2.0
    try:
        intr = Intrinsics(args.focal, cx, cy, args.width, args.height)
    except ValueError as e:
        raise UsageError(str(e)) from None
    track = io_formats.read_trajectory(args.trajectory)
    poses = io_formats.read_poses(args.poses)
    frames = track["frame"]
    if int(frames[-1]) >= len(poses):
        raise FormatError(
            f"trajectory frame {int(frames[-1])} has no pose "
            f"(only {len(poses)} poses)"
        )
    uv = track["uv"]
    world = np.zeros_like(uv)
    for i, frame in enumerate(frames):
        ground = backproject_image_to_ground(
            PixelPoint(uv[i, 0] - intr.cx, uv[i, 1] - intr.cy),
            poses[int(frame)],
            intr,
        )
        world[i] = (ground.x, ground.y)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io_formats.write_trajectory(
        frames=[int(f) for f in frames],
        uv=uv,
        world=world,
        lost=track["lost"],
        path=out / "trajectory.csv",
    )
    _write_provenance(
        out,
        {
            "command": "project",
            "trajectory": str(args.trajectory),
            "poses": str(args.poses),
            "focal_px": args.focal,
            "cx": cx,
            "cy": cy,
            "width": args.width,
            "height": args.height,
        },
    )
    logger.info("projected trajectory written: %s", out / "trajectory.csv")
    return 0


def _find_trajectory(directory: Path, names: tuple[str, ...]) -> Path:
    for name in names:
        p = directory / name
        if p.is_file():
            return p
    raise FormatError(f"{directory}: none of {', '.join(names)} found")


def _find_mask_dir(directory: Path, names: tuple[str, ...]) -> Path | None:
    for name in names:
        p = directory / name
        if p.is_dir():
            return p
    return None


def _parse_radii(text: str) -> list[float]:
    try:
        radii = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"--radii must be comma-separated numbers, got {text!r}") from None
    if not radii or any(r <= 0 for r in radii) or sorted(radii) != radii:
        raise UsageError(f"--radii must be positive and ascending, got {text!r}")
    return radii


def cmd_eval(args: argparse.Namespace) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    radii = _parse_radii(args.radii)
    if args.radius_scale <= 0:
        raise UsageError(f"--radius-scale must be > 0, got {args.radius_scale}")
    pred_csv = _find_trajectory(pred_dir, ("trajectory.csv", "gt_track.csv"))
    gt_csv = _find_trajectory(gt_dir, ("gt_track.csv", "trajectory.csv"))
    pred_track = io_formats.read_trajectory(pred_csv)
    gt_track = io_formats.read_trajectory(gt_csv)
    pred_traj = Trajectory2D(
        {int(f): tuple(uv) for f, uv in zip(pred_track["frame"], pred_track["uv"])}
    )
    gt_traj = Trajectory2D(
        {int(f): tuple(uv) for f, uv in zip(gt_track["frame"], gt_track["uv"])}
    )
    common = sorted(set(pred_traj.points) & set(gt_traj.points))
    if not common:
        raise MetricError("no overlapping frames between prediction and ground truth")
    sdr_scores = {}
    prev = None
    monotone = True
    for r in radii:
        value = sdr(pred_traj, gt_traj, r * args.radius_scale)
        sdr_scores[f"radius_{r:g}"] = value
        if prev is not None and value < prev:
            monotone = False
        prev = value
    report: dict = {
        "frames": {
            "common_track": len(common),
            "lost_pred": int(pred_track["lost"].sum()),
        },
        "sdr": {
            **sdr_scores,
            "radius_scale": args.radius_scale,
            "monotone": monotone,
        },
    }
    # Mask overlap: prediction prefers the tracker's shapes/, ground
    # truth prefers gt_masks/; evaluating a directory against itself
    # therefore compares identical files.
    pred_masks = _find_mask_dir(pred_dir, ("shapes", "gt_masks", "masks"))
    gt_masks = _find_mask_dir(gt_dir, ("gt_masks", "shapes", "masks"))
    if pred_masks is not None and gt_masks is not None:
        pred_paths = io_formats.mask_sequence_paths(pred_masks)
        gt_paths = io_formats.mask_sequence_paths(gt_masks)
        if len(pred_paths) != len(gt_paths):
            raise MetricError(
                f"mask counts differ: {len(pred_paths)} in {pred_masks}, "
                f"{len(gt_paths)} in {gt_masks}"
            )
        acc = MaskScoreAccumulator()
        degenerate = 0
        for pp, gp in zip(pred_paths, gt_paths):
            scores = acc.add(
                io_formats.read_binary_mask(pp), io_formats.read_binary_mask(gp)
            )
            degenerate += int(scores.degenerate)
        micro = acc.micro()
        macro = acc.macro()
        report["masks"] = {
            "frames": len(acc),
            "degenerate_frames": degenerate,
            "micro": {
                "iou": micro.iou, "precision": micro.precision,
                "recall": micro.recall, "f1": micro.f1,
            },
            "macro": {
                "iou": macro.iou, "precision": macro.precision,
                "recall": macro.recall, "f1": macro.f1,
            },
        }
    # World-frame consistency on frames tracked by both and not lost.
    pred_world = {
        int(f): w
        for f, w, lost in zip(pred_track["frame"], pred_track["world"], pred_track["lost"])
        if not lost
    }
    gt_world = {int(f): w for f, w in zip(gt_track["frame"], gt_track["world"])}
    world_common = sorted(set(pred_world) & set(gt_world))
    if len(world_common) >= 2:
        mean_err, std_err = relative_distance_error(
            np.array([pred_world[f] for f in world_common]),
            np.array([gt_world[f] for f in world_common]),
        )
        report["world"] = {
            "rel_dist_mean_m": mean_err,
            "rel_dist_std_m": std_err,
            "n_points": len(world_common),
        }
    out = Path(args.out)
    text = io_formats.write_report(report, out)
    _write_provenance(
        out,
        {
            "command": "eval",
            "pred": str(pred_dir),
            "gt": str(gt_dir),
            "radii": radii,
            "radius_scale": args.radius_scale,
        },
    )
    sys.stdout.write(text)
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    """Tiny end-to-end pipeline with loose sanity thresholds."""
    checks: list[tuple[str, bool, str]] = []
    with tempfile.TemporaryDirectory(prefix="swarmtrack-selftest-") as tmp:
        root = Path(args.keep) if args.keep else Path(tmp)
        scenario_dir = root / "scenario"
        config = synth.ScenarioConfig(
            duration=150,
            fps=15.0,
            width=320,
            height=180,
            focal_px=350.0,
            drone=synth.DronePathConfig(
                waypoints=((0.0, 0.0), (14.0, 0.0)), altitude=60.0, speed=1.2
            ),
            swarm=synth.SwarmPathConfig(waypoints=((0.0, 0.0), (14.0, 0.0)), speed=1.2),
            shape=synth.SwarmShapeConfig(
                semi_major=5.0, semi_minor=3.5,
                deform_amplitude=0.2, deform_freq_hz=0.2,
            ),
            mask_softness=1.5,
            seed=11,
        )
        synth.write_scenario(config, scenario_dir)
        run_cfg = {
            "fps": 15.0,
            "focal_px": 350.0,
            "tracker": {"n_particles": 500, "seed": 0},
        }
        cfg_path = root / "run.json"
        cfg_path.write_text(json.dumps(run_cfg) + "\n", encoding="utf-8")
        track_dir = root / "track"
        rc = main(
            [
                "track",
                "--masks", str(scenario_dir / "masks"),
                "--sensors", str(scenario_dir / "sensors.csv"),
                "--config", str(cfg_path),
                "--out", str(track_dir),
            ]
        )
        checks.append(("track_exit_code", rc == 0, f"exit {rc}"))
        if rc == 0:
            eval_dir = root / "eval"
            rc_eval = main(
                [
                    "eval",
                    "--pred", str(track_dir),
                    "--gt", str(scenario_dir),
                    "--out", str(eval_dir),
                ]
            )
            checks.append(("eval_exit_code", rc_eval == 0, f"exit {rc_eval}"))
            if rc_eval == 0:
                report = json.loads((eval_dir / "report.json").read_text())
                sdr30 = report["sdr"]["radius_30"]
                iou = report["masks"]["micro"]["iou"]
                checks.append(("sdr_radius_30_ge_90", sdr30 >= 90.0, f"{sdr30:.1f}"))
                checks.append(("mask_iou_ge_0.5", iou >= 0.5, f"{iou:.3f}"))
            track2 = root / "track2"
            rc2 = main(
                [
                    "track",
                    "--masks", str(scenario_dir / "masks"),
                    "--sensors", str(scenario_dir / "sensors.csv"),
                    "--config", str(cfg_path),
                    "--out", str(track2),
                ]
            )
            identical = rc2 == 0 and (
                (track_dir / "trajectory.csv").read_bytes()
                == (track2 / "trajectory.csv").read_bytes()
            )
            checks.append(("deterministic_trajectory", identical, ""))
    ok = all(passed for _, passed, _ in checks)
    for name, passed, detail in checks:
        status = "ok" if passed else "FAIL"
        suffix = f" ({detail})" if detail else ""
        sys.stdout.write(f"{status} {name}{suffix}\n")
    sys.stdout.write(f"selftest: {'pass' if ok else 'FAIL'}\n")
    return 0 if ok else 1


# -- entry point -----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmtrack",
        description="Swarm tracking from drone video: soft masks + egomotion "
        "in a particle filter.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario directory")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="fuse a sensor log into per-frame poses")
    p.add_argument("--sensors", required=True, help="sensor log CSV")
    p.add_argument("--fps", type=float, required=True, help="frame rate")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-frames", type=int, default=None, help="frame count (default: full span)")
    p.add_argument("--gps-sigma", type=float, default=0.5, help="GPS noise std, m")
    p.add_argument("--imu-vel-sigma", type=float, default=0.2, help="IMU velocity noise std, m/s")
    p.add_argument("--process-accel-sigma", type=float, default=1.0, help="process accel std, m/s^2")
    p.add_argument("--orientation-alpha", type=float, default=1.0, help="attitude EMA factor (1 = pass-through)")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("track", help="run the particle filter over a mask directory")
    p.add_argument("--masks", required=True, help="mask directory (%%06d.pgm)")
    p.add_argument("--sensors", required=True, help="sensor log CSV")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--no-resample", action="store_true", help="disable resampling (diagnostic)")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("project", help="backproject an image trajectory to world frame")
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
    p.add_argument("--poses", required=True, help="pose CSV")
    p.add_argument("--focal", type=float, required=True, help="focal length, px")
    p.add_argument("--width", type=int, required=True, help="image width, px")
    p.add_argument("--height", type=int, required=True, help="image height, px")
    p.add_argument("--cx", type=float, default=None, help="principal point x (default: width/2)")
    p.add_argument("--cy", type=float, default=None, help="principal point y (default: height/2)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("eval", help="score a prediction directory against ground truth")
    p.add_argument("--pred", required=True, help="prediction directory (trajectory.csv, shapes/)")
    p.add_argument("--gt", required=True, help="ground truth directory (gt_track.csv, gt_masks/)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--radii", default="10,20,30", help="SDR radii in px (comma-separated, ascending)")
    p.add_argument("--radius-scale", type=float, default=1.0, help="multiply radii (resolution rescale)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run a tiny end-to-end pipeline check")
    p.add_argument("--keep", default=None, help="keep working files in this directory")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s"
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (
        FormatError,
        FusionError,
        GeometryError,
        MetricError,
        ScenarioError,
        ShapeError,
        ValueError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
import itertools
import json
import logging
import math
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__, io_formats, synth
from .fusion import NoiseConfig, fuse_log
from .geometry import Intrinsics, PixelPoint, backproject_image_to_ground
from .io_formats import FormatError, RunConfig
from .metrics import (
    MaskScoreAccumulator,
    MetricError,
    Trajectory2D,
    relative_distance_error,
    sdr,
)
from .shapes import BinaryMask, ShapeError, alpha_shape, rasterize, support_points
# Imported only so that perfbench/spans.py finds cli.default_alpha to wrap;
# it goes with ROADMAP item 2.
from .shapes import default_alpha  # noqa: F401
from .synth import ScenarioError
from .tracker import track_sequence

logger = logging.getLogger("swarmtrack")


class UsageError(ValueError):
    """Bad configuration or flags; maps to exit code 2."""


def _read_config(cls, path):
    """Load a JSON config file as cls; every fault is a usage error."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot read config: {e}") from None
    except UnicodeDecodeError as e:  # names the byte and its offset
        raise UsageError(f"cannot read config {path}: {e}") from None
    try:
        return io_formats.config_from_json(cls, text)
    except FormatError as e:
        raise UsageError(str(e)) from None


def _flag_type(parse):
    """An argparse ``type`` from an io_formats parser: the ASCII forms a
    file takes, with the parser's message on any other text."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError as e:
            raise argparse.ArgumentTypeError(str(e)) from None

    return convert


_number, _integer = _flag_type(io_formats.parse_number), _flag_type(io_formats.parse_integer)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count; at least 1."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return os.cpu_count() or 1


# -- provenance ------------------------------------------------------------


def _write_provenance(out_dir: Path, effective: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "effective_config.json").write_text(
        json.dumps(effective, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "version.txt").write_text(__version__ + "\n", encoding="utf-8")


def _intrinsics(focal: float, cx: float | None, cy: float | None, width: int, height: int) -> Intrinsics:
    """Intrinsics whose principal point defaults to the image center; a
    value Intrinsics rejects is a usage error."""
    try:
        center = Intrinsics.centered(focal, width, height)
        return Intrinsics(
            focal, center.cx if cx is None else cx, center.cy if cy is None else cy, width, height
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


# The directories, then the files, that each command writes into --out,
# besides the provenance files that every command writes.
_PROVENANCE = ("effective_config.json", "version.txt")
_OUT_ENTRIES = {
    "simulate": (("masks", "gt_masks"),
                 ("sensors.csv", "gt_poses.csv", "gt_track.csv", "scenario.json")),
    "fuse": ((), ("fused_poses.csv",)),
    "track": (("shapes",), ("trajectory.csv",)),
    "project": ((), ("trajectory.csv",)),
    "eval": ((), ("report.json", "report.txt")),
}


def _check_out_dir(
    flag: str, path: str, dirs: tuple[str, ...] = (), files: tuple[str, ...] = ()
) -> None:
    """Raise UsageError unless ``path`` is a directory or can be made
    one: neither it nor its nearest existing ancestor is another file.
    Inside it, an existing entry of ``dirs`` must be a directory and one
    of ``files`` must not be."""
    for p in (Path(path), *Path(path).parents):
        if p.exists():
            if not p.is_dir():
                raise UsageError(f"{flag} {path}: {p} is not a directory")
            break
    for name in dirs:
        if (p := Path(path, name)).exists() and not p.is_dir():
            raise UsageError(f"{flag} {path}: {p} is not a directory")
    for name in files:
        if (p := Path(path, name)).is_dir():
            raise UsageError(f"{flag} {path}: {p} is a directory")


def _project_track(uv: np.ndarray, poses, intr: Intrinsics) -> np.ndarray:
    """World (X, Y) of each corner-origin image point (n, 2) on the
    ground, through the pose of its row."""
    world = np.zeros((len(uv), 2))
    for i, ((u, v), pose) in enumerate(zip(uv, poses)):
        ground = backproject_image_to_ground(PixelPoint(u - intr.cx, v - intr.cy), pose, intr)
        world[i] = (ground.x, ground.y)
    return world


# -- subcommands -----------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _read_config(synth.ScenarioConfig, args.config)
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
            "scenario": io_formats.dump(config),
        },
    )
    logger.info("scenario written: %s", out)
    return 0


def cmd_fuse(args: argparse.Namespace) -> int:
    if not (math.isfinite(args.fps) and args.fps > 0):
        raise UsageError(f"--fps must be finite and > 0, got {args.fps}")
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
    poses = fuse_log(log, noise, args.fps, n_frames=args.n_frames)
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
            "noise": io_formats.dump(noise),
        },
    )
    logger.info("fused %d poses -> %s", len(poses), out / "fused_poses.csv")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    cfg = _read_config(RunConfig, args.config)
    mask_paths = io_formats.mask_sequence_paths(args.masks)
    n_frames = len(mask_paths)
    first = io_formats.read_mask(mask_paths[0])
    height, width = first.shape
    intr = _intrinsics(cfg.focal_px, cfg.cx, cfg.cy, width, height)
    # The log (and the frame arrays it keeps) is freed once fused.
    poses = fuse_log(
        io_formats.read_sensor_log(args.sensors), cfg.noise, cfg.fps, n_frames=n_frames
    )
    logger.info(
        "tracking %d frames (%dx%d, %d particles)",
        n_frames, width, height, cfg.tracker.n_particles,
    )
    masks = itertools.chain([first], map(io_formats.read_mask, mask_paths[1:]))
    result = track_sequence(masks, poses, intr, cfg.tracker)
    # Project every centroid before writing anything, so a ray that misses
    # the ground leaves no partial shapes/ behind.
    world = _project_track(result.centroids, poses, intr)
    out = Path(args.out)
    shapes_dir = out / "shapes"
    shapes_dir.mkdir(parents=True, exist_ok=True)

    def write_outline(t: int) -> None:
        if result.lost[t]:
            # No posterior support this frame: emit an empty outline.
            mask_bits = np.zeros((height, width), dtype=bool)
        else:
            pts = support_points(result.particles[t], result.weights[t])
            try:
                shape = alpha_shape(pts, cfg.alpha_px)
                mask_bits = rasterize(shape, width, height).bits
            except ShapeError:
                mask_bits = np.zeros((height, width), dtype=bool)
        io_formats.write_mask(BinaryMask(mask_bits), shapes_dir / f"{t:06d}.pgm")

    # Frames are independent and qhull releases the GIL, so threads run
    # the outlines in parallel; map re-raises the first failure in frame
    # order and the pool cancels the frames not yet started.
    with ThreadPoolExecutor(max_workers=min(usable_cpus(), n_frames)) as pool:
        list(pool.map(write_outline, range(n_frames)))
    io_formats.remove_frames_from(shapes_dir, n_frames)
    io_formats.write_trajectory(
        frames=list(range(n_frames)),
        uv=result.centroids,
        world=world,
        lost=result.lost,
        path=out / "trajectory.csv",
    )
    _write_provenance(
        out,
        {
            **io_formats.dump(cfg),
            "command": "track",
            "masks": str(args.masks),
            "sensors": str(args.sensors),
            "width": width,
            "height": height,
        },
    )
    logger.info(
        "trajectory written: %s (%d lost frames)",
        out / "trajectory.csv", int(result.lost.sum()),
    )
    return 0


def cmd_project(args: argparse.Namespace) -> int:
    intr = _intrinsics(args.focal, args.cx, args.cy, args.width, args.height)
    track = io_formats.read_trajectory(args.trajectory)
    poses = io_formats.read_poses(args.poses)
    frames = track["frame"]
    if int(frames[-1]) >= len(poses):
        raise FormatError(
            f"trajectory frame {int(frames[-1])} has no pose "
            f"(only {len(poses)} poses)"
        )
    uv = track["uv"]
    world = _project_track(uv, (poses[int(f)] for f in frames), intr)
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
            "cx": intr.cx,
            "cy": intr.cy,
            "width": args.width,
            "height": args.height,
        },
    )
    logger.info("projected trajectory written: %s", out / "trajectory.csv")
    return 0


def _find(directory: Path, names: tuple[str, ...], is_dir: bool = False) -> Path | None:
    """The first of ``names`` in ``directory`` that is a file, or with
    ``is_dir`` a directory. No file is an error; no directory is None."""
    for name in names:
        p = directory / name
        if p.is_dir() if is_dir else p.is_file():
            return p
    if is_dir:
        return None
    raise FormatError(f"{directory}: none of {', '.join(names)} found")


def _parse_radii(text: str) -> dict[str, float]:
    """The radii of --radii by their report keys."""
    try:
        radii = [io_formats.parse_number(tok.strip()) for tok in text.split(",")]
    except ValueError:
        raise UsageError(f"--radii must be comma-separated numbers, got {text!r}") from None
    if (not radii or not all(math.isfinite(r) and r > 0 for r in radii)
            or sorted(radii) != radii):
        raise UsageError(f"--radii must be finite, positive and ascending, got {text!r}")
    keys: dict[str, float] = {}
    for r in radii:
        # One key per radius; the schema's keys take no exponent, which :g writes.
        key = f"radius_{r:g}"
        if key in keys:
            raise UsageError(f"--radii: {keys[key]!r} and {r!r} give one report key, {key!r}")
        if "e" in key:
            raise UsageError(f"--radii: {r!r} gives the report key {key!r}, not radius_<decimal>")
        keys[key] = r
    return keys


def cmd_eval(args: argparse.Namespace) -> int:
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    radii = _parse_radii(args.radii)
    if not (math.isfinite(args.radius_scale) and args.radius_scale > 0):
        raise UsageError(f"--radius-scale must be finite and > 0, got {args.radius_scale}")
    scaled = {key: r * args.radius_scale for key, r in radii.items()}
    for r, s in zip(radii.values(), scaled.values()):
        if not (math.isfinite(s) and s > 0):
            raise UsageError(
                f"--radius-scale {args.radius_scale} scales radius {r} to {s}, "
                "not a finite radius > 0"
            )
    pred_csv = _find(pred_dir, ("trajectory.csv", "gt_track.csv"))
    gt_csv = _find(gt_dir, ("gt_track.csv", "trajectory.csv"))
    pred = io_formats.read_trajectory(pred_csv)
    gt = io_formats.read_trajectory(gt_csv)
    # Both frame columns strictly increase: ip and ig are the matched rows.
    _, ip, ig = np.intersect1d(pred["frame"], gt["frame"], assume_unique=True,
                               return_indices=True)
    if not len(ip):
        raise MetricError("no overlapping frames between prediction and ground truth")
    pred_traj, gt_traj = (
        Trajectory2D(dict(zip(t["frame"].tolist(), t["uv"].tolist()))) for t in (pred, gt)
    )
    sdr_scores = {key: sdr(pred_traj, gt_traj, r) for key, r in scaled.items()}
    report: dict = {
        "frames": {
            "common_track": len(ip),
            "lost_pred": int(pred["lost"].sum()),
        },
        "sdr": {
            **sdr_scores,
            "radius_scale": args.radius_scale,
            "monotone": list(sdr_scores.values()) == sorted(sdr_scores.values()),
        },
    }
    # Mask overlap: prediction prefers the tracker's shapes/, ground
    # truth prefers gt_masks/; evaluating a directory against itself
    # therefore compares identical files.
    pred_masks = _find(pred_dir, ("shapes", "gt_masks", "masks"), is_dir=True)
    gt_masks = _find(gt_dir, ("gt_masks", "shapes", "masks"), is_dir=True)
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
    seen = ~pred["lost"][ip]
    n_points = int(seen.sum())
    if n_points >= 2:
        mean_err, std_err = relative_distance_error(
            pred["world"][ip[seen]], gt["world"][ig[seen]]
        )
        report["world"] = {
            "rel_dist_mean_m": mean_err,
            "rel_dist_std_m": std_err,
            "n_points": n_points,
        }
    out = Path(args.out)
    text = io_formats.write_report(report, out)
    _write_provenance(
        out,
        {
            "command": "eval",
            "pred": str(pred_dir),
            "gt": str(gt_dir),
            "radii": list(radii.values()),
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
            "fps": config.fps,
            "focal_px": config.focal_px,
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
    parser.add_argument("--log-level", default="info", choices=("debug", "info", "warning", "error"),
                        help="least severe log lines shown on standard error (default: info)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic scenario directory")
    p.add_argument("--config", required=True, help="scenario JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fuse", help="fuse a sensor log into per-frame poses")
    p.add_argument("--sensors", required=True, help="sensor log CSV")
    p.add_argument("--fps", type=_number, required=True, help="frame rate")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-frames", type=_integer, default=None, help="frame count (default: full span)")
    p.add_argument("--gps-sigma", type=_number, default=NoiseConfig.gps_sigma, help="GPS noise std, m")
    p.add_argument("--imu-vel-sigma", type=_number, default=NoiseConfig.imu_vel_sigma, help="IMU velocity noise std, m/s")
    p.add_argument("--process-accel-sigma", type=_number, default=NoiseConfig.process_accel_sigma, help="process accel std, m/s^2")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("track", help="run the particle filter over a mask directory")
    p.add_argument("--masks", required=True, help="mask directory (%%06d.pgm)")
    p.add_argument("--sensors", required=True, help="sensor log CSV")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("project", help="backproject an image trajectory to world frame")
    p.add_argument("--trajectory", required=True, help="trajectory CSV")
    p.add_argument("--poses", required=True, help="pose CSV")
    p.add_argument("--focal", type=_number, required=True, help="focal length, px")
    p.add_argument("--width", type=_integer, required=True, help="image width, px")
    p.add_argument("--height", type=_integer, required=True, help="image height, px")
    p.add_argument("--cx", type=_number, default=None, help="principal point x (default: width/2)")
    p.add_argument("--cy", type=_number, default=None, help="principal point y (default: height/2)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("eval", help="score a prediction directory against ground truth")
    p.add_argument("--pred", required=True, help="prediction directory (trajectory.csv, shapes/)")
    p.add_argument("--gt", required=True, help="ground truth directory (gt_track.csv, gt_masks/)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--radii", default="10,20,30", help="SDR radii in px (comma-separated, ascending)")
    p.add_argument("--radius-scale", type=_number, default=1.0, help="multiply radii (resolution rescale)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("selftest", help="run a tiny end-to-end pipeline check")
    p.add_argument("--keep", default=None, help="keep working files in this directory")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # A no-op when the root logger already has a handler (an embedding program's).
    logging.basicConfig(
        stream=sys.stderr, level=args.log_level.upper(), format="%(levelname)s %(message)s"
    )
    try:
        # An output path that cannot be a directory, or that holds an
        # entry of the wrong kind where the command writes, fails before
        # any work.
        if args.command == "selftest":
            if args.keep is not None:
                _check_out_dir("--keep", args.keep)
        else:
            dirs, files = _OUT_ENTRIES[args.command]
            _check_out_dir("--out", args.out, dirs, files + _PROVENANCE)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:  # every package error is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

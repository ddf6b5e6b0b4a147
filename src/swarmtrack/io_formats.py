"""Readers and writers for every on-disk artifact.

All formats are plain text (CSV, LF line endings, '.' decimal) or
binary PGM, byte-exact and reproducible:

* soft masks: binary PGM (magic P5), maxval 255, one byte per pixel,
  value = byte / 255, quantization round-half-up;
* sensor log: CSV with header
  frame,t_s,gps_x_m,gps_y_m,gps_z_m,vx_mps,vy_mps,vz_mps,pitch_deg,yaw_deg,roll_deg;
* camera poses: CSV with header
  frame,t_s,x_m,y_m,z_m,pitch_deg,yaw_deg,roll_deg;
* trajectories: CSV with header frame,u_px,v_px,world_x_m,world_y_m,lost_flag.

Floats are written with repr(), which round-trips exactly, so
read(write(x)) == x for everything except mask bytes, where the error
is bounded by half a quantization step (1/510).

Parsers reject malformed input with the offending line or byte
position; nothing is silently coerced.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .fusion import SensorRecord
from .geometry import CameraPose, WorldPoint
from .shapes import BinaryMask
from .tracker import SoftMask


class FormatError(ValueError):
    """Malformed on-disk artifact; the message cites the position."""


SENSOR_HEADER = (
    "frame,t_s,gps_x_m,gps_y_m,gps_z_m,"
    "vx_mps,vy_mps,vz_mps,pitch_deg,yaw_deg,roll_deg"
)
POSE_HEADER = "frame,t_s,x_m,y_m,z_m,pitch_deg,yaw_deg,roll_deg"
TRAJECTORY_HEADER = "frame,u_px,v_px,world_x_m,world_y_m,lost_flag"

# Meridian arc length per degree of latitude, small-area ENU approximation.
METERS_PER_DEG_LAT = 111320.0


def _fmt(value: float) -> str:
    """Exact decimal text for a float; repr round-trips in every parser."""
    return repr(float(value))


def _parse_float(text: str, path: Path, line_no: int, col: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise FormatError(
            f"{path}:{line_no}: column {col!r}: not a number: {text!r}"
        ) from None
    if not math.isfinite(v):
        raise FormatError(f"{path}:{line_no}: column {col!r}: non-finite value")
    return v


def _parse_int(text: str, path: Path, line_no: int, col: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(
            f"{path}:{line_no}: column {col!r}: not an integer: {text!r}"
        ) from None


def _read_csv_rows(path: Path, header: str) -> list[tuple[int, list[str]]]:
    """Lines split on commas, header validated; returns (line_no, fields)."""
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path}:1: empty file, expected header {header!r}")
    if lines[0] != header:
        raise FormatError(
            f"{path}:1: bad header {lines[0]!r}, expected {header!r}"
        )
    n_cols = len(header.split(","))
    rows = []
    for i, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != n_cols:
            raise FormatError(
                f"{path}:{i}: expected {n_cols} columns, got {len(fields)}"
            )
        rows.append((i, fields))
    return rows


# -- sensor log ----------------------------------------------------------


def write_sensor_log(log: list[SensorRecord], path: Path | str) -> None:
    path = Path(path)
    lines = [SENSOR_HEADER]
    for r in log:
        lines.append(
            ",".join(
                [
                    str(r.frame),
                    _fmt(r.t),
                    _fmt(r.gps[0]),
                    _fmt(r.gps[1]),
                    _fmt(r.gps[2]),
                    _fmt(r.vel[0]),
                    _fmt(r.vel[1]),
                    _fmt(r.vel[2]),
                    _fmt(r.pitch),
                    _fmt(r.yaw),
                    _fmt(r.roll),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_sensor_log(path: Path | str) -> list[SensorRecord]:
    """Parse a sensor-log CSV; validates monotone time and row count."""
    path = Path(path)
    rows = _read_csv_rows(path, SENSOR_HEADER)
    if not rows:
        raise FormatError(f"{path}: empty log (header only)")
    cols = SENSOR_HEADER.split(",")
    log = []
    prev_t: float | None = None
    for line_no, fields in rows:
        frame = _parse_int(fields[0], path, line_no, cols[0])
        values = [
            _parse_float(fields[k], path, line_no, cols[k]) for k in range(1, 11)
        ]
        t = values[0]
        if prev_t is not None and t <= prev_t:
            raise FormatError(
                f"{path}:{line_no}: time {t} does not increase over previous {prev_t}"
            )
        prev_t = t
        log.append(
            SensorRecord(
                frame=frame,
                t=t,
                gps=(values[1], values[2], values[3]),
                vel=(values[4], values[5], values[6]),
                pitch=values[7],
                yaw=values[8],
                roll=values[9],
            )
        )
    return log


# -- camera poses --------------------------------------------------------


def write_poses(poses: list[CameraPose], fps: float, path: Path | str) -> None:
    """Pose per frame at t = frame/fps."""
    path = Path(path)
    lines = [POSE_HEADER]
    for i, p in enumerate(poses):
        lines.append(
            ",".join(
                [
                    str(i),
                    _fmt(i / fps),
                    _fmt(p.x),
                    _fmt(p.y),
                    _fmt(p.z),
                    _fmt(p.pitch),
                    _fmt(p.yaw),
                    _fmt(p.roll),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_poses(path: Path | str) -> list[CameraPose]:
    path = Path(path)
    rows = _read_csv_rows(path, POSE_HEADER)
    if not rows:
        raise FormatError(f"{path}: no poses (header only)")
    cols = POSE_HEADER.split(",")
    poses = []
    expected = 0
    for line_no, fields in rows:
        frame = _parse_int(fields[0], path, line_no, cols[0])
        if frame != expected:
            raise FormatError(
                f"{path}:{line_no}: frame {frame}, expected consecutive {expected}"
            )
        expected += 1
        v = [_parse_float(fields[k], path, line_no, cols[k]) for k in range(1, 8)]
        poses.append(
            CameraPose(x=v[1], y=v[2], z=v[3], pitch=v[4], yaw=v[5], roll=v[6])
        )
    return poses


# -- trajectories --------------------------------------------------------


def write_trajectory(
    frames: list[int],
    uv: np.ndarray,
    world: np.ndarray,
    lost: np.ndarray,
    path: Path | str,
) -> None:
    """Write a trajectory CSV; uv is (n, 2) px, world (n, 2) m."""
    path = Path(path)
    uv = np.asarray(uv, dtype=float)
    world = np.asarray(world, dtype=float)
    lost = np.asarray(lost)
    n = len(frames)
    if uv.shape != (n, 2) or world.shape != (n, 2) or lost.shape != (n,):
        raise ValueError(
            f"inconsistent trajectory arrays: {n} frames, uv {uv.shape}, "
            f"world {world.shape}, lost {lost.shape}"
        )
    lines = [TRAJECTORY_HEADER]
    for i in range(n):
        lines.append(
            ",".join(
                [
                    str(int(frames[i])),
                    _fmt(uv[i, 0]),
                    _fmt(uv[i, 1]),
                    _fmt(world[i, 0]),
                    _fmt(world[i, 1]),
                    str(int(bool(lost[i]))),
                ]
            )
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_trajectory(path: Path | str) -> dict[str, np.ndarray]:
    """Read a trajectory CSV into arrays keyed frame/uv/world/lost."""
    path = Path(path)
    rows = _read_csv_rows(path, TRAJECTORY_HEADER)
    if not rows:
        raise FormatError(f"{path}: empty trajectory (header only)")
    cols = TRAJECTORY_HEADER.split(",")
    frames, uv, world, lost = [], [], [], []
    prev_frame: int | None = None
    for line_no, fields in rows:
        frame = _parse_int(fields[0], path, line_no, cols[0])
        if prev_frame is not None and frame <= prev_frame:
            raise FormatError(
                f"{path}:{line_no}: frame {frame} does not increase over {prev_frame}"
            )
        prev_frame = frame
        u = _parse_float(fields[1], path, line_no, cols[1])
        v = _parse_float(fields[2], path, line_no, cols[2])
        wx = _parse_float(fields[3], path, line_no, cols[3])
        wy = _parse_float(fields[4], path, line_no, cols[4])
        flag = fields[5]
        if flag not in ("0", "1"):
            raise FormatError(
                f"{path}:{line_no}: lost_flag must be 0 or 1, got {flag!r}"
            )
        frames.append(frame)
        uv.append((u, v))
        world.append((wx, wy))
        lost.append(flag == "1")
    return {
        "frame": np.array(frames, dtype=int),
        "uv": np.array(uv, dtype=float),
        "world": np.array(world, dtype=float),
        "lost": np.array(lost, dtype=bool),
    }


# -- PGM masks -----------------------------------------------------------


def quantize_mask(values: np.ndarray) -> np.ndarray:
    """[0,1] floats to bytes, round-half-up: byte = floor(v*255 + 0.5)."""
    return np.floor(np.asarray(values, dtype=float) * 255.0 + 0.5).astype(np.uint8)


def write_mask(mask: SoftMask | BinaryMask, path: Path | str) -> None:
    """Write a soft or binary mask as binary PGM, maxval 255."""
    path = Path(path)
    if isinstance(mask, BinaryMask):
        payload = np.where(mask.bits, 255, 0).astype(np.uint8)
    else:
        payload = quantize_mask(mask.values)
    h, w = payload.shape
    header = f"P5\n{w} {h}\n255\n".encode("ascii")
    path.write_bytes(header + payload.tobytes())


def _read_pgm_bytes(path: Path) -> np.ndarray:
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    if not raw.startswith(b"P5"):
        raise FormatError(f"{path}: byte 0: bad magic, expected P5")
    # Header tokens: magic, width, height, maxval; comments start with '#'.
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not re.fullmatch(rb"\d+", token):
            raise FormatError(
                f"{path}: byte {start}: bad header token {token!r}"
            )
        tokens.append(int(token))
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise FormatError(f"{path}: byte {pos}: missing whitespace after maxval")
    pos += 1
    w, h, maxval = tokens
    if maxval != 255:
        raise FormatError(f"{path}: maxval {maxval}, this format requires 255")
    if w <= 0 or h <= 0:
        raise FormatError(f"{path}: bad dimensions {w}x{h}")
    payload = raw[pos : pos + w * h]
    if len(payload) != w * h:
        raise FormatError(
            f"{path}: byte {pos}: payload truncated, "
            f"expected {w * h} bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)


def read_mask(path: Path | str) -> SoftMask:
    """Read a PGM into a SoftMask with values byte/255."""
    grid = _read_pgm_bytes(Path(path))
    return SoftMask(grid / 255.0)


def read_binary_mask(path: Path | str, threshold: float = 0.5) -> BinaryMask:
    """Read a PGM as a binary mask: value >= threshold."""
    grid = _read_pgm_bytes(Path(path))
    return BinaryMask(grid.astype(float) / 255.0 >= threshold)


def mask_sequence_paths(directory: Path | str) -> list[Path]:
    """The %06d.pgm files of a mask directory, validated contiguous."""
    directory = Path(directory)
    if not directory.is_dir():
        raise FormatError(f"{directory}: not a directory")
    paths = sorted(directory.glob("*.pgm"))
    if not paths:
        raise FormatError(f"{directory}: no .pgm files")
    for i, p in enumerate(paths):
        if p.stem != f"{i:06d}":
            raise FormatError(
                f"{directory}: expected frame file {i:06d}.pgm, found {p.name}"
            )
    return paths


def read_mask_sequence(directory: Path | str):
    """Generator over the masks of a directory, one frame in memory."""
    for p in mask_sequence_paths(directory):
        yield read_mask(p)


# -- geodetic ------------------------------------------------------------


def geodetic_to_local(
    lat: float, lon: float, alt: float, origin_lat: float, origin_lon: float
) -> WorldPoint:
    """Geodetic coordinates to local ENU meters about an origin.

    Small-area equirectangular approximation: one degree of latitude is
    111,320 m, longitude scaled by cos(origin latitude). Fine for
    flights spanning a couple of kilometers; not a geodesy library.
    """
    for name, v, bound in (
        ("lat", lat, 90.0),
        ("origin_lat", origin_lat, 90.0),
        ("lon", lon, 180.0),
        ("origin_lon", origin_lon, 180.0),
    ):
        if not (math.isfinite(v) and abs(v) <= bound):
            raise ValueError(f"{name} out of range: {v!r}")
    north = (lat - origin_lat) * METERS_PER_DEG_LAT
    east = (lon - origin_lon) * METERS_PER_DEG_LAT * math.cos(math.radians(origin_lat))
    return WorldPoint(east, north, alt)


# -- scenario config JSON --------------------------------------------------


def _require_keys(d: dict, allowed: set[str], required: set[str], path: str) -> None:
    for k in d:
        if k not in allowed:
            raise FormatError(f"{path}{k}: unknown key")
    for k in required:
        if k not in d:
            raise FormatError(f"{path}{k}: missing required key")


def _take(d: dict, key: str, default):
    return d[key] if key in d else default


def scenario_config_to_json(config) -> str:
    """Serialize a ScenarioConfig as the scenario.json document."""
    doc = {
        "duration": config.duration,
        "fps": config.fps,
        "width": config.width,
        "height": config.height,
        "focal_px": config.focal_px,
        "mask_softness": config.mask_softness,
        "noise_scale": config.noise_scale,
        "imu_vel_bias_sigma": config.imu_vel_bias_sigma,
        "seed": config.seed,
        "noise": {
            "gps_sigma": config.noise.gps_sigma,
            "imu_vel_sigma": config.noise.imu_vel_sigma,
            "process_accel_sigma": config.noise.process_accel_sigma,
        },
        "drone": {
            "waypoints": [list(w) for w in config.drone.waypoints],
            "altitude": config.drone.altitude,
            "speed": config.drone.speed,
            "accel": config.drone.accel,
            "yaw_mode": config.drone.yaw_mode,
            "yaw_deg": config.drone.yaw_deg,
            "camera_pitch_deg": config.drone.camera_pitch_deg,
            "camera_roll_deg": config.drone.camera_roll_deg,
        },
        "swarm": {
            "waypoints": [list(w) for w in config.swarm.waypoints],
            "speed": config.swarm.speed,
        },
        "shape": {
            "semi_major": config.shape.semi_major,
            "semi_minor": config.shape.semi_minor,
            "deform_amplitude": config.shape.deform_amplitude,
            "deform_freq_hz": config.shape.deform_freq_hz,
            "orientation_deg": config.shape.orientation_deg,
            "spin_deg_per_s": config.shape.spin_deg_per_s,
            "split_frame": config.shape.split_frame,
            "split_speed": config.shape.split_speed,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def _waypoints(raw, path: str) -> tuple[tuple[float, float], ...]:
    if not isinstance(raw, list) or not raw:
        raise FormatError(f"{path}: must be a non-empty list of [x, y] pairs")
    out = []
    for i, wp in enumerate(raw):
        if (
            not isinstance(wp, list)
            or len(wp) != 2
            or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in wp)
        ):
            raise FormatError(f"{path}[{i}]: must be an [x, y] number pair")
        out.append((float(wp[0]), float(wp[1])))
    return tuple(out)


def _number(d: dict, key: str, default, path: str):
    v = _take(d, key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise FormatError(f"{path}{key}: must be a number, got {v!r}")
    return v


def scenario_config_from_json(text: str):
    """Parse and validate scenario.json; unknown keys are rejected.

    Errors name the offending field with its dotted path, e.g.
    "drone.altitude: must be > 0".
    """
    from .fusion import NoiseConfig
    from .synth import (
        DronePathConfig,
        ScenarioConfig,
        ScenarioError,
        SwarmPathConfig,
        SwarmShapeConfig,
    )

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise FormatError(f"scenario config is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise FormatError("scenario config must be a JSON object")
    top_allowed = {
        "duration", "fps", "width", "height", "focal_px", "mask_softness",
        "noise_scale", "imu_vel_bias_sigma", "seed", "noise", "drone",
        "swarm", "shape",
    }
    top_required = {"duration", "fps", "width", "height", "focal_px", "drone", "swarm", "shape"}
    _require_keys(doc, top_allowed, top_required, "")
    for section in ("drone", "swarm", "shape"):
        if not isinstance(doc[section], dict):
            raise FormatError(f"{section}: must be a JSON object")
    noise_doc = _take(doc, "noise", {})
    if not isinstance(noise_doc, dict):
        raise FormatError("noise: must be a JSON object")
    _require_keys(
        noise_doc,
        {"gps_sigma", "imu_vel_sigma", "process_accel_sigma"},
        set(),
        "noise.",
    )
    drone_doc = doc["drone"]
    _require_keys(
        drone_doc,
        {
            "waypoints", "altitude", "speed", "accel", "yaw_mode", "yaw_deg",
            "camera_pitch_deg", "camera_roll_deg",
        },
        {"waypoints", "altitude"},
        "drone.",
    )
    swarm_doc = doc["swarm"]
    _require_keys(swarm_doc, {"waypoints", "speed"}, {"waypoints"}, "swarm.")
    shape_doc = doc["shape"]
    _require_keys(
        shape_doc,
        {
            "semi_major", "semi_minor", "deform_amplitude", "deform_freq_hz",
            "orientation_deg", "spin_deg_per_s", "split_frame", "split_speed",
        },
        {"semi_major", "semi_minor"},
        "shape.",
    )
    yaw_mode = _take(drone_doc, "yaw_mode", "fixed")
    if not isinstance(yaw_mode, str):
        raise FormatError(f"drone.yaw_mode: must be a string, got {yaw_mode!r}")
    split_frame = _take(shape_doc, "split_frame", None)
    if split_frame is not None and (isinstance(split_frame, bool) or not isinstance(split_frame, int)):
        raise FormatError(f"shape.split_frame: must be an integer or null, got {split_frame!r}")
    duration = _take(doc, "duration", None)
    if isinstance(duration, bool) or not isinstance(duration, int):
        raise FormatError(f"duration: must be an integer, got {duration!r}")
    seed = _take(doc, "seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise FormatError(f"seed: must be an integer, got {seed!r}")
    for dim in ("width", "height"):
        v = doc[dim]
        if isinstance(v, bool) or not isinstance(v, int):
            raise FormatError(f"{dim}: must be an integer, got {v!r}")
    try:
        noise = NoiseConfig(
            gps_sigma=float(_number(noise_doc, "gps_sigma", 0.5, "noise.")),
            imu_vel_sigma=float(_number(noise_doc, "imu_vel_sigma", 0.2, "noise.")),
            process_accel_sigma=float(
                _number(noise_doc, "process_accel_sigma", 1.0, "noise.")
            ),
        )
    except ValueError as e:
        raise FormatError(f"noise.{e}") from None
    try:
        drone = DronePathConfig(
            waypoints=_waypoints(drone_doc["waypoints"], "drone.waypoints"),
            altitude=float(_number(drone_doc, "altitude", None, "drone.")),
            speed=float(_number(drone_doc, "speed", 5.0, "drone.")),
            accel=float(_number(drone_doc, "accel", 2.0, "drone.")),
            yaw_mode=yaw_mode,
            yaw_deg=float(_number(drone_doc, "yaw_deg", 0.0, "drone.")),
            camera_pitch_deg=float(
                _number(drone_doc, "camera_pitch_deg", 0.0, "drone.")
            ),
            camera_roll_deg=float(_number(drone_doc, "camera_roll_deg", 0.0, "drone.")),
        )
        swarm = SwarmPathConfig(
            waypoints=_waypoints(swarm_doc["waypoints"], "swarm.waypoints"),
            speed=float(_number(swarm_doc, "speed", 1.0, "swarm.")),
        )
        shape = SwarmShapeConfig(
            semi_major=float(_number(shape_doc, "semi_major", None, "shape.")),
            semi_minor=float(_number(shape_doc, "semi_minor", None, "shape.")),
            deform_amplitude=float(
                _number(shape_doc, "deform_amplitude", 0.0, "shape.")
            ),
            deform_freq_hz=float(_number(shape_doc, "deform_freq_hz", 0.0, "shape.")),
            orientation_deg=float(_number(shape_doc, "orientation_deg", 0.0, "shape.")),
            spin_deg_per_s=float(_number(shape_doc, "spin_deg_per_s", 0.0, "shape.")),
            split_frame=split_frame,
            split_speed=float(_number(shape_doc, "split_speed", 0.5, "shape.")),
        )
        return ScenarioConfig(
            duration=duration,
            fps=float(_number(doc, "fps", None, "")),
            width=doc["width"],
            height=doc["height"],
            focal_px=float(_number(doc, "focal_px", None, "")),
            drone=drone,
            swarm=swarm,
            shape=shape,
            mask_softness=float(_number(doc, "mask_softness", 1.5, "")),
            noise=noise,
            noise_scale=float(_number(doc, "noise_scale", 1.0, "")),
            imu_vel_bias_sigma=float(
                _number(doc, "imu_vel_bias_sigma", 0.03, "")
            ),
            seed=seed,
        )
    except ScenarioError as e:
        raise FormatError(str(e)) from None


# -- score reports ---------------------------------------------------------


def write_report(report: dict, out_dir: Path | str) -> str:
    """Write report.json and the line-oriented report.txt; returns the text.

    The text form is flat key=value lines in deterministic order,
    nested keys joined with dots.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    lines: list[str] = []

    def walk(prefix: str, node) -> None:
        if isinstance(node, dict):
            for k in sorted(node):
                walk(f"{prefix}.{k}" if prefix else str(k), node[k])
        elif isinstance(node, bool):
            lines.append(f"{prefix}={int(node)}")
        elif isinstance(node, (int, float, str)):
            lines.append(f"{prefix}={node}")
        else:
            raise ValueError(f"report value for {prefix!r} not serializable: {node!r}")

    walk("", report)
    text = "\n".join(lines) + "\n"
    (out / "report.txt").write_text(text, encoding="utf-8")
    return text

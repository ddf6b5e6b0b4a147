"""Readers and writers for every on-disk artifact.

All formats are plain text (CSV, LF line endings, '.' decimal) or
binary PGM, byte-exact and reproducible:

* soft masks: binary PGM (magic P5), maxval 255, one byte per pixel,
  value = byte / 255, quantization round-half-up; a mask read back
  is stored as the box of its nonzero bytes (``SoftMask.box`` and
  ``SoftMask.inner``), and writing a soft mask quantizes only its box;
* sensor log: CSV with header
  frame,t_s,gps_x_m,gps_y_m,gps_z_m,vx_mps,vy_mps,vz_mps,pitch_deg,yaw_deg,roll_deg,
  read into and written from a ``fusion.SensorLog``;
* camera poses: CSV with header
  frame,t_s,x_m,y_m,z_m,pitch_deg,yaw_deg,roll_deg, read into and
  written from a ``geometry.Poses``;
* trajectories: CSV with header frame,u_px,v_px,world_x_m,world_y_m,lost_flag.
* configs: strict JSON objects, read by ``load`` into the config
  dataclasses, which hold every default and range check.

Floats are written with repr(), which round-trips exactly, so
read(write(x)) == x for everything except mask bytes, where the error
is bounded by half a quantization step (1/510).

Parsers reject malformed input with the offending line or byte
position; nothing is silently coerced.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .fusion import ORIENTATION_ALPHA, NoiseConfig, SensorLog, check_orientation_alpha
from .geometry import Poses
from .shapes import BinaryMask
from .tracker import SoftMask, TrackerConfig, nonzero_box


class FormatError(ValueError):
    """Malformed on-disk artifact; the message cites the position."""


SENSOR_HEADER = (
    "frame,t_s,gps_x_m,gps_y_m,gps_z_m,"
    "vx_mps,vy_mps,vz_mps,pitch_deg,yaw_deg,roll_deg"
)
POSE_HEADER = "frame,t_s,x_m,y_m,z_m,pitch_deg,yaw_deg,roll_deg"
TRAJECTORY_HEADER = "frame,u_px,v_px,world_x_m,world_y_m,lost_flag"


# The ASCII forms repr writes: float() and int() also take surrounding
# whitespace, '_' digit separators and non-ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")
_NUMBER = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?ai:inf|infinity|nan))")


def parse_number(text: str) -> float:
    """float(text) for an ASCII decimal, inf or nan; ValueError for any other text."""
    if not _NUMBER.fullmatch(text):
        raise ValueError(f"not a number: {text!r}")
    return float(text)


def parse_integer(text: str) -> int:
    """int(text) for ASCII digits with an optional sign; ValueError for any other text."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_float(text: str, path: Path, line_no: int, col: str) -> float:
    try:
        v = parse_number(text)
    except ValueError:
        raise FormatError(
            f"{path}:{line_no}: column {col!r}: not a number: {text!r}"
        ) from None
    if not math.isfinite(v):
        raise FormatError(f"{path}:{line_no}: column {col!r}: non-finite value")
    return v


def _parse_int(text: str, path: Path, line_no: int, col: str) -> int:
    try:
        return parse_integer(text)
    except ValueError:
        raise FormatError(
            f"{path}:{line_no}: column {col!r}: not an integer: {text!r}"
        ) from None


def _read_table(path: Path, header: str, empty: str, n_numbers: int):
    """Yield each data row of a CSV table as (line_no, frame, numbers, rest):
    the integer in the first column, the n_numbers finite floats after it
    and the text of the other columns. Every table is read by this one
    codec, and each reader checks its own rules per row, so a file reports
    its first fault. It must be UTF-8, with lines ending in LF alone (no
    newline translation); a file with no data row fails with ``empty``."""
    try:
        raw = path.read_bytes()
    except FileNotFoundError:
        raise FormatError(f"{path}: no such file") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = raw.count(b"\n", 0, e.start) + 1
        raise FormatError(f"{path}:{line_no}: not UTF-8 (byte 0x{raw[e.start]:02x})") from None
    if "\r" in text:
        line_no = text.count("\n", 0, text.index("\r")) + 1
        raise FormatError(f"{path}:{line_no}: carriage return; lines must end with LF alone")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise FormatError(f"{path}:1: empty file, expected header {header!r}")
    if lines[0] != header:
        raise FormatError(
            f"{path}:1: bad header {lines[0]!r}, expected {header!r}"
        )
    if len(lines) == 1:
        raise FormatError(f"{path}: {empty}")
    cols = header.split(",")
    number_cols = cols[1 : n_numbers + 1]
    for line_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != len(cols):
            raise FormatError(
                f"{path}:{line_no}: expected {len(cols)} columns, got {len(fields)}"
            )
        frame = _parse_int(fields[0], path, line_no, cols[0])
        numbers = []
        for text, col in zip(fields[1:], number_cols):
            numbers.append(_parse_float(text, path, line_no, col))
        yield line_no, frame, numbers, fields[n_numbers + 1 :]


def _write_table(path: Path, header: str, frames, numbers: np.ndarray, flags=None) -> None:
    """Write a CSV table: per row the frame as an integer, the exact repr of
    each float in that row of ``numbers``, then its flag, if any, as 0 or 1."""
    tails = [",1" if f else ",0" for f in flags] if flags is not None else [""] * len(frames)
    rows = zip(frames, numbers.tolist(), tails)
    lines = ["%d,%s%s" % (frame, ",".join(map(repr, row)), tail) for frame, row, tail in rows]
    path.write_text("\n".join([header, *lines, ""]), encoding="utf-8")


# -- sensor log ----------------------------------------------------------


def write_sensor_log(log: SensorLog, path: Path | str) -> None:
    numbers = np.column_stack([log.t, log.gps, log.vel, log.att])
    _write_table(Path(path), SENSOR_HEADER, log.frame.tolist(), numbers)


def read_sensor_log(path: Path | str) -> SensorLog:
    """Parse a sensor-log CSV; validates monotone time and row count."""
    path = Path(path)
    frames, values = [], []
    prev_t = -math.inf
    for line_no, frame, row, _ in _read_table(path, SENSOR_HEADER, "empty log (header only)", 10):
        t = row[0]
        if t <= prev_t:
            raise FormatError(
                f"{path}:{line_no}: time {t} does not increase over previous {prev_t}"
            )
        prev_t = t
        frames.append(frame)
        values.append(row)
    a = np.array(values)
    return SensorLog(frames, a[:, 0], a[:, 1:4], a[:, 4:7], a[:, 7:])


# -- camera poses --------------------------------------------------------


def write_poses(poses: Poses, fps: float, path: Path | str) -> None:
    """Pose per frame at t = frame/fps."""
    frames = range(len(poses))
    numbers = np.column_stack([np.array(frames) / fps, poses.array])
    _write_table(Path(path), POSE_HEADER, frames, numbers)


def read_poses(path: Path | str) -> Poses:
    path = Path(path)
    rows = _read_table(path, POSE_HEADER, "no poses (header only)", 7)
    values = []
    for expected, (line_no, frame, v, _) in enumerate(rows):
        if frame != expected:
            raise FormatError(
                f"{path}:{line_no}: frame {frame}, expected consecutive {expected}"
            )
        values.append(v[1:])
    return Poses(values)


# -- trajectories --------------------------------------------------------


def write_trajectory(
    frames: list[int],
    uv: np.ndarray,
    world: np.ndarray,
    lost: np.ndarray,
    path: Path | str,
) -> None:
    """Write a trajectory CSV; uv is (n, 2) px, world (n, 2) m."""
    uv = np.asarray(uv, dtype=float)
    world = np.asarray(world, dtype=float)
    lost = np.asarray(lost)
    n = len(frames)
    if uv.shape != (n, 2) or world.shape != (n, 2) or lost.shape != (n,):
        raise ValueError(
            f"inconsistent trajectory arrays: {n} frames, uv {uv.shape}, "
            f"world {world.shape}, lost {lost.shape}"
        )
    _write_table(Path(path), TRAJECTORY_HEADER, frames, np.hstack([uv, world]), lost.tolist())


def read_trajectory(path: Path | str) -> dict[str, np.ndarray]:
    """Read a trajectory CSV into arrays keyed frame/uv/world/lost."""
    path = Path(path)
    rows = _read_table(path, TRAJECTORY_HEADER, "empty trajectory (header only)", 4)
    frames, numbers, lost = [], [], []
    prev_frame = -1
    for line_no, frame, row, (flag,) in rows:
        if frame < 0:
            raise FormatError(f"{path}:{line_no}: frame {frame} is negative")
        if frame <= prev_frame:
            raise FormatError(
                f"{path}:{line_no}: frame {frame} does not increase over {prev_frame}"
            )
        prev_frame = frame
        if flag not in ("0", "1"):
            raise FormatError(
                f"{path}:{line_no}: lost_flag must be 0 or 1, got {flag!r}"
            )
        frames.append(frame)
        numbers.append(row)
        lost.append(flag == "1")
    a = np.array(numbers, dtype=float)
    return {
        "frame": np.array(frames, dtype=int),
        "uv": a[:, :2],
        "world": a[:, 2:],
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
        payload = mask.bits.view(np.uint8) * np.uint8(255)
    else:
        # quantize_mask(0.0) is byte 0, so only the box needs the float pass.
        payload = np.zeros(mask.shape, dtype=np.uint8)
        payload[mask.box] = quantize_mask(mask.inner)
    h, w = payload.shape
    # write needs a C-ordered buffer; a transposed mask's payload is not.
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(payload))


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
    extra = len(raw) - pos - w * h
    if extra < 0:
        raise FormatError(
            f"{path}: byte {pos}: payload truncated, "
            f"expected {w * h} bytes, got {len(raw) - pos}"
        )
    if extra > 0:
        raise FormatError(f"{path}: byte {pos + w * h}: {extra} bytes after the payload")
    # A view of raw: the payload is not copied.
    return np.frombuffer(raw, dtype=np.uint8, count=w * h, offset=pos).reshape(h, w)


def read_mask(path: Path | str) -> SoftMask:
    """Read a PGM into a SoftMask with values byte/255, boxed to its nonzero bytes.

    Only the box is divided. Every value outside it is the 0.0 that
    byte 0 gives, so the values equal grid / 255.0 bit for bit.
    """
    grid = _read_pgm_bytes(Path(path))
    box = nonzero_box(grid)
    return SoftMask(grid[box] / 255.0, box, grid.shape)


def read_binary_mask(path: Path | str) -> BinaryMask:
    """Read a PGM as a binary mask: value byte/255 >= 0.5, i.e. byte >= 128."""
    return BinaryMask(_read_pgm_bytes(Path(path)) >= 128)


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


def remove_frames_from(directory: Path, n: int) -> None:
    """Delete the contiguous run of %06d.pgm files from frame n upward.

    A rerun that writes n frames into a directory holding more would
    otherwise leave the old tail beside them. With nothing stale this
    costs one failed unlink.
    """
    while True:
        try:
            (directory / f"{n:06d}.pgm").unlink()
        except FileNotFoundError:
            return
        n += 1


# -- config JSON -----------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """The run config of ``track`` (run.json): camera, fusion, filter, outline.

    fps is the frame rate of the mask sequence. cx/cy default to the
    image center; with alpha_px null, ``shapes.alpha_shape`` derives each
    frame's alpha from that frame's support points (3x their median
    nearest-neighbour distance); orientation_alpha is the attitude EMA
    factor of ``fusion.fuse_log`` (1 = pass-through).
    """

    fps: float
    focal_px: float
    cx: float | None = None
    cy: float | None = None
    orientation_alpha: float = ORIENTATION_ALPHA
    alpha_px: float | None = None
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)

    def __post_init__(self) -> None:
        for name in ("fps", "focal_px"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name}: must be > 0, got {v!r}")
        check_orientation_alpha(self.orientation_alpha)
        if self.alpha_px is not None and not (
            math.isfinite(self.alpha_px) and self.alpha_px > 0
        ):
            raise ValueError(f"alpha_px: must be > 0 or null, got {self.alpha_px!r}")


# JSON types a scalar field accepts (never a bool) and how errors name them.
_SCALARS = {
    float: ((int, float), "a number"),
    int: (int, "an integer"),
    str: (str, "a string"),
}


def load(cls, doc, path: str = ""):
    """Build the config dataclass cls from a parsed JSON object.

    Unknown keys and missing required fields are errors. Each value is
    coerced to its field's annotation: float, int, str, X | None, tuples
    and nested config dataclasses. Defaults come from the dataclass and
    range checks from its __post_init__, whose messages start with the
    bare field name. Every error is a FormatError led by the dotted key
    path, e.g. "drone.altitude: must be > 0".
    """

    def where(key) -> str:
        return f"{path}.{key}" if path else str(key)

    if not isinstance(doc, dict):
        raise FormatError(f"{path or 'config'}: must be a JSON object, got {doc!r}")
    names = {f.name: f for f in dataclasses.fields(cls)}
    for key in doc:
        if key not in names:
            raise FormatError(f"{where(key)}: unknown key")
    hints = get_type_hints(cls)
    kwargs = {}
    for name, f in names.items():
        if name in doc:
            kwargs[name] = _coerce(hints[name], doc[name], where(name))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise FormatError(f"{where(name)}: missing required key")
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise FormatError(where(e)) from None


def _coerce(tp, value, key: str):
    """value as the annotated type tp; key names it in errors (see load)."""
    if dataclasses.is_dataclass(tp):
        return load(tp, value, key)
    args = get_args(tp)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise FormatError(f"{key}: must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise FormatError(f"{key}: must be a list of {len(args)}, got {value!r}")
        return tuple(
            _coerce(a, v, f"{key}[{i}]") for i, (a, v) in enumerate(zip(args, value))
        )
    if args:  # X | None
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
    accepted, kind = _SCALARS[tp]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise FormatError(f"{key}: must be {kind}, got {value!r}")
    try:
        return tp(value)
    except OverflowError:  # an integer too large for a float
        raise FormatError(f"{key}: must be {kind} within float range") from None


def dump(config) -> dict:
    """The JSON object of a config dataclass: load(type(c), dump(c)) == c."""
    # The JSON round trip turns tuples into lists; floats survive exactly.
    return json.loads(json.dumps(dataclasses.asdict(config)))


def config_from_json(cls, text: str):
    """Parse a config document and load it as cls (see load)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # too deeply nested
        raise FormatError(f"config is not valid JSON: {e}") from None
    return load(cls, doc)


def scenario_config_from_json(text: str):
    """Parse and validate scenario.json into a ScenarioConfig."""
    from .synth import ScenarioConfig  # synth imports this module

    return config_from_json(ScenarioConfig, text)


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

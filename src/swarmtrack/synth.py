"""Synthetic scenario generator: a deforming swarm filmed by a drone.

The swarm is a world-frame ellipse whose semi-axes breathe
sinusoidally, optionally splitting into two drifting components. The
drone flies piecewise-linear waypoints with a trapezoidal speed
profile (accelerate, cruise, decelerate at the path end) and a gimbal
that holds a configured camera attitude. Each frame is rendered by
classifying pixels against the exact projective geometry: pixel
centers are backprojected to the ground plane and tested against the
world-frame ellipse, so the ground truth is exact by construction, and
the soft mask is the binary interior blurred by ``mask_softness``.

The drone's poses (``Poses``) and sensor log (``SensorLog``) are built
as arrays for the whole flight. The log is the exact kinematics plus
seeded Gaussian noise: GPS position noise, IMU velocity noise, and a
per-run constant IMU velocity bias (the dominant real error of
consumer-grade IMU velocity estimates; without it dead reckoning at
frame cadence would be unrealistically accurate). All noise is drawn in frame order from one
seeded generator, so a seed pins every byte of the output.

In-frame validation requires the blurred boundary band (3 softness
+ 2 px) of every component to stay inside the image on every frame;
violation is a generation error naming the first bad frame, raised
before any frame is rendered or written.

Each soft mask is stored as its box (``SoftMask.box`` and
``SoftMask.inner``): the render window grown by the blur kernel's
radius. ``soften`` and ``degrade_mask`` filter only that box and build
``SoftMask(inner, box, shape)`` from it; no full-frame array is built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io_formats
from .fusion import NoiseConfig, SensorLog
from .geometry import CameraPose, Intrinsics, Poses, backproject_pixels
from .geometry import project_points, rotation_camera_to_world
from .shapes import BinaryMask
from .tracker import Box, SoftMask


class ScenarioError(ValueError):
    """Invalid scenario configuration or impossible geometry."""


MAX_DRONE_SPEED = 20.0  # m/s, Phantom-class kinematics


def _check_waypoints(waypoints: tuple[tuple[float, float], ...]) -> None:
    """Raise ScenarioError unless there is at least one finite (x, y) waypoint."""
    if len(waypoints) < 1:
        raise ScenarioError("waypoints: need at least one waypoint")
    for wp in waypoints:
        if len(wp) != 2 or not all(math.isfinite(c) for c in wp):
            raise ScenarioError(f"waypoints: bad waypoint {wp!r}")


@dataclass(frozen=True)
class DronePathConfig:
    """Drone flight: waypoints (m), altitude AGL (m), trapezoidal speed.

    yaw_mode "fixed" holds yaw_deg; "path" follows the flight heading.
    Camera attitude is gimbal-held at the configured pitch/roll
    (0/0 = nadir).
    """

    waypoints: tuple[tuple[float, float], ...]
    altitude: float
    speed: float = 5.0
    accel: float = 2.0
    yaw_mode: str = "fixed"
    yaw_deg: float = 0.0
    camera_pitch_deg: float = 0.0
    camera_roll_deg: float = 0.0

    def __post_init__(self) -> None:
        _check_waypoints(self.waypoints)
        if not (math.isfinite(self.altitude) and self.altitude > 0):
            raise ScenarioError(f"altitude: must be > 0, got {self.altitude!r}")
        if not (math.isfinite(self.speed) and 0 < self.speed <= MAX_DRONE_SPEED):
            raise ScenarioError(
                f"speed: must be in (0, {MAX_DRONE_SPEED}] m/s, got {self.speed!r}"
            )
        if not (math.isfinite(self.accel) and self.accel > 0):
            raise ScenarioError(f"accel: must be > 0, got {self.accel!r}")
        if self.yaw_mode not in ("fixed", "path"):
            raise ScenarioError(
                f"yaw_mode: must be 'fixed' or 'path', got {self.yaw_mode!r}"
            )
        for name in ("yaw_deg", "camera_pitch_deg", "camera_roll_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name}: must be finite")


@dataclass(frozen=True)
class SwarmPathConfig:
    """Swarm drift: waypoints (m) traversed at constant speed (m/s)."""

    waypoints: tuple[tuple[float, float], ...]
    speed: float = 1.0

    def __post_init__(self) -> None:
        _check_waypoints(self.waypoints)
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ScenarioError(f"speed: must be >= 0, got {self.speed!r}")


@dataclass(frozen=True)
class SwarmShapeConfig:
    """Ellipse geometry and deformation of the swarm blob.

    Semi-axes in meters modulate as a(t) = semi_major (1 + amp sin wt),
    b(t) = semi_minor (1 - amp sin wt); the ellipse spins at
    spin_deg_per_s. From split_frame on, the blob divides into two
    half-area components separating at split_speed m/s each.
    """

    semi_major: float
    semi_minor: float
    deform_amplitude: float = 0.0
    deform_freq_hz: float = 0.0
    orientation_deg: float = 0.0
    spin_deg_per_s: float = 0.0
    split_frame: int | None = None
    split_speed: float = 0.5

    def __post_init__(self) -> None:
        if not (math.isfinite(self.semi_major) and self.semi_major > 0):
            raise ScenarioError(f"semi_major: must be > 0, got {self.semi_major!r}")
        if not (math.isfinite(self.semi_minor) and self.semi_minor > 0):
            raise ScenarioError(f"semi_minor: must be > 0, got {self.semi_minor!r}")
        if self.semi_minor > self.semi_major:
            raise ScenarioError(
                f"semi_minor: {self.semi_minor} exceeds semi_major {self.semi_major}"
            )
        if not (0 <= self.deform_amplitude <= 0.9):
            raise ScenarioError(
                f"deform_amplitude: must be in [0, 0.9], got {self.deform_amplitude!r}"
            )
        if not (math.isfinite(self.deform_freq_hz) and self.deform_freq_hz >= 0):
            raise ScenarioError(
                f"deform_freq_hz: must be >= 0, got {self.deform_freq_hz!r}"
            )
        for name in ("orientation_deg", "spin_deg_per_s"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name}: must be finite")
        if self.split_frame is not None and self.split_frame < 0:
            raise ScenarioError(
                f"split_frame: must be >= 0, got {self.split_frame!r}"
            )
        if not (math.isfinite(self.split_speed) and self.split_speed >= 0):
            raise ScenarioError(
                f"split_speed: must be >= 0, got {self.split_speed!r}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a scenario needs; a seed pins every output byte."""

    duration: int
    fps: float
    width: int
    height: int
    focal_px: float
    drone: DronePathConfig
    swarm: SwarmPathConfig
    shape: SwarmShapeConfig
    mask_softness: float = 1.5
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    noise_scale: float = 1.0
    imu_vel_bias_sigma: float = 0.03
    seed: int = 0

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise ScenarioError(f"duration: must be >= 1, got {self.duration!r}")
        if not (math.isfinite(self.fps) and self.fps > 0):
            raise ScenarioError(f"fps: must be > 0, got {self.fps!r}")
        if self.width < 8 or self.height < 8:
            raise ScenarioError(
                f"width/height: image must be at least 8x8, got {self.width}x{self.height}"
            )
        if not (math.isfinite(self.focal_px) and self.focal_px > 0):
            raise ScenarioError(f"focal_px: must be > 0, got {self.focal_px!r}")
        if not (math.isfinite(self.mask_softness) and self.mask_softness >= 0):
            raise ScenarioError(
                f"mask_softness: must be >= 0, got {self.mask_softness!r}"
            )
        if not (math.isfinite(self.noise_scale) and self.noise_scale >= 0):
            raise ScenarioError(f"noise_scale: must be >= 0, got {self.noise_scale!r}")
        if not (math.isfinite(self.imu_vel_bias_sigma) and self.imu_vel_bias_sigma >= 0):
            raise ScenarioError(
                f"imu_vel_bias_sigma: must be >= 0, got {self.imu_vel_bias_sigma!r}"
            )
        if self.seed < 0:
            raise ScenarioError(f"seed: must be >= 0, got {self.seed!r}")

    @property
    def intrinsics(self) -> Intrinsics:
        return Intrinsics.centered(self.focal_px, self.width, self.height)


# -- paths ---------------------------------------------------------------


class _Polyline:
    """Arc-length parametrized piecewise-linear path."""

    def __init__(self, waypoints: tuple[tuple[float, float], ...]):
        pts = np.asarray(waypoints, dtype=float).reshape(-1, 2)
        seg = np.diff(pts, axis=0)
        seg_len = np.hypot(seg[:, 0], seg[:, 1])
        keep = seg_len > 0
        self.pts = np.concatenate([pts[:1], pts[1:][keep]]) if len(pts) > 1 else pts
        seg = np.diff(self.pts, axis=0)
        self.seg_len = np.hypot(seg[:, 0], seg[:, 1])
        # Each segment's unit heading, divided once per segment.
        self.heading = seg / self.seg_len[:, None]
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.length = float(self.cum[-1])

    def point_at(self, s: float | np.ndarray) -> np.ndarray:
        """Point(s) at arc length s, a float or an array; clamped to the ends."""
        x = np.interp(s, self.cum, self.pts[:, 0])
        y = np.interp(s, self.cum, self.pts[:, 1])
        return np.stack([x, y], axis=-1)

    def direction_at(self, s: float | np.ndarray) -> np.ndarray:
        """Unit heading(s) at arc length s; (1, 0) on a zero-length path."""
        if self.length == 0.0:
            return np.tile([1.0, 0.0], np.shape(s) + (1,))
        i = np.searchsorted(self.cum, s, side="right") - 1
        i = np.clip(i, 0, len(self.seg_len) - 1)
        return np.take(self.heading, i, axis=0)


def _drone_states(
    cfg: DronePathConfig, path: _Polyline, t: np.ndarray
) -> tuple[Poses, np.ndarray, np.ndarray]:
    """Camera poses, world positions (n, 3) and velocities (n, 3) at times t.

    Trapezoidal speed profile over the path: accelerate from rest,
    cruise, decelerate to rest at the path end, then hold (hover). A
    path too short to reach cruise speed gets a triangular profile, i.e.
    no cruise phase. Every phase keeps its closed form; np.select gives
    each time the first phase whose bound it is below, as an if-chain
    would.
    """
    length, accel, speed = path.length, cfg.accel, cfg.speed
    d_ramp = speed**2 / (2.0 * accel)
    if 2.0 * d_ramp >= length:
        t_ramp, t_cruise = math.sqrt(accel * length) / accel, 0.0
    else:
        t_ramp, t_cruise = speed / accel, (length - 2.0 * d_ramp) / speed
    t_stop = 2.0 * t_ramp + t_cruise
    dt = t_stop - t
    phases = [t <= 0.0, t < t_ramp, t < t_ramp + t_cruise, t < t_stop]
    s = np.select(
        phases,
        [0.0, 0.5 * accel * t * t, d_ramp + speed * (t - t_ramp),
         length - 0.5 * accel * dt * dt],
        length,
    )
    v = np.select(phases, [0.0, accel * t, speed, accel * dt], 0.0)
    pos = path.point_at(s)
    d = path.direction_at(s)
    n = len(t)
    vels = np.column_stack([v * d[:, 0], v * d[:, 1], np.zeros(n)])
    if cfg.yaw_mode == "path":
        # math.atan2 per frame: np.arctan2 need not round the same way.
        yaws = [math.degrees(math.atan2(dx, dy)) for dx, dy in d.tolist()]
    else:
        yaws = np.full(n, float(cfg.yaw_deg))
    poses = Poses(np.column_stack([
        pos, np.full(n, float(cfg.altitude)), np.full(n, float(cfg.camera_pitch_deg)),
        yaws, np.full(n, float(cfg.camera_roll_deg)),
    ]))
    return poses, poses.array[:, :3], vels


# -- swarm shape ---------------------------------------------------------


@dataclass(frozen=True)
class _EllipseState:
    """One blob component: world center, semi-axes (m), orientation (rad)."""

    cx: float
    cy: float
    a: float
    b: float
    theta: float


def _swarm_components(config: ScenarioConfig, frame: int, path: _Polyline) -> list[_EllipseState]:
    t = frame / config.fps
    shp = config.shape
    s = min(config.swarm.speed * t, path.length)
    center = path.point_at(s)
    mod = shp.deform_amplitude * math.sin(2.0 * math.pi * shp.deform_freq_hz * t)
    a = shp.semi_major * (1.0 + mod)
    b = shp.semi_minor * (1.0 - mod)
    theta = math.radians(shp.orientation_deg + shp.spin_deg_per_s * t)
    if shp.split_frame is None or frame < shp.split_frame:
        return [_EllipseState(float(center[0]), float(center[1]), a, b, theta)]
    # After the split: two half-area components drifting apart along the
    # path normal, symmetric about the nominal center.
    dt_split = (frame - shp.split_frame) / config.fps
    direction = path.direction_at(s)
    normal = np.array([-direction[1], direction[0]])
    off = shp.split_speed * dt_split
    scale = 1.0 / math.sqrt(2.0)
    out = []
    for sign in (-1.0, 1.0):
        c = center + sign * off * normal
        out.append(
            _EllipseState(float(c[0]), float(c[1]), a * scale, b * scale, theta)
        )
    return out


def _component_centroid(components: list[_EllipseState]) -> np.ndarray:
    """Area-weighted world centroid of the blob components."""
    weights = np.array([c.a * c.b for c in components])
    centers = np.array([[c.cx, c.cy] for c in components])
    return (weights[:, None] * centers).sum(axis=0) / weights.sum()


def _boundary_points(c: _EllipseState, n: int = 64) -> np.ndarray:
    phi = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    ex = np.array([math.cos(c.theta), math.sin(c.theta)])
    ey = np.array([-math.sin(c.theta), math.cos(c.theta)])
    pts = (
        np.array([c.cx, c.cy])
        + np.outer(c.a * np.cos(phi), ex)
        + np.outer(c.b * np.sin(phi), ey)
    )
    return np.column_stack([pts, np.zeros(len(pts))])


# -- rendering -----------------------------------------------------------


def _render_window(
    components: list[_EllipseState],
    pose: CameraPose,
    intr: Intrinsics,
    margin_px: float,
    frame: int,
) -> Box:
    """Pixel box holding every component's interior, checked in frame.

    Raises ScenarioError when any component's boundary (plus margin)
    leaves the image.
    """
    corners_uv = []
    for comp in components:
        uv = project_points(_boundary_points(comp), pose, intr)
        u = uv[:, 0] + intr.cx
        v = uv[:, 1] + intr.cy
        bad = (
            (u < margin_px)
            | (u > intr.width - 1 - margin_px)
            | (v < margin_px)
            | (v > intr.height - 1 - margin_px)
        )
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ScenarioError(
                f"swarm leaves frame at frame {frame}: boundary point at "
                f"({u[k]:.1f}, {v[k]:.1f}) px with margin {margin_px:.1f}"
            )
        corners_uv.append((u, v))
    all_u = np.concatenate([c[0] for c in corners_uv])
    all_v = np.concatenate([c[1] for c in corners_uv])
    # Pixel bbox around all components; +2 px absorbs boundary sampling gaps.
    u0 = max(0, int(math.floor(all_u.min())) - 2)
    u1 = min(intr.width - 1, int(math.ceil(all_u.max())) + 2)
    v0 = max(0, int(math.floor(all_v.min())) - 2)
    v1 = min(intr.height - 1, int(math.ceil(all_v.max())) + 2)
    return slice(v0, v1 + 1), slice(u0, u1 + 1)


def _render_binary(
    components: list[_EllipseState], pose: CameraPose, intr: Intrinsics, window: Box
) -> np.ndarray:
    """Exact binary interior mask (full image), via per-pixel ground test
    of the pixels in window."""
    rows, cols = window
    uu, vv = np.meshgrid(
        np.arange(cols.start, cols.stop, dtype=float),
        np.arange(rows.start, rows.stop, dtype=float),
    )
    gx, gy = backproject_pixels(uu - intr.cx, vv - intr.cy, pose, intr)
    inside = np.zeros(gx.shape, dtype=bool)
    for comp in components:
        dx = gx - comp.cx
        dy = gy - comp.cy
        cos_t, sin_t = math.cos(comp.theta), math.sin(comp.theta)
        lu = dx * cos_t + dy * sin_t
        lv = -dx * sin_t + dy * cos_t
        inside |= (lu / comp.a) ** 2 + (lv / comp.b) ** 2 <= 1.0
    full = np.zeros((intr.height, intr.width), dtype=bool)
    full[window] = inside
    return full


def _blur_support(
    inner: np.ndarray,
    support: Box,
    shape: tuple[int, int],
    sigma: float,
    gain: np.ndarray | None = None,
) -> SoftMask:
    """clip(gaussian_filter(values, sigma) [* gain], 0, 1) on the support only.

    The frame ``values`` of ``shape`` holds ``inner`` inside ``support``
    and 0.0 elsewhere, with inner >= 0. Only the support grown by the kernel
    radius int(4 sigma + 0.5) and clamped to the frame is filtered, and
    that box's values go to ``SoftMask(inner, box, shape)``; every pixel outside it
    is exactly 0. Inside the box each pixel sums the same taps in the
    same order as the full-frame filter: where the box stops short of
    the frame edge its reflect boundary reads only the zero margin, so
    the result is byte-identical to the full-frame one for any finite
    gain >= 0. Both passes run in place in one zeroed box array, as
    ``gaussian_filter`` chains them: the first (row-wise) pass on the
    band of the support's columns only, since every other column is
    zero in and zero out, then the second over the whole box.
    """
    if gain is not None and gain.shape != tuple(shape):
        raise ValueError(f"gain field {gain.shape} does not match mask {tuple(shape)}")
    if any(s.start >= s.stop for s in support):
        return SoftMask(np.zeros((0, 0)), (slice(0, 0), slice(0, 0)), shape)
    radius = int(4.0 * sigma + 0.5) if sigma > 0 else 0
    box = tuple(
        slice(max(s.start - radius, 0), min(s.stop + radius, n)) for s, n in zip(support, shape)
    )
    if sigma > 0:
        from scipy import ndimage  # loaded on first use: only rendering blurs
        (rows, cols), (r0, c0) = support, (box[0].start, box[1].start)
        out = np.zeros((box[0].stop - r0, box[1].stop - c0))
        band = out[:, cols.start - c0 : cols.stop - c0]
        band[rows.start - r0 : rows.stop - r0] = inner
        ndimage.gaussian_filter1d(band, sigma, axis=0, output=band)
        ndimage.gaussian_filter1d(out, sigma, axis=1, output=out)
    else:
        out = inner.astype(float)
    # out is this call's own array, so the gain and the clip run in place.
    if gain is not None:
        out *= gain[box]
    np.clip(out, 0.0, 1.0, out=out)
    return SoftMask(out, box, shape)


def soften(binary: np.ndarray, softness: float, support: Box) -> SoftMask:
    """Blur a binary interior, all of it inside the box ``support`` (the
    render window), into a soft mask; softness 0 passes through."""
    return _blur_support(binary[support], support, binary.shape, softness)


# -- generation ----------------------------------------------------------


def _kinematics(config: ScenarioConfig):
    """Exact poses, positions, velocities, components and world centroids."""
    drone_path = _Polyline(config.drone.waypoints)
    swarm_path = _Polyline(config.swarm.waypoints)
    t = np.arange(config.duration) / config.fps
    poses, positions, vels = _drone_states(config.drone, drone_path, t)
    comps = [
        _swarm_components(config, frame, swarm_path)
        for frame in range(config.duration)
    ]
    centroids = np.array([_component_centroid(c) for c in comps])
    return poses, positions, vels, comps, centroids


def _sensor_log(
    config: ScenarioConfig,
    poses: Poses,
    positions: np.ndarray,
    vels: np.ndarray,
    rng: np.random.Generator,
) -> SensorLog:
    scale = config.noise_scale
    # Constant per-run velocity bias: nominal magnitude, arbitrary
    # horizontal direction. A plain Gaussian draw would make a
    # near-zero bias as likely as the nominal one, which real sensors
    # do not exhibit, and the vertical channel is pinned by the
    # barometric altimeter rather than integrated velocity.
    theta = rng.uniform(0.0, 2.0 * math.pi)
    direction = np.array([math.cos(theta), math.sin(theta), 0.0])
    magnitude = config.imu_vel_bias_sigma * rng.uniform(0.75, 1.25)
    bias = scale * magnitude * direction
    # (frame, gps/velocity, axis): the same stream, in the same order, as
    # a GPS and then a velocity standard_normal(3) per frame.
    noise = rng.standard_normal((len(poses), 2, 3))
    gps = positions + scale * config.noise.gps_sigma * noise[:, 0]
    vel = vels + bias + scale * config.noise.imu_vel_sigma * noise[:, 1]
    frames = np.arange(len(poses))
    return SensorLog(frames, frames / config.fps, gps, vel, poses.array[:, 3:])


def _simulate(config: ScenarioConfig):
    """Sensor log, true poses, world centroids (n, 2), and a generator
    rendering each frame's (soft mask, binary mask, centroid px) in order.
    """
    poses, positions, vels, comps, world = _kinematics(config)
    log = _sensor_log(config, poses, positions, vels, np.random.default_rng(config.seed))
    intr = config.intrinsics
    margin = 3.0 * config.mask_softness + 2.0
    # Every frame is checked in frame before the first one is rendered, so
    # a swarm that leaves the image fails before any output is written.
    cams = list(poses)
    windows = [
        _render_window(comps[frame], cams[frame], intr, margin, frame)
        for frame in range(config.duration)
    ]

    def frames():
        for frame, window in enumerate(windows):
            binary = _render_binary(comps[frame], cams[frame], intr, window)
            yield (
                soften(binary, config.mask_softness, window),
                BinaryMask(binary),
                _project_centroid(world[frame], cams[frame], intr),
            )

    return log, poses, world, frames()


def _project_centroid(
    world_xy: np.ndarray, pose: CameraPose, intr: Intrinsics
) -> tuple[float, float]:
    uv = project_points(np.array([[world_xy[0], world_xy[1], 0.0]]), pose, intr)
    return float(uv[0, 0] + intr.cx), float(uv[0, 1] + intr.cy)


def write_scenario(config: ScenarioConfig, out_dir) -> None:
    """Generate and write a scenario directory frame by frame.

    Layout: masks/%06d.pgm, gt_masks/%06d.pgm, sensors.csv,
    gt_poses.csv, gt_track.csv, scenario.json. Byte-identical for a
    given config (noise is drawn in frame order before rendering).
    Frames left in masks/ and gt_masks/ by a longer earlier run are deleted.
    """
    out = Path(out_dir)
    log, poses, world, frames = _simulate(config)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    (out / "gt_masks").mkdir(parents=True, exist_ok=True)
    track2d = []
    for frame, (soft, binary, uv) in enumerate(frames):
        io_formats.write_mask(soft, out / "masks" / f"{frame:06d}.pgm")
        io_formats.write_mask(binary, out / "gt_masks" / f"{frame:06d}.pgm")
        track2d.append(uv)
    for kind in ("masks", "gt_masks"):
        io_formats.remove_frames_from(out / kind, config.duration)
    io_formats.write_sensor_log(log, out / "sensors.csv")
    io_formats.write_poses(poses, config.fps, out / "gt_poses.csv")
    io_formats.write_trajectory(
        frames=list(range(config.duration)),
        uv=np.array(track2d),
        world=world,
        lost=np.zeros(config.duration, dtype=bool),
        path=out / "gt_track.csv",
    )
    (out / "scenario.json").write_text(
        json.dumps(io_formats.dump(config), indent=2) + "\n", encoding="utf-8"
    )


# -- degradation ---------------------------------------------------------


# Output pixels per block of _zoom_linear (20 KB of float64 per term), and
# the ufunc buffer, in elements, it runs with. numpy sizes the buffer of a
# broadcast to the whole operation (up to 8,192 elements) although these
# operands need none, which would hold a second block's worth of memory.
_ZOOM_BLOCK = 2560
_ZOOM_UFUNC_BUFFER = 64


def _zoom_axis(n_in: int, n_out: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower sample index and the two weights of each output position on one
    axis, as ``ndimage.zoom``'s order-1 spline computes them.

    The coordinate is k * ((n_in - 1) / (n_out - 1)), or 0.0 when n_out is
    1; w0 = 1 - (cc - floor(cc)) and w1 = 1 - w0. A coordinate past the last
    sample, which the rounding of the product can give, gets index n_in:
    the zero pad, as zoom's ``constant`` mode gives 0.0 there.
    """
    step = (n_in - 1) / (n_out - 1) if n_out > 1 else 0.0
    cc = np.arange(n_out, dtype=float)
    cc *= step
    lower = np.floor(cc)
    w0 = 1.0 - (cc - lower)
    index = lower.astype(np.intp)
    index[cc > n_in - 1] = n_in
    return index, w0, 1.0 - w0


def _zoom_linear(coarse: np.ndarray, height: int, width: int) -> np.ndarray:
    """``ndimage.zoom(coarse, (height / ch, width / cw), order=1)``, bit for
    bit, built in one (height, width) array.

    Each pixel sums its four neighbours' terms in zoom's order, from +0.0:
    (((c00 a0) b0 + (c01 a0) b1) + (c10 a1) b0) + (c11 a1) b1, with the row
    weights a and the column weights b of ``_zoom_axis``; a neighbour past
    the last sample reads the zero pad. The output is filled a block of
    rows at a time. The row weights go onto the two coarse rows of each
    output row first; the column index never decreases, so gathering such
    a row across the output is repeating each of its samples.
    """
    ch, cw = coarse.shape
    rows, row_w0, row_w1 = _zoom_axis(ch, height)
    row_w = np.stack([row_w0, row_w1], axis=1)
    cols, col_w0, col_w1 = _zoom_axis(cw, width)
    counts = np.bincount(cols, minlength=cw + 1)
    pad = np.zeros((ch + 2, cw + 2))
    pad[:ch, :cw] = coarse
    pairs = np.stack([pad[:-1], pad[1:]], axis=1)  # coarse rows i and i + 1
    del row_w0, row_w1, cols, pad  # only what the loop reads stays beside the field
    out = np.empty((height, width))
    step = max(1, _ZOOM_BLOCK // width)
    saved = np.setbufsize(_ZOOM_UFUNC_BUFFER)
    try:
        for r0 in range(0, height, step):
            block, band = out[r0 : r0 + step], slice(r0, r0 + step)
            weighted = pairs[rows[band]] * row_w[band, :, None]  # (c a) for both rows
            np.multiply(np.repeat(weighted[:, 0, :-1], counts, axis=1), col_w0, out=block)
            for k, j, col_w in ((0, 1, col_w1), (1, 0, col_w0), (1, 1, col_w1)):
                term = np.repeat(weighted[:, k, j : j + cw + 1], counts, axis=1)
                term *= col_w
                block += term
                del term  # freed before the next one is built
    finally:
        np.setbufsize(saved)
    # zoom's sum starts at +0.0, so a sum of four -0.0 terms is +0.0.
    out += 0.0
    return out


def make_gain_field(
    width: int,
    height: int,
    gain_sigma: float,
    scale_px: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Smooth log-normal gain field, median 1, correlation length scale_px.

    exp(sigma * correlated standard normal): strictly positive, so
    dimming attenuates a mask without ever truly blanking it. Drawn
    once and applied to a whole sequence it acts like a fixed pattern
    of over- and under-segmentation across the scene, so a target
    traversing it sees sustained stretches of dimmed masks. Redraw it
    per frame for uncorrelated flicker instead.

    A coarse grid of standard normals, one sample per scale_px plus one,
    is smoothed, normalized to unit deviation and interpolated bilinearly
    to the frame by ``_zoom_linear`` (``ndimage.zoom``'s order-1 values);
    the field is scaled and exponentiated in place, so the returned array
    is the only frame-size one built. Requires width and height >= 1, a
    finite gain_sigma >= 0 and scale_px > 0.
    """
    for name, n in (("width", width), ("height", height)):
        if not n >= 1:
            raise ValueError(f"{name} must be >= 1, got {n!r}")
    if not (math.isfinite(gain_sigma) and gain_sigma >= 0):
        raise ValueError(f"gain_sigma must be finite and >= 0, got {gain_sigma!r}")
    if not scale_px > 0:
        raise ValueError(f"scale_px must be > 0, got {scale_px!r}")
    from scipy import ndimage  # loaded on first use: only degradation draws a field
    ch = max(2, int(math.ceil(height / scale_px)) + 1)
    cw = max(2, int(math.ceil(width / scale_px)) + 1)
    coarse = rng.standard_normal((ch, cw))
    coarse = ndimage.gaussian_filter(coarse, sigma=1.0)
    sd = float(coarse.std())
    if sd > 0:
        coarse /= sd
    field = _zoom_linear(coarse, height, width)
    field *= gain_sigma
    return np.exp(field, out=field)


def degrade_mask(
    mask: SoftMask,
    blur_sigma: float = 0.0,
    gain: np.ndarray | None = None,
) -> SoftMask:
    """Simulate poor segmentation: extra blur, then a multiplicative gain.

    gain is typically from make_gain_field; pass the same array for
    every frame of a sequence to model a persistent quality pattern.
    """
    if not (math.isfinite(blur_sigma) and blur_sigma >= 0):
        raise ValueError(f"blur_sigma must be finite and >= 0, got {blur_sigma}")
    return _blur_support(mask.inner, mask.box, mask.shape, blur_sigma, gain)


# -- marker runs ---------------------------------------------------------


@dataclass
class MarkerRun:
    """A georeferencing experiment: known ground markers sighted in flight.

    sightings are (marker_index, frame, u_px, v_px) at each marker's
    closest approach to the principal point, corner-origin pixels.
    """

    config: ScenarioConfig
    markers: np.ndarray
    sightings: list[tuple[int, int, float, float]]
    sensor_log: SensorLog
    gt_poses: Poses


def _marker_layout(
    path: _Polyline, path_length: float, n: int, half_swath: float, rng: np.random.Generator
) -> np.ndarray:
    """Ground markers (n, 3): jittered positions alternating sides of the
    flight line, offset along the local path normal, inside the footprint.

    Each marker takes one row of ``rng.random((n, 2))``: its arc jitter in
    [-2, 2) m and its offset scale in [0.6, 1), computed as
    ``uniform(low, high)`` computes them, so the layout and the stream
    after it are those of one ``uniform`` pair per marker.
    """
    arcs = np.linspace(0.1 * path_length, 0.9 * path_length, n)
    side = np.tile([-1.0, 1.0], (n + 1) // 2)[:n]
    u = rng.random((n, 2))
    s = arcs + (-2.0 + 4.0 * u[:, 0])
    base = path.point_at(s)
    d = path.direction_at(s)
    offset = side * (0.6 + (1.0 - 0.6) * u[:, 1]) * half_swath
    return np.column_stack(
        [base[:, 0] - offset * d[:, 1], base[:, 1] + offset * d[:, 0], np.zeros(n)]
    )


def generate_marker_run(seed: int, width: int = 960, height: int = 540) -> MarkerRun:
    """L-shaped survey pass over ten jittered markers along both legs.

    The drone flies 160 m at 3.2 m/s and 40 m altitude, filmed at 15 fps
    with a 1000 px focal length, and its IMU velocity carries a 0.14 m/s
    bias on top of the default sensor noise. The marker layout and
    sensor noise derive from the seed. Sightings are exact pixel
    positions at closest approach (marker detection is
    assumed perfect; the run isolates pose error). The 90 degree turn
    makes marker pair directions span the plane, so no horizontal
    drift direction can hide from pairwise-distance comparison.

    The whole flight is built as arrays once per run: poses and the
    sensor log, then every marker projected on every frame with the one
    world-to-camera rotation the pass holds (fixed yaw, gimbal attitude).
    """
    n_markers, altitude, speed, path_length, fps, focal_px = 10, 40.0, 3.2, 160.0, 15.0, 1000.0
    rng = np.random.default_rng(seed)
    duration = int(math.ceil((path_length / speed + 4.0) * fps))
    half_leg = path_length / 2.0
    config = ScenarioConfig(
        duration=duration,
        fps=fps,
        width=width,
        height=height,
        focal_px=focal_px,
        drone=DronePathConfig(
            waypoints=((0.0, 0.0), (half_leg, 0.0), (half_leg, half_leg)),
            altitude=altitude,
            speed=speed,
        ),
        swarm=SwarmPathConfig(waypoints=((0.0, 0.0),), speed=0.0),
        shape=SwarmShapeConfig(semi_major=1.0, semi_minor=1.0),
        imu_vel_bias_sigma=0.14,
        seed=seed,
    )
    drone_path = _Polyline(config.drone.waypoints)
    half_swath = 0.75 * (height / 2.0) / focal_px * altitude
    markers = _marker_layout(drone_path, path_length, n_markers, half_swath, rng)
    poses, positions, vels = _drone_states(
        config.drone, drone_path, np.arange(duration) / fps
    )
    log = _sensor_log(config, poses, positions, vels, rng)
    intr = config.intrinsics
    # Fixed yaw and a nadir gimbal: one rotation serves every frame, and
    # every marker lies at depth `altitude` in front of the camera. The
    # (frame, marker, axis) offsets are filled one axis at a time, as a
    # broadcast over the length-3 axis would run its inner loop 3 long.
    offsets = np.empty((duration, n_markers, 3))
    for k in range(3):
        np.subtract(markers[:, k], positions[:, k, None], out=offsets[:, :, k])
    cam = offsets @ rotation_camera_to_world(poses[0])
    # Freed here, as the broadcast's temporary was: kept to the end of the
    # call, the 194 KB block shifts the heap so that, depending on the
    # process's earlier allocations, glibc trims and re-faults its top
    # (63 page faults, about 100 us) on every run.
    del offsets
    depth = cam[..., 2]
    x = intr.f * cam[..., 0] / depth
    y = intr.f * cam[..., 1] / depth
    u, v = x + intr.cx, y + intr.cy
    inside = (0 <= u) & (u <= width - 1) & (0 <= v) & (v <= height - 1)
    radius = np.where(inside, np.hypot(x, y), np.inf)
    sightings = []
    for m in range(n_markers):
        if not inside[:, m].any():
            raise ScenarioError(f"marker {m} never enters the frame")
        # np.hypot may differ from math.hypot in the last bit, so near-ties
        # are settled with math.hypot; min() keeps the earliest frame.
        near = np.flatnonzero(radius[:, m] <= radius[:, m].min() * (1.0 + 1e-9))
        frame = min(near.tolist(), key=lambda k: math.hypot(x[k, m], y[k, m]))
        sightings.append((m, frame, u[frame, m], v[frame, m]))
    return MarkerRun(
        config=config,
        markers=markers,
        sightings=sightings,
        sensor_log=log,
        gt_poses=poses,
    )

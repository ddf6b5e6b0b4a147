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

The sensor log is the exact kinematics plus seeded Gaussian noise: GPS
position noise, IMU velocity noise, and a per-run constant IMU
velocity bias (the dominant real error of consumer-grade IMU velocity
estimates; without it dead reckoning at frame cadence would be
unrealistically accurate). All noise is drawn in frame order from one
seeded generator, so a seed pins every byte of the output.

In-frame validation requires the blurred boundary band (3 softness
+ 2 px) of every component to stay inside the image on every frame;
violation is a generation error naming the first bad frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from .fusion import NoiseConfig, SensorRecord
from .geometry import CameraPose, Intrinsics, backproject_pixels, project_points
from .shapes import BinaryMask
from .tracker import SoftMask


class ScenarioError(ValueError):
    """Invalid scenario configuration or impossible geometry."""


MAX_DRONE_SPEED = 20.0  # m/s, Phantom-class kinematics


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
        if len(self.waypoints) < 1:
            raise ScenarioError("drone.waypoints: need at least one waypoint")
        for wp in self.waypoints:
            if len(wp) != 2 or not all(math.isfinite(c) for c in wp):
                raise ScenarioError(f"drone.waypoints: bad waypoint {wp!r}")
        if not (math.isfinite(self.altitude) and self.altitude > 0):
            raise ScenarioError(f"drone.altitude: must be > 0, got {self.altitude!r}")
        if not (math.isfinite(self.speed) and 0 < self.speed <= MAX_DRONE_SPEED):
            raise ScenarioError(
                f"drone.speed: must be in (0, {MAX_DRONE_SPEED}] m/s, got {self.speed!r}"
            )
        if not (math.isfinite(self.accel) and self.accel > 0):
            raise ScenarioError(f"drone.accel: must be > 0, got {self.accel!r}")
        if self.yaw_mode not in ("fixed", "path"):
            raise ScenarioError(
                f"drone.yaw_mode: must be 'fixed' or 'path', got {self.yaw_mode!r}"
            )
        for name in ("yaw_deg", "camera_pitch_deg", "camera_roll_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"drone.{name}: must be finite")


@dataclass(frozen=True)
class SwarmPathConfig:
    """Swarm drift: waypoints (m) traversed at constant speed (m/s)."""

    waypoints: tuple[tuple[float, float], ...]
    speed: float = 1.0

    def __post_init__(self) -> None:
        if len(self.waypoints) < 1:
            raise ScenarioError("swarm.waypoints: need at least one waypoint")
        for wp in self.waypoints:
            if len(wp) != 2 or not all(math.isfinite(c) for c in wp):
                raise ScenarioError(f"swarm.waypoints: bad waypoint {wp!r}")
        if not (math.isfinite(self.speed) and self.speed >= 0):
            raise ScenarioError(f"swarm.speed: must be >= 0, got {self.speed!r}")


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
            raise ScenarioError(f"shape.semi_major: must be > 0, got {self.semi_major!r}")
        if not (math.isfinite(self.semi_minor) and self.semi_minor > 0):
            raise ScenarioError(f"shape.semi_minor: must be > 0, got {self.semi_minor!r}")
        if self.semi_minor > self.semi_major:
            raise ScenarioError(
                f"shape.semi_minor: {self.semi_minor} exceeds semi_major {self.semi_major}"
            )
        if not (0 <= self.deform_amplitude <= 0.9):
            raise ScenarioError(
                f"shape.deform_amplitude: must be in [0, 0.9], got {self.deform_amplitude!r}"
            )
        if not (math.isfinite(self.deform_freq_hz) and self.deform_freq_hz >= 0):
            raise ScenarioError(
                f"shape.deform_freq_hz: must be >= 0, got {self.deform_freq_hz!r}"
            )
        for name in ("orientation_deg", "spin_deg_per_s"):
            if not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"shape.{name}: must be finite")
        if self.split_frame is not None and self.split_frame < 0:
            raise ScenarioError(
                f"shape.split_frame: must be >= 0, got {self.split_frame!r}"
            )
        if not (math.isfinite(self.split_speed) and self.split_speed >= 0):
            raise ScenarioError(
                f"shape.split_speed: must be >= 0, got {self.split_speed!r}"
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

    @property
    def intrinsics(self) -> Intrinsics:
        return Intrinsics.centered(self.focal_px, self.width, self.height)


@dataclass
class Scenario:
    """Generated data: observations plus exact ground truth.

    All sequences have config.duration entries. gt_track2d is the
    projection of gt_track_world through gt_poses, corner-origin px.
    """

    config: ScenarioConfig
    masks: list[SoftMask]
    gt_masks: list[BinaryMask]
    sensor_log: list[SensorRecord]
    gt_poses: list[CameraPose]
    gt_track2d: np.ndarray
    gt_track_world: np.ndarray


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
        self.cum = np.concatenate([[0.0], np.cumsum(self.seg_len)])
        self.length = float(self.cum[-1])

    def point_at(self, s: float) -> np.ndarray:
        s = min(max(s, 0.0), self.length)
        if self.length == 0.0:
            return self.pts[0].copy()
        x = np.interp(s, self.cum, self.pts[:, 0])
        y = np.interp(s, self.cum, self.pts[:, 1])
        return np.array([x, y])

    def direction_at(self, s: float) -> np.ndarray:
        if self.length == 0.0:
            return np.array([1.0, 0.0])
        s = min(max(s, 0.0), self.length)
        i = int(np.searchsorted(self.cum, s, side="right")) - 1
        i = min(max(i, 0), len(self.seg_len) - 1)
        d = self.pts[i + 1] - self.pts[i]
        return d / self.seg_len[i]


def _trapezoid_state(t: float, length: float, speed: float, accel: float) -> tuple[float, float]:
    """(distance, speed) at time t for a trapezoidal profile over length.

    Accelerates from rest, cruises, decelerates to rest at the path
    end, then holds (hover). Falls back to a triangular profile when
    the path is too short to reach cruise speed.
    """
    if length == 0.0 or t <= 0.0:
        return 0.0, 0.0
    d_ramp = speed**2 / (2.0 * accel)
    if 2.0 * d_ramp >= length:
        peak = math.sqrt(accel * length)
        t_ramp = peak / accel
        if t < t_ramp:
            return 0.5 * accel * t * t, accel * t
        if t < 2.0 * t_ramp:
            dt = 2.0 * t_ramp - t
            return length - 0.5 * accel * dt * dt, accel * dt
        return length, 0.0
    t_ramp = speed / accel
    t_cruise = (length - 2.0 * d_ramp) / speed
    if t < t_ramp:
        return 0.5 * accel * t * t, accel * t
    if t < t_ramp + t_cruise:
        return d_ramp + speed * (t - t_ramp), speed
    if t < 2.0 * t_ramp + t_cruise:
        dt = 2.0 * t_ramp + t_cruise - t
        return length - 0.5 * accel * dt * dt, accel * dt
    return length, 0.0


def _drone_state(
    cfg: DronePathConfig, path: _Polyline, t: float
) -> tuple[CameraPose, np.ndarray]:
    """Camera pose and world velocity (3,) of the drone at time t."""
    s, v = _trapezoid_state(t, path.length, cfg.speed, cfg.accel)
    pos = path.point_at(s)
    direction = path.direction_at(s)
    vel = np.array([v * direction[0], v * direction[1], 0.0])
    if cfg.yaw_mode == "path":
        yaw = math.degrees(math.atan2(direction[0], direction[1]))
    else:
        yaw = cfg.yaw_deg
    pose = CameraPose(
        x=float(pos[0]),
        y=float(pos[1]),
        z=cfg.altitude,
        pitch=cfg.camera_pitch_deg,
        yaw=yaw,
        roll=cfg.camera_roll_deg,
    )
    return pose, vel


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


def _render_binary(
    components: list[_EllipseState],
    pose: CameraPose,
    intr: Intrinsics,
    margin_px: float,
    frame: int,
) -> np.ndarray:
    """Exact binary interior mask (full image), via per-pixel ground test.

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
    uu, vv = np.meshgrid(
        np.arange(u0, u1 + 1, dtype=float), np.arange(v0, v1 + 1, dtype=float)
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
    full[v0 : v1 + 1, u0 : u1 + 1] = inside
    return full


def _blur_support(
    values: np.ndarray, sigma: float, gain: np.ndarray | None = None
) -> np.ndarray:
    """clip(gaussian_filter(values, sigma) [* gain], 0, 1) on the support only.

    values is non-negative. Only the bounding box of its nonzero pixels,
    grown by the kernel radius int(4 sigma + 0.5) and clamped to the
    image, is filtered; every pixel outside it is exactly 0. Inside the
    box each pixel sums the same taps in the same order as the
    full-frame filter: where the box stops short of the image edge its
    reflect boundary reads only the zero margin, so the result is
    byte-identical to the full-frame one for any finite gain >= 0.
    """
    if gain is not None and gain.shape != values.shape:
        raise ValueError(
            f"gain field {gain.shape} does not match mask {values.shape}"
        )
    out = np.zeros(values.shape, dtype=float)
    rows = np.flatnonzero(values.any(axis=1))
    if rows.size == 0:
        return out
    cols = np.flatnonzero(values.any(axis=0))
    radius = int(4.0 * sigma + 0.5) if sigma > 0 else 0
    box = (
        slice(max(rows[0] - radius, 0), rows[-1] + radius + 1),
        slice(max(cols[0] - radius, 0), cols[-1] + radius + 1),
    )
    block = values[box].astype(float)
    if sigma > 0:
        block = ndimage.gaussian_filter(block, sigma=sigma)
    if gain is not None:
        block *= gain[box]
    np.clip(block, 0.0, 1.0, out=out[box])
    return out


def soften(binary: np.ndarray, softness: float) -> np.ndarray:
    """Blur a binary interior into a soft mask; softness 0 passes through."""
    return _blur_support(binary, softness)


def render_frame(
    components: list[_EllipseState],
    pose: CameraPose,
    intr: Intrinsics,
    softness: float,
    frame: int = 0,
) -> SoftMask:
    """Render the soft observation mask for one frame."""
    if pose.z <= 0:
        raise ScenarioError(f"camera altitude must be > 0, got {pose.z}")
    margin = 3.0 * softness + 2.0
    binary = _render_binary(components, pose, intr, margin, frame)
    return SoftMask(soften(binary, softness))


# -- generation ----------------------------------------------------------


def _kinematics(config: ScenarioConfig):
    """Exact per-frame poses, velocities, components, and world centroids."""
    drone_path = _Polyline(config.drone.waypoints)
    swarm_path = _Polyline(config.swarm.waypoints)
    poses, vels, comps, centroids = [], [], [], []
    for frame in range(config.duration):
        t = frame / config.fps
        pose, vel = _drone_state(config.drone, drone_path, t)
        components = _swarm_components(config, frame, swarm_path)
        poses.append(pose)
        vels.append(vel)
        comps.append(components)
        centroids.append(_component_centroid(components))
    return poses, vels, comps, np.array(centroids)


def _sensor_log(
    config: ScenarioConfig,
    poses: list[CameraPose],
    vels: list[np.ndarray],
    rng: np.random.Generator,
) -> list[SensorRecord]:
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
    log = []
    for frame, (pose, vel) in enumerate(zip(poses, vels)):
        gps_noise = scale * config.noise.gps_sigma * rng.standard_normal(3)
        vel_noise = scale * config.noise.imu_vel_sigma * rng.standard_normal(3)
        gps = pose.position + gps_noise
        v = vel + bias + vel_noise
        log.append(
            SensorRecord(
                frame=frame,
                t=frame / config.fps,
                gps=(float(gps[0]), float(gps[1]), float(gps[2])),
                vel=(float(v[0]), float(v[1]), float(v[2])),
                pitch=pose.pitch,
                yaw=pose.yaw,
                roll=pose.roll,
            )
        )
    return log


def generate(config: ScenarioConfig) -> Scenario:
    """Generate a full scenario in memory.

    Suitable for short configs; cmd_simulate streams frames to disk
    instead (see write_scenario) to keep memory flat on long runs.
    """
    poses, vels, comps, world = _kinematics(config)
    rng = np.random.default_rng(config.seed)
    log = _sensor_log(config, poses, vels, rng)
    intr = config.intrinsics
    masks, gt_masks, track2d = [], [], []
    margin = 3.0 * config.mask_softness + 2.0
    for frame in range(config.duration):
        binary = _render_binary(comps[frame], poses[frame], intr, margin, frame)
        masks.append(SoftMask(soften(binary, config.mask_softness)))
        gt_masks.append(BinaryMask(binary))
        track2d.append(_project_centroid(world[frame], poses[frame], intr))
    return Scenario(
        config=config,
        masks=masks,
        gt_masks=gt_masks,
        sensor_log=log,
        gt_poses=poses,
        gt_track2d=np.array(track2d),
        gt_track_world=np.column_stack([world, np.zeros(len(world))]),
    )


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
    """
    # Imported lazily; io_formats also needs synth's config types.
    from . import io_formats

    out = Path(out_dir)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    (out / "gt_masks").mkdir(parents=True, exist_ok=True)
    poses, vels, comps, world = _kinematics(config)
    rng = np.random.default_rng(config.seed)
    log = _sensor_log(config, poses, vels, rng)
    intr = config.intrinsics
    margin = 3.0 * config.mask_softness + 2.0
    track2d = []
    for frame in range(config.duration):
        binary = _render_binary(comps[frame], poses[frame], intr, margin, frame)
        io_formats.write_mask(
            SoftMask(soften(binary, config.mask_softness)),
            out / "masks" / f"{frame:06d}.pgm",
        )
        io_formats.write_mask(BinaryMask(binary), out / "gt_masks" / f"{frame:06d}.pgm")
        track2d.append(_project_centroid(world[frame], poses[frame], intr))
    io_formats.write_sensor_log(log, out / "sensors.csv")
    io_formats.write_poses(poses, config.fps, out / "gt_poses.csv")
    track2d = np.array(track2d)
    io_formats.write_trajectory(
        frames=list(range(config.duration)),
        uv=track2d,
        world=world,
        lost=np.zeros(config.duration, dtype=bool),
        path=out / "gt_track.csv",
    )
    (out / "scenario.json").write_text(
        io_formats.scenario_config_to_json(config), encoding="utf-8"
    )


# -- degradation ---------------------------------------------------------


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
    """
    if gain_sigma < 0 or scale_px <= 0:
        raise ValueError("gain_sigma must be >= 0 and scale_px > 0")
    ch = max(2, int(math.ceil(height / scale_px)) + 1)
    cw = max(2, int(math.ceil(width / scale_px)) + 1)
    coarse = rng.standard_normal((ch, cw))
    coarse = ndimage.gaussian_filter(coarse, sigma=1.0)
    sd = float(coarse.std())
    if sd > 0:
        coarse /= sd
    field = ndimage.zoom(coarse, (height / ch, width / cw), order=1)
    field = field[:height, :width]
    if field.shape != (height, width):
        pad_h = height - field.shape[0]
        pad_w = width - field.shape[1]
        field = np.pad(field, ((0, pad_h), (0, pad_w)), mode="edge")
    return np.exp(gain_sigma * field)


def degrade_mask(
    mask: SoftMask,
    blur_sigma: float = 0.0,
    gain: np.ndarray | None = None,
) -> SoftMask:
    """Simulate poor segmentation: extra blur, then a multiplicative gain.

    gain is typically from make_gain_field; pass the same array for
    every frame of a sequence to model a persistent quality pattern.
    """
    if blur_sigma < 0:
        raise ValueError(f"blur_sigma must be >= 0, got {blur_sigma}")
    return SoftMask(_blur_support(mask.values, blur_sigma, gain))


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
    sensor_log: list[SensorRecord]
    gt_poses: list[CameraPose]


def generate_marker_run(
    seed: int,
    n_markers: int = 10,
    altitude: float = 40.0,
    speed: float = 3.2,
    path_length: float = 160.0,
    fps: float = 15.0,
    noise: NoiseConfig | None = None,
    imu_vel_bias_sigma: float = 0.14,
    focal_px: float = 1000.0,
    width: int = 960,
    height: int = 540,
) -> MarkerRun:
    """L-shaped survey pass over jittered markers along both legs.

    The marker layout and sensor noise derive from the seed. Sightings
    are exact pixel positions at closest approach (marker detection is
    assumed perfect; the run isolates pose error). The 90 degree turn
    makes marker pair directions span the plane, so no horizontal
    drift direction can hide from pairwise-distance comparison.
    """
    if n_markers < 2:
        raise ScenarioError(f"need at least 2 markers, got {n_markers}")
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
        noise=noise if noise is not None else NoiseConfig(),
        imu_vel_bias_sigma=imu_vel_bias_sigma,
        seed=seed,
    )
    drone_path = _Polyline(config.drone.waypoints)
    # Markers: jittered positions alternating sides of the flight line,
    # offset along the local path normal, inside the footprint.
    half_swath = 0.75 * (height / 2.0) / focal_px * altitude
    arcs = np.linspace(0.1 * path_length, 0.9 * path_length, n_markers)
    side = np.tile([-1.0, 1.0], (n_markers + 1) // 2)[:n_markers]
    rows = []
    for k in range(n_markers):
        s = float(arcs[k]) + float(rng.uniform(-2.0, 2.0))
        base = drone_path.point_at(s)
        d = drone_path.direction_at(s)
        normal = np.array([-d[1], d[0]])
        offset = side[k] * float(rng.uniform(0.6, 1.0)) * half_swath
        rows.append([base[0] + offset * normal[0], base[1] + offset * normal[1], 0.0])
    markers = np.asarray(rows)
    poses, vels = [], []
    for frame in range(duration):
        pose, vel = _drone_state(config.drone, drone_path, frame / fps)
        poses.append(pose)
        vels.append(vel)
    log = _sensor_log(config, poses, vels, rng)
    intr = config.intrinsics
    best: list[tuple[float, int, float, float] | None] = [None] * n_markers
    for frame, pose in enumerate(poses):
        uv = project_points(markers, pose, intr)
        for m in range(n_markers):
            u, v = uv[m, 0] + intr.cx, uv[m, 1] + intr.cy
            if not (0 <= u <= width - 1 and 0 <= v <= height - 1):
                continue
            r = math.hypot(uv[m, 0], uv[m, 1])
            if best[m] is None or r < best[m][0]:
                best[m] = (r, frame, u, v)
    sightings = []
    for m in range(n_markers):
        if best[m] is None:
            raise ScenarioError(f"marker {m} never enters the frame")
        sightings.append((m, best[m][1], best[m][2], best[m][3]))
    return MarkerRun(
        config=config,
        markers=markers,
        sightings=sightings,
        sensor_log=log,
        gt_poses=poses,
    )

"""GPS/IMU fusion of the drone sensor log into per-frame camera poses.

Each sensor record carries a GPS position fix, an IMU velocity and the
gimbal attitude. The log is read once into arrays and linearly
interpolated onto the frame timestamps, then a constant-velocity Kalman
filter over the 6-state [position; velocity] smooths position and
velocity. Attitude angles are not filtered (the gimbal already
stabilizes them); an optional exponential moving average is available
for noisy logs.

A record observes the full state directly (H = I6), with measurement
noise diag(gps_sigma^2 I3, imu_vel_sigma^2 I3) and discrete
white-acceleration process noise of strength process_accel_sigma.

Per-axis decomposition: with H = I6 and F, Q, R and the starting
covariance all made of one 2x2 [position; velocity] block repeated on
the x, y and z axes, the 6-state filter is three copies of one 2-state
filter. Its covariance and gain sequence depends only on the noise
model and dt, never on the data. ``fuse_log`` therefore runs a single
2x2 covariance recursion (Joseph-form update, then symmetrization)
shared by all three axes, and each axis's [position; velocity] mean is
updated with that step's 2x2 gain. Every step checks that the
innovation covariance S = P + R and the posterior covariance are
positive definite (else ``FusionError``), and the mean of every step
is checked finite.

``kalman_predict``, ``kalman_update`` and ``initial_state`` on
``FusionState`` are the full 6-state reference: one predict/update step
at a time with Cholesky-validated covariances. The tests check
``fuse_log`` against a step-by-step run of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraPose


class FusionError(ValueError):
    """Sensor log unusable: empty, unsorted, or numerically singular."""


@dataclass(frozen=True)
class NoiseConfig:
    """Standard deviations of the sensor and process noise models.

    gps_sigma: m, per GPS position axis.
    imu_vel_sigma: m/s, per IMU velocity axis.
    process_accel_sigma: m/s^2, white-acceleration driving noise.

    Each sigma must be positive and its square (the variance the filter
    uses) finite and nonzero in float64.
    """

    gps_sigma: float = 0.5
    imu_vel_sigma: float = 0.2
    process_accel_sigma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("gps_sigma", "imu_vel_sigma", "process_accel_sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v!r}")
            var = v * v
            if not (math.isfinite(var) and var > 0):
                raise ValueError(
                    f"{name} squared must be finite and > 0 in float64, "
                    f"got {v!r} (squared: {var!r})"
                )


@dataclass(frozen=True)
class SensorRecord:
    """One row of the drone log: GPS fix, IMU velocity, gimbal attitude."""

    frame: int
    t: float
    gps: tuple[float, float, float]
    vel: tuple[float, float, float]
    pitch: float
    yaw: float
    roll: float

    def __post_init__(self) -> None:
        vals = (self.t, *self.gps, *self.vel, self.pitch, self.yaw, self.roll)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"sensor record has non-finite fields: {self!r}")


@dataclass
class FusionState:
    """Kalman state: mean (6,) = [x y z vx vy vz], covariance (6, 6).

    The covariance is validated symmetric positive definite on
    construction, so each ``kalman_predict``/``kalman_update`` step of
    the 6-state reference re-checks the invariant. ``fuse_log`` does not
    build these; it runs the equivalent per-axis 2x2 recursion with its
    own per-step checks (see the module docstring).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        self.mean = np.asarray(self.mean, dtype=float).reshape(6)
        self.cov = np.asarray(self.cov, dtype=float).reshape(6, 6)
        if not np.all(np.isfinite(self.mean)) or not np.all(np.isfinite(self.cov)):
            raise FusionError("fusion state has non-finite entries")
        asym = np.max(np.abs(self.cov - self.cov.T))
        if asym > 1e-9:
            raise FusionError(f"covariance asymmetry {asym:.3e} exceeds 1e-9")
        try:
            np.linalg.cholesky(self.cov)
        except np.linalg.LinAlgError:
            raise FusionError("covariance is not positive definite") from None


def _process_noise(dt: float, accel_sigma: float) -> np.ndarray:
    """Discrete white-acceleration covariance for one [pos; vel] axis pair."""
    q = np.zeros((6, 6))
    s2 = accel_sigma**2
    q_pp = s2 * dt**4 / 4.0
    q_pv = s2 * dt**3 / 2.0
    q_vv = s2 * dt**2
    for axis in range(3):
        q[axis, axis] = q_pp
        q[axis, axis + 3] = q_pv
        q[axis + 3, axis] = q_pv
        q[axis + 3, axis + 3] = q_vv
    return q


def kalman_predict(state: FusionState, dt: float, noise: NoiseConfig) -> FusionState:
    """Advance the constant-velocity model by dt seconds."""
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive, got {dt!r}")
    f = np.eye(6)
    f[0, 3] = f[1, 4] = f[2, 5] = dt
    mean = f @ state.mean
    cov = f @ state.cov @ f.T + _process_noise(dt, noise.process_accel_sigma)
    cov = 0.5 * (cov + cov.T)
    return FusionState(mean, cov)


def _measurement_cov(noise: NoiseConfig) -> np.ndarray:
    r = np.zeros((6, 6))
    r[:3, :3] = noise.gps_sigma**2 * np.eye(3)
    r[3:, 3:] = noise.imu_vel_sigma**2 * np.eye(3)
    return r


def kalman_update(
    state: FusionState, record: SensorRecord, noise: NoiseConfig
) -> FusionState:
    """Condition the state on one sensor record (position + velocity)."""
    z = np.array([*record.gps, *record.vel], dtype=float)
    r = _measurement_cov(noise)
    # H = I6, so the innovation covariance is just P + R.
    s = state.cov + r
    try:
        s_chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise FusionError("singular innovation covariance") from None
    # Gain K = P S^-1 via the Cholesky factor.
    k = np.linalg.solve(s_chol.T, np.linalg.solve(s_chol, state.cov.T)).T
    mean = state.mean + k @ (z - state.mean)
    ident = np.eye(6)
    # Joseph form keeps the covariance PSD under roundoff.
    a = ident - k
    cov = a @ state.cov @ a.T + k @ r @ k.T
    cov = 0.5 * (cov + cov.T)
    return FusionState(mean, cov)


def initial_state(record: SensorRecord, noise: NoiseConfig) -> FusionState:
    """State anchored at the first record, with measurement-level spread."""
    mean = np.array([*record.gps, *record.vel], dtype=float)
    return FusionState(mean, _measurement_cov(noise))


def _unwrap_deg(values: np.ndarray) -> np.ndarray:
    """Unwrap degree angles along axis 0."""
    return np.degrees(np.unwrap(np.radians(values), axis=0))


def _frame_arrays(
    log: list[SensorRecord], fps: float, n_frames: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the log once and interpolate it onto frame timestamps k/fps.

    Returns ``(frame_t (n,), z (n, 6) = [gps; vel], angles (n, 3) =
    [pitch, yaw, roll])``. Frames run from the first log timestamp up to
    the last (or ``n_frames`` if given, which must be >= 1 and stay
    within the log's time span). Attitude angles are unwrapped before
    interpolation so a 359 -> 1 deg yaw step does not sweep through 180.
    """
    if not log:
        raise FusionError("sensor log is empty")
    # Columns: t, gps (3), vel (3), pitch, yaw, roll.
    cols = np.array(
        [(r.t, *r.gps, *r.vel, r.pitch, r.yaw, r.roll) for r in log], dtype=float
    )
    t = cols[:, 0]
    bad = np.flatnonzero(np.diff(t) <= 0)
    if bad.size:
        a, b = log[bad[0]], log[bad[0] + 1]
        raise FusionError(
            f"sensor log timestamps must strictly increase "
            f"(t={a.t} then t={b.t})"
        )
    if not (math.isfinite(fps) and fps > 0):
        raise FusionError(f"fps must be positive, got {fps!r}")
    if n_frames is None:
        n_frames = int(math.floor((t[-1] - t[0]) * fps + 1e-9)) + 1
    elif n_frames < 1:
        raise FusionError(f"frame count must be >= 1, got {n_frames}")
    frame_t = t[0] + np.arange(n_frames) / fps
    if frame_t[-1] > t[-1] + 1e-9:
        raise FusionError(
            f"{n_frames} frames at {fps} fps need {frame_t[-1]:.3f}s of log "
            f"but it ends at {t[-1]:.3f}s"
        )
    cols[:, 7:] = _unwrap_deg(cols[:, 7:])
    interp = np.stack(
        [np.interp(frame_t, t, cols[:, j]) for j in range(1, cols.shape[1])], axis=1
    )
    return frame_t, interp[:, :6], interp[:, 6:]


def resample_log_to_frames(
    log: list[SensorRecord], fps: float, n_frames: int | None = None
) -> list[SensorRecord]:
    """Linearly interpolate the log onto frame timestamps k/fps.

    Frames run from the first log timestamp up to the last (or
    ``n_frames`` if given, which must be >= 1 and stay within the log's
    time span). Attitude angles are unwrapped before interpolation so a
    359 -> 1 deg yaw step does not sweep through 180.
    """
    frame_t, z, angles = _frame_arrays(log, fps, n_frames)
    return [
        SensorRecord(
            frame=i, t=t, gps=tuple(row[:3]), vel=tuple(row[3:]),
            pitch=pitch, yaw=yaw, roll=roll,
        )
        for i, (t, row, (pitch, yaw, roll)) in enumerate(
            zip(frame_t.tolist(), z.tolist(), angles.tolist())
        )
    ]


def _smooth_angles(angles: np.ndarray, alpha: float) -> np.ndarray:
    """EMA over unwrapped attitude angles (n, 3); alpha=1 is pass-through."""
    if not (0 < alpha <= 1):
        raise FusionError(f"orientation alpha must be in (0, 1], got {alpha!r}")
    raw = _unwrap_deg(angles)
    if alpha == 1.0:
        return raw
    out = np.empty_like(raw)
    out[0] = raw[0]
    for i in range(1, len(raw)):
        out[i] = alpha * raw[i] + (1 - alpha) * out[i - 1]
    return out


def _axis_gains(
    n: int, dt: float, noise: NoiseConfig
) -> list[tuple[float, float, float, float]]:
    """Gains (k00, k01, k10, k11) of the 2-state [pos; vel] filter of one axis.

    One gain per frame after the first (the filter starts at the first
    frame with covariance R). Each step predicts with F = [[1, dt],
    [0, 1]] and white-acceleration Q, then updates with H = I2 and
    R = diag(gps_sigma^2, imu_vel_sigma^2) in Joseph form, as the
    6-state reference does on each axis block.
    """
    rg = noise.gps_sigma**2
    rv = noise.imu_vel_sigma**2
    s2 = noise.process_accel_sigma**2
    q00, q01, q11 = s2 * dt**4 / 4.0, s2 * dt**3 / 2.0, s2 * dt**2
    # Symmetric covariance [[p00, p01], [p01, p11]], starting at R.
    p00, p01, p11 = rg, 0.0, rv
    gains = []
    for _ in range(1, n):
        # Predict: F P F' + Q.
        p00, p01, p11 = (
            p00 + dt * (p01 + p01) + dt * dt * p11 + q00,
            p01 + dt * p11 + q01,
            p11 + q11,
        )
        # Innovation covariance S = P + R = L D L' with L = [[1, 0],
        # [l, 1]] and D = diag(s00, c): positive definite iff s00 > 0 and
        # c > 0.
        s00 = p00 + rg
        l = p01 / s00
        c = p11 + rv - l * p01
        if not (s00 > 0 and c > 0 and math.isfinite(s00 + c)):
            raise FusionError("singular innovation covariance")
        # K = P S^-1 = (S^-1 P)' by substitution through L and D, which
        # never multiplies two variances, so extreme sigmas stay in range.
        k01, k11 = (p01 - l * p00) / c, (p11 - l * p01) / c
        k00, k10 = p00 / s00 - l * k01, p01 / s00 - l * k11
        # Joseph form (I - K) P (I - K)' + K R K', then symmetrized.
        a00, a01, a10, a11 = 1.0 - k00, -k01, -k10, 1.0 - k11
        b00, b01 = a00 * p00 + a01 * p01, a00 * p01 + a01 * p11
        b10, b11 = a10 * p00 + a11 * p01, a10 * p01 + a11 * p11
        c01 = b00 * a10 + b01 * a11 + k00 * k10 * rg + k01 * k11 * rv
        c10 = b10 * a00 + b11 * a01 + k10 * k00 * rg + k11 * k01 * rv
        p00 = b00 * a00 + b01 * a01 + k00 * k00 * rg + k01 * k01 * rv
        p11 = b10 * a10 + b11 * a11 + k10 * k10 * rg + k11 * k11 * rv
        p01 = 0.5 * (c01 + c10)
        c = p11 - p01 * (p01 / p00)
        if not (p00 > 0 and c > 0 and math.isfinite(p00 + c)):
            raise FusionError("covariance is not positive definite")
        gains.append((k00, k01, k10, k11))
    return gains


def fuse_log(
    log: list[SensorRecord],
    noise: NoiseConfig,
    fps: float,
    n_frames: int | None = None,
    orientation_alpha: float = 1.0,
) -> list[CameraPose]:
    """Kalman-fused camera pose per frame.

    The filter is initialized from the first frame-aligned record and
    run predict/update at frame cadence. Returns one CameraPose per
    frame; position from the filter, attitude from the (optionally
    smoothed) log. The three axes share one 2x2 covariance and gain
    sequence (see the module docstring).
    """
    _, z, angles = _frame_arrays(log, fps, n_frames)
    angles = _smooth_angles(angles, orientation_alpha)
    dt = 1.0 / fps
    gains = _axis_gains(len(z), dt, noise)
    # Mean recursion of each axis with the shared gains: predict
    # [x; v] -> [x + dt v; v], then add K times the innovation.
    columns = z.T.tolist()
    pos, vel = [], []
    for axis in range(3):
        zx, zv = columns[axis], columns[axis + 3]
        x, v = zx[0], zv[0]
        xs, vs = [x], [v]
        for (k00, k01, k10, k11), mx, mv in zip(gains, zx[1:], zv[1:]):
            x = x + dt * v
            ix, iv = mx - x, mv - v
            x, v = x + (k00 * ix + k01 * iv), v + (k10 * ix + k11 * iv)
            xs.append(x)
            vs.append(v)
        pos.append(xs)
        vel.append(vs)
    pos = np.array(pos).T
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(vel))):
        raise FusionError("fusion state has non-finite entries")
    return _poses(pos, angles)


def gps_only_poses(
    log: list[SensorRecord], fps: float, n_frames: int | None = None
) -> list[CameraPose]:
    """Raw GPS positions per frame, attitude passed through. Baseline."""
    _, z, angles = _frame_arrays(log, fps, n_frames)
    return _poses(z[:, :3], _smooth_angles(angles, 1.0))


def dead_reckoning_poses(
    log: list[SensorRecord], fps: float, n_frames: int | None = None
) -> list[CameraPose]:
    """IMU-only baseline: first GPS fix plus integrated velocity."""
    _, z, angles = _frame_arrays(log, fps, n_frames)
    dt = 1.0 / fps
    vel = z[:, 3:]
    # Trapezoidal velocity integration between consecutive frames,
    # accumulated in frame order from the first fix.
    steps = 0.5 * (vel[:-1] + vel[1:]) * dt
    pos = np.cumsum(np.vstack([z[:1, :3], steps]), axis=0)
    return _poses(pos, _smooth_angles(angles, 1.0))


def _poses(positions: np.ndarray, angles: np.ndarray) -> list[CameraPose]:
    """CameraPose per row of positions (n, 3) and [pitch, yaw, roll] (n, 3)."""
    return [
        CameraPose(x, y, z, pitch, yaw, roll)
        for x, y, z, pitch, yaw, roll in np.hstack([positions, angles]).tolist()
    ]

"""GPS/IMU fusion of the drone sensor log into per-frame camera poses.

Each sensor record carries a GPS position fix, an IMU velocity and the
gimbal attitude. A log is a ``SensorLog``, one array per column; its
columns are linearly interpolated onto the frame timestamps, then a
constant-velocity Kalman filter over the 6-state [position; velocity]
smooths position and velocity. Attitude angles are not filtered (the
gimbal already stabilizes them); an optional exponential moving
average is available for noisy logs.

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
is checked finite. The tests check ``fuse_log`` against a step-by-step
run of the full 6-state filter kept there as the reference. The fused
poses and both baselines come back as one ``geometry.Poses`` array.

Gain schedule: once a step leaves the covariance exactly as it found
it, every later gain is that step's; once it leaves it exactly as it
was one step earlier, the recursion is in a 2-cycle and every later
gain repeats the last two in turn. Either way the rest of the schedule
is a pure function of the gains so far. The gains up to that point are
kept for later calls of any length with the same (dt, noise), so a
batch of logs that share them pays for the recursion once per process.
One schedule is kept, the last one that settled, and it is only as long
as its recursion took to settle (642 gains with the bundled noise at
15 fps, 134 in a 2-cycle at 3 fps, however many frames are fused). A
recursion that has not settled within a call's frames, or that fails,
keeps nothing.

Frame arrays: a ``SensorLog`` keeps the frame-aligned arrays of its
last (fps, n_frames), so ``fuse_log`` and both baselines on one log
interpolate and unwrap it once. A log's columns are read-only views
whose bases are read-only, so the log cannot change under what it
kept, and the arrays are stored only after every check of the call has
passed and are handed out read-only. Kept on the log, they are freed
with it. When the frame times equal the log's first n_frames
timestamps element for element (a log of one record per frame stamped
t0 + k/fps, as every simulated log and its CSV round trip is), the
frame GPS and velocity are slices of the log's columns: ``np.interp``
at x == xp[j] returns fp[j], so interpolating would change no bit. An
unwrap whose radian steps all stay below pi in magnitude corrects
nothing, so it only turns -0.0 into +0.0 after the first row and skips
``np.unwrap``; a step of pi or more still goes through ``np.unwrap``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Poses


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


# The columns of a SensorLog, in constructor order.
_COLUMNS = ("frame", "t", "gps", "vel", "att")


class SensorLog:
    """The drone log as read-only arrays, one row per record.

    ``frame`` (n,) ints, ``t`` (n,) s, ``gps`` (n, 3) m, ``vel`` (n, 3)
    m/s and ``att`` (n, 3) [pitch, yaw, roll] deg; every value is
    finite; ``==`` compares element-wise. Each column is a view of a
    read-only base, so it cannot be made writeable again. The log also
    keeps its last frame-aligned arrays (see ``_frame_arrays``), which
    ``==`` ignores.
    """

    __slots__ = (*_COLUMNS, "_frames")

    def __init__(self, frame, t, gps, vel, att) -> None:
        frame = np.array(frame, dtype=np.int64)
        t = np.array(t, dtype=float)
        gps, vel, att = (np.array(a, dtype=float) for a in (gps, vel, att))
        n = len(frame)
        if frame.shape != (n,) or t.shape != (n,) or any(
            a.shape != (n, 3) for a in (gps, vel, att)
        ):
            raise ValueError(
                f"sensor log arrays must be frame (n,), t (n,) and gps, vel, "
                f"att (n, 3); got {frame.shape}, {t.shape}, {gps.shape}, "
                f"{vel.shape}, {att.shape}"
            )
        arrays = (frame, t, gps, vel, att)
        for a in arrays:
            a.flags.writeable = False
        self.frame, self.t, self.gps, self.vel, self.att = (a.view() for a in arrays)
        self._frames = None
        if not all(np.isfinite(a).all() for a in (t, gps, vel, att)):
            bad = ~(
                np.isfinite(t)
                & np.isfinite(gps).all(axis=1)
                & np.isfinite(vel).all(axis=1)
                & np.isfinite(att).all(axis=1)
            )
            # Names the first bad row (0-based) and its fields.
            i = int(np.argmax(bad))
            pitch, yaw, roll = att[i].tolist()
            raise ValueError(
                f"sensor log row {i} has non-finite fields: frame={int(frame[i])!r}, "
                f"t={float(t[i])!r}, gps={tuple(gps[i].tolist())!r}, "
                f"vel={tuple(vel[i].tolist())!r}, pitch={pitch!r}, yaw={yaw!r}, roll={roll!r}"
            )

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other) -> bool:
        if isinstance(other, SensorLog):
            return all(
                np.array_equal(getattr(self, n), getattr(other, n)) for n in _COLUMNS
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"SensorLog(<{len(self)} records>)"


def _unwrap_deg(values: np.ndarray) -> np.ndarray:
    """Unwrap degree angles along axis 0, bit for bit as
    ``np.degrees(np.unwrap(np.radians(values), axis=0))``.

    When no radian step reaches pi, ``np.unwrap`` corrects nothing: it
    adds a cumulative correction of +0.0 to rows 1.., which only turns
    -0.0 into +0.0. That is all this does then; otherwise it calls
    ``np.unwrap``.
    """
    r = np.radians(values)
    if not (np.abs(np.diff(r, axis=0)) < math.pi).all():
        return np.degrees(np.unwrap(r, axis=0))
    r[1:] += 0.0
    return np.degrees(r, out=r)


def _frame_arrays(
    log: SensorLog, fps: float, n_frames: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interpolate the log's columns onto frame timestamps k/fps.

    Returns read-only ``(gps, vel, angles)``, each (n, 3); angles are
    [pitch, yaw, roll]. Frames run from the first log timestamp up to
    the last (or ``n_frames`` if given, which must be >= 1 and stay
    within the log's time span). Attitude angles are unwrapped before
    interpolation so a 359 -> 1 deg yaw step does not sweep through
    180, and the frame-rate angles are unwrapped again (frames sparser
    than the log can still step past 180 deg). At frame times equal to
    the log's own timestamps, ``gps`` and ``vel`` slice its columns.

    The log keeps the arrays of its last ``(fps, n_frames)``, stored
    only once every check has passed, and a call with that pair returns
    them (see the module docstring).
    """
    key = (fps, n_frames)
    kept = log._frames
    if kept is not None and kept[0] == key:
        return kept[1]
    if not log:
        raise FusionError("sensor log is empty")
    t = log.t
    bad = np.flatnonzero(np.diff(t) <= 0)
    if bad.size:
        a, b = t[bad[0] : bad[0] + 2].tolist()
        raise FusionError(
            f"sensor log timestamps must strictly increase (t={a} then t={b})"
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
    att = _unwrap_deg(log.att)
    if n_frames <= len(t) and np.array_equal(frame_t, t[:n_frames]):
        # np.interp at x == xp[j] returns fp[j]: the log's own rows.
        gps, vel, att = log.gps[:n_frames], log.vel[:n_frames], att[:n_frames]
    else:
        columns = (*log.gps.T, *log.vel.T, *att.T)
        interp = np.stack([np.interp(frame_t, t, c) for c in columns], axis=1)
        interp.flags.writeable = False
        gps, vel, att = np.hsplit(interp, 3)
    angles = _unwrap_deg(att)
    angles.flags.writeable = False
    # Each a view of a read-only base, which cannot be made writeable again.
    arrays = (gps, vel, angles.view())
    log._frames = (key, arrays)
    return arrays


# The attitude EMA factor's default: 1 passes the logged attitude through.
ORIENTATION_ALPHA = 1.0


def check_orientation_alpha(alpha: float, name: str = "orientation_alpha") -> None:
    """Raise FusionError unless the attitude EMA factor is in (0, 1].

    ``name`` leads the message: the config key or the CLI flag.
    """
    if not (0 < alpha <= 1):
        raise FusionError(f"{name}: must be in (0, 1], got {alpha!r}")


def _smooth_angles(angles: np.ndarray, alpha: float) -> np.ndarray:
    """EMA over unwrapped attitude angles (n, 3); alpha=1 is pass-through."""
    check_orientation_alpha(alpha)
    if alpha == 1.0:
        return angles
    # Per column on Python floats: the float64 products and sum of
    # alpha * angles[i] + (1 - alpha) * out[i - 1], in that order.
    a, b = float(alpha), float(1 - alpha)
    out = []
    for column in angles.T.tolist():
        y = column[0]
        ys = [y]
        for x in column[1:]:
            y = a * x + b * y
            ys.append(y)
        out.append(ys)
    return np.array(out).T


# The last settled gain schedule: ((dt, noise), its gains up to the
# point where the covariance repeats, the period of that repetition).
# See the module docstring.
_schedule = None


def _padded(gains: list, period: int, n: int) -> list:
    """The first n - 1 gains of a schedule whose last ``period`` gains
    repeat forever."""
    extra = n - 1 - len(gains)
    if extra <= 0:
        return gains[: n - 1]
    return gains + (gains[-period:] * (extra // period + 1))[:extra]


def _axis_gains(
    n: int, dt: float, noise: NoiseConfig
) -> list[tuple[float, float, float, float]]:
    """Gains (k00, k01, k10, k11) of the 2-state [pos; vel] filter of one axis.

    One gain per frame after the first (the filter starts at the first
    frame with covariance R). Each step predicts with F = [[1, dt],
    [0, 1]] and white-acceleration Q, then updates with H = I2 and
    R = diag(gps_sigma^2, imu_vel_sigma^2) in Joseph form, as the
    6-state reference does on each axis block. The gain depends only
    on the covariance, so once a step leaves (p00, p01, p11) exactly as
    it found it, every later gain is the last one, and once it leaves
    them as they were one step earlier, the last two gains alternate;
    those gains are kept as ``_schedule`` for the next call with the
    same (dt, noise).
    """
    global _schedule
    key = (dt, noise)
    kept = _schedule
    if kept is not None and kept[0] == key:
        return _padded(kept[1], kept[2], n)
    rg = noise.gps_sigma**2
    rv = noise.imu_vel_sigma**2
    s2 = noise.process_accel_sigma**2
    q00, q01, q11 = s2 * dt**4 / 4.0, s2 * dt**3 / 2.0, s2 * dt**2
    # Symmetric covariance [[p00, p01], [p01, p11]], starting at R.
    p00, p01, p11 = rg, 0.0, rv
    gains = []
    earlier = None  # the covariance before the previous step
    for _ in range(1, n):
        before = (p00, p01, p11)
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
        after = (p00, p01, p11)
        if after == before or after == earlier:
            period = 1 if after == before else 2
            _schedule = (key, gains, period)
            return _padded(gains, period, n)
        earlier = before
    return gains


def fuse_log(
    log: SensorLog,
    noise: NoiseConfig,
    fps: float,
    n_frames: int | None = None,
    orientation_alpha: float = ORIENTATION_ALPHA,
) -> Poses:
    """Kalman-fused camera pose per frame.

    The filter is initialized from the first frame-aligned record and
    run predict/update at frame cadence. Returns one pose per frame;
    position from the filter, attitude from the (optionally
    smoothed) log. The three axes share one 2x2 covariance and gain
    sequence (see the module docstring).
    """
    gps, vel, angles = _frame_arrays(log, fps, n_frames)
    angles = _smooth_angles(angles, orientation_alpha)
    dt = 1.0 / fps
    gains = _axis_gains(len(gps), dt, noise)
    # Mean recursion of each axis with the shared gains: predict
    # [x; v] -> [x + dt v; v], then add K times the innovation.
    pos, last_vel = [], []
    for zx, zv in zip(gps.T.tolist(), vel.T.tolist()):
        x, v = zx[0], zv[0]
        xs = [x]
        for (k00, k01, k10, k11), mx, mv in zip(gains, zx[1:], zv[1:]):
            x = x + dt * v
            ix, iv = mx - x, mv - v
            x, v = x + (k00 * ix + k01 * iv), v + (k10 * ix + k11 * iv)
            xs.append(x)
        pos.append(xs)
        last_vel.append(v)
    pos = np.array(pos).T
    # With dt > 0 a non-finite velocity makes the next position
    # non-finite, so the positions and the last velocity cover them all.
    if not (np.all(np.isfinite(pos)) and all(map(math.isfinite, last_vel))):
        raise FusionError("fusion state has non-finite entries")
    return _poses(pos, angles)


def gps_only_poses(
    log: SensorLog, fps: float, n_frames: int | None = None
) -> Poses:
    """Raw GPS positions per frame, attitude passed through. Baseline."""
    gps, _, angles = _frame_arrays(log, fps, n_frames)
    return _poses(gps, angles)


def dead_reckoning_poses(
    log: SensorLog, fps: float, n_frames: int | None = None
) -> Poses:
    """IMU-only baseline: first GPS fix plus integrated velocity."""
    gps, vel, angles = _frame_arrays(log, fps, n_frames)
    dt = 1.0 / fps
    # Trapezoidal velocity integration between consecutive frames,
    # accumulated in frame order from the first fix.
    steps = 0.5 * (vel[:-1] + vel[1:]) * dt
    pos = np.cumsum(np.vstack([gps[:1], steps]), axis=0)
    return _poses(pos, angles)


def _poses(positions: np.ndarray, angles: np.ndarray) -> Poses:
    """Poses of positions (n, 3) and [pitch, yaw, roll] (n, 3)."""
    return Poses(np.hstack([positions, angles]))

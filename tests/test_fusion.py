"""Kalman predict/update algebra, log fusion, and the pose baselines."""
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest

from swarmtrack import fusion
from swarmtrack.fusion import (
    FusionError,
    NoiseConfig,
    SensorLog,
    _axis_gains,
    _frame_arrays,
    dead_reckoning_poses,
    fuse_log,
    gps_only_poses,
)
from swarmtrack.synth import generate_marker_run

NOISE = NoiseConfig()


# -- the full 6-state Kalman filter, one step at a time ----------------------
#
# The reference fuse_log is held to (TestFuseLogOracle): every record
# observes the whole [position; velocity] state (H = I6), and each step
# predicts and updates with 6x6 matrices and Cholesky-validated
# covariances.


@dataclass
class FusionState:
    """Kalman state: mean (6,) = [x y z vx vy vz], covariance (6, 6).

    The covariance is validated symmetric positive definite on
    construction, so each ``kalman_predict``/``kalman_update`` step
    re-checks the invariant.
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


# One row of a sensor log, as the reference filter consumes it.
Record = namedtuple("Record", "frame t gps vel pitch yaw roll")


def kalman_update(state: FusionState, record: Record, noise: NoiseConfig) -> FusionState:
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


def initial_state(record: Record, noise: NoiseConfig) -> FusionState:
    """State anchored at the first record, with measurement-level spread."""
    mean = np.array([*record.gps, *record.vel], dtype=float)
    return FusionState(mean, _measurement_cov(noise))


def unwrap_deg(values):
    """Degree angles unwrapped along axis 0."""
    return np.degrees(np.unwrap(np.radians(np.asarray(values)), axis=0))


def frame_columns(log, fps, n_frames=None):
    """Frame times k/fps and the log's columns interpolated onto them:
    (n, 9) = [gps; vel; attitude], the attitude unwrapped first."""
    t = log.t
    if n_frames is None:
        n_frames = int(math.floor((t[-1] - t[0]) * fps + 1e-9)) + 1
    frame_t = t[0] + np.arange(n_frames) / fps
    columns = (*log.gps.T, *log.vel.T, *unwrap_deg(log.att).T)
    return frame_t, np.stack([np.interp(frame_t, t, c) for c in columns], axis=1)


def resample_log_to_frames(log, fps, n_frames=None):
    """The log interpolated onto frame timestamps k/fps, one record each."""
    frame_t, cols = frame_columns(log, fps, n_frames)
    return [
        Record(i, t, tuple(row[:3]), tuple(row[3:6]), *row[6:])
        for i, (t, row) in enumerate(zip(frame_t.tolist(), cols.tolist()))
    ]


def record(frame, t, gps, vel, pitch=0.0, yaw=0.0, roll=0.0):
    return Record(frame, t, tuple(gps), tuple(vel), pitch, yaw, roll)


def log_of(records):
    """The SensorLog of a non-empty list of Record."""
    return SensorLog(
        [r.frame for r in records], [r.t for r in records], [r.gps for r in records],
        [r.vel for r in records], [(r.pitch, r.yaw, r.roll) for r in records],
    )


def fresh_state(pos=(0, 0, 0), vel=(0, 0, 0), var=1.0):
    mean = np.array([*pos, *vel], dtype=float)
    return FusionState(mean, np.eye(6) * var)


class TestPredict:
    def test_zero_velocity_holds_position_and_inflates_covariance(self):
        state = fresh_state(pos=(2.0, -1.0, 50.0))
        out = kalman_predict(state, 1.0, NOISE)
        np.testing.assert_allclose(out.mean[:3], (2.0, -1.0, 50.0), atol=1e-12)
        assert np.trace(out.cov) > np.trace(state.cov)

    def test_constant_velocity_kinematics(self):
        state = fresh_state(vel=(1.0, 0.0, 0.0))
        out = kalman_predict(state, 2.0, NOISE)
        np.testing.assert_allclose(out.mean[:3], (2.0, 0.0, 0.0), atol=1e-12)
        np.testing.assert_allclose(out.mean[3:], (1.0, 0.0, 0.0), atol=1e-12)

    def test_matches_hand_rolled_scalar_recursion(self):
        """The x axis block must follow the textbook 2-state filter.

        The oracle below reimplements predict/update for a single
        (position, velocity) pair with plain floats, including the
        white-acceleration process noise and a 2-vector measurement.
        """
        dt = 0.25
        q = NOISE.process_accel_sigma**2
        # scalar oracle state
        m = [1.5, -0.3]
        P = [[2.0, 0.1], [0.1, 0.5]]
        # filter state: x components as above, other axes arbitrary
        cov = np.eye(6) * 3.0
        cov[0, 0], cov[0, 3], cov[3, 0], cov[3, 3] = 2.0, 0.1, 0.1, 0.5
        state = FusionState(np.array([1.5, 0, 0, -0.3, 0, 0]), cov)

        rng = np.random.default_rng(9)
        for step in range(6):
            state = kalman_predict(state, dt, NOISE)
            # oracle predict
            m = [m[0] + dt * m[1], m[1]]
            P = [
                [
                    P[0][0] + dt * (P[1][0] + P[0][1]) + dt * dt * P[1][1]
                    + q * dt**4 / 4.0,
                    P[0][1] + dt * P[1][1] + q * dt**3 / 2.0,
                ],
                [
                    P[1][0] + dt * P[1][1] + q * dt**3 / 2.0,
                    P[1][1] + q * dt**2,
                ],
            ]
            assert abs(state.mean[0] - m[0]) < 1e-12
            assert abs(state.mean[3] - m[1]) < 1e-12
            assert abs(state.cov[0, 0] - P[0][0]) < 1e-12
            assert abs(state.cov[0, 3] - P[0][1]) < 1e-12
            assert abs(state.cov[3, 3] - P[1][1]) < 1e-12

            zp = float(rng.normal(m[0], 1.0))
            zv = float(rng.normal(m[1], 0.5))
            rec = record(step, step * dt, (zp, 0, 0), (zv, 0, 0))
            state = kalman_update(state, rec, NOISE)
            # oracle update with H = I2, R = diag(gps^2, vel^2)
            rg, rv = NOISE.gps_sigma**2, NOISE.imu_vel_sigma**2
            s00, s01 = P[0][0] + rg, P[0][1]
            s10, s11 = P[1][0], P[1][1] + rv
            det = s00 * s11 - s01 * s10
            i00, i01, i10, i11 = s11 / det, -s01 / det, -s10 / det, s00 / det
            k = [
                [P[0][0] * i00 + P[0][1] * i10, P[0][0] * i01 + P[0][1] * i11],
                [P[1][0] * i00 + P[1][1] * i10, P[1][0] * i01 + P[1][1] * i11],
            ]
            y = [zp - m[0], zv - m[1]]
            m = [m[0] + k[0][0] * y[0] + k[0][1] * y[1],
                 m[1] + k[1][0] * y[0] + k[1][1] * y[1]]
            a00, a01 = 1.0 - k[0][0], -k[0][1]
            a10, a11 = -k[1][0], 1.0 - k[1][1]
            # Joseph form: (I-K)P(I-K)' + K R K'
            b = [
                [a00 * P[0][0] + a01 * P[1][0], a00 * P[0][1] + a01 * P[1][1]],
                [a10 * P[0][0] + a11 * P[1][0], a10 * P[0][1] + a11 * P[1][1]],
            ]
            P = [
                [
                    b[0][0] * a00 + b[0][1] * a01 + k[0][0] ** 2 * rg + k[0][1] ** 2 * rv,
                    b[0][0] * a10 + b[0][1] * a11 + k[0][0] * k[1][0] * rg + k[0][1] * k[1][1] * rv,
                ],
                [
                    b[1][0] * a00 + b[1][1] * a01 + k[1][0] * k[0][0] * rg + k[1][1] * k[0][1] * rv,
                    b[1][0] * a10 + b[1][1] * a11 + k[1][0] ** 2 * rg + k[1][1] ** 2 * rv,
                ],
            ]
            assert abs(state.mean[0] - m[0]) < 1e-12
            assert abs(state.mean[3] - m[1]) < 1e-12
            assert abs(state.cov[0, 0] - P[0][0]) < 1e-12
            assert abs(state.cov[0, 3] - P[0][1]) < 1e-12
            assert abs(state.cov[3, 3] - P[1][1]) < 1e-12


class TestUpdate:
    def test_measurement_at_predicted_mean_keeps_mean(self):
        state = fresh_state(pos=(1, 2, 3), vel=(0.1, 0.2, 0.3))
        rec = record(0, 0.0, (1, 2, 3), (0.1, 0.2, 0.3))
        out = kalman_update(state, rec, NOISE)
        np.testing.assert_allclose(out.mean, state.mean, atol=1e-12)
        assert np.trace(out.cov) < np.trace(state.cov)
        # posterior is never larger than the prior in the Loewner order
        eigs = np.linalg.eigvalsh(state.cov - out.cov)
        assert eigs.min() > -1e-12

    def test_tiny_gps_sigma_pins_position(self):
        noise = NoiseConfig(gps_sigma=1e-6, imu_vel_sigma=0.2)
        state = fresh_state(pos=(0, 0, 0))
        rec = record(0, 0.0, (4.0, -2.0, 60.0), (0, 0, 0))
        out = kalman_update(state, rec, noise)
        np.testing.assert_allclose(out.mean[:3], (4.0, -2.0, 60.0), atol=1e-6)

    def test_repeated_fixes_beat_single_measurement(self):
        """Static target: filtering noisy GPS beats using one fix."""
        rng = np.random.default_rng(3)
        n_trials, n_steps = 400, 10
        single, filtered = [], []
        for _ in range(n_trials):
            state = None
            first = None
            for k in range(n_steps):
                z = rng.normal(0.0, NOISE.gps_sigma, 3)
                rec = record(k, k * 0.1, z, (0, 0, 0))
                if state is None:
                    state = initial_state(rec, NOISE)
                    first = z
                else:
                    state = kalman_predict(state, 0.1, NOISE)
                    state = kalman_update(state, rec, NOISE)
            single.append(np.sum(first**2))
            filtered.append(np.sum(state.mean[:3] ** 2))
        assert math.sqrt(np.mean(filtered)) < math.sqrt(np.mean(single))

    def test_covariance_stays_symmetric_pd_through_random_sequence(self):
        rng = np.random.default_rng(21)
        state = fresh_state(var=4.0)
        for k in range(200):
            state = kalman_predict(state, rng.uniform(0.01, 0.5), NOISE)
            if k % 3 != 2:
                rec = record(k, k * 0.1, rng.normal(0, 5, 3), rng.normal(0, 2, 3))
                state = kalman_update(state, rec, NOISE)
            # FusionState validates SPD on construction; re-check symmetry
            assert np.max(np.abs(state.cov - state.cov.T)) < 1e-9


class TestSensorRecordValidation:
    """A one-record log rejects a non-finite value in any field."""

    FIELDS = ["t", "gps0", "gps1", "gps2", "vel0", "vel1", "vel2", "pitch", "yaw", "roll"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(10), ids=FIELDS)
    def test_rejects_non_finite_in_every_field(self, index, value):
        values = [0.4, 1.0, -2.0, 40.0, 0.5, 0.0, -0.1, 1.0, 2.0, 3.0]
        values[index] = value
        t, gps, vel, (pitch, yaw, roll) = values[0], values[1:4], values[4:7], values[7:]
        with pytest.raises(ValueError, match="non-finite"):
            log_of([record(6, t, gps, vel, pitch=pitch, yaw=yaw, roll=roll)])


class TestFuseLog:
    @staticmethod
    def straight_log(n=40, fps=10.0, v=(2.0, -1.0, 0.0), yaw=33.0):
        recs = []
        for i in range(n):
            t = i / fps
            pos = (v[0] * t, v[1] * t, 80.0 + v[2] * t)
            recs.append(record(i, t, pos, v, yaw=yaw))
        return log_of(recs)

    def test_noise_free_constant_velocity_log_is_recovered_exactly(self):
        log = self.straight_log()
        poses = fuse_log(log, NOISE, fps=10.0)
        assert len(poses) == len(log)
        for gps, pose in zip(log.gps, poses):
            np.testing.assert_allclose((pose.x, pose.y, pose.z), gps, atol=1e-6)
            assert pose.yaw == pytest.approx(33.0, abs=1e-9)

    def test_single_record_log_passes_through(self):
        log = log_of(
            [record(0, 0.0, (5, 6, 70), (1, 0, 0), pitch=2.0, yaw=40.0)]
        )
        poses = fuse_log(log, NOISE, fps=15.0)
        assert len(poses) == 1
        assert (poses[0].x, poses[0].y, poses[0].z) == (5.0, 6.0, 70.0)
        assert poses[0].pitch == 2.0 and poses[0].yaw == 40.0

    def test_empty_log_rejected(self):
        empty = np.empty((0, 3))
        with pytest.raises(FusionError, match="empty"):
            fuse_log(SensorLog([], [], empty, empty, empty), NOISE, fps=10.0)

    def test_non_monotone_time_rejected(self):
        log = log_of([
            record(0, 0.0, (0, 0, 50), (0, 0, 0)),
            record(1, 0.2, (0, 0, 50), (0, 0, 0)),
            record(2, 0.1, (0, 0, 50), (0, 0, 0)),
        ])
        with pytest.raises(FusionError):
            fuse_log(log, NOISE, fps=10.0)

    def test_overflowing_state_rejected(self):
        log = log_of([
            record(0, 0.0, (1.7e308, 0, 50), (1.7e308, 0, 0)),
            record(1, 0.1, (1.7e308, 0, 50), (1.7e308, 0, 0)),
        ])
        with pytest.raises(FusionError, match="non-finite"):
            fuse_log(log, NOISE, fps=10.0)

    def test_fused_beats_raw_gps_on_noisy_logs(self):
        """Position RMSE: Kalman output below raw fixes in >= 95% of seeds."""
        fps, n = 10.0, 150
        v = np.array([1.5, 0.5, 0.0])
        wins = 0
        trials = 40
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            truth = np.array([v * (i / fps) for i in range(n)])
            truth[:, 2] += 60.0
            log = log_of([
                record(
                    i, i / fps,
                    truth[i] + rng.normal(0, NOISE.gps_sigma, 3),
                    v + rng.normal(0, NOISE.imu_vel_sigma, 3),
                )
                for i in range(n)
            ])
            fused = fuse_log(log, NOISE, fps)
            gps = gps_only_poses(log, fps)
            err_f = np.mean(
                [np.sum((p.position - t) ** 2) for p, t in zip(fused, truth)]
            )
            err_g = np.mean(
                [np.sum((p.position - t) ** 2) for p, t in zip(gps, truth)]
            )
            wins += err_f < err_g
        assert wins >= round(0.95 * trials)


class TestResampling:
    def test_interpolates_to_frame_timestamps(self):
        log = log_of([
            record(0, 0.0, (0, 0, 50), (2, 0, 0)),
            record(1, 1.0, (2, 0, 50), (2, 0, 0)),
            record(2, 2.0, (4, 0, 50), (2, 0, 0)),
        ])
        poses = gps_only_poses(log, fps=2.0)
        assert len(poses) == 5
        np.testing.assert_allclose([p.x for p in poses], [0, 1, 2, 3, 4])

    def test_yaw_unwraps_across_the_seam(self):
        log = log_of([
            record(0, 0.0, (0, 0, 50), (0, 0, 0), yaw=359.0),
            record(1, 1.0, (0, 0, 50), (0, 0, 0), yaw=1.0),
        ])
        poses = gps_only_poses(log, fps=2.0)
        mid = poses[1].yaw % 360.0
        assert min(mid, 360.0 - mid) < 1e-9  # 0 deg, not 180

    @pytest.mark.parametrize("n_frames", [0, -1])
    def test_frame_count_must_be_positive(self, n_frames):
        log = log_of([record(0, 0.0, (0, 0, 50), (0, 0, 0)),
                      record(1, 1.0, (0, 0, 50), (0, 0, 0))])
        with pytest.raises(FusionError, match="frame count must be >= 1"):
            gps_only_poses(log, fps=10.0, n_frames=n_frames)
        with pytest.raises(FusionError, match="frame count must be >= 1"):
            fuse_log(log, NOISE, fps=10.0, n_frames=n_frames)

    def test_frame_span_must_fit_log(self):
        log = log_of([record(0, 0.0, (0, 0, 50), (0, 0, 0)),
                      record(1, 1.0, (0, 0, 50), (0, 0, 0))])
        with pytest.raises(FusionError, match="frames"):
            gps_only_poses(log, fps=10.0, n_frames=50)


class TestBaselines:
    def test_gps_only_passes_fixes_through(self):
        log = TestFuseLog.straight_log(n=5)
        poses = gps_only_poses(log, fps=10.0)
        for gps, pose in zip(log.gps.tolist(), poses):
            assert [pose.x, pose.y, pose.z] == gps

    def test_dead_reckoning_integrates_trapezoidally(self):
        log = log_of([
            record(0, 0.0, (0, 0, 50), (0.0, 0, 0)),
            record(1, 0.5, (99, 99, 99), (2.0, 0, 0)),
            record(2, 1.0, (99, 99, 99), (4.0, 0, 0)),
        ])
        poses = dead_reckoning_poses(log, fps=2.0)
        # only the first fix anchors; then x += 0.5*(v0+v1)*dt
        assert poses[0].x == 0.0
        assert poses[1].x == pytest.approx(0.5, abs=1e-12)
        assert poses[2].x == pytest.approx(2.0, abs=1e-12)
        assert poses[2].z == 50.0

    def test_noise_config_requires_positive_sigmas(self):
        with pytest.raises(ValueError):
            NoiseConfig(gps_sigma=0.0)

    @pytest.mark.parametrize("name", ["gps_sigma", "imu_vel_sigma", "process_accel_sigma"])
    @pytest.mark.parametrize("sigma", [1e200, 1e-200])
    def test_noise_config_requires_representable_variances(self, name, sigma):
        with pytest.raises(ValueError, match=f"{name} squared must be finite and > 0"):
            NoiseConfig(**{name: sigma})

    def test_noise_config_accepts_wide_but_representable_sigmas(self):
        NoiseConfig(gps_sigma=1e150, imu_vel_sigma=1e-150, process_accel_sigma=1e100)


# -- fuse_log against the step-by-step 6-state reference -------------------


def reference_angles(frames):
    """Record-based attitude reference: each angle unwrapped."""
    return np.stack(
        [unwrap_deg([r.pitch for r in frames]), unwrap_deg([r.yaw for r in frames]),
         unwrap_deg([r.roll for r in frames])],
        axis=1,
    )


def reference_fuse(log, noise, fps, n_frames=None):
    """Positions (n, 3) and attitude (n, 3) from kalman_predict/update."""
    frames = resample_log_to_frames(log, fps, n_frames)
    state = initial_state(frames[0], noise)
    means = [state.mean]
    for rec in frames[1:]:
        state = kalman_predict(state, 1.0 / fps, noise)
        state = kalman_update(state, rec, noise)
        means.append(state.mean)
    return np.array(means)[:, :3], reference_angles(frames)


def reference_gps_only(log, fps, n_frames=None):
    frames = resample_log_to_frames(log, fps, n_frames)
    return np.array([r.gps for r in frames]), reference_angles(frames)


def reference_dead_reckoning(log, fps, n_frames=None):
    frames = resample_log_to_frames(log, fps, n_frames)
    pos = np.array(frames[0].gps, dtype=float)
    out = [pos]
    for a, b in zip(frames, frames[1:]):
        pos = pos + 0.5 * (np.array(a.vel) + np.array(b.vel)) * (1.0 / fps)
        out.append(pos)
    return np.array(out), reference_angles(frames)


def pose_arrays(poses):
    return (
        np.array([(p.x, p.y, p.z) for p in poses]),
        np.array([(p.pitch, p.yaw, p.roll) for p in poses]),
    )


def random_log(rng, n, fps):
    """Irregularly sampled noisy log with attitude crossing the yaw seam."""
    t = np.cumsum(rng.uniform(0.3, 1.7, n)) / fps
    vel = rng.normal(0, 3, 3)
    return log_of([
        record(
            i, float(t[i]),
            rng.normal(vel * t[i] + (0, 0, 60), 2.0),
            rng.normal(vel, 0.5),
            pitch=float(rng.uniform(-5, 5)),
            yaw=float((350.0 + 4.0 * i + rng.normal(0, 2)) % 360.0),
            roll=float(rng.uniform(-3, 3)),
        )
        for i in range(n)
    ])


class TestFuseLogOracle:
    """fuse_log runs the shared per-axis recursion; the 6-state reference
    steps kalman_predict/update. Positions agree to 1e-9 m (only rounding
    differs), attitude exactly; the baselines are exactly equal."""

    POS_TOL = 1e-9

    def check(self, log, noise, fps, n_frames=None):
        pos, att = pose_arrays(fuse_log(log, noise, fps, n_frames))
        ref_pos, ref_att = reference_fuse(log, noise, fps, n_frames)
        assert pos.shape == ref_pos.shape
        assert np.max(np.abs(pos - ref_pos)) <= self.POS_TOL
        assert np.array_equal(att, ref_att)
        for fn, ref in (
            (gps_only_poses, reference_gps_only),
            (dead_reckoning_poses, reference_dead_reckoning),
        ):
            got = pose_arrays(fn(log, fps, n_frames))
            want = ref(log, fps, n_frames)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_marker_runs(self, seed):
        run = generate_marker_run(seed)
        cfg = run.config
        self.check(run.sensor_log, cfg.noise, cfg.fps, cfg.duration)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_logs_with_non_default_noise(self, seed):
        rng = np.random.default_rng(100 + seed)
        noise = NoiseConfig(
            gps_sigma=float(rng.uniform(0.05, 5.0)),
            imu_vel_sigma=float(rng.uniform(0.01, 2.0)),
            process_accel_sigma=float(rng.uniform(0.1, 10.0)),
        )
        fps = float(rng.uniform(5.0, 60.0))
        log = random_log(rng, 120, fps)
        self.check(log, noise, fps)

    @pytest.mark.parametrize(
        "sigmas", [(1e100, 1e100, 1.0), (1e150, 1e-150, 1.0), (1e-100, 1e-100, 1e-100)]
    )
    def test_extreme_but_valid_sigmas(self, sigmas):
        log = random_log(np.random.default_rng(11), 60, 10.0)
        self.check(log, NoiseConfig(*sigmas), 10.0)

    def test_explicit_frame_count(self):
        rng = np.random.default_rng(5)
        log = random_log(rng, 80, 10.0)
        self.check(log, NoiseConfig(gps_sigma=2.0, imu_vel_sigma=0.05), 10.0, n_frames=17)

    def test_one_record_log(self):
        log = log_of(
            [record(0, 1.5, (5, 6, 70), (1, -2, 0.5), pitch=2.0, yaw=359.0, roll=-1.0)]
        )
        self.check(log, NOISE, 15.0)
        self.check(log, NOISE, 15.0, n_frames=1)


def reference_axis_gains(n, dt, noise, period=1):
    """Every step of the per-axis gain recursion, with no early stop, and
    the first step after which the covariance state equals the one
    ``period`` steps earlier (or None)."""
    rg, rv = noise.gps_sigma**2, noise.imu_vel_sigma**2
    s2 = noise.process_accel_sigma**2
    q00, q01, q11 = s2 * dt**4 / 4.0, s2 * dt**3 / 2.0, s2 * dt**2
    p00, p01, p11 = rg, 0.0, rv
    gains, repeated = [], None
    history = [(p00, p01, p11)]
    for step in range(1, n):
        p00, p01, p11 = (
            p00 + dt * (p01 + p01) + dt * dt * p11 + q00,
            p01 + dt * p11 + q01,
            p11 + q11,
        )
        s00 = p00 + rg
        l = p01 / s00
        c = p11 + rv - l * p01
        k01, k11 = (p01 - l * p00) / c, (p11 - l * p01) / c
        k00, k10 = p00 / s00 - l * k01, p01 / s00 - l * k11
        a00, a01, a10, a11 = 1.0 - k00, -k01, -k10, 1.0 - k11
        b00, b01 = a00 * p00 + a01 * p01, a00 * p01 + a01 * p11
        b10, b11 = a10 * p00 + a11 * p01, a10 * p01 + a11 * p11
        c01 = b00 * a10 + b01 * a11 + k00 * k10 * rg + k01 * k11 * rv
        c10 = b10 * a00 + b11 * a01 + k10 * k00 * rg + k11 * k01 * rv
        p00 = b00 * a00 + b01 * a01 + k00 * k00 * rg + k01 * k01 * rv
        p11 = b10 * a10 + b11 * a11 + k10 * k10 * rg + k11 * k11 * rv
        p01 = 0.5 * (c01 + c10)
        gains.append((k00, k01, k10, k11))
        if repeated is None and len(history) >= period and (p00, p01, p11) == history[-period]:
            repeated = step
        history.append((p00, p01, p11))
    return gains, repeated


class TestGainFixedPoint:
    """_axis_gains stops once the covariance state repeats and fills in the
    last gain; every gain equals the full recursion's, bit for bit."""

    @pytest.mark.parametrize(
        "sigmas, fps, repeats",
        [((0.5, 0.2, 1.0), 15.0, True), ((0.5, 0.2, 1.0), 30.0, True),
         ((0.5, 0.05, 2.0), 15.0, False)],
        ids=["bundled-15fps", "bundled-30fps", "slow-15fps"],
    )
    def test_equals_full_recursion(self, sigmas, fps, repeats):
        noise = NoiseConfig(*sigmas)
        want, repeated = reference_axis_gains(5000, 1.0 / fps, noise)
        # The bundled noise reaches a fixed point; the slow one never does
        # (it ends in a 2-cycle, see TestGainCycle).
        assert (repeated is not None) == repeats
        for n in (1, 2, 810, 5000) + ((repeated, repeated + 1, repeated + 2) if repeats else ()):
            got = _axis_gains(n, 1.0 / fps, noise)
            assert np.array(got).tobytes() == np.array(want[: n - 1]).reshape(-1, 4).tobytes()

    def test_bundled_noise_settles_within_a_marker_run(self):
        # With the bundled noise at 15 fps the state first repeats at step
        # 642, so the gains are constant from index 641 of the 809 a
        # marker run's 810 frames take.
        gains, repeated = reference_axis_gains(810, 1.0 / 15.0, NoiseConfig())
        assert repeated == 642
        assert gains[640] != gains[641] and len(set(gains[641:])) == 1


class TestGainScheduleMemo:
    """fuse_log keeps the last settled gain schedule; what a call gets never
    depends on what earlier calls kept."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(fusion, "_schedule", None)

    @pytest.mark.parametrize("fps", [15.0, 30.0])
    @pytest.mark.parametrize("descending", [True, False], ids=["5000-first", "1-first"])
    def test_either_call_order_gives_the_full_recursion(self, fps, descending):
        want, repeated = reference_axis_gains(5000, 1.0 / fps, NOISE)
        ns = sorted({1, 2, 810, 5000, repeated - 1, repeated, repeated + 1}, reverse=descending)
        for n in ns:
            got = _axis_gains(n, 1.0 / fps, NOISE)
            assert np.array(got).tobytes() == np.array(want[: n - 1]).reshape(-1, 4).tobytes(), n
        assert fusion._schedule[0] == (1.0 / fps, NOISE)

    def test_bundled_noise_keeps_only_the_gains_up_to_the_fixed_point(self):
        gains = _axis_gains(5000, 1.0 / 15.0, NOISE)
        key, kept, period = fusion._schedule
        assert key == (1.0 / 15.0, NOISE) and kept == gains[:642] and period == 1
        # A later call of any length is served from what was kept.
        fusion._schedule = (key, [(1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0)], 1)
        assert _axis_gains(5, 1.0 / 15.0, NOISE) == [(1.0, 2.0, 3.0, 4.0)] + [(5.0, 6.0, 7.0, 8.0)] * 3
        assert _axis_gains(2, 1.0 / 15.0, NOISE) == [(1.0, 2.0, 3.0, 4.0)]
        # A 2-cycle alternates its last two gains.
        a, b, c = (1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0, 8.0), (9.0, 10.0, 11.0, 12.0)
        fusion._schedule = (key, [a, b, c], 2)
        assert _axis_gains(8, 1.0 / 15.0, NOISE) == [a, b, c, b, c, b, c]
        assert _axis_gains(3, 1.0 / 15.0, NOISE) == [a, b]

    # The slow noise settles in a 2-cycle only at step 2517.
    @pytest.mark.parametrize(
        "n, noise",
        [(2000, NoiseConfig(0.5, 0.05, 2.0)), (642, NOISE), (75, NOISE)],
        ids=["slow-noise", "bundled-one-step-short", "pipeline-length"],
    )
    def test_unsettled_schedule_is_not_kept(self, n, noise):
        assert len(_axis_gains(n, 1.0 / 15.0, noise)) == n - 1
        assert fusion._schedule is None

    def test_raising_recursion_keeps_nothing(self):
        # q00 = s2 dt^4 / 4 overflows, so the first step's S is not finite.
        noise = NoiseConfig(0.5, 0.2, 1e150)
        for _ in range(2):
            with pytest.raises(FusionError, match="singular innovation covariance"):
                _axis_gains(100, 100.0, noise)
        assert fusion._schedule is None

    def test_only_the_last_settled_schedule_is_kept(self):
        for fps in (15.0, 30.0, 15.0):
            want, _ = reference_axis_gains(2000, 1.0 / fps, NOISE)
            got = _axis_gains(2000, 1.0 / fps, NOISE)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            assert fusion._schedule[0] == (1.0 / fps, NOISE)

    def test_fuse_log_is_the_same_with_the_memo_cold_or_warm(self):
        run = generate_marker_run(4)
        cfg = run.config
        cold = fuse_log(run.sensor_log, cfg.noise, cfg.fps, cfg.duration)
        assert fusion._schedule[0] == (1.0 / cfg.fps, cfg.noise)
        warm = fuse_log(run.sensor_log, cfg.noise, cfg.fps, cfg.duration)
        short = fuse_log(run.sensor_log, cfg.noise, cfg.fps, 100)
        assert warm.array.tobytes() == cold.array.tobytes()
        assert short.array.tobytes() == cold.array[:100].tobytes()


class TestGainCycle:
    """At 3, 14, 29 and 33 fps the bundled noise never reaches a fixed point:
    the covariance enters an exact 2-cycle. The memo keeps the gains up to
    it and alternates the last two, bit for bit the full recursion."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(fusion, "_schedule", None)

    @pytest.mark.parametrize(
        "noise, fps, step",
        [(NOISE, 3.0, 134), (NOISE, 14.0, 610), (NOISE, 29.0, 1229), (NOISE, 33.0, 1390),
         (NoiseConfig(0.5, 0.05, 2.0), 15.0, 2517)],
        ids=["3fps", "14fps", "29fps", "33fps", "slow-15fps"],
    )
    def test_cold_and_warm_equal_the_full_recursion_around_the_cycle(self, noise, fps, step):
        dt = 1.0 / fps
        want, fixed = reference_axis_gains(step + 12, dt, noise)
        _, cycled = reference_axis_gains(step + 12, dt, noise, period=2)
        assert fixed is None and cycled == step
        for n in range(step - 2, step + 12):
            fusion._schedule = None
            cold = _axis_gains(n, dt, noise)
            warm = _axis_gains(n, dt, noise)
            expected = np.array(want[: n - 1]).tobytes()
            assert np.array(cold).tobytes() == expected, n
            assert np.array(warm).tobytes() == expected, n
            # The cycle is detected at `step`, so shorter calls keep nothing.
            assert (fusion._schedule is None) == (n - 1 < step), n
        key, kept, period = fusion._schedule
        assert key == (dt, noise) and len(kept) == step and period == 2

    def test_a_long_call_from_the_cycle_memo(self):
        want, _ = reference_axis_gains(5000, 1.0 / 3.0, NOISE)
        _axis_gains(200, 1.0 / 3.0, NOISE)
        got = _axis_gains(5000, 1.0 / 3.0, NOISE)
        assert np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("fps, step", [(25.0, 1039), (30000 / 1001, 1240), (60000 / 1001, 2452)])
    def test_video_rates_reach_a_fixed_point(self, fps, step):
        _, fixed = reference_axis_gains(step + 2, 1.0 / fps, NOISE)
        assert fixed == step
        _axis_gains(step + 2, 1.0 / fps, NOISE)
        assert fusion._schedule[2] == 1 and len(fusion._schedule[1]) == step


def parent_pose_arrays(log, noise, fps, n_frames):
    """(fused, GPS-only, dead reckoning) (n, 6) arrays as fuse_log and the
    baselines computed them before a log kept its frame arrays: every call
    interpolates the log and unwraps the frame-rate attitude itself."""
    gps, vel, angles = interpolated_frame_arrays(log, fps, n_frames)
    dt = 1.0 / fps
    gains = _axis_gains(len(gps), dt, noise)
    pos = []
    for zx, zv in zip(gps.T.tolist(), vel.T.tolist()):
        x, v = zx[0], zv[0]
        xs = [x]
        for (k00, k01, k10, k11), mx, mv in zip(gains, zx[1:], zv[1:]):
            x = x + dt * v
            ix, iv = mx - x, mv - v
            x, v = x + (k00 * ix + k01 * iv), v + (k10 * ix + k11 * iv)
            xs.append(x)
        pos.append(xs)
    steps = 0.5 * (vel[:-1] + vel[1:]) * dt
    reckoned = np.cumsum(np.vstack([gps[:1], steps]), axis=0)
    return tuple(
        np.hstack([p, angles]) for p in (np.array(pos).T, gps, reckoned)
    )


BUILDERS = {
    "fused": lambda log, cfg: fuse_log(log, cfg.noise, cfg.fps, cfg.duration),
    "gps": lambda log, cfg: gps_only_poses(log, cfg.fps, cfg.duration),
    "dr": lambda log, cfg: dead_reckoning_poses(log, cfg.fps, cfg.duration),
}
ORDERS = list(itertools.permutations(BUILDERS))


def copy_of(log):
    return SensorLog(log.frame, log.t, log.gps, log.vel, log.att)


def late_copy_of(log):
    """The log with every timestamp one ulp late: off the frame times from
    the second frame on, so its frame arrays are interpolated."""
    return SensorLog(log.frame, np.nextafter(log.t, np.inf), log.gps, log.vel, log.att)


def counter(monkeypatch, module, name):
    """A list that grows by one on every call of ``module.name``."""
    calls = []
    wrapped = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def count_interp(monkeypatch):
    return counter(monkeypatch, np, "interp")


@pytest.fixture
def count_unwrap(monkeypatch):
    return counter(monkeypatch, np, "unwrap")


class TestUnwrapDeg:
    """``_unwrap_deg`` equals the numpy unwrap bit for bit, -0.0 included,
    and calls ``np.unwrap`` only when some radian step reaches pi."""

    def check(self, values, count_unwrap, wraps):
        values = np.array(values, dtype=float)
        count_unwrap.clear()
        got = fusion._unwrap_deg(values)
        assert len(count_unwrap) == int(wraps)
        want = np.degrees(np.unwrap(np.radians(values), axis=0))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_random_walks_without_a_wrap(self, seed, count_unwrap):
        rng = np.random.default_rng(seed)
        walk = rng.uniform(-90, 90, 3) + np.cumsum(rng.normal(0, 5, (500, 3)), axis=0)
        self.check(walk, count_unwrap, wraps=False)

    @pytest.mark.parametrize("seed", range(20))
    def test_walks_across_the_seam(self, seed, count_unwrap):
        rng = np.random.default_rng(seed)
        walk = np.cumsum(rng.normal(0, 8, (500, 3)), axis=0)
        # Logged in [0, 360) and in [-180, 180): both step by ~360 deg.
        self.check(walk % 360.0, count_unwrap, wraps=True)
        self.check((walk + 180.0) % 360.0 - 180.0, count_unwrap, wraps=True)

    @pytest.mark.parametrize("step", [180.0, -180.0])
    def test_a_step_of_exactly_180_deg_takes_np_unwrap(self, step, count_unwrap):
        assert np.radians(180.0) == math.pi
        self.check([[0.0, 10.0, 20.0], [step, 10.0, 20.0]], count_unwrap, wraps=True)
        below = math.nextafter(step, 0.0)
        self.check([[0.0, 10.0, 20.0], [below, 10.0, 20.0]], count_unwrap, wraps=False)

    def test_negative_zeros(self, count_unwrap):
        values = [[-0.0, 0.0, -0.0], [-0.0, -0.0, 0.0], [1.0, -0.0, -0.0], [-0.0, 0.0, -0.0]]
        self.check(values, count_unwrap, wraps=False)
        assert math.copysign(1.0, fusion._unwrap_deg(np.array(values))[0, 0]) == -1.0

    @pytest.mark.parametrize("row", [[1.0, 359.0, -0.0], [-0.0, -0.0, -0.0]])
    def test_a_single_row(self, row, count_unwrap):
        self.check([row], count_unwrap, wraps=False)


def interpolated_frame_arrays(log, fps, n_frames):
    """(gps, vel, angles) as ``_frame_arrays`` gave them before it knew
    frame-aligned logs: nine np.interp calls onto the frame times, then
    the frame-rate unwrap."""
    _, cols = frame_columns(log, fps, n_frames)
    return cols[:, :3], cols[:, 3:6], unwrap_deg(cols[:, 6:])


def frame_log(rng, n, fps, t0=0.0):
    """A noisy log of one record per frame stamped t0 + k/fps."""
    t = t0 + np.arange(n) / fps
    return SensorLog(
        np.arange(n), t, rng.normal(0, 50, (n, 3)), rng.normal(0, 3, (n, 3)),
        np.cumsum(rng.normal(0, 4, (n, 3)), axis=0) % 360.0,
    )


class TestFrameAlignedArrays:
    """On a log with one record per frame time, ``_frame_arrays`` takes the
    log's own rows; the arrays equal the interpolated ones bit for bit."""

    def check(self, log, fps, n_frames, count_interp, aligned=True):
        count_interp.clear()
        got = _frame_arrays(copy_of(log), fps, n_frames)
        assert len(count_interp) == (0 if aligned else 9)
        want = interpolated_frame_arrays(log, fps, n_frames)
        assert len(got) == len(want) == 3
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_marker_runs(self, seed, count_interp):
        run = generate_marker_run(seed)
        for n_frames in (run.config.duration, None, 1, 100):
            self.check(run.sensor_log, run.config.fps, n_frames, count_interp)

    @pytest.mark.parametrize("fps", [1.0, 3.0, 15.0, 29.97, 30000 / 1001, 60.0])
    def test_synthetic_logs(self, fps, count_interp):
        log = frame_log(np.random.default_rng(int(fps * 100)), 400, fps)
        for n_frames in (400, None, 7):
            self.check(log, fps, n_frames, count_interp)

    def test_a_csv_round_trip(self, tmp_path, count_interp):
        from swarmtrack.io_formats import read_sensor_log, write_sensor_log

        run = generate_marker_run(4)
        write_sensor_log(run.sensor_log, tmp_path / "log.csv")
        log = read_sensor_log(tmp_path / "log.csv")
        assert log == run.sensor_log
        self.check(log, run.config.fps, run.config.duration, count_interp)

    @pytest.mark.parametrize("t0", [0.5, 12.34, -3.0, 1e6])
    def test_a_log_that_does_not_start_at_zero(self, t0, count_interp):
        fps = 15.0
        log = frame_log(np.random.default_rng(7), 200, fps, t0)
        self.check(log, fps, None, count_interp)
        # Stamped (20 + k)/fps, the log is aligned only if t[0] + k/fps
        # rounds the same way for every k; the arrays are equal either way.
        t = np.arange(20, 220) / fps
        shifted = SensorLog(np.arange(20, 220), t, log.gps, log.vel, log.att)
        aligned = np.array_equal(t[0] + np.arange(200) / fps, t)
        self.check(shifted, fps, 200, count_interp, aligned=aligned)

    def test_negative_zeros_in_gps_and_attitude(self, count_interp):
        n, fps = 50, 10.0
        gps = np.zeros((n, 3))
        gps[::2, 0] = -0.0
        gps[1::3, 2] = -0.0
        att = np.zeros((n, 3))
        att[:, 1] = -0.0
        att[::4, 2] = -0.0
        t = np.arange(n) / fps
        log = SensorLog(np.arange(n), t, gps, np.zeros((n, 3)), att)
        self.check(log, fps, None, count_interp)
        got = _frame_arrays(copy_of(log), fps, None)
        assert np.signbit(got[0][::2, 0]).all()
        # A first stamp of -0.0 gives a frame time of +0.0, equal to it.
        t[0] = -0.0
        self.check(SensorLog(np.arange(n), t, gps, gps, att), fps, None, count_interp)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_log_one_ulp_off_the_frames_is_interpolated(self, seed, count_interp):
        run = generate_marker_run(seed)
        late = late_copy_of(run.sensor_log)
        self.check(late, run.config.fps, run.config.duration, count_interp, aligned=False)
        log = frame_log(np.random.default_rng(seed), 100, 15.0, t0=2.0)
        early = SensorLog(log.frame, np.nextafter(log.t, -np.inf), log.gps, log.vel, log.att)
        self.check(early, 15.0, 99, count_interp, aligned=False)


class TestFrameArrayCache:
    """A SensorLog keeps the frame arrays of its last (fps, n_frames); every
    pose set is the same, bit for bit, whichever call filled them."""

    def test_300_marker_seeds_in_every_order_equal_the_parent(self):
        for seed in range(300):
            run = generate_marker_run(seed)
            cfg = run.config
            want = dict(zip(BUILDERS, parent_pose_arrays(
                run.sensor_log, cfg.noise, cfg.fps, cfg.duration)))
            # Each seed starts cold with the first builder of one order and
            # then runs every builder warm in the reverse of the next order.
            log = copy_of(run.sensor_log)
            first = ORDERS[seed % len(ORDERS)]
            second = ORDERS[(seed + 1) % len(ORDERS)][::-1]
            for name in (*first, *second):
                got = BUILDERS[name](log, cfg).array
                assert got.tobytes() == want[name].tobytes(), (seed, name)

    def test_one_interpolation_per_key(self, count_interp):
        # One ulp late, the log is interpolated: nine np.interp per build.
        run = generate_marker_run(2)
        cfg = run.config
        log = late_copy_of(run.sensor_log)
        count_interp.clear()  # the run's own path interpolation
        for name in ("fused", "gps", "dr", "fused"):
            BUILDERS[name](log, cfg)
        assert len(count_interp) == 9  # three gps, three vel, three attitude
        gps_only_poses(log, cfg.fps, 100)
        assert len(count_interp) == 18
        short = gps_only_poses(log, cfg.fps, 100)
        assert len(count_interp) == 18
        # Only the last key is kept.
        again = BUILDERS["gps"](log, cfg)
        assert len(count_interp) == 27
        assert short.array.tobytes() == again.array[:100].tobytes()
        gps_only_poses(log, cfg.fps * 0.5, 100)
        assert len(count_interp) == 36

    def test_one_build_per_key_on_a_frame_aligned_log(self, count_interp, monkeypatch):
        # A build unwraps twice (the log, then the frame-rate attitude) and
        # a frame-aligned log is never interpolated.
        unwraps = counter(monkeypatch, fusion, "_unwrap_deg")
        run = generate_marker_run(2)
        cfg = run.config
        log = copy_of(run.sensor_log)
        count_interp.clear()  # the run's own path interpolation
        for name in ("fused", "gps", "dr", "fused"):
            BUILDERS[name](log, cfg)
        assert len(unwraps) == 2
        gps_only_poses(log, cfg.fps, 100)
        assert len(unwraps) == 4
        short = gps_only_poses(log, cfg.fps, 100)
        assert len(unwraps) == 4
        # Only the last key is kept.
        again = BUILDERS["gps"](log, cfg)
        assert len(unwraps) == 6
        assert short.array.tobytes() == again.array[:100].tobytes()
        gps_only_poses(log, cfg.fps * 0.5, 100)
        assert len(unwraps) == 8
        assert len(count_interp) == 9  # only the half-rate frames fall between records

    def test_a_failing_call_keeps_nothing(self):
        run = generate_marker_run(3)
        cfg = run.config
        log = copy_of(run.sensor_log)
        for fps, n in ((cfg.fps, cfg.duration + 1), (math.nan, 5), (-1.0, 5), (cfg.fps, 0)):
            with pytest.raises(FusionError):
                gps_only_poses(log, fps, n)
            assert log._frames is None
        kept = _frame_arrays(log, cfg.fps, 10)
        with pytest.raises(FusionError):
            gps_only_poses(log, cfg.fps, cfg.duration + 1)
        assert log._frames[1] is kept

    def test_bad_timestamps_keep_nothing(self):
        log = SensorLog([0, 1], [1.0, 1.0], np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(FusionError, match="strictly increase"):
            _frame_arrays(log, 10.0, None)
        assert log._frames is None

    def test_kept_arrays_and_log_columns_cannot_be_made_writeable(self):
        run = generate_marker_run(1)
        log = copy_of(run.sensor_log)
        arrays = _frame_arrays(log, run.config.fps, None)
        columns = [getattr(log, name) for name in ("frame", "t", "gps", "vel", "att")]
        for a in (*arrays, *columns):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flags.writeable = True

    def test_a_frame_aligned_log_keeps_slices_of_its_own_columns(self):
        run = generate_marker_run(1)
        log = copy_of(run.sensor_log)
        gps, vel, _ = _frame_arrays(log, run.config.fps, None)
        assert np.shares_memory(gps, log.gps) and np.shares_memory(vel, log.vel)
        assert log._frames[1][0] is gps
        late = late_copy_of(run.sensor_log)
        gps, vel, _ = _frame_arrays(late, run.config.fps, None)
        assert not np.shares_memory(gps, late.gps) and not np.shares_memory(vel, late.vel)

    def test_equality_ignores_the_kept_arrays(self):
        run = generate_marker_run(1)
        warm, cold = copy_of(run.sensor_log), copy_of(run.sensor_log)
        _frame_arrays(warm, run.config.fps, None)
        assert warm == cold and cold == warm

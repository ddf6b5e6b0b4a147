"""Kalman predict/update algebra, log fusion, and the pose baselines."""
import math

import numpy as np
import pytest

from swarmtrack.fusion import (
    FusionError,
    FusionState,
    NoiseConfig,
    SensorRecord,
    dead_reckoning_poses,
    fuse_log,
    gps_only_poses,
    initial_state,
    kalman_predict,
    kalman_update,
    resample_log_to_frames,
)
from swarmtrack.synth import generate_marker_run

NOISE = NoiseConfig()


def record(frame, t, gps, vel, pitch=0.0, yaw=0.0, roll=0.0):
    return SensorRecord(
        frame=frame, t=t, gps=tuple(gps), vel=tuple(vel),
        pitch=pitch, yaw=yaw, roll=roll,
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


class TestFuseLog:
    @staticmethod
    def straight_log(n=40, fps=10.0, v=(2.0, -1.0, 0.0), yaw=33.0):
        recs = []
        for i in range(n):
            t = i / fps
            pos = (v[0] * t, v[1] * t, 80.0 + v[2] * t)
            recs.append(record(i, t, pos, v, yaw=yaw))
        return recs

    def test_noise_free_constant_velocity_log_is_recovered_exactly(self):
        log = self.straight_log()
        poses = fuse_log(log, NOISE, fps=10.0)
        assert len(poses) == len(log)
        for rec, pose in zip(log, poses):
            np.testing.assert_allclose(
                (pose.x, pose.y, pose.z), rec.gps, atol=1e-6
            )
            assert pose.yaw == pytest.approx(33.0, abs=1e-9)

    def test_single_record_log_passes_through(self):
        log = [record(0, 0.0, (5, 6, 70), (1, 0, 0), pitch=2.0, yaw=40.0)]
        poses = fuse_log(log, NOISE, fps=15.0)
        assert len(poses) == 1
        assert (poses[0].x, poses[0].y, poses[0].z) == (5.0, 6.0, 70.0)
        assert poses[0].pitch == 2.0 and poses[0].yaw == 40.0

    def test_empty_log_rejected(self):
        with pytest.raises(FusionError, match="empty"):
            fuse_log([], NOISE, fps=10.0)

    def test_non_monotone_time_rejected(self):
        log = [
            record(0, 0.0, (0, 0, 50), (0, 0, 0)),
            record(1, 0.2, (0, 0, 50), (0, 0, 0)),
            record(2, 0.1, (0, 0, 50), (0, 0, 0)),
        ]
        with pytest.raises(FusionError):
            fuse_log(log, NOISE, fps=10.0)

    def test_overflowing_state_rejected(self):
        log = [
            record(0, 0.0, (1.7e308, 0, 50), (1.7e308, 0, 0)),
            record(1, 0.1, (1.7e308, 0, 50), (1.7e308, 0, 0)),
        ]
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
            log = [
                record(
                    i, i / fps,
                    truth[i] + rng.normal(0, NOISE.gps_sigma, 3),
                    v + rng.normal(0, NOISE.imu_vel_sigma, 3),
                )
                for i in range(n)
            ]
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
        log = [
            record(0, 0.0, (0, 0, 50), (2, 0, 0)),
            record(1, 1.0, (2, 0, 50), (2, 0, 0)),
            record(2, 2.0, (4, 0, 50), (2, 0, 0)),
        ]
        frames = resample_log_to_frames(log, fps=2.0)
        assert len(frames) == 5
        assert [f.t for f in frames] == [0.0, 0.5, 1.0, 1.5, 2.0]
        np.testing.assert_allclose([f.gps[0] for f in frames], [0, 1, 2, 3, 4])

    def test_yaw_unwraps_across_the_seam(self):
        log = [
            record(0, 0.0, (0, 0, 50), (0, 0, 0), yaw=359.0),
            record(1, 1.0, (0, 0, 50), (0, 0, 0), yaw=1.0),
        ]
        frames = resample_log_to_frames(log, fps=2.0)
        mid = frames[1].yaw % 360.0
        assert min(mid, 360.0 - mid) < 1e-9  # 0 deg, not 180

    @pytest.mark.parametrize("n_frames", [0, -1])
    def test_frame_count_must_be_positive(self, n_frames):
        log = [record(0, 0.0, (0, 0, 50), (0, 0, 0)),
               record(1, 1.0, (0, 0, 50), (0, 0, 0))]
        with pytest.raises(FusionError, match="frame count must be >= 1"):
            resample_log_to_frames(log, fps=10.0, n_frames=n_frames)
        with pytest.raises(FusionError, match="frame count must be >= 1"):
            fuse_log(log, NOISE, fps=10.0, n_frames=n_frames)

    def test_frame_span_must_fit_log(self):
        log = [record(0, 0.0, (0, 0, 50), (0, 0, 0)),
               record(1, 1.0, (0, 0, 50), (0, 0, 0))]
        with pytest.raises(FusionError, match="frames"):
            resample_log_to_frames(log, fps=10.0, n_frames=50)


class TestBaselines:
    def test_gps_only_passes_fixes_through(self):
        log = TestFuseLog.straight_log(n=5)
        poses = gps_only_poses(log, fps=10.0)
        for rec, pose in zip(log, poses):
            assert (pose.x, pose.y, pose.z) == rec.gps

    def test_dead_reckoning_integrates_trapezoidally(self):
        log = [
            record(0, 0.0, (0, 0, 50), (0.0, 0, 0)),
            record(1, 0.5, (99, 99, 99), (2.0, 0, 0)),
            record(2, 1.0, (99, 99, 99), (4.0, 0, 0)),
        ]
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


def reference_angles(frames, alpha):
    """Record-based attitude reference: unwrap each angle, then the EMA."""
    def unwrap(values):
        return np.degrees(np.unwrap(np.radians(np.array(values))))

    raw = np.stack(
        [unwrap([r.pitch for r in frames]), unwrap([r.yaw for r in frames]),
         unwrap([r.roll for r in frames])],
        axis=1,
    )
    if alpha == 1.0:
        return raw
    out = raw.copy()
    for i in range(1, len(frames)):
        out[i] = alpha * raw[i] + (1 - alpha) * out[i - 1]
    return out


def reference_fuse(log, noise, fps, n_frames=None, alpha=1.0):
    """Positions (n, 3) and attitude (n, 3) from kalman_predict/update."""
    frames = resample_log_to_frames(log, fps, n_frames)
    state = initial_state(frames[0], noise)
    means = [state.mean]
    for rec in frames[1:]:
        state = kalman_predict(state, 1.0 / fps, noise)
        state = kalman_update(state, rec, noise)
        means.append(state.mean)
    return np.array(means)[:, :3], reference_angles(frames, alpha)


def reference_gps_only(log, fps, n_frames=None):
    frames = resample_log_to_frames(log, fps, n_frames)
    return np.array([r.gps for r in frames]), reference_angles(frames, 1.0)


def reference_dead_reckoning(log, fps, n_frames=None):
    frames = resample_log_to_frames(log, fps, n_frames)
    pos = np.array(frames[0].gps, dtype=float)
    out = [pos]
    for a, b in zip(frames, frames[1:]):
        pos = pos + 0.5 * (np.array(a.vel) + np.array(b.vel)) * (1.0 / fps)
        out.append(pos)
    return np.array(out), reference_angles(frames, 1.0)


def pose_arrays(poses):
    return (
        np.array([(p.x, p.y, p.z) for p in poses]),
        np.array([(p.pitch, p.yaw, p.roll) for p in poses]),
    )


def random_log(rng, n, fps):
    """Irregularly sampled noisy log with attitude crossing the yaw seam."""
    t = np.cumsum(rng.uniform(0.3, 1.7, n)) / fps
    vel = rng.normal(0, 3, 3)
    return [
        record(
            i, float(t[i]),
            rng.normal(vel * t[i] + (0, 0, 60), 2.0),
            rng.normal(vel, 0.5),
            pitch=float(rng.uniform(-5, 5)),
            yaw=float((350.0 + 4.0 * i + rng.normal(0, 2)) % 360.0),
            roll=float(rng.uniform(-3, 3)),
        )
        for i in range(n)
    ]


class TestFuseLogOracle:
    """fuse_log runs the shared per-axis recursion; the 6-state reference
    steps kalman_predict/update. Positions agree to 1e-9 m (only rounding
    differs), attitude exactly; the baselines are exactly equal."""

    POS_TOL = 1e-9

    def check(self, log, noise, fps, n_frames=None, alpha=1.0):
        pos, att = pose_arrays(fuse_log(log, noise, fps, n_frames, alpha))
        ref_pos, ref_att = reference_fuse(log, noise, fps, n_frames, alpha)
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

    @pytest.mark.parametrize("seed", [0, 7])
    def test_marker_runs(self, seed):
        run = generate_marker_run(seed)
        cfg = run.config
        self.check(run.sensor_log, cfg.noise, cfg.fps, cfg.duration)

    def test_marker_run_with_orientation_smoothing(self):
        run = generate_marker_run(3)
        cfg = run.config
        self.check(run.sensor_log, cfg.noise, cfg.fps, cfg.duration, alpha=0.3)

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
        self.check(log, noise, fps, alpha=0.3)

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
        log = [record(0, 1.5, (5, 6, 70), (1, -2, 0.5), pitch=2.0, yaw=359.0, roll=-1.0)]
        self.check(log, NOISE, 15.0)
        self.check(log, NOISE, 15.0, n_frames=1, alpha=0.3)

"""Scenario generator: rendering accuracy, ground truth, noise, degradation."""
import math

import numpy as np
import pytest
from scipy import ndimage

from swarmtrack.geometry import PixelPoint, backproject_image_to_ground
from swarmtrack.synth import (
    DronePathConfig,
    ScenarioConfig,
    ScenarioError,
    SwarmPathConfig,
    SwarmShapeConfig,
    degrade_mask,
    generate,
    generate_marker_run,
    make_gain_field,
    render_frame,
    soften,
)
from swarmtrack.tracker import SoftMask


def make_config(**overrides):
    base = dict(
        duration=30,
        fps=10.0,
        width=256,
        height=256,
        focal_px=1000.0,
        drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=100.0, speed=1.0),
        swarm=SwarmPathConfig(waypoints=((0.0, 0.0),), speed=0.0),
        shape=SwarmShapeConfig(semi_major=5.0, semi_minor=5.0),
        mask_softness=0.0,
        seed=1,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRendering:
    def test_disc_radius_matches_projection(self):
        # a 5 m disc seen from 100 m with f=1000 px spans 50 px
        scen = generate(make_config())
        for mask in scen.masks:
            area = mask.values.sum()
            assert math.sqrt(area / math.pi) == pytest.approx(50.0, abs=1.0)

    def test_disc_stays_centered(self):
        scen = generate(make_config())
        for mask in scen.masks:
            ys, xs = np.nonzero(mask.values)
            assert abs(xs.mean() - 127.5) <= 0.75
            assert abs(ys.mean() - 127.5) <= 0.75

    def test_zero_softness_yields_binary_values(self):
        scen = generate(make_config(mask_softness=0.0))
        assert set(np.unique(scen.masks[0].values)) <= {0.0, 1.0}
        np.testing.assert_array_equal(
            scen.masks[0].values > 0.5, scen.gt_masks[0].bits
        )

    def test_mask_integral_matches_ellipse_area(self):
        # nadir view scales uniformly by f/z; blur redistributes but
        # does not create or destroy mass away from the image border
        scen = generate(make_config(
            width=320, height=180, focal_px=350.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            shape=SwarmShapeConfig(semi_major=6.0, semi_minor=4.0),
            mask_softness=2.0,
        ))
        expected = math.pi * 6.0 * 4.0 * (350.0 / 60.0) ** 2
        for mask in scen.masks:
            assert mask.values.sum() == pytest.approx(expected, rel=0.02)

    def test_soft_centroid_matches_gt_track(self):
        scen = generate(make_config(
            width=320, height=180, focal_px=350.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            shape=SwarmShapeConfig(semi_major=6.0, semi_minor=4.0),
            mask_softness=2.0,
        ))
        for t in range(0, 30, 5):
            values = scen.masks[t].values
            ys, xs = np.nonzero(values > 0)
            w = values[ys, xs]
            cx = float(np.dot(w, xs) / w.sum())
            cy = float(np.dot(w, ys) / w.sum())
            assert cx == pytest.approx(scen.gt_track2d[t, 0], abs=0.5)
            assert cy == pytest.approx(scen.gt_track2d[t, 1], abs=0.5)

    def test_render_frame_rejects_grounded_camera(self):
        from swarmtrack.geometry import CameraPose
        with pytest.raises(ScenarioError, match="altitude"):
            render_frame([], CameraPose(0, 0, 0.0), make_config().intrinsics, 1.0)

    def test_soften_preserves_binary_when_zero(self):
        binary = np.zeros((8, 8))
        binary[3:5, 3:5] = 1.0
        np.testing.assert_array_equal(soften(binary, 0.0), binary)
        soft = soften(binary, 1.0)
        assert soft.max() <= 1.0 and soft.min() >= 0.0
        assert 0 < soft[2, 3] < 1  # mass leaked outside the square


class TestGroundTruth:
    def test_track2d_backprojects_onto_world_track(self):
        scen = generate(make_config(
            duration=40, fps=15.0, width=320, height=180, focal_px=350.0,
            drone=DronePathConfig(
                waypoints=((-8.0, 0.0), (8.0, 0.0)), altitude=60.0, speed=2.0
            ),
            swarm=SwarmPathConfig(waypoints=((0.0, 0.0), (10.0, 5.0)), speed=0.8),
            shape=SwarmShapeConfig(semi_major=6.0, semi_minor=4.0),
        ))
        intr = scen.config.intrinsics
        for t in range(40):
            u, v = scen.gt_track2d[t]
            hit = backproject_image_to_ground(
                PixelPoint(u - intr.cx, v - intr.cy), scen.gt_poses[t], intr
            )
            assert abs(hit.x - scen.gt_track_world[t, 0]) < 1e-6
            assert abs(hit.y - scen.gt_track_world[t, 1]) < 1e-6
            assert scen.gt_track_world[t, 2] == 0.0

    def test_sequence_lengths_match_duration(self):
        scen = generate(make_config(duration=17))
        assert len(scen.masks) == 17
        assert len(scen.gt_masks) == 17
        assert len(scen.sensor_log) == 17
        assert len(scen.gt_poses) == 17
        assert scen.gt_track2d.shape == (17, 2)
        assert scen.gt_track_world.shape == (17, 3)

    def test_split_produces_two_components(self):
        scen = generate(make_config(
            duration=60, fps=15.0, width=320, height=180, focal_px=350.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            swarm=SwarmPathConfig(waypoints=((0.0, 0.0), (30.0, 0.0)), speed=0.5),
            shape=SwarmShapeConfig(
                semi_major=6.0, semi_minor=4.0, split_frame=20, split_speed=2.5
            ),
            mask_softness=1.0,
        ))
        assert ndimage.label(scen.gt_masks[19].bits)[1] == 1
        assert ndimage.label(scen.gt_masks[59].bits)[1] == 2

    def test_swarm_leaving_frame_names_the_frame(self):
        with pytest.raises(ScenarioError, match=r"frame \d+"):
            generate(make_config(
                duration=45, fps=15.0, width=320, height=180, focal_px=350.0,
                drone=DronePathConfig(
                    waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0
                ),
                swarm=SwarmPathConfig(
                    waypoints=((0.0, 0.0), (500.0, 0.0)), speed=50.0
                ),
                shape=SwarmShapeConfig(semi_major=6.0, semi_minor=4.0),
            ))


class TestSensorLog:
    def test_seed_pins_every_output(self):
        a = generate(make_config(seed=5))
        b = generate(make_config(seed=5))
        for ma, mb in zip(a.masks, b.masks):
            np.testing.assert_array_equal(ma.values, mb.values)
        assert a.sensor_log == b.sensor_log
        np.testing.assert_array_equal(a.gt_track2d, b.gt_track2d)

    def test_zero_noise_scale_gives_exact_log(self):
        scen = generate(make_config(noise_scale=0.0))
        for rec, pose in zip(scen.sensor_log, scen.gt_poses):
            assert rec.gps == (pose.x, pose.y, pose.z)
            assert rec.vel == (0.0, 0.0, 0.0)  # hovering drone
            assert rec.yaw == pose.yaw

    def test_gps_noise_std_matches_config(self):
        scen = generate(make_config(
            duration=3500, fps=15.0, width=32, height=18, focal_px=30.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            shape=SwarmShapeConfig(semi_major=4.0, semi_minor=3.0),
            seed=12,
        ))
        gps = np.array([r.gps for r in scen.sensor_log])
        pos = np.array([[p.x, p.y, p.z] for p in scen.gt_poses])
        resid = gps - pos
        for axis in range(3):
            assert abs(resid[:, axis].std() - 0.5) / 0.5 < 0.05

    def test_velocity_bias_is_horizontal_with_bounded_magnitude(self):
        scen = generate(make_config(
            duration=3500, fps=15.0, width=32, height=18, focal_px=30.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            shape=SwarmShapeConfig(semi_major=4.0, semi_minor=3.0),
            imu_vel_bias_sigma=0.1,
            seed=12,
        ))
        vel = np.array([r.vel for r in scen.sensor_log])  # true velocity is 0
        bias_est = vel.mean(axis=0)
        se = 0.2 / math.sqrt(len(vel))
        assert abs(bias_est[2]) < 4 * se
        assert 0.075 - 4 * se < np.hypot(*bias_est[:2]) < 0.125 + 4 * se
        spread = (vel - bias_est).std(axis=0)
        for axis in range(3):
            assert abs(spread[axis] - 0.2) / 0.2 < 0.05


class TestDegradation:
    def test_gain_field_positive_median_one(self):
        rng = np.random.default_rng(33)
        # scale_px 10 gives ~600 coarse cells, enough for the sample
        # median of the log-normal to concentrate near 1
        field = make_gain_field(320, 180, gain_sigma=1.0, scale_px=10.0, rng=rng)
        assert field.shape == (180, 320)
        assert field.min() > 0.0
        assert abs(np.median(field) - 1.0) < 0.35
        assert field.max() > 1.2  # sigma 1 swings well past unity

    def test_gain_field_deterministic_per_seed(self):
        a = make_gain_field(64, 48, 0.5, 20.0, np.random.default_rng(2))
        b = make_gain_field(64, 48, 0.5, 20.0, np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)

    def test_gain_field_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_gain_field(32, 32, -0.1, 10.0, rng)
        with pytest.raises(ValueError):
            make_gain_field(32, 32, 0.5, 0.0, rng)

    def test_blur_spreads_and_dims(self):
        values = np.zeros((31, 31))
        values[15, 15] = 1.0
        out = degrade_mask(SoftMask(values), blur_sigma=2.0)
        assert out.values[15, 15] < 0.2
        assert out.values.sum() == pytest.approx(1.0, rel=1e-6)

    def test_gain_clips_into_unit_range(self):
        values = np.full((8, 8), 0.9)
        gain = np.full((8, 8), 3.0)
        out = degrade_mask(SoftMask(values), gain=gain)
        assert out.values.max() == 1.0

    def test_degrade_validation(self):
        # All zero: the gain shape is checked before the empty-support return.
        mask = SoftMask(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            degrade_mask(mask, blur_sigma=-1.0)
        with pytest.raises(ValueError, match="does not match"):
            degrade_mask(mask, gain=np.ones((4, 4)))

    def test_identity_degradation_is_a_no_op(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, (16, 16))
        out = degrade_mask(SoftMask(values))
        np.testing.assert_array_equal(out.values, values)


def _full_frame(values, sigma, gain=None):
    """Reference: full-frame Gaussian, then the gain, then the clip."""
    out = values.astype(float)
    if sigma > 0:
        out = ndimage.gaussian_filter(out, sigma=sigma)
    if gain is not None:
        out = out * gain
    return np.clip(out, 0.0, 1.0)


def _support_masks(rng):
    """Soft masks whose support sits inside, on each edge and in each corner,
    plus a single pixel and an empty mask, on wide, narrow and tiny images."""
    for h, w in ((40, 60), (6, 45), (45, 3), (2, 2)):
        for vert in ("low", "mid", "high"):
            for horiz in ("low", "mid", "high"):
                sh = int(rng.integers(1, h // 2 + 2))
                sw = int(rng.integers(1, w // 2 + 2))
                r0 = {"low": 0, "high": h - sh}.get(vert, (h - sh) // 2)
                c0 = {"low": 0, "high": w - sw}.get(horiz, (w - sw) // 2)
                values = np.zeros((h, w))
                values[r0 : r0 + sh, c0 : c0 + sw] = rng.uniform(0.05, 1.0, (sh, sw))
                yield values
        pixel = np.zeros((h, w))
        pixel[rng.integers(h), rng.integers(w)] = rng.uniform(0.05, 1.0)
        yield pixel
        yield np.zeros((h, w))


class TestWindowedBlur:
    """soften and degrade_mask blur only the support, byte for byte as the
    full-frame filter would."""

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 2.5, 8.0, 13.7])
    @pytest.mark.parametrize("with_gain", [False, True])
    def test_degrade_matches_full_frame(self, sigma, with_gain):
        rng = np.random.default_rng(int(sigma * 10) + with_gain)
        for values in _support_masks(rng):
            gain = rng.uniform(0.2, 3.0, values.shape) if with_gain else None
            out = degrade_mask(SoftMask(values), blur_sigma=sigma, gain=gain)
            assert out.values.tobytes() == _full_frame(values, sigma, gain).tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 2.5, 8.0, 13.7])
    def test_soften_matches_full_frame(self, sigma):
        rng = np.random.default_rng(int(sigma * 10))
        for values in _support_masks(rng):
            binary = values > 0
            assert soften(binary, sigma).tobytes() == _full_frame(binary, sigma).tobytes()


class TestMarkerRuns:
    def test_all_markers_sighted_in_bounds(self):
        run = generate_marker_run(seed=0)
        assert run.markers.shape == (10, 3)
        np.testing.assert_array_equal(run.markers[:, 2], 0.0)
        assert len(run.sightings) == 10
        seen = set()
        for m, frame, u, v in run.sightings:
            seen.add(m)
            assert 0 <= frame < len(run.gt_poses)
            assert 0 <= u <= 959 and 0 <= v <= 539
        assert seen == set(range(10))

    def test_marker_run_deterministic(self):
        a = generate_marker_run(seed=4)
        b = generate_marker_run(seed=4)
        np.testing.assert_array_equal(a.markers, b.markers)
        assert a.sightings == b.sightings
        assert a.sensor_log == b.sensor_log

    def test_needs_two_markers(self):
        with pytest.raises(ScenarioError, match="at least 2"):
            generate_marker_run(seed=0, n_markers=1)


class TestConfigValidation:
    def test_semi_minor_cannot_exceed_semi_major(self):
        with pytest.raises(ScenarioError, match="semi_minor"):
            SwarmShapeConfig(semi_major=3.0, semi_minor=5.0)

    def test_deform_amplitude_capped(self):
        with pytest.raises(ScenarioError, match="deform_amplitude"):
            SwarmShapeConfig(semi_major=5.0, semi_minor=3.0, deform_amplitude=0.95)

    def test_drone_path_validation(self):
        with pytest.raises(ScenarioError, match="altitude"):
            DronePathConfig(waypoints=((0.0, 0.0),), altitude=0.0, speed=1.0)
        with pytest.raises(ScenarioError, match="speed"):
            DronePathConfig(waypoints=((0.0, 0.0),), altitude=10.0, speed=0.0)
        with pytest.raises(ScenarioError, match="waypoint"):
            DronePathConfig(waypoints=(), altitude=10.0, speed=1.0)

    def test_scenario_scalar_validation(self):
        with pytest.raises(ScenarioError, match="duration"):
            make_config(duration=0)
        with pytest.raises(ScenarioError, match="8x8"):
            make_config(width=4)
        with pytest.raises(ScenarioError, match="noise_scale"):
            make_config(noise_scale=-0.5)

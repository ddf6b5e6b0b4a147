"""Scenario generator: rendering accuracy, ground truth, noise, degradation."""
import dataclasses
import functools
import hashlib
import math
import multiprocessing
import sys
import threading
from importlib import resources

import numpy as np
import pytest
from scipy import ndimage

from swarmtrack import io_formats, synth
from swarmtrack.fusion import NoiseConfig, SensorLog
from swarmtrack.geometry import (
    CameraPose,
    PixelPoint,
    backproject_image_to_ground,
    project_points,
)
from swarmtrack.synth import (
    DronePathConfig,
    ScenarioConfig,
    ScenarioError,
    SwarmPathConfig,
    SwarmShapeConfig,
    degrade_mask,
    generate_marker_run,
    make_gain_field,
    soften,
)
from swarmtrack.tracker import SoftMask, nonzero_box
from tests.conftest import frame_values, poses_of, simulate, soft_mask, traced_peak


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
        scen = simulate(make_config())
        for mask in scen.masks:
            area = mask.inner.sum()
            assert math.sqrt(area / math.pi) == pytest.approx(50.0, abs=1.0)

    def test_disc_stays_centered(self):
        scen = simulate(make_config())
        for mask in scen.masks:
            ys, xs = np.nonzero(frame_values(mask))
            assert abs(xs.mean() - 127.5) <= 0.75
            assert abs(ys.mean() - 127.5) <= 0.75

    def test_zero_softness_yields_binary_values(self):
        scen = simulate(make_config(mask_softness=0.0))
        assert set(np.unique(scen.masks[0].inner)) <= {0.0, 1.0}
        np.testing.assert_array_equal(
            frame_values(scen.masks[0]) > 0.5, scen.gt_masks[0].bits
        )

    def test_mask_integral_matches_ellipse_area(self):
        # nadir view scales uniformly by f/z; blur redistributes but
        # does not create or destroy mass away from the image border
        scen = simulate(make_config(
            width=320, height=180, focal_px=350.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            shape=SwarmShapeConfig(semi_major=6.0, semi_minor=4.0),
            mask_softness=2.0,
        ))
        expected = math.pi * 6.0 * 4.0 * (350.0 / 60.0) ** 2
        for mask in scen.masks:
            assert mask.inner.sum() == pytest.approx(expected, rel=0.02)

    def test_soft_centroid_matches_gt_track(self):
        scen = simulate(make_config(
            width=320, height=180, focal_px=350.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            shape=SwarmShapeConfig(semi_major=6.0, semi_minor=4.0),
            mask_softness=2.0,
        ))
        for t in range(0, 30, 5):
            values = frame_values(scen.masks[t])
            ys, xs = np.nonzero(values > 0)
            w = values[ys, xs]
            cx = float(np.dot(w, xs) / w.sum())
            cy = float(np.dot(w, ys) / w.sum())
            assert cx == pytest.approx(scen.track2d[t, 0], abs=0.5)
            assert cy == pytest.approx(scen.track2d[t, 1], abs=0.5)

    def test_soften_preserves_binary_when_zero(self):
        binary = np.zeros((8, 8))
        binary[3:5, 3:5] = 1.0
        box = nonzero_box(binary)
        np.testing.assert_array_equal(frame_values(soften(binary, 0.0, box)), binary)
        soft = frame_values(soften(binary, 1.0, box))
        assert soft.max() <= 1.0 and soft.min() >= 0.0
        assert 0 < soft[2, 3] < 1  # mass leaked outside the square


class TestGroundTruth:
    def test_track2d_backprojects_onto_world_track(self):
        config = make_config(
            duration=40, fps=15.0, width=320, height=180, focal_px=350.0,
            drone=DronePathConfig(
                waypoints=((-8.0, 0.0), (8.0, 0.0)), altitude=60.0, speed=2.0
            ),
            swarm=SwarmPathConfig(waypoints=((0.0, 0.0), (10.0, 5.0)), speed=0.8),
            shape=SwarmShapeConfig(semi_major=6.0, semi_minor=4.0),
        )
        scen = simulate(config)
        intr = config.intrinsics
        for t in range(40):
            u, v = scen.track2d[t]
            hit = backproject_image_to_ground(
                PixelPoint(u - intr.cx, v - intr.cy), scen.gt_poses[t], intr
            )
            assert abs(hit.x - scen.world[t, 0]) < 1e-6
            assert abs(hit.y - scen.world[t, 1]) < 1e-6

    def test_sequence_lengths_match_duration(self):
        scen = simulate(make_config(duration=17))
        assert len(scen.masks) == 17
        assert len(scen.gt_masks) == 17
        assert len(scen.sensor_log) == 17
        assert len(scen.gt_poses) == 17
        assert scen.track2d.shape == (17, 2)
        assert scen.world.shape == (17, 2)

    def test_split_produces_two_components(self):
        scen = simulate(make_config(
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
            simulate(make_config(
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
        a = simulate(make_config(seed=5))
        b = simulate(make_config(seed=5))
        for ma, mb in zip(a.masks, b.masks):
            np.testing.assert_array_equal(frame_values(ma), frame_values(mb))
        assert a.sensor_log == b.sensor_log
        np.testing.assert_array_equal(a.track2d, b.track2d)

    def test_zero_noise_scale_gives_exact_log(self):
        scen = simulate(make_config(noise_scale=0.0))
        log, poses = scen.sensor_log, scen.gt_poses.array
        assert np.array_equal(log.gps, poses[:, :3])
        assert np.array_equal(log.vel, np.zeros((len(log), 3)))  # hovering drone
        assert np.array_equal(log.att[:, 1], poses[:, 4])

    def test_gps_noise_std_matches_config(self):
        scen = simulate(make_config(
            duration=3500, fps=15.0, width=32, height=18, focal_px=30.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            shape=SwarmShapeConfig(semi_major=4.0, semi_minor=3.0),
            seed=12,
        ))
        resid = scen.sensor_log.gps - scen.gt_poses.array[:, :3]
        for axis in range(3):
            assert abs(resid[:, axis].std() - 0.5) / 0.5 < 0.05

    def test_velocity_bias_is_horizontal_with_bounded_magnitude(self):
        scen = simulate(make_config(
            duration=3500, fps=15.0, width=32, height=18, focal_px=30.0,
            drone=DronePathConfig(waypoints=((0.0, 0.0),), altitude=60.0, speed=1.0),
            shape=SwarmShapeConfig(semi_major=4.0, semi_minor=3.0),
            imu_vel_bias_sigma=0.1,
            seed=12,
        ))
        vel = scen.sensor_log.vel  # true velocity is 0
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

    @pytest.mark.parametrize(
        "width, height, gain_sigma, scale_px, name",
        [
            (32, 32, math.nan, 10.0, "gain_sigma"),
            (32, 32, math.inf, 10.0, "gain_sigma"),
            (32, 32, -math.inf, 10.0, "gain_sigma"),
            (32, 32, -0.1, 10.0, "gain_sigma"),
            (32, 32, 0.5, math.nan, "scale_px"),
            (32, 32, 0.5, 0.0, "scale_px"),
            (32, 32, 0.5, -math.inf, "scale_px"),
            (0, 32, 0.5, 10.0, "width"),
            (-3, 32, 0.5, 10.0, "width"),
            (32, 0, 0.5, 10.0, "height"),
            (32, -1, 0.5, 10.0, "height"),
        ],
    )
    def test_gain_field_rejects_bad_input(self, width, height, gain_sigma, scale_px, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            make_gain_field(width, height, gain_sigma, scale_px, np.random.default_rng(0))

    def test_gain_field_allows_infinite_scale(self):
        # One correlation length past any frame: the coarse grid is 2x2.
        field = make_gain_field(40, 30, 0.5, math.inf, np.random.default_rng(3))
        want = _reference_gain_field(40, 30, 0.5, math.inf, np.random.default_rng(3))
        assert field.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "width, height, gain_sigma, scale_px",
        [
            (640, 360, 1.0, 150.0),
            (641, 359, 0.7, 37.5),
            (97, 13, 1.3, 4.0),
            (1, 1, 1.0, 150.0),
            (1, 7, 0.5, 0.3),
            (64, 48, 0.8, 500.0),
            (333, 211, 0.0, 20.0),
        ],
    )
    def test_gain_field_matches_reference(self, width, height, gain_sigma, scale_px):
        for seed in (0, 5):
            got = make_gain_field(
                width, height, gain_sigma, scale_px, np.random.default_rng(seed)
            )
            want = _reference_gain_field(
                width, height, gain_sigma, scale_px, np.random.default_rng(seed)
            )
            assert got.shape == want.shape == (height, width)
            assert got.tobytes() == want.tobytes()

    def test_gain_field_is_frame_size(self):
        # zoom returns round(c * (n / c)) == n rows and columns; nothing
        # trims or pads the field, so this sweep is the guard.
        rng = np.random.default_rng(1)
        for n in range(1, 130):
            for scale_px in (1.0, 2.9, 64.0, 1e4):
                for width, height in ((n, 7), (5, n), (n, 131 - n)):
                    field = make_gain_field(width, height, 0.5, scale_px, rng)
                    assert field.shape == (height, width), (width, height, scale_px)
        for width, height in ((1280, 720), (1920, 1080), (1023, 769)):
            field = make_gain_field(width, height, 0.5, 150.0, rng)
            assert field.shape == (height, width)

    def test_gain_field_builds_one_frame_size_array(self):
        # One warm call of the same size first: numpy keeps about 9 KB it
        # allocates on first use, so a cold peak depends on what ran before.
        make_gain_field(640, 360, 1.0, 150.0, np.random.default_rng(0))
        peak, field = traced_peak(
            make_gain_field, 640, 360, 1.0, 150.0, np.random.default_rng(0)
        )
        assert field.shape == (360, 640)
        assert peak <= field.nbytes + 64 * 1024, peak

    def test_blur_spreads_and_dims(self):
        values = np.zeros((31, 31))
        values[15, 15] = 1.0
        out = degrade_mask(soft_mask(values), blur_sigma=2.0)
        assert frame_values(out)[15, 15] < 0.2
        assert out.inner.sum() == pytest.approx(1.0, rel=1e-6)

    def test_gain_clips_into_unit_range(self):
        values = np.full((8, 8), 0.9)
        gain = np.full((8, 8), 3.0)
        out = degrade_mask(soft_mask(values), gain=gain)
        assert out.inner.max() == 1.0

    def test_degrade_validation(self):
        # All zero: the gain shape is checked before the empty-support return.
        mask = soft_mask(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            degrade_mask(mask, blur_sigma=-1.0)
        with pytest.raises(ValueError, match="does not match"):
            degrade_mask(mask, gain=np.ones((4, 4)))

    @pytest.mark.parametrize("blur_sigma", [math.nan, math.inf, -math.inf, -1.0])
    def test_blur_sigma_must_be_finite_and_non_negative(self, blur_sigma):
        # A NaN sigma used to mean no blur, and inf an OverflowError.
        mask = soft_mask(np.eye(8))
        with pytest.raises(ValueError, match="^blur_sigma must be finite and >= 0, got "):
            degrade_mask(mask, blur_sigma=blur_sigma)

    def test_identity_degradation_is_a_no_op(self):
        rng = np.random.default_rng(8)
        values = rng.uniform(0, 1, (16, 16))
        out = degrade_mask(soft_mask(values))
        np.testing.assert_array_equal(frame_values(out), values)


def _reference_gain_field(width, height, gain_sigma, scale_px, rng):
    """Reference: the coarse draw, the zoom, then exp of a scaled copy."""
    ch = max(2, int(math.ceil(height / scale_px)) + 1)
    cw = max(2, int(math.ceil(width / scale_px)) + 1)
    coarse = ndimage.gaussian_filter(rng.standard_normal((ch, cw)), sigma=1.0)
    sd = float(coarse.std())
    if sd > 0:
        coarse /= sd
    return np.exp(gain_sigma * ndimage.zoom(coarse, (height / ch, width / cw), order=1))


# Coarse and output shapes whose last output column (axis 0: all rows of
# it are 0.0) or row (axis 1) has a rounded coordinate past the last
# sample, which zoom's constant mode sets to 0.0.
_PAST_THE_END = (((2, 8), (291, 51), 0), ((6, 7), (295, 454), 1), ((7, 3), (312, 649), 1))


def _zoom_shapes(rng):
    """(coarse, height, width) cases for the zoom oracle: a seeded sweep of
    coarse 2..29 and output 1..160 per side, up- and downsampling and
    outputs one pixel thick, coarse grids of signed zeros and subnormals,
    and shapes whose last output row or column falls past the last sample."""
    tiny = 5e-324
    for k in range(1100):
        ch, cw = (int(n) for n in rng.integers(2, 30, 2))
        h, w = (int(n) for n in rng.integers(1, 161, 2))
        if k % 10 == 0:
            h = 1
        elif k % 10 == 1:
            w = 1
        elif k % 10 == 2:
            h = int(rng.integers(1, ch + 1))  # ch >= h: downsampling
        elif k % 10 == 3:
            w = int(rng.integers(1, cw + 1))
        coarse = rng.standard_normal((ch, cw))
        if k % 7 == 0:
            kinds = rng.integers(0, 5, coarse.shape)
            coarse[kinds == 0] = 0.0
            coarse[kinds == 1] = -0.0
            coarse[kinds == 2] = tiny * rng.integers(1, 1 << 20, coarse.shape)[kinds == 2]
            coarse[kinds == 3] = -tiny * rng.integers(1, 1 << 20, coarse.shape)[kinds == 3]
        yield coarse, h, w
    for ch, cw, h, w in ((3, 4, 50, 60), (2, 2, 1, 1), (5, 3, 97, 1)):
        yield np.full((ch, cw), -0.0), h, w
        yield np.full((ch, cw), tiny), h, w
        yield np.full((ch, cw), -tiny), h, w
    for coarse_shape, (h, w), _ in _PAST_THE_END:
        yield rng.standard_normal(coarse_shape), h, w


class TestZoomLinear:
    """_zoom_linear equals ndimage.zoom's order-1 output bit for bit."""

    def test_matches_ndimage_zoom(self):
        rng = np.random.default_rng(2024)
        n = 0
        for coarse, h, w in _zoom_shapes(rng):
            ch, cw = coarse.shape
            want = ndimage.zoom(coarse, (h / ch, w / cw), order=1)
            got = synth._zoom_linear(coarse, h, w)
            assert want.shape == got.shape == (h, w)
            assert got.tobytes() == want.tobytes(), (ch, cw, h, w)
            n += 1
        assert n >= 1000

    @pytest.mark.parametrize("coarse_shape, shape, axis", _PAST_THE_END)
    def test_past_the_end_line_is_zero(self, coarse_shape, shape, axis):
        coarse = np.random.default_rng(7).standard_normal(coarse_shape)
        ch, cw = coarse_shape
        want = ndimage.zoom(coarse, (shape[0] / ch, shape[1] / cw), order=1)
        got = synth._zoom_linear(coarse, *shape)
        assert (want == 0.0).all(axis=axis).any()
        assert got.tobytes() == want.tobytes()


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


@pytest.fixture(params=["split", "unsplit"])
def blur_split(request, monkeypatch):
    """Every Gaussian pass split over two threads, or none."""
    if request.param == "split":
        monkeypatch.setattr(synth, "SPLIT_WORK", 0)
        monkeypatch.setattr(synth, "usable_cpus", lambda: 2)
    else:
        monkeypatch.setattr(synth, "SPLIT_WORK", math.inf)


@pytest.mark.usefixtures("blur_split")
class TestWindowedBlur:
    """soften and degrade_mask blur only the support, byte for byte as the
    full-frame filter would, with the passes split over two threads or not."""

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 2.5, 8.0, 13.7])
    @pytest.mark.parametrize("with_gain", [False, True])
    def test_degrade_matches_full_frame(self, sigma, with_gain):
        rng = np.random.default_rng(int(sigma * 10) + with_gain)
        for values in _support_masks(rng):
            gain = rng.uniform(0.2, 3.0, values.shape) if with_gain else None
            out = degrade_mask(soft_mask(values), blur_sigma=sigma, gain=gain)
            assert frame_values(out).tobytes() == _full_frame(values, sigma, gain).tobytes()

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 1.0, 2.5, 8.0, 13.7])
    def test_soften_matches_full_frame(self, sigma):
        rng = np.random.default_rng(int(sigma * 10))
        for values in _support_masks(rng):
            binary = values > 0
            soft = soften(binary, sigma, nonzero_box(binary))
            assert frame_values(soft).tobytes() == _full_frame(binary, sigma).tobytes()


def _two_array_blur_support(inner, support, shape, sigma, gain=None):
    """Reference: the row-wise pass on a zeroed copy of the support's
    columns, pasted into a zeroed box, then the column-wise pass into a
    new array."""
    radius = int(4.0 * sigma + 0.5) if sigma > 0 else 0
    box = tuple(
        slice(max(s.start - radius, 0), min(s.stop + radius, n)) for s, n in zip(support, shape)
    )
    if sigma > 0:
        (rows, cols), (r0, c0) = support, (box[0].start, box[1].start)
        columns = np.zeros((box[0].stop - r0, cols.stop - cols.start))
        columns[rows.start - r0 : rows.stop - r0] = inner
        block = np.zeros((box[0].stop - r0, box[1].stop - c0))
        block[:, cols.start - c0 : cols.stop - c0] = ndimage.gaussian_filter1d(
            columns, sigma, axis=0
        )
        out = ndimage.gaussian_filter1d(block, sigma, axis=1)
    else:
        out = inner.astype(float)
    if gain is not None:
        out *= gain[box]
    np.clip(out, 0.0, 1.0, out=out)
    return SoftMask(out, box, shape)


def _edge_supports(h, w, rng):
    """Supports touching each frame edge and corner, one inside, and the whole frame."""
    sh, sw = int(rng.integers(3, h // 3)), int(rng.integers(3, w // 3))
    for r0 in (0, (h - sh) // 2, h - sh):
        for c0 in (0, (w - sw) // 2, w - sw):
            yield (slice(r0, r0 + sh), slice(c0, c0 + sw))
    yield (slice(0, h), slice(0, w))


def _thin_supports():
    """(frame shape, support): one-column bands at the left edge, inside and
    at the right edge, one-row supports at the top, inside and at the
    bottom, and supports whose box is one row or one column."""
    h, w = 60, 90
    for c in (0, 45, w - 1):
        yield (h, w), (slice(20, 40), slice(c, c + 1))
    for r in (0, 30, h - 1):
        yield (h, w), (slice(r, r + 1), slice(30, 60))
    yield (1, 40), (slice(0, 1), slice(5, 30))
    yield (1, 40), (slice(0, 1), slice(39, 40))
    yield (40, 1), (slice(5, 30), slice(0, 1))
    yield (1, 1), (slice(0, 1), slice(0, 1))


@pytest.mark.usefixtures("blur_split")
class TestOneBufferBlur:
    """_blur_support's in-place passes give the two-array version's box
    and values byte for byte, with the passes split over two threads or not."""

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0, 1.5, 2.5, 4.0, 8.0])
    @pytest.mark.parametrize("with_gain", [False, True])
    def test_matches_two_array_version(self, sigma, with_gain):
        rng = np.random.default_rng(int(sigma * 10) + 100 * with_gain)
        for h, w in ((60, 90), (37, 23)):
            gain = rng.uniform(0.2, 3.0, (h, w)) if with_gain else None
            for support in _edge_supports(h, w, rng):
                size = (support[0].stop - support[0].start, support[1].stop - support[1].start)
                for inner in (rng.uniform(0.0, 1.0, size), rng.random(size) < 0.5):
                    got = synth._blur_support(inner, support, (h, w), sigma, gain)
                    want = _two_array_blur_support(inner, support, (h, w), sigma, gain)
                    assert got.box == want.box
                    assert got.inner.tobytes() == want.inner.tobytes()

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 4.0, 8.0])
    @pytest.mark.parametrize("with_gain", [False, True])
    def test_thin_supports_match_both_references(self, sigma, with_gain):
        rng = np.random.default_rng(int(sigma * 10) + 200 * with_gain)
        for shape, support in _thin_supports():
            gain = rng.uniform(0.2, 3.0, shape) if with_gain else None
            values = np.zeros(shape)
            values[support] = rng.uniform(0.05, 1.0, values[support].shape)
            got = synth._blur_support(values[support], support, shape, sigma, gain)
            want = _two_array_blur_support(values[support], support, shape, sigma, gain)
            assert got.box == want.box
            assert got.inner.tobytes() == want.inner.tobytes()
            assert frame_values(got).tobytes() == _full_frame(values, sigma, gain).tobytes()


def _blob(rng, shape=(120, 160)):
    """A soft mask with a random interior well inside the frame."""
    values = np.zeros(shape)
    values[40:80, 50:110] = rng.uniform(0.05, 1.0, (40, 60))
    return soft_mask(values)


class TestBlurHelper:
    """The helper thread of a split pass: made only when a pass splits,
    remade in a forked child, shared safely by threads that blur at once."""

    def test_one_cpu_starts_no_helper_thread(self, monkeypatch):
        monkeypatch.setattr(synth, "SPLIT_WORK", 0)
        monkeypatch.setattr(synth, "usable_cpus", lambda: 1)
        monkeypatch.setattr(synth, "_helper", None)
        before = set(threading.enumerate())
        rng = np.random.default_rng(30)
        for values in _support_masks(rng):
            degrade_mask(soft_mask(values), blur_sigma=8.0)
        assert synth._helper is None
        assert set(threading.enumerate()) == before
        # The same blurs with two CPUs do start it.
        monkeypatch.setattr(synth, "usable_cpus", lambda: 2)
        degrade_mask(_blob(rng), blur_sigma=8.0)
        assert synth._helper is not None
        synth._helper.shutdown()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork here"
    )
    def test_forked_child_blurs_after_its_parent(self, monkeypatch):
        monkeypatch.setattr(synth, "SPLIT_WORK", 0)
        monkeypatch.setattr(synth, "usable_cpus", lambda: 2)
        mask = _blob(np.random.default_rng(31))
        # The parent's blur leaves its helper's worker idle; the child
        # inherits the executor but not the thread.
        want = degrade_mask(mask, blur_sigma=8.0).inner.tobytes()

        def child():
            sys.exit(0 if degrade_mask(mask, blur_sigma=8.0).inner.tobytes() == want else 3)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=30)
        hung = proc.is_alive()
        if hung:
            proc.kill()
            proc.join()
        assert not hung
        assert proc.exitcode == 0

    def test_two_callers_at_once_get_the_one_thread_bytes(self, monkeypatch):
        rng = np.random.default_rng(32)
        masks = [_blob(rng), _blob(rng, (150, 130))]
        gain = [rng.uniform(0.2, 3.0, m.shape) for m in masks]
        want = [degrade_mask(m, 8.0, g).inner.tobytes() for m, g in zip(masks, gain)]
        monkeypatch.setattr(synth, "SPLIT_WORK", 0)
        monkeypatch.setattr(synth, "usable_cpus", lambda: 2)
        wrong = []

        def caller(i):
            for _ in range(40):
                if degrade_mask(masks[i], 8.0, gain[i]).inner.tobytes() != want[i]:
                    wrong.append(i)

        callers = [threading.Thread(target=caller, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert wrong == []


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

    def test_flies_the_documented_pass(self):
        config = generate_marker_run(seed=0).config
        assert (config.fps, config.focal_px) == (15.0, 1000.0)
        assert (config.width, config.height) == (960, 540)
        assert config.drone.waypoints == ((0.0, 0.0), (80.0, 0.0), (80.0, 80.0))
        assert (config.drone.altitude, config.drone.speed) == (40.0, 3.2)
        # 160 m at 3.2 m/s plus 4 s of margin, at 15 fps.
        assert config.duration == 810
        assert config.noise == NoiseConfig()
        assert config.imu_vel_bias_sigma == 0.14

    @pytest.mark.parametrize("width, height", [(7, 540), (960, 7), (0, 0)])
    def test_rejects_image_below_8x8(self, width, height):
        with pytest.raises(ScenarioError, match="8x8"):
            generate_marker_run(seed=0, width=width, height=height)


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

    # Every rendered camera is above the ground because of this check.
    @pytest.mark.parametrize("altitude", [0.0, -5.0, math.nan, math.inf])
    def test_altitude_must_be_finite_and_positive(self, altitude):
        with pytest.raises(ScenarioError, match="altitude: must be > 0"):
            DronePathConfig(waypoints=((0.0, 0.0),), altitude=altitude, speed=1.0)

    def test_scenario_scalar_validation(self):
        with pytest.raises(ScenarioError, match="duration"):
            make_config(duration=0)
        with pytest.raises(ScenarioError, match="8x8"):
            make_config(width=4)
        with pytest.raises(ScenarioError, match="noise_scale"):
            make_config(noise_scale=-0.5)


# -- scalar references for the array kinematics ---------------------------
# The frame-by-frame forms the generator had before it built each flight
# as arrays; every output of the array code must match them bit for bit.


def _ref_point_at(path, s):
    s = min(max(s, 0.0), path.length)
    if path.length == 0.0:
        return path.pts[0].copy()
    x = np.interp(s, path.cum, path.pts[:, 0])
    y = np.interp(s, path.cum, path.pts[:, 1])
    return np.array([x, y])


def _ref_direction_at(path, s):
    if path.length == 0.0:
        return np.array([1.0, 0.0])
    s = min(max(s, 0.0), path.length)
    i = int(np.searchsorted(path.cum, s, side="right")) - 1
    i = min(max(i, 0), len(path.seg_len) - 1)
    d = path.pts[i + 1] - path.pts[i]
    return d / path.seg_len[i]


def _ref_trapezoid_state(t, length, speed, accel):
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


def _ref_drone_state(cfg, path, t):
    s, v = _ref_trapezoid_state(t, path.length, cfg.speed, cfg.accel)
    pos = _ref_point_at(path, s)
    direction = _ref_direction_at(path, s)
    vel = np.array([v * direction[0], v * direction[1], 0.0])
    if cfg.yaw_mode == "path":
        yaw = math.degrees(math.atan2(direction[0], direction[1]))
    else:
        yaw = cfg.yaw_deg
    pose = CameraPose(
        x=float(pos[0]), y=float(pos[1]), z=cfg.altitude,
        pitch=cfg.camera_pitch_deg, yaw=yaw, roll=cfg.camera_roll_deg,
    )
    return pose, vel


def _ref_flight(config):
    return _ref_flight_of(config.drone, config.duration, config.fps)


@functools.lru_cache(maxsize=8)
def _ref_flight_of(drone, duration, fps):
    # The flight depends on neither the seed nor the noise: marker runs
    # over many seeds share one.
    path = synth._Polyline(drone.waypoints)
    states = [_ref_drone_state(drone, path, frame / fps) for frame in range(duration)]
    return [p for p, _ in states], [v for _, v in states]


def _ref_sensor_log(config, poses, vels, rng):
    scale = config.noise_scale
    theta = rng.uniform(0.0, 2.0 * math.pi)
    direction = np.array([math.cos(theta), math.sin(theta), 0.0])
    magnitude = config.imu_vel_bias_sigma * rng.uniform(0.75, 1.25)
    bias = scale * magnitude * direction
    rows = []
    for frame, (pose, vel) in enumerate(zip(poses, vels)):
        gps_noise = scale * config.noise.gps_sigma * rng.standard_normal(3)
        vel_noise = scale * config.noise.imu_vel_sigma * rng.standard_normal(3)
        gps = pose.position + gps_noise
        v = vel + bias + vel_noise
        rows.append((frame, frame / config.fps, gps, v, (pose.pitch, pose.yaw, pose.roll)))
    return SensorLog(*(list(c) for c in zip(*rows)))


def _ref_marker_layout(path, path_length, n_markers, half_swath, rng):
    """The marker layout drawn marker by marker, one uniform() pair each."""
    arcs = np.linspace(0.1 * path_length, 0.9 * path_length, n_markers)
    side = np.tile([-1.0, 1.0], (n_markers + 1) // 2)[:n_markers]
    rows = []
    for k in range(n_markers):
        s = float(arcs[k]) + float(rng.uniform(-2.0, 2.0))
        base = _ref_point_at(path, s)
        d = _ref_direction_at(path, s)
        normal = np.array([-d[1], d[0]])
        offset = side[k] * float(rng.uniform(0.6, 1.0)) * half_swath
        rows.append([base[0] + offset * normal[0], base[1] + offset * normal[1], 0.0])
    return np.asarray(rows)


def _ref_marker_run(config, n_markers, path_length):
    """Markers, sightings, log and poses of a marker run, frame by frame.

    config is the ScenarioConfig of the run under test; the markers, the
    flight, the sensor noise and the sightings are all recomputed here.
    """
    rng = np.random.default_rng(config.seed)
    altitude, focal_px = config.drone.altitude, config.focal_px
    width, height = config.width, config.height
    path = synth._Polyline(config.drone.waypoints)
    half_swath = 0.75 * (height / 2.0) / focal_px * altitude
    markers = _ref_marker_layout(path, path_length, n_markers, half_swath, rng)
    poses, vels = _ref_flight(config)
    log = _ref_sensor_log(config, poses, vels, rng)
    intr = config.intrinsics
    best = [None] * n_markers
    for frame, pose in enumerate(poses):
        uv = project_points(markers, pose, intr)
        for m in range(n_markers):
            u, v = uv[m, 0] + intr.cx, uv[m, 1] + intr.cy
            if not (0 <= u <= width - 1 and 0 <= v <= height - 1):
                continue
            r = math.hypot(uv[m, 0], uv[m, 1])
            if best[m] is None or r < best[m][0]:
                best[m] = (r, frame, u, v)
    sightings = [(m, b[1], b[2], b[3]) for m, b in enumerate(best)]
    return markers, sightings, log, poses


def _pose_hex(pose):
    # float.hex tells -0.0 from 0.0 (== does not) and rejects a non-float.
    return tuple(map(float.hex, (pose.x, pose.y, pose.z, pose.pitch, pose.yaw, pose.roll)))


def _log_bytes(log):
    # The bytes of every column tell -0.0 from 0.0, as == does not.
    return [getattr(log, name).tobytes() for name in ("frame", "t", "gps", "vel", "att")]


def _sighting_hex(sightings):
    return [(m, f, u.hex(), v.hex()) for m, f, u, v in sightings]


def _assert_marker_run_matches(seed, **kwargs):
    run = generate_marker_run(seed, **kwargs)
    markers, sightings, log, poses = _ref_marker_run(run.config, 10, 160.0)
    assert run.markers.tobytes() == markers.tobytes()
    assert _log_bytes(run.sensor_log) == _log_bytes(log)
    assert [_pose_hex(p) for p in run.gt_poses] == [_pose_hex(p) for p in poses]
    assert all(type(f) is int for _, f, _, _ in run.sightings)
    assert _sighting_hex(run.sightings) == _sighting_hex(sightings)


def _flight(waypoints, **drone):
    drone = {"altitude": 50.0, "speed": 4.0, "accel": 2.0, **drone}
    return DronePathConfig(waypoints=waypoints, **drone)


L_PATH = ((0.0, 0.0), (30.0, 0.0), (30.0, 20.0))
FLIGHTS = {
    "fixed-yaw": _flight(L_PATH, yaw_deg=25.0),
    "path-yaw": _flight(L_PATH, yaw_mode="path"),
    "odd-numbers": _flight(
        ((1.3, -0.7), (17.9, 4.1), (9.2, 23.3)), speed=2.9, accel=1.7,
        yaw_mode="path",
    ),
    "triangle": _flight(((0.0, 0.0), (3.0, 4.0)), speed=5.0, yaw_mode="path"),
    "single-waypoint": _flight(((5.0, -3.0),), yaw_mode="path"),
    "coincident-waypoints": _flight(((2.0, 2.0), (2.0, 2.0)), yaw_mode="path"),
    "duplicate-waypoints": _flight(
        ((0.0, 0.0), (0.0, 0.0), (10.0, 0.0), (10.0, 0.0), (10.0, 10.0)),
        yaw_mode="path",
    ),
    "tilted-gimbal": _flight(
        L_PATH, yaw_deg=-40.0, camera_pitch_deg=15.0, camera_roll_deg=-5.0
    ),
    # s = 0.5 * 2 * 1 * 1 lands exactly on the corner at t = 1 s (frame 2):
    # the heading there is the second leg's.
    "exact-corner": _flight(((0.0, 0.0), (1.0, 0.0), (1.0, 5.0)), yaw_mode="path"),
}


def _phase_bounds(cfg, length):
    d_ramp = cfg.speed**2 / (2.0 * cfg.accel)
    if 2.0 * d_ramp >= length:
        t_ramp = math.sqrt(cfg.accel * length) / cfg.accel
        return [t_ramp, 2.0 * t_ramp]
    t_ramp = cfg.speed / cfg.accel
    t_cruise = (length - 2.0 * d_ramp) / cfg.speed
    return [t_ramp, t_ramp + t_cruise, 2.0 * t_ramp + t_cruise]


class TestArrayKinematicsOracle:
    """The flight built as arrays matches the frame-by-frame references."""

    @pytest.mark.parametrize("name", FLIGHTS)
    @pytest.mark.parametrize("fps", [2.0, 15.0])
    def test_kinematics_match_scalar_reference(self, name, fps):
        config = make_config(drone=FLIGHTS[name], duration=int(20 * fps), fps=fps)
        poses, positions, vels, _, _ = synth._kinematics(config)
        ref_poses, ref_vels = _ref_flight(config)
        assert [_pose_hex(p) for p in poses] == [_pose_hex(p) for p in ref_poses]
        assert vels.tobytes() == np.array(ref_vels).tobytes()
        assert positions.tobytes() == np.array([p.position for p in ref_poses]).tobytes()

    @pytest.mark.parametrize("name", FLIGHTS)
    def test_phase_boundaries_match_scalar_reference(self, name):
        cfg = FLIGHTS[name]
        path = synth._Polyline(cfg.waypoints)
        t = [-1.0, 0.0, 5e-324, 1e9]
        for b in _phase_bounds(cfg, path.length):
            t += [np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)]
        poses, positions, vels = synth._drone_states(cfg, path, np.array(t))
        ref = [_ref_drone_state(cfg, path, float(ti)) for ti in t]
        assert [_pose_hex(p) for p in poses] == [_pose_hex(p) for p, _ in ref]
        assert vels.tobytes() == np.array([v for _, v in ref]).tobytes()

    @pytest.mark.parametrize("noise_scale", [0.0, 1.0, 2.5])
    def test_sensor_log_matches_per_frame_draws(self, noise_scale):
        config = make_config(
            drone=FLIGHTS["tilted-gimbal"], duration=200, fps=15.0,
            noise=NoiseConfig(0.7, 0.3, 1.0), noise_scale=noise_scale,
            imu_vel_bias_sigma=0.2, seed=11,
        )
        poses, positions, vels, _, _ = synth._kinematics(config)
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        log = synth._sensor_log(config, poses, positions, vels, rng)
        ref_poses, ref_vels = _ref_flight(config)
        ref = _ref_sensor_log(config, ref_poses, ref_vels, ref_rng)
        assert _log_bytes(log) == _log_bytes(ref)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_marker_layout_matches_per_marker_loop_over_200_seeds(self, monkeypatch):
        runs = [generate_marker_run(seed) for seed in range(200)]
        monkeypatch.setattr(synth, "_marker_layout", _ref_marker_layout)
        for seed, run in enumerate(runs):
            ref = generate_marker_run(seed)
            assert run.markers.tobytes() == ref.markers.tobytes(), seed
            assert _sighting_hex(run.sightings) == _sighting_hex(ref.sightings), seed
            assert _log_bytes(run.sensor_log) == _log_bytes(ref.sensor_log), seed
            assert run.gt_poses.array.tobytes() == ref.gt_poses.array.tobytes(), seed

    def test_marker_runs_match_reference_over_100_seeds(self):
        for seed in range(100):
            _assert_marker_run_matches(seed)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 640, "height": 360},
            {"width": 1920, "height": 1080},
            {"width": 320, "height": 180},
            {"width": 1280, "height": 720},
            {"width": 961, "height": 541},
        ],
        ids=lambda kw: f"{kw['width']}x{kw['height']}",
    )
    def test_marker_runs_match_reference_off_defaults(self, kwargs):
        for seed in (0, 1, 2):
            _assert_marker_run_matches(seed, **kwargs)

    @pytest.mark.parametrize("name", ["default_scenario.json", "degradation_scenario.json"])
    def test_write_scenario_matches_scalar_reference(self, name, tmp_path):
        text = resources.files("swarmtrack.data").joinpath(name).read_text("utf-8")
        config = dataclasses.replace(
            io_formats.scenario_config_from_json(text), duration=60
        )
        synth.write_scenario(config, tmp_path / "sim")
        n = config.duration
        poses, vels = _ref_flight(config)
        log = _ref_sensor_log(config, poses, vels, np.random.default_rng(config.seed))
        swarm_path = synth._Polyline(config.swarm.waypoints)
        world = np.array([
            synth._component_centroid(synth._swarm_components(config, f, swarm_path))
            for f in range(n)
        ])
        uv = np.array([
            synth._project_centroid(world[f], poses[f], config.intrinsics)
            for f in range(n)
        ])
        ref = tmp_path / "ref"
        ref.mkdir()
        io_formats.write_sensor_log(log, ref / "sensors.csv")
        io_formats.write_poses(poses_of(poses), config.fps, ref / "gt_poses.csv")
        io_formats.write_trajectory(
            frames=list(range(n)), uv=uv, world=world,
            lost=np.zeros(n, dtype=bool), path=ref / "gt_track.csv",
        )
        for f in ("sensors.csv", "gt_poses.csv", "gt_track.csv"):
            digest = hashlib.sha256((tmp_path / "sim" / f).read_bytes()).hexdigest()
            assert digest == hashlib.sha256((ref / f).read_bytes()).hexdigest(), f

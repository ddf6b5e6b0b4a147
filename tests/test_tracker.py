"""Particle filter: init, predict, weighting, resampling, sequence loop."""
import json
import math
from importlib import resources

import numpy as np
import pytest

from swarmtrack import synth
from swarmtrack import tracker as tracker_module
from swarmtrack.geometry import CameraMotion, CameraPose, Intrinsics
from swarmtrack.io_formats import scenario_config_from_json
from swarmtrack.tracker import (
    LOST_REINIT_AFTER,
    ParticleSet,
    SoftMask,
    TrackerConfig,
    TrackLostError,
    estimate_centroid,
    init_uniform,
    predict,
    resample_roulette,
    sample_bilinear,
    track_sequence,
    update_weights,
)
from tests.conftest import frame_values, simulate, small_scenario, soft_mask


INTR_4K = Intrinsics.centered(1000.0, 3840, 2160)
INTR = Intrinsics.centered(350.0, 320, 180)
HOVER = CameraPose(0.0, 0.0, 60.0)
STILL = CameraMotion((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def particle_set(xy, weights=None, seed=0):
    xy = np.asarray(xy, dtype=float)
    n = xy.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else np.asarray(weights, float)
    return ParticleSet(xy, w, np.random.default_rng(seed))


def disc_mask(width, height, center, radius, soft=2.0):
    """Soft disc: 1 inside, smooth falloff over a band of ~soft px."""
    ys, xs = np.mgrid[0:height, 0:width]
    d = np.hypot(xs - center[0], ys - center[1])
    values = np.clip((radius - d) / max(soft, 1e-9) + 0.5, 0.0, 1.0)
    return soft_mask(values)


class TestSoftMaskValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        values = np.full((4, 5), 0.5)
        values[2, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SoftMask(values, (slice(0, 4), slice(0, 5)), (4, 5))

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_rejects_values_outside_unit_range(self, bad):
        values = np.full((4, 5), 0.5)
        values[1, 1] = bad
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            SoftMask(values, (slice(0, 4), slice(0, 5)), (4, 5))


class TestInitUniform:
    def test_mean_near_image_center(self):
        config = TrackerConfig(n_particles=1000, seed=4)
        ps = init_uniform(INTR_4K, config)
        # per-axis CLT bound for the mean of n uniforms on [0, d-1]
        for axis, extent in ((0, 3840.0), (1, 2160.0)):
            sigma = (extent - 1.0) / np.sqrt(12.0) / np.sqrt(1000)
            assert abs(ps.xy[:, axis].mean() - (extent - 1) / 2) < 3 * sigma

    def test_same_seed_reproduces_cloud(self):
        config = TrackerConfig(n_particles=128, seed=7)
        a = init_uniform(INTR, config)
        b = init_uniform(INTR, config)
        np.testing.assert_array_equal(a.xy, b.xy)

    def test_weights_exactly_uniform(self):
        ps = init_uniform(INTR, TrackerConfig(n_particles=64))
        assert np.all(ps.weights == 1.0 / 64)


class TestPredict:
    def test_zero_motion_zero_sigma_is_identity(self):
        ps = particle_set([[10.0, 20.0], [100.0, 50.0]])
        out = predict(ps, STILL, INTR, 60.0, sigma=0.0)
        np.testing.assert_array_equal(out.xy, ps.xy)

    def test_diffusion_std_matches_sigma(self):
        n = 100_000
        ps = particle_set(np.full((n, 2), 100.0), seed=12)
        out = predict(ps, STILL, INTR, 60.0, sigma=5.0)
        moved = out.xy - 100.0
        assert abs(moved[:, 0].std() - 5.0) / 5.0 < 0.02
        assert abs(moved[:, 1].std() - 5.0) / 5.0 < 0.02

    def test_uniform_translation_shifts_all_particles_equally(self):
        # Pure camera x translation: constant flow field (-f*U/z, 0).
        ps = particle_set([[10.0, 20.0], [200.0, 90.0], [300.0, 11.0]])
        motion = CameraMotion((0.6, 0.0, 0.0), (0.0, 0.0, 0.0))
        out = predict(ps, motion, INTR, 60.0, sigma=0.0)
        shift = out.xy - ps.xy
        np.testing.assert_allclose(shift[:, 0], -350.0 * 0.6 / 60.0, atol=1e-12)
        np.testing.assert_allclose(shift[:, 1], 0.0, atol=1e-12)

    def test_weights_unchanged_by_predict(self):
        ps = particle_set([[5, 5], [9, 9]], weights=[0.25, 0.75])
        out = predict(ps, STILL, INTR, 60.0, sigma=1.0)
        np.testing.assert_array_equal(out.weights, [0.25, 0.75])


class TestBilinear:
    def test_integer_positions_hit_pixels_exactly(self):
        values = np.arange(12, dtype=float).reshape(3, 4) / 11.0
        got = sample_bilinear(soft_mask(values), np.array([2.0]), np.array([1.0]))
        assert got[0] == values[1, 2]

    def test_midpoint_of_adjacent_pixels_averages(self):
        values = np.zeros((2, 2))
        values[0, 1] = 1.0
        got = sample_bilinear(soft_mask(values), np.array([0.5]), np.array([0.0]))
        assert got[0] == pytest.approx(0.5, abs=1e-12)

    def test_outside_image_reads_zero(self):
        values = np.ones((4, 4))
        got = sample_bilinear(soft_mask(values), np.array([-0.1, 3.1]), np.array([0.0, 0.0]))
        assert got[0] == 0.0 and got[1] == 0.0


def _clip_sample_bilinear(mask, x, y):
    """Reference: sample_bilinear with the position clips as np.clip, on
    the full frame the mask stands for."""
    h, w = mask.shape
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = np.clip(x, 0, w - 1)
    yc = np.clip(y, 0, h - 1)
    inside = (xc == x) & (yc == y)
    x0 = np.minimum(np.maximum(np.floor(xc).astype(int), 0), max(w - 2, 0))
    y0 = np.minimum(np.maximum(np.floor(yc).astype(int), 0), max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    values = frame_values(mask)
    gx = 1 - fx
    top = values[y0, x0] * gx + values[y0, x1] * fx
    bot = values[y1, x0] * gx + values[y1, x1] * fx
    out = top * (1 - fy) + bot * fy
    return np.where(inside, out, 0.0)


class TestBilinearClips:
    """The position clips as maximum then fmin read what np.clip's did,
    bit for bit, on and just past every edge and at non-finite positions."""

    @staticmethod
    def _coords(n):
        last = float(n - 1)
        return [math.nan, math.inf, -math.inf, -0.0, 0.0, last, -1e-12,
                np.nextafter(0.0, -1.0), np.nextafter(last, math.inf),
                last + 1e-9, np.nextafter(last, 0.0), 0.5, last / 2.0]

    @pytest.mark.parametrize("shape", [(5, 7), (1, 6), (6, 1), (1, 1), (9, 4)])
    def test_matches_np_clip_version(self, shape):
        h, w = shape
        rng = np.random.default_rng(h * 10 + w)
        masks = [soft_mask(rng.uniform(0.0, 1.0, shape)), soft_mask(np.zeros(shape))]
        if h > 2 and w > 2:
            values = np.zeros(shape)
            values[1:-1, 1:-1] = rng.uniform(0.05, 1.0, (h - 2, w - 2))
            masks.append(soft_mask(values))
        xs, ys = self._coords(w), self._coords(h)
        x = np.repeat(xs, len(ys))
        y = np.tile(ys, len(xs))
        with np.errstate(invalid="ignore"):
            for mask in masks:
                got = sample_bilinear(mask, x, y)
                want = _clip_sample_bilinear(mask, x, y)
                assert got.tobytes() == want.tobytes()


class TestUpdateWeights:
    def test_single_supported_particle_takes_all_weight(self):
        mask = soft_mask(np.eye(4))
        ps = particle_set([[1.0, 1.0], [2.0, 1.0], [3.0, 0.0]])
        out = update_weights(ps, mask)
        np.testing.assert_allclose(out.weights, [1.0, 0.0, 0.0], atol=1e-12)

    def test_uniform_mask_value_cancels_in_normalizer(self):
        ps = particle_set([[1, 1], [2, 2], [3, 3]])
        for c in (0.05, 0.5, 1.0):
            out = update_weights(ps, soft_mask(np.full((8, 8), c)))
            np.testing.assert_allclose(out.weights, 1.0 / 3, atol=1e-12)

    def test_mask_scaling_leaves_weights_unchanged(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(0.2, 1.0, (16, 16))
        ps = particle_set(rng.uniform(0, 15, (50, 2)))
        w1 = update_weights(ps, soft_mask(values)).weights
        w2 = update_weights(ps, soft_mask(values * 0.3)).weights
        np.testing.assert_allclose(w1, w2, atol=1e-12)

    def test_all_zero_likelihood_signals_track_lost(self):
        ps = particle_set([[1, 1], [2, 2]])
        with pytest.raises(TrackLostError):
            update_weights(ps, soft_mask(np.zeros((8, 8))))


class TestResample:
    def test_degenerate_weight_clones_the_survivor(self):
        xy = np.array([[3.0, 4.0], [10.0, 10.0], [20.0, 20.0]])
        ps = particle_set(xy, weights=[1.0, 0.0, 0.0])
        out = resample_roulette(ps)
        np.testing.assert_array_equal(out.xy, np.tile([3.0, 4.0], (3, 1)))
        np.testing.assert_allclose(out.weights, 1.0 / 3)

    def test_two_category_counts_within_binomial_bounds(self):
        n = 10_000
        xy = np.zeros((n, 2))
        xy[: n // 4, 0] = 1.0  # a quarter of the particles carry 0.25 total
        w = np.full(n, 0.75 / (n - n // 4))
        w[: n // 4] = 0.25 / (n // 4)
        ps = ParticleSet(xy, w, np.random.default_rng(17))
        out = resample_roulette(ps)
        zeros = int(np.sum(out.xy[:, 0] == 0.0))
        bound = 3.0 * np.sqrt(n * 0.75 * 0.25)
        assert abs(zeros - 0.75 * n) <= bound

    def test_mean_preserved_in_expectation(self):
        rng = np.random.default_rng(23)
        xy = rng.uniform(0, 100, (200, 2))
        w = rng.uniform(0, 1, 200)
        w /= w.sum()
        ps = ParticleSet(xy, w, np.random.default_rng(5))
        target = np.array(estimate_centroid(ps))
        means = []
        for _ in range(1000):
            out = resample_roulette(ps)  # shared rng advances each call
            means.append(out.xy.mean(axis=0))
        means = np.array(means)
        se = means.std(axis=0) / np.sqrt(len(means))
        np.testing.assert_array_less(
            np.abs(means.mean(axis=0) - target), 3 * se + 1e-9
        )

    def test_ess_collapses_after_degenerate_update(self):
        def ess(ps):
            return 1.0 / float(np.dot(ps.weights, ps.weights))

        ps = particle_set(np.random.default_rng(0).uniform(0, 7, (100, 2)))
        assert ess(ps) == pytest.approx(100.0)
        values = np.zeros((8, 8))
        values[3, 3] = 1.0
        ps2 = particle_set(np.vstack([[3.0, 3.0], np.zeros((99, 2))]))
        out = update_weights(ps2, soft_mask(values))
        assert ess(out) == pytest.approx(1.0)


def _reference_resample_roulette(ps):
    """The unsorted search: every draw bisects the weight CDF on its own."""
    n = ps.xy.shape[0]
    cdf = np.cumsum(ps.weights)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, ps.rng.random(n), side="right")
    return ParticleSet(ps.xy[idx].copy(), np.full(n, 1.0 / n), ps.rng)


class _FixedDraws:
    """Stands in for the generator: random(n) returns the given draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == self.u.size
        return self.u.copy()


def _drawn_indices(weights, rng):
    """The particle index resample_roulette picks for each draw, in draw order."""
    n = len(weights)
    xy = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    return resample_roulette(ParticleSet(xy, weights, rng)).xy[:, 0].astype(np.intp)


def _guarded_cdf(weights):
    cdf = np.cumsum(weights)
    cdf[-1] = 1.0
    return cdf


def _roundoff_over_one(n):
    """n weights, the last zero, whose running sum passes 1.0 before the end."""
    for seed in range(1000):
        w = np.random.default_rng(seed).random(n - 1)
        w = np.append(w / w.sum(), 0.0)
        if np.cumsum(w)[-2] > 1.0:
            return w
    raise AssertionError(f"no seed gives a running sum over 1.0 at n={n}")


def _adversarial_weights(n):
    """Weight vectors whose CDF has flat runs, a roundoff top, or one mass."""
    cases = {"uniform": np.full(n, 1.0 / n)}
    for k in sorted({0, n // 2, n - 1}):
        one = np.zeros(n)
        one[k] = 1.0
        cases[f"all on {k}"] = one
    if n >= 3:
        k = max(1, n // 3)
        head = np.zeros(n)
        head[:k] = 1.0 / k
        cases["zero tail"] = head
        tail = np.zeros(n)
        tail[-k:] = 1.0 / k
        cases["zero head"] = tail
        holes = np.random.default_rng(n).random(n)
        holes[1::3] = 0.0  # flat runs: ties in the CDF
        cases["zero holes"] = holes / holes.sum()
        cases["roundoff top"] = _roundoff_over_one(n)
    return cases


class TestSortedDrawSearch:
    """Searching the draws in sorted order picks, for every draw, the index
    np.searchsorted(cdf, u, side="right") gives it alone."""

    @pytest.mark.parametrize("n", [1, 2, 1000, 100_000])
    def test_generator_draws_match_unsorted_search(self, n):
        for name, w in _adversarial_weights(n).items():
            got = _drawn_indices(w, np.random.default_rng(n))
            want = np.searchsorted(
                _guarded_cdf(w), np.random.default_rng(n).random(n), side="right"
            )
            np.testing.assert_array_equal(got, want, err_msg=name)

    @pytest.mark.parametrize("n", [2, 1000, 100_000])
    def test_draws_on_cdf_steps_and_repeated_draws_match(self, n):
        for name, w in _adversarial_weights(n).items():
            cdf = _guarded_cdf(w)
            edges = cdf[cdf < 1.0]
            pool = np.concatenate(
                [edges, np.nextafter(edges, 0.0), [0.0, np.nextafter(1.0, 0.0), 0.5]]
            )
            # Every CDF step, just below it, both ends, and repeats of each.
            u = np.random.default_rng(n).choice(pool, size=n)
            u[: min(n, pool.size)] = pool[:n]
            got = _drawn_indices(w, _FixedDraws(u))
            np.testing.assert_array_equal(
                got, np.searchsorted(cdf, u, side="right"), err_msg=name
            )

    @pytest.mark.parametrize("n", [1, 2, 1000])
    def test_matches_reference_resampler_and_leaves_the_same_stream(self, n):
        rng = np.random.default_rng(31)
        xy = rng.uniform(0, 100, (n, 2))
        for w in _adversarial_weights(n).values():
            a = resample_roulette(ParticleSet(xy, w, np.random.default_rng(9)))
            b = _reference_resample_roulette(ParticleSet(xy, w, np.random.default_rng(9)))
            assert a.xy.tobytes() == b.xy.tobytes()
            assert a.weights.tobytes() == b.weights.tobytes()
            assert a.rng.random() == b.rng.random()


class TestCentroid:
    def test_point_mass(self):
        ps = particle_set([[7.0, 9.0], [1.0, 1.0]], weights=[1.0, 0.0])
        assert estimate_centroid(ps) == (7.0, 9.0)

    def test_symmetric_pair(self):
        ps = particle_set([[0.0, 0.0], [10.0, 0.0]])
        assert estimate_centroid(ps) == (5.0, 0.0)

    def test_weighted_mean_by_hand(self):
        ps = particle_set([[0.0, 0.0], [3.0, 0.0]], weights=[2 / 3, 1 / 3])
        assert estimate_centroid(ps)[0] == pytest.approx(1.0, abs=1e-12)


class TestTrackSequence:
    def test_static_blob_converges_within_three_px(self):
        center = (200.0, 90.0)
        masks = [disc_mask(320, 180, center, 30.0) for _ in range(15)]
        poses = [HOVER] * 15
        config = TrackerConfig(n_particles=800, motion_noise_sigma=5.0, seed=1)
        result = track_sequence(masks, poses, INTR, config)
        err = np.hypot(
            result.centroids[10:, 0] - center[0],
            result.centroids[10:, 1] - center[1],
        )
        assert err.max() < 3.0

    def test_world_static_blob_tracked_through_drone_motion(self):
        cfg_dict = small_scenario(
            duration=40,
            drone={"waypoints": [[-8.0, 0.0], [8.0, 0.0]], "altitude": 60.0,
                   "speed": 2.0},
            seed=9,
        )
        from swarmtrack.io_formats import scenario_config_from_json
        import json
        scen = simulate(scenario_config_from_json(json.dumps(cfg_dict)))
        config = TrackerConfig(n_particles=800, motion_noise_sigma=5.0, seed=2)
        result = track_sequence(scen.masks, scen.gt_poses, INTR, config)
        # image-space track must actually move with the drone
        assert abs(result.centroids[-1, 0] - result.centroids[0, 0]) > 20.0
        from swarmtrack.geometry import PixelPoint, backproject_image_to_ground
        for t in range(10, 40):
            u, v = result.centroids[t]
            w = backproject_image_to_ground(
                PixelPoint(u - INTR.cx, v - INTR.cy), scen.gt_poses[t], INTR
            )
            err = np.hypot(w.x - scen.world[t, 0], w.y - scen.world[t, 1])
            assert err < 1.0

    def test_uniform_masks_never_lose_track(self):
        masks = [soft_mask(np.full((180, 320), 0.4)) for _ in range(20)]
        result = track_sequence(masks, [HOVER] * 20, INTR,
                                TrackerConfig(n_particles=300, seed=3))
        assert result.lost.sum() == 0

    def test_bit_identical_reruns(self):
        masks = [disc_mask(320, 180, (100 + 2 * t, 90), 25.0) for t in range(12)]
        poses = [HOVER] * 12
        config = TrackerConfig(n_particles=400, motion_noise_sigma=4.0, seed=11)
        a = track_sequence(masks, poses, INTR, config)
        b = track_sequence(masks, poses, INTR, config)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.lost, b.lost)
        for pa, pb in zip(a.particles, b.particles):
            np.testing.assert_array_equal(pa, pb)

    def test_snapshots_match_centroid_source(self):
        """particles/weights expose the set the centroid was taken from."""
        masks = [disc_mask(320, 180, (160, 90), 30.0) for _ in range(6)]
        result = track_sequence(masks, [HOVER] * 6, INTR,
                                TrackerConfig(n_particles=200, seed=8))
        for t in range(6):
            w = result.weights[t]
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            cx = float(np.dot(w, result.particles[t][:, 0]))
            cy = float(np.dot(w, result.particles[t][:, 1]))
            assert cx == pytest.approx(result.centroids[t, 0], abs=1e-9)
            assert cy == pytest.approx(result.centroids[t, 1], abs=1e-9)

    def test_empty_frames_flag_lost_and_recover(self):
        good = disc_mask(320, 180, (160, 90), 30.0)
        empty = soft_mask(np.zeros((180, 320)))
        masks = [good, good, empty, empty, good, good]
        result = track_sequence(masks, [HOVER] * 6, INTR,
                                TrackerConfig(n_particles=300, seed=5))
        assert list(result.lost) == [False, False, True, True, False, False]

    def test_consecutive_losses_respread_particles(self):
        good = disc_mask(320, 180, (160, 90), 20.0)
        empty = soft_mask(np.zeros((180, 320)))
        assert LOST_REINIT_AFTER == 30
        masks = [good] * 4 + [empty] * LOST_REINIT_AFTER
        config = TrackerConfig(n_particles=400, motion_noise_sigma=2.0, seed=6)
        result = track_sequence(masks, [HOVER] * len(masks), INTR, config)
        assert result.lost[4:].all()

        def width(xy):
            return xy[:, 0].max() - xy[:, 0].min()

        # one lost frame short of the limit the cloud is still the disc's,
        # diffused; at the limit it spans the image again
        assert width(result.particles[-2]) < 150.0
        assert width(result.particles[-1]) > 250.0

    def test_every_update_starts_from_uniform_weights(self, monkeypatch):
        """Setting the weights to the likelihood is the Bayes update only
        from a uniform prior: every frame with support is resampled, a
        lost frame never is, and each update starts from weights of
        exactly 1/n."""
        good = disc_mask(320, 180, (160, 90), 30.0)
        empty = soft_mask(np.zeros((180, 320)))
        masks = [good, good, good, empty, good, good]
        n = 300
        frame = []
        priors = []
        resampled = []

        def frames():
            for t, m in enumerate(masks):
                frame[:] = [t]
                yield m

        def recording_update(ps, mask):
            priors.append((frame[0], ps.weights.copy()))
            return update_weights(ps, mask)

        def recording_resample(ps):
            resampled.append(frame[0])
            return resample_roulette(ps)

        monkeypatch.setattr(tracker_module, "update_weights", recording_update)
        monkeypatch.setattr(tracker_module, "resample_roulette", recording_resample)
        config = TrackerConfig(n_particles=n, seed=4)
        result = track_sequence(frames(), [HOVER] * 6, INTR, config)
        assert list(result.lost) == [False, False, False, True, False, False]
        assert resampled == [0, 1, 2, 4, 5]
        assert [t for t, _ in priors] == list(range(6))
        for t, w in priors:
            assert np.all(w == 1.0 / n), t

    def test_more_masks_than_poses_rejected(self):
        masks = [disc_mask(320, 180, (160, 90), 20.0)] * 3
        with pytest.raises(ValueError, match="poses"):
            track_sequence(masks, [HOVER] * 2, INTR, TrackerConfig(n_particles=16))

    def test_mask_size_mismatch_rejected(self):
        masks = [soft_mask(np.zeros((90, 160)))]
        with pytest.raises(ValueError, match="mask is"):
            track_sequence(masks, [HOVER], INTR, TrackerConfig(n_particles=16))


class TestSortedSearchInTheLoop:
    @pytest.fixture(scope="class")
    def degraded(self):
        """The bundled degradation scenario's first 50 frames, blurred and dimmed."""
        doc = json.loads(
            resources.files("swarmtrack.data").joinpath("degradation_scenario.json").read_text()
        )
        doc["duration"] = 50
        config = scenario_config_from_json(json.dumps(doc))
        scen = simulate(config)
        gain = synth.make_gain_field(
            config.width, config.height, 1.0, 150.0, np.random.default_rng(0)
        )
        masks = [synth.degrade_mask(m, blur_sigma=4.0, gain=gain) for m in scen.masks]
        return masks, scen.gt_poses, config.intrinsics

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_track_sequence_matches_unsorted_search(self, degraded, seed, monkeypatch):
        masks, poses, intr = degraded
        config = TrackerConfig(n_particles=1000, motion_noise_sigma=6.0, seed=seed)
        got = track_sequence(masks, poses, intr, config, keep_particles=False)
        monkeypatch.setattr(tracker_module, "resample_roulette", _reference_resample_roulette)
        want = track_sequence(masks, poses, intr, config, keep_particles=False)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        np.testing.assert_array_equal(got.lost, want.lost)


class TestConfigValidation:
    def test_particle_floor(self):
        with pytest.raises(ValueError):
            TrackerConfig(n_particles=1)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(motion_noise_sigma=-1.0)

    def test_weights_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ParticleSet(np.zeros((2, 2)), np.array([0.7, 0.7]),
                        np.random.default_rng(0))

    @pytest.mark.parametrize(
        "weights",
        [
            [1.5, -0.5],
            [-0.0, 1.0, -1e-300],
            [math.nan, 1.0],
            [0.5, math.nan, 0.5],
            [math.inf, 0.0],
            [-math.inf, 1.0],
            [math.inf, -math.inf],
            [math.nan, -1.0],
        ],
    )
    def test_weights_must_be_finite_and_non_negative(self, weights):
        w = np.array(weights)
        with pytest.raises(ValueError, match="^weights must be finite and non-negative$"):
            ParticleSet(np.zeros((len(w), 2)), w, np.random.default_rng(0))

    def test_overflowing_sum_is_not_one(self):
        # Every weight is finite and non-negative; only the sum is inf.
        w = np.array([1e308, 1e308, 0.0])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^weights must sum to 1, got inf$"):
                ParticleSet(np.zeros((3, 2)), w, np.random.default_rng(0))

    def test_signed_zero_weight_is_valid(self):
        ps = ParticleSet(np.zeros((3, 2)), np.array([-0.0, 0.25, 0.75]),
                         np.random.default_rng(0))
        assert ps.weights.tolist() == [-0.0, 0.25, 0.75]

"""Evaluation metrics: SDR, mask overlap scores, distance consistency."""
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

from swarmtrack import fusion, metrics
from swarmtrack.geometry import Intrinsics, backproject_pixels
from swarmtrack.metrics import (
    MaskScoreAccumulator,
    MetricError,
    Trajectory2D,
    framewise_centroid_baseline,
    relative_distance_error,
    sdr,
)
from swarmtrack.shapes import BinaryMask
from swarmtrack.synth import generate_marker_run
from tests.conftest import soft_mask, traced_peak


def frame_scores(pred, ref):
    """The scores MaskScoreAccumulator.add gives one frame of bool arrays."""
    return MaskScoreAccumulator().add(BinaryMask(pred), BinaryMask(ref))


def traj(points):
    return Trajectory2D({f: (float(x), float(y)) for f, (x, y) in points.items()})


class TestTrajectory2D:
    def test_frames_sorted_and_typed(self):
        t = traj({5: (1, 2), 0: (3, 4), 2: (5, 6)})
        assert list(t.points) == [0, 2, 5]
        assert t.points[0] == (3.0, 4.0)

    def test_negative_frame_rejected(self):
        with pytest.raises(MetricError, match="negative"):
            Trajectory2D({-1: (0.0, 0.0)})

    def test_non_finite_point_rejected(self):
        with pytest.raises(MetricError, match="non-finite"):
            Trajectory2D({0: (np.nan, 0.0)})


class TestSdr:
    def test_perfect_track_scores_100(self):
        t = traj({i: (i, 2 * i) for i in range(10)})
        assert sdr(t, t, radius=1.0) == 100.0

    def test_all_misses_score_0(self):
        pred = traj({i: (0, 0) for i in range(5)})
        ref = traj({i: (100, 100) for i in range(5)})
        assert sdr(pred, ref, radius=10.0) == 0.0

    def test_half_hits_score_50(self):
        pred = traj({0: (0, 0), 1: (0, 0), 2: (50, 0), 3: (50, 0)})
        ref = traj({i: (0, 0) for i in range(4)})
        assert sdr(pred, ref, radius=5.0) == 50.0

    def test_error_exactly_at_radius_counts_as_hit(self):
        pred = traj({0: (3.0, 4.0)})
        ref = traj({0: (0.0, 0.0)})
        assert sdr(pred, ref, radius=5.0) == 100.0

    def test_only_common_frames_count(self):
        pred = traj({0: (0, 0), 1: (0, 0), 2: (99, 99)})
        ref = traj({1: (0, 0), 2: (0, 0), 3: (0, 0)})
        # common frames 1 and 2; only frame 1 is a hit
        assert sdr(pred, ref, radius=1.0) == 50.0

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(7)
        pred = traj({i: tuple(rng.uniform(0, 100, 2)) for i in range(60)})
        ref = traj({i: tuple(rng.uniform(0, 100, 2)) for i in range(60)})
        rates = [sdr(pred, ref, radius=r) for r in (5, 10, 20, 40, 80, 160)]
        assert all(a <= b for a, b in zip(rates, rates[1:]))

    def test_disjoint_frames_rejected(self):
        with pytest.raises(MetricError, match="no annotated frames"):
            sdr(traj({0: (0, 0)}), traj({1: (0, 0)}), radius=1.0)

    def test_bad_radius_rejected(self):
        t = traj({0: (0, 0)})
        for radius in (0.0, -3.0, np.nan):
            with pytest.raises(MetricError):
                sdr(t, t, radius=radius)


class TestMaskScores:
    def test_identical_masks(self):
        m = np.zeros((6, 6), dtype=bool)
        m[2:4, 2:5] = True
        s = frame_scores(m, m)
        assert (s.iou, s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0, 1.0)
        assert not s.degenerate

    def test_disjoint_masks(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = True
        b[3, 3] = True
        s = frame_scores(a, b)
        assert (s.iou, s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0, 0.0)

    def test_half_coverage_by_hand(self):
        ref = np.ones((4, 4), dtype=bool)
        pred = np.zeros((4, 4), dtype=bool)
        pred[:, :2] = True  # tp=8, fp=0, fn=8
        s = frame_scores(pred, ref)
        assert s.iou == pytest.approx(0.5)
        assert s.precision == 1.0
        assert s.recall == pytest.approx(0.5)
        assert s.f1 == pytest.approx(2 / 3)

    def test_both_empty_is_degenerate_perfect(self):
        s = frame_scores(np.zeros((3, 3), dtype=bool), np.zeros((3, 3), dtype=bool))
        assert s.degenerate
        assert (s.iou, s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricError, match="differ"):
            frame_scores(np.zeros((3, 3), dtype=bool), np.zeros((3, 4), dtype=bool))

    def test_f1_never_below_iou(self):
        # f1 = 2*iou / (1 + iou), so f1 >= iou always
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = rng.random((8, 8)) > 0.6
            b = rng.random((8, 8)) > 0.6
            s = frame_scores(a, b)
            assert s.f1 >= s.iou - 1e-12


class TestAccumulator:
    def test_micro_pools_counts_macro_averages(self):
        acc = MaskScoreAccumulator()
        ref_a = np.zeros((2, 4), dtype=bool)
        ref_a[0] = True  # 4 positives
        pred_a = np.zeros((2, 4), dtype=bool)
        pred_a[0, :2] = True  # tp=2 fn=2
        acc.add(BinaryMask(pred_a), BinaryMask(ref_a))
        ref_b = np.zeros((2, 4), dtype=bool)
        ref_b[1, 0] = True
        pred_b = np.zeros((2, 4), dtype=bool)
        pred_b[1, :] = True  # tp=1 fp=3
        acc.add(BinaryMask(pred_b), BinaryMask(ref_b))
        micro = acc.micro()
        assert micro.iou == pytest.approx(3 / 8)
        assert micro.precision == pytest.approx(3 / 6)
        assert micro.recall == pytest.approx(3 / 5)
        assert micro.f1 == pytest.approx(6 / 11)
        macro = acc.macro()
        assert macro.precision == pytest.approx((1.0 + 0.25) / 2)
        assert macro.recall == pytest.approx((0.5 + 1.0) / 2)
        assert macro.f1 == pytest.approx((2 / 3 + 0.4) / 2)
        assert len(acc) == 2

    def test_degenerate_frames_score_one_in_macro(self):
        acc = MaskScoreAccumulator()
        empty = np.zeros((3, 3), dtype=bool)
        acc.add(BinaryMask(empty), BinaryMask(empty))
        full = np.ones((3, 3), dtype=bool)
        acc.add(BinaryMask(empty), BinaryMask(full))  # recall 0
        macro = acc.macro()
        assert macro.recall == pytest.approx(0.5)
        micro = acc.micro()  # pooled counts ignore the degenerate frame
        assert micro.recall == 0.0

    def test_empty_accumulator_rejected(self):
        acc = MaskScoreAccumulator()
        with pytest.raises(MetricError):
            acc.micro()
        with pytest.raises(MetricError):
            acc.macro()


class TestRelativeDistanceError:
    def test_identical_sets_have_zero_error(self):
        pts = np.array([[0.0, 0.0], [3.0, 1.0], [7.0, 5.0]])
        mean, std = relative_distance_error(pts, pts)
        assert mean == 0.0 and std == 0.0

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(13)
        ref = rng.uniform(-50, 50, (20, 2))
        ang = 0.7
        rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        moved = ref @ rot.T + np.array([120.0, -40.0])
        mean, std = relative_distance_error(moved, ref)
        assert mean < 1e-9 and std < 1e-9

    def test_two_point_example_by_hand(self):
        pred = np.array([[0.0, 0.0], [3.0, 0.0]])
        ref = np.array([[0.0, 0.0], [4.0, 0.0]])
        mean, std = relative_distance_error(pred, ref)
        assert mean == pytest.approx(1.0)
        assert std == 0.0

    def test_uniform_scaling_error_equals_scale_excess(self):
        ref = np.array([[0.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        mean, _ = relative_distance_error(1.5 * ref, ref)
        dists = [2.0, 2.0, np.hypot(2, 2)]
        assert mean == pytest.approx(0.5 * np.mean(dists))

    def test_bad_inputs_rejected(self):
        pts = np.zeros((3, 2))
        with pytest.raises(MetricError, match="shape"):
            relative_distance_error(pts, np.zeros((4, 2)))
        with pytest.raises(MetricError, match="at least 2"):
            relative_distance_error(pts[:1], pts[:1])
        with pytest.raises(MetricError):
            relative_distance_error(np.zeros(3), np.zeros(3))


def _all_pairs_error(pred: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Reference: every pair's error in one array, then numpy's mean and std."""
    i, j = np.triu_indices(len(pred), 1)
    errors = np.abs(
        metrics._pair_distances(pred, i, j) - metrics._pair_distances(ref, i, j)
    )
    return float(errors.mean()), float(errors.std())


def _triu_walk(pred: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Reference: the row-block walk with each block's pairs taken from
    np.triu_indices, as relative_distance_error walked them before it
    built the pair indices itself."""
    n = len(pred)
    row_end = np.cumsum(np.arange(n - 1, 0, -1))
    count, mean, m2 = 0, 0.0, 0.0
    a = 0
    while a < n - 1:
        b = max(a + 1, int(np.searchsorted(row_end, count + metrics._PAIR_BLOCK, side="right")))
        i, j = np.triu_indices(b - a, 1, n - a)
        i += a
        j += a
        errors = np.abs(metrics._pair_distances(pred, i, j) - metrics._pair_distances(ref, i, j))
        k = len(errors)
        block_mean = errors.sum() / k
        errors -= block_mean
        errors *= errors
        block_m2 = errors.sum()
        count += k
        delta = block_mean - mean
        mean += delta * (k / count)
        m2 += block_m2 + delta * delta * ((count - k) * k / count)
        a = b
    return float(mean), float(np.sqrt(m2 / count))


class TestBlockedPairs:
    """The row-block walk over the upper triangle against the all-pairs
    formula, and over several blocks bit for bit against _triu_walk."""

    @staticmethod
    def _points(n, dim, seed):
        rng = np.random.default_rng(seed)
        ref = rng.uniform(-300.0, 300.0, (n, dim))
        return ref + rng.normal(0.0, 0.5, (n, dim)), ref

    @pytest.mark.parametrize("n", [2, 3, 75, 900, 1023, 1024])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_block_is_bitwise_all_pairs(self, n, dim):
        pred, ref = self._points(n, dim, n + dim)
        got = relative_distance_error(pred, ref)
        assert _bits(got).tolist() == _bits(_all_pairs_error(pred, ref)).tolist()

    @pytest.mark.parametrize("n", [1025, 1500, 1800])
    def test_many_blocks_agree_with_all_pairs(self, n):
        pred, ref = self._points(n, 2, n)
        got = relative_distance_error(pred, ref)
        np.testing.assert_allclose(got, _all_pairs_error(pred, ref), rtol=1e-12, atol=0)
        assert _bits(got).tolist() == _bits(_triu_walk(pred, ref)).tolist()

    @pytest.mark.parametrize("block", [1, 7, 48, 49, 50, 300])
    def test_block_edges_cover_every_pair_once(self, monkeypatch, block):
        # 50 points: rows hold 49 down to 1 pairs, so small blocks take one
        # row even when it holds more pairs than the block.
        pred, ref = self._points(50, 3, block)
        want = _all_pairs_error(pred, ref)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", block)
        got = relative_distance_error(pred, ref)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert _bits(got).tolist() == _bits(_triu_walk(pred, ref)).tolist()

    def test_memory_is_bounded(self):
        # All pairs at once peaked at 448 MB here.
        pred, ref = self._points(4000, 2, 4)
        peak, _ = traced_peak(relative_distance_error, pred, ref)
        assert peak <= 40_000_000, peak



class TestPairIndices:
    """The pair indices built from arange and repeat are np.triu_indices'
    pairs in its order, so every sum keeps its bits."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bitwise_equal_to_triu_indices_at_every_small_size(self, dim):
        for n in range(2, 61):
            pred, ref = TestBlockedPairs._points(n, dim, 100 * dim + n)
            got = relative_distance_error(pred, ref)
            assert _bits(got).tolist() == _bits(_triu_walk(pred, ref)).tolist(), n

    def test_the_indices_are_triu_indices(self, monkeypatch):
        # Every block's (i, j) as _pair_distances receives them, against
        # the rows of np.triu_indices(n, 1) in order.
        seen = []

        def record(points, i, j):
            seen.append((i.copy(), j.copy()))
            return np.zeros(len(i))

        monkeypatch.setattr(metrics, "_pair_distances", record)
        monkeypatch.setattr(metrics, "_PAIR_BLOCK", 40)
        pred, ref = TestBlockedPairs._points(30, 2, 0)
        relative_distance_error(pred, ref)
        i = np.concatenate([blk[0] for blk in seen[::2]])
        j = np.concatenate([blk[1] for blk in seen[::2]])
        want_i, want_j = np.triu_indices(30, 1)
        assert i.tolist() == want_i.tolist() and j.tolist() == want_j.tolist()
        assert len(seen) > 2  # several blocks

    def test_no_index_array_outlives_the_call(self):
        # 900 points, the size eval scores: 404,550 pairs, 3.2 MB per index
        # array. What the call leaves allocated must be far below that,
        # and any array the module keeps must be read-only.
        pred, ref = TestBlockedPairs._points(900, 2, 9)
        tracemalloc.start()
        try:
            relative_distance_error(pred, ref)
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert left < 64_000, left
        kept = [v for v in vars(metrics).values() if isinstance(v, np.ndarray)]
        assert all(not v.flags.writeable for v in kept)

def _numpy_pdist(points: np.ndarray) -> np.ndarray:
    return metrics._pair_distances(points, *np.triu_indices(len(points), 1))


def _bits(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestPairDistancesOracle:
    """The numpy pair distances equal scipy's pdist bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_bitwise_equal_to_pdist_over_sizes_and_scales(self, dim):
        rng = np.random.default_rng(dim)
        for n in range(2, 61):
            for scale in np.logspace(-3, 5, 9):
                pts = rng.normal(size=(n, dim)) * scale + rng.uniform(-100, 100, dim) * scale
                np.testing.assert_array_equal(_bits(_numpy_pdist(pts)), _bits(pdist(pts)))

    def test_duplicate_points_give_exact_zeros(self):
        pts = np.array([[1.5, -2.0, 3.0], [1.5, -2.0, 3.0], [0.0, 4.0, 1.0], [1.5, -2.0, 3.0]])
        got = _numpy_pdist(pts)
        np.testing.assert_array_equal(_bits(got), _bits(pdist(pts)))
        assert (_bits(got[[0, 2, 4]]) == 0).all()  # +0.0, not -0.0

    def test_nan_input_gives_nan(self):
        pts = np.random.default_rng(5).normal(size=(6, 2))
        pts[2, 1] = np.nan
        got, ref = _numpy_pdist(pts), pdist(pts)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
        assert np.isnan(got).sum() == 5
        np.testing.assert_array_equal(_bits(got[~np.isnan(got)]), _bits(ref[~np.isnan(ref)]))

    def test_relative_distance_error_matches_pdist_formula_on_marker_runs(self):
        for seed in range(25):
            run = generate_marker_run(seed)
            cfg = run.config
            intr = Intrinsics.centered(cfg.focal_px, cfg.width, cfg.height)
            poses = fusion.fuse_log(run.sensor_log, cfg.noise, cfg.fps, cfg.duration)
            est = np.zeros((len(run.markers), 2))
            for idx, frame, u, v in run.sightings:
                est[idx] = backproject_pixels(u - intr.cx, v - intr.cy, poses[frame], intr)
            gt = run.markers[:, :2]
            errors = np.abs(pdist(est) - pdist(gt))
            got = relative_distance_error(est, gt)
            assert _bits(got).tolist() == _bits([errors.mean(), errors.std()]).tolist(), seed


class TestCentroidBaseline:
    def test_weighted_centroid_of_bright_pixels(self):
        values = np.zeros((5, 5))
        values[2, 1] = 1.0
        values[2, 3] = 0.5
        t = framewise_centroid_baseline([soft_mask(values)])
        x, y = t.points[0]
        assert x == pytest.approx((1.0 + 0.5 * 3) / 1.5)
        assert y == pytest.approx(2.0)

    def test_subthreshold_pixels_ignored(self):
        values = np.zeros((5, 5))
        values[2, 2] = 0.9
        values[0, 0] = 0.4  # below the 0.5 threshold
        t = framewise_centroid_baseline([soft_mask(values)])
        assert t.points[0] == (2.0, 2.0)

    @pytest.mark.parametrize(
        "value, counted",
        [(np.nextafter(0.5, 0.0), False), (0.5, True), (np.nextafter(0.5, 1.0), True)],
    )
    def test_threshold_is_half_inclusive(self, value, counted):
        values = np.zeros((5, 5))
        values[2, 0] = 1.0
        values[2, 4] = value
        x, y = framewise_centroid_baseline([soft_mask(values)]).points[0]
        assert x == pytest.approx(4.0 * value / (1.0 + value) if counted else 0.0)
        assert y == 2.0

    def test_image_center_before_first_detection(self):
        empty = soft_mask(np.zeros((5, 9)))
        t = framewise_centroid_baseline([empty, empty])
        assert t.points[0] == (4.0, 2.0)
        assert t.points[1] == (4.0, 2.0)

    def test_blank_frames_carry_last_centroid_forward(self):
        values = np.zeros((5, 5))
        values[1, 1] = 1.0
        t = framewise_centroid_baseline(
            [soft_mask(values), soft_mask(np.zeros((5, 5)))]
        )
        assert t.points[1] == (1.0, 1.0)

    def test_no_masks_rejected(self):
        with pytest.raises(MetricError, match="no masks"):
            framewise_centroid_baseline([])

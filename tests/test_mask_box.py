"""SoftMask.box: every producer's box holds the support, every consumer
that reads only the box gives the full-frame result byte for byte, and a
mask stores its box (with a one-pixel zero ring) and nothing else."""
import json
import math
from importlib import resources

import numpy as np
import pytest

from swarmtrack import io_formats, synth
from swarmtrack.io_formats import quantize_mask, read_mask, write_mask
from swarmtrack.metrics import framewise_centroid_baseline
from swarmtrack.synth import (
    DronePathConfig,
    SwarmPathConfig,
    SwarmShapeConfig,
    degrade_mask,
)
from swarmtrack.tracker import SoftMask, _ring_box, nonzero_box, sample_bilinear
from tests.conftest import frame_values, invoke_cli, simulate, soft_mask, write_json
from tests.test_synth import _full_frame, _support_masks, make_config

SIGMAS = [0.0, 1.0, 8.0, 13.7]


def _outside(values, box):
    """Copy of values with the box zeroed: what must be exactly 0.0."""
    rest = values.copy()
    rest[box] = 0.0
    return rest


def _assert_box_holds(mask):
    assert mask.box is not None
    assert not np.any(_outside(frame_values(mask), mask.box))


def _pgm(values):
    h, w = values.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + quantize_mask(values).tobytes()


def _reference_baseline(masks, threshold):
    """The full-frame frame-wise centroid: every pixel thresholded."""
    points, last = {}, None
    for i, mask in enumerate(masks):
        values = frame_values(mask)
        ys, xs = np.nonzero(values >= threshold)
        w = values[ys, xs]
        if w.sum() > 0:  # passing pixels of zero total weight detect nothing
            last = (float(np.dot(w, xs) / w.sum()), float(np.dot(w, ys) / w.sum()))
        elif last is None:
            last = ((values.shape[1] - 1) / 2.0, (values.shape[0] - 1) / 2.0)
        points[i] = last
    return points


def _read_back(tmp_path, values_list):
    """Masks as read_mask returns them, after a full-frame quantize."""
    masks = []
    for i, values in enumerate(values_list):
        path = tmp_path / f"{i:06d}.pgm"
        path.write_bytes(_pgm(values))
        masks.append(read_mask(path))
    return masks


class TestNonzeroBox:
    def test_is_the_tight_box(self):
        rng = np.random.default_rng(0)
        for values in _support_masks(rng):
            rows, cols = nonzero_box(values)
            ys, xs = np.nonzero(values)
            if ys.size == 0:
                assert (rows, cols) == (slice(0, 0), slice(0, 0))
                continue
            assert (rows.start, rows.stop) == (ys.min(), ys.max() + 1)
            assert (cols.start, cols.stop) == (xs.min(), xs.max() + 1)


class TestReadMask:
    def test_box_holds_support_and_values_equal_full_divide(self, tmp_path):
        rng = np.random.default_rng(1)
        values_list = list(_support_masks(rng))
        for values, mask in zip(values_list, _read_back(tmp_path, values_list)):
            grid = quantize_mask(values)
            _assert_box_holds(mask)
            assert mask.box == nonzero_box(grid)
            assert frame_values(mask).tobytes() == (grid / 255.0).tobytes()

    def test_all_zero_mask_has_empty_box(self, tmp_path):
        (mask,) = _read_back(tmp_path, [np.zeros((7, 9))])
        assert mask.box == (slice(0, 0), slice(0, 0))
        assert not frame_values(mask).any()


class TestSimulatePath:
    @pytest.mark.parametrize("softness", [0.0, 1.0, 8.0, 13.7])
    def test_render_box_holds_the_full_frame_blur(self, softness):
        # The swarm drifts and splits near the left edge, where the kernel
        # radius reaches past the image and the box is clamped.
        margin_m = (3.0 * softness + 2.0 + 40.0) * 100.0 / 1000.0
        start = -12.8 + margin_m
        config = make_config(
            duration=12,
            mask_softness=softness,
            swarm=SwarmPathConfig(waypoints=((start, 0.0), (start + 4.0, 0.0)), speed=3.0),
            shape=SwarmShapeConfig(semi_major=3.0, semi_minor=2.0, split_frame=6,
                                   split_speed=1.0),
        )
        scen = simulate(config)
        for soft, gt in zip(scen.masks, scen.gt_masks):
            _assert_box_holds(soft)
            assert frame_values(soft).tobytes() == _full_frame(gt.bits, softness).tobytes()

    def test_swarm_in_each_corner_clamps_box_to_image(self):
        # A drone offset from the swarm puts it in each image corner, close
        # enough that the blur kernel's radius reaches past both edges.
        for dx, dy in ((-8.0, -8.0), (-8.0, 8.0), (8.0, -8.0), (8.0, 8.0)):
            config = make_config(
                duration=2,
                mask_softness=8.0,
                drone=DronePathConfig(waypoints=((dx, dy),), altitude=100.0, speed=1.0),
                shape=SwarmShapeConfig(semi_major=2.0, semi_minor=2.0),
            )
            scen = simulate(config)
            for soft, gt in zip(scen.masks, scen.gt_masks):
                _assert_box_holds(soft)
                starts_or_ends = [s.start == 0 or s.stop == n
                                  for s, n in zip(soft.box, soft.shape)]
                assert all(starts_or_ends)
                assert frame_values(soft).tobytes() == _full_frame(gt.bits, 8.0).tobytes()


class TestDegradeMask:
    @pytest.mark.parametrize("sigma", SIGMAS)
    @pytest.mark.parametrize("with_gain", [False, True])
    def test_chained_twice_matches_full_frame(self, sigma, with_gain):
        rng = np.random.default_rng(int(sigma * 10) + 100 * with_gain)
        for values in _support_masks(rng):
            gain = rng.uniform(0.2, 3.0, values.shape) if with_gain else None
            expected = _full_frame(_full_frame(values, sigma, gain), sigma, gain)
            h, w = values.shape
            for box in (nonzero_box(values), (slice(0, h), slice(0, w))):
                mask = SoftMask(values[box], box, values.shape)
                once = degrade_mask(mask, blur_sigma=sigma, gain=gain)
                twice = degrade_mask(once, blur_sigma=sigma, gain=gain)
                _assert_box_holds(once)
                _assert_box_holds(twice)
                assert frame_values(twice).tobytes() == expected.tobytes()

    def test_all_zero_mask_stays_zero_with_empty_box(self):
        out = degrade_mask(soft_mask(np.zeros((6, 8))), blur_sigma=3.0, gain=np.ones((6, 8)))
        assert out.box == (slice(0, 0), slice(0, 0)) and not frame_values(out).any()


class TestWriteMask:
    @pytest.mark.parametrize("sigma", SIGMAS)
    def test_bytes_equal_full_frame_quantize(self, tmp_path, sigma):
        rng = np.random.default_rng(int(sigma * 10) + 7)
        for i, values in enumerate(_support_masks(rng)):
            gain = rng.uniform(0.2, 3.0, values.shape)
            box = nonzero_box(values)
            for j, mask in enumerate((
                SoftMask(values[box], box, values.shape),
                degrade_mask(soft_mask(values), blur_sigma=sigma, gain=gain),
            )):
                path = tmp_path / f"{i}-{j}.pgm"
                write_mask(mask, path)
                assert path.read_bytes() == _pgm(frame_values(mask))


class TestFramewiseBaseline:
    # _support_masks yields 11 masks per image size, in this order.
    @pytest.mark.parametrize("block", range(4), ids=["40x60", "6x45", "45x3", "2x2"])
    def test_matches_full_frame_reference(self, tmp_path, block):
        rng = np.random.default_rng(3)
        supports = list(_support_masks(rng))[11 * block : 11 * block + 11]
        # Empty frames first: the image center, then carried centroids.
        blank = np.zeros_like(supports[0])
        values_list = [blank] + supports + [blank.copy()]
        h, w = blank.shape
        values_list[5][3 % h, 4 % w] = 1.0
        masks = _read_back(tmp_path, values_list)
        got = framewise_centroid_baseline(masks)
        assert got.points == _reference_baseline(masks, 0.5)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 4.0, 13.7])
    def test_matches_reference_on_degraded_scenario_masks(self, sigma):
        scen = simulate(make_config(duration=6, mask_softness=1.5))
        gain = synth.make_gain_field(256, 256, 1.0, 60.0, np.random.default_rng(4))
        masks = [degrade_mask(m, blur_sigma=sigma, gain=gain) for m in scen.masks]
        got = framewise_centroid_baseline(masks)
        assert got.points == _reference_baseline(masks, 0.5)


def _full_frame_message(values):
    """The message a check of every pixel gives."""
    lo, hi = float(values.min()), float(values.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return "mask contains non-finite values"
    return f"mask values must lie in [0, 1], got [{lo}, {hi}]"


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.01, 1.01])
    @pytest.mark.parametrize("where", [(3, 5), (0, 0), (5, 8)], ids=["inside", "corner", "far"])
    def test_derived_box_rejects_with_full_frame_message(self, bad, where):
        values = np.zeros((6, 9))
        values[2:4, 3:7] = 0.5
        values[where] = bad
        with pytest.raises(ValueError) as err:
            soft_mask(values)
        assert str(err.value) == _full_frame_message(values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.01, 1.01])
    def test_given_box_rejects_bad_value_inside_it(self, bad):
        # A box wider than the support: its own zeros join the range.
        values = np.zeros((6, 9))
        values[2:4, 3:7] = 0.5
        values[3, 5] = bad
        box = (slice(1, 5), slice(2, 8))
        with pytest.raises(ValueError) as err:
            SoftMask(values[box], box, values.shape)
        assert str(err.value) == _full_frame_message(values)

    def test_full_frame_is_boxed_to_its_nonzeros(self):
        values = np.zeros((6, 9))
        values[1, 2] = values[4, 6] = 0.25
        assert soft_mask(values).box == (slice(1, 5), slice(2, 7))
        assert soft_mask(np.zeros((3, 3))).box == (slice(0, 0), slice(0, 0))


def test_scenario_masks_round_trip_through_disk_with_tight_box(tmp_path):
    scen = simulate(make_config(duration=3, mask_softness=1.5))
    for i, mask in enumerate(scen.masks):
        path = tmp_path / f"{i:06d}.pgm"
        io_formats.write_mask(mask, path)
        back = read_mask(path)
        assert back.box == nonzero_box(quantize_mask(frame_values(mask)))
        assert path.read_bytes() == _pgm(frame_values(mask))


def _reference_bilinear(values, x, y):
    """Bilinear read of the full (h, w) frame at float positions, 0 outside."""
    h, w = values.shape
    inside = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xc = np.clip(x, 0, w - 1)
    yc = np.clip(y, 0, h - 1)
    x0 = np.clip(np.floor(xc).astype(int), 0, max(w - 2, 0))
    y0 = np.clip(np.floor(yc).astype(int), 0, max(h - 2, 0))
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xc - x0
    fy = yc - y0
    top = values[y0, x0] * (1 - fx) + values[y0, x1] * fx
    bot = values[y1, x0] * (1 - fx) + values[y1, x1] * fx
    out = top * (1 - fy) + bot * fy
    return np.where(inside, out, 0.0)


def _probe_positions(rng, box, shape):
    """Random positions over and around the frame, plus every line that
    matters: the box edges, the ring, the frame edges and just beyond."""
    h, w = shape
    xs = [rng.uniform(-3.0, w + 2.0, 400)]
    ys = [rng.uniform(-3.0, h + 2.0, 400)]
    # (coordinate lists on the line, its box slice and frame size; the
    # other coordinate's lists and frame size)
    for on, s, n, across, m in ((xs, box[1], w, ys, h), (ys, box[0], h, xs, w)):
        for e in (s.start - 1, s.start, s.stop - 1, s.stop, 0, n - 1):
            for d in (-1.0, -0.5, -1e-9, 0.0, 1e-9, 0.25, 0.5, 1.0):
                on.append(np.full(40, e + d))
                across.append(rng.uniform(-2.0, m + 1.0, 40))
    return np.concatenate(xs), np.concatenate(ys)


class TestBoxedSampler:
    def test_bitwise_equal_to_full_frame_read(self):
        rng = np.random.default_rng(11)
        n_masks = 0
        for values in _support_masks(rng):
            mask = soft_mask(values)
            x, y = _probe_positions(rng, mask.box, values.shape)
            got = sample_bilinear(mask, x, y)
            assert got.tobytes() == _reference_bilinear(values, x, y).tobytes()
            n_masks += 1
        assert n_masks == 44  # edges, corners, a pixel and an empty mask per size

    def test_box_touching_each_frame_edge(self):
        rng = np.random.default_rng(12)
        h, w = 30, 50
        for box in ((slice(0, 8), slice(20, 30)), (slice(22, 30), slice(20, 30)),
                    (slice(10, 20), slice(0, 7)), (slice(10, 20), slice(43, 50)),
                    (slice(0, 30), slice(0, 50))):
            values = np.zeros((h, w))
            values[box] = rng.uniform(0.05, 1.0, values[box].shape)
            mask = SoftMask(values[box], box, (h, w))
            x, y = _probe_positions(rng, box, (h, w))
            got = sample_bilinear(mask, x, y)
            assert got.tobytes() == _reference_bilinear(values, x, y).tobytes()

    def test_empty_mask_reads_zero_everywhere(self):
        rng = np.random.default_rng(13)
        mask = soft_mask(np.zeros((9, 14)))
        x, y = _probe_positions(rng, mask.box, (9, 14))
        assert sample_bilinear(mask, x, y).tobytes() == np.zeros(x.size).tobytes()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_positions_read_zero_without_a_warning(self, bad):
        rng = np.random.default_rng(14)
        for values in _support_masks(rng):
            mask = soft_mask(values)
            x, y = _probe_positions(rng, mask.box, values.shape)
            want = _reference_bilinear(values, x, y)
            hit = rng.random(x.size) < 0.3
            for bad_x, bad_y in ((hit, ~hit), (~hit, hit), (hit, hit)):
                got = sample_bilinear(mask, np.where(bad_x, bad, x), np.where(bad_y, bad, y))
                assert got.tobytes() == np.where(bad_x | bad_y, 0.0, want).tobytes()


def _owned_floats(mask):
    """Floats in the arrays a mask owns (views of them count once)."""
    return sum(a.size for a in vars(mask).values()
               if isinstance(a, np.ndarray) and a.base is None)


class TestBoxedStorage:
    def test_read_mask_holds_its_box_and_a_ring(self, tmp_path):
        # A cut of the bundled degradation scenario, as the robustness
        # study reads it from disk.
        doc = json.loads(
            resources.files("swarmtrack.data")
            .joinpath("degradation_scenario.json").read_text()
        )
        doc["duration"] = 3
        cfg = write_json(tmp_path / "scenario.json", doc)
        assert invoke_cli("simulate", "--config", cfg, "--out", tmp_path / "sim") == 0
        for path in io_formats.mask_sequence_paths(tmp_path / "sim" / "masks"):
            mask = read_mask(path)
            h_box, w_box = mask.inner.shape
            assert 0 < h_box * w_box < mask.shape[0] * mask.shape[1] // 10
            assert _owned_floats(mask) <= (h_box + 2) * (w_box + 2)

    def test_a_mask_owns_its_box_and_ring_only(self):
        values = np.zeros((7, 9))
        values[2:4, 3:6] = 0.5
        mask = soft_mask(values)
        assert _owned_floats(mask) == 4 * 5
        assert frame_values(mask).tobytes() == values.tobytes()
        assert mask.inner.tobytes() == values[2:4, 3:6].tobytes()

    def test_producer_masks_store_a_read_only_block_with_a_zero_ring(self, tmp_path):
        # read_mask and the blur hand SoftMask an array of their own; the
        # mask keeps a copy, never the producer's array.
        rng = np.random.default_rng(15)
        values = np.zeros((40, 60))
        values[10:20, 15:35] = rng.uniform(0.01, 1.0, (10, 20))
        write_mask(soft_mask(values), tmp_path / "m.pgm")
        read = read_mask(tmp_path / "m.pgm")
        gain = np.full(values.shape, 1.5)
        for mask in (read, degrade_mask(read), degrade_mask(read, 0.0, gain),
                     degrade_mask(read, 2.0, gain),
                     synth.soften(values > 0.5, 1.0, nonzero_box(values))):
            ring, at = _ring_box(mask.box, mask.shape)
            assert mask._block.shape == (ring[0].stop - ring[0].start,
                                         ring[1].stop - ring[1].start)
            assert not mask._block.flags.writeable and not mask.inner.flags.writeable
            assert np.shares_memory(mask.inner, mask._block)
            assert mask is read or not np.shares_memory(mask._block, read._block)
            assert not np.any(_outside(mask._block, at))
            again = SoftMask(mask.inner, mask.box, mask.shape)
            assert again._block.tobytes() == mask._block.tobytes()

    def test_constructor_copies_its_input(self):
        inner = np.full((3, 4), 0.5)
        box = (slice(2, 5), slice(1, 5))
        mask = SoftMask(inner, box, (8, 7))
        before = frame_values(mask).tobytes()
        assert not np.shares_memory(mask.inner, inner)
        inner[...] = 0.25
        assert frame_values(mask).tobytes() == before
        assert mask.inner.tobytes() == np.full((3, 4), 0.5).tobytes()
        assert not mask.inner.flags.writeable
        with pytest.raises(ValueError):
            mask.inner[0, 0] = 1.0

    def test_constructor_holds_the_full_frame(self):
        rng = np.random.default_rng(14)
        for values in _support_masks(rng):
            box = nonzero_box(values)
            mask = SoftMask(values[box], box, values.shape)
            assert mask.box == box and mask.shape == values.shape
            assert frame_values(mask).tobytes() == values.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.01, 1.01])
    def test_constructor_rejects_with_full_frame_message(self, bad):
        values = np.zeros((6, 9))
        values[2:4, 3:7] = 0.5
        values[3, 5] = bad
        box = (slice(2, 4), slice(3, 7))
        with pytest.raises(ValueError) as err:
            SoftMask(values[box], box, values.shape)
        assert str(err.value) == _full_frame_message(values)

    def test_constructor_rejects_a_box_that_does_not_fit(self):
        with pytest.raises(ValueError, match="does not fit a 9x6 frame"):
            SoftMask(np.zeros((2, 2)), (slice(5, 7), slice(0, 2)), (6, 9))
        with pytest.raises(ValueError, match="does not match values of shape"):
            SoftMask(np.zeros((1, 2)), (slice(0, 2), slice(0, 2)), (6, 9))

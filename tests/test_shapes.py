"""Alpha shapes: areas, holes, degeneracies, rasterization, support points."""
import math

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import Delaunay, QhullError, cKDTree

from swarmtrack import shapes
from swarmtrack.shapes import (
    AlphaShape,
    BinaryMask,
    ShapeError,
    _circumradius,
    _dedup,
    _nearest_distances,
    alpha_shape,
    default_alpha,
    rasterize,
    support_points,
)


def unit_square_cloud():
    """Corners plus edge midpoints plus center of the unit square."""
    return np.array([
        [0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
        [0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5],
        [0.5, 0.5],
    ])


def annulus_cloud(center=(12.0, 12.0), seed=5):
    """Three jittered rings between r=7 and r=10 around center.

    The jitter matters: points exactly on one circle are co-circular, so
    every Delaunay triangle shares the same circumcircle and the alpha
    shape degenerates to all-or-nothing.
    """
    rng = np.random.default_rng(seed)
    pts = []
    for radius, n in ((10.0, 36), (8.5, 30), (7.0, 26)):
        ang = np.linspace(0, 2 * np.pi, n, endpoint=False) + rng.uniform(0, 0.1)
        r = radius + rng.uniform(-0.15, 0.15, n)
        pts.append(np.column_stack(
            [center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)]
        ))
    return np.vstack(pts)


class TestAlphaShape:
    def test_unit_square_area_exact(self):
        shape = alpha_shape(unit_square_cloud(), alpha=10.0)
        assert shape.area == pytest.approx(1.0, abs=1e-12)
        assert shape.triangles.shape[0] > 0

    def test_large_alpha_recovers_convex_hull_area(self):
        rng = np.random.default_rng(41)
        pts = rng.uniform(0, 50, (80, 2))
        from scipy.spatial import ConvexHull
        hull = ConvexHull(pts)
        shape = alpha_shape(pts, alpha=1e9)
        assert shape.area == pytest.approx(hull.volume, rel=1e-9)

    def test_annulus_keeps_the_hole(self):
        pts = annulus_cloud()
        shape = alpha_shape(pts, alpha=2.5)
        # the annulus band covers pi * (10^2 - 7^2) ~ 160; a filled disc
        # would be ~314, so a hole-free result is easily detected
        assert 130.0 < shape.area < 190.0
        mask = rasterize(shape, 24, 24)
        assert not mask.bits[12, 12]
        assert 130 <= int(mask.bits.sum()) <= 200

    def test_alpha_below_min_circumradius_gives_empty_shape(self):
        shape = alpha_shape(unit_square_cloud(), alpha=1e-6)
        assert shape.area == 0.0
        assert shape.triangles.shape == (0, 3, 2)
        assert shape.boundary.shape == (0, 2, 2)

    def test_fewer_than_three_distinct_points_rejected(self):
        with pytest.raises(ShapeError, match="3 distinct"):
            alpha_shape(np.array([[0.0, 0.0], [1.0, 1.0]]), alpha=1.0)
        dup = np.array([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0], [5.0, 5.0]])
        with pytest.raises(ShapeError, match="3 distinct"):
            alpha_shape(dup, alpha=1.0)

    def test_collinear_points_rejected(self):
        pts = np.column_stack([np.linspace(0, 9, 10), np.linspace(0, 18, 10)])
        with pytest.raises(ShapeError, match="collinear"):
            alpha_shape(pts, alpha=5.0)

    def test_bad_inputs_rejected(self):
        with pytest.raises(ShapeError):
            alpha_shape(np.array([[0.0, np.nan], [1, 0], [0, 1]]), alpha=1.0)
        with pytest.raises(ShapeError):
            alpha_shape(unit_square_cloud(), alpha=0.0)
        with pytest.raises(ShapeError):
            alpha_shape(unit_square_cloud(), alpha=-2.0)

    def test_area_monotone_in_alpha(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            pts = rng.uniform(0, 30, (int(rng.integers(8, 60)), 2))
            a1, a2 = sorted(rng.uniform(0.5, 40.0, 2))
            s1 = alpha_shape(pts, alpha=float(a1))
            s2 = alpha_shape(pts, alpha=float(a2))
            assert s1.area <= s2.area + 1e-9

    def test_boundary_edges_each_belong_to_one_triangle(self):
        shape = alpha_shape(annulus_cloud(), alpha=2.5)
        assert shape.boundary.shape[0] > 0

        def canon(seg):
            a, b = seg
            return tuple(sorted((tuple(a), tuple(b))))

        tri_edges = {}
        for tri in shape.triangles:
            for i in range(3):
                e = canon((tri[i], tri[(i + 1) % 3]))
                tri_edges[e] = tri_edges.get(e, 0) + 1
        for seg in shape.boundary:
            assert tri_edges[canon(seg)] == 1


class TestDefaultAlpha:
    def test_regular_grid_spacing(self):
        xs, ys = np.meshgrid(np.arange(5) * 2.0, np.arange(4) * 2.0)
        pts = np.column_stack([xs.ravel(), ys.ravel()])
        assert default_alpha(pts) == pytest.approx(6.0)

    def test_needs_two_distinct_points(self):
        with pytest.raises(ShapeError):
            default_alpha(np.array([[1.0, 1.0]]))
        with pytest.raises(ShapeError):
            default_alpha(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_scales_with_cloud(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 10, (100, 2))
        assert default_alpha(pts * 5.0) == pytest.approx(5 * default_alpha(pts))


class TestSupportPoints:
    def test_drops_negligible_weights(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        w = np.array([0.5, 0.4999, 0.00005, 0.00005])
        kept = support_points(xy, w)
        np.testing.assert_array_equal(kept, xy[:2])

    def test_keeps_weights_at_threshold(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0]])
        w = np.array([1.0, 0.01])
        kept = support_points(xy, w / w.sum())
        assert kept.shape == (2, 2)

    def test_threshold_is_relative_to_the_maximum(self):
        xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        # 0.01 * 3.0 rounds to 0.03; the weight one step below it drops.
        w = np.array([3.0, 0.03, np.nextafter(0.03, 0.0)])
        np.testing.assert_array_equal(support_points(xy, w), xy[:2])
        for scale in (1e-6, 1e6):
            w = np.array([3.0, 0.05, 0.02]) * scale
            np.testing.assert_array_equal(support_points(xy, w), xy[:2])

    def test_all_zero_weights_give_empty_set(self):
        xy = np.ones((4, 2))
        kept = support_points(xy, np.zeros(4))
        assert kept.shape == (0, 2)

    def test_validation(self):
        xy = np.zeros((3, 2))
        with pytest.raises(ShapeError):
            support_points(xy, np.zeros(2))


class TestRasterize:
    def test_axis_aligned_square_count(self):
        square = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
        shape = alpha_shape(square, alpha=100.0)
        mask = rasterize(shape, 20, 20)
        # half-open row rule keeps rows 0..9, left-closed columns 0..9
        assert int(mask.bits.sum()) == 100

    def test_diamond_count_matches_area(self):
        diamond = np.array([[10.0, 2.0], [18.0, 10.0], [10.0, 18.0], [2.0, 10.0]])
        shape = alpha_shape(diamond, alpha=100.0)
        assert shape.area == pytest.approx(128.0, abs=1e-9)
        mask = rasterize(shape, 24, 24)
        # diagonal edges cross each row at integer x, giving 2 * (8 - |y - 10|)
        # interior centers per row; the total telescopes to the exact area
        assert int(mask.bits.sum()) == 128

    def test_empty_shape_rasterizes_to_all_false(self):
        shape = alpha_shape(unit_square_cloud(), alpha=1e-6)
        mask = rasterize(shape, 8, 8)
        assert not mask.bits.any()
        assert mask.bits.shape == (8, 8)

    def test_bad_target_size_rejected(self):
        shape = alpha_shape(unit_square_cloud(), alpha=10.0)
        with pytest.raises(ShapeError):
            rasterize(shape, 0, 8)

    def test_binary_mask_validation(self):
        with pytest.raises(ValueError):
            BinaryMask(np.full((4, 4), 2.0))
        with pytest.raises(ValueError):
            BinaryMask(np.zeros((0, 4), dtype=bool))
        m = BinaryMask(np.eye(3))
        assert m.bits.dtype == bool and m.bits.shape == (3, 3)


# -- Sort-based references ------------------------------------------------
# The straightforward forms of _dedup, the alpha-shape boundary and
# rasterize: np.unique over structured rows, every kept edge counted, and
# a Python loop over segments and rows. The library must match them byte
# for byte.


def _dedup_reference(points):
    rounded = np.round(points / 1e-6) * 1e-6
    _, idx = np.unique(rounded, axis=0, return_index=True)
    return points[np.sort(idx)]


def _alpha_shape_reference(points, alpha):
    """(triangles, boundary, area), or None where qhull finds no triangulation."""
    pts = _dedup_reference(np.asarray(points, dtype=float))
    try:
        tri = Delaunay(pts)
    except QhullError:
        return None
    s = tri.simplices
    kept = s[_circumradius(pts[s[:, 0]], pts[s[:, 1]], pts[s[:, 2]]) < alpha]
    if kept.shape[0] == 0:
        return np.empty((0, 3, 2)), np.empty((0, 2, 2)), 0.0
    tri_coords = pts[kept]
    cross = (
        (tri_coords[:, 1, 0] - tri_coords[:, 0, 0])
        * (tri_coords[:, 2, 1] - tri_coords[:, 0, 1])
        - (tri_coords[:, 1, 1] - tri_coords[:, 0, 1])
        * (tri_coords[:, 2, 0] - tri_coords[:, 0, 0])
    )
    area = float(np.abs(cross).sum() / 2.0)
    edges = np.concatenate([kept[:, [0, 1]], kept[:, [1, 2]], kept[:, [2, 0]]])
    edges_sorted = np.sort(edges, axis=1)
    _, first_idx, counts = np.unique(
        edges_sorted, axis=0, return_index=True, return_counts=True
    )
    boundary = pts[edges_sorted[first_idx[counts == 1]]]
    return tri_coords, boundary, area


def _nearest_reference(pts):
    """Each point's distance to its nearest other point, by kd-tree."""
    dist, _ = cKDTree(pts).query(pts, k=2)
    return dist[:, 1]


def _default_alpha_reference(points):
    pts = _dedup_reference(np.asarray(points, dtype=float))
    return 3.0 * float(np.median(_nearest_reference(pts)))


def _rasterize_reference(boundary, width, height):
    crossings = {}
    for (x1, y1), (x2, y2) in boundary:
        if y1 == y2:
            continue
        y_lo, y_hi = (y1, y2) if y1 < y2 else (y2, y1)
        row_start = max(0, int(math.ceil(y_lo)))
        row_end = min(height - 1, int(math.floor(y_hi)))
        for row in range(row_start, row_end + 1):
            if not (y_lo <= row < y_hi):
                continue
            crossings.setdefault(row, []).append(
                x1 + (row - y1) * (x2 - x1) / (y2 - y1)
            )
    bits = np.zeros((height, width), dtype=bool)
    xs = np.arange(width)
    for row, cx in crossings.items():
        cx_arr = np.sort(np.array(cx))
        n_right = len(cx_arr) - np.searchsorted(cx_arr, xs, side="right")
        bits[row] = (n_right % 2) == 1
    return bits


def _oracle_clouds():
    """(name, points) covering the inputs where dedup and boundary order matter."""
    rng = np.random.default_rng(11)
    for n in (3, 7, 40, 300, 1000):
        yield f"random-{n}", rng.uniform(-50.0, 50.0, (n, 2))
    yield "gaussian-970", rng.normal(0.0, 30.0, (970, 2))
    for side in (3, 6, 11):
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        grid = np.column_stack([xs.ravel(), ys.ravel()]).astype(float)
        yield f"grid-{side}", grid
        yield f"grid-{side}-shuffled", rng.permutation(grid)
    base = rng.uniform(0.0, 20.0, (30, 2))
    resampled = base[rng.integers(0, len(base), 600)]
    yield "resampled", resampled
    jitter = rng.choice([0.0, 1e-8, -1e-8, 3e-7], size=resampled.shape)
    yield "resampled-jittered", resampled + jitter
    # Coordinates at and around the half-way points of the 1e-6 grid.
    offsets = np.array([-5.1e-7, -5e-7, -4.9e-7, 0.0, 4.9e-7, 5e-7, 5.1e-7])
    cells = rng.integers(0, 12, (400, 2)) * 1e-6
    yield "rounding-grid", cells + rng.choice(offsets, size=cells.shape)
    yield "rounding-grid-far", 1e3 + cells + rng.choice(offsets, size=cells.shape)
    signed = np.array([
        [1e-7, 0.0], [-1e-7, 0.0], [0.0, -1e-7], [-0.0, 1e-7], [0.0, 0.0],
        [-1e-7, -1e-7], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, -0.5],
    ])
    yield "signed-zeros", signed
    yield "signed-zeros-shuffled", rng.permutation(np.vstack([signed, -signed]))
    t = np.linspace(0.0, 10.0, 50)
    for eps in (1e-3, 1e-7, 1e-10):
        bump = eps * rng.standard_normal(t.size)
        yield f"near-collinear-{eps:g}", np.column_stack([t, 2.0 * t + bump])
    yield "collinear-plus-one", np.vstack([np.column_stack([t, 2.0 * t]), [[5.0, 0.0]]])
    yield "collinear", np.column_stack([t, 2.0 * t])
    yield "two-distinct", np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 4e-7], [1.0, 1.0]])


ORACLE_CLOUDS = list(_oracle_clouds())
# The clouds qhull cannot triangulate: every alpha_shape call raises on them.
UNTRIANGULABLE = {"collinear", "two-distinct"}


class TestSortFreeOracle:
    @pytest.mark.parametrize("name,pts", ORACLE_CLOUDS, ids=[c[0] for c in ORACLE_CLOUDS])
    def test_dedup_keeps_first_occurrences_in_input_order(self, name, pts):
        assert _dedup(pts).tobytes() == _dedup_reference(pts).tobytes()

    @pytest.mark.parametrize("name,pts", ORACLE_CLOUDS, ids=[c[0] for c in ORACLE_CLOUDS])
    def test_alpha_shape_is_byte_identical(self, name, pts):
        distinct = _dedup_reference(pts)
        base = _default_alpha_reference(pts) if len(distinct) >= 2 else 1.0
        for alpha in (0.3 * base, base, 3.0 * base, 0.75, 1e9):
            expected = _alpha_shape_reference(pts, alpha) if len(distinct) >= 3 else None
            if expected is None:
                with pytest.raises(ShapeError):
                    alpha_shape(pts, alpha)
                continue
            got = alpha_shape(pts, alpha)
            triangles, boundary, area = expected
            assert got.triangles.tobytes() == triangles.tobytes()
            assert got.boundary.shape == boundary.shape
            assert got.boundary.tobytes() == boundary.tobytes()
            assert got.area == area

    @pytest.mark.parametrize("name,pts", ORACLE_CLOUDS, ids=[c[0] for c in ORACLE_CLOUDS])
    def test_default_alpha_is_unchanged(self, name, pts):
        if name in UNTRIANGULABLE:
            with pytest.raises(ShapeError):
                default_alpha(pts)
            return
        assert default_alpha(pts) == _default_alpha_reference(pts)

    @pytest.mark.parametrize("name,pts", ORACLE_CLOUDS, ids=[c[0] for c in ORACLE_CLOUDS])
    def test_derived_alpha_shape_equals_the_kd_tree_alpha_shape(self, name, pts):
        if name in UNTRIANGULABLE:
            with pytest.raises(ShapeError):
                alpha_shape(pts)
            return
        got = alpha_shape(pts)
        expected = alpha_shape(pts, _default_alpha_reference(pts))
        assert got.alpha == expected.alpha
        assert got.triangles.tobytes() == expected.triangles.tobytes()
        assert got.boundary.shape == expected.boundary.shape
        assert got.boundary.tobytes() == expected.boundary.tobytes()
        assert got.area == expected.area

    @pytest.mark.parametrize(
        "name,pts",
        [c for c in ORACLE_CLOUDS if c[0] not in UNTRIANGULABLE],
        ids=[c[0] for c in ORACLE_CLOUDS if c[0] not in UNTRIANGULABLE],
    )
    def test_nearest_distances_match_the_kd_tree(self, name, pts):
        distinct = _dedup_reference(pts)
        got = _nearest_distances(distinct, Delaunay(distinct))
        assert got.tobytes() == _nearest_reference(distinct).tobytes()

    def test_oracle_clouds_include_points_qhull_leaves_out(self):
        # The derived alpha measures these against every point; this cloud
        # is what exercises that branch.
        pts = _dedup_reference(dict(ORACLE_CLOUDS)["rounding-grid-far"])
        tri = Delaunay(pts)
        assert len(tri.coplanar) > 0
        assert len(np.unique(tri.simplices)) + len(tri.coplanar) == len(pts)


class TestOneTriangulation:
    def test_dedups_and_triangulates_once(self, monkeypatch):
        calls = {"dedup": 0, "delaunay": 0}
        real_dedup, real_delaunay = shapes._dedup, scipy.spatial.Delaunay

        def dedup(*args):
            calls["dedup"] += 1
            return real_dedup(*args)

        def delaunay(*args):
            calls["delaunay"] += 1
            return real_delaunay(*args)

        monkeypatch.setattr(shapes, "_dedup", dedup)
        monkeypatch.setattr(scipy.spatial, "Delaunay", delaunay)
        alpha_shape(annulus_cloud())
        assert calls == {"dedup": 1, "delaunay": 1}

    def test_out_of_memory_is_not_a_shape_error(self, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(scipy.spatial, "Delaunay", exhausted)
        with pytest.raises(MemoryError):
            alpha_shape(unit_square_cloud(), alpha=10.0)


def _polygon(*vertices):
    v = np.asarray(vertices, dtype=float)
    return np.stack([v, np.roll(v, -1, axis=0)], axis=1)


def _outline(boundary):
    return AlphaShape(
        alpha=1.0, triangles=np.empty((0, 3, 2)), boundary=boundary, area=0.0
    )


def _raster_cases():
    """(name, boundary, width, height) for the rasterize oracle."""
    rng = np.random.default_rng(5)
    blob = alpha_shape(rng.normal(0.0, 6.0, (300, 2)), 4.0).boundary
    ring = alpha_shape(annulus_cloud(center=(0.0, 0.0)), 2.5).boundary
    w, h = 40, 30
    # The blob and the ring moved onto every edge and corner of a 40x30 image.
    for cx in (0.0, 20.0, 40.0):
        for cy in (0.0, 15.0, 30.0):
            shift = np.array([cx, cy])
            yield f"blob@{cx:g},{cy:g}", blob + shift, w, h
            yield f"ring@{cx:g},{cy:g}", ring + shift, w, h
    yield "blob-far-outside", blob + np.array([100.0, -80.0]), w, h
    # Vertices exactly on row lines, half-way between, and horizontal edges.
    yield "integer-square", _polygon((2, 3), (12, 3), (12, 9), (2, 9)), w, h
    yield "integer-diamond", _polygon((10, 2), (18, 10), (10, 18), (2, 10)), w, h
    yield "half-integers", _polygon((2.5, 3.5), (12.5, 3.5), (7.5, 9.5)), w, h
    yield "zigzag", _polygon(
        (1, 1), (5, 4), (9, 1), (13, 4), (17, 1), (17, 8), (9, 5), (1, 8)
    ), w, h
    grid = np.column_stack([c.ravel() for c in np.meshgrid(np.arange(6), np.arange(5))])
    yield "grid-shape", alpha_shape(grid + 3.0, 0.8).boundary, w, h
    yield "horizontal-only", np.array([[[1.0, 4.0], [9.0, 4.0]], [[3.0, 7.0], [0.0, 7.0]]]), w, h
    # Far-off-frame vertices: crossings land far outside [0, width].
    big = 1e15
    yield "huge-triangle", _polygon((-big, -big), (big, 5.0), (3.0, big)), w, h
    yield "huge-wedge", _polygon((20.0, 10.0), (big, -big), (big, big)), w, h
    yield "huge-left", _polygon((-big, 0.5), (20.0, 12.0), (-big, 25.5)), w, h
    yield "huge-sliver", _polygon((-big, 14.0), (big, 14.5), (big, 15.0)), w, h
    # x2 - x1 overflows: the crossing on the row through y1 is 0 * inf = NaN.
    yield "overflowing-slope", _polygon((-1e308, 0.0), (1e308, 10.0), (0.0, 20.0)), w, h
    # 1x1 and narrow targets.
    for tw, th in ((1, 1), (1, 30), (40, 1), (2, 3)):
        yield f"blob-{tw}x{th}", blob, tw, th
        yield f"square-{tw}x{th}", _polygon((0, 0), (1, 0), (1, 1), (0, 1)), tw, th
        yield f"wide-{tw}x{th}", _polygon((-0.5, -0.5), (5, -0.5), (5, 5), (-0.5, 5)), tw, th
    yield "empty", np.empty((0, 2, 2)), w, h


RASTER_CASES = list(_raster_cases())


class TestRasterizeOracle:
    @pytest.mark.parametrize(
        "name,boundary,width,height", RASTER_CASES, ids=[c[0] for c in RASTER_CASES]
    )
    def test_matches_per_row_loop(self, name, boundary, width, height):
        with np.errstate(over="ignore", invalid="ignore"):
            got = rasterize(_outline(boundary), width, height).bits
            expected = _rasterize_reference(boundary, width, height)
        assert got.shape == (height, width)
        assert got.tobytes() == expected.tobytes()

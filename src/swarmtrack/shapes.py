"""Alpha-shape outlines of particle clouds and their rasterization.

The alpha shape keeps the Delaunay triangles whose circumradius is
below alpha; its boundary is the set of edges belonging to exactly one
kept triangle, read off the Delaunay neighbours: an edge is on the
boundary when the triangle across it is missing or not kept. With alpha
large enough this degenerates to the convex hull, with alpha small the
shape falls apart into nothing.

Rasterization marks pixels whose center is inside the boundary under
the even-odd rule, so holes and disjoint components come out right
without tracing rings explicitly. Every row crossing is computed in one
vectorised pass and each pixel's parity comes from a per-row count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Point set unusable for outline extraction."""


@dataclass
class BinaryMask:
    """Boolean occupancy grid, shape (height, width)."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        self.bits = np.asarray(self.bits)
        if self.bits.ndim != 2 or self.bits.size == 0:
            raise ValueError(f"bits must be a non-empty 2-D array, got {self.bits.shape}")
        if self.bits.dtype != bool:
            uniq = np.unique(self.bits)
            if not np.all(np.isin(uniq, (0, 1))):
                raise ValueError("bits must be boolean or 0/1 valued")
            self.bits = self.bits.astype(bool)

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]


@dataclass
class AlphaShape:
    """Alpha shape of a planar point set.

    triangles: (m, 3, 2) vertex coordinates of the kept triangles.
    boundary: (k, 2, 2) segments that belong to exactly one triangle.
    area: total area of the kept triangles.
    """

    alpha: float
    triangles: np.ndarray
    boundary: np.ndarray
    area: float


def _circumradius(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Circumradius per triangle, inf for degenerate ones.

    Inputs are (m, 2) arrays of the three vertices.
    """
    la = np.linalg.norm(b - c, axis=1)
    lb = np.linalg.norm(a - c, axis=1)
    lc = np.linalg.norm(a - b, axis=1)
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    area2 = np.abs(cross)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = la * lb * lc / (2.0 * area2)
    r[area2 == 0.0] = np.inf
    return r


def _dedup(points: np.ndarray) -> np.ndarray:
    """Collapse points equal after rounding to 1e-6; keep each first one, in input order."""
    rounded = np.round(points / 1e-6) * 1e-6
    order = np.lexsort(rounded.T[::-1])
    rows = rounded[order]
    keep = np.ones(len(points), dtype=bool)
    keep[order[1:]] = np.any(rows[1:] != rows[:-1], axis=1)
    return points[keep]


def _nearest_distances(pts: np.ndarray, tri) -> np.ndarray:
    """Each point's distance to its nearest other point, read off the triangulation.

    A point and its nearest neighbour form a Gabriel edge, and every
    Delaunay triangulation holds every Gabriel edge (de Berg et al.,
    *Computational Geometry*, ch. 9), so a vertex's nearest neighbour is
    at the end of one of its simplex edges. Points in no simplex (qhull's
    coplanar points) are measured against every point, which also lowers
    a vertex whose nearest neighbour is one of them. Lengths are
    ``sqrt(dx*dx + dy*dy)``, as a kd-tree query computes them.
    """
    s = tri.simplices
    a, b = s.ravel(), s[:, [1, 2, 0]].ravel()
    d = pts[a] - pts[b]
    length = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
    near = np.full(len(pts), np.inf)
    np.minimum.at(near, a, length)
    np.minimum.at(near, b, length)
    left_out = np.flatnonzero(near == np.inf)
    if left_out.size:
        d = pts[left_out, None, :] - pts[None, :, :]
        dist = np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1])
        dist[np.arange(left_out.size), left_out] = np.inf
        near[left_out] = dist.min(axis=1)
        np.minimum(near, dist.min(axis=0), out=near)
    return near


def alpha_shape(points: np.ndarray, alpha: float | None = None) -> AlphaShape:
    """Alpha shape of an (n, 2) point set.

    Duplicate points (within 1e-6) are collapsed first. Fewer than 3
    distinct points or a collinear set raise ShapeError; an alpha below
    every circumradius yields an empty shape (the alpha -> 0 limit).
    With alpha None it is 3x the median nearest-neighbour distance of
    the distinct points, which scales with cloud density, so sparse
    and dense clouds both produce a connected outline without hand
    tuning; the distances come from the same triangulation.
    """
    if alpha is not None and not (math.isfinite(alpha) and alpha > 0):
        raise ShapeError(f"alpha must be positive and finite, got {alpha!r}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ShapeError(f"expected an (n, 2) point array, got shape {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise ShapeError("points contain non-finite coordinates")
    pts = _dedup(pts)
    if pts.shape[0] < 3:
        raise ShapeError(
            f"need at least 3 distinct points for an alpha shape, got {pts.shape[0]}"
        )
    from scipy.spatial import Delaunay, QhullError  # loaded on first use: runs that draw no outline skip it
    try:
        tri = Delaunay(pts)
    except QhullError as exc:
        raise ShapeError("points are collinear; no 2-D triangulation exists") from exc
    if alpha is None:
        alpha = 3.0 * float(np.median(_nearest_distances(pts, tri)))
    corners = pts[tri.simplices]
    keep = _circumradius(*corners.transpose(1, 0, 2)) < alpha
    kept = tri.simplices[keep]
    if kept.shape[0] == 0:
        return AlphaShape(
            alpha=alpha,
            triangles=np.empty((0, 3, 2)),
            boundary=np.empty((0, 2, 2)),
            area=0.0,
        )
    tri_coords = corners[keep]
    cross = (
        (tri_coords[:, 1, 0] - tri_coords[:, 0, 0])
        * (tri_coords[:, 2, 1] - tri_coords[:, 0, 1])
        - (tri_coords[:, 1, 1] - tri_coords[:, 0, 1])
        * (tri_coords[:, 2, 0] - tri_coords[:, 0, 0])
    )
    area = float(np.abs(cross).sum() / 2.0)
    # Boundary: edges of kept triangles whose neighbour across them
    # (tri.neighbors[t, k] is opposite vertex k) is missing or not kept.
    nbr = tri.neighbors[keep]
    t_idx, k = np.nonzero((nbr == -1) | ~keep[nbr])
    ends = np.sort([kept[t_idx, (k + 1) % 3], kept[t_idx, (k + 2) % 3]], axis=0).T
    boundary = pts[ends[np.argsort(ends[:, 0].astype(np.int64) * len(pts) + ends[:, 1])]]
    return AlphaShape(alpha=alpha, triangles=tri_coords, boundary=boundary, area=area)


def default_alpha(points: np.ndarray) -> float:
    """The alpha that ``alpha_shape(points)`` derives when given none."""
    return alpha_shape(points).alpha


def support_points(xy: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Particles whose weight is at least 1 % of the maximum.

    A freshly initialized or momentarily confused filter carries many
    particles with vanishing weight; an outline over raw positions
    would span them all. Restricting to the posterior support keeps
    the outline tied to where the belief actually lives.
    """
    xy = np.asarray(xy, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if xy.ndim != 2 or xy.shape[1] != 2 or weights.shape != (xy.shape[0],):
        raise ShapeError(
            f"positions {xy.shape} and weights {weights.shape} do not match"
        )
    top = weights.max() if weights.size else 0.0
    if top <= 0:
        return xy[:0]
    return xy[weights >= 0.01 * top]


def rasterize(shape: AlphaShape, width: int, height: int) -> BinaryMask:
    """Fill the alpha-shape boundary onto a (height, width) pixel grid.

    A pixel is set when its center (integer coordinates) is inside the
    boundary under the even-odd rule. Crossings are counted along each
    pixel row against every boundary segment with the usual half-open
    rule on y, so shared vertices are not double counted.
    """
    if width <= 0 or height <= 0:
        raise ShapeError(f"target size must be positive, got {width}x{height}")
    bits = np.zeros((height, width), dtype=bool)
    # Half-open on y: a segment crosses rows ceil(y_lo) .. ceil(y_hi) - 1,
    # so a horizontal one crosses none.
    y_lo_hi = np.sort(shape.boundary[:, :, 1], axis=1).T
    first, stop = np.clip(np.ceil(y_lo_hi), 0, height).astype(np.intp)
    span = stop - first
    seg = np.repeat(np.arange(len(span)), span)
    if seg.size == 0:
        return BinaryMask(bits)
    # Crossing k (counted over all segments) of segment s is on row
    # first[s] + k - (the number of crossings of the segments before s).
    row = np.arange(seg.size) - np.repeat(np.cumsum(span) - span - first, span)
    (x1, y1), (x2, y2) = shape.boundary[seg].transpose(1, 2, 0)
    x = x1 + (row - y1) * (x2 - x1) / (y2 - y1)
    # A crossing at x is strictly right of the pixel centers 0 .. n_left - 1.
    # Clamping x to [0, width] keeps the integer conversion in range; fmin
    # sends NaN right of every pixel, as a sorted search would.
    n_left = np.ceil(np.fmax(np.fmin(x, width), 0)).astype(np.intp)
    r0, c0 = row.min(), n_left.min()
    rows, cols = row.max() + 1 - r0, n_left.max() + 1 - c0
    counts = np.bincount((row - r0) * cols + n_left - c0, minlength=rows * cols)
    counts = counts.reshape(rows, cols)
    # Crossings right of pixel col are those with n_left > col: all of the
    # row's left of c0, fewer by the running count from there on.
    total = counts.sum(axis=1, keepdims=True)
    bits[r0 : r0 + rows, :c0] = total % 2 == 1
    right = total - np.cumsum(counts[:, :-1], axis=1)
    bits[r0 : r0 + rows, c0 : c0 + cols - 1] = right % 2 == 1
    return BinaryMask(bits)

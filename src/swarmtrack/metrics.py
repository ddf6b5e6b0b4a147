"""Evaluation metrics: detection rate, mask overlap, world-frame error.

The successful detection rate (SDR) is the percentage of frames whose
predicted center lies within a pixel radius of the annotated center,
over the frames where both annotations exist. Mask quality uses the
confusion matrix of predicted vs reference binary masks. World-frame
accuracy is measured on pairwise point distances, which cancels any
global offset or rotation between coordinate conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .shapes import BinaryMask


class MetricError(ValueError):
    """Inputs insufficient or inconsistent for the requested metric."""


@dataclass(frozen=True)
class Trajectory2D:
    """Image-space track: frame index -> (x, y) pixels, corner origin.

    Frames are kept sorted; missing frames simply have no entry.
    """

    points: dict[int, tuple[float, float]]

    def __post_init__(self) -> None:
        cleaned: dict[int, tuple[float, float]] = {}
        for frame in sorted(self.points):
            x, y = self.points[frame]
            if frame < 0:
                raise MetricError(f"negative frame index {frame}")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise MetricError(f"non-finite point at frame {frame}")
            cleaned[int(frame)] = (float(x), float(y))
        object.__setattr__(self, "points", cleaned)


def sdr(pred: Trajectory2D, ref: Trajectory2D, radius: float) -> float:
    """Successful detection rate at a pixel radius, in percent.

    Only frames annotated in both trajectories count; the rate is the
    share of those frames with center error <= radius.
    """
    if not (math.isfinite(radius) and radius > 0):
        raise MetricError(f"radius must be positive, got {radius!r}")
    common = sorted(set(pred.points) & set(ref.points))
    if not common:
        raise MetricError("trajectories share no annotated frames")
    hits = 0
    for frame in common:
        px, py = pred.points[frame]
        rx, ry = ref.points[frame]
        if math.hypot(px - rx, py - ry) <= radius:
            hits += 1
    return 100.0 * hits / len(common)


@dataclass(frozen=True)
class MaskScores:
    """Confusion-matrix scores of one predicted mask against reference.

    ``degenerate`` marks the both-empty case, where all scores are
    defined as 1 by convention.
    """

    iou: float
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def _confusion(pred: BinaryMask, ref: BinaryMask) -> tuple[int, int, int]:
    """True positive, false positive and false negative pixel counts."""
    p, r = pred.bits, ref.bits
    if p.shape != r.shape:
        raise MetricError(f"mask shapes differ: {p.shape} vs {r.shape}")
    tp = int(np.count_nonzero(p & r))
    return tp, int(np.count_nonzero(p)) - tp, int(np.count_nonzero(r)) - tp


def _scores(tp: int, fp: int, fn: int) -> MaskScores:
    if tp + fp + fn == 0:
        return MaskScores(1.0, 1.0, 1.0, 1.0, degenerate=True)
    iou = tp / (tp + fp + fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * tp / (2 * tp + fp + fn)
    return MaskScores(iou, precision, recall, f1)


@dataclass
class MaskScoreAccumulator:
    """Streaming micro/macro aggregation over a mask sequence.

    Micro scores pool the confusion counts over all frames; macro
    scores average the per-frame values (degenerate frames score 1).
    """

    tp: int = 0
    fp: int = 0
    fn: int = 0
    per_frame: list[MaskScores] = field(default_factory=list)

    def add(self, pred: BinaryMask, ref: BinaryMask) -> MaskScores:
        """Pool one frame's counts and return that frame's scores."""
        tp, fp, fn = _confusion(pred, ref)
        self.tp += tp
        self.fp += fp
        self.fn += fn
        scores = _scores(tp, fp, fn)
        self.per_frame.append(scores)
        return scores

    def micro(self) -> MaskScores:
        if not self.per_frame:
            raise MetricError("no frames accumulated")
        return _scores(self.tp, self.fp, self.fn)

    def macro(self) -> MaskScores:
        if not self.per_frame:
            raise MetricError("no frames accumulated")
        return MaskScores(
            iou=float(np.mean([s.iou for s in self.per_frame])),
            precision=float(np.mean([s.precision for s in self.per_frame])),
            recall=float(np.mean([s.recall for s in self.per_frame])),
            f1=float(np.mean([s.f1 for s in self.per_frame])),
        )

    def __len__(self) -> int:
        return len(self.per_frame)


def _pair_distances(points: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """|points[i] - points[j]| summed coordinate by coordinate as scipy's
    pdist does, so over np.triu_indices(n, 1) it equals pdist bit for bit."""
    sq = np.zeros(len(i))
    for c in points.T:
        d = c[i] - c[j]
        sq += d * d
    return np.sqrt(sq, out=sq)


# Pairs scored at once. 1,024 points make 523,776 pairs, one block, so
# every bundled scenario is scored by the all-pairs formula, bit for bit.
_PAIR_BLOCK = 1 << 19


def relative_distance_error(
    pred: np.ndarray, ref: np.ndarray
) -> tuple[float, float]:
    """Mean and std of pairwise-distance discrepancies, in input units.

    For every point pair (i, j), the error is
    abs(|pred_i - pred_j| - |ref_i - ref_j|). Because only distances
    enter, a global translation or rotation of either set changes
    nothing; this isolates geometric consistency from georeferencing.

    The pairs are walked in row blocks of the upper triangle, at most
    _PAIR_BLOCK pairs each (one row if a row holds more), and the blocks'
    means and squared deviations are merged (Chan, Golub and LeVeque), so
    memory is bounded whatever the number of points.
    """
    p = np.asarray(pred, dtype=float)
    r = np.asarray(ref, dtype=float)
    if p.shape != r.shape:
        raise MetricError(f"point sets differ in shape: {p.shape} vs {r.shape}")
    if p.ndim != 2 or p.shape[1] not in (2, 3):
        raise MetricError(f"expected (n, 2) or (n, 3) points, got {p.shape}")
    if p.shape[0] < 2:
        raise MetricError("need at least 2 points for pairwise distances")
    n = len(p)
    per_row = np.arange(n - 1, 0, -1)  # row r pairs point r with r+1 .. n-1
    row_end = np.cumsum(per_row)  # pairs in rows 0..r
    # Row r's pairs sit at positions row_end[r] - per_row[r] onward, in the
    # row-major order of np.triu_indices, so j is position + shift[r].
    shift = np.arange(1, n) - (row_end - per_row)
    count, mean, m2 = 0, 0.0, 0.0
    a = 0
    while a < n - 1:
        b = max(a + 1, int(np.searchsorted(row_end, count + _PAIR_BLOCK, side="right")))
        rows = per_row[a:b]
        i = np.repeat(np.arange(a, b), rows)
        j = np.arange(count, row_end[b - 1])
        j += np.repeat(shift[a:b], rows)
        errors = np.abs(_pair_distances(p, i, j) - _pair_distances(r, i, j))
        k = len(errors)
        block_mean = errors.sum() / k
        errors -= block_mean
        errors *= errors
        block_m2 = errors.sum()
        count += k
        delta = block_mean - mean
        # With one block these are errors.mean() and its squared
        # deviations exactly, as numpy's mean and std compute them.
        mean += delta * (k / count)
        m2 += block_m2 + delta * delta * ((count - k) * k / count)
        a = b
    return float(mean), float(math.sqrt(m2 / count))


def framewise_centroid_baseline(masks) -> Trajectory2D:
    """Per-frame centroid of the mask's pixels at or above 0.5, no temporal model.

    The reference baseline the filter is compared against. Frames with
    no such pixel carry the previous centroid forward (image center
    before the first detection) so every frame stays annotated.
    Only the mask's box is thresholded; the passing pixels come in the
    same row-major order as on the full frame, so the sums are the same.
    """
    points: dict[int, tuple[float, float]] = {}
    last: tuple[float, float] | None = None
    for i, mask in enumerate(masks):
        sub = mask.inner
        hit = sub >= 0.5
        ys, xs = np.nonzero(hit)
        w = sub[hit]
        ys, xs = ys + mask.box[0].start, xs + mask.box[1].start
        total = w.sum()
        if total > 0:
            last = (float(np.dot(w, xs) / total), float(np.dot(w, ys) / total))
        elif last is None:
            last = ((mask.shape[1] - 1) / 2.0, (mask.shape[0] - 1) / 2.0)
        points[i] = last
    if not points:
        raise MetricError("no masks supplied")
    return Trajectory2D(points)

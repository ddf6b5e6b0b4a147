"""Particle filter over soft segmentation masks with egomotion prediction.

The swarm's image position is tracked by a set of particles. Each frame
the particles are shifted by the egomotion-induced flow plus Gaussian
diffusion (the swarm's own motion model), weighted by the soft mask
value read bilinearly at their positions, and resampled with a roulette
wheel (inverse-CDF draw with independent uniforms).

Weights are set to the mask likelihood, not multiplied into the prior
weight. The two are the same bootstrap-filter update because every
frame with mask support is resampled, which leaves the next frame's
prior weights uniform; a lost frame resets them to uniform as well.

Pixel coordinates in this module are corner-origin: (0, 0) is the
center of the top-left pixel, x right, y down. The sampleable domain
is [0, w-1] x [0, h-1]; particles outside it have likelihood 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraMotion, CameraPose, Intrinsics, Poses, flow_field, motion_between_poses

# Consecutive lost frames after which the particle cloud is re-spread
# uniformly over the image.
LOST_REINIT_AFTER = 30


class TrackLostError(RuntimeError):
    """Every particle fell on zero mask support; no posterior exists."""


@dataclass(frozen=True)
class TrackerConfig:
    """Tuning knobs of the particle filter.

    motion_noise_sigma is the per-axis Gaussian diffusion in pixels per
    frame, covering swarm self-motion on top of the egomotion flow.
    seed fixes every random draw of a run.
    """

    n_particles: int = 1000
    motion_noise_sigma: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_particles < 2:
            raise ValueError(f"n_particles: must be >= 2, got {self.n_particles}")
        if not (math.isfinite(self.motion_noise_sigma) and self.motion_noise_sigma >= 0):
            raise ValueError(
                f"motion_noise_sigma: must be >= 0, got {self.motion_noise_sigma!r}"
            )
        if self.seed < 0:
            raise ValueError(f"seed: must be >= 0, got {self.seed}")


Box = tuple[slice, slice]


def nonzero_box(values: np.ndarray) -> Box:
    """Smallest (rows, cols) slice pair holding every nonzero of a 2-D array.

    An all-zero array gives the empty box (slice(0, 0), slice(0, 0)).
    The column pass reads only the band of nonzero rows.
    """
    rows = np.flatnonzero(values.any(axis=1))
    if rows.size == 0:
        return slice(0, 0), slice(0, 0)
    r0, r1 = int(rows[0]), int(rows[-1]) + 1
    cols = np.flatnonzero(values[r0:r1].any(axis=0))
    return slice(r0, r1), slice(int(cols[0]), int(cols[-1]) + 1)


def _is_range(s) -> bool:
    """A slice with integer bounds and a step of 1 or none."""
    return (isinstance(s, slice) and s.step in (None, 1)
            and all(isinstance(v, (int, np.integer)) for v in (s.start, s.stop, s.step or 1)))


class SoftMask:
    """Per-pixel swarm presence in [0, 1] on a frame of ``shape`` (height, width).

    ``SoftMask(inner, box, shape)`` holds a read-only copy of ``inner``
    inside ``box``, a (rows, cols) pair of step-1 integer slices, and
    stands for exactly 0.0 outside it; it stores nothing else. The range
    check reads the box only, with the full frame's message.
    """

    __slots__ = ("inner", "box", "shape")

    def __init__(self, inner: np.ndarray, box: Box, shape: tuple[int, int]) -> None:
        inner = np.array(inner, dtype=float)
        h, w = shape
        if not (isinstance(box, tuple) and len(box) == 2 and all(map(_is_range, box))):
            raise ValueError(f"mask box {box} is not two step-1 integer slices")
        if not all(0 <= s.start <= s.stop <= n for s, n in zip(box, shape)):
            raise ValueError(f"mask box {box} does not fit a {w}x{h} frame")
        if inner.shape != (box[0].stop - box[0].start, box[1].stop - box[1].start):
            raise ValueError(f"mask box {box} does not match values of shape {inner.shape}")
        # NaN propagates through min and max: finite extremes, finite mask.
        lo, hi = (float(inner.min()), float(inner.max())) if inner.size else (0.0, 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("mask contains non-finite values")
        if inner.size < h * w:
            # The zeros outside the box, so the message is the full frame's.
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"mask values must lie in [0, 1], got [{lo}, {hi}]")
        inner.flags.writeable = False
        self.inner = inner
        # Python int bounds: a numpy unsigned start would wrap in the reads.
        self.box = tuple(slice(int(s.start), int(s.stop)) for s in box)
        self.shape = (h, w)


@dataclass
class ParticleSet:
    """Particle cloud: positions (n, 2) corner-origin px, weights (n,).

    Each row of ``xy`` is one particle. Weights are kept normalized;
    the random generator travels with the set so a fixed seed fixes the
    whole trajectory of the filter.
    """

    xy: np.ndarray
    weights: np.ndarray
    rng: np.random.Generator

    def __post_init__(self) -> None:
        self.xy = np.asarray(self.xy, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        n = self.xy.shape[0]
        if self.xy.ndim != 2 or self.xy.shape[1] != 2 or n < 1:
            raise ValueError(f"xy must be (n, 2), got shape {self.xy.shape}")
        if self.weights.shape != (n,):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match {n} particles"
            )
        w = self.weights
        # A min and a sum accept a valid set: min propagates NaN, and a sum
        # of weights >= 0 is finite unless one is inf or the sum overflows.
        # Only a set they reject runs the checks that name what is wrong. A
        # negative or NaN minimum skips the sum, which might warn of inf - inf.
        total = float(w.sum()) if w.min() >= 0 else math.nan
        if not math.isfinite(total) and (np.any(w < 0) or not np.all(np.isfinite(w))):
            raise ValueError("weights must be finite and non-negative")
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {total}")


def init_uniform(intr: Intrinsics, config: TrackerConfig) -> ParticleSet:
    """Spread particles uniformly over the image, equal weights."""
    rng = np.random.default_rng(config.seed)
    xy = _uniform_cloud(intr.width, intr.height, config.n_particles, rng)
    w = np.full(config.n_particles, 1.0 / config.n_particles)
    return ParticleSet(xy, w, rng)


def _uniform_cloud(
    width: int, height: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    xy = np.empty((n, 2))
    xy[:, 0] = rng.uniform(0.0, width - 1.0, n)
    xy[:, 1] = rng.uniform(0.0, height - 1.0, n)
    return xy


def predict(
    ps: ParticleSet,
    motion: CameraMotion,
    intr: Intrinsics,
    z: float,
    sigma: float,
) -> ParticleSet:
    """Move particles by the induced flow plus Gaussian diffusion.

    ``z`` is the camera height over the scene for the flow model;
    ``sigma`` the per-axis diffusion in pixels. Weights are unchanged:
    prediction only transports the belief.
    """
    x_pp = ps.xy[:, 0] - intr.cx
    y_pp = ps.xy[:, 1] - intr.cy
    vx, vy = flow_field(x_pp, y_pp, motion, intr, z)
    xy = np.empty_like(ps.xy)
    xy[:, 0] = ps.xy[:, 0] + vx
    xy[:, 1] = ps.xy[:, 1] + vy
    if sigma > 0:
        xy += ps.rng.normal(0.0, sigma, size=xy.shape)
    return ParticleSet(xy, ps.weights.copy(), ps.rng)


def sample_bilinear(mask: SoftMask, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bilinear read of a mask at float positions, 0 outside the frame.

    Positions are corner-origin pixels; integer coordinates hit pixel
    values exactly. Outside [0, w-1] x [0, h-1] the result is 0, and so
    it is at NaN and infinite positions, without a warning. The
    four neighbours are found on the frame, then clipped into the box
    padded with zeros: a neighbour outside the box lands on the pad, so
    every read equals the full frame's.
    """
    h, w = mask.shape
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # Clips as maximum then fmin, a third cheaper than np.clip. maximum
    # turns -0.0 into 0.0, which reads the same; fmin turns NaN into the
    # last pixel, so the floor below casts no NaN to int, and the NaN
    # position still reads 0.
    xc = np.fmin(np.maximum(x, 0), w - 1)
    yc = np.fmin(np.maximum(y, 0), h - 1)
    # A clip that moves the position (or a NaN) puts it outside.
    inside = (xc == x) & (yc == y)
    # xc and yc are >= 0, so the lower index needs only its upper clamp.
    x0 = np.minimum(np.floor(xc).astype(int), max(w - 2, 0))
    y0 = np.minimum(np.floor(yc).astype(int), max(h - 2, 0))
    fx = xc - x0
    fy = yc - y0
    # The box padded with one zero row and column on every side, not
    # clamped to the frame: block column = frame column - cols.start + 1.
    rows, cols = mask.box
    bh, bw = mask.inner.shape[0] + 2, mask.inner.shape[1] + 2
    block = np.zeros((bh, bw))
    block[1:-1, 1:-1] = mask.inner
    # x0 + 1 (y0 + 1) leaves the frame only at w = 1 (h = 1), where fx
    # (fy) is 0 and weighs that neighbour out.
    c0 = np.minimum(np.maximum(x0 + (1 - cols.start), 0), bw - 1)
    c1 = np.minimum(np.maximum(x0 + (2 - cols.start), 0), bw - 1)
    r0 = np.minimum(np.maximum(y0 + (1 - rows.start), 0), bh - 1) * bw
    r1 = np.minimum(np.maximum(y0 + (2 - rows.start), 0), bh - 1) * bw
    flat = block.ravel()
    gx = 1 - fx
    top = flat[r0 + c0] * gx + flat[r0 + c1] * fx
    bot = flat[r1 + c0] * gx + flat[r1 + c1] * fx
    out = top * (1 - fy) + bot * fy
    return np.where(inside, out, 0.0)


def update_weights(ps: ParticleSet, mask: SoftMask) -> ParticleSet:
    """Set weights to the (normalized) mask likelihood at each particle.

    Raises TrackLostError when the total likelihood is zero; the caller
    decides whether to flag the frame and keep a uniform belief.
    """
    like = sample_bilinear(mask, ps.xy[:, 0], ps.xy[:, 1])
    total = float(like.sum())
    if total <= 0.0:
        raise TrackLostError("all particles have zero mask likelihood")
    return ParticleSet(ps.xy.copy(), like / total, ps.rng)


def resample_roulette(ps: ParticleSet) -> ParticleSet:
    """Roulette-wheel resampling: n independent inverse-CDF draws.

    Deliberately not systematic or stratified resampling; draws use
    independent uniforms against the weight CDF. The draws are searched
    in sorted order, which keeps the bisection's branches predictable;
    each draw still gets the index searchsorted gives it alone, since
    for 0 <= u < 1 the test cdf > u is monotone over the whole CDF,
    the guarded top included.
    """
    n = ps.xy.shape[0]
    cdf = np.cumsum(ps.weights)
    cdf[-1] = 1.0  # guard against cumulative roundoff at the top
    u = ps.rng.random(n)
    order = np.argsort(u)
    idx = np.empty(n, dtype=np.intp)
    idx[order] = np.searchsorted(cdf, u[order], side="right")
    xy = ps.xy[idx]
    w = np.full(n, 1.0 / n)
    return ParticleSet(xy, w, ps.rng)


def estimate_centroid(ps: ParticleSet) -> tuple[float, float]:
    """Weighted mean of the particle cloud, corner-origin pixels."""
    cx = float(np.dot(ps.weights, ps.xy[:, 0]))
    cy = float(np.dot(ps.weights, ps.xy[:, 1]))
    return cx, cy


@dataclass
class TrackResult:
    """Per-frame tracker output.

    centroids: (n_frames, 2) weighted centroid, corner-origin px.
    lost: (n_frames,) bool, True where the frame had zero support.
    particles: per-frame particle positions of the weighted posterior
    set (before resampling), for outline extraction downstream.
    weights: matching normalized weights, so downstream stages can
    restrict to the posterior support.
    """

    centroids: np.ndarray
    lost: np.ndarray
    particles: list[np.ndarray]
    weights: list[np.ndarray]


def track_sequence(
    masks,
    poses: Poses | list[CameraPose],
    intr: Intrinsics,
    config: TrackerConfig,
    keep_particles: bool = True,
) -> TrackResult:
    """Run the filter over a mask sequence with per-frame camera poses.

    ``masks`` may be any iterable of SoftMask (a generator keeps memory
    flat for long sequences); ``poses`` must have one pose per frame.
    A lost frame is flagged and its weights are reset to uniform; after
    LOST_REINIT_AFTER consecutive lost frames the particle positions are
    re-drawn uniformly over the image as well. Every frame that is not
    lost is resampled after its snapshot.
    """
    ps = init_uniform(intr, config)
    centroids = []
    lost_flags = []
    snapshots: list[np.ndarray] = []
    weight_snapshots: list[np.ndarray] = []
    lost_streak = 0
    prev_pose: CameraPose | None = None
    for t, mask in enumerate(masks):
        if t >= len(poses):
            raise ValueError(
                f"mask sequence has more frames than the {len(poses)} poses"
            )
        if mask.shape != (intr.height, intr.width):
            raise ValueError(
                f"frame {t}: mask is {mask.shape[1]}x{mask.shape[0]}, intrinsics "
                f"say {intr.width}x{intr.height}"
            )
        pose = poses[t]
        if prev_pose is not None:
            motion = motion_between_poses(prev_pose, pose)
            z_mid = 0.5 * (prev_pose.z + pose.z)
            ps = predict(ps, motion, intr, z_mid, config.motion_noise_sigma)
        try:
            ps = update_weights(ps, mask)
            lost = False
            lost_streak = 0
        except TrackLostError:
            lost = True
            lost_streak += 1
            if lost_streak >= LOST_REINIT_AFTER:
                xy = _uniform_cloud(intr.width, intr.height, config.n_particles, ps.rng)
                lost_streak = 0
            else:
                xy = ps.xy.copy()
            ps = ParticleSet(xy, np.full(config.n_particles, 1.0 / config.n_particles), ps.rng)
        centroids.append(estimate_centroid(ps))
        lost_flags.append(lost)
        if keep_particles:
            # Snapshot the same weighted set the centroid came from;
            # resampling below only prepares the next frame.
            snapshots.append(ps.xy.copy())
            weight_snapshots.append(ps.weights.copy())
        if not lost:
            ps = resample_roulette(ps)
        prev_pose = pose
    if len(centroids) != len(poses):
        raise ValueError(f"got {len(centroids)} masks for {len(poses)} poses")
    return TrackResult(
        centroids=np.array(centroids, dtype=float).reshape(len(centroids), 2),
        lost=np.array(lost_flags, dtype=bool),
        particles=snapshots,
        weights=weight_snapshots,
    )

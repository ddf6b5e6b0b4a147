"""Tracking of animal swarms in drone video.

The toolkit fuses per-frame soft segmentation masks with drone egomotion
in a particle filter, producing image-space tracks, alpha-shape outlines
and world-frame trajectories, plus a synthetic scenario generator and an
evaluation suite.
"""

from .geometry import (
    CameraMotion,
    CameraPose,
    GeometryError,
    Intrinsics,
    PixelPoint,
    Poses,
    WorldPoint,
    backproject_image_to_ground,
    motion_between_poses,
)
from .fusion import NoiseConfig, SensorLog, fuse_log
from .tracker import ParticleSet, SoftMask, TrackerConfig, TrackLostError, track_sequence
from .shapes import AlphaShape, BinaryMask, alpha_shape, default_alpha, rasterize
from .metrics import MaskScores, Trajectory2D, relative_distance_error, sdr

__version__ = "0.1.0"

__all__ = [
    "AlphaShape",
    "BinaryMask",
    "CameraMotion",
    "CameraPose",
    "GeometryError",
    "Intrinsics",
    "MaskScores",
    "NoiseConfig",
    "ParticleSet",
    "PixelPoint",
    "Poses",
    "SensorLog",
    "SoftMask",
    "TrackLostError",
    "TrackerConfig",
    "Trajectory2D",
    "WorldPoint",
    "alpha_shape",
    "backproject_image_to_ground",
    "default_alpha",
    "fuse_log",
    "motion_between_poses",
    "rasterize",
    "relative_distance_error",
    "sdr",
    "track_sequence",
    "__version__",
]

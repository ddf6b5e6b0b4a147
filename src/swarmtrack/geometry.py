"""Pinhole-camera geometry for a downward-looking drone camera.

Conventions used throughout the toolkit:

* World frame: right-handed ENU, X east, Y north, Z up, meters. The
  observed scene (water or ground surface) is the plane Z = 0.
* Camera frame: right-handed, x right, y down, z forward along the
  optical axis (the usual computer-vision layout).
* At zero attitude the camera looks straight down (nadir) with image x
  mapping to east and image y to south.
* Attitude angles are degrees, composed extrinsically about the fixed
  world axes in the order yaw (about Z), pitch (about Y), roll (about
  X). Yaw is heading-like: positive turns the view clockwise when seen
  from above.
* Functions in this module take pixel coordinates relative to the
  principal point (signed, x right / y down). Conversion from
  corner-origin pixel coordinates is a cx/cy shift done by callers.

Egomotion is expressed in the camera frame of the earlier of the two
poses involved: linear velocity (vx, vy, vz) along camera x/y/z and
angular rate (wx, wy, wz) about the same axes, per frame. The
angular rate is the rotation vector of the relative attitude. It is
computed in plain float math: the quaternion of the
relative rotation matrix by Markley's method (F. L. Markley, "Unit
Quaternion from Rotation Matrix", J. Guidance, Control, and Dynamics
31(2), 2008), from the largest of the diagonal and the trace, then the
angle-axis scaling with a series below 1e-3 rad. The operations follow
scipy's ``Rotation.from_matrix(m).as_rotvec()`` in order, so the result
equals it bit for bit, without loading scipy.spatial.

A pose sequence (one pose per video frame) is a ``Poses``: one
read-only (n, 6) array checked finite once. ``CameraPose`` is the
scalar form of one row, built only when a caller indexes or iterates.

Attitude matrices are built once per attitude: ``_attitude_rows`` keeps
the camera-to-world rows of the last two attitudes as tuples of Python
floats, keyed on the exact float64 bits of (roll, pitch, yaw), so a run
of poses at one attitude (a marker survey's fixed gimbal) and the
consecutive pose pairs of ``motion_between_poses`` reuse them. The rows
are a pure function of those bits, so reused rows are the ones a
rebuild would give, bit for bit; ``functools.lru_cache`` keeps the memo
consistent across threads. ``rotation_camera_to_world`` returns a new
array of them on each call and ``backproject_pixels`` reads them as
floats, so no caller can reach the kept rows.
"""

from __future__ import annotations

import math
import operator
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class GeometryError(ValueError):
    """A projection, backprojection, or motion computation is undefined."""


# Rays pointing less steeply down than this never get a ground intersection;
# near-grazing rays would put the intersection km away with no accuracy.
MIN_DESCENT_ANGLE_DEG = 1.0
_MIN_DESCENT = math.sin(math.radians(MIN_DESCENT_ANGLE_DEG))


def _finite(*values: float) -> bool:
    # A plain loop: half the cost of all() over a generator, per pose built.
    for v in values:
        if not math.isfinite(v):
            return False
    return True


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsics. Focal length and principal point in pixels."""

    f: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (_finite(self.f) and self.f > 0):
            raise ValueError(f"focal length must be positive, got {self.f!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError(
                f"image size must be positive, got {self.width}x{self.height}"
            )
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise ValueError(
                f"principal point ({self.cx}, {self.cy}) outside the "
                f"{self.width}x{self.height} image"
            )

    @classmethod
    def centered(cls, f: float, width: int, height: int) -> "Intrinsics":
        """Intrinsics with the principal point at the image center."""
        return cls(f=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


@dataclass(frozen=True)
class PixelPoint:
    """Image point, pixels relative to the principal point (x right, y down)."""

    x: float
    y: float


@dataclass(frozen=True)
class WorldPoint:
    """World-frame point in meters (ENU)."""

    x: float
    y: float
    z: float = 0.0


@dataclass(frozen=True)
class CameraPose:
    """Camera position (m, world frame) and attitude (deg).

    ``z`` is the height above the scene plane. Attitude follows the
    module conventions: extrinsic yaw -> pitch -> roll, compass-signed
    yaw, all zeros meaning nadir.
    """

    x: float
    y: float
    z: float
    pitch: float = 0.0
    yaw: float = 0.0
    roll: float = 0.0

    def __post_init__(self) -> None:
        if not _finite(self.x, self.y, self.z, self.pitch, self.yaw, self.roll):
            raise ValueError(f"pose fields must be finite, got {self}")

    @property
    def position(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


class Poses:
    """Camera poses of a frame sequence as one read-only (n, 6) array.

    Columns are [x, y, z, pitch, yaw, roll] with CameraPose's meaning;
    every value is finite. ``poses[i]`` and iteration build the
    CameraPose of one row; ``==`` compares element-wise.
    """

    __slots__ = ("array",)

    def __init__(self, array) -> None:
        a = np.array(array, dtype=float)
        if a.ndim != 2 or a.shape[1] != 6:
            raise ValueError(f"expected an (n, 6) pose array, got shape {a.shape}")
        if not np.isfinite(a).all():
            bad = ~np.isfinite(a).all(axis=1)
            CameraPose(*a[np.argmax(bad)].tolist())  # raises, naming the row
        a.flags.writeable = False
        # A view of a read-only base cannot be made writeable again.
        self.array = a.view()

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, i) -> CameraPose:
        return CameraPose(*self.array[operator.index(i)].tolist())

    def __iter__(self):
        for row in self.array.tolist():
            yield CameraPose(*row)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poses):
            return bool(np.array_equal(self.array, other.array))
        return NotImplemented

    def __repr__(self) -> str:
        return f"Poses(<{len(self)} poses>)"


@dataclass(frozen=True)
class CameraMotion:
    """Camera egomotion over one time unit, in the camera frame.

    ``linear`` is translation velocity along camera (x, y, z);
    ``angular`` is the rotation rate (rad per time unit) about the
    camera (x, y, z) axes.
    """

    linear: tuple[float, float, float]
    angular: tuple[float, float, float]

    def __post_init__(self) -> None:
        if len(self.linear) != 3 or len(self.angular) != 3:
            raise ValueError("linear and angular must each have 3 components")
        if not _finite(*self.linear, *self.angular):
            raise ValueError(f"motion components must be finite, got {self}")


def _rot_x(rad: float) -> np.ndarray:
    c, s = math.cos(rad), math.sin(rad)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_y(rad: float) -> np.ndarray:
    c, s = math.cos(rad), math.sin(rad)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(rad: float) -> np.ndarray:
    c, s = math.cos(rad), math.sin(rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# Camera axes in world coordinates at zero attitude: x east, y south, z down.
_NADIR_AXES = np.diag([1.0, -1.0, -1.0])


# An attitude (roll, pitch, yaw) as the bytes of three float64s: the
# memo key, so an entry is reused only for the very floats it was built
# from (keyed on values, 0.0 and -0.0 would share one).
_ATTITUDE = struct.Struct("3d")


@lru_cache(maxsize=2)
def _attitude_rows(key: bytes) -> tuple[tuple[float, float, float], ...]:
    """Camera-to-world rows of the attitude packed in ``key``, as Python floats.

    Two entries: ``motion_between_poses`` over a sequence needs the
    previous frame's rows and this one's.
    """
    roll, pitch, yaw = _ATTITUDE.unpack(key)
    # Compass yaw is clockwise from above, hence the sign flip on Rz.
    att = (
        _rot_x(math.radians(roll))
        @ _rot_y(math.radians(pitch))
        @ _rot_z(-math.radians(yaw))
    )
    return tuple(map(tuple, (att @ _NADIR_AXES).tolist()))


def rotation_camera_to_world(pose: CameraPose) -> np.ndarray:
    """3x3 matrix taking camera-frame vectors to world-frame vectors."""
    return np.array(_attitude_rows(_ATTITUDE.pack(pose.roll, pose.pitch, pose.yaw)))


def rotation_world_to_camera(pose: CameraPose) -> np.ndarray:
    """3x3 matrix taking world-frame vectors to camera-frame vectors."""
    return rotation_camera_to_world(pose).T


def project_points(points: np.ndarray, pose: CameraPose, intr: Intrinsics) -> np.ndarray:
    """Project an (n, 3) array of world points to principal-point pixels.

    Returns an (n, 2) array. Raises GeometryError if any point has
    non-positive depth along the optical axis.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (n, 3) array, got shape {pts.shape}")
    cam = (pts - pose.position) @ rotation_camera_to_world(pose)
    depth = cam[:, 2]
    if np.any(depth == 0.0):
        raise GeometryError("point at zero depth has no projection")
    if np.any(depth < 0.0):
        raise GeometryError("point behind the camera")
    out = np.empty((pts.shape[0], 2))
    out[:, 0] = intr.f * cam[:, 0] / depth
    out[:, 1] = intr.f * cam[:, 1] / depth
    return out


def backproject_pixels(
    x: np.ndarray | float, y: np.ndarray | float, pose: CameraPose, intr: Intrinsics
) -> tuple[np.ndarray | float, np.ndarray | float]:
    """Intersect viewing rays with the Z=0 plane for pixel arrays.

    ``x`` and ``y`` are principal-point pixel coordinates (any matching
    shape). Returns world (X, Y) arrays of the same shape. Two floats
    (Python floats or ``np.float64``) give two scalars: they go through
    the same operations in the same order as arrays, in Python floats,
    so every bit is the same. Raises GeometryError if the camera is not
    above the plane or any ray descends at less than
    MIN_DESCENT_ANGLE_DEG below horizontal.
    """
    if pose.z <= 0:
        raise GeometryError(
            f"camera height must be positive to hit the scene plane, got {pose.z}"
        )
    scalar = isinstance(x, float) and isinstance(y, float)
    if scalar:
        x, y = float(x), float(y)
    else:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = _attitude_rows(
        _ATTITUDE.pack(pose.roll, pose.pitch, pose.yaw)
    )
    f = intr.f
    # Ray direction per pixel: R_cw @ (x/f, y/f, 1).
    dx = r00 * x / f + r01 * y / f + r02
    dy = r10 * x / f + r11 * y / f + r12
    dz = r20 * x / f + r21 * y / f + r22
    sq = dx * dx + dy * dy + dz * dz
    # Sine of the angle below horizontal; both square roots round correctly.
    descent = -dz / (math.sqrt(sq) if scalar else np.sqrt(sq))
    below = descent < _MIN_DESCENT
    if below if scalar else below.any():
        worst = math.degrees(math.asin(float(np.min(descent))))
        raise GeometryError(
            f"viewing ray descends at {worst:.3f} deg, below the "
            f"{MIN_DESCENT_ANGLE_DEG} deg minimum; no usable ground intersection"
        )
    s = -pose.z / dz
    return pose.x + s * dx, pose.y + s * dy


def backproject_image_to_ground(
    pixel: PixelPoint, pose: CameraPose, intr: Intrinsics
) -> WorldPoint:
    """Intersect one pixel's viewing ray with the scene plane Z=0."""
    gx, gy = backproject_pixels(float(pixel.x), float(pixel.y), pose, intr)
    return WorldPoint(float(gx), float(gy), 0.0)


def flow_field(
    x: np.ndarray,
    y: np.ndarray,
    motion: CameraMotion,
    intr: Intrinsics,
    z: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Egomotion-induced image flow at pixel arrays (x, y).

    Instantaneous motion field of a plane at depth ``z`` along the
    optical axis, for camera translation ``motion.linear`` and rotation
    rate ``motion.angular``. Pixels relative to the principal point;
    result in pixels per time unit, same shape as the inputs.
    """
    if not (_finite(z) and z > 0):
        raise GeometryError(f"scene depth must be positive, got {z!r}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    f = intr.f
    tx, ty, tz = motion.linear
    wx, wy, wz = motion.angular
    vx = (-f * tx + x * tz) / z + (wx * x * y / f - wy * f - wy * x * x / f + wz * y)
    vy = (-f * ty + y * tz) / z + (wx * f + wx * y * y / f - wy * x * y / f - wz * x)
    return vx, vy


def motion_between_poses(prev: CameraPose, curr: CameraPose) -> CameraMotion:
    """Camera-frame egomotion taking ``prev`` to ``curr`` over one frame.

    Linear velocity is the world displacement rotated into the earlier
    camera frame; angular rate is the rotation vector of the relative
    attitude, also in the earlier camera frame.
    """
    r_wc_prev = rotation_world_to_camera(prev)
    linear = r_wc_prev @ (curr.position - prev.position)
    return CameraMotion(
        (float(linear[0]), float(linear[1]), float(linear[2])),
        _rotvec(r_wc_prev @ rotation_camera_to_world(curr)),
    )


def _rotvec(m: np.ndarray) -> tuple[float, float, float]:
    """Rotation vector of the 3x3 rotation matrix ``m``, in radians.

    Markley's quaternion from the largest of the diagonal and the trace,
    then the angle-axis scaling, with scipy's ``Rotation.from_matrix(m)
    .as_rotvec()`` operations in scipy's order, so the result equals it
    bit for bit (``m`` orthonormal to rounding, as every product of
    attitude matrices is).
    """
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m.tolist()
    tr = m00 + m11 + m22
    # The first maximum of (m00, m11, m22, tr) picks the stable branch.
    if m00 >= m11 and m00 >= m22 and m00 >= tr:
        x, y, z, w = 1 - tr + 2 * m00, m10 + m01, m20 + m02, m21 - m12
    elif m11 >= m22 and m11 >= tr:
        x, y, z, w = m10 + m01, 1 - tr + 2 * m11, m21 + m12, m02 - m20
    elif m22 >= tr:
        x, y, z, w = m20 + m02, m21 + m12, 1 - tr + 2 * m22, m10 - m01
    else:
        x, y, z, w = m21 - m12, m02 - m20, m10 - m01, 1 + tr
    n = math.sqrt(x * x + y * y + z * z + w * w)
    x, y, z, w = x / n, y / n, z / n, w / n
    # The sign with w >= 0 gives an angle in [0, pi]; at w == 0 (a half
    # turn) the first nonzero of x, y, z is made positive.
    if w < 0 or (w == 0 and (x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))))):
        x, y, z, w = -x, -y, -z, -w
    angle = 2 * math.atan2(math.sqrt(x * x + y * y + z * z), w)
    if angle <= 1e-3:
        a2 = angle * angle
        scale = 2 + a2 / 12 + 7 * a2 * a2 / 2880
    else:
        scale = angle / math.sin(angle / 2)
    return scale * x, scale * y, scale * z

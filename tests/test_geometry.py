"""Projection, ground-plane backprojection, flow model, pose differencing."""
import itertools
import math
import sys
import threading
from importlib import resources

import numpy as np
import pytest

from swarmtrack import fusion, geometry, io_formats, synth
from swarmtrack.geometry import (
    CameraMotion,
    CameraPose,
    GeometryError,
    Intrinsics,
    PixelPoint,
    backproject_image_to_ground,
    backproject_pixels,
    flow_field,
    motion_between_poses,
    project_points,
    _rotvec,
    rotation_camera_to_world,
    rotation_world_to_camera,
)

INTR = Intrinsics.centered(1000.0, 3840, 2160)
NADIR = CameraPose(0.0, 0.0, 100.0)
STILL = CameraMotion((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def _project(x, y, z, pose=NADIR):
    """Principal-point pixel (x, y) of one world point."""
    return project_points(np.array([[x, y, z]]), pose, INTR)[0]


class TestProjection:
    def test_optical_axis_point_hits_principal_point(self):
        x, y = _project(0.0, 0.0, 0.0)
        assert abs(x) < 1e-12 and abs(y) < 1e-12

    def test_lateral_offset_scales_by_similar_triangles(self):
        # x_px = f * X / Z = 1000 * 10 / 100
        x, y = _project(10.0, 0.0, 0.0)
        assert x == pytest.approx(100.0, abs=1e-9)
        assert y == pytest.approx(0.0, abs=1e-9)

    def test_north_offset_maps_to_negative_image_y(self):
        # Camera y points down the image and south on the ground at nadir.
        _, y = _project(0.0, 10.0, 0.0)
        assert y == pytest.approx(-100.0, abs=1e-9)

    def test_point_behind_camera_rejected(self):
        with pytest.raises(GeometryError, match="behind"):
            _project(0.0, 0.0, 250.0)

    def test_point_at_zero_depth_rejected(self):
        with pytest.raises(GeometryError, match="zero depth"):
            _project(5.0, 0.0, 100.0)

    def test_project_points_shape_validation(self):
        with pytest.raises(ValueError):
            project_points(np.zeros((4, 2)), NADIR, INTR)


class TestBackprojection:
    def test_principal_point_lands_at_ground_footprint(self):
        pose = CameraPose(3.0, -2.0, 100.0, yaw=37.0)
        w = backproject_image_to_ground(PixelPoint(0.0, 0.0), pose, INTR)
        assert w.x == pytest.approx(3.0, abs=1e-9)
        assert w.y == pytest.approx(-2.0, abs=1e-9)
        assert w.z == 0.0

    def test_lateral_pixel_inverts_projection_example(self):
        w = backproject_image_to_ground(PixelPoint(100.0, 0.0), NADIR, INTR)
        assert w.x == pytest.approx(10.0, abs=1e-9)
        assert w.y == pytest.approx(0.0, abs=1e-9)

    def test_plane_height_is_exactly_zero(self):
        w = backproject_image_to_ground(PixelPoint(421.5, -300.25), NADIR, INTR)
        assert w.z == 0.0

    def test_round_trip_identity_over_random_poses(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            pose = CameraPose(
                x=rng.uniform(-50, 50),
                y=rng.uniform(-50, 50),
                z=rng.uniform(30, 150),
                pitch=rng.uniform(-15, 15),
                yaw=rng.uniform(0, 360),
                roll=rng.uniform(-15, 15),
            )
            px = rng.uniform(-INTR.cx * 0.8, INTR.cx * 0.8)
            py = rng.uniform(-INTR.cy * 0.8, INTR.cy * 0.8)
            ground = backproject_image_to_ground(PixelPoint(px, py), pose, INTR)
            bx, by = _project(ground.x, ground.y, ground.z, pose)
            assert bx == pytest.approx(px, abs=1e-9)
            assert by == pytest.approx(py, abs=1e-9)

    def test_camera_at_or_below_plane_rejected(self):
        with pytest.raises(GeometryError, match="height"):
            backproject_image_to_ground(
                PixelPoint(0, 0), CameraPose(0, 0, 0.0), INTR
            )

    def test_grazing_ray_rejected(self):
        # Pitching the optical axis to 0.5 deg below horizontal is under
        # the 1 deg floor, so there is no usable ground intersection.
        pose = CameraPose(0.0, 0.0, 100.0, pitch=89.5)
        with pytest.raises(GeometryError, match="deg"):
            backproject_image_to_ground(PixelPoint(0.0, 0.0), pose, INTR)

    def test_vectorized_matches_scalar(self):
        pose = CameraPose(5.0, 1.0, 80.0, pitch=4.0, yaw=120.0, roll=-2.0)
        xs = np.array([0.0, 150.0, -431.0])
        ys = np.array([10.0, -90.0, 222.0])
        gx, gy = backproject_pixels(xs, ys, pose, INTR)
        for i in range(3):
            w = backproject_image_to_ground(PixelPoint(xs[i], ys[i]), pose, INTR)
            assert gx[i] == pytest.approx(w.x, abs=1e-12)
            assert gy[i] == pytest.approx(w.y, abs=1e-12)


def reference_backproject(x, y, pose, intr):
    """backproject_pixels as it computed before scalars kept to floats:
    every input through np.asarray, the matrix entries by numpy scalar
    indexing, np.any for the descent test."""
    if pose.z <= 0:
        raise GeometryError(
            f"camera height must be positive to hit the scene plane, got {pose.z}"
        )
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r_cw = rotation_camera_to_world(pose)
    dx = r_cw[0, 0] * x / intr.f + r_cw[0, 1] * y / intr.f + r_cw[0, 2]
    dy = r_cw[1, 0] * x / intr.f + r_cw[1, 1] * y / intr.f + r_cw[1, 2]
    dz = r_cw[2, 0] * x / intr.f + r_cw[2, 1] * y / intr.f + r_cw[2, 2]
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    descent = -dz / norm
    min_descent = math.sin(math.radians(geometry.MIN_DESCENT_ANGLE_DEG))
    if np.any(descent < min_descent):
        worst = math.degrees(math.asin(float(np.min(descent))))
        raise GeometryError(
            f"viewing ray descends at {worst:.3f} deg, below the "
            f"{geometry.MIN_DESCENT_ANGLE_DEG} deg minimum; no usable ground intersection"
        )
    s = -pose.z / dz
    return pose.x + s * dx, pose.y + s * dy


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


PITCHED = [
    CameraPose(12.5, -7.25, 60.0, pitch=pitch, yaw=yaw, roll=roll)
    for pitch in (0.0, 10.0, 20.0, 30.0)
    for yaw, roll in ((0.0, 0.0), (137.0, -3.5))
]


class TestScalarBackprojection:
    """A scalar goes through the same formula in Python floats: the bits
    of the numpy-array formula it replaced, on every input kind."""

    @pytest.mark.parametrize("pose", PITCHED, ids=repr)
    @pytest.mark.parametrize(
        "kind", [float, np.float64, np.array, lambda v: np.array([v]), round]
    )
    def test_every_input_kind_matches_the_array_formula(self, pose, kind):
        rng = np.random.default_rng(int(pose.pitch))
        for x, y in rng.uniform(-300.0, 300.0, (50, 2)).tolist():
            got = backproject_pixels(kind(x), kind(y), pose, INTR)
            want = reference_backproject(kind(x), kind(y), pose, INTR)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1]), (x, y)

    @pytest.mark.parametrize("pose", PITCHED, ids=repr)
    @pytest.mark.parametrize("shape", [(7,), (5, 9)])
    def test_arrays_match_the_array_formula(self, pose, shape):
        rng = np.random.default_rng(len(shape))
        x, y = rng.uniform(-300.0, 300.0, (2, *shape))
        got = backproject_pixels(x, y, pose, INTR)
        want = reference_backproject(x, y, pose, INTR)
        assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    def test_every_marker_sighting_matches_the_array_formula(self):
        for seed in range(25):
            run = synth.generate_marker_run(seed)
            cfg = run.config
            intr = Intrinsics.centered(cfg.focal_px, cfg.width, cfg.height)
            poses = fusion.fuse_log(run.sensor_log, cfg.noise, cfg.fps, cfg.duration)
            for _, frame, u, v in run.sightings:
                args = (u - intr.cx, v - intr.cy, poses[frame], intr)
                got, want = backproject_pixels(*args), reference_backproject(*args)
                assert _same_bits(got, want), (seed, frame)

    @pytest.mark.parametrize("value", [1.5, np.float64(-2.25)])
    def test_a_scalar_in_gives_a_scalar_out(self, value):
        gx, gy = backproject_pixels(value, value, PITCHED[3], INTR)
        assert type(gx) is float and type(gy) is float

    @pytest.mark.parametrize("z", [0.0, -1.0])
    def test_camera_not_above_the_plane_message_is_unchanged(self, z):
        pose = CameraPose(0.0, 0.0, z)
        with pytest.raises(GeometryError) as want:
            reference_backproject(np.float64(3.0), np.float64(4.0), pose, INTR)
        with pytest.raises(GeometryError) as got:
            backproject_pixels(3.0, 4.0, pose, INTR)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("pitch", [89.5, 95.0])
    def test_grazing_ray_message_is_unchanged(self, pitch):
        pose = CameraPose(0.0, 0.0, 100.0, pitch=pitch)
        with pytest.raises(GeometryError) as want:
            reference_backproject(np.float64(0.0), np.float64(0.0), pose, INTR)
        with pytest.raises(GeometryError) as got:
            backproject_pixels(0.0, 0.0, pose, INTR)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("x, y", [(math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)])
    def test_nan_passes_the_descent_test_as_before(self, x, y):
        got = backproject_pixels(x, y, PITCHED[2], INTR)
        want = reference_backproject(x, y, PITCHED[2], INTR)
        assert _same_bits(got, want)
        assert math.isnan(got[0]) and math.isnan(got[1])

    @pytest.mark.parametrize("pose", PITCHED, ids=repr)
    def test_image_to_ground_equals_the_one_element_array(self, pose):
        for x, y in np.random.default_rng(3).uniform(-300.0, 300.0, (20, 2)).tolist():
            w = backproject_image_to_ground(PixelPoint(x, y), pose, INTR)
            gx, gy = reference_backproject(np.array([x]), np.array([y]), pose, INTR)
            assert _same_bits([w.x, w.y], [gx[0], gy[0]]) and w.z == 0.0
            assert type(w.x) is float and type(w.y) is float


def _flow(x, y, motion, z):
    """Flow (vx, vy) at one principal-point pixel."""
    vx, vy = flow_field(np.array([x]), np.array([y]), motion, INTR, z)
    return float(vx[0]), float(vy[0])


class TestInducedFlow:
    def test_zero_motion_zero_flow(self):
        v = _flow(123.0, -45.0, STILL, 100.0)
        assert v == (0.0, 0.0)

    def test_forward_translation_hand_value(self):
        # U = 1 m/frame at f=1000, z=100: v = (-f*U/z, 0) = (-10, 0).
        motion = CameraMotion((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        v = _flow(0.0, 0.0, motion, 100.0)
        assert v[0] == pytest.approx(-10.0, abs=1e-12)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_pure_yaw_rate_hand_value(self):
        # Rotation about the optical axis sweeps pixels tangentially:
        # (C*y, -C*x) at p=(100, 0) with C=0.01 gives (0, -1).
        motion = CameraMotion((0.0, 0.0, 0.0), (0.0, 0.0, 0.01))
        v = _flow(100.0, 0.0, motion, 100.0)
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[1] == pytest.approx(-1.0, abs=1e-12)

    def test_flow_is_linear_in_motion(self):
        rng = np.random.default_rng(5)
        x, y = 200.0, -150.0
        for _ in range(50):
            l1 = rng.normal(size=3)
            l2 = rng.normal(size=3)
            w1 = rng.normal(size=3) * 0.01
            w2 = rng.normal(size=3) * 0.01
            a, b = rng.normal(), rng.normal()
            combined = CameraMotion(
                tuple(a * l1 + b * l2), tuple(a * w1 + b * w2)
            )
            v = np.array(_flow(x, y, combined, 90.0))
            v1 = np.array(_flow(x, y, CameraMotion(tuple(l1), tuple(w1)), 90.0))
            v2 = np.array(_flow(x, y, CameraMotion(tuple(l2), tuple(w2)), 90.0))
            np.testing.assert_allclose(v, a * v1 + b * v2, atol=1e-9)

    def test_depth_must_be_positive(self):
        with pytest.raises(GeometryError, match="depth"):
            _flow(0.0, 0.0, STILL, 0.0)

    def test_flow_field_is_elementwise_over_grids(self):
        motion = CameraMotion((0.4, -0.2, 0.1), (0.002, -0.001, 0.003))
        xs = np.array([[0.0, 512.0, -1000.0], [3.5, -7.25, 1919.0]])
        ys = np.array([[7.0, -300.0, 900.0], [-1079.0, 0.0, 42.0]])
        vx, vy = flow_field(xs, ys, motion, INTR, 75.0)
        assert vx.shape == vy.shape == xs.shape
        for i, j in np.ndindex(xs.shape):
            v = _flow(xs[i, j], ys[i, j], motion, 75.0)
            assert vx[i, j] == pytest.approx(v[0], abs=1e-12)
            assert vy[i, j] == pytest.approx(v[1], abs=1e-12)


class TestMotionBetweenPoses:
    def test_identical_poses_give_zero_motion(self):
        pose = CameraPose(4.0, 5.0, 60.0, pitch=3.0, yaw=200.0, roll=-1.0)
        m = motion_between_poses(pose, pose)
        assert m.linear == (0.0, 0.0, 0.0)
        np.testing.assert_allclose(m.angular, 0.0, atol=1e-12)

    def test_east_step_maps_into_camera_axes_by_yaw(self):
        # Nadir camera, 1 m step along world X over one frame. At yaw 0
        # the camera x axis is east: U = 1. At yaw 90 (facing east) the
        # step lands on the camera y axis instead: V = -1.
        m0 = motion_between_poses(
            CameraPose(0, 0, 100, yaw=0.0), CameraPose(1, 0, 100, yaw=0.0)
        )
        np.testing.assert_allclose(m0.linear, (1.0, 0.0, 0.0), atol=1e-12)
        m90 = motion_between_poses(
            CameraPose(0, 0, 100, yaw=90.0), CameraPose(1, 0, 100, yaw=90.0)
        )
        np.testing.assert_allclose(m90.linear, (0.0, -1.0, 0.0), atol=1e-12)

    def test_pure_yaw_change_gives_axis_rate(self):
        m = motion_between_poses(
            CameraPose(0, 0, 100, yaw=10.0), CameraPose(0, 0, 100, yaw=11.0)
        )
        assert m.angular[0] == pytest.approx(0.0, abs=1e-12)
        assert m.angular[1] == pytest.approx(0.0, abs=1e-12)
        assert m.angular[2] == pytest.approx(math.radians(1.0), abs=1e-12)

    def test_reverse_motion_inverts_forward_motion(self):
        # R_ba = R_ab^T shares the rotation axis, so the rotation vector
        # flips sign; the displacement flips and moves into frame b.
        rng = np.random.default_rng(12)
        for _ in range(50):
            x, y, z, pitch, yaw, roll = rng.uniform(
                (-50, -50, 20, -20, 0, -5), (50, 50, 120, 20, 360, 5)
            )
            dx, dy, dz, dpitch, dyaw, droll = rng.normal(0, (2, 2, 2, 1, 2, 1))
            a = CameraPose(x, y, z, pitch=pitch, yaw=yaw, roll=roll)
            b = CameraPose(x + dx, y + dy, z + dz,
                           pitch=pitch + dpitch, yaw=yaw + dyaw, roll=roll + droll)
            ab, ba = motion_between_poses(a, b), motion_between_poses(b, a)
            np.testing.assert_allclose(ba.angular, -np.array(ab.angular), atol=1e-12)
            r_ab = rotation_world_to_camera(a) @ rotation_camera_to_world(b)
            np.testing.assert_allclose(
                ba.linear, -(r_ab.T @ np.array(ab.linear)), atol=1e-9
            )


def _relative_rotations(pairs) -> np.ndarray:
    """The relative attitude of each pose pair, as motion_between_poses forms it."""
    return np.array([
        rotation_world_to_camera(a) @ rotation_camera_to_world(b) for a, b in pairs
    ])


class TestRotvecOracle:
    """_rotvec equals scipy's Rotation.from_matrix(m).as_rotvec() bit for bit."""

    @staticmethod
    def _assert_bitwise_scipy(mats: np.ndarray) -> None:
        from scipy.spatial.transform import Rotation  # the oracle only
        ref = Rotation.from_matrix(mats).as_rotvec()
        got = np.array([_rotvec(m) for m in mats]).reshape(ref.shape)
        # Compared as integers, so a sign of zero counts too.
        bad = np.flatnonzero((got.view(np.int64) != ref.view(np.int64)).any(axis=1))
        assert bad.size == 0, (
            f"{bad.size} of {len(mats)} differ; first {mats[bad[0]].tolist()}: "
            f"{got[bad[0]].tolist()} != {ref[bad[0]].tolist()}"
        )

    def test_inter_frame_rotations_on_both_sides_of_the_series_switch(self):
        from scipy.spatial.transform import Rotation
        rng = np.random.default_rng(0)
        n = 40_000
        angle = 10 ** rng.uniform(-7, -2, n)
        axis = rng.normal(size=(n, 3))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        att = Rotation.random(n, rng=rng).as_matrix()
        step = Rotation.from_rotvec(axis * angle[:, None]).as_matrix()
        rel = np.swapaxes(att, 1, 2) @ (att @ step)
        # Pose pairs through geometry's own attitude matrices.
        pairs = []
        for _ in range(10_000):
            pitch, roll = rng.uniform(-30.0, 30.0, 2)
            yaw = rng.uniform(0.0, 360.0)
            d = np.degrees(10 ** rng.uniform(-7, -2) * rng.normal(size=3) / math.sqrt(3))
            pairs.append((
                CameraPose(0, 0, 50, pitch=pitch, yaw=yaw, roll=roll),
                CameraPose(0, 0, 50, pitch=pitch + d[0], yaw=yaw + d[1], roll=roll + d[2]),
            ))
        rel = np.concatenate([rel, _relative_rotations(pairs)])
        angles = np.linalg.norm(Rotation.from_matrix(rel).as_rotvec(), axis=1)
        assert (angles <= 1e-3).sum() > 30_000 and (angles > 1e-3).sum() > 8_000
        self._assert_bitwise_scipy(rel)

    def test_arbitrary_attitudes_reach_every_branch(self):
        from scipy.spatial.transform import Rotation
        mats = Rotation.random(50_000, rng=np.random.default_rng(1)).as_matrix()
        diag = np.diagonal(mats, axis1=1, axis2=2)
        choice = np.argmax(np.column_stack([diag, diag.sum(axis=1)]), axis=1)
        assert np.bincount(choice, minlength=4).min() > 1_000
        self._assert_bitwise_scipy(mats)

    def test_exact_quarter_and_half_turns(self):
        # Every signed permutation matrix of determinant +1: the identity,
        # quarter, half and third turns about the axes and diagonals.
        mats = []
        for perm in itertools.permutations(range(3)):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                m = np.zeros((3, 3))
                m[range(3), perm] = signs
                if np.linalg.det(m) > 0:
                    mats.append(m)
        assert len(mats) == 24
        # Half turns 2 n n^T - I about axes with zero components, in every
        # order and sign: w is exactly 0, so the sign rule for x, y, z decides.
        for triple in ((0.6, 0.8, 0.0), (5 / 13, 12 / 13, 0.0), (1.0, 0.0, 0.0)):
            for perm in itertools.permutations(triple):
                for signs in itertools.product((1.0, -1.0), repeat=3):
                    n = np.array(perm) * signs
                    mats.append(2 * np.outer(n, n) - np.eye(3))
        self._assert_bitwise_scipy(np.array(mats))

    @pytest.mark.parametrize("name", ["default_scenario.json", "degradation_scenario.json"])
    def test_fused_pose_pairs_of_bundled_scenarios(self, name):
        config = io_formats.scenario_config_from_json(
            resources.files("swarmtrack.data").joinpath(name).read_text("utf-8")
        )
        log = synth._simulate(config)[0]
        fused = list(fusion.fuse_log(log, config.noise, config.fps, config.duration))
        self._assert_bitwise_scipy(_relative_rotations(zip(fused, fused[1:])))


class TestValidation:
    def test_intrinsics_reject_bad_focal(self):
        with pytest.raises(ValueError, match="focal"):
            Intrinsics(f=0.0, cx=10, cy=10, width=20, height=20)

    def test_intrinsics_reject_outside_principal_point(self):
        with pytest.raises(ValueError, match="principal point"):
            Intrinsics(f=100.0, cx=25, cy=10, width=20, height=20)

    def test_pose_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CameraPose(float("nan"), 0.0, 10.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["x", "y", "z", "pitch", "yaw", "roll"])
    def test_pose_rejects_non_finite_in_every_field(self, field, value):
        fields = {"x": 1.0, "y": -2.0, "z": 30.0, "pitch": 1.0, "yaw": 2.0, "roll": 3.0}
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            CameraPose(**fields)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("index", range(6))
    def test_motion_rejects_non_finite_in_every_component(self, index, value):
        comps = [0.5, -1.0, 2.0, 0.01, -0.02, 0.03]
        comps[index] = value
        with pytest.raises(ValueError, match="finite"):
            CameraMotion(tuple(comps[:3]), tuple(comps[3:]))

    def test_motion_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            CameraMotion((1.0, 2.0), (0.0, 0.0, 0.0))


def uncached_rotation(roll, pitch, yaw):
    """Camera-to-world matrix built from scratch: roll, pitch, compass yaw."""
    att = (
        geometry._rot_x(math.radians(roll))
        @ geometry._rot_y(math.radians(pitch))
        @ geometry._rot_z(-math.radians(yaw))
    )
    return att @ geometry._NADIR_AXES


def attitudes():
    """(roll, pitch, yaw) triples: random, signed zeros, yaw at the seams."""
    rng = np.random.default_rng(21)
    out = [tuple(a) for a in rng.uniform(-30.0, 30.0, (40, 3)).tolist()]
    out += [tuple(a) for a in rng.uniform(-720.0, 720.0, (20, 3)).tolist()]
    out += list(itertools.product((0.0, -0.0), repeat=3))
    out += [(0.0, 0.0, yaw) for yaw in (180.0, -180.0, 360.0, -360.0, 179.999, 540.0)]
    out += [(2.5, -1.0, yaw) for yaw in (180.0, -180.0, 360.0, 0.0, -0.0)]
    return out


class TestAttitudeMemo:
    """_attitude_rows keeps the rows of its last two attitudes, keyed on the
    exact bits of (roll, pitch, yaw): a kept one is the one a rebuild
    gives, and every matrix handed out is a new array."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_equals_the_uncached_product(self, stride):
        atts = attitudes()
        # Revisit each attitude at once and `stride` steps later, so the
        # two kept entries are hit and evicted in every pattern.
        sequence = [atts[(i // 2 + (i % 2) * stride) % len(atts)] for i in range(4 * len(atts))]
        for roll, pitch, yaw in sequence:
            pose = CameraPose(1.0, 2.0, 30.0, pitch=pitch, yaw=yaw, roll=roll)
            want = uncached_rotation(roll, pitch, yaw)
            assert rotation_camera_to_world(pose).tobytes() == want.tobytes()
            assert rotation_world_to_camera(pose).tobytes() == want.T.tobytes()

    def test_signed_zeros_are_separate_entries(self):
        geometry._attitude_rows.cache_clear()
        for yaw in (0.0, -0.0, 0.0, -0.0):
            rotation_camera_to_world(CameraPose(0.0, 0.0, 10.0, yaw=yaw))
        info = geometry._attitude_rows.cache_info()
        assert (info.misses, info.hits, info.maxsize) == (2, 2, 2)

    def test_integer_and_float_attitudes_share_an_entry(self):
        geometry._attitude_rows.cache_clear()
        a = rotation_camera_to_world(CameraPose(0, 0, 10, pitch=3, yaw=90, roll=-1))
        b = rotation_camera_to_world(CameraPose(0.0, 0.0, 10.0, pitch=3.0, yaw=90.0, roll=-1.0))
        assert a.tobytes() == b.tobytes() == uncached_rotation(-1.0, 3.0, 90.0).tobytes()
        assert geometry._attitude_rows.cache_info().misses == 1

    def test_writing_into_a_matrix_changes_neither_the_memo_nor_the_next_call(self):
        pose = CameraPose(0.0, 0.0, 10.0, pitch=4.0, yaw=33.0, roll=-2.0)
        want = uncached_rotation(-2.0, 4.0, 33.0)
        key = geometry._ATTITUDE.pack(-2.0, 4.0, 33.0)
        for m in (rotation_camera_to_world(pose), rotation_world_to_camera(pose)):
            m[...] = 5.0
            assert geometry._attitude_rows(key) == tuple(map(tuple, want.tolist()))
            assert rotation_camera_to_world(pose).tobytes() == want.tobytes()
            assert rotation_world_to_camera(pose).tobytes() == want.T.tobytes()

    def test_two_threads_alternating_attitudes_get_their_own_matrices(self):
        pairs = [((1.0, 2.0, 3.0), (-4.0, 5.0, 181.0)), ((0.0, -0.0, 90.0), (7.0, -8.0, -359.0))]
        want = {att: uncached_rotation(*att).tobytes() for pair in pairs for att in pair}
        start = threading.Barrier(2)
        wrong = []

        def work(pair):
            start.wait()
            for i in range(3000):
                roll, pitch, yaw = att = pair[i % 2]
                pose = CameraPose(0.0, 0.0, 10.0, pitch=pitch, yaw=yaw, roll=roll)
                if rotation_camera_to_world(pose).tobytes() != want[att]:
                    wrong.append(att)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(pair,)) for pair in pairs]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []

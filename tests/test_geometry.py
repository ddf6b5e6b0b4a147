"""Projection, ground-plane backprojection, flow model, pose differencing."""
import math

import numpy as np
import pytest

from swarmtrack.geometry import (
    CameraMotion,
    CameraPose,
    GeometryError,
    Intrinsics,
    PixelPoint,
    WorldPoint,
    backproject_image_to_ground,
    backproject_pixels,
    flow_field,
    induced_flow,
    motion_between_poses,
    project_world_to_image,
    project_points,
)

INTR = Intrinsics.centered(1000.0, 3840, 2160)
NADIR = CameraPose(0.0, 0.0, 100.0)


class TestProjection:
    def test_optical_axis_point_hits_principal_point(self):
        p = project_world_to_image(WorldPoint(0.0, 0.0, 0.0), NADIR, INTR)
        assert abs(p.x) < 1e-12 and abs(p.y) < 1e-12

    def test_lateral_offset_scales_by_similar_triangles(self):
        # x_px = f * X / Z = 1000 * 10 / 100
        p = project_world_to_image(WorldPoint(10.0, 0.0, 0.0), NADIR, INTR)
        assert p.x == pytest.approx(100.0, abs=1e-9)
        assert p.y == pytest.approx(0.0, abs=1e-9)

    def test_north_offset_maps_to_negative_image_y(self):
        # Camera y points down the image and south on the ground at nadir.
        p = project_world_to_image(WorldPoint(0.0, 10.0, 0.0), NADIR, INTR)
        assert p.y == pytest.approx(-100.0, abs=1e-9)

    def test_point_behind_camera_rejected(self):
        with pytest.raises(GeometryError, match="behind"):
            project_world_to_image(WorldPoint(0.0, 0.0, 250.0), NADIR, INTR)

    def test_point_at_zero_depth_rejected(self):
        with pytest.raises(GeometryError, match="zero depth"):
            project_world_to_image(WorldPoint(5.0, 0.0, 100.0), NADIR, INTR)

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
            back = project_world_to_image(ground, pose, INTR)
            assert back.x == pytest.approx(px, abs=1e-9)
            assert back.y == pytest.approx(py, abs=1e-9)

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


class TestInducedFlow:
    def test_zero_motion_zero_flow(self):
        v = induced_flow(PixelPoint(123.0, -45.0), CameraMotion.zero(), INTR, 100.0)
        assert v == (0.0, 0.0)

    def test_forward_translation_hand_value(self):
        # U = 1 m/frame at f=1000, z=100: v = (-f*U/z, 0) = (-10, 0).
        motion = CameraMotion((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        v = induced_flow(PixelPoint(0.0, 0.0), motion, INTR, 100.0)
        assert v[0] == pytest.approx(-10.0, abs=1e-12)
        assert v[1] == pytest.approx(0.0, abs=1e-12)

    def test_pure_yaw_rate_hand_value(self):
        # Rotation about the optical axis sweeps pixels tangentially:
        # (C*y, -C*x) at p=(100, 0) with C=0.01 gives (0, -1).
        motion = CameraMotion((0.0, 0.0, 0.0), (0.0, 0.0, 0.01))
        v = induced_flow(PixelPoint(100.0, 0.0), motion, INTR, 100.0)
        assert v[0] == pytest.approx(0.0, abs=1e-12)
        assert v[1] == pytest.approx(-1.0, abs=1e-12)

    def test_flow_is_linear_in_motion(self):
        rng = np.random.default_rng(5)
        p = PixelPoint(200.0, -150.0)
        for _ in range(50):
            l1 = rng.normal(size=3)
            l2 = rng.normal(size=3)
            w1 = rng.normal(size=3) * 0.01
            w2 = rng.normal(size=3) * 0.01
            a, b = rng.normal(), rng.normal()
            combined = CameraMotion(
                tuple(a * l1 + b * l2), tuple(a * w1 + b * w2)
            )
            v = np.array(induced_flow(p, combined, INTR, 90.0))
            v1 = np.array(induced_flow(p, CameraMotion(tuple(l1), tuple(w1)), INTR, 90.0))
            v2 = np.array(induced_flow(p, CameraMotion(tuple(l2), tuple(w2)), INTR, 90.0))
            np.testing.assert_allclose(v, a * v1 + b * v2, atol=1e-9)

    def test_depth_must_be_positive(self):
        with pytest.raises(GeometryError, match="depth"):
            induced_flow(PixelPoint(0, 0), CameraMotion.zero(), INTR, 0.0)

    def test_flow_field_matches_pointwise(self):
        motion = CameraMotion((0.4, -0.2, 0.1), (0.002, -0.001, 0.003))
        xs = np.array([0.0, 512.0, -1000.0])
        ys = np.array([7.0, -300.0, 900.0])
        vx, vy = flow_field(xs, ys, motion, INTR, 75.0)
        for i in range(3):
            v = induced_flow(PixelPoint(xs[i], ys[i]), motion, INTR, 75.0)
            assert vx[i] == pytest.approx(v[0], abs=1e-12)
            assert vy[i] == pytest.approx(v[1], abs=1e-12)


class TestMotionBetweenPoses:
    def test_identical_poses_give_zero_motion(self):
        pose = CameraPose(4.0, 5.0, 60.0, pitch=3.0, yaw=200.0, roll=-1.0)
        m = motion_between_poses(pose, pose, 1.0)
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

    def test_dt_scales_rates(self):
        a = CameraPose(0, 0, 100)
        b = CameraPose(3, 0, 100, yaw=2.0)
        m1 = motion_between_poses(a, b, 1.0)
        m2 = motion_between_poses(a, b, 2.0)
        np.testing.assert_allclose(
            np.array(m2.linear) * 2.0, m1.linear, atol=1e-12
        )
        np.testing.assert_allclose(
            np.array(m2.angular) * 2.0, m1.angular, atol=1e-12
        )

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            motion_between_poses(NADIR, NADIR, 0.0)


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

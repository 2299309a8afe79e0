"""Tests for pinhole projection, ground-plane math and single-joint ray casting.

Expected values are hand-computed from the pinhole equations and, where
marked, cross-checked against an independent matrix-based projection oracle
(explicit K / K^-1 instead of the scalar formulas in the module).
"""

import math

import numpy as np
import pytest

from jointtrack.errors import (
    BehindCameraError,
    DegenerateRayError,
    InvalidTiltError,
    JointAtCameraHeightError,
    NonPositiveDepthError,
)
from jointtrack.geometry import (
    CameraModel,
    GroundPlane,
    JointKind,
    RobotExtrinsics,
    camera_to_robot,
    ground_plane_from_tilt,
    joint_position,
    localize_from_joint,
    project,
    project_points,
    ray_from_pixel,
    robot_to_camera,
)


CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480)
LEVEL = ground_plane_from_tilt(height=1.4, tilt=0.0)


def oracle_project(camera, point):
    """Independent projection: explicit K @ p / z."""
    h = camera.intrinsic_matrix() @ np.asarray(point, dtype=float)
    return h[:2] / h[2]


def oracle_ray(camera, pixel):
    """Independent back-projection: solve K r = [u, v, 1]."""
    rhs = np.array([pixel[0], pixel[1], 1.0])
    return np.linalg.solve(camera.intrinsic_matrix(), rhs)


class TestProject:
    def test_forward_person_ankle(self):
        # fx*0/5+320 = 320, fy*1.4/5+240 = 380
        np.testing.assert_allclose(project(CAM, [0.0, 1.4, 5.0]), [320.0, 380.0])

    def test_optical_axis_hits_principal_point(self):
        np.testing.assert_allclose(project(CAM, [0.0, 0.0, 1.0]), [320.0, 240.0])

    def test_off_axis_point(self):
        # u = 500*1/2+320 = 570, v = 500*(-0.5)/2+240 = 115
        p = project(CAM, [1.0, -0.5, 2.0])
        np.testing.assert_allclose(p, [570.0, 115.0])
        np.testing.assert_allclose(p, oracle_project(CAM, [1.0, -0.5, 2.0]), atol=1e-12)

    def test_rejects_non_positive_depth(self):
        with pytest.raises(NonPositiveDepthError):
            project(CAM, [0.0, 0.0, 0.0])
        with pytest.raises(NonPositiveDepthError):
            project(CAM, [1.0, 1.0, -2.0])

    def test_matches_matrix_oracle_on_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = rng.uniform([-4, -4, 0.2], [4, 4, 12])
            np.testing.assert_allclose(project(CAM, p), oracle_project(CAM, p), atol=1e-9)

    def test_one_point_equals_scalar_formula_and_row_kernel(self):
        rng = np.random.default_rng(8)
        points = rng.uniform([-4, -4, 0.2], [4, 4, 12], size=(100, 3))
        rows = project_points(CAM, points)
        for p, row in zip(points, rows):
            got = project(CAM, p)
            assert got.shape == (2,)
            assert np.array_equal(got, row)
            z = p[2]
            assert np.array_equal(got, [CAM.fx * p[0] / z + CAM.cx, CAM.fy * p[1] / z + CAM.cy])


class TestRayFromPixel:
    def test_principal_point_gives_optical_axis(self):
        np.testing.assert_allclose(ray_from_pixel(CAM, [320.0, 240.0]), [0.0, 0.0, 1.0])

    def test_inverse_of_projection_example(self):
        # (380-240)/500 = 0.28
        np.testing.assert_allclose(ray_from_pixel(CAM, [320.0, 380.0]), [0.0, 0.28, 1.0])

    def test_one_focal_length_off_center(self):
        np.testing.assert_allclose(ray_from_pixel(CAM, [820.0, 240.0]), [1.0, 0.0, 1.0])

    def test_matches_linear_solve_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            px = rng.uniform([0, 0], [640, 480])
            np.testing.assert_allclose(ray_from_pixel(CAM, px), oracle_ray(CAM, px), atol=1e-12)

    def test_project_of_any_point_along_ray_returns_pixel(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            px = rng.uniform([0, 0], [640, 480])
            ray = ray_from_pixel(CAM, px)
            scale = rng.uniform(0.1, 20.0)
            np.testing.assert_allclose(project(CAM, scale * ray), px, atol=1e-9)


class TestLocalizeFromJoint:
    def test_ankle_of_person_five_meters_ahead(self):
        # Forward projection of ankle (0, 1.4, 5) is (320, 380); invert it.
        x = localize_from_joint(CAM, LEVEL, [320.0, 380.0], 0.0)
        np.testing.assert_allclose(x, [0.0, 1.4, 5.0], atol=1e-9)

    def test_neck_of_same_person(self):
        # Neck at height 1.3 sits at (0, 0.1, 5) -> pixel (320, 250).
        x = localize_from_joint(CAM, LEVEL, [320.0, 250.0], 1.3)
        np.testing.assert_allclose(x, [0.0, 1.4, 5.0], atol=1e-9)

    def test_joint_at_camera_height_is_rejected(self):
        with pytest.raises(JointAtCameraHeightError):
            localize_from_joint(CAM, LEVEL, [320.0, 240.0], 1.4)

    @pytest.mark.parametrize(
        "pixel", [[np.nan, 300.0], [320.0, np.nan], [np.inf, 300.0], [320.0, -np.inf]]
    )
    def test_non_finite_pixel_is_a_degenerate_ray(self, pixel):
        # A NaN pixel would otherwise cast to a NaN ankle and pass every check.
        with pytest.raises(DegenerateRayError, match="not finite"):
            localize_from_joint(CAM, ground_plane_from_tilt(1.4, 0.1), pixel, 0.5)

    def test_degenerate_ray_is_rejected(self):
        # Level camera: the ray through the principal point is horizontal,
        # parallel to every height plane.
        with pytest.raises(DegenerateRayError):
            localize_from_joint(CAM, LEVEL, [320.0, 240.0], 0.0)

    def test_behind_camera_mirror_solution_is_rejected(self):
        # A pixel above the horizon with a below-camera joint height has no
        # forward intersection; the absolute values would pick the mirror
        # point behind the camera.
        with pytest.raises(BehindCameraError):
            localize_from_joint(CAM, LEVEL, [320.0, 100.0], 0.0)

    def test_output_lies_on_ground_plane(self):
        rng = np.random.default_rng(3)
        for _ in range(250):
            ground = ground_plane_from_tilt(rng.uniform(0.5, 2.0), rng.uniform(0.0, 0.3))
            x = rng.uniform(-3, 3)
            depth = rng.uniform(1, 8)
            h = rng.uniform(0.0, ground.gamma - 0.1)
            ankle = ground.to_camera(x, depth)
            pixel = project(CAM, joint_position(ankle, ground, h))
            recovered = localize_from_joint(CAM, ground, pixel, h)
            assert abs(ground.height_of(recovered)) < 1e-6

    def test_round_trip_recovers_position(self):
        rng = np.random.default_rng(5)
        for _ in range(250):
            tilt = rng.uniform(0.0, 0.3)
            ground = ground_plane_from_tilt(rng.uniform(0.8, 1.8), tilt)
            gx, gy = rng.uniform(-3, 3), rng.uniform(1, 8)
            h = rng.uniform(0.0, ground.gamma - 0.1)
            ankle = ground.to_camera(gx, gy)
            pixel = project(CAM, joint_position(ankle, ground, h))
            recovered = localize_from_joint(CAM, ground, pixel, h)
            np.testing.assert_allclose(recovered, ankle, atol=1e-9)

    def test_round_trip_with_joint_above_camera(self):
        # Joint higher than the camera: |gamma - h| flips sign internally.
        ground = ground_plane_from_tilt(1.0, 0.1)
        ankle = ground.to_camera(0.5, 4.0)
        pixel = project(CAM, joint_position(ankle, ground, 1.5))
        np.testing.assert_allclose(localize_from_joint(CAM, ground, pixel, 1.5), ankle, atol=1e-9)


class TestGroundPlaneFromTilt:
    def test_level_camera(self):
        g = ground_plane_from_tilt(1.4, 0.0)
        np.testing.assert_allclose(g.normal, [0.0, -1.0, 0.0])
        assert g.gamma == 1.4

    def test_straight_down(self):
        g = ground_plane_from_tilt(1.0, math.pi / 2)
        np.testing.assert_allclose(g.normal, [0.0, 0.0, -1.0], atol=1e-12)
        assert g.gamma == 1.0

    def test_small_tilt_matches_rotation_oracle(self):
        # Rotate (0, -1, 0) by 0.1 rad about the camera x-axis.
        theta = 0.1
        rot = np.array(
            [
                [1, 0, 0],
                [0, math.cos(theta), -math.sin(theta)],
                [0, math.sin(theta), math.cos(theta)],
            ]
        )
        g = ground_plane_from_tilt(1.4, theta)
        np.testing.assert_allclose(g.normal, rot @ np.array([0.0, -1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(g.normal, [0.0, -0.99500416, -0.09983342], atol=1e-7)

    def test_unit_norm_for_all_valid_tilts(self):
        for tilt in np.linspace(-math.pi / 2, math.pi / 2, 41):
            g = ground_plane_from_tilt(1.0, tilt)
            assert abs(np.linalg.norm(g.normal) - 1.0) < 1e-12

    def test_ground_ahead_projects_below_center_for_downward_tilt(self):
        # Holds for points closer than the optical axis / ground intersection
        # at gamma / tan(tilt).
        for tilt in (0.0, 0.1, 0.3):
            g = ground_plane_from_tilt(1.2, tilt)
            pixel = project(CAM, g.to_camera(0.0, 2.0))
            assert pixel[1] > CAM.cy - 1e-9

    def test_invalid_tilt(self):
        with pytest.raises(InvalidTiltError):
            ground_plane_from_tilt(1.0, math.pi / 2 + 0.01)
        with pytest.raises(ValueError):
            ground_plane_from_tilt(-1.0, 0.0)


class TestGroundPlaneChart:
    def test_rejects_non_unit_normal(self):
        with pytest.raises(ValueError):
            GroundPlane(normal=np.array([0.0, -2.0, 0.0]), gamma=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, value):
        # A NaN compares false both ways, so no check may read "<= 0".
        with pytest.raises(ValueError, match="normal must be finite"):
            GroundPlane(normal=np.array([0.0, -1.0, value]), gamma=1.0)
        with pytest.raises(ValueError, match="gamma must be finite"):
            GroundPlane(normal=np.array([0.0, -1.0, 0.0]), gamma=value)
        with pytest.raises(ValueError, match="camera height must be finite"):
            ground_plane_from_tilt(value, 0.1)
        with pytest.raises(InvalidTiltError):
            ground_plane_from_tilt(1.0, value)
        with pytest.raises(ValueError, match="fx must be finite"):
            CameraModel(fx=value, fy=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480)
        with pytest.raises(ValueError, match="fy must be finite"):
            CameraModel(fx=500.0, fy=value, cx=320.0, cy=240.0, image_width=640, image_height=480)
        with pytest.raises(ValueError, match="robot offset must be finite"):
            RobotExtrinsics(offset=np.array([value, 0.0, 0.0]))
        with pytest.raises(InvalidTiltError):
            RobotExtrinsics(tilt=value)

    def test_chart_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            g = ground_plane_from_tilt(rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4))
            gx, gy = rng.uniform(-5, 5, size=2)
            p = g.to_camera(gx, gy)
            assert abs(g.height_of(p)) < 1e-9
            np.testing.assert_allclose(g.to_ground(p), [gx, gy], atol=1e-9)

    def test_level_chart_axes(self):
        g = ground_plane_from_tilt(1.4, 0.0)
        np.testing.assert_allclose(g.to_camera(0.0, 0.0), [0.0, 1.4, 0.0], atol=1e-12)
        np.testing.assert_allclose(g.to_camera(1.0, 0.0), [1.0, 1.4, 0.0], atol=1e-12)
        np.testing.assert_allclose(g.to_camera(0.0, 5.0), [0.0, 1.4, 5.0], atol=1e-12)


class TestJointPosition:
    def test_neck_offset(self):
        np.testing.assert_allclose(
            joint_position([0.0, 1.4, 5.0], LEVEL, 1.3), [0.0, 0.1, 5.0]
        )

    def test_zero_height_is_identity(self):
        np.testing.assert_allclose(
            joint_position([0.3, 1.4, 2.0], LEVEL, 0.0), [0.3, 1.4, 2.0]
        )

    def test_hip_offset(self):
        np.testing.assert_allclose(
            joint_position([1.0, 1.4, 3.0], LEVEL, 0.9), [1.0, 0.5, 3.0]
        )

    def test_scalar_contract_matches_reference(self):
        # Reference: the one-joint lift as written before it broadcast.
        ground = ground_plane_from_tilt(height=1.2, tilt=0.3)
        rng = np.random.default_rng(11)
        for _ in range(50):
            ankle = rng.uniform([-3, -1, 0.5], [3, 2, 10])
            h = float(rng.uniform(0, 2))
            got = joint_position(list(ankle), ground, h)
            assert got.shape == (3,)
            assert np.array_equal(got, np.asarray(ankle, dtype=float) + float(h) * ground.normal)

    @pytest.mark.parametrize(
        "ankle_shape, heights_shape, out_shape",
        [
            ((3,), (4,), (4, 3)),
            ((5, 3), (5,), (5, 3)),
            ((2, 6, 1, 3), (2, 1, 4), (2, 6, 4, 3)),
        ],
    )
    def test_broadcasts_ankles_against_heights(self, ankle_shape, heights_shape, out_shape):
        ground = ground_plane_from_tilt(height=1.2, tilt=0.3)
        rng = np.random.default_rng(12)
        ankles = rng.uniform(-3, 10, size=ankle_shape)
        heights = rng.uniform(0, 2, size=heights_shape)
        got = joint_position(ankles, ground, heights)
        assert got.shape == out_shape
        a, h = np.broadcast_arrays(ankles[..., 0], heights)
        for index in np.ndindex(a.shape):
            ankle = np.broadcast_to(ankles, a.shape + (3,))[index]
            assert np.array_equal(got[index], joint_position(ankle, ground, float(h[index])))


class TestCameraToRobot:
    def test_axis_permutation_only(self):
        ext = RobotExtrinsics()
        np.testing.assert_allclose(camera_to_robot([0.0, 1.4, 5.0], ext), [5.0, 0.0])

    def test_forward_offset(self):
        ext = RobotExtrinsics(offset=np.array([0.2, 0.0, 0.0]))
        np.testing.assert_allclose(camera_to_robot([0.0, 1.4, 5.0], ext), [5.2, 0.0])

    def test_tilted_round_trip(self):
        ext = RobotExtrinsics(offset=np.array([0.1, -0.05, 0.3]), tilt=0.1)
        ground_z = ext.offset[2] - 1.4
        cam_point = robot_to_camera([4.0, 1.0, ground_z], ext)
        np.testing.assert_allclose(camera_to_robot(cam_point, ext), [4.0, 1.0], atol=1e-9)

    def test_robot_point_consistent_with_ground_plane(self):
        # A ground point expressed through the robot frame must satisfy the
        # plane constraint of the matching tilt/height plane.
        ext = RobotExtrinsics(tilt=0.25)
        ground = ground_plane_from_tilt(1.4, 0.25)
        cam_point = robot_to_camera([3.0, -0.7, -1.4], ext)
        assert abs(ground.height_of(cam_point)) < 1e-9

    def test_left_is_positive_y(self):
        ext = RobotExtrinsics()
        # Camera x is right, so a point at camera x = -1 is to the robot's left.
        xy = camera_to_robot([-1.0, 1.4, 5.0], ext)
        np.testing.assert_allclose(xy, [5.0, 1.0])


class TestRobotToCamera:
    @pytest.mark.parametrize("tilt", [0.0, 0.1, -0.4, 1.2])
    def test_batch_equals_one_point_calls_bit_for_bit(self, tilt):
        ext = RobotExtrinsics(offset=np.array([0.2, -0.1, 0.9]), tilt=tilt)
        points = np.random.default_rng(3).uniform(-10.0, 10.0, size=(200, 3))
        points[:3] = [[0.0, -0.0, 0.9], [np.nan, 1.0, 0.0], [np.inf, 0.0, 1.0]]
        with np.errstate(invalid="ignore"):
            batch = robot_to_camera(points, ext)
            rows = [robot_to_camera(p, ext) for p in points]
            stacked = robot_to_camera(points.reshape(10, 20, 3), ext)
        assert batch.shape == (200, 3) and batch.dtype == np.float64
        assert stacked.shape == (10, 20, 3)
        for got, one in zip(batch, rows):
            assert one.shape == (3,) and one.dtype == np.float64
            assert got.tobytes() == one.tobytes()
        assert stacked.tobytes() == batch.tobytes()

    def test_accepts_lists(self):
        ext = RobotExtrinsics(tilt=0.1)
        one = robot_to_camera([4.0, 1.0, -1.2], ext)
        both = robot_to_camera([[4.0, 1.0, -1.2], [4.0, 1.0, -1.2]], ext)
        assert both[0].tobytes() == one.tobytes() == both[1].tobytes()


class TestJointKind:
    def test_priority_order(self):
        assert JointKind.NECK < JointKind.HIP < JointKind.KNEE < JointKind.ANKLE

    def test_labels_round_trip(self):
        for kind in JointKind:
            assert JointKind.from_label(kind.label) is kind

"""Tests for prior-model fitting and single-joint initialization.

The oracle throughout is forward projection: place a person with known
heights at a known ground position, project the four joints, then require
the solver to invert that exactly (noiseless) or statistically (noisy).
"""

import numpy as np
import pytest

from jointtrack import prior as prior_module
from jointtrack.errors import (
    AnatomicalOrderError,
    DegenerateRayError,
    JointAtCameraHeightError,
    MissingJointError,
    NoUsableJointError,
    SolverDivergedError,
)
from jointtrack.geometry import (
    JOINT_ORDER,
    CameraModel,
    JointKind,
    ground_plane_from_tilt,
    joint_position,
    project,
)
from jointtrack.prior import (
    FullBodyObservation,
    PriorModel,
    _residuals,
    _residuals_and_jacobian,
    construct_prior,
    init_from_best_joint,
)

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480)


def project_person(camera, ground, gx, gy, heights):
    """Forward-project the four joints of a person at ground (gx, gy)."""
    ankle = ground.to_camera(gx, gy)
    h_neck, h_hip, h_knee = heights
    by_kind = {
        JointKind.NECK: h_neck,
        JointKind.HIP: h_hip,
        JointKind.KNEE: h_knee,
        JointKind.ANKLE: 0.0,
    }
    return {k: project(camera, joint_position(ankle, ground, h)) for k, h in by_kind.items()}


class TestPriorModel:
    def test_defaults_are_valid(self):
        p = PriorModel()
        assert p.h_neck == 1.40 and p.h_hip == 0.95 and p.h_knee == 0.50
        assert p.body_width == 0.5

    def test_rejects_unordered_heights(self):
        with pytest.raises(AnatomicalOrderError):
            PriorModel(h_neck=0.9, h_hip=0.95, h_knee=0.5)
        with pytest.raises(AnatomicalOrderError):
            PriorModel(h_neck=1.4, h_hip=0.95, h_knee=-0.1)

    def test_rejects_non_positive_width(self):
        with pytest.raises(ValueError):
            PriorModel(body_width=0.0)

    def test_dict_round_trip(self):
        p = PriorModel(h_neck=1.52, h_hip=1.01, h_knee=0.47, body_width=0.45)
        assert PriorModel.from_dict(p.to_dict()) == p

    def test_height_of(self):
        p = PriorModel()
        assert p.height_of(JointKind.ANKLE) == 0.0
        assert p.height_of(JointKind.NECK) == p.h_neck


class TestFullBodyObservation:
    def test_missing_joint_rejected(self):
        with pytest.raises(MissingJointError):
            FullBodyObservation(joints={JointKind.NECK: np.array([10.0, 10.0])})


class TestJacobian:
    def test_analytic_matches_central_differences(self):
        ground = ground_plane_from_tilt(1.4, 0.1)
        obs = project_person(CAM, ground, 0.3, 4.0, (1.40, 0.95, 0.50))
        observed = np.stack([obs[k] for k in JOINT_ORDER])
        rng = np.random.default_rng(23)
        for _ in range(20):
            params = np.array(
                [
                    rng.uniform(-1, 1),
                    rng.uniform(2, 6),
                    rng.uniform(1.2, 1.6),
                    rng.uniform(0.8, 1.1),
                    rng.uniform(0.4, 0.6),
                ]
            )
            _, jac = _residuals_and_jacobian(params, CAM, ground, observed)
            step = 1e-6
            fd = np.zeros_like(jac)
            for k in range(5):
                dp = np.zeros(5)
                dp[k] = step
                hi = _residuals(params + dp, CAM, ground, observed)
                lo = _residuals(params - dp, CAM, ground, observed)
                fd[:, k] = (hi - lo) / (2 * step)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(jac - fd) / scale) < 1e-5


class TestConstructPrior:
    def test_noiseless_recovery(self):
        ground = ground_plane_from_tilt(1.4, 0.1)
        truth = (1.40, 0.95, 0.50)
        obs = FullBodyObservation(joints=project_person(CAM, ground, 0.3, 4.0, truth))
        ankle, prior, rms = construct_prior(CAM, ground, obs)
        np.testing.assert_allclose(ankle, ground.to_camera(0.3, 4.0), atol=1e-6)
        np.testing.assert_allclose(
            [prior.h_neck, prior.h_hip, prior.h_knee], truth, atol=1e-6
        )
        assert rms < 1e-8

    def test_noiseless_recovery_randomized(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            ground = ground_plane_from_tilt(rng.uniform(0.8, 1.8), rng.uniform(0.0, 0.3))
            truth = (rng.uniform(1.25, 1.60), rng.uniform(0.85, 1.10), rng.uniform(0.42, 0.60))
            gx, gy = rng.uniform(-2, 2), rng.uniform(2, 7)
            obs = FullBodyObservation(joints=project_person(CAM, ground, gx, gy, truth))
            ankle, prior, _ = construct_prior(CAM, ground, obs)
            np.testing.assert_allclose(ankle, ground.to_camera(gx, gy), atol=1e-6)
            np.testing.assert_allclose(
                [prior.h_neck, prior.h_hip, prior.h_knee], truth, atol=1e-6
            )

    def test_noisy_recovery_statistics(self):
        # 1 px pixel noise: 95th percentile height error stays below 5 cm
        # and residual RMS below 3 px.
        ground = ground_plane_from_tilt(1.4, 0.1)
        truth = (1.40, 0.95, 0.50)
        rng = np.random.default_rng(37)
        height_errors, rmss = [], []
        for _ in range(100):
            clean = project_person(CAM, ground, 0.3, 4.0, truth)
            noisy = {k: p + rng.normal(0.0, 1.0, size=2) for k, p in clean.items()}
            _, prior, rms = construct_prior(CAM, ground, FullBodyObservation(joints=noisy))
            err = np.abs(np.array([prior.h_neck, prior.h_hip, prior.h_knee]) - truth)
            height_errors.append(err.max())
            rmss.append(rms)
        assert np.quantile(height_errors, 0.95) < 0.05
        assert np.quantile(rmss, 0.95) <= 3.0

    def test_idempotent_at_solution(self):
        ground = ground_plane_from_tilt(1.2, 0.05)
        obs = FullBodyObservation(
            joints=project_person(CAM, ground, -0.5, 3.0, (1.45, 1.00, 0.52))
        )
        ankle1, prior1, _ = construct_prior(CAM, ground, obs)
        ankle2, prior2, _ = construct_prior(CAM, ground, obs, init=prior1)
        assert np.linalg.norm(ankle2 - ankle1) < 1e-12
        assert abs(prior2.h_neck - prior1.h_neck) < 1e-12
        assert abs(prior2.h_hip - prior1.h_hip) < 1e-12
        assert abs(prior2.h_knee - prior1.h_knee) < 1e-12

    def test_degenerate_observation_rejected(self):
        ground = ground_plane_from_tilt(1.4, 0.1)
        same = np.array([330.0, 300.0])
        obs = FullBodyObservation(joints={k: same.copy() for k in JOINT_ORDER})
        with pytest.raises((SolverDivergedError, AnatomicalOrderError)):
            construct_prior(CAM, ground, obs)

    def test_body_width_carried_through(self):
        ground = ground_plane_from_tilt(1.4, 0.1)
        obs = FullBodyObservation(
            joints=project_person(CAM, ground, 0.0, 4.0, (1.40, 0.95, 0.50))
        )
        _, prior, _ = construct_prior(
            CAM, ground, obs, init=PriorModel(body_width=0.62)
        )
        assert prior.body_width == 0.62

    @pytest.mark.parametrize("kind", JOINT_ORDER, ids=lambda kind: kind.label)
    @pytest.mark.parametrize(
        "axis, value",
        [(0, np.nan), (1, np.nan), (0, np.inf), (1, -np.inf)],
        ids=["u-nan", "v-nan", "u-inf", "v-neg-inf"],
    )
    def test_non_finite_pixel_rejected_before_fitting(self, kind, axis, value, monkeypatch):
        ground = ground_plane_from_tilt(1.4, 0.1)
        pix = project_person(CAM, ground, 0.0, 4.0, (1.40, 0.95, 0.50))
        pix[kind] = pix[kind].copy()
        pix[kind][axis] = value

        def no_fit(*args):
            raise AssertionError("the fit started")

        monkeypatch.setattr(prior_module, "localize_from_joint", no_fit)
        monkeypatch.setattr(prior_module, "_residuals", no_fit)
        with pytest.raises(DegenerateRayError, match=f"{kind.label} pixel is not finite"):
            construct_prior(CAM, ground, FullBodyObservation(joints=pix))


class TestInitFromBestJoint:
    def test_neck_preferred(self):
        ground = ground_plane_from_tilt(1.2, 0.1)
        prior = PriorModel()
        pix = project_person(CAM, ground, 0.2, 3.5, (1.40, 0.95, 0.50))
        joints = {JointKind.NECK: pix[JointKind.NECK], JointKind.ANKLE: pix[JointKind.ANKLE]}
        ankle, used = init_from_best_joint(CAM, ground, prior, joints)
        assert used is JointKind.NECK
        np.testing.assert_allclose(ankle, ground.to_camera(0.2, 3.5), atol=1e-9)

    def test_knee_when_upper_body_missing(self):
        ground = ground_plane_from_tilt(1.4, 0.1)
        prior = PriorModel()
        pix = project_person(CAM, ground, 0.2, 3.5, (1.40, 0.95, 0.50))
        joints = {JointKind.KNEE: pix[JointKind.KNEE], JointKind.ANKLE: pix[JointKind.ANKLE]}
        _, used = init_from_best_joint(CAM, ground, prior, joints)
        assert used is JointKind.KNEE

    def test_falls_back_when_neck_at_camera_height(self):
        # Camera mounted exactly at neck height: the neck ray cast cannot
        # fix scale, so the ankle must be used instead.
        ground = ground_plane_from_tilt(1.40, 0.1)
        prior = PriorModel(h_neck=1.40, h_hip=0.95, h_knee=0.50)
        pix = project_person(CAM, ground, 0.0, 4.0, (1.40, 0.95, 0.50))
        joints = {JointKind.NECK: pix[JointKind.NECK], JointKind.ANKLE: pix[JointKind.ANKLE]}
        with pytest.raises(JointAtCameraHeightError):
            # direct neck cast really is degenerate here
            from jointtrack.geometry import localize_from_joint

            localize_from_joint(CAM, ground, pix[JointKind.NECK], 1.40)
        ankle, used = init_from_best_joint(CAM, ground, prior, joints)
        assert used is JointKind.ANKLE
        np.testing.assert_allclose(ankle, ground.to_camera(0.0, 4.0), atol=1e-9)

    def test_every_joint_agrees_with_full_fit(self):
        ground = ground_plane_from_tilt(1.3, 0.15)
        truth = (1.42, 0.97, 0.51)
        pix = project_person(CAM, ground, 0.4, 5.0, truth)
        obs = FullBodyObservation(joints=pix)
        ankle_fit, prior, _ = construct_prior(CAM, ground, obs)
        for kind in JOINT_ORDER:
            ankle, used = init_from_best_joint(CAM, ground, prior, {kind: pix[kind]})
            assert used is kind
            np.testing.assert_allclose(ankle, ankle_fit, atol=1e-9)

    def test_nan_joint_is_skipped(self):
        ground = ground_plane_from_tilt(1.2, 0.1)
        pix = project_person(CAM, ground, 0.2, 3.5, (1.40, 0.95, 0.50))
        joints = {JointKind.NECK: np.array([np.nan, 100.0]), JointKind.HIP: pix[JointKind.HIP]}
        ankle, used = init_from_best_joint(CAM, ground, PriorModel(), joints)
        assert used is JointKind.HIP and np.isfinite(ankle).all()
        with pytest.raises(NoUsableJointError):
            init_from_best_joint(CAM, ground, PriorModel(), {JointKind.NECK: joints[JointKind.NECK]})

    def test_empty_joints_rejected(self):
        ground = ground_plane_from_tilt(1.4, 0.1)
        with pytest.raises(ValueError):
            init_from_best_joint(CAM, ground, PriorModel(), {})

    def test_no_usable_joint(self):
        # All joints placed above the horizon rays with below-camera heights:
        # every cast lands behind the camera.
        ground = ground_plane_from_tilt(1.4, 0.0)
        prior = PriorModel()
        joints = {
            JointKind.KNEE: np.array([320.0, 50.0]),
            JointKind.ANKLE: np.array([320.0, 60.0]),
        }
        with pytest.raises(NoUsableJointError):
            init_from_best_joint(CAM, ground, prior, joints)

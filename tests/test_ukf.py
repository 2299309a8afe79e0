"""Tests for the ground-plane unscented Kalman filter.

Oracles: closed-form Kalman algebra recomputed independently for the
linear prediction, the forward-projection pipeline for measurements, and a
dense grid posterior for a nonlinear single-joint update.
"""

import warnings

import numpy as np
import pytest

from jointtrack.errors import (
    BehindCameraError,
    JointTrackError,
    NonPositiveDtError,
    ObservationDimensionError,
    PredictionOverflowError,
)
from jointtrack.geometry import (
    CameraModel,
    JointKind,
    ground_plane_from_tilt,
)
from jointtrack.prior import PriorModel
from jointtrack.ukf import (
    TrackState,
    UkfParams,
    measurement_from_joints,
    measurement_noise,
    observe,
    predict,
    process_noise,
    transition_matrix,
    update,
)

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480)
LEVEL = ground_plane_from_tilt(1.4, 0.0)
PRIOR = PriorModel(h_neck=1.30, h_hip=0.95, h_knee=0.50)
PARAMS = UkfParams()


def state(x, y, vx=0.0, vy=0.0, p=None):
    return TrackState(s=np.array([x, y, vx, vy]), P=np.eye(4) if p is None else p)


class TestParams:
    def test_defaults(self):
        assert PARAMS.alpha == 0.5 and PARAMS.beta == 2.0 and PARAMS.kappa == 0.0
        assert PARAMS.joint_pixel_sigma[JointKind.NECK] == 4.0
        assert PARAMS.joint_pixel_sigma[JointKind.ANKLE] == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            UkfParams(alpha=0.0)
        with pytest.raises(ValueError):
            UkfParams(alpha=1.5)
        with pytest.raises(ValueError):
            UkfParams(kappa=-4.0)
        with pytest.raises(ValueError):
            UkfParams(process_accel_sigma=0.0)
        with pytest.raises(ValueError):
            UkfParams(joint_pixel_sigma={JointKind.NECK: -1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["beta", "kappa", "process_accel_sigma"])
    def test_non_finite_scalar_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            UkfParams(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("kind", list(JointKind))
    def test_non_finite_pixel_sigma_is_rejected(self, kind, value):
        sigmas = dict(PARAMS.joint_pixel_sigma)
        sigmas[kind] = value
        with pytest.raises(ValueError, match=f"^pixel sigma for {kind.label} must be finite$"):
            UkfParams(joint_pixel_sigma=sigmas)

    def test_nan_alpha_is_rejected(self):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\]$"):
            UkfParams(alpha=float("nan"))


class TestPredict:
    def test_mean_propagation(self):
        out = predict(state(1.0, 2.0, 0.5, -0.5), 0.1, PARAMS)
        np.testing.assert_allclose(out.s, [1.05, 1.95, 0.5, -0.5], atol=1e-15)

    def test_zero_velocity_fixed_point(self):
        for dt in (0.01, 0.5, 2.0):
            out = predict(state(0.0, 0.0), dt, PARAMS)
            np.testing.assert_allclose(out.s, np.zeros(4), atol=1e-15)

    def test_covariance_against_matrix_oracle(self):
        # Independent arithmetic: F P F^T + Q with sigma_a = 2, dt = 1.
        st = state(0.0, 3.0, p=np.eye(4))
        out = predict(st, 1.0, UkfParams(process_accel_sigma=2.0))
        f = np.array([[1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
        q = 4.0 * np.array(
            [
                [0.25, 0, 0.5, 0],
                [0, 0.25, 0, 0.5],
                [0.5, 0, 1.0, 0],
                [0, 0.5, 0, 1.0],
            ]
        )
        np.testing.assert_allclose(out.P, f @ np.eye(4) @ f.T + q, atol=1e-12)
        assert np.trace(out.P) > np.trace(st.P)

    def test_equals_closed_form_kalman_for_random_inputs(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            a = rng.normal(size=(4, 4))
            p = a @ a.T + 0.1 * np.eye(4)
            st = TrackState(s=rng.normal(size=4), P=p)
            dt = rng.uniform(0.01, 1.0)
            sig = rng.uniform(0.5, 4.0)
            out = predict(st, dt, UkfParams(process_accel_sigma=sig))
            f = transition_matrix(dt)
            np.testing.assert_allclose(out.s, f @ st.s, atol=1e-12)
            np.testing.assert_allclose(
                out.P, f @ p @ f.T + process_noise(dt, sig), atol=1e-12
            )

    def test_rejects_non_positive_dt(self):
        with pytest.raises(NonPositiveDtError):
            predict(state(0, 1), 0.0, PARAMS)
        with pytest.raises(NonPositiveDtError):
            predict(state(0, 1), -0.1, PARAMS)
        with pytest.raises(NonPositiveDtError):  # NaN <= 0 is False
            predict(state(0, 1), float("nan"), PARAMS)

    @pytest.mark.parametrize("dt", [1.1e77, 1e78, float("inf")])
    def test_huge_dt_raises_typed_error_without_warning(self, dt):
        # 1.1e77 overflows the covariance, 1e78 process_noise's dt**4; an
        # infinite dt overflows nowhere but gives inf * 0 = NaN.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictionOverflowError) as info:
                predict(state(0, 1, 0.5, -0.5), dt, PARAMS)
        assert isinstance(info.value, JointTrackError)


class TestObserve:
    def test_neck_and_ankle_straight_ahead(self):
        z = observe([0.0, 5.0, 0.0, 0.0], CAM, LEVEL, PRIOR, [JointKind.NECK, JointKind.ANKLE])
        np.testing.assert_allclose(z, [320.0, 250.0, 320.0, 380.0], atol=1e-9)

    def test_ankle_only(self):
        z = observe([0.0, 5.0, 0.0, 0.0], CAM, LEVEL, PRIOR, [JointKind.ANKLE])
        np.testing.assert_allclose(z, [320.0, 380.0], atol=1e-9)

    def test_order_is_canonical_regardless_of_input(self):
        z1 = observe([0.2, 4.0, 0, 0], CAM, LEVEL, PRIOR, [JointKind.ANKLE, JointKind.NECK])
        z2 = observe([0.2, 4.0, 0, 0], CAM, LEVEL, PRIOR, [JointKind.NECK, JointKind.ANKLE])
        np.testing.assert_allclose(z1, z2)

    def test_empty_visible_rejected(self):
        with pytest.raises(ValueError):
            observe([0.0, 5.0, 0, 0], CAM, LEVEL, PRIOR, [])

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            observe([0.0, -2.0, 0, 0], CAM, LEVEL, PRIOR, [JointKind.ANKLE])


class TestMeasurementHelpers:
    def test_measurement_from_joints(self):
        z, kinds = measurement_from_joints(
            {JointKind.ANKLE: np.array([10.0, 20.0]), JointKind.NECK: np.array([1.0, 2.0])}
        )
        assert kinds == [JointKind.NECK, JointKind.ANKLE]
        np.testing.assert_allclose(z, [1.0, 2.0, 10.0, 20.0])

    def test_measurement_noise_blocks(self):
        r = measurement_noise([JointKind.NECK, JointKind.KNEE], PARAMS)
        np.testing.assert_allclose(np.diag(r), [16.0, 16.0, 64.0, 64.0])


class TestUpdate:
    def test_zero_innovation_keeps_mean_and_shrinks_covariance(self):
        st = state(0.3, 4.0, 0.1, 0.0, p=np.diag([0.4, 0.4, 0.5, 0.5]))
        visible = list(JointKind)
        z = observe(st.s, CAM, LEVEL, PRIOR, visible)
        out = update(st, z, visible, CAM, LEVEL, PRIOR, PARAMS)
        assert np.linalg.norm(out.s - st.s) < 1e-9
        assert np.trace(out.P) < np.trace(st.P)

    def test_single_neck_update_matches_grid_posterior(self):
        # True position is offset +0.2 m in x from the prior mean; one
        # noiseless neck observation must pull the mean toward the truth.
        # Oracle: dense Bayes posterior on a position grid.
        p0 = np.diag([0.09, 0.09, 0.25, 0.25])
        st = TrackState(s=np.array([0.0, 4.0, 0.0, 0.0]), P=p0)
        truth = np.array([0.2, 4.0])
        z = observe([truth[0], truth[1], 0, 0], CAM, LEVEL, PRIOR, [JointKind.NECK])
        out = update(st, z, [JointKind.NECK], CAM, LEVEL, PRIOR, PARAMS)

        prior_err = np.linalg.norm(st.s[:2] - truth)
        post_err = np.linalg.norm(out.s[:2] - truth)
        assert post_err < prior_err

        xs = np.linspace(-0.8, 1.0, 361)
        ys = np.linspace(3.2, 4.8, 321)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        sigma_px = PARAMS.joint_pixel_sigma[JointKind.NECK]
        log_w = np.zeros_like(gx)
        log_w -= 0.5 * ((gx - st.s[0]) ** 2 / p0[0, 0] + (gy - st.s[1]) ** 2 / p0[1, 1])
        pred_u = np.empty_like(gx)
        pred_v = np.empty_like(gx)
        for i in range(gx.shape[0]):
            for j in range(gx.shape[1]):
                zz = observe([gx[i, j], gy[i, j], 0, 0], CAM, LEVEL, PRIOR, [JointKind.NECK])
                pred_u[i, j], pred_v[i, j] = zz
        log_w -= 0.5 * ((pred_u - z[0]) ** 2 + (pred_v - z[1]) ** 2) / sigma_px**2
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        grid_mean = np.array([(w * gx).sum(), (w * gy).sum()])

        np.testing.assert_allclose(out.s[:2], grid_mean, atol=0.02)

    def test_noiseless_closed_loop_converges(self):
        # 200 frames of a straight walk, all joints visible, no noise.
        dt = 1.0 / 30.0
        params = UkfParams()
        truth = np.array([0.5, 6.0, -0.05, -0.4])
        st = TrackState(
            s=truth + np.array([0.3, -0.4, 0.1, 0.2]), P=np.diag([0.25, 0.25, 1.0, 1.0])
        )
        visible = list(JointKind)
        f = transition_matrix(dt)
        for _ in range(200):
            truth = f @ truth
            st = predict(st, dt, params)
            z = observe(truth, CAM, LEVEL, PRIOR, visible)
            st = update(st, z, visible, CAM, LEVEL, PRIOR, params)
        assert np.linalg.norm(st.s[:2] - truth[:2]) < 1e-3

    def test_more_joints_never_inflate_covariance(self):
        # Noiseless measurements at the predicted mean: a superset of
        # joints must leave trace(P) no larger than any subset.
        rng = np.random.default_rng(43)
        subsets = [
            [JointKind.ANKLE],
            [JointKind.NECK],
            [JointKind.NECK, JointKind.HIP],
            [JointKind.NECK, JointKind.HIP, JointKind.KNEE],
        ]
        full = list(JointKind)
        for _ in range(25):
            st = state(
                rng.uniform(-1, 1), rng.uniform(2.5, 6.0), p=np.diag(rng.uniform(0.05, 0.5, 4))
            )
            z_full = observe(st.s, CAM, LEVEL, PRIOR, full)
            out_full = update(st, z_full, full, CAM, LEVEL, PRIOR, PARAMS)
            for sub in subsets:
                z_sub = observe(st.s, CAM, LEVEL, PRIOR, sub)
                out_sub = update(st, z_sub, sub, CAM, LEVEL, PRIOR, PARAMS)
                assert np.trace(out_full.P) <= np.trace(out_sub.P) + 1e-12

    def test_dimension_mismatch_rejected(self):
        st = state(0.0, 4.0)
        with pytest.raises(ObservationDimensionError):
            update(st, np.zeros(4), [JointKind.NECK], CAM, LEVEL, PRIOR, PARAMS)
        with pytest.raises(ObservationDimensionError):
            update(st, np.zeros(2), [], CAM, LEVEL, PRIOR, PARAMS)

    def test_covariance_stays_psd_under_random_cycling(self):
        rng = np.random.default_rng(47)
        st = state(0.0, 4.0, p=np.diag([0.3, 0.3, 0.6, 0.6]))
        kinds = list(JointKind)
        for _ in range(500):
            st = predict(st, rng.uniform(0.02, 0.2), PARAMS)
            pos = np.clip(st.s[:2], [-3, 1.0], [3, 8.0])
            nvis = rng.integers(1, 5)
            visible = sorted(rng.choice(kinds, size=nvis, replace=False))
            z = observe([pos[0], pos[1], 0, 0], CAM, LEVEL, PRIOR, visible)
            z = z + rng.normal(0, 2.0, size=z.shape)
            st = update(st, z, visible, CAM, LEVEL, PRIOR, PARAMS)
            # re-anchor the mean so the scene stays in front of the camera
            if st.s[1] < 0.5:
                st = TrackState(s=np.array([0.0, 4.0, 0.0, 0.0]), P=st.P)
            assert np.linalg.eigvalsh(st.P).min() >= -1e-9


class TestTrackState:
    def test_rejects_asymmetric_covariance(self):
        p = np.eye(4)
        p[0, 1] = 0.5
        with pytest.raises(ValueError):
            TrackState(s=np.zeros(4), P=p)

    def test_position_velocity_views(self):
        st = state(1.0, 2.0, 3.0, 4.0)
        np.testing.assert_allclose(st.position, [1.0, 2.0])
        np.testing.assert_allclose(st.velocity, [3.0, 4.0])

"""Batched UKF predict/update against a per-track reference.

The reference below is the filter as it was written before batching: an
update pushes each sigma point through its own observe() call, and a
prediction multiplies one track's matrices. The batched functions must
agree with it to 1e-9 (absolute, on every element of s and P), and a
track's posterior must be bit for bit the same inside a batch as alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtrack.errors import (
    BehindCameraError,
    ObservationDimensionError,
    SigmaPointFailureError,
)
from jointtrack.geometry import (
    JOINT_ORDER,
    CameraModel,
    JointKind,
    ground_plane_from_tilt,
)
from jointtrack.prior import PriorModel
from jointtrack.ukf import (
    STATE_DIM,
    TrackState,
    UkfParams,
    measurement_noise,
    observe,
    predict,
    predict_batch,
    process_noise,
    transition_matrix,
    update,
    update_batch,
    visible_in_order,
)

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480)
GROUND = ground_plane_from_tilt(1.2, 0.1)
PARAMS = UkfParams()
TOL = 1e-9


# -- reference: one track at a time, one observe() call per sigma point -----------


def reference_observe(state_mean, camera, ground, prior, visible):
    kinds = visible_in_order(visible)
    s = np.asarray(state_mean, dtype=float).ravel()
    ankle = ground.to_camera(s[0], s[1])
    if ankle[2] <= 0:
        raise BehindCameraError("predicted position is behind the camera")
    heights = np.array([prior.height_of(k) for k in kinds])
    joints = ankle[None, :] + heights[:, None] * ground.normal[None, :]
    z = joints[:, 2]
    if np.any(z <= 1e-9):
        raise BehindCameraError("a predicted joint is behind the camera")
    out = np.empty((len(kinds), 2))
    out[:, 0] = camera.fx * joints[:, 0] / z + camera.cx
    out[:, 1] = camera.fy * joints[:, 1] / z + camera.cy
    return out.ravel()


def reference_sigma_points(s, p, params):
    lam = params.lam
    scaled = (STATE_DIM + lam) * p
    try:
        root = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        try:
            root = np.linalg.cholesky(scaled + 1e-9 * np.eye(STATE_DIM))
        except np.linalg.LinAlgError as exc:
            raise SigmaPointFailureError("covariance square root failed") from exc
    points = np.empty((2 * STATE_DIM + 1, STATE_DIM))
    points[0] = s
    for i in range(STATE_DIM):
        points[1 + i] = s + root[:, i]
        points[1 + STATE_DIM + i] = s - root[:, i]
    wm = np.full(2 * STATE_DIM + 1, 1.0 / (2.0 * (STATE_DIM + lam)))
    wc = wm.copy()
    wm[0] = lam / (STATE_DIM + lam)
    wc[0] = wm[0] + (1.0 - params.alpha**2 + params.beta)
    return points, wm, wc


def reference_update(s, p, z, visible, camera, ground, prior, params):
    kinds = visible_in_order(visible)
    z = np.asarray(z, dtype=float).ravel()
    points, wm, wc = reference_sigma_points(s, p, params)
    z_sigma = np.stack([reference_observe(pt, camera, ground, prior, kinds) for pt in points])
    z_spread_mean = wm @ z_sigma
    dz = z_sigma - z_spread_mean
    ds = points - s
    innovation_cov = (wc[:, None] * dz).T @ dz + measurement_noise(kinds, params)
    cross_cov = (wc[:, None] * ds).T @ dz
    gain = np.linalg.solve(innovation_cov.T, cross_cov.T).T
    s_new = s + gain @ (z - z_sigma[0])
    p_new = p - gain @ innovation_cov @ gain.T
    return s_new, 0.5 * (p_new + p_new.T)


def reference_predict(s, p, dt, params):
    f = transition_matrix(dt)
    p_new = f @ p @ f.T + process_noise(dt, params.process_accel_sigma)
    return f @ s, 0.5 * (p_new + p_new.T)


# -- helpers ---------------------------------------------------------------------


def check_against_reference(means, covs, measurements, priors, params=PARAMS):
    """Run one batch and compare every track with the reference and with
    update() of the same track alone. Returns the batch errors."""
    out_s, out_p, errors = update_batch(means, covs, measurements, CAM, GROUND, priors, params)
    assert len(errors) == len(means)
    for t, ((z, visible), prior) in enumerate(zip(measurements, priors)):
        try:
            ref_s, ref_p = reference_update(
                means[t], covs[t], z, visible, CAM, GROUND, prior, params
            )
        except (BehindCameraError, SigmaPointFailureError) as exc:
            assert type(errors[t]) is type(exc)
            assert np.array_equal(out_s[t], means[t]) and np.array_equal(out_p[t], covs[t])
            with pytest.raises(type(exc)):
                update(TrackState(s=means[t], P=covs[t]), z, visible, CAM, GROUND, prior, params)
            continue
        assert errors[t] is None
        np.testing.assert_allclose(out_s[t], ref_s, rtol=0, atol=TOL)
        np.testing.assert_allclose(out_p[t], ref_p, rtol=0, atol=TOL)
        alone = update(TrackState(s=means[t], P=covs[t]), z, visible, CAM, GROUND, prior, params)
        assert np.array_equal(alone.s, out_s[t])
        assert np.array_equal(alone.P, out_p[t])
    return errors


# -- fixed batch ------------------------------------------------------------------


class TestUpdateBatch:
    def test_mixed_batch_matches_reference(self):
        # Mixed visible-joint sets and priors, one track whose sigma points
        # cross behind the camera, one whose covariance needs Cholesky
        # jitter, and one with no square root at all, all in one batch.
        tall = PriorModel(h_neck=1.55, h_hip=1.00, h_knee=0.52)
        short = PriorModel(h_neck=1.20, h_hip=0.80, h_knee=0.42)
        cases = [
            ([0.3, 4.0, 0.2, -0.1], np.diag([0.3, 0.2, 0.5, 0.4]), list(JOINT_ORDER), tall),
            ([-0.8, 6.0, 0.0, 0.3], np.diag([0.1, 0.4, 0.2, 0.2]), [JointKind.NECK], short),
            ([1.2, 3.0, -0.4, 0.0], np.diag([0.2, 0.2, 0.3, 0.3]), list(JOINT_ORDER), short),
            ([0.0, 0.4, 0.0, 0.0], np.diag([0.5, 0.5, 0.5, 0.5]), [JointKind.ANKLE], tall),
            ([0.5, 5.0, 0.1, 0.1], np.diag([0.2, 0.3, 0.4, 0.0]), [JointKind.HIP, JointKind.KNEE], tall),
            ([0.1, 4.5, 0.0, 0.0], -np.eye(4), [JointKind.NECK], tall),
            ([-0.2, 3.5, 0.3, 0.2], np.diag([0.25, 0.15, 0.6, 0.6]), [JointKind.NECK], tall),
        ]
        rng = np.random.default_rng(3)
        means = np.array([c[0] for c in cases], dtype=float)
        covs = np.array([c[1] for c in cases], dtype=float)
        priors = [c[3] for c in cases]
        measurements = []
        for mean, _, visible, prior in cases:
            truth = np.asarray(mean) + np.array([0.1, -0.1, 0.0, 0.0])
            z = reference_observe(truth, CAM, GROUND, prior, visible)
            measurements.append((z + rng.normal(0.0, 2.0, z.shape), visible))

        errors = check_against_reference(means, covs, measurements, priors)
        assert isinstance(errors[3], BehindCameraError)
        assert errors[4] is None  # factored after jitter
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky((STATE_DIM + PARAMS.lam) * covs[4])
        assert isinstance(errors[5], SigmaPointFailureError)
        assert sum(e is None for e in errors) == 5

    def test_non_finite_measurement_stays_in_its_row(self):
        means = np.array([[0.3, 4.0, 0.0, 0.0], [0.5, 5.0, 0.0, 0.0]])
        covs = np.array([np.diag([0.2, 0.2, 0.4, 0.4])] * 2)
        prior = PriorModel()
        z_ok = observe(means[1], CAM, GROUND, prior, [JointKind.NECK])
        out_s, out_p, errors = update_batch(
            means, covs,
            [(np.array([np.nan, 100.0]), [JointKind.NECK]), (z_ok, [JointKind.NECK])],
            CAM, GROUND, [prior, prior], PARAMS,
        )
        assert errors == [None, None]
        assert not np.all(np.isfinite(out_s[0]))
        alone = update(TrackState(s=means[1], P=covs[1]), z_ok, [JointKind.NECK], CAM, GROUND, prior, PARAMS)
        assert np.array_equal(out_s[1], alone.s) and np.array_equal(out_p[1], alone.P)

    def test_visible_in_any_form_updates_as_in_measurement_order(self):
        # z stacks the joints in measurement order, however visible lists
        # them: out of order, as a set or a generator, or with a repeat.
        means = np.array([[0.3, 4.0, 0.1, 0.0]] * 5)
        covs = np.array([np.diag([0.2, 0.3, 0.4, 0.4])] * 5)
        prior = PriorModel()
        ordered = [JointKind.NECK, JointKind.KNEE, JointKind.ANKLE]
        z = observe([0.4, 3.9, 0.0, 0.0], CAM, GROUND, prior, ordered)
        forms = [
            ordered,
            [JointKind.ANKLE, JointKind.NECK, JointKind.KNEE],
            set(ordered),
            (k for k in reversed(ordered)),
            ordered + [JointKind.NECK],
        ]
        out_s, out_p, errors = update_batch(
            means, covs, [(z, visible) for visible in forms], CAM, GROUND, [prior] * 5, PARAMS
        )
        assert errors == [None] * 5
        for row in range(1, 5):
            assert np.array_equal(out_s[row], out_s[0]) and np.array_equal(out_p[row], out_p[0])

    def test_dimension_mismatch_rejects_the_batch(self):
        means = np.zeros((2, 4)) + [0.0, 4.0, 0.0, 0.0]
        covs = np.array([np.eye(4)] * 2)
        with pytest.raises(ObservationDimensionError):
            update_batch(
                means, covs,
                [(np.zeros(2), [JointKind.NECK]), (np.zeros(3), [JointKind.NECK])],
                CAM, GROUND, [PriorModel()] * 2, PARAMS,
            )

    def test_observe_matches_reference(self):
        rng = np.random.default_rng(5)
        prior = PriorModel(h_neck=1.45, h_hip=0.9, h_knee=0.45)
        for _ in range(50):
            mean = [rng.uniform(-2, 2), rng.uniform(1, 8), 0.0, 0.0]
            visible = sorted(rng.choice(list(JOINT_ORDER), size=rng.integers(1, 5), replace=False))
            assert np.array_equal(
                observe(mean, CAM, GROUND, prior, visible),
                reference_observe(mean, CAM, GROUND, prior, visible),
            )


# -- property: random batches ------------------------------------------------------

unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@st.composite
def track_cases(draw):
    mean = [
        draw(st.floats(-2.5, 2.5)),
        draw(st.floats(0.3, 9.0)),
        draw(st.floats(-1.5, 1.5)),
        draw(st.floats(-1.5, 1.5)),
    ]
    factor = np.array(draw(st.lists(unit, min_size=16, max_size=16))).reshape(4, 4)
    scale = draw(st.floats(0.01, 0.8))
    cov = scale * (factor @ factor.T) + draw(st.sampled_from([0.0, 1e-6, 1e-3])) * np.eye(4)
    visible = sorted(draw(st.sets(st.sampled_from(JOINT_ORDER), min_size=1)))
    knee = draw(st.floats(0.35, 0.6))
    hip = knee + draw(st.floats(0.2, 0.5))
    prior = PriorModel(h_neck=hip + draw(st.floats(0.3, 0.6)), h_hip=hip, h_knee=knee)
    offset = np.array([draw(st.floats(-0.3, 0.3)), draw(st.floats(-0.3, 0.3)), 0.0, 0.0])
    noise = draw(st.lists(st.floats(-5.0, 5.0), min_size=2 * len(visible), max_size=2 * len(visible)))
    return np.array(mean), cov, visible, prior, offset, np.array(noise)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(track_cases(), min_size=1, max_size=8))
def test_batch_update_equals_reference_and_single_track(cases):
    means = np.array([c[0] for c in cases])
    covs = np.array([0.5 * (c[1] + c[1].T) for c in cases])
    priors = [c[3] for c in cases]
    measurements = []
    for mean, _, visible, prior, offset, noise in cases:
        try:
            z = reference_observe(mean + offset, CAM, GROUND, prior, visible) + noise
        except BehindCameraError:
            z = np.full(2 * len(visible), 240.0)
        measurements.append((z, visible))
    check_against_reference(means, covs, measurements, priors)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.lists(track_cases(), min_size=1, max_size=8), st.floats(1e-3, 1.0))
def test_batch_predict_equals_reference_and_single_track(cases, dt):
    means = np.array([c[0] for c in cases])
    covs = np.array([0.5 * (c[1] + c[1].T) for c in cases])
    out_s, out_p = predict_batch(means, covs, dt, PARAMS)
    for t in range(len(cases)):
        ref_s, ref_p = reference_predict(means[t], covs[t], dt, PARAMS)
        np.testing.assert_allclose(out_s[t], ref_s, rtol=0, atol=TOL)
        np.testing.assert_allclose(out_p[t], ref_p, rtol=0, atol=TOL)
        alone = predict(TrackState(s=means[t], P=covs[t]), dt, PARAMS)
        assert np.array_equal(alone.s, out_s[t]) and np.array_equal(alone.P, out_p[t])

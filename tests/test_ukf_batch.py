"""Batched UKF predict/update against a per-track reference.

The reference below is the filter as it was written before batching: an
update pushes each sigma point through its own observe() call, and a
prediction multiplies one track's matrices. The batched functions must
agree with it to 1e-9 (absolute, on every element of s and P), and a
track's posterior must be bit for bit the same inside a batch as alone.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtrack import ukf
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


# -- a group of every row: neither gathered nor scattered ---------------------------


@contextlib.contextmanager
def counted_group_paths():
    """Counts update_batch's groups by what they project: "whole" when a
    group projects the sigma-point stack itself, "gathered" when a copy of
    some of its rows."""
    counts = {"whole": 0, "gathered": 0}
    drawn = {}
    real_sigma, real_project = ukf._sigma_points, ukf._project_joints

    def sigma_points(*args):
        drawn["points"] = out = real_sigma(*args)
        return out

    def project_joints(states, *rest):
        counts["whole" if states is drawn["points"][0] else "gathered"] += 1
        return real_project(states, *rest)

    ukf._sigma_points, ukf._project_joints = sigma_points, project_joints
    try:
        yield counts
    finally:
        ukf._sigma_points, ukf._project_joints = real_sigma, real_project


def _batch(entries):
    """update_batch's inputs for (label, case, visible) entries."""
    means = np.array([case[0] for _, case, _ in entries])
    covs = np.array([0.5 * (case[1] + case[1].T) for _, case, _ in entries])
    measurements = []
    for _, (mean, _, _, prior, offset, noise), visible in entries:
        try:
            z = reference_observe(mean + offset, CAM, GROUND, prior, visible)
        except BehindCameraError:
            z = np.full(2 * len(visible), 240.0)
        measurements.append((z + np.resize(noise, z.size), visible))
    return means, covs, measurements, [case[3] for _, case, _ in entries]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(track_cases(), min_size=1, max_size=6),
    st.lists(track_cases(), min_size=1, max_size=6),
    st.randoms(use_true_random=False),
)
def test_whole_group_equals_the_same_rows_in_a_mixed_batch(group, others, rng):
    # The group's tracks share one visible-joint set. In the mixed batch
    # they are shuffled among tracks with another set, one of which has no
    # covariance square root.
    visible = group[0][2]
    other = [JointKind.NECK] if visible != [JointKind.NECK] else [JointKind.ANKLE]
    entries = [("group", case, visible) for case in group]
    entries += [("other", case, other) for case in others]
    entries.append(("failed", (others[0][0], -np.eye(4), *others[0][2:]), other))
    rng.shuffle(entries)
    in_group = [i for i, (label, _, _) in enumerate(entries) if label == "group"]
    means, covs, measurements, priors = _batch(entries)
    group_means, group_covs = means[in_group], covs[in_group]
    inputs = means.tobytes(), covs.tobytes(), group_means.tobytes(), group_covs.tobytes()

    with counted_group_paths() as counts:
        whole_s, whole_p, whole_errors = update_batch(
            group_means, group_covs, [measurements[i] for i in in_group],
            CAM, GROUND, [priors[i] for i in in_group], PARAMS,
        )
        whole_counts = dict(counts)
        mixed_s, mixed_p, mixed_errors = update_batch(
            means, covs, measurements, CAM, GROUND, priors, PARAMS
        )

    if not any(isinstance(e, SigmaPointFailureError) for e in whole_errors):
        assert whole_counts == {"whole": 1, "gathered": 0}
    assert counts == {"whole": whole_counts["whole"], "gathered": whole_counts["gathered"] + 2}
    failed = [label for label, _, _ in entries].index("failed")
    assert isinstance(mixed_errors[failed], SigmaPointFailureError)
    assert [type(e) for e in whole_errors] == [type(mixed_errors[i]) for i in in_group]
    assert whole_s.tobytes() == mixed_s[in_group].tobytes()
    assert whole_p.tobytes() == mixed_p[in_group].tobytes()
    # The inputs are untouched; the outputs are new C-ordered arrays.
    assert (means.tobytes(), covs.tobytes(), group_means.tobytes(), group_covs.tobytes()) == inputs
    for out in (whole_s, whole_p, mixed_s, mixed_p):
        assert out.flags.c_contiguous and out.flags.writeable
        for given in (means, covs, group_means, group_covs):
            assert not np.shares_memory(out, given)


def test_a_failed_or_behind_row_takes_the_gathered_path():
    prior = PriorModel()
    means = np.array([[0.3, 4.0, 0.1, 0.0], [0.5, 5.0, 0.0, 0.1], [-0.4, 3.0, 0.0, 0.0]])
    covs = np.array([np.diag([0.2, 0.2, 0.4, 0.4])] * 3)
    measurements = [(np.array([330.0, 150.0]), [JointKind.NECK])] * 3
    with counted_group_paths() as counts:
        out_s, out_p, errors = update_batch(
            means, covs, measurements, CAM, GROUND, [prior] * 3, PARAMS
        )
        assert errors == [None] * 3 and counts == {"whole": 1, "gathered": 0}

        failed = covs.copy()
        failed[1] = -np.eye(4)
        s, p, errors = update_batch(means, failed, measurements, CAM, GROUND, [prior] * 3, PARAMS)
        assert isinstance(errors[1], SigmaPointFailureError)
        assert counts == {"whole": 1, "gathered": 1}
        assert np.array_equal(s[1], means[1]) and np.array_equal(p[1], failed[1])
        for row in (0, 2):
            assert s[row].tobytes() == out_s[row].tobytes()
            assert p[row].tobytes() == out_p[row].tobytes()

        # Row 2's sigma points cross behind the camera: the group is
        # projected whole, and the rows in front are written into copies.
        behind, wide = means.copy(), covs.copy()
        behind[2], wide[2] = [0.0, 0.4, 0.0, 0.0], np.diag([0.5, 0.5, 0.5, 0.5])
        s, p, errors = update_batch(behind, wide, measurements, CAM, GROUND, [prior] * 3, PARAMS)
        assert isinstance(errors[2], BehindCameraError) and errors[:2] == [None, None]
        assert counts == {"whole": 2, "gathered": 1}
        assert np.array_equal(s[2], behind[2]) and np.array_equal(p[2], wide[2])
        for row in (0, 1):
            assert s[row].tobytes() == out_s[row].tobytes()
            assert p[row].tobytes() == out_p[row].tobytes()

        # Covariances in another memory layout give the same C-ordered stacks.
        s, p, errors = update_batch(
            means, np.asfortranarray(covs), measurements, CAM, GROUND, [prior] * 3, PARAMS
        )
        assert errors == [None] * 3 and counts == {"whole": 3, "gathered": 1}
        assert s.flags.c_contiguous and p.flags.c_contiguous
        assert s.tobytes() == out_s.tobytes() and p.tobytes() == out_p.tobytes()

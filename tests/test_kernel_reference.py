"""The per-frame kernels against their earlier form, bit for bit.

The references below are geometry.project_points, ukf._project_joints,
ukf.predict_batch, ukf.update_batch, association.expected_boxes,
association._gated_costs and TrackState's copy-and-check as they were
written before they were cut down to fewer numpy calls (weights, R and the
prior heights rebuilt on every call, np.any and np.swapaxes, unconditional
mask copies, np.isin for blocked columns). Cutting calls must not change a
result: on every drawn input both sides return the same arrays, bit for bit
(NaN payloads and signed zeros included), or raise the same exception type.

The same holds for the work the pipeline now does once for all tracks:
ukf.track_states against one TrackState per row, and a matched detection's
update measurement against the per-joint filter followed by
ukf.measurement_from_joints, for a detection built in code and for the
same joints ingested as one pixel block. The keypoint merge, now one pass
that puts each kept keypoint in a slot, is checked against the dict of
kept keypoints it used to build: the same kinds, pixel and confidence
bits, or the same exception type and message, through ingest of one
detection and of several.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtrack.association import (
    FORBIDDEN_COST,
    MIN_ASSOCIATION_DEPTH,
    BoundingBox,
    _gated_costs,
    expected_boxes,
)
from jointtrack.config import CameraSetup, RunConfig
from jointtrack.errors import (
    BehindCameraError,
    MalformedRecordError,
    NonPositiveDepthError,
    NonPositiveDtError,
    ObservationDimensionError,
    SigmaPointFailureError,
)
from jointtrack.geometry import (
    JOINT_ORDER,
    MIN_PROJECTION_DEPTH,
    CameraModel,
    JointKind,
    ground_plane_from_tilt,
    joint_position,
    project_points,
)
from jointtrack.pipeline import Detection, JointDetection, TrackingSession
from jointtrack.prior import PriorModel
from jointtrack.streams import detection_frame_from_record
from jointtrack.ukf import (
    CHOLESKY_JITTER,
    COVARIANCE_SYMMETRY_TOL,
    STATE_DIM,
    TrackState,
    UkfParams,
    _project_joints,
    measurement_from_joints,
    predict_batch,
    track_states,
    update_batch,
)

# NaN, inf and failed factorizations are drawn on purpose.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# -- the reference -------------------------------------------------------------


def ref_project_points(camera, points):
    p = np.asarray(points, dtype=float)
    z = p[..., 2]
    if np.any(z <= MIN_PROJECTION_DEPTH):
        raise NonPositiveDepthError("a point is at or behind the camera")
    out = np.empty(p.shape[:-1] + (2,))
    out[..., 0] = camera.fx * p[..., 0] / z + camera.cx
    out[..., 1] = camera.fy * p[..., 1] / z + camera.cy
    return out


def ref_project_joints(states, heights, camera, ground):
    ankles = ground.to_camera(states[..., 0:1], states[..., 1:2])
    joints = joint_position(ankles[:, :, None, :], ground, heights[:, None, :])
    behind = np.any(ankles[..., 2] <= 0, axis=1) | np.any(
        joints[..., 2] <= MIN_PROJECTION_DEPTH, axis=(1, 2)
    )
    pixels = ref_project_points(camera, joints[~behind])
    return behind, pixels.reshape(pixels.shape[0], states.shape[1], 2 * heights.shape[1])


def ref_transition_matrix(dt):
    f = np.eye(STATE_DIM)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


def ref_process_noise(dt, accel_sigma):
    q11 = dt**4 / 4.0
    q12 = dt**3 / 2.0
    q22 = dt**2
    q = np.zeros((STATE_DIM, STATE_DIM))
    for axis in range(2):
        q[axis, axis] = q11
        q[axis, axis + 2] = q12
        q[axis + 2, axis] = q12
        q[axis + 2, axis + 2] = q22
    return accel_sigma**2 * q


def ref_predict_batch(means, covs, dt, params):
    if not dt > 0:
        raise NonPositiveDtError(f"dt must be positive, got {dt}")
    f = ref_transition_matrix(dt)
    s = (f @ np.asarray(means, dtype=float)[..., None])[..., 0]
    p = f @ np.asarray(covs, dtype=float) @ f.T + ref_process_noise(dt, params.process_accel_sigma)
    return s, 0.5 * (p + np.swapaxes(p, -1, -2))


def ref_visible_in_order(visible):
    present = set(visible)
    return [k for k in JOINT_ORDER if k in present]


def ref_cholesky_root(scaled):
    try:
        return np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(scaled + CHOLESKY_JITTER * np.eye(STATE_DIM))
        except np.linalg.LinAlgError as exc:
            raise SigmaPointFailureError("covariance square root failed") from exc


def ref_sigma_points(means, covs, params):
    scaled = (STATE_DIM + params.lam) * covs
    errors = [None] * len(scaled)
    try:
        roots = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        roots = np.zeros_like(scaled)
        for t, matrix in enumerate(scaled):
            try:
                roots[t] = ref_cholesky_root(matrix)
            except SigmaPointFailureError as exc:
                errors[t] = exc
    offsets = np.swapaxes(roots, 1, 2)
    points = np.empty((len(means), 2 * STATE_DIM + 1, STATE_DIM))
    points[:, 0] = means
    points[:, 1 : 1 + STATE_DIM] = means[:, None, :] + offsets
    points[:, 1 + STATE_DIM :] = means[:, None, :] - offsets
    return points, errors


def ref_weights(params):
    lam = params.lam
    wm = np.full(2 * STATE_DIM + 1, 1.0 / (2.0 * (STATE_DIM + lam)))
    wc = wm.copy()
    wm[0] = lam / (STATE_DIM + lam)
    wc[0] = wm[0] + (1.0 - params.alpha**2 + params.beta)
    return wm, wc


def ref_measurement_noise(visible, params):
    kinds = ref_visible_in_order(visible)
    variances = np.repeat([params.joint_pixel_sigma[k] ** 2 for k in kinds], 2)
    return np.diag(variances)


def ref_update_batch(means, covs, measurements, camera, ground, priors, params):
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    groups = {}
    zs = []
    for t, (z, visible) in enumerate(measurements):
        kinds = tuple(ref_visible_in_order(visible))
        z = np.asarray(z, dtype=float).ravel()
        if z.size != 2 * len(kinds) or not kinds:
            raise ObservationDimensionError("dimension mismatch")
        zs.append(z)
        groups.setdefault(kinds, []).append(t)

    points, errors = ref_sigma_points(means, covs, params)
    wm, wc = ref_weights(params)
    out_s, out_p = means.copy(), covs.copy()
    for kinds, members in groups.items():
        rows = np.array([t for t in members if errors[t] is None], dtype=int)
        if rows.size == 0:
            continue
        heights = np.array([[priors[t].height_of(k) for k in kinds] for t in rows])
        behind, z_sigma = ref_project_joints(points[rows], heights, camera, ground)
        for t in rows[behind]:
            errors[t] = BehindCameraError("a sigma point left the camera's front halfspace")
        rows = rows[~behind]
        if rows.size == 0:
            continue
        s, p = means[rows], covs[rows]
        z_spread_mean = wm @ z_sigma
        dz = z_sigma - z_spread_mean[:, None, :]
        ds = points[rows] - s[:, None, :]
        innovation_cov = np.swapaxes(wc[:, None] * dz, 1, 2) @ dz + ref_measurement_noise(
            kinds, params
        )
        cross_cov = np.swapaxes(wc[:, None] * ds, 1, 2) @ dz
        gain = np.swapaxes(
            np.linalg.solve(np.swapaxes(innovation_cov, 1, 2), np.swapaxes(cross_cov, 1, 2)), 1, 2
        )
        innovation = np.stack([zs[t] for t in rows]) - z_sigma[:, 0]
        s_new = s + (gain @ innovation[..., None])[..., 0]
        p_new = p - gain @ innovation_cov @ np.swapaxes(gain, 1, 2)
        out_s[rows] = s_new
        out_p[rows] = 0.5 * (p_new + np.swapaxes(p_new, 1, 2))
    return out_s, out_p, errors


def ref_expected_boxes(means, widths, camera, ground):
    ankles = ground.to_camera(means[:, 0:1], means[:, 1:2])
    too_close = ankles[:, 2] <= MIN_ASSOCIATION_DEPTH
    front = ankles[~too_close]
    boxes = ref_project_points(camera, front)
    boxes[:, 1] = camera.fx * np.asarray(widths, dtype=float)[~too_close] / front[:, 2]
    return too_close, boxes


def ref_gated_costs(expected, detections, gate, blocked):
    exp = np.array(expected, dtype=float)
    det = np.array([(d.u, d.w) for d in detections], dtype=float)
    dist = np.hypot(exp[:, 0:1] - det[:, 0], exp[:, 1:2] - det[:, 1])
    allowed = (dist <= gate) & ~np.isin(np.arange(len(detections)), list(blocked))
    return np.where(allowed, dist, FORBIDDEN_COST)


def ref_track_state(s, P):
    """TrackState's fields as __post_init__ built them."""
    s = np.asarray(s, dtype=float).reshape(STATE_DIM).copy()
    P = np.asarray(P, dtype=float).reshape(STATE_DIM, STATE_DIM).copy()
    if np.max(np.abs(P - P.T)) > COVARIANCE_SYMMETRY_TOL:
        raise ValueError("covariance must be symmetric")
    s.flags.writeable = False
    P.flags.writeable = False
    return s, P


# -- comparison ----------------------------------------------------------------


def canon(value):
    """A value by its bits: arrays by dtype, shape, layout and bytes (so NaN
    payloads and -0.0 count), exceptions by type."""
    if isinstance(value, np.ndarray):
        return (
            "array",
            value.dtype.str,
            value.shape,
            value.flags.c_contiguous,
            value.flags.writeable,
            value.tobytes(),
        )
    if isinstance(value, BaseException):
        return "error", type(value)
    if isinstance(value, (tuple, list)):
        return type(value).__name__, tuple(canon(v) for v in value)
    if isinstance(value, float):
        return "float", struct.pack("<d", value)
    return value


def outcome(fn, *args):
    try:
        return "returned", canon(fn(*args))
    except Exception as exc:  # the type is what is compared
        return "raised", type(exc)


def assert_same(reference, rewritten, *args):
    expected = outcome(reference, *args)
    assert outcome(rewritten, *args) == expected
    return expected


# -- inputs --------------------------------------------------------------------

CAMERAS = [
    CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480),
    CameraModel(fx=612, fy=598, cx=330, cy=251, image_width=640, image_height=480),
    CameraModel(fx=911.37, fy=907.9, cx=641.2, cy=359.6, image_width=1280, image_height=720),
]
TILTED = ground_plane_from_tilt(1.2, 0.1)
# On a level camera's ground the chart's gy is the ankle's depth exactly,
# so the depth limits can be hit on the dot.
LEVEL = ground_plane_from_tilt(1.2, 0.0)
GROUNDS = [TILTED, LEVEL, ground_plane_from_tilt(0.9, 0.45)]
PARAMS = UkfParams()

cameras = st.sampled_from(CAMERAS)
grounds = st.sampled_from(GROUNDS)
SPECIALS = [
    0.0, -0.0, MIN_PROJECTION_DEPTH, -MIN_PROJECTION_DEPTH, MIN_ASSOCIATION_DEPTH,
    5e-324, float("nan"), float("inf"), float("-inf"),
]


def finite_or_special(lo, hi):
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), st.sampled_from(SPECIALS))


def ground_state(depth=st.floats(-1.0, 9.0)):
    """A mean [gx, gy, vx, vy] with gy drawn from depth (or a special)."""
    return st.tuples(
        finite_or_special(-3.0, 3.0),
        st.one_of(depth, st.sampled_from(SPECIALS)),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
    ).map(lambda v: np.array(v, dtype=float))


priors = st.tuples(st.floats(0.3, 0.6), st.floats(0.2, 0.5), st.floats(0.2, 0.6)).map(
    lambda d: PriorModel(h_neck=d[0] + d[1] + d[2], h_hip=d[0] + d[1], h_knee=d[0])
)
visible_sets = st.sets(st.sampled_from(JOINT_ORDER), min_size=1).map(sorted)


@st.composite
def covariances(draw):
    """A covariance of one of the kinds update_batch has to tell apart."""
    kind = draw(st.sampled_from(["spd", "spd", "spd", "jitter", "fail", "nan", "asym", "inf"]))
    factor = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16)))
    cov = draw(st.floats(0.01, 0.8)) * (factor.reshape(4, 4) @ factor.reshape(4, 4).T)
    cov = cov + draw(st.sampled_from([0.0, 1e-6, 1e-3])) * np.eye(4)
    if kind == "jitter":  # semidefinite: factors only after jitter
        cov = np.diag([draw(st.floats(0.05, 0.5)) for _ in range(3)] + [0.0])
    elif kind == "fail":
        cov = -draw(st.floats(0.1, 1.0)) * np.eye(4)
    elif kind in ("nan", "inf"):
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        cov[i, j] = cov[j, i] = float(kind)
    elif kind == "asym":
        i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        cov[i, j] += draw(st.sampled_from([1e-12, 1e-9, 1e-6, 0.1]))
    return cov


# -- geometry.project_points ---------------------------------------------------


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    cameras,
    st.lists(
        st.tuples(finite_or_special(-5.0, 5.0), finite_or_special(-5.0, 5.0), finite_or_special(-1.0, 10.0)),
        min_size=0,
        max_size=6,
    ),
    st.sampled_from(["rows", "grid", "single"]),
)
def test_project_points_matches_reference(camera, points, layout):
    p = np.array(points, dtype=float).reshape(-1, 3)
    if layout == "grid":
        p = p.reshape(-1, 1, 3)
    elif layout == "single" and len(p):
        p = p[0]
    assert_same(ref_project_points, project_points, camera, p)


@pytest.mark.parametrize("z", [MIN_PROJECTION_DEPTH, 0.0, -0.0, -1.0, np.nextafter(MIN_PROJECTION_DEPTH, 1.0), np.nan])
def test_project_points_depth_limit(z):
    points = np.array([[0.2, -0.1, 3.0], [0.4, 0.3, z]])
    kind, _ = assert_same(ref_project_points, project_points, CAMERAS[0], points)
    assert (kind == "raised") == (z <= MIN_PROJECTION_DEPTH)


# -- ukf._project_joints -------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    cameras,
    grounds,
    st.lists(st.lists(ground_state(), min_size=1, max_size=3), min_size=1, max_size=4),
    st.lists(priors, min_size=4, max_size=4),
    visible_sets,
)
def test_project_joints_matches_reference(camera, ground, states, prior_list, visible):
    width = min(len(track) for track in states)
    states = np.array([[s for s in track[:width]] for track in states])
    heights = np.array([[p.height_of(k) for k in visible] for p in prior_list[: len(states)]])
    assert_same(ref_project_joints, _project_joints, states, heights, camera, ground)


def test_project_joints_mixes_front_behind_and_depth_limit_rows():
    # Row 1 is behind the camera, row 2's ankle lies exactly at the
    # projection depth limit, row 3 just beyond it.
    gys = [3.0, -0.5, MIN_PROJECTION_DEPTH, np.nextafter(MIN_PROJECTION_DEPTH, 1.0)]
    states = np.array([[[0.1, gy, 0.0, 0.0]] for gy in gys])
    assert LEVEL.to_camera(0.1, MIN_PROJECTION_DEPTH)[2] == MIN_PROJECTION_DEPTH
    heights = np.array([[0.0]] * len(gys))
    kind, _ = assert_same(ref_project_joints, _project_joints, states, heights, CAMERAS[0], LEVEL)
    assert kind == "returned"
    behind, pixels = _project_joints(states, heights, CAMERAS[0], LEVEL)
    assert behind.tolist() == [False, True, True, False] and pixels.shape == (2, 1, 2)


# -- ukf.predict_batch ---------------------------------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(ground_state(), covariances()), min_size=0, max_size=5),
    st.one_of(st.floats(1e-4, 2.0), st.sampled_from([0.0, -0.033, float("nan"), 1 / 30])),
    st.floats(0.1, 5.0),
)
def test_predict_batch_matches_reference(tracks, dt, accel):
    means = np.array([m for m, _ in tracks]).reshape(-1, STATE_DIM)
    covs = np.array([c for _, c in tracks]).reshape(-1, STATE_DIM, STATE_DIM)
    params = UkfParams(process_accel_sigma=accel)
    assert_same(ref_predict_batch, predict_batch, means, covs, dt, params)


# -- ukf.update_batch ----------------------------------------------------------


@st.composite
def update_batches(draw):
    """T tracks with means in front of, near or behind the camera, every
    kind of covariance, and pixel measurements (NaN among them); now and
    then one measurement of the wrong length."""
    tracks = draw(st.lists(st.tuples(ground_state(st.floats(-0.5, 9.0)), covariances(), visible_sets, priors), min_size=1, max_size=6))
    means = np.array([t[0] for t in tracks])
    covs = np.array([t[1] for t in tracks])
    measurements = []
    for _, _, visible, _ in tracks:
        z = draw(st.lists(finite_or_special(-200.0, 900.0), min_size=2 * len(visible), max_size=2 * len(visible)))
        measurements.append((np.array(z), visible))
    if draw(st.integers(0, 19)) == 0:
        t = draw(st.integers(0, len(tracks) - 1))
        measurements[t] = (np.append(measurements[t][0], 1.0), measurements[t][1])
    return means, covs, measurements, [t[3] for t in tracks]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(update_batches(), cameras, grounds)
def test_update_batch_matches_reference(batch, camera, ground):
    means, covs, measurements, prior_list = batch
    assert_same(
        ref_update_batch, update_batch, means, covs, measurements, camera, ground, prior_list, PARAMS
    )


def test_update_batch_with_behind_jitter_and_failed_tracks():
    # One batch holding a track whose sigma points cross behind the camera,
    # one that factors only with jitter, one with no square root, a NaN and
    # an asymmetric covariance, beside plain tracks in two joint groups.
    tall = PriorModel(h_neck=1.55, h_hip=1.00, h_knee=0.52)
    asym = np.diag([0.2, 0.3, 0.4, 0.4])
    asym[0, 1] += 1e-3
    nan_cov = np.diag([0.2, 0.3, 0.4, 0.4])
    nan_cov[2, 3] = nan_cov[3, 2] = np.nan
    cases = [
        ([0.3, 4.0, 0.2, -0.1], np.diag([0.3, 0.2, 0.5, 0.4]), list(JOINT_ORDER)),
        ([0.0, 0.4, 0.0, 0.0], np.diag([0.5, 0.5, 0.5, 0.5]), [JointKind.ANKLE]),
        ([0.5, 5.0, 0.1, 0.1], np.diag([0.2, 0.3, 0.4, 0.0]), [JointKind.HIP, JointKind.KNEE]),
        ([0.1, 4.5, 0.0, 0.0], -np.eye(4), [JointKind.NECK]),
        ([-0.2, 3.5, 0.3, 0.2], asym, [JointKind.NECK]),
        ([0.2, 6.0, 0.0, 0.1], nan_cov, list(JOINT_ORDER)),
        ([-0.8, 6.0, 0.0, 0.3], np.diag([0.1, 0.4, 0.2, 0.2]), [JointKind.NECK]),
    ]
    rng = np.random.default_rng(7)
    means = np.array([c[0] for c in cases], dtype=float)
    covs = np.array([c[1] for c in cases], dtype=float)
    measurements = [(rng.uniform(100.0, 400.0, 2 * len(c[2])), c[2]) for c in cases]
    args = (means, covs, measurements, CAMERAS[0], TILTED, [tall] * len(cases), PARAMS)
    assert_same(ref_update_batch, update_batch, *args)
    _, _, errors = update_batch(*args)
    assert [type(e) for e in errors] == [
        type(None), BehindCameraError, type(None), SigmaPointFailureError,
        type(None), type(None), type(None),
    ]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky((STATE_DIM + PARAMS.lam) * covs[2])


# -- association.expected_boxes and _gated_costs -------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    cameras,
    grounds,
    st.lists(
        st.tuples(ground_state(st.floats(-1.0, 9.0)), st.one_of(st.floats(0.2, 0.8), st.sampled_from(SPECIALS))),
        min_size=0,
        max_size=6,
    ),
)
def test_expected_boxes_matches_reference(camera, ground, tracks):
    means = np.array([m for m, _ in tracks]).reshape(-1, STATE_DIM)
    widths = [w for _, w in tracks]
    assert_same(ref_expected_boxes, expected_boxes, means, widths, camera, ground)


def test_expected_boxes_depth_limit_is_exact():
    gys = [MIN_ASSOCIATION_DEPTH, 4.0, np.nextafter(MIN_ASSOCIATION_DEPTH, 1.0), -1.0]
    means = np.array([[0.2, gy, 0.0, 0.0] for gy in gys])
    assert LEVEL.to_camera(0.2, MIN_ASSOCIATION_DEPTH)[2] == MIN_ASSOCIATION_DEPTH
    kind, _ = assert_same(ref_expected_boxes, expected_boxes, means, [0.5] * 4, CAMERAS[0], LEVEL)
    assert kind == "returned"
    too_close, boxes = expected_boxes(means, [0.5] * 4, CAMERAS[0], LEVEL)
    assert too_close.tolist() == [True, False, False, True] and boxes.shape == (2, 2)


blocked_values = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([1.0, 2.5, -1.0, float("nan"), np.int64(2), np.int64(-1), np.float64(0.0)]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(finite_or_special(0.0, 640.0), finite_or_special(0.0, 200.0)), min_size=1, max_size=5),
    st.lists(
        st.tuples(st.floats(0.0, 640.0), st.floats(0.0, 480.0), st.floats(1.0, 200.0), st.floats(1.0, 400.0)),
        min_size=0,
        max_size=6,
    ),
    st.one_of(st.floats(0.5, 300.0), st.sampled_from([float("inf"), 80.0])),
    st.one_of(st.sets(blocked_values, max_size=4), st.lists(blocked_values, max_size=4)),
)
def test_gated_costs_matches_reference(expected, boxes, gate, blocked):
    detections = [BoundingBox(*b) for b in boxes]
    assert_same(ref_gated_costs, _gated_costs, expected, detections, gate, blocked)


def test_gated_costs_blocks_in_range_columns_only():
    detections = [BoundingBox(100.0 * j, 200.0, 50.0, 120.0) for j in range(4)]
    expected = [(100.0, 50.0), (210.0, 52.0)]
    for blocked in ({1}, {-1, 4, 7}, {0, 3, -4}, set(), [2, 2, 9]):
        kind, _ = assert_same(ref_gated_costs, _gated_costs, expected, detections, 500.0, blocked)
        assert kind == "returned"
    cost = _gated_costs(expected, detections, 500.0, {-1, 4, 2})
    assert (cost[:, 2] == FORBIDDEN_COST).all() and (cost[:, [0, 1, 3]] < FORBIDDEN_COST).all()


# -- TrackState ----------------------------------------------------------------


@st.composite
def state_fields(draw):
    """An (s, P) pair: good, near the symmetry tolerance, non-finite, of
    the wrong shape, dtype or layout."""
    s = np.array(draw(st.lists(finite_or_special(-5.0, 5.0), min_size=4, max_size=4)))
    P = draw(covariances())
    shape = draw(st.sampled_from(["plain", "plain", "list", "int", "column", "flat", "transposed", "short", "wide"]))
    delta = draw(st.sampled_from([0.0, 0.5e-9, 1e-9, 1.0000001e-9, 2e-9, 1e-3]))
    P = P.copy()
    P[draw(st.integers(0, 3)), draw(st.integers(0, 3))] += delta
    if shape == "list":
        return s.tolist(), P.tolist()
    if shape == "int":
        return np.round(s * 10).astype(np.int64) if np.isfinite(s).all() else s, np.eye(4, dtype=np.int64)
    if shape == "column":
        return s.reshape(4, 1), P.reshape(2, 8)
    if shape == "flat":
        return s.reshape(1, 4), P.ravel()
    if shape == "transposed":
        return s[::-1], np.asfortranarray(P)
    if shape == "short":
        return s[:3], P
    return (s, P[:3, :3]) if shape == "wide" else (s, P)


def _track_state_fields(s, P):
    state = TrackState(s=s, P=P)
    return state.s, state.P


@settings(max_examples=400, deadline=None, derandomize=True)
@given(state_fields())
def test_track_state_matches_reference(fields):
    s, P = fields
    kind, _ = assert_same(ref_track_state, _track_state_fields, s, P)
    if kind == "returned":
        state = TrackState(s=s, P=P)
        assert not np.shares_memory(state.s, s) and not np.shares_memory(state.P, P)


@pytest.mark.parametrize("delta", [COVARIANCE_SYMMETRY_TOL, np.nextafter(COVARIANCE_SYMMETRY_TOL, 1.0), np.nan, np.inf])
def test_track_state_symmetry_limit(delta):
    P = np.eye(4)
    P[0, 1] = delta
    kind, _ = assert_same(ref_track_state, _track_state_fields, np.zeros(4), P)
    # Above the tolerance is asymmetric; a NaN passes, as the max is NaN.
    assert (kind == "raised") == (delta > COVARIANCE_SYMMETRY_TOL)


# -- ukf.track_states ------------------------------------------------------------


def ref_track_states(means, covs):
    """One TrackState per row, as the pipeline built them."""
    return [_track_state_fields(s, P) for s, P in zip(means, covs)]


def _track_states_fields(means, covs):
    return [(state.s, state.P) for state in track_states(means, covs)]


def _strided(stack):
    """stack's values in a view that is not C-contiguous, as predict_batch
    returns its means."""
    holder = np.zeros(stack.shape + (2,))
    holder[..., 0] = stack
    return holder[..., 0]


@st.composite
def state_stacks(draw):
    """(T, 4) means and (T, 4, 4) covariances with NaN, inf and -0.0 drawn
    in, some rows asymmetric, in the layouts a caller may pass."""
    n = draw(st.integers(0, 5))
    means = np.array(
        [draw(st.lists(finite_or_special(-5.0, 5.0), min_size=4, max_size=4)) for _ in range(n)]
    ).reshape(n, STATE_DIM)
    covs = np.array([draw(covariances()) for _ in range(n)]).reshape(n, STATE_DIM, STATE_DIM)
    for t in range(n):
        if draw(st.booleans()):  # a symmetric -0.0 pair
            i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            covs[t, i, j] = covs[t, j, i] = -0.0
    layout = draw(st.sampled_from(["plain", "plain", "strided", "fortran", "list", "int"]))
    if layout == "strided":
        return _strided(means), _strided(covs)
    if layout == "fortran":
        return np.asfortranarray(means), np.asfortranarray(covs)
    if layout == "list" and n:
        return means.tolist(), covs.tolist()
    if layout == "int":
        return np.arange(4 * n).reshape(n, 4), np.broadcast_to(np.eye(4, dtype=np.int64), (n, 4, 4))
    return means, covs


@settings(max_examples=400, deadline=None, derandomize=True)
@given(state_stacks())
def test_track_states_match_one_track_state_per_row(stacks):
    means, covs = stacks
    kind, _ = assert_same(ref_track_states, _track_states_fields, means, covs)
    if kind == "returned":
        for state in track_states(means, covs):
            assert type(state) is TrackState
            for field in (state.s, state.P):
                assert not np.shares_memory(field, means) and not np.shares_memory(field, covs)
                with pytest.raises(ValueError):
                    field.flags.writeable = True


def test_track_states_reject_an_asymmetric_row():
    covs = np.array([np.eye(4)] * 3)
    # A row with a NaN passes, even if it is also asymmetric, as in TrackState ...
    covs[0, 0, 1] = np.nan
    covs[0, 2, 3] += 1.0
    TrackState(s=np.zeros(4), P=covs[0])
    covs[2, 3, 1] += np.nextafter(COVARIANCE_SYMMETRY_TOL, 1.0)  # ... and hides no other row
    with pytest.raises(ValueError, match="symmetric"):
        track_states(np.zeros((3, 4)), covs)
    with pytest.raises(ValueError, match="symmetric"):
        TrackState(s=np.zeros(4), P=covs[2])
    covs[2, 3, 1] = COVARIANCE_SYMMETRY_TOL  # at the tolerance is symmetric
    assert len(track_states(np.zeros((3, 4)), covs)) == 3


def test_track_states_empty_batch_and_shapes():
    assert track_states(np.empty((0, 4)), np.empty((0, 4, 4))) == []
    for means, covs in [
        (np.zeros((2, 4)), np.zeros((3, 4, 4))),
        (np.zeros((2, 3)), np.zeros((2, 3, 3))),
        (np.zeros(4), np.zeros((4, 4))),
        (np.zeros((1, 4, 1)), np.zeros((1, 4, 4))),
        (np.zeros((1, 4)), np.zeros((1, 16))),
        (0.0, np.zeros((1, 4, 4))),
    ]:
        with pytest.raises(ValueError, match="expected"):
            track_states(means, covs)


# -- a matched detection's update measurement --------------------------------------

SETUP = CameraSetup.from_dict(
    {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0, "image_width": 640,
     "image_height": 480, "camera_height_m": 1.2, "tilt_rad": 0.1}
)
BOX = BoundingBox(u=400.0, v=300.0, w=80.0, h=260.0)


def ref_measurement(config, detection):
    """The usable joints as TrackingSession._usable_joints filtered them
    (in the detection's own order), stacked by measurement_from_joints."""
    allowed, min_confidence = frozenset(config.use_joints), config.min_confidence
    joints = {
        kind: obs.pixel
        for kind, obs in detection.joints.items()
        if kind in allowed and obs.confidence >= min_confidence
    }
    return measurement_from_joints(joints) if joints else None


def _session_measurement(config, detection):
    session = TrackingSession(SETUP.camera, SETUP.ground, config, SETUP.extrinsics)
    return session._measurement(detection)


def assert_same_measurement(config, detection):
    """The session's measurement of detection, once it is checked against
    the reference."""
    assert_same(ref_measurement, _session_measurement, config, detection)
    measurement = _session_measurement(config, detection)
    if measurement is not None:
        assert all(type(kind) is JointKind for kind in measurement[1])
    return measurement


@st.composite
def measured_detections(draw):
    """A run config and a detection whose joints are inserted in any order,
    with confidences on, just off and far from min_confidence and pixels
    that may be NaN, inf or -0.0, in arrays that are or are not contiguous."""
    min_confidence = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    order, count = draw(st.permutations(JOINT_ORDER)), draw(st.integers(1, 4))
    confidences = st.one_of(
        st.sampled_from(
            [0.0, 1.0, min_confidence, max(np.nextafter(min_confidence, -1.0), 0.0),
             min(np.nextafter(min_confidence, 2.0), 1.0)]
        ),
        st.floats(0.0, 1.0),
    )
    joints = {}
    for kind in draw(st.permutations(JOINT_ORDER)):
        if draw(st.booleans()):
            u, v = draw(finite_or_special(-50.0, 700.0)), draw(finite_or_special(-50.0, 700.0))
            pixel = draw(st.sampled_from(["array", "strided", "list"]))
            pixel = {
                "array": np.array([u, v]),
                "strided": np.array([u, 0.0, v])[::2],
                "list": [u, v],
            }[pixel]
            joints[kind] = JointDetection(pixel=pixel, confidence=draw(confidences))
    config = RunConfig(min_confidence=min_confidence, use_joints=order[:count])
    return config, Detection(box=BOX, joints=joints)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(measured_detections())
def test_measurement_matches_reference(case):
    assert_same_measurement(*case)


def _ingested(detection):
    """detection's joints read back through ingest: one record whose
    pre-merged keypoints hold the same pixels and confidences."""
    keypoints = {
        kind.label: [*np.asarray(obs.pixel).tolist(), obs.confidence]
        for kind, obs in detection.joints.items()
    }
    record = {"t": 0.0, "detections": [{"box": detection.box.to_list(), "joints": keypoints}]}
    (ingested,) = detection_frame_from_record(record, 0.0).detections
    return ingested


@settings(max_examples=400, deadline=None, derandomize=True)
@given(measured_detections())
def test_ingested_block_measurement_matches_reference(case):
    # z of an ingested block is a view of it when every joint is usable, so
    # it is read-only; dtype, shape, bytes and kinds are the reference's.
    config, detection = case
    expected = ref_measurement(config, detection)
    measurement = _session_measurement(config, _ingested(detection))
    if expected is None:
        assert measurement is None
        return
    (z, kinds), (ref_z, ref_kinds) = measurement, expected
    assert (z.dtype.str, z.shape, z.flags.c_contiguous, z.tobytes()) == (
        ref_z.dtype.str, ref_z.shape, True, ref_z.tobytes()
    )
    assert kinds == ref_kinds and all(type(kind) is JointKind for kind in kinds)


def test_measurement_named_cases():
    pixels = {kind: np.array([100.0 + kind, -0.0]) for kind in JOINT_ORDER}
    shuffled = [JointKind.ANKLE, JointKind.NECK, JointKind.KNEE, JointKind.HIP]

    def detection(confidence):
        return Detection(
            box=BOX,
            joints={k: JointDetection(pixel=pixels[k], confidence=confidence(k)) for k in shuffled},
        )

    # Inserted out of order: the measurement is in measurement order.
    z, kinds = assert_same_measurement(RunConfig(), detection(lambda k: 0.9))
    assert kinds == list(JOINT_ORDER)
    assert z.tolist() == [100.0, 0.0, 101.0, 0.0, 102.0, 0.0, 103.0, 0.0]
    # use_joints a subset, given out of order.
    config = RunConfig(use_joints=(JointKind.ANKLE, JointKind.HIP))
    _, kinds = assert_same_measurement(config, detection(lambda k: 0.9))
    assert kinds == [JointKind.HIP, JointKind.ANKLE]
    # A confidence exactly at min_confidence is kept, one just below it is not.
    below = np.nextafter(0.3, 0.0)
    config = RunConfig(min_confidence=0.3)
    at_limit = (JointKind.NECK, JointKind.KNEE)
    _, kinds = assert_same_measurement(config, detection(lambda k: 0.3 if k in at_limit else below))
    assert kinds == list(at_limit)
    # Nothing usable: no measurement.
    assert assert_same_measurement(config, detection(lambda k: below)) is None


# -- the keypoint merge --------------------------------------------------------

# The merge as it was written before it became one pass over slots: each kept
# keypoint went into a dict by name, from which the joints were looked up.
REF_PAIR_NAMES = (
    (JointKind.HIP, "hip", "left_hip", "right_hip"),
    (JointKind.KNEE, "knee", "left_knee", "right_knee"),
    (JointKind.ANKLE, "ankle", "left_ankle", "right_ankle"),
)


def ref_merge_usable(usable, box):
    merged = []
    joint = usable.get("neck")
    if joint is None:
        left, right = usable.get("left_shoulder"), usable.get("right_shoulder")
        if left is not None and right is not None:
            (lu, lv), lc = left
            (ru, rv), rc = right
            joint = ((0.5 * (lu + ru), 0.5 * (lv + rv)), 0.5 * (lc + rc))
        else:
            joint = left or right
    if joint is not None:
        merged.append((JointKind.NECK, *joint))
    for kind, name, left_name, right_name in REF_PAIR_NAMES:
        joint = usable.get(name)
        if joint is None:
            left, right = usable.get(left_name), usable.get(right_name)
            if left is not None and right is not None:
                v = (0.0 + left[0][1] + right[0][1]) / 2
                joint = ((box.u, v), (0.0 + left[1] + right[1]) / 2)
            elif left is not None or right is not None:
                (_, v), conf = left or right
                joint = ((box.u, 0.0 + v), 0.0 + conf)
            else:
                continue
        merged.append((kind, *joint))
    if not merged:
        return (), np.empty((0, 2)), ()
    kinds, pixels, confidences = zip(*merged)
    for conf in confidences:
        if not 0.0 <= conf <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
    return kinds, np.array(pixels, dtype=float), confidences


def ref_merge(keypoints, box, min_confidence):
    """(kinds, (k, 2) pixels, confidences) of the keypoint merge as it was."""
    usable = {}
    for name, vals in keypoints.items():
        u, v, conf = vals[0], vals[1], vals[2]
        conf = float(conf)
        if conf >= min_confidence:
            if type(u) is not float or type(v) is not float:
                u, v = np.asarray((u, v), dtype=float).reshape(2).tolist()
            usable[name] = ((u, v), conf)
    return ref_merge_usable(usable, box) if usable else ((), np.empty((0, 2)), ())


def merged_fields(joints):
    return tuple(joints.kinds), joints.pixels, tuple(joints.confidences)


def ingest_merge(keypoints, box, min_confidence):
    """merged_fields of ingest's merge of a record holding one detection,
    or the exception that detection_frame_from_record wraps."""
    record = {"t": 0.5, "detections": [{"box": box.to_list(), "joints": keypoints}]}
    try:
        (detection,) = detection_frame_from_record(record, min_confidence).detections
    except MalformedRecordError as exc:
        raise exc.__cause__ from None
    return merged_fields(detection.joints)


def merge_outcome(fn, *args):
    """fn's kinds, pixel bits and confidence bits, or its exception's type
    and message."""
    try:
        kinds, pixels, confidences = fn(*args)
    except Exception as exc:  # the type and the message are what is compared
        return "raised", type(exc), str(exc)
    return "returned", kinds, pixels.dtype.str, pixels.shape, pixels.tobytes(), canon(confidences)


MERGE_NAME_SETS = {
    "pre-merged": ("neck", "hip", "knee", "ankle"),
    "coco pairs": ("left_shoulder", "right_shoulder", "left_hip", "right_hip", "left_knee",
                   "right_knee", "left_ankle", "right_ankle"),
    "one side": ("left_shoulder", "left_hip", "left_knee", "left_ankle"),
    "other side": ("right_shoulder", "right_hip", "right_knee", "right_ankle"),
    "shoulders": ("left_shoulder", "right_shoulder"),
    "mixed": ("neck", "hip", "left_hip", "right_knee", "ankle", "left_ankle", "right_shoulder"),
}
EXTRA_NAMES = ("nose", "left_elbow", "right_wrist", "Neck", "tail", "")


@st.composite
def keypoint_maps(draw):
    """(min_confidence, keypoints, box): a detection's {name: [u, v, conf]}
    over one of the name sets above plus extra names, in any order, with
    confidences at and just around min_confidence, kept ones outside
    [0, 1], and pixels that are floats, ints, None or strings, or keypoints
    that are short lists."""
    min_confidence = draw(st.sampled_from([0.0, 0.3, 1.0]))
    names = list(MERGE_NAME_SETS[draw(st.sampled_from(sorted(MERGE_NAME_SETS)))])
    names = draw(st.lists(st.sampled_from(names), max_size=len(names), unique=True))
    names += draw(st.lists(st.sampled_from(EXTRA_NAMES), max_size=2, unique=True))
    confidences = st.one_of(
        st.sampled_from([
            min_confidence, float(np.nextafter(min_confidence, -1.0)),
            float(np.nextafter(min_confidence, 2.0)), 0.0, -0.0, 1.0, 1.0000000000000002,
            1.5, -0.5, float("inf"), float("nan"),
        ]),
        st.floats(0.0, 1.0),
    )
    # -0.0 often: a merged mean keeps or loses its sign bit.
    coordinate = st.one_of(
        st.just(-0.0), finite_or_special(-50.0, 700.0), finite_or_special(-50.0, 700.0),
        st.integers(-50, 700), st.none(), st.sampled_from(["1.5", "x", ""]),
    )
    keypoints = {}
    for name in draw(st.permutations(names)):
        value = [draw(coordinate), draw(coordinate), draw(confidences)]
        keypoints[name] = value[: draw(st.sampled_from([3, 3, 3, 3, 2, 1]))]
    box = BoundingBox(u=draw(st.sampled_from([400.0, -0.0, 0.5])), v=300.0, w=80.0, h=260.0)
    return min_confidence, keypoints, box


@settings(max_examples=600, deadline=None, derandomize=True)
@given(keypoint_maps())
def test_ingest_of_one_detection_matches_reference(case):
    min_confidence, keypoints, box = case
    expected = merge_outcome(ref_merge, keypoints, box, min_confidence)
    assert merge_outcome(ingest_merge, keypoints, box, min_confidence) == expected


def ref_ingest(record, min_confidence):
    """Every detection's merge_outcome, or the MalformedRecordError message
    detection_frame_from_record gives for the first one that raises."""
    outcomes = []
    for index, det in enumerate(record["detections"]):
        box = BoundingBox.from_list(det["box"])
        result = merge_outcome(ref_merge, det.get("joints", {}), box, min_confidence)
        if result[0] == "raised":
            _, kind, message = result
            return f"malformed detections[{index}].joints: {kind.__name__}: {message}"
        outcomes.append(result)
    return outcomes


def ingest(record, min_confidence):
    try:
        frame = detection_frame_from_record(record, min_confidence)
    except MalformedRecordError as exc:
        return str(exc)
    return [
        merge_outcome(merged_fields, detection.joints) for detection in frame.detections
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(keypoint_maps(), min_size=1, max_size=4))
def test_ingest_merge_matches_reference(cases):
    min_confidence = cases[0][0]  # the other maps' confidences sit around their own
    record = {
        "t": 0.5,
        "detections": [{"box": box.to_list(), "joints": keypoints} for _, keypoints, box in cases],
    }
    assert ingest(record, min_confidence) == ref_ingest(record, min_confidence)


MERGE_CASES = [
    {"left_hip": [1.0, -0.0, 0.9], "right_hip": [2.0, -0.0, 0.8]},  # 0.0 + -0.0 + -0.0
    {"left_knee": [1.0, -0.0, 0.9]},
    {"left_shoulder": [-0.0, -0.0, 0.5], "right_shoulder": [-0.0, -0.0, 0.7]},
    {"right_shoulder": [3.0, 4.0, 0.7], "ankle": [5, None, 1.0], "left_ankle": [1.0, 2.0, 0.9]},
    {"nose": ["x", 1.0, 0.9], "neck": [1.0, 2.0, 0.9]},
    {"neck": [1.0, 2.0, 0.9], "nose": ["x", 1.0, 0.1]},
    {"hip": [1.0, 2.0, 1.5], "left_hip": [1.0, 2.0, 0.5]},
    {"left_hip": [1.0, 2.0, 1.5], "right_hip": [1.0, 2.0, 0.5]},
    {"left_hip": [1.0, 2.0, 1.5], "right_hip": [1.0, 2.0, 0.1]},
    {"knee": [1.0, 2.0]},
    {"knee": [1.0, 2.0, "0.5"], "ankle": [1.0, 2.0, "x"]},
]


@pytest.mark.parametrize("keypoints", MERGE_CASES)
def test_merge_named_cases_match_reference(keypoints):
    expected = merge_outcome(ref_merge, keypoints, BOX, 0.3)
    assert merge_outcome(ingest_merge, keypoints, BOX, 0.3) == expected
    record = {"t": 0.5, "detections": [{"box": BOX.to_list(), "joints": keypoints}]}
    assert ingest(record, 0.3) == ref_ingest(record, 0.3)


def test_ingest_of_a_frame_matches_reference_detection_by_detection():
    # Every detection's rows of the frame's one pixel array, box-only
    # detections among them.
    kept = [kp for kp in MERGE_CASES if merge_outcome(ref_merge, kp, BOX, 0.3)[0] == "returned"]
    detections = [{"box": BOX.to_list(), "joints": kp} for kp in kept]
    detections[1:1] = [{"box": BOX.to_list()}, {"box": BOX.to_list(), "joints": {"nose": [1, 2, 0.9]}}]
    record = {"t": 0.5, "detections": detections}
    outcomes = ingest(record, 0.3)
    assert len(outcomes) == len(kept) + 2 and outcomes == ref_ingest(record, 0.3)

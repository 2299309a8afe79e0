"""Unscented Kalman filter over the ground-plane state [x, y, vx, vy].

Prediction uses a constant-velocity model. Because it is linear, the
closed-form Kalman propagation is exact and is used directly (sigma points
would reproduce it to round-off). The measurement model is nonlinear: the
predicted ground position is lifted to the camera frame, each visible
joint placed at its prior height and projected to pixels, so the update
runs the standard unscented transform.

The measurement vector stacks joint pixels in the fixed order neck, hip,
knee, ankle filtered to the visible subset; the measurement noise is block
diagonal with an isotropic per-joint pixel variance. Upper-body joints get
smaller default sigmas than lower-body ones, encoding their higher
detection stability.

The filter runs once per frame for all tracks: predict_batch propagates
every track together, and update_batch draws every track's sigma points
with one stacked Cholesky, then groups the measured tracks by
visible-joint set (a track without a measurement passes through); each
group projects all of its sigma points through the pinhole core
(geometry._pinhole) in one call and solves for all of its gains with one
batched solve. A track whose sigma points cross behind the camera, or
whose covariance has no square root even with jitter, fails alone; every
other track gets the same posterior as it would alone. A batch whose one
group holds every track (the common case: every person in view shows the
same joints) is neither gathered into the group nor written back: the
group's posterior stacks are the output, and the inputs are copied only
for a write-back. predict, update and observe are the one-track calls of
the same code. track_states turns the frame's (T, 4) means and (T, 4, 4)
covariances into T TrackStates at once: one copy and one symmetry check
per stack, by the rule TrackState applies to one row, and each state holds
read-only views of its rows.

The paper's own sequences follow one person, so most calls carry one
track, and their cost is the number of numpy calls, not the arithmetic.
What does not change between frames is therefore computed once: the
sigma-point weights and the measurement noise R of each of the 15
visible-joint sets once per UkfParams, and a person's four joint heights
once per PriorModel, as one read-only array indexed by JointKind and as
the read-only heights of each of the 15 sets (heights_by_joints).
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BehindCameraError,
    JointTrackError,
    NonPositiveDtError,
    ObservationDimensionError,
    PredictionOverflowError,
    SigmaPointFailureError,
)
from .geometry import (
    JOINT_ORDER,
    JOINT_SETS,
    MIN_PROJECTION_DEPTH,
    CameraModel,
    GroundPlane,
    JointKind,
    _pinhole,
    joint_position,
    read_only,
)
from .prior import PriorModel

STATE_DIM = 4
GROUND_DIM = 2

DEFAULT_JOINT_PIXEL_SIGMA = {
    JointKind.NECK: 4.0,
    JointKind.HIP: 6.0,
    JointKind.KNEE: 8.0,
    JointKind.ANKLE: 10.0,
}

COVARIANCE_SYMMETRY_TOL = 1e-9
CHOLESKY_JITTER = 1e-9


@dataclass(frozen=True, eq=False)
class TrackState:
    """Gaussian ground-plane state: mean [x, y, vx, vy] and covariance."""

    s: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        s = np.array(self.s, dtype=float, order="C").reshape(STATE_DIM)
        P = np.array(self.P, dtype=float, order="C").reshape(STATE_DIM, STATE_DIM)
        if abs(P - P.T).max() > COVARIANCE_SYMMETRY_TOL:  # a NaN max passes
            raise ValueError("covariance must be symmetric")
        s.flags.writeable = False
        P.flags.writeable = False
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "P", P)

    @property
    def position(self) -> np.ndarray:
        return self.s[:GROUND_DIM]

    @property
    def velocity(self) -> np.ndarray:
        return self.s[GROUND_DIM:]


def track_states(means: np.ndarray, covs: np.ndarray) -> List[TrackState]:
    """TrackState(s=means[t], P=covs[t]) for every row t, built at once.

    means is (T, 4) and covs (T, 4, 4). Each stack is copied once, C-ordered
    float64, every covariance is checked in one pass by TrackState's rule,
    and both copies are made read-only and shared by the states; state t
    then holds views of row t, which cannot be made writeable again.

    Raises:
        ValueError: a stack has the wrong shape, or some covariance is not
            symmetric.
    """
    s = np.array(means, dtype=float, order="C")
    p = np.array(covs, dtype=float, order="C")
    if s.ndim != 2 or s.shape[1] != STATE_DIM or p.shape != (len(s), STATE_DIM, STATE_DIM):
        raise ValueError(f"expected (T, 4) means and (T, 4, 4) covs, got {s.shape} and {p.shape}")
    # p - p^T is antisymmetric, so its row max is TrackState's max of |P - P^T|.
    row_max = (p - p.transpose(0, 2, 1)).max(axis=(1, 2))
    if any(m > COVARIANCE_SYMMETRY_TOL for m in row_max.tolist()):  # a NaN row max passes
        raise ValueError("covariance must be symmetric")
    s.flags.writeable = False
    p.flags.writeable = False
    states = []
    for row_s, row_p in zip(s, p):
        state = object.__new__(TrackState)  # the rows are checked above
        state.__dict__.update(s=row_s, P=row_p)
        states.append(state)
    return states


@dataclass(frozen=True)
class UkfParams:
    """Sigma-point spread and noise configuration.

    alpha in (0, 1] and kappa control the sigma-point radius; beta folds in
    distribution knowledge (2 is optimal for Gaussians). process_accel_sigma
    is the white-noise acceleration density in m/s^2; joint_pixel_sigma maps
    each joint to its measurement noise in pixels.
    """

    alpha: float = 0.5
    beta: float = 2.0
    kappa: float = 0.0
    process_accel_sigma: float = 2.0
    joint_pixel_sigma: Mapping[JointKind, float] = field(
        default_factory=lambda: dict(DEFAULT_JOINT_PIXEL_SIGMA)
    )

    def __post_init__(self):
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        for name in ("beta", "kappa", "process_accel_sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if 2 * GROUND_DIM + self.kappa <= 0:
            raise ValueError(f"kappa must exceed -{2 * GROUND_DIM}")
        if self.process_accel_sigma <= 0:
            raise ValueError("process_accel_sigma must be positive")
        sigmas = {JointKind(k): float(v) for k, v in self.joint_pixel_sigma.items()}
        for kind in JOINT_ORDER:
            sigma = sigmas.get(kind, 0.0)
            if not math.isfinite(sigma):
                raise ValueError(f"pixel sigma for {kind.label} must be finite")
            if sigma <= 0:
                raise ValueError(f"pixel sigma for {kind.label} must be positive")
        object.__setattr__(self, "joint_pixel_sigma", sigmas)

    @property
    def lam(self) -> float:
        return self.alpha**2 * (STATE_DIM + self.kappa) - STATE_DIM

    @cached_property
    def weights(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sigma points' mean and covariance weights, read-only and shaped
        for the batched products: wm a (1, 9) row, wc a (9, 1) column."""
        lam = self.lam
        wm = np.full(2 * STATE_DIM + 1, 1.0 / (2.0 * (STATE_DIM + lam)))
        wc = wm.copy()
        wm[0] = lam / (STATE_DIM + lam)
        wc[0] = wm[0] + (1.0 - self.alpha**2 + self.beta)
        return read_only(wm[None, :]), read_only(wc[:, None])

    @cached_property
    def noise_by_joints(self) -> Dict[Tuple[JointKind, ...], np.ndarray]:
        """measurement_noise() of each of the 15 visible-joint sets, read-only,
        keyed by the set in measurement order."""
        return {kinds: read_only(measurement_noise(kinds, self)) for kinds in JOINT_SETS}


def transition_matrix(dt: float) -> np.ndarray:
    return np.array(
        [[1.0, 0.0, dt, 0.0], [0.0, 1.0, 0.0, dt], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
        dtype=float,
    )


def process_noise(dt: float, accel_sigma: float) -> np.ndarray:
    """Discrete white-noise-acceleration covariance for both ground axes."""
    q11 = dt**4 / 4.0
    q12 = dt**3 / 2.0
    q22 = dt**2
    q = np.array(
        [[q11, 0.0, q12, 0.0], [0.0, q11, 0.0, q12], [q12, 0.0, q22, 0.0], [0.0, q12, 0.0, q22]],
        dtype=float,
    )
    return accel_sigma**2 * q


def predict_batch(
    means: np.ndarray, covs: np.ndarray, dt: float, params: UkfParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Constant-velocity prediction of T tracks at once.

    means is (T, 4) and covs (T, 4, 4); each row propagates as
    s <- F s and P <- F P F^T + Q(dt), and the result does not depend on
    the other rows.

    Raises:
        NonPositiveDtError: dt is not positive (dt <= 0, or NaN).
        PredictionOverflowError: dt is infinite, or so long that the
            prediction overflows: numpy's overflow is raised as
            FloatingPointError, and process_noise's dt**4 on a Python
            float raises OverflowError.
    """
    if not dt > 0:  # a NaN dt fails too
        raise NonPositiveDtError(f"dt must be positive, got {dt}")
    if dt == math.inf:  # overflows nowhere, but F's inf * 0 gives NaN
        raise PredictionOverflowError("prediction over an infinite dt overflows")
    try:
        with np.errstate(over="raise"):
            f = transition_matrix(dt)
            s = (f @ np.asarray(means, dtype=float)[..., None])[..., 0]
            q = process_noise(dt, params.process_accel_sigma)
            p = f @ np.asarray(covs, dtype=float) @ f.T + q
            return s, 0.5 * (p + p.swapaxes(-1, -2))
    except (FloatingPointError, OverflowError) as exc:
        raise PredictionOverflowError(f"prediction over dt = {dt} s overflows") from exc


def predict(state: TrackState, dt: float, params: UkfParams) -> TrackState:
    """Constant-velocity prediction: s <- s + dt * [vx, vy, 0, 0].

    The covariance propagates as F P F^T + Q(dt).
    """
    s, p = predict_batch(state.s[None], state.P[None], dt, params)
    return TrackState(s=s[0], P=p[0])


def visible_in_order(visible: Iterable[JointKind]) -> List[JointKind]:
    """Canonical measurement ordering: neck, hip, knee, ankle."""
    present = set(visible)
    return [k for k in JOINT_ORDER if k in present]


def _project_joints(
    states: np.ndarray,
    heights: np.ndarray,
    camera: CameraModel,
    ground: GroundPlane,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pixels of every visible joint at every ground state of every track.

    states is (n, k, 4): k ground states for each of n tracks; heights is
    (n, m): each track's prior height of its m visible joints. Returns
    (behind, pixels): behind[i] marks a track with a state whose ground
    point or any joint is at or behind the camera; pixels is
    (n - behind.sum(), k, 2m) for the other tracks, joints in measurement
    order.
    """
    ankles = ground.to_camera(states[..., 0:1], states[..., 1:2])
    joints = joint_position(ankles[:, :, None, :], ground, heights[:, None, :])
    behind = (ankles[..., 2] <= 0).any(axis=1) | (joints[..., 2] <= MIN_PROJECTION_DEPTH).any(
        axis=(1, 2)
    )
    if behind.any():
        joints = joints[~behind]
    pixels = _pinhole(camera, joints)  # every joint left is deeper than the limit
    return behind, pixels.reshape(pixels.shape[0], states.shape[1], 2 * heights.shape[1])


def observe(
    state_mean: np.ndarray,
    camera: CameraModel,
    ground: GroundPlane,
    prior: PriorModel,
    visible: Sequence[JointKind],
) -> np.ndarray:
    """Predicted pixel measurement for the visible joints.

    The ground position (x, y) is lifted to the camera-frame ankle point;
    each visible joint is offset up the normal by its prior height and
    projected. Joints are stacked in canonical order.

    Raises:
        BehindCameraError: the predicted person is behind the camera.
    """
    kinds = visible_in_order(visible)
    if not kinds:
        raise ValueError("at least one visible joint is required")
    s = np.asarray(state_mean, dtype=float).reshape(1, 1, -1)
    behind, pixels = _project_joints(s, prior.heights[None, kinds], camera, ground)
    if behind[0]:
        raise BehindCameraError("predicted person is behind the camera")
    return pixels[0, 0]


def measurement_from_joints(
    joints: Mapping[JointKind, np.ndarray],
) -> Tuple[np.ndarray, List[JointKind]]:
    """Stack observed joint pixels into a measurement vector.

    Returns (z, visible) with joints in canonical order, ready for update().
    """
    kinds = visible_in_order(joints.keys())
    if not kinds:
        return np.empty(0), []
    z = np.concatenate([np.asarray(joints[k], dtype=float).reshape(2) for k in kinds])
    return z, kinds


def _cholesky_root(scaled: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one matrix, retried once with jitter."""
    try:
        return np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        try:
            return np.linalg.cholesky(scaled + CHOLESKY_JITTER * np.eye(STATE_DIM))
        except np.linalg.LinAlgError as exc:
            raise SigmaPointFailureError("covariance square root failed") from exc


def _sigma_points(
    means: np.ndarray, covs: np.ndarray, params: UkfParams
) -> Tuple[np.ndarray, List[Optional[JointTrackError]]]:
    """The 2n+1 sigma points of each of T states: (T, 9, 4), plus the
    failure of each track whose covariance has no square root."""
    scaled = (STATE_DIM + params.lam) * covs
    errors: List[Optional[JointTrackError]] = [None] * len(scaled)
    try:
        roots = np.linalg.cholesky(scaled)
    except np.linalg.LinAlgError:
        # One stacked factorization fails as a whole; redo it per track so
        # that only the tracks that need jitter get it.
        roots = np.zeros_like(scaled)
        for t, matrix in enumerate(scaled):
            try:
                roots[t] = _cholesky_root(matrix)
            except SigmaPointFailureError as exc:
                errors[t] = exc
    offsets = roots.transpose(0, 2, 1)  # row i is the factor's column i
    centers = means[:, None, :]
    return np.concatenate((centers, centers + offsets, centers - offsets), axis=1), errors


def measurement_noise(visible: Sequence[JointKind], params: UkfParams) -> np.ndarray:
    """Block-diagonal R with isotropic per-joint pixel variance."""
    kinds = visible_in_order(visible)
    variances = np.repeat([params.joint_pixel_sigma[k] ** 2 for k in kinds], 2)
    return np.diag(variances)


def update_batch(
    means: np.ndarray,
    covs: np.ndarray,
    measurements: Sequence[Optional[Tuple[np.ndarray, Sequence[JointKind]]]],
    camera: CameraModel,
    ground: GroundPlane,
    priors: Sequence[PriorModel],
    params: UkfParams,
) -> Tuple[np.ndarray, np.ndarray, List[Optional[JointTrackError]]]:
    """Unscented measurement update of T tracks at once.

    Track t has mean means[t] (T, 4), covariance covs[t] (T, 4, 4), the
    prior priors[t] and measurements[t]: its pixel measurement (z, visible),
    or None if it has none; measurements come one per track, in row order.
    One stacked Cholesky draws every track's sigma points. The measured
    tracks are grouped by visible-joint set, and each group projects all of
    its sigma points in one call and solves for all of its gains at once.

    Returns (means, covs, errors), the stacks new arrays. errors[t] is None
    when track t was updated, and its rows then hold the posterior, bit for
    bit the one update() returns for that track alone; it is None too when
    measurements[t] is None, and its rows then hold the inputs unchanged.
    Otherwise errors[t] is the exception update() would raise for it
    (SigmaPointFailureError or BehindCameraError), and its rows hold the
    inputs unchanged. A group that holds every track, in order, is neither
    gathered nor written back: its posterior stacks are returned as they are.

    Raises:
        ObservationDimensionError: some len(z) != 2 * len(visible).
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    groups: Dict[Tuple[JointKind, ...], List[int]] = {}
    zs = []
    noise = params.noise_by_joints
    for t, measurement in enumerate(measurements):
        if measurement is None:  # returned as given
            zs.append(None)
            continue
        z, visible = measurement
        kinds = tuple(visible)
        if kinds not in noise:  # not a set of kinds in measurement order
            kinds = tuple(visible_in_order(kinds))
        z = np.asarray(z, dtype=float).ravel()
        if z.size != 2 * len(kinds) or not kinds:
            raise ObservationDimensionError(
                f"got {z.size} measurement values for {len(kinds)} visible joints"
            )
        zs.append(z)
        groups.setdefault(kinds, []).append(t)

    if not groups:
        return means.copy(), covs.copy(), [None] * len(means)
    points, errors = _sigma_points(means, covs, params)
    if any(errors):  # a None row fails nothing
        errors = [None if z is None else error for z, error in zip(zs, errors)]
    wm, wc = params.weights
    out_s = out_p = None  # the input stacks, copied on the first write-back
    for kinds, members in groups.items():
        live = [t for t in members if errors[t] is None]
        if not live:
            continue
        whole = len(live) == len(means)
        # A group of every row, in order, is neither gathered nor scattered.
        sigma = points if whole else points[live]
        heights = np.array([priors[t].heights_by_joints[kinds] for t in live])
        behind, z_sigma = _project_joints(sigma, heights, camera, ground)
        if len(z_sigma) < len(live):  # some track is behind the camera
            rows = np.array(live)
            for t in rows[behind].tolist():
                errors[t] = BehindCameraError("a sigma point left the camera's front halfspace")
            live, sigma, whole = rows[~behind].tolist(), sigma[~behind], False
            if not live:
                continue
        s, p = sigma[:, 0], covs if whole else covs[live]
        dz = z_sigma - wm @ z_sigma
        ds = sigma - sigma[:, :1]
        innovation_cov = (wc * dz).transpose(0, 2, 1) @ dz + noise[kinds]
        cross_cov = (wc * ds).transpose(0, 2, 1) @ dz

        # The innovation is centered on the mean's own projection (sigma
        # point 0), so a measurement generated exactly at the mean leaves
        # it fixed; the unscented spread still shapes the gain and
        # covariances.
        gain = np.linalg.solve(
            innovation_cov.transpose(0, 2, 1), cross_cov.transpose(0, 2, 1)
        ).transpose(0, 2, 1)
        innovation = np.array([zs[t] for t in live]) - z_sigma[:, 0]
        s_new = s + (gain @ innovation[..., None])[..., 0]
        p_new = p - gain @ innovation_cov @ gain.transpose(0, 2, 1)
        p_new = 0.5 * (p_new + p_new.transpose(0, 2, 1))
        if whole:  # the only group
            return s_new, p_new, errors
        if out_s is None:
            out_s, out_p = means.copy(), covs.copy()
        out_s[live], out_p[live] = s_new, p_new
    return (means.copy(), covs.copy(), errors) if out_s is None else (out_s, out_p, errors)


def update(
    state: TrackState,
    z: np.ndarray,
    visible: Sequence[JointKind],
    camera: CameraModel,
    ground: GroundPlane,
    prior: PriorModel,
    params: UkfParams,
) -> TrackState:
    """Unscented measurement update with the visible-joint pixel vector.

    Sigma points drawn from (s, P) are projected through the measurement
    model; the posterior follows the standard unscented update with the
    re-symmetrized covariance. This is update_batch() for one track.

    Raises:
        ObservationDimensionError: len(z) != 2 * len(visible).
        SigmaPointFailureError: covariance square root failed after jitter.
        BehindCameraError: a sigma point left the camera's front halfspace.
    """
    s, p, errors = update_batch(
        state.s[None], state.P[None], [(z, visible)], camera, ground, [prior], params
    )
    if errors[0] is not None:
        raise errors[0]
    return TrackState(s=s[0], P=p[0])

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
every track together, and update_batch draws every matched track's sigma
points with one stacked Cholesky, then groups the tracks by visible-joint
set; each group projects all of its sigma points through
geometry.project_points in one call and solves for all of its gains with
one batched solve. A track whose sigma points cross behind the camera, or
whose covariance has no square root even with jitter, fails alone; every
other track gets the same posterior as it would alone. predict, update and
observe are the one-track calls of the same code.
"""

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    BehindCameraError,
    JointTrackError,
    NonPositiveDtError,
    ObservationDimensionError,
    SigmaPointFailureError,
)
from .geometry import (
    JOINT_ORDER,
    MIN_PROJECTION_DEPTH,
    CameraModel,
    GroundPlane,
    JointKind,
    project_points,
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
        s = np.asarray(self.s, dtype=float).reshape(STATE_DIM).copy()
        P = np.asarray(self.P, dtype=float).reshape(STATE_DIM, STATE_DIM).copy()
        if np.max(np.abs(P - P.T)) > COVARIANCE_SYMMETRY_TOL:
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
        if 2 * GROUND_DIM + self.kappa <= 0:
            raise ValueError(f"kappa must exceed -{2 * GROUND_DIM}")
        if self.process_accel_sigma <= 0:
            raise ValueError("process_accel_sigma must be positive")
        sigmas = {JointKind(k): float(v) for k, v in self.joint_pixel_sigma.items()}
        for kind in JOINT_ORDER:
            if sigmas.get(kind, 0.0) <= 0:
                raise ValueError(f"pixel sigma for {kind.label} must be positive")
        object.__setattr__(self, "joint_pixel_sigma", sigmas)

    @property
    def lam(self) -> float:
        return self.alpha**2 * (STATE_DIM + self.kappa) - STATE_DIM


def transition_matrix(dt: float) -> np.ndarray:
    f = np.eye(STATE_DIM)
    f[0, 2] = dt
    f[1, 3] = dt
    return f


def process_noise(dt: float, accel_sigma: float) -> np.ndarray:
    """Discrete white-noise-acceleration covariance for both ground axes."""
    q11 = dt**4 / 4.0
    q12 = dt**3 / 2.0
    q22 = dt**2
    q = np.zeros((STATE_DIM, STATE_DIM))
    for axis in range(GROUND_DIM):
        q[axis, axis] = q11
        q[axis, axis + 2] = q12
        q[axis + 2, axis] = q12
        q[axis + 2, axis + 2] = q22
    return accel_sigma**2 * q


def predict_batch(
    means: np.ndarray, covs: np.ndarray, dt: float, params: UkfParams
) -> Tuple[np.ndarray, np.ndarray]:
    """Constant-velocity prediction of T tracks at once.

    means is (T, 4) and covs (T, 4, 4); each row propagates as
    s <- F s and P <- F P F^T + Q(dt), and the result does not depend on
    the other rows.
    """
    if dt <= 0:
        raise NonPositiveDtError(f"dt must be positive, got {dt}")
    f = transition_matrix(dt)
    s = (f @ np.asarray(means, dtype=float)[..., None])[..., 0]
    p = f @ np.asarray(covs, dtype=float) @ f.T + process_noise(dt, params.process_accel_sigma)
    return s, 0.5 * (p + np.swapaxes(p, -1, -2))


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
    joints = ankles[:, :, None, :] + heights[:, None, :, None] * ground.normal
    behind = np.any(ankles[..., 2] <= 0, axis=1) | np.any(
        joints[..., 2] <= MIN_PROJECTION_DEPTH, axis=(1, 2)
    )
    pixels = project_points(camera, joints[~behind])
    return behind, pixels.reshape(pixels.shape[0], states.shape[1], 2 * heights.shape[1])


def _heights(prior: PriorModel, kinds: Sequence[JointKind]) -> List[float]:
    return [prior.height_of(k) for k in kinds]


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
    behind, pixels = _project_joints(s, np.array([_heights(prior, kinds)]), camera, ground)
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
    offsets = np.swapaxes(roots, 1, 2)  # row i is the factor's column i
    points = np.empty((len(means), 2 * STATE_DIM + 1, STATE_DIM))
    points[:, 0] = means
    points[:, 1 : 1 + STATE_DIM] = means[:, None, :] + offsets
    points[:, 1 + STATE_DIM :] = means[:, None, :] - offsets
    return points, errors


def _weights(params: UkfParams) -> Tuple[np.ndarray, np.ndarray]:
    lam = params.lam
    wm = np.full(2 * STATE_DIM + 1, 1.0 / (2.0 * (STATE_DIM + lam)))
    wc = wm.copy()
    wm[0] = lam / (STATE_DIM + lam)
    wc[0] = wm[0] + (1.0 - params.alpha**2 + params.beta)
    return wm, wc


def measurement_noise(visible: Sequence[JointKind], params: UkfParams) -> np.ndarray:
    """Block-diagonal R with isotropic per-joint pixel variance."""
    kinds = visible_in_order(visible)
    variances = np.repeat([params.joint_pixel_sigma[k] ** 2 for k in kinds], 2)
    return np.diag(variances)


def update_batch(
    means: np.ndarray,
    covs: np.ndarray,
    measurements: Sequence[Tuple[np.ndarray, Sequence[JointKind]]],
    camera: CameraModel,
    ground: GroundPlane,
    priors: Sequence[PriorModel],
    params: UkfParams,
) -> Tuple[np.ndarray, np.ndarray, List[Optional[JointTrackError]]]:
    """Unscented measurement update of T tracks at once.

    Track t has mean means[t] (T, 4), covariance covs[t] (T, 4, 4), the
    pixel measurement measurements[t] = (z, visible) and the prior
    priors[t]. One stacked Cholesky draws every track's sigma points. Tracks
    are then grouped by visible-joint set, and each group projects all of
    its sigma points in one call and solves for all of its gains at once.

    Returns (means, covs, errors). errors[t] is None when track t was
    updated, and its rows then hold the posterior, bit for bit the one
    update() returns for that track alone. Otherwise errors[t] is the
    exception update() would raise for it (SigmaPointFailureError or
    BehindCameraError) and its rows hold the inputs unchanged.

    Raises:
        ObservationDimensionError: some len(z) != 2 * len(visible).
    """
    means = np.asarray(means, dtype=float)
    covs = np.asarray(covs, dtype=float)
    groups: Dict[Tuple[JointKind, ...], List[int]] = {}
    zs = []
    for t, (z, visible) in enumerate(measurements):
        kinds = tuple(visible_in_order(visible))
        z = np.asarray(z, dtype=float).ravel()
        if z.size != 2 * len(kinds) or not kinds:
            raise ObservationDimensionError(
                f"got {z.size} measurement values for {len(kinds)} visible joints"
            )
        zs.append(z)
        groups.setdefault(kinds, []).append(t)

    points, errors = _sigma_points(means, covs, params)
    wm, wc = _weights(params)
    out_s, out_p = means.copy(), covs.copy()
    for kinds, members in groups.items():
        rows = np.array([t for t in members if errors[t] is None], dtype=int)
        if rows.size == 0:
            continue
        heights = np.array([_heights(priors[t], kinds) for t in rows])
        behind, z_sigma = _project_joints(points[rows], heights, camera, ground)
        for t in rows[behind]:
            errors[t] = BehindCameraError("a sigma point left the camera's front halfspace")
        rows = rows[~behind]
        if rows.size == 0:
            continue
        s, p = means[rows], covs[rows]
        z_spread_mean = wm @ z_sigma
        dz = z_sigma - z_spread_mean[:, None, :]
        ds = points[rows] - s[:, None, :]
        innovation_cov = np.swapaxes(wc[:, None] * dz, 1, 2) @ dz + measurement_noise(kinds, params)
        cross_cov = np.swapaxes(wc[:, None] * ds, 1, 2) @ dz

        # The innovation is centered on the mean's own projection (sigma
        # point 0), so a measurement generated exactly at the mean leaves
        # it fixed; the unscented spread still shapes the gain and
        # covariances.
        gain = np.swapaxes(
            np.linalg.solve(np.swapaxes(innovation_cov, 1, 2), np.swapaxes(cross_cov, 1, 2)), 1, 2
        )
        innovation = np.stack([zs[t] for t in rows]) - z_sigma[:, 0]
        s_new = s + (gain @ innovation[..., None])[..., 0]
        p_new = p - gain @ innovation_cov @ np.swapaxes(gain, 1, 2)
        out_s[rows] = s_new
        out_p[rows] = 0.5 * (p_new + np.swapaxes(p_new, 1, 2))
    return out_s, out_p, errors


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

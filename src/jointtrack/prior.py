"""Joint-height prior model: construction from a full-body view and
single-joint (re)initialization.

The prior stores the heights of the neck, hip and knee above the ankle
(the ankle is on the ground at height 0) plus the person's body width.
Given one full-body observation, the heights and the person's ground
position are fitted jointly by minimizing the reprojection error of all
four joints; afterwards any single visible joint suffices to localize the
person by ray casting.

The fit parametrizes the position by 2 ground-chart coordinates so the
ground-plane constraint holds exactly, leaving 5 unknowns
(gx, gy, h_neck, h_hip, h_knee) against 8 pixel residuals. A damped
Gauss-Newton (Levenberg-Marquardt) iteration with analytic Jacobians
solves it; central finite differences serve as the Jacobian oracle in the
test suite.
"""

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .errors import (
    AnatomicalOrderError,
    BehindCameraError,
    DegenerateRayError,
    JointAtCameraHeightError,
    MissingJointError,
    NonPositiveDepthError,
    NoUsableJointError,
    SolverDivergedError,
)
from .geometry import (
    JOINT_ORDER,
    JOINT_SETS,
    CameraModel,
    GroundPlane,
    JointKind,
    joint_position,
    localize_from_joint,
    project_points,
    read_only,
)

DEFAULT_HEIGHTS = (1.40, 0.95, 0.50)  # average adult neck/hip/knee, meters
DEFAULT_BODY_WIDTH = 0.5

LM_INITIAL_DAMPING = 1e-3
LM_DAMPING_FACTOR = 10.0
LM_MAX_DAMPING = 1e12
LM_MAX_ITERATIONS = 100
LM_STEP_TOL = 1e-10
LM_COST_TOL = 1e-12

#: What construct_prior raises for an observation it cannot fit: the
#: solver's failures and those of the initial ankle ray cast.
FIT_ERRORS = (
    SolverDivergedError,
    AnatomicalOrderError,
    DegenerateRayError,
    BehindCameraError,
    JointAtCameraHeightError,
)


@dataclass(frozen=True)
class PriorModel:
    """Per-person joint heights above the ankle plus body width (meters)."""

    h_neck: float = DEFAULT_HEIGHTS[0]
    h_hip: float = DEFAULT_HEIGHTS[1]
    h_knee: float = DEFAULT_HEIGHTS[2]
    body_width: float = DEFAULT_BODY_WIDTH

    def __post_init__(self):
        for name in ("h_neck", "h_hip", "h_knee", "body_width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0 < self.h_knee < self.h_hip < self.h_neck:
            raise AnatomicalOrderError(
                f"heights must satisfy 0 < knee < hip < neck, got "
                f"({self.h_neck}, {self.h_hip}, {self.h_knee})"
            )
        if self.body_width <= 0:
            raise ValueError("body width must be positive")

    @cached_property
    def heights(self) -> np.ndarray:
        """The four joint heights (ankle 0.0) as one read-only array in
        JOINT_ORDER, so a JointKind's value is its column."""
        return read_only(np.array([self.h_neck, self.h_hip, self.h_knee, 0.0], dtype=float))

    @cached_property
    def heights_by_joints(self) -> Dict[Tuple[JointKind, ...], np.ndarray]:
        """heights[list(kinds)], read-only, keyed by each of the 15 JOINT_SETS."""
        return {kinds: read_only(self.heights[list(kinds)]) for kinds in JOINT_SETS}

    def height_of(self, kind: JointKind) -> float:
        if kind is JointKind.NECK:
            return self.h_neck
        if kind is JointKind.HIP:
            return self.h_hip
        if kind is JointKind.KNEE:
            return self.h_knee
        return 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "h_neck": self.h_neck,
            "h_hip": self.h_hip,
            "h_knee": self.h_knee,
            "body_width": self.body_width,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "PriorModel":
        unknown = sorted(data.keys() - _PRIOR_KEYS)
        if unknown:  # a misspelled key would otherwise leave its default
            raise ValueError(f"unknown prior key(s): {', '.join(unknown)}")
        return cls(
            h_neck=float(data["h_neck"]),
            h_hip=float(data["h_hip"]),
            h_knee=float(data["h_knee"]),
            body_width=float(data.get("body_width", DEFAULT_BODY_WIDTH)),
        )


_PRIOR_KEYS = frozenset(PriorModel().to_dict())


@dataclass(frozen=True)
class FullBodyObservation:
    """Pixel positions of all four joints in one frame.

    Pixels are expected to lie within the image; small detector overshoot
    at the borders is tolerated.
    """

    joints: Mapping[JointKind, np.ndarray]

    def __post_init__(self):
        missing = [k.label for k in JOINT_ORDER if k not in self.joints]
        if missing:
            raise MissingJointError(f"full-body observation lacks: {', '.join(missing)}")
        frozen = {k: np.asarray(p, dtype=float).reshape(2) for k, p in self.joints.items()}
        object.__setattr__(self, "joints", frozen)


def _joints_and_residuals(
    params: np.ndarray, camera: CameraModel, ground: GroundPlane, observed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The (4, 3) joints the 5 parameters place, and their pixel residuals."""
    gx, gy, h_neck, h_hip, h_knee = params
    joints = joint_position(ground.to_camera(gx, gy), ground, [h_neck, h_hip, h_knee, 0.0])
    return joints, (observed - project_points(camera, joints)).ravel()


def _residuals(
    params: np.ndarray,
    camera: CameraModel,
    ground: GroundPlane,
    observed: np.ndarray,
) -> np.ndarray:
    """Stacked pixel residuals (neck, hip, knee, ankle) for the 5-parameter fit."""
    return _joints_and_residuals(params, camera, ground, observed)[1]


def _residuals_and_jacobian(
    params: np.ndarray,
    camera: CameraModel,
    ground: GroundPlane,
    observed: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    joints, residuals = _joints_and_residuals(params, camera, ground, observed)
    _, e1, e2 = ground._basis
    jac = np.zeros((8, 5))
    for i in range(4):
        x, y, z = joints[i]
        # d(pixel)/d(point) for the pinhole model.
        dg = np.array(
            [
                [camera.fx / z, 0.0, -camera.fx * x / z**2],
                [0.0, camera.fy / z, -camera.fy * y / z**2],
            ]
        )
        jac[2 * i : 2 * i + 2, 0] = -dg @ e1
        jac[2 * i : 2 * i + 2, 1] = -dg @ e2
        if i < 3:  # ankle height is pinned to zero
            jac[2 * i : 2 * i + 2, 2 + i] = -dg @ ground.normal
    return residuals, jac


def construct_prior(
    camera: CameraModel,
    ground: GroundPlane,
    obs: FullBodyObservation,
    init: Optional[PriorModel] = None,
) -> Tuple[np.ndarray, PriorModel, float]:
    """Fit joint heights and ground position from one full-body observation.

    Minimizes the total squared reprojection error of the four joints over
    (gx, gy, h_neck, h_hip, h_knee) with Levenberg-Marquardt damping
    (lambda starts at 1e-3, x10 on a rejected step, /10 on an accepted one).

    Args:
        obs: all four joint pixels.
        init: starting prior; defaults to average adult proportions. Body
            width is carried through unchanged, never fitted.

    Returns:
        (ankle point in the camera frame, fitted PriorModel, residual RMS
        in pixels).

    Raises:
        SolverDivergedError: no convergence within the iteration budget.
        AnatomicalOrderError: converged heights are not ordered.
        DegenerateRayError: some joint pixel is not finite (checked before
            any step), or the ankle pixel's ray cast, which seeds the fit,
            is degenerate.
        BehindCameraError, JointAtCameraHeightError: that ray cast fails.
    """
    if init is None:
        init = PriorModel()
    observed = np.stack([obs.joints[k] for k in JOINT_ORDER])
    for kind, finite in zip(JOINT_ORDER, np.isfinite(observed).all(axis=1).tolist()):
        if not finite:
            raise DegenerateRayError(f"{kind.label} pixel is not finite")

    ankle0 = localize_from_joint(camera, ground, obs.joints[JointKind.ANKLE], 0.0)
    gx0, gy0 = ground.to_ground(ankle0)
    params = np.array([gx0, gy0, init.h_neck, init.h_hip, init.h_knee])

    def cost_of(p):
        try:
            r = _residuals(p, camera, ground, observed)
        except NonPositiveDepthError:
            return None, np.inf
        return r, float(r @ r)

    residuals, cost = cost_of(params)
    if residuals is None:
        raise SolverDivergedError("initial guess projects behind the camera")

    lam = LM_INITIAL_DAMPING
    converged = False
    for _ in range(LM_MAX_ITERATIONS):
        residuals, jac = _residuals_and_jacobian(params, camera, ground, observed)
        gram = jac.T @ jac
        grad = jac.T @ residuals
        while True:
            try:
                step = np.linalg.solve(gram + lam * np.eye(5), -grad)
            except np.linalg.LinAlgError:
                step = None
            if step is not None:
                trial = params + step
                _, trial_cost = cost_of(trial)
                if np.linalg.norm(step) < LM_STEP_TOL:
                    # At (or numerically at) a stationary point; keep the
                    # trial only if it actually helps.
                    if trial_cost < cost:
                        params, cost = trial, trial_cost
                    converged = True
                    break
                if trial_cost < cost:
                    improvement = cost - trial_cost
                    params, cost = trial, trial_cost
                    lam = max(lam / LM_DAMPING_FACTOR, 1e-12)
                    if improvement < LM_COST_TOL:
                        converged = True
                    break
            lam *= LM_DAMPING_FACTOR
            if lam > LM_MAX_DAMPING:
                raise SolverDivergedError(
                    f"damping exceeded {LM_MAX_DAMPING:g} without improvement"
                )
        if converged:
            break
    if not converged:
        raise SolverDivergedError(f"no convergence in {LM_MAX_ITERATIONS} iterations")

    gx, gy, h_neck, h_hip, h_knee = params
    if not 0 < h_knee < h_hip < h_neck:
        raise AnatomicalOrderError(
            f"fitted heights ({h_neck:.3f}, {h_hip:.3f}, {h_knee:.3f}) are not ordered"
        )
    fitted = replace(init, h_neck=float(h_neck), h_hip=float(h_hip), h_knee=float(h_knee))
    residual_rms = float(np.sqrt(cost / observed.size))
    return ground.to_camera(gx, gy), fitted, residual_rms


def init_from_best_joint(
    camera: CameraModel,
    ground: GroundPlane,
    prior: PriorModel,
    joints: Mapping[JointKind, np.ndarray],
) -> Tuple[np.ndarray, JointKind]:
    """Localize from the most reliable visible joint, with fallback.

    Joints are tried in the order neck, hip, knee, ankle; a joint whose
    ray cast is degenerate (parallel ray, height at camera level, behind
    the camera) is skipped in favor of the next one.

    Returns:
        (camera-frame ankle point, the joint that produced it).

    Raises:
        NoUsableJointError: every visible joint was degenerate.
        ValueError: joints is empty.
    """
    if not joints:
        raise ValueError("at least one visible joint is required")
    for kind in JOINT_ORDER:
        if kind not in joints:
            continue
        try:
            ankle = localize_from_joint(
                camera, ground, joints[kind], prior.height_of(kind)
            )
        except (DegenerateRayError, JointAtCameraHeightError, BehindCameraError):
            continue
        return ankle, kind
    raise NoUsableJointError("no visible joint admits a ray-cast solution")

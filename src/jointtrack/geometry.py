"""Pinhole projection, ground-plane geometry and single-joint ray casting.

COORDINATE CONVENTIONS
======================
Camera frame (right-handed, standard computer vision):
  - Origin: optical center
  - X-axis: right (in image)
  - Y-axis: down (in image)
  - Z-axis: forward, along the optical axis

Image frame:
  - u: right (pixels), v: down (pixels), origin at top-left

Ground plane:
  - Known unit normal N in camera coordinates, pointing from the ground
    toward the sky, at distance gamma > 0 from the optical center.
  - Every ground point X satisfies  N . X + gamma = 0.
  - For a level camera (y down), N = (0, -1, 0).

Ground coordinates:
  - 2D chart (gx, gy) on the plane built from an orthonormal basis
    (e1, e2) with e1 x e2 = N and origin at the foot of the perpendicular
    from the optical center. For a level or pitched-down camera e1 points
    right and e2 points away from the camera along the ground.

Robot frame:
  - X forward, Y left, Z up. The camera is mounted with a known positional
    offset and pitched down by a known tilt angle about the camera X-axis;
    there is no relative yaw or roll.

A person standing at ankle point X with a joint at height h above the
ground has that joint at X + h * N (joint_position), and the joint's
pixel is its pinhole projection (project_points). This measurement model
is written only there; the UKF, the prior fit, the expected and coast
boxes and the simulator call them. project_points is a depth check plus
an unchecked core, _pinhole: fx * x / z + cx and fy * y / z + cy in three
numpy calls over coordinate-first views, whose inner loops run over the
points, not a point's two coordinates. ukf._project_joints and
association.expected_boxes call the core after their own depth masks,
which leave nothing for project_points' check. Conversely, a joint pixel
p with known height h fixes the person's position: the back-projected ray
r = K^-1 [p;1] is scaled to the plane of height h and the ankle recovered
by stepping back down the normal:

    r   = K^-1 [u, v, 1]^T
    X_j = (|gamma - h| / |N . r|) * r
    X   = X_j - h * N
"""

import math
from dataclasses import dataclass, field
from enum import IntEnum
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateRayError,
    InvalidTiltError,
    JointAtCameraHeightError,
    NonPositiveDepthError,
)

# Degeneracy thresholds for the ray-cast. Rays closer than RAY_EPS to the
# joint's height plane give unbounded range; heights within HEIGHT_EPS of
# the camera height make the scale factor vanish.
RAY_EPS = 1e-6
HEIGHT_EPS = 1e-3

MIN_PROJECTION_DEPTH = 1e-9

PLANE_TOL = 1e-6
UNIT_NORM_TOL = 1e-9


class JointKind(IntEnum):
    """Body joints used for localization, ordered by initialization priority.

    The upper body is detected more reliably than the lower body, so the
    neck is preferred, then hip, knee and ankle.
    """

    NECK = 0
    HIP = 1
    KNEE = 2
    ANKLE = 3

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "JointKind":
        return cls[label.upper()]


#: Joints in measurement-vector / fallback order.
JOINT_ORDER = (JointKind.NECK, JointKind.HIP, JointKind.KNEE, JointKind.ANKLE)
#: The 15 visible-joint sets, each a tuple in JOINT_ORDER.
JOINT_SETS = tuple(tuple(k for k in JOINT_ORDER if mask & (1 << k)) for mask in range(1, 16))


def read_only(array: np.ndarray) -> np.ndarray:
    """array, made read-only in place: for arrays computed once and shared."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus image size.

    fx, fy are focal lengths in pixels, (cx, cy) the principal point.
    """

    fx: float
    fy: float
    cx: float
    cy: float
    image_width: int
    image_height: int

    def __post_init__(self):
        for name in ("fx", "fy"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if not (0 <= self.cx < self.image_width):
            raise ValueError("cx must lie within the image")
        if not (0 <= self.cy < self.image_height):
            raise ValueError("cy must lie within the image")

    @cached_property
    def focal(self) -> np.ndarray:
        """(fx, fy) as one read-only (2, 1) column."""
        return read_only(np.array([[self.fx], [self.fy]], dtype=float))

    @cached_property
    def center(self) -> np.ndarray:
        """(cx, cy) as one read-only (2, 1) column."""
        return read_only(np.array([[self.cx], [self.cy]], dtype=float))

    def intrinsic_matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix K."""
        return np.array(
            [[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]]
        )


@dataclass(frozen=True, eq=False)
class GroundPlane:
    """Ground plane N . X + gamma = 0 in camera coordinates.

    normal must be unit length and point from the ground toward the sky;
    gamma is the (positive) distance from the optical center to the plane.
    """

    normal: np.ndarray
    gamma: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float).reshape(3).copy()
        if not abs(np.linalg.norm(n) - 1.0) <= UNIT_NORM_TOL:
            raise ValueError("ground normal must be finite and unit length")
        if not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")
        n.flags.writeable = False
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "gamma", float(self.gamma))

    @cached_property
    def _basis(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = self.normal
        seed = np.array([1.0, 0.0, 0.0])
        if abs(n[0]) > 0.9:
            seed = np.array([0.0, 0.0, 1.0])
        e1 = seed - (seed @ n) * n
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n, e1)
        origin = -self.gamma * n
        return origin, e1, e2

    def to_camera(self, gx: float, gy: float) -> np.ndarray:
        """Camera-frame point of ground chart coordinates (gx, gy)."""
        origin, e1, e2 = self._basis
        return origin + gx * e1 + gy * e2

    def to_ground(self, point: np.ndarray) -> np.ndarray:
        """Ground chart coordinates of a camera-frame point on the plane."""
        origin, e1, e2 = self._basis
        d = np.asarray(point, dtype=float) - origin
        return np.array([d @ e1, d @ e2])

    def height_of(self, point: np.ndarray) -> float:
        """Signed height of a camera-frame point above the plane."""
        return float(self.normal @ np.asarray(point, dtype=float) + self.gamma)


@dataclass(frozen=True, eq=False)
class RobotExtrinsics:
    """Camera mounting: position offset in the robot frame plus pitch tilt."""

    offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    tilt: float = 0.0

    def __post_init__(self):
        off = np.asarray(self.offset, dtype=float).reshape(3).copy()
        if not np.isfinite(off).all():
            raise ValueError("robot offset must be finite")
        if not math.isfinite(self.tilt):
            raise InvalidTiltError(f"tilt {self.tilt} is not finite")
        off.flags.writeable = False
        object.__setattr__(self, "offset", off)
        object.__setattr__(self, "tilt", float(self.tilt))


def project(camera: CameraModel, point) -> np.ndarray:
    """Pixel coordinates of one camera-frame 3D point: project_points() for one point."""
    return project_points(camera, point)


def project_points(camera: CameraModel, points) -> np.ndarray:
    """Row-wise pinhole projection of camera-frame points.

    points has shape (..., 3); the result has shape (..., 2). This is the
    depth check plus _pinhole, the only place the pinhole model
    (fx*x/z + cx, fy*y/z + cy) is written; project() is its one-point call.
    Raises NonPositiveDepthError when any point is at or behind the camera.
    """
    p = np.asarray(points, dtype=float)
    if (p[..., 2] <= MIN_PROJECTION_DEPTH).any():
        raise NonPositiveDepthError("a point is at or behind the camera")
    return _pinhole(camera, p)


def _pinhole(camera: CameraModel, p: np.ndarray) -> np.ndarray:
    """project_points of float64 points p (..., 3), none at or behind the
    camera, without the depth check: a new C-ordered (..., 2) array."""
    out = np.empty(p.shape[:-1] + (2,))
    # Coordinate-first views, iterated in C order: inner loops run over points.
    xyz, uv = p.reshape(-1, 3).T, out.reshape(-1, 2).T
    np.multiply(camera.focal, xyz[:2], out=uv, order="C")
    np.divide(uv, xyz[2], out=uv, order="C")
    np.add(uv, camera.center, out=uv, order="C")
    return out


def ray_from_pixel(camera: CameraModel, pixel) -> np.ndarray:
    """Back-project a pixel to the camera-frame ray K^-1 [u, v, 1]^T.

    The returned direction is left unnormalized with z exactly 1.
    """
    u, v = float(pixel[0]), float(pixel[1])
    return np.array([(u - camera.cx) / camera.fx, (v - camera.cy) / camera.fy, 1.0])


def localize_from_joint(
    camera: CameraModel, ground: GroundPlane, pixel, joint_height: float
) -> np.ndarray:
    """Recover a person's ankle position from one joint pixel of known height.

    Intersects the back-projected ray with the horizontal plane at height
    joint_height above the ground, then steps back down the normal:

        X_j = (|gamma - h| / |N . r|) * r,   X = X_j - h * N

    Args:
        pixel: (u, v) of the observed joint.
        joint_height: height h of the joint above the ground plane, meters
            (0 for the ankle).

    Returns:
        Camera-frame ankle point X, which lies on the ground plane.

    Raises:
        DegenerateRayError: the pixel is not finite, or the ray is parallel
            to the joint's height plane.
        JointAtCameraHeightError: |gamma - h| is too small to fix scale.
        BehindCameraError: the geometric solution lies behind the camera.
    """
    h = float(joint_height)
    if abs(ground.gamma - h) <= HEIGHT_EPS:
        raise JointAtCameraHeightError(
            f"joint height {h} is within {HEIGHT_EPS} of camera height {ground.gamma}"
        )
    r = ray_from_pixel(camera, pixel)
    if not (math.isfinite(r[0]) and math.isfinite(r[1])):
        raise DegenerateRayError("joint pixel is not finite")
    denom = float(ground.normal @ r)
    if abs(denom) <= RAY_EPS:
        raise DegenerateRayError("ray is parallel to the joint height plane")
    # Signed intersection with the height-h plane (N . X + gamma = h). A
    # negative scale means the ray only meets the plane behind the camera;
    # taking magnitudes there would fabricate a mirrored frontal point.
    scale = (h - ground.gamma) / denom
    if scale <= 0:
        raise BehindCameraError("ray meets the joint height plane behind the camera")
    ankle = scale * r - h * ground.normal
    if ankle[2] <= 0:
        raise BehindCameraError("ray-cast solution lies behind the camera")
    return ankle


def ground_plane_from_tilt(height: float, tilt: float) -> GroundPlane:
    """Ground plane for a camera at a given height, pitched down by tilt.

    With the y-down camera frame a level camera has N = (0, -1, 0);
    pitching down by theta rotates the normal to (0, -cos t, -sin t).
    Tilt may range over [-pi/2, pi/2]; at +pi/2 the camera looks straight
    down and the sky direction is -z.
    """
    if not 0 < height < math.inf:
        raise ValueError("camera height must be finite and positive")
    if not abs(tilt) <= math.pi / 2:
        raise InvalidTiltError(f"tilt {tilt} is not within [-pi/2, pi/2]")
    normal = np.array([0.0, -math.cos(tilt), -math.sin(tilt)])
    normal /= np.linalg.norm(normal)
    return GroundPlane(normal=normal, gamma=float(height))


def joint_position(ankle, ground: GroundPlane, h) -> np.ndarray:
    """Camera-frame position of a joint at height h above the ankle point.

    ankle (..., 3) broadcasts against h (...): one ankle and four heights
    give a person's (4, 3) joints."""
    return np.asarray(ankle, dtype=float) + np.asarray(h, dtype=float)[..., None] * ground.normal


def camera_to_robot(point, extrinsics: RobotExtrinsics) -> np.ndarray:
    """Map a camera-frame point to 2D robot ground coordinates.

    Un-tilts by the mounting pitch about the camera x-axis, permutes axes
    to the robot convention (x forward, y left, z up), adds the mounting
    offset and drops z.
    """
    p = np.asarray(point, dtype=float)
    c, s = math.cos(extrinsics.tilt), math.sin(extrinsics.tilt)
    # Level frame: x right, y down, z horizontal-forward.
    x_l = p[0]
    y_l = c * p[1] + s * p[2]
    z_l = -s * p[1] + c * p[2]
    robot = np.array([z_l, -x_l, -y_l]) + extrinsics.offset
    return robot[:2]


def robot_to_camera(point_robot, extrinsics: RobotExtrinsics) -> np.ndarray:
    """Inverse of camera_to_robot for full 3D robot-frame points.

    point_robot has shape (..., 3), and so has the result: a batch of
    points maps row by row, each row bit for bit as on its own.
    """
    q = np.asarray(point_robot, dtype=float) - extrinsics.offset
    x_l, y_l, z_l = -q[..., 1], -q[..., 2], q[..., 0]
    c, s = math.cos(extrinsics.tilt), math.sin(extrinsics.tilt)
    return np.stack([x_l, c * y_l - s * z_l, s * y_l + c * z_l], axis=-1)

"""Monocular ground-plane person localization and tracking from 2D joints.

The package turns per-frame 2D detections (bounding box + visible body
joints) into a metric position estimate of a followed person on the ground
plane, staying locked on even when only part of the body is visible:

- :mod:`jointtrack.geometry` - pinhole camera, ground plane, ray casting
- :mod:`jointtrack.prior` - joint-height model fitting and initialization
- :mod:`jointtrack.ukf` - unscented Kalman filter over the ground state
- :mod:`jointtrack.association` - box-space track/detection matching
- :mod:`jointtrack.pipeline` - per-frame orchestration and track lifecycle
- :mod:`jointtrack.streams` - JSONL stream formats and keypoint merging
- :mod:`jointtrack.simulator` - synthetic scenes for verification
- :mod:`jointtrack.metrics` - localization / tracking evaluation
- :mod:`jointtrack.cli` - track / simulate / eval / bench commands
"""

from .association import AssociationResult, BoundingBox, box_distance, expected_box, match_gnn
from .config import CameraSetup, RunConfig, load_camera_config, load_run_config
from .errors import JointTrackError
from .geometry import (
    CameraModel,
    GroundPlane,
    JointKind,
    RobotExtrinsics,
    camera_to_robot,
    ground_plane_from_tilt,
    joint_position,
    localize_from_joint,
    project,
    ray_from_pixel,
    robot_to_camera,
)
from .metrics import LocalizationReport, TrackingReport, localization_metrics, tracking_accuracy
from .pipeline import (
    Detection,
    Frame,
    FrameResult,
    SessionStatus,
    TrackingSession,
    TrackRecord,
    TrackStatus,
)
from .prior import FullBodyObservation, PriorModel, construct_prior, init_from_best_joint
from .simulator import PersonSpec, Scenario, generate, localization_errors
from .streams import merge_joint_pairs
from .ukf import TrackState, UkfParams, observe, predict, update

__version__ = "0.1.0"

__all__ = [
    "AssociationResult",
    "BoundingBox",
    "CameraModel",
    "CameraSetup",
    "Detection",
    "Frame",
    "FrameResult",
    "FullBodyObservation",
    "GroundPlane",
    "JointKind",
    "JointTrackError",
    "LocalizationReport",
    "PersonSpec",
    "PriorModel",
    "RobotExtrinsics",
    "RunConfig",
    "Scenario",
    "SessionStatus",
    "TrackRecord",
    "TrackState",
    "TrackStatus",
    "TrackingReport",
    "TrackingSession",
    "UkfParams",
    "box_distance",
    "camera_to_robot",
    "construct_prior",
    "expected_box",
    "generate",
    "ground_plane_from_tilt",
    "init_from_best_joint",
    "joint_position",
    "load_camera_config",
    "load_run_config",
    "localization_errors",
    "localization_metrics",
    "localize_from_joint",
    "match_gnn",
    "merge_joint_pairs",
    "observe",
    "predict",
    "project",
    "ray_from_pixel",
    "robot_to_camera",
    "tracking_accuracy",
    "update",
]

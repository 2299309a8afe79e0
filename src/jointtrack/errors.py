"""Exception hierarchy for the jointtrack package.

Every error raised by the library derives from JointTrackError so callers
can catch library failures with a single except clause. Geometry errors
(degenerate rays, joints at camera height, points behind the camera) are
recoverable by design: the initialization fallback chain catches them and
tries the next joint.
"""


class JointTrackError(Exception):
    """Base class for all jointtrack errors."""


# --- camera geometry ---

class NonPositiveDepthError(JointTrackError):
    """3D point is at or behind the camera plane (z <= 0)."""


class DegenerateRayError(JointTrackError):
    """Back-projected ray is (near) parallel to the joint's height plane."""


class JointAtCameraHeightError(JointTrackError):
    """Joint height coincides with the camera height; range is unobservable."""


class BehindCameraError(JointTrackError):
    """Reconstructed position has non-positive depth."""


class InvalidTiltError(JointTrackError):
    """Camera tilt magnitude exceeds a quarter turn."""


# --- prior model fitting ---

class SolverDivergedError(JointTrackError):
    """Reprojection-error minimization failed to converge."""


class AnatomicalOrderError(JointTrackError):
    """Fitted joint heights violate 0 < knee < hip < neck."""


class MissingJointError(JointTrackError):
    """Full-body observation is missing one or more joints."""


class NoUsableJointError(JointTrackError):
    """Every visible joint failed single-joint localization."""


# --- filtering ---

class NonPositiveDtError(JointTrackError):
    """Prediction interval must be strictly positive."""


class SigmaPointFailureError(JointTrackError):
    """Covariance square root failed even after jitter."""


class ObservationDimensionError(JointTrackError):
    """Measurement length does not match 2 * number of visible joints."""


# --- pipeline / streams ---

class UninitializedSessionError(JointTrackError):
    """Tracking session used before camera/ground/config were supplied."""


class NonMonotonicTimestampError(JointTrackError):
    """Frame timestamps must be finite and strictly increase within a stream."""


class InvalidFrameError(JointTrackError):
    """A Frame the session cannot take: a reid_target_hint that is not an
    integer detection index, or a timestamp so far past the last frame's
    that the live tracks' prediction over the gap overflows."""


class MalformedRecordError(JointTrackError):
    """A stream record or line lacks a field or holds an invalid value."""


class FileIoError(JointTrackError):
    """A file could not be opened, read or written; the message names its path."""


class ConfigError(JointTrackError):
    """A camera, run config or scenario file holds invalid content; the
    message names its path and the cause."""


class EmptyScenarioError(JointTrackError):
    """Simulation scenario contains no persons."""


# --- evaluation ---

class TimestampMismatchError(JointTrackError):
    """Estimate and truth streams are not aligned on identical timestamps."""


class ReportIoError(FileIoError):
    """Writing a metrics report to disk failed."""

"""Per-frame tracking pipeline: ingest, predict, associate, update.

A TrackingSession owns the track table and processes frames strictly in
timestamp order; a timestamp that is not finite, or does not advance,
raises NonMonotonicTimestampError and leaves the session as it was. Each
frame:

1. predicts every live track forward by the frame interval,
2. computes expected boxes and matches tracks to detections globally,
3. updates matched tracks with their detection's visible joints,
4. ages unmatched tracks (tentative ones die quickly, confirmed ones go
   Lost after a miss budget),
5. spawns tentative tracks from unmatched detections,
6. re-initializes a Lost target from the stream's re-identification hint
   using the fitted prior (any single visible joint suffices),
7. reports the target location in the robot frame.

The target track is created from the first usable frame: a full-body
detection is fitted into a prior model, or, when a prior is preloaded in
the config, any detection with one usable joint bootstraps the track.
A frame's result counts as recognized ("Tracking") while the target track
is alive, including short coasting stretches without a matched detection,
whose box comes from the state through geometry's measurement model.
Steps 1-3 each make one call for all tracks (predict_batch, expected_boxes,
update_batch), and each track gets its new TrackState once per frame.

Sessions are single-writer state machines: process_frame calls must be
serialized per session, while distinct sessions are independent. Returned
FrameResult values are immutable snapshots.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .association import BoundingBox, expected_box, expected_boxes, match_gnn
from .config import RunConfig
from .errors import (
    BehindCameraError,
    NonMonotonicTimestampError,
    NonPositiveDepthError,
    NoUsableJointError,
    UninitializedSessionError,
)
from .geometry import (
    JOINT_ORDER,
    CameraModel,
    GroundPlane,
    JointKind,
    RobotExtrinsics,
    camera_to_robot,
    joint_position,
    project_points,
)
from .prior import FullBodyObservation, PriorModel, construct_prior, init_from_best_joint
from .ukf import STATE_DIM, TrackState, measurement_from_joints, predict_batch, update_batch


class TrackStatus(Enum):
    TENTATIVE = "Tentative"
    CONFIRMED = "Confirmed"
    LOST = "Lost"


class SessionStatus(Enum):
    TRACKING = "Tracking"
    LOST = "Lost"
    UNINITIALIZED = "Uninitialized"


@dataclass(frozen=True)
class JointDetection:
    """One merged joint observation: pixel plus detector confidence."""

    pixel: np.ndarray
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        pixel = self.pixel
        # Ingest hands over float64 (2,) arrays, which need no conversion.
        if not (type(pixel) is np.ndarray and pixel.dtype == np.float64 and pixel.shape == (2,)):
            object.__setattr__(self, "pixel", np.asarray(pixel, dtype=float).reshape(2))


@dataclass(frozen=True)
class Detection:
    """Bounding box plus merged joints; joints may be empty (box only)."""

    box: BoundingBox
    joints: Mapping[JointKind, JointDetection] = field(default_factory=dict)

    def joint_pixels(self) -> Dict[JointKind, np.ndarray]:
        return {kind: obs.pixel for kind, obs in self.joints.items()}


@dataclass(frozen=True)
class Frame:
    """One input frame: timestamp, detections, optional target hint."""

    timestamp: float
    detections: Sequence[Detection] = ()
    reid_target_hint: Optional[int] = None


@dataclass(frozen=True)
class TrackRecord:
    """Immutable snapshot of one track."""

    id: int
    state: TrackState
    status: TrackStatus
    is_target: bool
    misses: int


@dataclass(frozen=True)
class FrameResult:
    """Outcome of one processed frame.

    target_location is present exactly when status is Tracking; the
    detection-index bookkeeping fields partition the frame's detections
    into matched / spawned / unmatched.
    """

    timestamp: float
    status: SessionStatus
    target_location: Optional[np.ndarray]
    target_box: Optional[BoundingBox]
    tracks: Tuple[TrackRecord, ...]
    matches: Tuple[Tuple[int, int], ...]
    spawned: Tuple[Tuple[int, int], ...]
    unmatched_detections: Tuple[int, ...]


# Each merged pair joint: its pre-merged name, which takes precedence, then
# the raw 17-keypoint skeleton names that feed it.
_PAIR_NAMES = (
    (JointKind.HIP, "hip", "left_hip", "right_hip"),
    (JointKind.KNEE, "knee", "left_knee", "right_knee"),
    (JointKind.ANKLE, "ankle", "left_ankle", "right_ankle"),
)


def _pixel(pixel: Sequence[float]) -> Tuple[float, float]:
    """The two floats np.asarray(pixel, dtype=float).reshape(2) holds, or its
    error; a tuple of two plain floats, the usual case, skips numpy."""
    if type(pixel) is tuple and len(pixel) == 2:
        u, v = pixel
        if type(u) is float and type(v) is float:
            return pixel
    u, v = np.asarray(pixel, dtype=float).reshape(2).tolist()
    return u, v


def merge_joint_pairs(
    raw_joints: Mapping[str, Tuple[Sequence[float], float]],
    box: BoundingBox,
    min_confidence: float,
) -> Dict[JointKind, JointDetection]:
    """Collapse raw keypoints into the four tracked joints.

    Left/right hip, knee and ankle pairs become one point each: the
    horizontal coordinate is the box center, the vertical one the mean of
    the pair (or the single visible joint's). The neck is taken directly
    when present, otherwise from the shoulder midpoint. Keypoints below
    min_confidence are dropped first; pre-merged 4-joint streams pass
    through unchanged. Every kept keypoint's pixel must read as two
    numbers (a null reads as NaN), and every merged confidence must lie in
    [0, 1]; otherwise ValueError or TypeError.

    Every keypoint of every detection passes here, so the keypoints are
    handled as plain floats and only the merged joints' pixels become
    arrays.
    """
    usable: Dict[str, Tuple[Tuple[float, float], float]] = {}
    for name, (pixel, conf) in raw_joints.items():
        conf = float(conf)
        if conf >= min_confidence:
            usable[name] = (_pixel(pixel), conf)
    merged: Dict[JointKind, JointDetection] = {}
    if not usable:
        return merged

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
        merged[JointKind.NECK] = JointDetection(pixel=np.array(joint[0]), confidence=joint[1])

    for kind, name, left_name, right_name in _PAIR_NAMES:
        joint = usable.get(name)
        if joint is None:
            left, right = usable.get(left_name), usable.get(right_name)
            # Means as np.mean computes them: the sum starts from 0.0 (so a
            # -0.0 alone gives 0.0), then is divided by the count.
            if left is not None and right is not None:
                v = (0.0 + left[0][1] + right[0][1]) / 2
                joint = ((box.u, v), (0.0 + left[1] + right[1]) / 2)
            elif left is not None or right is not None:
                (_, v), conf = left or right
                joint = ((box.u, 0.0 + v), 0.0 + conf)
            else:
                continue
        merged[kind] = JointDetection(pixel=np.array(joint[0]), confidence=joint[1])
    return merged


@dataclass
class _Track:
    id: int
    state: TrackState
    status: TrackStatus
    is_target: bool
    prior: PriorModel
    misses: int = 0
    consecutive_hits: int = 0

    def snapshot(self) -> TrackRecord:
        return TrackRecord(
            id=self.id,
            state=self.state,
            status=self.status,
            is_target=self.is_target,
            misses=self.misses,
        )


class TrackingSession:
    """Single-target tracking over a detection stream.

    Args:
        camera, ground: calibrated camera and its ground plane.
        config: run tunables; config.prior preloads a fitted prior model
            so the first frame need not show the full body.
        extrinsics: camera mounting in the robot frame (defaults to a
            camera at the robot origin with the ground plane's tilt).
    """

    def __init__(
        self,
        camera: CameraModel,
        ground: GroundPlane,
        config: RunConfig,
        extrinsics: Optional[RobotExtrinsics] = None,
    ):
        if camera is None or ground is None or config is None:
            raise UninitializedSessionError("camera, ground and config are required")
        self.camera = camera
        self.ground = ground
        self.config = config
        self.extrinsics = extrinsics or RobotExtrinsics(tilt=_tilt_of(ground))
        self._tracks: List[_Track] = []
        self._next_id = 1
        self._last_t: Optional[float] = None
        self._target_prior: Optional[PriorModel] = config.prior
        self._use_joints = frozenset(config.use_joints)

    # -- helpers -----------------------------------------------------------

    @property
    def target(self) -> Optional[_Track]:
        for track in self._tracks:
            if track.is_target:
                return track
        return None

    def _initial_state(self, ankle_camera: np.ndarray) -> TrackState:
        gx, gy = self.ground.to_ground(ankle_camera)
        p0 = np.diag(
            [
                self.config.initial_position_sigma**2,
                self.config.initial_position_sigma**2,
                self.config.initial_velocity_sigma**2,
                self.config.initial_velocity_sigma**2,
            ]
        )
        return TrackState(s=np.array([gx, gy, 0.0, 0.0]), P=p0)

    def _new_track(self, ankle_camera: np.ndarray, is_target: bool, prior: PriorModel) -> _Track:
        track = _Track(
            id=self._next_id,
            state=self._initial_state(ankle_camera),
            status=TrackStatus.CONFIRMED if is_target else TrackStatus.TENTATIVE,
            is_target=is_target,
            prior=prior,
            consecutive_hits=1,
        )
        self._next_id += 1
        self._tracks.append(track)
        return track

    def _usable_joints(self, detection: Detection) -> Dict[JointKind, np.ndarray]:
        allowed, min_confidence = self._use_joints, self.config.min_confidence
        return {
            kind: obs.pixel
            for kind, obs in detection.joints.items()
            if kind in allowed and obs.confidence >= min_confidence
        }

    def _robot_location(self, track: _Track) -> np.ndarray:
        ankle = self.ground.to_camera(track.state.s[0], track.state.s[1])
        return camera_to_robot(ankle, self.extrinsics)

    def _coast_box(self, track: _Track) -> Optional[BoundingBox]:
        """Synthesize the target box from the state when nothing matched."""
        try:
            u_bar, w_bar = expected_box(track.state.s, self.camera, self.ground, track.prior)
            ankle = self.ground.to_camera(track.state.s[0], track.state.s[1])
            joints = joint_position(ankle, self.ground, track.prior.heights)
            vs = project_points(self.camera, joints)[:, 1]
        except (BehindCameraError, NonPositiveDepthError):
            return None
        v_lo, v_hi = vs.min(), vs.max()
        return BoundingBox(
            u=u_bar, v=0.5 * (v_lo + v_hi), w=w_bar, h=max(v_hi - v_lo, 1.0)
        )

    # -- frame processing --------------------------------------------------

    def process_frame(self, frame: Frame) -> FrameResult:
        """Advance the session by one frame; see the module docstring."""
        if not math.isfinite(frame.timestamp):
            raise NonMonotonicTimestampError(f"timestamp {frame.timestamp} is not finite")
        if self._last_t is not None and frame.timestamp <= self._last_t:
            raise NonMonotonicTimestampError(
                f"timestamp {frame.timestamp} does not advance past {self._last_t}"
            )
        last_t, self._last_t = self._last_t, frame.timestamp
        if self.target is None:
            return self._initialize_target(frame)
        # A target exists only after a first frame, so last_t is set.
        return self._track_frame(frame, frame.timestamp - last_t)

    def _initialize_target(self, frame: Frame) -> FrameResult:
        detections = list(frame.detections)
        candidate = self._pick_target_candidate(frame, detections)
        if candidate is None:
            return FrameResult(
                timestamp=frame.timestamp,
                status=SessionStatus.UNINITIALIZED,
                target_location=None,
                target_box=None,
                tracks=(),
                matches=(),
                spawned=(),
                unmatched_detections=tuple(range(len(detections))),
            )

        idx = candidate
        detection = detections[idx]
        if self._target_prior is None:
            obs = FullBodyObservation(joints=detection.joint_pixels())
            ankle, fitted, _ = construct_prior(self.camera, self.ground, obs)
            self._target_prior = fitted
        else:
            ankle, _ = init_from_best_joint(
                self.camera, self.ground, self._target_prior, self._usable_joints(detection)
            )
        target = self._new_track(ankle, is_target=True, prior=self._target_prior)

        spawned = [(target.id, idx)]
        unmatched = []
        for j, det in enumerate(detections):
            if j == idx:
                continue
            track = self._spawn_from_detection(det)
            if track is None:
                unmatched.append(j)
            else:
                spawned.append((track.id, j))

        return FrameResult(
            timestamp=frame.timestamp,
            status=SessionStatus.TRACKING,
            target_location=self._robot_location(target),
            target_box=detection.box,
            tracks=tuple(t.snapshot() for t in self._tracks),
            matches=(),
            spawned=tuple(spawned),
            unmatched_detections=tuple(unmatched),
        )

    def _pick_target_candidate(
        self, frame: Frame, detections: List[Detection]
    ) -> Optional[int]:
        hint = frame.reid_target_hint
        if hint is not None and 0 <= hint < len(detections):
            if self._candidate_usable(detections[hint]):
                return hint
            return None
        for idx, det in enumerate(detections):
            if self._candidate_usable(det):
                return idx
        return None

    def _candidate_usable(self, detection: Detection) -> bool:
        if self._target_prior is None:
            return all(kind in detection.joints for kind in JOINT_ORDER)
        return bool(self._usable_joints(detection))

    def _spawn_from_detection(self, detection: Detection) -> Optional[_Track]:
        joints = self._usable_joints(detection)
        if not joints:
            return None
        default_prior = PriorModel()
        try:
            ankle, _ = init_from_best_joint(self.camera, self.ground, default_prior, joints)
        except NoUsableJointError:
            return None
        return self._new_track(ankle, is_target=False, prior=default_prior)

    def _track_frame(self, frame: Frame, dt: float) -> FrameResult:
        detections = list(frame.detections)
        target = self.target

        # A track is named by its row in active, in the filter arrays and in match_gnn.
        active = [t for t in self._tracks if t.status is not TrackStatus.LOST]
        means, covs = predict_batch(
            np.array([t.state.s for t in active]).reshape(-1, STATE_DIM),
            np.array([t.state.P for t in active]).reshape(-1, STATE_DIM, STATE_DIM),
            dt,
            self.config.ukf,
        )
        too_close, boxes = expected_boxes(
            means, [t.prior.body_width for t in active], self.camera, self.ground
        )
        close = too_close.tolist()

        reserved = None
        if (
            target.status is TrackStatus.LOST
            and frame.reid_target_hint is not None
            and 0 <= frame.reid_target_hint < len(detections)
        ):
            reserved = frame.reid_target_hint

        assoc = match_gnn(
            list(zip([row for row, c in enumerate(close) if not c], boxes)),
            [d.box for d in detections],
            gate=self.config.gate_px,
            forbidden_detections=None if reserved is None else [reserved],
        )

        matches: List[Tuple[int, int]] = []
        matched_target_box: Optional[BoundingBox] = None
        missed = set(assoc.unmatched_tracks) | {row for row, c in enumerate(close) if c}

        # One batched update of every match with usable joints. A track whose
        # update fails, or whose posterior is not finite, keeps its prediction.
        measured: Dict[int, Tuple[np.ndarray, List[JointKind]]] = {}
        for row, j, _dist in assoc.matches:
            joints = self._usable_joints(detections[j])
            if joints:
                measured[row] = measurement_from_joints(joints)
        updated: Set[int] = set()
        if measured:
            rows = sorted(measured)
            post_s, post_p, errors = update_batch(
                means[rows],
                covs[rows],
                [measured[r] for r in rows],
                self.camera,
                self.ground,
                [active[r].prior for r in rows],
                self.config.ukf,
            )
            finite = np.isfinite(post_s).all(axis=1) & np.isfinite(post_p).all(axis=(1, 2))
            for r, s, p, error, ok in zip(rows, post_s, post_p, errors, finite):
                if error is None and ok:
                    means[r], covs[r] = s, p
                    updated.add(r)
        for track, s, p in zip(active, means, covs):
            track.state = TrackState(s=s, P=p)

        for row, j, _dist in assoc.matches:
            track = active[row]
            matches.append((track.id, j))
            if track.is_target:
                matched_target_box = detections[j].box
            if row in updated:
                track.misses = 0
                track.consecutive_hits += 1
                if (
                    track.status is TrackStatus.TENTATIVE
                    and track.consecutive_hits >= self.config.confirm_hits
                ):
                    track.status = TrackStatus.CONFIRMED
            else:
                # A match without a usable measurement cannot refresh the
                # track; treat it as a miss so stale tracks still expire.
                missed.add(row)

        dead: List[_Track] = []
        for row in missed:
            track = active[row]
            track.misses += 1
            track.consecutive_hits = 0
            if track.status is TrackStatus.TENTATIVE:
                if track.misses >= self.config.tentative_max_misses:
                    track.status = TrackStatus.LOST
                    dead.append(track)
            elif track.status is TrackStatus.CONFIRMED:
                if track.misses > self.config.max_misses:
                    track.status = TrackStatus.LOST
                    if not track.is_target:
                        dead.append(track)

        spawned: List[Tuple[int, int]] = []
        unmatched: List[int] = []
        for j in assoc.unmatched_detections:
            track = self._spawn_from_detection(detections[j])
            if track is None:
                unmatched.append(j)
            else:
                spawned.append((track.id, j))

        if reserved is not None:
            joints = self._usable_joints(detections[reserved])
            reinitialized = False
            if joints:
                try:
                    ankle, _ = init_from_best_joint(
                        self.camera, self.ground, target.prior, joints
                    )
                    target.state = self._initial_state(ankle)
                    target.status = TrackStatus.CONFIRMED
                    target.misses = 0
                    target.consecutive_hits = 1
                    matches.append((target.id, reserved))
                    matched_target_box = detections[reserved].box
                    reinitialized = True
                except NoUsableJointError:
                    pass
            if not reinitialized:
                unmatched.append(reserved)

        tracking = target.status is not TrackStatus.LOST
        target_box = None
        if tracking:
            target_box = matched_target_box or self._coast_box(target)

        result = FrameResult(
            timestamp=frame.timestamp,
            status=SessionStatus.TRACKING if tracking else SessionStatus.LOST,
            target_location=self._robot_location(target) if tracking else None,
            target_box=target_box,
            tracks=tuple(t.snapshot() for t in self._tracks),
            matches=tuple(matches),
            spawned=tuple(spawned),
            unmatched_detections=tuple(sorted(unmatched)),
        )
        for track in dead:
            self._tracks.remove(track)
        return result


def _tilt_of(ground: GroundPlane) -> float:
    """Recover the pitch angle implied by a tilt-constructed ground normal."""
    n = ground.normal
    return float(np.arctan2(-n[2], -n[1]))

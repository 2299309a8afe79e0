"""Per-frame tracking pipeline: ingest, predict, associate, update.

A TrackingSession owns the track table and processes frames strictly in
timestamp order; a timestamp that is not finite, or does not advance,
raises NonMonotonicTimestampError and leaves the session as it was. Every
frame, the first one included, runs the same stages:

1. acquisition picks the detection that (re)acquires the target, kept out
   of matching: without a target, the hinted detection or else the first
   that places it; for a Lost target, the re-identification hint's,
2. predicts every live track forward by the frame interval,
3. computes expected boxes and matches tracks to detections globally,
4. updates matched tracks with their detection's visible joints,
5. ages unmatched tracks (tentative ones die quickly, confirmed ones go
   Lost after a miss budget),
6. places the target at the acquired detection (a new target is reported
   as spawned, a re-initialized one as matched),
7. spawns tentative tracks from unmatched detections once a target exists,
8. reports the target location in the robot frame.

The first frame is the case of an empty track table: stages 2-5 have
nothing to do, and the session stays Uninitialized until a detection
places the target. Without a prior only a full-body detection can, and its
fit becomes the prior; with one (preloaded in the config, or fitted), any
usable joint can. A candidate whose fit or ray cast fails is unusable.
A frame's result counts as recognized ("Tracking") while the target track
is alive, including short coasting stretches without a matched detection,
whose box comes from the state through geometry's measurement model.
Steps 2-4 each make one call for all tracks (predict_batch, expected_boxes,
update_batch). Prediction reads the stacks behind the last frame's states
while the live tracks hold exactly those states, in order, and stacks the
live states anew after a spawn, death, loss or re-init. A matched
detection's measurement is built in one pass over the joints in
measurement order, from the JointDetection pixels that pass use_joints and
min_confidence. update_batch's stacks are taken whole when every live
track got a finite posterior; otherwise the accepted posteriors go back
into the predicted stacks a row at a time. One ukf.track_states call turns
the stacks into every live track's new TrackState. A detection without
joints is never located, so it spawns nothing.

Ingest merges a detection's keypoints into the four joints. The merge has
one implementation with two readers: merge_keypoints reads the detection
stream's [u, v, conf], merge_joint_pairs a (pixel, conf) pair. Both read a
keypoint's confidence first and its pixel only when the keypoint is kept.
Each merged JointDetection, like each ingested BoundingBox, is checked once
by its type's rule and then built without re-running __post_init__.

Sessions are single-writer state machines: process_frame calls must be
serialized per session, while distinct sessions are independent. Returned
FrameResult values are immutable snapshots: every state's arrays are views
of a read-only stack, which cannot be made writeable.
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
from .prior import (
    FIT_ERRORS,
    FullBodyObservation,
    PriorModel,
    construct_prior,
    init_from_best_joint,
)
from .ukf import TrackState, predict_batch, track_states, update_batch


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
        # A float64 (2,) array is kept as given; anything else is converted.
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
    error."""
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

    raw_joints maps each name to (pixel, conf); merge_keypoints reads the
    stream's [u, v, conf] instead, and both merge the same way.
    """
    usable: Dict[str, Tuple[Tuple[float, float], float]] = {}
    for name, (pixel, conf) in raw_joints.items():
        conf = float(conf)
        if conf >= min_confidence:
            usable[name] = (_pixel(pixel), conf)
    return _merge_usable(usable, box) if usable else {}


def merge_keypoints(
    keypoints: Mapping[str, Sequence], box: BoundingBox, min_confidence: float
) -> Dict[JointKind, JointDetection]:
    """merge_joint_pairs on the detection stream's {name: [u, v, conf]}.

    Each keypoint is read once: its three values, then its confidence, and
    only a kept keypoint's pixel is read as two numbers, so a suppressed
    keypoint's pixel may be anything. Every keypoint of every detection
    passes here, so the keypoints are handled as plain floats and only the
    merged joints' pixels become arrays.
    """
    usable: Dict[str, Tuple[Tuple[float, float], float]] = {}
    for name, vals in keypoints.items():
        u, v, conf = vals[0], vals[1], vals[2]
        conf = float(conf)
        if conf >= min_confidence:
            if type(u) is not float or type(v) is not float:
                u, v = _pixel((u, v))
            usable[name] = ((u, v), conf)
    return _merge_usable(usable, box) if usable else {}


def _joint(pixel: Tuple[float, float], confidence: float) -> JointDetection:
    """JointDetection(pixel=pixel, confidence=confidence) for two numbers,
    built without __post_init__: the confidence is checked once here, and
    the float64 (2,) array made here is what JointDetection makes of them."""
    if not 0.0 <= confidence <= 1.0:
        raise ValueError("confidence must be in [0, 1]")
    joint = object.__new__(JointDetection)
    joint.__dict__.update(pixel=np.array(pixel, dtype=float), confidence=confidence)
    return joint


def _merge_usable(
    usable: Mapping[str, Tuple[Tuple[float, float], float]], box: BoundingBox
) -> Dict[JointKind, JointDetection]:
    """The merge of both readers, over the kept keypoints' (pixel, conf),
    at least one, with each pixel two floats."""
    merged: Dict[JointKind, JointDetection] = {}
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
        merged[JointKind.NECK] = _joint(*joint)

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
        merged[kind] = _joint(*joint)
    return merged


# Spawned tracks are placed with average adult proportions.
_DEFAULT_PRIOR = PriorModel()


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
        record = object.__new__(TrackRecord)  # the fields need no check
        record.__dict__.update(
            id=self.id, state=self.state, status=self.status,
            is_target=self.is_target, misses=self.misses,
        )
        return record


class TrackingSession:
    """Single-target tracking over a detection stream.

    Args:
        camera, ground: calibrated camera and its ground plane.
        config: run tunables; config.prior preloads a fitted prior model
            so the first frame need not show the full body.
        extrinsics: camera mounting in the robot frame, as
            CameraSetup.extrinsics holds it.

    A None argument raises UninitializedSessionError.
    """

    def __init__(
        self,
        camera: CameraModel,
        ground: GroundPlane,
        config: RunConfig,
        extrinsics: Optional[RobotExtrinsics] = None,
    ):
        if camera is None or ground is None or config is None or extrinsics is None:
            raise UninitializedSessionError("camera, ground, config and extrinsics are required")
        self.camera = camera
        self.ground = ground
        self.config = config
        self.extrinsics = extrinsics
        self._tracks: List[_Track] = []
        self._next_id = 1
        self._last_t: Optional[float] = None
        self._target_prior: Optional[PriorModel] = config.prior
        self._use_joints = frozenset(config.use_joints)
        self._carried: Optional[List[TrackState]] = None  # the last frame's track_states

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
        return track_states(np.array([[gx, gy, 0.0, 0.0]]), p0[None])[0]

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

    def _usable_kinds(self, detection: Detection) -> List[JointKind]:
        """The kinds of detection's joints in use_joints with at least
        min_confidence, in measurement order (JOINT_ORDER)."""
        joints, allowed = detection.joints, self._use_joints
        min_confidence = self.config.min_confidence
        return [
            kind
            for kind in JOINT_ORDER
            if kind in joints and kind in allowed and joints[kind].confidence >= min_confidence
        ]

    def _measurement(self, detection: Detection) -> Optional[Tuple[np.ndarray, List[JointKind]]]:
        """(z, kinds) for update_batch: detection's usable joint pixels
        stacked in measurement order, and their kinds; None if none is usable."""
        kinds = self._usable_kinds(detection)
        if not kinds:
            return None
        joints = detection.joints
        return np.concatenate([joints[kind].pixel for kind in kinds]), kinds

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
        detections = list(frame.detections)
        target = self.target
        acquired, target_ankle = self._acquire(frame, detections, target)

        # A track is named by its row in active, in the filter arrays and in match_gnn.
        active = [t for t in self._tracks if t.status is not TrackStatus.LOST]
        states = [t.state for t in active]
        means, covs, close, boxes = (), (), [], []
        if active:
            # TrackState compares by identity, so == holds exactly when the
            # live tracks still hold the states the last frame stacked.
            if self._carried == states:
                prior_s, prior_p = states[0].s.base, states[0].P.base
            else:
                prior_s = np.array([state.s for state in states])
                prior_p = np.array([state.P for state in states])
            # Tracks exist only after a first frame, so last_t is set.
            means, covs = predict_batch(prior_s, prior_p, frame.timestamp - last_t, self.config.ukf)
            too_close, boxes = expected_boxes(
                means, [t.prior.body_width for t in active], self.camera, self.ground
            )
            close, boxes = too_close.tolist(), boxes.tolist()

        assoc = match_gnn(
            list(zip([row for row, c in enumerate(close) if not c], boxes)),
            [d.box for d in detections],
            gate=self.config.gate_px,
            forbidden_detections=None if acquired is None else [acquired],
        )

        matches: List[Tuple[int, int]] = []
        matched_target_box: Optional[BoundingBox] = None
        missed = set(assoc.unmatched_tracks) | {row for row, c in enumerate(close) if c}

        # One batched update of every match with usable joints. A track whose
        # update fails, or whose posterior is not finite, keeps its prediction.
        measured: Dict[int, Tuple[np.ndarray, List[JointKind]]] = {}
        for row, j, _dist in assoc.matches:
            measurement = self._measurement(detections[j])
            if measurement is not None:
                measured[row] = measurement
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
            if len(rows) == len(active) and errors.count(None) == len(rows) and finite.all():
                means, covs = post_s, post_p
                updated.update(rows)
            else:
                # A row at a time: on a one-track frame, two fancy-index
                # writes cost more than this loop.
                for r, s, p, error, ok in zip(rows, post_s, post_p, errors, finite):
                    if error is None and ok:
                        means[r], covs[r] = s, p
                        updated.add(r)
        if active:
            states = track_states(means, covs)
            for track, state in zip(active, states):
                track.state = state
            self._carried = states

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

        # The target takes the acquired detection: a new target is reported
        # as spawned, a Lost one that re-initializes as matched.
        spawned: List[Tuple[int, int]] = []
        unmatched: List[int] = []
        if target_ankle is not None:
            if target is None:
                target = self._new_track(target_ankle, is_target=True, prior=self._target_prior)
                spawned.append((target.id, acquired))
            else:
                target.state = self._initial_state(target_ankle)
                target.status = TrackStatus.CONFIRMED
                target.misses = 0
                target.consecutive_hits = 1
                matches.append((target.id, acquired))
            matched_target_box = detections[acquired].box
        elif acquired is not None:
            unmatched.append(acquired)

        # Spawning waits for a target, so that it gets the lowest id.
        for j in assoc.unmatched_detections:
            detection = detections[j]
            # A detection without joints places no one, so it is not located.
            if target is None or not detection.joints:
                ankle = None
            else:
                ankle = self._locate(detection, _DEFAULT_PRIOR)
            if ankle is None:
                unmatched.append(j)
            else:
                track = self._new_track(ankle, is_target=False, prior=_DEFAULT_PRIOR)
                spawned.append((track.id, j))

        tracking = target is not None and target.status is not TrackStatus.LOST
        status = SessionStatus.TRACKING if tracking else SessionStatus.LOST
        if target is None:
            status = SessionStatus.UNINITIALIZED
        result = FrameResult(
            timestamp=frame.timestamp,
            status=status,
            target_location=self._robot_location(target) if tracking else None,
            target_box=(matched_target_box or self._coast_box(target)) if tracking else None,
            tracks=tuple(t.snapshot() for t in self._tracks),
            matches=tuple(matches),
            spawned=tuple(spawned),
            unmatched_detections=tuple(sorted(unmatched)),
        )
        for track in dead:
            self._tracks.remove(track)
        return result

    def _acquire(
        self, frame: Frame, detections: List[Detection], target: Optional[_Track]
    ) -> Tuple[Optional[int], Optional[np.ndarray]]:
        """The index of the detection that (re)acquires the target, kept out
        of matching, and the ankle placing the target there (None if it
        cannot). Without a target the hinted detection is tried, or with no
        hint in range each detection in order until one places it; a Lost
        target tries the hinted one; a live target acquires nothing."""
        hint = frame.reid_target_hint
        if hint is not None and not 0 <= hint < len(detections):
            hint = None
        if target is None:
            candidates = range(len(detections)) if hint is None else (hint,)
        elif target.status is TrackStatus.LOST and hint is not None:
            candidates = (hint,)
        else:
            return None, None
        for idx in candidates:
            ankle = self._place(detections[idx])
            if ankle is not None:
                return idx, ankle
        return hint, None

    def _place(self, detection: Detection) -> Optional[np.ndarray]:
        """Camera-frame ankle placing the target at detection, or None. Without
        a target prior only a full-body detection can place it, and its fit
        becomes the prior; with one, any usable joint can."""
        if self._target_prior is not None:
            return self._locate(detection, self._target_prior)
        if not all(kind in detection.joints for kind in JOINT_ORDER):
            return None
        obs = FullBodyObservation(joints=detection.joint_pixels())
        try:
            ankle, self._target_prior, _ = construct_prior(self.camera, self.ground, obs)
        except FIT_ERRORS:
            return None
        return ankle

    def _locate(self, detection: Detection, prior: PriorModel) -> Optional[np.ndarray]:
        """Camera-frame ankle of a person with prior at detection, cast from
        its best usable joint; None if no usable joint admits a ray cast."""
        kinds = self._usable_kinds(detection)
        if not kinds:
            return None
        joints = {kind: detection.joints[kind].pixel for kind in kinds}
        try:
            return init_from_best_joint(self.camera, self.ground, prior, joints)[0]
        except NoUsableJointError:
            return None

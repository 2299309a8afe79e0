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
detection's measurement is read from its pixel block: the block itself
when every joint passes use_joints and min_confidence, otherwise one
gather of the rows that do. When every live track has a measurement,
update_batch gets the predicted stacks as they are, and its stacks are
taken whole when every live track got a finite posterior; otherwise the
measured rows are gathered and the accepted posteriors go back into the
predicted stacks a row at a time. One ukf.track_states call turns the
stacks into every live track's new TrackState. A detection without joints
is never located, so it spawns nothing.

Ingest merges a detection's keypoints into the four joints in one pass
that reads a keypoint's confidence first, its pixel only when it is kept,
and puts it in its name's slot of a fixed table. A detection's merged
joints are one read-only mapping in measurement order: their kinds, their
confidences, each checked once by JointDetection's rule, and their pixels
as a (k, 2) float64 block, a read-only row slice of one array per frame
(per call of merge_keypoints or merge_joint_pairs). A JointDetection is
built only when a caller reads joints[kind], its pixel a read-only view of
its row. Ingested boxes and detections are built without re-running
__post_init__. A Detection built in code copies the given pixels into a
block of its own, so the frame path reads every detection the same way.
Joints and detections compare by value.

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
    InvalidFrameError,
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
    """One merged joint observation: pixel plus detector confidence.

    The pixel of a joint read from an ingested detection is a read-only
    view of its frame's pixel array, so writing into it raises ValueError.
    """

    pixel: np.ndarray
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        pixel = self.pixel
        # A float64 (2,) array is kept as given; anything else is converted.
        if not (type(pixel) is np.ndarray and pixel.dtype == np.float64 and pixel.shape == (2,)):
            object.__setattr__(self, "pixel", np.asarray(pixel, dtype=float).reshape(2))

    def __eq__(self, other):  # by value; a NaN pixel is unequal, as a NaN float is
        if other.__class__ is not self.__class__:
            return NotImplemented
        return bool((self.pixel == other.pixel).all()) and self.confidence == other.confidence


class _Joints(Mapping[JointKind, JointDetection]):
    """A detection's merged joints as one pixel block.

    kinds is a tuple in JOINT_ORDER, pixels the (k, 2) float64 block whose
    row i is the pixel of kinds[i], and confidences theirs; the frame path
    reads only these. Ingest's block is a read-only row slice of its frame's
    one array; a Detection built in code holds its own copy of the pixels.
    joints[kind] is a JointDetection: the given object for a Detection
    built in code, otherwise one built when the kind is first read, whose
    pixel is a view of its row, kept by JointDetection's own rule.
    """

    __slots__ = ("kinds", "pixels", "confidences", "_objects")

    def __init__(
        self,
        kinds: Tuple[JointKind, ...],
        pixels: np.ndarray,
        confidences: Tuple[float, ...],
        objects: Optional[List[Optional[JointDetection]]] = None,
    ):
        self.kinds = kinds
        self.pixels = pixels
        self.confidences = confidences
        self._objects = objects

    def __getitem__(self, kind) -> JointDetection:
        try:
            row = self.kinds.index(kind)
        except ValueError:
            raise KeyError(kind) from None
        if self._objects is None:
            self._objects = [None] * len(self.kinds)
        joint = self._objects[row]
        if joint is None:
            joint = JointDetection(pixel=self.pixels[row], confidence=self.confidences[row])
            self._objects[row] = joint
        return joint

    def __contains__(self, kind) -> bool:
        return kind in self.kinds

    def __iter__(self):
        return iter(self.kinds)

    def __len__(self) -> int:
        return len(self.kinds)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


_NO_JOINTS = _Joints((), np.empty((0, 2)), ())
_NO_JOINTS.pixels.flags.writeable = False


@dataclass(frozen=True)
class Detection:
    """Bounding box plus merged joints; joints may be empty (box only).

    Built in code, a Detection copies the pixels of the given joints into
    its own block, so writing into a given pixel later does not change
    what the tracker reads; detection.joints[kind] is still the given
    JointDetection. Ingest builds its detections from merged blocks.
    """

    box: BoundingBox
    joints: Mapping[JointKind, JointDetection] = field(default_factory=dict)

    def __post_init__(self):
        joints = self.joints
        if type(joints) is _Joints:
            return
        kinds = tuple(kind for kind in JOINT_ORDER if kind in joints)
        if len(kinds) != len(joints):
            raise ValueError("joints must be keyed by JointKind")
        given = [joints[kind] for kind in kinds]
        pixels = np.array([obs.pixel for obs in given], dtype=float).reshape(len(kinds), 2)
        confidences = tuple(obs.confidence for obs in given)
        object.__setattr__(self, "joints", _Joints(kinds, pixels, confidences, given))

    def joint_pixels(self) -> Dict[JointKind, np.ndarray]:
        return {kind: obs.pixel for kind, obs in self.joints.items()}


@dataclass(frozen=True)
class Frame:
    """One input frame: timestamp, detections, optional target hint.

    The hint is a detection index, an int or numpy integer but not a bool;
    process_frame rejects anything else with InvalidFrameError.
    """

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


# The merge's slots: joint k's pre-merged name, which takes precedence, in
# slot 3k, then the two 17-keypoint skeleton names that feed it.
_SLOTS = {name: slot for slot, name in enumerate((
    "neck", "left_shoulder", "right_shoulder", "hip", "left_hip", "right_hip",
    "knee", "left_knee", "right_knee", "ankle", "left_ankle", "right_ankle",
))}
_KIND_SLOTS = tuple((kind, 3 * kind) for kind in JOINT_ORDER)
# Stands in for v when merge_joint_pairs passes a (pixel, conf) pair on.
_WHOLE_PIXEL = object()


def merge_joint_pairs(
    raw_joints: Mapping[str, Tuple[Sequence[float], float]],
    box: BoundingBox,
    min_confidence: float,
) -> Mapping[JointKind, JointDetection]:
    """Collapse raw keypoints into the four tracked joints.

    Left/right hip, knee and ankle pairs become one point each: the
    horizontal coordinate is the box center, the vertical one the mean of
    the pair (or the single visible joint's). The neck is taken directly
    when present, otherwise from the shoulder midpoint. Keypoints below
    min_confidence (or NaN) are dropped unchecked; pre-merged streams pass
    through unchanged. A kept pixel must read as two numbers (null reads as
    NaN) and a merged confidence (a kept 1.5, not a dropped -0.5) must lie
    in [0, 1]; otherwise ValueError or TypeError.

    raw_joints maps each name to (pixel, conf); merge_keypoints reads the
    stream's [u, v, conf] instead, and both merge the same way. The result
    is a read-only mapping in measurement order (JOINT_ORDER) whose pixels
    are rows of one read-only block; it equals {} when nothing is kept.
    """
    keypoints = ((name, (pixel, _WHOLE_PIXEL, conf)) for name, (pixel, conf) in raw_joints.items())
    return _merged_alone(keypoints, box, min_confidence)


def merge_keypoints(
    keypoints: Mapping[str, Sequence], box: BoundingBox, min_confidence: float
) -> Mapping[JointKind, JointDetection]:
    """merge_joint_pairs on the detection stream's {name: [u, v, conf]}.

    Each keypoint is read once: its three values, then its confidence, and
    only a kept keypoint's pixel is read as two numbers, so a suppressed
    keypoint's pixel may be anything. This is ingest's merge, for one
    detection with a pixel block of its own.
    """
    return _merged_alone(keypoints.items(), box, min_confidence)


def _merged_alone(keypoints, box: BoundingBox, min_confidence: float) -> "_Joints":
    pixels: List[float] = []
    joints = _merge(keypoints, box, min_confidence, pixels)
    if pixels:
        _share_block([joints], pixels)
    return joints


def _merge(keypoints, box: BoundingBox, min_confidence: float, pixels: List[float]) -> "_Joints":
    """The merge of (name, [u, v, conf]) pairs: the merged joints, their
    pixels appended to pixels as u, v, ... and not yet set (_share_block
    sets them), or _NO_JOINTS when no slot is filled."""
    slots = None
    for name, vals in keypoints:
        u, v, conf = vals[0], vals[1], vals[2]
        conf = float(conf)
        if conf >= min_confidence:
            if type(u) is not float or type(v) is not float:
                pixel = u if v is _WHOLE_PIXEL else (u, v)
                u, v = np.asarray(pixel, dtype=float).reshape(2).tolist()
            slot = _SLOTS.get(name)
            if slot is not None:
                if slots is None:
                    slots = [None] * len(_SLOTS)
                slots[slot] = (u, v, conf)
    if slots is None:
        return _NO_JOINTS

    kinds, confidences = [], []
    for kind, slot in _KIND_SLOTS:
        joint = slots[slot]
        if joint is None:
            left, right = slots[slot + 1], slots[slot + 2]
            if left is None and right is None:
                continue
            if slot == 0:  # the neck: the shoulders' midpoint, or the one shoulder
                if left is not None and right is not None:
                    joint = tuple(0.5 * (a + b) for a, b in zip(left, right))
                else:
                    joint = left or right
            # Means as np.mean computes them: the sum starts from 0.0 (so a
            # -0.0 alone gives 0.0), then is divided by the count.
            elif left is not None and right is not None:
                joint = (box.u, (0.0 + left[1] + right[1]) / 2, (0.0 + left[2] + right[2]) / 2)
            else:
                _, v, conf = left or right
                joint = (box.u, 0.0 + v, 0.0 + conf)
        u, v, conf = joint
        if not 0.0 <= conf <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        kinds.append(kind)
        pixels += u, v
        confidences.append(conf)
    return _Joints(tuple(kinds), None, tuple(confidences))


def _share_block(joints: Sequence["_Joints"], pixels: List[float]) -> None:
    """Set the pixels of each of joints, in order, to its rows of one
    read-only (n, 2) float64 block made from pixels by one np.array call."""
    block = np.array(pixels, dtype=float)
    # Not geometry.read_only: ingest makes no call into another module per
    # frame, which perfbench's tracer would count as a geometry call.
    block.flags.writeable = False
    block = block.reshape(-1, 2)
    start = 0
    for merged in joints:
        stop = start + len(merged.kinds)
        merged.pixels = block[start:stop]
        start = stop


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

    def _usable(self, joints: _Joints) -> Tuple[List[JointKind], Sequence[int]]:
        """The kinds of joints in use_joints with at least min_confidence, in
        measurement order (JOINT_ORDER), and their rows in joints.pixels."""
        allowed, min_confidence = self._use_joints, self.config.min_confidence
        kinds = joints.kinds
        if kinds and min(joints.confidences) >= min_confidence and allowed.issuperset(kinds):
            return list(kinds), range(len(kinds))  # every row, without the per-joint loop
        kinds, rows = [], []
        for row, (kind, confidence) in enumerate(zip(joints.kinds, joints.confidences)):
            if kind in allowed and confidence >= min_confidence:
                kinds.append(kind)
                rows.append(row)
        return kinds, rows

    def _measurement(self, detection: Detection) -> Optional[Tuple[np.ndarray, List[JointKind]]]:
        """(z, kinds) for update_batch: detection's usable joint pixels in
        measurement order, read from its pixel block (the block itself when
        every joint is usable), and their kinds; None if none is usable."""
        joints = detection.joints
        kinds, rows = self._usable(joints)
        if not kinds:
            return None
        pixels = joints.pixels
        if len(rows) < len(pixels):
            pixels = pixels[rows]
        return pixels.reshape(-1), kinds

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
        hint = frame.reid_target_hint
        if hint is not None:
            if isinstance(hint, bool) or not isinstance(hint, (int, np.integer)):
                raise InvalidFrameError(f"reid_target_hint must be a detection index, got {hint!r}")
            hint = int(hint)
        last_t, self._last_t = self._last_t, frame.timestamp
        detections = list(frame.detections)
        target = self.target
        acquired, target_ankle = self._acquire(hint, detections, target)

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
            # With every live row measured, the predicted stacks go as they are.
            whole = len(rows) == len(active)
            post_s, post_p, errors = update_batch(
                means if whole else means[rows],
                covs if whole else covs[rows],
                [measured[r] for r in rows],
                self.camera,
                self.ground,
                [active[r].prior for r in rows],
                self.config.ukf,
            )
            finite = np.isfinite(post_s).all(axis=1) & np.isfinite(post_p).all(axis=(1, 2))
            if whole and errors.count(None) == len(rows) and finite.all():
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
        self, hint: Optional[int], detections: List[Detection], target: Optional[_Track]
    ) -> Tuple[Optional[int], Optional[np.ndarray]]:
        """The index of the detection that (re)acquires the target, kept out
        of matching, and the ankle placing the target there (None if it
        cannot). Without a target the hinted detection is tried, or with no
        hint in range each detection in order until one places it; a Lost
        target tries the hinted one; a live target acquires nothing."""
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
        joints = detection.joints
        if len(joints) < len(JOINT_ORDER):
            return None
        obs = FullBodyObservation(joints=dict(zip(joints.kinds, joints.pixels)))
        try:
            ankle, self._target_prior, _ = construct_prior(self.camera, self.ground, obs)
        except FIT_ERRORS:
            return None
        return ankle

    def _locate(self, detection: Detection, prior: PriorModel) -> Optional[np.ndarray]:
        """Camera-frame ankle of a person with prior at detection, cast from
        its best usable joint; None if no usable joint admits a ray cast."""
        joints = detection.joints
        kinds, rows = self._usable(joints)
        if not kinds:
            return None
        pixels = {kind: joints.pixels[row] for kind, row in zip(kinds, rows)}
        try:
            return init_from_best_joint(self.camera, self.ground, prior, pixels)[0]
        except NoUsableJointError:
            return None

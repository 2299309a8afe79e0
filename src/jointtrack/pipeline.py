"""Per-frame tracking pipeline: predict, associate, update, lifecycle.

A TrackingSession owns the track table and processes frames strictly in
timestamp order; a timestamp that is not finite, or does not advance,
raises NonMonotonicTimestampError, and one so far past the last that the
live tracks' prediction over the gap overflows raises InvalidFrameError
(the prediction runs before anything changes); either leaves the session
as it was. Every frame, the first one included, runs the same stages:

1. acquisition picks the detection that (re)acquires the target, kept out
   of matching: without a target, the hinted detection or else the first
   that places it; for a Lost target, the re-identification hint's,
2. predicts every live track forward by the frame interval,
3. computes expected boxes and matches tracks to detections globally,
4. updates matched tracks with their detection's visible joints,
5. counts a miss for every live track that no match updated (tentative
   ones die quickly, confirmed ones go Lost after a miss budget),
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
Every detection is measured once, before acquisition: its measurement
(z, kinds) is read from its pixel block, the block itself when every
joint passes use_joints and min_confidence, otherwise one gather of the
rows that do, and is None when none does. Acquisition with a prior, the
update and spawning all read that one measurement; only the full-body fit
without a prior reads the detection's joints. Steps 2-4 each make one
call for all tracks (predict_batch, expected_boxes, update_batch);
prediction stacks the live tracks' states. update_batch gets the
predicted stacks as they are and one measurement per live track, in row
order, None for a track without a usable matched measurement (its rows
come back as given).
Its stacks become the new states, save that a row whose posterior is not
finite takes its prediction back; update_batch alone gathers and writes
back rows. The finite check is one test per frame: the Python float sum
of both stacks is finite only if every value is, and only when it is not
(a non-finite value, or a sum that overflows) is each row checked. One
ukf.track_states call turns the stacks into every live track's new
TrackState, and the target's robot-frame location is computed on Python
floats, by the same IEEE operations as geometry's numpy code. A track is
updated, and counts a hit, exactly when it matched a detection with a
usable measurement, update_batch reported no error for it and its
posterior is finite; every other live track counts a miss: unmatched, too
close for a box, or matched without a usable measurement. A detection
without a usable joint is never located, so it spawns nothing. Every
detection neither matched nor spawned is unmatched.

Sessions are single-writer state machines: process_frame calls must be
serialized per session, while distinct sessions are independent. Returned
FrameResult values are immutable snapshots: every state's arrays are views
of a read-only stack, which cannot be made writeable.
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .association import BoundingBox, expected_box, expected_boxes, match_gnn
from .config import RunConfig
from .errors import (
    BehindCameraError,
    InvalidFrameError,
    NonMonotonicTimestampError,
    NonPositiveDepthError,
    NoUsableJointError,
    PredictionOverflowError,
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


# Spawned tracks are placed with average adult proportions.
_DEFAULT_PRIOR = PriorModel()

# A detection's (z, kinds): its usable joint pixels, flat in measurement
# order, and their kinds, as update_batch takes them.
_Measurement = Tuple[np.ndarray, List[JointKind]]


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
        # ground.to_camera's (origin, e1, e2) as one float triple per axis.
        self._lift = tuple(zip(*(v.tolist() for v in ground._basis)))

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

    def _measurement(self, detection: Detection) -> Optional[_Measurement]:
        """(z, kinds) for update_batch: detection's joints in use_joints with
        at least min_confidence, their pixels in measurement order
        (JOINT_ORDER) read from its pixel block (the block itself when every
        joint is usable), and their kinds; None if none is usable."""
        joints = detection.joints
        kinds = joints.kinds
        if not kinds:
            return None
        allowed, min_confidence = self._use_joints, self.config.min_confidence
        if min(joints.confidences) >= min_confidence and allowed.issuperset(kinds):
            return joints.pixels.reshape(-1), list(kinds)  # every row, without the loop
        kinds, rows = [], []
        for row, (kind, confidence) in enumerate(zip(joints.kinds, joints.confidences)):
            if kind in allowed and confidence >= min_confidence:
                kinds.append(kind)
                rows.append(row)
        if not kinds:
            return None
        return joints.pixels[rows].reshape(-1), kinds

    def _robot_location(self, track: _Track) -> np.ndarray:
        """camera_to_robot of ground.to_camera(x, y), on Python floats."""
        gx, gy = track.state.s[:2].tolist()
        ankle = [o + gx * e1 + gy * e2 for o, e1, e2 in self._lift]
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

        # A track is named by its row in active, in the filter arrays and in match_gnn.
        active = [t for t in self._tracks if t.status is not TrackStatus.LOST]
        close, boxes = [], []
        if active:
            prior_s = np.array([t.state.s for t in active])
            prior_p = np.array([t.state.P for t in active])
            # Tracks exist only after a first frame, so _last_t is set.
            gap = frame.timestamp - self._last_t
            try:
                means, covs = predict_batch(prior_s, prior_p, gap, self.config.ukf)
            except PredictionOverflowError as exc:
                raise InvalidFrameError(
                    f"frame gap of {gap} s is too long to predict over"
                ) from exc
            too_close, boxes = expected_boxes(
                means, [t.prior.body_width for t in active], self.camera, self.ground
            )
            close, boxes = too_close.tolist(), boxes.tolist()
        self._last_t = frame.timestamp
        detections = list(frame.detections)
        measured = [self._measurement(d) for d in detections]
        target = self.target
        acquired, target_ankle = self._acquire(hint, detections, measured, target)

        assoc = match_gnn(
            list(zip([row for row, c in enumerate(close) if not c], boxes)),
            [d.box for d in detections],
            gate=self.config.gate_px,
            forbidden_detections=None if acquired is None else [acquired],
        )

        matches: List[Tuple[int, int]] = []
        matched_target_box: Optional[BoundingBox] = None
        measurements: List[Optional[_Measurement]] = [None] * len(active)
        for row, j, _dist in assoc.matches:
            track = active[row]
            matches.append((track.id, j))
            if track.is_target:
                matched_target_box = detections[j].box
            measurements[row] = measured[j]

        # One batched update of every live track, in row order, with None for
        # a track without a usable matched measurement. A track whose update
        # fails, or whose posterior is not finite, keeps its prediction.
        if active:
            priors = [t.prior for t in active]
            post_s, post_p, errors = update_batch(
                means, covs, measurements, self.camera, self.ground, priors, self.config.ukf
            )
            # Every value is finite when the stacks' sum is; Python's float sum
            # neither warns nor raises, so an overflowing sum only sends the
            # frame to the row-by-row check.
            if math.isfinite(sum(post_s.ravel().tolist()) + sum(post_p.ravel().tolist())):
                finite = [True] * len(active)
            else:
                rows_ok = np.isfinite(post_s).all(axis=1) & np.isfinite(post_p).all(axis=(1, 2))
                if not rows_ok.all():
                    post_s[~rows_ok], post_p[~rows_ok] = means[~rows_ok], covs[~rows_ok]
                finite = rows_ok.tolist()
            states = track_states(post_s, post_p)
            # A track is a hit exactly when its matched measurement updated
            # it; every other live track counts a miss.
            rows = zip(active, states, measurements, errors, finite)
            for track, state, z, error, ok in rows:
                track.state = state
                if z is not None and error is None and ok:
                    track.misses = 0
                    track.consecutive_hits += 1
                    if (
                        track.status is TrackStatus.TENTATIVE
                        and track.consecutive_hits >= self.config.confirm_hits
                    ):
                        track.status = TrackStatus.CONFIRMED
                    continue
                track.misses += 1
                track.consecutive_hits = 0
                if track.status is TrackStatus.TENTATIVE:
                    if track.misses >= self.config.tentative_max_misses:
                        track.status = TrackStatus.LOST
                elif track.misses > self.config.max_misses:
                    track.status = TrackStatus.LOST

        # The target takes the acquired detection: a new target is reported
        # as spawned, a Lost one that re-initializes as matched.
        spawned: List[Tuple[int, int]] = []
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

        # Spawning waits for a target, so that it gets the lowest id. A
        # detection without a usable joint places no one, so it is not located.
        if target is not None:
            for j in assoc.unmatched_detections:
                if measured[j] is not None:
                    ankle = self._locate(measured[j], _DEFAULT_PRIOR)
                    if ankle is not None:
                        track = self._new_track(ankle, is_target=False, prior=_DEFAULT_PRIOR)
                        spawned.append((track.id, j))
        # Every detection neither matched nor spawned is unmatched.
        taken = {j for _, j in matches + spawned}

        tracking = target is not None and target.status is not TrackStatus.LOST
        status = SessionStatus.TRACKING if tracking else SessionStatus.LOST
        if target is None:
            status = SessionStatus.UNINITIALIZED
        result = object.__new__(FrameResult)  # the fields need no check
        result.__dict__.update(
            timestamp=frame.timestamp,
            status=status,
            target_location=self._robot_location(target) if tracking else None,
            target_box=(matched_target_box or self._coast_box(target)) if tracking else None,
            tracks=tuple(t.snapshot() for t in self._tracks),
            matches=tuple(matches),
            spawned=tuple(spawned),
            unmatched_detections=tuple([j for j in range(len(detections)) if j not in taken]),
        )
        # Only the target outlives going Lost; the snapshots above still show the rest.
        self._tracks = [t for t in self._tracks if t.is_target or t.status is not TrackStatus.LOST]
        return result

    def _acquire(
        self,
        hint: Optional[int],
        detections: List[Detection],
        measured: List[Optional[_Measurement]],
        target: Optional[_Track],
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
            ankle = self._place(detections[idx], measured[idx])
            if ankle is not None:
                return idx, ankle
        return hint, None

    def _place(
        self, detection: Detection, measurement: Optional[_Measurement]
    ) -> Optional[np.ndarray]:
        """Camera-frame ankle placing the target at detection, whose
        measurement is given, or None. Without a target prior only a
        full-body detection can place it, and its fit becomes the prior;
        with one, any usable joint can."""
        if self._target_prior is not None:
            if measurement is None:
                return None
            return self._locate(measurement, self._target_prior)
        joints = detection.joints
        if len(joints) < len(JOINT_ORDER):
            return None
        obs = FullBodyObservation(joints=dict(zip(joints.kinds, joints.pixels)))
        try:
            ankle, self._target_prior, _ = construct_prior(self.camera, self.ground, obs)
        except FIT_ERRORS:
            return None
        return ankle

    def _locate(self, measurement: _Measurement, prior: PriorModel) -> Optional[np.ndarray]:
        """Camera-frame ankle of a person with prior at a detection's
        measurement, cast from its best joint; None if no joint admits a
        ray cast."""
        z, kinds = measurement
        pixels = dict(zip(kinds, z.reshape(-1, 2)))
        try:
            return init_from_best_joint(self.camera, self.ground, prior, pixels)[0]
        except NoUsableJointError:
            return None

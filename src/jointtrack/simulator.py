"""Synthetic scene generation for end-to-end verification.

A Scenario places one or more persons on parameterized ground trajectories
in front of a static, calibrated camera, then renders the detection stream
a real detector would produce: joints are projected with the same pinhole
model the tracker inverts, clipped by the field of view and by image-space
occluder rectangles, thinned by per-joint dropout, and perturbed by pixel
noise. Boxes span the visible body extent, mimicking how detectors box
truncated people (a "full" mode boxes the whole body instead).

Trajectories are specified in robot ground coordinates (x forward,
y left); the truth stream carries exact per-person (x, y) in that frame
plus the noiseless visible-extent target box. Everything is a pure
function of the scenario, so a seed fixes the byte-exact output.

Visibility is decided on the emitted (noisy) pixel: a published joint
never lies outside the image or inside an occluder.

generate renders in two passes. The first does everything the noise does
not touch, once per scenario over arrays of (frames x persons): it asks
each trajectory for its position frame by frame (the arc and sinusoid use
math.cos and math.sin, whose last bit numpy may not share), then makes one
robot_to_camera call for every ankle and one joint_position and one
project_points call for every person in front of the camera, and finds
each clean joint's visibility and each truth box with masks. The second
pass walks frame by frame, person by person (only those in front of the
camera) and joint by joint in JOINT_ORDER on plain floats, and draws the
random numbers in this fixed order: the pixel noise, when
pixel_noise_sigma > 0, then the dropout draw, only when the noisy pixel is
visible. Which draws happen depends on the data, so this pass stays
sequential; the seed's stream, and so every output byte, is fixed by it.
Both passes run with the cyclic garbage collector paused
(files.collection_paused): the records are trees of lists and dicts.
"""

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import CameraSetup
from .errors import EmptyScenarioError
from .files import collection_paused
from .geometry import (
    JOINT_ORDER,
    CameraModel,
    JointKind,
    camera_to_robot,
    joint_position,
    localize_from_joint,
    project_points,
    robot_to_camera,
)
from .prior import DEFAULT_BODY_WIDTH, DEFAULT_HEIGHTS

MAX_WALK_SPEED = 3.0  # m/s, jogging at most

# Vertical padding applied to simulated boxes so single-joint visibility
# still yields a drawable box (5 cm of body, scaled by depth).
BOX_V_PAD_M = 0.05


class Trajectory:
    """Ground-path interface: position(t) in robot coordinates (meters)."""

    def position(self, t: float) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class LineTrajectory(Trajectory):
    start: Tuple[float, float]
    velocity: Tuple[float, float]

    def __post_init__(self):
        speed = math.hypot(*self.velocity)
        if speed > MAX_WALK_SPEED:
            raise ValueError(f"speed {speed:.2f} m/s exceeds {MAX_WALK_SPEED}")

    def position(self, t: float) -> np.ndarray:
        return np.array(
            [self.start[0] + self.velocity[0] * t, self.start[1] + self.velocity[1] * t]
        )


@dataclass(frozen=True)
class ArcTrajectory(Trajectory):
    center: Tuple[float, float]
    radius: float
    angular_speed: float  # rad/s, positive = counterclockwise
    start_angle: float = 0.0

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if abs(self.angular_speed) * self.radius > MAX_WALK_SPEED:
            raise ValueError("arc speed exceeds walking plausibility")

    def position(self, t: float) -> np.ndarray:
        a = self.start_angle + self.angular_speed * t
        return np.array(
            [self.center[0] + self.radius * math.cos(a), self.center[1] + self.radius * math.sin(a)]
        )


@dataclass(frozen=True)
class SinusoidTrajectory(Trajectory):
    """Straight-line drift plus a lateral sinusoidal sway."""

    start: Tuple[float, float]
    velocity: Tuple[float, float]
    amplitude: float = 0.3
    period: float = 4.0

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        drift = math.hypot(*self.velocity)
        sway = 2 * math.pi * self.amplitude / self.period
        if drift + sway > MAX_WALK_SPEED:
            raise ValueError("sinusoid peak speed exceeds walking plausibility")

    def position(self, t: float) -> np.ndarray:
        drift = math.hypot(*self.velocity)
        if drift > 0:
            normal = np.array([-self.velocity[1], self.velocity[0]]) / drift
        else:
            normal = np.array([0.0, 1.0])
        sway = self.amplitude * math.sin(2 * math.pi * t / self.period)
        return (
            np.array([self.start[0] + self.velocity[0] * t, self.start[1] + self.velocity[1] * t])
            + sway * normal
        )


@dataclass(frozen=True)
class WaypointTrajectory(Trajectory):
    """Piecewise-linear traversal of waypoints at constant speed."""

    points: Tuple[Tuple[float, float], ...]
    speed: float = 1.0

    def __post_init__(self):
        if len(self.points) < 2:
            raise ValueError("at least two waypoints are required")
        if not 0 < self.speed <= MAX_WALK_SPEED:
            raise ValueError(f"speed must be in (0, {MAX_WALK_SPEED}]")

    def position(self, t: float) -> np.ndarray:
        remaining = self.speed * t
        pts = [np.asarray(p, dtype=float) for p in self.points]
        for a, b in zip(pts, pts[1:]):
            seg = np.linalg.norm(b - a)
            if remaining <= seg:
                return a + (b - a) * (remaining / seg if seg > 0 else 0.0)
            remaining -= seg
        return pts[-1]


_TRAJECTORY_KINDS = {
    "line": LineTrajectory,
    "arc": ArcTrajectory,
    "sinusoid": SinusoidTrajectory,
    "waypoints": WaypointTrajectory,
}


def trajectory_from_dict(data: Mapping[str, Any]) -> Trajectory:
    kind = data.get("kind")
    if kind not in _TRAJECTORY_KINDS:
        raise ValueError(f"unknown trajectory kind {kind!r}")
    kwargs = {k: v for k, v in data.items() if k != "kind"}
    if "points" in kwargs:
        kwargs["points"] = tuple(tuple(p) for p in kwargs["points"])
    for key in ("start", "velocity", "center"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return _TRAJECTORY_KINDS[kind](**kwargs)


@dataclass(frozen=True)
class PersonSpec:
    """True joint heights, body width and path of one simulated person."""

    trajectory: Trajectory
    h_neck: float = DEFAULT_HEIGHTS[0]
    h_hip: float = DEFAULT_HEIGHTS[1]
    h_knee: float = DEFAULT_HEIGHTS[2]
    body_width: float = DEFAULT_BODY_WIDTH

    def heights(self) -> Dict[JointKind, float]:
        return {
            JointKind.NECK: self.h_neck,
            JointKind.HIP: self.h_hip,
            JointKind.KNEE: self.h_knee,
            JointKind.ANKLE: 0.0,
        }


@dataclass(frozen=True)
class Occluder:
    """Image-space rectangle that swallows joints (u_min, v_min, u_max, v_max)."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def contains(self, pixel: np.ndarray) -> bool:
        return (
            self.u_min <= pixel[0] <= self.u_max and self.v_min <= pixel[1] <= self.v_max
        )


@dataclass(frozen=True)
class Scenario:
    """Full description of a synthetic sequence; the seed fixes its output."""

    setup: CameraSetup
    persons: Tuple[PersonSpec, ...]
    duration: float = 10.0
    rate: float = 30.0
    pixel_noise_sigma: float = 0.0
    noise_model: str = "gaussian"  # or "student_t" (nu=3) for heavy tails
    joint_dropout: Mapping[JointKind, float] = field(default_factory=dict)
    occluders: Tuple[Occluder, ...] = ()
    box_mode: str = "visible"  # or "full": box the whole body regardless
    target_index: int = 0
    emit_initial_hint: bool = True
    seed: int = 0

    def __post_init__(self):
        # Checked before generate sizes its arrays from the frame count.
        if not (0 < self.rate and 0 < self.duration and self.rate * self.duration < math.inf):
            raise ValueError("rate and duration must be positive and finite")
        if not 0 <= self.pixel_noise_sigma < math.inf:
            raise ValueError("pixel_noise_sigma must be non-negative and finite")
        if self.noise_model not in ("gaussian", "student_t"):
            raise ValueError("noise_model must be 'gaussian' or 'student_t'")
        if self.box_mode not in ("visible", "full"):
            raise ValueError("box_mode must be 'visible' or 'full'")
        dropout = {JointKind(k): float(v) for k, v in self.joint_dropout.items()}
        for kind, p in dropout.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"dropout for {kind.label} must be a probability")
        if not 0 <= self.target_index < max(len(self.persons), 1):
            raise ValueError("target_index out of range")
        object.__setattr__(self, "joint_dropout", dropout)
        object.__setattr__(self, "persons", tuple(self.persons))
        object.__setattr__(self, "occluders", tuple(self.occluders))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        persons = tuple(
            PersonSpec(
                trajectory=trajectory_from_dict(p["trajectory"]),
                h_neck=float(p.get("h_neck", DEFAULT_HEIGHTS[0])),
                h_hip=float(p.get("h_hip", DEFAULT_HEIGHTS[1])),
                h_knee=float(p.get("h_knee", DEFAULT_HEIGHTS[2])),
                body_width=float(p.get("body_width", DEFAULT_BODY_WIDTH)),
            )
            for p in data["persons"]
        )
        dropout = {
            JointKind.from_label(name): float(v)
            for name, v in data.get("joint_dropout", {}).items()
        }
        occluders = tuple(Occluder(*rect) for rect in data.get("occluders", ()))
        return cls(
            setup=CameraSetup.from_dict(data["camera"]),
            persons=persons,
            duration=float(data.get("duration_s", 10.0)),
            rate=float(data.get("rate_hz", 30.0)),
            pixel_noise_sigma=float(data.get("pixel_noise_sigma", 0.0)),
            noise_model=str(data.get("noise_model", "gaussian")),
            joint_dropout=dropout,
            occluders=occluders,
            box_mode=str(data.get("box_mode", "visible")),
            target_index=int(data.get("target_index", 0)),
            emit_initial_hint=bool(data.get("emit_initial_hint", True)),
            seed=int(data.get("seed", 0)),
        )


# A person is rendered only while every joint lies deeper than this in
# front of the camera (meters).
MIN_RENDER_DEPTH = 1e-6


def _ankles(setup: CameraSetup, xy) -> np.ndarray:
    """Camera-frame ground points under robot ground coordinates xy (..., 2)."""
    xy = np.asarray(xy, dtype=float)
    points = np.empty(xy.shape[:-1] + (3,))
    points[..., :2] = xy
    points[..., 2] = setup.extrinsics.offset[2] - setup.ground.gamma
    return robot_to_camera(points, setup.extrinsics)


def _project_persons(
    setup: CameraSetup, heights, xy
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Noiseless joint pixels of persons standing at robot ground points.

    xy (..., 2) holds ground positions and heights (..., 4) joint heights
    in JOINT_ORDER, the ankle's 0; the two broadcast together. Returns the
    mask of the persons in front of the camera (every joint deeper than
    MIN_RENDER_DEPTH) and, for those persons in order, their (4, 2) joint
    pixels and ankle depths.
    """
    ankles = _ankles(setup, xy)
    joints = joint_position(ankles[..., None, :], setup.ground, heights)
    front = ~(joints[..., 2] <= MIN_RENDER_DEPTH).any(axis=-1)
    return front, project_points(setup.camera, joints[front]), ankles[..., 2][front]


def _in_view(camera: CameraModel, occluders: Sequence[Occluder], u, v) -> np.ndarray:
    """Mask of the pixel arrays (u, v) inside the image and in no occluder."""
    seen = (0.0 <= u) & (u <= camera.image_width - 1)
    seen &= (0.0 <= v) & (v <= camera.image_height - 1)
    for occ in occluders:
        seen &= ~((occ.u_min <= u) & (u <= occ.u_max) & (occ.v_min <= v) & (v <= occ.v_max))
    return seen


def _truth_boxes(
    camera: CameraModel,
    occluders: Sequence[Occluder],
    pixels: np.ndarray,
    half_w: np.ndarray,
    v_pad: np.ndarray,
) -> List[Optional[List[float]]]:
    """Per person, the noiseless box around the joints in view, or None
    when no joint is in view or the clipped box is empty.

    pixels (M, 4, 2) are clean joint pixels; half_w and v_pad (M,) the
    box's half width and vertical padding in pixels, as in _box.
    """
    boxes: List[Optional[List[float]]] = [None] * len(pixels)
    u, v = pixels[..., 0], pixels[..., 1]
    seen = _in_view(camera, occluders, u, v)
    rows = np.flatnonzero(seen.any(axis=1))
    # Only rows with a joint in view, so the masked extremes are finite.
    seen, u, v, half_w, v_pad = seen[rows], u[rows], v[rows], half_w[rows], v_pad[rows]
    u_lo = np.maximum(np.where(seen, u, np.inf).min(axis=1) - half_w, 0.0)
    u_hi = np.minimum(np.where(seen, u, -np.inf).max(axis=1) + half_w, camera.image_width - 1.0)
    v_lo = np.maximum(np.where(seen, v, np.inf).min(axis=1) - v_pad, 0.0)
    v_hi = np.minimum(np.where(seen, v, -np.inf).max(axis=1) + v_pad, camera.image_height - 1.0)
    keep = ~(u_hi <= u_lo) & ~(v_hi <= v_lo)
    extents = np.stack(
        [0.5 * (u_lo + u_hi), 0.5 * (v_lo + v_hi), u_hi - u_lo, v_hi - v_lo], axis=1
    )
    for row, box in zip(rows[keep].tolist(), extents[keep].tolist()):
        boxes[row] = box
    return boxes


def _box(
    camera: CameraModel, us: List[float], vs: List[float], half_w: float, v_pad: float
) -> Optional[List[float]]:
    """Box around the pixels (us, vs), widened by half_w and v_pad and
    clipped to the image, or None when that leaves it empty.

    The extremes are taken as np.float64, so every value is np.float64
    unless both of its sides were clipped to the image (then a float).
    """
    u_lo = max(np.float64(min(us)) - half_w, 0.0)
    u_hi = min(np.float64(max(us)) + half_w, camera.image_width - 1.0)
    v_lo = max(np.float64(min(vs)) - v_pad, 0.0)
    v_hi = min(np.float64(max(vs)) + v_pad, camera.image_height - 1.0)
    if u_hi <= u_lo or v_hi <= v_lo:
        return None
    return [0.5 * (u_lo + u_hi), 0.5 * (v_lo + v_hi), u_hi - u_lo, v_hi - v_lo]


def generate(scenario: Scenario) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Render a scenario into (detection stream, ground-truth stream).

    Returns two lists of JSONL-ready records; see streams module for the
    field contract. Detection records carry a "person" index for oracle
    bookkeeping. Identical scenarios (same seed) produce identical output.
    """
    if not scenario.persons:
        raise EmptyScenarioError("scenario has no persons")
    with collection_paused():
        setup = scenario.setup
        camera = setup.camera
        persons = scenario.persons
        n_frames = int(round(scenario.duration * scenario.rate))
        times = [k / scenario.rate for k in range(n_frames)]

        # Everything the noise does not touch, for all frames and persons at once.
        xy = np.array(
            [[person.trajectory.position(t) for person in persons] for t in times], dtype=float
        ).reshape(n_frames, len(persons), 2)
        heights = np.array([list(person.heights().values()) for person in persons])
        front, pixels, depth = _project_persons(setup, heights, xy)
        widths = np.broadcast_to([person.body_width for person in persons], front.shape)[front]
        half_w = 0.5 * camera.fx * widths / depth
        v_pad = camera.fy * BOX_V_PAD_M / depth
        truth_boxes = _truth_boxes(camera, scenario.occluders, pixels, half_w, v_pad)
        # One flat (u0, v0, ..., u3, v3) list per person: nested lists would leave
        # five times as many objects for the garbage collector to promote.
        clean_rows = pixels.reshape(len(pixels), 8).tolist()
        rendered = iter(zip(clean_rows, truth_boxes, half_w.tolist(), v_pad.tolist()))

        # The noise, in the draw order the module docstring fixes.
        rng = np.random.default_rng(scenario.seed)
        sigma = scenario.pixel_noise_sigma
        gaussian = scenario.noise_model == "gaussian"
        full_box = scenario.box_mode == "full"
        occluders = scenario.occluders
        u_last, v_last = camera.image_width - 1, camera.image_height - 1
        joints = [(kind.label, scenario.joint_dropout.get(kind, 0.0)) for kind in JOINT_ORDER]
        hint_pending = scenario.emit_initial_hint

        detections_stream: List[Dict[str, Any]] = []
        truth_stream: List[Dict[str, Any]] = []
        for t, frame_xy, frame_front in zip(times, xy.tolist(), front.tolist()):
            frame_detections: List[Dict[str, Any]] = []
            truth_persons: List[Dict[str, Any]] = []
            target_det_index: Optional[int] = None

            for p_idx, (person_xy, in_front) in enumerate(zip(frame_xy, frame_front)):
                if not in_front:
                    truth_persons.append({"xy": person_xy, "box": None})
                    continue
                clean, truth_box, half_width, pad = next(rendered)
                truth_persons.append({"xy": person_xy, "box": truth_box})

                emitted: Dict[str, List[float]] = {}
                us: List[float] = []
                vs: List[float] = []
                for (label, dropout), u, v in zip(joints, clean[0::2], clean[1::2]):
                    if sigma > 0:
                        if gaussian:
                            du, dv = rng.normal(0.0, sigma, size=2).tolist()
                        else:
                            du, dv = (sigma * rng.standard_t(3, size=2)).tolist()
                        u, v = u + du, v + dv
                    if not (0.0 <= u <= u_last and 0.0 <= v <= v_last):
                        continue
                    if occluders and any(occ.contains((u, v)) for occ in occluders):
                        continue
                    if rng.random() < dropout:
                        continue
                    emitted[label] = [u, v, 1.0]
                    us.append(u)
                    vs.append(v)

                if not emitted:
                    continue
                if full_box:
                    us, vs = clean[0::2], clean[1::2]
                box = _box(camera, us, vs, half_width, pad)
                if box is None:
                    continue
                if p_idx == scenario.target_index:
                    target_det_index = len(frame_detections)
                frame_detections.append({"box": box, "joints": emitted, "person": p_idx})

            det_record: Dict[str, Any] = {"t": t, "detections": frame_detections}
            if hint_pending and target_det_index is not None:
                det_record["reid_hint"] = target_det_index
                hint_pending = False
            detections_stream.append(det_record)
            truth_stream.append(
                {"t": t, "target_index": scenario.target_index, "persons": truth_persons}
            )
        return detections_stream, truth_stream


@dataclass(frozen=True)
class JointLocalizationError:
    """Per-joint single-shot localization error against ground truth."""

    t: float
    person: int
    joint: JointKind
    depth: float
    error_m: float


def localization_errors(
    detections: Sequence[Mapping[str, Any]],
    truth: Sequence[Mapping[str, Any]],
    scenario: Scenario,
) -> List[JointLocalizationError]:
    """Ray-cast every emitted joint and measure the ground-plane error.

    On a noiseless stream every error must vanish (the generator and the
    localizer share the same geometry); with pixel noise the errors grow
    with depth. Detection records must carry the simulator's "person"
    index.
    """
    setup = scenario.setup
    out: List[JointLocalizationError] = []
    for det_frame, truth_frame in zip(detections, truth):
        for det in det_frame.get("detections", []):
            p_idx = det["person"]
            person = scenario.persons[p_idx]
            heights = person.heights()
            xy_true = np.asarray(truth_frame["persons"][p_idx]["xy"], dtype=float)
            for name, (u, v, _conf) in det.get("joints", {}).items():
                kind = JointKind.from_label(name)
                ankle = localize_from_joint(
                    setup.camera, setup.ground, np.array([u, v]), heights[kind]
                )
                xy_est = camera_to_robot(ankle, setup.extrinsics)
                out.append(
                    JointLocalizationError(
                        t=float(det_frame["t"]),
                        person=int(p_idx),
                        joint=kind,
                        depth=float(_ankles(setup, xy_true)[2]),
                        error_m=float(np.linalg.norm(xy_est - xy_true)),
                    )
                )
    return out

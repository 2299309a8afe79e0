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
"""

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .config import CameraSetup
from .errors import EmptyScenarioError
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
    h_neck: float = 1.40
    h_hip: float = 0.95
    h_knee: float = 0.50
    body_width: float = 0.5

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
        if self.rate <= 0 or self.duration <= 0:
            raise ValueError("rate and duration must be positive")
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
                h_neck=float(p.get("h_neck", 1.40)),
                h_hip=float(p.get("h_hip", 0.95)),
                h_knee=float(p.get("h_knee", 0.50)),
                body_width=float(p.get("body_width", 0.5)),
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


def _visible(camera: CameraModel, occluders: Sequence[Occluder], pixel: np.ndarray) -> bool:
    if not camera.contains_pixel(pixel):
        return False
    return not any(occ.contains(pixel) for occ in occluders)


def _ankle(setup: CameraSetup, xy_robot: np.ndarray) -> np.ndarray:
    """Camera-frame ground point under robot ground coordinates (x, y)."""
    ground_z = setup.extrinsics.offset[2] - setup.ground.gamma
    return robot_to_camera([xy_robot[0], xy_robot[1], ground_z], setup.extrinsics)


def _project_joints(
    setup: CameraSetup, person: PersonSpec, xy_robot: np.ndarray
) -> Optional[Tuple[Dict[JointKind, np.ndarray], float]]:
    """Noiseless pixel positions of all four joints and the person's depth,
    or None when the ankle or any joint is behind the camera."""
    ankle = _ankle(setup, xy_robot)
    if ankle[2] <= 1e-6:
        return None
    heights = person.heights()
    joints = joint_position(ankle, setup.ground, list(heights.values()))
    if np.any(joints[:, 2] <= 1e-6):
        return None
    return dict(zip(heights, project_points(setup.camera, joints))), float(ankle[2])


def _box_from_pixels(
    setup: CameraSetup,
    pixels: Sequence[np.ndarray],
    depth: float,
    body_width: float,
) -> Optional[List[float]]:
    if not pixels:
        return None
    us = [p[0] for p in pixels]
    vs = [p[1] for p in pixels]
    half_w = 0.5 * setup.camera.fx * body_width / depth
    v_pad = setup.camera.fy * BOX_V_PAD_M / depth
    u_lo = max(min(us) - half_w, 0.0)
    u_hi = min(max(us) + half_w, setup.camera.image_width - 1.0)
    v_lo = max(min(vs) - v_pad, 0.0)
    v_hi = min(max(vs) + v_pad, setup.camera.image_height - 1.0)
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
    rng = np.random.default_rng(scenario.seed)
    setup = scenario.setup
    n_frames = int(round(scenario.duration * scenario.rate))
    hint_pending = scenario.emit_initial_hint

    detections_stream: List[Dict[str, Any]] = []
    truth_stream: List[Dict[str, Any]] = []

    for k in range(n_frames):
        t = k / scenario.rate
        frame_detections: List[Dict[str, Any]] = []
        truth_persons: List[Dict[str, Any]] = []
        target_det_index: Optional[int] = None

        for p_idx, person in enumerate(scenario.persons):
            xy = person.trajectory.position(t)
            projected = _project_joints(setup, person, xy)
            truth_entry: Dict[str, Any] = {"xy": [float(xy[0]), float(xy[1])]}

            if projected is None:
                truth_entry["box"] = None
                truth_persons.append(truth_entry)
                continue

            clean, depth = projected
            clean_visible = {
                kind: pix
                for kind, pix in clean.items()
                if _visible(setup.camera, scenario.occluders, pix)
            }
            truth_entry["box"] = _box_from_pixels(
                setup, list(clean_visible.values()), depth, person.body_width
            )
            truth_persons.append(truth_entry)

            emitted: Dict[str, List[float]] = {}
            emitted_pixels: List[np.ndarray] = []
            for kind in JOINT_ORDER:
                pix = clean[kind]
                if scenario.pixel_noise_sigma > 0:
                    if scenario.noise_model == "gaussian":
                        noise = rng.normal(0.0, scenario.pixel_noise_sigma, size=2)
                    else:
                        noise = scenario.pixel_noise_sigma * rng.standard_t(3, size=2)
                    pix = pix + noise
                if not _visible(setup.camera, scenario.occluders, pix):
                    continue
                if rng.random() < scenario.joint_dropout.get(kind, 0.0):
                    continue
                emitted[kind.label] = [float(pix[0]), float(pix[1]), 1.0]
                emitted_pixels.append(pix)

            if not emitted:
                continue
            box_pixels = (
                emitted_pixels if scenario.box_mode == "visible" else list(clean.values())
            )
            box = _box_from_pixels(setup, box_pixels, depth, person.body_width)
            if box is None:
                continue
            if p_idx == scenario.target_index:
                target_det_index = len(frame_detections)
            frame_detections.append(
                {"box": box, "joints": emitted, "person": p_idx}
            )

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
                        depth=float(_ankle(setup, xy_true)[2]),
                        error_m=float(np.linalg.norm(xy_est - xy_true)),
                    )
                )
    return out

"""Benchmark inputs: the three workloads, built from a seed.

Every workload is a list of sessions. A session is one simulator scenario
plus an optional rewrite of the simulator's detection records into the
form a real pose detector would emit. Only the records (and the camera
setup and run config) reach the library; the scenario objects stay on the
benchmark's side, where the suite pass times ``generate`` on them.

- ``paper_suite``: the four committed ``scenarios/seq*.json`` sequences.
  Seed 0 keeps their committed noise seeds, so their quality equals
  ``jointtrack bench``; another seed shifts each noise seed by that much.
- ``crowd20``: one long scene with 20 people on arcs, all in view with
  pre-merged joints, the target visible and hinted at t=0.
- ``clutter``: many short sessions with heavy-tailed pixel noise, joint
  dropout and an occluder, rewritten into 17-keypoint COCO records with
  confidences: the target and two companions keep their joints above
  ``min_confidence``, about 24 box-only distractors have every keypoint
  below it, and a ``reid_hint`` marks each re-entry of the target.
"""

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from jointtrack.config import CameraSetup, RunConfig
from jointtrack.geometry import JointKind
from jointtrack.simulator import (
    ArcTrajectory,
    LineTrajectory,
    Occluder,
    PersonSpec,
    Scenario,
)

#: The seed whose inputs define the workloads' quality metrics.
REFERENCE_SEED = 0

CAMERA = {
    "fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
    "image_width": 640, "image_height": 480,
    "camera_height_m": 1.2, "tilt_rad": 0.1,
}

CROWD_PEOPLE = 20
CROWD_DURATION_S = 8.0

CLUTTER_SESSIONS = 8
CLUTTER_DURATION_S = 3.0
CLUTTER_COMPANIONS = 2
CLUTTER_DISTRACTORS = 24

# Detector-style confidences: kept keypoints sit above the default
# min_confidence (0.3), suppressed ones below it.
CONF_KEPT = (0.45, 0.98)
CONF_SUPPRESSED = (0.02, 0.25)

COCO_FACE = ("nose", "left_eye", "right_eye", "left_ear", "right_ear")
COCO_ARMS = ("left_elbow", "right_elbow", "left_wrist", "right_wrist")
COCO_PAIRS = {
    "hip": ("left_hip", "right_hip"),
    "knee": ("left_knee", "right_knee"),
    "ankle": ("left_ankle", "right_ankle"),
}

Records = List[Dict[str, Any]]


@dataclass(frozen=True)
class Session:
    """One tracking session: a scenario and an optional record rewrite."""

    name: str
    scenario: Scenario
    rewrite: Optional[Callable[[Records], Records]] = None


@dataclass(frozen=True)
class Workload:
    name: str
    sessions: Sequence[Session]
    config: RunConfig


def build(name: str, seed: int, root: Path) -> Workload:
    """Inputs of workload ``name`` for ``seed``; ``root`` is the checkout."""
    return Workload(name=name, sessions=WORKLOAD_INPUTS[name](seed, root), config=RunConfig())


def _session_rng(seed: int, *index: int) -> np.random.Generator:
    return np.random.default_rng([seed, *index])


def paper_suite(seed: int, root: Path) -> List[Session]:
    sessions = []
    for path in sorted((root / "scenarios").glob("seq*.json")):
        with open(path, "r", encoding="utf-8") as fh:
            scenario = Scenario.from_dict(json.load(fh))
        scenario = replace(scenario, seed=(scenario.seed + seed) % 2**31)
        sessions.append(Session(name=path.stem, scenario=scenario))
    if not sessions:
        raise FileNotFoundError(f"no scenarios/seq*.json under {root}")
    return sessions


def _person(rng: np.random.Generator, trajectory) -> PersonSpec:
    return PersonSpec(
        trajectory=trajectory,
        h_neck=float(rng.uniform(1.35, 1.60)),
        h_hip=float(rng.uniform(0.88, 1.05)),
        h_knee=float(rng.uniform(0.45, 0.55)),
        body_width=float(rng.uniform(0.45, 0.55)),
    )


def crowd20(seed: int, root: Path) -> List[Session]:
    rng = _session_rng(seed, 20)
    persons = []
    for _ in range(CROWD_PEOPLE):
        radius = float(rng.uniform(0.3, 0.8))
        depth = float(rng.uniform(4.0, 9.0))
        # Keep the whole arc inside the horizontal field of view (half
        # angle ~32 deg) with some margin, so everyone stays in view.
        lateral = float(rng.uniform(-1.0, 1.0)) * (0.5 * (depth - radius) - radius)
        persons.append(
            _person(
                rng,
                ArcTrajectory(
                    center=(depth, lateral),
                    radius=radius,
                    angular_speed=float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.2)),
                    start_angle=float(rng.uniform(0.0, 2.0 * math.pi)),
                ),
            )
        )
    scenario = Scenario(
        setup=CameraSetup.from_dict(CAMERA),
        persons=tuple(persons),
        duration=CROWD_DURATION_S,
        pixel_noise_sigma=2.0,
        seed=int(rng.integers(2**31)),
    )
    return [Session(name="crowd20", scenario=scenario)]


def _clutter_scenario(rng: np.random.Generator) -> Scenario:
    depth = float(rng.uniform(3.0, 6.0))
    lateral = float(rng.uniform(-0.35, 0.35)) * depth
    speed = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4))
    persons = [
        _person(rng, LineTrajectory(start=(depth, lateral), velocity=(float(rng.uniform(-0.3, 0.3)), speed)))
    ]
    for _ in range(CLUTTER_COMPANIONS):
        start = (max(depth + float(rng.uniform(-1.5, 1.5)), 2.5), lateral + float(rng.uniform(-2.0, 2.0)))
        velocity = (float(rng.uniform(-0.3, 0.3)), speed * float(rng.uniform(0.6, 1.2)))
        persons.append(_person(rng, LineTrajectory(start=start, velocity=velocity)))
    for _ in range(CLUTTER_DISTRACTORS):
        d = float(rng.uniform(4.0, 14.0))
        start = (d, float(rng.uniform(-0.55, 0.55)) * d)
        velocity = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
        persons.append(_person(rng, LineTrajectory(start=start, velocity=velocity)))
    u_min = float(rng.uniform(80.0, 500.0))
    occluder = Occluder(u_min, 0.0, u_min + float(rng.uniform(40.0, 100.0)), 480.0)
    return Scenario(
        setup=CameraSetup.from_dict(CAMERA),
        persons=tuple(persons),
        duration=CLUTTER_DURATION_S,
        pixel_noise_sigma=2.0,
        noise_model="student_t",
        joint_dropout={
            JointKind.NECK: 0.1, JointKind.HIP: 0.1,
            JointKind.KNEE: 0.15, JointKind.ANKLE: 0.2,
        },
        occluders=(occluder,),
        seed=int(rng.integers(2**31)),
    )


def clutter(seed: int, root: Path) -> List[Session]:
    sessions = []
    for i in range(CLUTTER_SESSIONS):
        scenario = _clutter_scenario(_session_rng(seed, 30, i))
        rewrite_seed = (seed, 31, i)
        sessions.append(
            Session(
                name=f"clutter{i:02d}",
                scenario=scenario,
                rewrite=lambda records, s=rewrite_seed: to_coco(records, _session_rng(*s)),
            )
        )
    return sessions


def to_coco(records: Records, rng: np.random.Generator) -> Records:
    """Rewrite simulator records as a 17-keypoint COCO detector would emit them.

    Persons 0 (the target) to CLUTTER_COMPANIONS are tracked people: a
    keypoint whose merged joint the simulator emitted gets a confidence
    above min_confidence, the rest are placed from the box and suppressed.
    Every keypoint of the other (distractor) persons is suppressed, so
    they are box-only. Detections are shuffled within a frame, and the
    record carries ``reid_hint`` whenever the target appears after a
    frame without it. The simulator's ``person`` bookkeeping key is
    dropped. Pixels are rounded to 0.01 px and confidences to 0.001, as
    detectors print them.
    """
    out: Records = []
    target_seen = False
    for record in records:
        detections = []
        target_pos = None
        for det in record["detections"]:
            person = det["person"]
            if person == 0:
                target_pos = len(detections)
            detections.append(
                {
                    "box": [round(x, 2) for x in det["box"]],
                    "joints": _coco_keypoints(det, person <= CLUTTER_COMPANIONS, rng),
                }
            )
        order = rng.permutation(len(detections))
        rewritten: Dict[str, Any] = {"t": record["t"], "detections": [detections[i] for i in order]}
        if target_pos is not None and not target_seen:
            rewritten["reid_hint"] = int(np.flatnonzero(order == target_pos)[0])
        target_seen = target_pos is not None
        out.append(rewritten)
    return out


def _coco_keypoints(det: Dict[str, Any], tracked: bool, rng: np.random.Generator) -> Dict[str, List[float]]:
    u, v, w, h = det["box"]
    joints = det["joints"]
    half = 0.15 * w
    keypoints: Dict[str, List[float]] = {}
    draws = iter(rng.random(17).tolist())

    def put(name: str, pu: float, pv: float, kept: bool) -> None:
        lo, hi = CONF_KEPT if kept else CONF_SUPPRESSED
        keypoints[name] = [round(pu, 2), round(pv, 2), round(lo + (hi - lo) * next(draws), 3)]

    neck = joints.get("neck")
    neck_u, neck_v = (neck[0], neck[1]) if neck else (u, v - 0.4 * h)
    # Symmetric shoulders: their midpoint is the simulated neck (to the rounding).
    put("left_shoulder", neck_u - half, neck_v, tracked and neck is not None)
    put("right_shoulder", neck_u + half, neck_v, tracked and neck is not None)
    for name in COCO_FACE:
        put(name, neck_u, neck_v - 0.08 * h, tracked and neck is not None)
    for merged, (left, right) in COCO_PAIRS.items():
        joint = joints.get(merged)
        pv = joint[1] if joint else v
        put(left, u - half, pv, tracked and joint is not None)
        put(right, u + half, pv, tracked and joint is not None)
    hip = joints.get("hip")
    for name in COCO_ARMS:
        put(name, u, hip[1] if hip else v, tracked and hip is not None)
    return keypoints


WORKLOAD_INPUTS: Dict[str, Callable[[int, Path], List[Session]]] = {
    "paper_suite": paper_suite,
    "crowd20": crowd20,
    "clutter": clutter,
}

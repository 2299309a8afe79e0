"""simulator.generate against its per-person form, byte for byte.

The reference below is generate as it was written before its geometry was
batched: one robot_to_camera, joint_position and project_points call per
person and frame, visibility tested pixel by pixel, and every box built
from np.float64 pixels. Batching must not change a byte: on every scenario
both sides give the same write_jsonl text for the detection and truth
streams, the same type (np.float64 or float) for every detection box value
(the benchmark's clutter rewrite calls round(x, 2) on them, which rounds
the two types differently in rare cases), or raise the same exception type.

Digests frozen from one run would not do: numpy does not promise the same
Generator streams across versions, so the reference is run on the numpy at
hand.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtrack.config import CameraSetup
from jointtrack.errors import EmptyScenarioError
from jointtrack.geometry import (
    JOINT_ORDER,
    JointKind,
    RobotExtrinsics,
    joint_position,
    project_points,
    robot_to_camera,
)
from jointtrack.simulator import (
    BOX_V_PAD_M,
    ArcTrajectory,
    LineTrajectory,
    Occluder,
    PersonSpec,
    Scenario,
    SinusoidTrajectory,
    WaypointTrajectory,
    generate,
)
from jointtrack.streams import write_jsonl

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# -- the reference -------------------------------------------------------------


def ref_robot_to_camera(point_robot, extrinsics):
    q = np.asarray(point_robot, dtype=float) - extrinsics.offset
    x_l, y_l, z_l = -q[1], -q[2], q[0]
    c, s = math.cos(extrinsics.tilt), math.sin(extrinsics.tilt)
    return np.array([x_l, c * y_l - s * z_l, s * y_l + c * z_l])


def ref_visible(camera, occluders, pixel):
    u, v = float(pixel[0]), float(pixel[1])
    if not (0.0 <= u <= camera.image_width - 1 and 0.0 <= v <= camera.image_height - 1):
        return False
    return not any(occ.contains(pixel) for occ in occluders)


def ref_ankle(setup, xy_robot):
    ground_z = setup.extrinsics.offset[2] - setup.ground.gamma
    return ref_robot_to_camera([xy_robot[0], xy_robot[1], ground_z], setup.extrinsics)


def ref_project_joints(setup, person, xy_robot):
    ankle = ref_ankle(setup, xy_robot)
    if ankle[2] <= 1e-6:
        return None
    heights = person.heights()
    joints = joint_position(ankle, setup.ground, list(heights.values()))
    if np.any(joints[:, 2] <= 1e-6):
        return None
    return dict(zip(heights, project_points(setup.camera, joints))), float(ankle[2])


def ref_box_from_pixels(setup, pixels, depth, body_width):
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


def ref_generate(scenario):
    if not scenario.persons:
        raise EmptyScenarioError("scenario has no persons")
    rng = np.random.default_rng(scenario.seed)
    setup = scenario.setup
    n_frames = int(round(scenario.duration * scenario.rate))
    hint_pending = scenario.emit_initial_hint

    detections_stream = []
    truth_stream = []

    for k in range(n_frames):
        t = k / scenario.rate
        frame_detections = []
        truth_persons = []
        target_det_index = None

        for p_idx, person in enumerate(scenario.persons):
            xy = person.trajectory.position(t)
            projected = ref_project_joints(setup, person, xy)
            truth_entry = {"xy": [float(xy[0]), float(xy[1])]}

            if projected is None:
                truth_entry["box"] = None
                truth_persons.append(truth_entry)
                continue

            clean, depth = projected
            clean_visible = {
                kind: pix
                for kind, pix in clean.items()
                if ref_visible(setup.camera, scenario.occluders, pix)
            }
            truth_entry["box"] = ref_box_from_pixels(
                setup, list(clean_visible.values()), depth, person.body_width
            )
            truth_persons.append(truth_entry)

            emitted = {}
            emitted_pixels = []
            for kind in JOINT_ORDER:
                pix = clean[kind]
                if scenario.pixel_noise_sigma > 0:
                    if scenario.noise_model == "gaussian":
                        noise = rng.normal(0.0, scenario.pixel_noise_sigma, size=2)
                    else:
                        noise = scenario.pixel_noise_sigma * rng.standard_t(3, size=2)
                    pix = pix + noise
                if not ref_visible(setup.camera, scenario.occluders, pix):
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
            box = ref_box_from_pixels(setup, box_pixels, depth, person.body_width)
            if box is None:
                continue
            if p_idx == scenario.target_index:
                target_det_index = len(frame_detections)
            frame_detections.append({"box": box, "joints": emitted, "person": p_idx})

        det_record = {"t": t, "detections": frame_detections}
        if hint_pending and target_det_index is not None:
            det_record["reid_hint"] = target_det_index
            hint_pending = False
        detections_stream.append(det_record)
        truth_stream.append(
            {"t": t, "target_index": scenario.target_index, "persons": truth_persons}
        )
    return detections_stream, truth_stream


# -- comparison ----------------------------------------------------------------


def jsonl_bytes(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stream.jsonl"
        write_jsonl(path, records)
        return path.read_bytes()


def box_types(detections):
    return [[[type(x) for x in det["box"]] for det in frame["detections"]] for frame in detections]


def outcome(scenario):
    try:
        detections, truth = generate(scenario)
    except Exception as exc:  # the reference must fail the same way
        return type(exc), None
    return None, (detections, truth)


def assert_same(scenario):
    """Both sides' streams for scenario; returns the reference's."""
    try:
        expected = ref_generate(scenario)
    except Exception as exc:
        error, _ = outcome(scenario)
        assert error is type(exc)
        return None
    error, got = outcome(scenario)
    assert error is None
    (ref_dets, ref_truth), (dets, truth) = expected, got
    assert jsonl_bytes(dets) == jsonl_bytes(ref_dets)
    assert jsonl_bytes(truth) == jsonl_bytes(ref_truth)
    assert box_types(dets) == box_types(ref_dets)
    return expected


def emitted_boxes(detections):
    return [x for frame in detections for det in frame["detections"] for x in det["box"]]


def coord(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# -- fixed cases ---------------------------------------------------------------

TILTED = CameraSetup.from_dict(
    {
        "fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0,
        "image_width": 640, "image_height": 480,
        "camera_height_m": 1.2, "tilt_rad": 0.1,
    }
)


def walker(start=(5.0, 0.0), velocity=(-0.4, 0.1), **spec):
    return PersonSpec(trajectory=LineTrajectory(start=start, velocity=velocity), **spec)


def scenario(**kwargs):
    defaults = dict(
        setup=TILTED,
        persons=(walker(), walker(start=(3.0, -1.5), velocity=(0.2, 0.6))),
        duration=4.0,
        pixel_noise_sigma=2.0,
        joint_dropout={JointKind.KNEE: 0.2},
        occluders=(Occluder(250.0, 120.0, 330.0, 300.0),),
        seed=5,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_committed_scenarios_match_reference(path):
    scn = Scenario.from_dict(json.loads(path.read_text(encoding="utf-8")))
    dets, _ = assert_same(scn)
    values = emitted_boxes(dets)
    assert values and all(type(x) is np.float64 for x in values)


CASES = {
    "gaussian": {},
    "student_t": dict(noise_model="student_t", pixel_noise_sigma=3.0),
    "full_box": dict(box_mode="full"),
    "noiseless": dict(pixel_noise_sigma=0.0),
    "noiseless_full_box": dict(pixel_noise_sigma=0.0, box_mode="full"),
    "dropout_one_under_occluder": dict(
        joint_dropout={JointKind.NECK: 1.0, JointKind.HIP: 1.0},
        occluders=(Occluder(0.0, 300.0, 640.0, 480.0), Occluder(100.0, 0.0, 200.0, 480.0)),
    ),
    "walks_behind_camera": dict(
        persons=(walker(start=(2.0, 0.3), velocity=(-1.5, 0.0)), walker()), duration=3.0
    ),
    "sinusoid_and_waypoints": dict(
        persons=(
            PersonSpec(trajectory=SinusoidTrajectory(start=(5.0, 1.0), velocity=(0.0, -0.6))),
            PersonSpec(
                trajectory=WaypointTrajectory(
                    points=((6.0, -2.0), (3.0, 0.0), (3.0, 0.0), (4.0, 2.0)), speed=1.2
                )
            ),
            PersonSpec(
                trajectory=ArcTrajectory(center=(4.0, 0.0), radius=1.0, angular_speed=0.9)
            ),
        ),
        target_index=1,
    ),
    "no_hint": dict(emit_initial_hint=False, target_index=1),
    "shorter_than_a_frame": dict(duration=0.01),
}


@pytest.mark.parametrize("overrides", list(CASES.values()), ids=list(CASES))
def test_variants_match_reference(overrides):
    dets, _ = assert_same(scenario(**overrides))
    assert all(type(x) is np.float64 for x in emitted_boxes(dets))


def test_box_value_types_follow_the_reference_when_both_sides_clip():
    # Up close the padded box overruns both image edges: a value whose two
    # sides are clipped is a float, the others stay np.float64.
    close = walker(start=(0.9, 0.0), velocity=(0.3, 0.0), body_width=1.5)
    dets, _ = assert_same(scenario(persons=(close,), duration=2.0, box_mode="full"))
    types = {type(x) for x in emitted_boxes(dets)}
    assert types == {float, np.float64}


def test_pixels_and_depths_on_the_limits():
    # Level camera at hip height: a person at robot x = 1e-6 m stands at
    # exactly the render depth limit (not rendered, though the hip would
    # land on the principal point); at (5, -3.19) every joint lands on the
    # last image column, u = 639, and at (5, -0.01) on an occluder's left
    # edge, u = 321; at 1e17 m all four joints share v = 240, so the truth
    # box has no height.
    level = CameraSetup.from_dict(dict(TILTED.to_dict(), camera_height_m=0.95, tilt_rad=0.0))
    persons = tuple(
        walker(start=xy, velocity=(0.0, 0.0), h_hip=0.95, body_width=width)
        for xy, width in [((1e-6, 0.0), 0.5), ((5.0, -3.19), 0.5), ((5.0, -0.01), 0.5),
                          ((1e17, 0.0), 1e3)]
    )
    occluder = Occluder(321.0, 0.0, 400.0, 480.0)
    dets, truth = assert_same(
        scenario(setup=level, persons=persons, occluders=(occluder,), pixel_noise_sigma=0.0,
                 joint_dropout={}, duration=0.1)
    )
    for det_frame, truth_frame in zip(dets, truth):
        assert [p["box"] is None for p in truth_frame["persons"]] == [True, False, True, True]
        (edge,) = det_frame["detections"]
        assert edge["person"] == 1
        assert [u for u, _, _ in edge["joints"].values()] == [639.0] * 4


def test_empty_scenario_raises_like_reference():
    with pytest.raises(EmptyScenarioError):
        generate(scenario(persons=()))
    assert_same(scenario(persons=()))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.tuples(*[st.floats(allow_nan=True, allow_infinity=True, width=64)] * 3),
    coord(-1.6, 1.6),
    st.tuples(*[coord(-2.0, 2.0)] * 3),
)
def test_one_point_robot_to_camera_matches_reference(point, tilt, offset):
    ext = RobotExtrinsics(offset=np.array(offset), tilt=tilt)
    with np.errstate(all="ignore"):
        expected = ref_robot_to_camera(point, ext)
        got = robot_to_camera(point, ext)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# -- drawn scenarios -----------------------------------------------------------


@st.composite
def trajectories(draw):
    kind = draw(st.sampled_from(["line", "arc", "sinusoid", "waypoints"]))
    start = (draw(coord(-1.0, 9.0)), draw(coord(-4.0, 4.0)))
    velocity = (draw(coord(-1.5, 1.5)), draw(coord(-1.5, 1.5)))
    if kind == "line":
        return LineTrajectory(start=start, velocity=velocity)
    if kind == "arc":
        radius = draw(coord(0.1, 2.0))
        return ArcTrajectory(
            center=start,
            radius=radius,
            angular_speed=draw(coord(-1.0, 1.0)) * 2.9 / radius,
            start_angle=draw(coord(-math.pi, math.pi)),
        )
    if kind == "sinusoid":
        return SinusoidTrajectory(
            start=start, velocity=velocity, amplitude=draw(coord(0.0, 0.2)),
            period=draw(coord(1.0, 6.0)),
        )
    points = draw(st.lists(st.tuples(coord(-1.0, 9.0), coord(-4.0, 4.0)), min_size=2, max_size=4))
    return WaypointTrajectory(points=tuple(points), speed=draw(coord(0.1, 3.0)))


@st.composite
def persons(draw):
    h_knee = draw(coord(0.3, 0.6))
    h_hip = h_knee + draw(coord(0.2, 0.6))
    return PersonSpec(
        trajectory=draw(trajectories()),
        h_neck=h_hip + draw(coord(0.2, 0.7)),
        h_hip=h_hip,
        h_knee=h_knee,
        body_width=draw(coord(0.2, 1.2)),
    )


@st.composite
def occluders(draw):
    u_min, v_min = draw(coord(-50.0, 600.0)), draw(coord(-50.0, 450.0))
    return Occluder(u_min, v_min, u_min + draw(coord(0.0, 300.0)), v_min + draw(coord(0.0, 300.0)))


@st.composite
def scenarios(draw):
    setup = CameraSetup.from_dict(
        {
            "fx": draw(coord(200.0, 900.0)), "fy": draw(coord(200.0, 900.0)),
            "cx": draw(coord(100.0, 500.0)), "cy": draw(coord(100.0, 380.0)),
            "image_width": 640, "image_height": 480,
            "camera_height_m": draw(coord(0.3, 2.0)),
            "tilt_rad": draw(coord(-0.3, 0.8)),
            "robot_offset_m": [
                draw(coord(-0.5, 0.5)), draw(coord(-0.5, 0.5)), draw(coord(0.0, 1.5))
            ],
        }
    )
    people = tuple(draw(st.lists(persons(), min_size=1, max_size=3)))
    return Scenario(
        setup=setup,
        persons=people,
        duration=draw(coord(0.01, 1.5)),
        rate=draw(coord(5.0, 30.0)),
        pixel_noise_sigma=draw(st.sampled_from([0.0, 0.5, 2.0, 8.0])),
        noise_model=draw(st.sampled_from(["gaussian", "student_t"])),
        joint_dropout=draw(
            st.dictionaries(st.sampled_from(JOINT_ORDER), st.sampled_from([0.0, 0.3, 1.0]))
        ),
        occluders=tuple(draw(st.lists(occluders(), max_size=2))),
        box_mode=draw(st.sampled_from(["visible", "full"])),
        target_index=draw(st.integers(0, len(people) - 1)),
        emit_initial_hint=draw(st.booleans()),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(scenarios())
def test_drawn_scenarios_match_reference(scn):
    assert_same(scn)


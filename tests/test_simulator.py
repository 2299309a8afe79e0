"""Tests for synthetic scene generation and its localization oracle."""

import json

import numpy as np
import pytest

from jointtrack.config import CameraSetup
from jointtrack.errors import EmptyScenarioError
from jointtrack.geometry import JOINT_ORDER, JointKind, joint_position, project, robot_to_camera
from jointtrack.simulator import (
    ArcTrajectory,
    LineTrajectory,
    Occluder,
    PersonSpec,
    Scenario,
    SinusoidTrajectory,
    WaypointTrajectory,
    _project_persons,
    generate,
    localization_errors,
    trajectory_from_dict,
)

LEVEL_SETUP = CameraSetup.from_dict(
    {
        "fx": 500.0,
        "fy": 500.0,
        "cx": 320.0,
        "cy": 240.0,
        "image_width": 640,
        "image_height": 480,
        "camera_height_m": 0.5,
        "tilt_rad": 0.0,
    }
)

TILTED_SETUP = CameraSetup.from_dict(
    {
        "fx": 500.0,
        "fy": 500.0,
        "cx": 320.0,
        "cy": 240.0,
        "image_width": 640,
        "image_height": 480,
        "camera_height_m": 1.2,
        "tilt_rad": 0.1,
    }
)


def scenario(**kwargs):
    defaults = dict(
        setup=TILTED_SETUP,
        persons=(
            PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.0), velocity=(-0.4, 0.1))),
        ),
        duration=4.0,
        rate=30.0,
        seed=5,
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestTrajectories:
    def test_line(self):
        traj = LineTrajectory(start=(2.0, 1.0), velocity=(0.5, -0.25))
        np.testing.assert_allclose(traj.position(4.0), [4.0, 0.0])

    def test_speed_cap(self):
        with pytest.raises(ValueError):
            LineTrajectory(start=(0, 0), velocity=(3.5, 0.0))
        with pytest.raises(ValueError):
            ArcTrajectory(center=(0, 0), radius=4.0, angular_speed=1.0)

    def test_arc_radius(self):
        traj = ArcTrajectory(center=(3.0, 0.0), radius=1.5, angular_speed=0.5)
        for t in np.linspace(0, 8, 17):
            assert np.linalg.norm(traj.position(t) - [3.0, 0.0]) == pytest.approx(1.5)

    def test_sinusoid_oscillates_about_line(self):
        traj = SinusoidTrajectory(start=(4.0, 0.0), velocity=(0.0, 0.5), amplitude=0.3, period=2.0)
        assert traj.position(0.5)[0] == pytest.approx(4.0 - 0.3)  # lateral normal points to -x
        assert traj.position(1.0)[0] == pytest.approx(4.0)

    def test_waypoints_constant_speed(self):
        traj = WaypointTrajectory(points=((0.0, 0.0), (2.0, 0.0), (2.0, 2.0)), speed=1.0)
        np.testing.assert_allclose(traj.position(1.0), [1.0, 0.0])
        np.testing.assert_allclose(traj.position(3.0), [2.0, 1.0])
        np.testing.assert_allclose(traj.position(99.0), [2.0, 2.0])  # clamps at the end

    def test_from_dict_dispatch(self):
        traj = trajectory_from_dict({"kind": "line", "start": [1, 2], "velocity": [0.1, 0.0]})
        assert isinstance(traj, LineTrajectory)
        with pytest.raises(ValueError):
            trajectory_from_dict({"kind": "teleport"})


class TestGenerate:
    def test_noiseless_detections_equal_forward_projection(self):
        scn = scenario(pixel_noise_sigma=0.0)
        dets, truth = generate(scn)
        person = scn.persons[0]
        ground_z = scn.setup.extrinsics.offset[2] - scn.setup.ground.gamma
        for det_frame, truth_frame in zip(dets, truth):
            if not det_frame["detections"]:
                continue
            xy = truth_frame["persons"][0]["xy"]
            ankle = robot_to_camera([xy[0], xy[1], ground_z], scn.setup.extrinsics)
            for name, (u, v, conf) in det_frame["detections"][0]["joints"].items():
                h = person.heights()[JointKind.from_label(name)]
                expected = project(scn.setup.camera, joint_position(ankle, scn.setup.ground, h))
                np.testing.assert_allclose([u, v], expected, atol=1e-12)
                assert conf == 1.0

    def test_seed_determinism(self):
        scn = scenario(pixel_noise_sigma=2.0, joint_dropout={JointKind.KNEE: 0.2})
        out1 = generate(scn)
        out2 = generate(scn)
        assert json.dumps(out1) == json.dumps(out2)

    def test_different_seed_differs(self):
        a = generate(scenario(pixel_noise_sigma=2.0, seed=1))
        b = generate(scenario(pixel_noise_sigma=2.0, seed=2))
        assert json.dumps(a) != json.dumps(b)

    def test_emitted_joints_inside_image_and_outside_occluders(self):
        occ = Occluder(u_min=200.0, v_min=100.0, u_max=420.0, v_max=200.0)
        scn = scenario(pixel_noise_sigma=3.0, occluders=(occ,), duration=6.0)
        dets, _ = generate(scn)
        cam = scn.setup.camera
        seen = 0
        for frame in dets:
            for det in frame["detections"]:
                for u, v, _ in det["joints"].values():
                    seen += 1
                    assert 0 <= u <= cam.image_width - 1
                    assert 0 <= v <= cam.image_height - 1
                    assert not occ.contains(np.array([u, v]))
        assert seen > 0

    def test_box_contains_emitted_joints(self):
        scn = scenario(pixel_noise_sigma=2.0, duration=6.0)
        dets, _ = generate(scn)
        for frame in dets:
            for det in frame["detections"]:
                u, v, w, h = det["box"]
                for ju, jv, _ in det["joints"].values():
                    assert u - w / 2 - 1e-9 <= ju <= u + w / 2 + 1e-9
                    assert v - h / 2 - 1e-9 <= jv <= v + h / 2 + 1e-9

    def test_neck_crossover_distance_on_level_camera(self):
        # Level camera at 0.5 m, neck at 1.45 m: the neck leaves the top
        # edge at d* = fy (h_neck - gamma) / cy = 500 * 0.95 / 240.
        person = PersonSpec(
            trajectory=LineTrajectory(start=(6.0, 0.0), velocity=(-0.52, 0.0)),
            h_neck=1.45,
            h_hip=0.95,
            h_knee=0.50,
        )
        scn = Scenario(
            setup=LEVEL_SETUP, persons=(person,), duration=10.0, rate=30.0, seed=7
        )
        d_star = 500.0 * (1.45 - 0.5) / 240.0
        dets, truth = generate(scn)
        for det_frame, truth_frame in zip(dets, truth):
            if not det_frame["detections"]:
                continue
            d = truth_frame["persons"][0]["xy"][0]
            has_neck = "neck" in det_frame["detections"][0]["joints"]
            if abs(d - d_star) < 0.02:  # skip the boundary frame
                continue
            assert has_neck == (d > d_star)

    def test_two_person_crossing_with_occluder(self):
        # The occluder sits where the crosser passes; during the overlap
        # the target loses the joints inside the rectangle.
        occ = Occluder(u_min=280.0, v_min=0.0, u_max=360.0, v_max=480.0)
        target = PersonSpec(trajectory=LineTrajectory(start=(5.0, 2.0), velocity=(0.0, -1.0)))
        crosser = PersonSpec(trajectory=LineTrajectory(start=(3.5, -2.0), velocity=(0.0, 1.0)))
        scn = scenario(persons=(target, crosser), occluders=(occ,), duration=4.0)
        dets, _ = generate(scn)
        full = {k.label for k in JointKind}
        target_joint_counts = [
            len(d["joints"])
            for frame in dets
            for d in frame["detections"]
            if d["person"] == 0
        ]
        assert min(target_joint_counts) < 4  # occluder bites
        assert max(target_joint_counts) == 4

    def test_empty_scenario_rejected(self):
        with pytest.raises(EmptyScenarioError):
            generate(scenario(persons=()))

    def test_full_box_mode_keeps_whole_body_extent(self):
        # An upper-body occluder shrinks visible-mode boxes; full mode
        # keeps boxing the whole body.
        occ = Occluder(u_min=0.0, v_min=0.0, u_max=640.0, v_max=200.0)
        person = PersonSpec(trajectory=LineTrajectory(start=(3.0, 0.0), velocity=(0.0, 0.0)))
        heights = {}
        for mode in ("visible", "full"):
            scn = scenario(persons=(person,), occluders=(occ,), box_mode=mode, duration=1.0)
            dets, _ = generate(scn)
            det = dets[0]["detections"][0]
            assert "neck" not in det["joints"]  # occluder really bites
            heights[mode] = det["box"][3]
        assert heights["full"] > heights["visible"]

    def test_student_t_noise_mode(self):
        scn = scenario(pixel_noise_sigma=2.0, noise_model="student_t")
        dets, _ = generate(scn)
        assert any(frame["detections"] for frame in dets)

    def test_initial_hint_emitted_once(self):
        dets, _ = generate(scenario())
        assert dets[0].get("reid_hint") == 0
        assert all("reid_hint" not in frame for frame in dets[1:])


class TestScenarioValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate", 0.0),
            ("rate", -30.0),
            ("rate", float("nan")),
            ("rate", float("inf")),
            ("duration", 0.0),
            ("duration", float("nan")),
            ("duration", float("inf")),
            ("duration", -float("inf")),
            ("duration", 1e308),  # duration * rate overflows
            ("pixel_noise_sigma", -3.0),
            ("pixel_noise_sigma", -0.5),
            ("pixel_noise_sigma", float("nan")),
            ("pixel_noise_sigma", float("inf")),
        ],
    )
    def test_rejects_invalid_timing_and_noise(self, field, value):
        message = "pixel_noise_sigma" if field == "pixel_noise_sigma" else "rate and duration"
        with pytest.raises(ValueError, match=message):
            scenario(**{field: value})

    def test_accepts_zero_noise_and_a_scene_shorter_than_a_frame(self):
        dets, truth = generate(scenario(pixel_noise_sigma=0.0, duration=0.01))
        assert dets == [] and truth == []


class TestLocalizationOracle:
    def test_noiseless_stream_has_zero_error(self):
        scn = scenario(pixel_noise_sigma=0.0)
        dets, truth = generate(scn)
        errors = localization_errors(dets, truth, scn)
        assert errors
        assert max(e.error_m for e in errors) < 1e-9

    def test_noisy_error_grows_with_depth(self):
        person = PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.0), velocity=(-0.5, 0.0)))
        scn = scenario(persons=(person,), pixel_noise_sigma=2.0, duration=8.0, seed=11)
        dets, truth = generate(scn)
        errors = localization_errors(dets, truth, scn)
        near = [e.error_m for e in errors if 1.5 < e.depth < 2.5]
        far = [e.error_m for e in errors if 4.0 < e.depth < 5.0]
        assert np.median(far) > np.median(near)

    def test_ankle_only_median_error_at_3m(self):
        person = PersonSpec(trajectory=LineTrajectory(start=(3.0, 0.0), velocity=(0.0, 0.0)))
        scn = scenario(
            persons=(person,),
            pixel_noise_sigma=1.0,
            duration=30.0,
            seed=13,
            joint_dropout={JointKind.NECK: 1.0, JointKind.HIP: 1.0, JointKind.KNEE: 1.0},
        )
        dets, truth = generate(scn)
        errors = localization_errors(dets, truth, scn)
        assert all(e.joint is JointKind.ANKLE for e in errors)
        assert np.median([e.error_m for e in errors]) < 0.15


def loop_project_joints(setup, person, xy_robot):
    """Reference: each joint lifted and projected on its own, with the
    pinhole model inline, and the depth from a second ankle computation."""
    ground_z = setup.extrinsics.offset[2] - setup.ground.gamma
    ankle = robot_to_camera([xy_robot[0], xy_robot[1], ground_z], setup.extrinsics)
    if ankle[2] <= 1e-6:
        return None
    cam = setup.camera
    out = {}
    for kind, h in person.heights().items():
        joint = np.asarray(ankle, dtype=float) + float(h) * setup.ground.normal
        if joint[2] <= 1e-6:
            return None
        z = joint[2]
        out[kind] = np.array([cam.fx * joint[0] / z + cam.cx, cam.fy * joint[1] / z + cam.cy])
    depth = robot_to_camera([xy_robot[0], xy_robot[1], ground_z], setup.extrinsics)[2]
    return out, float(depth)


class TestProjectJoints:
    @pytest.mark.parametrize(
        "setup",
        [
            LEVEL_SETUP,
            TILTED_SETUP,
            CameraSetup.from_dict(
                dict(TILTED_SETUP.to_dict(), tilt_rad=1.2, robot_offset_m=[0.2, -0.1, 1.0])
            ),
        ],
        ids=["level", "tilted", "steep-offset"],
    )
    def test_equals_per_joint_loop(self, setup):
        rng = np.random.default_rng(41)
        persons, positions = [], []
        for _ in range(300):
            h_knee = rng.uniform(0.3, 0.6)
            h_hip = h_knee + rng.uniform(0.2, 0.6)
            persons.append(
                PersonSpec(
                    trajectory=LineTrajectory(start=(0.0, 0.0), velocity=(0.0, 0.0)),
                    h_neck=h_hip + rng.uniform(0.2, 0.7),
                    h_hip=h_hip,
                    h_knee=h_knee,
                )
            )
            positions.append(rng.uniform([-2.0, -5.0], [10.0, 5.0]))
        heights = np.array([list(person.heights().values()) for person in persons])
        front, pixels, depths = _project_persons(setup, heights, np.array(positions))
        assert front.shape == (300,)
        assert pixels.shape == (int(front.sum()), 4, 2)
        assert depths.shape == (int(front.sum()),)
        outcomes = set()
        row = 0
        for person, xy, in_front in zip(persons, positions, front):
            expected = loop_project_joints(setup, person, xy)
            outcomes.add(expected is None)
            if expected is None:
                assert not in_front
                continue
            assert in_front
            ref_pixels, ref_depth = expected
            assert depths[row] == ref_depth
            assert list(ref_pixels) == list(JOINT_ORDER)
            for j, kind in enumerate(JOINT_ORDER):
                assert np.array_equal(pixels[row, j], ref_pixels[kind])
            row += 1
        assert outcomes == {True, False}


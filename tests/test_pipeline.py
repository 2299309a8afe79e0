"""Tests for joint-pair merging, the tracking session and track lifecycle."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from jointtrack.association import BoundingBox
from jointtrack.config import CameraSetup, RunConfig
from jointtrack.errors import (
    InvalidFrameError,
    JointTrackError,
    NonMonotonicTimestampError,
    SigmaPointFailureError,
    UninitializedSessionError,
)
from jointtrack.geometry import JOINT_ORDER, JointKind
from jointtrack.pipeline import (
    Frame,
    JointDetection,
    SessionStatus,
    TrackRecord,
    TrackStatus,
    TrackingSession,
    _Track,
)
from jointtrack.prior import PriorModel
from jointtrack.simulator import (
    LineTrajectory,
    Occluder,
    PersonSpec,
    Scenario,
    generate,
)
from jointtrack.streams import detection_frame_from_record, result_to_record
from jointtrack.ukf import TrackState

SETUP = CameraSetup.from_dict(
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

BOX = BoundingBox(u=400.0, v=300.0, w=80.0, h=260.0)


def ingest_merge(raw, box, min_confidence):
    """The merged joints of a record holding one detection, whose keypoints
    raw maps each name to [u, v, conf]."""
    record = {"t": 0.5, "detections": [{"box": box.to_list(), "joints": raw}]}
    (detection,) = detection_frame_from_record(record, min_confidence).detections
    return detection.joints


def run_stream(records, config=None, setup=SETUP):
    config = config or RunConfig()
    session = TrackingSession(setup.camera, setup.ground, config, setup.extrinsics)
    results = []
    for record in records:
        frame = detection_frame_from_record(record, config.min_confidence)
        results.append(session.process_frame(frame))
    return results


def single_person_stream(**kwargs):
    defaults = dict(
        setup=SETUP,
        persons=(
            PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.3), velocity=(-0.3, 0.05))),
        ),
        duration=4.0,
        rate=30.0,
        pixel_noise_sigma=0.0,
        seed=1,
    )
    defaults.update(kwargs)
    return generate(Scenario(**defaults))


class TestJointDetection:
    def test_float_pair_array_is_kept_as_is(self):
        pixel = np.array([10.0, 20.0])
        assert JointDetection(pixel=pixel, confidence=0.5).pixel is pixel

    @pytest.mark.parametrize(
        "pixel",
        [
            [10, 20.5],
            (10.0, 20.0),
            np.array([10, 20]),
            np.array([[10.0, 20.0]]),
            np.array([10.0, 20.0], dtype=np.float32),
            np.array([10.0, 20.0], dtype=">f8"),
            np.array([10.0, 20.0, 30.0, 40.0])[::2],
        ],
        ids=["list", "tuple", "int-array", "row-array", "float32", "big-endian", "strided"],
    )
    def test_other_pixels_convert_as_before(self, pixel):
        before = np.asarray(pixel, dtype=float).reshape(2)
        after = JointDetection(pixel=pixel, confidence=0.5).pixel
        assert type(after) is np.ndarray and after.dtype == before.dtype == np.float64
        assert after.shape == (2,) and after.tobytes() == before.tobytes()

    @pytest.mark.parametrize(
        "pixel",
        [[1.0, 2.0, 3.0], np.array([1.0, 2.0, 3.0]), np.array([[1.0], [2.0], [3.0]]), ["a", 2.0], None],
        ids=["three-list", "three-array", "three-column", "string", "none"],
    )
    def test_bad_pixels_fail_as_before(self, pixel):
        with pytest.raises((ValueError, TypeError)) as before:
            np.asarray(pixel, dtype=float).reshape(2)
        with pytest.raises(before.type):
            JointDetection(pixel=pixel, confidence=0.5)


class TestMergeJointPairs:
    def test_both_ankles_average(self):
        raw = {
            "left_ankle": [380.0, 700.0, 0.9],
            "right_ankle": [430.0, 710.0, 0.8],
        }
        merged = ingest_merge(raw, BOX, 0.3)
        np.testing.assert_allclose(merged[JointKind.ANKLE].pixel, [400.0, 705.0])
        assert merged[JointKind.ANKLE].confidence == pytest.approx(0.85)

    def test_single_knee_uses_box_center_u(self):
        raw = {"left_knee": [380.0, 600.0, 0.9]}
        merged = ingest_merge(raw, BOX, 0.3)
        np.testing.assert_allclose(merged[JointKind.KNEE].pixel, [400.0, 600.0])

    def test_low_confidence_pair_dropped(self):
        raw = {
            "left_hip": [390.0, 500.0, 0.1],
            "right_hip": [410.0, 505.0, 0.1],
        }
        merged = ingest_merge(raw, BOX, 0.3)
        assert JointKind.HIP not in merged

    def test_shoulder_midpoint_becomes_neck(self):
        raw = {
            "left_shoulder": [380.0, 330.0, 0.9],
            "right_shoulder": [420.0, 336.0, 0.7],
        }
        merged = ingest_merge(raw, BOX, 0.3)
        np.testing.assert_allclose(merged[JointKind.NECK].pixel, [400.0, 333.0])
        assert merged[JointKind.NECK].confidence == pytest.approx(0.8)

    def test_premerged_names_pass_through(self):
        raw = {"neck": [402.0, 331.0, 0.95], "ankle": [401.0, 707.0, 0.9]}
        merged = ingest_merge(raw, BOX, 0.3)
        np.testing.assert_allclose(merged[JointKind.NECK].pixel, [402.0, 331.0])
        np.testing.assert_allclose(merged[JointKind.ANKLE].pixel, [401.0, 707.0])

    def test_unknown_keypoints_ignored(self):
        raw = {"nose": [400.0, 300.0, 0.99], "left_wrist": [350.0, 450.0, 0.9]}
        assert ingest_merge(raw, BOX, 0.3) == {}

    def test_single_shoulder_becomes_neck(self):
        raw = {
            "left_shoulder": [380.0, 330.0, 0.1],
            "right_shoulder": [420.0, 336.0, 0.7],
        }
        merged = ingest_merge(raw, BOX, 0.3)
        assert set(merged) == {JointKind.NECK}
        np.testing.assert_array_equal(merged[JointKind.NECK].pixel, [420.0, 336.0])
        assert merged[JointKind.NECK].confidence == 0.7

    def test_pair_means_are_bitwise_np_mean(self):
        rng = np.random.default_rng(5)
        tiny = np.finfo(float).tiny
        special = [0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, 1e308, -1e308, np.inf, -np.inf, np.nan]
        values = np.concatenate(
            [
                rng.uniform(-1e4, 1e4, 300),
                rng.uniform(-1.0, 1.0, 100) * 1e308,
                rng.uniform(-1.0, 1.0, 100) * tiny,
            ]
        ).tolist()
        confs = np.concatenate(
            [rng.uniform(0.0, 1.0, 400), rng.uniform(0.0, 1.0, 100) * tiny]
        ).tolist()
        members = (
            list(zip(values, values[1:] + values[:1], confs, confs[1:] + confs[:1]))
            + [(a, b, 0.5, 0.5) for a in special for b in special]
            + [(a, None, c, None) for a in values + special for c in (0.0, -0.0, 5e-324, 0.7)]
            + [(0.5, 0.5, a, b) for a in (0.0, -0.0, 5e-324, 1.0) for b in (0.0, -0.0, 5e-324)]
        )
        for kind, (left, right) in [
            (JointKind.HIP, ("left_hip", "right_hip")),
            (JointKind.KNEE, ("left_knee", "right_knee")),
            (JointKind.ANKLE, ("left_ankle", "right_ankle")),
        ]:
            for v0, v1, c0, c1 in members:
                raw = {left: [1.0, v0, c0]}
                if v1 is not None:
                    raw[right] = [2.0, v1, c1]
                obs = ingest_merge(raw, BOX, 0.0)[kind]
                vs = [v0] if v1 is None else [v0, v1]
                cs = [c0] if c1 is None else [c0, c1]
                with np.errstate(over="ignore", invalid="ignore"):
                    v_mean, c_mean = np.float64(np.mean(vs)), np.float64(np.mean(cs))
                assert obs.pixel[0] == BOX.u
                assert obs.pixel[1:].tobytes() == v_mean.tobytes()
                assert np.float64(obs.confidence).tobytes() == c_mean.tobytes()

    def test_negative_confidence_is_dropped(self):
        raw = {"neck": [402.0, 331.0, -0.5], "left_hip": [390.0, 500.0, -1e-9]}
        assert ingest_merge(raw, BOX, 0.3) == {}
        assert ingest_merge(raw, BOX, 0.0) == {}

    def test_null_pixel_reads_as_nan(self):
        raw = {"neck": [None, 331.0, 0.9], "left_hip": [390.0, None, 0.8]}
        merged = ingest_merge(raw, BOX, 0.3)
        neck, hip = merged[JointKind.NECK].pixel, merged[JointKind.HIP].pixel
        assert np.isnan(neck[0]) and neck[1] == 331.0
        assert hip[0] == BOX.u and np.isnan(hip[1])


class TestSessionLifecycle:
    def test_requires_camera_ground_config(self):
        with pytest.raises(UninitializedSessionError):
            TrackingSession(None, SETUP.ground, RunConfig())
        with pytest.raises(UninitializedSessionError):
            TrackingSession(SETUP.camera, None, RunConfig())
        with pytest.raises(UninitializedSessionError):
            TrackingSession(SETUP.camera, SETUP.ground, None)

    def test_timestamps_must_increase(self):
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        session.process_frame(Frame(timestamp=1.0))
        with pytest.raises(NonMonotonicTimestampError):
            session.process_frame(Frame(timestamp=1.0))
        with pytest.raises(NonMonotonicTimestampError):
            session.process_frame(Frame(timestamp=0.5))

    def test_uninitialized_until_usable_detection(self):
        dets, _ = single_person_stream()
        empty = {"t": -1.0, "detections": []}
        results = run_stream([empty] + dets[:2])
        assert results[0].status is SessionStatus.UNINITIALIZED
        assert results[0].target_location is None
        assert results[1].status is SessionStatus.TRACKING
        assert results[1].target_location is not None

    def test_tracks_noiseless_walk(self):
        dets, truth = single_person_stream()
        results = run_stream(dets)
        assert all(r.status is SessionStatus.TRACKING for r in results)
        final_err = np.linalg.norm(
            results[-1].target_location - np.array(truth[-1]["persons"][0]["xy"])
        )
        assert final_err < 1e-3

    def test_static_person_error_below_1mm_after_frame_5(self):
        dets, truth = single_person_stream(
            persons=(PersonSpec(trajectory=LineTrajectory(start=(4.0, 0.0), velocity=(0.0, 0.0))),)
        )
        results = run_stream(dets)
        for res, tr in list(zip(results, truth))[5:]:
            assert res.status is SessionStatus.TRACKING
            err = np.linalg.norm(res.target_location - np.array(tr["persons"][0]["xy"]))
            assert err < 1e-3

    def test_lost_by_frame_16_without_detections(self):
        dets, _ = single_person_stream()
        stream = dets[:1]
        t0 = dets[0]["t"]
        for k in range(1, 31):
            stream.append({"t": t0 + k / 30.0, "detections": []})
        results = run_stream(stream)
        # frame 0 initializes; misses accumulate from frame 1 on
        statuses = [r.status for r in results]
        assert statuses[15] is SessionStatus.TRACKING  # 15th miss: still coasting
        assert statuses[16] is SessionStatus.LOST  # 16th miss exceeds the budget
        assert all(s is SessionStatus.LOST for s in statuses[16:])
        assert all(r.target_location is None for r in results if r.status is not SessionStatus.TRACKING)

    def test_exactly_one_target_track(self):
        dets, _ = single_person_stream(
            persons=(
                PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.5), velocity=(-0.3, 0.0))),
                PersonSpec(trajectory=LineTrajectory(start=(4.0, -1.0), velocity=(0.0, 0.3))),
            ),
        )
        results = run_stream(dets)
        for res in results:
            if res.status is SessionStatus.UNINITIALIZED:
                continue
            assert sum(tr.is_target for tr in res.tracks) == 1

    def test_detection_partition_invariant(self):
        dets, _ = single_person_stream(
            persons=(
                PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.5), velocity=(-0.3, 0.0))),
                PersonSpec(trajectory=LineTrajectory(start=(4.0, -1.0), velocity=(0.0, 0.3))),
            ),
            pixel_noise_sigma=1.0,
        )
        results = run_stream(dets)
        for rec, res in zip(dets, results):
            n = len(rec["detections"])
            seen = sorted(
                [j for _, j in res.matches]
                + [j for _, j in res.spawned]
                + list(res.unmatched_detections)
            )
            assert seen == list(range(n))

    def test_determinism(self):
        dets, _ = single_person_stream(pixel_noise_sigma=1.5, seed=9)
        logs = []
        for _ in range(2):
            results = run_stream(dets)
            logs.append(json.dumps([result_to_record(r) for r in results]))
        assert logs[0] == logs[1]


class TestTargetReinitialization:
    def test_reid_hint_recovers_lost_target(self):
        dets, truth = single_person_stream(duration=6.0)
        # Remove the target's detections for 25 frames mid-stream, then
        # hint at the first frame where it reappears.
        gap = range(60, 85)
        stream = []
        for k, rec in enumerate(dets):
            rec = json.loads(json.dumps(rec))
            if k in gap:
                rec["detections"] = []
            if k == 85:
                rec["reid_hint"] = 0
            stream.append(rec)
        results = run_stream(stream)
        assert results[59].status is SessionStatus.TRACKING
        assert results[84].status is SessionStatus.LOST
        assert results[85].status is SessionStatus.TRACKING
        err = np.linalg.norm(
            results[85].target_location - np.array(truth[85]["persons"][0]["xy"])
        )
        assert err < 0.05

    def test_reinit_from_knee_and_ankle_detection(self):
        # After loss, the hinted detection only shows knee and ankle; the
        # knee has priority and fixes the position.
        config = RunConfig()
        dets, truth = single_person_stream(duration=6.0)
        stream = []
        for k, rec in enumerate(dets):
            rec = json.loads(json.dumps(rec))
            if 60 <= k < 85:
                rec["detections"] = []
            elif k >= 85:
                for det in rec["detections"]:
                    det["joints"] = {
                        n: v for n, v in det["joints"].items() if n in ("knee", "ankle")
                    }
                if k == 85:
                    rec["reid_hint"] = 0
            stream.append(rec)
        results = run_stream(stream, config=config)
        assert results[84].status is SessionStatus.LOST
        assert results[85].status is SessionStatus.TRACKING
        # localization from the knee at its fitted prior height
        session = TrackingSession(SETUP.camera, SETUP.ground, config, SETUP.extrinsics)
        first = detection_frame_from_record(stream[0], config.min_confidence)
        session.process_frame(first)
        fitted = session.target.prior
        from jointtrack.prior import init_from_best_joint

        frame85 = detection_frame_from_record(stream[85], config.min_confidence)
        ankle, used = init_from_best_joint(
            SETUP.camera, SETUP.ground, fitted,
            {k: o.pixel for k, o in frame85.detections[0].joints.items()},
        )
        assert used is JointKind.KNEE
        from jointtrack.geometry import camera_to_robot

        np.testing.assert_allclose(
            results[85].target_location,
            camera_to_robot(ankle, SETUP.extrinsics),
            atol=1e-9,
        )

    def test_hint_ignored_while_tracking(self):
        dets, _ = single_person_stream()
        stream = [json.loads(json.dumps(r)) for r in dets]
        stream[40]["reid_hint"] = 0
        results = run_stream(stream)
        assert all(r.status is SessionStatus.TRACKING for r in results)


class TestPreloadedPrior:
    def test_partial_first_frame_with_preloaded_prior(self):
        # Strip the first frames down to neck-only detections: without a
        # prior the session waits; with one it locks on immediately.
        dets, truth = single_person_stream()
        stream = []
        for k, rec in enumerate(dets):
            rec = json.loads(json.dumps(rec))
            if k < 5:
                for det in rec["detections"]:
                    det["joints"] = {n: v for n, v in det["joints"].items() if n == "neck"}
            stream.append(rec)

        bare = run_stream(stream)
        assert bare[0].status is SessionStatus.UNINITIALIZED
        assert bare[5].status is SessionStatus.TRACKING

        fitted = PriorModel(h_neck=1.40, h_hip=0.95, h_knee=0.50)
        loaded = run_stream(stream, config=RunConfig(prior=fitted))
        assert loaded[0].status is SessionStatus.TRACKING
        err = np.linalg.norm(
            loaded[0].target_location - np.array(truth[0]["persons"][0]["xy"])
        )
        assert err < 1e-6


def two_person_stream():
    """Two walking people, fully visible and never hinted; person 0's neck
    pixel reads as NaN in the first frame."""
    dets, truth = single_person_stream(
        persons=(
            PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.3), velocity=(-0.3, 0.05))),
            PersonSpec(
                trajectory=LineTrajectory(start=(4.0, -1.0), velocity=(0.0, 0.2)), h_neck=1.5
            ),
        ),
        duration=1.0,
    )
    stream = [json.loads(json.dumps(r)) for r in dets]
    for rec in stream:
        rec.pop("reid_hint", None)
    assert [d["person"] for d in stream[0]["detections"]] == [0, 1]
    stream[0]["detections"][0]["joints"]["neck"][0] = None
    return stream, truth


class TestBadFirstFrame:
    """A first candidate whose fit or ray cast fails is skipped, not fatal."""

    def test_tracks_from_second_detection(self):
        from jointtrack.errors import DegenerateRayError
        from jointtrack.prior import FullBodyObservation, construct_prior

        stream, truth = two_person_stream()
        frame = detection_frame_from_record(stream[0], RunConfig().min_confidence)
        obs = FullBodyObservation(joints={k: o.pixel for k, o in frame.detections[0].joints.items()})
        with pytest.raises(DegenerateRayError):
            construct_prior(SETUP.camera, SETUP.ground, obs)

        results = run_stream(stream)
        first = results[0]
        assert first.status is SessionStatus.TRACKING
        assert first.spawned[0] == (1, 1)
        assert [t.id for t in first.tracks if t.is_target] == [1]
        assert first.target_box == BoundingBox(*stream[0]["detections"][1]["box"])
        errors = [
            np.linalg.norm(res.target_location - np.array(tr["persons"][1]["xy"]))
            for res, tr in zip(results, truth)
        ]
        assert errors[0] < 1e-6
        assert max(errors) < 0.05  # the other person is more than 1 m away

    def test_hinted_bad_detection_stays_uninitialized(self):
        stream, truth = two_person_stream()
        stream[0]["reid_hint"] = stream[1]["reid_hint"] = 0
        results = run_stream(stream)
        assert results[0].status is SessionStatus.UNINITIALIZED
        assert results[0].tracks == () and results[0].spawned == ()
        assert results[0].unmatched_detections == (0, 1)
        assert results[1].status is SessionStatus.TRACKING
        assert results[1].spawned[0] == (1, 0)
        err = np.linalg.norm(results[1].target_location - np.array(truth[1]["persons"][0]["xy"]))
        assert err < 1e-3

    def test_preloaded_prior_skips_detection_without_usable_joint(self):
        stream, truth = two_person_stream()
        for name in ("hip", "knee", "ankle"):
            del stream[0]["detections"][0]["joints"][name]
        results = run_stream(stream, config=RunConfig(prior=PriorModel(h_neck=1.5)))
        assert results[0].status is SessionStatus.TRACKING
        assert results[0].spawned[0] == (1, 1)
        err = np.linalg.norm(results[0].target_location - np.array(truth[0]["persons"][1]["xy"]))
        assert err < 1e-6


class TestUseJointsRestriction:
    def test_neck_only_updates_lose_target_when_neck_clipped(self):
        # Progressive approach: once the neck leaves the frame, a
        # neck-only tracker stops updating and eventually goes Lost while
        # the all-joints tracker keeps Tracking.
        setup = CameraSetup.from_dict(
            {
                "fx": 400.0,
                "fy": 400.0,
                "cx": 320.0,
                "cy": 240.0,
                "image_width": 640,
                "image_height": 480,
                "camera_height_m": 0.35,
                "tilt_rad": 0.32,
            }
        )
        person = PersonSpec(
            trajectory=LineTrajectory(start=(6.0, 0.0), velocity=(-0.52, 0.0)),
            h_neck=1.60,
            h_hip=1.10,
            h_knee=0.55,
        )
        scenario = Scenario(setup=setup, persons=(person,), duration=10.0, rate=30.0, seed=3)
        dets, _ = generate(scenario)

        full = run_stream(dets, setup=setup)
        assert all(r.status is SessionStatus.TRACKING for r in full)

        neck_only = run_stream(
            dets, config=RunConfig(use_joints=(JointKind.NECK,)), setup=setup
        )
        statuses = [r.status for r in neck_only]
        assert statuses[0] is SessionStatus.TRACKING
        assert SessionStatus.LOST in statuses
        # Lost exactly max_misses + 1 frames after the last neck sighting.
        last_neck = max(
            k for k, rec in enumerate(dets)
            if rec["detections"] and "neck" in rec["detections"][0]["joints"]
        )
        first_lost = statuses.index(SessionStatus.LOST)
        assert first_lost == last_neck + RunConfig().max_misses + 1


class TestNonTargetLifecycle:
    def test_tentative_confirms_after_three_matches(self):
        dets, _ = single_person_stream(
            persons=(
                PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.5), velocity=(-0.3, 0.0))),
                PersonSpec(trajectory=LineTrajectory(start=(4.0, -1.0), velocity=(0.0, 0.3))),
            ),
        )
        results = run_stream(dets)
        non_target = [tr for tr in results[0].tracks if not tr.is_target]
        assert non_target
        tid = non_target[0].id
        status_by_frame = [
            next(tr.status for tr in res.tracks if tr.id == tid) for res in results[:4]
        ]
        assert status_by_frame[0] is TrackStatus.TENTATIVE
        # spawn plus two more consecutive matches reaches the confirm bar
        assert status_by_frame[2] is TrackStatus.CONFIRMED
        assert status_by_frame[3] is TrackStatus.CONFIRMED

    def test_spurious_detection_track_dies_after_three_misses(self):
        dets, _ = single_person_stream()
        stream = [json.loads(json.dumps(rec)) for rec in dets[:12]]
        ghost = json.loads(json.dumps(stream[2]["detections"][0]))
        ghost["box"][0] = min(ghost["box"][0] + 200.0, 620.0)
        for joint in ghost["joints"].values():
            joint[0] += 200.0
        stream[2]["detections"].append(ghost)
        results = run_stream(stream)

        spawned_ids = [tid for tid, j in results[2].spawned]
        assert len(spawned_ids) == 1
        ghost_id = spawned_ids[0]
        # misses at frames 3, 4; third miss at frame 5 kills it
        assert any(tr.id == ghost_id for tr in results[4].tracks)
        frame5 = {tr.id: tr for tr in results[5].tracks}
        assert frame5[ghost_id].status is TrackStatus.LOST
        assert all(tr.id != ghost_id for tr in results[6].tracks)

    def test_box_only_detections_spawn_nothing(self):
        # Once a target exists, a detection with no joints (none in the
        # record, or every keypoint below min_confidence) places no one: it
        # is not spawned, and unless matched it is reported unmatched. A
        # detection with joints beside them still spawns.
        dets, _ = single_person_stream()
        stream = [json.loads(json.dumps(rec)) for rec in dets[:8]]
        for number, rec in enumerate(stream[2:], 2):
            target = rec["detections"][0]
            u, v, w, h = target["box"]
            suppressed = {name: [pu, pv, 0.1] for name, (pu, pv, _) in target["joints"].items()}
            rec["detections"] += [
                {"box": [u - 150.0, v, w, h]},
                {"box": [u + 150.0, v, 1.5 * w, h], "joints": {}},
                {"box": [u - 300.0, v, w, h], "joints": suppressed},
            ]
            if number == 5:
                ghost = json.loads(json.dumps(target))
                ghost["box"][0] += 300.0
                for joint in ghost["joints"].values():
                    joint[0] += 300.0
                rec["detections"].append(ghost)

        config = RunConfig()
        session = TrackingSession(SETUP.camera, SETUP.ground, config, SETUP.extrinsics)
        located = []
        locate = session._locate

        def recording_locate(measurement, prior):
            located.append(measurement)
            return locate(measurement, prior)

        session._locate = recording_locate
        results = []
        for rec in stream:
            frame = detection_frame_from_record(rec, config.min_confidence)
            results.append(session.process_frame(frame))
            # Only a measurement of at least one usable joint reaches a ray cast.
            assert all(z.size and len(kinds) for z, kinds in located)

        target_id = results[0].spawned[0][0]
        for number, (rec, res) in enumerate(zip(stream[2:], results[2:]), 2):
            assert res.status is SessionStatus.TRACKING
            assert (target_id, 0) in res.matches
            box_only = [1, 2, 3]
            matched = {j for _, j in res.matches}
            assert all(j in res.unmatched_detections for j in box_only if j not in matched)
            spawned = [j for _, j in res.spawned]
            assert spawned == ([4] if number == 5 else [])
            n = len(rec["detections"])
            seen = sorted(list(matched) + spawned + list(res.unmatched_detections))
            assert seen == list(range(n))

    def test_each_detection_is_measured_once_per_frame(self):
        # Acquisition (with a preloaded prior), the update and spawning all
        # read one measurement per detection, made before any of them.
        dets, _ = single_person_stream()
        stream = [json.loads(json.dumps(rec)) for rec in dets[:8]]
        for number, rec in enumerate(stream):
            target = rec["detections"][0]
            u, v, w, h = target["box"]
            rec["detections"].insert(0, {"box": [u - 150.0, v, w, h]})
            rec.pop("reid_hint", None)  # acquisition tries each detection in turn
            if number == 5:
                ghost = json.loads(json.dumps(target))
                ghost["box"][0] += 300.0
                for joint in ghost["joints"].values():
                    joint[0] += 300.0
                rec["detections"].append(ghost)

        config = RunConfig(prior=PriorModel())
        session = TrackingSession(SETUP.camera, SETUP.ground, config, SETUP.extrinsics)
        measured = []
        measurement = session._measurement

        def counting_measurement(detection):
            measured.append(detection)
            return measurement(detection)

        session._measurement = counting_measurement
        results = []
        for rec in stream:
            frame = detection_frame_from_record(rec, config.min_confidence)
            measured.clear()
            results.append(session.process_frame(frame))
            assert list(map(id, measured)) == list(map(id, frame.detections))

        # The stream exercises every reader: the box-only detection 0 cannot
        # place the target, detection 1 acquires it, later frames match it,
        # and frame 5's ghost spawns.
        assert results[0].spawned == ((1, 1),)
        assert all((1, 1) in res.matches for res in results[1:])
        assert [j for _, j in results[5].spawned] == [2]


class TestFrameResultSnapshots:
    def test_states_keep_their_bytes_and_cannot_be_made_writeable(self):
        dets, _ = single_person_stream(
            persons=(
                PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.5), velocity=(-0.3, 0.0))),
                PersonSpec(trajectory=LineTrajectory(start=(4.0, -1.0), velocity=(0.0, 0.3))),
            ),
            duration=1.0,
        )
        config = RunConfig()
        session = TrackingSession(SETUP.camera, SETUP.ground, config, SETUP.extrinsics)
        kept = []
        for record in dets:
            frame = detection_frame_from_record(record, config.min_confidence)
            result = session.process_frame(frame)
            kept.append((result, [(t.state.s.tobytes(), t.state.P.tobytes()) for t in result.tracks]))
        assert [len(result.spawned) for result, _ in kept[:2]] == [2, 0]
        for result, saved in kept:
            assert len(result.tracks) == 2
            for track, state_bytes in zip(result.tracks, saved):
                assert (track.state.s.tobytes(), track.state.P.tobytes()) == state_bytes
                for field in (track.state.s, track.state.P):
                    assert field.flags.c_contiguous and not field.flags.writeable
                    with pytest.raises(ValueError):
                        field.flags.writeable = True


def _canonical_result(result):
    """A FrameResult with every array as its bytes, so equal means bit for bit."""
    return (
        result.timestamp,
        result.status,
        None if result.target_location is None else result.target_location.tobytes(),
        result.target_box,
        [
            (t.id, t.status, t.is_target, t.misses, t.state.s.tobytes(), t.state.P.tobytes())
            for t in result.tracks
        ],
        result.matches,
        result.spawned,
        result.unmatched_detections,
    )


class TestBatchedFrames:
    """Through spawns, a death, a non-finite posterior, a loss and a
    re-init, the update hands every live track to update_batch at once."""

    @staticmethod
    def stream():
        persons = (
            PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.3), velocity=(-0.3, 0.05))),
            PersonSpec(trajectory=LineTrajectory(start=(5.5, -1.0), velocity=(-0.2, 0.0))),
            PersonSpec(trajectory=LineTrajectory(start=(6.0, 1.2), velocity=(-0.25, -0.05))),
        )
        dets, _ = single_person_stream(persons=persons, duration=3.0)
        stream = json.loads(json.dumps(dets))
        # A ghost at frame 3 spawns a tentative track that dies unmatched at
        # frame 6, where a second ghost spawns: frame 7 then has as many
        # live tracks as frame 6, but not the same ones.
        for k, shift in ((3, 200.0), (6, -200.0)):
            ghost = json.loads(json.dumps(stream[k]["detections"][0]))
            ghost["box"][0] += shift
            for joint in ghost["joints"].values():
                joint[0] += shift
            stream[k]["detections"].append(ghost)
        # A NaN pixel makes person 1's update non-finite at frame 10.
        for det in stream[10]["detections"]:
            if det["person"] == 1:
                det["joints"]["neck"][1] = float("nan")
        # The target leaves for frames 30-49, goes Lost, and is hinted back.
        for k in range(30, 50):
            stream[k]["detections"] = [d for d in stream[k]["detections"] if d["person"] != 0]
        stream[50]["reid_hint"] = [d["person"] for d in stream[50]["detections"]].index(0)
        return stream

    def run(self, stream):
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        return [session.process_frame(detection_frame_from_record(r, 0.3)) for r in stream]

    def test_sequence_runs_whole_and_gathered_updates(self, monkeypatch):
        import jointtrack.ukf as ukf

        counts = {"whole": 0, "gathered": 0}
        points = []

        def sigma_points(*args):
            out = real_sigma(*args)
            points.append(out[0])
            return out

        def project_joints(states, *rest):
            # A group of every row projects update_batch's own sigma points.
            counts["whole" if states is points[-1] else "gathered"] += 1
            return real_project(states, *rest)

        real_sigma, real_project = ukf._sigma_points, ukf._project_joints
        monkeypatch.setattr(ukf, "_sigma_points", sigma_points)
        monkeypatch.setattr(ukf, "_project_joints", project_joints)

        stream = self.stream()
        results = self.run(stream)
        assert min(counts.values()) > 0, counts

        # The sequence does what it is built to do.
        (ghost_id,) = [tid for tid, j in results[3].spawned if j == 3]
        (second_id,) = [tid for tid, j in results[6].spawned if j == 3]
        assert [t.id for t in results[6].tracks][-2:] == [ghost_id, second_id]
        assert not any(t.id == ghost_id for t in results[7].tracks)
        assert len(results[7].tracks) == len(results[5].tracks) == 4
        assert len(results[0].spawned) == 3
        assert any(t.misses == 1 and not t.is_target for t in results[10].tracks)
        assert results[49].status is SessionStatus.LOST
        assert results[50].status is SessionStatus.TRACKING
        target_id = next(t.id for t in results[0].tracks if t.is_target)
        assert (target_id, stream[50]["reid_hint"]) in results[50].matches

    def test_update_takes_whole_stacks_only_on_clean_frames(self, monkeypatch):
        # Per frame with live tracks: did each of update_batch's groups
        # project the whole sigma-point stack, and which rows kept their
        # prediction bit for bit? update_batch gets the predicted stacks as
        # they are, and its stacks are the new states, on every frame.
        import jointtrack.pipeline as pipeline
        import jointtrack.ukf as ukf

        seen, paths = {}, {}

        def predict_batch(*args):
            seen["predicted"] = out = real_predict(*args)
            return out

        def sigma_points(*args):
            seen["points"] = out = real_sigma(*args)
            if seen["frame"] == 25:  # as if row 1's covariance had no square root
                out[1][1] = SigmaPointFailureError("injected")
            return out

        def project_joints(states, *rest):
            seen["groups"].append(states is seen["points"][0])
            return real_project(states, *rest)

        def update_batch(means, covs, measurements, *rest):
            assert means is seen["predicted"][0] and covs is seen["predicted"][1]
            assert len(measurements) == len(means)
            seen["groups"] = []
            seen["posterior"] = out = real_update(means, covs, measurements, *rest)
            return out

        def track_states(means, covs):
            if "posterior" in seen:
                assert means is seen.pop("posterior")[0]
                s, p = seen["predicted"]
                same = zip(means == s, covs == p)
                kept = [r for r, (row_s, row_p) in enumerate(same) if row_s.all() and row_p.all()]
                paths[seen["frame"]] = (tuple(seen["groups"]), tuple(kept))
            return real_states(means, covs)

        real_predict, real_update, real_states = (
            pipeline.predict_batch, pipeline.update_batch, pipeline.track_states
        )
        real_sigma, real_project = ukf._sigma_points, ukf._project_joints
        monkeypatch.setattr(pipeline, "predict_batch", predict_batch)
        monkeypatch.setattr(pipeline, "update_batch", update_batch)
        monkeypatch.setattr(pipeline, "track_states", track_states)
        monkeypatch.setattr(ukf, "_sigma_points", sigma_points)
        monkeypatch.setattr(ukf, "_project_joints", project_joints)

        stream = self.stream()
        # Person 2 shows no knee at frame 20: two visible-joint sets.
        for det in stream[20]["detections"]:
            if det["person"] == 2:
                del det["joints"]["knee"]
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        results = []
        for k, record in enumerate(stream):
            seen["frame"] = k
            results.append(session.process_frame(detection_frame_from_record(record, 0.3)))

        clean = ((True,), ())
        assert paths[2] == paths[15] == clean
        assert paths[4] == ((False,), (3,))  # the ghost's track is not measured
        assert paths[10] == ((True,), (1,))  # person 1's posterior is NaN
        assert paths[20] == ((False, False), ())  # two groups, each gathered
        assert paths[25] == ((False,), (1,))  # row 1 failed
        assert sum(path == clean for path in paths.values()) > len(paths) // 2
        assert [t.misses for t in results[4].tracks][-1] == 1
        assert [t.misses for t in results[10].tracks][1] == 1
        assert [t.misses for t in results[25].tracks] == [0, 1, 0]
        assert [t.misses for t in results[20].tracks] == [0, 0, 0]

    def test_failed_update_is_a_miss_when_every_track_was_measured(self, monkeypatch):
        import jointtrack.pipeline as pipeline

        def fail_row_1(means, covs, *rest):
            # As update_batch reports a track whose sigma points failed.
            s, p, errors = real_update(means, covs, *rest)
            s[1], p[1], errors[1] = means[1], covs[1], SigmaPointFailureError("injected")
            return s, p, errors

        real_update = pipeline.update_batch
        stream = self.stream()
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        for record in stream[:2]:
            session.process_frame(detection_frame_from_record(record, 0.3))
        monkeypatch.setattr(pipeline, "update_batch", fail_row_1)
        result = session.process_frame(detection_frame_from_record(stream[2], 0.3))
        assert len(result.matches) == 3
        assert [(t.id, t.misses) for t in result.tracks] == [(1, 0), (2, 1), (3, 0)]

    def test_snapshot_equals_a_built_track_record(self):
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        for record in self.stream()[:2]:
            result = session.process_frame(detection_frame_from_record(record, 0.3))
        assert len(session._tracks) == 3
        for track in session._tracks:
            record = track.snapshot()
            built = TrackRecord(
                id=track.id,
                state=track.state,
                status=track.status,
                is_target=track.is_target,
                misses=track.misses,
            )
            assert record == built and hash(record) == hash(built)
            with pytest.raises(dataclasses.FrozenInstanceError):
                record.misses = 5
            changed = dataclasses.replace(record, misses=5)
            assert changed.misses == 5 and changed.state is record.state and record.misses == 0
        assert all(type(t) is TrackRecord for t in result.tracks)

    def test_matches_hold_plain_ints(self):
        results = self.run(self.stream())
        for result in results:
            for pairs in (result.matches, result.spawned):
                assert all(type(tid) is int and type(j) is int for tid, j in pairs)
            assert all(type(j) is int for j in result.unmatched_detections)


class TestOcclusionRobustness:
    def test_occluder_drops_joints_but_tracking_survives(self):
        occ = Occluder(u_min=0.0, v_min=0.0, u_max=640.0, v_max=165.0)
        dets, truth = single_person_stream(
            persons=(PersonSpec(trajectory=LineTrajectory(start=(4.5, 0.2), velocity=(-0.3, 0.0))),),
            occluders=(occ,),
            duration=4.0,
        )
        # sanity: the occluder actually removes neck joints somewhere
        necks = ["neck" in r["detections"][0]["joints"] for r in dets if r["detections"]]
        assert not all(necks)
        results = run_stream(dets)
        tracked = [r for r in results if r.status is SessionStatus.TRACKING]
        assert len(tracked) == len(results)


class TestNonFiniteTimestamp:
    @pytest.mark.parametrize("t", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_timestamp_is_rejected_and_session_unchanged(self, t):
        dets, _ = single_person_stream(duration=0.5)
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        first = session.process_frame(detection_frame_from_record(dets[0], 0.3))
        with pytest.raises(NonMonotonicTimestampError, match="not finite"):
            session.process_frame(Frame(timestamp=t))
        second = session.process_frame(detection_frame_from_record(dets[1], 0.3))
        assert first.status is second.status is SessionStatus.TRACKING
        assert second.matches == ((first.tracks[0].id, 0),)


class TestHugeFrameGap:
    """A gap too long for a finite prediction (dt**4 overflows a float at
    1e78 s; the covariance overflows at 1.1e77 s) is refused before the
    session changes, so the next frame goes as if the bad one never came."""

    @pytest.mark.parametrize("gap", [1.1e77, 1e78])
    def test_gap_is_refused_and_the_session_is_unchanged(self, gap):
        persons = (
            PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.3), velocity=(-0.3, 0.05))),
            PersonSpec(trajectory=LineTrajectory(start=(5.5, -1.0), velocity=(-0.2, 0.0))),
        )
        dets, _ = single_person_stream(persons=persons, duration=1.0)
        frames = [detection_frame_from_record(record, 0.3) for record in dets]
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        before = [session.process_frame(frame) for frame in frames[:10]]
        assert len(before[-1].tracks) == 2
        bad = dataclasses.replace(frames[10], timestamp=frames[9].timestamp + gap)
        with pytest.raises(InvalidFrameError, match=re.escape(f"frame gap of {gap} s")) as info:
            session.process_frame(bad)
        assert isinstance(info.value, JointTrackError)
        after = [session.process_frame(frame) for frame in frames[10:]]
        expected = run_stream(dets)
        assert [_canonical_result(r) for r in before + after] == [
            _canonical_result(r) for r in expected
        ]

    def test_infinite_gap_is_refused(self):
        # Two finite timestamps whose difference overflows to inf.
        dets, _ = single_person_stream(duration=0.1)
        first, second = (detection_frame_from_record(record, 0.3) for record in dets[:2])
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        assert session.process_frame(dataclasses.replace(first, timestamp=-1.7e308)).tracks
        with pytest.raises(InvalidFrameError, match="frame gap of inf s"):
            session.process_frame(dataclasses.replace(second, timestamp=1.7e308))


class TestHintFromCode:
    """A Frame built in code names its hinted detection by an integer; any
    other hint is refused before the frame counts."""

    @staticmethod
    def frame():
        persons = (
            PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.8), velocity=(-0.3, 0.0))),
            PersonSpec(trajectory=LineTrajectory(start=(5.0, -0.8), velocity=(-0.3, 0.0))),
        )
        dets, _ = single_person_stream(persons=persons, duration=0.2)
        return detection_frame_from_record(dets[0], 0.3)

    @staticmethod
    def session():
        return TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)

    @pytest.mark.parametrize("hint", [1.5, True, "1", np.bool_(True), 1.0], ids=repr)
    def test_non_integer_hint_is_refused_and_the_frame_can_be_retried(self, hint):
        frame, session = self.frame(), self.session()
        with pytest.raises(InvalidFrameError, match="reid_target_hint"):
            session.process_frame(dataclasses.replace(frame, reid_target_hint=hint))
        retried = session.process_frame(dataclasses.replace(frame, reid_target_hint=1))
        expected = self.session().process_frame(dataclasses.replace(frame, reid_target_hint=1))
        assert _canonical_result(retried) == _canonical_result(expected)
        assert retried.spawned[0] == (1, 1)

    def test_numpy_integer_hint_is_a_plain_index(self):
        frame, session = self.frame(), self.session()
        result = session.process_frame(dataclasses.replace(frame, reid_target_hint=np.int64(1)))
        expected = self.session().process_frame(dataclasses.replace(frame, reid_target_hint=1))
        assert _canonical_result(result) == _canonical_result(expected)
        assert result.spawned[0] == (1, 1) and type(result.spawned[0][1]) is int
        with pytest.raises(NonMonotonicTimestampError):
            session.process_frame(dataclasses.replace(frame, reid_target_hint=1))


class TestNonFiniteMeasurement:
    def test_nan_joint_pixel_never_reports_non_finite_tracking(self):
        path = Path(__file__).resolve().parent.parent / "scenarios" / "seq1_approach.json"
        with open(path, "r", encoding="utf-8") as fh:
            scenario = Scenario.from_dict(json.load(fh))
        records, _ = generate(scenario)
        records[1]["detections"][0]["joints"]["neck"][0] = float("nan")
        results = run_stream(records, setup=scenario.setup)
        tracked = [r for r in results if r.status is SessionStatus.TRACKING]
        assert len(tracked) > 200
        for result in tracked:
            assert np.all(np.isfinite(result.target_location))
        json.dumps([result_to_record(r) for r in results], allow_nan=False)

    def test_non_finite_update_is_a_miss_for_that_track_only(self):
        persons = (
            PersonSpec(trajectory=LineTrajectory(start=(5.0, 0.8), velocity=(-0.3, 0.0))),
            PersonSpec(trajectory=LineTrajectory(start=(5.0, -0.8), velocity=(-0.3, 0.0))),
        )
        dets, _ = single_person_stream(persons=persons, duration=1.0)
        frame = 10
        poisoned = json.loads(json.dumps(dets))
        for det in poisoned[frame]["detections"]:
            if det["person"] == 1:
                det["joints"]["neck"][1] = float("nan")
        clean_results = run_stream(dets)
        results = run_stream(poisoned)

        before = {t.id: t for t in results[frame - 1].tracks}
        clean = {t.id: t for t in clean_results[frame].tracks}
        after = {t.id: t for t in results[frame].tracks}
        assert len(after) == 2
        (hit,) = [tid for tid in after if after[tid].misses == 0]
        (miss,) = [tid for tid in after if after[tid].misses == 1]
        # The healthy track gets the same posterior as without the NaN.
        assert np.array_equal(after[hit].state.s, clean[hit].state.s)
        assert np.array_equal(after[hit].state.P, clean[hit].state.P)
        # The poisoned track keeps its prediction: only the covariance grew.
        assert np.all(np.isfinite(after[miss].state.s))
        assert np.trace(after[miss].state.P) > np.trace(before[miss].state.P)

    @pytest.mark.parametrize(
        "poison, kept",
        [
            (lambda s, p: p.__setitem__((1, 3, 3), np.inf), [True, False]),
            # +inf and -inf in one row: the stacks' sum is NaN.
            (lambda s, p: s.__setitem__((1, slice(0, 2)), [np.inf, -np.inf]), [True, False]),
            (lambda s, p: p.__setitem__((0, 2, 2), np.nan), [False, True]),
            # Finite everywhere, but the sum overflows: every row is kept.
            (lambda s, p: p.__setitem__(0, np.full((4, 4), 1e308)), [True, True]),
        ],
        ids=["inf-value", "inf-and-minus-inf", "nan-row", "overflowing-sum"],
    )
    def test_posterior_check_falls_back_to_rows(self, monkeypatch, poison, kept):
        # The whole-stack check passes only when every value is finite; when
        # it does not, each row is checked, and it neither warns nor raises.
        import warnings

        import jointtrack.pipeline as pipeline

        def poisoned_update(means, covs, *rest):
            s, p, errors = real_update(means, covs, *rest)
            predicted.append((means.copy(), covs.copy()))
            poison(s, p)
            posterior.append((s.copy(), p.copy()))
            return s, p, errors

        real_update, predicted, posterior = pipeline.update_batch, [], []
        stream = TestBatchedFrames.stream()
        session = TrackingSession(SETUP.camera, SETUP.ground, RunConfig(), SETUP.extrinsics)
        for record in stream[:4]:
            session.process_frame(detection_frame_from_record(record, 0.3))
        monkeypatch.setattr(pipeline, "update_batch", poisoned_update)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = session.process_frame(detection_frame_from_record(stream[4], 0.3))
        (means, covs), (post_s, post_p) = predicted[0], posterior[0]
        for row, ok in enumerate(kept):
            track = result.tracks[row]
            want_s, want_p = (post_s[row], post_p[row]) if ok else (means[row], covs[row])
            assert track.state.s.tobytes() == want_s.tobytes()
            assert track.state.P.tobytes() == want_p.tobytes()
            assert track.misses == (0 if ok else 1)


def loop_coast_box(session, track):
    """Reference: the coast box lifting and projecting one joint at a time,
    with the box center and width and the pinhole model written inline."""
    camera, ground, prior = session.camera, session.ground, track.prior
    ankle = ground.to_camera(track.state.s[0], track.state.s[1])
    depth = ankle[2]
    if depth <= 0.1:
        return None
    u_bar = float(camera.fx * ankle[0] / depth + camera.cx)
    w_bar = float(camera.fx * prior.body_width / depth)
    vs = []
    for kind in JOINT_ORDER:
        joint = np.asarray(ankle, dtype=float) + float(prior.height_of(kind)) * ground.normal
        if joint[2] <= 1e-9:
            return None
        vs.append(camera.fy * joint[1] / joint[2] + camera.cy)
    v_lo, v_hi = min(vs), max(vs)
    return BoundingBox(u=u_bar, v=0.5 * (v_lo + v_hi), w=w_bar, h=max(v_hi - v_lo, 1.0))


class TestCoastBox:
    # At tilt 0.1 some ground points are too close for a box; at tilt 1.2
    # (camera looking steeply down) some upper joints of a person standing
    # in front of the camera are behind it instead.
    @pytest.mark.parametrize("tilt", [0.1, 1.2])
    def test_equals_per_joint_loop(self, tilt):
        setup = CameraSetup.from_dict(dict(SETUP.to_dict(), tilt_rad=tilt))
        session = TrackingSession(setup.camera, setup.ground, RunConfig(), setup.extrinsics)
        rng = np.random.default_rng(31)
        outcomes = set()
        for i in range(300):
            h_knee = rng.uniform(0.3, 0.6)
            h_hip = h_knee + rng.uniform(0.2, 0.6)
            prior = PriorModel(
                h_neck=h_hip + rng.uniform(0.2, 0.7),
                h_hip=h_hip,
                h_knee=h_knee,
                body_width=rng.uniform(0.3, 0.7),
            )
            state = TrackState(
                s=np.concatenate([rng.uniform([-3, -1], [3, 8]), rng.normal(size=2)]), P=np.eye(4)
            )
            track = _Track(
                id=i, state=state, status=TrackStatus.CONFIRMED, is_target=True, prior=prior
            )
            expected = loop_coast_box(session, track)
            got = session._coast_box(track)
            outcomes.add(expected is None)
            assert got == expected
        assert outcomes == {True, False}


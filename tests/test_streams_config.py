"""Tests for stream parsing, config files and serialization round trips."""

import json
import math
import re

import numpy as np
import pytest

from jointtrack.config import (
    CameraSetup,
    RunConfig,
    load_camera_config,
    load_run_config,
    save_run_config,
)
from jointtrack.errors import JointTrackError, MalformedRecordError
from jointtrack.geometry import JointKind
from jointtrack.prior import PriorModel
from jointtrack.streams import (
    detection_frame_from_record,
    read_jsonl,
    write_jsonl,
)

CAMERA_DICT = {
    "fx": 500.0,
    "fy": 505.0,
    "cx": 320.0,
    "cy": 240.0,
    "image_width": 640,
    "image_height": 480,
    "camera_height_m": 1.25,
    "tilt_rad": 0.12,
    "robot_offset_m": [0.2, 0.0, 0.3],
}


class TestCameraConfig:
    def test_load(self, tmp_path):
        path = tmp_path / "camera.json"
        path.write_text(json.dumps(CAMERA_DICT))
        setup = load_camera_config(path)
        assert setup.camera.fx == 500.0
        assert setup.camera.image_height == 480
        assert setup.ground.gamma == 1.25
        assert setup.extrinsics.tilt == 0.12
        np.testing.assert_allclose(setup.extrinsics.offset, [0.2, 0.0, 0.3])
        np.testing.assert_allclose(
            setup.ground.normal, [0.0, -math.cos(0.12), -math.sin(0.12)], atol=1e-12
        )

    def test_offset_defaults_to_zero(self):
        data = dict(CAMERA_DICT)
        del data["robot_offset_m"]
        setup = CameraSetup.from_dict(data)
        np.testing.assert_allclose(setup.extrinsics.offset, [0.0, 0.0, 0.0])

    def test_dict_round_trip(self):
        setup = CameraSetup.from_dict(CAMERA_DICT)
        again = CameraSetup.from_dict(setup.to_dict())
        assert again.camera == setup.camera
        assert again.ground.gamma == setup.ground.gamma


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.gate_px == 80.0
        assert config.max_misses == 15
        assert config.confirm_hits == 3
        assert config.tentative_max_misses == 3
        assert config.min_confidence == 0.3
        assert config.use_joints == tuple(JointKind)
        assert config.prior is None
        assert config.ukf.joint_pixel_sigma[JointKind.HIP] == 6.0

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(
            json.dumps(
                {
                    "gate_px": 60.0,
                    "use_joints": ["neck", "ankle"],
                    "ukf": {"alpha": 0.8, "joint_pixel_sigma": {"neck": 3.0, "hip": 5.0, "knee": 7.0, "ankle": 9.0}},
                    "prior": {"h_neck": 1.5, "h_hip": 1.0, "h_knee": 0.5, "body_width": 0.4},
                }
            )
        )
        config = load_run_config(path)
        assert config.gate_px == 60.0
        assert config.use_joints == (JointKind.NECK, JointKind.ANKLE)
        assert config.ukf.alpha == 0.8
        assert config.ukf.joint_pixel_sigma[JointKind.NECK] == 3.0
        assert config.prior == PriorModel(h_neck=1.5, h_hip=1.0, h_knee=0.5, body_width=0.4)

    def test_none_path_gives_defaults(self):
        assert load_run_config(None) == RunConfig()

    def test_dict_round_trip(self):
        config = RunConfig(
            gate_px=70.0,
            prior=PriorModel(h_neck=1.48, h_hip=0.99, h_knee=0.46),
            use_joints=(JointKind.NECK, JointKind.HIP),
        )
        again = RunConfig.from_dict(config.to_dict())
        assert again == config

    def test_save_and_reload_fitted_prior(self, tmp_path):
        # A prior fitted in one session can be persisted and reused.
        config = RunConfig(prior=PriorModel(h_neck=1.52, h_hip=1.02, h_knee=0.48))
        path = tmp_path / "fitted.json"
        save_run_config(path, config)
        assert load_run_config(path) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(gate_px=0.0)
        with pytest.raises(ValueError):
            RunConfig(min_confidence=1.5)
        with pytest.raises(ValueError):
            RunConfig(use_joints=())


NAN = float("nan")
GOOD_DET = {"box": [100.0, 100.0, 40.0, 120.0], "joints": {"neck": [100.0, 60.0, 0.9]}}


class TestDetectionRecords:
    def test_frame_from_record(self):
        record = {
            "t": 1.25,
            "detections": [
                {
                    "box": [400.0, 300.0, 80.0, 260.0],
                    "joints": {
                        "neck": [402.0, 331.0, 0.95],
                        "left_ankle": [380.0, 700.0, 0.9],
                        "right_ankle": [430.0, 710.0, 0.8],
                        "left_wrist": [350.0, 450.0, 0.99],
                    },
                }
            ],
            "reid_hint": 0,
            "person": 3,
        }
        frame = detection_frame_from_record(record, min_confidence=0.3)
        assert frame.timestamp == 1.25
        assert frame.reid_target_hint == 0
        det = frame.detections[0]
        assert set(det.joints) == {JointKind.NECK, JointKind.ANKLE}
        np.testing.assert_allclose(det.joints[JointKind.ANKLE].pixel, [400.0, 705.0])

    def test_box_only_detection(self):
        record = {"t": 0.0, "detections": [{"box": [100, 100, 40, 120]}]}
        frame = detection_frame_from_record(record, 0.3)
        assert frame.detections[0].joints == {}
        assert frame.reid_target_hint is None

    @pytest.mark.parametrize(
        "record, field",
        [
            ({"detections": []}, "t"),
            ({"t": 0.0, "detections": [{"joints": {}}]}, "detections[0].box"),
            ({"t": 0.0, "detections": [{"box": [1.0, 2.0, 3.0]}]}, "detections[0].box"),
            ({"t": 0.0, "detections": [{"box": [NAN, 2.0, 3.0, 4.0]}]}, "detections[0].box"),
            (
                {"t": 0.0, "detections": [GOOD_DET, dict(GOOD_DET, joints={"neck": [1, 2, 1.5]})]},
                "detections[1].joints",
            ),
            (
                {"t": 0.0, "detections": [dict(GOOD_DET, joints={"neck": [1, 2]})]},
                "detections[0].joints",
            ),
            ({"t": "soon", "detections": []}, "t"),
            ({"t": 0.0, "detections": [GOOD_DET], "reid_hint": "first"}, "reid_hint"),
        ],
        ids=[
            "missing-t",
            "missing-box",
            "three-element-box",
            "nan-box",
            "confidence-above-one",
            "two-element-joint",
            "string-t",
            "string-reid-hint",
        ],
    )
    def test_malformed_record_raises_typed_error_naming_the_field(self, record, field):
        with pytest.raises(MalformedRecordError, match=rf"^malformed {re.escape(field)}: "):
            detection_frame_from_record(record, 0.3)
        assert issubclass(MalformedRecordError, JointTrackError)

    def test_nan_joint_pixel_is_accepted(self):
        # A non-finite joint pixel is the tracker's to reject (as a miss),
        # not the parser's.
        record = {"t": 0.0, "detections": [dict(GOOD_DET, joints={"neck": [NAN, 2.0, 0.9]})]}
        frame = detection_frame_from_record(record, 0.3)
        assert math.isnan(frame.detections[0].joints[JointKind.NECK].pixel[0])


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = [
            {"t": 0.0, "detections": [], "note": "first"},
            {"t": 1.0, "detections": [{"box": [1, 2, 3, 4], "joints": {}}]},
        ]
        path = tmp_path / "stream.jsonl"
        write_jsonl(path, records)
        assert read_jsonl(path) == records

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t":0.0}\n\n{"t":1.0}\n')
        assert read_jsonl(path) == [{"t": 0.0}, {"t": 1.0}]

"""Tests for stream parsing, config files and serialization round trips."""

import dataclasses
import gc
import json
import math
import os
import random
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointtrack.association import BoundingBox
from jointtrack.config import (
    CameraSetup,
    RunConfig,
    load_camera_config,
    load_run_config,
    save_run_config,
)
from jointtrack.cli import main
from jointtrack.errors import ConfigError, JointTrackError, MalformedRecordError
from jointtrack.geometry import JOINT_ORDER, JointKind
from jointtrack.pipeline import (
    Detection,
    Frame,
    JointDetection,
    TrackingSession,
)
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

PRIOR_DICT = {"h_neck": 1.4, "h_hip": 0.95, "h_knee": 0.5, "body_width": 0.5}


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "key, cause",
        [
            ("fx", "fx must be finite and positive"),
            ("fy", "fy must be finite and positive"),
            ("camera_height_m", "camera height must be finite and positive"),
            ("tilt_rad", "tilt {value} is not within \\[-pi/2, pi/2\\]"),
            ("robot_offset_m", "robot offset must be finite"),
        ],
    )
    def test_camera_file_with_non_finite_value_is_a_config_error(self, tmp_path, key, cause, value):
        # Python's json reads NaN and Infinity; the file is rejected, not run.
        data = dict(CAMERA_DICT)
        data[key] = [0.2, value, 0.3] if key == "robot_offset_m" else value
        path = tmp_path / "camera.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {cause.format(value=value)}$"):
            load_camera_config(path)

    def test_cli_reports_nan_offset_on_one_line(self, tmp_path, capsys):
        camera, dets = tmp_path / "camera.json", tmp_path / "d.jsonl"
        camera.write_text(json.dumps({**CAMERA_DICT, "robot_offset_m": [NAN, 0.0, 0.0]}))
        dets.write_text('{"t":0.0,"detections":[]}\n')
        argv = ["track", "--camera", str(camera), "--input", str(dets),
                "--output", str(tmp_path / "log.jsonl")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"jointtrack track: error: {camera}: robot offset must be finite"
        ]
        assert not (tmp_path / "log.jsonl").exists()


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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["gate_px", "initial_position_sigma", "initial_velocity_sigma"])
    def test_non_finite_tunable_is_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5, True, 0])
    @pytest.mark.parametrize("name", ["max_misses", "confirm_hits", "tentative_max_misses"])
    def test_lifecycle_counter_must_be_an_integer_of_at_least_1(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer of at least 1"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize("name", ["max_misses", "confirm_hits", "tentative_max_misses"])
    def test_lifecycle_counter_may_be_a_numpy_integer(self, name):
        assert getattr(RunConfig(**{name: np.int64(2)}), name) == 2

    @pytest.mark.parametrize("name", ["initial_position_sigma", "initial_velocity_sigma"])
    @pytest.mark.parametrize("value", [0.0, -0.5])
    def test_initial_sigma_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be positive$"):
            RunConfig(**{name: value})

    @pytest.mark.parametrize(
        "data, cause",
        [
            ({"gate_px": float("nan")}, "gate_px must be finite"),
            ({"gate_px": float("inf")}, "gate_px must be finite"),
            ({"initial_position_sigma_m": float("nan")}, "initial_position_sigma must be finite"),
            ({"initial_velocity_sigma_ms": 0.0}, "initial_velocity_sigma must be positive"),
            ({"ukf": {"beta": float("nan")}}, "beta must be finite"),
            ({"ukf": {"kappa": float("nan")}}, "kappa must be finite"),
            ({"ukf": {"process_accel_sigma": float("nan")}}, "process_accel_sigma must be finite"),
            (
                {"ukf": {"joint_pixel_sigma": {"neck": float("nan"), "hip": 6.0,
                                               "knee": 8.0, "ankle": 10.0}}},
                "pixel sigma for neck must be finite",
            ),
            ({"prior": {**PRIOR_DICT, "h_neck": float("nan")}}, "h_neck must be finite"),
            ({"prior": {**PRIOR_DICT, "h_neck": float("inf")}}, "h_neck must be finite"),
            ({"prior": {**PRIOR_DICT, "h_knee": float("nan")}}, "h_knee must be finite"),
            ({"prior": {**PRIOR_DICT, "body_width": float("nan")}}, "body_width must be finite"),
            ({"prior": {**PRIOR_DICT, "body_width": float("inf")}}, "body_width must be finite"),
        ],
        ids=["gate-nan", "gate-inf", "position-sigma-nan", "velocity-sigma-zero", "beta-nan",
             "kappa-nan", "accel-sigma-nan", "pixel-sigma-nan", "h-neck-nan", "h-neck-inf",
             "h-knee-nan", "body-width-nan", "body-width-inf"],
    )
    def test_run_config_file_with_non_finite_value_is_a_config_error(self, tmp_path, data, cause):
        # Python's json reads NaN and Infinity; the file is rejected, not run.
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {cause}$"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "data, cause",
        [
            ({"gate_pixels": 10}, r"unknown run config key\(s\): gate_pixels"),
            ({"gate_px": 10, "ukf_": {}, "Gate_px": 5}, r"unknown run config key\(s\): Gate_px, ukf_"),
            ({"prior": {**PRIOR_DICT, "bodywidth": 0.1}}, r"unknown prior key\(s\): bodywidth"),
        ],
        ids=["top-level", "two-top-level", "prior"],
    )
    def test_run_config_file_with_unknown_key_is_a_config_error(self, tmp_path, data, cause):
        # A misspelled key would otherwise leave its setting at the default.
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {cause}$"):
            load_run_config(path)

    @pytest.mark.parametrize("value", [True, 2.7, "4"], ids=["bool", "fraction", "string"])
    @pytest.mark.parametrize("name", ["max_misses", "confirm_hits", "tentative_max_misses"])
    def test_run_config_file_counter_must_be_an_integer(self, tmp_path, name, value):
        # The file's value reaches RunConfig as it is: nothing rounds it.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({name: value}))
        cause = f"{name} must be an integer of at least 1, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: {re.escape(cause)}$"):
            load_run_config(path)
        path.write_text(json.dumps({name: 4}))
        assert getattr(load_run_config(path), name) == 4

    def test_cli_reports_nan_gate_on_one_line(self, tmp_path, capsys):
        camera, config, dets = tmp_path / "camera.json", tmp_path / "run.json", tmp_path / "d.jsonl"
        camera.write_text(json.dumps(CAMERA_DICT))
        config.write_text('{"gate_px": NaN}')
        dets.write_text('{"t":0.0,"detections":[]}\n')
        argv = ["track", "--camera", str(camera), "--config", str(config),
                "--input", str(dets), "--output", str(tmp_path / "log.jsonl")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"jointtrack track: error: {config}: gate_px must be finite"
        ]
        assert not (tmp_path / "log.jsonl").exists()


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
            ({"t": NAN, "detections": [GOOD_DET]}, "t"),
            ({"t": float("-inf"), "detections": []}, "t"),
            ({"t": "Infinity", "detections": []}, "t"),
            ({"t": 10**400, "detections": []}, "t"),
            ({"t": 0.0, "detections": [{"box": [1.0, 2.0, 3.0, 10**400]}]}, "detections[0].box"),
            (
                {"t": 0.0, "detections": [dict(GOOD_DET, joints={"neck": [10**400, 2, 0.9]})]},
                "detections[0].joints",
            ),
            ({"t": 0.0, "detections": [GOOD_DET], "reid_hint": float("inf")}, "reid_hint"),
            ({"t": 0.0, "detections": [GOOD_DET], "reid_hint": 1.9999}, "reid_hint"),
            ({"t": 0.0, "detections": [GOOD_DET], "reid_hint": True}, "reid_hint"),
            ({"t": 0.0, "detections": [GOOD_DET], "reid_hint": "1"}, "reid_hint"),
            ({"t": 0.0, "detections": [GOOD_DET], "reid_hint": NAN}, "reid_hint"),
            ({"t": 0.0, "detections": [GOOD_DET], "reid_hint": [0]}, "reid_hint"),
            ({"t": 0.0, "detections": 5}, "detections"),
            ({"t": 0.0, "detections": None}, "detections"),
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
            "nan-t",
            "negative-infinite-t",
            "infinity-string-t",
            "huge-int-t",
            "huge-int-box",
            "huge-int-pixel",
            "infinite-reid-hint",
            "fractional-reid-hint",
            "bool-reid-hint",
            "numeric-string-reid-hint",
            "nan-reid-hint",
            "list-reid-hint",
            "integer-detections",
            "null-detections",
        ],
    )
    def test_malformed_record_raises_typed_error_naming_the_field(self, record, field):
        with pytest.raises(MalformedRecordError, match=rf"^malformed {re.escape(field)}: "):
            detection_frame_from_record(record, 0.3)
        assert issubclass(MalformedRecordError, JointTrackError)

    @pytest.mark.parametrize("hint, index", [(2, 2), (2.0, 2), (-0.0, 0), (-1, -1), (10**400, 10**400)])
    def test_reid_hint_reads_as_one_int(self, hint, index):
        # A hint outside the frame's detections is the session's to ignore.
        frame = detection_frame_from_record({"t": 0.0, "detections": [], "reid_hint": hint}, 0.3)
        assert type(frame.reid_target_hint) is int and frame.reid_target_hint == index

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

    def test_truncated_line_raises_typed_error_with_line_number(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t":0.0}\n\n{"t":0.1,\n')
        with pytest.raises(MalformedRecordError, match=r"^line 3: invalid JSON: "):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "line", ['{"t":' + "1" * 5000 + "}", "[" * 100_000], ids=["huge-integer", "deep-nesting"]
    )
    def test_undecodable_json_raises_typed_error_with_line_number(self, tmp_path, line):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t":0.0}\n' + line + "\n")
        with pytest.raises(MalformedRecordError, match=r"^line 2: invalid JSON: "):
            read_jsonl(path)

    def test_non_utf8_line_raises_typed_error_with_line_number(self, tmp_path):
        # The first line is longer than a text reader's 8 KiB decode chunk,
        # so only a line-by-line decode can name the line that holds 0xff.
        path = tmp_path / "stream.jsonl"
        first = json.dumps({"t": 0.0, "pad": "x" * 9000})
        path.write_bytes(first.encode() + b'\n{"t":0.1}\n{"t":0.2,"note":"\xff"}\n')
        with pytest.raises(MalformedRecordError, match=r"^line 3: not UTF-8: invalid start byte"):
            read_jsonl(path)

    @pytest.mark.parametrize("bad", [{1, 2}, np.float32(0.5)], ids=["set", "float32"])
    def test_unencodable_record_leaves_existing_file_untouched(self, tmp_path, bad):
        path = tmp_path / "stream.jsonl"
        write_jsonl(path, [{"t": float(k)} for k in range(50)])
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_jsonl(path, [{"t": 0.0}, {"t": 1.0, "bad": bad}])
        assert path.read_bytes() == before

    def test_rewrite_with_fewer_records_leaves_no_old_tail(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        write_jsonl(path, [{"t": float(k), "note": "old"} for k in range(50)])
        write_jsonl(path, [{"t": 9.0}])
        assert path.read_bytes() == b'{"t":9.0}\n'

    def test_symlink_stays_a_link_and_its_target_gets_the_new_bytes(self, tmp_path):
        target = tmp_path / "target.jsonl"
        link = tmp_path / "link.jsonl"
        write_jsonl(target, [{"t": 0.0, "note": "old"}])
        link.symlink_to(target)
        write_jsonl(link, [{"t": 1.0}])
        assert link.is_symlink()
        assert target.read_bytes() == b'{"t":1.0}\n'

    def test_hard_linked_file_is_written_through_both_names(self, tmp_path):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        write_jsonl(first, [{"t": 0.0, "note": "old"}])
        os.link(first, second)
        write_jsonl(first, [{"t": 1.0}])
        assert first.read_bytes() == second.read_bytes() == b'{"t":1.0}\n'
        assert first.stat().st_ino == second.stat().st_ino


# -- differential test against the numpy-per-keypoint ingest ------------------
#
# The reference below is the ingest path as it stood before the pixel of each
# kept keypoint was read without numpy: detection_frame_from_record,
# the keypoint merge and BoundingBox.from_list (with BoundingBox's validation)
# as they were. It differs from that code in three places only, all marked: a
# t that is not finite, and a number beyond the float range (OverflowError,
# which used to escape untyped), are malformed, and a "detections" value that
# is not iterable is named as such instead of as t.

_REF_SHOULDER_NAMES = ("left_shoulder", "right_shoulder")
_REF_PAIR_NAMES = {
    JointKind.HIP: ("left_hip", "right_hip"),
    JointKind.KNEE: ("left_knee", "right_knee"),
    JointKind.ANKLE: ("left_ankle", "right_ankle"),
}


def _reference_box(values):
    u, v, w, h = (float(x) for x in values)
    if not all(math.isfinite(x) for x in (u, v, w, h)):
        raise ValueError("box fields must be finite")
    if w <= 0 or h <= 0:
        raise ValueError("box width and height must be positive")
    return BoundingBox(u=u, v=v, w=w, h=h)


def _reference_merge(raw_joints, box, min_confidence):
    usable = {
        name: (np.asarray(pixel, dtype=float).reshape(2), float(conf))
        for name, (pixel, conf) in raw_joints.items()
        if float(conf) >= min_confidence
    }
    merged = {}

    if "neck" in usable:
        pixel, conf = usable["neck"]
        merged[JointKind.NECK] = JointDetection(pixel=pixel, confidence=conf)
    else:
        shoulders = [usable[n] for n in _REF_SHOULDER_NAMES if n in usable]
        if len(shoulders) == 2:
            pixel = 0.5 * (shoulders[0][0] + shoulders[1][0])
            conf = 0.5 * (shoulders[0][1] + shoulders[1][1])
            merged[JointKind.NECK] = JointDetection(pixel=pixel, confidence=conf)
        elif len(shoulders) == 1:
            merged[JointKind.NECK] = JointDetection(
                pixel=shoulders[0][0], confidence=shoulders[0][1]
            )

    for kind, pair_names in _REF_PAIR_NAMES.items():
        if kind.label in usable:
            pixel, conf = usable[kind.label]
            merged[kind] = JointDetection(pixel=pixel, confidence=conf)
            continue
        members = [usable[n] for n in pair_names if n in usable]
        if not members:
            continue
        v = float(np.mean([m[0][1] for m in members]))
        conf = float(np.mean([m[1] for m in members]))
        merged[kind] = JointDetection(pixel=np.array([box.u, v]), confidence=conf)
    return merged


def _reference_frame(record, min_confidence):
    index, field = None, "t"
    try:
        timestamp = float(record["t"])
        if not math.isfinite(timestamp):  # difference: a non-finite t is malformed
            raise ValueError("t must be finite")
        detections = []
        field = "detections"  # difference: used to stay "t"
        for index, det in enumerate(record.get("detections", [])):
            field = "box"
            box = _reference_box(det["box"])
            field = "joints"
            raw = {
                name: ((vals[0], vals[1]), vals[2])
                for name, vals in det.get("joints", {}).items()
            }
            joints = _reference_merge(raw, box, min_confidence)
            detections.append(Detection(box=box, joints=joints))
        index, field = None, "reid_hint"
        hint = record.get("reid_hint")
        # difference: only an int that is not a bool, or a float with an
        # integral value, names a detection; int() took 1.9999, True and "1"
        if hint is not None and not (
            type(hint) is int or (type(hint) is float and math.isfinite(hint) and hint == int(hint))
        ):
            raise TypeError("reid_hint must be a detection index")
        hint = None if hint is None else int(hint)
    # difference: OverflowError is malformed too
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        where = field if index is None else f"detections[{index}].{field}"
        raise MalformedRecordError(f"malformed {where}: {type(exc).__name__}: {exc}") from exc
    return Frame(timestamp=timestamp, detections=detections, reid_target_hint=hint)


def _bits(x):
    """A float by type and bit pattern, so NaN == NaN and 0.0 != -0.0."""
    return type(x), struct.pack("<d", x)


def _canonical(frame):
    return (
        _bits(frame.timestamp),
        type(frame.reid_target_hint),
        frame.reid_target_hint,
        [
            (
                [_bits(x) for x in det.box.to_list()],
                [
                    (
                        kind,
                        obs.pixel.dtype,
                        obs.pixel.shape,
                        obs.pixel.tobytes(),
                        _bits(obs.confidence),
                    )
                    for kind, obs in det.joints.items()
                ],
            )
            for det in frame.detections
        ],
    )


def _outcome(parse, record, min_confidence):
    """The canonical Frame, or the field a MalformedRecordError names."""
    try:
        return "frame", _canonical(parse(record, min_confidence))
    except MalformedRecordError as exc:
        return "malformed", re.match(r"malformed (\S+): ", str(exc)).group(1)


COCO_NAMES = (
    "nose", "left_eye", "right_eye", "left_ear", "right_ear",
    "left_shoulder", "right_shoulder", "left_elbow", "right_elbow",
    "left_wrist", "right_wrist", "left_hip", "right_hip",
    "left_knee", "right_knee", "left_ankle", "right_ankle",
)
MERGED_NAMES = COCO_NAMES[5:7] + COCO_NAMES[11:] + ("neck", "hip", "knee", "ankle")
JOINT_NAMES = COCO_NAMES + ("neck", "hip", "knee", "ankle", "Neck", "tail", "")

numbers = st.one_of(
    st.floats(-1e4, 1e4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-1000, 1000),
    st.sampled_from([10**400, -(10**400), 0.0, -0.0]),
)
# JSON-like values that are not plain numbers.
oddities = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["1.5", "  2 ", "1e3", "nan", "-inf", "0x1", "x", ""]),
    st.lists(st.floats(-1e3, 1e3), max_size=2),
    st.dictionaries(st.sampled_from(["0", "u"]), st.floats(-1e3, 1e3), max_size=2),
)
specials = st.sampled_from([NAN, float("inf"), float("-inf"), None, True, "nan", 10**400])
scalars = st.one_of(specials, numbers, oddities)
nested = st.lists(st.one_of(st.floats(-1e3, 1e3), st.none()), max_size=2)
# Confidences around min_confidence (0.3 is one of those drawn), at the
# ends of [0, 1] and below it; all of these read without error.
confidences = st.one_of(
    st.floats(0.0, 1.0),
    st.floats(0.3, 1.0),
    st.floats(0.3, 1.0),
    st.sampled_from([-0.5, 0.0, 0.29999999999999993, 0.3, 0.30000000000000004, 1.0, NAN]),
)
positive = st.floats(1e-3, 1e3)


def _keypoint(draw, value):
    """One keypoint value, [u, v, conf] unless value() swaps in a bad shape;
    value(good, bad) draws from bad at the caller's rate, else from good."""
    u, v = value(st.floats(-1e4, 1e4), scalars), value(st.floats(-1e4, 1e4), scalars)
    conf = value(confidences, st.one_of(st.sampled_from([1.0000000000000002, 1.5]), scalars))
    shape = value(st.just("uvc"), st.sampled_from(["uv", "uvc+", "nested", "scalar"]))
    if shape == "uvc":
        return [u, v, conf]
    if shape == "uv":
        return [u, v]
    if shape == "uvc+":
        return [u, v, conf, draw(scalars)]
    if shape == "nested":
        return [draw(nested), draw(nested), conf]
    return draw(scalars)


@st.composite
def records(draw):
    """A detection record in which each value is, at a rate drawn per record,
    replaced by a value of the wrong kind, shape or range."""
    rate = draw(st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.3]))
    # Seeded here, not drawn value by value, so that each value is bad at the
    # rate itself: hypothesis skews its own draws towards the bounds.
    coin = random.Random(draw(st.integers(0, 2**32 - 1)))

    def value(good, bad):
        return draw(bad if coin.random() < rate else good)

    def detection():
        box = [value(st.floats(-1e3, 1e3), scalars), value(st.floats(-1e3, 1e3), scalars),
               value(positive, scalars), value(positive, scalars)]
        names = draw(st.lists(
            st.one_of(st.sampled_from(MERGED_NAMES), st.sampled_from(JOINT_NAMES)),
            min_size=1,
            max_size=17,
            unique=True,
        ))
        det = {"box": value(st.just(box), st.one_of(
            st.just(box[:3]),
            numbers.map(lambda extra: box + [extra]),
            st.lists(scalars, min_size=3, max_size=5),
            scalars,
        ))}
        if coin.random() < 0.9:  # otherwise a box-only detection
            det["joints"] = value(
                st.just({name: _keypoint(draw, value) for name in names}), scalars
            )
        return value(st.just(det), st.one_of(st.just({"joints": {}}), scalars))

    record = {"t": value(st.floats(0.0, 100.0), scalars)}
    count = draw(st.integers(1, 3))
    record["detections"] = value(st.just([detection() for _ in range(count)]), scalars)
    if draw(st.booleans()):
        record["reid_hint"] = value(st.integers(-1, 4), scalars)
    if coin.random() < rate:
        del record[draw(st.sampled_from(sorted(record)))]
    return record


class TestIngestMatchesReference:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(records(), st.sampled_from([0.3, 0.0, 1.0]))
    def test_equal_frame_or_same_malformed_field(self, record, min_confidence):
        expected = _outcome(_reference_frame, record, min_confidence)
        assert _outcome(detection_frame_from_record, record, min_confidence) == expected

    @pytest.mark.parametrize(
        "value",
        [
            [[1.0], [2.0], 0.9],
            [[[1.0]], [[2.0]], 0.9],
            [[1.0, 2.0], [3.0, 4.0], 0.9],
            [[1.0], [2.0, 3.0], 0.9],
            [[], [], 0.9],
            [None, 1.0, 0.9],
            [1, 2, 0.9],
            ["1.5", " 2 ", "0.9"],
            [True, 2.0, 0.9],
            ["x", 1.0, 0.9],
            [{"u": 1.0}, 1.0, 0.9],
            [1.0, 2.0, 0.9, "extra"],
            [1.0, 2.0, 1.5],
            [1.0, 2.0, NAN],
            [1.0, 2.0],
            "129",
            "120",
            {"0": 1.0},
            None,
        ],
    )
    @pytest.mark.parametrize("name", ["nose", "neck", "left_hip", "hip", "left_shoulder"])
    def test_odd_joint_value_matches_reference(self, name, value):
        record = {"t": 0.5, "detections": [{"box": [1.0, 2.0, 3.0, 4.0], "joints": {name: value}}]}
        expected = _outcome(_reference_frame, record, 0.3)
        assert _outcome(detection_frame_from_record, record, 0.3) == expected

    @pytest.mark.parametrize(
        "box",
        [
            [1.0, 2.0, 3.0, 4.0, 5.0],
            [1.0, 2.0, 3.0],
            "1234",
            ["1", "2", "3", "4"],
            [True, 2, 3, 4],
            [1.0, 2.0, 0.0, 4.0],
            [1.0, 2.0, 3.0, float("-inf")],
            {"u": 1, "v": 2, "w": 3, "h": 4},
            [[1.0], 2.0, 3.0, 4.0],
        ],
    )
    def test_odd_box_matches_reference(self, box):
        record = {"t": 0.5, "detections": [{"box": box}]}
        expected = _outcome(_reference_frame, record, 0.3)
        assert _outcome(detection_frame_from_record, record, 0.3) == expected

    def test_clutter_record(self):
        # One frame of COCO 17-keypoint detections as a pose detector emits
        # them: three tracked people with kept keypoints among box-only
        # distractors whose keypoints are all below min_confidence.
        path = Path(__file__).resolve().parent / "data" / "clutter_record.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        assert len(record["detections"]) == 22
        assert all(len(det["joints"]) == 17 for det in record["detections"])
        kind, frame = _outcome(detection_frame_from_record, record, 0.3)
        assert kind == "frame"
        assert frame == _outcome(_reference_frame, record, 0.3)[1]
        assert sum(1 for _, joints in frame[3] if joints) == 3


# -- the stream's keypoint reader against the (pixel, conf) reader -------------

BOX = BoundingBox(u=400.0, v=300.0, w=80.0, h=260.0)


@st.composite
def keypoint_maps(draw):
    """A detection's {name: keypoint}, each value bad at a rate drawn per map,
    as records() draws them, with a box center that may be -0.0."""
    rate = draw(st.sampled_from([0.0, 0.03, 0.1, 0.3, 1.0]))
    coin = random.Random(draw(st.integers(0, 2**32 - 1)))

    def value(good, bad):
        return draw(bad if coin.random() < rate else good)

    names = draw(st.lists(
        st.one_of(st.sampled_from(MERGED_NAMES), st.sampled_from(JOINT_NAMES)),
        max_size=17,
        unique=True,
    ))
    box = BoundingBox(u=draw(st.one_of(st.floats(-1e3, 1e3), st.just(-0.0))), v=1.0, w=2.0, h=3.0)
    return {name: _keypoint(draw, value) for name in names}, box


def _ingest_merge(keypoints, box, min_confidence):
    """Ingest's merged joints of a record holding one detection, or the
    exception that detection_frame_from_record wraps."""
    record = {"t": 0.5, "detections": [{"box": box.to_list(), "joints": keypoints}]}
    try:
        (detection,) = detection_frame_from_record(record, min_confidence).detections
    except MalformedRecordError as exc:
        raise exc.__cause__ from None
    return detection.joints


class TestIngestMerge:
    @pytest.mark.parametrize("pixel", [["x", None], [None, None], [[1.0, 2.0], {}], ["", "nan"]])
    def test_suppressed_keypoint_pixel_is_never_read(self, pixel):
        keypoints = {"neck": pixel + [0.1], "left_hip": [10.0, 20.0, 0.9]}
        merged = _ingest_merge(keypoints, BOX, 0.3)
        assert list(merged) == [JointKind.HIP]
        assert merged[JointKind.HIP].pixel.tolist() == [BOX.u, 20.0]

    def test_merged_joints_are_checked_joint_detections(self):
        keypoints = {"left_shoulder": [1.0, 2.0, 0.5], "right_shoulder": [3.0, 4.0, 0.7],
                     "ankle": [5.0, 6.0, 1.0]}
        merged = _ingest_merge(keypoints, BOX, 0.3)
        assert list(merged) == [JointKind.NECK, JointKind.ANKLE]
        assert merged[JointKind.NECK].pixel.tolist() == [2.0, 3.0]
        assert merged[JointKind.NECK].confidence == 0.6
        for obs in merged.values():
            # Already what JointDetection's own checks would make of it.
            assert type(obs) is JointDetection
            assert JointDetection(pixel=obs.pixel, confidence=obs.confidence).pixel is obs.pixel
        with pytest.raises(ValueError, match=r"^confidence must be in \[0, 1\]$"):
            _ingest_merge({"neck": [1.0, 2.0, 1.5]}, BOX, 0.3)


# -- the merged pixel block ----------------------------------------------------------

BLOCK_CONFIGS = [
    RunConfig(),
    RunConfig(min_confidence=0.5),
    RunConfig(use_joints=(JointKind.ANKLE, JointKind.HIP)),
]


def _ingested(keypoints, box, min_confidence):
    record = {"t": 0.5, "detections": [{"box": box.to_list(), "joints": keypoints}]}
    (detection,) = detection_frame_from_record(record, min_confidence).detections
    return detection


def _measured(config, detection):
    """The session's (z dtype, shape, bytes, kinds) of detection, or None."""
    setup = CameraSetup.from_dict(CAMERA_DICT)
    session = TrackingSession(setup.camera, setup.ground, config, setup.extrinsics)
    measurement = session._measurement(detection)
    if measurement is None:
        return None
    z, kinds = measurement
    return z.dtype.str, z.shape, z.tobytes(), kinds


def _crowd_record(people=20):
    """One frame of people side by side, each with a neck and left/right hip,
    knee and ankle keypoints."""
    detections = []
    for i in range(people):
        u = 20.0 + 30.0 * i
        joints = {"neck": [u, 180.0, 0.9]}
        for offset, joint in ((220.0, "hip"), (250.0, "knee"), (280.0, "ankle")):
            joints[f"left_{joint}"] = [u - 3.0, offset, 0.8]
            joints[f"right_{joint}"] = [u + 3.0, offset + 1.0, 0.7]
        detections.append({"box": [u, 230.0, 24.0, 110.0], "joints": joints})
    return {"t": 0.5, "detections": detections}


def _live_joint_detections():
    return sum(1 for obj in gc.get_objects() if type(obj) is JointDetection)


class TestPixelBlock:
    """Ingest keeps each detection's merged pixels as one read-only block;
    a Detection built in code copies the given pixels into its own."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(keypoint_maps(), st.sampled_from([0.3, 0.0, 1.0]))
    def test_ingested_and_code_built_detections_measure_alike(self, case, min_confidence):
        keypoints, box = case
        try:
            ingested = _ingested(keypoints, box, min_confidence)
        except MalformedRecordError:
            return  # ingest refused the keypoints; the merge tests cover that
        given = dict(ingested.joints)
        built = Detection(box=box, joints=given)
        assert list(built.joints) == list(ingested.joints)
        for kind, obs in given.items():
            assert built.joints[kind] is obs
        for config in BLOCK_CONFIGS:
            assert _measured(config, built) == _measured(config, ingested)

    def test_ingested_pixels_are_read_only_rows_of_one_block(self):
        frame = detection_frame_from_record(_crowd_record(3), 0.3)
        setup = CameraSetup.from_dict(CAMERA_DICT)
        session = TrackingSession(setup.camera, setup.ground, RunConfig(), setup.extrinsics)
        # Every detection's block is a row slice of the frame's one array.
        frame_pixels = frame.detections[0].joints.pixels.base
        assert frame_pixels is not None and not frame_pixels.flags.writeable
        assert frame_pixels.tolist() == [
            x for detection in frame.detections for x in detection.joints.pixels.ravel().tolist()
        ]
        for detection in frame.detections:
            joints = detection.joints
            assert joints.pixels.base is frame_pixels
            # Every joint is usable: the measurement is the block itself.
            z, kinds = session._measurement(detection)
            assert z.base is frame_pixels and kinds == list(JOINT_ORDER)
            assert list(joints) == list(JOINT_ORDER)
            assert joints.pixels.shape == (4, 2) and not joints.pixels.flags.writeable
            for row, kind in enumerate(JOINT_ORDER):
                pixel = joints[kind].pixel
                assert pixel.base is frame_pixels and pixel.tolist() == joints.pixels[row].tolist()
                assert joints[kind] is joints[kind]
                with pytest.raises(ValueError):
                    pixel[0] = 1.0

    def test_code_built_detection_copies_the_given_pixels(self):
        pixel = np.array([10.0, 20.0])
        given = {JointKind.KNEE: JointDetection(pixel=pixel, confidence=0.9),
                 JointKind.NECK: JointDetection(pixel=[30.0, 40.0], confidence=0.8)}
        detection = Detection(box=BOX, joints=given)
        # Keyed in measurement order, each kind still the given object.
        assert list(detection.joints) == [JointKind.NECK, JointKind.KNEE]
        assert all(detection.joints[kind] is obs for kind, obs in given.items())
        before = _measured(RunConfig(), detection)
        pixel[0] = 99.0  # the caller's array, not the detection's block
        assert _measured(RunConfig(), detection) == before
        assert detection.joints[JointKind.KNEE].pixel[0] == 99.0
        assert Detection(box=BOX).joints == {} and not Detection(box=BOX).joints
        with pytest.raises(ValueError, match="keyed by JointKind"):
            Detection(box=BOX, joints={"neck": given[JointKind.NECK]})

    def test_ingest_builds_no_joint_detection_until_one_is_read(self):
        # Building one object per merged joint was most of a crowd frame's
        # ingest; they are built only when a caller reads joints[kind].
        record = _crowd_record()
        gc.collect()
        before = _live_joint_detections()
        frame = detection_frame_from_record(record, 0.3)
        assert len(frame.detections) == 20
        assert _live_joint_detections() == before
        setup = CameraSetup.from_dict(CAMERA_DICT)
        session = TrackingSession(setup.camera, setup.ground, RunConfig(), setup.extrinsics)
        session.process_frame(frame)
        session.process_frame(dataclasses.replace(frame, timestamp=0.6))
        assert _live_joint_detections() == before
        hip = frame.detections[0].joints[JointKind.HIP]
        assert _live_joint_detections() == before + 1
        assert hip.pixel.tolist() == [20.0, 220.5]


# -- equality and the confidence rule -------------------------------------------------

EQUALITY_RECORD = {
    "t": 0.5,
    "detections": [
        {"box": [400.0, 300.0, 80.0, 260.0],
         "joints": {"neck": [401.0, 180.0, 0.9], "left_hip": [395.0, 290.0, 0.8],
                    "right_hip": [405.0, 292.0, 0.7]}},
        {"box": [100.0, 300.0, 80.0, 260.0]},
    ],
}


def _ingest_equality_record(edit=None):
    record = json.loads(json.dumps(EQUALITY_RECORD))
    if edit is not None:
        edit(record["detections"][0])
    return detection_frame_from_record(record, 0.3)


class TestEquality:
    """Detections and joints compare by value: no two ingestions share a
    pixel array."""

    def test_two_ingestions_of_one_record_compare_equal(self):
        first, second = _ingest_equality_record(), _ingest_equality_record()
        assert first.detections[0].joints.pixels.base is not second.detections[0].joints.pixels.base
        assert first == second
        for a, b in zip(first.detections, second.detections):
            assert a == b and a.joints == b.joints and not a != b
            for kind in a.joints:
                assert a.joints[kind] == b.joints[kind]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda det: det["joints"]["neck"].__setitem__(0, 401.5),
            lambda det: det["joints"]["neck"].__setitem__(1, -180.0),
            lambda det: det["joints"]["neck"].__setitem__(2, 0.95),
            lambda det: det["joints"]["right_hip"].__setitem__(2, 0.6),  # the merged hip's
            lambda det: det["box"].__setitem__(3, 261.0),
            lambda det: det["box"].__setitem__(0, 401.0),  # and the merged hip's u
            lambda det: det["joints"].pop("left_hip"),
        ],
        ids=["neck-u", "neck-v", "neck-conf", "hip-conf", "box-h", "box-u", "hip-side"],
    )
    def test_a_changed_pixel_confidence_or_box_compares_unequal(self, edit):
        first, changed = _ingest_equality_record(), _ingest_equality_record(edit)
        assert first.detections[0] != changed.detections[0]
        assert not first.detections[0] == changed.detections[0]
        assert first.detections[1] == changed.detections[1]
        assert first != changed

    def test_a_nan_pixel_is_unequal_as_a_nan_float_is(self):
        def null_neck(det):
            det["joints"]["neck"][1] = None

        first, second = _ingest_equality_record(null_neck), _ingest_equality_record(null_neck)
        neck_a = first.detections[0].joints[JointKind.NECK]
        neck_b = second.detections[0].joints[JointKind.NECK]
        assert neck_a != neck_b and first.detections[0] != second.detections[0]
        assert neck_a.pixel.tobytes() == neck_b.pixel.tobytes()

    def test_a_code_built_detection_equals_the_ingested_one(self):
        ingested = _ingest_equality_record().detections[0]
        built = Detection(
            box=BoundingBox(u=400.0, v=300.0, w=80.0, h=260.0),
            joints={
                JointKind.HIP: JointDetection(pixel=np.array([400.0, 291.0]), confidence=0.75),
                JointKind.NECK: JointDetection(pixel=[401, 180], confidence=0.9),
            },
        )
        assert built == ingested and ingested == built
        assert built.joints == ingested.joints and dict(built.joints) == dict(ingested.joints)
        off = JointDetection(pixel=[401.0, 180.5], confidence=0.9)
        assert Detection(box=built.box, joints={**built.joints, JointKind.NECK: off}) != ingested
        assert JointDetection(pixel=[1.0, 2.0], confidence=0.5) != (np.array([1.0, 2.0]), 0.5)


@pytest.mark.parametrize("min_confidence", [-1.0, 0.3, 2.0])
@pytest.mark.parametrize("confidence", [-0.5, NAN, 1.5])
def test_only_a_kept_keypoint_confidence_is_checked(confidence, min_confidence):
    # A keypoint at or above min_confidence is kept, and its merged joint's
    # confidence must lie in [0, 1]; one below it (NaN never reaches it) is
    # dropped unread, so an out-of-range confidence there is no error.
    keypoints = {"neck": [1.0, 2.0, confidence], "ankle": [5.0, 6.0, 1.0]}
    record = {"t": 0.5, "detections": [{"box": BOX.to_list(), "joints": keypoints}]}
    kept = confidence >= min_confidence
    if kept:
        with pytest.raises(MalformedRecordError, match=r"detections\[0\]\.joints: ValueError: confidence"):
            detection_frame_from_record(record, min_confidence)
    else:
        (detection,) = detection_frame_from_record(record, min_confidence).detections
        assert JointKind.NECK not in detection.joints


def test_every_exported_name_resolves():
    import jointtrack

    missing = [name for name in jointtrack.__all__ if not hasattr(jointtrack, name)]
    assert missing == []

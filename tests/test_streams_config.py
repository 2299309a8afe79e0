"""Tests for stream parsing, config files and serialization round trips."""

import json
import math
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
from jointtrack.errors import JointTrackError, MalformedRecordError
from jointtrack.geometry import JointKind
from jointtrack.pipeline import Detection, Frame, JointDetection
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
            "integer-detections",
            "null-detections",
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

    def test_truncated_line_raises_typed_error_with_line_number(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text('{"t":0.0}\n\n{"t":0.1,\n')
        with pytest.raises(MalformedRecordError, match=r"^line 3: invalid JSON: "):
            read_jsonl(path)


# -- differential test against the numpy-per-keypoint ingest ------------------
#
# The reference below is the ingest path as it stood before the pixel of each
# kept keypoint was read without numpy: detection_frame_from_record,
# merge_joint_pairs and BoundingBox.from_list (with BoundingBox's validation)
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

    def joint():
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
            det["joints"] = value(st.just({name: joint() for name in names}), scalars)
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

"""Newline-delimited JSON stream formats.

Detection stream, one record per frame (field names are the wire contract):

    {"t": 0.033,
     "detections": [
        {"box": [u, v, w, h],
         "joints": {"neck": [u, v, conf], "left_ankle": [u, v, conf], ...}}
     ],
     "reid_hint": 0}                       # optional detection index

Joint names may be the pre-merged four (neck/hip/knee/ankle) or raw
17-keypoint skeleton names (left_shoulder, right_hip, ...); ingestion
merges pairs either way, in one pass per detection (the merge of
merge_keypoints) that puts each kept keypoint in its name's slot of a
fixed table. It reads each keypoint once, its confidence first: a
keypoint below min_confidence is dropped without its pixel being read,
which is most of them in a crowd, where a pose detector prints every
keypoint of every person. A frame's merged pixels are one read-only array,
and each detection's joints a row slice of it. Records may carry extra
keys (the simulator adds "person" for bookkeeping); readers ignore them. A
record that lacks a field or holds an invalid value (NaN or infinite "t"
included) raises MalformedRecordError naming it, and read_jsonl raises it
with the line number for a line that is not UTF-8 or not JSON, such as one
cut short. A kept keypoint's pixel may be null: it reads as NaN, and an
update with it counts as a miss. read_jsonl parses with the cyclic
garbage collector paused (files.collection_paused): decoded records are
trees, which reference counting frees.

Track log, one record per processed frame:

    {"t": 0.033, "status": "Tracking",
     "target_xy": [x, y],                  # robot frame, only when Tracking
     "target_box": [u, v, w, h],           # optional
     "tracks": [{"id": 1, "status": "Confirmed", "is_target": true,
                 "x": ..., "y": ..., "vx": ..., "vy": ..., "misses": 0}]}

Ground-truth stream (simulator output):

    {"t": 0.033, "target_index": 0,
     "persons": [{"xy": [x, y], "box": [u, v, w, h] | null}]}
"""

import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

from .association import BoundingBox
from .errors import MalformedRecordError
from .files import collection_paused, open_bytes, write_text
from .geometry import JOINT_ORDER, JointKind
from .pipeline import Detection, Frame, FrameResult, JointDetection, _Joints

_NO_JOINTS = _Joints((), np.empty((0, 2)), ())
_NO_JOINTS.pixels.flags.writeable = False

# The merge's slots: joint k's pre-merged name, which takes precedence, in
# slot 3k, then the two 17-keypoint skeleton names that feed it.
_SLOTS = {name: slot for slot, name in enumerate((
    "neck", "left_shoulder", "right_shoulder", "hip", "left_hip", "right_hip",
    "knee", "left_knee", "right_knee", "ankle", "left_ankle", "right_ankle",
))}
_KIND_SLOTS = tuple((kind, 3 * kind) for kind in JOINT_ORDER)
# Stands in for v when merge_joint_pairs passes a (pixel, conf) pair on.
_WHOLE_PIXEL = object()


def merge_joint_pairs(
    raw_joints: Mapping[str, Tuple[Sequence[float], float]],
    box: BoundingBox,
    min_confidence: float,
) -> Mapping[JointKind, JointDetection]:
    """Collapse raw keypoints into the four tracked joints.

    Left/right hip, knee and ankle pairs become one point each: the
    horizontal coordinate is the box center, the vertical one the mean of
    the pair (or the single visible joint's). The neck is taken directly
    when present, otherwise from the shoulder midpoint. Keypoints below
    min_confidence (or NaN) are dropped unchecked; pre-merged streams pass
    through unchanged. A kept pixel must read as two numbers (null reads as
    NaN) and a merged confidence (a kept 1.5, not a dropped -0.5) must lie
    in [0, 1]; otherwise ValueError or TypeError.

    raw_joints maps each name to (pixel, conf); merge_keypoints reads the
    stream's [u, v, conf] instead, and both merge the same way. The result
    is a read-only mapping in measurement order (JOINT_ORDER) whose pixels
    are rows of one read-only block; it equals {} when nothing is kept.
    """
    keypoints = ((name, (pixel, _WHOLE_PIXEL, conf)) for name, (pixel, conf) in raw_joints.items())
    return _merged_alone(keypoints, box, min_confidence)


def merge_keypoints(
    keypoints: Mapping[str, Sequence], box: BoundingBox, min_confidence: float
) -> Mapping[JointKind, JointDetection]:
    """merge_joint_pairs on the detection stream's {name: [u, v, conf]}.

    Each keypoint is read once: its three values, then its confidence, and
    only a kept keypoint's pixel is read as two numbers, so a suppressed
    keypoint's pixel may be anything. This is ingest's merge, for one
    detection with a pixel block of its own.
    """
    return _merged_alone(keypoints.items(), box, min_confidence)


def _merged_alone(keypoints, box: BoundingBox, min_confidence: float) -> _Joints:
    pixels: List[float] = []
    joints = _merge(keypoints, box, min_confidence, pixels)
    if pixels:
        _share_block([joints], pixels)
    return joints


def _merge(keypoints, box: BoundingBox, min_confidence: float, pixels: List[float]) -> _Joints:
    """The merge of (name, [u, v, conf]) pairs: the merged joints, their
    pixels appended to pixels as u, v, ... and not yet set (_share_block
    sets them), or _NO_JOINTS when no slot is filled."""
    slots = None
    for name, vals in keypoints:
        u, v, conf = vals[0], vals[1], vals[2]
        conf = float(conf)
        if conf >= min_confidence:
            if type(u) is not float or type(v) is not float:
                pixel = u if v is _WHOLE_PIXEL else (u, v)
                u, v = np.asarray(pixel, dtype=float).reshape(2).tolist()
            slot = _SLOTS.get(name)
            if slot is not None:
                if slots is None:
                    slots = [None] * len(_SLOTS)
                slots[slot] = (u, v, conf)
    if slots is None:
        return _NO_JOINTS

    kinds, confidences = [], []
    for kind, slot in _KIND_SLOTS:
        joint = slots[slot]
        if joint is None:
            left, right = slots[slot + 1], slots[slot + 2]
            if left is None and right is None:
                continue
            if slot == 0:  # the neck: the shoulders' midpoint, or the one shoulder
                if left is not None and right is not None:
                    joint = tuple(0.5 * (a + b) for a, b in zip(left, right))
                else:
                    joint = left or right
            # Means as np.mean computes them: the sum starts from 0.0 (so a
            # -0.0 alone gives 0.0), then is divided by the count.
            elif left is not None and right is not None:
                joint = (box.u, (0.0 + left[1] + right[1]) / 2, (0.0 + left[2] + right[2]) / 2)
            else:
                _, v, conf = left or right
                joint = (box.u, 0.0 + v, 0.0 + conf)
        u, v, conf = joint
        if not 0.0 <= conf <= 1.0:
            raise ValueError("confidence must be in [0, 1]")
        kinds.append(kind)
        pixels += u, v
        confidences.append(conf)
    return _Joints(tuple(kinds), None, tuple(confidences))


def _share_block(joints: Sequence[_Joints], pixels: List[float]) -> None:
    """Set the pixels of each of joints, in order, to its rows of one
    read-only (n, 2) float64 block made from pixels by one np.array call."""
    block = np.array(pixels, dtype=float)
    # Not geometry.read_only: ingest makes no call into another module per
    # frame, which perfbench's tracer would count as a geometry call.
    block.flags.writeable = False
    block = block.reshape(-1, 2)
    start = 0
    for merged in joints:
        stop = start + len(merged.kinds)
        merged.pixels = block[start:stop]
        start = stop


def detection_frame_from_record(record: Mapping[str, Any], min_confidence: float) -> Frame:
    """Build a Frame from one detection-stream record, merging joint pairs.

    Raises:
        MalformedRecordError: a field is missing or its value is invalid
            (a box that is not four finite numbers with positive size, a
            joint that is not [u, v, conf] with a number conf, a kept one
            (conf >= min_confidence: not -0.5, not NaN) whose pixel is not
            two numbers or whose merged conf is outside [0, 1], a t that is
            not a finite number, a reid_hint that is neither an int nor an
            integral float (a bool or a string is neither), or an integer
            too large for a float); the message names the field.
    """
    index, field = None, "t"
    try:
        timestamp = float(record["t"])
        if not math.isfinite(timestamp):
            raise ValueError("t must be finite")
        detections, merged, pixels = [], [], []
        field = "detections"
        for index, det in enumerate(record.get("detections", [])):
            field = "box"
            box = BoundingBox.from_list(det["box"])
            field = "joints"
            joints = _merge(det.get("joints", {}).items(), box, min_confidence, pixels)
            if joints is not _NO_JOINTS:
                merged.append(joints)
            # Merged joints are already checked, so built without __post_init__.
            detection = object.__new__(Detection)
            detection.__dict__.update(box=box, joints=joints)
            detections.append(detection)
        if merged:
            _share_block(merged, pixels)
        index, field = None, "reid_hint"
        hint = record.get("reid_hint")
        # A hint names one detection: an int, or a float that is one exactly.
        if isinstance(hint, float) and hint.is_integer():
            hint = int(hint)
        elif hint is not None and type(hint) is not int:
            raise TypeError(f"reid_hint must be a detection index, got {hint!r}")
    except (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError) as exc:
        where = field if index is None else f"detections[{index}].{field}"
        raise MalformedRecordError(f"malformed {where}: {type(exc).__name__}: {exc}") from exc
    return Frame(timestamp=timestamp, detections=detections, reid_target_hint=hint)


def result_to_record(result: FrameResult) -> Dict[str, Any]:
    """Serialize a FrameResult to one track-log record."""
    record: Dict[str, Any] = {"t": result.timestamp, "status": result.status.value}
    if result.target_location is not None:
        record["target_xy"] = [float(result.target_location[0]), float(result.target_location[1])]
    if result.target_box is not None:
        record["target_box"] = result.target_box.to_list()
    tracks = []
    for tr in result.tracks:
        x, y, vx, vy = tr.state.s.tolist()
        tracks.append(
            {
                "id": tr.id,
                "status": tr.status.value,
                "is_target": tr.is_target,
                "x": x,
                "y": y,
                "vx": vx,
                "vy": vy,
                "misses": tr.misses,
            }
        )
    record["tracks"] = tracks
    return record


def write_jsonl(path, records: Iterable[Mapping[str, Any]]) -> None:
    """Write one compact JSON value per line, through files.write_text.

    Raises:
        TypeError: a record holds a value JSON cannot encode (a set, a
            numpy scalar); an existing file at path is then left as it was.
        FileIoError: the file could not be written.
    """
    text = "".join([json.dumps(record, separators=(",", ":")) + "\n" for record in records])
    write_text(path, text)


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Read one JSON value per non-blank line; lines end at "\\n".

    Raises:
        MalformedRecordError: a line is not UTF-8 or not valid JSON (for
            example, it was cut short); the message starts with its 1-based
            line number.
        FileIoError: the file could not be opened.
    """
    records = []
    with open_bytes(path) as fh, collection_paused():
        for number, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise MalformedRecordError(
                    f"line {number}: not UTF-8: {exc.reason} at byte {exc.start + 1}"
                ) from exc
            if line:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecordError(
                        f"line {number}: invalid JSON: {exc.msg} at column {exc.colno}"
                    ) from exc
                except (RecursionError, ValueError) as exc:
                    # An integer past the int-from-str digit limit, or nesting
                    # deeper than the decoder's recursion limit.
                    raise MalformedRecordError(f"line {number}: invalid JSON: {exc}") from exc
                records.append(record)
    return records

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
merges pairs either way. Records may carry extra keys (the simulator adds
"person" for bookkeeping); readers ignore them. A record that lacks a
field or holds an invalid value (NaN or infinite "t" included) raises
MalformedRecordError naming it, and read_jsonl raises it with the line
number for a line that is not JSON, such as one cut short. A keypoint
pixel may be null: it reads as NaN, and an update with it counts as a miss.

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
from typing import Any, Dict, Iterable, List, Mapping

from .association import BoundingBox
from .errors import MalformedRecordError
from .pipeline import Detection, Frame, FrameResult, merge_joint_pairs


def detection_frame_from_record(record: Mapping[str, Any], min_confidence: float) -> Frame:
    """Build a Frame from one detection-stream record, merging joint pairs.

    Raises:
        MalformedRecordError: a field is missing or its value is invalid
            (a box that is not four finite numbers with positive size, a
            joint that is not [u, v, conf] with conf in [0, 1], a t or
            reid_hint that is not a finite number, or an integer too large
            for a float); the message names the field.
    """
    index, field = None, "t"
    try:
        timestamp = float(record["t"])
        if not math.isfinite(timestamp):
            raise ValueError("t must be finite")
        detections = []
        field = "detections"
        for index, det in enumerate(record.get("detections", [])):
            field = "box"
            box = BoundingBox.from_list(det["box"])
            field = "joints"
            raw = {
                name: ((vals[0], vals[1]), vals[2])
                for name, vals in det.get("joints", {}).items()
            }
            joints = merge_joint_pairs(raw, box, min_confidence)
            detections.append(Detection(box=box, joints=joints))
        index, field = None, "reid_hint"
        hint = record.get("reid_hint")
        hint = None if hint is None else int(hint)
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
    record["tracks"] = [
        {
            "id": tr.id,
            "status": tr.status.value,
            "is_target": tr.is_target,
            "x": float(tr.state.s[0]),
            "y": float(tr.state.s[1]),
            "vx": float(tr.state.s[2]),
            "vy": float(tr.state.s[3]),
            "misses": tr.misses,
        }
        for tr in result.tracks
    ]
    return record


def write_jsonl(path, records: Iterable[Mapping[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def read_jsonl(path) -> List[Dict[str, Any]]:
    """Read one JSON value per non-blank line.

    Raises:
        MalformedRecordError: a line is not valid JSON (for example, it was
            cut short); the message starts with its 1-based line number.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedRecordError(
                        f"line {number}: invalid JSON: {exc.msg} at column {exc.colno}"
                    ) from exc
                records.append(record)
    return records

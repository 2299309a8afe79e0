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
merges pairs either way, with one call of pipeline.merge_keypoints per
detection. It reads each keypoint once, its confidence first: a keypoint
below min_confidence is dropped without its pixel being read, which is
most of them in a crowd, where a pose detector prints every keypoint of
every person. Records may carry extra keys (the simulator adds
"person" for bookkeeping); readers ignore them. A record that lacks a
field or holds an invalid value (NaN or infinite "t" included) raises
MalformedRecordError naming it, and read_jsonl raises it with the line
number for a line that is not UTF-8 or not JSON, such as one cut short. A
kept keypoint's pixel may be null: it reads as NaN, and an update with it
counts as a miss. read_jsonl parses with the cyclic garbage collector paused
(files.collection_paused): decoded records are trees, which reference
counting frees.

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
from .files import collection_paused, open_bytes, write_text
from .pipeline import Detection, Frame, FrameResult, merge_keypoints


def detection_frame_from_record(record: Mapping[str, Any], min_confidence: float) -> Frame:
    """Build a Frame from one detection-stream record, merging joint pairs.

    Raises:
        MalformedRecordError: a field is missing or its value is invalid
            (a box that is not four finite numbers with positive size, a
            joint that is not [u, v, conf] with conf in [0, 1], a t that
            is not a finite number, a reid_hint that is neither an int nor
            an integral float (a bool or a string is neither), or an
            integer too large for a float); the message names the field.
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
            joints = merge_keypoints(det.get("joints", {}), box, min_confidence)
            detections.append(Detection(box, joints))
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

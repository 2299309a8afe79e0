"""Localization and tracking metrics plus report serialization.

Localization quality over a sequence is summarized by three numbers:

- ALE: mean Euclidean ground-plane error over the frames where the
  tracker recognized the target (status Tracking),
- recall: recognized frames / all frames,
- WLE: ALE divided by recall, trading accuracy off against robustness.

Lost frames count against recall but not against ALE. Zero recall makes
WLE infinite and flags the sequence as failed.

Image-space tracking accuracy counts a frame as a hit when a target box
was reported and its center lies within a pixel threshold (50 px by
default) of the ground-truth box center; frames with a reported box count
as misses when too far, and frames with no reported box are misses as
well. Frames where the truth itself has no box (target fully out of view)
are excluded from the denominator.
"""

import csv
import io
import json
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import FileIoError, MalformedRecordError, ReportIoError, TimestampMismatchError
from .files import write_text

DEFAULT_CENTER_THRESHOLD_PX = 50.0


@dataclass(frozen=True)
class LocalizationReport:
    """ALE / recall / WLE summary plus the per-frame error series."""

    ale: float
    recall: float
    wle: float
    failed: bool
    per_frame: Tuple[Tuple[float, str, Optional[float]], ...]  # (t, status, error)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ale_m": self.ale,
            "recall": self.recall,
            "wle_m": self.wle if math.isfinite(self.wle) else None,
            "failed": self.failed,
            "frames": len(self.per_frame),
        }


@dataclass(frozen=True)
class TrackingReport:
    """Center-distance accuracy at a pixel threshold."""

    accuracy: float
    threshold_px: float
    per_frame: Tuple[Tuple[float, Optional[bool]], ...]  # (t, hit or None if unscored)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "accuracy": self.accuracy,
            "threshold_px": self.threshold_px,
            "frames": len(self.per_frame),
        }


_RECORD_ERRORS = (AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError)


def _malformed(stream: str, number: int, field: str, exc: Exception) -> MalformedRecordError:
    return MalformedRecordError(
        f"{stream} record {number}: malformed {field}: {type(exc).__name__}: {exc}"
    )


def _timestamp(stream: str, number: int, record: Mapping[str, Any]) -> float:
    try:
        return float(record["t"])
    except _RECORD_ERRORS as exc:
        raise _malformed(stream, number, "t", exc) from exc


def _aligned_times(estimates: Sequence[Mapping], truth: Sequence[Mapping]) -> List[float]:
    """The frame timestamps both streams share, frame by frame."""
    if len(estimates) != len(truth):
        raise TimestampMismatchError(
            f"{len(estimates)} estimate frames vs {len(truth)} truth frames"
        )
    times = []
    for number, (est, tru) in enumerate(zip(estimates, truth), 1):
        t_est = _timestamp("estimate", number, est)
        t_tru = _timestamp("truth", number, tru)
        if t_est != t_tru:
            raise TimestampMismatchError(f"timestamp {t_est} vs {t_tru}")
        times.append(t_est)
    return times


def _xy(value: Any) -> np.ndarray:
    xy = np.asarray(value, dtype=float)
    if xy.shape != (2,):
        raise ValueError(f"{value!r} is not [x, y]")
    return xy


def _box_center(box: Any) -> Optional[Tuple[float, float]]:
    return None if box is None else (float(box[0]), float(box[1]))


def _target_field(truth_frame: Mapping[str, Any], number: int, name: str, parse: Callable):
    """parse applied to field name (None when absent) of the target person."""
    field = "persons"
    try:
        persons = truth_frame["persons"]
        field = "target_index"
        index = operator.index(truth_frame["target_index"])
        if not 0 <= index < len(persons):
            raise IndexError(f"{index} is not the index of one of {len(persons)} persons")
        field = f"persons[{index}].{name}"
        return parse(persons[index].get(name))
    except _RECORD_ERRORS as exc:
        raise _malformed("truth", number, field, exc) from exc


def localization_metrics(
    estimates: Sequence[Mapping[str, Any]],
    truth: Sequence[Mapping[str, Any]],
) -> LocalizationReport:
    """Compare a track log against a ground-truth stream frame by frame.

    The streams must be time-aligned: same length, identical timestamps.

    Raises:
        TimestampMismatchError: the streams are not aligned.
        MalformedRecordError: a record lacks a field the comparison reads
            or holds an invalid value (a t that is not a number, a
            Tracking record's target_xy or the truth target's xy that is
            not [x, y], a target_index out of range); the message names
            the stream, the 1-based record number and the field.
    """
    times = _aligned_times(estimates, truth)
    per_frame: List[Tuple[float, str, Optional[float]]] = []
    errors: List[float] = []
    recognized = 0
    for number, (t, est, tru) in enumerate(zip(times, estimates, truth), 1):
        status = est.get("status", "Uninitialized")
        error = None
        if status == "Tracking":
            recognized += 1
            try:
                xy_est = _xy(est.get("target_xy"))
            except _RECORD_ERRORS as exc:
                raise _malformed("estimate", number, "target_xy", exc) from exc
            error = float(np.linalg.norm(xy_est - _target_field(tru, number, "xy", _xy)))
            errors.append(error)
        per_frame.append((t, status, error))

    total = len(per_frame)
    recall = recognized / total if total else 0.0
    ale = float(np.mean(errors)) if errors else 0.0
    if recall > 0:
        wle = ale / recall
        failed = False
    else:
        wle = math.inf
        failed = True
    return LocalizationReport(
        ale=ale, recall=recall, wle=wle, failed=failed, per_frame=tuple(per_frame)
    )


def tracking_accuracy(
    estimates: Sequence[Mapping[str, Any]],
    truth: Sequence[Mapping[str, Any]],
    threshold_px: float = DEFAULT_CENTER_THRESHOLD_PX,
) -> TrackingReport:
    """Fraction of frames whose reported target box center is on target.

    Raises:
        TimestampMismatchError: the streams are not aligned.
        MalformedRecordError: a t is not a number, a box has no numeric
            center, or a target_index is out of range; the message names
            the stream, the 1-based record number and the field.
    """
    times = _aligned_times(estimates, truth)
    per_frame: List[Tuple[float, Optional[bool]]] = []
    hits = 0
    scored = 0
    for number, (t, est, tru) in enumerate(zip(times, estimates, truth), 1):
        truth_center = _target_field(tru, number, "box", _box_center)
        if truth_center is None:
            per_frame.append((t, None))
            continue
        scored += 1
        try:
            est_center = _box_center(est.get("target_box"))
        except _RECORD_ERRORS as exc:
            raise _malformed("estimate", number, "target_box", exc) from exc
        hit = False
        if est_center is not None:
            du = est_center[0] - truth_center[0]
            dv = est_center[1] - truth_center[1]
            hit = math.hypot(du, dv) < threshold_px
        hits += hit
        per_frame.append((t, hit))
    accuracy = hits / scored if scored else 0.0
    return TrackingReport(
        accuracy=accuracy, threshold_px=float(threshold_px), per_frame=tuple(per_frame)
    )


def report_payload(
    localization: Optional[LocalizationReport] = None,
    tracking: Optional[TrackingReport] = None,
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {}
    if localization is not None:
        payload["localization"] = localization.to_dict()
    if tracking is not None:
        payload["tracking"] = tracking.to_dict()
    return payload


def write_report(
    path,
    localization: Optional[LocalizationReport] = None,
    tracking: Optional[TrackingReport] = None,
    fmt: str = "json",
) -> None:
    """Serialize reports to JSON (summary) or CSV (per-frame + summary row).

    Raises:
        ReportIoError: the file could not be written.
        ValueError: unknown format.
    """
    if fmt == "json":
        payload = report_payload(localization, tracking)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        text = _csv_text(localization, tracking)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    try:
        write_text(path, text)
    except FileIoError as exc:
        raise ReportIoError(str(exc)) from exc


def _csv_text(localization, tracking) -> str:
    loc_by_t: Dict[float, Tuple[str, Optional[float]]] = {}
    if localization is not None:
        loc_by_t = {t: (status, err) for t, status, err in localization.per_frame}
    trk_by_t: Dict[float, Optional[bool]] = {}
    if tracking is not None:
        trk_by_t = {t: hit for t, hit in tracking.per_frame}
    times = sorted(set(loc_by_t) | set(trk_by_t))

    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(["t", "status", "error_m", "box_hit"])
    for t in times:
        status, err = loc_by_t.get(t, ("", None))
        hit = trk_by_t.get(t)
        writer.writerow(
            [
                f"{t:.6f}",
                status,
                "" if err is None else f"{err:.6f}",
                "" if hit is None else int(hit),
            ]
        )
    summary = ["summary", "", "", ""]
    if localization is not None:
        wle = "inf" if not math.isfinite(localization.wle) else f"{localization.wle:.6f}"
        summary[1] = f"ALE={localization.ale:.6f}"
        summary[2] = f"recall={localization.recall:.6f};WLE={wle}"
    if tracking is not None:
        summary[3] = f"accuracy={tracking.accuracy:.6f}"
    writer.writerow(summary)
    return out.getvalue()

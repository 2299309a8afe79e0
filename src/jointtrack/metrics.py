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
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import FileIoError, ReportIoError, TimestampMismatchError
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


def _check_alignment(estimates: Sequence[Mapping], truth: Sequence[Mapping]) -> None:
    if len(estimates) != len(truth):
        raise TimestampMismatchError(
            f"{len(estimates)} estimate frames vs {len(truth)} truth frames"
        )
    for est, tru in zip(estimates, truth):
        if est["t"] != tru["t"]:
            raise TimestampMismatchError(f"timestamp {est['t']} vs {tru['t']}")


def _target_xy(truth_frame: Mapping[str, Any]) -> np.ndarray:
    person = truth_frame["persons"][truth_frame["target_index"]]
    return np.asarray(person["xy"], dtype=float)


def _target_truth_box(truth_frame: Mapping[str, Any]) -> Optional[List[float]]:
    person = truth_frame["persons"][truth_frame["target_index"]]
    return person.get("box")


def localization_metrics(
    estimates: Sequence[Mapping[str, Any]],
    truth: Sequence[Mapping[str, Any]],
) -> LocalizationReport:
    """Compare a track log against a ground-truth stream frame by frame.

    The streams must be time-aligned: same length, identical timestamps.
    """
    _check_alignment(estimates, truth)
    per_frame: List[Tuple[float, str, Optional[float]]] = []
    errors: List[float] = []
    recognized = 0
    for est, tru in zip(estimates, truth):
        status = est.get("status", "Uninitialized")
        error = None
        if status == "Tracking":
            recognized += 1
            xy_est = np.asarray(est["target_xy"], dtype=float)
            error = float(np.linalg.norm(xy_est - _target_xy(tru)))
            errors.append(error)
        per_frame.append((float(est["t"]), status, error))

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
    """Fraction of frames whose reported target box center is on target."""
    _check_alignment(estimates, truth)
    per_frame: List[Tuple[float, Optional[bool]]] = []
    hits = 0
    scored = 0
    for est, tru in zip(estimates, truth):
        truth_box = _target_truth_box(tru)
        if truth_box is None:
            per_frame.append((float(est["t"]), None))
            continue
        scored += 1
        est_box = est.get("target_box")
        hit = False
        if est_box is not None:
            du = est_box[0] - truth_box[0]
            dv = est_box[1] - truth_box[1]
            hit = math.hypot(du, dv) < threshold_px
        hits += hit
        per_frame.append((float(est["t"]), hit))
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

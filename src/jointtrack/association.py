"""Track/detection association in bounding-box space.

Joint detections are too jittery under occlusion to associate on, so
matching uses the box detector instead: each track's ground state predicts
the horizontal box center and, modelling the person as a cylinder of known
width, the box width

    u_bar = g(X)|_x,    w_bar = f_x * M_W / X_z ,

with g the pinhole projection geometry.project_points.

The distance to a detected box compares only these two components (the
vertical center and box height carry no extra ground-plane information):

    d = sqrt((u_bar - u)^2 + (w_bar - w)^2)

A global nearest neighbor assignment (Hungarian solve on the gated cost
matrix) matches tracks to detections one-to-one: pairs farther apart than
the gate are forbidden, the match count is maximized over allowed pairs
and the total distance minimized among those matchings.
"""

import math
from dataclasses import dataclass
from typing import Collection, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import BehindCameraError
from .geometry import CameraModel, GroundPlane, _pinhole
from .prior import PriorModel

MIN_ASSOCIATION_DEPTH = 0.1

# Any finite distance is dwarfed by this; used to forbid gated-out pairs
# while keeping the cost matrix solvable.
FORBIDDEN_COST = 1e12


def _check_box(u: float, v: float, w: float, h: float) -> None:
    isfinite = math.isfinite
    if not (isfinite(u) and isfinite(v) and isfinite(w) and isfinite(h)):
        raise ValueError("box fields must be finite")
    if w <= 0 or h <= 0:
        raise ValueError("box width and height must be positive")


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: center (u, v), width and height, in pixels."""

    u: float
    v: float
    w: float
    h: float

    def __post_init__(self):
        _check_box(self.u, self.v, self.w, self.h)

    def center(self) -> np.ndarray:
        return np.array([self.u, self.v])

    def to_list(self) -> List[float]:
        return [self.u, self.v, self.w, self.h]

    @classmethod
    def from_list(cls, values: Sequence[float]) -> "BoundingBox":
        u, v, w, h = values
        u, v, w, h = float(u), float(v), float(w), float(h)
        _check_box(u, v, w, h)
        # Checked above, so built without __post_init__: a frozen
        # dataclass keeps its fields in the instance __dict__.
        box = object.__new__(cls)
        box.__dict__.update(u=u, v=v, w=w, h=h)
        return box


@dataclass(frozen=True)
class AssociationResult:
    """One-to-one assignment outcome.

    matches holds (track_id, detection_index, distance); ids and indices
    appear at most once across all fields.
    """

    matches: List[Tuple[int, int, float]]
    unmatched_tracks: List[int]
    unmatched_detections: List[int]

    def total_cost(self) -> float:
        return float(sum(m[2] for m in self.matches))


def expected_boxes(
    means: np.ndarray, widths: Sequence[float], camera: CameraModel, ground: GroundPlane
) -> Tuple[np.ndarray, np.ndarray]:
    """Predicted (u_bar, w_bar) of T tracks with (T, 4) means and (T,) body
    widths. Returns (too_close, boxes): too_close[t] marks a track no
    deeper than 0.1 m, which gets no box, and boxes holds one row per other
    track, in order.
    """
    ankles = ground.to_camera(means[:, 0:1], means[:, 1:2])
    widths = np.asarray(widths, dtype=float)
    too_close = ankles[:, 2] <= MIN_ASSOCIATION_DEPTH
    if too_close.any():
        ankles, widths = ankles[~too_close], widths[~too_close]
    boxes = _pinhole(camera, ankles)  # depth checked above; u_bar, then v gives way to w_bar
    boxes[:, 1] = camera.fx * widths / ankles[:, 2]
    return too_close, boxes


def expected_box(
    state_mean: np.ndarray,
    camera: CameraModel,
    ground: GroundPlane,
    prior: PriorModel,
) -> Tuple[float, float]:
    """Predicted (horizontal center, width) of a track's bounding box:
    expected_boxes() for one track.

    Raises:
        BehindCameraError: reconstructed depth is at most 0.1 m.
    """
    s = np.asarray(state_mean, dtype=float).ravel()
    too_close, boxes = expected_boxes(s[None], [prior.body_width], camera, ground)
    if too_close[0]:
        raise BehindCameraError(f"predicted depth is at most {MIN_ASSOCIATION_DEPTH} m")
    return float(boxes[0, 0]), float(boxes[0, 1])


def box_distance(expected: Tuple[float, float], detected: BoundingBox) -> float:
    """Euclidean distance in (center-u, width) space; v and h are ignored."""
    du = expected[0] - detected.u
    dw = expected[1] - detected.w
    return float(np.hypot(du, dw))


def _gated_costs(
    expected: Sequence[Tuple[float, float]],
    detections: Sequence[BoundingBox],
    gate: float,
    blocked: Collection[int],
) -> np.ndarray:
    """Track x detection matrix of box_distance values.

    Entries farther apart than the gate, and every column in blocked,
    hold FORBIDDEN_COST; a blocked value that names no column is ignored.
    Each entry is computed exactly as box_distance computes it.
    """
    exp = np.array(expected, dtype=float)
    det = np.array([(d.u, d.w) for d in detections], dtype=float)
    dist = np.hypot(exp[:, 0:1] - det[:, 0], exp[:, 1:2] - det[:, 1])
    cost = np.where(dist <= gate, dist, FORBIDDEN_COST)
    columns = [int(j) for j in blocked if j in range(len(detections))]
    if columns:
        cost[:, columns] = FORBIDDEN_COST
    return cost


def match_gnn(
    tracks: Sequence[Tuple[int, Tuple[float, float]]],
    detections: Sequence[BoundingBox],
    gate: float,
    forbidden_detections: Optional[Sequence[int]] = None,
) -> AssociationResult:
    """Globally optimal gated one-to-one matching.

    Args:
        tracks: (track_id, (u_bar, w_bar)) pairs.
        detections: detected boxes, indexed by position.
        gate: pairs with distance > gate are never matched.
        forbidden_detections: indices excluded from matching entirely
            (e.g. a detection reserved for target re-initialization).

    The assignment maximizes the number of gated matches and, among those,
    minimizes the total distance (Hungarian solve with forbidden pairs at
    a prohibitive constant).
    """
    if gate <= 0:
        raise ValueError("gate must be positive")
    blocked = set(forbidden_detections or ())
    track_ids = [tid for tid, _ in tracks]
    if not tracks or not detections:
        return AssociationResult(
            matches=[],
            unmatched_tracks=list(track_ids),
            unmatched_detections=[i for i in range(len(detections)) if i not in blocked],
        )

    cost = _gated_costs([exp for _, exp in tracks], detections, gate, blocked)

    rows, cols = linear_sum_assignment(cost)
    matches = []
    matched_tracks, matched_dets = set(), set()
    # Read once, as plain ints and floats.
    for i, j, dist in zip(rows.tolist(), cols.tolist(), cost[rows, cols].tolist()):
        if dist >= FORBIDDEN_COST:
            continue
        matches.append((track_ids[i], j, dist))
        matched_tracks.add(track_ids[i])
        matched_dets.add(j)
    return AssociationResult(
        matches=matches,
        unmatched_tracks=[tid for tid in track_ids if tid not in matched_tracks],
        unmatched_detections=[
            j for j in range(len(detections)) if j not in matched_dets and j not in blocked
        ],
    )

"""Tests for bounding-box-space association and GNN matching.

The GNN oracle enumerates every gated one-to-one matching by brute force
(maximum cardinality first, then minimum total distance) and must agree
with the Hungarian implementation on cost and match count.
"""

from itertools import permutations

import numpy as np
import pytest

from jointtrack.association import (
    FORBIDDEN_COST,
    MIN_ASSOCIATION_DEPTH,
    AssociationResult,
    BoundingBox,
    _gated_costs,
    box_distance,
    expected_box,
    expected_boxes,
    match_gnn,
)
from jointtrack.errors import BehindCameraError
from jointtrack.geometry import CameraModel, ground_plane_from_tilt
from jointtrack.prior import PriorModel

CAM = CameraModel(fx=500.0, fy=500.0, cx=320.0, cy=240.0, image_width=640, image_height=480)
LEVEL = ground_plane_from_tilt(1.4, 0.0)
PRIOR = PriorModel(body_width=0.5)


def brute_force_best(cost, gate):
    """Exhaustive gated matching: (max matches, min total cost).

    Enumerates all permutations of the square-padded matrix; forbidden and
    dummy pairs carry a penalty so cardinality dominates cost.
    """
    n_t, n_d = cost.shape
    n = max(n_t, n_d)
    penalty = 1e9
    padded = np.full((n, n), penalty)
    real = cost.copy()
    real[real > gate] = penalty
    padded[:n_t, :n_d] = real
    best = None
    for perm in permutations(range(n)):
        used = [(i, perm[i]) for i in range(n) if padded[i, perm[i]] < penalty]
        total = sum(padded[i, j] for i, j in used)
        key = (-len(used), total)
        if best is None or key < best:
            best = key
    return -best[0], best[1]


def inline_expected_box(state_mean, camera, ground, prior):
    """Reference: one track's expected box with the pinhole model inline."""
    s = np.asarray(state_mean, dtype=float).ravel()
    ankle = ground.to_camera(s[0], s[1])
    depth = ankle[2]
    if depth <= MIN_ASSOCIATION_DEPTH:
        raise BehindCameraError(f"predicted depth {depth:.3f} m is too small")
    u_bar = camera.fx * ankle[0] / depth + camera.cx
    w_bar = camera.fx * prior.body_width / depth
    return float(u_bar), float(w_bar)


def loop_gated_costs(expected, detections, gate, blocked=()):
    """Reference: the gated cost matrix filled one box_distance at a time."""
    cost = np.full((len(expected), len(detections)), FORBIDDEN_COST)
    for i, exp in enumerate(expected):
        for j, det in enumerate(detections):
            if j in blocked:
                continue
            d = box_distance(exp, det)
            if d <= gate:
                cost[i, j] = d
    return cost


class TestExpectedBox:
    def test_straight_ahead_five_meters(self):
        # u = 500*0/5 + 320 = 320, w = 500*0.5/5 = 50
        u, w = expected_box([0.0, 5.0, 0, 0], CAM, LEVEL, PRIOR)
        assert u == pytest.approx(320.0)
        assert w == pytest.approx(50.0)

    def test_width_doubles_at_half_depth(self):
        _, w_far = expected_box([0.0, 5.0, 0, 0], CAM, LEVEL, PRIOR)
        _, w_near = expected_box([0.0, 2.5, 0, 0], CAM, LEVEL, PRIOR)
        assert w_near == pytest.approx(2 * w_far)

    def test_forty_five_degree_bearing(self):
        # x == z puts the center one focal length off the principal point.
        u, _ = expected_box([3.0, 3.0, 0, 0], CAM, LEVEL, PRIOR)
        assert u == pytest.approx(CAM.cx + CAM.fx)

    def test_width_strictly_decreasing_in_depth(self):
        widths = [expected_box([0.5, d, 0, 0], CAM, LEVEL, PRIOR)[1] for d in np.linspace(1, 8, 15)]
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_behind_camera(self):
        with pytest.raises(BehindCameraError):
            expected_box([0.0, -1.0, 0, 0], CAM, LEVEL, PRIOR)
        with pytest.raises(BehindCameraError):
            expected_box([0.0, 0.05, 0, 0], CAM, LEVEL, PRIOR)

    @pytest.mark.parametrize(
        "ground", [LEVEL, ground_plane_from_tilt(1.2, 0.1)], ids=["level", "tilted"]
    )
    def test_batch_equals_inline_per_track_loop(self, ground):
        rng = np.random.default_rng(21)
        means = np.column_stack(
            [rng.uniform(-4, 4, 40), rng.uniform(-2, 12, 40), rng.normal(size=(40, 2))]
        )
        # Track 0 is exactly on the 0.1 m depth limit on the level ground,
        # track 1 is closer than the limit and track 2 behind the camera.
        means[0, :2] = [0.3, MIN_ASSOCIATION_DEPTH]
        means[1, :2] = [0.2, -0.1]
        means[2, :2] = [0.0, -1.0]
        priors = [PriorModel(body_width=w) for w in rng.uniform(0.3, 0.7, 40)]

        too_close, boxes = expected_boxes(means, [p.body_width for p in priors], CAM, ground)
        reference, behind = [], []
        for t, (mean, prior) in enumerate(zip(means, priors)):
            try:
                reference.append(inline_expected_box(mean, CAM, ground, prior))
            except BehindCameraError:
                behind.append(t)
                with pytest.raises(BehindCameraError):
                    expected_box(mean, CAM, ground, prior)
                continue
            assert expected_box(mean, CAM, ground, prior) == reference[-1]
        assert {1, 2} <= set(behind)
        assert (0 in behind) == (ground is LEVEL)
        assert list(np.flatnonzero(too_close)) == behind
        assert boxes.shape == (40 - len(behind), 2)
        assert [tuple(row) for row in boxes.tolist()] == reference

    def test_depth_limit_is_inclusive(self):
        just_beyond = np.nextafter(MIN_ASSOCIATION_DEPTH, 1.0)
        means = np.array([[0.3, MIN_ASSOCIATION_DEPTH, 0, 0], [0.3, just_beyond, 0, 0]])
        too_close, boxes = expected_boxes(means, [0.5, 0.5], CAM, LEVEL)
        assert too_close.tolist() == [True, False]
        assert boxes.shape == (1, 2)

    def test_batch_of_no_tracks(self):
        too_close, boxes = expected_boxes(np.empty((0, 4)), [], CAM, LEVEL)
        assert too_close.shape == (0,) and boxes.shape == (0, 2)


class TestBoxDistance:
    def test_exact_match(self):
        assert box_distance((320.0, 50.0), BoundingBox(u=320, v=111, w=50, h=200)) == 0.0

    def test_three_four_five(self):
        assert box_distance((320.0, 50.0), BoundingBox(u=323, v=0.5, w=46, h=1)) == pytest.approx(5.0)

    def test_single_axis(self):
        assert box_distance((300.0, 40.0), BoundingBox(u=300, v=99, w=52, h=10)) == pytest.approx(12.0)

    def test_v_and_h_ignored(self):
        d1 = box_distance((320.0, 50.0), BoundingBox(u=330, v=10, w=55, h=20))
        d2 = box_distance((320.0, 50.0), BoundingBox(u=330, v=470, w=55, h=400))
        assert d1 == d2

    def test_symmetric_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            a = rng.uniform([0, 1], [640, 200])
            b = rng.uniform([0, 1], [640, 200])
            box_ab = BoundingBox(u=b[0], v=240, w=b[1], h=100)
            box_ba = BoundingBox(u=a[0], v=240, w=a[1], h=100)
            d = box_distance((a[0], a[1]), box_ab)
            assert d >= 0
            assert d == pytest.approx(box_distance((b[0], b[1]), box_ba))
            if d == 0:
                assert a[0] == b[0] and a[1] == b[1]


class TestMatchGnn:
    def test_singleton_within_gate(self):
        res = match_gnn([(7, (320.0, 50.0))], [BoundingBox(u=323, v=200, w=46, h=100)], gate=80.0)
        assert res.matches == [(7, 0, pytest.approx(5.0))]
        assert res.unmatched_tracks == [] and res.unmatched_detections == []

    def test_gate_boundary_excludes(self):
        det = BoundingBox(u=320.0 + 81.0, v=200, w=50, h=100)
        res = match_gnn([(1, (320.0, 50.0))], [det], gate=80.0)
        assert res.matches == []
        assert res.unmatched_tracks == [1]
        assert res.unmatched_detections == [0]

    def test_distance_equal_to_gate_is_allowed(self):
        det = BoundingBox(u=400.0, v=200, w=50, h=100)
        res = match_gnn([(1, (320.0, 50.0))], [det], gate=80.0)
        assert len(res.matches) == 1

    def test_global_beats_greedy_on_2x2(self):
        # Constructed (u, w) layout with distances
        #   t0-d0 = 5, t0-d1 = 16, t1-d0 = 6, t1-d1 = 25:
        # greedy per-track picks d0 for t0 then leaves t1 with d1
        # (total 30); the optimal pairing costs 16 + 6 = 22.
        c = 37.0 / 63.0
        s = np.sqrt(1 - c * c)
        tracks = [(0, (300.0, 50.0)), (1, (305.0 + 6 * c, 50.0 + 6 * s))]
        d0 = BoundingBox(u=305.0, v=240, w=50.0, h=100)
        d1 = BoundingBox(u=284.0, v=240, w=50.0, h=100)
        cost = np.array(
            [[box_distance(tracks[0][1], d) for d in (d0, d1)],
             [box_distance(tracks[1][1], d) for d in (d0, d1)]]
        )
        np.testing.assert_allclose(cost, [[5.0, 16.0], [6.0, 25.0]], atol=1e-12)
        # brute force over both complete assignments
        assert min(cost[0, 0] + cost[1, 1], cost[0, 1] + cost[1, 0]) == pytest.approx(22.0)
        res = match_gnn(tracks, [d0, d1], gate=200.0)
        assert res.total_cost() == pytest.approx(22.0)
        assert {(m[0], m[1]) for m in res.matches} == {(0, 1), (1, 0)}

    def test_empty_inputs(self):
        assert match_gnn([], [], gate=10.0) == AssociationResult([], [], [])
        res = match_gnn([(3, (10.0, 10.0))], [], gate=10.0)
        assert res.unmatched_tracks == [3]
        res = match_gnn([], [BoundingBox(u=1, v=1, w=1, h=1)], gate=10.0)
        assert res.unmatched_detections == [0]

    def test_forbidden_detection_is_reserved(self):
        tracks = [(0, (320.0, 50.0))]
        dets = [BoundingBox(u=320, v=200, w=50, h=100), BoundingBox(u=600, v=200, w=20, h=80)]
        res = match_gnn(tracks, dets, gate=80.0, forbidden_detections=[0])
        assert all(j != 0 for _, j, _ in res.matches)
        assert 0 not in res.unmatched_detections

    def test_partition_invariant(self):
        rng = np.random.default_rng(59)
        for _ in range(200):
            n_t, n_d = rng.integers(0, 5), rng.integers(0, 5)
            tracks = [(tid, (rng.uniform(0, 640), rng.uniform(5, 150))) for tid in range(n_t)]
            dets = [
                BoundingBox(u=rng.uniform(0, 640), v=240, w=rng.uniform(5, 150), h=100)
                for _ in range(n_d)
            ]
            res = match_gnn(tracks, dets, gate=60.0)
            seen_t = [m[0] for m in res.matches] + res.unmatched_tracks
            seen_d = [m[1] for m in res.matches] + res.unmatched_detections
            assert sorted(seen_t) == list(range(n_t))
            assert sorted(seen_d) == list(range(n_d))

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(61)
        gate = 60.0
        for _ in range(300):
            n_t = int(rng.integers(1, 7))
            n_d = int(rng.integers(1, 7))
            tracks = [(tid, (rng.uniform(0, 640), rng.uniform(5, 150))) for tid in range(n_t)]
            dets = [
                BoundingBox(u=rng.uniform(0, 640), v=240, w=rng.uniform(5, 150), h=100)
                for _ in range(n_d)
            ]
            cost = np.array(
                [[box_distance(exp, det) for det in dets] for _, exp in tracks]
            )
            best_count, best_cost = brute_force_best(cost, gate)
            res = match_gnn(tracks, dets, gate=gate)
            assert len(res.matches) == best_count
            assert res.total_cost() == pytest.approx(best_cost, abs=1e-9)

    def test_cost_matrix_equals_per_cell_loop(self):
        rng = np.random.default_rng(67)
        gate = 60.0
        for _ in range(200):
            n_t, n_d = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            expected = [(rng.uniform(0, 640), rng.uniform(5, 150)) for _ in range(n_t)]
            dets = [
                BoundingBox(u=rng.uniform(0, 640), v=240, w=rng.uniform(5, 150), h=100)
                for _ in range(n_d)
            ]
            blocked = set(rng.choice(n_d + 2, size=int(rng.integers(0, 3)), replace=False).tolist())
            # One pair exactly on the gate (a 36-48-60 triangle).
            expected[0] = (float(rng.integers(0, 600)), float(rng.integers(5, 100)))
            dets.append(BoundingBox(u=expected[0][0] + 36.0, v=240, w=expected[0][1] + 48.0, h=100))
            got = _gated_costs(expected, dets, gate, blocked)
            want = loop_gated_costs(expected, dets, gate, blocked)
            assert np.array_equal(got, want)
            if n_d not in blocked:
                assert got[0, n_d] == gate

    def test_blocked_out_of_range_indices_are_ignored(self):
        dets = [BoundingBox(u=320, v=200, w=50, h=100), BoundingBox(u=330, v=200, w=52, h=100)]
        res = match_gnn([(0, (320.0, 50.0))], dets, gate=80.0, forbidden_detections=[-1, 5])
        assert res.matches == [(0, 0, 0.0)]
        assert res.unmatched_detections == [1]

    def test_invalid_gate(self):
        with pytest.raises(ValueError):
            match_gnn([], [], gate=0.0)


class TestBoundingBox:
    def test_list_round_trip(self):
        box = BoundingBox(u=10.5, v=20.5, w=30.0, h=40.0)
        assert BoundingBox.from_list(box.to_list()) == box

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            BoundingBox(u=0, v=0, w=0, h=10)

    @pytest.mark.parametrize("field", ["u", "v", "w", "h"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        fields = dict(u=10.0, v=20.0, w=30.0, h=40.0)
        fields[field] = value
        with pytest.raises(ValueError):
            BoundingBox(**fields)

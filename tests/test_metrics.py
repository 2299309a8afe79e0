"""Tests for ALE / recall / WLE arithmetic and tracking accuracy."""

import json
import math

import numpy as np
import pytest

from jointtrack.errors import MalformedRecordError, ReportIoError, TimestampMismatchError
from jointtrack.metrics import (
    localization_metrics,
    tracking_accuracy,
    write_report,
)


def make_streams(n, tracking_mask, error, box_offset=None, truth_box=True):
    """Synthesize aligned estimate/truth streams with a constant error."""
    estimates, truth = [], []
    for k in range(n):
        t = k / 30.0
        tracked = tracking_mask(k)
        est = {"t": t, "status": "Tracking" if tracked else "Lost"}
        if tracked:
            est["target_xy"] = [1.0 + error, 2.0]
            if box_offset is not None:
                est["target_box"] = [300.0 + box_offset, 200.0, 60.0, 200.0]
        truth.append(
            {
                "t": t,
                "target_index": 0,
                "persons": [
                    {
                        "xy": [1.0, 2.0],
                        "box": [300.0, 200.0, 60.0, 200.0] if truth_box else None,
                    }
                ],
            }
        )
        estimates.append(est)
    return estimates, truth


class TestLocalizationMetrics:
    def test_full_recall_row(self):
        # ALE 0.11 at recall 1.00 gives WLE 0.11, matching the headline
        # sequence-I figures.
        est, tru = make_streams(100, lambda k: True, 0.11)
        report = localization_metrics(est, tru)
        assert report.ale == pytest.approx(0.11)
        assert report.recall == 1.0
        assert report.wle == pytest.approx(0.11)
        assert not report.failed

    def test_partial_recall_row(self):
        # ALE 0.10 at recall 0.64: the ratio is 0.15625, i.e. 0.16 at two
        # decimals (a two-decimal table may print 0.17 from unrounded ALE).
        est, tru = make_streams(100, lambda k: k < 64, 0.10)
        report = localization_metrics(est, tru)
        assert report.ale == pytest.approx(0.10)
        assert report.recall == pytest.approx(0.64)
        assert report.wle == pytest.approx(0.15625)
        assert abs(report.wle - 0.16) <= 0.01

    def test_zero_recall_fails(self):
        est, tru = make_streams(50, lambda k: False, 0.0)
        report = localization_metrics(est, tru)
        assert report.recall == 0.0
        assert math.isinf(report.wle)
        assert report.failed

    def test_lost_frames_do_not_pollute_ale(self):
        est, tru = make_streams(10, lambda k: k % 2 == 0, 0.2)
        report = localization_metrics(est, tru)
        assert report.ale == pytest.approx(0.2)
        assert report.recall == pytest.approx(0.5)
        assert report.wle == pytest.approx(0.4)

    def test_wle_never_below_ale(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            mask_bits = rng.random(40) < rng.uniform(0.1, 1.0)
            if not mask_bits.any():
                continue
            est, tru = make_streams(40, lambda k: bool(mask_bits[k]), 0.13)
            report = localization_metrics(est, tru)
            assert report.wle >= report.ale - 1e-12

    def test_permutation_invariance(self):
        est, tru = make_streams(30, lambda k: k % 3 != 0, 0.25)
        order = np.random.default_rng(71).permutation(30)
        est_p = [est[i] for i in order]
        tru_p = [tru[i] for i in order]
        a = localization_metrics(est, tru)
        b = localization_metrics(est_p, tru_p)
        assert a.ale == pytest.approx(b.ale)
        assert a.recall == pytest.approx(b.recall)
        assert a.wle == pytest.approx(b.wle)

    def test_timestamp_mismatch(self):
        est, tru = make_streams(10, lambda k: True, 0.1)
        with pytest.raises(TimestampMismatchError):
            localization_metrics(est[:-1], tru)
        est[3]["t"] += 1e-3
        with pytest.raises(TimestampMismatchError):
            localization_metrics(est, tru)

    def test_empty_estimates_fail(self):
        report = localization_metrics([], [])
        assert report.recall == 0.0 and report.failed


class TestTrackingAccuracy:
    def test_exact_centers(self):
        est, tru = make_streams(40, lambda k: True, 0.0, box_offset=0.0)
        report = tracking_accuracy(est, tru)
        assert report.accuracy == 1.0

    def test_half_frames_missing_box(self):
        est, tru = make_streams(40, lambda k: k % 2 == 0, 0.0, box_offset=0.0)
        report = tracking_accuracy(est, tru)
        assert report.accuracy == pytest.approx(0.5)

    def test_constructed_97_5_percent(self):
        est, tru = make_streams(40, lambda k: True, 0.0, box_offset=0.0)
        est[17]["target_box"][0] += 80.0  # one frame drifts beyond 50 px
        report = tracking_accuracy(est, tru)
        assert report.accuracy == pytest.approx(0.975)

    def test_threshold_is_strict_less_than(self):
        est, tru = make_streams(10, lambda k: True, 0.0, box_offset=50.0)
        assert tracking_accuracy(est, tru, threshold_px=50.0).accuracy == 0.0
        est, tru = make_streams(10, lambda k: True, 0.0, box_offset=49.999)
        assert tracking_accuracy(est, tru, threshold_px=50.0).accuracy == 1.0

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(73)
        est, tru = make_streams(60, lambda k: True, 0.0, box_offset=0.0)
        for frame in est:
            frame["target_box"][0] += rng.uniform(-90, 90)
        last = -1.0
        for threshold in (10.0, 25.0, 50.0, 75.0, 120.0):
            acc = tracking_accuracy(est, tru, threshold_px=threshold).accuracy
            assert acc >= last
            last = acc

    def test_unscored_frames_excluded(self):
        est, tru = make_streams(20, lambda k: True, 0.0, box_offset=0.0, truth_box=False)
        report = tracking_accuracy(est, tru)
        assert report.accuracy == 0.0
        assert all(hit is None for _, hit in report.per_frame)


@pytest.mark.parametrize(
    "metric, mutate, message",
    [
        (localization_metrics, lambda est, tru: est[2].pop("t"),
         "estimate record 3: malformed t: KeyError"),
        (localization_metrics, lambda est, tru: tru[2].update(t="soon"),
         "truth record 3: malformed t: ValueError"),
        (localization_metrics, lambda est, tru: est[2].pop("target_xy"),
         "estimate record 3: malformed target_xy: ValueError"),
        (localization_metrics, lambda est, tru: est[2].update(target_xy=[1.0, 2.0, 3.0]),
         "estimate record 3: malformed target_xy: ValueError"),
        (localization_metrics, lambda est, tru: tru[2].update(target_index=1),
         "truth record 3: malformed target_index: IndexError"),
        (localization_metrics, lambda est, tru: tru[2].update(target_index=-1),
         "truth record 3: malformed target_index: IndexError"),
        (localization_metrics, lambda est, tru: tru[2].pop("target_index"),
         "truth record 3: malformed target_index: KeyError"),
        (localization_metrics, lambda est, tru: tru[2]["persons"][0].pop("xy"),
         "truth record 3: malformed persons[0].xy: ValueError"),
        (localization_metrics, lambda est, tru: tru[2].pop("persons"),
         "truth record 3: malformed persons: KeyError"),
        (localization_metrics, lambda est, tru: est[2].update(t=10**400),
         "estimate record 3: malformed t: OverflowError"),
        (tracking_accuracy, lambda est, tru: est[2].pop("t"),
         "estimate record 3: malformed t: KeyError"),
        (tracking_accuracy, lambda est, tru: tru[2].update(target_index=1.0),
         "truth record 3: malformed target_index: TypeError"),
        (tracking_accuracy, lambda est, tru: tru[2].update(target_index=5),
         "truth record 3: malformed target_index: IndexError"),
        (tracking_accuracy, lambda est, tru: tru[2]["persons"][0].update(box=7),
         "truth record 3: malformed persons[0].box: TypeError"),
        (tracking_accuracy, lambda est, tru: est[2].update(target_box=["u", 0.0, 1.0, 1.0]),
         "estimate record 3: malformed target_box: ValueError"),
    ],
    ids=[
        "loc-estimate-without-t",
        "loc-truth-t-not-a-number",
        "loc-tracking-without-target-xy",
        "loc-target-xy-not-a-pair",
        "loc-target-index-past-the-end",
        "loc-target-index-negative",
        "loc-truth-without-target-index",
        "loc-target-person-without-xy",
        "loc-truth-without-persons",
        "loc-t-beyond-float-range",
        "trk-estimate-without-t",
        "trk-target-index-not-an-integer",
        "trk-target-index-past-the-end",
        "trk-truth-box-not-a-list",
        "trk-target-box-not-numbers",
    ],
)
def test_malformed_record_raises_typed_error_naming_record_and_field(metric, mutate, message):
    # mutate breaks record 3 of one stream.
    est, tru = make_streams(5, lambda k: True, 0.1, box_offset=0.0)
    mutate(est, tru)
    with pytest.raises(MalformedRecordError) as info:
        metric(est, tru)
    assert str(info.value).startswith(message)


class TestReports:
    def test_json_round_trip_identical(self, tmp_path):
        est, tru = make_streams(25, lambda k: k != 3, 0.08, box_offset=0.0)
        loc = localization_metrics(est, tru)
        trk = tracking_accuracy(est, tru)
        path = tmp_path / "report.json"
        write_report(path, loc, trk, fmt="json")
        raw = path.read_bytes()
        payload = json.loads(raw)
        rewritten = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        assert raw == rewritten
        assert payload["localization"]["recall"] == pytest.approx(24 / 25)

    def test_csv_shape(self, tmp_path):
        est, tru = make_streams(12, lambda k: True, 0.05, box_offset=0.0)
        loc = localization_metrics(est, tru)
        trk = tracking_accuracy(est, tru)
        path = tmp_path / "report.csv"
        write_report(path, loc, trk, fmt="csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,status,error_m,box_hit"
        assert len(lines) == 1 + 12 + 1  # header, frames, summary
        assert lines[-1].startswith("summary")

    def test_zero_recall_report(self, tmp_path):
        report = localization_metrics([], [])
        path = tmp_path / "fail.json"
        write_report(path, report, fmt="json")
        payload = json.loads(path.read_text())
        assert payload["localization"]["failed"] is True
        assert payload["localization"]["wle_m"] is None

    def test_unwritable_path(self, tmp_path):
        est, tru = make_streams(5, lambda k: True, 0.1)
        loc = localization_metrics(est, tru)
        with pytest.raises(ReportIoError):
            write_report(tmp_path / "no" / "such" / "dir.json", loc)

    def test_unknown_format(self, tmp_path):
        est, tru = make_streams(5, lambda k: True, 0.1)
        loc = localization_metrics(est, tru)
        with pytest.raises(ValueError):
            write_report(tmp_path / "r.xml", loc, fmt="xml")

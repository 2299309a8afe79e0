"""End-to-end CLI tests: simulate -> track -> eval -> bench."""

import json

import pytest

from jointtrack.cli import main
from jointtrack.streams import read_jsonl

SCENARIO = {
    "camera": {
        "fx": 500.0,
        "fy": 500.0,
        "cx": 320.0,
        "cy": 240.0,
        "image_width": 640,
        "image_height": 480,
        "camera_height_m": 1.2,
        "tilt_rad": 0.1,
    },
    "persons": [
        {"trajectory": {"kind": "line", "start": [4.5, 0.3], "velocity": [-0.3, 0.05]}}
    ],
    "duration_s": 3.0,
    "rate_hz": 30.0,
    "pixel_noise_sigma": 1.0,
    "seed": 2,
}


@pytest.fixture()
def workspace(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(SCENARIO))
    camera_path = tmp_path / "camera.json"
    camera_path.write_text(json.dumps(SCENARIO["camera"]))
    return tmp_path


def test_simulate_track_eval_chain(workspace, capsys):
    dets = workspace / "dets.jsonl"
    truth = workspace / "truth.jsonl"
    log = workspace / "log.jsonl"
    report = workspace / "report.json"

    assert main([
        "simulate", "--scenario", str(workspace / "scenario.json"),
        "--out-detections", str(dets), "--out-truth", str(truth),
    ]) == 0
    assert len(read_jsonl(dets)) == 90

    assert main([
        "track", "--camera", str(workspace / "camera.json"),
        "--input", str(dets), "--output", str(log),
    ]) == 0
    log_records = read_jsonl(log)
    assert len(log_records) == 90
    assert log_records[0]["status"] == "Tracking"

    assert main([
        "eval", "--estimates", str(log), "--truth", str(truth),
        "--format", "json", "--out", str(report),
    ]) == 0
    payload = json.loads(report.read_text())
    assert payload["localization"]["recall"] == 1.0
    assert payload["localization"]["ale_m"] < 0.15
    out = capsys.readouterr().out
    assert "ALE" in out and "recall" in out


def test_eval_csv_format(workspace):
    dets = workspace / "dets.jsonl"
    truth = workspace / "truth.jsonl"
    log = workspace / "log.jsonl"
    report = workspace / "report.csv"
    main(["simulate", "--scenario", str(workspace / "scenario.json"),
          "--out-detections", str(dets), "--out-truth", str(truth)])
    main(["track", "--camera", str(workspace / "camera.json"),
          "--input", str(dets), "--output", str(log)])
    main(["eval", "--estimates", str(log), "--truth", str(truth),
          "--format", "csv", "--out", str(report)])
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "t,status,error_m,box_hit"
    assert len(lines) == 1 + 90 + 1


def test_track_with_run_config(workspace):
    dets = workspace / "dets.jsonl"
    truth = workspace / "truth.jsonl"
    log = workspace / "log.jsonl"
    config_path = workspace / "run.json"
    config_path.write_text(json.dumps({"use_joints": ["neck"], "gate_px": 60.0}))
    main(["simulate", "--scenario", str(workspace / "scenario.json"),
          "--out-detections", str(dets), "--out-truth", str(truth)])
    assert main([
        "track", "--camera", str(workspace / "camera.json"),
        "--config", str(config_path),
        "--input", str(dets), "--output", str(log),
    ]) == 0
    assert len(read_jsonl(log)) == 90


def test_bench_runs_and_is_deterministic(workspace, capsys):
    scen_dir = workspace / "suite"
    scen_dir.mkdir()
    (scen_dir / "a.json").write_text(json.dumps(SCENARIO))
    second = dict(SCENARIO, seed=5, duration_s=2.0)
    (scen_dir / "b.json").write_text(json.dumps(second))

    outputs = []
    for run in (1, 2):
        out_dir = workspace / f"bench{run}"
        assert main(["bench", "--scenario-dir", str(scen_dir), "--out-dir", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        files = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        }
        outputs.append((stdout, files))
    assert outputs[0] == outputs[1]
    assert "sequence" in outputs[0][0]
    assert set(outputs[0][1]) == {
        "a.detections.jsonl", "a.truth.jsonl", "a.log.jsonl", "a.report.json",
        "b.detections.jsonl", "b.truth.jsonl", "b.log.jsonl", "b.report.json",
        "summary.csv",
    }


def test_bench_empty_dir_errors(workspace):
    empty = workspace / "none"
    empty.mkdir()
    assert main(["bench", "--scenario-dir", str(empty), "--out-dir", str(workspace / "out")]) == 2


def _write_records(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


@pytest.mark.parametrize(
    "bad_record, message",
    [
        ({"t": 0.2, "detections": [{"joints": {}}]}, "record 3: malformed detections[0].box"),
        ({"t": 0.1, "detections": []}, "record 3: timestamp 0.1 does not advance"),
    ],
    ids=["malformed-record", "non-monotonic-timestamp"],
)
def test_track_reports_bad_record_on_one_line(workspace, capsys, bad_record, message):
    dets = workspace / "bad.jsonl"
    _write_records(dets, [{"t": 0.0, "detections": []}, {"t": 0.1, "detections": []}, bad_record])
    assert main([
        "track", "--camera", str(workspace / "camera.json"),
        "--input", str(dets), "--output", str(workspace / "log.jsonl"),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("jointtrack track: error: ")
    assert message in lines[0]
    assert "Traceback" not in captured.err

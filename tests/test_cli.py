"""End-to-end CLI tests: simulate -> track -> eval -> bench."""

import json
from pathlib import Path

import pytest

from jointtrack.cli import main, run_tracker
from jointtrack.config import RunConfig
from jointtrack.errors import JointTrackError
from jointtrack.simulator import Scenario, generate
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
    # The third run writes over every file of the first one.
    for run in (1, 2, 1):
        out_dir = workspace / f"bench{run}"
        assert main(["bench", "--scenario-dir", str(scen_dir), "--out-dir", str(out_dir)]) == 0
        stdout = capsys.readouterr().out
        files = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        }
        outputs.append((stdout, files))
    assert outputs[0] == outputs[1] == outputs[2]
    assert "sequence" in outputs[0][0]
    assert set(outputs[0][1]) == {
        "a.detections.jsonl", "a.truth.jsonl", "a.log.jsonl", "a.report.json",
        "b.detections.jsonl", "b.truth.jsonl", "b.log.jsonl", "b.report.json",
        "summary.csv",
    }


# summary.csv of `jointtrack bench` on the committed scenarios/. A refactor
# must leave it as it is; a change that moves quality on purpose updates
# these rows and says so.
BENCH_SUMMARY = """\
sequence,ALE_m,recall,WLE_m,accuracy
seq1_approach,0.0442,1.0000,0.0442,1.0000
seq2_crossing,0.0855,1.0000,0.0855,1.0000
seq3_sway,0.0570,1.0000,0.0570,1.0000
seq4_arc,0.0831,0.9875,0.0841,0.9875
"""


def test_bench_quality_on_committed_scenarios(tmp_path, capsys):
    scen_dir = Path(__file__).resolve().parent.parent / "scenarios"
    assert main(["bench", "--scenario-dir", str(scen_dir), "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "summary.csv").read_text() == BENCH_SUMMARY
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert printed == [line.split(",") for line in BENCH_SUMMARY.splitlines()]


def test_bench_empty_dir_errors(workspace):
    empty = workspace / "none"
    empty.mkdir()
    assert main(["bench", "--scenario-dir", str(empty), "--out-dir", str(workspace / "out")]) == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        (["track", "--camera", "{ws}/camera.json", "--input", "{ws}/none.jsonl",
          "--output", "{ws}/log.jsonl"], "{ws}/none.jsonl"),
        (["track", "--camera", "{ws}/camera.json", "--input", "{ws}/dets.jsonl",
          "--output", "{ws}/missing/dir/log.jsonl"], "{ws}/missing/dir/log.jsonl"),
        (["track", "--camera", "{ws}/none.json", "--input", "{ws}/dets.jsonl",
          "--output", "{ws}/log.jsonl"], "{ws}/none.json"),
        (["simulate", "--scenario", "{ws}/none.json", "--out-detections", "{ws}/d.jsonl",
          "--out-truth", "{ws}/t.jsonl"], "{ws}/none.json"),
        (["eval", "--estimates", "{ws}/log0.jsonl", "--truth", "{ws}/truth0.jsonl",
          "--out", "{ws}/missing/report.json"], "{ws}/missing/report.json"),
        (["bench", "--scenario-dir", "{ws}/suite", "--out-dir", "{ws}/dets.jsonl"],
         "{ws}/dets.jsonl"),
        (["bench", "--scenario-dir", "{ws}/dirs", "--out-dir", "{ws}/out"], "{ws}/dirs/a.json"),
    ],
    ids=[
        "track-missing-input",
        "track-output-in-missing-dir",
        "track-missing-camera",
        "simulate-missing-scenario",
        "eval-report-in-missing-dir",
        "bench-out-dir-is-a-file",
        "bench-scenario-is-a-directory",
    ],
)
def test_file_errors_are_reported_on_one_line(workspace, capsys, argv, named):
    ws = str(workspace)
    (workspace / "dets.jsonl").write_text('{"t":0.0,"detections":[]}\n')
    (workspace / "log0.jsonl").write_text('{"t":0.0,"status":"Lost","tracks":[]}\n')
    (workspace / "truth0.jsonl").write_text(
        '{"t":0.0,"target_index":0,"persons":[{"xy":[2.0,0.0],"box":null}]}\n'
    )
    (workspace / "suite").mkdir()
    (workspace / "suite" / "a.json").write_text(json.dumps(SCENARIO))
    (workspace / "dirs" / "a.json").mkdir(parents=True)
    assert main([arg.format(ws=ws) for arg in argv]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"jointtrack {argv[0]}: error: cannot ")
    assert named.format(ws=ws) in lines[0]
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize("t", [1.1e77, 1e78])
def test_track_reports_huge_frame_gap_on_one_line(workspace, capsys, t):
    records, _ = generate(Scenario.from_dict(SCENARIO))
    records[10]["t"] = t
    dets = workspace / "gap.jsonl"
    _write_records(dets, records)
    assert main([
        "track", "--camera", str(workspace / "camera.json"),
        "--input", str(dets), "--output", str(workspace / "log.jsonl"),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("jointtrack track: error: record 11: frame gap of ")
    assert "Traceback" not in captured.err
    assert not (workspace / "log.jsonl").exists()


def test_track_reports_truncated_line_on_one_line(workspace, capsys):
    dets = workspace / "cut.jsonl"
    dets.write_text('{"t":0.0,"detections":[]}\n{"t":0.1,\n')
    assert main([
        "track", "--camera", str(workspace / "camera.json"),
        "--input", str(dets), "--output", str(workspace / "log.jsonl"),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("jointtrack track: error: line 2: invalid JSON: ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "command, bad, message",
    [
        ("track", "input", "line 2: not UTF-8: "),
        ("eval", "estimates", "line 2: not UTF-8: "),
        ("eval", "truth", "line 2: not UTF-8: "),
    ],
    ids=["track-input", "eval-estimates", "eval-truth"],
)
def test_non_utf8_stream_is_reported_on_one_line(workspace, capsys, command, bad, message):
    good = {
        "input": b'{"t":0.0,"detections":[]}\n',
        "estimates": b'{"t":0.0,"status":"Lost","tracks":[]}\n',
        "truth": b'{"t":0.0,"target_index":0,"persons":[{"xy":[2.0,0.0],"box":null}]}\n',
    }
    for name, line in good.items():
        (workspace / f"{name}.jsonl").write_bytes(line + (b"\xff\n" if name == bad else b""))
    ws = workspace
    argv = {
        "track": ["track", "--camera", f"{ws}/camera.json", "--input", f"{ws}/input.jsonl",
                  "--output", f"{ws}/log.jsonl"],
        "eval": ["eval", "--estimates", f"{ws}/estimates.jsonl", "--truth", f"{ws}/truth.jsonl",
                 "--out", f"{ws}/report.json"],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"jointtrack {command}: error: {message}")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "estimate, truth, message",
    [
        ({"status": "Lost", "tracks": []}, {}, "estimate record 2: malformed t: KeyError"),
        ({"t": 0.1, "status": "Tracking", "tracks": []}, {},
         "estimate record 2: malformed target_xy: "),
        ({"t": 0.1, "status": "Tracking", "target_xy": [2.0, 0.0], "tracks": []},
         {"target_index": 3}, "truth record 2: malformed target_index: IndexError"),
    ],
    ids=["log-record-without-t", "tracking-without-target-xy", "target-index-out-of-range"],
)
def test_eval_reports_malformed_record_on_one_line(workspace, capsys, estimate, truth, message):
    person = {"xy": [2.0, 0.0], "box": None}
    _write_records(workspace / "log.jsonl", [{"t": 0.0, "status": "Lost", "tracks": []}, estimate])
    _write_records(workspace / "truth.jsonl", [
        {"t": 0.0, "target_index": 0, "persons": [person]},
        dict({"t": 0.1, "target_index": 0, "persons": [person]}, **truth),
    ])
    assert main([
        "eval", "--estimates", str(workspace / "log.jsonl"),
        "--truth", str(workspace / "truth.jsonl"), "--out", str(workspace / "report.json"),
    ]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"jointtrack eval: error: {message}")
    assert "Traceback" not in captured.err
    assert not (workspace / "report.json").exists()


def test_run_tracker_names_the_record_with_a_nan_timestamp():
    path = Path(__file__).resolve().parent.parent / "scenarios" / "seq1_approach.json"
    scenario = Scenario.from_dict(json.loads(path.read_text(encoding="utf-8")))
    records, _ = generate(scenario)
    records[4]["t"] = float("nan")
    with pytest.raises(JointTrackError) as info:
        run_tracker(scenario.setup, RunConfig(), records)
    assert str(info.value).startswith("record 5: malformed t: ")


README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "argv, named, cause",
    [
        (["track", "--camera", str(README), "--input", "{ws}/dets.jsonl",
          "--output", "{ws}/log.jsonl"], str(README), "invalid JSON"),
        (["track", "--camera", "{ws}/fx_only.json", "--input", "{ws}/dets.jsonl",
          "--output", "{ws}/log.jsonl"], "{ws}/fx_only.json", "missing field 'fy'"),
        (["track", "--camera", "{ws}/camera.json", "--config", "{ws}/bad_gate.json",
          "--input", "{ws}/dets.jsonl", "--output", "{ws}/log.jsonl"],
         "{ws}/bad_gate.json", "could not convert string to float: 'x'"),
        (["track", "--camera", "{ws}/camera.json", "--config", "{ws}/negative_gate.json",
          "--input", "{ws}/dets.jsonl", "--output", "{ws}/log.jsonl"],
         "{ws}/negative_gate.json", "gate_px must be positive"),
        (["simulate", "--scenario", "{ws}/no_persons.json", "--out-detections", "{ws}/d.jsonl",
          "--out-truth", "{ws}/t.jsonl"], "{ws}/no_persons.json", "missing field 'camera'"),
        (["bench", "--scenario-dir", "{ws}/bad_suite", "--out-dir", "{ws}/out"],
         "{ws}/bad_suite/a.json", "missing field 'camera'"),
        (["simulate", "--scenario", "{ws}/nan_duration.json", "--out-detections",
          "{ws}/d.jsonl", "--out-truth", "{ws}/t.jsonl"],
         "{ws}/nan_duration.json", "rate and duration must be positive and finite"),
    ],
    ids=[
        "track-camera-not-json",
        "track-camera-missing-field",
        "track-config-wrong-type",
        "track-config-out-of-range",
        "simulate-scenario-without-camera",
        "bench-scenario-without-camera",
        "simulate-scenario-nan-duration",
    ],
)
def test_config_errors_are_reported_on_one_line(workspace, capsys, argv, named, cause):
    ws = str(workspace)
    (workspace / "dets.jsonl").write_text('{"t":0.0,"detections":[]}\n')
    (workspace / "fx_only.json").write_text(json.dumps({"fx": 500}))
    (workspace / "bad_gate.json").write_text(json.dumps({"gate_px": "x"}))
    (workspace / "negative_gate.json").write_text(json.dumps({"gate_px": -1.0}))
    (workspace / "no_persons.json").write_text(json.dumps({"persons": []}))
    (workspace / "bad_suite").mkdir()
    (workspace / "bad_suite" / "a.json").write_text(json.dumps({"persons": []}))
    (workspace / "nan_duration.json").write_text(
        json.dumps(dict(SCENARIO, duration_s=float("nan")))
    )
    assert main([arg.format(ws=ws) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"jointtrack {argv[0]}: error: {named.format(ws=ws)}: ")
    assert cause in lines[0]
    assert "Traceback" not in captured.err
    assert not (workspace / "log.jsonl").exists()
    assert not (workspace / "d.jsonl").exists()

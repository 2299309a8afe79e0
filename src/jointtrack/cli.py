"""Command-line interface: track, simulate, eval and bench.

    jointtrack track --camera cam.json --input dets.jsonl --output log.jsonl
    jointtrack simulate --scenario s.json --out-detections d.jsonl --out-truth t.jsonl
    jointtrack eval --estimates log.jsonl --truth t.jsonl --format json --out report.json
    jointtrack bench --scenario-dir scenarios/ --out-dir results/

bench chains simulate -> track -> eval for every scenario file in a
directory and prints an ALE / recall / WLE summary table; its outputs are
deterministic, byte for byte, given the same scenarios and config.
"""

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .config import CameraSetup, RunConfig, load_camera_config, load_json, load_run_config
from .errors import FileIoError, JointTrackError
from .files import write_text
from .metrics import (
    DEFAULT_CENTER_THRESHOLD_PX,
    localization_metrics,
    tracking_accuracy,
    write_report,
)
from .pipeline import TrackingSession
from .simulator import Scenario, generate
from .streams import (
    detection_frame_from_record,
    read_jsonl,
    result_to_record,
    write_jsonl,
)


def run_tracker(setup: CameraSetup, config: RunConfig, detection_records):
    """Feed a detection stream through a fresh session; return log records.

    Raises:
        JointTrackError: a record could not be processed (it is
            malformed, out of order, or the session failed on it); the
            message starts with its 1-based number, and the original error
            is chained as the cause.
    """
    session = TrackingSession(setup.camera, setup.ground, config, setup.extrinsics)
    log = []
    for number, record in enumerate(detection_records, 1):
        try:
            frame = detection_frame_from_record(record, config.min_confidence)
            log.append(result_to_record(session.process_frame(frame)))
        except JointTrackError as exc:
            raise JointTrackError(f"record {number}: {exc}") from exc
    return log


def _cmd_track(args) -> int:
    setup = load_camera_config(args.camera)
    config = load_run_config(args.config)
    records = read_jsonl(args.input)
    log = run_tracker(setup, config, records)
    write_jsonl(args.output, log)
    tracking = sum(1 for rec in log if rec["status"] == "Tracking")
    print(f"processed {len(log)} frames, {tracking} tracking")
    return 0


def _load_scenario(path) -> Scenario:
    return load_json(path, Scenario.from_dict)


def _cmd_simulate(args) -> int:
    detections, truth = generate(_load_scenario(args.scenario))
    write_jsonl(args.out_detections, detections)
    write_jsonl(args.out_truth, truth)
    print(f"simulated {len(detections)} frames")
    return 0


def _cmd_eval(args) -> int:
    estimates = read_jsonl(args.estimates)
    truth = read_jsonl(args.truth)
    loc = localization_metrics(estimates, truth)
    trk = tracking_accuracy(estimates, truth, threshold_px=args.threshold_px)
    write_report(args.out, loc, trk, fmt=args.format)
    wle = "inf" if loc.failed else f"{loc.wle:.4f}"
    print(
        f"ALE {loc.ale:.4f} m | recall {loc.recall:.4f} | WLE {wle} m | "
        f"accuracy {trk.accuracy:.4f} @ {args.threshold_px:.0f} px"
    )
    return 0


def _cmd_bench(args) -> int:
    scenario_dir = Path(args.scenario_dir)
    paths = sorted(scenario_dir.glob("*.json"))
    if not paths:
        print(f"no scenario files in {scenario_dir}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FileIoError(f"cannot create {out_dir}: {exc.strerror or exc}") from exc
    config = load_run_config(args.config)

    rows: List[List[str]] = []
    for path in paths:
        scenario = _load_scenario(path)
        detections, truth = generate(scenario)
        log = run_tracker(scenario.setup, config, detections)
        loc = localization_metrics(log, truth)
        trk = tracking_accuracy(log, truth, threshold_px=args.threshold_px)

        name = path.stem
        write_jsonl(out_dir / f"{name}.detections.jsonl", detections)
        write_jsonl(out_dir / f"{name}.truth.jsonl", truth)
        write_jsonl(out_dir / f"{name}.log.jsonl", log)
        write_report(out_dir / f"{name}.report.json", loc, trk, fmt="json")
        rows.append(
            [
                name,
                f"{loc.ale:.4f}",
                f"{loc.recall:.4f}",
                "inf" if loc.failed else f"{loc.wle:.4f}",
                f"{trk.accuracy:.4f}",
            ]
        )

    header = ["sequence", "ALE_m", "recall", "WLE_m", "accuracy"]
    table = _format_table([header] + rows)
    write_text(out_dir / "summary.csv", "".join(",".join(row) + "\n" for row in [header] + rows))
    print(table)
    return 0


def _format_table(rows: List[List[str]]) -> str:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jointtrack",
        description="Ground-plane person tracking from monocular 2D joint detections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_track = sub.add_parser("track", help="run the tracker over a detection stream")
    p_track.add_argument("--camera", required=True, help="camera config JSON")
    p_track.add_argument("--config", default=None, help="run config JSON (optional)")
    p_track.add_argument("--input", required=True, help="detection stream JSONL")
    p_track.add_argument("--output", required=True, help="track log JSONL")
    p_track.set_defaults(func=_cmd_track)

    p_sim = sub.add_parser("simulate", help="render a synthetic scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON")
    p_sim.add_argument("--out-detections", required=True)
    p_sim.add_argument("--out-truth", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_eval = sub.add_parser("eval", help="score a track log against ground truth")
    p_eval.add_argument("--estimates", required=True, help="track log JSONL")
    p_eval.add_argument("--truth", required=True, help="ground-truth stream JSONL")
    p_eval.add_argument("--threshold-px", type=float, default=DEFAULT_CENTER_THRESHOLD_PX)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out", required=True)
    p_eval.set_defaults(func=_cmd_eval)

    p_bench = sub.add_parser("bench", help="simulate + track + eval a scenario suite")
    p_bench.add_argument("--scenario-dir", required=True)
    p_bench.add_argument("--out-dir", required=True)
    p_bench.add_argument("--config", default=None, help="run config JSON (optional)")
    p_bench.add_argument("--threshold-px", type=float, default=DEFAULT_CENTER_THRESHOLD_PX)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command; a JointTrackError is reported on one stderr line
    and gives exit status 1."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except JointTrackError as exc:
        print(f"jointtrack {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

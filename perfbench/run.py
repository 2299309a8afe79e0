"""jointtrack benchmark: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload {paper_suite,crowd20,clutter} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it imports jointtrack from ``src/``
and takes metric names and units from ``BENCHMARK.json``.

The load is a closed loop from one single-threaded client: the next frame
is fed only when ``process_frame`` has returned, as ``jointtrack track``
and ``jointtrack bench`` do. Each frame is timed through
``detection_frame_from_record`` -> ``process_frame`` -> ``result_to_record``
with the records already in memory.

``--trace 0`` reports the end-to-end metrics. The S seconds are split
into ROUNDS rounds, each a set-up probe, possibly a suite pass, and the
loop for the rest of the round, so that every metric samples the whole
run. Timings are reported at a reference CPU speed: a fixed kernel is
timed between pieces of work (every WINDOW_S of the loop and of a suite
pass; in each set-up probe, right after its set-up) and scales them (see
calibration.py), because CPU speed on a shared host drifts by tens of
percent within a minute. The raw timings are printed and kept in the
results file.

- frames_per_s, frame_latency_p50_ms, frame_latency_p99_ms: the closed
  loop over the workload's sessions, again and again;
- suite_s: the median of the full offline passes (simulate, write and
  read the detection JSONL, track, write the log, localization_metrics and
  tracking_accuracy), which is what ``jointtrack bench`` users wait for;
- setup_s: the median of the fresh interpreters, each importing
  jointtrack, loading the configs and constructing its first session;
- peak_rss_mb: peak resident set of this process;
- ale_m, recall, wle_m, box_accuracy: quality pooled over every frame of
  the workload built at the reference seed, so that they are the same on
  every run and any change of behaviour shows.

``--trace 1`` makes an untraced and a traced suite pass, the latter the
source of exact counts, then alternates untraced and traced loop segments
for the rest of the S seconds; it reports per-layer metrics (see
tracer.py) and the tracing overhead, the traced segments' loss of
frames/s against the untraced ones.

Frames that raise a JointTrackError, or report Tracking with a non-finite
target_xy, count as failed; error_rate = failed / attempted.

Correctness checks, any of which failing makes ``correct`` false: every
pass over the same records yields the same track log; the loop's first
pass equals the suite pass; the traced track logs are byte-identical to
the untraced ones; and on paper_suite the per-scenario ALE / recall / WLE
/ accuracy equal the summary.csv that ``jointtrack bench`` writes for
``scenarios/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result, with the
environment and the per-span table, is written to ``perfbench/results/``.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from calibration import REFERENCE_KERNEL_S, WINDOW_S, Calibrator, Stopwatch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "work"

WORKLOAD_NAMES = ("paper_suite", "crowd20", "clutter")

#: Rounds of an end-to-end run; each starts one fresh interpreter for
#: setup_s, so this is also the number of set-up samples.
ROUNDS = 5
PROBE_TIMEOUT_S = 60
#: Timed offline passes for suite_s, spread over the rounds and sized so
#: that each workload's run stays well under a minute.
SUITE_PASSES = {"paper_suite": 5, "crowd20": 3, "clutter": 3}
#: Untraced/traced loop segment pairs of a traced run.
TRACE_PAIRS = 4

ENV_NOTE = (
    "CPU speed drifts on shared hosts, within seconds and between runs; "
    "compare medians over several runs, never single runs"
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="jointtrack benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- running sessions ----------------------------------------------------------


def dumps(record: Dict[str, Any]) -> str:
    """A track-log record as ``write_jsonl`` writes it."""
    return json.dumps(record, separators=(",", ":"))


def same_logs(a: List[List[Dict[str, Any]]], b: List[List[Dict[str, Any]]]) -> bool:
    """Byte equality of two lists of track logs, up to the shorter one."""
    return all(
        dumps(x) == dumps(y) for log_a, log_b in zip(a, b) for x, y in zip(log_a, log_b)
    )


def process(session, record, min_confidence: float) -> Tuple[Dict[str, Any], int, bool]:
    """One frame through the public API: (log record, wall ns, failed).

    Calls go through the names ``jointtrack.cli`` imported, as
    ``cli.run_tracker`` makes them, so a tracer's patches there see them.
    """
    from jointtrack import cli
    from jointtrack.errors import JointTrackError

    start = time.perf_counter_ns()
    try:
        frame = cli.detection_frame_from_record(record, min_confidence)
        out = cli.result_to_record(session.process_frame(frame))
    except JointTrackError:
        return {"t": record["t"], "status": "Error"}, time.perf_counter_ns() - start, True
    elapsed = time.perf_counter_ns() - start
    failed = out["status"] == "Tracking" and not all(math.isfinite(v) for v in out["target_xy"])
    return out, elapsed, failed


def new_session(setup, config):
    from jointtrack import cli

    return cli.TrackingSession(setup.camera, setup.ground, config, setup.extrinsics)


@dataclass
class Tracked:
    log: List[Dict[str, Any]]
    failed: int


def track(setup, config, records, clock: Stopwatch, tracer=None) -> Tracked:
    """Feed records through a fresh session, as ``cli.run_tracker`` does,
    adding each frame's time to ``clock``."""
    session = new_session(setup, config)
    log: List[Dict[str, Any]] = []
    failed = 0
    for record in records:
        if tracer is not None:
            tracer.frame += 1
        out, elapsed, bad = process(session, record, config.min_confidence)
        clock.add(elapsed / 1e9)
        log.append(out)
        failed += bad
    return Tracked(log, failed)


@dataclass
class SuitePass:
    stages: Dict[str, float]
    streams: List[Tuple[Any, List[Dict[str, Any]]]]
    logs: List[List[Dict[str, Any]]]
    reports: List[Tuple[Any, Any]]
    frames: int = 0
    failed: int = 0


def suite_pass(workload, work: Path, tracer=None, clock: Optional[Stopwatch] = None) -> SuitePass:
    """One offline pass over every session, timed stage by stage.

    The stages' raw times go to ``stages`` and, piece by piece, to
    ``clock``. The record rewrite (the benchmark's stand-in detector) is
    not timed.
    """
    from jointtrack import cli

    clock = clock or Stopwatch()
    stages = {"simulate": 0.0, "jsonl_io": 0.0, "track": 0.0, "metrics": 0.0}
    det_path, log_path = work / "detections.jsonl", work / "log.jsonl"
    result = SuitePass(stages, [], [], [])

    def timed(stage, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        elapsed = time.perf_counter() - start
        stages[stage] += elapsed
        clock.add(elapsed)
        return value

    for session in workload.sessions:
        detections, truth = timed("simulate", cli.generate, session.scenario)
        if session.rewrite is not None:
            detections = session.rewrite(detections)
        timed("jsonl_io", cli.write_jsonl, det_path, detections)
        records = timed("jsonl_io", cli.read_jsonl, det_path)
        before = clock.elapsed
        tracked = track(session.scenario.setup, workload.config, records, clock, tracer=tracer)
        stages["track"] += clock.elapsed - before
        timed("jsonl_io", cli.write_jsonl, log_path, tracked.log)
        loc = timed("metrics", cli.localization_metrics, tracked.log, truth)
        trk = timed("metrics", cli.tracking_accuracy, tracked.log, truth)
        result.streams.append((session.scenario.setup, records))
        result.logs.append(tracked.log)
        result.reports.append((loc, trk))
        result.frames += len(records)
        result.failed += tracked.failed
    clock.flush()
    return result


class Loop:
    """The closed loop: the sessions replayed back to back, frame by frame.

    Each ``run`` continues where the previous one stopped. Frames are
    timed in windows of WINDOW_S with a calibration sample after each,
    and each window's times are also kept scaled to the reference speed.
    """

    def __init__(self, workload, streams, tracer=None):
        self.latencies_ns: List[int] = []
        self.factors: List[float] = []
        self.seconds = 0.0
        self.scaled_seconds = 0.0
        self.failed = 0
        self.passes = 0
        self.first_pass_logs: List[List[Dict[str, Any]]] = [[] for _ in streams]
        self._frames = self._replay(workload, streams, tracer)

    def _replay(self, workload, streams, tracer):
        config = workload.config
        while True:
            for index, (setup, records) in enumerate(streams):
                session = new_session(setup, config)
                for record in records:
                    if tracer is not None:
                        tracer.frame += 1
                    yield (index, *process(session, record, config.min_confidence))
            self.passes += 1

    @property
    def frames(self) -> int:
        return len(self.latencies_ns)

    def run(self, deadline_ns: int, calibrator) -> None:
        """Replay frames until ``deadline_ns`` (perf_counter_ns), for at
        least one window."""
        now = time.perf_counter_ns()
        while True:
            window_end = max(min(now + int(WINDOW_S * 1e9), deadline_ns), now)
            start, first = now, len(self.latencies_ns)
            for index, out, elapsed, failed in self._frames:
                self.latencies_ns.append(elapsed)
                self.failed += failed
                if self.passes == 0:
                    self.first_pass_logs[index].append(out)
                if time.perf_counter_ns() >= window_end:
                    break
            seconds = (time.perf_counter_ns() - start) / 1e9
            factor = calibrator.factor()
            self.seconds += seconds
            self.scaled_seconds += seconds * factor
            self.factors += [factor] * (len(self.latencies_ns) - first)
            now = time.perf_counter_ns()
            if now >= deadline_ns:
                return

    def frames_per_s(self, scaled: bool = True) -> float:
        return _div(self.frames, self.scaled_seconds if scaled else self.seconds)

    def latency_ms(self, q: float, scaled: bool = True) -> float:
        latencies = np.asarray(self.latencies_ns, dtype=np.float64)
        if scaled:
            latencies *= np.asarray(self.factors)
        return float(np.percentile(latencies, q)) / 1e6


# -- set-up time -------------------------------------------------------------------


def write_configs(workload, work: Path) -> List[str]:
    from jointtrack.config import save_run_config

    camera_path, run_path = work / "camera.json", work / "run.json"
    camera_path.write_text(json.dumps(workload.sessions[0].scenario.setup.to_dict()), encoding="utf-8")
    save_run_config(run_path, workload.config)
    return [str(camera_path), str(run_path)]


def probe_setup(config_paths: List[str]) -> Tuple[float, float]:
    """Seconds from a fresh interpreter's start to its first session, and
    the calibration kernel's time measured in that interpreter right after."""
    probe = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), *config_paths],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    setup_s, kernel_s = probe.stdout.split()[-2:]
    return float(setup_s), float(kernel_s)


# -- checks and quality --------------------------------------------------------------


def quality(reports) -> Dict[str, float]:
    """ALE / recall / WLE / box accuracy pooled over every frame."""
    errors, frames, hits, scored = [], 0, 0, 0
    for loc, trk in reports:
        errors += [err for _, _, err in loc.per_frame if err is not None]
        frames += len(loc.per_frame)
        scored_hits = [hit for _, hit in trk.per_frame if hit is not None]
        hits += sum(scored_hits)
        scored += len(scored_hits)
    ale = math.fsum(errors) / len(errors) if errors else math.nan
    recall = len(errors) / frames if frames else math.nan
    return {
        "ale_m": ale,
        "recall": recall,
        "wle_m": ale / recall if recall else math.inf,
        "box_accuracy": hits / scored if scored else math.nan,
    }


def bench_rows(reports, names) -> List[List[str]]:
    """Per-scenario rows formatted as ``jointtrack bench`` writes summary.csv."""
    rows = []
    for name, (loc, trk) in zip(names, reports):
        wle = "inf" if loc.failed else f"{loc.wle:.4f}"
        rows.append([name, f"{loc.ale:.4f}", f"{loc.recall:.4f}", wle, f"{trk.accuracy:.4f}"])
    return rows


def check_against_cli_bench(reports, names, work: Path) -> Tuple[bool, List[List[str]]]:
    """Run ``jointtrack bench`` on scenarios/ and compare its summary.csv."""
    from jointtrack import cli

    out_dir = work / "bench"
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["bench", "--scenario-dir", str(ROOT / "scenarios"), "--out-dir", str(out_dir)])
    lines = (out_dir / "summary.csv").read_text(encoding="utf-8").splitlines()
    bench = [line.split(",") for line in lines[1:]]
    return status == 0 and bench == bench_rows(reports, names), bench


# -- the two kinds of run ----------------------------------------------------------


def environment() -> Dict[str, Any]:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "note": ENV_NOTE,
    }


def end_to_end(args, workload, reference, work: Path) -> Dict[str, Any]:
    n_passes = SUITE_PASSES[workload.name]
    suite_rounds = {round(i * (ROUNDS - 1) / max(n_passes - 1, 1)) for i in range(n_passes)}
    config_paths = write_configs(workload, work)
    setup_raw, setup_scaled, suite_raw, suite_scaled = [], [], [], []
    passes: List[SuitePass] = []
    loop = None
    repeatable = True
    start = time.perf_counter_ns()
    calibrator = Calibrator()
    for r in range(ROUNDS):
        seconds, kernel = probe_setup(config_paths)
        setup_raw.append(seconds)
        setup_scaled.append(seconds * REFERENCE_KERNEL_S / kernel)
        if r in suite_rounds:
            clock = Stopwatch(calibrator)
            again = suite_pass(workload, work, clock=clock)
            suite_raw.append(clock.raw)
            suite_scaled.append(clock.scaled)
            if passes:
                repeatable &= len(again.logs) == len(passes[0].logs) and same_logs(again.logs, passes[0].logs)
                # Keep only the timings, so that live objects (and with them
                # the garbage collector's work) do not grow from pass to pass.
                again.streams, again.logs = [], []
            passes.append(again)
        if loop is None:
            loop = Loop(workload, passes[0].streams)
        loop.run(start + int(args.seconds * 1e9 * (r + 1) / ROUNDS), calibrator)
    first = passes[0]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality_pass = first if reference is workload else suite_pass(reference, work)
    values = {
        "frames_per_s": loop.frames_per_s(),
        "frame_latency_p50_ms": loop.latency_ms(50),
        "frame_latency_p99_ms": loop.latency_ms(99),
        "suite_s": statistics.median(suite_scaled),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": rss_mb,
        **quality(quality_pass.reports),
    }
    checks = {
        "suite_passes_repeat": repeatable,
        "loop_matches_suite": same_logs(loop.first_pass_logs, first.logs),
        "quality_finite": all(math.isfinite(values[k]) for k in ("ale_m", "recall", "wle_m", "box_accuracy")),
    }
    details = {
        "raw_timings": {
            "frames_per_s": loop.frames_per_s(scaled=False),
            "frame_latency_p50_ms": loop.latency_ms(50, scaled=False),
            "frame_latency_p99_ms": loop.latency_ms(99, scaled=False),
            "suite_s": statistics.median(suite_raw),
            "setup_s": statistics.median(setup_raw),
        },
        "speed_factor_median": statistics.median(REFERENCE_KERNEL_S / c for c in calibrator.samples),
        "loop": {"frames": loop.frames, "seconds": loop.seconds, "passes": loop.passes},
        "suite_stages_s": {k: statistics.median(p.stages[k] for p in passes) for k in first.stages},
        "suite_samples_s": suite_raw,
        "setup_samples_s": setup_raw,
        "kernel_samples_s": calibrator.samples,
        "quality_at_seed": quality(first.reports),
    }
    return {
        "values": values, "checks": checks, "details": details, "reference_pass": quality_pass,
        "attempted": loop.frames + sum(p.frames for p in passes),
        "failed": loop.failed + sum(p.failed for p in passes),
    }


def traced(args, workload, reference, work: Path, spans_path: Path) -> Dict[str, Any]:
    from tracer import Tracer

    start = time.perf_counter_ns()
    untraced_pass = suite_pass(workload, work)
    tracer = Tracer()
    patched = tracer.install()
    try:
        traced_pass = suite_pass(workload, work, tracer=tracer)
    finally:
        tracer.uninstall()
    n_suite, failures, counts = tracer.snapshot()

    calibrator = Calibrator()
    untraced_loop = Loop(workload, untraced_pass.streams)
    traced_loop = Loop(workload, untraced_pass.streams, tracer=tracer)
    # The rest of the run, but at least a quarter of it, in loop segments.
    remaining = max(start + int(args.seconds * 1e9) - time.perf_counter_ns(), int(args.seconds * 0.25e9))
    segment = remaining // (2 * TRACE_PAIRS)
    for _ in range(TRACE_PAIRS):
        untraced_loop.run(time.perf_counter_ns() + segment, calibrator)
        tracer.install()
        try:
            traced_loop.run(time.perf_counter_ns() + segment, calibrator)
        finally:
            tracer.uninstall()
    tracer.save(spans_path)

    checks = {
        "traced_suite_identical": len(traced_pass.logs) == len(untraced_pass.logs)
        and same_logs(traced_pass.logs, untraced_pass.logs),
        "traced_loop_identical": same_logs(traced_loop.first_pass_logs, untraced_pass.logs),
        "untraced_loop_matches_suite": same_logs(untraced_loop.first_pass_logs, untraced_pass.logs),
    }
    overall = tracer.span_table()
    suite = tracer.span_table(stop=n_suite)
    values = layer_metrics(overall, suite, failures, counts)
    values["trace.overhead_ratio"] = 1.0 - _div(traced_loop.frames_per_s(), untraced_loop.frames_per_s())
    details = {
        "untraced_loop": {"frames": untraced_loop.frames, "seconds": untraced_loop.seconds},
        "traced_loop": {"frames": traced_loop.frames, "seconds": traced_loop.seconds},
        "speed_factor_median": statistics.median(REFERENCE_KERNEL_S / c for c in calibrator.samples),
        "patched_names": patched,
        "spans": len(tracer),
        "span_table": overall,
        "suite_span_table": suite,
        "suite_counts": dict(counts),
        "suite_failures": dict(failures),
    }
    runs = (untraced_pass, traced_pass, untraced_loop, traced_loop)
    return {
        "values": values, "checks": checks, "details": details,
        "reference_pass": untraced_pass if reference is workload else None,
        "attempted": sum(r.frames for r in runs),
        "failed": sum(r.failed for r in runs),
    }


def _div(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(overall, suite, failures, counts) -> Dict[str, float]:
    """Per-layer metrics: counts from the one traced suite pass (exact),
    times per call from every traced span."""

    def calls(name):
        return suite.get(name, {}).get("calls", 0)

    def us_per_call(name):
        row = overall.get(name, {"total_ns": 0.0, "calls": 0})
        return _div(row["total_ns"], row["calls"]) / 1e3

    def suite_ms(name):
        return suite.get(name, {}).get("total_ns", 0.0) / 1e6

    process_frame = overall.get("pipeline.process_frame", {"self_ns": 0.0, "calls": 0})
    geometry = [row for name, row in suite.items() if name.startswith("geometry.")]
    values = {}
    for name in ("ukf.update", "ukf.predict", "association.match_gnn", "association.expected_box",
                 "prior.construct_prior", "prior.init_from_best_joint"):
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.us_per_call"] = us_per_call(name)
    for name in ("ukf.update", "association.expected_box", "prior.construct_prior", "prior.init_from_best_joint"):
        values[f"{name}.failures"] = failures.get(name, 0)
    values.update({
        "ukf.update.joints_per_call": _div(counts["ukf.update.joints"], calls("ukf.update")),
        "association.match_gnn.cells_per_call": _div(counts["association.match_gnn.cells"], calls("association.match_gnn")),
        "association.match_gnn.match_ratio": _div(counts["association.match_gnn.matches"], counts["association.match_gnn.tracks"]),
        "streams.detection_frame_from_record.us_per_call": us_per_call("streams.detection_frame_from_record"),
        "streams.joint_keep_ratio": _div(counts["streams.keypoints_kept"], counts["streams.keypoints_read"]),
        "streams.result_to_record.us_per_call": us_per_call("streams.result_to_record"),
        "streams.read_jsonl.ms": suite_ms("streams.read_jsonl"),
        "streams.write_jsonl.ms": suite_ms("streams.write_jsonl"),
        "pipeline.process_frame.us_per_call": us_per_call("pipeline.process_frame"),
        "pipeline.process_frame.self_us_per_frame": _div(process_frame["self_ns"], process_frame["calls"]) / 1e3,
        "pipeline.live_tracks_per_frame": _div(counts["pipeline.live_tracks"], counts["pipeline.frames"]),
        "pipeline.spawned_tracks": counts["pipeline.spawned_tracks"],
        "pipeline.spawn_confirm_ratio": _div(counts["pipeline.confirmed_spawns"], counts["pipeline.spawned_tracks"]),
        "pipeline.target_reinits": counts["pipeline.target_reinits"],
        "geometry.calls": sum(row["calls"] for row in geometry),
        "geometry.us_total": sum(row["total_ns"] for row in geometry) / 1e3,
        "simulator.generate.ms_per_frame": _div(suite_ms("simulator.generate"), counts["simulator.frames"]),
        "simulator.joint_emit_ratio": _div(counts["simulator.joints_emitted"], counts["simulator.joint_slots"]),
        "metrics.localization_metrics.ms": suite_ms("metrics.localization_metrics"),
        "metrics.tracking_accuracy.ms": suite_ms("metrics.tracking_accuracy"),
    })
    return values


# -- output ---------------------------------------------------------------------------


def print_span_table(table: Dict[str, Dict[str, float]]) -> None:
    """Spans by total time; %loop is the share of the tracker loop's time
    (the per-frame spans and their children)."""
    from tracer import FRAME_SPANS

    loop_ns = sum(table[name]["total_ns"] for name in FRAME_SPANS if name in table)
    print(f"  {'span':<40} {'calls':>9} {'total_ms':>10} {'self_ms':>10} {'us/call':>9} {'%loop':>7}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["total_ns"]):
        share = f"{100 * row['frame_ns'] / loop_ns:6.1f}%" if loop_ns and row["frame_ns"] else ""
        print(
            f"  {name:<40} {row['calls']:>9} {row['total_ns'] / 1e6:>10.2f} "
            f"{row['self_ns'] / 1e6:>10.2f} {row['total_ns'] / row['calls'] / 1e3:>9.1f} {share:>7}"
        )
    layers: Dict[str, float] = {}
    for name, row in table.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + row["self_ns"]
    print("  self time by layer: " + ", ".join(
        f"{layer} {ns / 1e6:.1f} ms" for layer, ns in sorted(layers.items(), key=lambda kv: -kv[1])
    ))


def declared_metrics(trace: int) -> Dict[str, str]:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(args, work: Path) -> Dict[str, Any]:
    import workloads

    units = declared_metrics(args.trace)
    env = environment()
    reference = workloads.build(args.workload, workloads.REFERENCE_SEED, ROOT)
    workload = reference if args.seed == workloads.REFERENCE_SEED else workloads.build(args.workload, args.seed, ROOT)
    print(f"jointtrack benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print("load: closed loop, one single-threaded client; the next frame is fed when process_frame returns")

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    if args.trace:
        outcome = traced(args, workload, reference, work, RESULTS_DIR / f"{args.workload}.spans.npz")
    else:
        outcome = end_to_end(args, workload, reference, work)
    checks, values, details = outcome["checks"], outcome["values"], outcome["details"]
    if args.workload == "paper_suite":
        reference_pass = outcome["reference_pass"] or suite_pass(reference, work)
        names = [s.name for s in reference.sessions]
        checks["paper_suite_equals_jointtrack_bench"], details["jointtrack_bench_summary"] = (
            check_against_cli_bench(reference_pass.reports, names, work)
        )
    checks["metrics_match_declaration"] = set(values) == set(units)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values}

    attempted, failed = outcome["attempted"], outcome["failed"]
    if args.trace:
        print("per-layer (traced; counts from one traced suite pass, times from all traced spans):")
        for name, m in metrics.items():
            print(f"  {name:<50} {m['value']:>14.4f} {m['unit']}")
        print("span table (all traced spans; self = span minus its child spans):")
        print_span_table(details["span_table"])
        print(f"tracing overhead: {100 * values['trace.overhead_ratio']:.1f}% of untraced frames/s "
              f"({details['untraced_loop']['frames']} untraced, {details['traced_loop']['frames']} traced frames "
              f"in alternating segments); per-layer times are raw, at a speed factor of "
              f"{details['speed_factor_median']:.3f}")
    else:
        raw = details["raw_timings"]
        print(f"end-to-end (timings at the reference CPU speed; raw at a speed factor of "
              f"{details['speed_factor_median']:.3f} in brackets):")
        for name, m in metrics.items():
            measured = f"  [{raw[name]:.4f}]" if name in raw else ""
            print(f"  {name:<22} {m['value']:>12.4f} {m['unit']}{measured}")
        loop = details["loop"]
        print(f"  latency samples: {loop['frames']} frames in {loop['seconds']:.2f} s of the loop ({loop['passes']} passes)")
        print("  suite stages (median s): " + ", ".join(f"{k} {v:.3f}" for k, v in details["suite_stages_s"].items()))
        print("  quality is pooled over the workload at the reference seed; at this seed: "
              + ", ".join(f"{k} {v:.4f}" for k, v in details["quality_at_seed"].items()))
    print(f"error_rate: {_div(failed, attempted):.6f} ({failed} of {attempted} frames failed)")
    print("checks: " + ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in checks.items()))

    summary = {"correct": all(checks.values()), "attempted": attempted, "failed": failed, "metrics": metrics}
    full = {**summary, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "error_rate": _div(failed, attempted), "environment": env,
            "checks": checks, "details": details}
    with open(RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1)
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "jointtrack" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"no jointtrack sources under {ROOT}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        summary = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

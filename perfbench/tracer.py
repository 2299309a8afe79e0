"""Span tracer that wraps jointtrack's cross-module calls from outside.

``Tracer.install`` replaces, in the namespace of each importing module,
every function that module imported from another jointtrack module; for
example ``jointtrack.pipeline.update`` becomes a wrapper around
``jointtrack.ukf.update``. It also wraps ``TrackingSession.process_frame``.
Spans are named by the callee's module (``ukf.update``), so a row follows
the code when a function moves to another module. The library itself is
not changed, and ``uninstall`` restores every name.

Spans are kept in memory as flat integer arrays (name, frame, start,
end, parent) and written out once at the end. A span's self time is its
duration minus the durations of its direct children. Counters that need
a call's arguments or result (joints per update, matrix cells per match,
keypoints kept by ingestion, track lifecycle) are kept beside the spans.
"""

import importlib
import inspect
import weakref
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple, Union

import numpy as np

#: Modules whose imports from other jointtrack modules are wrapped. The
#: simulator is included so that its projections count under geometry.
IMPORTERS = ("jointtrack.pipeline", "jointtrack.streams", "jointtrack.cli", "jointtrack.simulator")

PROCESS_FRAME = "pipeline.process_frame"
#: The calls that make up one frame of the tracker loop.
FRAME_SPANS = ("streams.detection_frame_from_record", PROCESS_FRAME, "streams.result_to_record")


def span_name(fn: Callable) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("i")
        self.frame_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("q")
        self.failures: Counter = Counter()
        self.counts: Counter = Counter()
        self.frame = -1
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        # Per session: ids of spawned tracks and of those later confirmed.
        self._lifecycle: "weakref.WeakKeyDictionary[Any, Tuple[set, set]]" = (
            weakref.WeakKeyDictionary()
        )

    # -- patching ------------------------------------------------------------

    def install(self) -> List[str]:
        """Wrap the cross-module calls; returns the patched import names."""
        from jointtrack.pipeline import TrackingSession

        patched = []
        for module_name in IMPORTERS:
            module = importlib.import_module(module_name)
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith("jointtrack.")
                    and obj.__module__ != module_name
                ):
                    self._patch(module, attr, self._wrap(span_name(obj), obj))
                    patched.append(f"{module_name}.{attr}")
        self._patch(
            TrackingSession, "process_frame",
            self._wrap(PROCESS_FRAME, TrackingSession.process_frame),
        )
        return patched

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name: str, fn: Callable) -> Callable:
        name_id = self._name_id(name)
        before, after = _HOOKS.get(name, (None, None))
        stack = self._stack
        cols = (self.name_col, self.frame_col, self.start_col, self.end_col, self.parent_col)
        name_col, frame_col, start_col, end_col, parent_col = cols
        tracer = self

        def traced(*args, **kwargs):
            token = before(tracer, args) if before else None
            index = len(name_col)
            name_col.append(name_id)
            frame_col.append(tracer.frame)
            parent_col.append(stack[-1] if stack else -1)
            start_col.append(0)
            end_col.append(0)
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end_col[index] = perf_counter_ns()
                start_col[index] = start
                stack.pop()
                tracer.failures[name] += 1
                raise
            end_col[index] = perf_counter_ns()
            start_col[index] = start
            stack.pop()
            if after:
                after(tracer, token, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- results -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.name_col)

    def snapshot(self) -> Tuple[int, Counter, Counter]:
        """Position and counters now, to delimit one exact unit of work."""
        return len(self), Counter(self.failures), Counter(self.counts)

    def arrays(self) -> Dict[str, np.ndarray]:
        # Copies, so the columns stay appendable (a live buffer view would
        # forbid resizing them).
        return {
            "name": np.array(self.name_col, dtype=np.int32),
            "frame": np.array(self.frame_col, dtype=np.int64),
            "start_ns": np.array(self.start_col, dtype=np.int64),
            "end_ns": np.array(self.end_col, dtype=np.int64),
            "parent": np.array(self.parent_col, dtype=np.int64),
        }

    def span_table(self, stop: Union[int, None] = None) -> Dict[str, Dict[str, float]]:
        """Per span name over spans[:stop]: calls, total and self time (ns),
        and the part of the total spent under a per-frame root span."""
        cols = self.arrays()
        names = cols["name"][:stop]
        duration = (cols["end_ns"] - cols["start_ns"])[:stop].astype(np.float64)
        parent = cols["parent"][:stop]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(names))
        own = duration - child
        root = np.arange(len(names))
        while True:
            up = parent[root]
            if not np.any(up >= 0):
                break
            root = np.where(up >= 0, up, root)
        frame_roots = [self._name_ids[n] for n in FRAME_SPANS if n in self._name_ids]
        in_frame = np.isin(names[root], frame_roots)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=duration, minlength=k)
        self_ns = np.bincount(names, weights=own, minlength=k)
        frame_ns = np.bincount(names[in_frame], weights=duration[in_frame], minlength=k)
        return {
            self.names[i]: {
                "calls": int(calls[i]),
                "total_ns": float(total[i]),
                "self_ns": float(self_ns[i]),
                "frame_ns": float(frame_ns[i]),
            }
            for i in range(k)
            if calls[i]
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# -- counting hooks: (before(tracer, args) -> token, after(tracer, token, args, result))


def _update_before(tracer, args):
    tracer.counts["ukf.update.joints"] += len(args[2])


def _match_before(tracer, args):
    tracks, detections = args[0], args[1]
    tracer.counts["association.match_gnn.cells"] += len(tracks) * len(detections)
    tracer.counts["association.match_gnn.tracks"] += len(tracks)


def _match_after(tracer, token, args, result):
    tracer.counts["association.match_gnn.matches"] += len(result.matches)


def _merge_before(tracer, args):
    raw, min_confidence = args[0], args[2]
    tracer.counts["streams.keypoints_read"] += len(raw)
    tracer.counts["streams.keypoints_kept"] += sum(
        1 for _, conf in raw.values() if float(conf) >= min_confidence
    )


def _generate_after(tracer, token, args, result):
    detections, truth = result
    tracer.counts["simulator.frames"] += len(detections)
    tracer.counts["simulator.joint_slots"] += 4 * sum(len(frame["persons"]) for frame in truth)
    tracer.counts["simulator.joints_emitted"] += sum(
        len(det["joints"]) for frame in detections for det in frame["detections"]
    )


def _process_frame_before(tracer, args):
    session = args[0]
    target = session.target
    return target is not None and target.status.value == "Lost"


def _process_frame_after(tracer, target_was_lost, args, result):
    spawned, confirmed = tracer._lifecycle.setdefault(args[0], (set(), set()))
    counts = tracer.counts
    counts["pipeline.frames"] += 1
    counts["pipeline.live_tracks"] += len(result.tracks)
    for track_id, _ in result.spawned:
        spawned.add(track_id)
        counts["pipeline.spawned_tracks"] += 1
    for track in result.tracks:
        if track.status.value == "Confirmed" and track.id in spawned and track.id not in confirmed:
            confirmed.add(track.id)
            counts["pipeline.confirmed_spawns"] += 1
        if target_was_lost and track.is_target and track.status.value == "Confirmed":
            counts["pipeline.target_reinits"] += 1


_HOOKS = {
    "ukf.update": (_update_before, None),
    "association.match_gnn": (_match_before, _match_after),
    "pipeline.merge_joint_pairs": (_merge_before, None),
    "simulator.generate": (None, _generate_after),
    PROCESS_FRAME: (_process_frame_before, _process_frame_after),
}

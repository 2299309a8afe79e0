"""read_jsonl and generate pause the cyclic garbage collector and restore it.

The pause rests on a premise the last test pins: the records generate
builds and read_jsonl decodes hold no reference cycle, so reference
counting frees all of them and a collection of them finds nothing.
"""

import dataclasses
import gc
import json
from pathlib import Path

import pytest

from jointtrack.errors import EmptyScenarioError, FileIoError, MalformedRecordError
from jointtrack.files import collection_paused
from jointtrack import simulator
from jointtrack.simulator import Scenario, generate
from jointtrack.streams import read_jsonl, write_jsonl

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SCENARIO_PATHS = sorted(SCENARIO_DIR.glob("*.json"))


def _scenario(path=SCENARIO_PATHS[0]):
    return Scenario.from_dict(json.loads(path.read_text(encoding="utf-8")))


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector's state on entry to the call under test."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def _read(path, text):
    path.write_bytes(text)
    return read_jsonl(path)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda tmp: _read(tmp / "s.jsonl", b'{"t":0.0}\n{"t":0.1}\n'), None),
        (lambda tmp: _read(tmp / "s.jsonl", b'{"t":0.0}\n{"t":0.1,\n'), MalformedRecordError),
        (lambda tmp: _read(tmp / "s.jsonl", b'{"t":0.0}\n\xff\n'), MalformedRecordError),
        (lambda tmp: read_jsonl(tmp / "missing.jsonl"), FileIoError),
        (lambda tmp: generate(_scenario()), None),
        (lambda tmp: generate(dataclasses.replace(_scenario(), persons=())), EmptyScenarioError),
    ],
    ids=[
        "read_jsonl",
        "read_jsonl-truncated-line",
        "read_jsonl-not-utf8",
        "read_jsonl-missing-file",
        "generate",
        "generate-no-persons",
    ],
)
def test_collector_state_is_restored(collector, tmp_path, call, error):
    if error is None:
        call(tmp_path)
    else:
        with pytest.raises(error):
            call(tmp_path)
    assert gc.isenabled() is collector


def test_collection_is_paused_inside_and_restored_after_an_exception(collector):
    with pytest.raises(RuntimeError):
        with collection_paused():
            assert not gc.isenabled()
            raise RuntimeError("leave the block")
    assert gc.isenabled() is collector


def test_records_are_parsed_and_built_with_the_collector_paused(monkeypatch, tmp_path):
    seen = []

    def spy(fn):
        def call(*args, **kwargs):
            seen.append((fn.__name__, gc.isenabled()))
            return fn(*args, **kwargs)

        return call

    scenario = _scenario()
    monkeypatch.setattr("jointtrack.streams.json.loads", spy(json.loads))
    monkeypatch.setattr("jointtrack.simulator._box", spy(simulator._box))
    assert gc.isenabled()
    generate(scenario)
    _read(tmp_path / "s.jsonl", b'{"t":0.0}\n')
    assert {"_box", "loads"} == {name for name, _ in seen}
    assert not any(enabled for _, enabled in seen)
    assert gc.isenabled()


def test_committed_scenarios_build_no_reference_cycles(tmp_path):
    gc.collect()
    with collection_paused():
        for path in SCENARIO_PATHS:
            detections, truth = generate(_scenario(path))
            write_jsonl(tmp_path / "detections.jsonl", detections)
            write_jsonl(tmp_path / "truth.jsonl", truth)
            read = read_jsonl(tmp_path / "detections.jsonl"), read_jsonl(tmp_path / "truth.jsonl")
            del detections, truth, read
        assert gc.collect() == 0

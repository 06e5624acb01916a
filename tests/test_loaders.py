"""Fuzzing of the two JSON loaders: a malformed document raises ScenarioError,
anything accepted survives a dump-and-reload unchanged."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import make_demo
from tdasim import (
    ScenarioError,
    scenario_from_dict,
    scenario_to_dict,
    simulate,
    trace_from_dict,
    trace_to_dict,
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 200) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)


def _slots(node) -> list:
    """Every (container, key) pair in a JSON document, depth first."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return []
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(_slots(value))
    return out


def _mutated(data: st.DataObject, doc: dict) -> dict:
    """A copy of doc with one to three values replaced by arbitrary JSON values."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        container, key = data.draw(st.sampled_from(_slots(doc)), label="slot")
        container[key] = data.draw(JSON_VALUES, label="value")
    return doc


def _demo_with_waypoints() -> dict:
    doc = scenario_to_dict(make_demo({1: 5}))
    doc["nodes"][0].update(name="src", range=50.0, speed=12.5,
                           waypoints=[[0.0, 0.0, 10.0, 0.0], [5.0, 1.0, 10.0, 30.0]])
    return doc


SCENARIO_DOC = _demo_with_waypoints()
TRACE_DOC = trace_to_dict(simulate(make_demo({1: 5})))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_scenario_loader_fuzz(data):
    doc = _mutated(data, SCENARIO_DOC)
    try:
        s = scenario_from_dict(doc)
    except ScenarioError:
        return
    assert scenario_from_dict(scenario_to_dict(s)) == s


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trace_loader_fuzz(data):
    doc = _mutated(data, TRACE_DOC)
    try:
        trace = trace_from_dict(doc)
    except ScenarioError:
        return
    assert trace_from_dict(trace_to_dict(trace)) == trace


def _edited(doc: dict, edit) -> dict:
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


@pytest.mark.parametrize(
    ("load", "doc", "message"),
    [
        (scenario_from_dict, [], "scenario document must be a JSON object"),
        (trace_from_dict, [], "trace document must be a JSON object"),
        (scenario_from_dict, _edited(SCENARIO_DOC, lambda d: d.update(extra=1)),
         "scenario document has unknown keys: ['extra']"),
        (trace_from_dict, _edited(TRACE_DOC, lambda d: d.update(extra=1)),
         "trace document has unknown keys: ['extra']"),
        (scenario_from_dict, _edited(SCENARIO_DOC, lambda d: d.pop("source")),
         "scenario document missing keys: ['source']"),
        (trace_from_dict, _edited(TRACE_DOC, lambda d: d.pop("source")),
         "trace document missing keys: ['source']"),
        (scenario_from_dict, _edited(SCENARIO_DOC, lambda d: d["nodes"].insert(0, 5)),
         "node entry must be a JSON object"),
        (scenario_from_dict, _edited(SCENARIO_DOC, lambda d: d["windows"].insert(0, 5)),
         "window entry must be a JSON object"),
        (trace_from_dict, _edited(TRACE_DOC, lambda d: d["hops"].insert(0, 5)),
         "hop 0 must be a JSON object"),
    ],
    ids=["scenario-not-object", "trace-not-object", "scenario-unknown-key", "trace-unknown-key",
         "scenario-missing-key", "trace-missing-key", "node-not-object", "window-not-object",
         "hop-not-object"],
)
def test_loaders_name_the_same_defect_in_the_same_words(load, doc, message):
    with pytest.raises(ScenarioError) as err:
        load(doc)
    assert str(err.value) == message

"""Fuzzing of the two JSON loaders: a malformed document raises ScenarioError,
anything accepted survives a dump-and-reload unchanged."""

from __future__ import annotations

import json

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

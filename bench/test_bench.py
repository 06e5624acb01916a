"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

from __future__ import annotations

import dataclasses
import json

import pytest

import run

run._import_program()

import tracing  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Span  # noqa: E402


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_same_seed_gives_identical_input_digests(name, tmp_path):
    def digests(seed, sub):
        wl = W.WORKLOADS[name](seed, tmp_path / sub)
        return [W.digest(wl.input_doc(i)) for i in range(3)]

    assert digests(11, "a") == digests(11, "b")
    assert digests(11, "a") != digests(12, "c")


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("op", "", 0.0, 10.0, -1, 0, False),
        Span("twig.build", "cli", 1.0, 4.0, 0, 0, False),
        Span("scenario.dumps", "twig", 2.0, 3.0, 1, 0, False),
        Span("twig.shortest_path", "cli", 5.0, 9.0, 0, 0, False),
        # overlaps its sibling and runs past its parent: only 9..10 is new
        Span("simulator.simulate", "cli", 8.0, 11.0, 0, 0, False),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_errors_count_exceptions_leaving_a_layer():
    spans = [
        Span("op", "", 0.0, 5.0, -1, 0, True),
        Span("cli.main", "cli", 0.0, 5.0, 0, 0, True),
        Span("twig.build", "cli", 1.0, 2.0, 1, 0, True),
        Span("twig.shortest_path", "twig", 1.0, 1.5, 2, 0, True),  # stays inside twig
    ]
    errors = tracing.errors_by_layer(spans)
    assert errors["twig"] == 1 and errors["cli"] == 1
    assert sum(errors.values()) == 2


def test_tracer_records_each_binding_and_restores_it():
    generate = W.G.generate
    tracer = tracing.Tracer()
    with tracer.install():
        assert W.G.build is not W.T.build  # one wrapper per binding
        W.G.generate(W.G.preset_params("table2-row1", 3))
    spans = tracer.spans()
    assert W.G.generate is generate and W.T.build is W.G.build
    assert tracing.calls_at(spans, "twig.build", "generate") >= 1
    assert tracing.calls_at(spans, "scenario.validate_scenario", "generate") >= 1
    assert spans[0].name == "generate.generate" and spans[0].parent == -1
    assert all(s.parent >= 0 for s in spans[1:])


def test_wrong_output_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    good = W.M.evaluate_scenario

    def drops_local_flags(s, *args, **kwargs):
        r = good(s, *args, **kwargs)
        return dataclasses.replace(r, flagged={**r.flagged, "local": []})

    monkeypatch.setattr(W.M, "evaluate_scenario", drops_local_flags)
    result = run.run("table2-sweep", seed=5, seconds=0.0, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 2  # the operation and the reference
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}

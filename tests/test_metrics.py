"""Overhead ratios, precision/recall scoring, and the evaluation report."""

from __future__ import annotations

import pytest

from support import A, B, C, make_demo
from tdasim import metrics
from tdasim import (
    MODES,
    PRESETS,
    OverheadModel,
    eor,
    evaluate_scenario,
    generate,
    preset_params,
    scenario_from_dict,
    scenario_to_dict,
    score,
    time_phases,
)

GOLDEN_EOR = {
    "global": [0.035, 0.042, 0.057, 0.078, 0.114],
    "local": [0.028, 0.028, 0.028, 0.028, 0.028],
    "hotd": [0.1875, 0.225, 0.3, 0.4125, 0.6],
}
HOPS = [4, 5, 7, 10, 15]


def test_eor_golden_values():
    model = OverheadModel()
    for mode, expected in GOLDEN_EOR.items():
        for h, want in zip(HOPS, expected):
            assert eor(model, mode, h) == pytest.approx(want, abs=1e-3)


def test_eor_exact_fractions():
    model = OverheadModel()
    # cumulative: 20 bits per carried record, h(h+1)/2 records over 1400h bits
    assert eor(model, "global", 4) == 20 * 10 / (1400 * 4)
    assert eor(model, "global", 15) == 20 * 120 / (1400 * 15)
    assert eor(model, "local", 9) == 40 / 1400
    assert eor(model, "hotd", 4) == 105 * 10 / (1400 * 4)


def test_eor_aggregates_over_hop_lists():
    model = OverheadModel()
    # a mixed batch is a bit-weighted blend, not an average of ratios
    both = eor(model, "global", [4, 15])
    assert both == (20 * 10 + 20 * 120) / (1400 * (4 + 15))
    assert eor(model, "local", [4, 15]) == 40 / 1400


def test_eor_growth_patterns():
    model = OverheadModel()
    gl = [eor(model, "global", h) for h in range(1, 30)]
    assert all(b > a for a, b in zip(gl, gl[1:]))
    lo = [eor(model, "local", h) for h in range(1, 30)]
    assert len(set(lo)) == 1
    # the reference scheme pays the same growth at a 5.25x record size
    for h in HOPS:
        assert eor(model, "hotd", h) == pytest.approx(5.25 * eor(model, "global", h))


def test_eor_rejects_bad_input():
    model = OverheadModel()
    with pytest.raises(ValueError, match="mode"):
        eor(model, "osmotic", 4)
    with pytest.raises(ValueError, match="at least"):
        eor(model, "global", [])
    with pytest.raises(ValueError, match="at least 1"):
        eor(model, "global", 0)


def test_overhead_model_fields():
    model = OverheadModel()
    assert model.global_bits == 20
    assert model.message_bits == 1400


def test_score_edge_cases():
    assert score([], frozenset()) == (1.0, 1.0)
    assert score([], {A}) == (1.0, 0.0)
    assert score([A], {A, C}) == (1.0, 0.5)
    assert score([A, B], {A}) == (0.5, 1.0)
    assert score([B], {}) == (0.0, 1.0)


def test_time_phases_smoke(demo):
    timings = time_phases(demo, repeats=3)
    assert set(timings) == {"build", "simulate", "detect_global", "detect_local"}
    assert all(v >= 0 for v in timings.values())
    with pytest.raises(ValueError, match="repeats"):
        time_phases(demo, repeats=0)


def test_time_phases_builds_afresh_each_repeat(build_calls):
    s = make_demo({A: 5})
    s.graph  # a kept graph must not turn the build timing into a lookup
    build_calls.clear()
    time_phases(s, repeats=3)
    assert len(build_calls) == 6  # per repeat, one graph to replay and one to judge


def test_time_phases_judges_on_an_empty_search_memo(monkeypatch):
    """The timed global check searches for itself: simulate's searches on the
    same graph would answer its comparison paths from the memo."""
    memos = []
    real = metrics.detect_global

    def recording(g, trace):
        memos.append((dict(g._memo), dict(g._tails)))
        return real(g, trace)

    monkeypatch.setattr(metrics, "detect_global", recording)
    time_phases(make_demo({A: 5}), repeats=2)
    assert memos == [({}, {}), ({}, {})]


def test_time_phases_skips_detection_when_dropped():
    timings = time_phases(make_demo({C: 1000}), repeats=2)
    assert set(timings) == {"build", "simulate"}


def test_evaluate_scenario_attacked(demo_graph):
    s = make_demo({A: 5, C: 6})
    report = evaluate_scenario(s, timing_repeats=2)
    assert report.delivered
    assert report.hop_count == 6
    assert report.path == ("S", "A", "B", "D", "C", "E", "F")
    assert report.fp_weight == 151.0
    assert report.sp_weight == 89.0
    assert report.physical_arrival == 151.0
    assert report.flagged == {"global": ["A", "C"], "local": ["A", "C"]}
    assert report.precision == {"global": 1.0, "local": 1.0}
    assert report.recall == {"global": 1.0, "local": 1.0}
    assert set(report.eor) == set(MODES)
    assert report.eor["local"] == 40 / 1400
    assert set(report.runtime) == {"build", "simulate", "detect_global", "detect_local"}


def test_evaluate_scenario_benign(demo):
    report = evaluate_scenario(demo, timing_repeats=0)
    assert report.delivered
    assert report.fp_weight == report.sp_weight == 89.0
    assert report.flagged == {"global": [], "local": []}
    assert report.precision == {"global": 1.0, "local": 1.0}
    assert report.recall == {"global": 1.0, "local": 1.0}
    assert report.runtime == {}


def test_evaluate_scenario_dropped():
    report = evaluate_scenario(make_demo({C: 1000}), timing_repeats=0)
    assert not report.delivered
    assert report.fp_weight is None and report.sp_weight is None
    assert report.physical_arrival is None
    assert report.path == ("S", "A", "B", "C")
    assert report.eor == {} and report.flagged == {}


def test_evaluate_report_round_trips_to_dict():
    report = evaluate_scenario(make_demo({A: 5}), timing_repeats=0)
    d = report.to_dict()
    assert d["delivered"] is True
    assert d["hop_count"] == report.hop_count
    assert d["flagged"]["global"] == ["A"]
    assert d["eor"]["global"] == report.eor["global"]
    assert d["runtime"] == {}


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_evaluating_a_generated_scenario_reuses_its_graph(preset, build_calls):
    s = generate(preset_params(preset, 1))
    generated = len(build_calls)
    assert generated >= 1
    evaluate_scenario(s, timing_repeats=0)
    assert len(build_calls) == generated


def test_reused_graph_gives_the_report_of_a_fresh_one():
    for preset in sorted(PRESETS):
        for seed in range(20):
            s = generate(preset_params(preset, seed))
            fresh = scenario_from_dict(scenario_to_dict(s))
            assert "graph" in vars(s) and "graph" not in vars(fresh)
            assert (evaluate_scenario(s, timing_repeats=0).to_dict()
                    == evaluate_scenario(fresh, timing_repeats=0).to_dict()), (preset, seed)

"""Both detectors on the walkthrough network plus their small-print behavior."""

from __future__ import annotations

import dataclasses
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import A, B, C, D, E, F, S, make_demo, oracle_neighbor_tables
from tdasim import (
    HopMetadata,
    HopRecord,
    InconsistentTrace,
    NeighborTables,
    Node,
    PRESETS,
    PacketTrace,
    RelayInfo,
    Scenario,
    TimeWindow,
    build,
    detect_global,
    detect_local,
    generate,
    local_scan_to_dict,
    preset_params,
    report_to_dict,
    run_local_pipeline,
    simulate,
    to_seconds,
    to_us,
)

SEC = to_us(1)
SHIFT = 37_123_456  # microseconds: a shift that lines up with no window or grid


# ---------------------------------------------------------------------------
# whole-trace comparison

def test_global_benign_is_silent(demo, demo_graph):
    trace = simulate(demo, demo_graph)
    report = detect_global(demo_graph, trace)
    assert report.flagged == ()
    assert report.evidence == ()
    assert report.fp_weight == report.sp_weight == 89 * SEC


def test_global_flags_both_attackers(demo_graph):
    trace = simulate(make_demo({A: 5, C: 6}), demo_graph)
    report = detect_global(demo_graph, trace)
    assert report.flagged == (A, C)
    assert report.fp_weight == 151 * SEC
    assert report.sp_weight == 89 * SEC


def test_global_scan_evidence(demo_graph):
    trace = simulate(make_demo({A: 5, C: 6}), demo_graph)
    checks = detect_global(demo_graph, trace).evidence
    # backward over the relays: hop before the destination first
    rows = [
        (c.node, to_seconds(c.segment_weight), to_seconds(c.shortest_weight),
         c.flagged, c.anchor)
        for c in checks
    ]
    assert rows == [
        (E, 41.0, 41.0, False, F),
        (C, 92.0, 31.0, True, F),
        (D, 26.0, 26.0, False, C),  # exonerated against the new anchor
        (B, 37.0, 37.0, False, C),
        (A, 58.0, 22.0, True, C),
        (S, 1.0, 1.0, False, A),
    ]
    assert all(not c.inconclusive for c in checks)


def test_global_rejects_a_hop_no_encounter_can_carry():
    """B sends to A at 20 s, as their only window [0, 20] closes, and A sends to
    D at 21.2 s over [20, 21.5]: with t_tr 1 s neither transmission ends inside
    an encounter of its pair, so the trace cannot be judged."""
    g = build((TimeWindow(1, S, A, 0, 20 * SEC), TimeWindow(2, S, B, 0, 20 * SEC),
               TimeWindow(3, B, A, 0, 20 * SEC), TimeWindow(4, A, D, 20 * SEC, to_us(21.5))),
              SEC)
    arrival = to_us(22.2)
    trace = PacketTrace(S, D, (HopRecord(S, 0), HopRecord(B, 5 * SEC), HopRecord(A, 21 * SEC),
                               HopRecord(D, arrival)), True, arrival)
    with pytest.raises(InconsistentTrace, match=f"hop 2: no encounter between nodes {B} and {A}"):
        detect_global(g, trace)
    last_hop = PacketTrace(A, D, (HopRecord(A, 0), HopRecord(D, arrival)), True, arrival)
    with pytest.raises(InconsistentTrace, match=f"hop 1: no encounter between nodes {A} and {D}"):
        detect_global(g, last_hop)


def test_global_judges_a_hop_carried_by_an_enclosing_encounter():
    """Nodes 0 and 1 meet over [0, 20] s and, nested, over [5, 12] s.  The
    replay sends 0 -> 1 at 11.5 s, arriving after the nested window closes,
    and records the nested piece, the latest that holds the send instant; the
    enclosing encounter carries the hop, so the trace is judged."""
    s = Scenario(nodes=tuple(Node(n) for n in range(3)),
                 windows=(TimeWindow(1, 0, 1, 0, 20 * SEC), TimeWindow(2, 0, 1, 5 * SEC, 12 * SEC),
                          TimeWindow(3, 2, 0, to_us(10.5), 12 * SEC)),
                 t_tr=SEC, source=2, destination=1)
    trace = simulate(s)
    assert [(h.node, h.reception_time, h.window) for h in trace.hops] == [
        (2, 0, None), (0, to_us(11.5), 3), (1, to_us(12.5), 2)]
    report = detect_global(s.graph, trace)
    assert report.flagged == ()
    assert report.fp_weight == report.sp_weight == to_us(7.5)


def test_global_single_attacker(demo_graph):
    trace = simulate(make_demo({A: 5}), demo_graph)
    report = detect_global(demo_graph, trace)
    assert report.flagged == (A,)
    assert report.fp_weight == 90 * SEC
    assert report.sp_weight == 89 * SEC


def test_global_requires_delivery(demo_graph):
    trace = simulate(make_demo({C: 1000}), demo_graph)
    with pytest.raises(InconsistentTrace, match="delivered"):
        detect_global(demo_graph, trace)


def test_global_rejects_unembeddable_trace(demo_graph):
    fake = PacketTrace(S, A, (HopRecord(S, 0), HopRecord(A, 20 * SEC)), True, 20 * SEC)
    with pytest.raises(InconsistentTrace, match="no encounter"):
        detect_global(demo_graph, fake)


def test_global_never_flags_source_or_destination_in_demo(demo_graph):
    for delays in ({}, {A: 5}, {A: 5, C: 6}, {B: 2}, {C: 3}):
        trace = simulate(make_demo(delays), demo_graph)
        if not trace.delivered:
            continue
        report = detect_global(demo_graph, trace)
        assert F not in report.flagged
        # the source is judged like everyone else, but it is honest here
        assert S not in report.flagged


def test_whole_trace_check_is_fast_on_a_fresh_graph():
    """Criterion 7's 100 ms bound on the 30-node whole-trace check, timed on a
    new graph each repeat: a graph answers repeated searches from its memo, so
    repeats on one graph would time memo lookups."""
    big = generate(preset_params("table2-row5", 0))
    trace = simulate(big, big.graph)
    assert trace.delivered
    samples = []
    for _ in range(15):
        g = build(big.windows, big.t_tr)
        t0 = time.perf_counter()
        detect_global(g, trace)
        samples.append(time.perf_counter() - t0)
    took = statistics.median(samples)
    assert took < 0.100, f"whole-trace check took {took * 1000:.1f} ms (limit 100)"


# ---------------------------------------------------------------------------
# single-observer checks

def tables_for(s, g, node):
    return NeighborTables.from_scenario(s, g, node)


def test_neighbor_tables(demo, demo_graph):
    t = tables_for(demo, demo_graph, C)
    assert t.one_hop == frozenset({B, D, E, F})
    assert t.two_hop == frozenset({A, B, D, E, F})
    assert set(t.originals) == t.one_hop
    assert [w.wid for w in t.originals[B]] == [4]
    assert t.one_hop <= t.two_hop


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_neighbor_tables_match_the_window_scan(preset):
    for seed in range(20):
        s = generate(preset_params(preset, seed))
        g = build(s.windows, s.t_tr)
        for scenario in (s, s.without_attack()):
            for h in simulate(scenario, g).hops[1:]:
                assert NeighborTables.from_scenario(scenario, g, h.node) == \
                    oracle_neighbor_tables(scenario, g, h.node), (seed, h.node)


def test_neighbor_tables_are_made_once_per_graph_and_observer(demo):
    g = build(demo.windows, demo.t_tr)
    first = tables_for(demo, g, C)
    assert tables_for(demo.without_attack(), g, C) is first
    assert tables_for(demo, g, D) is not first
    other = build(demo.windows, demo.t_tr)
    assert tables_for(demo, other, C) == first and tables_for(demo, other, C) is not first
    assert g == other and repr(g) == repr(other)


def test_local_benign_pipeline_is_silent(demo, demo_graph):
    scan = run_local_pipeline(demo, demo_graph, simulate(demo, demo_graph))
    assert scan.merged_flagged() == ()
    assert scan.alerts == ()
    assert len(scan.reports) == 4  # one per receiving hop


def test_local_pipeline_flags_both_attackers(demo_graph):
    s = make_demo({A: 5, C: 6})
    scan = run_local_pipeline(s, demo_graph, simulate(s, demo_graph))
    assert scan.merged_flagged() == (A, C)
    accusations = {
        (r.observer, c.subject)
        for r in scan.reports
        for c in r.evidence
        if c.flagged
    }
    assert accusations == {(B, A), (E, C), (F, C)}


def test_local_pipeline_evidence_numbers(demo_graph):
    s = make_demo({A: 5, C: 6})
    scan = run_local_pipeline(s, demo_graph, simulate(s, demo_graph))
    by_pair = {
        (r.observer, c.subject, c.kind): c for r in scan.reports for c in r.evidence
    }
    held_at_b = by_pair[(B, A, "predecessor")]
    assert held_at_b.flagged
    assert to_seconds(held_at_b.delta) == 6.0
    assert held_at_b.immediate is False
    two_hop_at_f = by_pair[(F, C, "skipped_window")]
    assert two_hop_at_f.flagged
    assert to_seconds(two_hop_at_f.held_until) == 62.0
    assert to_seconds(two_hop_at_f.earliest_via_prev) == 118.0
    assert two_hop_at_f.window == 7  # the skipped direct encounter C-F
    # C's own receipt from D looks clean, and B survives C's two-hop check
    assert not by_pair[(C, D, "predecessor")].flagged
    assert not by_pair[(C, B, "skipped_window")].flagged
    assert to_seconds(by_pair[(C, B, "skipped_window")].held_until) == 32.0


def test_local_single_attacker(demo_graph):
    s = make_demo({A: 5})
    scan = run_local_pipeline(s, demo_graph, simulate(s, demo_graph))
    assert scan.merged_flagged() == (A,)


def test_local_alerts_reach_two_hop_neighborhood(demo_graph):
    s = make_demo({A: 5, C: 6})
    scan = run_local_pipeline(s, demo_graph, simulate(s, demo_graph))
    by_observer = {(a.observer, a.flagged): a.informed for a in scan.alerts}
    assert set(by_observer) == {(B, A), (E, C), (F, C)}
    # B talks to A, C, D directly, and through them reaches S, E, and F
    assert by_observer[(B, A)] == (S, A, C, D, E, F)


def test_detect_local_accepts_direct_handoff(demo, demo_graph):
    # receipt at the window opening plus transmission time: clean
    tables = tables_for(demo, demo_graph, A)
    report = detect_local(
        A, 6 * SEC,
        HopMetadata(info_2=RelayInfo(S, 0)),
        tables, SEC,
    )
    assert report.flagged == ()
    (check,) = report.evidence
    assert check.delta == SEC


def test_detect_local_accepts_immediate_relay(demo, demo_graph):
    # B receives mid-window at 26 and C hears it at 27: delta is 2 s, but the
    # relay forwarded the instant it could, which the carried time proves
    tables = tables_for(demo, demo_graph, C)
    report = detect_local(
        C, 27 * SEC,
        HopMetadata(info_1=RelayInfo(A, 6 * SEC), info_2=RelayInfo(B, 26 * SEC)),
        tables, SEC,
    )
    predecessor = report.evidence[0]
    assert predecessor.kind == "predecessor"
    assert not predecessor.flagged
    assert predecessor.delta == 2 * SEC
    assert report.flagged == ()


def test_detect_local_flags_held_message(demo, demo_graph):
    tables = tables_for(demo, demo_graph, B)
    report = detect_local(
        B, 31 * SEC,
        HopMetadata(info_1=RelayInfo(S, 0), info_2=RelayInfo(A, 6 * SEC)),
        tables, SEC,
    )
    assert report.flagged == (A,)
    assert report.evidence[0].delta == 6 * SEC
    # S is not one of B's direct neighbors, so no two-hop record is checked
    assert len(report.evidence) == 1


def test_detect_local_two_hop_skip_requires_overlap(demo, demo_graph):
    # E hears from C at 117; D two hops back is not adjacent to E either
    tables = tables_for(demo, demo_graph, E)
    report = detect_local(
        E, 117 * SEC,
        HopMetadata(info_1=RelayInfo(D, 36 * SEC), info_2=RelayInfo(C, 61 * SEC)),
        tables, SEC,
    )
    kinds = [c.kind for c in report.evidence]
    assert kinds == ["predecessor"]
    assert report.flagged == (C,)


def test_detect_local_needs_predecessor_record(demo, demo_graph):
    with pytest.raises(InconsistentTrace, match="predecessor"):
        detect_local(A, 6 * SEC, HopMetadata(), tables_for(demo, demo_graph, A), SEC)


def test_detect_local_rejects_send_outside_windows(demo, demo_graph):
    with pytest.raises(InconsistentTrace, match="no window"):
        detect_local(
            A, 50 * SEC,
            HopMetadata(info_2=RelayInfo(S, 0)),
            tables_for(demo, demo_graph, A), SEC,
        )


def test_detect_local_is_pure(demo, demo_graph):
    tables = tables_for(demo, demo_graph, B)
    meta = HopMetadata(info_1=RelayInfo(S, 0), info_2=RelayInfo(A, 6 * SEC))
    assert detect_local(B, 31 * SEC, meta, tables, SEC) == detect_local(
        B, 31 * SEC, meta, tables, SEC
    )


# ---------------------------------------------------------------------------
# serialization

def test_report_to_dict_global(demo_graph):
    trace = simulate(make_demo({A: 5, C: 6}), demo_graph)
    d = report_to_dict(detect_global(demo_graph, trace), "SABCDEF".__getitem__)
    assert d["mode"] == "global"
    assert d["flagged"] == ["A", "C"]
    assert d["fp_weight"] == 151.0
    assert d["sp_weight"] == 89.0
    assert d["evidence"][0]["node"] == "E"
    assert d["evidence"][1] == {
        "node": "C",
        "reception_time": 61.0,
        "anchor": "F",
        "segment_weight": 92.0,
        "shortest_weight": 31.0,
        "flagged": True,
        "inconclusive": False,
    }


def test_local_scan_to_dict(demo_graph):
    s = make_demo({A: 5, C: 6})
    scan = run_local_pipeline(s, demo_graph, simulate(s, demo_graph))
    d = local_scan_to_dict(scan, s.label)
    assert d["mode"] == "local"
    assert d["flagged"] == ["A", "C"]
    assert len(d["reports"]) == 6
    assert d["alerts"][0]["observer"] == "B"
    assert d["alerts"][0]["flagged"] == "A"
    assert d["alerts"][0]["informed"] == ["S", "A", "C", "D", "E", "F"]


# ---------------------------------------------------------------------------
# properties

@settings(max_examples=40, deadline=None)
@given(
    delays=st.dictionaries(
        st.sampled_from([A, B, C, D, E]),
        st.floats(min_value=0.001, max_value=30).map(lambda x: round(x, 3)),
        min_size=1,
        max_size=3,
    )
)
def test_detectors_never_accuse_honest_nodes_in_demo(delays):
    s = make_demo(delays)
    g = build(s.windows, s.t_tr)
    trace = simulate(s, g)
    if not trace.delivered:
        return
    attackers = s.attack.attackers()
    greport = detect_global(g, trace)
    assert set(greport.flagged) <= attackers
    scan = run_local_pipeline(s, g, trace)
    assert set(scan.merged_flagged()) <= attackers
    # every locally flagged node violated both timing conditions at its accuser
    for r in scan.reports:
        for c in r.evidence:
            if c.kind == "predecessor" and c.flagged:
                assert c.delta != SEC
                assert c.immediate is False


# ---------------------------------------------------------------------------
# metamorphic properties

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(PRESETS)), st.integers(0, 11))
def test_verdicts_do_not_move_when_every_time_shifts(preset, seed):
    """Shifting every window and the creation time by 37.123456 s shifts
    every reception and send instant by exactly that much, and changes no
    route, recorded window, global or local flag, fp or sp: on the attacked
    and the benign replay of generated scenarios, each on a fresh graph."""
    s = generate(preset_params(preset, seed))
    moved = dataclasses.replace(
        s, windows=tuple(dataclasses.replace(w, start=w.start + SHIFT, end=w.end + SHIFT)
                         for w in s.windows),
        creation_time=s.creation_time + SHIFT)
    for pair in ((s, moved), (s.without_attack(), moved.without_attack())):
        outcomes = []
        for scenario in pair:
            g = build(scenario.windows, scenario.t_tr)
            trace = simulate(scenario, g)
            outcomes.append((trace, detect_global(g, trace), run_local_pipeline(scenario, g, trace)))
        (trace, report, scan), (shifted, shifted_report, shifted_scan) = outcomes
        assert [(h.node, h.window) for h in shifted.hops] == [(h.node, h.window) for h in trace.hops]
        assert [(h.reception_time, h.send_time_of_prev) for h in shifted.hops] == [
            (h.reception_time + SHIFT, None if h.send_time_of_prev is None
             else h.send_time_of_prev + SHIFT) for h in trace.hops]
        assert shifted.delivered == trace.delivered
        assert (shifted_report.flagged, shifted_report.fp_weight, shifted_report.sp_weight) == (
            report.flagged, report.fp_weight, report.sp_weight)
        assert [r.flagged for r in shifted_scan.reports] == [r.flagged for r in scan.reports]

"""Store-carry-forward replay: benign forwarding, delays, misses, round trips."""

from __future__ import annotations

import dataclasses
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    A, B, C, D, E, F, S, make_demo, oracle_benign_next_hop, random_small_twig, wid_of_label,
)
from tdasim import (
    HopRecord,
    Node,
    PacketTrace,
    Scenario,
    ScenarioError,
    TimeWindow,
    benign_next_hop,
    build,
    embed_trace,
    load_trace,
    shortest_path,
    simulate,
    to_seconds,
    to_us,
    trace_from_dict,
    trace_to_dict,
    window_misses,
)
from tdasim.simulator import _plan

SEC = to_us(1)


def times(trace):
    return [(h.node, to_seconds(h.reception_time)) for h in trace.hops]


def test_benign_replay(demo, demo_graph):
    trace = simulate(demo, demo_graph)
    assert trace.delivered
    assert times(trace) == [(S, 0.0), (A, 6.0), (B, 26.0), (C, 27.0), (F, 91.0)]
    assert trace.path == (S, A, B, C, F)
    assert trace.hop_count == 4
    assert to_seconds(trace.physical_arrival) == 91.0
    sends = [to_seconds(h.send_time_of_prev) for h in trace.hops[1:]]
    assert sends == [5.0, 25.0, 26.0, 90.0]


def test_two_attackers_reroute_the_message(demo_graph):
    trace = simulate(make_demo({A: 5, C: 6}), demo_graph)
    assert trace.delivered
    assert times(trace) == [
        (S, 0.0), (A, 6.0), (B, 31.0), (D, 36.0), (C, 61.0), (E, 117.0), (F, 151.0),
    ]
    # A still fits its delayed send inside the same encounter; C misses tw7
    # entirely and falls back to its next encounter, which is with E
    sends = [to_seconds(h.send_time_of_prev) for h in trace.hops[1:]]
    assert sends == [5.0, 30.0, 35.0, 60.0, 116.0, 150.0]


def test_single_attacker_changes_route_midway(demo_graph):
    trace = simulate(make_demo({A: 5}), demo_graph)
    assert trace.delivered
    assert trace.path == (S, A, B, D, C, F)
    assert times(trace)[-1] == (F, 91.0)


def test_zero_delay_is_benign(demo, demo_graph):
    assert simulate(make_demo({A: 0}), demo_graph) == simulate(demo, demo_graph)


def test_reception_is_send_plus_transmission(demo_graph):
    for delays in ({}, {A: 5}, {A: 5, C: 6}, {B: 3}):
        trace = simulate(make_demo(delays), demo_graph)
        for h in trace.hops[1:]:
            assert h.reception_time == h.send_time_of_prev + SEC


def test_sends_stay_inside_their_windows(demo_graph):
    g = demo_graph
    for delays in ({}, {A: 5}, {A: 5, C: 6}, {C: 2}):
        trace = simulate(make_demo(delays), g)
        for h in trace.hops[1:]:
            piece = g.window(h.window)
            orig = g.original_of(h.window)
            assert piece.start <= h.send_time_of_prev <= piece.end
            assert h.send_time_of_prev + SEC <= orig.end


def test_benign_replay_is_optimal(demo, demo_graph):
    g = demo_graph
    trace = simulate(demo, g)
    fp = embed_trace(g, trace)
    sp = shortest_path(g, fp.vertices[0], F, now=trace.hops[0].reception_time)
    assert fp.total_weight == sp.total_weight
    assert fp.vertices == sp.vertices


def test_oversized_delay_drops_the_message(demo_graph):
    trace = simulate(make_demo({C: 1000}), demo_graph)
    assert not trace.delivered
    assert trace.physical_arrival is None
    assert trace.path == (S, A, B, C)


def test_unreachable_after_late_creation(demo):
    # creation after every S window has closed: no first hop exists
    late = dataclasses.replace(demo, creation_time=20 * SEC)
    trace = simulate(late)
    assert not trace.delivered
    assert trace.path == (S,)


def test_benign_next_hop_prefers_early_route(demo, demo_graph):
    g = demo_graph
    # fresh arrival at B at t=26: tw4 to C and waiting for tw5 to D tie on
    # total weight; the C route wins on hop count
    assert benign_next_hop(demo, g, B, 26 * SEC) == (C, 4)
    # at t=31 tw4 cannot carry a full transmission any more
    assert benign_next_hop(demo, g, B, 31 * SEC) == (D, wid_of_label(g, "5.1"))


def test_benign_next_hop_source_respects_creation(demo, demo_graph):
    assert benign_next_hop(demo, demo_graph, S, 0) == (A, 1)
    late = dataclasses.replace(demo, creation_time=9 * SEC)
    # tw1 opened before creation, so the source must wait for tw2
    assert benign_next_hop(late, demo_graph, S, 9 * SEC) == (A, 2)


def test_plan_from_receive_window_matches_simulator(demo, demo_graph):
    g = demo_graph
    trace = simulate(demo, g)
    for prev, nxt in zip(trace.hops, trace.hops[1:]):
        if prev.window is None:
            continue
        neighbor, wid, _ = _plan(demo, g, prev.node, prev.reception_time, prev.window)
        assert (neighbor, wid) == (nxt.node, nxt.window)


def test_benign_next_hop_dead_end(demo, demo_graph):
    assert benign_next_hop(demo, demo_graph, S, 1000 * SEC) is None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000))
def test_benign_next_hop_matches_fan_out_oracle(seed):
    rng = random.Random(seed)
    g = random_small_twig(rng)
    n_nodes = max(max(w.a, w.b) for w in g.originals) + 1
    source, destination = rng.sample(range(n_nodes), 2)
    s = Scenario(
        nodes=tuple(Node(i) for i in range(n_nodes)),
        windows=g.originals,
        t_tr=g.t_tr,
        source=source,
        destination=destination,
        creation_time=to_us(rng.randint(0, 60)),
    )
    holder = source if rng.random() < 0.5 else rng.randrange(n_nodes)
    now = to_us(rng.randint(0, 90))
    assert benign_next_hop(s, g, holder, now) == oracle_benign_next_hop(s, g, holder, now)


def test_window_misses(demo, demo_graph):
    g = demo_graph
    benign = simulate(demo, g)
    assert window_misses(demo, g, benign) == {S: False, A: False, B: False, C: False}
    two = make_demo({A: 5, C: 6})
    attacked = simulate(two, g)
    assert window_misses(two, g, attacked) == {
        S: False, A: False, B: False, D: False, C: True, E: False,
    }
    # S plans to send over window 1 at 5 s; a send at 4 s is before that window opens
    early = PacketTrace(S, F, (HopRecord(S, 0), HopRecord(A, 5 * SEC, 1)), False)
    assert window_misses(demo, g, early) == {S: True}


def test_window_misses_skips_a_pass_through_the_destination():
    """A trace may pass the destination before it ends there; a holder at the
    destination plans no hop, so it gets no entry."""
    s = Scenario(nodes=tuple(Node(n) for n in range(3)),
                 windows=(TimeWindow(1, 0, 1, 0, 10 * SEC), TimeWindow(2, 1, 2, 0, 20 * SEC)),
                 t_tr=SEC, source=0, destination=1)
    trace = PacketTrace(0, 1, (HopRecord(0, 0), HopRecord(1, 2 * SEC, 1), HopRecord(2, 4 * SEC, 2),
                               HopRecord(1, 6 * SEC, 2)), True, 6 * SEC)
    assert window_misses(s, s.graph, trace) == {0: False, 2: False}


def test_trace_round_trip(demo_graph):
    for delays in ({}, {A: 5, C: 6}, {C: 1000}):
        trace = simulate(make_demo(delays), demo_graph)
        assert trace_from_dict(trace_to_dict(trace)) == trace


def test_trace_json_is_loadable(tmp_path, demo, demo_graph):
    trace = simulate(demo, demo_graph)
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace_to_dict(trace)))
    assert load_trace(path) == trace


@pytest.mark.parametrize(
    "content",
    [None, b"{not json", b"\xff\xfe{}", b"[" * 100_000,
     b'{"source": ' + b"1" * 5000 + b"}"],
    ids=["missing", "syntax", "not-utf8", "deep-nesting", "long-integer"],
)
def test_load_trace_rejects_unreadable_files(content, tmp_path):
    path = tmp_path / "trace.json"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ScenarioError, match="trace file"):
        load_trace(path)


def test_trace_from_dict_rejects_unknown_keys(demo, demo_graph):
    data = trace_to_dict(simulate(demo, demo_graph))
    with pytest.raises(ScenarioError, match="bogus"):
        trace_from_dict(dict(data, bogus=1))
    bad = json.loads(json.dumps(data))
    bad["hops"][0]["rssi"] = 1
    with pytest.raises(ScenarioError, match="rssi"):
        trace_from_dict(bad)
    with pytest.raises(ScenarioError, match="missing"):
        trace_from_dict({k: v for k, v in data.items() if k != "source"})


def _trace_doc(edit):
    data = trace_to_dict(simulate(make_demo()))
    edit(data)
    return data


@pytest.mark.parametrize(
    "data",
    [
        _trace_doc(lambda d: d.update(hops=5)),
        _trace_doc(lambda d: d.update(hops=[5])),
        _trace_doc(lambda d: d["hops"][0].update(node=[1])),
        _trace_doc(lambda d: d["hops"][1].update(t=float("inf"))),
        _trace_doc(lambda d: d["hops"][1].update(window="x")),
        _trace_doc(lambda d: d.update(delivered="no")),
        [],
        _trace_doc(lambda d: d["hops"][1].update(window=2.7)),
        _trace_doc(lambda d: d["hops"][0].update(node="0")),
        _trace_doc(lambda d: d["hops"][1].update(node=True)),
        _trace_doc(lambda d: d.update(source=False)),
        _trace_doc(lambda d: d.update(destination=6.0)),
        _trace_doc(lambda d: d.update(delivered=list(range(3000)))),
        _trace_doc(lambda d: d["hops"][0].update({f"extra{i}": i for i in range(3000)})),
        _trace_doc(lambda d: d["hops"][1].update(t=True)),
        _trace_doc(lambda d: d["hops"][1].update(t="6")),
        _trace_doc(lambda d: d["hops"][1].update(sent_at=False)),
        _trace_doc(lambda d: d.update(physical_arrival=str(d["physical_arrival"]))),
    ],
    ids=["hops-not-list", "hop-not-object", "node-not-int", "inf-time", "window-not-int",
         "delivered-not-bool", "not-object", "window-float", "node-string", "node-bool",
         "source-bool", "destination-float", "delivered-long-list", "many-unknown-keys",
         "time-bool", "time-string", "sent-at-bool", "physical-arrival-string"],
)
def test_trace_from_dict_rejects_malformed_values(data):
    with pytest.raises(ScenarioError) as err:
        trace_from_dict(data)
    assert len(str(err.value)) < 200  # the bad value is quoted, but cut short
    # the prefix marks a broken trace invariant, not a malformed value
    assert not str(err.value).startswith("invalid trace:")


def test_trace_validation():
    with pytest.raises(ValueError, match="start at the source"):
        PacketTrace(S, F, (HopRecord(A, 0),), False)
    with pytest.raises(ValueError, match="strictly increase"):
        PacketTrace(S, F, (HopRecord(S, 5), HopRecord(A, 5)), False)
    with pytest.raises(ValueError, match="end at the destination"):
        PacketTrace(S, F, (HopRecord(S, 0), HopRecord(A, SEC)), True, SEC)
    with pytest.raises(ValueError, match="physical_arrival"):
        PacketTrace(S, A, (HopRecord(S, 0), HopRecord(A, SEC)), True, 2 * SEC)


@settings(max_examples=40, deadline=None)
@given(
    delays=st.dictionaries(
        st.sampled_from([A, B, C, D, E]),
        st.floats(min_value=0, max_value=30).map(lambda x: round(x, 3)),
        max_size=3,
    )
)
def test_simulation_invariants_under_arbitrary_delays(delays):
    s = make_demo(delays)
    g = build(s.windows, s.t_tr)
    trace = simulate(s, g)
    assert trace.hops[0].node == S
    seen_times = [h.reception_time for h in trace.hops]
    assert all(b > a for a, b in zip(seen_times, seen_times[1:]))
    for h in trace.hops[1:]:
        assert h.reception_time == h.send_time_of_prev + SEC
        piece = g.window(h.window)
        assert piece.start <= h.send_time_of_prev <= piece.end
        assert h.send_time_of_prev + SEC <= g.original_of(h.window).end
    if trace.delivered:
        assert trace.hops[-1].node == F
        # the trace replays identically
        assert simulate(s, g) == trace

"""Window splitting, edge construction, shortest paths, and trace embedding."""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    A,
    B,
    C,
    F,
    S,
    demo_windows,
    label_path,
    make_demo,
    oracle_arcs,
    oracle_edges,
    oracle_embed_trace,
    oracle_graph_dict,
    oracle_run_edges,
    oracle_shortest,
    oracle_split,
    random_small_twig,
    staircase,
    vertex,
    wid_of_label,
)
from tdasim import (
    PRESETS,
    AttackConfig,
    HopRecord,
    InconsistentTrace,
    Node,
    PacketTrace,
    Scenario,
    TimeWindow,
    Twig,
    TwigVertex,
    build,
    detect_global,
    embed_trace,
    generate,
    graph_to_dict,
    preset_params,
    run_local_pipeline,
    shortest_path,
    simulate,
    to_dot,
    to_us,
    window_misses,
)
from tdasim import twig
from tdasim.cli import _emit
from tdasim.scenario import dumps, to_seconds
from tdasim.twig import _dot_lines, _graph_json, _split, _window_labels

SEC = to_us(1)


def spans(g, orig_wid):
    return [
        (g.window_label(w.wid), w.start // SEC, w.end // SEC)
        for w in sorted(g.split_windows, key=lambda w: (w.start, w.end, w.wid))
        if g.original_of(w.wid).wid == orig_wid
    ]


# ---------------------------------------------------------------------------
# splitting

def test_partial_overlaps_are_split(demo_graph):
    g = demo_graph
    assert spans(g, 3) == [("3.1", 25, 35), ("3.2", 35, 40)]
    assert spans(g, 5) == [("5.1", 35, 40), ("5.2", 40, 50)]
    # untouched windows keep their ids and plain labels
    for wid in (1, 2, 4, 6, 7, 8, 9):
        assert spans(g, wid) == [(str(wid), *[t // SEC for t in (g.window(wid).start, g.window(wid).end)])]
        assert g.window(wid).wid == wid


def test_split_pieces_get_fresh_ids(demo_graph):
    g = demo_graph
    fresh = sorted(w.wid for w in g.split_windows if w.wid > 9)
    assert fresh == [10, 11, 12, 13]
    assert wid_of_label(g, "3.1") == 10
    assert wid_of_label(g, "3.2") == 11
    assert wid_of_label(g, "5.1") == 12
    assert wid_of_label(g, "5.2") == 13


def test_pieces_partition_their_original(demo_graph):
    g = demo_graph
    for orig in g.originals:
        parts = sorted(
            (w for w in g.split_windows if g.original_of(w.wid).wid == orig.wid),
            key=lambda w: w.start,
        )
        assert parts[0].start == orig.start
        assert parts[-1].end == orig.end
        for p, q in zip(parts, parts[1:]):
            assert p.end == q.start


def test_no_partial_overlap_remains(demo_graph):
    ws = demo_graph.split_windows
    for i, p in enumerate(ws):
        for q in ws[i + 1 :]:
            assert not (p.start < q.start < p.end < q.end)
            assert not (q.start < p.start < q.end < p.end)


def test_nested_windows_stay_whole():
    # full containment is not a partial overlap: nothing splits
    windows = (
        TimeWindow(1, 0, 1, 0, 100 * SEC),
        TimeWindow(2, 1, 2, 20 * SEC, 40 * SEC),
    )
    g = build(windows, SEC)
    assert len(g.split_windows) == 2
    assert {g.window_label(w.wid) for w in g.split_windows} == {"1", "2"}


def test_chained_splits_reach_fixpoint():
    # three windows of one node in a staircase: the middle one splits against
    # both neighbors, and the pieces of the first cut must be cut again until
    # no partial overlap is left
    windows = (
        TimeWindow(1, 0, 1, 0, 10 * SEC),
        TimeWindow(2, 1, 2, 5 * SEC, 15 * SEC),
        TimeWindow(3, 1, 3, 12 * SEC, 20 * SEC),
    )
    g = build(windows, SEC)
    for i, p in enumerate(g.split_windows):
        for q in g.split_windows[i + 1 :]:
            assert not (p.start < q.start < p.end < q.end)
            assert not (q.start < p.start < q.end < p.end)
    for orig in windows:
        parts = [w for w in g.split_windows if g.original_of(w.wid).wid == orig.wid]
        assert min(w.start for w in parts) == orig.start
        assert max(w.end for w in parts) == orig.end


def assert_split_matches_oracle(windows) -> None:
    pieces, provenance = _split(windows)
    want_pieces, want_provenance = oracle_split(windows)
    assert pieces == want_pieces
    assert list(provenance.items()) == list(want_provenance.items())


def test_split_cuts_the_earliest_pair_first():
    # cutting ([0,10], [7,12]) first would leave window 2 as [5,7] and [7,20];
    # the earliest pair in (start, end, wid) order is ([0,10], [5,20])
    windows = (
        TimeWindow(1, 0, 1, 0, 10 * SEC),
        TimeWindow(2, 1, 2, 5 * SEC, 20 * SEC),
        TimeWindow(3, 2, 3, 7 * SEC, 12 * SEC),
    )
    assert_split_matches_oracle(windows)
    pieces, provenance = _split(windows)
    assert [(w.start // SEC, w.end // SEC) for w in pieces if provenance[w.wid] == 2] == [
        (5, 10), (10, 20)]


@st.composite
def grid_windows(draw):
    """1-12 windows among 5 nodes on a 1, 2 or 5 s grid, with random ids, in
    random order: touching, nested and identical spans are common."""
    unit = draw(st.sampled_from([1, 2, 5])) * SEC
    n = draw(st.integers(1, 12))
    wids = draw(st.lists(st.integers(1, 10_000), min_size=n, max_size=n, unique=True))
    windows = []
    for wid in wids:
        a = draw(st.integers(0, 3))
        b = draw(st.integers(a + 1, 4))
        lo = draw(st.integers(0, 8))
        windows.append(TimeWindow(wid, a, b, lo * unit, (lo + draw(st.integers(1, 6))) * unit))
    return draw(st.permutations(windows))


@settings(max_examples=300, deadline=None)
@given(grid_windows())
def test_split_matches_rescan_oracle(windows):
    assert_split_matches_oracle(windows)


def test_build_rejects_bad_input():
    w = TimeWindow(1, 0, 1, 0, 2 * SEC)
    with pytest.raises(ValueError, match="t_tr"):
        build((w,), 0)
    with pytest.raises(ValueError, match="unique"):
        build((w, TimeWindow(1, 1, 2, 0, SEC)), SEC)


# ---------------------------------------------------------------------------
# vertices and edges

def test_demo_graph_shape(demo_graph):
    g = demo_graph
    assert len(g.split_windows) == 11
    assert len(g.vertices) == 22
    edges = graph_to_dict(g)["edges"]
    assert len(edges) == 39
    counts = Counter(e["origin"] for e in edges)
    assert counts["within_window"] == 11
    assert counts["succession"] == 26
    assert counts["containment"] == 2


def test_spot_checked_edge_weights(demo_graph):
    g = demo_graph
    assert g.arc_weight(vertex(g, "A", "1"), vertex(g, "A", "3.1")) == 20 * SEC
    assert g.arc_weight(vertex(g, "C", "4"), vertex(g, "C", "7")) == 65 * SEC
    assert g.arc_weight(vertex(g, "B", "3.2"), vertex(g, "B", "5.1")) == 0
    assert g.arc_weight(vertex(g, "B", "5.1"), vertex(g, "B", "3.2")) == 0
    assert g.arc_weight(vertex(g, "D", "5.1"), vertex(g, "D", "6")) == 25 * SEC
    assert g.arc_weight(vertex(g, "C", "6"), vertex(g, "C", "8")) == 50 * SEC
    assert g.arc_weight(vertex(g, "S", "1"), vertex(g, "S", "2")) == 7 * SEC
    # succession is one-way
    assert g.arc_weight(vertex(g, "A", "3.1"), vertex(g, "A", "1")) is None


def test_edge_kinds(demo_graph):
    g = demo_graph
    for e in graph_to_dict(g)["edges"]:
        (u_node, u_wid), (v_node, v_wid) = e["u"], e["v"]
        if e["origin"] == "succession":
            assert e["kind"] == "directed"
        else:
            assert e["kind"] == "undirected"
        if e["origin"] == "within_window":
            assert u_node != v_node
            assert u_wid == v_wid
            assert to_us(e["weight"]) == g.t_tr
        else:
            assert u_node == v_node
            assert e["weight"] >= 0


def test_containment_runs_both_ways(demo_graph):
    g = demo_graph
    both = {
        (g.window_label(e["u"][1]), g.window_label(e["v"][1]))
        for e in graph_to_dict(g)["edges"] if e["origin"] == "containment"
    }
    assert both == {("3.1", "4"), ("3.2", "5.1")}
    for u_lbl, v_lbl in both:
        u = vertex(g, "B", u_lbl)
        v = vertex(g, "B", v_lbl)
        assert g.arc_weight(u, v) == g.arc_weight(v, u)


def test_usability_window(demo_graph):
    g = demo_graph
    tw4 = 4
    assert g.usable(tw4, 26 * SEC)
    assert g.usable(tw4, 28 * SEC)
    assert not g.usable(tw4, 29 * SEC)  # a send started now would end at 30
    piece_31 = wid_of_label(g, "3.1")
    assert g.usable(piece_31, 34 * SEC)
    assert not g.usable(piece_31, 36 * SEC)  # the piece itself has passed
    piece_32 = wid_of_label(g, "3.2")
    assert g.usable(piece_32, 39 * SEC)
    assert not g.usable(piece_32, 40 * SEC)


def test_send_window_picks_latest_piece(demo_graph):
    g = demo_graph
    # t=35 is the seam between pieces 3.1 and 3.2: the later piece wins
    w = g.send_window(A, B, 35 * SEC)
    assert g.window_label(w.wid) == "3.2"
    assert g.send_window(A, B, 30 * SEC).wid == wid_of_label(g, "3.1")
    assert g.send_window(A, B, 41 * SEC) is None
    assert g.send_window(S, F, 10 * SEC) is None


# ---------------------------------------------------------------------------
# shortest paths

def test_shortest_path_golden(demo_graph):
    g = demo_graph
    sp = shortest_path(g, TwigVertex(S, 1), F)
    assert label_path(g, sp.vertices) == [
        "S^1", "A^1", "A^3.1", "B^3.1", "B^4", "C^4", "C^7", "F^7",
    ]
    assert sp.total_weight == 89 * SEC
    assert sp.weights == (SEC, 20 * SEC, SEC, 0, SEC, 65 * SEC, SEC)
    assert sp.hops == 7


def test_shortest_path_identity(demo_graph):
    sp = shortest_path(demo_graph, TwigVertex(S, 1), S)
    assert sp.vertices == (TwigVertex(S, 1),)
    assert sp.total_weight == 0
    assert sp.weights == ()


def test_shortest_path_restriction_changes_route(demo_graph):
    g = demo_graph
    start = vertex(g, "B", "3.1")
    free = shortest_path(g, start, C)
    assert free.total_weight == SEC  # slide into the contained tw4 free, then cross
    assert label_path(g, free.vertices) == ["B^3.1", "B^4", "C^4"]
    held = shortest_path(g, start, C, now=31 * SEC)
    assert held.total_weight == 37 * SEC  # tw4 closed: wait for tw5 and go via D
    # equal-weight route through B^3.2 exists; fewer hops wins the tie
    assert label_path(g, held.vertices) == [
        "B^3.1", "B^5.1", "D^5.1", "D^6", "C^6",
    ]


def test_shortest_path_unreachable(demo_graph):
    g = demo_graph
    assert shortest_path(g, vertex(g, "F", "9"), S) is None
    # every within-window crossing is unusable once all windows have passed
    assert shortest_path(g, TwigVertex(S, 1), F, now=1000 * SEC) is None


def test_arc_weight_of_a_missing_vertex_is_none(demo_graph):
    g = demo_graph
    inside = TwigVertex(S, 1)
    assert g.arc_weight(inside, TwigVertex(A, 1)) == g.t_tr
    for outside in (TwigVertex(C, 1), TwigVertex(S, 999)):  # C is not on window 1
        assert g.arc_weight(inside, outside) is None
        assert g.arc_weight(outside, inside) is None


def test_vertex_is_its_key():
    g = build(demo_windows(), SEC)
    for v in g.vertices:
        assert v == v.key and hash(v) == hash(v.key)
    assert [v.key for v in sorted(g.vertices)] == sorted(v.key for v in g.vertices)
    assert list(g.vertices) == sorted(g.vertices)
    sp = shortest_path(g, (S, 1), F)
    assert sp == shortest_path(g, TwigVertex(S, 1), F)
    assert sp.vertices[0] == (S, 1) and sp.vertices[-1].node == F
    assert all(any(v is u for u in g.vertices) for v in sp.vertices)


def test_shortest_path_unknown_vertex(demo_graph):
    with pytest.raises(ValueError, match="not in the graph"):
        shortest_path(demo_graph, TwigVertex(S, 99), F)


def test_shortest_path_matches_oracle_on_demo(demo_graph):
    g = demo_graph
    rng = random.Random(7)
    verts = sorted(g.vertices)
    for _ in range(40):
        start = rng.choice(verts)
        target = rng.randrange(7)
        now = None if rng.random() < 0.5 else to_us(rng.randint(0, 170))
        got = shortest_path(g, start, target, now=now)
        want = oracle_shortest(g, start, target, now=now)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert (got.total_weight, got.hops, tuple(v.key for v in got.vertices)) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_shortest_path_matches_oracle_on_random_graphs(seed):
    rng = random.Random(seed)
    g = random_small_twig(rng)
    verts = sorted(g.vertices)
    start = rng.choice(verts)
    target = rng.randrange(max(v.node for v in verts) + 1)
    now = None if rng.random() < 0.5 else to_us(rng.randint(0, 90))
    got = shortest_path(g, start, target, now=now)
    want = oracle_shortest(g, start, target, now=now)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.total_weight, got.hops, tuple(v.key for v in got.vertices)) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_shortest_path_weights_are_the_graphs_arc_weights(seed):
    rng = random.Random(seed)
    g = random_small_twig(rng)
    verts = sorted(g.vertices)
    for now in (None, to_us(rng.randint(0, 90))):
        for start in verts:
            for target in {v.node for v in verts}:
                found = shortest_path(g, start, target, now=now)
                if found is None:
                    continue
                pairs = list(zip(found.vertices, found.vertices[1:]))
                assert list(found.weights) == [g.arc_weight(u, v) for u, v in pairs]
                assert sum(found.weights) == found.total_weight


def test_shortest_path_deterministic(demo_graph):
    g = demo_graph
    runs = {
        tuple(shortest_path(g, TwigVertex(S, 1), F).vertices) for _ in range(5)
    }
    assert len(runs) == 1


# ---------------------------------------------------------------------------
# embedding

def test_embed_benign_trace(demo_graph):
    g = demo_graph
    trace = simulate(make_demo(), g)
    fp = embed_trace(g, trace)
    assert label_path(g, fp.vertices) == [
        "S^1", "A^1", "A^3.1", "B^3.1", "B^4", "C^4", "C^7", "F^7",
    ]
    assert fp.total_weight == 89 * SEC
    sp = shortest_path(g, fp.vertices[0], F, now=trace.hops[0].reception_time)
    assert fp.total_weight == sp.total_weight


def test_embed_attacked_trace(demo_graph):
    g = demo_graph
    trace = simulate(make_demo({A: 5, C: 6}), g)
    fp = embed_trace(g, trace)
    assert label_path(g, fp.vertices) == [
        "S^1", "A^1", "A^3.1", "B^3.1", "B^3.2", "B^5.1", "D^5.1",
        "D^6", "C^6", "C^8", "E^8", "E^9", "F^9",
    ]
    assert fp.total_weight == 151 * SEC
    assert fp.weights == (
        SEC, 20 * SEC, SEC, 10 * SEC, 0, SEC, 25 * SEC,
        SEC, 50 * SEC, SEC, 40 * SEC, SEC,
    )


def test_embed_weight_decomposition(demo_graph):
    g = demo_graph
    for delays in ({}, {A: 5}, {A: 5, C: 6}):
        trace = simulate(make_demo(delays), g)
        fp = embed_trace(g, trace)
        assert sum(fp.weights) == fp.total_weight
        assert all(w >= 0 for w in fp.weights)
        # crossings contribute t_tr each; same-node runs telescope, so each
        # relay's chain collapses to its send-window start minus its
        # receive-window start regardless of how many vertices sit between
        chains = 0
        run_start = g.window(fp.vertices[0].wid).start
        for u, v in zip(fp.vertices, fp.vertices[1:]):
            if u.node != v.node:
                chains += g.window(u.wid).start - run_start
                run_start = g.window(v.wid).start
        assert fp.total_weight == trace.hop_count * g.t_tr + chains
        # a followed path can never undercut the optimum available at launch
        sp = shortest_path(g, fp.vertices[0], trace.destination,
                           now=trace.hops[0].reception_time)
        assert sp is not None and fp.total_weight >= sp.total_weight


def test_embed_single_hop(demo_graph):
    g = demo_graph
    trace = PacketTrace(S, A, (HopRecord(S, 0), HopRecord(A, 6 * SEC, 1, 5 * SEC)),
                        True, 6 * SEC)
    fp = embed_trace(g, trace)
    assert label_path(g, fp.vertices) == ["S^1", "A^1"]
    assert fp.total_weight == SEC


def test_embed_requires_two_hops(demo_graph):
    with pytest.raises(InconsistentTrace, match="no transmissions"):
        embed_trace(demo_graph, PacketTrace(S, F, (HopRecord(S, 0),), False))


def test_embed_rejects_impossible_send(demo_graph):
    g = demo_graph
    trace = PacketTrace(S, F, (HopRecord(S, 0), HopRecord(A, 20 * SEC)), False)
    with pytest.raises(InconsistentTrace, match="no encounter"):
        embed_trace(g, trace)


def test_embed_rejects_mismatched_window(demo_graph):
    g = demo_graph
    trace = PacketTrace(
        S, F, (HopRecord(S, 0), HopRecord(A, 6 * SEC, window=2, send_time_of_prev=5 * SEC)),
        False,
    )
    with pytest.raises(InconsistentTrace, match="recorded window"):
        embed_trace(g, trace)


def test_embed_rejects_a_contradictory_send_instant(demo_graph):
    """A recorded sent_at must be the reception time minus t_tr; an absent
    one is not checked."""
    g = demo_graph

    def trace(sent_at):
        hops = (HopRecord(S, 0), HopRecord(A, 6 * SEC, window=1, send_time_of_prev=sent_at))
        return PacketTrace(S, A, hops, True, 6 * SEC)

    for sent_at in (None, 5 * SEC):
        assert embed_trace(g, trace(sent_at)).total_weight == SEC
    for sent_at in (4 * SEC, 5 * SEC + 1, 6 * SEC):
        with pytest.raises(InconsistentTrace, match="hop 1: recorded send instant"):
            embed_trace(g, trace(sent_at))
        with pytest.raises(InconsistentTrace, match="recorded send instant"):
            detect_global(g, trace(sent_at))


def test_embed_runs_down_a_nesting_chain():
    """The relay receives in its innermost window and sends in its outermost:
    its run walks out through the nested windows in descending start order,
    so the steps telescope to the gap between the two starts."""
    recv = TimeWindow(1, 0, 1, 10 * SEC, 30 * SEC)
    send = TimeWindow(2, 1, 2, 0, 40 * SEC)
    g = build((recv, send, TimeWindow(3, 1, 3, 3 * SEC, 35 * SEC),
               TimeWindow(4, 1, 4, 6 * SEC, 32 * SEC)), SEC)
    trace = PacketTrace(0, 2, (HopRecord(0, 0), HopRecord(1, 11 * SEC), HopRecord(2, 21 * SEC)),
                        True, 21 * SEC)
    fp = embed_trace(g, trace)
    assert [v.wid for v in fp.vertices] == [1, 1, 4, 3, 2, 2]
    assert fp.weights == (SEC, 4 * SEC, 3 * SEC, 3 * SEC, SEC)


@functools.cache
def generated_graph(preset: str, seed: int):
    s = generate(preset_params(preset, seed))
    return build(s.windows, s.t_tr)


def nested_windows(rng: random.Random) -> tuple[TimeWindow, ...]:
    """Windows of node 1, each holding the instant 50 s: a relay at 1 that
    receives over a late-starting one and sends over an earlier-starting one
    walks down the pieces nested between them."""
    return tuple(TimeWindow(wid, 1, rng.choice((0, 2, 3, 4)), (50 - rng.randint(1, 40)) * SEC,
                            (50 + rng.randint(1, 40)) * SEC)
                 for wid in range(1, rng.randint(3, 8) + 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["small", "grid", "generated", "nested"]))
def test_embedded_steps_are_graph_arcs(seed, source):
    """Replays with random relay delays, between random node pairs: the
    embedding equals the two-pass one it replaced, every step of the
    embedded path is an arc of the graph, of the step's weight, and each
    relay's same-node steps run monotone in start, so they add up to the
    gap between its receive and send windows' starts.  On the 5 s grid,
    touching windows and equal spans are common; around one instant, runs
    descend through nested pieces."""
    rng = random.Random(seed)
    if source == "small":
        g = random_small_twig(rng, max_vertices=30)
    elif source == "grid":
        g = build(coarse_windows(rng), SEC)
    elif source == "nested":
        g = build(nested_windows(rng), SEC)
    else:
        g = generated_graph(rng.choice(sorted(PRESETS)), rng.randint(0, 4))
    nodes = sorted({v.node for v in g.vertices})
    for _ in range(8):
        src, dst = rng.sample(nodes, 2)
        delays = {n: rng.choice((0, 0, 1, 3, 7, 12)) * SEC for n in nodes if n != dst}
        s = Scenario(tuple(map(Node, nodes)), g.originals, g.t_tr, src, dst,
                     attack=AttackConfig(delays))
        trace = simulate(s, g)
        if not trace.delivered:
            continue
        fp = embed_trace(g, trace)
        assert fp == oracle_embed_trace(g, trace)
        steps = list(zip(fp.vertices, fp.vertices[1:]))
        assert list(fp.weights) == [g.arc_weight(u, v) for u, v in steps]
        crossings = [i for i, (u, v) in enumerate(steps) if u.node != v.node]
        for i, j in zip(crossings, crossings[1:]):
            recv, send = g.window(fp.vertices[i + 1].wid), g.window(fp.vertices[j].wid)
            assert sum(fp.weights[i + 1:j]) == abs(send.start - recv.start)


# ---------------------------------------------------------------------------
# whole-graph properties

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000))
def test_random_graphs_are_sound(seed):
    g = random_small_twig(random.Random(seed), max_vertices=30)
    ws = g.split_windows
    for i, p in enumerate(ws):
        for q in ws[i + 1 :]:
            assert not (p.start < q.start < p.end < q.end)
            assert not (q.start < p.start < q.end < p.end)
    for orig in g.originals:
        parts = sorted(
            (w for w in ws if g.original_of(w.wid).wid == orig.wid),
            key=lambda w: w.start,
        )
        assert parts[0].start == orig.start and parts[-1].end == orig.end
        assert all(p.end == q.start for p, q in zip(parts, parts[1:]))
    for e in graph_to_dict(g)["edges"]:
        u, v = g.window(e["u"][1]), g.window(e["v"][1])
        assert e["weight"] >= 0
        if e["origin"] == "succession":
            assert u.end <= v.start
        elif e["origin"] == "containment":
            assert u.start <= v.start and v.end <= u.end


def assert_arcs_match_oracle(g):
    want_edges = oracle_edges(g.split_windows, g.t_tr)
    assert graph_to_dict(g)["edges"] == want_edges
    _, weight = oracle_arcs(want_edges)
    for u in g.vertices:
        for v in g.vertices:
            assert g.arc_weight(u, v) == weight.get((u.key, v.key))


def coarse_windows(rng: random.Random) -> tuple[TimeWindow, ...]:
    """Windows on a 5 s grid, so equal spans and touching windows are common."""
    windows = []
    for wid in range(1, rng.randint(2, 6) + 1):
        a, b = rng.sample(range(3), 2)
        start = 5 * rng.randint(0, 4)
        end = start + 5 * rng.randint(1, 3)
        windows.append(TimeWindow(wid, a, b, start * SEC, end * SEC))
    return tuple(windows)


def test_derived_arcs_match_oracle_on_fixed_graphs(demo_graph):
    assert_arcs_match_oracle(demo_graph)
    equal_and_touching = (
        TimeWindow(1, 0, 1, 0, 10 * SEC),
        TimeWindow(2, 0, 2, 0, 10 * SEC),  # same span as window 1 on node 0
        TimeWindow(3, 1, 2, 0, 10 * SEC),  # same span, other pair
        TimeWindow(4, 0, 1, 10 * SEC, 20 * SEC),  # starts where 1 and 2 end
        TimeWindow(5, 0, 2, 0, 20 * SEC),  # same start, longer
    )
    g = build(equal_and_touching, SEC)
    assert_arcs_match_oracle(g)
    # touching windows are joined by succession, one way only
    v1, v4 = TwigVertex(0, 1), TwigVertex(0, 4)
    assert g.arc_weight(v1, v4) == 10 * SEC
    assert g.arc_weight(v4, v1) is None
    # splitting leaves node 0 two pieces with the identical span [5, 10]
    g = build((TimeWindow(1, 0, 1, 0, 10 * SEC), TimeWindow(2, 0, 2, 5 * SEC, 15 * SEC)), SEC)
    node0 = sorted((w.start, w.end) for w in g.windows_of_node(0))
    assert node0.count((5 * SEC, 10 * SEC)) == 2
    assert_arcs_match_oracle(g)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2), st.integers(0, 4),
                          st.integers(1, 3)), min_size=2, max_size=8))
def test_same_node_runs_match_oracle(spans):
    """Many windows among few nodes on a 5 s grid: every vertex's arcs, read from
    its node's run, against the explicit wiring, where touching windows, equal
    spans and identical-span split pieces are the common case."""
    windows = tuple(
        TimeWindow(wid, a, a + d, 5 * lo * SEC, 5 * (lo + n) * SEC)
        for wid, (a, d, lo, n) in enumerate(spans, start=1)
    )
    assert_arcs_match_oracle(build(windows, SEC))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000), st.booleans())
def test_derived_arcs_match_oracle_on_random_graphs(seed, coarse):
    rng = random.Random(seed)
    if coarse:
        g = build(coarse_windows(rng), SEC)
    else:
        g = random_small_twig(rng, max_vertices=30)
    assert_arcs_match_oracle(g)


def test_build_memory_is_linear():
    """The graph keeps O(pieces) state: doubling a staircase of overlapping
    windows about doubles what build retains (stored arcs would quadruple it)."""

    def retained(k: int) -> int:
        windows = staircase(k)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            g = build(windows, SEC)
            assert g.vertices
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()

    assert retained(60) < 2.5 * retained(30)


def test_build_time_on_a_large_staircase():
    """240 staircase windows split into 3240 pieces: a split whose time grows
    with the pieces, not with cuts times records, builds them well inside 3 s."""
    t0 = time.perf_counter()
    g = build(staircase(240), SEC)
    elapsed = time.perf_counter() - t0
    assert len(g.split_windows) == 3240
    assert elapsed < 3.0, f"build took {elapsed:.2f} s"


def test_split_spans_independent_of_input_order():
    windows = demo_windows()
    g1 = build(windows, SEC)
    g2 = build(tuple(reversed(windows)), SEC)
    key = lambda g: sorted(
        (g.original_of(w.wid).wid, g.window_label(w.wid), w.start, w.end)
        for w in g.split_windows
    )
    assert key(g1) == key(g2)


def test_graph_rejects_partially_overlapping_pieces_of_one_node():
    """The search's index relies on a node's pieces being laminar, as build
    makes them; pieces given straight to the constructor that are not raise
    instead of yielding an arc the arc rule does not have.  Pieces of
    different nodes may overlap: no same-node arc joins them."""
    ws = (TimeWindow(1, 0, 1, 0, 8), TimeWindow(2, 0, 2, 1, 20), TimeWindow(3, 0, 3, 9, 12))
    with pytest.raises(ValueError, match="pieces 1 and 2 partially overlap"):
        Twig(split_windows=ws, provenance={1: 1, 2: 2, 3: 3}, originals=ws, t_tr=SEC)
    ws = (TimeWindow(1, 0, 1, 0, 8), TimeWindow(2, 2, 3, 1, 20))
    assert len(Twig(split_windows=ws, provenance={1: 1, 2: 2}, originals=ws,
                    t_tr=SEC).vertices) == 4


def test_build_is_deterministic():
    a = build(demo_windows(), SEC)
    b = build(demo_windows(), SEC)
    assert a.split_windows == b.split_windows
    assert graph_to_dict(a)["edges"] == graph_to_dict(b)["edges"]


# ---------------------------------------------------------------------------
# export

def test_graph_to_dict(demo_graph):
    d = graph_to_dict(demo_graph)
    assert to_us(d["t_tr"]) == SEC
    assert len(d["vertices"]) == 22
    assert len(d["edges"]) == 39
    assert "3.1" in {v["label"] for v in d["vertices"]}
    assert set(d["edges"][0]) == {"u", "v", "kind", "weight", "origin"}


def test_to_dot(demo_graph):
    dot = to_dot(demo_graph, lambda n: "SABCDEF"[n])
    assert dot.startswith("digraph")
    assert "dashed" in dot  # containment styling
    assert "S^1" in dot or "S" in dot


def test_to_dot_escapes_quotes_and_backslashes(demo_graph):
    dot = to_dot(demo_graph, lambda n: 'a"b\\' if n == S else "SABCDEF"[n])
    assert '  "a\\"b\\\\^1";' in dot
    assert '"a"b' not in dot
    # names without either character render as before
    plain = to_dot(demo_graph, lambda n: "SABCDEF"[n])
    assert '  "S^1";' in plain and "\\" not in plain


def test_demo_dump_bytes_are_pinned():
    """The demo's graph JSON and DOT, byte for byte, as the edge-object layer
    wrote them before the dumps read edges straight from the vertex index:
    the hand-built graph.json oracle and the streamed texts the command line
    writes are the same bytes."""
    s = make_demo()
    g = build(s.windows, s.t_tr)
    graph_json = ("df54acc1647cc1fa76590955ddd631ccd3326aa2ba3269ebec1b7196db74c44e", 9334)
    dot = ("6ecec2437a27c0b63ed4c7b0566d15c988dc52cd624bf40ccb7dd47e647aed20", 1648)
    for text, pinned in (
        (dumps(oracle_graph_dict(g)), graph_json),
        ("".join(_graph_json(g)), graph_json),
        (to_dot(g, s.label), dot),
        ("".join(_dot_lines(g, s.label)), dot),
    ):
        data = text.encode("utf-8")
        assert (hashlib.sha256(data).hexdigest(), len(data)) == pinned


def test_staircase_dump_bytes_are_pinned():
    """The 24-window staircase (588 vertices, 26 336 edges), whose edge rows
    share heads and tails, as the writers wrote it before each row was
    joined from reused pieces of text."""
    g = build(staircase(24), SEC)
    assert (len(g.vertices), sum(1 for _ in oracle_run_edges(g))) == (588, 26_336)
    for text, pinned in (
        ("".join(_graph_json(g)),
         ("90f0bf27b04a00498cea6b2a1f3da1766884284eaa03b3af22327bffcdc9b964", 4_776_421)),
        ("".join(_dot_lines(g, str)),
         ("e2aa980fd6104776e15834e58c14309a466a1e6f8756ba7bfd527c2e82162c2e", 1_003_389)),
    ):
        data = text.encode("utf-8")
        assert (hashlib.sha256(data).hexdigest(), len(data)) == pinned


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000), st.lists(st.tuples(st.integers(0, 2), st.integers(1, 2),
                                                  st.integers(0, 4)), max_size=8),
       st.integers(1, 16), st.integers(1, 3 * SEC))
def test_edges_match_the_run_scan(seed, nested, k, t_tr):
    """The edges graph.json writes, from its scan of each node's id range,
    are the run-suffix enumeration's edges in its order: on random graphs, on
    windows nested around one centre (equal spans among them), on
    staircases and on the empty graph."""
    nest = tuple(TimeWindow(wid, a, a + d, c * SEC, (10 - c) * SEC)
                 for wid, (a, d, c) in enumerate(nested, start=1))
    for g in (random_small_twig(random.Random(seed), max_vertices=30), build(nest, t_tr),
              build(staircase(k), t_tr), build((), t_tr)):
        ix = {v: i for i, v in enumerate(g.vertices)}
        written = [(ix[tuple(e["u"])], ix[tuple(e["v"])], e["weight"], e["origin"])
                   for e in graph_to_dict(g)["edges"]]
        assert written == [(u, v, to_seconds(weight), origin)
                           for u, v, weight, origin in oracle_run_edges(g)]


def test_window_labels_are_made_only_when_read(monkeypatch):
    """A graph that is only replayed and judged never labels its pieces; the
    first label or dump makes them once."""
    made = []

    def counting(*args):
        made.append(args)
        return _window_labels(*args)

    monkeypatch.setattr(twig, "_window_labels", counting)
    s = make_demo({A: 5, C: 6})
    g = build(s.windows, s.t_tr)
    trace = simulate(s, g)
    detect_global(g, trace)
    run_local_pipeline(s, g, trace)
    window_misses(s, g, trace)
    assert made == []
    assert g.window_label(wid_of_label(g, "3.1")) == "3.1"
    "".join(_graph_json(g))
    to_dot(g, s.label)
    assert len(made) == 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10_000),
       st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3),
                          st.one_of(st.integers(0, 10**9), st.integers(10**16, 10**23)),
                          st.integers(1, 10**9)), max_size=6),
       st.integers(1, 10**7))
def test_graph_json_is_the_dict_dump(seed, spans, t_tr):
    """The streamed graph.json equals json.dumps of the hand-built oracle byte
    for byte, and graph_to_dict parses it back to the oracle: on random
    graphs, and on windows at arbitrary microseconds, where seconds are not
    integers and, from 1e22 us on, repr writes them with an exponent."""
    windows = tuple(
        TimeWindow(wid, a, a + d, lo, lo + n)
        for wid, (a, d, lo, n) in enumerate(spans, start=1)
    )
    for g in (random_small_twig(random.Random(seed)), build(windows, t_tr), build((), t_tr)):
        want = oracle_graph_dict(g)
        assert "".join(_graph_json(g)) == json.dumps(want, indent=2) + "\n"
        assert graph_to_dict(g) == want


def test_graph_json_joins_its_chunks():
    """A graph of many chunks of rows: the joins between them are exact too."""
    g = build(staircase(12), SEC)
    chunks = list(_graph_json(g))
    assert len(chunks) > 10
    assert "".join(chunks) == json.dumps(oracle_graph_dict(g), indent=2) + "\n"


def test_graph_json_is_written_in_bounded_memory(tmp_path):
    """Writing graph.json holds a chunk of rows at a time, never the document:
    the 60-window staircase (a 34 MB file) peaks under 1 MB of traced memory,
    at most 1.5 times the 30-window peak.  That peak includes the graph's
    window labels, made on first use by the writer and kept by the graph;
    with them made before tracing starts, the writer alone peaks at most 1.3
    times the 30-window peak."""

    def peak(k: int, labelled: bool = False) -> int:
        g = build(staircase(k), SEC)
        if labelled:
            assert g._labels
        gc.collect()
        tracemalloc.start()
        try:
            _emit(_graph_json(g), tmp_path / "graph.json")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    p30, p60 = peak(30), peak(60)
    assert p60 < 1_000_000 and p60 <= 1.5 * p30, (p30, p60)
    w30, w60 = peak(30, labelled=True), peak(60, labelled=True)
    assert w60 <= 1.3 * w30, (w30, w60)


def test_edge_tails_are_remade_after_the_memo_empties(monkeypatch):
    """With room for two tails the memo empties again and again, and both
    writers still write the same text."""
    g = build(staircase(12), SEC)
    want = "".join(_graph_json(g)), to_dot(g)
    monkeypatch.setattr(twig, "_TAIL_MEMO", 2)
    assert ("".join(_graph_json(g)), to_dot(g)) == want


def test_edge_tails_are_made_once_per_weight_and_origin(monkeypatch):
    """Seconds are written once per vertex end and once per distinct
    (weight, origin), not once per edge."""
    g = build(staircase(12), SEC)
    edges = list(oracle_run_edges(g))
    tails = {(weight, origin) for _, _, weight, origin in edges}
    calls = []
    real = twig.to_seconds
    monkeypatch.setattr(twig, "to_seconds", lambda us: calls.append(us) or real(us))
    "".join(_graph_json(g))
    assert len(calls) == 1 + 2 * len(g.vertices) + len(tails) < len(edges)
    calls.clear()
    to_dot(g)
    assert len(calls) == len(tails)


def test_edge_texts_are_made_once_per_source_and_node_scan(monkeypatch):
    """Both writers make a head once per source vertex, and a lead and a
    target once per node scan and once per within-window edge: all well
    under the edge count, so no text is made per edge."""
    g = build(staircase(12), SEC)
    edges, nodes = sum(1 for _ in oracle_run_edges(g)), len({n for n, _ in g.vertices})
    real = twig._edge_rows

    def counting(g, head, lead, target, tail):
        def counted(kind, make):
            return lambda x: made.update([kind]) or make(x)
        return real(g, counted("head", head), counted("lead", lead),
                    counted("target", target), tail)

    monkeypatch.setattr(twig, "_edge_rows", counting)
    for write in (lambda: "".join(_graph_json(g)), lambda: to_dot(g)):
        made = Counter()
        write()
        assert made["head"] <= len(g.vertices)
        assert made["lead"] <= nodes + len(g.split_windows)
        assert made["target"] <= len(g.vertices) + len(g.split_windows)
        assert 8 * max(made.values()) < edges, (made, edges)


def test_edge_tail_memo_is_bounded_when_every_weight_differs(tmp_path):
    """150 windows of one node nested at starts i**3 us: 11 175 containment
    edges, nearly every weight distinct, yet writing graph.json peaks under
    the 1 MB the staircases stay within."""
    g = build(tuple(TimeWindow(i, 0, i, i**3, 10**9 - i**3) for i in range(1, 151)), SEC)
    weights = [weight for _, _, weight, origin in oracle_run_edges(g) if origin == "containment"]
    assert len(weights) == 11_175 and len(set(weights)) > 10_000
    gc.collect()
    tracemalloc.start()
    try:
        _emit(_graph_json(g), tmp_path / "graph.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


def test_dot_labels_keep_weights_exact():
    """Weights that six significant digits cannot tell apart print in full;
    those that :g renders exactly keep their short form."""
    g = build((
        TimeWindow(1, 0, 1, 0, 5000 * SEC),
        TimeWindow(2, 0, 2, to_us(1234.5678), 2000 * SEC),
        TimeWindow(3, 0, 3, to_us(1234.5679), 2000 * SEC),
    ), SEC)
    dot = to_dot(g)
    assert '"0^1" -> "0^2" [label="1234.5678", dir=none, style=dashed];' in dot
    assert '"0^1" -> "0^3" [label="1234.5679", dir=none, style=dashed];' in dot
    assert '"0^2" -> "0^3" [label="0.0001", dir=none, style=dashed];' in dot
    assert '"0^1" -> "1^1" [label="1", dir=none];' in dot

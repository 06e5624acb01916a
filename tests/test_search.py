"""The time-window graph's search: the replaced search as oracle on large
graphs, the work it does, the memo that answers repeated searches, and the
found paths whose suffixes answer searches from their vertices."""

from __future__ import annotations

import functools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from support import oracle_search, staircase
from tdasim import (
    PRESETS,
    AttackConfig,
    Node,
    NodeKind,
    Scenario,
    TimeWindow,
    benign_next_hop,
    build,
    detect_global,
    evaluate_scenario,
    generate,
    preset_params,
    run_local_pipeline,
    shortest_path,
    simulate,
    to_us,
    window_misses,
)
from tdasim import twig
from tdasim.twig import _graph_json, _search

SEC = to_us(1)


@functools.cache
def generated(preset: str, seed: int):
    return generate(preset_params(preset, seed))


@st.composite
def preset_windows(draw):
    """The windows and t_tr of a generated table2-row* scenario."""
    s = generated(draw(st.sampled_from(sorted(PRESETS))), draw(st.integers(0, 4)))
    return s.windows, s.t_tr


@st.composite
def staircase_windows(draw):
    """The staircase of the dense-all workload, 12 to 30 windows."""
    return staircase(draw(st.integers(12, 30))), SEC


@st.composite
def tied_windows(draw):
    """Up to 12 windows among 5 nodes on a grid of a few microseconds, with
    t_tr one grid step: equal spans, equal starts and equal (weight, hops)
    labels over different paths are common."""
    unit = draw(st.integers(1, 3))
    windows = []
    for wid in range(1, draw(st.integers(2, 12)) + 1):
        a = draw(st.integers(0, 3))
        b = draw(st.integers(a + 1, 4))
        lo = draw(st.integers(0, 6))
        windows.append(TimeWindow(wid, a, b, lo * unit, (lo + draw(st.integers(1, 4))) * unit))
    return tuple(windows), unit


@st.composite
def nested_windows(draw):
    """Up to 10 windows among 2 or 3 nodes, all nested around one centre:
    each reaches 1-4 grid steps before it and 1-4 after, so the split makes
    pieces that enclose others, equal starts and equal spans."""
    unit = draw(st.integers(1, 3))
    last = draw(st.integers(1, 2))
    windows = []
    for wid in range(1, draw(st.integers(2, 10)) + 1):
        a = draw(st.integers(0, last - 1))
        b = draw(st.integers(a + 1, last))
        windows.append(TimeWindow(wid, a, b, (10 - draw(st.integers(1, 4))) * unit,
                                  (10 + draw(st.integers(1, 4))) * unit))
    return tuple(windows), unit


@st.composite
def search_question(draw, graphs):
    """A fresh graph and one question for it: seeds, target node and instant."""
    windows, t_tr = draw(graphs)
    g = build(windows, t_tr)
    nodes = sorted({v.node for v in g.vertices})
    lo = min(w.start for w in windows)
    hi = max(w.end for w in windows)
    now = draw(st.none() | st.integers(lo, hi))
    if draw(st.booleans()):
        seeds = [(0, draw(st.sampled_from(g.vertices)).key)]
    else:
        # benign_next_hop's form: every window of a holder usable at an
        # instant, offset by the wait until it opens
        holder = draw(st.sampled_from(nodes))
        at = draw(st.integers(lo, hi)) if now is None else now
        seeds = [(max(w.start, at) - at, (holder, w.wid))
                 for w in g.windows_of_node(holder) if g.usable(w.wid, at)]
    return g, seeds, draw(st.sampled_from(nodes)), now


def labelled(g, seeds, found):
    """found's (weight, hops, vertex sequence) label, as the replaced search
    answered: its seed's offset plus the arc weights Twig.arc_weight gives."""
    if found is None:
        return None
    offset = min(o for o, v in seeds if v == found[0])
    return (offset + sum(g.arc_weight(u, v) for u, v in zip(found, found[1:])),
            len(found) - 1, found)


@settings(max_examples=300, deadline=None)
@given(search_question(preset_windows() | staircase_windows() | tied_windows()
                       | nested_windows()))
def test_search_matches_the_replaced_search(question):
    g, seeds, to_node, now = question
    found = _search(g, seeds, to_node, now)
    assert labelled(g, seeds, found) == oracle_search(g, seeds, to_node, now)


class CountingHeap:
    """Stands in for heapq inside twig and counts the labels it handles."""

    def __init__(self, heapq):
        self.heapq, self.pushes, self.pops, self.searches = heapq, 0, 0, 0

    def heapify(self, heap):
        self.searches += 1
        self.pushes += len(heap)
        self.heapq.heapify(heap)

    def heappush(self, heap, label):
        self.pushes += 1
        self.heapq.heappush(heap, label)

    def heappop(self, heap):
        self.pops += 1
        return self.heapq.heappop(heap)


def test_search_work_on_generated_scenarios(monkeypatch):
    """generate plus evaluate_scenario on table2-row3 and row5, seeds 0-9.

    The counts are deterministic.  Before labels were pruned against their
    vertex's best and searches memoised on the graph, the same calls made
    186 225 pushes (seeds included), 67 370 pops and 1 791 searches.  Before
    searches were answered from the suffixes of found paths and the generator
    replayed the attacked candidate first, they made 26 194 pushes, 13 531
    pops and 477 searches.
    """
    counter = CountingHeap(twig.heapq)
    monkeypatch.setattr(twig, "heapq", counter)
    for preset in ("table2-row3", "table2-row5"):
        for seed in range(10):
            evaluate_scenario(generate(preset_params(preset, seed)), timing_repeats=0)
    assert counter.pushes <= 9_555
    assert counter.pops <= 5_049
    assert counter.searches <= 197


def test_replays_weigh_no_path(monkeypatch):
    """simulate on fresh graphs of every table2-row* preset, seeds 0-9, reads
    each plan's first crossing from the searched vertices.  When a later
    hop's plan was a weighed path and a suffix answer was weighed to fill its
    label, the same replays weighed 352 paths."""
    scenarios = [generated(preset, seed) for preset in sorted(PRESETS) for seed in range(10)]
    weighed = []
    weigh = twig._path
    monkeypatch.setattr(twig, "_path", lambda g, verts: weighed.append(verts) or weigh(g, verts))
    for s in scenarios:
        simulate(s, build(s.windows, s.t_tr))
    assert len(weighed) == 0


def scale_case() -> Scenario:
    """1000 windows among 100 nodes, from node 0 to node 99: each window joins
    two distinct nodes, lasts 5-15 s and starts in the first 600 s."""
    rng = random.Random(1)
    windows = []
    for wid in range(1, 1001):
        a, b = rng.sample(range(100), 2)
        length = rng.uniform(5, 15)
        start = rng.uniform(0, 600)
        windows.append(TimeWindow(wid, a, b, to_us(start), to_us(start + length)))
    return Scenario(nodes=tuple(Node(i, NodeKind.UAV) for i in range(100)),
                    windows=tuple(windows), t_tr=SEC, source=0, destination=99,
                    attack=AttackConfig({}))


def test_search_work_on_the_scale_case(monkeypatch):
    """A replay and the global check on a fresh graph of the scale case.

    The counts are deterministic.  When each of the replay's plans ran its
    own search, the two made 5 searches and 69 796 pops.  The replay's later
    plans are suffixes of its first, and so is every comparison path.
    """
    s = scale_case()
    counter = CountingHeap(twig.heapq)
    monkeypatch.setattr(twig, "heapq", counter)
    g = build(s.windows, s.t_tr)
    detect_global(g, simulate(s, g))
    assert counter.searches <= 1
    assert counter.pops <= 20_448


def test_search_work_on_a_staircase_is_exact(monkeypatch):
    """A replay of the 24-window staircase with relay 2 delaying 2 s, then
    the global check, on one fresh graph.

    The counts are exact, and were the same when each pop scanned every
    same-node arc of its vertex: walking a node's pieces in start order
    pushes and pops the same labels.
    """
    s = Scenario(nodes=tuple(Node(i, NodeKind.UAV) for i in range(7)), windows=staircase(24),
                 t_tr=SEC, source=0, destination=6, attack=AttackConfig({2: 2 * SEC}))
    counter = CountingHeap(twig.heapq)
    monkeypatch.setattr(twig, "heapq", counter)
    g = build(s.windows, s.t_tr)
    trace = simulate(s, g)
    assert trace.delivered and trace.path == (0, 1, 2, 3, 4, 5, 6)
    assert (counter.pushes, counter.pops, counter.searches) == (1_676, 195, 4)
    detect_global(g, trace)
    assert (counter.pushes, counter.pops, counter.searches) == (2_564, 238, 9)


@st.composite
def path_questions(draw, graphs):
    """A fresh graph, a first gated search for it, and a stream of instants.

    The first search starts from one vertex, or is benign_next_hop's search
    from every window of a holder usable at its instant."""
    windows, t_tr = draw(graphs)
    g = build(windows, t_tr)
    nodes = sorted({v.node for v in g.vertices})
    instants = st.integers(min(w.start for w in windows), max(w.end for w in windows))
    now = draw(instants)
    if draw(st.booleans()):
        seeds = [(0, draw(st.sampled_from(g.vertices)).key)]
    else:
        holder = draw(st.sampled_from(nodes))
        seeds = [(max(w.start, now) - now, (holder, w.wid))
                 for w in g.windows_of_node(holder) if g.usable(w.wid, now)]
    return g, seeds, draw(st.sampled_from(nodes)), now, instants


@settings(max_examples=500, deadline=None)
@given(path_questions(preset_windows() | staircase_windows() | tied_windows()), st.data())
def test_searches_along_a_found_path_match_the_replaced_search(question, data):
    """After a search finds a path, a search from each of its vertices but the
    last, at an instant earlier or later than the first search's, gives the
    replaced search's answer on a graph that was asked nothing before."""
    g, seeds, to_node, now, instants = question
    fresh = build(g.originals, g.t_tr)
    found = _search(g, seeds, to_node, now)
    assert labelled(g, seeds, found) == oracle_search(fresh, seeds, to_node, now)
    for v in found[:-1] if found else ():
        at = data.draw(instants)
        assert (labelled(g, [(0, v)], _search(g, [(0, v)], to_node, at))
                == oracle_search(fresh, [(0, v)], to_node, at))


def searched_graph():
    """A generated scenario's graph after the replays and both detectors ran on it."""
    s = generated("table2-row3", 1)
    g = build(s.windows, s.t_tr)
    for scenario in (s, s.without_attack()):
        trace = simulate(scenario, g)
        detect_global(g, trace)
        run_local_pipeline(scenario, g, trace)
        window_misses(scenario, g, trace)
    assert g._memo
    return s, g


def test_memo_leaves_the_graph_as_built():
    s, g = searched_graph()
    fresh = build(s.windows, s.t_tr)
    assert g == fresh
    assert repr(g) == repr(fresh)
    assert "".join(_graph_json(g)) == "".join(_graph_json(fresh))


def test_memo_hits_equal_fresh_searches():
    s, g = searched_graph()
    for (seeds, to_node, now), found in list(g._memo.items()):
        assert _search(g, seeds, to_node, now) is found
        assert _search(build(s.windows, s.t_tr), seeds, to_node, now) == found


def test_repeated_queries_return_equal_results():
    s, g = searched_graph()
    fresh = build(s.windows, s.t_tr)
    trace = simulate(s, g)
    for h in trace.hops[:-1]:
        want = benign_next_hop(s, fresh, h.node, h.reception_time)
        assert [benign_next_hop(s, g, h.node, h.reception_time) for _ in range(2)] == [want] * 2
    for v in g.vertices[::5]:
        for now in (None, trace.hops[0].reception_time):
            want = shortest_path(fresh, v, s.destination, now=now)
            assert [shortest_path(g, v, s.destination, now=now) for _ in range(2)] == [want] * 2

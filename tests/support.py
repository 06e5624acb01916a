"""Shared builders and independent oracles for the test suite.

The oracles in here deliberately avoid the production code: the path oracle
enumerates every simple path over the oracle's own arcs by depth-first search
and ranks them with the documented ordering, the next-hop oracle runs it once
per usable window of the holder, the edge oracle wires every edge of the
same-node closure explicitly, so the edges the graph dumps and the arcs it
derives on demand can be checked against it, the graph.json oracle adds a
row per vertex to those edges, and the split oracle cuts one
pair at a time, rescanning from scratch.  The window-derivation oracle is
the state-machine sampling loop the grouped runs replaced, the embedding
oracle is the two-pass trace embedding that embed_trace's one walk replaced,
and the run-scan edge oracle is the edge enumeration that the dumps' scan
of a node's id range replaced.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Iterable, Iterator, Sequence

from tdasim import (
    AttackConfig,
    NeighborTables,
    Node,
    NodeId,
    NodeKind,
    Scenario,
    TimeWindow,
    InconsistentTrace,
    PacketTrace,
    Twig,
    TwigPath,
    TwigVertex,
    build,
    to_seconds,
    to_us,
)
from tdasim.scenario import _pair_range, _span_overlap
from tdasim.twig import _wkey

NAMES = "SABCDEF"
S, A, B, C, D, E, F = range(7)


def demo_windows() -> tuple[TimeWindow, ...]:
    spans = [
        (1, S, A, 5, 8),
        (2, S, A, 12, 15),
        (3, A, B, 25, 40),
        (4, B, C, 25, 29),
        (5, B, D, 35, 50),
        (6, C, D, 60, 64),
        (7, C, F, 90, 95),
        (8, C, E, 110, 118),
        (9, E, F, 150, 165),
    ]
    return tuple(
        TimeWindow(wid, a, b, to_us(lo), to_us(hi)) for wid, a, b, lo, hi in spans
    )


def make_demo(delays: dict[int, float] | None = None) -> Scenario:
    """Seven-node walkthrough network: five drones, two ground relays."""
    nodes = tuple(
        Node(i, NodeKind.TOWER if i in (B, F) else NodeKind.UAV, name=NAMES[i])
        for i in range(7)
    )
    attack = AttackConfig({n: to_us(d) for n, d in (delays or {}).items()})
    return Scenario(
        nodes=nodes,
        windows=demo_windows(),
        t_tr=to_us(1),
        source=S,
        destination=F,
        attack=attack,
    )


def label_path(g: Twig, vertices, names: str = NAMES) -> list[str]:
    return [g.vertex_label(v, lambda n: names[n]) for v in vertices]


def wid_of_label(g: Twig, label: str) -> int:
    for w in g.split_windows:
        if g.window_label(w.wid) == label:
            return w.wid
    raise KeyError(label)


def vertex(g: Twig, node_name: str, window_label: str) -> TwigVertex:
    return TwigVertex(NAMES.index(node_name), wid_of_label(g, window_label))


def oracle_shortest(g: Twig, start: TwigVertex, to_node: int, now: int | None = None):
    """Best (total_weight, hops, key_sequence) over all simple paths, or None.

    Any vertex of the target node terminates a path; with ``now`` given,
    window-crossing arcs out of unusable windows are skipped, same-node arcs
    never are.  Exhaustive, so only safe on small graphs.
    """
    if start.node == to_node:
        return (0, 0, (start.key,))
    arcs, _ = oracle_arcs(oracle_edges(g.split_windows, g.t_tr))
    best = None

    def walk(key: tuple[int, int], weight: int, keys, seen) -> None:
        nonlocal best
        if key[0] == to_node:
            cand = (weight, len(keys) - 1, keys)
            if best is None or cand < best:
                best = cand
            return
        for key2, w, origin in arcs.get(key, ()):
            if key2 in seen:
                continue
            if now is not None and origin == "within_window" and not g.usable(key[1], now):
                continue
            walk(key2, weight + w, keys + (key2,), seen | {key2})

    walk(start.key, 0, (start.key,), {start.key})
    return best


def oracle_search(g: Twig, seeds: Iterable[tuple[int, tuple[NodeId, int]]], to_node: NodeId,
                  now: int | None) -> tuple[int, int, tuple[tuple[NodeId, int], ...]] | None:
    """Least (weight, hops, key sequence) label reaching to_node, or None.

    The search ``twig._search`` replaced, kept verbatim: it pushes a label for
    every arc into an unsettled vertex and answers no search from a memo.

    Each seed (offset, key) starts a path at that vertex with the offset as
    its weight, so one search ranks every seed at once.  The order is total
    and survives extension by an arc, so arc order cannot change the result.
    Labels carry vertex ids, whose order is the key order.
    """
    keys, start, mate, run, run_from = g.vertices, g._start, g._mate, g._run, g._run_from
    t_tr = g.t_tr
    heap = [(offset, 0, (g._ix[key],)) for offset, key in seeds]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    done = bytearray(len(keys))
    while heap:
        weight, hops, path = pop(heap)
        u = path[-1]
        if done[u]:
            continue
        done[u] = 1
        node, wid = keys[u]
        if node == to_node:
            return weight, hops, tuple(keys[i] for i in path)
        hops += 1
        v = mate[u]
        if not done[v] and (now is None or g.usable(wid, now)):
            push(heap, (weight + t_tr, hops, path + (v,)))
        s = start[u]
        ids, starts = run[u]
        for k in range(run_from[u], len(ids)):
            v = ids[k]
            if not done[v]:  # u itself is done
                push(heap, (weight + abs(starts[k] - s), hops, path + (v,)))
    return None


def oracle_run_edges(g: Twig) -> Iterator[tuple[int, int, int, str]]:
    """Every edge once as (u id, v id, weight, origin), in (u, v) vertex order.

    The enumeration ``twig._edges`` replaced, kept verbatim: it walks the
    suffix of u's node's run whose windows end after u's starts and sorts
    each vertex's edges.

    An undirected edge runs from the lower node id across a window, and from
    the containing window into the inner one; of two equal spans, the lower
    wid contains the other.  Succession edges run forward in time.
    """
    verts, start, mate, run, run_from = g.vertices, g._start, g._mate, g._run, g._run_from
    end = [g._piece[wid].end for _, wid in verts]
    for u, (_, wid) in enumerate(verts):
        s, e = start[u], end[u]
        ids, starts = run[u]
        out = []
        for k in range(run_from[u], len(ids)):
            v = ids[k]
            if e <= starts[k]:
                out.append((v, starts[k] - s, "succession"))
            elif v != u and (s, -e, wid) < (starts[k], -end[v], verts[v].wid):
                out.append((v, starts[k] - s, "containment"))
        out.sort()
        for v, weight, origin in out:
            yield u, v, weight, origin
        if u < mate[u]:  # the mate's node is higher, so its id follows the run's
            yield u, mate[u], g.t_tr, "within_window"


def oracle_neighbor_tables(s: Scenario, g: Twig, node: int) -> NeighborTables:
    """The tables ``NeighborTables.from_scenario`` built by scanning every
    original window of the scenario for each observer."""
    contacts: dict[int, set[int]] = {n.id: set() for n in s.nodes}
    mine: dict[int, list[TimeWindow]] = {}
    for w in s.windows:
        contacts[w.a].add(w.b)
        contacts[w.b].add(w.a)
        if node in (w.a, w.b):
            mine.setdefault(w.other(node), []).append(w)
    one = contacts[node]
    two = set(one)
    for n in one:
        two |= contacts[n]
    two.discard(node)
    originals = {nbr: tuple(sorted(ws, key=lambda w: (w.start, w.wid)))
                 for nbr, ws in mine.items()}
    pieces = {nbr: g.windows_of_pair(node, nbr) for nbr in one}
    return NeighborTables(node, frozenset(one), frozenset(two), originals, pieces)


def oracle_benign_next_hop(s: Scenario, g: Twig, holder: int, now: int):
    """The per-window fan-out the seeded search replaced, ranked by the oracle.

    Every usable window of the holder is scored by waiting time plus the
    restricted shortest-path weight from its vertex, tie-broken by hop count
    and then vertex sequence.
    """
    best = None
    for w in g.windows_of_node(holder):
        if not g.usable(w.wid, now):
            continue
        if holder == s.source and g.original_of(w.wid).start < s.creation_time:
            continue  # the source transmits only in windows opening after creation
        sp = oracle_shortest(g, TwigVertex(holder, w.wid), s.destination, now=now)
        if sp is None:
            continue
        wait = max(w.start, now) - now
        rank = (wait + sp[0], sp[1], sp[2])
        if best is None or rank < best[0]:
            best = (rank, w.wid)
    if best is None:
        return None
    wid = best[1]
    return g.window(wid).other(holder), wid


# embed_trace as written in two passes: every hop's crossing piece first, then
# each relay's same-node run, with a weight list kept beside the vertex list
def oracle_embed_trace(g: Twig, trace: PacketTrace) -> TwigPath:
    """Map a physical hop sequence onto graph vertices.

    Each hop crosses the latest split window of its node pair that contains
    the send instant (reception time minus t_tr).  Between a relay's receive
    window and its send window, the relay's other windows that also contain
    the upcoming send instant are inserted in span order, which reproduces the
    same-node vertex runs of hand-worked followed paths.  A hop is rejected
    when no encounter of its pair lasts from send to arrival; that need not be
    the crossed piece's, as a nested piece can hold a longer one's send instant.
    A hop's recorded window and send instant, when given, must be those two.
    """
    hops = trace.hops
    if len(hops) < 2:
        raise InconsistentTrace("trace has no transmissions to embed")
    crossing: list[TimeWindow] = []
    for i in range(1, len(hops)):
        a, b = hops[i - 1].node, hops[i].node
        send = hops[i].reception_time - g.t_tr
        w = g.send_window(a, b, send)
        if w is None:
            raise InconsistentTrace(
                f"hop {i}: no window between nodes {a} and {b} contains send instant "
                f"{to_seconds(send)}"
            )
        if hops[i].window is not None and hops[i].window != w.wid:
            raise InconsistentTrace(
                f"hop {i}: recorded window {hops[i].window} does not contain "
                f"send instant {to_seconds(send)} (expected {w.wid})"
            )
        if hops[i].send_time_of_prev not in (None, send):
            raise InconsistentTrace(
                f"hop {i}: recorded send instant {to_seconds(hops[i].send_time_of_prev)} is not "
                f"arrival {to_seconds(hops[i].reception_time)} minus t_tr"
            )
        if not any(p.start <= send <= p.end and hops[i].reception_time <= g.original_of(p.wid).end
                   for p in g.windows_of_pair(a, b)):
            raise InconsistentTrace(
                f"hop {i}: no encounter between nodes {a} and {b} lasts from send instant "
                f"{to_seconds(send)} to arrival {to_seconds(hops[i].reception_time)}"
            )
        crossing.append(w)
    verts = [TwigVertex(hops[0].node, crossing[0].wid)]
    weights: list[int] = []
    for i in range(1, len(hops)):
        node = hops[i].node
        verts.append(TwigVertex(node, crossing[i - 1].wid))
        weights.append(g.t_tr)
        if i == len(hops) - 1:
            break
        for v2, w2 in _oracle_same_node_run(g, node, crossing[i - 1], crossing[i],
                                            hops[i + 1].reception_time - g.t_tr):
            verts.append(v2)
            weights.append(w2)
    return TwigPath(tuple(verts), sum(weights), tuple(weights))


def _oracle_same_node_run(
    g: Twig, node: NodeId, recv: TimeWindow, send: TimeWindow, send_instant: int,
) -> list[tuple[TwigVertex, int]]:
    """The node's vertices after recv up to send, each with the weight of the arc into it.

    The run is monotone in (start, end, wid), and each step u -> v is an arc
    as v ends after u starts: v holds send_instant, and u starts no later than
    v (ascending; windows are never empty) or than recv (descending), which
    holds the earlier previous send instant.
    """
    if recv.wid == send.wid:
        return []
    kr, ks = _wkey(recv), _wkey(send)
    mids = sorted((w for w in g.windows_of_node(node)
                   if w.start <= send_instant <= w.end and min(kr, ks) < _wkey(w) < max(kr, ks)),
                  key=_wkey, reverse=kr > ks)
    run = [recv, *mids, send]
    return [(TwigVertex(node, v.wid), abs(v.start - u.start)) for u, v in zip(run, run[1:])]


def random_small_twig(rng: random.Random, max_vertices: int = 12) -> Twig:
    """A tiny graph for oracle comparisons (resamples until small enough)."""
    while True:
        n_nodes = rng.randint(2, 4)
        n_windows = rng.randint(2, 5)
        windows = []
        for wid in range(1, n_windows + 1):
            a, b = rng.sample(range(n_nodes), 2)
            start = rng.randint(0, 60)
            end = start + rng.randint(1, 25)
            windows.append(
                TimeWindow(wid, min(a, b), max(a, b), to_us(start), to_us(end))
            )
        g = build(tuple(windows), to_us(1))
        if len(g.vertices) <= max_vertices:
            return g


def staircase(k: int) -> tuple[TimeWindow, ...]:
    """k windows of 10.5 s, one starting every second, along a 7-node chain."""
    sec = to_us(1)
    chain = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6))
    return tuple(
        TimeWindow(i + 1, *chain[i % len(chain)], i * sec, i * sec + 21 * sec // 2)
        for i in range(k)
    )


def oracle_graph_dict(g: Twig) -> dict:
    """graph.json's content built by hand from the split pieces: a row per
    vertex in (node, wid) order, then the edges of ``oracle_edges``."""
    piece = {w.wid: w for w in g.split_windows}
    rows = [{"node": node, "wid": wid, "label": g.window_label(wid),
             "start": to_seconds(piece[wid].start), "end": to_seconds(piece[wid].end)}
            for node, wid in sorted((n, w.wid) for w in g.split_windows for n in (w.a, w.b))]
    return {"t_tr": to_seconds(g.t_tr), "vertices": rows,
            "edges": oracle_edges(g.split_windows, g.t_tr)}


def oracle_edges(pieces, t_tr: int) -> list[dict]:
    """Every edge of the graph over these split pieces, wired explicitly, as
    graph.json's edge objects, sorted by (u, v)."""
    edges: list[dict] = []

    def edge(u: tuple[int, int], v: tuple[int, int], kind: str, weight: int,
             origin: str) -> None:
        edges.append({"u": list(u), "v": list(v), "kind": kind,
                      "weight": to_seconds(weight), "origin": origin})

    for w in pieces:
        lo, hi = sorted((w.a, w.b))
        edge((lo, w.wid), (hi, w.wid), "undirected", t_tr, "within_window")
    by_node: dict[int, list[TimeWindow]] = {}
    for w in pieces:
        by_node.setdefault(w.a, []).append(w)
        by_node.setdefault(w.b, []).append(w)
    for node in sorted(by_node):
        ws = sorted(by_node[node], key=lambda w: (w.start, w.end, w.wid))
        for i, wi in enumerate(ws):
            for wj in ws[i + 1:]:
                if wi.end <= wj.start:
                    edge((node, wi.wid), (node, wj.wid), "directed",
                         wj.start - wi.start, "succession")
                elif wj.end <= wi.end or wi.start == wj.start:
                    # one span nests inside the other (equal spans included)
                    container, inner = (wi, wj) if wj.end <= wi.end else (wj, wi)
                    edge((node, container.wid), (node, inner.wid), "undirected",
                         inner.start - container.start, "containment")
                else:
                    raise AssertionError(
                        f"windows {wi.wid} and {wj.wid} still partially overlap after splitting"
                    )
    return sorted(edges, key=lambda e: (e["u"], e["v"]))


def oracle_arcs(edges: list[dict]):
    """From edge dicts: (arcs by source key (node, wid) as (target key, weight in
    microseconds, origin), ordered by target key; weight by key pair)."""
    arcs: dict[tuple[int, int], list[tuple[tuple[int, int], int, str]]] = {}
    arc_weight: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    for e in edges:
        u, v, weight = tuple(e["u"]), tuple(e["v"]), to_us(e["weight"])
        pairs = [(u, v)]
        if e["kind"] == "undirected":
            pairs.append((v, u))
        for a, b in pairs:
            arcs.setdefault(a, []).append((b, weight, e["origin"]))
            arc_weight[(a, b)] = weight
    for lst in arcs.values():
        lst.sort()
    return arcs, arc_weight


def oracle_split(windows: Sequence[TimeWindow]) -> tuple[list[TimeWindow], dict[int, int]]:
    """The restart-from-scratch split the sweep in ``twig._split`` replaced:
    after every cut it re-sorts all records and rescans from the first one."""
    # records: [start, end, orig wid, a, b, birth order]; birth order keeps
    # the rescans deterministic when spans coincide
    recs = [[w.start, w.end, w.wid, w.a, w.b, i] for i, w in enumerate(windows)]
    birth = len(recs)
    while True:
        recs.sort(key=lambda r: (r[0], r[1], r[2], r[5]))
        found = None
        for i, p in enumerate(recs):
            for q in recs[i + 1:]:
                if q[0] >= p[1]:
                    break  # sorted by start: no later window can overlap p
                if p[0] < q[0] < p[1] < q[1]:
                    found = (p, q)
                    break
            if found:
                break
        if not found:
            break
        p, q = found
        cut_lo, cut_hi = q[0], p[1]
        recs.remove(p)
        recs.remove(q)
        recs.append([p[0], cut_lo, p[2], p[3], p[4], birth]); birth += 1
        recs.append([cut_lo, cut_hi, p[2], p[3], p[4], birth]); birth += 1
        recs.append([cut_lo, cut_hi, q[2], q[3], q[4], birth]); birth += 1
        recs.append([cut_hi, q[1], q[2], q[3], q[4], birth]); birth += 1
    by_orig: dict[int, list[list[int]]] = {}
    for r in recs:
        by_orig.setdefault(r[2], []).append(r)
    next_wid = max((w.wid for w in windows), default=0) + 1
    pieces: list[TimeWindow] = []
    provenance: dict[int, int] = {}
    for w in windows:
        parts = sorted(by_orig[w.wid], key=lambda r: r[0])
        if len(parts) == 1:
            pieces.append(w)
            provenance[w.wid] = w.wid
            continue
        for r in parts:
            pieces.append(TimeWindow(wid=next_wid, a=w.a, b=w.b, start=r[0], end=r[1]))
            provenance[next_wid] = w.wid
            next_wid += 1
    return pieces, provenance


def oracle_derive_windows(nodes: Sequence[Node], range_rule=None, dt: float = 0.5) -> list[TimeWindow]:
    """The sampling loop ``derive_windows`` replaced: a run_start/last_t state
    machine over the samples, with its own position interpolation."""
    def position(node: Node, t: int) -> tuple[float, float, float] | None:
        wps = node.waypoints
        assert wps is not None
        if len(wps) == 1:
            return (wps[0].x, wps[0].y, wps[0].z)
        if t <= wps[0].t:
            return (wps[0].x, wps[0].y, wps[0].z)
        if t >= wps[-1].t:
            return (wps[-1].x, wps[-1].y, wps[-1].z)
        for p, q in zip(wps, wps[1:]):
            if p.t <= t <= q.t:
                f = (t - p.t) / (q.t - p.t)
                return (p.x + f * (q.x - p.x), p.y + f * (q.y - p.y), p.z + f * (q.z - p.z))
        return None

    step = max(1, to_us(dt))
    windows: list[tuple[tuple[int, int], int, int]] = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            pair = (a.id, b.id) if a.id < b.id else (b.id, a.id)
            limit = _pair_range(a, b, range_rule)
            span = _span_overlap(a, b)
            if span is None:
                continue
            lo, hi = span
            run_start: int | None = None
            last_t = lo
            t = lo
            while True:
                t = min(t, hi)
                inside = math.dist(position(a, t), position(b, t)) <= limit
                if inside and run_start is None:
                    run_start = t
                elif not inside and run_start is not None:
                    if last_t > run_start:
                        windows.append((pair, run_start, last_t))
                    run_start = None
                last_t = t
                if t >= hi:
                    break
                t += step
            if run_start is not None and hi > run_start:
                windows.append((pair, run_start, hi))
    windows.sort(key=lambda item: (min(item[0]), max(item[0]), item[1]))
    return [
        TimeWindow(wid=i + 1, a=pair[0], b=pair[1], start=start, end=end)
        for i, (pair, start, end) in enumerate(windows)
    ]

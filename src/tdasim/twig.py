"""Time-window graph: vertices are (node, window) pairs, edges carry travel cost.

Construction first splits partially overlapping windows until every pair of
windows is either disjoint, nested, or identical in span.  Each surviving
window contributes one vertex per endpoint node joined by an undirected
within-window edge of weight t_tr; windows sharing a node are joined by
directed succession edges or undirected containment edges whose weight is the
difference of their start times.  Only the pieces and an int index over them
are stored: shortest-path queries, the embedding of physical packet traces and
the JSON and DOT dumps all read arcs from that index.
"""

from __future__ import annotations

import heapq
import json
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .scenario import NodeId, TimeWindow, to_seconds

if TYPE_CHECKING:
    from .simulator import PacketTrace


class InconsistentTrace(ValueError):
    """The trace contradicts the window schedule and cannot be judged."""


class TwigVertex(NamedTuple):
    """A (node, wid) pair; it compares, hashes and sorts as that tuple."""

    node: NodeId
    wid: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.node, self.wid)


@dataclass(frozen=True)
class TwigPath:
    """A traversable vertex sequence; weights holds the per-arc costs."""

    vertices: tuple[TwigVertex, ...]
    total_weight: int
    weights: tuple[int, ...]

    @property
    def hops(self) -> int:
        return len(self.vertices) - 1


@dataclass
class Twig:
    """Immutable after build(); all query methods are read-only.

    Holds the split pieces and O(pieces) index state over them, never arcs:
    per node its pieces by neighbor, the vertices in (node, wid) order,
    numbered in that order, and per vertex its window start, its
    within-window mate, where its same-node arcs begin among its node's
    pieces in start order, and the pieces that enclose it and start earlier.
    The pieces are laminar, as build() makes them: two pieces of one node
    that partially overlap are a ValueError.
    What grows is a memo of the searches asked of the graph and the paths
    they found, whose suffixes answer later searches from their vertices.
    """

    split_windows: tuple[TimeWindow, ...]
    provenance: Mapping[int, int]  # split wid -> original wid
    originals: tuple[TimeWindow, ...]
    t_tr: int
    vertices: tuple[TwigVertex, ...] = field(init=False)

    def __post_init__(self) -> None:
        self._piece = {w.wid: w for w in self.split_windows}
        self._orig = {w.wid: w for w in self.originals}
        # _search's answers by (seeds, to_node, now); not a field, so equality
        # and repr ignore it
        self._memo: dict = {}
        # (vertex, to_node) -> (now0, path, k): the earliest gated search, at
        # now0, that found a path through the vertex, path[k] being that vertex
        self._tails: dict = {}
        by_pair: dict[tuple[NodeId, NodeId], list[TimeWindow]] = {}
        for w in self.split_windows:
            by_pair.setdefault(w.pair, []).append(w)
        # node -> {neighbor -> the pair's pieces in (start, end, wid) order}; a
        # pair's tuple is sorted once and shared by both its endpoints
        by_nbr: dict[NodeId, dict[NodeId, tuple[TimeWindow, ...]]] = {}
        for (a, b), ws in by_pair.items():
            by_nbr.setdefault(a, {})[b] = by_nbr.setdefault(b, {})[a] = tuple(sorted(ws, key=_wkey))
        self._by_nbr = {n: MappingProxyType(nbrs) for n, nbrs in by_nbr.items()}
        # vertex i is vertices[i]: ids follow (node, wid) order, so comparing id
        # sequences compares vertex sequences and the search's tie-break holds;
        # tuple.__new__ makes each TwigVertex from its pair, as _make does
        wids = [w.wid for w in self.split_windows]
        self.vertices = verts = tuple(sorted(map(tuple.__new__, repeat(TwigVertex), chain(
            zip([w.a for w in self.split_windows], wids),
            zip([w.b for w in self.split_windows], wids)))))
        self._ix = ix = dict(zip(verts, range(len(verts))))
        windows = [self._piece[wid] for _, wid in verts]
        self._start = start = [w.start for w in windows]
        self._mate = [ix[w.b if n == w.a else w.a, wid] for (n, wid), w in zip(verts, windows)]
        # u's same-node arcs go to the other pieces of its node that end after
        # its own starts, and weigh the gap between the two starts.  The pieces
        # are laminar (any two are disjoint, nested or equal), so those arcs are
        # the positions of u's node, in (start, -end, id) order, from the first
        # that starts with u, and the few pieces that enclose u and start
        # earlier.  Positions run node after node, with a stop before each
        # node and after the last
        self._walk_ids = ids = [-1]  # vertex id per position, -1 at a stop
        stops = [0]
        self._walk_from = walk_from = [0] * len(verts)  # u's first position
        # per vertex, (id, start gap) for each piece that encloses it and starts earlier
        self._enclosing = enclosing = [()] * len(verts)
        end = [w.end for w in windows]
        neg_end = [-e for e in end]
        lo = 0
        while lo < len(verts):  # a node's ids are the range [lo, hi)
            hi = bisect_left(verts, (verts[lo].node + 1,), lo)
            # both sorts are stable: by start, then by -end, then by id
            block = sorted(range(lo, hi), key=neg_end.__getitem__)
            block.sort(key=start.__getitem__)
            first = None
            nest: list[int] = []  # the pieces that enclose the next, outermost first
            for k, i in enumerate(block, len(ids)):
                s = start[i]
                if s != first:
                    first, at = s, k
                walk_from[i] = at
                while nest and end[nest[-1]] <= s:  # it encloses no later piece
                    nest.pop()
                if nest:
                    if end[nest[-1]] < end[i]:
                        raise ValueError(f"pieces {verts[nest[-1]].wid} and {verts[i].wid} "
                                         "partially overlap")
                    if start[nest[0]] < s:
                        enclosing[i] = tuple([(j, s - start[j]) for j in nest if start[j] < s])
                nest.append(i)
            ids += block
            stops.append(len(ids))
            ids.append(-1)
            lo = hi
        padded = start + [0]  # a stop's id, -1, reads the 0 appended
        self._walk_starts = [padded[i] for i in ids]  # window start per position
        # each position's mark before a search: open, or a stop no walk passes
        self._walk_marks = marks = [_OPEN] * len(ids)
        for k in stops:
            marks[k] = _STOP

    @cached_property
    def _labels(self) -> dict[int, str]:
        # only the labels and the dumps read these, so a graph that is only
        # searched never makes them
        return _window_labels(self.split_windows, self.provenance)

    def window(self, wid: int) -> TimeWindow:
        return self._piece[wid]

    def original_of(self, wid: int) -> TimeWindow:
        return self._orig[self.provenance[wid]]

    def window_label(self, wid: int) -> str:
        return self._labels[wid]

    def vertex_label(self, v: TwigVertex, node_label: Callable[[NodeId], str] = str) -> str:
        return f"{node_label(v.node)}^{self._labels[v.wid]}"

    def windows_by_neighbor(self, node: NodeId) -> Mapping[NodeId, tuple[TimeWindow, ...]]:
        """The node's pieces by neighbor, each pair's in (start, end, wid) order; read-only."""
        return self._by_nbr.get(node, _NO_NEIGHBORS)

    def windows_of_node(self, node: NodeId) -> Iterator[TimeWindow]:
        """The node's pieces, grouped by neighbor."""
        return chain.from_iterable(self.windows_by_neighbor(node).values())

    def windows_of_pair(self, a: NodeId, b: NodeId) -> tuple[TimeWindow, ...]:
        return self.windows_by_neighbor(a).get(b, ())

    def arc_weight(self, u: TwigVertex, v: TwigVertex) -> int | None:
        """Weight of the arc u -> v, or None when there is none or either is not a vertex.

        The graph's only arc rules: a window's endpoints are joined both ways at
        t_tr, and a vertex to every other window of its node that ends after its
        own window starts, at the gap between their start times.
        """
        if not (u in self._ix and v in self._ix):
            return None
        wu, wv = self._piece[u.wid], self._piece[v.wid]
        if u.node != v.node:
            return self.t_tr if u.wid == v.wid else None
        if u.wid == v.wid or wv.end <= wu.start:
            return None
        return abs(wv.start - wu.start)

    def usable(self, wid: int, now: int) -> bool:
        """Could a transmission over this split window start no earlier than now?

        The send may run past the split boundary: the physical constraint is
        the end of the original encounter, not of the artificial piece.
        """
        w = self._piece[wid]
        return w.end >= now and self.original_of(wid).carries(max(w.start, now), self.t_tr)

    def send_window(self, a: NodeId, b: NodeId, send: int) -> TimeWindow | None:
        """Latest split window of the pair whose span contains the send instant."""
        return _latest_containing(self.windows_of_pair(a, b), send)


_NO_NEIGHBORS: Mapping[NodeId, tuple[TimeWindow, ...]] = MappingProxyType({})


def _wkey(w: TimeWindow) -> tuple[int, int, int]:
    return (w.start, w.end, w.wid)


def _latest_containing(pieces: Sequence[TimeWindow], instant: int) -> TimeWindow | None:
    """The last of the pieces, in (start, end, wid) order, whose span contains instant."""
    return next((w for w in reversed(pieces) if w.start <= instant <= w.end), None)


def _window_labels(pieces: Iterable[TimeWindow], provenance: Mapping[int, int]) -> dict[int, str]:
    children: dict[int, list[int]] = {}
    for w in pieces:
        children.setdefault(provenance[w.wid], []).append(w.wid)
    labels: dict[int, str] = {}
    for orig, wids in children.items():
        if len(wids) == 1 and wids[0] == orig:
            labels[orig] = str(orig)
        else:
            for i, wid in enumerate(sorted(wids), start=1):
                labels[wid] = f"{orig}.{i}"
    return labels


# ---------------------------------------------------------------------------
# construction

def build(windows: Sequence[TimeWindow], t_tr: int) -> Twig:
    """Split partially overlapping windows in one sweep; arcs follow from the pieces."""
    if t_tr <= 0:
        raise ValueError("t_tr must be positive")
    wids = [w.wid for w in windows]
    if len(wids) != len(set(wids)):
        raise ValueError("window ids must be unique")
    pieces, provenance = _split(windows)
    return Twig(
        split_windows=tuple(pieces),
        provenance=provenance,
        originals=tuple(windows),
        t_tr=t_tr,
    )


def _split(windows: Sequence[TimeWindow]) -> tuple[list[TimeWindow], dict[int, int]]:
    # records (start, end, orig wid, a, b) stay sorted, and every record before
    # the cursor partially overlaps no later one; a cut's pieces reuse only p's
    # and q's endpoints, so no earlier record can overlap them and the sweep
    # resumes at the first piece, [p.start, q.start]
    recs = sorted((w.start, w.end, w.wid, w.a, w.b) for w in windows)
    i = 0
    while i < len(recs):
        p = recs[i]
        # (p[1],) sorts before every record starting at p's end, so j runs over
        # the later records that start before p ends
        for j in range(i + 1, bisect_left(recs, (p[1],), i + 1)):
            q = recs[j]
            if p[0] < q[0] and p[1] < q[1]:
                break  # the first later record p partially overlaps
        else:
            i += 1
            continue
        del recs[j], recs[i]
        cut = [(p[0], q[0], *p[2:]), (q[0], p[1], *p[2:]),
               (q[0], p[1], *q[2:]), (p[1], q[1], *q[2:])]
        for r in cut:
            insort(recs, r)
        i = bisect_left(recs, cut[0])
    by_orig: dict[int, list[tuple[int, ...]]] = {}
    for r in recs:  # in start order, so each original's pieces are too
        by_orig.setdefault(r[2], []).append(r)
    next_wid = max((w.wid for w in windows), default=0) + 1
    pieces: list[TimeWindow] = []
    provenance: dict[int, int] = {}
    for w in windows:
        parts = by_orig[w.wid]
        if len(parts) == 1:
            pieces.append(w)
            provenance[w.wid] = w.wid
            continue
        for r in parts:
            pieces.append(TimeWindow(wid=next_wid, a=w.a, b=w.b, start=r[0], end=r[1]))
            provenance[next_wid] = w.wid
            next_wid += 1
    return pieces, provenance


# ---------------------------------------------------------------------------
# shortest paths

def shortest_path(
    g: Twig,
    start: tuple[NodeId, int],
    to_node: NodeId,
    *,
    now: int | None = None,
) -> TwigPath | None:
    """Minimum-weight path from start, a (node, wid) vertex, to any vertex of to_node.

    Ties break on fewer hops, then the lexicographically smallest sequence of
    (node, wid) vertices, so results are fully deterministic.  With now given,
    within-window edges are traversable only if the window is usable at that
    instant; same-node edges are never restricted.
    """
    found = _search(g, [(0, start)], to_node, now)
    return None if found is None else _path(g, found)


def _path(g: Twig, verts: tuple[TwigVertex, ...]) -> TwigPath:
    """The path along verts, each arc weighed from its two windows as Twig.arc_weight does:
    t_tr where the node changes, else the gap between the two window starts."""
    piece = g._piece
    weights = tuple(g.t_tr if nu != nv else abs(piece[wv].start - piece[wu].start)
                    for (nu, wu), (nv, wv) in zip(verts, verts[1:]))
    return TwigPath(verts, sum(weights), weights)


_NO_LABEL = (float("inf"), 0, ())
# a walk's marks: an open position is above every key, a stop below every key
_OPEN = (float("inf"),)
_STOP = (float("-inf"),)


def _search(g: Twig, seeds: Iterable[tuple[int, tuple[NodeId, int]]], to_node: NodeId,
            now: int | None) -> tuple[TwigVertex, ...] | None:
    """The vertices of the least (weight, hops, vertex sequence) path to to_node, or None.

    Each seed (offset, (node, wid)) starts a path at that vertex with the offset as
    its weight, so one search ranks every seed at once.  The order is total
    and survives extension by an arc, so arc order cannot change the result,
    and a label no smaller than one already pushed for its vertex can never
    settle it: only labels that beat their vertex's best are pushed.  Labels
    carry vertex ids, whose order is the vertex order, and the answer holds
    the graph's own vertices; a seed that is not one is a ValueError.  The
    graph never changes, so it answers a repeated search from its memo.

    A popped u relaxes its same-node arcs without scanning them all.  The
    pieces that start before u and end after it enclose it, the pieces being
    laminar, and u relaxes them from its enclosing list.  The others are its
    node's pieces from the first that starts with u, in (start, -end, id)
    order, and u walks them.  Its label at a position is its key (weight -
    start(u), hops, path) with that position's start added to the weight;
    the shift keeps the order of keys, as paths of equal (weight, hops) are
    of equal length.  Each position keeps the least key a walk of this
    search left there, and a walk stops at the first position whose key is
    no greater than its own.  That is exact: whoever left that key walked
    on to the end of the node, or stopped where a yet earlier walk's key was
    no greater, so every later position already holds a best label no
    greater than u's label there, and u would push nothing.  So the labels
    pushed and popped are those of a scan of every same-node arc.

    A search from one vertex at offset 0, gated at now, is also answered by
    the rest of a path P an earlier search gated at now0 <= now found through
    that vertex to to_node, when every crossing of that rest is usable at now:
    usable only shrinks as now grows, since a piece lies inside its original;
    a suffix of a least (weight, hops, vertex sequence) path is least from its
    first vertex; so a suffix that is still usable beats every path in the
    smaller graph, and is the answer as it stands.
    """
    seeds = tuple(seeds)
    memo_key = (seeds, to_node, now)
    if memo_key in g._memo:
        return g._memo[memo_key]
    if now is not None and len(seeds) == 1 and seeds[0][0] == 0:
        tail = g._tails.get((seeds[0][1], to_node))
        if tail is not None and tail[0] <= now:
            _, path, k = tail
            if all(u.node == v.node or g.usable(u.wid, now)
                   for u, v in zip(path[k:], path[k + 1:])):
                found = g._memo[memo_key] = path[k:]
                return found
    for _, v in seeds:
        if v not in g._ix:
            raise ValueError(f"vertex {v} is not in the graph")
    verts, start, mate, t_tr = g.vertices, g._start, g._mate, g.t_tr
    ids, starts, walk_from, enclosing = g._walk_ids, g._walk_starts, g._walk_from, g._enclosing
    marks = g._walk_marks[:]  # per position, the least key a walk left there
    best = [_NO_LABEL] * len(verts)  # least label pushed per vertex
    heap = [(offset, 0, (g._ix[v],)) for offset, v in seeds]
    for label in heap:
        i = label[2][0]
        best[i] = min(best[i], label)
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    found = None
    while heap:
        weight, hops, path = label = pop(heap)
        u = path[-1]
        if best[u] is not label:
            continue  # superseded: its vertex's best label settles it
        node, wid = verts[u]
        if node == to_node:
            found = tuple(verts[i] for i in path)
            break
        hops += 1
        # a settled vertex's best is below any extension, so it is never pushed
        # again; a new label builds its path only when (weight, hops) ties
        v = mate[u]
        w = weight + t_tr
        b = best[v]
        if (w < b[0] or w == b[0] and (hops < b[1] or hops == b[1] and path + (v,) < b[2])) \
                and (now is None or g.usable(wid, now)):
            best[v] = label = (w, hops, path + (v,))
            push(heap, label)
        # u's label at position k is its key shifted by the position's start
        lead = weight - start[u]
        key = (lead, hops, path)
        k = walk_from[u]
        while marks[k] > key:
            marks[k] = key
            v = ids[k]
            w = lead + starts[k]
            k += 1
            b = best[v]
            if w < b[0] or w == b[0] and (hops < b[1] or hops == b[1] and path + (v,) < b[2]):
                best[v] = label = (w, hops, path + (v,))
                push(heap, label)
        for v, gap in enclosing[u]:
            w = weight + gap
            b = best[v]
            if w < b[0] or w == b[0] and (hops < b[1] or hops == b[1] and path + (v,) < b[2]):
                best[v] = label = (w, hops, path + (v,))
                push(heap, label)
    g._memo[memo_key] = found
    if found is not None and now is not None:
        # an entry gives way only to a search at an earlier instant, which
        # admits more later ones: a replay plans at rising instants, but the
        # generator's benign replay plans earlier than its attacked one
        tails = g._tails
        for k, v in enumerate(found[:-1]):
            if (v, to_node) not in tails or now < tails[v, to_node][0]:
                tails[v, to_node] = (now, found, k)
    return found


# ---------------------------------------------------------------------------
# trace embedding

def embed_trace(g: Twig, trace: PacketTrace) -> TwigPath:
    """Map a physical hop sequence onto graph vertices.

    A hop is rejected when no encounter of its node pair carries it from the
    send instant (reception time minus t_tr) to the arrival.  It crosses the
    latest split window of the pair that contains the send instant; that need
    not be a piece of the carrying encounter, as a nested piece can hold a
    longer one's send instant.  Between a relay's receive window and its send
    window, the relay's other windows that also contain the upcoming send
    instant are inserted in span order, which reproduces the same-node vertex
    runs of hand-worked followed paths.  A hop's recorded window and send
    instant, when given, must be those two.
    """
    hops = trace.hops
    if len(hops) < 2:
        raise InconsistentTrace("trace has no transmissions to embed")
    verts: list[TwigVertex] = []
    recv: TimeWindow | None = None  # the piece the relay, node a, received over
    for i in range(1, len(hops)):
        a, b = hops[i - 1].node, hops[i].node
        send = hops[i].reception_time - g.t_tr
        if not any(g.original_of(p.wid).carries(send, g.t_tr) for p in g.windows_of_pair(a, b)):
            raise InconsistentTrace(
                f"hop {i}: no encounter between nodes {a} and {b} lasts from send instant "
                f"{to_seconds(send)} to arrival {to_seconds(hops[i].reception_time)}"
            )
        # the encounter holds send, and its pieces tile it, so one of them does
        w = g.send_window(a, b, send)
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
        if recv is not None and recv.wid != w.wid:
            # the receive vertex, then the relay's pieces between recv and w
            # that hold send: the run is monotone in (start, end, wid), and each
            # step u -> v is an arc as v ends after u starts: v holds send, and
            # u starts no later than v (ascending; windows are never empty) or
            # than recv (descending), which holds the earlier previous send instant
            kr, ks = _wkey(recv), _wkey(w)
            verts.append(TwigVertex(a, recv.wid))
            verts += [TwigVertex(a, p.wid) for p in sorted(
                (p for p in g.windows_of_node(a)
                 if p.start <= send <= p.end and min(kr, ks) < _wkey(p) < max(kr, ks)),
                key=_wkey, reverse=kr > ks)]
        verts.append(TwigVertex(a, w.wid))  # also the receive vertex when recv is w
        recv = w
    verts.append(TwigVertex(b, w.wid))
    return _path(g, tuple(verts))


# ---------------------------------------------------------------------------
# dumps

def graph_to_dict(g: Twig) -> dict:
    """graph.json's content as a dict, parsed from the text _graph_json streams."""
    return json.loads("".join(_graph_json(g)))


_CHUNK_ROWS = 128  # rows per yielded chunk of either dump
_VERTEX_ROW = ('    {\n      "node": %d,\n      "wid": %d,\n      "label": %s,\n'
               '      "start": %r,\n      "end": %r\n    }')
# an edge row is a head per source vertex, a lead per target node, a block
# per target vertex and a tail per (weight, origin)
_EDGE_HEAD = '    {\n      "u": [\n        %d,\n        %d\n      ],\n'
_EDGE_LEAD = '      "v": [\n        %d,\n'
_EDGE_TARGET = '        %d\n      ],\n'
_EDGE_TAILS = {
    origin: (f'      "kind": {encode_basestring_ascii(kind)},\n      "weight": %r,\n'
             f'      "origin": {encode_basestring_ascii(origin)}\n    }}')
    for origin, kind in (("succession", "directed"), ("containment", "undirected"),
                         ("within_window", "undirected"))}
_TAIL_MEMO = 1024  # most edge tails _edge_rows keeps at once


def _edge_rows(g: Twig, head: Callable[[int], str], lead: Callable[[NodeId], str],
               target: Callable[[int], str], tail: Callable[[int, str], str]
               ) -> Iterator[list[str]]:
    """Every edge once as the row head(u) + lead(v's node) + target(v) + tail(weight,
    origin), in (u, v) vertex order, in lists of _CHUNK_ROWS rows (the last may be short).

    An undirected edge runs from the lower node id across a window, and from
    the containing window into the inner one; of two equal spans, the lower
    wid contains the other.  Succession edges run forward in time.  u's
    same-node edges go to the vertices of its node, one range of ids, whose
    window ends after u's starts; u itself fails the strict key comparison.
    The mate's node is higher, so its id follows them.

    One scan per node's range makes its lead once and each of its vertices'
    targets once, and head(u) + lead once per source.  The mate edge makes
    its own lead and target; its tail is made once.  A same-node tail is
    made once per distinct (weight, origin) while the memo, emptied when it
    reaches _TAIL_MEMO entries, holds it.  No call is made per edge.
    """
    verts, start, mate, piece = g.vertices, g._start, g._mate, g._piece
    # the tail memo, by weight, one dict per same-node origin
    succ: dict[int, str] = {}
    cont: dict[int, str] = {}
    mate_tail = tail(g.t_tr, "within_window") if verts else ""
    rows: list[str] = []
    lo = 0
    while lo < len(verts):
        node = verts[lo].node
        hi = bisect_left(verts, (node + 1,), lo)
        near = lead(node)
        wids = [wid for _, wid in verts[lo:hi]]
        starts, ends = start[lo:hi], [piece[wid].end for wid in wids]
        blocks = [target(v) for v in range(lo, hi)]
        for u, s, e, wid in zip(range(lo, hi), starts, ends, wids):
            text = head(u)
            first = text + near
            for sv, ev, wv, block in zip(starts, ends, wids, blocks):
                if ev <= s:
                    continue
                if e <= sv:
                    memo, origin = succ, "succession"
                elif s < sv or s == sv and (ev < e or ev == e and wid < wv):
                    memo, origin = cont, "containment"
                else:
                    continue
                last = memo.get(sv - s)
                if last is None:
                    if len(succ) + len(cont) == _TAIL_MEMO:
                        succ.clear()
                        cont.clear()
                    last = memo[sv - s] = tail(sv - s, origin)
                rows.append(first + block + last)
                if len(rows) == _CHUNK_ROWS:
                    yield rows
                    rows = []
            m = mate[u]
            if u < m:
                rows.append(text + lead(verts[m].node) + target(m) + mate_tail)
                if len(rows) == _CHUNK_ROWS:
                    yield rows
                    rows = []
        lo = hi
    if rows:
        yield rows


def _graph_json(g: Twig) -> Iterator[str]:
    """graph.json's text, in chunks, with no dict per vertex or edge.

    Each vertex and edge is a row of template text at the indent
    json.dumps(indent=2) writes, and %r of a float is the repr json writes,
    so the text is what json.dumps of the same content as a dict would write.
    """
    verts, piece, labels = g.vertices, g._piece, g._labels
    yield '{\n  "t_tr": %r,\n  "vertices": ' % to_seconds(g.t_tr)
    yield from _json_list(
        [_VERTEX_ROW % (node, wid, encode_basestring_ascii(labels[wid]),
                        to_seconds(piece[wid].start), to_seconds(piece[wid].end))
         for node, wid in verts[i:i + _CHUNK_ROWS]]
        for i in range(0, len(verts), _CHUNK_ROWS))
    yield ',\n  "edges": '
    yield from _json_list(_edge_rows(
        g, lambda u: _EDGE_HEAD % verts[u], _EDGE_LEAD.__mod__,
        lambda v: _EDGE_TARGET % verts[v].wid,
        lambda weight, origin: _EDGE_TAILS[origin] % to_seconds(weight)))
    yield "\n}\n"


def _json_list(batches: Iterable[list[str]]) -> Iterator[str]:
    """A list one level down in an indent-2 json.dumps document, a batch of rows at a time."""
    sep = "[\n"
    for batch in batches:
        yield sep + ",\n".join(batch)
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def to_dot(g: Twig, node_label: Callable[[NodeId], str] = str) -> str:
    """Render the graph in DOT form; undirected edges are drawn without arrowheads."""
    return "".join(_dot_lines(g, node_label))


_DOT_STYLES = {"succession": "", "containment": ", dir=none, style=dashed",
               "within_window": ", dir=none"}


def _dot_lines(g: Twig, node_label: Callable[[NodeId], str]) -> Iterator[str]:
    """to_dot's text, a line per vertex, then the edge lines _CHUNK_ROWS at a time."""
    def quoted(v: TwigVertex) -> str:
        label = g.vertex_label(v, node_label)
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    def attrs(weight: int, origin: str) -> str:
        x = to_seconds(weight)
        text = f"{x:g}"
        if float(text) != x:  # six significant digits would merge distinct weights
            text = repr(x)
        return f' [label="{text}"{_DOT_STYLES[origin]}];\n'

    names = [quoted(v) for v in g.vertices]
    yield "digraph twig {\n"
    for name in names:
        yield f"  {name};\n"
    for batch in _edge_rows(g, lambda u: f"  {names[u]} -> ", lambda node: "",
                            names.__getitem__, attrs):
        yield "".join(batch)
    yield "}\n"

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
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
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
    within-window mate and where its same-node arcs begin in its node's run.
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
        # sequences compares vertex sequences and the search's tie-break holds
        self.vertices = verts = tuple(sorted(
            [TwigVertex(w.a, w.wid) for w in self.split_windows]
            + [TwigVertex(w.b, w.wid) for w in self.split_windows]))
        self._ix = ix = {v: i for i, v in enumerate(verts)}
        windows = [self._piece[wid] for _, wid in verts]
        self._start = [w.start for w in windows]
        self._mate = [ix[(w.other(n), w.wid)] for (n, _), w in zip(verts, windows)]
        # a node's run: its vertex ids sorted by window end, with their window
        # starts alongside; the same-node arcs of u go to the run's vertices
        # other than u whose window ends after u's starts, a suffix found by
        # bisection, and weigh the gap between the two starts
        ids_of: dict[NodeId, list[int]] = {}
        for i, (n, _) in enumerate(verts):
            ids_of.setdefault(n, []).append(i)
        self._run: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())] * len(verts)
        self._run_from = [0] * len(verts)
        for n, ids in ids_of.items():
            ids.sort(key=lambda i: windows[i].end)
            ends = [windows[i].end for i in ids]
            run = (tuple(ids), tuple([windows[i].start for i in ids]))
            for i in ids:
                self._run[i] = run
                self._run_from[i] = bisect_right(ends, windows[i].start)

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
    if start not in g._ix:
        raise ValueError(f"vertex {start} is not in the graph")
    found = _search(g, [(0, start)], to_node, now)
    if found is None:
        return None
    return _path(g, found[2])


def _path(g: Twig, verts: tuple[TwigVertex, ...]) -> TwigPath:
    """The path along verts, each arc weighed from its two windows as Twig.arc_weight does:
    t_tr where the node changes, else the gap between the two window starts."""
    piece = g._piece
    weights = tuple(g.t_tr if nu != nv else abs(piece[wv].start - piece[wu].start)
                    for (nu, wu), (nv, wv) in zip(verts, verts[1:]))
    return TwigPath(verts, sum(weights), weights)


_NO_LABEL = (float("inf"), 0, ())


def _search(g: Twig, seeds: Iterable[tuple[int, tuple[NodeId, int]]], to_node: NodeId,
            now: int | None) -> tuple[int, int, tuple[TwigVertex, ...]] | None:
    """Least (weight, hops, vertex sequence) label reaching to_node, or None.

    Each seed (offset, (node, wid)) starts a path at that vertex with the offset as
    its weight, so one search ranks every seed at once.  The order is total
    and survives extension by an arc, so arc order cannot change the result,
    and a label no smaller than one already pushed for its vertex can never
    settle it: only labels that beat their vertex's best are pushed.  Labels
    carry vertex ids, whose order is the vertex order, and the answer holds
    the graph's own vertices.  The graph never changes, so it answers a
    repeated search from its memo.

    A search from one vertex at offset 0, gated at now, is also answered by
    the rest of a path P an earlier search gated at now0 <= now found through
    that vertex to to_node, when every crossing of that rest is usable at now:
    usable only shrinks as now grows, since a piece lies inside its original;
    a suffix of a least (weight, hops, vertex sequence) path is least from its
    first vertex; so a suffix that is still usable beats every path in the
    smaller graph.
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
                p = _path(g, path[k:])
                found = g._memo[memo_key] = (p.total_weight, p.hops, p.vertices)
                return found
    verts, start, mate, run, run_from = g.vertices, g._start, g._mate, g._run, g._run_from
    t_tr = g.t_tr
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
            found = weight, hops, tuple(verts[i] for i in path)
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
        s = start[u]
        ids, starts = run[u]
        for k in range(run_from[u], len(ids)):
            v = ids[k]
            w = weight + abs(starts[k] - s)
            b = best[v]
            if w < b[0] or w == b[0] and (hops < b[1] or hops == b[1] and path + (v,) < b[2]):
                best[v] = label = (w, hops, path + (v,))
                push(heap, label)
    g._memo[memo_key] = found
    if found is not None and now is not None:
        # an entry gives way only to a search at an earlier instant, which
        # admits more later ones: a replay plans at rising instants, but the
        # generator's benign replay plans earlier than its attacked one
        tails, route = g._tails, found[2]
        for k, v in enumerate(route[:-1]):
            if (v, to_node) not in tails or now < tails[v, to_node][0]:
                tails[v, to_node] = (now, route, k)
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

def _edges(g: Twig) -> Iterator[tuple[int, int, int, str]]:
    """Every edge once as (u id, v id, weight, origin), in (u, v) vertex order.

    An undirected edge runs from the lower node id across a window, and from
    the containing window into the inner one; of two equal spans, the lower
    wid contains the other.  Succession edges run forward in time.  u's
    same-node edges go to the vertices of its node, one range of ids, whose
    window ends after u's starts; u itself fails the strict key comparison.
    The mate's node is higher, so its id follows them.
    """
    verts, start, mate = g.vertices, g._start, g._mate
    end = [g._piece[wid].end for _, wid in verts]
    hi = 0
    for u, (node, wid) in enumerate(verts):
        if u == hi:  # u opens its node's range of ids
            lo, hi = u, bisect_left(verts, (node + 1,), u)
        s, e = start[u], end[u]
        for v in range(lo, hi):
            if end[v] > s:
                if e <= start[v]:
                    yield u, v, start[v] - s, "succession"
                elif (s, -e, wid) < (start[v], -end[v], verts[v].wid):
                    yield u, v, start[v] - s, "containment"
        if u < mate[u]:
            yield u, mate[u], g.t_tr, "within_window"


def graph_to_dict(g: Twig) -> dict:
    """graph.json's content as a dict, parsed from the text _graph_json streams."""
    return json.loads("".join(_graph_json(g)))


_CHUNK_ROWS = 128  # rows per yielded chunk of graph.json
_VERTEX_ROW = ('    {\n      "node": %d,\n      "wid": %d,\n      "label": %s,\n'
               '      "start": %r,\n      "end": %r\n    }')
# an edge row is a head per source vertex, a block per target vertex and a
# tail per (weight, origin)
_EDGE_HEAD = '    {\n      "u": [\n        %d,\n        %d\n      ],\n'
_EDGE_TARGET = '      "v": [\n        %d,\n        %d\n      ],\n'
_EDGE_TAILS = {
    origin: (f'      "kind": {encode_basestring_ascii(kind)},\n      "weight": %r,\n'
             f'      "origin": {encode_basestring_ascii(origin)}\n    }}')
    for origin, kind in (("succession", "directed"), ("containment", "undirected"),
                         ("within_window", "undirected"))}
_TAIL_MEMO = 1024  # most edge tails _edge_texts keeps at once


def _edge_texts(g: Twig, head: Callable[[int], str], target: Callable[[int], str],
                tail: Callable[[int, str], str]) -> Iterator[str]:
    """Each edge of _edges as head(u) + target(v) + tail(weight, origin).

    A head is made once per source vertex and a tail once per distinct
    (weight, origin).  The memo of tails is emptied when it reaches
    _TAIL_MEMO entries, so a graph whose weights are all distinct cannot
    grow it past that.
    """
    tails: dict[tuple[int, str], str] = {}
    last = -1
    for u, v, weight, origin in _edges(g):
        if u != last:
            last, text = u, head(u)
        end = tails.get((weight, origin))
        if end is None:
            if len(tails) == _TAIL_MEMO:
                tails.clear()
            end = tails[weight, origin] = tail(weight, origin)
        yield text + target(v) + end


def _graph_json(g: Twig) -> Iterator[str]:
    """graph.json's text, in chunks, with no dict per vertex or edge.

    Each vertex and edge is a row of template text at the indent
    json.dumps(indent=2) writes, and %r of a float is the repr json writes,
    so the text is what json.dumps of the same content as a dict would write.
    """
    verts, piece, labels = g.vertices, g._piece, g._labels
    yield '{\n  "t_tr": %r,\n  "vertices": ' % to_seconds(g.t_tr)
    yield from _json_list(
        _VERTEX_ROW % (node, wid, encode_basestring_ascii(labels[wid]),
                       to_seconds(piece[wid].start), to_seconds(piece[wid].end))
        for node, wid in verts)
    yield ',\n  "edges": '
    yield from _json_list(_edge_texts(
        g, lambda u: _EDGE_HEAD % verts[u], lambda v: _EDGE_TARGET % verts[v],
        lambda weight, origin: _EDGE_TAILS[origin] % to_seconds(weight)))
    yield "\n}\n"


def _json_list(rows: Iterator[str]) -> Iterator[str]:
    """A list one level down in an indent-2 json.dumps document, _CHUNK_ROWS rows at a time."""
    sep = "[\n"
    for batch in iter(lambda: list(islice(rows, _CHUNK_ROWS)), []):
        yield sep + ",\n".join(batch)
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"


def to_dot(g: Twig, node_label: Callable[[NodeId], str] = str) -> str:
    """Render the graph in DOT form; undirected edges are drawn without arrowheads."""
    return "".join(_dot_lines(g, node_label))


_DOT_STYLES = {"succession": "", "containment": ", dir=none, style=dashed",
               "within_window": ", dir=none"}


def _dot_lines(g: Twig, node_label: Callable[[NodeId], str]) -> Iterator[str]:
    """The lines of to_dot's text, each with its newline."""
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
    yield from _edge_texts(g, lambda u: f"  {names[u]} -> ", names.__getitem__, attrs)
    yield "}\n"

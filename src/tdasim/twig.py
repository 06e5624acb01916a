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
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .scenario import NodeId, TimeWindow, to_seconds

if TYPE_CHECKING:
    from .simulator import PacketTrace


class EmbeddingError(ValueError):
    """A packet trace cannot be realized as a walk in the graph."""


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
    weights: tuple[int, ...] = ()

    @property
    def hops(self) -> int:
        return len(self.vertices) - 1


@dataclass
class Twig:
    """Immutable after build(); all query methods are read-only.

    Holds the split pieces and O(pieces) index state over them, never arcs:
    the vertices in (node, wid) order, numbered in that order, and per vertex
    its window start, its within-window mate and where its same-node arcs
    begin in its node's run.
    The one thing that grows is a memo of the searches asked of the graph.
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
        by_pair: dict[tuple[NodeId, NodeId], list[TimeWindow]] = {}
        for w in self.split_windows:
            by_pair.setdefault(w.pair, []).append(w)
        self._by_pair = {p: tuple(sorted(ws, key=_wkey)) for p, ws in by_pair.items()}
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
        self._by_node: dict[NodeId, tuple[TimeWindow, ...]] = {}
        self._run: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())] * len(verts)
        self._run_from = [0] * len(verts)
        for n, ids in ids_of.items():
            self._by_node[n] = tuple(sorted([windows[i] for i in ids], key=_wkey))
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

    def windows_of_node(self, node: NodeId) -> tuple[TimeWindow, ...]:
        return self._by_node.get(node, ())

    def windows_of_pair(self, a: NodeId, b: NodeId) -> tuple[TimeWindow, ...]:
        pair = (a, b) if a < b else (b, a)
        return self._by_pair.get(pair, ())

    def arc_weight(self, u: TwigVertex, v: TwigVertex) -> int | None:
        if not (u in self._ix and v in self._ix):
            return None
        return _arc(self.t_tr, u.node, self._piece[u.wid], v.node, self._piece[v.wid])

    def usable(self, wid: int, now: int) -> bool:
        """Could a transmission over this split window start no earlier than now?

        The send may run past the split boundary: the physical constraint is
        the end of the original encounter, not of the artificial piece.
        """
        w = self._piece[wid]
        if w.end < now:
            return False
        return max(w.start, now) + self.t_tr <= self.original_of(wid).end

    def send_window(self, a: NodeId, b: NodeId, send: int) -> TimeWindow | None:
        """Latest split window of the pair whose span contains the send instant."""
        return _latest_containing(self.windows_of_pair(a, b), send)


def _wkey(w: TimeWindow) -> tuple[int, int, int]:
    return (w.start, w.end, w.wid)


def _latest_containing(pieces: Sequence[TimeWindow], instant: int) -> TimeWindow | None:
    """The last of the pieces, in (start, end, wid) order, whose span contains instant."""
    return next((w for w in reversed(pieces) if w.start <= instant <= w.end), None)


def _arc(t_tr: int, nu: NodeId, wu: TimeWindow, nv: NodeId, wv: TimeWindow) -> int | None:
    """Weight of the arc from vertex (nu, wu) to (nv, wv), or None.

    The graph's only arc rules; both vertices must be in the graph.  A
    window's endpoints are joined both ways at cost t_tr.  A vertex is joined
    to every other window of its node that ends after its own window starts,
    at the gap between their start times.
    """
    if nu != nv:
        return t_tr if wu.wid == wv.wid else None
    if wu.wid == wv.wid or wv.end <= wu.start:
        return None
    return abs(wv.start - wu.start)


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
    weight, _, verts = found
    piece = g._piece
    arc_weights = tuple(g.t_tr if nu != nv else abs(piece[wv].start - piece[wu].start)
                        for (nu, wu), (nv, wv) in zip(verts, verts[1:]))
    return TwigPath(verts, weight, arc_weights)


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
    """
    seeds = tuple(seeds)
    memo_key = (seeds, to_node, now)
    if memo_key in g._memo:
        return g._memo[memo_key]
    verts, start, mate, run, run_from = g.vertices, g._start, g._mate, g._run, g._run_from
    t_tr = g.t_tr
    best = [_NO_LABEL] * len(verts)  # least label pushed per vertex
    heap = [(offset, 0, (g._ix[v],)) for offset, v in seeds]
    for label in heap:
        i = label[2][0]
        best[i] = min(best[i], label)
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    done = bytearray(len(verts))
    found = None
    while heap:
        weight, hops, path = pop(heap)
        u = path[-1]
        if done[u]:
            continue
        done[u] = 1
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
    return found


# ---------------------------------------------------------------------------
# trace embedding

def embed_trace(g: Twig, trace: PacketTrace) -> TwigPath:
    """Map a physical hop sequence onto graph vertices.

    Each hop crosses the latest split window of its node pair that contains
    the send instant (reception time minus t_tr).  Between a relay's receive
    window and its send window, the relay's other windows that also contain
    the upcoming send instant are inserted in span order, which reproduces the
    same-node vertex runs of hand-worked followed paths.
    """
    hops = trace.hops
    if len(hops) < 2:
        raise EmbeddingError("trace has no transmissions to embed")
    crossing: list[TimeWindow] = []
    for i in range(1, len(hops)):
        send = hops[i].reception_time - g.t_tr
        w = g.send_window(hops[i - 1].node, hops[i].node, send)
        if w is None:
            raise EmbeddingError(
                f"hop {i}: no window between nodes {hops[i - 1].node} and "
                f"{hops[i].node} contains send instant {to_seconds(send)}"
            )
        if hops[i].window is not None and hops[i].window != w.wid:
            raise EmbeddingError(
                f"hop {i}: recorded window {hops[i].window} does not contain "
                f"send instant {to_seconds(send)} (expected {w.wid})"
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
        for v2, w2 in _same_node_run(g, node, crossing[i - 1], crossing[i],
                                     hops[i + 1].reception_time - g.t_tr, hop=i):
            verts.append(v2)
            weights.append(w2)
    return TwigPath(tuple(verts), sum(weights), tuple(weights))


def _same_node_run(
    g: Twig, node: NodeId, recv: TimeWindow, send: TimeWindow, send_instant: int, hop: int,
) -> list[tuple[TwigVertex, int]]:
    if recv.wid == send.wid:
        return []
    kr, ks = _wkey(recv), _wkey(send)
    mids = [w for w in g.windows_of_node(node)
            if w.start <= send_instant <= w.end and min(kr, ks) < _wkey(w) < max(kr, ks)]
    if kr > ks:
        mids.reverse()
    run = [recv, *mids, send]
    arcs = [_arc(g.t_tr, node, u, node, v) for u, v in zip(run, run[1:])]
    if None in arcs:  # fall back to the direct arc
        run, arcs = [recv, send], [_arc(g.t_tr, node, recv, node, send)]
    if arcs[0] is None:
        raise EmbeddingError(
            f"hop {hop}: node {node} cannot move from window {recv.wid} to {send.wid}"
        )
    return [(TwigVertex(node, w.wid), arc) for w, arc in zip(run[1:], arcs)]


# ---------------------------------------------------------------------------
# dumps

def _edges(g: Twig) -> Iterator[tuple[int, int, int, str]]:
    """Every edge once as (u id, v id, weight, origin), in (u, v) vertex order.

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


def graph_to_dict(g: Twig) -> dict:
    verts = []
    for v in g.vertices:
        w = g.window(v.wid)
        verts.append({
            "node": v.node,
            "wid": v.wid,
            "label": g.window_label(v.wid),
            "start": to_seconds(w.start),
            "end": to_seconds(w.end),
        })
    edges = []
    for u, v, weight, origin in _edges(g):
        edges.append({
            "u": list(g.vertices[u]),
            "v": list(g.vertices[v]),
            "kind": "directed" if origin == "succession" else "undirected",
            "weight": to_seconds(weight),
            "origin": origin,
        })
    return {"t_tr": to_seconds(g.t_tr), "vertices": verts, "edges": edges}


_CHUNK_ROWS = 128
_VERTEX_ROW = ('    {\n      "node": %d,\n      "wid": %d,\n      "label": %s,\n'
               '      "start": %r,\n      "end": %r\n    }')


def _edge_row(origin: str) -> str:
    kind = "directed" if origin == "succession" else "undirected"
    return ('    {\n      "u": [\n        %d,\n        %d\n      ],\n'
            '      "v": [\n        %d,\n        %d\n      ],\n'
            f'      "kind": {encode_basestring_ascii(kind)},\n      "weight": %r,\n'
            f'      "origin": {encode_basestring_ascii(origin)}\n    }}')


_EDGE_ROWS = {o: _edge_row(o) for o in ("succession", "containment", "within_window")}


def _graph_json(g: Twig) -> Iterator[str]:
    """The text of dumps(graph_to_dict(g)), in chunks, with no dict per vertex or edge.

    Each vertex and edge is one template row at the indent json.dumps(indent=2)
    writes, and %r of a float is the repr json writes, so the bytes are equal.
    """
    verts, piece, labels = g.vertices, g._piece, g._labels
    yield '{\n  "t_tr": %r,\n  "vertices": ' % to_seconds(g.t_tr)
    yield from _json_list(
        _VERTEX_ROW % (node, wid, encode_basestring_ascii(labels[wid]),
                       to_seconds(piece[wid].start), to_seconds(piece[wid].end))
        for node, wid in verts)
    yield ',\n  "edges": '
    yield from _json_list(
        _EDGE_ROWS[origin] % (verts[u] + verts[v] + (to_seconds(weight),))
        for u, v, weight, origin in _edges(g))
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


def _dot_lines(g: Twig, node_label: Callable[[NodeId], str]) -> Iterator[str]:
    """The lines of to_dot's text, each with its newline."""
    def quoted(v: TwigVertex) -> str:
        label = g.vertex_label(v, node_label)
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    names = [quoted(v) for v in g.vertices]
    yield "digraph twig {\n"
    for name in names:
        yield f"  {name};\n"
    for u, v, weight, origin in _edges(g):
        x = to_seconds(weight)
        text = f"{x:g}"
        if float(text) != x:  # six significant digits would merge distinct weights
            text = repr(x)
        attrs = f'label="{text}"'
        if origin != "succession":
            attrs += ", dir=none"
        if origin == "containment":
            attrs += ", style=dashed"
        yield f"  {names[u]} -> {names[v]} [{attrs}];\n"
    yield "}\n"

"""Malicious-relay detection from a delivered packet trace.

Global mode embeds the trace into the time-window graph and walks backward
from the destination: a relay is flagged when the weight of the followed-path
segment from its receive vertex to the current anchor exceeds the weight of
the shortest path between the same endpoints, restricted to windows usable at
the relay's reception time.  Local mode checks each reception against the
observer's own window tables and the two most recent relay records carried by
the message.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType
from typing import Any, Callable, Mapping, Union

from .scenario import NodeId, Scenario, TimeWindow, to_seconds
from .simulator import PacketTrace
from .twig import InconsistentTrace, Twig, _latest_containing, embed_trace, shortest_path

Label = Callable[[NodeId], str]


# ---------------------------------------------------------------------------
# JSON form: fields are written in declaration order, so dumps are diffable;
# a value is written as is unless its field states a conversion through _as,
# and None is always written as null

def _as(convert: Callable[[Any, Label], Any], default: Any = MISSING) -> Any:
    """A dataclass field written to JSON as convert(value, label)."""
    return field(default=default, metadata={"json": convert})


def _node(n: NodeId, label: Label) -> str:
    return label(n)


def _nodes(ns: tuple[NodeId, ...], label: Label) -> list[str]:
    return [label(n) for n in ns]


def _seconds(t: int, label: Label) -> float:
    return to_seconds(t)


def _each(items: tuple, label: Label) -> list[dict]:
    return [_to_dict(x, label) for x in items]


def _to_dict(obj: Any, label: Label) -> dict:
    """The JSON form of a dataclass, each field converted as it states."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        convert = f.metadata.get("json")
        out[f.name] = value if value is None or convert is None else convert(value, label)
    return out


@dataclass(frozen=True)
class GlobalCheck:
    """One backward-scan comparison (segment weight vs. shortest-path weight)."""

    node: NodeId = _as(_node)
    reception_time: int = _as(_seconds)
    anchor: NodeId = _as(_node)
    segment_weight: int = _as(_seconds)
    shortest_weight: int | None = _as(_seconds)
    flagged: bool
    inconclusive: bool = False


@dataclass(frozen=True)
class LocalCheck:
    """One timing condition evaluated by an observer against a subject node."""

    observer: NodeId = _as(_node)
    subject: NodeId = _as(_node)
    kind: str  # "predecessor" or "skipped_window"
    flagged: bool
    window: int | None = None  # wid consulted (split for predecessor checks)
    delta: int | None = _as(_seconds, None)  # reception time minus window start
    immediate: bool | None = None  # predecessor forwarded with zero dwell
    held_until: int | None = _as(_seconds, None)  # two-hop: earliest the subject could deliver
    earliest_via_prev: int | None = _as(_seconds, None)  # two-hop: earliest arrival via the route taken


@dataclass(frozen=True)
class DetectionReport:
    mode: str  # "global" | "local"
    flagged: tuple[NodeId, ...] = _as(_nodes)
    evidence: tuple[Union[GlobalCheck, LocalCheck], ...] = _as(_each)
    observer: NodeId | None = _as(_node, None)
    fp_weight: int | None = _as(_seconds, None)
    sp_weight: int | None = _as(_seconds, None)


@dataclass(frozen=True)
class RelayInfo:
    node: NodeId
    reception_time: int


@dataclass(frozen=True)
class HopMetadata:
    """The two most recent relay records carried with the message."""

    info_1: RelayInfo | None = None  # two hops back
    info_2: RelayInfo | None = None  # immediate predecessor


@dataclass(frozen=True)
class NeighborTables:
    """Everything one node knows: its encounter windows and two-hop contacts."""

    node: NodeId
    one_hop: frozenset[NodeId]
    two_hop: frozenset[NodeId]
    originals: Mapping[NodeId, tuple[TimeWindow, ...]]
    pieces: Mapping[NodeId, tuple[TimeWindow, ...]]

    @classmethod
    def from_scenario(cls, s: Scenario, g: Twig, node: NodeId) -> "NeighborTables":
        """The tables of node, read from the graph built over s's windows.

        Split pieces keep their pair, so the graph's pieces by neighbor name
        the node's contacts and, through theirs, its two-hop neighborhood.
        The graph never changes, so the tables are made once per node and kept
        in its instance __dict__, which its equality and repr ignore; every
        caller shares them, so their mappings are read-only.
        """
        kept = vars(g).setdefault("neighbor_tables", {})
        if node not in kept:
            pieces = g.windows_by_neighbor(node)
            one = frozenset(pieces)
            two = one.union(*map(g.windows_by_neighbor, one)) - {node}
            originals = {nbr: tuple(sorted({g.original_of(w.wid) for w in ws},
                                           key=lambda w: (w.start, w.wid)))
                         for nbr, ws in pieces.items()}
            kept[node] = cls(node, one, two, MappingProxyType(originals), pieces)
        return kept[node]


def detect_global(g: Twig, trace: PacketTrace) -> DetectionReport:
    """Backward shortest-path comparison over the whole trace (needs full knowledge)."""
    if not trace.delivered:
        raise InconsistentTrace("only delivered traces can be checked")
    fp = embed_trace(g, trace)
    receive_idx = [0]
    for k in range(1, len(fp.vertices)):
        if fp.vertices[k].node != fp.vertices[k - 1].node:
            receive_idx.append(k)
    assert len(receive_idx) == len(trace.hops)
    prefix = [0]
    for w in fp.weights:
        prefix.append(prefix[-1] + w)
    sp0 = shortest_path(g, fp.vertices[0], trace.destination,
                        now=trace.hops[0].reception_time)
    sp0_weight = None if sp0 is None else sp0.total_weight
    if sp0_weight == fp.total_weight:
        return DetectionReport("global", (), (), fp_weight=fp.total_weight,
                               sp_weight=sp0_weight)
    checks: list[GlobalCheck] = []
    flagged: list[NodeId] = []
    anchor_vi = len(fp.vertices) - 1
    anchor_node = trace.destination
    for i in range(len(trace.hops) - 2, -1, -1):
        node = trace.hops[i].node
        now = trace.hops[i].reception_time
        seg = prefix[anchor_vi] - prefix[receive_idx[i]]
        sp = shortest_path(g, fp.vertices[receive_idx[i]], anchor_node, now=now)
        if sp is None:
            checks.append(GlobalCheck(node, now, anchor_node, seg, None,
                                      flagged=False, inconclusive=True))
            continue
        hit = seg > sp.total_weight
        checks.append(GlobalCheck(node, now, anchor_node, seg, sp.total_weight, hit))
        if hit:
            flagged.append(node)
            anchor_vi = receive_idx[i]
            anchor_node = node
    return DetectionReport("global", tuple(sorted(set(flagged))), tuple(checks),
                           fp_weight=fp.total_weight, sp_weight=sp0_weight)


def detect_local(
    observer: NodeId,
    rt_self: int,
    meta: HopMetadata,
    tables: NeighborTables,
    t_tr: int,
) -> DetectionReport:
    """Timing checks one receiver can run with only its own tables and the
    carried metadata; constant work per invocation."""
    if meta.info_2 is None:
        raise InconsistentTrace("metadata lacks the immediate predecessor")
    pred = meta.info_2.node
    send = rt_self - t_tr
    piece = _latest_containing(tables.pieces.get(pred, ()), send)
    if piece is None:
        raise InconsistentTrace(
            f"no window between {observer} and {pred} contains the send instant"
        )
    delta = rt_self - piece.start
    # a send at the window's start is always prompt; otherwise the predecessor
    # must have relayed with zero dwell
    immediate = None if delta == t_tr else meta.info_2.reception_time + t_tr == rt_self
    checks = [LocalCheck(observer, pred, "predecessor", immediate is False,
                         window=piece.wid, delta=delta, immediate=immediate)]
    flagged = [pred] if immediate is False else []
    if meta.info_1 is not None and meta.info_1.node in tables.one_hop:
        subject = meta.info_1.node
        held_until = meta.info_1.reception_time + t_tr
        earliest_via_prev = meta.info_2.reception_time + t_tr
        witness = None
        for w in tables.originals.get(subject, ()):
            if held_until < w.end and earliest_via_prev > w.start:
                witness = w
                break
        checks.append(LocalCheck(
            observer, subject, "skipped_window", witness is not None,
            window=None if witness is None else witness.wid,
            held_until=held_until, earliest_via_prev=earliest_via_prev,
        ))
        if witness is not None:
            flagged.append(subject)
    return DetectionReport("local", tuple(sorted(set(flagged))), tuple(checks),
                           observer=observer)


@dataclass(frozen=True)
class Alert:
    """Propagation bookkeeping: who learns about a flag (never alters routing)."""

    observer: NodeId = _as(_node)
    flagged: NodeId = _as(_node)
    informed: tuple[NodeId, ...] = _as(_nodes)  # the observer's two-hop neighborhood


@dataclass(frozen=True)
class LocalScan:
    reports: tuple[DetectionReport, ...]
    alerts: tuple[Alert, ...]

    def merged_flagged(self) -> tuple[NodeId, ...]:
        out: set[NodeId] = set()
        for r in self.reports:
            out.update(r.flagged)
        return tuple(sorted(out))


def run_local_pipeline(s: Scenario, g: Twig, trace: PacketTrace) -> LocalScan:
    """Replay the trace, running the local detector at every receiving node."""
    reports: list[DetectionReport] = []
    alerts: list[Alert] = []
    hops = trace.hops
    for i in range(1, len(hops)):
        observer = hops[i].node
        tables = NeighborTables.from_scenario(s, g, observer)
        meta = HopMetadata(
            info_1=None if i < 2 else RelayInfo(hops[i - 2].node, hops[i - 2].reception_time),
            info_2=RelayInfo(hops[i - 1].node, hops[i - 1].reception_time),
        )
        report = detect_local(observer, hops[i].reception_time, meta, tables, s.t_tr)
        reports.append(report)
        for node in report.flagged:
            alerts.append(Alert(observer, node, tuple(sorted(tables.two_hop))))
    return LocalScan(tuple(reports), tuple(alerts))


# ---------------------------------------------------------------------------
# whole-report JSON

def report_to_dict(report: DetectionReport, label: Label = str) -> dict:
    """The report's fields, leaving out observer, fp_weight and sp_weight when None."""
    return {k: v for k, v in _to_dict(report, label).items()
            if v is not None or k not in ("observer", "fp_weight", "sp_weight")}


def local_scan_to_dict(scan: LocalScan, label: Label = str) -> dict:
    return {
        "mode": "local",
        "flagged": _nodes(scan.merged_flagged(), label),
        "reports": [report_to_dict(r, label) for r in scan.reports],
        "alerts": _each(scan.alerts, label),
    }

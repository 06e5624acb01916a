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

from dataclasses import dataclass
from typing import Callable, Mapping, Union

from .scenario import NodeId, Scenario, TimeWindow, to_seconds
from .simulator import PacketTrace
from .twig import EmbeddingError, Twig, _latest_containing, embed_trace, shortest_path


class InconsistentTrace(ValueError):
    """The trace contradicts the window schedule and cannot be judged."""


@dataclass(frozen=True)
class GlobalCheck:
    """One backward-scan comparison (segment weight vs. shortest-path weight)."""

    node: NodeId
    reception_time: int
    anchor: NodeId
    segment_weight: int
    shortest_weight: int | None
    flagged: bool
    inconclusive: bool = False


@dataclass(frozen=True)
class LocalCheck:
    """One timing condition evaluated by an observer against a subject node."""

    observer: NodeId
    subject: NodeId
    kind: str  # "predecessor" or "skipped_window"
    flagged: bool
    window: int | None = None       # wid consulted (split for predecessor checks)
    delta: int | None = None        # reception time minus window start
    immediate: bool | None = None   # predecessor forwarded with zero dwell
    held_until: int | None = None   # two-hop: earliest the subject could have delivered
    earliest_via_prev: int | None = None  # two-hop: earliest arrival via the route taken


@dataclass(frozen=True)
class DetectionReport:
    mode: str  # "global" | "local"
    flagged: tuple[NodeId, ...]
    evidence: tuple[Union[GlobalCheck, LocalCheck], ...]
    observer: NodeId | None = None
    fp_weight: int | None = None
    sp_weight: int | None = None


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
        """
        pieces = dict(g.windows_by_neighbor(node))
        one = frozenset(pieces)
        two = one.union(*map(g.windows_by_neighbor, one)) - {node}
        originals = {nbr: tuple(sorted({g.original_of(w.wid) for w in ws},
                                       key=lambda w: (w.start, w.wid)))
                     for nbr, ws in pieces.items()}
        return cls(node, one, two, originals, pieces)


def detect_global(g: Twig, trace: PacketTrace) -> DetectionReport:
    """Backward shortest-path comparison over the whole trace (needs full knowledge)."""
    if not trace.delivered:
        raise InconsistentTrace("only delivered traces can be checked")
    try:
        fp = embed_trace(g, trace)
    except EmbeddingError as exc:
        raise InconsistentTrace(str(exc)) from exc
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

    observer: NodeId
    flagged: NodeId
    informed: tuple[NodeId, ...]  # the observer's two-hop neighborhood


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
    tables: dict[NodeId, NeighborTables] = {}
    reports: list[DetectionReport] = []
    alerts: list[Alert] = []
    hops = trace.hops
    for i in range(1, len(hops)):
        observer = hops[i].node
        if observer not in tables:
            tables[observer] = NeighborTables.from_scenario(s, g, observer)
        meta = HopMetadata(
            info_1=None if i < 2 else RelayInfo(hops[i - 2].node, hops[i - 2].reception_time),
            info_2=RelayInfo(hops[i - 1].node, hops[i - 1].reception_time),
        )
        report = detect_local(observer, hops[i].reception_time, meta,
                              tables[observer], s.t_tr)
        reports.append(report)
        for node in report.flagged:
            alerts.append(Alert(observer, node, tuple(sorted(tables[observer].two_hop))))
    return LocalScan(tuple(reports), tuple(alerts))


# ---------------------------------------------------------------------------
# JSON form (field order fixed so dumps are diffable)

def _check_to_dict(check: Union[GlobalCheck, LocalCheck], label: Callable[[NodeId], str]) -> dict:
    if isinstance(check, GlobalCheck):
        return {
            "node": label(check.node),
            "reception_time": to_seconds(check.reception_time),
            "anchor": label(check.anchor),
            "segment_weight": to_seconds(check.segment_weight),
            "shortest_weight": None if check.shortest_weight is None
            else to_seconds(check.shortest_weight),
            "flagged": check.flagged,
            "inconclusive": check.inconclusive,
        }
    return {
        "observer": label(check.observer),
        "subject": label(check.subject),
        "kind": check.kind,
        "flagged": check.flagged,
        "window": check.window,
        "delta": None if check.delta is None else to_seconds(check.delta),
        "immediate": check.immediate,
        "held_until": None if check.held_until is None else to_seconds(check.held_until),
        "earliest_via_prev": None if check.earliest_via_prev is None
        else to_seconds(check.earliest_via_prev),
    }


def report_to_dict(report: DetectionReport, label: Callable[[NodeId], str] = str) -> dict:
    out: dict = {
        "mode": report.mode,
        "flagged": [label(n) for n in report.flagged],
        "evidence": [_check_to_dict(c, label) for c in report.evidence],
    }
    if report.observer is not None:
        out["observer"] = label(report.observer)
    if report.fp_weight is not None:
        out["fp_weight"] = to_seconds(report.fp_weight)
    if report.sp_weight is not None:
        out["sp_weight"] = to_seconds(report.sp_weight)
    return out


def local_scan_to_dict(scan: LocalScan, label: Callable[[NodeId], str] = str) -> dict:
    return {
        "mode": "local",
        "flagged": [label(n) for n in scan.merged_flagged()],
        "reports": [report_to_dict(r, label) for r in scan.reports],
        "alerts": [
            {
                "observer": label(a.observer),
                "flagged": label(a.flagged),
                "informed": [label(n) for n in a.informed],
            }
            for a in scan.alerts
        ],
    }

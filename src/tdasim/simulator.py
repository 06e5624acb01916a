"""Deterministic store-carry-forward replay of one tracked message.

A benign holder forwards along the first physical hop of the minimum-weight
graph path to the destination, restricted to windows usable at the current
instant.  A holder with a configured delay adds it to the planned send time;
when that pushes the transmission past the end of the encounter, the holder
misses the window and falls back to the next window it encounters with any
neighbor, applying the same delay there.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .scenario import (NodeId, Scenario, ScenarioError, _brief, _convert, _json_int, _json_us,
                       _list, _object, _read_json, to_seconds)
from .twig import Twig, _search


@dataclass(frozen=True)
class HopRecord:
    """One reception event; the source entry has no inbound transmission."""

    node: NodeId
    reception_time: int  # microseconds
    window: int | None = None  # split wid the transmission used
    send_time_of_prev: int | None = None


@dataclass(frozen=True)
class PacketTrace:
    source: NodeId
    destination: NodeId
    hops: tuple[HopRecord, ...]
    delivered: bool
    physical_arrival: int | None = None

    def __post_init__(self) -> None:
        if not self.hops or self.hops[0].node != self.source:
            raise ValueError("trace must start at the source")
        if self.hops[0].window is not None or self.hops[0].send_time_of_prev is not None:
            raise ValueError("the source hop has no inbound transmission to record")
        times = [h.reception_time for h in self.hops]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("reception times must strictly increase")
        if self.delivered:
            if self.hops[-1].node != self.destination:
                raise ValueError("delivered trace must end at the destination")
            if self.physical_arrival != self.hops[-1].reception_time:
                raise ValueError("physical_arrival must equal the final reception time")
        elif self.physical_arrival is not None:
            raise ValueError("undelivered trace must have no physical_arrival")
        elif self.hops[-1].node == self.destination:
            raise ValueError("undelivered trace must not end at the destination")

    @property
    def path(self) -> tuple[NodeId, ...]:
        return tuple(h.node for h in self.hops)

    @property
    def hop_count(self) -> int:
        return len(self.hops) - 1


def simulate(s: Scenario, g: Twig | None = None) -> PacketTrace:
    """Replay the tracked message; returns delivered=False when it is dropped."""
    if g is None:
        g = s.graph
    hops = [HopRecord(s.source, s.creation_time)]
    holder, now, recv_wid = s.source, s.creation_time, None
    while holder != s.destination:
        plan = _plan(s, g, holder, now, recv_wid)
        if plan is None:
            return PacketTrace(s.source, s.destination, tuple(hops), False)
        neighbor, wid, planned = plan
        eps = s.attack.delay_us(holder)
        # the plan crosses only windows usable at now, so a zero delay always fits
        if g.original_of(wid).carries(planned + eps, s.t_tr):
            send, target = planned + eps, neighbor
        else:
            hit = _retarget(g, holder, planned, eps)
            if hit is None:
                return PacketTrace(s.source, s.destination, tuple(hops), False)
            send, target = hit
        piece = g.send_window(holder, target, send)
        assert piece is not None, "send instant escaped every window of the pair"
        rt = send + s.t_tr
        hops.append(HopRecord(target, rt, piece.wid, send))
        holder, now, recv_wid = target, rt, piece.wid
    return PacketTrace(s.source, s.destination, tuple(hops), True, now)


def _plan(
    s: Scenario, g: Twig, holder: NodeId, now: int, recv_wid: int | None,
) -> tuple[NodeId, int, int] | None:
    """Benign forwarding decision: (neighbor, crossing wid, planned send time)."""
    if recv_wid is None:
        nh = benign_next_hop(s, g, holder, now)
        if nh is None:
            return None
        neighbor, wid = nh
        return neighbor, wid, max(now, g.window(wid).start)
    route = _search(g, [(0, (holder, recv_wid))], s.destination, now)
    if route is None:
        return None
    # the route runs from the holder to the destination, so it crosses a window
    return next((v.node, u.wid, max(now, g.window(u.wid).start))
                for u, v in zip(route, route[1:]) if u.node != v.node)


def _retarget(g: Twig, holder: NodeId, planned: int, eps: int) -> tuple[int, NodeId] | None:
    """After a miss: next upcoming original window of the holder that survives the delay."""
    encounters = sorted({g.original_of(w.wid) for w in g.windows_of_node(holder)},
                        key=lambda w: (w.start, w.wid))
    for w in encounters:
        if w.start >= planned and w.carries(w.start + eps, g.t_tr):
            return w.start + eps, w.other(holder)
    return None


def benign_next_hop(s: Scenario, g: Twig, holder: NodeId, now: int) -> tuple[NodeId, int] | None:
    """First physical hop a benign holder would take at the given instant.

    One search is seeded with every usable window of the holder at its waiting
    time, so the winner has the least waiting time plus restricted
    shortest-path weight, tie-broken by hop count and then vertex sequence.
    """
    seeds = [
        (max(w.start, now) - now, (holder, w.wid))
        for w in g.windows_of_node(holder)
        if g.usable(w.wid, now)
        # the source transmits only in windows opening after creation
        and not (holder == s.source and g.original_of(w.wid).start < s.creation_time)
    ]
    found = _search(g, seeds, s.destination, now)
    if found is None:
        return None
    wid = found[0].wid  # the seed window the winning path starts from
    return g.window(wid).other(holder), wid


def window_misses(s: Scenario, g: Twig, trace: PacketTrace) -> dict[NodeId, bool]:
    """Per sending node: did its actual send fall outside its benign plan's window?"""
    out: dict[NodeId, bool] = {}
    for i in range(len(trace.hops) - 1):
        h = trace.hops[i]
        # a benign holder at the destination plans no hop
        plan = None if h.node == s.destination else _plan(s, g, h.node, h.reception_time, h.window)
        if plan is None:
            continue
        neighbor, wid, _ = plan
        actual_send = trace.hops[i + 1].reception_time - s.t_tr
        out[h.node] = (trace.hops[i + 1].node != neighbor
                       or not g.original_of(wid).carries(actual_send, s.t_tr))
    return out


# ---------------------------------------------------------------------------
# JSON form

_HOP_KEYS = {"node", "t", "window", "sent_at"}
_TRACE_KEYS = {"source", "destination", "delivered", "physical_arrival", "hops"}


def trace_to_dict(t: PacketTrace) -> dict:
    return {
        "source": t.source,
        "destination": t.destination,
        "delivered": t.delivered,
        "physical_arrival": None if t.physical_arrival is None else to_seconds(t.physical_arrival),
        "hops": [
            {
                "node": h.node,
                "t": to_seconds(h.reception_time),
                "window": h.window,
                "sent_at": None if h.send_time_of_prev is None else to_seconds(h.send_time_of_prev),
            }
            for h in t.hops
        ],
    }


def _optional(convert: Callable) -> Callable:
    return lambda value: None if value is None else convert(value)


def trace_from_dict(data: dict) -> PacketTrace:
    data = _object(data, "trace document", _TRACE_KEYS,
                   ("source", "destination", "delivered", "hops"))
    if not isinstance(data["delivered"], bool):
        raise ScenarioError(f"trace delivered: invalid value {_brief(data['delivered'])}")
    hops = []
    for i, hd in enumerate(_list(data["hops"], "trace hops")):
        hd = _object(hd, f"hop {i}", _HOP_KEYS, ("node", "t"))
        hops.append(HopRecord(
            node=_convert(_json_int, hd["node"], f"hop {i} node"),
            reception_time=_convert(_json_us, hd["t"], f"hop {i} t"),
            window=_convert(_optional(_json_int), hd.get("window"), f"hop {i} window"),
            send_time_of_prev=_convert(_optional(_json_us), hd.get("sent_at"),
                                       f"hop {i} sent_at"),
        ))
    source = _convert(_json_int, data["source"], "trace source")
    destination = _convert(_json_int, data["destination"], "trace destination")
    arrival = _convert(_optional(_json_us), data.get("physical_arrival"),
                       "trace physical_arrival")
    try:
        return PacketTrace(source, destination, tuple(hops), data["delivered"], arrival)
    except ValueError as exc:
        raise ScenarioError(f"invalid trace: {exc}") from exc


def load_trace(path: str | Path) -> PacketTrace:
    return trace_from_dict(_read_json(path, "trace"))

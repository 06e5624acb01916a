"""Domain model for store-carry-forward contact scenarios.

Nodes (UAVs and ground towers) meet during bounded contact windows; a
scenario bundles the node roster, the window list, the per-hop transmission
time and the delay-attack configuration for one tracked message.  All times
are held internally as integer microseconds so that weight arithmetic and
equality tests stay exact; the JSON schema speaks decimal seconds.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import reprlib
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from itertools import accumulate, groupby, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:
    from .twig import Twig

MICROS = 1_000_000

NodeId = int


class ScenarioError(ValueError):
    """Raised when a scenario file or value violates the schema or an invariant."""


_REPR = reprlib.Repr()
_REPR.maxlevel = 2


def _brief(value) -> str:
    """repr(value) cut to one short line, for quoting an input in an error message.

    reprlib stops at a few elements and levels, so a huge or deeply nested
    value costs little and cannot overflow the stack.
    """
    text = _REPR.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def to_us(seconds: float) -> int:
    """Convert decimal seconds to integer microseconds."""
    return round(float(seconds) * MICROS)


def to_seconds(us: int) -> float:
    """Convert integer microseconds back to decimal seconds."""
    return us / MICROS


class NodeKind(str, Enum):
    UAV = "uav"
    TOWER = "tower"


@dataclass(frozen=True)
class Waypoint:
    x: float
    y: float
    z: float
    t: int  # microseconds


@dataclass(frozen=True)
class Node:
    id: NodeId
    kind: NodeKind = NodeKind.UAV
    name: str | None = None
    waypoints: tuple[Waypoint, ...] | None = None
    range_m: float | None = None
    speed: float | None = None

    def label(self) -> str:
        return self.name if self.name is not None else str(self.id)


@dataclass(frozen=True)
class TimeWindow:
    """A contact window: nodes a and b can exchange data during [start, end]."""

    wid: int
    a: NodeId
    b: NodeId
    start: int  # microseconds
    end: int    # microseconds

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ScenarioError(f"window {_brief(self.wid)}: endpoints must differ")
        if self.start >= self.end:
            raise ScenarioError(f"window {_brief(self.wid)}: start must precede end")

    @property
    def duration(self) -> int:
        return self.end - self.start

    def carries(self, send: int, t_tr: int) -> bool:
        """Does a transmission of t_tr that starts at send fit inside this window?"""
        return self.start <= send and send + t_tr <= self.end

    @property
    def pair(self) -> tuple[NodeId, NodeId]:
        return (self.a, self.b) if self.a < self.b else (self.b, self.a)

    def other(self, node: NodeId) -> NodeId:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ValueError(f"node {node} not on window {self.wid}")


@dataclass(frozen=True)
class AttackConfig:
    """Per-node transmission delays injected by compromised relays."""

    delays: Mapping[NodeId, int] = field(default_factory=dict)  # node -> microseconds

    def delay_us(self, node: NodeId) -> int:
        return self.delays.get(node, 0)

    def attackers(self) -> frozenset[NodeId]:
        return frozenset(n for n, d in self.delays.items() if d > 0)


@dataclass(frozen=True)
class Scenario:
    nodes: tuple[Node, ...]
    windows: tuple[TimeWindow, ...]
    t_tr: int  # per-hop transmission time, microseconds
    source: NodeId
    destination: NodeId
    creation_time: int = 0
    attack: AttackConfig = field(default_factory=AttackConfig)

    def node_by_id(self, node: NodeId) -> Node:
        for n in self.nodes:
            if n.id == node:
                return n
        raise KeyError(node)

    def label(self, node: NodeId) -> str:
        try:
            return self.node_by_id(node).label()
        except KeyError:
            return str(node)

    def without_attack(self) -> "Scenario":
        return replace(self, attack=AttackConfig({}))

    @cached_property
    def graph(self) -> Twig:
        """The time-window graph of the windows, built on first use and then kept.

        It lives in the instance __dict__, not in a field, so equality, repr,
        scenario_to_dict and replace ignore it, and a replaced scenario builds
        its own.  Its search memo lives as long as the scenario.
        """
        from .twig import build  # twig imports this module
        return build(self.windows, self.t_tr)


def validate_scenario(s: Scenario) -> None:
    """Check every scenario invariant; raise ScenarioError naming the first failure."""
    ids = [n.id for n in s.nodes]
    if len(ids) != len(set(ids)):
        raise ScenarioError("node ids must be unique")
    if any(i < 0 for i in ids):
        raise ScenarioError("node ids must be non-negative")
    known = set(ids)
    for n in s.nodes:
        if n.waypoints is not None:
            if len(n.waypoints) == 0:
                raise ScenarioError(f"node {_brief(n.id)}: empty waypoint list")
            ts = [w.t for w in n.waypoints]
            if any(b <= a for a, b in zip(ts, ts[1:])):
                raise ScenarioError(f"node {_brief(n.id)}: waypoint times must strictly increase")
            if n.kind is NodeKind.TOWER:
                if len(n.waypoints) != 1 or n.waypoints[0].z != 0.0:
                    raise ScenarioError(
                        f"node {_brief(n.id)}: a tower has one waypoint at altitude 0")
    if s.t_tr <= 0:
        raise ScenarioError("t_tr must be positive")
    wids = [w.wid for w in s.windows]
    if len(wids) != len(set(wids)):
        raise ScenarioError("window ids must be unique")
    for w in s.windows:
        if w.a not in known or w.b not in known:
            raise ScenarioError(f"window {_brief(w.wid)}: endpoint references unknown node")
        if w.duration < s.t_tr:
            raise ScenarioError(f"window {_brief(w.wid)}: shorter than one transmission time")
    if s.source not in known:
        raise ScenarioError("source references unknown node")
    if s.destination not in known:
        raise ScenarioError("destination references unknown node")
    if s.source == s.destination:
        raise ScenarioError("source and destination must differ")
    for node, eps in s.attack.delays.items():
        if node not in known:
            raise ScenarioError(f"attack entry references unknown node {_brief(node)}")
        if node == s.destination:
            raise ScenarioError("destination cannot carry an attack delay")
        if eps < 0:
            raise ScenarioError(f"attack delay for node {_brief(node)} must be non-negative")
    if earliest_arrival(s).get(s.destination) is None:
        raise ScenarioError("no contact window sequence connects source to destination")


def earliest_arrival(s: Scenario) -> dict[NodeId, int]:
    """Earliest possible message arrival per node under store-carry-forward relay."""
    best: dict[NodeId, int] = {s.source: s.creation_time}
    heap: list[tuple[int, NodeId]] = [(s.creation_time, s.source)]
    by_node: dict[NodeId, list[TimeWindow]] = {}
    for w in s.windows:
        by_node.setdefault(w.a, []).append(w)
        by_node.setdefault(w.b, []).append(w)
    while heap:
        t, u = heapq.heappop(heap)
        if t > best.get(u, math.inf):
            continue
        for w in by_node.get(u, ()):
            if u == s.source and w.start < s.creation_time:
                continue  # the source only transmits in windows opening at or after creation
            send = max(t, w.start)
            if not w.carries(send, s.t_tr):
                continue
            v = w.other(u)
            arrival = send + s.t_tr
            if arrival < best.get(v, math.inf):
                best[v] = arrival
                heapq.heappush(heap, (arrival, v))
    return best


# ---------------------------------------------------------------------------
# trajectory-derived windows

def derive_windows(
    nodes: Sequence[Node],
    range_rule: Callable[[Node, Node], float] | None = None,
    dt: float = 0.5,
) -> list[TimeWindow]:
    """Sample pairwise distances along waypoint trajectories and emit contact windows.

    Positions are linearly interpolated between waypoints at step ``dt`` seconds
    and at the end of the shared span; a window covers each maximal run of two
    or more samples whose distance stays within the pair's communication range
    (default rule: the smaller of the two ranges).  Window endpoints are
    therefore accurate to within one ``dt``.
    """
    if dt <= 0:
        raise ScenarioError("dt must be positive")
    step = max(1, to_us(dt))
    windows: list[tuple[tuple[NodeId, NodeId], int, int]] = []
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            pair = (a.id, b.id) if a.id < b.id else (b.id, a.id)
            limit = _pair_range(a, b, range_rule)
            span = _span_overlap(a, b)
            if span is None:
                continue
            lo, hi = span
            samples = [*range(lo, hi, step), hi]
            for inside, run in groupby(samples, key=lambda t: _dist(a, b, t) <= limit):
                ts = list(run)
                if inside and len(ts) > 1:
                    windows.append((pair, ts[0], ts[-1]))
    windows.sort()
    return [
        TimeWindow(wid=i + 1, a=pair[0], b=pair[1], start=start, end=end)
        for i, (pair, start, end) in enumerate(windows)
    ]


def _pair_range(a: Node, b: Node, rule: Callable[[Node, Node], float] | None) -> float:
    if rule is not None:
        return rule(a, b)
    if a.range_m is None or b.range_m is None:
        raise ScenarioError(f"nodes {a.id},{b.id}: no range configured and no range rule given")
    return min(a.range_m, b.range_m)


def _span(node: Node) -> tuple[float, float]:
    if node.waypoints is None:
        raise ScenarioError(f"node {node.id}: waypoints required to derive windows")
    if len(node.waypoints) == 1:
        return (-math.inf, math.inf)  # static node, present for the whole horizon
    return (node.waypoints[0].t, node.waypoints[-1].t)


def _span_overlap(a: Node, b: Node) -> tuple[int, int] | None:
    lo = max(_span(a)[0], _span(b)[0])
    hi = min(_span(a)[1], _span(b)[1])
    if math.isinf(lo) or math.isinf(hi) or hi <= lo:
        return None  # two static nodes have no finite horizon to sample
    return (int(lo), int(hi))


def _position_at(node: Node, t: int) -> tuple[float, float, float]:
    wps = node.waypoints
    if t <= wps[0].t:
        return (wps[0].x, wps[0].y, wps[0].z)
    if t >= wps[-1].t:
        return (wps[-1].x, wps[-1].y, wps[-1].z)
    for p, q in zip(wps, wps[1:]):
        if p.t <= t <= q.t:
            f = (t - p.t) / (q.t - p.t)
            return (p.x + f * (q.x - p.x), p.y + f * (q.y - p.y), p.z + f * (q.z - p.z))


def _dist(a: Node, b: Node, t: int) -> float:
    return math.dist(_position_at(a, t), _position_at(b, t))


# ---------------------------------------------------------------------------
# JSON serialization (decimal seconds on the wire)

_NODE_KEYS = {"id", "kind", "name", "waypoints", "range", "speed"}
_WINDOW_KEYS = {"wid", "a", "b", "start", "end"}
_TOP_KEYS = {"nodes", "windows", "t_tr", "source", "destination", "creation_time", "attack"}


def scenario_to_dict(s: Scenario) -> dict:
    nodes = []
    for n in s.nodes:
        d: dict = {"id": n.id, "kind": n.kind.value}
        if n.name is not None:
            d["name"] = n.name
        if n.waypoints is not None:
            d["waypoints"] = [[w.x, w.y, w.z, to_seconds(w.t)] for w in n.waypoints]
        if n.range_m is not None:
            d["range"] = n.range_m
        if n.speed is not None:
            d["speed"] = n.speed
        nodes.append(d)
    return {
        "nodes": nodes,
        "windows": [
            {"wid": w.wid, "a": w.a, "b": w.b,
             "start": to_seconds(w.start), "end": to_seconds(w.end)}
            for w in s.windows
        ],
        "t_tr": to_seconds(s.t_tr),
        "source": s.source,
        "destination": s.destination,
        "creation_time": to_seconds(s.creation_time),
        "attack": {str(n): to_seconds(d) for n, d in sorted(s.attack.delays.items())},
    }


def _convert(convert: Callable, value, what: str):
    """convert(value), or a ScenarioError naming what if the value is malformed."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"{what}: invalid value {_brief(value)}") from exc


def _json_int(value) -> int:
    """An id written as a JSON integer: no float, boolean or string stands in for one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"not an integer: {value!r}")
    return value


def _key_int(key: str) -> int:
    """An id written as a JSON object key, which must be its canonical decimal form."""
    value = int(key)
    if str(value) != key:
        raise ValueError(f"not a canonical integer: {key!r}")
    return value


def _finite(value) -> float:
    """A finite number written as a JSON number: no boolean or string stands in for one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a number: {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError("not finite")
    return x


def _json_us(value) -> int:
    """A time in seconds written as a JSON number, in microseconds."""
    return to_us(_finite(value))


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario document must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioError(f"unknown top-level keys: {_brief(sorted(unknown))}")
    for key in ("nodes", "windows", "t_tr", "source", "destination"):
        if key not in data:
            raise ScenarioError(f"missing required key: {key}")
    for key in ("nodes", "windows"):
        if not isinstance(data[key], list) or not all(isinstance(e, dict) for e in data[key]):
            raise ScenarioError(f"{key} must be a list of objects")
    if not isinstance(data.get("attack", {}), dict):
        raise ScenarioError("attack must be an object mapping node ids to delays")
    nodes = []
    for nd in data["nodes"]:
        bad = set(nd) - _NODE_KEYS
        if bad:
            raise ScenarioError(f"node entry has unknown keys: {_brief(sorted(bad))}")
        if "id" not in nd:
            raise ScenarioError("node entry missing id")
        what = f"node {_brief(nd['id'])}"
        if not isinstance(nd.get("name", ""), str):
            raise ScenarioError(f"{what} name: invalid value {_brief(nd['name'])}")
        wps = None
        if "waypoints" in nd:
            wps = _convert(lambda points: tuple(Waypoint(*map(_finite, (x, y, z)), _json_us(t))
                                                for x, y, z, t in points),
                           nd["waypoints"], f"{what} waypoints")
        nodes.append(Node(
            id=_convert(_json_int, nd["id"], "node id"),
            kind=_convert(NodeKind, nd.get("kind", "uav"), f"{what} kind"),
            name=nd.get("name"), waypoints=wps,
            range_m=_convert(_finite, nd["range"], f"{what} range") if "range" in nd else None,
            speed=_convert(_finite, nd["speed"], f"{what} speed") if "speed" in nd else None,
        ))
    windows = []
    for wd in data["windows"]:
        bad = set(wd) - _WINDOW_KEYS
        if bad:
            raise ScenarioError(f"window entry has unknown keys: {_brief(sorted(bad))}")
        missing = _WINDOW_KEYS - set(wd)
        if missing:
            raise ScenarioError(f"window entry missing keys: {sorted(missing)}")
        what = f"window {_brief(wd['wid'])}"
        windows.append(TimeWindow(
            wid=_convert(_json_int, wd["wid"], "window id"),
            a=_convert(_json_int, wd["a"], f"{what} a"),
            b=_convert(_json_int, wd["b"], f"{what} b"),
            start=_convert(_json_us, wd["start"], f"{what} start"),
            end=_convert(_json_us, wd["end"], f"{what} end"),
        ))
    delays = {}
    for key, delay in data.get("attack", {}).items():
        node = _convert(_key_int, key, "attack node id")
        delays[node] = _convert(_json_us, delay, f"attack delay of {_brief(node)}")
    s = Scenario(
        nodes=tuple(nodes),
        windows=tuple(windows),
        t_tr=_convert(_json_us, data["t_tr"], "t_tr"),
        source=_convert(_json_int, data["source"], "source"),
        destination=_convert(_json_int, data["destination"], "destination"),
        creation_time=_convert(_json_us, data.get("creation_time", 0), "creation_time"),
        attack=AttackConfig(delays),
    )
    validate_scenario(s)
    return s


def save_scenario(s: Scenario, path: str | Path) -> None:
    validate_scenario(s)
    Path(path).write_text(dumps(scenario_to_dict(s)), encoding="utf-8")


_MAX_NESTING = 64

# a JSON string, or one bracket: a bracket inside a string is not structure
_STRUCTURE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[][{}]', re.DOTALL)
_NEST = {"[": 1, "{": 1, "]": -1, "}": -1}


def _nesting(text: str) -> int:
    """How many lists and objects deep the JSON text nests (0 for a scalar)."""
    return max(accumulate(map(_NEST.get, _STRUCTURE.findall(text), repeat(0))), default=0)


def _read_json(path: str | Path, what: str):
    """The JSON document in a file, or a ScenarioError naming what could not be read.

    Nesting is capped before parsing: the parser recurses once per level, so
    without the cap the caller's stack depth would decide whether a deep
    document parses.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read {what} file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{what} file is not UTF-8 text: {exc}") from exc
    if _nesting(text) > _MAX_NESTING:
        raise ScenarioError(f"{what} file nests lists and objects deeper than "
                            f"{_MAX_NESTING} levels")
    try:
        return json.loads(text)
    except ValueError as exc:
        # a syntax error, or an integer literal longer than the interpreter converts
        raise ScenarioError(f"{what} file is not valid JSON: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    return scenario_from_dict(_read_json(path, "scenario"))


def dumps(obj: dict) -> str:
    """Serialize a report object deterministically (fixed field order, newline-terminated)."""
    return json.dumps(obj, indent=2) + "\n"


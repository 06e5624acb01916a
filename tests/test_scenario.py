"""Scenario model, validation, serialization, and derived contact windows."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import A, B, C, D, E, F, S, make_demo, oracle_derive_windows
from tdasim import (
    AttackConfig,
    Node,
    NodeKind,
    ScenarioError,
    TimeWindow,
    Waypoint,
    derive_windows,
    earliest_arrival,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    to_seconds,
    to_us,
    validate_scenario,
)

SEC = to_us(1)


def test_unit_conversion_round_trip():
    assert to_us(1.5) == 1_500_000
    assert to_seconds(to_us(3.25)) == 3.25
    assert to_us(to_seconds(123_456_789)) == 123_456_789
    assert to_us(0) == 0


def test_time_window_rejects_degenerate_spans():
    with pytest.raises(ScenarioError):
        TimeWindow(1, 0, 0, 0, SEC)
    with pytest.raises(ScenarioError):
        TimeWindow(1, 0, 1, 5 * SEC, 5 * SEC)
    with pytest.raises(ScenarioError):
        TimeWindow(1, 0, 1, 6 * SEC, 5 * SEC)


def test_time_window_helpers():
    w = TimeWindow(4, 3, 2, 25 * SEC, 29 * SEC)
    assert w.pair == (2, 3)
    assert w.duration == 4 * SEC
    assert w.touches(3) and w.touches(2) and not w.touches(4)
    assert w.other(3) == 2 and w.other(2) == 3
    with pytest.raises(ValueError):
        w.other(9)
    assert w.contains(25 * SEC) and w.contains(29 * SEC)
    assert not w.contains(29 * SEC + 1)


def test_attack_config_helpers():
    attack = AttackConfig({A: 5 * SEC, C: 0})
    assert attack.delay_us(A) == 5 * SEC
    assert attack.delay_us(B) == 0
    assert attack.attackers() == frozenset({A})


def test_scenario_accessors(demo):
    assert demo.node_by_id(B).kind is NodeKind.TOWER
    assert demo.label(A) == "A"
    stripped = make_demo({A: 5}).without_attack()
    assert stripped.attack.attackers() == frozenset()
    assert stripped.windows == demo.windows


def test_validate_accepts_demo(demo):
    validate_scenario(demo)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda s: dataclasses.replace(s, nodes=s.nodes + (Node(0, NodeKind.UAV),)),
         "unique"),
        (lambda s: dataclasses.replace(s, t_tr=0), "t_tr"),
        (lambda s: dataclasses.replace(
            s, windows=s.windows + (TimeWindow(1, S, A, 0, SEC),)), "unique"),
        (lambda s: dataclasses.replace(
            s, windows=s.windows + (TimeWindow(99, S, 42, 0, SEC),)), "unknown node"),
        (lambda s: dataclasses.replace(
            s, windows=s.windows + (TimeWindow(99, S, A, 0, SEC // 2),)), "shorter"),
        (lambda s: dataclasses.replace(s, source=F), "differ"),
        (lambda s: dataclasses.replace(s, destination=99), "unknown"),
        (lambda s: dataclasses.replace(s, attack=AttackConfig({99: SEC})), "unknown"),
        (lambda s: dataclasses.replace(s, attack=AttackConfig({F: SEC})), "destination"),
        (lambda s: dataclasses.replace(s, attack=AttackConfig({A: -1})), "non-negative"),
        (lambda s: dataclasses.replace(s, windows=s.windows[2:]), "connects"),
    ],
)
def test_validate_rejects_broken_scenarios(demo, mutate, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        validate_scenario(mutate(demo))


def test_validate_checks_waypoints():
    wps = (Waypoint(0, 0, 0, 0), Waypoint(1, 0, 0, 0))
    bad = dataclasses.replace(
        make_demo(),
        nodes=make_demo().nodes[:-1] + (Node(F, NodeKind.UAV, waypoints=wps),),
    )
    with pytest.raises(ScenarioError, match="strictly increase"):
        validate_scenario(bad)
    tower = Node(F, NodeKind.TOWER, waypoints=(Waypoint(0, 0, 5.0, 0),))
    bad = dataclasses.replace(make_demo(), nodes=make_demo().nodes[:-1] + (tower,))
    with pytest.raises(ScenarioError, match="altitude 0"):
        validate_scenario(bad)


def test_earliest_arrival_golden(demo):
    arrival = earliest_arrival(demo)
    expected = {S: 0, A: 6, B: 26, C: 27, D: 36, E: 111, F: 91}
    assert {n: to_seconds(t) for n, t in arrival.items()} == expected


def test_earliest_arrival_respects_creation_time(demo):
    late = dataclasses.replace(demo, creation_time=10 * SEC)
    arrival = earliest_arrival(late)
    # the first usable source window is now tw2 (opens at 12)
    assert to_seconds(arrival[A]) == 13.0


def test_round_trip_preserves_everything():
    s = make_demo({A: 5, C: 6})
    again = scenario_from_dict(scenario_to_dict(s))
    assert again == s


def test_graph_is_built_once_and_kept_out_of_the_value(build_calls):
    s, bare = make_demo({A: 5}), make_demo({A: 5})
    g = s.graph
    assert s.graph is g
    assert len(build_calls) == 1
    assert g.originals == s.windows
    assert s == bare and repr(s) == repr(bare)
    assert scenario_to_dict(s) == scenario_to_dict(bare)
    assert "graph" not in vars(bare)


def test_replaced_scenario_builds_its_own_graph(build_calls):
    s = make_demo()
    kept = s.graph
    fewer = dataclasses.replace(s, windows=s.windows[:-1])
    assert fewer.graph is not kept
    assert fewer.graph.originals == s.windows[:-1]
    assert len(build_calls) == 2


def test_save_load_round_trip(tmp_path):
    s = make_demo({A: 5})
    path = tmp_path / "scenario.json"
    save_scenario(s, path)
    assert load_scenario(path) == s
    # files are stable across a second save
    text = path.read_text()
    save_scenario(load_scenario(path), path)
    assert path.read_text() == text


def test_from_dict_rejects_unknown_keys():
    base = scenario_to_dict(make_demo())
    bad = dict(base, extra=1)
    with pytest.raises(ScenarioError, match="extra"):
        scenario_from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["nodes"][0]["power"] = 3
    with pytest.raises(ScenarioError, match="power"):
        scenario_from_dict(bad)
    bad = json.loads(json.dumps(base))
    bad["windows"][0]["rssi"] = -70
    with pytest.raises(ScenarioError, match="rssi"):
        scenario_from_dict(bad)


def test_from_dict_reports_missing_keys():
    base = scenario_to_dict(make_demo())
    for key in ("nodes", "windows", "t_tr", "source", "destination"):
        bad = {k: v for k, v in base.items() if k != key}
        with pytest.raises(ScenarioError, match=key):
            scenario_from_dict(bad)


def test_load_rejects_bad_files(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(missing)
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(garbled)


# ---------------------------------------------------------------------------
# trajectory-derived windows

def _mover(nid: int, x0: float, x1: float, t0: float, t1: float, rng: float) -> Node:
    wps = (Waypoint(x0, 0, 0, to_us(t0)), Waypoint(x1, 0, 0, to_us(t1)))
    return Node(nid, NodeKind.UAV, waypoints=wps, range_m=rng)


def _static(nid: int, x: float, rng: float) -> Node:
    return Node(nid, NodeKind.TOWER, waypoints=(Waypoint(x, 0, 0, 0),), range_m=rng)


def test_derive_windows_flyby_matches_geometry():
    # drone moves along x at 1 m/s past a tower at x=50 with joint range 10:
    # in range exactly while t is in [40, 60]
    mover = _mover(0, 0, 100, 0, 100, 10)
    tower = _static(1, 50, 25)
    (w,) = derive_windows([mover, tower], dt=0.5)
    assert w.pair == (0, 1)
    assert abs(to_seconds(w.start) - 40.0) <= 0.5
    assert abs(to_seconds(w.end) - 60.0) <= 0.5


def test_derive_windows_out_of_range_pair_is_empty():
    mover = _mover(0, 0, 100, 0, 100, 3)
    tower = _static(1, 500, 200)  # min of the two ranges applies; never closer than 400
    assert derive_windows([mover, tower], dt=0.5) == []


def test_derive_windows_two_static_nodes_have_no_horizon():
    assert derive_windows([_static(0, 0, 50), _static(1, 10, 50)]) == []


def test_derive_windows_canonical_pair_order():
    mover = _mover(7, 0, 100, 0, 100, 10)
    tower = _static(2, 50, 10)
    (w,) = derive_windows([mover, tower], dt=0.5)
    assert (w.a, w.b) == (2, 7)


def test_derive_windows_multiple_passes():
    # out, back, and out again: two disjoint windows against the same tower
    wps = (
        Waypoint(0, 0, 0, to_us(0)),
        Waypoint(100, 0, 0, to_us(100)),
        Waypoint(0, 0, 0, to_us(200)),
    )
    mover = Node(0, NodeKind.UAV, waypoints=wps, range_m=10)
    tower = _static(1, 50, 10)
    ws = derive_windows([mover, tower], dt=0.5)
    assert len(ws) == 2
    assert [w.wid for w in ws] == [1, 2]
    assert ws[0].end < ws[1].start


def test_derive_windows_range_rule_override():
    mover = _mover(0, 0, 100, 0, 100, 1)
    tower = _static(1, 50, 1)
    wide = derive_windows([mover, tower], range_rule=lambda a, b: 30.0, dt=0.5)
    assert len(wide) == 1
    assert to_seconds(wide[0].end) - to_seconds(wide[0].start) > 50


def test_derive_windows_requires_range_or_rule():
    mover = Node(0, NodeKind.UAV, waypoints=(Waypoint(0, 0, 0, 0), Waypoint(1, 0, 0, SEC)))
    with pytest.raises(ScenarioError, match="range"):
        derive_windows([mover, _static(1, 0, 5)])


def test_derive_windows_rejects_bad_dt():
    with pytest.raises(ScenarioError, match="dt"):
        derive_windows([_static(0, 0, 5), _static(1, 1, 5)], dt=0)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_derive_windows_properties(data):
    n_nodes = data.draw(st.integers(2, 4), label="n_nodes")
    nodes = []
    for nid in range(n_nodes):
        xs = data.draw(
            st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=4),
            label=f"xs{nid}",
        )
        t = 0.0
        wps = []
        for x in xs:
            wps.append(Waypoint(x, 0, 0, to_us(t)))
            t += data.draw(st.floats(1, 30), label=f"dt{nid}_{len(wps)}")
        nodes.append(Node(nid, NodeKind.UAV, waypoints=tuple(wps),
                          range_m=data.draw(st.floats(1, 80), label=f"r{nid}")))
    windows = derive_windows(nodes, dt=1.0)
    seen = set()
    for w in windows:
        assert w.start < w.end
        assert w.a < w.b
        assert w.wid not in seen
        seen.add(w.wid)
        # endpoints really are within range at the sampled instants
        na, nb = nodes[w.a], nodes[w.b]
        limit = min(na.range_m, nb.range_m)
        mid = (w.start + w.end) // 2
        positions = []
        for node in (na, nb):
            ts = [p.t for p in node.waypoints]
            tt = min(max(mid, ts[0]), ts[-1])
            for p, q in zip(node.waypoints, node.waypoints[1:]):
                if p.t <= tt <= q.t:
                    f = (tt - p.t) / (q.t - p.t)
                    positions.append(p.x + f * (q.x - p.x))
                    break
        # midpoint sits between two in-range samples at most 1 s apart, and the
        # trajectories are piecewise linear, so it cannot stray past the limit
        # by more than the distance covered in one step
        speed = 2 * 130  # generous bound on joint closing speed (m/s)
        assert abs(positions[0] - positions[1]) <= limit + speed * 1.0
    assert [w.wid for w in windows] == list(range(1, len(windows) + 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_derive_windows_matches_the_replaced_loop(data):
    coord = st.floats(-40, 40, allow_nan=False)
    nodes = []
    for nid in range(data.draw(st.integers(2, 4), label="n_nodes")):
        rng = data.draw(st.floats(10, 80), label=f"range{nid}")
        if data.draw(st.booleans(), label=f"tower{nid}"):
            wps = (Waypoint(data.draw(coord), data.draw(coord), 0, 0),)
        else:
            # waypoint times to the microsecond, so dt seldom divides a span
            t = data.draw(st.floats(0, 20), label=f"t0_{nid}")
            wps = []
            for _ in range(data.draw(st.integers(2, 4), label=f"n_wps{nid}")):
                wps.append(Waypoint(data.draw(coord), data.draw(coord), 0, to_us(t)))
                t += data.draw(st.floats(1, 30))
            wps = tuple(wps)
        nodes.append(Node(nid, NodeKind.TOWER if len(wps) == 1 else NodeKind.UAV,
                          waypoints=wps, range_m=rng))
    dt = data.draw(st.floats(0.1, 5), label="dt")
    assert derive_windows(nodes, dt=dt) == oracle_derive_windows(nodes, dt=dt)

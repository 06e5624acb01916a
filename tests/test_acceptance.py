"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a single ``criterion N (...): PASS`` or ``FAIL`` line (run
pytest with ``-s`` to see them live).  Tolerances are stated inline; exact
means exact integer microseconds.  The property suite (criterion 5) and the
oracle comparison (criterion 6) are the slow parts, a few minutes combined.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from support import (
    A,
    B,
    C,
    D,
    E,
    F,
    demo_windows,
    make_demo,
    oracle_shortest,
    random_small_twig,
    vertex,
)
from tdasim import (
    NeighborTables,
    OverheadModel,
    PRESETS,
    build,
    detect_global,
    detect_local,
    embed_trace,
    eor,
    generate,
    preset_params,
    run_local_pipeline,
    shortest_path,
    simulate,
    to_seconds,
    to_us,
    validate_scenario,
    window_misses,
)
from tdasim.detection import HopMetadata, RelayInfo

SEC = to_us(1)


VERDICTS: list[str] = []


def verdict(number: int, label: str, body) -> None:
    try:
        body()
    except BaseException:
        VERDICTS.append(f"criterion {number} ({label}): FAIL")
        print(VERDICTS[-1])
        raise
    VERDICTS.append(f"criterion {number} ({label}): PASS")
    print(VERDICTS[-1])


def median_seconds(fn, repeats: int = 15) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def test_criterion_1_golden_graph():
    def body():
        g = build(demo_windows(), SEC)
        pieces = {
            g.window_label(w.wid): (w.start, w.end)
            for w in g.split_windows
            if g.original_of(w.wid).wid != w.wid
        }
        assert pieces == {
            "3.1": (25 * SEC, 35 * SEC),
            "3.2": (35 * SEC, 40 * SEC),
            "5.1": (35 * SEC, 40 * SEC),
            "5.2": (40 * SEC, 50 * SEC),
        }
        assert g.arc_weight(vertex(g, "A", "1"), vertex(g, "A", "3.1")) == 20 * SEC
        assert g.arc_weight(vertex(g, "C", "4"), vertex(g, "C", "7")) == 65 * SEC
        assert g.arc_weight(vertex(g, "B", "3.2"), vertex(g, "B", "5.1")) == 0
        assert g.arc_weight(vertex(g, "B", "5.1"), vertex(g, "B", "3.2")) == 0
        took = median_seconds(lambda: build(demo_windows(), SEC))
        assert took < 0.010, f"graph build took {took * 1000:.2f} ms (limit 10 ms)"

    verdict(1, "golden graph, exact integers, build < 10 ms", body)


def test_criterion_2_two_attacker_walkthrough():
    def body():
        s = make_demo({A: 5, C: 6})
        g = build(s.windows, s.t_tr)
        trace = simulate(s, g)
        receptions = {h.node: to_seconds(h.reception_time) for h in trace.hops[1:]}
        assert receptions == {A: 6.0, B: 31.0, D: 36.0, C: 61.0, E: 117.0, F: 151.0}
        report = detect_global(g, trace)
        assert set(report.flagged) == {A, C}
        took = median_seconds(lambda: detect_global(g, simulate(s, g)))
        assert took < 0.100, f"simulate+detect took {took * 1000:.1f} ms (limit 100 ms)"

    verdict(2, "two-delay walkthrough, flags exactly {A, C}, < 100 ms", body)


def test_criterion_3_local_walkthrough():
    def body():
        s = make_demo({A: 5, C: 6})
        g = build(s.windows, s.t_tr)
        scan = run_local_pipeline(s, g, simulate(s, g))
        accusations = {
            (r.observer, c.subject): c
            for r in scan.reports
            for c in r.evidence
            if c.flagged
        }
        assert set(accusations) == {(B, A), (E, C), (F, C)}
        assert accusations[(B, A)].delta == 6 * SEC
        two_hop = accusations[(F, C)]
        skipped = next(w for w in s.windows if w.wid == two_hop.window)
        assert (skipped.start, skipped.end) == (90 * SEC, 95 * SEC)
        assert two_hop.held_until == 62 * SEC
        assert two_hop.held_until < skipped.end  # 62 < 95
        assert two_hop.earliest_via_prev == 118 * SEC
        assert two_hop.earliest_via_prev > skipped.start  # 118 > 90

    verdict(3, "single-observer flags A-by-B, C-by-E, C-by-F with evidence", body)


def test_criterion_4_overhead_regression():
    def body():
        model = OverheadModel()
        hops = [4, 5, 7, 10, 15]
        expected = {
            "global": [0.035, 0.042, 0.057, 0.078, 0.114],
            "local": [0.028] * 5,
            "hotd": [0.1875, 0.225, 0.3, 0.4125, 0.6],
        }
        for mode, values in expected.items():
            for h, want in zip(hops, values):
                got = eor(model, mode, h)
                assert abs(got - want) <= 0.001, (mode, h, got, want)

    verdict(4, "overhead ratios at 4/5/7/10/15 hops, tolerance 0.001", body)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_criterion_5_property_suite(preset):
    runs = 1000

    def body():
        miss_subset = 0
        attacker_misses = 0
        attacked_runs = 0
        for seed in range(runs):
            s = generate(preset_params(preset, seed))
            validate_scenario(s)
            n_nodes, n_windows, n_malicious = PRESETS[preset]
            assert len(s.nodes) == n_nodes
            assert len(s.windows) == n_windows
            assert len(s.attack.attackers()) == n_malicious
            g = build(s.windows, s.t_tr)

            benign = s.without_attack()
            bt = simulate(benign, g)
            assert bt.delivered
            assert detect_global(g, bt).flagged == ()
            assert run_local_pipeline(benign, g, bt).merged_flagged() == ()

            attackers = s.attack.attackers()
            if not attackers:
                continue
            attacked_runs += 1
            at = simulate(s, g)
            assert at.delivered
            fp = embed_trace(g, at)
            sp = shortest_path(g, fp.vertices[0], s.destination,
                               now=at.hops[0].reception_time)
            assert sp is not None
            report = detect_global(g, at)
            if fp.total_weight > sp.total_weight:
                assert report.flagged, f"seed {seed}: longer route but no flags"
            assert set(report.flagged) <= attackers, f"seed {seed}: false accusation"
            misses = window_misses(s, g, at)
            # every delay that forced a window miss must be caught individually,
            # which subsumes the run-level claim below
            for a in attackers:
                if misses[a]:
                    attacker_misses += 1
                    assert a in report.flagged, f"seed {seed}: missed attacker {a}"
            if all(misses[a] for a in attackers):
                miss_subset += 1
                assert attackers <= set(report.flagged), f"seed {seed}: missed attacker"
            local = run_local_pipeline(s, g, at)
            assert set(local.merged_flagged()) == attackers, f"seed {seed}: local recall"
        assert attacked_runs == runs
        assert attacker_misses > 0, "no delay ever caused a miss; recall claim untested"

    verdict(5, f"{preset}: {runs} seeds, soundness/precision/recall", body)


def test_criterion_6_oracle_equivalence():
    def body():
        rng = random.Random(20260814)
        for case in range(500):
            g = random_small_twig(rng, max_vertices=12)
            verts = sorted(g.vertices)
            start = rng.choice(verts)
            target = rng.randrange(max(v.node for v in verts) + 1)
            now = None if case % 2 else to_us(rng.randint(0, 90))
            got = shortest_path(g, start, target, now=now)
            want = oracle_shortest(g, start, target, now=now)
            if want is None:
                assert got is None, f"case {case}: found a path the oracle lacks"
                continue
            assert got is not None, f"case {case}: missed a path the oracle found"
            have = (got.total_weight, got.hops, tuple(v.key for v in got.vertices))
            assert have == want, f"case {case}: weight or tie-break mismatch"

    verdict(6, "500 random graphs match exhaustive search exactly", body)


def test_criterion_7_runtime_bounds():
    def body():
        big = generate(preset_params("table2-row5", 0))
        g_big = build(big.windows, big.t_tr)
        trace_big = simulate(big, g_big)
        assert trace_big.delivered
        took = median_seconds(lambda: detect_global(g_big, trace_big))
        assert took < 0.100, f"whole-trace check took {took * 1000:.1f} ms (limit 100)"

        def per_hop_probe(preset_name):
            s = generate(preset_params(preset_name, 0)).without_attack()
            g = build(s.windows, s.t_tr)
            trace = simulate(s, g)
            i = len(trace.hops) - 1
            observer = trace.hops[i].node
            tables = NeighborTables.from_scenario(s, g, observer)
            meta = HopMetadata(
                info_1=RelayInfo(trace.hops[i - 2].node,
                                 trace.hops[i - 2].reception_time)
                if i >= 2 else None,
                info_2=RelayInfo(trace.hops[i - 1].node,
                                 trace.hops[i - 1].reception_time),
            )
            rt = trace.hops[i].reception_time

            def batch():
                for _ in range(2000):
                    detect_local(observer, rt, meta, tables, s.t_tr)

            return median_seconds(batch, repeats=7)

        small = per_hop_probe("table2-row1")  # 7 nodes
        large = per_hop_probe("table2-row5")  # 30 nodes
        assert large < 2 * small, (
            f"per-hop check grew with network size: {small * 1e6:.1f} us -> "
            f"{large * 1e6:.1f} us per 2000 calls"
        )

    verdict(7, "30-node whole-trace check < 100 ms; per-hop check size-invariant", body)

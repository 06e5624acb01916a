"""The benchmark's workloads: inputs made from a seed, one timed
operation, and the checks on that operation's outputs.

Each workload calls tdasim's public functions through module attributes at
call time (``T.build``, not a name bound at import), so the tracer's
wrappers see every call.  Inputs are built by the benchmark; tdasim only
receives them.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from importlib import import_module
from pathlib import Path

# import_module returns the submodule even where the package re-exports a
# function of the same name (tdasim.generate)
C, G, M, S, R, T = (import_module(f"tdasim.{m}") for m in (
    "cli", "generate", "metrics", "scenario", "simulator", "twig"))

DEFAULT_SEED = 0


class Mismatch(AssertionError):
    """An operation's output disagrees with what the benchmark expects."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def scenario_digest(s) -> str:
    return digest(S.dumps(S.scenario_to_dict(s)))


def trace_digest(trace) -> str:
    return digest(S.dumps(R.trace_to_dict(trace)))


def graph_digest(g) -> str:
    """Pieces (vertices with their spans) and edges in the canonical dump."""
    return digest(S.dumps(T.graph_to_dict(g)))


def report_fields(r) -> dict:
    """The decision-bearing part of a MetricsReport."""
    return {"delivered": r.delivered, "path": list(r.path), "flagged": r.flagged,
            "fp_weight": r.fp_weight, "sp_weight": r.sp_weight}


# ---------------------------------------------------------------------------

class Table2Sweep:
    """Consecutive generator seeds; one operation is one seed across the five
    table2 presets: generate, then evaluate_scenario without its timing helper."""

    name = "table2-sweep"
    reference_ops = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.base = seed * 100_000
        self.presets = tuple(sorted(G.PRESETS))

    def setup(self) -> None:
        # one operation on a seed no run measures fills lazy state; the same
        # seed for every run keeps set-up work equal across runs
        self.op(-1)

    def inputs(self, i: int) -> int:
        return self.base + i

    def input_doc(self, i: int) -> dict:
        return {"presets": list(self.presets), "seed": self.inputs(i)}

    def op(self, gen_seed: int):
        out = []
        for p in self.presets:
            s = G.generate(G.preset_params(p, gen_seed))
            out.append((s, M.evaluate_scenario(s, timing_repeats=0)))
        return out

    def check(self, gen_seed: int, out) -> None:
        for p, (s, r) in zip(self.presets, out):
            where = f"{p} seed {gen_seed}"
            attackers = {s.label(a) for a in s.attack.attackers()}
            expect(r.delivered, f"{where}: generated scenario not delivered")
            expect(set(r.flagged["global"]) <= attackers,
                   f"{where}: global flags {r.flagged['global']} outside attackers")
            expect(set(r.flagged["local"]) == attackers,
                   f"{where}: local flags {r.flagged['local']} != attackers")
            benign = M.evaluate_scenario(s.without_attack(), timing_repeats=0)
            expect(benign.delivered and not benign.flagged["global"]
                   and not benign.flagged["local"], f"{where}: benign replay flagged")

    def digests(self, gen_seed: int, out) -> dict:
        doc = {}
        for p, (s, r) in zip(self.presets, out):
            g = T.build(s.windows, s.t_tr)
            doc[p] = {"scenario": scenario_digest(s), "graph": graph_digest(g),
                      "trace": trace_digest(R.simulate(s, g)), "report": report_fields(r)}
        return doc


# ---------------------------------------------------------------------------

STAIR_NODES = 7
STAIR_WINDOWS = 24
STAIR_LENGTH_S = 10.5
STAIR_STEP_S = 1.0
# role pairs: the source meets relay 1 once, then the relays and the
# destination meet in a repeating chain, so the message crosses every relay
# and the source chooses only among the pieces of its single window
STAIR_CHAIN = ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6))


def staircase(seed: int):
    """The dense-swarm staircase: a fixed window pattern whose relay names
    and attack delay come from the seed, with a delaying relay on the route."""
    rng = random.Random(f"staircase:{seed}")
    relays = list(range(1, STAIR_NODES - 1))
    rng.shuffle(relays)
    name = {0: 0, STAIR_NODES - 1: STAIR_NODES - 1}
    name.update({role: node for role, node in zip(range(1, STAIR_NODES - 1), relays)})
    windows = []
    for i in range(STAIR_WINDOWS):
        a, b = (0, 1) if i == 0 else STAIR_CHAIN[(i - 1) % len(STAIR_CHAIN)]
        start = i * STAIR_STEP_S
        windows.append(S.TimeWindow(i + 1, name[a], name[b],
                                    S.to_us(start), S.to_us(start + STAIR_LENGTH_S)))
    s = S.Scenario(
        nodes=tuple(S.Node(n) for n in range(STAIR_NODES)),
        windows=tuple(windows), t_tr=S.to_us(1.0),
        source=0, destination=STAIR_NODES - 1,
    )
    delay = S.to_us(round(rng.uniform(1.5, 3.0), 3))
    return s, delay


class DenseAll:
    """In-process ``tdasim all`` on the dense staircase; every operation
    rewrites the same output directory from the same scenario file."""

    name = "dense-all"
    reference_ops = 1
    files = ("scenario.json", "graph.json", "trace.json", "detect.json", "metrics.json")

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.dir = workdir / self.name
        self.scenario_path = self.dir / "scenario-in.json"
        self.out_dir = self.dir / "out"
        self.first: dict | None = None

    def setup(self) -> None:
        self.scenario = self.expected_trace = None
        base, delay = staircase(self.seed)
        g = T.build(base.windows, base.t_tr)
        benign = R.simulate(base, g)
        expect(benign.delivered and benign.hop_count >= 3, "staircase: benign route too short")
        for relay in benign.path[1:-1]:
            s = replace(base, attack=S.AttackConfig({relay: delay}))
            trace = R.simulate(s, g)
            if trace.delivered and trace.hop_count >= 3 and relay in trace.path[:-1]:
                break
        else:
            raise Mismatch("staircase: no relay on the route can delay without a drop")
        self.dir.mkdir(parents=True, exist_ok=True)
        S.save_scenario(s, self.scenario_path)
        self.scenario, self.expected_trace = s, trace
        self.vertices = len(g.vertices)
        self.pieces = len({v.wid for v in g.vertices})

    def inputs(self, i: int) -> list[str]:
        return ["all", "--scenario", str(self.scenario_path), "--out", str(self.out_dir)]

    def input_doc(self, i: int) -> dict:
        s, delay = staircase(self.seed)
        return {"scenario": S.scenario_to_dict(s), "delay": delay}

    def op(self, argv: list[str]) -> int:
        return C.main(argv)

    def read(self) -> dict[str, str]:
        return {f: (self.out_dir / f).read_text(encoding="utf-8") for f in self.files}

    def bytes_written(self) -> int:
        return sum((self.out_dir / f).stat().st_size for f in self.files)

    def check(self, argv, rc: int) -> None:
        expect(rc == 0, f"tdasim all exited {rc}")
        text = self.read()
        s = self.scenario
        expect(text["scenario.json"] == S.dumps(S.scenario_to_dict(s)), "scenario.json differs")
        expect(text["trace.json"] == S.dumps(R.trace_to_dict(self.expected_trace)),
               "trace.json differs from the library's replay")
        graph = json.loads(text["graph.json"])
        expect(len(graph["vertices"]) == self.vertices, "graph.json vertex count")
        expect(len({v["wid"] for v in graph["vertices"]}) == self.pieces, "graph.json piece count")
        route = {s.label(n) for n in self.expected_trace.path[:-1]}
        detect = json.loads(text["detect.json"])
        expect(set(detect["global"]["flagged"]) <= route, "global flags off the route")
        expect(set(detect["local"]["flagged"]) <= route, "local flags off the route")
        metrics = json.loads(text["metrics.json"])
        expect(metrics["delivered"] and metrics["hop_count"] == self.expected_trace.hop_count,
               "metrics.json disagrees with the trace")
        current = {f: digest(text[f]) for f in self.files}
        if self.first is None:
            self.first = current
        expect(current == self.first, "tdasim all output changed between identical runs")

    def digests(self, argv, rc: int) -> dict:
        text = self.read()
        metrics = json.loads(text["metrics.json"])
        doc = {f: digest(text[f]) for f in self.files if f != "metrics.json"}
        doc["metrics"] = {k: metrics[k] for k in ("delivered", "path", "flagged",
                                                  "fp_weight", "sp_weight")}
        return doc


WORKLOADS = {w.name: w for w in (Table2Sweep, DenseAll)}

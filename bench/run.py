"""tdasim benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload table2-sweep --seed 1 --seconds 50 --trace 0

Load comes from one client in a closed loop: the next operation starts when
the previous one has finished, in this process and thread.  Every operation's
output is checked; failures are counted, not fatal.  With ``--trace 0`` the
last line of standard output is a JSON object holding every end-to-end metric
named in BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric,
taken from spans recorded around tdasim's public functions, and the spans are
written to ``.bench_run/``.

``--write-reference`` records the digests of the default seed's outputs in
bench/reference.json; every run compares the program against them.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, fields
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 5


def _import_program():
    """Import tdasim from this checkout's sources, and from nowhere else."""
    if not (SRC / "tdasim" / "__init__.py").is_file():
        raise SystemExit(f"bench: no tdasim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tdasim
    if Path(tdasim.__file__).resolve().parent != SRC / "tdasim":
        raise SystemExit(f"bench: imported tdasim from {tdasim.__file__}, not {SRC}")


@dataclass
class Loop:
    wall: list[float] = field(default_factory=list)   # seconds per operation
    cpu: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def ops(self) -> int:
        return len(self.wall)


def _fail(what: str) -> None:
    print(f"bench: FAILED {what}", file=sys.stderr)


def run_op(wl, i: int, loop: Loop, tracer=None) -> None:
    """Time operation i, then check its output; either failing counts once."""
    x = wl.inputs(i)
    out, ok = None, True
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            out = wl.op(x)
        else:
            tracer.op = i
            out = tracer.wrap("op", "", wl.op)(x)
    except Exception:  # an operation that raises is a failed operation
        ok = False
        _fail(f"{wl.name} op {i}:\n{traceback.format_exc()}")
    loop.wall.append(time.perf_counter() - t0)
    loop.cpu.append(time.process_time() - c0)
    if ok:
        try:
            if tracer is None:
                wl.check(x, out)
            else:
                with tracer.paused():
                    wl.check(x, out)
        except Exception as exc:
            ok = False
            _fail(f"{wl.name} op {i}: {type(exc).__name__}: {exc}")
    loop.failed += not ok


def measure(wl, seconds: float, between=None, n_between: int = 0) -> Loop:
    """Run operations back to back for `seconds`, and at least one.  Calls
    `between` n_between times, spread evenly over the run."""
    loop = Loop()
    begin = time.perf_counter()
    done = 0
    while loop.ops == 0 or time.perf_counter() - begin < seconds:
        run_op(wl, loop.ops, loop)
        if done < n_between and time.perf_counter() - begin >= seconds * (done + 1) / (n_between + 1):
            between()
            done += 1
    for _ in range(done, n_between):
        between()
    return loop


def reference_docs(cls, workdir: Path) -> dict:
    """Digests of the default seed's outputs, computed now."""
    import workloads
    wl = cls(workloads.DEFAULT_SEED, workdir / "reference")
    wl.setup()
    docs = {}
    for i in range(cls.reference_ops):
        x = wl.inputs(i)
        out = wl.op(x)
        wl.check(x, out)
        docs[str(i)] = wl.digests(x, out)
    return docs


def check_reference(cls, workdir: Path) -> tuple[int, int]:
    """(attempted, failed) entries of the recorded reference for this workload."""
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))[cls.name]
    try:
        now = reference_docs(cls, workdir)
    except Exception:
        _fail(f"{cls.name} reference:\n{traceback.format_exc()}")
        return len(recorded), len(recorded)
    bad = [k for k in recorded if now.get(k) != recorded[k]]
    for k in bad:
        _fail(f"{cls.name} reference entry {k}: {now.get(k)} != recorded {recorded[k]}")
    return len(recorded), len(bad)


def percentile_ms(samples: list[float], q: int) -> float:
    if len(samples) == 1:
        return samples[0] * 1000.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000.0


def end_to_end(setup: list[float], loop: Loop) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop.ops / sum(loop.wall),
        "op_ms.p50": statistics.median(loop.wall) * 1000.0,
        "op_ms.p90": percentile_ms(loop.wall, 90),
        "op_cpu_ms.p50": statistics.median(loop.cpu) * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def graph_counts(windows, t_tr) -> dict[str, float]:
    """Size of the graph built from these windows, and the time to rebuild
    its lookup index from its fields (the Twig constructor's work, without
    splitting or wiring)."""
    from workloads import T
    g = T.build(windows, t_tr)
    try:
        edges = len(g.edges)
    except AttributeError:
        edges = len(T.graph_to_dict(g)["edges"])
    try:
        kwargs = {f.name: getattr(g, f.name) for f in fields(g) if f.init}
        t0 = time.perf_counter()
        type(g)(**kwargs)
        index_ms = (time.perf_counter() - t0) * 1000.0
    except (TypeError, AttributeError):
        index_ms = -1.0  # the graph type no longer exposes its fields
    return {"twig.pieces": len({v.wid for v in g.vertices}), "twig.vertices": len(g.vertices),
            "twig.edges": edges, "twig.index.ms": index_ms}


def traced_pass(wl, seconds: float) -> tuple[Loop, dict[str, float]]:
    """Each input twice, untraced and traced, for `seconds` in all."""
    from tracing import Tracer, calls_at, layer_metrics
    plain, traced = Loop(), Loop()
    tracer = Tracer()
    # graphs are rebuilt outside the operation from the kept arguments:
    # keeping the returned graphs would move their deallocation out of the
    # timed operation
    tracer.keep_args, tracer.keep_results = {"twig.build"}, {"simulator.simulate"}
    built, traces = tracer.args["twig.build"], tracer.results["simulator.simulate"]
    sizes: dict[tuple, dict[str, float]] = {}
    graphs: list[dict[str, float]] = []
    counts = {"cli.bytes_written": 0, "simulator.hops": 0, "simulator.dropped": 0}
    begin = time.perf_counter()
    while plain.ops == 0 or time.perf_counter() - begin < seconds:
        i = plain.ops
        if i % 2:  # alternate which side runs first: the second run of an input is faster
            run_op(wl, i, plain)
        with tracer.install():
            run_op(wl, i, traced, tracer)
        if not i % 2:
            run_op(wl, i, plain)
        # work counters from the returned values, outside the timed operation
        for windows, t_tr in built:
            key = (tuple(windows), t_tr)
            if key not in sizes:
                sizes[key] = graph_counts(windows, t_tr)
            graphs.append(sizes[key])
        counts["simulator.hops"] += sum(t.hop_count for t in traces)
        counts["simulator.dropped"] += sum(not t.delivered for t in traces)
        built.clear()
        traces.clear()
        if hasattr(wl, "bytes_written"):
            counts["cli.bytes_written"] += wl.bytes_written()
    spans = tracer.spans()
    WORKDIR.mkdir(exist_ok=True)
    tracer.write(WORKDIR / f"spans-{wl.name}.jsonl")

    n = traced.ops
    out = layer_metrics(spans, n)
    out.update({k: v / n for k, v in counts.items()})
    for key in ("twig.pieces", "twig.vertices", "twig.edges", "twig.index.ms"):
        out[key] = statistics.fmean(g[key] for g in graphs) if graphs else 0.0
    attempts = calls_at(spans, "scenario.validate_scenario", "generate")
    accepted = sum(1 for s in spans if s.name == "generate.generate" and not s.error)
    out["generate.attempts"] = attempts / n
    out["generate.conclusive_checks"] = calls_at(spans, "twig.build", "generate") / n
    out["generate.accepted"] = accepted / n
    out["generate.accept_ratio"] = accepted / attempts if attempts else 0.0
    out["trace.overhead_ms"] = (statistics.median(traced.wall)
                                - statistics.median(plain.wall)) * 1000.0
    print(f"bench: traced {n} ops, {len(spans)} spans; untraced p50 "
          f"{statistics.median(plain.wall) * 1000:.3f} ms, traced p50 "
          f"{statistics.median(traced.wall) * 1000:.3f} ms")
    return Loop(plain.wall + traced.wall, plain.cpu + traced.cpu,
                plain.failed + traced.failed), out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    cls = workloads.WORKLOADS[name]
    wl = cls(seed, WORKDIR)
    setup: list[float] = []

    def set_up() -> None:
        t0 = time.perf_counter()
        wl.setup()
        setup.append(time.perf_counter() - t0)

    set_up()
    gc.collect()
    if trace:
        loop, values = traced_pass(wl, seconds)
    else:
        # the other set-ups run spread over the loop, so that their median sees
        # the same machine as the operations do
        loop = measure(wl, seconds, set_up, SETUP_REPEATS - 1)
        values = end_to_end(setup, loop)  # before the reference check adds to peak RSS
        p90_tail = loop.ops - int(loop.ops * 0.9)
        print(f"bench: {name} seed {seed}: {loop.ops} ops in {sum(loop.wall):.3f} s "
              f"({p90_tail} samples above p90), set-up {len(setup)}x")
    ref_attempted, ref_failed = check_reference(cls, WORKDIR)
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<40} {values[m['name']]:>14.6f} {m['unit']}")
    failed = loop.failed + ref_failed
    return {"correct": failed == 0, "attempted": loop.ops + ref_attempted,
            "failed": failed, "metrics": metrics}


def write_reference() -> None:
    import workloads
    docs = {name: reference_docs(cls, WORKDIR) for name, cls in workloads.WORKLOADS.items()}
    REFERENCE.write_text(json.dumps(docs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"bench: wrote {REFERENCE}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    _import_program()
    import workloads
    if args.write_reference:
        write_reference()
        return 0
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

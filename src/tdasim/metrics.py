"""Overhead, detection quality, and runtime measurements.

The overhead model prices the metadata each detection mode attaches per hop
against the fixed message payload.  Global knowledge accumulates one record
per traversed hop, so a message that has travelled j hops carries j records;
the local mode keeps only the two most recent records, a constant 40 bits.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence, Union

from .detection import DetectionReport, LocalScan, detect_global, run_local_pipeline
from .scenario import NodeId, Scenario, to_seconds
from .simulator import PacketTrace, simulate
from .twig import build


class OverheadModel:
    """The paper's fixed sizes, in bits: the message, and per mode the record
    it attaches and whether records pile up, j of them at hop j, or one
    constant record rides every hop."""

    message_bits = 1400
    global_bits = 7 + 13  # a node id and a reception time
    records = {"global": (global_bits, True),
               "local": (40, False),  # two carried relay records, fixed
               "hotd": (105, True)}   # the reference scheme's per-hop record


MODES = tuple(OverheadModel.records)


def eor(model: OverheadModel, mode: str, hops: Union[int, Sequence[int]]) -> float:
    """Extra overhead ratio: attached metadata bits over payload bits.

    Cumulative modes (global, hotd) attach j records at hop j, so a message
    of H hops contributes H(H+1)/2 attachments; local attaches one per hop.
    """
    counts = [hops] if isinstance(hops, int) else list(hops)
    if not counts:
        raise ValueError("at least one hop count is required")
    if any(h < 1 for h in counts):
        raise ValueError("hop counts must be at least 1")
    if mode not in model.records:
        raise ValueError(f"unknown mode: {mode!r}")
    bits, cumulative = model.records[mode]
    payload = sum(model.message_bits * h for h in counts)
    attached = sum(bits * (h * (h + 1) // 2 if cumulative else h) for h in counts)
    return attached / payload


def score(flagged: Iterable[NodeId], truth: Iterable[NodeId]) -> tuple[float, float]:
    """(precision, recall) of a flag set against the ground-truth attacker set."""
    flagged, truth = frozenset(flagged), frozenset(truth)
    hits = len(flagged & truth)
    precision = 1.0 if not flagged else hits / len(flagged)
    recall = 1.0 if not truth else hits / len(truth)
    return precision, recall


def time_phases(s: Scenario, repeats: int = 10) -> dict[str, float]:
    """Median wall-clock seconds per pipeline phase over the given repeats.

    Each repeat builds a new graph rather than reading s.graph, so the timings
    cover a real build and searches on an empty memo.  The detectors run on
    a second graph, built untimed, since simulate's searches would answer
    detect_global's from the memo.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    samples: dict[str, list[float]] = {}

    def measure(name: str, fn):
        t0 = time.perf_counter()
        result = fn()
        samples.setdefault(name, []).append(time.perf_counter() - t0)
        return result

    out: dict[str, float] = {}
    for _ in range(repeats):
        g = measure("build", lambda: build(s.windows, s.t_tr))
        trace = measure("simulate", lambda: simulate(s, g))
        if trace.delivered:
            fresh = build(s.windows, s.t_tr)
            measure("detect_global", lambda: detect_global(fresh, trace))
            measure("detect_local", lambda: run_local_pipeline(s, fresh, trace))
    return {name: statistics.median(vals) for name, vals in samples.items()}


@dataclass(frozen=True)
class MetricsReport:
    """One scenario's full evaluation; times in seconds, weights in seconds."""

    delivered: bool
    hop_count: int
    path: tuple[str, ...]
    fp_weight: float | None
    sp_weight: float | None
    physical_arrival: float | None
    eor: dict[str, float] = field(default_factory=dict)
    flagged: dict[str, list[str]] = field(default_factory=dict)
    precision: dict[str, float] = field(default_factory=dict)
    recall: dict[str, float] = field(default_factory=dict)
    runtime: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {**asdict(self), "path": list(self.path)}


def evaluate_scenario(s: Scenario, *, timing_repeats: int = 10) -> MetricsReport:
    """Run the whole pipeline once and fold the results into one report.

    Surfaces both the graph-weight view (fp/sp) and the physical arrival time,
    which can rank routes differently when hop counts differ.
    """
    g = s.graph
    trace = simulate(s, g)
    timings = time_phases(s, timing_repeats) if timing_repeats else {}
    if not trace.delivered:
        return MetricsReport(
            delivered=False,
            hop_count=trace.hop_count,
            path=tuple(s.label(n) for n in trace.path),
            fp_weight=None, sp_weight=None, physical_arrival=None,
            runtime=timings,
        )
    return _fold(s, trace, detect_global(g, trace), run_local_pipeline(s, g, trace), timings)


def _fold(s: Scenario, trace: PacketTrace, greport: DetectionReport, lscan: LocalScan,
          timings: dict[str, float]) -> MetricsReport:
    """The report of a delivered trace from both detectors' results on it."""
    gprec, grec = score(greport.flagged, s.attack.attackers())
    lprec, lrec = score(lscan.merged_flagged(), s.attack.attackers())
    h = trace.hop_count
    return MetricsReport(
        delivered=True,
        hop_count=h,
        path=tuple(s.label(n) for n in trace.path),
        fp_weight=to_seconds(greport.fp_weight),
        sp_weight=None if greport.sp_weight is None else to_seconds(greport.sp_weight),
        physical_arrival=None if trace.physical_arrival is None
        else to_seconds(trace.physical_arrival),
        eor={mode: eor(OverheadModel(), mode, h) for mode in MODES},
        flagged={
            "global": [s.label(n) for n in greport.flagged],
            "local": [s.label(n) for n in lscan.merged_flagged()],
        },
        precision={"global": gprec, "local": lprec},
        recall={"global": grec, "local": lrec},
        runtime=timings,
    )

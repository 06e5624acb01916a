"""Command-line pipeline: generate, graph, simulate, detect, metrics, all.

Exit codes: 0 success, 1 usage error, 2 load/invariant/generation failure.
Every run is a pure function of its inputs and the seed; `all` writes the
same bytes the individual subcommands would produce.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Sequence

from .detection import (
    DetectionReport,
    InconsistentTrace,
    LocalScan,
    detect_global,
    local_scan_to_dict,
    report_to_dict,
    run_local_pipeline,
)
from .generate import GenerationError, generate, preset_params
from .metrics import MODES, OverheadModel, _fold, eor, evaluate_scenario
from .scenario import Scenario, ScenarioError, dumps, load_scenario, scenario_to_dict
from .simulator import PacketTrace, simulate, trace_to_dict
from .twig import Twig, _dot_lines, _graph_json


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _hops(text: str) -> tuple[int, ...]:
    return tuple(_positive_int(part) for part in text.split(","))


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="tdasim",
        description="Simulate store-carry-forward delay attacks and run the detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, *, scenario: bool = False, preset: bool = False,
               required: bool = True, mode: bool = False, fmt: Sequence[str] = (),
               out_dir: bool = False) -> None:
        # a scenario comes from one source; with both on offer, from one or the other
        both = scenario and preset
        source = p.add_mutually_exclusive_group(required=required) if both else p
        need = {} if both else {"required": required}
        if scenario:
            source.add_argument("--scenario", metavar="PATH", help="scenario JSON file", **need)
        if preset:
            source.add_argument("--preset", metavar="NAME",
                                help="generation preset (table2-row1 .. table2-row5)", **need)
            p.add_argument("--seed", type=int, default=0, help="generation seed")
        if mode:
            p.add_argument("--mode", choices=("global", "local", "both"), default="both")
        if fmt:
            p.add_argument("--format", choices=tuple(fmt), default="json")
        if out_dir:
            p.add_argument("--out", metavar="DIRECTORY", required=True, help="output directory")
        else:
            p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")

    common(sub.add_parser("generate", help="produce a random scenario file"),
           preset=True)
    common(sub.add_parser("graph", help="build the time-window graph"),
           scenario=True, fmt=("json", "dot"))
    common(sub.add_parser("simulate", help="replay the tracked message"),
           scenario=True)
    common(sub.add_parser("detect", help="simulate, then run the detectors"),
           scenario=True, mode=True)
    p_metrics = sub.add_parser("metrics", help="evaluate a scenario or tabulate overhead")
    p_metrics.add_argument("--eor", action="store_true", dest="eor_table",
                           help="emit the overhead-ratio table for --hops")
    p_metrics.add_argument("--hops", type=_hops, metavar="LIST",
                           help="comma-separated hop counts, e.g. 4,5,7,10,15")
    p_metrics.add_argument("--runs", type=_positive_int, default=1, metavar="K",
                           help="evaluate K consecutive seeds of --preset")
    common(p_metrics, scenario=True, preset=True, required=False, fmt=("json", "csv"))
    common(sub.add_parser("all", help="run the whole pipeline into a directory"),
           scenario=True, preset=True, mode=True, out_dir=True)
    return parser


def _emit(text: str | Iterable[str], out: str | Path | None) -> None:
    """Write text, or its chunks in order, to the file out, or to stdout without one."""
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(chunks)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(chunks)


def _obtain_scenario(args: argparse.Namespace) -> Scenario:
    """The scenario from --scenario, else from --preset and --seed."""
    if args.scenario is not None:
        return load_scenario(args.scenario)
    return generate(preset_params(args.preset, args.seed))


def _judge(s: Scenario, g: Twig, trace: PacketTrace,
           mode: str = "both") -> tuple[DetectionReport | None, LocalScan | None]:
    """The detectors the mode asks for, run on a delivered trace (None for the other)."""
    if not trace.delivered:
        raise InconsistentTrace(
            "detect: the message was dropped before the destination; nothing to judge"
        )
    greport = detect_global(g, trace) if mode != "local" else None
    lscan = run_local_pipeline(s, g, trace) if mode != "global" else None
    return greport, lscan


def _detect_payload(s: Scenario, greport: DetectionReport | None, lscan: LocalScan | None,
                    mode: str) -> dict:
    payload: dict = {}
    if mode in ("global", "both"):
        payload["global"] = report_to_dict(greport, s.label)
    if mode in ("local", "both"):
        payload["local"] = local_scan_to_dict(lscan, s.label)
    return payload[mode] if mode != "both" else payload


def _cmd_generate(args: argparse.Namespace, parser: _Parser) -> None:
    s = generate(preset_params(args.preset, args.seed))
    _emit(dumps(scenario_to_dict(s)), args.out)


def _cmd_graph(args: argparse.Namespace, parser: _Parser) -> None:
    s = load_scenario(args.scenario)
    g = s.graph
    _emit(_dot_lines(g, s.label) if args.format == "dot" else _graph_json(g), args.out)


def _cmd_simulate(args: argparse.Namespace, parser: _Parser) -> None:
    s = load_scenario(args.scenario)
    trace = simulate(s)
    _emit(dumps(trace_to_dict(trace)), args.out)


def _cmd_detect(args: argparse.Namespace, parser: _Parser) -> None:
    s = load_scenario(args.scenario)
    g = s.graph
    greport, lscan = _judge(s, g, simulate(s, g), args.mode)
    _emit(dumps(_detect_payload(s, greport, lscan, args.mode)), args.out)


def _eor_text(hops: tuple[int, ...], fmt: str) -> str:
    model = OverheadModel()
    table = {mode: [eor(model, mode, h) for h in hops] for mode in MODES}
    if fmt == "csv":
        lines = [",".join(("hops", *MODES))]
        lines += [",".join((str(h), *(f"{table[mode][i]:.6f}" for mode in MODES)))
                  for i, h in enumerate(hops)]
        return "\n".join(lines) + "\n"
    return dumps({"hops": list(hops), "eor": table})


def _cmd_metrics(args: argparse.Namespace, parser: _Parser) -> None:
    if args.eor_table:
        if not args.hops:
            parser.error("metrics: --eor requires --hops")
        _emit(_eor_text(args.hops, args.format), args.out)
        return
    if args.format == "csv":
        parser.error("metrics: --format csv is only available with --eor")
    if args.runs > 1:
        if not args.preset:
            parser.error("metrics: --runs needs --preset to generate scenarios")
        runs = [
            {"seed": seed, **evaluate_scenario(
                generate(preset_params(args.preset, seed)), timing_repeats=0).to_dict()}
            for seed in range(args.seed, args.seed + args.runs)
        ]
        _emit(dumps({"runs": runs}), args.out)
        return
    if args.scenario is None and args.preset is None:
        parser.error("metrics: --scenario or --preset is required")
    s = _obtain_scenario(args)
    _emit(dumps(evaluate_scenario(s, timing_repeats=0).to_dict()), args.out)


def _cmd_all(args: argparse.Namespace, parser: _Parser) -> None:
    s = _obtain_scenario(args)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _emit(dumps(scenario_to_dict(s)), outdir / "scenario.json")
    g = s.graph
    _emit(_graph_json(g), outdir / "graph.json")
    trace = simulate(s, g)
    _emit(dumps(trace_to_dict(trace)), outdir / "trace.json")
    greport, lscan = _judge(s, g, trace)
    _emit(dumps(_detect_payload(s, greport, lscan, args.mode)), outdir / "detect.json")
    report = _fold(s, trace, greport, lscan, {})
    _emit(dumps(report.to_dict()), outdir / "metrics.json")


_COMMANDS = {
    "generate": _cmd_generate,
    "graph": _cmd_graph,
    "simulate": _cmd_simulate,
    "detect": _cmd_detect,
    "metrics": _cmd_metrics,
    "all": _cmd_all,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args, parser)
        return 0
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except (ScenarioError, GenerationError, InconsistentTrace, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

"""End-to-end command-line behavior: outputs, exit codes, composability."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from support import A, C, make_demo, oracle_graph_dict
import tdasim
from tdasim import build, load_scenario, save_scenario, scenario_to_dict, to_dot
from tdasim.cli import main


@pytest.fixture()
def demo_file(tmp_path):
    path = tmp_path / "demo.json"
    save_scenario(make_demo(), path)
    return str(path)


@pytest.fixture()
def attacked_file(tmp_path):
    path = tmp_path / "attacked.json"
    save_scenario(make_demo({A: 5, C: 6}), path)
    return str(path)


def run_ok(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return out


# ---------------------------------------------------------------------------
# happy paths

def test_generate_is_deterministic(tmp_path, capsys):
    one = run_ok(capsys, ["generate", "--preset", "table2-row1", "--seed", "1"])
    two = run_ok(capsys, ["generate", "--preset", "table2-row1", "--seed", "1"])
    assert one == two
    doc = json.loads(one)
    assert len(doc["nodes"]) == 7
    assert len(doc["windows"]) == 10
    assert len(doc["attack"]) == 2


def test_generate_out_matches_stdout(tmp_path, capsys):
    text = run_ok(capsys, ["generate", "--preset", "table2-row1", "--seed", "2"])
    out = tmp_path / "s.json"
    run_ok(capsys, ["generate", "--preset", "table2-row1", "--seed", "2",
                    "--out", str(out)])
    assert out.read_text() == text


def test_graph_json(demo_file, capsys):
    doc = json.loads(run_ok(capsys, ["graph", "--scenario", demo_file]))
    assert len(doc["vertices"]) == 22
    assert len(doc["edges"]) == 39


def test_graph_dot(demo_file, capsys):
    dot = run_ok(capsys, ["graph", "--scenario", demo_file, "--format", "dot"])
    assert dot.startswith("digraph")
    assert '"B^3.2" -> "B^5.1"' in dot or '"B^5.1" -> "B^3.2"' in dot


def test_simulate_benign(demo_file, capsys):
    doc = json.loads(run_ok(capsys, ["simulate", "--scenario", demo_file]))
    assert doc["delivered"] is True
    assert [h["node"] for h in doc["hops"]] == [0, 1, 2, 3, 6]
    assert [h["t"] for h in doc["hops"]] == [0.0, 6.0, 26.0, 27.0, 91.0]


def test_detect_both_modes(attacked_file, capsys):
    doc = json.loads(run_ok(capsys, ["detect", "--scenario", attacked_file]))
    assert doc["global"]["flagged"] == ["A", "C"]
    assert doc["local"]["flagged"] == ["A", "C"]


def test_detect_single_mode(attacked_file, capsys):
    doc = json.loads(
        run_ok(capsys, ["detect", "--scenario", attacked_file, "--mode", "global"])
    )
    assert doc["mode"] == "global"
    assert doc["flagged"] == ["A", "C"]
    assert doc["fp_weight"] == 151.0


def test_metrics_scenario(attacked_file, capsys):
    doc = json.loads(run_ok(capsys, ["metrics", "--scenario", attacked_file]))
    assert doc["flagged"] == {"global": ["A", "C"], "local": ["A", "C"]}
    assert doc["precision"] == {"global": 1.0, "local": 1.0}
    assert doc["runtime"] == {}  # reports must not embed wall-clock noise


def test_metrics_eor_csv(capsys):
    text = run_ok(capsys, ["metrics", "--eor", "--hops", "4,5,7,10,15",
                           "--format", "csv"])
    lines = text.strip().splitlines()
    assert lines[0] == "hops,global,local,hotd"
    assert lines[1] == "4,0.035714,0.028571,0.187500"
    assert lines[-1] == "15,0.114286,0.028571,0.600000"


def test_metrics_eor_json(capsys):
    doc = json.loads(run_ok(capsys, ["metrics", "--eor", "--hops", "4,15"]))
    assert doc["hops"] == [4, 15]
    assert doc["eor"]["local"] == [40 / 1400, 40 / 1400]
    assert doc["eor"]["hotd"][0] == pytest.approx(0.1875)


def test_metrics_eor_bytes_are_pinned(capsys):
    """The whole EOR table at the paper's hop counts, byte for byte, in both formats."""
    for fmt, pinned in (
        ("csv", ("16b850e1b4b8fdd6c86583af1884bf27334802ffe708ff637d912ae018d8d69c", 170)),
        ("json", ("14d7e0194a145eef9c817813eaf45cf30d270b1f8db5998e9d017e30f466e492", 467)),
    ):
        data = run_ok(capsys, ["metrics", "--eor", "--hops", "4,5,7,10,15",
                               "--format", fmt]).encode("utf-8")
        assert (hashlib.sha256(data).hexdigest(), len(data)) == pinned


def test_metrics_runs_batch(capsys):
    batch = json.loads(run_ok(capsys, [
        "metrics", "--preset", "table2-row1", "--seed", "5", "--runs", "3",
    ]))
    assert [r["seed"] for r in batch["runs"]] == [5, 6, 7]
    single = json.loads(run_ok(capsys, [
        "metrics", "--preset", "table2-row1", "--seed", "6",
    ]))
    middle = {k: v for k, v in batch["runs"][1].items() if k != "seed"}
    assert middle == single
    for row in batch["runs"]:
        assert row["precision"] == {"global": 1.0, "local": 1.0}
        assert row["recall"]["local"] == 1.0


def test_all_composes_exactly_like_the_stages(attacked_file, tmp_path, capsys):
    outdir = tmp_path / "bundle"
    assert main(["all", "--scenario", attacked_file, "--out", str(outdir)]) == 0
    capsys.readouterr()
    expected = {
        "scenario.json": None,
        "graph.json": ["graph", "--scenario", attacked_file],
        "trace.json": ["simulate", "--scenario", attacked_file],
        "detect.json": ["detect", "--scenario", attacked_file],
        "metrics.json": ["metrics", "--scenario", attacked_file],
    }
    assert {p.name for p in outdir.iterdir()} == set(expected)
    for name, argv in expected.items():
        if argv is None:
            continue
        assert (outdir / name).read_text() == run_ok(capsys, argv), name


def test_graph_files_are_the_dict_dump_byte_for_byte(attacked_file, tmp_path, capsys):
    """graph.json, streamed to stdout, to --out and by `all`, is json.dumps of
    the hand-built graph.json oracle; the streamed DOT is to_dot's text."""
    s = load_scenario(attacked_file)
    g = build(s.windows, s.t_tr)
    oracle = (json.dumps(oracle_graph_dict(g), indent=2) + "\n").encode("utf-8")
    graph = ["graph", "--scenario", attacked_file]
    assert run_ok(capsys, graph).encode("utf-8") == oracle
    run_ok(capsys, [*graph, "--out", str(tmp_path / "graph.json")])
    assert (tmp_path / "graph.json").read_bytes() == oracle
    assert main(["all", "--scenario", attacked_file, "--out", str(tmp_path / "all")]) == 0
    assert (tmp_path / "all" / "graph.json").read_bytes() == oracle
    dot = to_dot(g, s.label)
    assert run_ok(capsys, [*graph, "--format", "dot"]) == dot
    run_ok(capsys, [*graph, "--format", "dot", "--out", str(tmp_path / "graph.dot")])
    assert (tmp_path / "graph.dot").read_bytes() == dot.encode("utf-8")


def test_all_from_preset_composes(tmp_path, capsys):
    outdir = tmp_path / "bundle"
    assert main(["all", "--preset", "table2-row1", "--seed", "4",
                 "--out", str(outdir)]) == 0
    capsys.readouterr()
    scenario = run_ok(capsys, ["generate", "--preset", "table2-row1", "--seed", "4"])
    assert (outdir / "scenario.json").read_text() == scenario
    saved = tmp_path / "s.json"
    saved.write_text(scenario)
    detect = run_ok(capsys, ["detect", "--scenario", str(saved)])
    assert (outdir / "detect.json").read_text() == detect


def run_cli_process(argv: list[str]) -> subprocess.CompletedProcess:
    """The command line run in a fresh interpreter, as a user would run it."""
    # the child must import the same package as this process, installed or not
    package_root = str(Path(tdasim.__file__).resolve().parent.parent)
    path = [package_root, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    return subprocess.run(
        [sys.executable, "-m", "tdasim.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
    )


def test_console_entry_point(demo_file):
    proc = run_cli_process(["simulate", "--scenario", demo_file])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["delivered"] is True


def test_every_exported_name_resolves():
    missing = [name for name in tdasim.__all__ if not hasattr(tdasim, name)]
    assert missing == []
    assert len(set(tdasim.__all__)) == len(tdasim.__all__)


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["unknown-subcommand"],
        ["generate"],  # no preset
        ["simulate"],  # no scenario
        ["graph"],
        ["detect"],
        ["metrics"],  # neither scenario nor preset
        ["metrics", "--eor"],  # --eor without --hops
        ["metrics", "--eor", "--hops", "4,x"],
        ["metrics", "--eor", "--hops", "0,4"],
        ["metrics", "--runs", "2"],  # --runs without --preset
        ["all"],  # no out
        ["graph", "--format", "yaml"],
        ["detect", "--mode", "sideways"],
        ["metrics", "--preset", "table2-row1", "--runs", "0"],
        ["metrics", "--preset", "table2-row1", "--runs", "-2"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == 1
    capsys.readouterr()


def test_scenario_and_preset_conflict_exits_1(demo_file, capsys):
    code = main(["metrics", "--scenario", demo_file, "--preset", "table2-row1"])
    assert code == 1
    capsys.readouterr()


def test_all_takes_exactly_one_scenario_source(demo_file, tmp_path, capsys):
    """`all` needs --scenario or --preset, not both, and writes nothing otherwise."""
    out = tmp_path / "bundle"
    for sources in ([], ["--scenario", demo_file, "--preset", "table2-row1"]):
        assert main(["all", *sources, "--out", str(out)]) == 1
        assert "--scenario" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_csv_without_eor_exits_1(demo_file, capsys):
    assert main(["metrics", "--scenario", demo_file, "--format", "csv"]) == 1
    capsys.readouterr()


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["simulate", "--scenario", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def _demo_doc(edit) -> str:
    doc = scenario_to_dict(make_demo())
    edit(doc)
    return json.dumps(doc)  # writes NaN and Infinity as the JSON extensions


@pytest.mark.parametrize(
    "text",
    [
        '{"nodes": []}',
        _demo_doc(lambda d: d["windows"][0].update(start=float("nan"))),
        _demo_doc(lambda d: d["windows"][0].update(end=float("inf"))),
        _demo_doc(lambda d: d.update(nodes=[0, 1])),
        _demo_doc(lambda d: d.update(windows=5)),
        _demo_doc(lambda d: d.update(attack={"x": 1.0})),
        _demo_doc(lambda d: d.update(t_tr="abc")),
        _demo_doc(lambda d: d["nodes"][0].update(name=[1, 2])),
        _demo_doc(lambda d: d["nodes"][0].update(name=5)),
        _demo_doc(lambda d: d["nodes"][0].update(range=float("nan"))),
        _demo_doc(lambda d: d["nodes"][0].update(range=float("inf"))),
        _demo_doc(lambda d: d["nodes"][0].update(speed=float("nan"))),
        _demo_doc(lambda d: d["nodes"][0].update(waypoints=[[float("nan"), 0, 0, 0]])),
        _demo_doc(lambda d: d["nodes"][0].update(waypoints=[[0, float("-inf"), 0, 0]])),
        _demo_doc(lambda d: d["windows"][0].update(wid=1.9)),
        _demo_doc(lambda d: d["windows"][0].update(a="0")),
        _demo_doc(lambda d: d["windows"][0].update(b=True)),
        _demo_doc(lambda d: d["nodes"][0].update(id=0.0)),
        _demo_doc(lambda d: d.update(source=True)),
        _demo_doc(lambda d: d.update(destination=6.0)),
        _demo_doc(lambda d: d.update(attack={"01": 5.0})),
        _demo_doc(lambda d: d.update(attack={"+1": 5.0})),
        b"\xff\xfe" + _demo_doc(lambda d: None).encode("utf-16-le"),
        "[" * 100_000,
        _demo_doc(lambda d: None).replace('"source": 0,', '"source": ' + "1" * 5000 + ","),
        "[1, 2]",
        _demo_doc(lambda d: d.update(attack=[1])),
        _demo_doc(lambda d: d["nodes"][0].update(id=-1)),
        _demo_doc(lambda d: d["nodes"][0].update(waypoints=[])),
        _demo_doc(lambda d: d.update(source=99)),
        _demo_doc(lambda d: d["windows"][0].pop("end")),
        _demo_doc(lambda d: d["windows"][0].update(start="0")),
        _demo_doc(lambda d: d["windows"][0].update(start=0, end=True)),
        _demo_doc(lambda d: d.update(t_tr="0.5")),
        _demo_doc(lambda d: d.update(attack={"0": False})),
        _demo_doc(lambda d: d["nodes"][0].update(range="10")),
    ],
    ids=["missing-keys", "nan-time", "inf-time", "nodes-not-objects", "windows-not-list",
         "attack-key-not-int", "t_tr-not-number", "name-list", "name-number", "nan-range",
         "inf-range", "nan-speed", "nan-waypoint", "inf-waypoint", "wid-float", "a-string",
         "b-bool", "node-id-float", "source-bool", "destination-float", "attack-key-padded",
         "attack-key-signed", "utf16-bom", "deep-nesting", "long-integer", "not-object",
         "attack-not-object", "negative-node-id", "empty-waypoints", "unknown-source",
         "window-missing-keys", "start-string", "end-bool", "t_tr-string", "attack-delay-bool",
         "range-string"],
)
def test_invalid_scenario_exits_2(text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert main(["graph", "--scenario", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# the demo with a t_tr of 980 nested lists
DEEP_T_TR = _demo_doc(lambda d: None).replace('"t_tr": 1.0,',
                                              '"t_tr": ' + "[" * 980 + "]" * 980 + ",")


@pytest.mark.parametrize(
    "text",
    [
        DEEP_T_TR,
        _demo_doc(lambda d: d["windows"][0].update(wid=list(range(3000)))),
        _demo_doc(lambda d: d["nodes"][0].update(id=list(range(3000)))),
        _demo_doc(lambda d: d["nodes"][0].update(name=list(range(3000)))),
        _demo_doc(lambda d: d["windows"][0].update(wid=int("7" * 4000), b=d["windows"][0]["a"])),
    ],
    ids=["t_tr-nested", "wid-list", "node-id-list", "name-list", "wid-4000-digits"],
)
def test_huge_invalid_values_give_short_errors(text, tmp_path):
    # a fresh process, whose shallow stack parses the 980 nested lists
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    proc = run_cli_process(["graph", "--scenario", str(bad)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "not valid JSON" not in proc.stderr
    assert len(proc.stderr.encode("utf-8")) < 200, proc.stderr


def test_deep_nesting_error_is_independent_of_the_stack(tmp_path, capsys):
    """The JSON parser recurses once per level, so the error for a deeply
    nested file must not depend on how deep the caller's stack already is."""
    bad = tmp_path / "bad.json"
    bad.write_text(DEEP_T_TR, encoding="utf-8")
    argv = ["graph", "--scenario", str(bad)]

    def under(frames: int) -> tuple[int, str]:
        if frames:
            return under(frames - 1)
        return main(argv), capsys.readouterr().err

    proc = run_cli_process(argv)
    assert proc.stderr.startswith("error:")
    assert {under(0), under(100)} == {(2, proc.stderr)}


def test_unknown_preset_exits_2(capsys):
    assert main(["generate", "--preset", "table9-row9"]) == 2
    err = capsys.readouterr().err
    assert "unknown preset" in err


def test_detect_on_dropped_message_exits_2(tmp_path, capsys):
    path = tmp_path / "dropped.json"
    save_scenario(make_demo({C: 1000}), path)
    assert main(["detect", "--scenario", str(path)]) == 2
    err = capsys.readouterr().err
    assert "dropped" in err

"""Simulator and detection toolkit for transmission-delay attacks in
store-carry-forward networks with scheduled contact windows."""

from .detection import (
    Alert,
    DetectionReport,
    GlobalCheck,
    HopMetadata,
    InconsistentTrace,
    LocalCheck,
    LocalScan,
    NeighborTables,
    RelayInfo,
    detect_global,
    detect_local,
    local_scan_to_dict,
    report_to_dict,
    run_local_pipeline,
)
from .generate import (
    GenerationError,
    GenerationParams,
    PRESETS,
    generate,
    preset_params,
)
from .metrics import (
    MODES,
    MetricsReport,
    OverheadModel,
    eor,
    evaluate_scenario,
    score,
    time_phases,
)
from .scenario import (
    MICROS,
    AttackConfig,
    Node,
    NodeId,
    NodeKind,
    Scenario,
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
from .simulator import (
    HopRecord,
    PacketTrace,
    benign_next_hop,
    load_trace,
    simulate,
    trace_from_dict,
    trace_to_dict,
    window_misses,
)
from .twig import (
    Twig,
    TwigPath,
    TwigVertex,
    build,
    embed_trace,
    graph_to_dict,
    shortest_path,
    to_dot,
)

__version__ = "1.0.0"

__all__ = [
    "Alert", "AttackConfig", "DetectionReport", "GenerationError", "GenerationParams", "GlobalCheck",
    "HopMetadata", "HopRecord", "InconsistentTrace", "LocalCheck", "LocalScan",
    "MetricsReport", "MICROS", "MODES", "NeighborTables", "Node", "NodeId", "NodeKind",
    "OverheadModel", "PacketTrace", "PRESETS", "RelayInfo", "Scenario",
    "ScenarioError", "TimeWindow", "Twig", "TwigPath", "TwigVertex",
    "Waypoint", "benign_next_hop", "build", "derive_windows", "detect_global",
    "detect_local", "earliest_arrival", "embed_trace", "eor", "evaluate_scenario",
    "generate", "graph_to_dict", "load_scenario", "load_trace", "local_scan_to_dict",
    "preset_params", "report_to_dict", "run_local_pipeline", "save_scenario",
    "scenario_from_dict", "scenario_to_dict", "score", "shortest_path", "simulate",
    "time_phases", "to_dot", "to_seconds", "to_us", "trace_from_dict",
    "trace_to_dict", "validate_scenario", "window_misses",
]

"""Seeded scenario generation: pinned output and the feasibility checks."""

from __future__ import annotations

import hashlib

import pytest

from tdasim import (
    PRESETS,
    GenerationError,
    GenerationParams,
    detect_global,
    evaluate_scenario,
    generate,
    local_scan_to_dict,
    preset_params,
    report_to_dict,
    run_local_pipeline,
    scenario_to_dict,
    simulate,
    trace_to_dict,
)
from tdasim.scenario import dumps


def test_generated_scenarios_are_pinned():
    """Every preset's seeds 0-59 dump to the same bytes as when this digest was taken.

    Same-seed determinism alone would not notice a changed window duration,
    horizon, transmission time, delay or attempt budget.
    """
    digest = hashlib.sha256()
    for preset in sorted(PRESETS):
        for seed in range(60):
            digest.update(dumps(scenario_to_dict(generate(preset_params(preset, seed)))).encode())
    assert digest.hexdigest() == (
        "5c76882905a9a39d299411801b3c98fbb381a55f9798eb60354d47412b38effa"
    )


def test_generated_routes_and_verdicts_are_pinned():
    """Every preset's seeds 0-19, replayed benign and attacked on the
    generator's graph and judged by both detectors, then evaluated, dump to
    the same bytes as when this digest was taken.

    The replay's route plans and the detectors' comparison paths come from
    the graph's search and its memo, so a search shortcut that changed any
    answer would change a hop, a flag or a weight here.
    """
    digest = hashlib.sha256()
    for preset in sorted(PRESETS):
        for seed in range(20):
            s = generate(preset_params(preset, seed))
            g = s.graph
            for scenario in (s.without_attack(), s):
                trace = simulate(scenario, g)
                digest.update(dumps(trace_to_dict(trace)).encode())
                if trace.delivered:
                    digest.update(dumps(report_to_dict(detect_global(g, trace), s.label)).encode())
                    digest.update(dumps(local_scan_to_dict(
                        run_local_pipeline(scenario, g, trace), s.label)).encode())
            digest.update(dumps(evaluate_scenario(s, timing_repeats=0).to_dict()).encode())
    assert digest.hexdigest() == (
        "63c1898df1fc3aeb6e30ec457d060e89bf021925cf08ebc25f920aa129e2f5c0"
    )


@pytest.mark.parametrize(
    "params",
    [
        GenerationParams(1, 10, 0),  # no room for a destination
        GenerationParams(7, 10, 6),  # more attackers than intermediates
        GenerationParams(7, 10, -1),
        GenerationParams(7, 0, 2),
    ],
)
def test_infeasible_params_raise(params):
    with pytest.raises(GenerationError):
        generate(params)


def test_no_candidate_exhausts_the_attempts():
    """Feasible counts, but a single window leaves no room for a backbone
    relay, so every attempt draws no candidate."""
    with pytest.raises(GenerationError, match="no viable scenario in 200 attempts"):
        generate(GenerationParams(3, 1, 0))


def test_unknown_preset_raises():
    with pytest.raises(GenerationError, match="unknown preset"):
        preset_params("table2-row9")

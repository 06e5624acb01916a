"""Seeded scenario generation: pinned output and the feasibility checks."""

from __future__ import annotations

import hashlib

import pytest

from tdasim import (
    PRESETS,
    GenerationError,
    GenerationParams,
    generate,
    preset_params,
    scenario_to_dict,
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

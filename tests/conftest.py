from __future__ import annotations

import sys

import pytest

from support import make_demo
from tdasim import build


@pytest.fixture(scope="session")
def demo():
    """Benign seven-node walkthrough scenario."""
    return make_demo()


@pytest.fixture(scope="session")
def demo_graph(demo):
    return build(demo.windows, demo.t_tr)


@pytest.fixture(scope="session")
def two_attacker():
    """Same network with nodes A and C delaying by 5 s and 6 s."""
    return make_demo({1: 5, 3: 6})


@pytest.fixture(scope="session")
def single_attacker():
    """Same network with only node A delaying by 5 s."""
    return make_demo({1: 5})


@pytest.fixture
def build_calls(monkeypatch) -> list:
    """A list that gets one entry per graph build, through whichever tdasim
    module binding of build the caller uses."""
    from tdasim import twig
    real, calls = twig.build, []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "tdasim" or name.startswith("tdasim."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def pytest_terminal_summary(terminalreporter):
    # verdict lines are captured per-test; repeat them where they stay visible
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)

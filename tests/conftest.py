import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from chaintrace.graph import load_rules
from chaintrace.killchain import load_killchain
from importlib import resources


def data_file(name: str) -> str:
    return str(resources.files("chaintrace.data") / name)


@pytest.fixture(scope="session")
def default_rules():
    return load_rules(data_file("default_rules.json"))


@pytest.fixture(scope="session")
def default_model(default_rules):
    return load_killchain(data_file("default_killchain.json"), default_rules)


@pytest.fixture(scope="session")
def case_study():
    """Default case-study simulation, shared across tests."""
    from chaintrace.simulate import SimConfig, simulate

    cfg = SimConfig()
    events, truth = simulate(cfg)
    return cfg, events, truth


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    """Every process a test forks, such as a store's worker, is reaped by
    the time the test ends."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a forked child outlived the test: (pid, status) {left}")

"""Deep sequential services.

Hashing, free variables and re-sequencing are O(1) per node on the
interned core, and every pass over a term is an iterative fold over its
DAG, so a 10^4-step service certifies, and every compliance decider
accepts it.  The parser still recurses once per nested prefix or group:
source nested deeper than that is an input the tool cannot take, and
``repro`` exits 2 with one ``error:`` line.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.requests import extract_requests
from repro.cli import load_module, main
from repro.core.reversible import check_reversible
from tests.deciders import DECIDERS

#: The compliance deciders plus the weaker reversible relation (implied
#: by compliance, so it must accept too).
ALL_DECIDERS = {**DECIDERS,
                "reversible": lambda body, service: check_reversible(
                    body, service).compliant}

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def sequential_module(steps: int) -> str:
    """A client sending *steps* messages in sequence to a service that
    receives them in the same order."""
    sends = " ; ".join(f"!m{index}" for index in range(steps))
    receives = " ; ".join(f"?m{index}" for index in range(steps))
    return (f"client lc1 = open 1 {{ {sends} }}\n"
            f"service ls1 = {receives}\n")


@pytest.fixture(scope="module")
def deep_module(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "steps500.sus"
    path.write_text(sequential_module(500))
    return str(path)


def test_500_step_module_is_certified(deep_module, capsys):
    assert main(["analyze", deep_module]) == 0
    out = capsys.readouterr().out
    assert "request 1 (lc1) |- ls1: compliant" in out
    assert "verdict: accepted" in out


@pytest.mark.parametrize("decider", ALL_DECIDERS)
def test_500_step_service_is_accepted(deep_module, decider):
    module = load_module(deep_module)
    body = extract_requests(module.clients["lc1"])[0].body
    assert ALL_DECIDERS[decider](body, module.services["ls1"])


def _analyze(path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", str(path)],
        capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture(scope="module")
def steps10000(tmp_path_factory):
    path = tmp_path_factory.mktemp("deep") / "steps10000.sus"
    path.write_text(sequential_module(10 ** 4))
    return path


def test_10000_step_module_is_certified(steps10000):
    result = _analyze(steps10000)
    assert result.returncode == 0, result.stderr
    assert "request 1 (lc1) |- ls1: compliant" in result.stdout
    assert result.stdout.endswith("verdict: accepted\n")


@pytest.mark.parametrize("decider", ALL_DECIDERS)
def test_10000_step_service_is_accepted(steps10000, decider):
    module = load_module(steps10000)
    body = extract_requests(module.clients["lc1"])[0].body
    assert ALL_DECIDERS[decider](body, module.services["ls1"])


@pytest.mark.parametrize("source", [
    " . ".join(f"!m{index}" for index in range(10 ** 4)),
    "{ " * 10 ** 4 + "!a" + " }" * 10 ** 4,
], ids=["prefixes", "groups"])
def test_too_deeply_nested_source_exits_2_with_one_line(tmp_path, source):
    path = tmp_path / "nested10000.sus"
    path.write_text(f"service ls1 = {source}\n")
    result = _analyze(path)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: ")

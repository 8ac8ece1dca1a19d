"""Deep sequential services.

Hashing, free variables and re-sequencing are O(1) per node on the
interned core, so a 500-step service certifies on every engine.  A
service nested deeper than the tree walks can recurse is an input the
tool cannot take: ``repro`` exits 2 with one ``error:`` line.
"""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main

ENGINES = ("onthefly", "eager", "gfp", "compiled", "reversible")

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


@pytest.mark.parametrize("engine", ENGINES)
def test_500_step_service_is_accepted(deep_module, engine, capsys):
    assert main(["analyze", "--engine", engine, deep_module]) == 0
    out = capsys.readouterr().out
    assert "request 1 (lc1) |- ls1: compliant" in out
    assert "verdict: accepted" in out


def test_too_deep_service_exits_2_with_one_line(tmp_path):
    path = tmp_path / "steps10000.sus"
    path.write_text(sequential_module(10 ** 4))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "analyze", str(path)],
        capture_output=True, text=True, env=env, timeout=300)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: ")

"""Witnesses do not depend on the hash seed.

The product BFS visits pairs in the component LTSs' move order, and every
set the output prints is sorted by ``str``, so ``repro explain`` and
``repro analyze --format json`` print the same bytes whatever
``PYTHONHASHSEED`` the interpreter started with.  Each command runs in a
fresh interpreter per seed.
"""

import functools
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "analysis" / "fixtures"
#: Two stuck pairs at depth 1; the client's first branch leads to ``!C``.
TWO_STUCK = FIXTURES / "two_stuck_pairs.sus"
#: A stuck pair whose client offers two unmatched outputs at once.
REUSE = FIXTURES / "request_id_reuse.sus"

SEEDS = ("0", "1", "8")

COMMANDS = {
    "explain-two-stuck": ("explain", str(TWO_STUCK), "lc"),
    "explain-reuse": ("explain", str(REUSE), "lc1"),
    "analyze-two-stuck": ("analyze", "--format", "json", str(TWO_STUCK)),
    "analyze-reuse": ("analyze", "--format", "json", str(REUSE)),
}


@functools.lru_cache(maxsize=None)
def run(command: str, seed: str) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", *COMMANDS[command]],
        capture_output=True, text=True, env=env, timeout=300)
    return result.returncode, result.stdout, result.stderr


@pytest.mark.parametrize("command", COMMANDS)
def test_output_is_the_same_under_every_seed(command):
    first = run(command, SEEDS[0])
    assert first[0] in (0, 1), first[2]
    assert "Traceback" not in first[2]
    for seed in SEEDS[1:]:
        assert run(command, seed) == first, seed


def test_explain_names_the_first_branch():
    _, out, _ = run("explain-two-stuck", SEEDS[0])
    stuck = out.split("stuck pair:\n")[1].splitlines()
    assert stuck[0].strip() == "client: !C"


def test_analyze_reports_the_pair_explain_names():
    _, out, _ = run("analyze-two-stuck", SEEDS[0])
    (pair,) = json.loads(out)["pairs"]
    assert pair["witness"]["trace"][-1] == ["!C", "eps"]

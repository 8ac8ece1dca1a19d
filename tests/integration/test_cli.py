"""Tests for the command-line driver."""

import argparse
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import COMMANDS, _invoked, build_parser, load_network, main

ROOT = pathlib.Path(__file__).resolve().parents[2]

NETWORK = """
[policies.phi]
schema = "never_after"
schema_args = ["archive", "modify"]
args = {}

[clients.me]
term = "open r with phi { !job . (?done + ?failed) }"

[services.good]
term = "?job . { @modify(1) ; @archive(1) ; !done }"

[services.sloppy]
term = "?job . { @archive(1) ; @modify(1) ; !failed }"
"""

BROKEN_POLICY = """
[policies.phi]
schema = "no_such_schema"

[clients.me]
term = "eps"
"""


@pytest.fixture()
def network_file(tmp_path):
    path = tmp_path / "net.toml"
    path.write_text(NETWORK)
    return str(path)


class TestLoadNetwork:
    def test_loads_policies_clients_services(self, network_file):
        network = load_network(network_file)
        assert set(network.policies) == {"phi"}
        assert set(network.clients) == {"me"}
        assert set(network.services) == {"good", "sloppy"}

    def test_unknown_schema_is_an_error(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(BROKEN_POLICY)
        from repro.core.errors import ReproError
        with pytest.raises(ReproError, match="unknown schema"):
            load_network(path)

    def test_term_lookup(self, network_file):
        network = load_network(network_file)
        assert network.term("me") is network.clients["me"]
        assert network.term("good") is network.services["good"]
        from repro.core.errors import ReproError
        with pytest.raises(ReproError):
            network.term("ghost")


class TestCommands:
    def test_check(self, network_file, capsys):
        assert main(["check", network_file]) == 0
        out = capsys.readouterr().out
        assert "me: well formed" in out

    def test_verify_success(self, network_file, capsys):
        assert main(["verify", network_file]) == 0
        out = capsys.readouterr().out
        assert "r[good]" in out
        assert "switch off the monitor" in out

    def test_compliance_positive(self, network_file, capsys):
        assert main(["compliance", network_file, "me", "good"]) == 0
        assert "compliant" in capsys.readouterr().out

    def test_compliance_negative(self, tmp_path, capsys):
        path = tmp_path / "net.toml"
        path.write_text("""
[clients.me]
term = "open r { !job . ?done }"

[services.mute]
term = "?job"
""")
        assert main(["compliance", str(path), "me", "mute"]) == 1
        assert "NOT compliant" in capsys.readouterr().out

    def test_simulate(self, network_file, capsys):
        assert main(["simulate", network_file, "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "terminated: True" in out

    def test_simulate_unverifiable_network_fails(self, tmp_path, capsys):
        path = tmp_path / "net.toml"
        path.write_text("""
[clients.me]
term = "open r { !job . ?done }"

[services.mute]
term = "?job"
""")
        assert main(["simulate", str(path)]) == 1

    def test_dot_policy(self, network_file, capsys):
        assert main(["dot", network_file, "phi"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_dot_contract(self, network_file, capsys):
        assert main(["dot", network_file, "good"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["check", "/nonexistent/net.toml"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_paper_toml_in_examples_verifies(self, capsys):
        import pathlib
        path = (pathlib.Path(__file__).resolve().parents[2]
                / "examples" / "hotel_booking.toml")
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "r3[ls3]" in out and "r3[ls4]" in out


SUS_NETWORK = """
policy phi = never_after(archive, modify)

client me = open r with phi { !job . (?done + ?failed) }

service good   = ?job . { @modify(1) ; @archive(1) ; !done }
service sloppy = ?job . { @archive(1) ; @modify(1) ; !failed }
"""


class TestModuleFormat:
    def test_sus_file_verifies(self, tmp_path, capsys):
        path = tmp_path / "net.sus"
        path.write_text(SUS_NETWORK)
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "r[good]" in out

    def test_sus_and_toml_agree(self, network_file, tmp_path, capsys):
        sus = tmp_path / "net.sus"
        sus.write_text(SUS_NETWORK)
        assert main(["verify", str(sus)]) == 0
        sus_out = capsys.readouterr().out
        assert main(["verify", network_file]) == 0
        toml_out = capsys.readouterr().out
        assert sus_out == toml_out

    def test_simulate_sus_with_trace(self, tmp_path, capsys):
        path = tmp_path / "net.sus"
        path.write_text(SUS_NETWORK)
        assert main(["simulate", str(path), "--seed", "2",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "step   1:" in out
        assert "final configuration:" in out


class TestTraceCommand:
    def test_trace_prints_span_tree_and_metrics(self, network_file,
                                                capsys):
        assert main(["trace", network_file, "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "planner.find_valid_plans" in out
        assert "simulator.run" in out
        assert "simulator.session" in out
        assert "compliance.explored_states" in out

    def test_trace_writes_jsonl(self, network_file, tmp_path, capsys):
        out_file = tmp_path / "trace.jsonl"
        assert main(["trace", network_file, "--out",
                     str(out_file)]) == 0
        header, *lines = out_file.read_text().splitlines()
        assert json.loads(header) == {"schema": "repro-trace.v1"}
        names = {json.loads(line)["name"] for line in lines}
        # Plan synthesis and at least one simulated session are covered.
        assert "planner.find_valid_plans" in names
        assert "compliance.search_product" in names
        assert "simulator.session" in names

    def test_trace_unverifiable_network_fails(self, tmp_path, capsys):
        path = tmp_path / "net.sus"
        path.write_text("""
client me = open r { !job . ?done }
service mute = ?job
""")
        assert main(["trace", str(path)]) == 1

    def test_trace_leaves_telemetry_disabled(self, network_file, capsys):
        from repro.observability import runtime
        assert main(["trace", network_file]) == 0
        assert runtime.active() is None


class TestStatsFlag:
    def test_stats_prints_metrics_table(self, network_file, capsys):
        assert main(["--stats", "verify", network_file]) == 0
        out = capsys.readouterr().out
        assert "-- metrics --" in out
        assert "compliance.checks" in out
        assert "cache contracts.lts:" in out

    def test_stats_times_each_span_name_once(self, network_file, capsys):
        assert main(["--stats", "verify", network_file]) == 0
        table = capsys.readouterr().out.split("-- metrics --")[1]
        timed = [line.split()[0] for line in table.splitlines()
                 if " n=" in line]
        # One timing row per span name, none for a retired histogram.
        assert len(timed) == len(set(timed))
        assert {"planner.find_valid_plans", "compliance.check",
                "compliance.search_product"} <= set(timed)
        assert not [name for name in timed if name.endswith("seconds")]

    def test_stats_reports_simulation_counters(self, network_file,
                                               capsys):
        assert main(["--stats", "simulate", network_file,
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "simulator.steps{rule=" in out
        assert "simulator.sessions_opened" in out

    def test_without_stats_no_metrics_table(self, network_file, capsys):
        assert main(["verify", network_file]) == 0
        assert "-- metrics --" not in capsys.readouterr().out


BRANCHY = """
[clients.me]
term = "open r { (!a . !x ++ !b) }"

[clients.doomed]
term = "open r { !a . !x }"

[services.branchy]
term = "(?a . ?y + ?b)"

[services.strict]
term = "?a . ?y"
"""


class TestEngineFlag:
    """check/analyze/compliance take no `--engine`: each question has
    one decider.  `compliance --reversible` asks the weaker
    checkpoint/rollback question, with the ordinary check's output
    shape."""

    @pytest.fixture()
    def branchy_file(self, tmp_path):
        path = tmp_path / "branchy.toml"
        path.write_text(BRANCHY)
        return str(path)

    def test_compliance_engines_agree_positive(self, network_file,
                                               capsys):
        # Ordinary compliance implies reversible compliance.
        for flags in ([], ["--reversible"]):
            assert main(["compliance", network_file, "me", "good",
                         *flags]) == 0, flags
            assert capsys.readouterr().out == "me ⊢ good: compliant\n"

    def test_compliance_engines_agree_negative(self, tmp_path, capsys):
        path = tmp_path / "net.toml"
        path.write_text("""
[clients.me]
term = "open r { !job . ?done }"

[services.mute]
term = "?job"
""")
        for flags in ([], ["--reversible"]):
            assert main(["compliance", str(path), "me", "mute",
                         *flags]) == 1, flags
            assert capsys.readouterr().out == (
                "me ⊬ mute: NOT compliant\n"
                "  stuck after 1 synchronisations\n")

    def test_reversible_accepts_what_rollback_rescues(self, branchy_file,
                                                      capsys):
        # Branch `a` strands the client; rolling back to take `b` works.
        assert main(["compliance", branchy_file, "me", "branchy"]) == 1
        capsys.readouterr()
        assert main(["compliance", branchy_file, "me", "branchy",
                     "--reversible"]) == 0
        assert capsys.readouterr().out == "me ⊢ branchy: compliant\n"

    def test_reversible_rejects_a_doomed_pair(self, branchy_file, capsys):
        assert main(["compliance", branchy_file, "doomed", "strict",
                     "--reversible"]) == 1
        assert capsys.readouterr().out == (
            "doomed ⊬ strict: NOT compliant\n"
            "  stuck after 1 synchronisations\n")

    def test_check_with_compiled_engine(self, network_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", network_file, "--engine", "compiled"])
        assert exit_info.value.code == 2

    def test_stats_shows_compile_telemetry(self, network_file, capsys):
        # The registry is what runs on compiled tables.  Compilation
        # telemetry fires on memo misses only — start from a cold cache
        # so this run actually compiles.
        from repro.contracts.contract import clear_contract_caches
        clear_contract_caches()
        assert main(["--stats", "registry", network_file,
                     "--query-compliant", "me"]) == 0
        out = capsys.readouterr().out
        assert "compile.contracts" in out
        assert "compile.states_interned" in out
        assert "cache compiled.contract:" in out

    def test_unknown_engine_is_a_usage_error(self, network_file, capsys):
        for argv in (["analyze", "--engine", "compiled", network_file],
                     ["compliance", network_file, "me", "good",
                      "--engine", "reversible"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2, argv


class TestExplainCommand:
    def test_explain_narrates_all_plans(self, network_file, capsys):
        assert main(["explain", network_file, "me"]) == 0
        out = capsys.readouterr().out
        assert "VALID" in out
        assert "INSECURE" in out  # the sloppy worker's plan

    def test_explain_unknown_client(self, network_file, capsys):
        assert main(["explain", network_file, "ghost"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explain_exit_code_without_valid_plan(self, tmp_path, capsys):
        path = tmp_path / "net.sus"
        path.write_text("""
client me = open r { !job . ?done }
service mute = ?job
""")
        assert main(["explain", str(path), "me"]) == 1


#: Every (subcommand, count option) pair.
COUNT_OPTIONS = [
    ("analyze", "--max-plans"), ("verify", "--max-plans"),
    ("simulate", "--max-plans"), ("trace", "--max-plans"),
    ("chaos", "--max-faults"), ("report", "--max-faults"),
    ("chaos", "--trials"), ("report", "--trials"),
    ("simulate", "--max-steps"), ("chaos", "--max-steps"),
    ("report", "--max-steps"), ("trace", "--max-steps"),
    ("chaos", "--max-rollbacks"), ("report", "--max-rollbacks"),
]


class TestCountOptions:
    """Count options take integers >= 0, and ``--max-plans`` integers
    >= 1: anything else is a usage error (exit 2, argparse's one-line
    message), never a traceback or a run that silently does nothing."""

    @pytest.mark.parametrize("command, option", COUNT_OPTIONS)
    def test_negative_count_is_a_usage_error(self, command, option):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", command,
             str(ROOT / "examples" / "hotel_booking.sus"), option, "-1"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert result.returncode == 2, result.stdout
        assert f"error: argument {option}: " in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, option in COUNT_OPTIONS
        if option != "--max-plans"])
    def test_zero_is_accepted(self, command, option):
        args = build_parser().parse_args([command, "net.sus", option, "0"])
        assert getattr(args, option[2:].replace("-", "_")) == 0

    @pytest.mark.parametrize("command", ["analyze", "verify", "simulate",
                                         "trace"])
    def test_zero_max_plans_is_a_usage_error(self, command):
        # A planner pass over no plan cannot tell whether a valid plan
        # exists, so it must not report "NO valid plan".
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", command,
             str(ROOT / "examples" / "hotel_booking.sus"), "--max-plans",
             "0"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
        assert result.returncode == 2, result.stdout
        assert result.stdout == ""
        (line,) = [line for line in result.stderr.splitlines()
                   if "error:" in line]
        assert line.endswith("error: argument --max-plans: must be at "
                             "least 1, got 0 (no plan would be analysed)")
        assert "Traceback" not in result.stderr

    def test_one_plan_is_accepted(self):
        args = build_parser().parse_args(["verify", "net.sus",
                                          "--max-plans", "1"])
        assert args.max_plans == 1


def _parse(parser, argv, capsys):
    """What parsing *argv* gives: the namespace or the exit code, and
    everything printed."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exit:
        result = exit.code
    printed = capsys.readouterr()
    return result, printed.out, printed.err


class TestPartialParser:
    """``main`` builds only the subcommand its argv names; every parse,
    help text and usage error must be the full tree's."""

    ARGVS = [[], ["--help"], ["-h"], ["bogus"], ["--stats"],
             ["--stats", "--help"], ["--stats", "bogus", "x"],
             ["--stat", "analyze", "x"], ["--", "analyze", "x"],
             ["analyze", "x"], ["--stats", "chaos", "x", "--trials", "3"],
             ["lint", "a.sus", "b.sus", "--strict"],
             ["compliance", "n", "c", "s", "--reversible"],
             ["analyze", "x", "--stats"], ["analyze", "x", "--format", "xml"],
             ["chaos", "x", "--trials", "-1"]] + [
        argv for command in COMMANDS for argv in (
            [command, "--help"], ["--stats", command, "-h"], [command],
            [command, "x", "--bogus"], [command, "x", "y", "z", "w"])]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_matches_the_full_tree(self, argv, capsys):
        partial = _parse(build_parser(_invoked(argv)), argv, capsys)
        assert partial == _parse(build_parser(), argv, capsys)

    def test_commands_are_the_full_trees(self):
        subcommands = next(action for action in build_parser()._actions
                           if isinstance(action, argparse._SubParsersAction))
        assert tuple(subcommands.choices) == COMMANDS

    def test_only_the_invoked_subcommand_is_built(self):
        subcommands = next(
            action for action in build_parser("verify")._actions
            if isinstance(action, argparse._SubParsersAction))
        assert tuple(subcommands.choices) == ("verify",)


def _check(path):
    """``repro check PATH`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", "check", str(path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def _assert_one_error_line(result, prefix):
    assert result.returncode == 2, result.stdout
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1, result.stderr
    assert lines[0].startswith(prefix), lines[0]


#: TOML files whose shape the loader once took for granted.
CRASH_TOML = sorted((ROOT / "tests" / "lang" / "fixtures").glob(
    "crash_toml_*.toml"))


class TestMalformedInput:
    """A file that is not UTF-8, or a TOML entry of the wrong shape, is
    an input error: exit 2 and one ``error:`` line naming the file (and
    the entry), never a traceback."""

    def test_sus_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.sus"
        path.write_bytes(b"service s = ?a \xff\n")
        _assert_one_error_line(
            _check(path),
            f"error: {path}: invalid UTF-8: invalid start byte at byte "
            f"offset 15")

    def test_toml_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_bytes(b'x = "\xff"\n')
        _assert_one_error_line(
            _check(path),
            f"error: {path}: invalid UTF-8: invalid start byte at byte "
            f"offset 5")

    def test_line_endings_read_as_in_text_mode(self, tmp_path, capsys):
        # "\r\n" and a lone "\r" both end a line, as text-mode reads do.
        path = tmp_path / "crlf.sus"
        path.write_bytes(b"service s = ?a\r\nservice t =\r!b . ?")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:3:7: expected an identifier, found EOF ('')\n")

    @pytest.mark.parametrize("path", CRASH_TOML, ids=lambda path: path.name)
    def test_pinned_toml_shape(self, path):
        entry = {"crash_toml_args_table.toml": "policies.p",
                 "crash_toml_entry_not_table.toml": "services.s",
                 "crash_toml_missing_term.toml": "services.s",
                 "crash_toml_schema_arity.toml": "policies.p"}[path.name]
        _assert_one_error_line(_check(path), f"error: {path}: {entry}: ")

    @pytest.mark.parametrize("text, message", [
        ("services = 3\n", "services: must be a table, not an integer"),
        ('[services.s]\nterm = 3\n',
         "services.s: term must be a string, not an integer"),
        ('[policies.p]\nschema = ["hotel"]\n',
         "policies.p: unknown schema ['hotel']"),
        ('[policies.p]\nschema = "forbid"\nschema_args = "boom"\n',
         "policies.p: schema_args must be an array, not a string"),
        ('[policies.p]\nschema = "hotel"\nargs = [1]\n',
         "policies.p: args must be a table, not an array"),
        ('[policies.p]\nschema = "hotel"\n'
         'args = { bl = [1], phi1 = 45, t = 100 }\n',
         "policies.p: instantiation of phi: missing ['p'], "
         "unexpected ['phi1']"),
        ('[services.s]\nterm = "?a ."\n',
         "services.s: term: 1:5: expected a history expression, "
         "found EOF ('')"),
    ], ids=["section", "term-type", "schema-type", "schema-args-type",
            "args-type", "instantiation", "term-syntax"])
    def test_toml_shapes(self, tmp_path, capsys, text, message):
        path = tmp_path / "net.toml"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")
        assert err.count("\n") == 1

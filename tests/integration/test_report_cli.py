"""``repro report`` end to end: the acceptance contract of the merged
observability report.

A seeded chaos campaign over ``examples/resilient_booking.sus`` followed
by ``repro report --format json`` must be byte-for-byte reproducible and
contain, for at least one recovered session, the complete causal chain
fault → abort → retry* → compensate → replan → verdict.
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.contracts.contract import clear_contract_caches

REPO = pathlib.Path(__file__).resolve().parents[2]
RESILIENT = str(REPO / "examples" / "resilient_booking.sus")
HOTEL = str(REPO / "examples" / "hotel_booking.sus")

#: The seeded invocation the goldens and CI pin down.
REPORT_ARGS = ["report", RESILIENT, "--seed", "7", "--trials", "8",
               "--format", "json"]


def run_report(capsys, argv) -> tuple[int, str]:
    status = main(argv)
    return status, capsys.readouterr().out


class TestReportJson:
    def test_seeded_report_is_byte_reproducible(self, capsys):
        first_status, first = run_report(capsys, REPORT_ARGS)
        second_status, second = run_report(capsys, REPORT_ARGS)
        assert first_status == second_status == 0
        assert first == second

    def test_contains_a_full_recovery_chain(self, capsys):
        status, out = run_report(capsys, REPORT_ARGS)
        assert status == 0
        data = json.loads(out)
        assert data["schema"] == "repro-report.v1"
        chain_kinds = [[link["kind"] for link in chain]
                       for chain in data["chains"]]
        full = [kinds for kinds in chain_kinds
                if kinds[0] == "fault.injected"
                and "session.abort" in kinds
                and "recovery.compensate" in kinds
                and "recovery.replan" in kinds
                and kinds[-1] == "run.verdict"]
        assert full, f"no complete recovery chain in {chain_kinds}"

    def test_chain_links_are_causally_ordered(self, capsys):
        _, out = run_report(capsys, REPORT_ARGS)
        for chain in json.loads(out)["chains"]:
            seqs = [link["seq"] for link in chain]
            assert seqs == sorted(seqs)
            for previous, link in zip(chain, chain[1:]):
                assert link["cause"] == previous["seq"]
            # One chain = one supervised session.
            assert len({link["session"] for link in chain}) == 1

    def test_per_layer_attribution_covers_the_pipeline(self, capsys):
        _, out = run_report(capsys, REPORT_ARGS)
        layers = json.loads(out)["layers"]
        for layer in ("parse", "search", "monitor", "recover"):
            assert layers[layer]["spans"] > 0, layer
        # Deterministic by default: no wall seconds anywhere.
        for stats in layers.values():
            assert "self_seconds" not in stats

    def test_chaos_verdict_is_embedded(self, capsys):
        _, out = run_report(capsys, REPORT_ARGS)
        chaos = json.loads(out)["chaos"]
        assert chaos["schema"] == "repro-chaos.v2"
        assert chaos["invariant_holds"] is True
        assert chaos["trials"] == 8

    def test_wall_flag_adds_timings(self, capsys):
        status, out = run_report(capsys, REPORT_ARGS + ["--wall"])
        assert status == 0
        layers = json.loads(out)["layers"]
        assert any("self_seconds" in stats for stats in layers.values())


class TestReportText:
    def test_text_report_narrates_the_story(self, capsys):
        status, out = run_report(
            capsys, ["report", RESILIENT, "--seed", "7", "--trials", "8"])
        assert status == 0
        assert "observability report for resilient_booking.sus" in out
        assert "causal chains" in out
        assert "recovery.replan" in out
        assert "flight recorder:" in out

    def test_out_writes_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        status = main(REPORT_ARGS + ["--out", str(target)])
        assert status == 0
        assert "wrote report" in capsys.readouterr().out
        assert json.loads(target.read_text())["schema"] == "repro-report.v1"

    def test_unknown_fault_kind_is_a_usage_error(self, capsys):
        status = main(["report", HOTEL, "--faults", "gremlins"])
        assert status == 2
        assert "unknown fault kind" in capsys.readouterr().err


class TestStatsExtensions:
    def test_stats_prints_compiled_tables_and_events(self, capsys):
        # The registry runs on compiled tables; start cold so this run
        # compiles (and emits) rather than hitting the memo.
        clear_contract_caches()
        status = main(["--stats", "registry", HOTEL,
                       "--query-compliant", "lc1"])
        assert status == 0
        out = capsys.readouterr().out
        assert "compiled tables:" in out
        assert "0 compiled contract(s)" not in out
        assert "event compile.contract:" in out
        assert main(["--stats", "analyze", HOTEL]) == 0
        assert "event staticcheck.verdict: 1" in capsys.readouterr().out

    def test_stats_chaos_counts_recovery_events(self, capsys):
        status = main(["--stats", "chaos", RESILIENT, "--seed", "7",
                       "--trials", "8"])
        assert status == 0
        out = capsys.readouterr().out
        assert "event fault.injected:" in out
        assert "event recovery.replan:" in out
        assert "event run.verdict: 8" in out

"""Tests for the ``chaos`` CLI subcommand."""

import json
import pathlib

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[2]
HOTEL_SUS = "examples/hotel_booking.sus"

UNVERIFIABLE = """
[policies.phi]
schema = "forbid"
schema_args = ["boom"]
args = {}

[clients.me]
term = "open r with phi { !go . ?done }"

[services.srv]
term = "?go . { @boom(1) ; !done }"
"""


class TestChaosCommand:
    def test_exit_zero_and_invariant(self, capsys):
        status = main(["chaos", HOTEL_SUS, "--seed", "7",
                       "--trials", "5"])
        out = capsys.readouterr().out
        assert status == 0
        assert "invariant HOLDS" in out
        assert "seed 7" in out

    def test_output_is_reproducible(self, capsys):
        main(["chaos", HOTEL_SUS, "--seed", "7", "--trials", "5"])
        first = capsys.readouterr().out
        main(["chaos", HOTEL_SUS, "--seed", "7", "--trials", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_format(self, capsys):
        status = main(["chaos", HOTEL_SUS, "--seed", "7",
                       "--trials", "4", "--format", "json"])
        out = capsys.readouterr().out
        assert status == 0
        data = json.loads(out)
        assert data["schema"] == "repro-chaos.v2"
        assert data["trials"] == 4
        assert data["invariant_holds"] is True

    def test_fault_kinds_flag(self, capsys):
        status = main(["chaos", HOTEL_SUS, "--seed", "2",
                       "--trials", "4", "--faults", "crash"])
        out = capsys.readouterr().out
        assert status == 0
        assert "faults crash," in out       # only the crash kind ran
        assert "crash+drop" not in out

    def test_unknown_fault_kind_is_usage_error(self, capsys):
        status = main(["chaos", HOTEL_SUS, "--faults", "gremlins"])
        err = capsys.readouterr().err
        assert status == 2
        assert "unknown fault kind" in err

    def test_unverifiable_network_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.toml"
        path.write_text(UNVERIFIABLE)
        status = main(["chaos", str(path), "--trials", "2"])
        assert status == 1

    def test_no_recover_flag(self, capsys):
        status = main(["chaos", HOTEL_SUS, "--seed", "7",
                       "--trials", "4", "--no-recover"])
        out = capsys.readouterr().out
        assert status == 0
        assert "recovery off" in out

    def test_missing_file_is_usage_error(self, capsys):
        status = main(["chaos", "no/such/file.sus"])
        assert status == 2


class TestChaosGoldens:
    """The seeded runs the CI ``chaos`` job compares with the goldens.
    Paths are relative to the repository root, as the JSON ``module``
    field records the path as given."""

    @pytest.mark.parametrize("argv,golden,status", [
        (["examples/hotel_booking.sus", "--seed", "7", "--trials", "10",
          "--format", "json"], "hotel_booking.sus.chaos.json", 0),
        (["examples/resilient_booking.sus", "--seed", "7", "--trials", "8",
          "--format", "json"], "resilient_booking.sus.chaos.json", 0),
        (["examples/broken_booking.sus"], "broken_booking.sus.chaos.txt", 1),
    ], ids=["hotel", "resilient", "broken"])
    def test_output_matches_the_golden(self, argv, golden, status,
                                       monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        assert main(["chaos", *argv]) == status
        expected = (ROOT / "examples" / "golden" / golden).read_text(
            encoding="utf-8")
        assert capsys.readouterr().out == expected

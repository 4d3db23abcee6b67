"""Command-line behaviour: exit codes, formats, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import parkseq
from parkseq import cli
from parkseq.cli import main
from parkseq.counting import count_by_formula
from parkseq.strehl import identity_value_sides, verify_recurrence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _decimal(n: int) -> str:
    """Decimal digits of ``n >= 0`` in chunks short enough for ``str``."""
    chunk = 10**1000
    parts = []
    while n >= chunk:
        n, low = divmod(n, chunk)
        parts.append(f"{low:01000d}")
    return str(n) + "".join(reversed(parts))


LONG = "1" + "0" * 4300  # 10**4300, one digit past the interpreter's default limit


class TestPark:
    def test_worked_example_plain(self, capsys):
        code, out, _ = run_cli(capsys, "park", "--sizes", "2,2,1", "--z", "4", "--prefs", "5,6,2")
        assert code == 0
        assert out == "T T T C3 C1 C1 C2 C2\n"

    @pytest.mark.parametrize("sizes,z,prefs", [("2,2,1", "4", "5,6,2"), ("1", "3", "1"), ("", "5", "")])
    def test_plain_layout_has_one_token_per_spot(self, capsys, sizes, z, prefs):
        code, out, _ = run_cli(capsys, "park", "--sizes", sizes, "--z", z, "--prefs", prefs)
        assert code == 0
        size_list = [int(tok) for tok in sizes.split(",") if tok]
        m = int(z) - 1 + sum(size_list)
        assert len(out.strip().split()) == m

    def test_empty_fleet(self, capsys):
        code, out, _ = run_cli(capsys, "park", "--sizes", "", "--z", "2", "--prefs", "")
        assert code == 0
        assert out == "T\n"

    def test_overflow_names_the_car(self, capsys):
        code, out, _ = run_cli(capsys, "park", "--sizes", "2,1", "--z", "1", "--prefs", "3,1")
        assert code == 1
        assert "car 1" in out

    def test_collision_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "park", "--sizes", "1,2", "--z", "1", "--prefs", "2,1")
        assert code == 1
        assert "collision" in out

    def test_bad_env_budget_is_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKSEQ_BUDGET", "x")
        code, out, err = run_cli(capsys, "park", "--sizes", "2,2,1", "--z", "4", "--prefs", "5,6,2")
        assert (code, out, err) == (0, "T T T C3 C1 C1 C2 C2\n", "")

    @pytest.mark.parametrize(
        "sizes,z,prefs,message",
        [
            ("1,1", "0", "1,1", "trailer parameter z must be an integer >= 1, got 0"),
            ("1,0", "1", "1,1", "car sizes must be integers >= 1, got 0"),
            ("1,1", "1", "0,1", "preferred spots must be integers >= 1, got 0"),
            ("1,1", "1", "1", "1 preferences given for 2 cars"),
            ("1,1", "1", "3,1,1", "3 preferences given for 2 cars"),
            ("1,1", "1", "1,5", "car 2 prefers spot 5 but the lot ends at spot 2"),
            ("1,1", "0", "0", "trailer parameter z must be an integer >= 1, got 0"),
            ("1,1", "1", "3,-1", "preferred spots must be integers >= 1, got -1"),
        ],
    )
    def test_input_errors_are_pinned(self, capsys, sizes, z, prefs, message):
        code, out, err = run_cli(capsys, "park", "--sizes", sizes, "--z", z, "--prefs", prefs)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("sizes,z", [("1", str(10**20)), (str(10**20), "1")])
    def test_lot_too_long_to_index_is_refused(self, capsys, sizes, z):
        code, out, err = run_cli(capsys, "park", "--sizes", sizes, "--z", z, "--prefs", "1")
        assert (code, out) == (2, "")
        assert err == (
            f"error: a lot of {10**20} spots is too long to simulate"
            f" (a row holds at most {sys.maxsize} spots)\n"
        )

    def test_trailer_flag_longer_than_int_digit_limit_reaches_the_lot_check(self, capsys):
        code, out, err = run_cli(capsys, "park", "--sizes", "1", "--z", LONG, "--prefs", "1")
        assert (code, out) == (2, "")
        assert err == (
            "error: a lot of [4301 digits] spots is too long to simulate"
            f" (a row holds at most {sys.maxsize} spots)\n"
        )

    def test_invalid_preference_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "park", "--sizes", "2,1", "--z", "1", "--prefs", "9,1")
        assert code == 2
        assert "error" in err

    def test_json_record_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "park", "--sizes", "2,2,1", "--z", "4", "--prefs", "5,6,2", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record == {
            "sizes": [2, 2, 1],
            "z": 4,
            "prefs": [5, 6, 2],
            "outcome": "parked",
            "layout": "T T T C3 C1 C1 C2 C2",
        }

    def test_json_failure_record(self, capsys):
        code, out, _ = run_cli(
            capsys, "park", "--sizes", "1,2", "--z", "1", "--prefs", "2,1", "--format", "json"
        )
        assert code == 1
        record = json.loads(out)
        assert record["outcome"] == "collision"
        assert record["car"] == 2
        assert record["first_empty"] == 1
        assert record["blocked_at"] == 2

    def test_tsv_has_header_and_exact_cells(self, capsys):
        code, out, _ = run_cli(
            capsys, "park", "--sizes", "2,2,1", "--z", "4", "--prefs", "5,6,2", "--format", "tsv"
        )
        header, row = out.splitlines()
        assert header.split("\t") == [
            "sizes", "z", "prefs", "outcome", "layout", "car", "first_empty", "blocked_at",
        ]
        cells = row.split("\t")
        assert cells[0] == "2,2,1"
        assert cells[3] == "parked"
        assert cells[4] == "T T T C3 C1 C1 C2 C2"


class TestCount:
    def test_formula_only_plain(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--sizes", "1,1,1,1", "--z", "1")
        assert code == 0
        assert out == "125\n"

    def test_single_car(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--sizes", "3", "--z", "7")
        assert code == 0
        assert out == "7\n"

    def test_enumerate_reports_match(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--sizes", "2,2,1", "--z", "4", "--enumerate")
        assert code == 0
        assert out == "formula=288 enumerated=288 match=true\n"

    def test_enumerate_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "count", "--sizes", "2,2,1", "--z", "4", "--enumerate", "--format", "json"
        )
        assert code == 0
        record = json.loads(out)
        assert record == {
            "sizes": [2, 2, 1],
            "z": 4,
            "formula": 288,
            "enumerated": 288,
            "match": True,
            "tuples_scanned": 512,
        }

    def test_budget_flag_blocks_enumeration(self, capsys):
        # the search over (2,2,1) reaches at most 8 states of 8 spots, so 63 must refuse
        code, out, err = run_cli(
            capsys, "count", "--sizes", "2,2,1", "--z", "4", "--enumerate", "--budget", "63"
        )
        assert code == 2
        assert "8^3 = 512 preference tuples needs up to 8 search states" in err
        assert "(64 row cells), past the budget of 63" in err
        for hint in ("--budget", "PARKSEQ_BUDGET", "--force"):
            assert hint in err
        assert out == ""

    def test_force_overrides_budget(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count", "--sizes", "2,2,1", "--z", "4", "--enumerate", "--budget", "63", "--force",
        )
        assert code == 0
        assert "match=true" in out

    def test_forced_lot_too_long_to_index_is_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "count", "--sizes", "1,1", "--z", str(10**20), "--enumerate", "--force"
        )
        assert (code, out) == (2, "")
        assert err == (
            f"error: a lot of {10**20 + 1} spots is too long to enumerate"
            f" (a row holds at most {sys.maxsize} spots)\n"
        )

    @pytest.mark.parametrize("sizes", [["1"] * 1200, [str(10**9)] * 500], ids=["1x1200", "500x1e9"])
    def test_long_fleet_refusal_is_short(self, capsys, sizes):
        code, out, err = run_cli(
            capsys, "count", "--sizes", ",".join(sizes), "--z", "1", "--enumerate"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: enumerating ")
        assert " digits] preference tuples needs up to " in err
        assert len(err.encode()) < 1024
        for hint in ("--budget", "PARKSEQ_BUDGET", "--force"):
            assert hint in err

    def test_env_budget_is_honoured(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKSEQ_BUDGET", "63")
        code, _, err = run_cli(capsys, "count", "--sizes", "2,2,1", "--z", "4", "--enumerate")
        assert code == 2
        assert "up to 8 search states of 8 spots each (64 row cells), past the budget of 63" in err

    def test_flag_beats_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKSEQ_BUDGET", "63")
        code, _, _ = run_cli(capsys, "count", "--sizes", "2,2,1", "--z", "4", "--enumerate")
        assert code == 2  # the env budget alone refuses
        code, out, _ = run_cli(
            capsys,
            "count", "--sizes", "2,2,1", "--z", "4", "--enumerate", "--budget", "100000",
        )
        assert code == 0
        assert "match=true" in out

    @pytest.mark.parametrize(
        "env,argv",
        [
            (None, ("--sizes", "2,2,1", "--z", "4", "--enumerate", "--budget", "0")),
            ("0", ("--sizes", "2,2,1", "--z", "4", "--enumerate")),
            ("0", ("--sizes", "2,2,1", "--z", "4")),
            (None, ("--sizes", "2", "--z", "1", "--enumerate", "--budget", "-1", "--force")),
            (None, ("--sizes", "0", "--z", "1", "--budget", "0")),  # budget before sizes
        ],
    )
    def test_budget_below_one_is_refused(self, capsys, monkeypatch, env, argv):
        if env is not None:
            monkeypatch.setenv("PARKSEQ_BUDGET", env)
        budget = argv[argv.index("--budget") + 1] if "--budget" in argv else env
        code, out, err = run_cli(capsys, "count", *argv)
        assert (code, out, err) == (2, "", f"error: budget must be >= 1, got {budget}\n")

    def test_bad_env_budget_is_refused(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKSEQ_BUDGET", "x")
        code, out, err = run_cli(capsys, "count", "--sizes", "2,2,1", "--z", "4")
        assert (code, out, err) == (2, "", "error: PARKSEQ_BUDGET must be an integer, got 'x'\n")

    def test_flag_budget_skips_the_env_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKSEQ_BUDGET", "x")
        code, out, err = run_cli(capsys, "count", "--sizes", "2,2,1", "--z", "4", "--budget", "5")
        assert (code, out, err) == (0, "288\n", "")

    def test_env_budget_longer_than_int_digit_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("PARKSEQ_BUDGET", "1" + "0" * 4300)
        code, out, err = run_cli(capsys, "count", "--sizes", "2,2,1", "--z", "4", "--enumerate")
        assert (code, out, err) == (0, "formula=288 enumerated=288 match=true\n", "")

    def test_trailer_flag_longer_than_int_digit_limit(self, capsys):
        code, out, err = run_cli(capsys, "count", "--sizes", "2,2,1", "--z", LONG)
        assert (code, out, err) == (0, _decimal(count_by_formula((2, 2, 1), 10**4300)) + "\n", "")

    def test_budget_flag_longer_than_int_digit_limit(self, capsys):
        argv = ("count", "--sizes", "2,2,1", "--z", "4", "--enumerate", "--budget", LONG)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, "formula=288 enumerated=288 match=true\n", "")

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int digit limit"
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--sizes", "2,2,1", "--z", "x"],
            ["count", "--sizes", "2,2,1", "--z", "4", "--budget", "0"],
            ["count", "-h"],
        ],
        ids=["usage-error", "refusal", "help"],
    )
    def test_the_callers_int_digit_limit_is_put_back(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            main(argv)
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)
        capsys.readouterr()

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="interpreter has no int digit limit"
    )
    @pytest.mark.parametrize("fmt", ["plain", "json", "tsv"])
    def test_answer_longer_than_int_digit_limit(self, capsys, fmt):
        sizes = (3,) * 3000
        digits = _decimal(count_by_formula(sizes, 5))
        assert len(digits) > 4300
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys, "count", "--sizes", ",".join(map(str, sizes)), "--z", "5", "--format", fmt
        )
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        expected = {
            "plain": f"{digits}\n",
            "json": f'{{"sizes": [{", ".join(["3"] * 3000)}], "z": 5, "formula": {digits}}}\n',
            "tsv": "sizes\tz\tformula\tenumerated\tmatch\ttuples_scanned\n"
            f"{','.join(['3'] * 3000)}\t5\t{digits}\t\t\t\n",
        }
        assert out == expected[fmt]


class TestVerify:
    def test_recurrence_sweep_all_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "recurrence", "--n-max", "2", "--y-max", "2", "--z-max", "2"
        )
        assert code == 0
        assert "match=false" not in out
        assert "match=true" in out

    def test_sheffer_single_set(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "sheffer", "--set", "1,2")
        assert code == 0
        assert "match=true" in out

    def test_all_suites_trivial_ranges(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all", "--n-max", "0")
        assert code == 0
        assert "match=false" not in out

    def test_randomized_rows_are_deterministic(self, capsys):
        args = ("verify", "sheffer", "--set", "1,2,3", "--random", "--trials", "5", "--seed", "42")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert "randomized trials=5 seed=42" in out1

    def test_large_set_routes_to_randomized(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "binomial", "--set", "1,2,3,4,5,6", "--trials", "4")
        assert code == 0
        assert "randomized" in out

    def test_large_easy_set_routes_to_randomized(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "easy", "--set", "1,2,3,4,5,6,7")
        assert code == 0
        [row] = out.splitlines()
        assert row.startswith("easy A={1,2,3,4,5,6,7} randomized trials=20 seed=42: ")
        assert row.endswith(" match=true")

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "verify sheffer --set 1,2,3,4,5,6,7,8 --trials 5 --seed 42",
                "86432505ea5d2ff0e6e8ae4938fe71ccafda0b3e69a35c2ffd4517f64e09ad6a",
            ),
            (
                "verify binomial --random --set 3,4,6,8,9 --trials 4 --format tsv",
                "cc2db9892718705cb692ec9738b1b02905cf2ec6c282f1d1dc191e97c255f1fa",
            ),
            (
                "verify all --random --n-max 6 --format json",
                "ae4ae7069065f854fabed89f117f2b25421439cf41aa4f4f4a57c264471ea1c7",
            ),
        ],
    )
    def test_randomized_bytes_are_pinned(self, capsys, argv, digest):
        """sha256 of stdout, recorded before the split search replaced the split stream."""
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_default_verify_all_bytes_are_pinned(self, capsys):
        """sha256 of ``verify all --format json``, recorded while variables were
        still dataclasses: its symbolic rows digest rendered polynomials."""
        code, out, _ = run_cli(capsys, "verify", "all", "--format", "json")
        assert code == 0
        digest = "03dd6c3d2817845215ce4327810bf5630bab6f88ce65564a1a358f033bdd20e7"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                "verify sheffer --random --n-max 2",
                "102f091d353e2b62d476e99b2fea77bfb03bdb0b1a8e67068d722b298e919ea5",
            ),
            (
                "verify all --random --n-max 2 --trials 3",
                "8edfbfdcdb4439bf93cb5a5dd0dda58021ab3a7ce6b7909cecaecc9215b67d66",
            ),
        ],
    )
    def test_randomized_empty_set_rows_are_pinned(self, capsys, argv, digest):
        """sha256 of stdout, recorded while a randomized trial on the empty set
        was answered 1 = 1 without evaluating either side; the rows of the empty
        set now evaluate both, and print the same bytes."""
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_symbolic_rows_fingerprint_both_sides(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "easy", "--set", "1,2", "--format", "tsv")
        assert code == 0
        header, row = out.splitlines()
        assert header.split("\t") == ["suite", "instance", "lhs", "rhs", "match"]
        cells = row.split("\t")
        assert cells[2] == cells[3]
        assert cells[4] == "true"

    def test_verify_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "sheffer", "--set", "1,2", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["suite"] == "sheffer"
        assert record["match"] is True
        assert record["lhs"] == record["rhs"]

    def test_invalid_ranges_are_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "verify", "recurrence", "--n-max", "-1")
        assert code == 2
        assert "error" in err

    def test_easy_needs_nonempty_set(self, capsys):
        code, _, err = run_cli(capsys, "verify", "easy", "--set", "")
        assert code == 2
        assert "nonempty" in err

    @pytest.mark.parametrize("suite", ["all", "easy"])
    def test_empty_set_for_easy_is_refused_before_any_suite_runs(self, capsys, monkeypatch, suite):
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran before --set was checked")

        for module in ("parkseq.strehl", "parkseq.cli"):
            monkeypatch.setattr(f"{module}.verify_recurrence", refuse)
        code, out, err = run_cli(capsys, "verify", suite, "--set", "")
        message = "error: the head-factor identity needs a nonempty ground set\n"
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "sheffer", "--trials", "0"),
            ("verify", "all", "--n-max", "-1", "--trials", "0"),  # trials before ranges
        ],
    )
    def test_trials_below_one_are_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: trials must be >= 1, got 0\n")

    def test_randomized_row_evaluates_exactly_its_trials(self, capsys, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return identity_value_sides(*args, **kwargs)

        for module in ("parkseq.strehl", "parkseq.cli"):
            monkeypatch.setattr(f"{module}.identity_value_sides", counted, raising=False)
        code, out, _ = run_cli(capsys, "verify", "sheffer", "--set", "1,2,3,4,5,6", "--trials", "5")
        assert code == 0
        assert out.endswith(" match=true\n")
        assert len(calls) == 5

    def test_failed_randomized_row_shows_its_first_failing_trial(self, capsys, monkeypatch):
        """A failing row names its first failing trial, counted from 1."""
        for trials, shown in (
            ([(5, 5), (2, 3), (7, 9)], "trial=2: lhs=2 rhs=3"),  # the first trial passes
            ([(7, 9), (5, 5), (2, 3)], "trial=1: lhs=7 rhs=9"),
        ):
            monkeypatch.setattr("parkseq.cli._trial_sides", lambda *args, **kw: iter(trials))
            code, out, _ = run_cli(capsys, "verify", "sheffer", "--set", "1,2,3,4,5,6", "--trials", "3")
            row = f"sheffer A={{1,2,3,4,5,6}} randomized trials=3 seed=42 {shown} match=false\n"
            assert (code, out) == (1, row)

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "recurrence", "--set", "5,1"),
            ("verify", "specialization", "--set", "5,1"),
            ("verify", "all", "--set", "5,1", "--n-max", "6"),
        ],
    )
    def test_malformed_set_is_refused_before_any_suite_runs(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a suite ran before --set was checked")

        for name in ("verify_recurrence", "f_as_t_specialization"):
            monkeypatch.setattr(f"parkseq.cli.{name}", refuse)
        code, out, err = run_cli(capsys, *argv)
        expected = "error: index set must be strictly increasing, got (5, 1)\n"
        assert (code, out, err) == (2, "", expected)

    def test_valid_set_is_ignored_by_the_sweeps(self, capsys):
        sweep = ("--n-max", "2", "--y-max", "2", "--z-max", "2")
        for suite in ("recurrence", "specialization"):
            _, plain, _ = run_cli(capsys, "verify", suite, *sweep)
            code, out, err = run_cli(capsys, "verify", suite, "--set", "1,4", *sweep)
            assert (code, out, err) == (0, plain, "")

    def test_unknown_suite_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "nonsense")
        assert code == 2

    def test_rows_go_out_as_they_are_computed(self, capsys, monkeypatch):
        """Each row is on stdout before the next one is computed."""
        seen = []

        def watched(*args):
            seen.append(capsys.readouterr().out)
            return verify_recurrence(*args)

        monkeypatch.setattr(cli, "verify_recurrence", watched)
        argv = ("verify", "recurrence", "--n-max", "0", "--y-max", "1", "--z-max", "2")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert seen == ["", "recurrence sizes=- next=1 z=1: lhs=1 rhs=1 match=true\n"]
        assert out == "recurrence sizes=- next=1 z=2: lhs=2 rhs=2 match=true\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "recurrence", "--n-max", "31"),
            ("verify", "sheffer", "--n-max", "31"),
            ("verify", "binomial", "--n-max", "31"),
            ("verify", "all", "--n-max", "31"),
            # all would reach sheffer on the set only after the recurrence and easy rows
            ("verify", "all", "--set", ",".join(map(str, range(1, 32))), "--trials", "1"),
        ],
        ids=["recurrence", "sheffer", "binomial", "all", "all-31-members"],
    )
    def test_a_split_past_the_partition_limit_is_refused_before_any_row(
        self, capsys, monkeypatch, argv
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a row was computed before the sweep was checked")

        for name in ("verify_recurrence", "identity_sides", "_trial_sides"):
            monkeypatch.setattr(f"parkseq.cli.{name}", refuse)
        code, out, err = run_cli(capsys, *argv)
        expected = "error: refusing to stream 2^31 decompositions (limit 2^30)\n"
        assert (code, out, err) == (2, "", expected)

    @pytest.mark.parametrize(
        "argv, callee, first_row",
        [
            (
                ("verify", "specialization", "--n-max", "31", "--y-max", "1", "--z-max", "1"),
                "f_as_t_specialization",
                "specialization sizes=- z=1: lhs=1 rhs=1 match=true",
            ),
            (("verify", "easy", "--n-max", "31"), "identity_sides", "easy A={1} symbolic: lhs="),
        ],
        ids=["specialization", "easy"],
    )
    def test_a_sweep_that_reaches_no_split_is_not_refused(
        self, capsys, monkeypatch, argv, callee, first_row
    ):
        """Whatever --n-max is: the sweep writes its first row, then is stopped."""

        class Stop(Exception):
            pass

        real, calls = getattr(cli, callee), []

        def once(*args, **kwargs):
            if calls:
                raise Stop
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, callee, once)
        with pytest.raises(Stop):
            main(list(argv))
        out, err = capsys.readouterr()
        assert (out.startswith(first_row), out.count("\n"), err) == (True, 1, "")
        assert out.endswith(" match=true\n")


class TestTable:
    def test_unit_family_matches_classic_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "ones", "--n-max", "5", "--z-max", "1", "--format", "tsv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split("\t") == ["n", "z", "count"]
        counts = [int(line.split("\t")[2]) for line in lines[1:]]
        assert counts == [1, 1, 3, 16, 125, 1296]

    def test_every_z_counts_one_for_no_cars(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "0", "--z-max", "4", "--format", "tsv")
        assert code == 0
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        assert [r[2] for r in rows] == ["1", "1", "1", "1"]

    def test_const_family(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--family", "const", "--car", "2", "--n-max", "2", "--z-max", "1"
        )
        assert code == 0
        assert out.splitlines()[-1] == "n=2 z=1 count=4"

    def test_pattern_family_cycles(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "table", "--family", "pattern", "--pattern", "2,1", "--n-max", "3", "--z-max", "1",
            "--format", "json",
        )
        assert code == 0
        last = json.loads(out.splitlines()[-1])
        assert last["count"] == count_by_formula((2, 1, 2), 1)

    def test_pattern_family_requires_pattern(self, capsys):
        code, _, err = run_cli(capsys, "table", "--family", "pattern")
        assert code == 2
        assert "pattern" in err

    def test_n_max_guard(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--n-max", "13")
        assert code == 2

    def test_pattern_is_checked_only_as_far_as_the_rows_reach(self, capsys):
        argv = ("table", "--family", "pattern", "--pattern", "2,0")
        code, out, err = run_cli(capsys, *argv, "--n-max", "1")
        assert (code, len(out.splitlines()), err) == (0, 8, "")
        code, out, err = run_cli(capsys, *argv, "--n-max", "2")
        assert (code, out, err) == (2, "", "error: car sizes must be integers >= 1, got 0\n")


EXTREME_FLAGS = {
    "park-long-trailer": ["park", "--sizes", "1", "--z", str(10**20), "--prefs", "1"],
    "park-long-car": ["park", "--sizes", str(10**20), "--z", "1", "--prefs", "1"],
    "count-forced-long-lot": ["count", "--sizes", "1,1", "--z", str(10**20), "--enumerate", "--force"],
    "count-long-car": ["count", "--sizes", str(10**20), "--z", "1"],
    "count-two-long-cars": ["count", "--sizes", "1000000,1000000", "--z", "1", "--enumerate"],
    "verify-31-members": [
        "verify", "sheffer", "--set", ",".join(map(str, range(1, 32))), "--trials", "1"
    ],
    "verify-all-31-members": [
        "verify", "all", "--set", ",".join(map(str, range(1, 32))), "--trials", "1"
    ],
    "verify-empty-set": ["verify", "all", "--set", ""],
    "table-past-limit": ["table", "--n-max", "13"],
}


@pytest.mark.parametrize("argv", EXTREME_FLAGS.values(), ids=EXTREME_FLAGS)
def test_extreme_valid_flags_never_raise(capsys, argv):
    """Valid flags at their extremes end in an exit code, never a traceback, and a
    refusal says why on stderr and prints nothing on stdout."""
    code, out, err = run_cli(capsys, *argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert any(line.startswith("error: ") for line in err.splitlines())


def test_identical_flags_produce_identical_bytes(capsys):
    argv = ("verify", "all", "--n-max", "2", "--y-max", "2", "--z-max", "2", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_bad_csv_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "count", "--sizes", "1,apple", "--z", "1")
    assert code == 2


def test_import_loads_no_process_machinery():
    probe = (
        "import sys, parkseq.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(parkseq.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_a_closed_stdout_ends_the_run_quietly():
    """A reader that stops early, as ``| head -1`` does, gets exit 1 and no traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(parkseq.__file__).resolve().parents[1]))
    argv = [sys.executable, "-m", "parkseq", "verify", "recurrence", "--n-max", "5"]
    # the sweep writes 305,742 bytes, more than a pipe holds, so it outlives the close
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
        try:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        finally:
            child.kill()
    assert first == b"recurrence sizes=- next=1 z=1: lhs=1 rhs=1 match=true\n"
    assert (code, err) == (1, b"")


_build_parser = cli._build_parser  # kept here, since the test below patches the module's


def _eager_parser(argv):
    """The parser with every subcommand filled in, from the same table."""
    parser = _build_parser([])  # fills in no subcommand
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, _, options, _ in cli._SUBCOMMANDS:
        p = subparsers.choices[name]
        for flag, keywords in (cli._FORMAT, *options):
            p.add_argument(flag, **keywords)
    return parser


ARGV_TOKENS = [
    "park", "count", "verify", "table", "bogus",
    "--sizes", "--z", "--prefs", "--enumerate", "--budget", "--force", "--set", "--n-max",
    "--y-max", "--z-max", "--random", "--trials", "--seed", "--family", "--car", "--pattern",
    "--siz", "-h", "--", "--format", "1,2", "x", "-1",
]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
def test_the_lazy_parser_answers_as_the_eager_one(capsys, argv):
    """Filling in only the invoked subcommand changes no exit code and no byte
    of stdout or stderr."""
    lazy = run_cli(capsys, *argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_build_parser", _eager_parser)
        eager = run_cli(capsys, *argv)
    assert lazy == eager


# each subcommand's (flag or positional name, add_argument keywords), --format first
READER_TABLES = {name: dict((cli._FORMAT, *options)) for name, _, options, _ in cli._SUBCOMMANDS}
READER_NOISE = (
    *sorted({flag for table in READER_TABLES.values() for flag in table if flag.startswith("-")}),
    "--format=json", "--enum", "--siz", "--help", "-h", "--", "--bogus", "park",
)
READER_INTS = ("0", "1", "2", " 3", "+2", "1_0")
READER_CSVS = ("", "1", "1,2", "2,1")
READER_WELL_FORMED = {
    "--format": cli.FORMATS, "--family": cli.FAMILIES, "suite": cli.SUITES,
    "--sizes": READER_CSVS, "--prefs": READER_CSVS, "--set": READER_CSVS, "--pattern": READER_CSVS,
}
READER_ODD = ("-", "-1", "-1,2", "x", "1,x", "", "1_0", "json", "ones", "all")
READER_VALUES = (*READER_INTS, *READER_CSVS, *READER_ODD, *cli.FORMATS, *cli.FAMILIES, *cli.SUITES)


@st.composite
def command_lines(draw):
    """A subcommand name, its required arguments, then some of its options,
    in any order.  A quarter of the time one required argument is left out,
    a value is an odd one (starting with ``-``, failing the option's type or
    missing its choices) and not one well-formed for its option, or lone
    tokens from anywhere are mixed in."""
    name = draw(st.sampled_from(sorted(READER_TABLES)))
    table = READER_TABLES[name]
    # verify sweeps --n-max cars of sizes up to --y-max: 1_0 there would take minutes
    values = [v for v in READER_VALUES if name != "verify" or v != "1_0"]
    odd = [v for v in READER_ODD if v in values]

    def sometimes() -> bool:
        return draw(st.integers(0, 3)) == 0

    def given_as(flag):
        if table[flag].get("action") == "store_true":
            return [flag]
        well_formed = [v for v in READER_WELL_FORMED.get(flag, READER_INTS) if v in values]
        value = draw(st.sampled_from(odd if sometimes() else well_formed))
        return [flag, value] if flag.startswith("-") else [value]

    required = [f for f, kw in table.items() if kw.get("required") or not f.startswith("-")]
    groups = [given_as(flag) for flag in required]
    if groups and sometimes():
        del groups[draw(st.integers(0, len(groups) - 1))]
    options = [flag for flag in table if flag.startswith("-")]  # a required one may repeat
    groups += map(given_as, draw(st.lists(st.sampled_from(options), unique=True, max_size=3)))
    if sometimes():
        tokens = st.sampled_from([*READER_NOISE, *values])
        groups += [[tok] for tok in draw(st.lists(tokens, min_size=1, max_size=2))]
    return [name, *(tok for group in draw(st.permutations(groups)) for tok in group)]


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(command_lines())
@example(["park", "--sizes", "-1,2", "--z", "1", "--prefs", "1,1"])
def test_the_reader_answers_as_argparse(capsys, argv):
    """Reading a command line without argparse changes no exit code and no
    byte of stdout or stderr, and gives argparse's namespace where it reads."""
    read = run_cli(capsys, *argv)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_read", lambda argv: None)
        parsed = run_cli(capsys, *argv)
    assert read == parsed
    args = cli._read(argv)
    if args is not None:
        assert vars(args) == vars(_build_parser(argv).parse_args(argv))


def test_main_without_argv_reads_the_command_line(capsys, monkeypatch):
    argv = ["table", "--n-max", "1", "--z-max", "2", "--format", "tsv"]
    monkeypatch.setattr(sys, "argv", ["parkseq", *argv])
    assert main() == 0
    assert capsys.readouterr() == ("n\tz\tcount\n0\t1\t1\n0\t2\t1\n1\t1\t1\n1\t2\t2\n", "")


HELP = {
    "parkseq": """\
usage: parkseq [-h] {park,count,verify,table} ...

Parking sequences of variable-size cars behind a trailer: simulate, count,
verify, tabulate.

positional arguments:
  {park,count,verify,table}
    park                run one parking attempt
    count               count parking sequences
    verify              verify counting identities
    table               tabulate count families

options:
  -h, --help            show this help message and exit
""",
    "park": """\
usage: parkseq park [-h] [--format {plain,json,tsv}] --sizes CSV --z Z --prefs
                    CSV

options:
  -h, --help            show this help message and exit
  --format {plain,json,tsv}
  --sizes CSV           car sizes in arrival order; empty string for no cars
  --z Z                 trailer parameter (z-1 trailer spots)
  --prefs CSV           preferred spots, one per car
""",
    "count": """\
usage: parkseq count [-h] [--format {plain,json,tsv}] --sizes CSV --z Z
                     [--enumerate] [--budget BUDGET] [--force]

options:
  -h, --help            show this help message and exit
  --format {plain,json,tsv}
  --sizes CSV
  --z Z
  --enumerate           also run the brute-force oracle and compare
  --budget BUDGET       refuse when the oracle's search may walk more row
                        cells (states times m spots) than this (default
                        4000000 or $PARKSEQ_BUDGET)
  --force               enumerate past the budget
""",
    "verify": """\
usage: parkseq verify [-h] [--format {plain,json,tsv}] [--set CSV]
                      [--n-max N_MAX] [--y-max Y_MAX] [--z-max Z_MAX]
                      [--random] [--trials TRIALS] [--seed SEED]
                      {recurrence,easy,sheffer,binomial,specialization,all}

positional arguments:
  {recurrence,easy,sheffer,binomial,specialization,all}

options:
  -h, --help            show this help message and exit
  --format {plain,json,tsv}
  --set CSV             check one explicit ground set instead of sweeping
  --n-max N_MAX
  --y-max Y_MAX
  --z-max Z_MAX
  --random              force randomized evaluation instead of symbolic
                        expansion
  --trials TRIALS
  --seed SEED
""",
    "table": """\
usage: parkseq table [-h] [--format {plain,json,tsv}]
                     [--family {ones,const,pattern}] [--car CAR]
                     [--pattern CSV] [--n-max N_MAX] [--z-max Z_MAX]

options:
  -h, --help            show this help message and exit
  --format {plain,json,tsv}
  --family {ones,const,pattern}
  --car CAR             car size for the const family
  --pattern CSV         size pattern, cycled to length n, for the pattern
                        family
  --n-max N_MAX
  --z-max Z_MAX
""",
}


@pytest.mark.parametrize("command, text", HELP.items(), ids=HELP)
def test_help_text_is_pinned(capsys, monkeypatch, command, text):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    argv = ["-h"] if command == "parkseq" else [command, "-h"]
    assert run_cli(capsys, *argv) == (0, text, "")

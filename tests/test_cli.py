import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from secgenus.cli import _SHORT_FLAGS, build_parser, main
from secgenus.report import VerificationReport
from secgenus.variety import save_variety, variety_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_catalog(capsys):
    code, out, _ = run(capsys, "chi", "--variety", "catalog:P4", "--divisor", "1H")
    assert code == 0
    assert "5" in out


def test_chi_trivial_twist(capsys):
    code, out, _ = run(capsys, "chi", "--variety", "catalog:X6", "--divisor", "0H")
    assert code == 0
    assert "chi(0H) on X6" in out.splitlines()[3] and " 2 " in out.splitlines()[3]


def test_chi_expand(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "chi", "--variety", "catalog:X6", "--divisor", "1H", "--expand"
    )
    assert code == 0
    blob = json.loads(out)
    rows = {c["name"]: c["actual"] for c in blob["checks"]}
    assert rows["binomial coefficients of chi(t(1H))"] == "[2, -4, 11, -9, 6]"


def test_genus_command(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "genus", "--variety", "catalog:X6",
        "-i", "1", "-L", "1H", "-L", "1H", "-L", "1H",
    )
    assert code == 0
    blob = json.loads(out)
    values = {c["name"]: c["actual"] for c in blob["checks"]}
    assert values["g_1 on X6"] == "10"


def test_genus_examples(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "genus", "--variety", "catalog:X6", "-i", "3", "-L", "1H"
    )
    assert json.loads(out)["checks"][0]["actual"] == "5"
    code, out, _ = run(
        capsys, "--format", "json", "genus", "--variety", "catalog:P4",
        "-i", "0", "-L", "1H", "-L", "1H", "-L", "1H", "-L", "1H",
    )
    assert json.loads(out)["checks"][0]["actual"] == "1"


def test_genus_arity_error(capsys):
    code, _, err = run(capsys, "genus", "--variety", "catalog:X6", "-i", "1", "-L", "1H")
    assert code == 2
    assert "input error" in err


def test_verify_difference_suite(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "verify", "--suite", "difference", "--seed", "7", "--draws", "5"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["summary"]["failed"] == 0
    assert blob["summary"]["total"] >= 50


def test_verify_additivity_suite(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "verify", "--suite", "additivity", "--draws", "100", "--seed", "3"
    )
    blob = json.loads(out)
    assert code == 0 and blob["summary"]["failed"] == 0 and blob["summary"]["total"] == 100


def test_verify_bounds_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--m-max", "10")
    assert code == 0
    assert "failed=0" in out


def _total(capsys, *argv):
    code, out, err = run(capsys, "--format", "json", "verify", *argv)
    assert code == 0, err
    return json.loads(out)["summary"]["total"]


def test_verify_draws_reach_every_drawing_suite(capsys):
    # 10 four-folds, each with one g1 and one g2 closed-form check per draw
    assert _total(capsys, "--suite", "closed", "--draws", "1") == 20
    assert _total(capsys, "--suite", "closed", "--draws", "2") == 40
    # the P4 anchor, then one draw per 4-fold per draw
    assert _total(capsys, "--suite", "difference", "--draws", "3") == 31
    for suite in ("serre", "c2bound"):
        assert _total(capsys, "--suite", suite, "--draws", "1") < _total(
            capsys, "--suite", suite, "--draws", "6"
        )


def test_verify_default_draws_unchanged(capsys):
    assert _total(capsys, "--suite", "integrality") == 10  # one lattice row per 4-fold
    assert _total(capsys, "--suite", "closed") == 200
    assert _total(capsys, "--suite", "g0") == 25


@pytest.mark.parametrize("suite", ["jumps", "bounds", "integrality"])
def test_verify_draws_rejected_where_nothing_is_drawn(capsys, suite):
    code, out, err = run(capsys, "verify", "--suite", suite, "--draws", "3")
    assert code == 2 and out == ""
    assert "input error" in err and "draws nothing" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "jumps", "--seed", "12345"),
        ("--suite", "integrality", "--seed", "1"),
        ("--suite", "g0", "--m-max", "1"),
    ],
)
def test_verify_arguments_no_selected_suite_reads_exit_two(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "input error" in err and "does not apply to" in err


def test_verify_all_takes_a_seed(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--suite", "all", "--seed", "7")
    assert code == 0
    assert out == run(capsys, "--format", "json", "verify", "--suite", "all")[1]


@pytest.mark.parametrize(
    "argv", [("--suite", "all", "--draws", "-3"), ("--suite", "bounds", "--m-max", "-2")]
)
def test_verify_out_of_range_counts_exit_two(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert "input error" in err and "must be at least" in err


def test_status_column_in_csv_and_table(capsys):
    from secgenus.report import VerificationReport

    report = VerificationReport(title="synthetic")
    report.add("holds", True)
    report.add("breaks", False)
    report.add("uncertified", None)
    assert [c.status for c in report.checks] == ["pass", "FAIL", "abstain"]
    rows = report.to_csv().splitlines()[1:]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["pass", "FAIL", "abstain"]
    lines = report.to_table().splitlines()[3:6]
    assert [line.split()[-1] for line in lines] == ["pass", "FAIL", "abstain"]


def test_verify_deterministic(capsys):
    _, out1, _ = run(capsys, "--format", "json", "verify", "--suite", "g0", "--seed", "5")
    _, out2, _ = run(capsys, "--format", "json", "verify", "--suite", "g0", "--seed", "5")
    assert out1 == out2
    json.loads(out1)  # round-trips


# SHA-256 of the seed-7 `verify --suite all` JSON report.  A change that
# alters the report on purpose updates this digest and says why.
REPORT_SHA256_SEED_7 = "7685cc7d63b6b8c7d2d6aa00eccb170b56dd8ebe0b2b9140df78b7003fc7eaa8"


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "json", "verify", "--suite", "all", "--seed", "7"],
        ["verify", "--suite", "all", "--format", "json"],  # the README line; seed 7 by default
    ],
)
def test_verify_all_golden_report(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256_SEED_7


# SHA-256 of the `verify --suite all` JSON report at the hold-out seed 4634.
REPORT_SHA256_SEED_4634 = "60f814013101b5e5bfc3eb6fb707d81b7274ebaf345a4a7ad6ffd6d952e80d2f"


def test_verify_all_holdout_seed_report(capsys):
    code, out, _ = run(capsys, "--format", "json", "verify", "--suite", "all", "--seed", "4634")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256_SEED_4634


def test_global_flags_in_either_position(capsys):
    tail = ("verify", "--suite", "g0", "--seed", "5", "--draws", "3")
    before = run(capsys, "--format", "csv", *tail)
    after = run(capsys, *tail, "--format", "csv")
    assert before == after
    assert before[0] == 0 and before[1].startswith("name,inputs,expected,actual,pass")
    code, _, _ = run(capsys, "classify", "--variety", "catalog:X6", "--L", "2H", "--abstain", "fail")
    assert code == 3


def test_verify_csv_format(capsys):
    code, out, _ = run(capsys, "--format", "csv", "verify", "--suite", "jumps")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "name,inputs,expected,actual,pass"


def test_semigroup_threshold(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "semigroup", "--set", "4,5", "--threshold"
    )
    assert code == 0
    blob = json.loads(out)
    rows = {c["name"]: c["actual"] for c in blob["checks"]}
    assert rows["guaranteed threshold (all m beyond are members)"] == "12"
    assert rows["minimum element"] == "4"


def test_semigroup_empty_closure_reports_none(capsys):
    # no generator lies within the bound: the closure is empty, not an error
    argv = ("--format", "json", "semigroup", "--set", "20", "--bound", "10", "--threshold")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = {c["name"]: c["actual"] for c in json.loads(out)["checks"]}
    assert rows["closure members"] == "[]"
    assert rows["minimum element"] == "none"
    assert rows["guaranteed threshold (all m beyond are members)"] == "none"


def test_semigroup_coin(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "semigroup", "--set", "3,5", "--coin", "8"
    )
    blob = json.loads(out)
    rows = {c["name"]: c["actual"] for c in blob["checks"]}
    assert rows["coin solution 3*i + 5*j = 8"] == "i=1 j=1"


def test_classify_command(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "classify", "--variety", "catalog:X6", "--L", "1H"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["actual"] == "TH2-1"


def test_classify_abstention_policy(capsys):
    code, _, err = run(
        capsys, "--abstain", "fail", "classify", "--variety", "catalog:X6", "--L", "2H"
    )
    assert code == 3
    code, _, err = run(capsys, "classify", "--variety", "catalog:X6", "--L", "2H")
    assert code == 0  # warn policy
    assert "abstained" in err


def test_bounds_command(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "bounds", "--variety", "catalog:A4", "--L", "1L", "--m-max", "6"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["summary"]["failed"] == 0


# sha256 of ``--format json bounds --variety catalog:NAME --L ...`` (m_max 6), unchanged
# since the second-multiple row was confined to declared kappa(X) >= 0
BOUNDS_SHA256 = {
    "A4": "8d7f48153f2f7d733d51d62646b7684134d4e5127c53bb0634e3a2d697657179",
    "X6": "dc5cf510364dfdd5f366bafb391b47cc0b3fb26c5759d8315f30ef3b8db3b3d3",
    "X7": "9a25fadfaf73e8f63d8842f15f34b265798deb1138b9b3d37ac6d2df81e646df",
}


@pytest.mark.parametrize("name, ell", [("X5", "1H"), ("X6", "1H"), ("X7", "1H"), ("A4", "1L")])
def test_bounds_asserts_the_second_multiple_only_under_kappa_x_nonnegative(capsys, name, ell):
    # X5 has K + L = 0 and kappa(X) = -inf: the expression reads 0 there and is not asserted
    argv = ("--format", "json", "bounds", "--variety", f"catalog:{name}", "--L", ell)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = [c["name"] for c in json.loads(out)["checks"]]
    assert ("second-multiple expression >= 111/192" in rows) == (name != "X5")
    if name in BOUNDS_SHA256:
        assert hashlib.sha256(out.encode()).hexdigest() == BOUNDS_SHA256[name]


def test_bounds_from_a_model_file_with_declared_kappa_three(capsys, tmp_path, p1xp3):
    # K + L = 1b for L = 2a+5b on P1xP3: kappa(K+L) = 3 asserts m >= 2, h^0(mb) = C(m+3, 3)
    data = variety_to_json(p1xp3)
    data["kappa_adjoint"] = {"2a+5b": {"kappa": {"1": 3}, "fine_type": None}}
    path = tmp_path / "p1xp3.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ("--format", "json", "bounds", "--variety", str(path), "--L", "2a+5b", "--m-max", "5")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = {c["name"]: c["actual"] for c in json.loads(out)["checks"]}
    assert rows == {"nonvanishing[m=2]": "10", "nonvanishing[m=3]": "20",
                    "nonvanishing[m=4]": "35", "nonvanishing[m=5]": "56"}


def test_bounds_input_error(capsys):
    code, _, err = run(capsys, "bounds", "--variety", "catalog:P4", "--L", "1H")
    assert code == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "--variety", "catalog:X6", "--L", "0H"), "L = 0H is not ample on X6"),
        (
            ("classify", "--variety", "catalog:P2xP2", "--L", "1a+0b"),
            "L = 1a+0b is not ample on P2xP2",
        ),
        (("bounds", "--variety", "catalog:X6", "--L", "0H"), "L = 0H is not ample on X6"),
    ],
    ids=["classify-X6", "classify-P2xP2", "bounds-X6"],
)
def test_non_ample_polarization_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


def test_model_error_exits_1_with_nothing_on_stdout(capsys, tmp_path, x6):
    # c2.H^2 = 91 instead of 90: 24 chi(H) = 48 + 6 + 91 = 145
    data = variety_to_json(x6)
    data["c2_pairings"] = {"H^2": 91}
    path = tmp_path / "x6.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run(capsys, "chi", "--variety", str(path), "--divisor", "1H")
    assert (code, out) == (1, "")
    assert err == "error: chi(1H) on X6 is not an integer: 145/24\n"


@pytest.mark.parametrize("m_max", ["2", "0", "-3"])
def test_bounds_m_max_below_asserted_start_exits_2(capsys, m_max):
    # declared kappa(K+L) = 4 on X6 asserts m >= 3: these ranges hold no nonvanishing row
    argv = ("bounds", "--variety", "catalog:X6", "--L", "1H", "--m-max")
    code, out, err = run(capsys, *argv, m_max)
    assert code == 2 and out == ""
    assert f"m_max = {m_max} is below the asserted start m >= 3 on X6" in err
    code, out, _ = run(capsys, "--format", "json", *argv, "3")
    assert code == 0
    assert [c["name"] for c in json.loads(out)["checks"]][0] == "nonvanishing[m=3]"


def test_variety_file(capsys, tmp_path, x6):
    path = tmp_path / "mine.json"
    save_variety(x6, path)
    code, out, _ = run(capsys, "chi", "--variety", str(path), "--divisor", "2H")
    assert code == 0 and "21" in out


def test_unknown_catalog_entry(capsys):
    code, _, err = run(capsys, "chi", "--variety", "catalog:Nope", "--divisor", "1H")
    assert code == 2
    assert "unknown catalog entry" in err


def test_catalog_accepts_every_buildable_tag(capsys):
    code, out, err = run(
        capsys, "--format", "json", "chi", "--variety", "catalog:p1xp1xp2", "--divisor", "1a+1b+1c"
    )
    assert code == 0, err
    assert json.loads(out)["checks"][0]["actual"] == "12"  # 2 * 2 * 3 sections, by Kunneth
    for spec, reason in (
        ("catalog:nosuch", "unknown oracle tag 'nosuch'"),
        ("catalog:abelian", "abelian needs L^4"),  # the catalog's A4 has a name of its own
    ):
        code, out, err = run(capsys, "chi", "--variety", spec, "--divisor", "1H")
        assert (code, out) == (2, "")
        assert err.startswith("input error: unknown catalog entry") and reason in err
        assert "Traceback" not in err


def test_failed_report_exits_one(capsys, monkeypatch):
    from secgenus import cli

    failing = VerificationReport(title="synthetic")
    failing.add("never true", False, expected=1, actual=2)
    monkeypatch.setattr(cli, "cmd_verify", lambda args: failing)
    code, out, err = run(capsys, "verify")
    assert (code, err) == (1, "") and "never true" in out
    # a failed check outweighs an abstained one under either policy
    failing.add("undecided", None)
    for policy in ("warn", "fail"):
        assert run(capsys, "--abstain", policy, "verify")[0] == 1


# one valid argv per subcommand of build_parser()
VALID_ARGV = {
    "chi": ("chi", "--variety", "catalog:X6", "--divisor", "1H", "--expand"),
    "genus": ("genus", "--variety", "catalog:X6", "-i", "3", "-L", "1H"),
    "verify": ("verify", "--suite", "bounds", "--m-max", "4"),
    "semigroup": ("semigroup", "--set", "4,5", "--threshold", "--coin", "20"),
    "classify": ("classify", "--variety", "catalog:X6", "--L", "1H"),
    "bounds": ("bounds", "--variety", "catalog:A4", "--L", "1L"),
}


def test_every_command_returns_its_report_and_writes_nothing(capsys):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.choices and "genus" in a.choices)
    assert set(subparsers.choices) == set(VALID_ARGV)
    for command, argv in VALID_ARGV.items():
        args = parser.parse_args(argv)
        report = args.func(args)
        assert isinstance(report, VerificationReport) and report.passed, command
        assert capsys.readouterr().out == "", command


def test_parse_error_positions(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json", encoding="utf-8")
    code, _, err = run(capsys, "chi", "--variety", str(bad), "--divisor", "1H")
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe{}", "is not UTF-8 text"),  # a UTF-16 byte-order mark
        (b"[" * 100_000, "is JSON nested too deep to decode"),
    ],
)
def test_undecodable_variety_file_exits_two(capsys, tmp_path, content, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run(capsys, "chi", "--variety", str(bad), "--divisor", "1H")
    assert (code, out) == (2, "")
    assert f"variety file {bad} {message}" in err and "Traceback" not in err


def _classify_file(capsys, tmp_path, data, polarization):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return run(capsys, "--format", "json", "classify", "--variety", str(path), "--L", polarization)


def test_kappa_adjoint_keys_are_read_as_divisor_classes(capsys, tmp_path, catalog):
    want = run(capsys, "--format", "json", "classify", "--variety", "catalog:P2xP2", "--L", "1a+1b")
    data = variety_to_json(catalog["P2xP2"])
    data["kappa_adjoint"] = {"1b+1a": data["kappa_adjoint"]["1a+1b"]}
    assert _classify_file(capsys, tmp_path, data, "1a+1b") == want

    data["kappa_adjoint"]["a+b"] = data["kappa_adjoint"]["1b+1a"]
    code, out, err = _classify_file(capsys, tmp_path, data, "1a+1b")
    assert (code, out) == (2, "") and "1a+1b twice" in err

    data["kappa_adjoint"] = {"1c": data["kappa_adjoint"]["a+b"]}
    code, out, err = _classify_file(capsys, tmp_path, data, "1a+1b")
    assert (code, out) == (2, "") and "unknown generator 'c'" in err


def test_fine_type_must_be_a_string_or_null(capsys, tmp_path, x6):
    data = variety_to_json(x6)
    data["kappa_adjoint"]["1H"]["fine_type"] = 5
    code, out, err = _classify_file(capsys, tmp_path, data, "1H")
    assert (code, out) == (2, "") and "fine_type must be a JSON string or null, got 5" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("semigroup", "--set", "4,x"), "comma-separated integers"),
        (("semigroup", "--set", "4", "--coin", "7"), "two generators"),
        (("semigroup", "--set", "4_0,7"), "comma-separated integers"),
        (("semigroup", "--set", "4,,7"), "comma-separated integers"),
        (("semigroup", "--set", "4,07"), "comma-separated integers"),
        (("semigroup", "--set", "4,5,7", "--coin", "20"), "two generators"),
        (("semigroup", "--set", "4,5", "--bound", "100000000000"), "above the limit"),
        (("semigroup", "--set", "100000,100001", "--threshold"), "above the limit"),
        (("semigroup", "--set", "-3,5"), "generators must be positive"),  # argparse read an option
    ],
)
def test_semigroup_usage_errors_exit_2(capsys, argv, message):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("input error:") and message in err


def test_divisor_starting_with_minus_is_passed_with_equals(capsys):
    # with or without "=", a value starting with "-" and a digit or letter is the flag's divisor
    x6 = ("--variety", "catalog:X6")
    genus = ("genus", *x6, "-i", "1")
    for plain, equals, first_check in [
        (("chi", *x6, "--divisor", "-1H"), ("chi", *x6, "--divisor=-1H"), {"actual": "6"}),
        (("chi", *x6, "--divisor", "-H"), ("chi", *x6, "--divisor=-H"), {"actual": "6"}),
        (
            (*genus, "-L", "-H", "-L", "H", "-L", "H"),
            (*genus, "-L=-H", "-L=H", "-L=H"),
            {"actual": "-2", "inputs": {"bundles": "-H,H,H", "i": "1", "variety": "X6"}},
        ),
        (
            (*genus, "-L", "-1H", "-L", "1H", "-L", "1H"),
            (*genus, "-L=-1H", "-L=1H", "-L=1H"),
            {"actual": "-2", "inputs": {"bundles": "-1H,1H,1H", "i": "1", "variety": "X6"}},
        ),
    ]:
        code, out, err = run(capsys, "--format", "json", *plain)
        assert code == 0, err
        assert json.loads(out)["checks"][0].items() >= first_check.items()
        assert run(capsys, "--format", "json", *equals) == (code, out, err)
    # a negative L is read as the divisor and refused as not ample
    for value, spelled in (("-2H", "-2H"), ("-H", "-1H")):
        code, out, err = run(capsys, "--format", "json", "classify", *x6, "--L", value)
        assert (code, out) == (2, "") and f"L = {spelled} is not ample on X6" in err
        assert run(capsys, "--format", "json", "classify", *x6, f"--L={value}") == (code, out, err)
    # the parser's own flags are never read as a divisor
    for flag in ("-i", "-L", "-h"):
        with pytest.raises(SystemExit) as exit_info:
            run(capsys, "genus", *x6, "-L", flag, "1")
        assert exit_info.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


def test_short_flags_are_the_parsers_single_dash_flags():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.choices and "genus" in a.choices)
    flags = {
        flag
        for p in (parser, *subparsers.choices.values())
        for action in p._actions
        for flag in action.option_strings
        if not flag.startswith("--")
    }
    assert flags == set(_SHORT_FLAGS)


@pytest.mark.parametrize("command", ["classify", "bounds"])
def test_abstention_prints_a_one_row_report(capsys, command):
    argv = (command, "--variety", "catalog:X6", "--L", "2H")
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0 and "abstained" in err
    blob = json.loads(out)
    assert blob["suite"] == command
    assert blob["summary"] == {"abstained": 1, "failed": 0, "passed": 0, "total": 1}
    (check,) = blob["checks"]
    assert check["pass"] is None and check["name"] == f"{command}: {err.split(': ', 1)[1].strip()}"
    code, out, _ = run(capsys, "--format", "csv", *argv, "--abstain", "fail")
    assert code == 3
    header, row = out.splitlines()
    assert header == "name,inputs,expected,actual,pass" and row.endswith(",,,,abstain")
    code, out, _ = run(capsys, "--format", "table", *argv)
    assert code == 0
    assert out.startswith(f"# {command}\n") and "total=1 passed=0 failed=0 abstained=1" in out


def test_start_up_imports_no_dataclasses_inspect_or_typing():
    # every CLI run pays for its imports; these three cost about 20 ms of start-up, and
    # nothing in the package needs them, neither at import nor while verifying
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from secgenus.cli import main\n"
        "code = main(['--format', 'json', 'verify', '--suite', 'bounds'])\n"
        "print(code, sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout.rpartition("}")[0] + "}")["suite"] == "bounds"
    assert done.stdout.splitlines()[-1] == "0 []"

"""Command line behavior: flags, formats, exit codes, schema conformance."""

import argparse
import csv
import hashlib
import io
import json
import sys

import jsonschema
import pytest

from hooktrees.algebra import ZERO
from hooktrees.cli import REPORT_SCHEMA, _build_parser, coefficient_strings, main, render_reports
from hooktrees.identities import (
    FAMILIES,
    IdentitySpec,
    VerificationReport,
    check_gf_relations,
    check_identity,
    check_recurrence_thm1_1,
)
from hooktrees.trees import count_trees


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--arity", "2", "--internal", "3")
    assert code == 0 and out == "5\n"
    code, out, _ = run(capsys, "count", "--arity", "3", "--internal", "0")
    assert code == 0 and out == "1\n"


def test_count_prints_more_digits_than_the_int_str_limit(capsys):
    # count_trees(2, 8000) has 4,811 digits, past CPython's default 4,300.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(count_trees(2, 8000))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 4811
    code, out, err = run(capsys, "count", "--arity", "2", "--internal", "8000")
    assert (code, out, err) == (0, expected + "\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_count_rejects_small_arity(capsys):
    with pytest.raises(SystemExit) as err:
        main(["count", "--arity", "1", "--internal", "2"])
    assert err.value.code == 2


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--arity", "2", "--internal", "2")
    assert code == 0 and out.splitlines() == ["10100", "11000"]
    code, out, _ = run(capsys, "enumerate", "--arity", "2", "--internal", "2", "--limit", "1")
    assert out.splitlines() == ["10100"]
    code, out, _ = run(capsys, "enumerate", "--arity", "4", "--internal", "0")
    assert out == "0\n"


def test_enumerate_too_deep_is_one_error_line(capsys):
    code, out, err = run(capsys, "enumerate", "--arity", "2", "--internal", "5000", "--limit", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        "count --arity 1 --internal 2",
        "count --arity 2 --internal -1",
        "enumerate --arity 1 --internal 2",
        "enumerate --arity 2 --internal -1",
        "enumerate --arity 2 --internal 2 --limit -1",
        "hooks --arity 1 --code 0",
        "verify --family lascoux_1_1 --n-max -1",
        "verify --family lascoux_1_1 --n-max 2 --jobs 0",
        "series --solver phi --a 0 --b 1 --order 2",
        "series --solver phi --a 1 --b 0 --order 2",
        "series --solver phi --a 1 --b 1 --s -1 --order 2",
        "series --solver phi --a 1 --b 1 --order -1",
        "series --solver phi --a 1 --b 1 --order two",
    ],
)
def test_range_checks_are_declared_on_the_arguments(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert "expected an integer >= " in capsys.readouterr().err


def test_hooks_table(capsys):
    code, out, _ = run(capsys, "hooks", "--arity", "2", "--code", "11000")
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert rows == [["0", "2", "2"], ["1", "1", "1"]]


def test_hooks_with_positions(capsys):
    code, out, _ = run(
        capsys, "hooks", "--arity", "3", "--code", "1100010000", "--S", "2"
    )
    assert code == 0
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[3] for r in rows] == ["2", "1", "1"]
    assert [r[0] for r in rows] == ["0", "1", "5"]


def test_hooks_json(capsys):
    code, out, _ = run(
        capsys, "hooks", "--arity", "3", "--code", "1100010000", "--S", "2",
        "--format", "json",
    )
    doc = json.loads(out)
    assert doc["S"] == [2]
    assert [v["hbb"] for v in doc["vertices"]] == [2, 1, 1]


HOOKS_JSON = """\
{
  "arity": 3,
  "code": "1100010000",
  "S": [
    2
  ],
  "vertices": [
    {
      "index": 0,
      "h": 3,
      "hcal": 3,
      "hbb": 2
    },
    {
      "index": 1,
      "h": 1,
      "hcal": 1,
      "hbb": 1
    },
    {
      "index": 5,
      "h": 1,
      "hcal": 1,
      "hbb": 1
    }
  ]
}
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["--arity", "3", "--code", "1100010000", "--S", "2"],
            "index    h  hcal  hbb{2}\n    0    3     3  2\n    1    1     1  1\n    5    1     1  1\n",
        ),
        (["--arity", "3", "--code", "1100010000", "--S", "2", "--format", "json"], HOOKS_JSON),
        (
            ["--arity", "3", "--code", "1100010000", "--S", "2", "--format", "csv"],
            "index,h,hcal,hbb\n0,3,3,2\n1,1,1,1\n5,1,1,1\n",
        ),
        (["--arity", "2", "--code", "0", "--format", "csv"], "index,h,hcal\n"),
    ],
)
def test_hooks_output_is_pinned(capsys, argv, expected):
    code, out, err = run(capsys, "hooks", *argv)
    assert (code, out, err) == (0, expected, "")


COR2_FIRST_JSON = """\
[
  {
    "family": "cor2_first",
    "m": 2,
    "n": 0,
    "S": [
      1,
      2
    ],
    "pass": true,
    "lhs": [
      "1"
    ],
    "rhs": [
      "1"
    ],
    "trees_visited": 1,
    "elapsed_ms": 0
  },
  {
    "family": "cor2_first",
    "m": 2,
    "n": 1,
    "S": [
      1,
      2
    ],
    "pass": true,
    "lhs": [
      "0"
    ],
    "rhs": [
      "0"
    ],
    "trees_visited": 1,
    "elapsed_ms": 0
  },
  {
    "family": "cor2_first",
    "m": 2,
    "n": 2,
    "S": [
      1,
      2
    ],
    "pass": true,
    "lhs": [
      "0"
    ],
    "rhs": [
      "0"
    ],
    "trees_visited": 3,
    "elapsed_ms": 0
  }
]
"""

COR2_FIRST = ["verify", "--family", "cor2_first", "--m", "2", "--S", "1,2", "--n-max", "2"]
COR1_FIRST_M1 = ["verify", "--family", "cor1_first", "--m", "1", "--n-max", "1"]
PHI_S2 = ["series", "--solver", "phi", "--a", "1", "--b", "2", "--s", "2", "--order", "2"]
COR1_NOTE = "note=cor1_first needs m >= 2, got 1"
PHI_333 = ["series", "--solver", "phi", "--a", "3", "--b", "3", "--s", "3", "--order", "8"]
# [t^n] phi at (a, b, s) = (3, 3, 3), lowest power of x first; solver and closed
# form agree, so each list is both the coefficients and the closed_form.
PHI_333_COEFFS = [
    ["1"],
    ["0", "1"],
    ["0", "3/2", "5"],
    ["0", "3", "45/2", "104/3"],
    ["0", "27/4", "663/8", "1131/4", "836/3"],
    ["0", "81/5", "5679/20", "62943/40", "67679/20", "7315/3"],
    ["0", "81/2", "37521/40", "591507/80", "512083/20", "795813/20", "202895/9"],
    ["0", "729/7", "424521/140", "4414941/140", "86526639/560", "107448017/280", "6505193/14",
     "1949900/9"],
    ["0", "2187/8", "1546209/160", "20208069/160", "520841727/640", "455230713/160",
     "875318269/160", "649476163/120", "19284511/9"],
]
PHI_333_JSON = json.dumps(
    [{"n": n, "coefficients": cs, "closed_form": cs, "match": True}
     for n, cs in enumerate(PHI_333_COEFFS)],
    indent=2,
) + "\n"
COR2_THIRD_M0_ALL = ["verify", "--family", "cor2_third", "--m", "0", "--S", "all", "--n-max", "1"]
# --S all on a full-set family is [1..m]: the empty set at m = 0, so "S" is [], not null.
COR2_THIRD_M0_ALL_JSON = json.dumps(
    [{"family": "cor2_third", "m": 0, "n": n, "S": [], "pass": False, "lhs": None, "rhs": None,
      "trees_visited": 0, "elapsed_ms": 0} for n in (0, 1)],
    indent=2,
) + "\n"


@pytest.mark.parametrize(
    "argv, expected_code, expected",
    [
        (
            COR2_FIRST,
            0,
            "PASS cor2_first m=2 n=0 S={1,2} trees=1 lhs=1 rhs=1\n"
            "PASS cor2_first m=2 n=1 S={1,2} trees=1 lhs=0 rhs=0\n"
            "PASS cor2_first m=2 n=2 S={1,2} trees=3 lhs=0 rhs=0\n"
            "3/3 passed\n",
        ),
        (COR2_FIRST + ["--format", "json"], 0, COR2_FIRST_JSON),
        (
            COR2_FIRST + ["--format", "csv"],
            0,
            "family,m,n,S,pass,lhs,rhs,trees_visited,elapsed_ms\n"
            'cor2_first,2,0,"1,2",true,1,1,1,0\n'
            'cor2_first,2,1,"1,2",true,0,0,1,0\n'
            'cor2_first,2,2,"1,2",true,0,0,3,0\n',
        ),
        (
            COR1_FIRST_M1,
            1,
            f"FAIL cor1_first m=1 n=0 S=- trees=0 lhs=- rhs=- {COR1_NOTE}\n"
            f"FAIL cor1_first m=1 n=1 S=- trees=0 lhs=- rhs=- {COR1_NOTE}\n"
            "0/2 passed\n",
        ),
        (
            COR1_FIRST_M1 + ["--format", "csv"],
            1,
            "family,m,n,S,pass,lhs,rhs,trees_visited,elapsed_ms\n"
            "cor1_first,1,0,,false,,,0,0\n"
            "cor1_first,1,1,,false,,,0,0\n",
        ),
        (
            PHI_S2,
            0,
            "t^0: 1  match=True\nt^1: x  match=True\nt^2: (7/2)x^2 + (1/2)x  match=True\n",
        ),
        (
            PHI_S2 + ["--format", "csv"],
            0,
            "n,coefficients,closed_form,match\n"
            "0,1,1,true\n1,0 1,0 1,true\n2,0 1/2 7/2,0 1/2 7/2,true\n",
        ),
        (
            ["series", "--solver", "omega", "--a", "1", "--b", "1", "--order", "2",
             "--format", "csv"],
            0,
            "n,coefficients,closed_form,match\n"
            "0,1,1,true\n1,0 1,0 1,true\n2,0 1/2 1,0 1/2 1,true\n",
        ),
        (
            ["verify", "--family", "thm1_1_eq1_6", "--m", "3", "--n-max", "4", "--format", "csv"],
            0,
            "family,m,n,S,pass,lhs,rhs,trees_visited,elapsed_ms\n"
            "thm1_1_eq1_6,3,0,,true,1,1,1,0\n"
            "thm1_1_eq1_6,3,1,,true,1 1,1 1,1,0\n"
            "thm1_1_eq1_6,3,2,,true,2 5 3,2 5 3,3,0\n"
            "thm1_1_eq1_6,3,3,,true,14/3 20 82/3 12,14/3 20 82/3 12,12,0\n"
            "thm1_1_eq1_6,3,4,,true,35/3 439/6 493/3 947/6 55,35/3 439/6 493/3 947/6 55,55,0\n",
        ),
        (
            ["verify", "--family", "thm1_2_eq5_1a", "--m", "2", "--S", "1", "--n-max", "4",
             "--format", "csv"],
            0,
            "family,m,n,S,pass,lhs,rhs,trees_visited,elapsed_ms\n"
            "thm1_2_eq5_1a,2,0,1,true,1,1,1,0\n"
            "thm1_2_eq5_1a,2,1,1,true,1 1,1 1,1,0\n"
            "thm1_2_eq5_1a,2,2,1,true,2 5 3,2 5 3,3,0\n"
            "thm1_2_eq5_1a,2,3,1,true,5 62/3 83/3 12,5 62/3 83/3 12,12,0\n"
            "thm1_2_eq5_1a,2,4,1,true,14 163/2 174 323/2 55,14 163/2 174 323/2 55,55,0\n",
        ),
        (
            ["verify", "--family", "duliu_1_2a", "--m", "2", "--n-max", "4", "--format", "csv"],
            0,
            "family,m,n,S,pass,lhs,rhs,trees_visited,elapsed_ms\n"
            "duliu_1_2a,2,0,,true,1,1,1,0\n"
            "duliu_1_2a,2,1,,true,0 1,0 1,1,0\n"
            "duliu_1_2a,2,2,,true,0 -1/2 5/2,0 -1/2 5/2,3,0\n"
            "duliu_1_2a,2,3,,true,0 1/3 -7/2 49/6,0 1/3 -7/2 49/6,12,0\n"
            "duliu_1_2a,2,4,,true,0 -1/4 33/8 -81/4 243/8,0 -1/4 33/8 -81/4 243/8,55,0\n",
        ),
        (
            PHI_333,
            0,
            "t^0: 1  match=True\n"
            "t^1: x  match=True\n"
            "t^2: 5x^2 + (3/2)x  match=True\n"
            "t^3: (104/3)x^3 + (45/2)x^2 + 3x  match=True\n"
            "t^4: (836/3)x^4 + (1131/4)x^3 + (663/8)x^2 + (27/4)x  match=True\n"
            "t^5: (7315/3)x^5 + (67679/20)x^4 + (62943/40)x^3 + (5679/20)x^2 + (81/5)x"
            "  match=True\n"
            "t^6: (202895/9)x^6 + (795813/20)x^5 + (512083/20)x^4 + (591507/80)x^3"
            " + (37521/40)x^2 + (81/2)x  match=True\n"
            "t^7: (1949900/9)x^7 + (6505193/14)x^6 + (107448017/280)x^5 + (86526639/560)x^4"
            " + (4414941/140)x^3 + (424521/140)x^2 + (729/7)x  match=True\n"
            "t^8: (19284511/9)x^8 + (649476163/120)x^7 + (875318269/160)x^6"
            " + (455230713/160)x^5 + (520841727/640)x^4 + (20208069/160)x^3"
            " + (1546209/160)x^2 + (2187/8)x  match=True\n",
        ),
        (PHI_333 + ["--format", "json"], 0, PHI_333_JSON),
        (
            ["series", "--solver", "omega", "--a", "2", "--b", "3", "--order", "8",
             "--format", "csv"],
            0,
            "n,coefficients,closed_form,match\n"
            "0,1,1,true\n"
            "1,0 1,0 1,true\n"
            "2,0 1 2,0 1 2,true\n"
            "3,0 4/3 6 14/3,0 4/3 6 14/3,true\n"
            "4,0 2 89/6 53/2 35/3,0 2 89/6 53/2 35/3,true\n"
            "5,0 16/5 512/15 1528/15 1552/15 91/3,0 16/5 512/15 1528/15 1552/15 91/3,true\n"
            "6,0 16/3 3406/45 9851/30 50357/90 1891/5 728/9,"
            "0 16/3 3406/45 9851/30 50357/90 1891/5 728/9,true\n"
            "7,0 64/7 5744/35 301096/315 249668/105 849946/315 139366/105 1976/9,"
            "0 64/7 5744/35 301096/315 249668/105 849946/315 139366/105 1976/9,true\n"
            "8,0 16 2454/7 163973/63 4398965/504 3649145/252 6022319/504 1142069/252 5434/9,"
            "0 16 2454/7 163973/63 4398965/504 3649145/252 6022319/504 1142069/252 5434/9,true\n",
        ),
        (
            COR2_THIRD_M0_ALL,
            1,
            "FAIL cor2_third m=0 n=0 S={} trees=0 lhs=- rhs=- note=cor2_third needs m >= 1, got 0\n"
            "FAIL cor2_third m=0 n=1 S={} trees=0 lhs=- rhs=- note=cor2_third needs m >= 1, got 0\n"
            "0/2 passed\n",
        ),
        (COR2_THIRD_M0_ALL + ["--format", "json"], 1, COR2_THIRD_M0_ALL_JSON),
    ],
    ids=["cor2_first-text", "cor2_first-json", "cor2_first-csv", "cor1_first-m1-text",
         "cor1_first-m1-csv", "phi-s2-text", "phi-s2-csv", "omega-csv",
         "eq1_6-csv", "eq5_1a-csv", "duliu_1_2a-csv", "phi-333-text", "phi-333-json",
         "omega-23-csv", "cor2_third-m0-all-text", "cor2_third-m0-all-json"],
)
def test_verify_and_series_output_is_pinned(capsys, argv, expected_code, expected):
    assert run(capsys, *argv) == (expected_code, expected, "")


def test_a_spec_that_could_not_run_is_null_in_json_and_unchanged_in_csv(capsys):
    # A zero polynomial prints [] and a report with no value prints null.
    code, out, _ = run(capsys, *COR2_THIRD_M0_ALL, "--format", "json")
    for row in json.loads(out):
        jsonschema.validate(row, REPORT_SCHEMA)
    spec = IdentitySpec("thm1_1_eq1_6", m=2, n=1)
    reports = [VerificationReport(spec, ZERO, ZERO, True, 1, 0.0)]
    reports.append(VerificationReport(spec, None, None, False, 0, 0.0))
    rows = json.loads(render_reports(reports, "json"))
    assert [(row["lhs"], row["rhs"]) for row in rows] == [([], []), (None, None)]
    assert run(capsys, *COR2_THIRD_M0_ALL, "--format", "csv") == (
        1,
        "family,m,n,S,pass,lhs,rhs,trees_visited,elapsed_ms\n"
        "cor2_third,0,0,,false,,,0,0\n"
        "cor2_third,0,1,,false,,,0,0\n",
        "",
    )


def test_hooks_rejects_malformed_code(capsys):
    code, out, err = run(capsys, "hooks", "--arity", "2", "--code", "110")
    assert code == 1
    assert "position 3" in err


@pytest.mark.parametrize("code_text, left", [("1" * 1200 + "0" * 1201, True), ("10" * 3000 + "0", False)],
                         ids=["left-comb-1200", "right-comb-3000"])
def test_hooks_handles_a_deep_tree(capsys, code_text, left):
    # The hook walks keep their own stack, so depth past the recursion limit is fine.
    # A comb's h runs L..1; the other two hooks are h or all 1 by its side.
    code, out, err = run(capsys, "hooks", "--arity", "2", "--code", code_text,
                         "--S", "1", "--format", "json")
    assert (code, err) == (0, "")
    vertices = json.loads(out)["vertices"]
    levels = code_text.count("1")
    h, ones = list(range(levels, 0, -1)), [1] * levels
    assert [v["h"] for v in vertices] == h
    assert [v["hcal"] for v in vertices] == (h if left else ones)
    assert [v["hbb"] for v in vertices] == (ones if left else h)


def test_verify_text(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "thm1_1_eq1_7", "--m", "2", "--n-max", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "5/5 passed"


def test_verify_json_matches_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "thm1_2_eq5_1a", "--m", "2", "--n-max", "3",
        "--S", "all", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4 * 4  # four subsets of [2], n = 0..3
    for row in rows:
        jsonschema.validate(row, REPORT_SCHEMA)
        assert row["pass"] is True
        assert row["elapsed_ms"] == 0
    assert [row["S"] for row in rows[:4]] == [[], [], [], []]
    assert rows[-1]["S"] == [1, 2]


def test_verify_jobs_and_timing(capsys):
    argv = ["verify", "--family", "thm1_2_eq5_1a", "--m", "2", "--S", "all", "--n-max", "4"]
    for fmt in ("text", "json", "csv"):
        parallel = run(capsys, *argv, "--format", fmt, "--jobs", "2")
        assert parallel == run(capsys, *argv, "--format", fmt, "--jobs", "1")
        assert parallel[0] == 0
    for timing, flags in ((True, ["--timing"]), (False, [])):
        code, out, _ = run(capsys, *argv, "--format", "json", *flags)
        rows = json.loads(out)
        assert code == 0 and len(rows) == 4 * 5  # four subsets of [2], n = 0..4
        assert any(row["elapsed_ms"] for row in rows) == timing
        for row in rows:
            jsonschema.validate(row, REPORT_SCHEMA)
            if timing:
                assert type(row["elapsed_ms"]) is float and row["elapsed_ms"] >= 0
            else:
                assert row["elapsed_ms"] == 0


def test_series_valued_reports_render_in_every_format():
    # check_gf_relations reports hold tuples of Polys; json gives one
    # coefficient list per series coefficient, csv joins them with ";".
    series = [check_gf_relations(1, 1, 3), check_gf_relations(2, 0, 2)]
    others = [check_identity(IdentitySpec("thm1_1_eq1_7", m=2, n=3)), check_recurrence_thm1_1(2, 3)]
    reports = series + others
    rows = json.loads(render_reports(reports, "json"))
    for row, report in zip(rows, reports):
        jsonschema.validate(row, REPORT_SCHEMA)
        assert row["lhs"] == coefficient_strings(report.lhs) and row["pass"] is True
    assert rows[0]["lhs"][:3] == [["1"], ["1", "1"], ["3/2", "7/2", "2"]]
    assert rows[0]["rhs"] == rows[0]["lhs"] and len(rows[0]["lhs"]) == 2 * 4
    assert render_reports(others, "json") == json.dumps(rows[2:], indent=2) + "\n"

    cells = list(csv.reader(io.StringIO(render_reports(reports, "csv"))))
    assert cells[0] == REPORT_SCHEMA["required"] and len(cells) == 1 + len(reports)
    assert cells[1][5] == ";".join(" ".join(c) for c in rows[0]["lhs"])
    assert cells[1][5].startswith("1;1 1;3/2 7/2 2;")
    assert cells[3:] == list(csv.reader(io.StringIO(render_reports(others, "csv"))))[1:]

    lines = render_reports(reports, "text").splitlines()
    assert lines[0].startswith("PASS gf_relations m=1 n=3 S={1} trees=13 lhs=[1, x + 1, ")
    assert lines[2:4] == render_reports(others, "text").splitlines()[:2]
    assert lines[-1] == "4/4 passed"


def test_verify_all_subsets_of_a_full_set_family(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "cor2_third", "--m", "2", "--S", "all", "--n-max", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "5/5 passed"
    assert all("S={1,2}" in line for line in lines[:-1])


def test_verify_csv_columns(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "lascoux_1_1", "--n-max", "2",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "family", "m", "n", "S", "pass", "lhs", "rhs", "trees_visited", "elapsed_ms",
    ]
    assert rows[1][0] == "lascoux_1_1" and rows[1][1] == ""
    assert rows[3][5] == rows[3][6]  # lhs equals rhs column-for-column


def test_verify_rejects_bad_usage(capsys):
    for argv in (
        ["verify", "--family", "nope", "--n-max", "2"],
        ["verify", "--family", "thm1_1_eq1_7", "--n-max", "2"],  # missing --m
        ["verify", "--family", "postnikov", "--m", "2", "--n-max", "2"],
        ["verify", "--family", "thm1_1_eq1_7", "--m", "2", "--n-max", "2", "--S", "1"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    ["hooks --arity 2 --code 100 --S 1,1", "verify --family thm1_2_eq5_1a --m 2 --S 2,1,2 --n-max 2"],
)
def test_a_repeated_position_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert "repeated position in " in capsys.readouterr().err


def test_verify_rejects_an_n_max_below_min_n(capsys):
    # postnikov starts at n = 1, so --n-max 0 would leave the grid empty
    with pytest.raises(SystemExit) as err:
        main(["verify", "--family", "postnikov", "--n-max", "0"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "min_n = 1" in captured.err
    assert run(capsys, "verify", "--family", "postnikov", "--n-max", "1")[0] == 0


def test_verify_failure_exit_code(capsys):
    # postnikov with the corrupted grid is not reachable from the CLI, but a
    # bad spec range is: thm1_1 needs m >= 2 and the suite surfaces it
    code, out, _ = run(
        capsys, "verify", "--family", "duliu_1_2a", "--m", "1", "--n-max", "3"
    )
    assert code == 0
    assert "4/4 passed" in out


def test_verify_output_is_deterministic(capsys):
    argv = [
        "verify", "--family", "thm1_1_eq1_6", "--m", "3", "--n-max", "4",
        "--format", "json",
    ]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_series_omega(capsys):
    code, out, _ = run(
        capsys, "series", "--solver", "omega", "--a", "1", "--b", "1", "--order", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.endswith("match=True") for line in lines)
    assert lines[0] == "t^0: 1  match=True"
    assert lines[1].startswith("t^1: x")


def test_series_order_zero(capsys):
    code, out, _ = run(
        capsys, "series", "--solver", "omega", "--a", "2", "--b", "2", "--order", "0"
    )
    assert code == 0 and out == "t^0: 1  match=True\n"


def test_series_phi_s_zero_matches_omega(capsys):
    _, omega_out, _ = run(
        capsys, "series", "--solver", "omega", "--a", "2", "--b", "1", "--order", "4"
    )
    _, phi_out, _ = run(
        capsys, "series", "--solver", "phi", "--a", "2", "--b", "1", "--s", "0",
        "--order", "4",
    )
    assert omega_out == phi_out


def test_series_json(capsys):
    code, out, _ = run(
        capsys, "series", "--solver", "phi", "--a", "1", "--b", "2", "--s", "2",
        "--order", "3", "--format", "json",
    )
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [0, 1, 2, 3]
    assert all(row["match"] for row in rows)
    assert rows[1]["coefficients"] == ["0", "1"]


def test_series_rejects_bad_usage(capsys):
    for argv in (
        ["series", "--solver", "omega", "--a", "0", "--b", "1", "--order", "2"],
        ["series", "--solver", "omega", "--a", "1", "--b", "1", "--s", "1", "--order", "2"],
        ["series", "--solver", "phi", "--a", "1", "--b", "1", "--s", "-1", "--order", "2"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_verify_family_choices_are_the_family_table():
    commands = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    family = next(
        action for action in commands.choices["verify"]._actions if action.dest == "family"
    )
    assert tuple(family.choices) == FAMILIES


# sha256 of stdout, in SWEEP_FORMATS order, for every verify family at n <= 4 (m = 2 where
# the family takes m, every subset S where it takes S) and for both solvers at order 8.  A
# rewrite of the summation or series layers must keep all 75 outputs byte-identical.
SWEEP_FORMATS = ("text", "json", "csv")
SWEEP_SHA256 = {
    "verify --family postnikov --n-max 4": (
        "dde4956e9ff83e4b690839d56f8a924df94085d4089565c93d13759b8f734b62",
        "534d51861e3c99b62b91f5f97db9110d78cc6bd6dcaecacf7ec4c3317eb9c8dd",
        "c5f1ad8d0cfe001ce240c7b9c34f450ce8969ed488b7bcc50996458108b485b3",
    ),
    "verify --family lascoux_1_1 --n-max 4": (
        "c4c1f12d12a1d4efc7f0b31b318836eb68d0bd5b97485a7b03a2f42effd3eee0",
        "c36076b0b00a994dfcb81bb95e67128c11c991fe68d27cd97c1e766ded496c5c",
        "742a934c72e75f5e97d7ae7d1bee069b5efc6c9091fc08055384a8c5adb8f530",
    ),
    "verify --family duliu_1_2a --n-max 4 --m 2": (
        "11ba931263a2d3cab4cc1b45aaff032b35fce7b9b1f65025c2dfb39f1057627d",
        "914332bd516a9fb2dee3a873fda27ef483f02d67dbe89ce712be386f97ee8a14",
        "060f96427d425358cde2a79c00196d91799797c4e3566ce199a420cb206e9dea",
    ),
    "verify --family duliu_1_2b --n-max 4 --m 2": (
        "4bd8e578b48c2eed729748d55c8514d4c5068854fa2c200d26126e6edd60b613",
        "aed7e648abd543418174fbc42d4a51d05fede09fc8f17a1c63f4b3056c6e50d5",
        "9499993ed695cafe19202d1367f12131ea119c7b05a0f0e055979cf5858e5b72",
    ),
    "verify --family forest_1_3a --n-max 4": (
        "9dcaaa15c2fd57d5bf4ca85262d46e4a6045a3f96108dfedd1c0a6579e966337",
        "2d3bd56f69cb3557395c5b7549bac76a2b34cf8aa534d03f517be8770306e68f",
        "4beed014fd09a746ce806be9611b12e4dba8922363c73db3235e7352369197be",
    ),
    "verify --family forest_1_3b --n-max 4": (
        "c8edd44e624a6318f6c5976af8c32c9d1cc45c9a0952157ee38a368a4bd3da2e",
        "3c55192f866aea47b4fd2fdc0f94bd54f6b7d2eb07e69237f213c70c44b10005",
        "a64bdbc9b15d3ea2bb4017a5ece2c194e161fd860f7b80b5d6fb9965bd2c0497",
    ),
    "verify --family thm1_1_eq1_6 --n-max 4 --m 2": (
        "d9829f3bf3de903c0ccf30dd604eee26da871ab1af3d2eef8d9dc2290901d560",
        "c77e8891fd283b2dba5c9592710767c9ae438cf08e2e88dffe23b82f363365e7",
        "dcb7ba7b623ea95a018383305559bf6ba4c6a88db7ff93ed08a4f12b075dee55",
    ),
    "verify --family thm1_1_eq1_7 --n-max 4 --m 2": (
        "ba8fc4adb29c566491e0e90d3f47db316809de497f73a4769b19565ce29c1d4c",
        "e2a9f9b61a3d66ab3584699e094e8aaefd26e9d2043b3a9b9a9c49daf8f41885",
        "f28d8e08c0d02118203665655bc97d00a3079d231802b8dcd7f10c46db966bce",
    ),
    "verify --family thm1_2_eq5_1a --n-max 4 --m 2 --S all": (
        "51212364fe45d6847d009e4d5fb362089d8b57d584e807697d281bfd099f4f0d",
        "7f260a5b4af2e940b52817c1fab1facf526c5237d203df7982f28659b7407d65",
        "bb15575926a09d3df3555bf68c213e356c995925d05e3c384330d99e72a545da",
    ),
    "verify --family thm1_2_eq5_1b --n-max 4 --m 2 --S all": (
        "f3513a0b8e931049735a908720eaead5e68431364da903b90be3b17e197545ed",
        "263aeb7e29e317de8ab7cafdcbb4b883ef0a83cadc7560fe4e964d15cc0fd526",
        "1ad968cf7f7b216331cf46dbfddf83c02f8523a7b350def11e358974ae7dc879",
    ),
    "verify --family cor1_first --n-max 4 --m 2": (
        "099f1d73bbe448d11aaff41745548595d81348abd01f37ece56fda53387ae47b",
        "d90f0854a131446b038c066602a01aa25fc363fd690081e5d29e10c0a8822fb2",
        "a621496fb3792321d81fab70693160bc3fc795286476b16e8989ae74220cb821",
    ),
    "verify --family cor1_second --n-max 4 --m 2": (
        "cd46a42c39a3d7a80996c327bbdffdc921c507e1f3f83408b63bdde470d241ac",
        "25975ddf19258754d14fb5e07607e5dd0725866c24fa4a55f0e3221110de77e6",
        "02dedbb30c162508b58e1e7e8ae5b51c1c1b8597b841ab59224ec413e75ab2cf",
    ),
    "verify --family cor2_first --n-max 4 --m 2 --S all": (
        "f3525d4683a7f63a3225f18202cda8e5dfe89ee65f00d835d33a29a545e616ad",
        "770cb865a777ecea3d2177caa94fa3e03769ca87a20019586ddff9f2ee21d448",
        "74b838955456cb7cc4a04285210930afe58feb06715419d002c9719acf1503b8",
    ),
    "verify --family cor2_second --n-max 4 --m 2 --S all": (
        "17885addcaee98593c2223370eaadf6e7f03b62555dd7eba57a05f8571afe209",
        "c5f320e37cd4ecd59d807df97e018e2b37fc99a34347bad3188bc4388aaca834",
        "de9df3e872efa12c3576cf94ed66e4177b86b5bb62a6a354526c19efa5ee4932",
    ),
    "verify --family cor2_third --n-max 4 --m 2 --S all": (
        "a0db36077ef6d7125bff70a3973a4e264b4e539a223e021f92aa31b755a2d4d1",
        "8f6603869f8c95fd7b2836b49d374b3bcce69119069c984781809c1be4011f2d",
        "913c9adf15684e66676a4e735f2597171ea873c2e6025e8a93da9de694fbb813",
    ),
    "series --solver omega --a 1 --b 1 --order 8": (
        "fcb5e0eb2d60b494448a46c3f6def5e6b79abd6ef0528ee5ad7771e5afd19192",
        "c0d14fedd9dfdc803ae4586a81dbd1ff255d50aa9d2dacbcb6972e163a92c3f4",
        "9443a88aab991a527c5e7230a80285a2978aeee63b7ea8acf44230231320b752",
    ),
    "series --solver phi --a 1 --b 1 --order 8 --s 0": (
        "fcb5e0eb2d60b494448a46c3f6def5e6b79abd6ef0528ee5ad7771e5afd19192",
        "c0d14fedd9dfdc803ae4586a81dbd1ff255d50aa9d2dacbcb6972e163a92c3f4",
        "9443a88aab991a527c5e7230a80285a2978aeee63b7ea8acf44230231320b752",
    ),
    "series --solver phi --a 1 --b 1 --order 8 --s 1": (
        "1ebe828cda1c03f09dea56017fbcc7aac72b0c656668eaa62f5e19600a621a36",
        "91e1a328c005c9b492473a9fc33bfaec1a7eea87a8be84ae082425997fb4535e",
        "955455bb46c5081f8fef09bb1ac27841c6715a611dace915d9aca639d7a98901",
    ),
    "series --solver phi --a 1 --b 1 --order 8 --s 2": (
        "845a1fafc6117c64b9ef8a01c72497dd8dbba815311810b251d0eaee02910623",
        "279abb096239ac26e84da8131e8d883f064ca0cdc36e6074a5f1a9433d3259fb",
        "1455ccd128aaad8810266179e4e2cca1afa854656b3b4f80ac3ed1138e423ea6",
    ),
    "series --solver phi --a 1 --b 1 --order 8 --s 3": (
        "0ca1031d62ad129a69763d156b58bb0f534897680225c898c70b90f0c2aafc5c",
        "514655ec61f1799d5f1f4ef79cc58e282d5bfeaa2027ab474167116f598d2f1c",
        "ca3620a7d7f2728bde63ad4bbcbcf8951a96fb6b66c3366a18e6990c58f13d7d",
    ),
    "series --solver omega --a 2 --b 3 --order 8": (
        "47a8f912260a2c5fd36f0febda52802a1d0a68dab2b0b69fd1023ffdc1ecce78",
        "0f2575a8f65e3d903271c30221f11a4efa6d4af081c9b59c0965dcf2f6d5a7a4",
        "9535099694f5e87a0760707c85fa02dc2daf998c9eb51052fdf3682b1827486a",
    ),
    "series --solver phi --a 2 --b 3 --order 8 --s 0": (
        "47a8f912260a2c5fd36f0febda52802a1d0a68dab2b0b69fd1023ffdc1ecce78",
        "0f2575a8f65e3d903271c30221f11a4efa6d4af081c9b59c0965dcf2f6d5a7a4",
        "9535099694f5e87a0760707c85fa02dc2daf998c9eb51052fdf3682b1827486a",
    ),
    "series --solver phi --a 2 --b 3 --order 8 --s 1": (
        "8fbf611fc10241c8ebdfdb019f7391e1a89e07d1d0045c89b640a7c13cd8ac2d",
        "6bef8f9d916049aad9484f1e2abd3c384eb5f8314ea40c1228ce84a71b302fab",
        "c3bde3e0643a80337290a9e1d4b84e4a1f0adf6b3252eb2ddbc275716b80e9bb",
    ),
    "series --solver phi --a 2 --b 3 --order 8 --s 2": (
        "50929ef63ce5c72fdd59c6a5969f20d9314c15c1ec25cdc8dd1bd7d5c1c03b73",
        "aebd61a51532f4745b1053fe764d5f810709cebe5f7d17a6e65239cacae2365a",
        "cd5d482c38af2d04e61df91a9901e059fb7cbdbd973e5b9ee0a2a97a3c277b6b",
    ),
    "series --solver phi --a 2 --b 3 --order 8 --s 3": (
        "22260cfe0eb136faee151c15dc77879d237f3e6d51616c965ce887e56eac32ae",
        "05635211e77aa30feed03efa13fbee57c4b33f4bdb60483828556292886b92da",
        "ef6c3fc6f9f2b1dcb0614f755b0a3356b52b618dd2a06661751b0b67fc04b7b0",
    ),
}


@pytest.mark.parametrize("fmt", SWEEP_FORMATS)
@pytest.mark.parametrize("case", list(SWEEP_SHA256))
def test_output_sweep_is_byte_identical(capsys, case, fmt):
    code, out, err = run(capsys, *case.split(), "--format", fmt)
    digest = SWEEP_SHA256[case][SWEEP_FORMATS.index(fmt)]
    assert (code, err, hashlib.sha256(out.encode()).hexdigest()) == (0, "", digest)

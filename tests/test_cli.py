"""Command line behavior: flags, formats, exit codes, schema conformance."""

import argparse
import csv
import io
import json

import jsonschema
import pytest

from hooktrees.cli import REPORT_SCHEMA, _build_parser, main
from hooktrees.identities import FAMILIES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--arity", "2", "--internal", "3")
    assert code == 0 and out == "5\n"
    code, out, _ = run(capsys, "count", "--arity", "3", "--internal", "0")
    assert code == 0 and out == "1\n"


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
    ],
    ids=["cor2_first-text", "cor2_first-json", "cor2_first-csv", "cor1_first-m1-text",
         "cor1_first-m1-csv", "phi-s2-text", "phi-s2-csv", "omega-csv",
         "eq1_6-csv", "eq5_1a-csv", "duliu_1_2a-csv", "phi-333-text", "phi-333-json",
         "omega-23-csv"],
)
def test_verify_and_series_output_is_pinned(capsys, argv, expected_code, expected):
    assert run(capsys, *argv) == (expected_code, expected, "")


def test_hooks_rejects_malformed_code(capsys):
    code, out, err = run(capsys, "hooks", "--arity", "2", "--code", "110")
    assert code == 1
    assert "position 3" in err


def test_hooks_reports_a_too_deep_tree(capsys):
    code_text = "1" * 1200 + "0" * 1201
    code, out, err = run(capsys, "hooks", "--arity", "2", "--code", code_text)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "too deep for the hook walks" in err


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

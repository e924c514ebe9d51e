import json

import pytest

from mdreps.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_case_ok(capsys):
    code, out = run(capsys, "verify", "--case", "case2", "--n", "3")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["ok"] and len(blob["reports"]) == 8


def test_verify_case1_level2(capsys):
    code, out = run(capsys, "verify", "--case", "case1", "--n", "2")
    assert code == EXIT_OK and json.loads(out)["ok"]


def test_verify_failure_from_matrix_files(tmp_path, capsys):
    from mdreps.catalog import flip_matrix, antislash_matrix
    rpath = tmp_path / "R.json"
    spath = tmp_path / "S.json"
    rpath.write_text(json.dumps(flip_matrix().to_json()))
    bad = antislash_matrix().copy()
    bad.rows[0][0] = bad.rows[1][1]  # make it fail involutivity/YBE mix
    from mdreps.scalar import rf
    bad.rows[0][3] = rf(2)
    spath.write_text(json.dumps(bad.to_json()))
    code, out = run(capsys, "verify", "--R", str(rpath), "--S", str(spath),
                    "--n", "3")
    assert code == EXIT_MATH_FAIL
    blob = json.loads(out)
    assert not blob["ok"]
    assert any(r["witness"] is not None for r in blob["reports"]
               if not r["ok"])


def test_usage_errors(capsys):
    code, _ = run(capsys, "verify", "--n", "3")
    assert code == EXIT_USAGE
    code, _ = run(capsys, "verify", "--R", "/nonexistent.json", "--S",
                  "/nonexistent.json")
    assert code == EXIT_USAGE


def test_catalog_list_and_make(capsys):
    code, out = run(capsys, "catalog", "list")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert "case2" in blob["md_cases"]
    code, out = run(capsys, "catalog", "make", "a-glue", "--params", "p=2")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["N"] == 2 and ["11", "22"] == blob["entries"][1][:2]
    code, out = run(capsys, "catalog", "make", "case2", "--params", "p=2,q=5")
    assert code == EXIT_OK
    assert "R" in json.loads(out)


def test_analyze_reports_summands(capsys):
    code, out = run(capsys, "analyze", "--case", "a-glue", "--n", "3",
                    "--at", "p=2,q=5")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert sorted(s["dim"] for s in blob["summands"]) == [4, 4]
    assert blob["class"] == "c"


def test_analyze_deterministic(capsys):
    _, out1 = run(capsys, "--seed", "3", "analyze", "--case", "a-glue",
                  "--n", "3", "--at", "p=2,q=5")
    _, out2 = run(capsys, "--seed", "3", "analyze", "--case", "a-glue",
                  "--n", "3", "--at", "p=2,q=5")
    assert out1 == out2


def test_irreps_char(capsys):
    code, out = run(capsys, "irreps", "--n", "3", "--char", "a,a^-1,a",
                    "--tau", "1")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["dim"] == 2 and blob["stabilizer_order"] == 3
    code, out = run(capsys, "irreps", "--n", "3", "--dims", "2")
    assert code == EXIT_OK
    blob = json.loads(out)
    fams = [e for e in blob["entries"] if e["kind"] == "family"]
    assert len(fams) == 1 and fams[0]["tau_choices"] == 3


def test_ccwg_commands(tmp_path, capsys):
    code, out = run(capsys, "ccwg", "order", "--N", "3", "--n", "4")
    assert code == EXIT_OK
    assert json.loads(out)["order"][:6] == ["400", "310", "301", "220",
                                            "211", "202"]
    from mdreps.catalog import make_md_pair
    pr = make_md_pair("case2", p=2, q=5, check=False)
    mpath = tmp_path / "M.json"
    mpath.write_text(json.dumps(pr.R.to_json()))
    code, out = run(capsys, "ccwg", "check", str(mpath))
    assert code == EXIT_OK and json.loads(out)["ccwg"]
    code, out = run(capsys, "ccwg", "project", str(mpath), "--part", "glue")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert len(blob["entries"]) == 1 and blob["entries"][0][:2] == ["11", "22"]
    from mdreps.catalog import antislash_matrix
    apath = tmp_path / "A.json"
    apath.write_text(json.dumps(antislash_matrix().to_json()))
    code, out = run(capsys, "ccwg", "check", str(apath))
    assert code == EXIT_MATH_FAIL


def test_mdd_commands(capsys):
    code, out = run(capsys, "mdd", "normal", "--word", "s1 r2 r1 s2 r1 r2",
                    "--n", "3")
    assert code == EXIT_OK
    blob = json.loads(out)
    assert blob["exponents"] == {} and blob["permutation"] == [1, 2, 3]
    code, out = run(capsys, "mdd", "eval", "--word", "r1 s1", "--case",
                    "case2", "--at", "p=2,q=5", "--n", "2")
    assert code == EXIT_OK
    blob = json.loads(out)
    # X = RS has the single glue entry at (11, 22)
    glue = [e for e in blob["entries"] if e[0] == "11" and e[1] == "22"]
    assert len(glue) == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--case", "a-glue", "--n", "3"],
    ["irreps", "--n", "3", "--char", "a,b"],
    ["mdd", "normal", "--word", "x1", "--n", "3"],
    ["ccwg", "order", "--N", "0", "--n", "2"],
    ["irreps", "--n", "3", "--char", "a,,b"],
    ["mdd", "normal", "--word", "r3", "--n", "3"],
    ["mdd", "eval", "--word", "s0", "--case", "case2", "--n", "2"],
    ["analyze", "--case", "a-glue", "--n", "1", "--at", "p=2,q=5"],
    ["irreps", "--n", "3", "--char", "a,a^-1,a", "--tau", "-1"],
])
def test_bad_input_exits_2_without_traceback(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_branch_ambiguity_names_its_polynomial(capsys):
    assert main(["analyze", "--case", "a-glue", "--n", "3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "depends on" in err and "q" in err and "pass --at" in err

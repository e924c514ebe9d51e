import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdreps.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, main
from mdreps.matrix import ExactMatrix
from mdreps.scalar import rf


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
    ["irreps", "--n", "3", "--char", "a,wx,b"],
    ["irreps", "--n", "3", "--char", "a,a^x,b"],
    ["irreps", "--n", "3", "--char", "a,1/0,b"],
    ["irreps", "--n", "3", "--char", "a,0^-1,b"],
    ["catalog", "make", "f-glue", "--params", "t=1/2"],
    ["catalog", "make", "P", "--params", "=0"],
    ["verify", "--case", "case2", "--params", "check=0"],
    ["verify", "--case", "case2", "--params", "pp=2", "--n", "2"],
    ["catalog", "make", "case2", "--params", "check=0"],
    ["catalog", "make", "f-glue", "--params", "check=0"],
    ["catalog", "make", "case6a", "--params", "eps=-1,z=1,x=0,t=2"],
    ["analyze", "--case", "case2", "--n", "2", "--params", "check=1"],
    ["verify", "--case", "case1", "--params", "t=1/0"],
    ["analyze", "--case", "a-glue", "--n", "2", "--at", "p=1/0,q=2"],
    ["analyze", "--case", "a-glue", "--params", "zz=1", "--n", "2", "--at",
     "p=2,q=5"],
    ["mdd", "eval", "--word", "r1", "--case", "case2", "--n", "2", "--at",
     "p=x"],
])
def test_bad_input_exits_2_without_traceback(capsys, argv):
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert err.count("\n") == 1


def test_params_name_the_case_does_not_read(capsys):
    argv = ["verify", "--case", "case2", "--params", "pp=2", "--n", "2"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == "error: case2 does not take pp\n"


@pytest.mark.parametrize("case,at,err", [
    ("case4", "p=0", "error: constraint vanishes: p\n"),
    ("antislash", "t=1", "error: constraint vanishes: t + -1\n"),
])
def test_analyze_at_a_rejected_point(capsys, case, at, err):
    # analyze evaluates the 4x4 pair before embedding it: a point that
    # zeroes a declared constraint still exits 2 with the constraint named
    assert main(["analyze", "--case", case, "--n", "3", "--at", at]) == \
        EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == err and captured.out == ""


def test_antislash_analyze_keeps_t_symbolic_until_at(capsys):
    code, out = run(capsys, "analyze", "--case", "antislash", "--n", "2",
                    "--at", "t=3")
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["class"] == "b"
    assert sorted(s["dim"] for s in rep["summands"]) == [1, 1, 2]


def test_analysis_families_read_params(capsys):
    code, out = run(capsys, "analyze", "--case", "antislash", "--params",
                    "t=5", "--n", "2")
    assert code == EXIT_OK
    assert json.loads(out)["provenance"]["case"] == "antislash"
    assert main(["analyze", "--case", "f-glue", "--params", "p=2,zz=1",
                 "--n", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: f-glue does not take zz\n"


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv,code", [
    (["ccwg", "order", "--N", "4", "--n", "3"], EXIT_OK),
    (["ccwg", "check", "M.json"], EXIT_MATH_FAIL),
])
def test_closed_stdout_keeps_the_verdict(monkeypatch, tmp_path, capsys, argv,
                                         code):
    from mdreps.catalog import antislash_matrix
    (tmp_path / "M.json").write_text(json.dumps(antislash_matrix().to_json()))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    assert main(argv) == code
    assert not isinstance(sys.stdout, _ClosedPipe)
    print("after the pipe closed")  # goes to the null device
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["wx", "a^x", "1/0", "0^-1", "w5"])
def test_bad_char_entry_is_named(capsys, entry):
    argv = ["irreps", "--n", "3", "--char", "a,%s,b" % entry]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(
        "error: bad --char entry %r" % (entry,))


def test_ccwg_project_of_a_non_square_matrix_exits_2(capsys, tmp_path):
    M = ExactMatrix.zeros(2, 2, 1)
    M.rows[0][0] = rf(1)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(M.to_json()))
    assert main(["ccwg", "project", str(path), "--part", "glue"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ccwg project needs a square matrix") \
        and "Traceback" not in err


def test_branch_ambiguity_names_its_polynomial(capsys):
    assert main(["analyze", "--case", "a-glue", "--n", "3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "depends on" in err and "q" in err and "pass --at" in err


def _flip_json():
    from mdreps.catalog import flip_matrix
    return flip_matrix().to_json()


def _with(entry_index, position, value):
    obj = _flip_json()
    obj["entries"][entry_index][position] = value
    return obj


_ONE = {"num": [[{"q": "1"}, {}]], "den": [[{"q": "1"}, {}]]}
_MALFORMED_MATRICES = {
    "letter beyond N": _with(0, 0, "13"),
    "letter 0": _with(0, 0, "10"),
    "short word": _with(0, 1, "1"),
    "long word": _with(0, 1, "111"),
    "entry not an RF object": _with(0, 2, "1"),
    "coefficient not an object": _with(0, 2, {"num": [["x", {}]],
                                              "den": _ONE["den"]}),
    "zero denominator": _with(0, 2, {"num": _ONE["num"], "den": []}),
    "rational 1/0": _with(0, 2, {"num": [[{"q": "1/0"}, {}]],
                                 "den": _ONE["den"]}),
    "exponent form": _with(0, 2, {"num": [[{"q": "1e999999999"}, {}]],
                                  "den": _ONE["den"]}),
    "zero exponent": _with(0, 2, {"num": [[{"q": "1"}, {"p": 0}]],
                                  "den": _ONE["den"]}),
    "cyclotomic order 5": _with(0, 2, {"num": [[{"cyc": {"m": 5,
                                                         "coeffs": ["0", "1"]}},
                                                {}]], "den": _ONE["den"]}),
    "entry not a triple": dict(_flip_json(), entries=[["11", "11"]]),
    "N a string": dict(_flip_json(), N="2"),
    "N of 10": dict(_flip_json(), N=10),
    "negative level": dict(_flip_json(), rows_level=-1),
    "level too high": dict(_flip_json(), cols_level=21),
    "too many entries": dict(_flip_json(), N=2, rows_level=20,
                             cols_level=20, entries=[]),
    "no entries": {"N": 2, "rows_level": 2, "cols_level": 2},
    "not an object": [1, 2],
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_MATRICES))
def test_malformed_matrix_file_exits_2(tmp_path, capsys, name):
    bad, ok = tmp_path / "bad.json", tmp_path / "ok.json"
    bad.write_text(json.dumps(_MALFORMED_MATRICES[name]))
    ok.write_text(json.dumps(_flip_json()))
    for argv in (["verify", "--R", str(bad), "--S", str(ok), "--n", "3"],
                 ["ccwg", "check", str(bad)]):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_malformed_entry_is_named():
    with pytest.raises(ValueError, match="matrix entry 0: word '10' is not "
                                         "2 letters in 1..2"):
        ExactMatrix.from_json(_with(0, 0, "10"))
    with pytest.raises(ValueError, match="matrix entry 0: bad coefficient"):
        ExactMatrix.from_json(_with(0, 2, {"num": [["x", {}]],
                                           "den": _ONE["den"]}))


# ---------------------------------------------------------------------------
# the exit-code contract over the argv grammar

_CASE_NAMES = st.sampled_from(["case1", "case2", "case6a", "a-glue",
                               "f-glue", "antislash", "trivial", "nope"])
_SMALL_N = st.sampled_from(["-1", "0", "1", "2", "3", "x"])
_VALUES = st.sampled_from(["2", "5", "-1", "1/2", "0", "1/0", "x", ""])
_ASSIGNMENTS = st.lists(st.tuples(st.sampled_from(["p", "q", "t", "eps",
                                                   "sign", ""]), _VALUES),
                        max_size=3).map(
    lambda kv: ",".join("%s=%s" % item for item in kv))
_CHARS = st.lists(st.sampled_from(["1", "-1", "a", "a^-1", "w3", "w5", "0",
                                   "1/0", ""]), min_size=1, max_size=4).map(
    ",".join)
_WORDS = st.lists(st.sampled_from(["r1", "s1", "r2", "s2^-1", "x12", "x21",
                                   "x13", "r0", "q"]), min_size=1,
                  max_size=3).map(" ".join)
_JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 12),
                         st.sampled_from(["", "1", "12", "21", "13", "10",
                                          "111", "x", "1/0", "1e9"]))
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.sampled_from(["N", "rows_level", "cols_level",
                                     "entries", "num", "den", "q", "cyc",
                                     "m", "coeffs", "p"]), inner,
                    max_size=4)), max_leaves=12)


@st.composite
def _matrix_files(draw):
    """A valid matrix, one with a field or entry replaced, or any JSON."""
    from mdreps.catalog import antislash_matrix
    obj = draw(st.sampled_from([_flip_json, lambda: antislash_matrix()
                                .to_json()]))()
    kind = draw(st.sampled_from(["valid", "field", "entry", "any"]))
    if kind == "field":
        obj[draw(st.sampled_from(sorted(obj)))] = draw(_JSON)
    elif kind == "entry":
        entry = obj["entries"][draw(st.integers(0, 2))]
        entry[draw(st.integers(0, 2))] = draw(_JSON)
    elif kind == "any":
        obj = draw(_JSON)
    return obj


@st.composite
def _argvs(draw, paths):
    """(argv, matrix files) from the CLI grammar, with bad values mixed in."""
    files = [draw(_matrix_files()) for _ in paths]
    opt = lambda flag, values: ([flag, draw(values)]  # noqa: E731
                                if draw(st.booleans()) else [])
    command = draw(st.sampled_from(["verify", "catalog", "analyze", "irreps",
                                    "ccwg", "mdd"]))
    if command == "verify":
        if draw(st.booleans()):
            argv = ["verify", "--case", draw(_CASE_NAMES)]
            argv += opt("--params", _ASSIGNMENTS)
        else:
            argv = ["verify", "--R", paths[0], "--S", paths[1]]
        argv += opt("--n", _SMALL_N) + opt("--relations", st.sampled_from(
            ["MixedDoubles", "Braid", "nope"]))
    elif command == "catalog":
        argv = ["catalog", draw(st.sampled_from(["list", "make", "nope"]))]
        argv += [draw(st.sampled_from(["f-glue", "P", "case2", "N'", "x"]))]
        argv += opt("--params", _ASSIGNMENTS)
    elif command == "analyze":
        argv = ["analyze", "--case", draw(_CASE_NAMES),
                "--n", draw(st.sampled_from(["1", "2", "3"]))]
        argv += opt("--at", _ASSIGNMENTS) + opt("--params", _ASSIGNMENTS)
    elif command == "irreps":
        argv = ["irreps", "--n", draw(_SMALL_N)]
        argv += opt("--char", _CHARS) + opt("--tau", _SMALL_N)
        argv += opt("--dims", st.sampled_from(["1", "2", "3", "0", "x"]))
    elif command == "ccwg":
        argv = ["ccwg", draw(st.sampled_from(["check", "project", "order"])),
                paths[0]]
        argv += opt("--part", st.sampled_from(["cc", "glue"]))
        argv += opt("--N", _SMALL_N) + opt("--n", _SMALL_N)
    else:
        argv = ["mdd", draw(st.sampled_from(["normal", "eval"])), "--word",
                draw(_WORDS), "--n", draw(st.sampled_from(["2", "3"]))]
        if draw(st.booleans()):
            argv += ["--case", draw(_CASE_NAMES)]
        else:
            argv += ["--R", paths[0], "--S", paths[1]]
        argv += opt("--at", _ASSIGNMENTS) + opt("--params", _ASSIGNMENTS)
    return opt("--seed", st.sampled_from(["0", "3", "x"])) + argv, files


def test_exit_code_contract_over_the_argv_grammar(tmp_path):
    paths = [str(tmp_path / "R.json"), str(tmp_path / "S.json")]

    @given(_argvs(paths))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def check(case):
        argv, files = case
        for path, obj in zip(paths, files):
            with open(path, "w") as fh:
                json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (EXIT_OK, EXIT_MATH_FAIL, EXIT_USAGE), argv
        if code == EXIT_USAGE and err.getvalue().startswith("error: "):
            assert err.getvalue().count("\n") == 1, argv

    check()

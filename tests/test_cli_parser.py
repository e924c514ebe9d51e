"""The lazily built CLI parser against the eager one in eager_parser.py.

Needs only the standard library, so it also runs as a script on an
interpreter without pytest:

    PYTHONPATH=src python tests/test_cli_parser.py
"""

import contextlib
import io
import os
import shlex
from unittest import mock

import eager_parser
from mdreps import cli

COMMANDS = ("verify", "catalog", "analyze", "irreps", "ccwg", "mdd")

# help and usage errors: the top level, and each command with a required
# argument missing, a bad value or an unknown option
USAGE_ARGVS = [[], ["--help"], ["-h"], ["bogus"], ["--seed", "x"],
               ["--seed"], ["--seed", "3", "bogus", "--help"]]
USAGE_ARGVS += [[cmd, "--help"] for cmd in COMMANDS]
USAGE_ARGVS += [["verify", "--bogus"], ["verify", "--n", "x"],
                ["catalog"], ["catalog", "nope"],
                ["catalog", "list", "--bogus"],
                ["analyze"], ["analyze", "--case", "case2", "--bogus"],
                ["irreps"], ["irreps", "--n", "3", "--bogus"],
                ["irreps", "--n", "3", "--tau", "x"],
                ["ccwg"], ["ccwg", "order", "--bogus"],
                ["ccwg", "check", "--part", "x"],
                ["mdd"], ["mdd", "normal"],
                ["mdd", "eval", "--word", "r1", "--bogus"]]


def readme_argvs():
    """The command lines of the README's 'Command line' section."""
    path = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(path) as fh:
        section = fh.read().split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)[1:]
            for line in section.splitlines() if line.startswith("mdreps ")]


def assert_same_parse(argv):
    lazy = eager_parser.parse(cli.build_parser, argv)
    assert lazy == eager_parser.parse(eager_parser.build_parser, argv), argv
    return lazy


def test_help_and_usage_errors_match_the_eager_parser():
    for width in ("80", "44"):
        # help wraps to the terminal width
        with mock.patch.dict(os.environ, {"COLUMNS": width}):
            for argv in USAGE_ARGVS:
                code, out, err, _ = assert_same_parse(argv)
                assert code in (0, 2) and out + err, argv


def test_readme_lines_parse_as_with_the_eager_parser():
    argvs = readme_argvs()
    assert len(argvs) == 12 and {a[0] for a in argvs} == set(COMMANDS)
    for argv in argvs + [["--se", "3", "catalog", "list"]]:
        code, out, err, args = assert_same_parse(argv)
        assert (code, out, err) == (0, "", "") and args["command"] in argv


def builds(argv):
    """The progs of the sub-parsers that main(argv) builds."""
    with mock.patch.object(cli._Command, "_build", autospec=True,
                           side_effect=cli._Command._build) as build, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    return [c.args[0].prog for c in build.call_args_list]


def test_a_call_builds_only_the_named_command():
    for argv in (["verify"], ["catalog", "list"], ["analyze"],
                 ["irreps", "--n", "3", "--dims", "0"], ["ccwg", "order"],
                 ["mdd", "normal", "--word", "r1", "--n", "2"],
                 ["--seed", "3", "ccwg", "order", "--help"]):
        command = [a for a in argv if a in COMMANDS][0]
        assert builds(argv) == ["mdreps " + command], argv
    for argv in (["--help"], ["bogus"], [], ["--seed", "x", "verify"]):
        assert builds(argv) == [], argv


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)

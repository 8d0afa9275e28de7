"""photonpost.cli reads its argv the way argparse reads it.

_read_argv reads the shape every job passes (a command, then "--option
value" pairs spelt in full) itself, and hands every other argv to an
argparse parser.  The reference is the argparse parser the CLI once built,
kept as oracles.cli_parser.  For every argv below the reader and the
parser must both accept it with the same (command, config, out, seed), or
both exit with the same code; a refusal (exit 2) must end on the same
"photonpost: error:" line.  One argparse reading is not kept: argparse
3.11 reads "--opt=--" as an empty list, which the reader refuses as
argparse refuses "--opt --".  Those argv are listed apart, and the
generated argv leave them out, as they leave out an ambiguous "--=value"
after -h.

The comparisons follow argparse's reading as of Python 3.10-3.12.  Python
3.13 reads "-hx" as -h and lists the choices of an invalid command
unquoted, so they are skipped there.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cli_parser
from photonpost.cli import COMMANDS, _read_argv

AS_ARGPARSE_READ = pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse changed its reading in Python 3.13"
)

USAGE = "usage: photonpost [-h] COMMAND --config PATH --out PATH [--seed N] [--threads N]\n"


def _outcome(read, argv):
    """(("read", tuple) or ("exit", code), stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = ("read", read(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _oracle(argv):
    args = cli_parser().parse_args(argv)
    return args.command, args.config, args.out, args.seed


def _assert_read_as_argparse_read(argv):
    theirs, _, their_err = _outcome(_oracle, argv)
    ours, _, our_err = _outcome(_read_argv, argv)
    assert ours == theirs, argv
    if ours == ("exit", 2):
        assert our_err.startswith(USAGE), argv
        assert our_err.splitlines()[-1] == their_err.splitlines()[-1], argv
    return ours


BASE = ["--config", "c.json", "--out", "o.csv"]

ACCEPTED = {
    "plain": ["simulate", *BASE],
    "any-order": ["--out", "o.csv", "--seed", "5", "search", "--config", "c.json"],
    "equals": ["nogo-verify", "--config=c.json", "--out=o.csv", "--seed=3"],
    "empty-value": ["simulate", "--config=", "--out", ""],
    "prefixes": ["chain-sweep", "--c", "c.json", "--o=o.csv", "--se", "3", "--thr=2"],
    "repeated": ["exp-sweep", "--config", "a.json", *BASE, "--seed", "1", "--s", "2"],
    "negative-seed": ["search", *BASE, "--seed", "-1"],
    "negative-values": ["pure-landscape", "--config", "-1", "--out", "-2.5"],
    "threads": ["pure-landscape", *BASE, "--threads", "4"],
    "dashes-before-command": [*BASE, "--", "simulate"],
    "dashes-after-command": [*BASE, "simulate", "--"],
    "value-with-space": ["simulate", "--config", "-a b", "--out", "o.csv"],
}

REFUSED = {
    "empty": [],
    "no-command": BASE,
    "unknown-command": ["bogus", *BASE],
    "no-config": ["simulate", "--out", "o.csv"],
    "no-out": ["simulate", "--config", "c.json"],
    "unknown-option": ["simulate", *BASE, "--bogus"],
    "unknown-short-option": ["simulate", *BASE, "-c"],
    "missing-value": ["simulate", *BASE, "--seed"],
    "option-as-value": ["simulate", "--config", "--out", "o.csv"],
    "dashes-as-value": ["simulate", "--config", "--", "c.json", "--out", "o.csv"],
    "bad-seed": ["search", *BASE, "--seed", "x"],
    "float-seed": ["search", *BASE, "--seed", "-1.5"],
    "bad-threads": ["search", *BASE, "--threads", "two"],
    "extra-positional": ["simulate", *BASE, "extra"],
    "two-commands": ["simulate", "search", *BASE],
    "options-after-dashes": ["simulate", "--", *BASE],
    "dashes-apart-from-command": ["simulate", *BASE, "--"],
    "help-with-value": ["--help=x", "simulate", *BASE],
    "bundled-unknown-flag": ["-hx"],
    "ambiguous": ["simulate", *BASE, "--=x"],
    "bad-value-before-help": ["simulate", "--seed", "x", "--help"],
    "ambiguous-after-help": ["-h", "--=x"],
}

# option -> an argv that argparse 3.11 reads with that option an empty list
READ_AS_EMPTY_LIST = {
    "config": ["simulate", "--config=--", "--out", "o.csv"],
    "out": ["simulate", "--config", "c.json", "--out=--"],
}


@AS_ARGPARSE_READ
@pytest.mark.parametrize("argv", ACCEPTED.values(), ids=ACCEPTED)
def test_reader_accepts_what_argparse_accepted(argv):
    assert _assert_read_as_argparse_read(argv)[0] == "read"


@AS_ARGPARSE_READ
@pytest.mark.parametrize("argv", REFUSED.values(), ids=REFUSED)
def test_reader_refuses_what_argparse_refused(argv):
    assert _assert_read_as_argparse_read(argv) == ("exit", 2)


@AS_ARGPARSE_READ
@pytest.mark.parametrize("option, argv", READ_AS_EMPTY_LIST.items(), ids=READ_AS_EMPTY_LIST)
def test_reader_refuses_what_argparse_read_as_an_empty_list(option, argv):
    assert getattr(cli_parser().parse_args(argv), option) == []
    result, out, err = _outcome(_read_argv, argv)
    assert result == ("exit", 2)
    assert out == ""
    assert err == f"{USAGE}photonpost: error: argument --{option}: expected one argument\n"


PATHS = ["c.json", "c.json", "-1", "", "a b", "--out", "--"]
INTS = ["7", "7", "-1", "x", "-2.5", "--"]
# option -> (spellings, values)
OPTIONS = {
    "--config": (["--config", "--c", "--conf"], PATHS),
    "--out": (["--out", "--o", "--ou"], PATHS),
    "--seed": (["--seed", "--s", "--see"], INTS),
    "--threads": (["--threads", "--t", "--thre"], INTS),
}
NOISE = [*COMMANDS, "bogus", "extra", "--", "-", "-1", "-x", "--bogus", "-h", "--help", "--he",
         "--help=x", "-hh", "-hx"]


@st.composite
def argvs(draw):
    """Mostly a command, each option 0-2 times in any spelling, sometimes noise,
    shuffled with each option kept next to its value."""
    groups = [[draw(st.sampled_from([*COMMANDS, "bogus"]))]] if draw(st.integers(0, 3)) else []
    for spellings, values in OPTIONS.values():
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
            spelling, value = draw(st.sampled_from(spellings)), draw(st.sampled_from(values))
            joined = value != "--" and draw(st.booleans())
            groups.append([f"{spelling}={value}"] if joined else [spelling, value])
    if not draw(st.integers(0, 2)):
        groups.append([draw(st.sampled_from(NOISE))])
    return [token for group in draw(st.permutations(groups)) for token in group]


@AS_ARGPARSE_READ
@settings(max_examples=400, deadline=None)
@given(argvs())
def test_reader_matches_argparse_on_generated_argv(argv):
    _assert_read_as_argparse_read(argv)


@pytest.mark.parametrize("flag", ["-h", "--help", "--he", "-hh"])
def test_help_exits_0_naming_every_command_and_option(flag):
    """The help is printed before the tokens after it are read."""
    result, out, err = _outcome(_read_argv, [flag, "bogus"])
    assert result == ("exit", 0)
    assert err == ""
    assert out.startswith(USAGE)
    for name in [*COMMANDS, "-h", "--help", "--config", "--out", "--seed", "--threads"]:
        assert name in out

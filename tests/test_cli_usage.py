"""The CLI's usage contract, pinned byte for byte.

How a command line is split into options and values, which usage error
wins when several apply, and the exact one-line message and exit code of
each.  These are the behaviours of the click front end the CLI started
with; the parser that replaced it must keep every one of them.
"""

import json

import pytest
from click.testing import CliRunner

from subconverge.cli import main

MODELS = ("'ricker', 'sp3', 'sigmoid-bh', 'adult-juvenile', 'competition', "
          "'competition-swapped', 'threed'")


def run(args):
    return CliRunner().invoke(main, args)


@pytest.mark.parametrize("args,message", [
    ("analyze --bogus 1",
     "No such option '--bogus'. (Did you mean one of: '--b', '--out', "
     "'--s'?)"),
    ("analyze --hlep",
     "No such option '--hlep'. (Did you mean one of: '--help', '--l', "
     "'--p'?)"),
    # No prefix abbreviations: --mod is not --model.
    ("analyze --mod sp3",
     "No such option '--mod'. (Did you mean one of: '--d', '--lambda', "
     "'--model'?)"),
    ("threshold --no-json", "No such option '--no-json'. Did you mean "
                            "'--json'?"),
    ("--bogus", "No such option '--bogus'."),
    ("--hel", "No such option '--hel'. Did you mean '--help'?"),
    ("-- --bogus", "No such option '--bogus'."),
    ("analyze -h", "No such option '-h'."),
    ("analyze -1", "No such option '-1'."),
    ("analyze --k", "Option '--k' requires an argument."),
    ("analyze --k 1 --k", "Option '--k' requires an argument."),
    ("analyze --out", "Option '--out' requires an argument."),
    ("threshold --json=1", "Option '--json' does not take a value."),
    ("threshold --json --json=", "Option '--json' does not take a value."),
    ("analyze --k x", "Invalid value for '--k': 'x' is not a valid "
                      "integer."),
    ("analyze --k=", "Invalid value for '--k': '' is not a valid integer."),
    ("analyze --tol x", "Invalid value for '--tol': 'x' is not a valid "
                        "float."),
    ("analyze --model nosuch", "Invalid value for '--model': 'nosuch' is "
                               "not one of %s." % MODELS),
    ("simulate --format xml", "Invalid value for '--format': 'xml' is not "
                              "one of 'csv', 'json'."),
    # Values are converted in command-line order.
    ("analyze --steps x --k y", "Invalid value for '--steps': 'x' is not a "
                                "valid integer."),
    ("analyze --k y --steps x", "Invalid value for '--k': 'y' is not a "
                                "valid integer."),
    # A parse error comes before any conversion, a conversion before an
    # extra argument.
    ("analyze --k x --bogus",
     "No such option '--bogus'. (Did you mean one of: '--b', '--out', "
     "'--s'?)"),
    ("analyze x --k y", "Invalid value for '--k': 'y' is not a valid "
                        "integer."),
    ("models x", "Got unexpected extra argument (x)"),
    ("analyze --model sp3 x y", "Got unexpected extra arguments (x y)"),
    ("analyze -- --k 1", "Got unexpected extra arguments (--k 1)"),
    ("analyze -", "Got unexpected extra argument (-)"),
    ("nosuch", "No such command 'nosuch'."),
    ("analyse --model sp3", "No such command 'analyse'. Did you mean "
                            "'analyze'?"),
    ("-- -x", "No such option '-x'."),
    ("-- --", "No such command '--'."),
    ("--", "Missing command."),
])
def test_usage_error_message(args, message):
    res = run(args.split())
    assert (res.exit_code, res.stdout, res.stderr) == \
        (2, "", "error: %s\n" % message)


def _params(args):
    res = run(["simulate", "--steps", "0", "--format", "json"] + args)
    assert res.exit_code == 0, res.stderr
    return json.loads(res.stdout)


def test_attached_values_equal_separate_ones():
    assert run(["simulate", "--model=sp3", "--k=2", "--steps=4"]).stdout == \
        run(["simulate", "--model", "sp3", "--k", "2", "--steps",
             "4"]).stdout


def test_a_repeated_option_keeps_its_last_value():
    assert _params(["--model", "ricker", "--lambda", "2",
                    "--lambda=3"])["params"] == {"lambda": 3.0}


def test_a_value_may_start_with_a_dash():
    res = run(["analyze", "--model", "sp3", "--init", "-1,2"])
    assert (res.exit_code, res.stderr) == \
        (2, "error: need 3 initial values, got 2\n")
    res = run(["analyze", "--model", "sp3", "--init", "-1,2,3"])
    assert (res.exit_code, res.stderr) == \
        (2, "error: initial values (-1.0, 2.0, 3.0) outside domain\n")
    assert _params(["--model", "ricker", "--a", "-1"])["params"] == \
        {"a": -1.0}


def test_params_are_written_in_command_line_order():
    first = _params(["--model", "ricker", "--lambda", "2", "--a", "1"])
    second = _params(["--a", "1", "--model", "ricker", "--lambda", "2"])
    assert list(first["params"]) == ["lambda", "a"]
    assert list(second["params"]) == ["a", "lambda"]
    # A repeated option keeps the place of its first appearance.
    third = _params(["--model", "ricker", "--a", "1", "--lambda", "2",
                     "--a", "3"])
    assert third["params"] == {"a": 3.0, "lambda": 2.0}
    assert list(third["params"]) == ["a", "lambda"]


@pytest.mark.parametrize("args", [
    ["--help"], ["analyze", "--help"], ["models", "--help"],
    ["--help", "nosuch"], ["analyze", "--k", "x", "--help"],
    ["--", "--help"],
])
def test_help_exits_zero_on_stdout(args):
    res = run(args)
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout.startswith("Usage: ")


def test_a_bare_call_prints_the_help_and_exits_two():
    res = run([])
    assert res.exit_code == 2 and res.stdout == ""
    assert res.stderr.startswith("Usage: ") and "Commands:" in res.stderr
    assert "error:" not in res.stderr


def test_a_command_after_a_double_dash_runs():
    assert run(["--", "models"]).stdout == run(["models"]).stdout

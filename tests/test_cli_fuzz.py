"""A derandomized fuzz of the CLI's exit-code contract.

Each run draws a command, a catalog model and a few of that model's
options, set to values across the doubles' range (and lags 1 to 3), on a
short orbit.  Whatever the input, the run must end with a documented
exit code (0, or 2 to 6), print no traceback, and write strict JSON
wherever JSON was asked for.  The inputs that once ended in a traceback,
or could (a 3D orbit that ends before its fold's x_2), are explicit
examples.
"""

import json

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subconverge import models
from subconverge.cli import main

VALUES = ("1e-300", "1e-30", "1e-5", "0.5", "1", "1.01", "2", "3", "50",
          "1e6", "1e300", "-1", "0")
LAGS = ("1", "2", "3")
OPTIONS = {flag[2:] for flag, *_ in main.commands["analyze"][1]}
COMMANDS = (["simulate"], ["simulate", "--format", "json"], ["analyze"],
            ["threshold"], ["threshold", "--json"], ["fold"])


def _strict(constant):
    raise ValueError("non-finite number %s in JSON output" % constant)


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(COMMANDS))
    name = draw(st.sampled_from(models.MODEL_NAMES))
    keys = sorted(OPTIONS & set(models.REGISTRY[name].params))
    args = command + ["--model", name]
    for key in draw(st.lists(st.sampled_from(keys), unique=True,
                             max_size=4)):
        values = LAGS if key in ("k", "l") else VALUES
        args += ["--" + key, draw(st.sampled_from(values))]
    init = draw(st.lists(st.sampled_from(VALUES), max_size=3))
    if init and command[0] != "threshold":
        args += ["--init", ",".join(init)]
    if command[0] != "threshold":
        args += ["--steps", draw(st.sampled_from(("0", "1", "6", "30")))]
    return args


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(invocations())
@example("threshold --model sigmoid-bh --p 3 --b 1e300".split())
@example("analyze --model sigmoid-bh --k 1 --a 1e300 --b 1e-5 --steps 30"
         .split())
@example("analyze --model competition --delta1 3 --a1 1e-300 --init 0.5,0.5 "
         "--steps 20".split())
@example("analyze --model competition --a1 1e-5 --b2 1 --delta1 1.01 "
         "--init 1,2 --steps 50".split())
@example("fold --model competition --b1 1 --delta3 2 --init 1,0 --steps 6"
         .split())
@example("fold --model competition --a1 1e300 --delta2 1.01 --b2 1e-30 "
         "--b1 2 --init 0.5,1 --steps 50".split())
@example("fold --model threed --a 1e-300 --s 1e300 --q 1e300 --steps 0"
         .split())
def test_every_input_ends_with_a_documented_exit_code(args):
    res = CliRunner().invoke(main, args)
    assert res.exit_code in (0, 2, 3, 4, 5, 6), (args, res.exception)
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.stderr
    if res.exit_code != 0:
        assert res.stderr.startswith("error: ") and \
            res.stderr.count("\n") == 1, (args, res.stderr)
    asked = args[0] in ("analyze", "fold") or "--json" in args or \
        "json" in args
    if asked and res.stdout:
        json.loads(res.stdout, parse_constant=_strict)

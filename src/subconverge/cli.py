"""Command-line front end.

Commands:

* simulate  -- run a catalog model, write the trajectory/orbit (csv/json)
* analyze   -- run + apply the convergence criterion, emit a report
* threshold -- print thresholds and fixed points for a model family
* fold      -- fold a system to a scalar equation and verify consistency
* models    -- list the model catalog

Exit codes: 0 ok, 2 config error, 3 numerical blow-up (including
non-finite initial values), 4 violated prediction (soundness alarm),
5 bound validation failure, 6 fold inconsistency.  All JSON output is
strict: a non-finite number in it is a blow-up, never ``Infinity``.

The options are read by a small table-driven parser that splits a
command line, and words each usage error, as click 8 does.  A command
imports what only it reads: ``analyze`` the analysis, a ``--config`` or
``simulate --format json`` the config schema, and the planar branches
``systems`` (and the registry's planar entries ``planar``), so a scalar
command loads no planar code.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import replace
from typing import Optional

from . import models
from .dynamics import iterate, iterate_system
from .errors import (BoundValidationError, ConfigError,
                     CriterionInapplicableError, DomainError,
                     ModelParameterError, NonFiniteError, SubconvergeError)

EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_VIOLATED = 4
EXIT_BOUND = 5
EXIT_FOLD = 6

# Errors every command maps to an exit code, tried in order: an orbit too
# long to hold (MemoryError) asked for too many steps.
_EXITS = (
    ((ConfigError, ModelParameterError, DomainError, MemoryError),
     EXIT_CONFIG),
    ((NonFiniteError, OverflowError), EXIT_BLOWUP),
    ((BoundValidationError, CriterionInapplicableError), EXIT_BOUND),
)


def _echo(text: str, stream=None):
    """Write ``text`` and flush, so stdout and stderr keep their order."""
    stream = stream or sys.stdout
    stream.write(text)
    stream.flush()


def _fail(code: int, message: str):
    _echo("error: %s\n" % message, sys.stderr)
    sys.exit(code)


def _exits(*extra):
    """Run a command so that each mapped error ends it with its exit
    code and one ``error:`` line (an overflow is a numerical blow-up)."""
    table = _EXITS + extra
    caught = tuple(cls for classes, _ in table for cls in classes)

    def wrap(command):
        @functools.wraps(command)
        def run(*args, **kw):
            try:
                return command(*args, **kw)
            except caught as exc:
                code = next(code for classes, code in table
                            if isinstance(exc, classes))
                _fail(code, "numerical overflow: %s" % exc
                      if isinstance(exc, OverflowError)
                      else str(exc) or "out of memory")
        return run
    return wrap


def _floats(text: str, option: str) -> list:
    try:
        return [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise ConfigError("bad %s: %s" % (option, exc)) from exc


def _check_tol(tol: Optional[float]) -> None:
    """``--tol`` is a finite, non-negative number, as config tolerances are."""
    if tol is not None and not 0 <= tol < math.inf:
        raise ConfigError("--tol must be a finite, non-negative number, "
                          "got %r" % tol)


def _initial(values: list, size: int) -> list:
    """The initial values, or ones when none were given."""
    if not values:
        return [1.0] * size
    if len(values) != size:
        raise ConfigError("need %d initial values, got %d"
                          % (size, len(values)))
    return values


def _dumps(payload, indent: Optional[int] = None) -> str:
    """Strict JSON: NaN and infinities raise NonFiniteError."""
    try:
        return json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError("non-finite number in output: %s" % exc) \
            from exc


def _write_out(text: str, out: Optional[str]):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("cannot write %s: %s" % (out, exc)) from exc
    else:
        _echo(text if text.endswith("\n") else text + "\n")


# -- options ---------------------------------------------------------------

# Each option is a (flag, dest, type[, help]) row.  The type is the
# metavar: INTEGER and FLOAT values are converted, TEXT and PATH values
# kept as given, a tuple lists the choices, and None makes a switch that
# takes no value.
_MODEL_OPTIONS = (
    ("--model", "model", models.MODEL_NAMES),
    ("--config", "config_path", "PATH"),
    ("--k", "k", "INTEGER"),
    ("--l", "l", "INTEGER"),
    ("--lambda", "lam", "FLOAT"),
    ("--a", "a", "FLOAT"),
    ("--b", "b", "TEXT", "scalar, or comma list of per-lag coefficients"),
    ("--c", "c", "FLOAT"),
    ("--d", "d", "FLOAT"),
    ("--p", "p", "TEXT"),
    ("--q", "q", "FLOAT"),
    ("--r", "r", "FLOAT"),
    ("--s", "s", "FLOAT"),
    ("--t", "t", "FLOAT"),
    ("--r1", "r1", "FLOAT"),
    ("--r2", "r2", "FLOAT"),
    ("--a1", "a1", "FLOAT"),
    ("--a2", "a2", "FLOAT"),
    ("--b1", "b1", "FLOAT"),
    ("--b2", "b2", "FLOAT"),
    ("--delta1", "delta1", "FLOAT"),
    ("--delta2", "delta2", "FLOAT"),
    ("--delta3", "delta3", "FLOAT"),
    ("--delta4", "delta4", "FLOAT"),
)
_HELP = ("--help", "help", None, "Show this message and exit.")
_NUMBERS = {"INTEGER": (int, "integer"), "FLOAT": (float, "float")}


def _no_such(what: str, name: str, known=()) -> None:
    """An unknown option or command, with the ``known`` names that are
    close to it."""
    message = "No such %s %r." % (what, name)
    if known:
        from difflib import get_close_matches
        close = sorted(get_close_matches(name, known))
        if len(close) == 1:
            message += " Did you mean %r?" % close[0]
        elif close:
            message += " (Did you mean one of: %s?)" % ", ".join(
                map(repr, close))
    _fail(EXIT_CONFIG, message)


def _parse(args: list, rows, interspersed: bool):
    """Split ``args`` into (values, rest).  ``values`` maps the dest of
    each option given to its text (True for a switch), in the order the
    options first appear; a repeated option keeps its last value.
    ``rest`` holds the other arguments.  ``--opt=value`` equals ``--opt
    value``, a value is the next argument even if it starts with a dash,
    and ``--`` ends the options; so does the first other argument unless
    ``interspersed``.  A flag must be given in full."""
    flags = {row[0]: row for row in rows}
    values, rest = {}, []
    while args:
        arg, args = args[0], args[1:]
        if arg == "--":
            break
        if arg[:1] != "-" or arg == "-":
            if not interspersed:
                args = [arg] + args
                break
            rest.append(arg)
            continue
        flag, eq, value = arg.partition("=")
        if flag not in flags:
            if arg[:2] == "--":
                _no_such("option", flag, flags)
            _no_such("option", arg[:2])
        _, dest, kind = flags[flag][:3]
        if kind is None:
            if eq:
                _fail(EXIT_CONFIG, "Option %r does not take a value." % flag)
            value = True
        elif not eq:
            if not args:
                _fail(EXIT_CONFIG, "Option %r requires an argument." % flag)
            value, args = args[0], args[1:]
        values[dest] = value
    return values, rest + args


def _convert(values: dict, rows) -> dict:
    """The values typed, in the order given; the first value its type
    rejects ends the run."""
    kinds = {row[1]: row for row in rows}
    for dest, text in values.items():
        flag, _, kind = kinds[dest][:3]
        if kind in _NUMBERS:
            number, name = _NUMBERS[kind]
            try:
                values[dest] = number(text)
            except ValueError:
                _fail(EXIT_CONFIG, "Invalid value for %r: %r is not a "
                      "valid %s." % (flag, text, name))
        elif isinstance(kind, tuple) and text not in kind:
            _fail(EXIT_CONFIG, "Invalid value for %r: %r is not one of %s."
                  % (flag, text, ", ".join(map(repr, kind))))
    return values


def _help(usage: str, summary: str, sections) -> str:
    """Help text in click's layout on an 80-column terminal: the usage
    line, the summary, then each section as two columns."""
    from textwrap import wrap
    lines = ["Usage: " + usage, "", "  " + summary]
    for title, rows in sections:
        width = min(max(len(term) for term, _ in rows), 30)
        lines += ["", title + ":"]
        for term, text in rows:
            if not text:
                lines.append("  " + term)
                continue
            first, *more = wrap(text, 74 - width)
            lines.append("  %-*s  %s" % (width, term, first))
            lines += [" " * (width + 4) + line for line in more]
    return "\n".join(lines)


def _option_help(rows) -> list:
    """(term, text) help rows for option rows."""
    out = []
    for flag, _, kind, *text in rows:
        if isinstance(kind, tuple):
            flag += " [%s]" % "|".join(kind)
        elif kind:
            flag += " " + kind
        out.append((flag, text[0] if text else ""))
    return out


def _prog_name() -> str:
    """The program's name as its caller typed it: the script's file name,
    or ``python -m package.module``."""
    path = os.path.basename(sys.argv[0])
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return path
    module = os.path.splitext(path)[0]
    if module != "__main__":
        package += "." + module
    return "python -m " + package.lstrip(".")


class _Main:
    """The ``subconverge`` entry point: ``main()`` reads ``sys.argv``,
    ``main([...])`` the given arguments.  ``main.main(args, prog_name)``
    is the same call under click's name for it, as
    ``click.testing.CliRunner`` makes it."""

    name = "main"
    summary = ("Convergence analysis of nonlinear difference equations and "
               "planar systems.")

    def __init__(self):
        self.commands = {}   # name -> (command, its option rows)

    def command(self, name: str, rows=()):
        """Register a command and its option rows; its docstring is its
        one-line help."""
        def register(command):
            self.commands[name] = (command, rows)
            return command
        return register

    def __call__(self, args=None):
        self.main(args)

    def main(self, args=None, prog_name=None):
        try:
            self._run(sys.argv[1:] if args is None else list(args),
                      prog_name or _prog_name())
        except (EOFError, KeyboardInterrupt):
            _echo("\nAborted!\n", sys.stderr)
            sys.exit(1)
        except BrokenPipeError:
            # The reader has gone: end with 1 and send what is left
            # unflushed nowhere, so that no second error follows at exit.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)

    def _group_help(self, prog: str) -> str:
        return _help(prog + " [OPTIONS] COMMAND [ARGS]...", self.summary,
                     [("Options", _option_help([_HELP])),
                      ("Commands", [(name, self.commands[name][0].__doc__)
                                    for name in sorted(self.commands)])])

    def _group_options(self, args: list, prog: str) -> list:
        values, rest = _parse(args, [_HELP], interspersed=False)
        if values:
            _echo(self._group_help(prog) + "\n")
            sys.exit(0)
        return rest

    def _run(self, args: list, prog: str):
        if not args:
            _echo(self._group_help(prog) + "\n", sys.stderr)
            sys.exit(EXIT_CONFIG)
        args = self._group_options(args, prog)
        if not args:
            _fail(EXIT_CONFIG, "Missing command.")
        name = args[0]
        if name not in self.commands:
            if name[:1] == "-":     # after ``--``: parsed as options again
                self._group_options(args, prog)
            _no_such("command", name, self.commands)
        command, rows = self.commands[name]
        values, extra = _parse(args[1:], rows + (_HELP,), interspersed=True)
        if "help" in values:
            _echo(_help("%s %s [OPTIONS]" % (prog, name), command.__doc__,
                        [("Options", _option_help(rows + (_HELP,)))])
                  + "\n")
            sys.exit(0)
        kw = _convert(values, rows)
        if extra:
            _fail(EXIT_CONFIG, "Got unexpected extra argument%s (%s)"
                  % ("s" if len(extra) > 1 else "", " ".join(extra)))
        for _, dest, kind, *_ in rows:
            kw.setdefault(dest, False if kind is None else None)
        command(**kw)


main = _Main()


def _gather(model, config_path, init, steps, fmt, kw):
    """(registry entry, raw params, coerced params, initial values,
    steps, output format, config) from the options and the config."""
    config = None
    if config_path:
        from .config import load_config
        config = load_config(config_path)
    name = model or (config.model if config else None)
    if name is None:
        raise ConfigError("no model given (use --model or --config)")
    if kw.get("b") is not None:
        b = _floats(kw["b"], "--b")
        kw["b"] = b if len(b) > 1 else b[0]
    params = dict(config.params) if config else {}
    params.update(("lambda" if key == "lam" else key, val)
                  for key, val in kw.items() if val is not None)
    entry = models.REGISTRY[name]
    initial = _floats(init, "--init") if init else \
        list(config.initial if config else [])
    n_steps = steps if steps is not None else (config.steps if config
                                               else 300)
    if n_steps < 0:
        raise ConfigError("steps must be a non-negative integer")
    # The options are shared by all models: one the model does not read
    # is ignored (config params were checked against the schema at load).
    names = entry.names()
    typed = entry.coerce({key: val for key, val in params.items()
                          if key in names})
    return (entry, params, typed, initial, n_steps,
            fmt or (config.format if config else "csv"), config)


@main.command("simulate", _MODEL_OPTIONS + (
              ("--init", "init", "TEXT", "comma-separated initial values"),
              ("--steps", "steps", "INTEGER"),
              ("--format", "fmt", ("csv", "json")),
              ("--out", "out", "TEXT")))
@_exits()
def simulate(model, config_path, init, steps, fmt, out, **kw):
    """Generate and export a trajectory or orbit."""
    entry, params, p, initial, n_steps, out_fmt, _ = _gather(
        model, config_path, init, steps, fmt, kw)
    if entry.kind == models.SCALAR:
        eq, _, offset = entry.build(p)
        initial = _initial(initial, eq.order)
        run = iterate(eq, [v - offset for v in initial], n_steps)
        if offset:
            run = replace(run, terms=tuple(t + offset for t in run.terms))
        key, rows = "terms", run.terms
    else:   # a system: planar, or the 3D one beside its fold
        threed = entry.kind == models.THREED
        initial = _initial(initial, 3 if threed else 2)
        sysm = entry.build(p)
        run = iterate_system(sysm[0] if threed else sysm, tuple(initial),
                             n_steps)
        key, rows = "points", run.points
    if out_fmt == "json":   # tuples are written as JSON arrays
        from .config import SCHEMA_VERSION
        _write_out(_dumps({"schema": SCHEMA_VERSION, "model": entry.name,
                           "params": params, "initial": initial,
                           "steps": n_steps, key: rows}), out)
    else:
        _write_out(run.to_csv(), out)
    if run.diagnostic:
        _fail(EXIT_BLOWUP, run.diagnostic)


@main.command("analyze", _MODEL_OPTIONS + (
              ("--init", "init", "TEXT"),
              ("--steps", "steps", "INTEGER"),
              ("--out", "out", "TEXT"),
              ("--tol", "tol", "FLOAT")))
@_exits()
def analyze(model, config_path, init, steps, out, tol, **kw):
    """Apply the convergence criterion and emit a JSON report."""
    from . import analysis
    _check_tol(tol)
    entry, _, p, initial, n_steps, _, config = _gather(
        model, config_path, init, steps, None, kw)
    tolerances = config.tolerances if config else {}
    zero_tol = tol if tol is not None else \
        tolerances.get("zero", analysis.DEFAULT_ZERO_TOL)
    limit_tol = tolerances.get("limit", analysis.DEFAULT_LIMIT_TOL)
    if entry.kind == models.SCALAR:
        eq, bound, offset = entry.build(p)
        bound = bound()
        initial = [v - offset for v in _initial(initial, eq.order)]
        report = analysis.build_report(eq, bound,
                                       iterate(eq, initial, n_steps),
                                       zero_tol=zero_tol,
                                       limit_tol=limit_tol)
        extra = {"limit_offset": offset} if offset else {}
    elif entry.kind == models.PLANAR:
        from . import systems
        sysm = entry.build(p)
        orbit = iterate_system(sysm, tuple(_initial(initial, 2)), n_steps)
        # The cycle the builder certified: 1 tail, 2 alternating.
        length = sysm.certificate.length
        cycle = (sysm.envelope_f, sysm.envelope_g)[:length]
        verdict = systems.check_envelope_cycle(sysm, cycle)
        if not verdict.applicable:
            raise BoundValidationError("envelope criterion does not apply: "
                                       "%s" % verdict.reason)
        report = systems.predict_envelope_cycle(orbit, verdict.alpha, cycle)
        extra = {"criterion": ("tail", "alternating")[length - 1]}
    else:
        raise ConfigError("model %r not analyzable" % entry.name)
    payload = report.to_dict()
    payload["model"] = entry.name
    payload.update(extra)
    _write_out(_dumps(payload, indent=2), out)
    if report.any_violated:
        _fail(EXIT_VIOLATED, "a prediction was violated (soundness alarm)")


@main.command("threshold", _MODEL_OPTIONS + (("--json", "as_json", None),))
@_exits()
def threshold(model, config_path, as_json, **kw):
    """Print decline thresholds and fixed points for a model family."""
    entry, _, p, _, _, _, _ = _gather(model, config_path, None, None, None,
                                      kw)
    if entry.threshold is None:
        raise ConfigError("no threshold defined for model %r" % entry.name)
    entry.build(p)  # the builder's checks; a scalar bound is not built
    out = {"model": entry.name, **entry.threshold(p)}
    if as_json:
        _echo(_dumps(out) + "\n")
    else:
        for key, val in out.items():
            _echo("%s: %s\n" % (key, val))


@main.command("fold", _MODEL_OPTIONS + (
              ("--init", "init", "TEXT"),
              ("--steps", "steps", "INTEGER"),
              ("--tol", "tol", "FLOAT"),
              ("--out", "out", "TEXT")))
@_exits(((SubconvergeError,), EXIT_FOLD))
def fold(model, config_path, init, steps, tol, out, **kw):
    """Fold a system to a scalar equation and verify consistency."""
    tol = 1e-9 if tol is None else tol
    _check_tol(tol)
    if steps is None and not config_path:
        steps = 100     # else the config's steps, 100 where it sets none
    entry, _, p, initial, steps, _, _ = _gather(model, config_path, init,
                                                steps, None, kw)
    if entry.kind == models.THREED:
        sysm, eq = entry.build(p)
        initial = tuple(_initial(initial, 3))
        orbit = iterate_system(sysm, initial, max(steps, 2))
        xs = orbit.xs[:steps + 1]
        traj = iterate(eq, sysm.fold_initial(initial, orbit),
                       max(0, len(xs) - 3))
        dev, first = models.relative_deviation(xs, traj.terms, tol)
        payload = {"model": entry.name, "order": 3, "max_deviation": dev,
                   "passed": first is None, "first_divergent": first,
                   "steps": min(len(xs), len(traj)),
                   "stopped": traj.diagnostic or orbit.diagnostic}
    elif entry.kind == models.PLANAR:
        from . import systems
        sysm = entry.build(p)
        if sysm.sigma is None:
            raise ConfigError("no solvability form for model %r"
                              % entry.name)
        check = systems.check_fold_consistency(
            sysm, tuple(_initial(initial, 2)), steps, tol)
        dev = max(check.max_dev_x, check.max_dev_y)
        first = check.first_divergent
        payload = {"descriptor": systems.folded_descriptor(sysm),
                   "max_deviation_x": check.max_dev_x,
                   "max_deviation_y": check.max_dev_y,
                   "first_divergent": first, "passed": check.passed,
                   "steps": check.steps, "stopped": check.stopped}
    else:
        raise ConfigError("model %r is not a foldable system" % entry.name)
    _write_out(_dumps(payload, indent=2), out)
    if not payload["passed"]:
        _fail(EXIT_FOLD, "fold inconsistency: max deviation %g, first "
                         "divergent index %s" % (dev, first))


@main.command("models")
def list_models():
    """List the model catalog."""
    for name in models.MODEL_NAMES:
        _echo(name + "\n")


if __name__ == "__main__":
    main()

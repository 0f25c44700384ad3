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

Only the planar branches import ``systems`` (and the registry's planar
entries ``planar``), so a scalar command loads no planar code.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import replace
from typing import Optional

import click

from . import analysis, models
from .config import SCHEMA_VERSION, load_config
from .dynamics import iterate
from .errors import (BoundValidationError, ConfigError,
                     CriterionInapplicableError, DomainError,
                     ModelParameterError, NonFiniteError, SubconvergeError)

EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_VIOLATED = 4
EXIT_BOUND = 5
EXIT_FOLD = 6

# Errors every command maps to an exit code, tried in order.
_EXITS = (
    ((ConfigError, ModelParameterError, DomainError), EXIT_CONFIG),
    ((NonFiniteError, OverflowError), EXIT_BLOWUP),
    ((BoundValidationError, CriterionInapplicableError), EXIT_BOUND),
)


def _fail(code: int, message: str):
    click.echo("error: %s" % message, err=True)
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
                      if isinstance(exc, OverflowError) else str(exc))
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
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=not text.endswith("\n"))


_MODEL_OPTIONS = [
    click.option("--model", "model", type=click.Choice(models.MODEL_NAMES)),
    click.option("--config", "config_path", type=click.Path()),
    click.option("--k", type=int, default=None),
    click.option("--l", type=int, default=None),
    click.option("--lambda", "lam", type=float, default=None),
    click.option("--a", type=float, default=None),
    click.option("--b", "b", default=None,
                 help="scalar, or comma list of per-lag coefficients"),
    click.option("--c", type=float, default=None),
    click.option("--d", type=float, default=None),
    click.option("--p", default=None),
    click.option("--q", type=float, default=None),
    click.option("--r", type=float, default=None),
    click.option("--s", type=float, default=None),
    click.option("--t", type=float, default=None),
    click.option("--r1", type=float, default=None),
    click.option("--r2", type=float, default=None),
    click.option("--a1", type=float, default=None),
    click.option("--a2", type=float, default=None),
    click.option("--b1", type=float, default=None),
    click.option("--b2", type=float, default=None),
    click.option("--delta1", type=float, default=None),
    click.option("--delta2", type=float, default=None),
    click.option("--delta3", type=float, default=None),
    click.option("--delta4", type=float, default=None),
]


def _model_options(fn):
    for opt in reversed(_MODEL_OPTIONS):
        fn = opt(fn)
    return fn


def _gather(model, config_path, init, steps, fmt, kw):
    """(registry entry, raw params, coerced params, initial values,
    steps, output format, config) from the options and the config."""
    config = load_config(config_path) if config_path else None
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


def _one_line(call, *args):
    """``call(*args)``, with click's own usage error (an unknown command
    or option, a value its type rejects) ending as every bad input does:
    exit 2 and one ``error:`` line, not click's usage block."""
    try:
        return call(*args)
    except click.UsageError as exc:
        _fail(EXIT_CONFIG, exc.format_message())


class _Main(click.Group):
    def parse_args(self, ctx, args):
        if not args:    # a bare ``subconverge`` prints the help
            return super().parse_args(ctx, args)
        return _one_line(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _one_line(super().invoke, ctx)


@click.group(cls=_Main)
def main():
    """Convergence analysis of nonlinear difference equations and
    planar systems."""


@main.command()
@_model_options
@click.option("--init", default=None, help="comma-separated initial values")
@click.option("--steps", type=int, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default=None)
@click.option("--out", default=None)
@_exits()
def simulate(model, config_path, init, steps, fmt, out, **kw):
    """Generate and export a trajectory or orbit."""
    entry, params, p, initial, n_steps, out_fmt, _ = _gather(
        model, config_path, init, steps, fmt, kw)
    diagnostic = None
    if entry.kind == models.SCALAR:
        eq, _, offset = entry.build(p)
        initial = _initial(initial, eq.order)
        traj = iterate(eq, [v - offset for v in initial], n_steps)
        if offset:
            traj = replace(traj, terms=tuple(t + offset for t in traj.terms))
        key, rows, to_csv = "terms", traj.terms, traj.to_csv
        diagnostic = traj.diagnostic
    elif entry.kind == models.PLANAR:
        from . import systems
        initial = _initial(initial, 2)
        orbit = systems.iterate_system(entry.build(p), tuple(initial),
                                       n_steps)
        key, rows, to_csv = "points", orbit.points, orbit.to_csv
        diagnostic = orbit.diagnostic
    else:
        initial = _initial(initial, 3)
        key, rows = "points", entry.build(p)[0].iterate(tuple(initial),
                                                        n_steps)

        def to_csv():
            return "n,x,y,z\n" + "".join("%d,%r,%r,%r\n" % (n, *st)
                                         for n, st in enumerate(rows))
    if out_fmt == "json":   # tuples are written as JSON arrays
        _write_out(_dumps({"schema": SCHEMA_VERSION, "model": entry.name,
                           "params": params, "initial": initial,
                           "steps": n_steps, key: rows}), out)
    else:
        _write_out(to_csv(), out)
    if diagnostic:
        _fail(EXIT_BLOWUP, diagnostic)


@main.command()
@_model_options
@click.option("--init", default=None)
@click.option("--steps", type=int, default=None)
@click.option("--out", default=None)
@click.option("--tol", type=float, default=None)
@_exits()
def analyze(model, config_path, init, steps, out, tol, **kw):
    """Apply the convergence criterion and emit a JSON report."""
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
        orbit = systems.iterate_system(sysm, tuple(_initial(initial, 2)),
                                       n_steps)
        # The cycle the builder certified a threshold for: 1 tail,
        # 2 alternating.
        length = sysm.cycle_threshold[0]
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


@main.command()
@_model_options
@click.option("--json", "as_json", is_flag=True)
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
        click.echo(_dumps(out))
    else:
        for key, val in out.items():
            click.echo("%s: %s" % (key, val))


@main.command()
@_model_options
@click.option("--init", default=None)
@click.option("--steps", type=int, default=None)
@click.option("--tol", type=float, default=1e-9)
@click.option("--out", default=None)
@_exits(((SubconvergeError,), EXIT_FOLD))
def fold(model, config_path, init, steps, tol, out, **kw):
    """Fold a system to a scalar equation and verify consistency."""
    _check_tol(tol)
    if steps is None and not config_path:
        steps = 100     # else the config's steps, 100 where it sets none
    entry, _, p, initial, steps, _, _ = _gather(model, config_path, init,
                                                steps, None, kw)
    if entry.kind == models.THREED:
        sysm, eq = entry.build(p)
        initial = tuple(_initial(initial, 3))
        states = sysm.iterate(initial, steps)
        traj = iterate(eq, sysm.fold_initial(initial),
                       max(0, len(states) - 3))
        dev, first = models.relative_deviation(
            [st[0] for st in states], traj.terms, tol)
        payload = {"model": entry.name, "order": 3, "max_deviation": dev,
                   "passed": first is None, "first_divergent": first}
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
                   "first_divergent": first, "passed": check.passed}
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
        click.echo(name)


if __name__ == "__main__":
    main()

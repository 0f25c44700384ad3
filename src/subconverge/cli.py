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
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from typing import Optional, Tuple

import click

from . import analysis, models, systems
from .config import ExperimentConfig, SCHEMA_VERSION, load_config
from .dynamics import Trajectory, iterate
from .errors import (BoundValidationError, ConfigError,
                     CriterionInapplicableError, DomainError,
                     ModelParameterError, NonFiniteError, SubconvergeError)
from .sequences import ParameterSequence

EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_VIOLATED = 4
EXIT_BOUND = 5
EXIT_FOLD = 6

SCALAR_MODELS = {"ricker", "sp3", "sigmoid-bh"}
PLANAR_MODELS = {"adult-juvenile", "competition", "competition-swapped"}


def _fail(code: int, message: str):
    click.echo("error: %s" % message, err=True)
    sys.exit(code)


def _coerce_seq(value) -> ParameterSequence:
    """Config/CLI parameter to sequence: number -> constant, list ->
    periodic, {"kind": ...} -> explicit representation."""
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError as exc:
            raise ConfigError("cannot interpret parameter %r as a "
                              "sequence" % value) from exc
    if isinstance(value, (int, float)):
        return ParameterSequence.constant(value)
    if isinstance(value, list):
        return ParameterSequence.periodic(value)
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind == "constant":
            return ParameterSequence.constant(value["value"])
        if kind == "periodic":
            return ParameterSequence.periodic(value["values"])
        if kind == "tabulated":
            return ParameterSequence.tabulated(value["values"],
                                               value["fallback"])
        raise ConfigError("unknown sequence kind %r" % kind)
    raise ConfigError("cannot interpret parameter %r as a sequence" % value)


def _parse_power(p) -> object:
    if isinstance(p, int):
        return p
    if isinstance(p, str):
        return Fraction(p)
    if isinstance(p, float) and p == int(p):
        return int(p)
    raise ConfigError("exponent must be an integer or a fraction string "
                      "like '4/3'")


def _parse_init(text: Optional[str], config_init):
    if text:
        try:
            return [float(v) for v in text.split(",")]
        except ValueError as exc:
            raise ConfigError("bad --init: %s" % exc) from exc
    return list(config_init or [])


def _build_scalar(name: str, params: dict
                  ) -> Tuple[object, Optional[object], float]:
    """Returns (equation, bound-or-None, limit_offset)."""
    if name == "sp3":
        k = int(params.get("k", 3))
        eq, bound = models.make_sp3(k, rigorous=bool(params.get("rigorous")))
        return eq, bound, 0.0
    if name == "ricker":
        lam = float(params.get("lambda", params.get("lam", 2.0)))
        k = int(params.get("k", 1))
        b = params.get("b", 1.0)
        b_list = b if isinstance(b, list) else [b]
        m = int(params.get("m", len(b_list)))
        spec = models.RickerFamilySpec(
            lam, k, m, _coerce_seq(params.get("a", 0.0)),
            tuple(_coerce_seq(v) for v in b_list))
        eq, bound = models.make_generalized_ricker(spec)
        return eq, bound, 0.0
    if name == "sigmoid-bh":
        spec = models.SigmoidBHSpec(
            a_seq=_coerce_seq(params.get("a", 1.0)),
            c_seq=_coerce_seq(params.get("c", 0.0)),
            q_seq=_coerce_seq(params.get("q", 1.0)),
            p=_parse_power(params.get("p", 2)),
            b=float(params.get("b", 0.0)),
            k=int(params.get("k", 1)), l=int(params.get("l", 1)))
        eq = models.make_sigmoid_bh(spec)
        bound = models.sigmoid_bh_bound(spec)
        translated = models.translate_to_origin(eq, spec.b)
        return translated, bound, spec.b
    raise ConfigError("unknown scalar model %r" % name)


def _build_planar(name: str, params: dict) -> systems.PlanarSystem:
    if name == "adult-juvenile":
        return models.make_adult_juvenile(
            _coerce_seq(params.get("s", 0.8)),
            _coerce_seq(params.get("t", 1.0)),
            _coerce_seq(params.get("r", 2.0)),
            float(params.get("lambda", params.get("lam", 2.0))))
    cp = models.CompetitionParams(
        _coerce_seq(params.get("r1", 1.0)), _coerce_seq(params.get("r2", 1.0)),
        _coerce_seq(params.get("a1", 1.0)), _coerce_seq(params.get("a2", 1.0)),
        float(params.get("delta1", 2.0)), float(params.get("delta2", 2.0)),
        _coerce_seq(params.get("b1", 0.0)), _coerce_seq(params.get("b2", 0.0)),
        float(params.get("delta3", 1.0)), float(params.get("delta4", 1.0)))
    return models.make_competition(cp, swapped=(name == "competition-swapped"))


def _build_threed(params: dict):
    return models.make_3d_example(
        _coerce_seq(params.get("a", 1.0)), _coerce_seq(params.get("p", 0.0)),
        float(params.get("b", 0.0)), float(params.get("c", 1.0)),
        float(params.get("d", 0.0)), float(params.get("q", 1.0)),
        float(params.get("r", 1.0)), float(params.get("s", 1.0)))


def _collect_params(config: Optional[ExperimentConfig], kw: dict) -> dict:
    params = dict(config.params) if config else {}
    for key, val in kw.items():
        if val is None:
            continue
        params[key.replace("lam", "lambda") if key == "lam" else key] = val
    return params


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


def _gather(model, config_path, init, steps, fmt, **kw):
    config = None
    if config_path:
        config = load_config(config_path)
    name = model or (config.model if config else None)
    if name is None:
        raise ConfigError("no model given (use --model or --config)")
    b = kw.get("b")
    if isinstance(b, str):
        parts = [float(v) for v in b.split(",")]
        kw["b"] = parts if len(parts) > 1 else parts[0]
    elif b is not None:
        kw["b"] = float(b)
    if kw.get("p") is not None:
        kw["p"] = _parse_power(kw["p"]) if not isinstance(kw["p"], str) \
            else kw["p"]
    params = _collect_params(config, kw)
    initial = _parse_init(init, config.initial if config else None)
    n_steps = steps if steps is not None else (config.steps if config
                                               else 300)
    out_fmt = fmt or (config.format if config else "csv")
    return name, params, initial, n_steps, out_fmt, config


@click.group()
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
def simulate(model, config_path, init, steps, fmt, out, **kw):
    """Generate and export a trajectory or orbit."""
    try:
        name, params, initial, n_steps, out_fmt, _ = _gather(
            model, config_path, init, steps, fmt, **kw)
        if name in SCALAR_MODELS:
            eq, _, offset = _build_scalar(name, params)
            if not initial:
                initial = [1.0] * eq.order
            if name == "sigmoid-bh":
                initial = [v - offset for v in initial]
            traj = iterate(eq, initial, n_steps)
            if offset:
                traj = Trajectory(traj.initial,
                                  tuple(t + offset for t in traj.terms),
                                  eq, traj.diagnostic)
            if out_fmt == "json":
                payload = {"schema": SCHEMA_VERSION, "model": name,
                           "params": params, "initial": initial,
                           "steps": n_steps, "terms": list(traj.terms)}
                _write_out(_dumps(payload), out)
            else:
                _write_out(traj.to_csv(), out)
            if traj.truncated:
                _fail(EXIT_BLOWUP, traj.diagnostic)
        elif name in PLANAR_MODELS:
            sysm = _build_planar(name, params)
            if not initial:
                initial = [1.0, 1.0]
            orbit = systems.iterate_system(sysm, tuple(initial), n_steps)
            if out_fmt == "json":
                payload = {"schema": SCHEMA_VERSION, "model": name,
                           "params": params, "initial": initial,
                           "steps": n_steps,
                           "points": [list(p) for p in orbit.points]}
                _write_out(_dumps(payload), out)
            else:
                _write_out(orbit.to_csv(), out)
            if orbit.diagnostic:
                _fail(EXIT_BLOWUP, orbit.diagnostic)
        elif name == "threed":
            sysm, _ = _build_threed(params)
            if not initial:
                initial = [1.0, 1.0, 1.0]
            states = sysm.iterate(tuple(initial), n_steps)
            if out_fmt == "json":
                payload = {"schema": SCHEMA_VERSION, "model": name,
                           "params": params, "initial": initial,
                           "steps": n_steps,
                           "points": [list(p) for p in states]}
                _write_out(_dumps(payload), out)
            else:
                lines = ["n,x,y,z"]
                lines += ["%d,%r,%r,%r" % (n, x, y, z)
                          for n, (x, y, z) in enumerate(states)]
                _write_out("\n".join(lines) + "\n", out)
        else:
            raise ConfigError("model %r not simulatable" % name)
    except (ConfigError, ModelParameterError, DomainError,
            click.ClickException) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except NonFiniteError as exc:
        _fail(EXIT_BLOWUP, str(exc))


@main.command()
@_model_options
@click.option("--init", default=None)
@click.option("--steps", type=int, default=None)
@click.option("--out", default=None)
@click.option("--tol", type=float, default=None)
def analyze(model, config_path, init, steps, out, tol, **kw):
    """Apply the convergence criterion and emit a JSON report."""
    try:
        name, params, initial, n_steps, _, config = _gather(
            model, config_path, init, steps, None, **kw)
        tolerances = config.tolerances if config else {}
        zero_tol = tol or tolerances.get("zero", analysis.DEFAULT_ZERO_TOL)
        limit_tol = tolerances.get("limit", analysis.DEFAULT_LIMIT_TOL)
        if name in SCALAR_MODELS:
            eq, bound, offset = _build_scalar(name, params)
            if bound is None:
                raise BoundValidationError("model has no bounding function")
            if not initial:
                initial = [1.0] * eq.order
            if name == "sigmoid-bh":
                initial = [v - offset for v in initial]
            traj = iterate(eq, initial, n_steps)
            report = analysis.build_report(eq, bound, traj,
                                           zero_tol=zero_tol,
                                           limit_tol=limit_tol)
            payload = report.to_dict()
            payload["model"] = name
            if offset:
                payload["limit_offset"] = offset
            _write_out(_dumps(payload, indent=2), out)
            if report.any_violated:
                _fail(EXIT_VIOLATED, "a prediction was violated "
                                     "(soundness alarm)")
        elif name in PLANAR_MODELS:
            sysm = _build_planar(name, params)
            if not initial:
                initial = [1.0, 1.0]
            orbit = systems.iterate_system(sysm, tuple(initial), n_steps)
            tail = systems.check_tail_envelope(sysm)
            alt = systems.check_alternating_envelopes(sysm)
            if tail.applicable:
                report = systems.predict_tail_convergence(sysm, orbit,
                                                          tail.alpha)
            elif alt.applicable:
                report = systems.predict_alternating_convergence(
                    sysm, orbit, alt.alpha)
            else:
                raise BoundValidationError(
                    "no envelope criterion applies: %s / %s"
                    % (tail.reason, alt.reason))
            payload = report.to_dict()
            payload["model"] = name
            payload["criterion"] = "tail" if tail.applicable \
                else "alternating"
            _write_out(_dumps(payload, indent=2), out)
            if report.any_violated:
                _fail(EXIT_VIOLATED, "a prediction was violated "
                                     "(soundness alarm)")
        else:
            raise ConfigError("model %r not analyzable" % name)
    except (BoundValidationError, CriterionInapplicableError) as exc:
        _fail(EXIT_BOUND, str(exc))
    except (ConfigError, ModelParameterError, DomainError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except NonFiniteError as exc:
        _fail(EXIT_BLOWUP, str(exc))


@main.command()
@_model_options
@click.option("--json", "as_json", is_flag=True)
def threshold(model, config_path, as_json, **kw):
    """Print decline thresholds and fixed points for a model family."""
    try:
        name, params, _, _, _, _ = _gather(model, config_path, None, None,
                                           None, **kw)
        out: dict = {"model": name}
        if name in ("ricker", "sp3"):
            if name == "sp3":
                k = int(params.get("k", 3))
                _, bound = models.make_sp3(k)
                lam, a = 1.5, 1.5
                b = (1.6, 0.7, 0.9)[k - 1]
            else:
                lam = float(params.get("lambda", 2.0))
                a = float(params.get("a", 0.0))
                b = float(params.get("b", 1.0))
            holds, rhs = models.ricker_threshold_condition(lam, a, b)
            fps = models.ricker_fixed_points(lam, a, b)
            out.update({
                "condition_holds": holds, "condition_rhs": rhs,
                "fixed_points": {"kind": fps.kind, "u_star": fps.u_star,
                                 "u_bar": fps.u_bar},
                "alpha": fps.u_star if fps.kind != "none" else None,
            })
        elif name in ("competition", "competition-swapped"):
            res = models.competition_threshold(
                float(params.get("r1", 1.0)), float(params.get("a1", 1.0)),
                float(params.get("delta1", 2.0)))
            out.update({"alpha": res.alpha if math.isfinite(res.alpha)
                        else "inf", "tangent": res.tangent})
        elif name == "sigmoid-bh":
            alpha, window = models.sigmoid_bh_window(
                float(params.get("a", 1.0)),
                float(Fraction(_parse_power(params.get("p", 2)))),
                float(params.get("b", 0.0)))
            out.update({"alpha": alpha, "window": window.as_list()})
        else:
            raise ConfigError("no threshold defined for model %r" % name)
        if as_json:
            click.echo(_dumps(out))
        else:
            for key, val in out.items():
                click.echo("%s: %s" % (key, val))
    except (ConfigError, ModelParameterError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except NonFiniteError as exc:
        _fail(EXIT_BLOWUP, str(exc))


@main.command()
@_model_options
@click.option("--init", default=None)
@click.option("--steps", type=int, default=100)
@click.option("--tol", type=float, default=1e-9)
@click.option("--out", default=None)
def fold(model, config_path, init, steps, tol, out, **kw):
    """Fold a system to a scalar equation and verify consistency."""
    try:
        name, params, initial, _, _, _ = _gather(model, config_path, init,
                                                 steps, None, **kw)
        if name == "threed":
            sysm, eq = _build_threed(params)
            if not initial:
                initial = [1.0, 1.0, 1.0]
            states = sysm.iterate(tuple(initial), steps)
            x_init = sysm.fold_initial(tuple(initial))
            traj = iterate(eq, x_init, max(0, len(states) - 3))
            max_dev = 0.0
            first_div = None
            for n in range(min(len(states), len(traj))):
                dev = abs(states[n][0] - traj.terms[n]) / max(
                    abs(states[n][0]), abs(traj.terms[n]), 1.0)
                if dev > tol and first_div is None:
                    first_div = n
                max_dev = max(max_dev, dev)
            payload = {"model": name, "order": 3, "max_deviation": max_dev,
                       "passed": max_dev <= tol,
                       "first_divergent": first_div}
            _write_out(_dumps(payload, indent=2), out)
            if max_dev > tol:
                _fail(EXIT_FOLD, "fold inconsistency: max deviation %g, "
                                 "first divergent index %s"
                      % (max_dev, first_div))
            return
        if name not in PLANAR_MODELS:
            raise ConfigError("model %r is not a foldable system" % name)
        sysm = _build_planar(name, params)
        if sysm.sigma is None:
            raise ConfigError("no solvability form for model %r" % name)
        if not initial:
            initial = [1.0, 1.0]
        check = systems.check_fold_consistency(sysm, tuple(initial),
                                               steps, tol)
        payload = {"descriptor": systems.folded_descriptor(sysm),
                   "max_deviation_x": check.max_dev_x,
                   "max_deviation_y": check.max_dev_y,
                   "first_divergent": check.first_divergent,
                   "passed": check.passed}
        _write_out(_dumps(payload, indent=2), out)
        if not check.passed:
            _fail(EXIT_FOLD, "fold inconsistency: max deviation %g, first "
                             "divergent index %s"
                  % (max(check.max_dev_x, check.max_dev_y),
                     check.first_divergent))
    except (ConfigError, ModelParameterError, DomainError) as exc:
        _fail(EXIT_CONFIG, str(exc))
    except NonFiniteError as exc:
        _fail(EXIT_BLOWUP, str(exc))
    except SubconvergeError as exc:
        _fail(EXIT_FOLD, str(exc))


@main.command("models")
def list_models():
    """List the model catalog."""
    for name in models.MODEL_NAMES:
        click.echo(name)


if __name__ == "__main__":
    main()

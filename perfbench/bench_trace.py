"""Spans, exact counters and layer probes for the traced run.

The benchmark traces the package from outside.  ``Tracer.span`` times a
public call made by the benchmark; ``install`` rebinds the public
functions that one package module calls in another (threshold solve,
bound validation, inequality chain, ...) to span-recording wrappers,
and ``uninstall`` restores them.  Counting wrappers around
``eq.evaluator``, ``bound.g`` and the planar maps give exact work
counts.  Spans stay in memory until the run ends.

With tracing off, case code gets a ``NullTracer``: no wrapper is
installed and every span is a shared no-op.
"""

from __future__ import annotations

import importlib
import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import replace

COUNTERS = ("dynamics.map_evals", "criteria.g_evals_threshold",
            "criteria.g_evals_validate", "criteria.chain_links",
            "systems.envelope_evals", "systems.sigma_calls")
LAYERS = ("models", "criteria", "dynamics", "analysis", "reports",
          "systems", "cli")
FAMILIES = ("sp3", "ricker", "sigmoid_bh", "threed_fold")
CLI_COMMANDS = {
    "models": ["models"],
    "simulate": ["simulate", "--model", "sp3", "--k", "3", "--init", "1,1,1",
                 "--steps", "300"],
    "analyze": ["analyze", "--model", "sp3", "--k", "3", "--init", "1,1,1",
                "--steps", "450"],
    "threshold": ["threshold", "--model", "sp3", "--k", "3", "--json"],
    "fold": ["fold", "--model", "adult-juvenile", "--init", "1,1",
             "--steps", "100"],
}


class _NullSpan:
    __slots__ = ("attrs",)

    def __init__(self):
        self.attrs = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    """Tracing off: plain calls, nothing recorded."""

    _span = _NullSpan()

    def span(self, name, **attrs):
        return self._span

    def count_evals(self, eq):
        return eq

    def count_system(self, sysm):
        return sysm

    def count_sigma(self, sysm):
        return sysm


class _Span:
    __slots__ = ("tr", "name", "attrs", "start", "parent", "index")

    def __init__(self, tr, name, attrs):
        self.tr, self.name, self.attrs = tr, name, attrs

    def __enter__(self):
        tr = self.tr
        self.parent = tr.stack[-1] if tr.stack else -1
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tr
        tr.stack.pop()
        tr.spans[self.index] = (self.name, self.start, end, self.parent,
                                tr.case, self.attrs)
        return False


class Tracer:
    """Records spans ``(name, start_ns, end_ns, parent, case, attrs)``
    and exact counters."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.case = None
        self._undo = []

    def span(self, name, **attrs):
        return _Span(self, name, attrs)

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    def count_evals(self, eq):
        return replace(eq, evaluator=self.counted("dynamics.map_evals",
                                                  eq.evaluator))

    def count_system(self, sysm):
        key = "systems.envelope_evals"
        return replace(
            sysm, f=self.counted(key, sysm.f), g=self.counted(key, sysm.g),
            envelope_f=sysm.envelope_f and self.counted(key, sysm.envelope_f),
            envelope_g=sysm.envelope_g and self.counted(key, sysm.envelope_g))

    def count_sigma(self, sysm):
        if sysm.sigma is None:
            return sysm
        import subconverge as sc
        return replace(sysm, sigma=sc.SigmaForm.custom(
            self.counted("systems.sigma_calls", sysm.sigma)))

    # -- wrappers installed on package modules ---------------------------

    def _wrap_threshold(self, orig):
        def solve_threshold(g, *args, **kw):
            with self.span("criteria.solve_threshold"):
                return orig(self.counted("criteria.g_evals_threshold", g),
                            *args, **kw)
        return solve_threshold

    def _wrap_validate(self, orig):
        def validate_bound(bound, *args, **kw):
            counted = replace(bound, g=self.counted(
                "criteria.g_evals_validate", bound.g))
            with self.span("criteria.validate_bound"):
                res = orig(counted, *args, **kw)
            return replace(res, g=bound.g)
        return validate_bound

    def _wrap_chain(self, orig):
        def check_inequality_chain(traj, n0, k, h):
            with self.span("criteria.check_inequality_chain") as s:
                res = orig(traj, n0, k, h)
            s.attrs["links"] = res.links_checked
            self.counts["criteria.chain_links"] += res.links_checked
            return res
        return check_inequality_chain

    def _wrap_full(self, orig):
        def predict_full_convergence(eq, bound, traj):
            with self.span("criteria.full_convergence", terms=len(traj)):
                return orig(eq, bound, traj)
        return predict_full_convergence

    def _wrap_iterate(self, orig):
        def iterate(eq, initial, steps):
            eq = self.count_evals(eq)
            with self.span("dynamics.iterate", family="planar_fold") as s:
                traj = orig(eq, initial, steps)
            s.attrs["steps"] = len(traj.terms) - eq.order
            return traj
        return iterate

    def _wrap_plain(self, name):
        def make(orig):
            def wrapper(*args, **kw):
                with self.span(name):
                    return orig(*args, **kw)
            return wrapper
        return make

    def install(self):
        """Rebind the package's cross-module calls to traced wrappers.
        A name that a later version no longer has is skipped."""
        plan = [
            ("models", "solve_threshold", self._wrap_threshold),
            ("systems", "solve_threshold", self._wrap_threshold),
            ("models", "validate_bound", self._wrap_validate),
            ("criteria", "validate_bound", self._wrap_validate),
            ("models", "ricker_fixed_points",
             self._wrap_plain("models.ricker_fixed_points")),
            ("analysis", "check_inequality_chain", self._wrap_chain),
            ("criteria", "check_inequality_chain", self._wrap_chain),
            ("systems", "check_inequality_chain", self._wrap_chain),
            ("criteria", "predict_full_convergence", self._wrap_full),
            ("analysis", "classify_limit",
             self._wrap_plain("analysis.classify_limit")),
            ("analysis", "verify_monotone_to_zero",
             self._wrap_plain("analysis.verify_monotone_to_zero")),
            ("systems", "iterate", self._wrap_iterate),
        ]
        for mod_name, attr, wrap in plan:
            mod = importlib.import_module("subconverge." + mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            self._undo.append((mod, attr, orig))
            setattr(mod, attr, wrap(orig))

    def uninstall(self):
        while self._undo:
            mod, attr, orig = self._undo.pop()
            setattr(mod, attr, orig)

    # -- aggregation -----------------------------------------------------

    def self_times(self):
        """Per span name: (calls, total ns, self ns).  Self time is the
        span's duration minus the time its child spans cover."""
        child = defaultdict(int)
        for sp in self.spans:
            if sp is not None and sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        table = defaultdict(lambda: [0, 0, 0])
        for i, sp in enumerate(self.spans):
            if sp is None:
                continue
            row = table[sp[0]]
            row[0] += 1
            row[1] += sp[2] - sp[1]
            row[2] += sp[2] - sp[1] - child[i]
        return dict(table)

    def select(self, name, **attrs):
        return [sp for sp in self.spans if sp is not None and sp[0] == name
                and all(sp[5].get(k) == v for k, v in attrs.items())]


def _mean_ms(spans):
    if not spans:
        return 0.0
    return sum(sp[2] - sp[1] for sp in spans) / len(spans) / 1e6


def _us_per(spans, attr):
    units = sum(sp[5].get(attr, 0) for sp in spans)
    total = sum(sp[2] - sp[1] for sp in spans)
    return total / units / 1e3 if units else 0.0


def span_metrics(tr: Tracer) -> dict:
    """Per-layer metrics derived from the recorded spans and counters."""
    m = {}
    m["criteria.solve_threshold_ms"] = _mean_ms(
        tr.select("criteria.solve_threshold"))
    m["criteria.validate_bound_ms"] = _mean_ms(
        tr.select("criteria.validate_bound"))
    for fam in ("sp3", "ricker", "sigmoid_bh", "adult_juvenile",
                "competition", "threed"):
        m["models.build_ms." + fam] = _mean_ms(
            tr.select("models.build", family=fam))
    m["analysis.build_report_us_per_term"] = _us_per(
        tr.select("analysis.build_report"), "terms")
    m["analysis.classify_limit_ms"] = _mean_ms(
        tr.select("analysis.classify_limit"))
    m["criteria.full_convergence_us_per_term"] = _us_per(
        tr.select("criteria.full_convergence"), "terms")
    m["criteria.chain_us_per_link"] = _us_per(
        tr.select("criteria.check_inequality_chain"), "links")
    m["reports.to_json_ms"] = _mean_ms(tr.select("reports.to_json"))
    m["systems.iterate_system_us_per_step"] = _us_per(
        tr.select("systems.iterate_system"), "steps")
    m["systems.fold_check_us_per_step"] = _us_per(
        tr.select("systems.check_fold_consistency"), "steps")
    m["models.threed_iterate_us_per_step"] = _us_per(
        tr.select("models.threed_iterate"), "steps")
    m["systems.alternating_envelopes_ms"] = _mean_ms(
        tr.select("systems.alternating_envelopes"))
    m["systems.tail_envelope_ms"] = _mean_ms(
        tr.select("systems.tail_envelope"))
    for key in COUNTERS:
        m[key] = tr.counts[key]
    table = tr.self_times()
    for layer in LAYERS:
        m["self_ms." + layer] = sum(
            row[2] for name, row in table.items()
            if name.split(".")[0] == layer) / 1e6
    m["trace.spans"] = sum(row[0] for row in table.values())
    return m


# -- layer probes (untraced timings of single layers) ---------------------


def _median_time(fn, repeats=5):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe_sequences() -> dict:
    import subconverge as sc
    seqs = {
        "constant": sc.ParameterSequence.constant(1.5),
        "periodic": sc.ParameterSequence.periodic([0.5, 1.0, 1.5, 0.7, 0.9]),
        "tabulated": sc.ParameterSequence.tabulated(
            [0.1 * i for i in range(1, 51)], 0.6),
    }
    idx = range(100_000)
    out = {}
    for kind, seq in seqs.items():
        def loop(seq=seq):
            for n in idx:
                seq(n)
        out["sequences.call_ns." + kind] = _median_time(loop) / len(idx) * 1e9
    return out


def _family_equations():
    import subconverge as sc
    S = sc.ParameterSequence
    eq3, _ = sc.make_sp3(3)
    ricker, _ = sc.make_generalized_ricker(sc.RickerFamilySpec(
        1.8, 2, 3, S.periodic((0.5, 1.0, 1.5)),
        (S.constant(0.4), S.tabulated((0.5, 0.7, 0.6, 0.8), 0.6),
         S.constant(0.3))))
    spec = sc.SigmoidBHSpec(S.constant(2.0), S.constant(1.0), S.constant(2.0),
                            p=3, b=1.0, k=1, l=2)
    sig = sc.translate_to_origin(sc.make_sigmoid_bh(spec), 1.0)
    sysm, threed = sc.make_3d_example(1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    return {
        "sp3": (eq3, (1.0, 1.0, 1.0)),
        "ricker": (ricker, (0.5, 1.0, 1.5)),
        "sigmoid_bh": (sig, (0.1, 0.1)),
        "threed_fold": (threed, sysm.fold_initial((0.9, 1.1, 1.0))),
    }


def probe_dynamics(steps: int = 20_000) -> dict:
    """Per family: iterate cost per step, the bare evaluator cost per
    call on the same windows, and the difference (iteration overhead)."""
    import subconverge as sc
    out = {}
    for fam, (eq, init) in _family_equations().items():
        t_it = _median_time(lambda: sc.iterate(eq, init, steps), 3)
        terms = sc.iterate(eq, init, steps).terms
        m = eq.order
        calls = [(n, tuple(terms[n - i] for i in range(1, m + 1)))
                 for n in range(m, len(terms))]
        ev = eq.evaluator

        def replay():
            for n, w in calls:
                ev(n, w)
        t_ev = _median_time(replay, 3)
        per_step = t_it / steps * 1e6
        per_call = t_ev / len(calls) * 1e6
        out["dynamics.iterate_us_per_step." + fam] = per_step
        out["dynamics.evaluator_us_per_call." + fam] = per_call
        out["dynamics.overhead_us_per_step." + fam] = per_step - per_call
    return out


def probe_misc() -> dict:
    import subconverge as sc
    from subconverge.config import parse_config
    out = {}
    out["models.ricker_fixed_points_us"] = _median_time(
        lambda: [sc.ricker_fixed_points(1.5, 1.5, 0.9) for _ in range(200)]
    ) / 200 * 1e6
    doc = json.dumps({"schema": 1, "model": "sp3", "params": {"k": 3},
                      "initial": [1, 1, 1], "steps": 300})
    out["config.parse_ms"] = _median_time(
        lambda: [parse_config(doc) for _ in range(500)]) / 500 * 1e3
    return out


def probe_cli_dispatch(tr: Tracer) -> dict:
    """In-process dispatch cost per command (click's CliRunner)."""
    from click.testing import CliRunner
    from subconverge.cli import main
    runner = CliRunner()
    out = {}
    for cmd, args in CLI_COMMANDS.items():
        times = []
        for _ in range(3):
            tr.case = "probe:cli-" + cmd
            with tr.span("cli.dispatch", command=cmd):
                t0 = time.perf_counter()
                res = runner.invoke(main, args)
                times.append(time.perf_counter() - t0)
            if res.exit_code != 0:
                raise RuntimeError("cli probe %s exited %d"
                                   % (cmd, res.exit_code))
        out["cli.dispatch_ms." + cmd] = statistics.median(times) * 1e3
    return out


_IMPORT_CODE = ("import time; t0 = time.perf_counter(); import %s; "
                "print((time.perf_counter() - t0) * 1e3)")


def probe_imports(root: str, env: dict, repeats: int = 3) -> dict:
    """Cold import cost in fresh interpreters, and the bare interpreter
    start-up that no change to the package can move."""
    def child(code):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        return float(proc.stdout.strip() or 0.0)
    out = {}
    for key, mod in (("import.subconverge_ms", "subconverge"),
                     ("import.cli_ms", "subconverge.cli")):
        out[key] = statistics.median(child(_IMPORT_CODE % mod)
                                     for _ in range(repeats))
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, env=env,
                       check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    out["cli.interpreter_ms"] = statistics.median(walls) * 1e3
    return out


def format_table(tr: Tracer) -> str:
    rows = sorted(tr.self_times().items(), key=lambda kv: -kv[1][2])
    lines = ["%-40s %8s %12s %12s" % ("span", "calls", "total_ms",
                                      "self_ms")]
    for name, (calls, total, self_ns) in rows:
        lines.append("%-40s %8d %12.3f %12.3f"
                     % (name, calls, total / 1e6, self_ns / 1e6))
    return "\n".join(lines)


def per_layer_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for kind in ("constant", "periodic", "tabulated"):
        units["sequences.call_ns." + kind] = "ns"
    for fam in FAMILIES:
        units["dynamics.iterate_us_per_step." + fam] = "us"
        units["dynamics.evaluator_us_per_call." + fam] = "us"
        units["dynamics.overhead_us_per_step." + fam] = "us"
    units.update({
        "dynamics.map_evals": "count",
        "criteria.solve_threshold_ms": "ms",
        "criteria.validate_bound_ms": "ms",
        "criteria.g_evals_threshold": "count",
        "criteria.g_evals_validate": "count",
    })
    for fam in ("sp3", "ricker", "sigmoid_bh", "adult_juvenile",
                "competition", "threed"):
        units["models.build_ms." + fam] = "ms"
    units.update({
        "models.ricker_fixed_points_us": "us",
        "analysis.build_report_us_per_term": "us",
        "analysis.classify_limit_ms": "ms",
        "criteria.full_convergence_us_per_term": "us",
        "criteria.chain_links": "count",
        "criteria.chain_us_per_link": "us",
        "reports.to_json_ms": "ms",
        "reports.json_bytes": "bytes",
        "systems.iterate_system_us_per_step": "us",
        "systems.fold_check_us_per_step": "us",
        "systems.sigma_calls": "count",
        "models.threed_iterate_us_per_step": "us",
        "systems.alternating_envelopes_ms": "ms",
        "systems.tail_envelope_ms": "ms",
        "systems.envelope_evals": "count",
        "import.subconverge_ms": "ms",
        "import.cli_ms": "ms",
        "cli.interpreter_ms": "ms",
    })
    for cmd in CLI_COMMANDS:
        units["cli.dispatch_ms." + cmd] = "ms"
    units["config.parse_ms"] = "ms"
    for layer in LAYERS:
        units["self_ms." + layer] = "ms"
    units["oracle.known_defect_frac"] = "ratio"
    units["trace.spans"] = "count"
    units["bench.calibration_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    return units

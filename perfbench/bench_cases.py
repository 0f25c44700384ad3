"""Workload inputs and case execution for the subconverge benchmark.

A workload is a list of *chunks*; a chunk is a list of case specs
``(name, kind, params)``.  Every spec is plain data drawn from the
seed, so the same seed always gives the same cases.  ``run_case``
executes one spec against the package's public API and returns an
``Outcome``.  All calls into the package go through a tracer (see
``bench_trace``); the null tracer makes them plain calls.

Nothing here imports ``subconverge`` at module load: the set-up probe
times that import itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import struct
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("orbit-long", "bound-sweep", "cli-cold")

# Acceptance oracles pinned from the test suite (sp3 from (1, 1, 1)).
CROSSING_K1 = 14
CROSSING_K2 = 25
ENTRIES_K3 = (132, 166)
ALPHA_K3 = 0.0549647352569813
U_BAR_K3 = 2.0711758192373013
ALPHA_TOL = 1e-9          # a closed-form alpha may replace the scan
U_BAR_TOL = 1e-2          # empirical tail limit, as in the acceptance test

ORBIT_STEPS = 30_000
SWEEP_STEPS = 300
SWEEP_ROUNDS_PER_CHUNK = 10
SWEEP_CHUNKS = 48
FOLD_TOL = 1e-9

# Cases (by name or kind) that fail at the seed commit because of a
# known program defect, with the start of the failure they give.  They
# stay in the draws, are timed like every other case and are reported by
# name and as ``oracle.known_defect_frac``.  Any other failure counts in
# ``failed`` and makes the run incorrect.
KNOWN_DEFECTS = {
    "sigmoid-bh-c0": (
        "violated verdict",
        "ROADMAP item 2: with c=0 the map equals its bound, and the "
        "(v + b) - b round trip in translate_to_origin lifts a term a few "
        "ulps above h(x): a false 'violated' in most draws"),
    "sigmoid-bh": (
        "violated verdict",
        "ROADMAP item 2: the same round trip near convergence gives a "
        "false 'violated' in about 1% of c>0 draws"),
    "threed-converging": (
        "raised DomainError",
        "a converging threed orbit raises DomainError once z underflows "
        "to 0.0"),
    "competition-extinct-fold": (
        "raised ZeroDivisionError",
        "check_fold_consistency divides by zero in the competition sigma "
        "once x underflows to 0.0"),
    "cli-analyze-sigmoid-bh-c0": (
        "exit 4 ",
        "ROADMAP item 2: 'analyze --model sigmoid-bh --a 0.7 --b 2.6 --p 2 "
        "--init 3.2 --steps 40' exits 4"),
}


@dataclass
class Outcome:
    """What one case produced.  ``series`` holds the raw trajectories
    (or CLI stdout) for the digest, which is taken outside the timed
    region."""

    terms: int = 0
    failure: Optional[str] = None
    series: list = field(default_factory=list)
    json_bytes: int = 0


def digest(series) -> str:
    """SHA-256 over the exact bits of every term, in order."""
    h = hashlib.sha256()
    for terms in series:
        if isinstance(terms, str):
            h.update(terms.encode())
        else:
            h.update(struct.pack("<%dd" % len(terms), *terms))
    return h.hexdigest()[:16]


# -- input generation ----------------------------------------------------


def _orbit_long() -> list:
    s = ORBIT_STEPS
    return [
        ("sp3-k1", "sp3", {"k": 1, "init": (1.0, 1.0, 1.0), "steps": s,
                           "oracle": "k1"}),
        ("sp3-k2", "sp3", {"k": 2, "init": (1.0, 1.0, 1.0), "steps": s,
                           "oracle": "k2"}),
        ("sp3-k3", "sp3", {"k": 3, "init": (1.0, 1.0, 1.0), "steps": s,
                           "oracle": "k3"}),
        ("ricker-m3-periodic-tabulated", "ricker",
         {"lam": 1.8, "k": 2, "a": ("periodic", (0.5, 1.0, 1.5)),
          "b": (("constant", 0.4), ("tabulated", (0.5, 0.7, 0.6, 0.8), 0.6),
                ("constant", 0.3)),
          "init": (0.5, 1.0, 1.5), "steps": s}),
        ("sigmoid-bh-c1", "sigmoid-bh",
         {"a": 2.0, "c": 1.0, "q": 2.0, "p": 3, "b": 1.0, "k": 1, "l": 2,
          "init": (1.1, 1.1), "steps": s}),
        ("sigmoid-bh-c0", "sigmoid-bh-c0",
         {"a": 0.7, "c": 0.0, "q": 1.0, "p": 2, "b": 2.6, "k": 1, "l": 1,
          "init": (3.2,), "steps": s}),
        ("adult-juvenile-fold", "adult-juvenile",
         {"s": 0.8, "t": 1.0, "r": 2.0, "lam": 2.0, "init": (1.0, 1.0),
          "steps": s, "fold": True}),
        ("competition-coexist-fold", "competition",
         {"prm": (3.0, 3.0, 1.0, 1.0, 2.0, 2.0, 0.3, 0.3),
          "init": (2.0, 1.0), "steps": s, "fold": True}),
        ("competition-extinct-fold", "competition-extinct-fold",
         {"prm": (3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 0.5, 0.5),
          "init": (1.5, 1.5), "steps": s, "fold": True}),
        ("threed-fold", "threed",
         {"prm": (1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0),
          "init": (0.9, 1.1, 1.0), "steps": s}),
        ("threed-converging", "threed-converging",
         {"prm": (-1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.5, 1.0),
          "init": (0.5, 0.0, 0.5), "steps": s}),
    ]


def _sweep_round(rng: random.Random, tag: str) -> list:
    """One case of every bound-sweep kind, parameters drawn from rng."""
    u = rng.uniform
    cases = []
    for coeffs in ("constant", "periodic", "tabulated"):
        m = rng.randint(1, 4)
        k = rng.randint(1, m)
        if coeffs == "periodic":
            a = ("periodic", tuple(u(0.0, 2.0)
                                   for _ in range(rng.randint(2, 5))))
        else:
            a = ("constant", u(0.0, 2.0))
        b = [("constant", u(0.1, 1.5)) for _ in range(m)]
        if coeffs == "tabulated":
            b[k - 1] = ("tabulated", tuple(u(0.1, 1.5) for _ in
                                           range(rng.randint(3, 20))),
                        u(0.1, 1.5))
        cases.append(("ricker-%s%s" % (coeffs, tag), "ricker",
                      {"lam": u(1.2, 2.5), "k": k, "a": a, "b": tuple(b),
                       "init": tuple(u(0.05, 3.0) for _ in range(m)),
                       "steps": SWEEP_STEPS}))
    k = rng.randint(1, 3)
    cases.append(("sp3%s" % tag, "sp3",
                  {"k": k, "rigorous": k == 1 and rng.random() < 0.5,
                   "init": tuple(u(0.05, 3.0) for _ in range(3)),
                   "steps": SWEEP_STEPS}))
    for kind in ("sigmoid-bh-c0", "sigmoid-bh"):
        p = rng.choice((2, 3, "4/3"))
        a = u(0.3, 2.5)
        b = u(0.5, 3.0)
        k, l = rng.randint(1, 2), rng.randint(1, 2)
        p_f = 4.0 / 3.0 if p == "4/3" else float(p)
        alpha = a ** (-1.0 / (p_f - 1.0))
        lo, hi = max(0.0, b - alpha), b + alpha
        cases.append(("%s%s" % (kind, tag), kind,
                      {"a": a, "c": 0.0 if kind == "sigmoid-bh-c0"
                       else u(0.2, 2.0), "q": u(0.5, 2.0), "p": p, "b": b,
                       "k": k, "l": l,
                       "init": tuple(u(lo, hi) for _ in range(max(k, l))),
                       "steps": SWEEP_STEPS}))
    for kind in ("competition", "competition-swapped"):
        cases.append(("%s%s" % (kind, tag), kind,
                      {"prm": (u(0.5, 3.0), u(0.5, 3.0), u(0.5, 3.0),
                               u(0.5, 3.0), u(1.5, 3.0), u(1.5, 3.0),
                               u(0.0, 1.0), u(0.0, 1.0)),
                       "init": (u(0.1, 5.0), u(0.1, 5.0)),
                       "steps": SWEEP_STEPS}))
    cases.append(("adult-juvenile%s" % tag, "adult-juvenile",
                  {"s": u(0.3, 1.0), "t": u(0.5, 2.0), "r": u(0.5, 3.0),
                   "lam": u(1.2, 3.0), "init": (u(0.1, 3.0), u(0.1, 3.0)),
                   "steps": SWEEP_STEPS}))
    return cases


def _cli_cold(config_path: str) -> list:
    def c(name, *args, oracle=None):
        return (name, "cli", {"args": args, "exit": 0, "oracle": oracle})
    return [
        c("cli-models", "models", oracle="models"),
        c("cli-simulate-sp3", "simulate", "--model", "sp3", "--k", "3",
          "--init", "1,1,1", "--steps", "300"),
        c("cli-simulate-ricker-json", "simulate", "--model", "ricker",
          "--lambda", "1.8", "--k", "2", "--b", "0.4,0.7,0.3", "--a", "1",
          "--init", "0.5,1,1.5", "--steps", "300", "--format", "json"),
        c("cli-analyze-sp3-k1", "analyze", "--model", "sp3", "--k", "1",
          "--init", "1,1,1", "--steps", "250", oracle="k1"),
        c("cli-analyze-sp3-k2", "analyze", "--model", "sp3", "--k", "2",
          "--init", "1,1,1", "--steps", "300", oracle="k2"),
        c("cli-analyze-sp3-k3", "analyze", "--model", "sp3", "--k", "3",
          "--init", "1,1,1", "--steps", "450", oracle="k3"),
        c("cli-analyze-ricker", "analyze", "--model", "ricker", "--lambda",
          "2", "--a", "1", "--b", "1", "--init", "0.5", "--steps", "300"),
        c("cli-analyze-sigmoid-bh-c1", "analyze", "--model", "sigmoid-bh",
          "--a", "2", "--c", "1", "--q", "2", "--p", "3", "--b", "1", "--k",
          "1", "--l", "2", "--init", "1.1,1.1", "--steps", "300"),
        c("cli-analyze-sigmoid-bh-c0", "analyze", "--model", "sigmoid-bh",
          "--a", "0.7", "--b", "2.6", "--p", "2", "--init", "3.2",
          "--steps", "40"),
        c("cli-analyze-adult-juvenile", "analyze", "--model",
          "adult-juvenile", "--init", "1,1", "--steps", "300"),
        c("cli-threshold-sp3-json", "threshold", "--model", "sp3", "--k",
          "3", "--json", oracle="threshold-k3"),
        c("cli-fold-adult-juvenile", "fold", "--model", "adult-juvenile",
          "--init", "1,1", "--steps", "100"),
        c("cli-fold-threed", "fold", "--model", "threed", "--init",
          "0.9,1.1,1", "--steps", "100"),
        c("cli-simulate-config", "simulate", "--config", config_path,
          "--format", "json"),
    ]


CLI_CONFIG = {"schema": 1, "model": "sp3", "params": {"k": 2},
              "initial": [1, 1, 1], "steps": 300}


def generate(workload: str, seed: int, out_dir: str) -> list:
    """The workload's chunks for this seed.

    orbit-long and cli-cold repeat one fixed chunk (their pinned oracles
    need fixed inputs); bound-sweep draws every chunk from the seed.
    """
    if workload == "orbit-long":
        return [_orbit_long()]
    if workload == "cli-cold":
        path = os.path.join(out_dir, "cli-config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(CLI_CONFIG, fh)
        return [_cli_cold(path)]
    if workload == "bound-sweep":
        chunks = []
        for i in range(SWEEP_CHUNKS):
            rng = random.Random("%d:%d" % (seed, i))
            chunk = []
            for j in range(SWEEP_ROUNDS_PER_CHUNK):
                chunk += _sweep_round(rng, "#%d.%d" % (i, j))
            chunks.append(chunk)
        return chunks
    raise ValueError("unknown workload %r" % workload)


def probe_cases() -> list:
    """A small fixed chunk that reaches every library layer: the
    orbit-long set at 2,000 steps plus one bound-sweep round."""
    short = [(name, kind, dict(p, steps=2_000))
             for name, kind, p in _orbit_long()]
    return short + _sweep_round(random.Random("probe"), "#probe")


# -- case execution ------------------------------------------------------


def _seq(desc):
    import subconverge as sc
    if desc[0] == "constant":
        return sc.ParameterSequence.constant(desc[1])
    if desc[0] == "periodic":
        return sc.ParameterSequence.periodic(desc[1])
    return sc.ParameterSequence.tabulated(desc[1], desc[2])


def _report(tr, eq, bound, traj, out: Outcome, family: str,
            oracle: Optional[str] = None):
    """build_report + to_json, then judge the report."""
    import subconverge as sc
    with tr.span("analysis.build_report", terms=len(traj.terms)):
        report = sc.build_report(eq, bound, traj)
    with tr.span("reports.to_json"):
        text = report.to_json()
    out.json_bytes += len(text)
    out.terms += len(traj.terms)
    out.series.append(traj.terms)
    out.failure = judge(report, traj, family, bound, oracle)


def judge(report, traj, family: str, bound=None,
          oracle: Optional[str] = None) -> Optional[str]:
    """Why a scalar case failed, or None: a truncated trajectory, any
    'violated' verdict, or a missed pinned oracle."""
    if traj.truncated:
        return "trajectory truncated: %s" % traj.diagnostic
    if report.any_violated:
        return "violated verdict (%s)" % family
    if oracle:
        return check_sp3_oracle(oracle, report, bound)
    return None


def _iterate(tr, eq, init, steps, family):
    import subconverge as sc
    eq = tr.count_evals(eq)
    with tr.span("dynamics.iterate", family=family) as s:
        traj = sc.iterate(eq, init, steps)
    s.attrs["steps"] = len(traj.terms) - eq.order
    return traj


def check_sp3_oracle(which: str, report, bound) -> Optional[str]:
    """The pinned acceptance oracle for an sp3 orbit from (1, 1, 1)."""
    starts = {p.residue_class: p.start_index for p in report.predictions
              if p.verdict == "converging-to-zero"}
    if which == "k1" and report.crossing_index != CROSSING_K1:
        return "k=1 crossing %r != %d" % (report.crossing_index, CROSSING_K1)
    if which == "k2" and (report.crossing_index != CROSSING_K2
                          or starts.get(CROSSING_K2 % 2) != CROSSING_K2):
        return "k=2 crossing %r != %d" % (report.crossing_index, CROSSING_K2)
    if which == "k3":
        if tuple(sorted(starts.values())) != ENTRIES_K3:
            return "k=3 entries %r != %r" % (starts, ENTRIES_K3)
        if abs(bound.alpha - ALPHA_K3) > ALPHA_TOL:
            return "k=3 alpha %r != %r" % (bound.alpha, ALPHA_K3)
        third = [c for c in report.limits if c.residue_class == 2]
        if not third or third[0].value is None or \
                abs(third[0].value - U_BAR_K3) > U_BAR_TOL:
            return "k=3 third class limit != u_bar %r" % U_BAR_K3
    return None


def _run_sp3(p, tr, out):
    import subconverge as sc
    with tr.span("models.build", family="sp3"):
        eq, bound = sc.make_sp3(p["k"], rigorous=p.get("rigorous", False))
    traj = _iterate(tr, eq, p["init"], p["steps"], "sp3")
    _report(tr, eq, bound, traj, out, "sp3", p.get("oracle"))


def _run_ricker(p, tr, out):
    import subconverge as sc
    b = tuple(_seq(d) for d in p["b"])
    spec = sc.RickerFamilySpec(p["lam"], p["k"], len(b), _seq(p["a"]), b)
    with tr.span("models.build", family="ricker"):
        eq, bound = sc.make_generalized_ricker(spec)
    traj = _iterate(tr, eq, p["init"], p["steps"], "ricker")
    _report(tr, eq, bound, traj, out, "ricker")


def _run_sigmoid(p, tr, out):
    import subconverge as sc
    from fractions import Fraction
    spec = sc.SigmoidBHSpec(
        sc.ParameterSequence.constant(p["a"]),
        sc.ParameterSequence.constant(p["c"]),
        sc.ParameterSequence.constant(p["q"]),
        p=Fraction(p["p"]) if isinstance(p["p"], str) else p["p"],
        b=p["b"], k=p["k"], l=p["l"])
    with tr.span("models.build", family="sigmoid_bh"):
        eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), spec.b)
        bound = sc.sigmoid_bh_bound(spec)
    init = [v - spec.b for v in p["init"]]
    traj = _iterate(tr, eq, init, p["steps"], "sigmoid_bh")
    _report(tr, eq, bound, traj, out, "sigmoid_bh")


def _planar_system(kind, p, tr):
    import subconverge as sc
    if kind == "adult-juvenile":
        with tr.span("models.build", family="adult_juvenile"):
            return sc.make_adult_juvenile(p["s"], p["t"], p["r"], p["lam"])
    params = sc.CompetitionParams.make(*p["prm"])
    with tr.span("models.build", family="competition"):
        return sc.make_competition(params,
                                   swapped=kind == "competition-swapped")


def _run_planar(kind, p, tr, out):
    import subconverge as sc
    sysm = _planar_system(kind, p, tr)
    tail = kind == "competition"
    checked = tr.count_system(sysm)
    if tail:
        with tr.span("systems.tail_envelope"):
            verdict = sc.check_tail_envelope(checked)
    else:
        with tr.span("systems.alternating_envelopes"):
            verdict = sc.check_alternating_envelopes(checked)
    init = p["init"]
    with tr.span("systems.iterate_system") as s:
        orbit = sc.iterate_system(sysm, init, p["steps"])
    s.attrs["steps"] = len(orbit) - 1
    out.terms += len(orbit)
    out.series.append(tuple(orbit.xs) + tuple(orbit.ys))
    if not verdict.applicable:
        out.failure = "envelope criterion not applicable: %s" % verdict.reason
        return
    with tr.span("systems.predict"):
        if tail:
            report = sc.predict_tail_convergence(sysm, orbit, verdict.alpha)
        else:
            report = sc.predict_alternating_convergence(sysm, orbit,
                                                        verdict.alpha)
    with tr.span("reports.to_json"):
        text = report.to_json()
    out.json_bytes += len(text)
    if orbit.diagnostic:
        out.failure = "orbit truncated: %s" % orbit.diagnostic
    elif report.any_violated:
        out.failure = "violated verdict (%s)" % kind
    if p.get("fold"):
        with tr.span("systems.check_fold_consistency") as s:
            check = sc.check_fold_consistency(tr.count_sigma(sysm), init,
                                              p["steps"], FOLD_TOL)
        s.attrs["steps"] = check.steps
        out.terms += 2 * check.steps
        if not check.passed and out.failure is None:
            out.failure = "fold inconsistency: max deviation %g" % max(
                check.max_dev_x, check.max_dev_y)


def _run_threed(p, tr, out):
    import subconverge as sc
    with tr.span("models.build", family="threed"):
        sysm, eq = sc.make_3d_example(*p["prm"])
    with tr.span("models.threed_iterate") as s:
        states = sysm.iterate(p["init"], p["steps"])
    s.attrs["steps"] = len(states) - 1
    with tr.span("models.threed_iterate") as s:
        x_init = sysm.fold_initial(p["init"])
    s.attrs["steps"] = 2
    traj = _iterate(tr, eq, x_init, len(states) - 3, "threed_fold")
    xs = tuple(st[0] for st in states)
    out.terms += len(states) + len(traj.terms)
    out.series += [xs, traj.terms]
    worst = max((abs(a - b) / max(abs(a), abs(b), 1.0)
                 for a, b in zip(xs, traj.terms)), default=0.0)
    if worst > FOLD_TOL or len(traj.terms) != len(xs):
        out.failure = "threed fold deviates by %g" % worst


def _strict_json(text: str):
    def reject(token):
        raise ValueError("non-JSON token %s" % token)
    return json.loads(text, parse_constant=reject)


def check_cli_oracle(which: str, stdout: str) -> Optional[str]:
    """Pinned oracles on CLI output."""
    if which == "models":
        if "sp3" not in stdout.split():
            return "models list lacks sp3"
        return None
    data = _strict_json(stdout)
    if which == "threshold-k3":
        fps = data.get("fixed_points", {})
        if abs((fps.get("u_star") or math.inf) - ALPHA_K3) > ALPHA_TOL or \
                abs((fps.get("u_bar") or math.inf) - U_BAR_K3) > ALPHA_TOL:
            return "threshold k=3 fixed points %r" % fps
        return None
    starts = {p["residue_class"]: p["n0"] for p in data["predictions"]
              if p["verdict"] == "converging-to-zero"}
    if which == "k1" and data["n0"] != CROSSING_K1:
        return "cli k=1 crossing %r" % data["n0"]
    if which == "k2" and (data["n0"] != CROSSING_K2
                          or starts.get(CROSSING_K2 % 2) != CROSSING_K2):
        return "cli k=2 crossing %r" % data["n0"]
    if which == "k3" and tuple(sorted(starts.values())) != ENTRIES_K3:
        return "cli k=3 entries %r" % starts
    return None


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run_cli(p, tr, out, root, env):
    args = p["args"]
    with tr.span("cli.subprocess", command=args[0]):
        proc = subprocess.run([sys.executable, "-m", "subconverge.cli"]
                              + list(args), cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
    steps = [args[i + 1] for i, a in enumerate(args) if a == "--steps"]
    out.terms += int(steps[0]) if steps else (
        CLI_CONFIG["steps"] if "--config" in args else 0)
    out.json_bytes += len(proc.stdout)
    out.series.append(proc.stdout)
    if proc.returncode != p["exit"]:
        out.failure = "exit %d != %d: %s" % (
            proc.returncode, p["exit"], proc.stderr.strip()[-200:])
        return
    if "Traceback" in proc.stderr:
        out.failure = "traceback on stderr"
        return
    try:
        if "--json" in args or args[0] in ("analyze", "fold") or \
                "json" in args:
            _strict_json(proc.stdout)
        if p.get("oracle"):
            out.failure = check_cli_oracle(p["oracle"], proc.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        out.failure = "bad output: %s" % exc


def run_case(spec, tr, root: str = "", env: Optional[dict] = None
             ) -> Outcome:
    """Run one case; exceptions from the package become failures."""
    name, kind, p = spec
    out = Outcome()
    try:
        if kind == "sp3":
            _run_sp3(p, tr, out)
        elif kind == "ricker":
            _run_ricker(p, tr, out)
        elif kind in ("sigmoid-bh", "sigmoid-bh-c0"):
            _run_sigmoid(p, tr, out)
        elif kind in ("adult-juvenile", "competition", "competition-swapped",
                      "competition-extinct-fold"):
            _run_planar("competition" if kind == "competition-extinct-fold"
                        else kind, p, tr, out)
        elif kind in ("threed", "threed-converging"):
            _run_threed(p, tr, out)
        elif kind == "cli":
            _run_cli(p, tr, out, root, env)
        else:
            raise ValueError("unknown case kind %r" % kind)
    except Exception as exc:  # a raising case is a failed case
        out.failure = "raised %s: %s" % (type(exc).__name__, exc)
    return out


def known_defect(name: str, kind: str, failure: str) -> Optional[str]:
    """The known defect that explains this failure, if there is one."""
    for key in (name, kind):
        if key in KNOWN_DEFECTS and failure.startswith(KNOWN_DEFECTS[key][0]):
            return KNOWN_DEFECTS[key][1]
    return None

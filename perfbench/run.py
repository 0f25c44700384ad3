"""subconverge benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload orbit-long --seed 1 --seconds 12 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; ``--workload all`` runs every workload both ways and prints every
metric.  The last line of standard output is always
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit code 2 means the package sources were not found next to this
directory; nothing is printed on standard output then.

Each workload is a closed loop with one client: a case starts when the
previous one has finished.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

import bench_cases as bc  # noqa: E402  (sibling module)
import bench_trace as bt  # noqa: E402

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
SETUP_REPEATS = 5
REPLAY_CASES = 9


def _die(msg: str):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def bootstrap():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "subconverge", "__init__.py")):
        _die("no package sources at src/subconverge next to perfbench/")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import subconverge
    where = os.path.dirname(os.path.abspath(subconverge.__file__))
    if os.path.dirname(where) != SRC:
        _die("imported subconverge from %s, not from %s" % (where, SRC))
    return subconverge


# -- provenance ------------------------------------------------------------


def git_sha():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"),
                  encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(top: str) -> str:
    """Hash of every .py file under ``top``; identifies the code run."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(top)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, top).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# -- machine speed ---------------------------------------------------------
#
# The shared host's speed swings by up to 2x within a minute (the same
# orbit took 0.10 s and 0.20 s of wall and CPU time a few seconds
# apart).  Every timing is therefore scaled by how long a fixed piece of
# reference work took around it, and reported at the reference speed.
# In-process cases are scaled by a pure-Python loop.  Subprocess cases
# (cli-cold, and the set-up probes) are scaled by a fresh interpreter
# that imports click, because process start-up and imports drift apart
# from interpreter speed.  The raw timings go to provenance.

MAX_SLOWDOWN = 5


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of interpreter work: float maths,
    calls and list indexing.  It allocates no containers, so the garbage
    collector (and thus the program's heap) cannot slow it."""
    exp = math.exp
    buf = [0.0] * 8
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(40_000):
        x = exp(-i * 1e-5)
        acc += buf[i & 7] * x + x ** 1.5
        buf[i & 7] = x
    return time.perf_counter() - t0


REFERENCE_IMPORTS = "import click, dataclasses, fractions, json, typing"


def reference_process() -> float:
    """Seconds for a fresh interpreter that imports what the CLI imports
    besides the package itself (click and the stdlib modules it uses)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], cwd=ROOT,
                   check=True, timeout=60)
    return time.perf_counter() - t0


class SpeedGauge:
    """Reference-work samples taken between cases, at most ``every``
    seconds apart.  A time measured between samples b and b+1 is scaled
    by ``ref`` over their mean."""

    def __init__(self, probe, ref: float, every: float):
        self.probe, self.ref, self.every = probe, ref, every
        self.samples = [probe()]
        self.last = time.perf_counter()

    @staticmethod
    def for_workload(workload: str) -> "SpeedGauge":
        if workload == "cli-cold":
            return SpeedGauge.for_processes()
        if workload == "orbit-long":
            # cases of 50-300 ms: bracket each one, which halves the
            # spread of one case's scaled times across chunks
            return SpeedGauge(calibration_loop, 0.010, 0.0)
        return SpeedGauge(calibration_loop, 0.010, 0.25)

    @staticmethod
    def for_processes() -> "SpeedGauge":
        return SpeedGauge(reference_process, 0.110, 0.0)

    def maybe_sample(self, force=False):
        if force or time.perf_counter() - self.last >= self.every:
            self.samples.append(self.probe())
            self.last = time.perf_counter()

    def factor(self, b: int) -> float:
        return self.ref / (0.5 * (self.samples[b] + self.samples[b + 1]))


# -- set-up ----------------------------------------------------------------


def setup_probe(workload: str, seed: int):
    """Child side of the set-up measurement: import + input generation."""
    t0 = time.perf_counter()
    bootstrap()
    os.makedirs(OUT_DIR, exist_ok=True)
    bc.generate(workload, seed, OUT_DIR)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int):
    """Median set-up time over fresh interpreters (import is cold in
    each, as it is for a user): (scaled, raw) seconds."""
    gauge = SpeedGauge.for_processes()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            _die("set-up probe failed: %s" % proc.stderr.strip()[-300:])
        raw.append(float(proc.stdout.strip().splitlines()[-1]))
        gauge.maybe_sample(force=True)
        scaled.append(raw[-1] * gauge.factor(len(gauge.samples) - 2))
    return statistics.median(scaled), statistics.median(raw)


# -- running cases ---------------------------------------------------------


class Run:
    """Results of one phase: case times, terms, failures and per-chunk
    digests.  A chunk that runs again must give the same digests as its
    first run.  Call ``finish`` before reading the times."""

    def __init__(self, chunks, env, workload):
        self.chunks, self.env = chunks, env
        self.gauge = SpeedGauge.for_workload(workload)
        self.workload = workload
        self.timed = []              # (chunk number, raw seconds, sample)
        self.terms = 0
        self.json_bytes = 0
        self.failed = 0              # failures that are not known defects
        self.known = 0               # failures that are known defects
        self.failures = {}           # case name -> reason
        self.unexpected = {}         # case name -> reason, not known
        self.digests = {}            # chunk index -> case digests
        self.problems = []
        self.chunks_run = 0

    @property
    def attempted(self):
        return len(self.timed)

    def run_chunk(self, i, tr, cases=None):
        idx = i % len(self.chunks)
        traced = isinstance(tr, bt.Tracer)
        digs = []
        for spec in self.chunks[idx][:cases]:
            if traced:
                tr.case = spec[0]
            b = len(self.gauge.samples) - 1
            t0 = time.perf_counter()
            out = bc.run_case(spec, tr, ROOT, self.env)
            self.timed.append((self.chunks_run, time.perf_counter() - t0, b))
            self.terms += out.terms
            self.json_bytes += out.json_bytes
            digs.append(bc.digest(out.series))
            if out.failure is not None:
                self.failures[spec[0]] = out.failure
                if bc.known_defect(spec[0], spec[1], out.failure) is None:
                    self.failed += 1
                    self.unexpected[spec[0]] = out.failure
                else:
                    self.known += 1
            self.gauge.maybe_sample()
        self.chunks_run += 1
        seen = self.digests.setdefault(idx, digs)
        if seen[:len(digs)] != digs:
            self.problems.append("chunk %d gave different terms when run "
                                 "again" % idx)
        return digs

    def scaled_estimate(self) -> float:
        """Case time so far at the reference speed, each case scaled by
        the latest calibration sample before it."""
        return sum(t * self.gauge.ref / self.gauge.samples[b]
                   for _, t, b in self.timed)

    def finish(self):
        """Case and chunk times, scaled (``case_s``, ``chunk_s``) and raw
        (``raw_case_s``, ``raw_chunk_s``).  A chunk's time is the sum of
        its case times."""
        self.gauge.maybe_sample(force=True)
        self.raw_case_s = [t for _, t, _ in self.timed]
        self.case_s = [t * self.gauge.factor(b) for _, t, b in self.timed]
        self.chunk_s = [0.0] * self.chunks_run
        self.raw_chunk_s = [0.0] * self.chunks_run
        for (c, t, _), scaled in zip(self.timed, self.case_s):
            self.chunk_s[c] += scaled
            self.raw_chunk_s[c] += t
        return self


def closed_loop(run, seconds, tr):
    """Whole chunks, one case at a time, until their case times add up
    to ``seconds`` at the reference speed.  The number of cases, and so
    the tail percentile, then does not follow the host's speed swings.
    A slow host is cut off at MAX_SLOWDOWN times ``seconds`` of wall."""
    cutoff = time.perf_counter() + MAX_SLOWDOWN * seconds
    while run.chunks_run == 0 or (run.scaled_estimate() < seconds
                                  and time.perf_counter() < cutoff):
        run.run_chunk(run.chunks_run, tr)
    if run.chunks_run <= len(run.chunks):
        # no chunk ran twice: replay the first cases to check determinism
        again = Run(run.chunks, run.env, run.workload)
        digs = again.run_chunk(0, tr, REPLAY_CASES)
        if digs != run.digests[0][:len(digs)]:
            run.problems.append("replayed cases gave different terms")
    return run.finish()


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten cases beyond it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def percentile(values, p):
    xs = sorted(values)
    return xs[max(0, math.ceil(p / 100.0 * len(xs)) - 1)]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" \
        else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def check_record(key: str, record: dict, problems: list):
    """Compare digests and counters with an earlier run of the same code,
    workload and seed in this checkout, then store this run's."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "record-%s.json" % key)
    old = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    for field in ("digests", "counters"):
        if field in old and field in record and old[field] != record[field]:
            problems.append("%s differ from an earlier run of the same code "
                            "and seed" % field)
    old.update(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(old, fh, indent=1, sort_keys=True)


E2E_UNITS = {
    "setup_s": "s", "wall_s": "s", "case_p50_ms": "ms",
    "case_tail_ms": "ms", "terms_per_s": "1/s", "peak_rss_mb": "MB",
}


def emit(correct, run, metrics, units, provenance):
    for name, value in metrics.items():
        print("%-45s %16.6g %s" % (name, value, units[name]))
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct), "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def run_one(args):
    sc = bootstrap()
    w, seed = args.workload, args.seed
    setup_s, raw_setup_s = measure_setup(w, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    chunks = bc.generate(w, seed, OUT_DIR)
    env = bc.cli_env(ROOT)
    prov = {
        "git_sha": git_sha(), "src_sha256": tree_sha256(SRC),
        "bench_sha256": tree_sha256(HERE),
        "package_version": sc.__version__,
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "workload": w, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one client",
    }
    record_key = "%s-%d-%s-%s" % (w, seed, prov["src_sha256"],
                                  prov["bench_sha256"])
    if args.trace:
        return run_traced(args, chunks, env, prov, record_key)

    run = closed_loop(Run(chunks, env, w), args.seconds, bt.NullTracer())
    n = run.attempted
    tail_p = tail_percentile(n)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(run.chunk_s),
        "case_p50_ms": statistics.median(run.case_s) * 1e3,
        "case_tail_ms": percentile(run.case_s, tail_p) * 1e3,
        "terms_per_s": run.terms / sum(run.case_s),
        "peak_rss_mb": peak_rss_mb(w),
    }
    problems = list(run.problems)
    check_record(record_key, {"digests": {"0": run.digests[0]}}, problems)
    prov.update(_result_provenance(run, tail_p, problems))
    prov["raw"] = {
        "setup_s": raw_setup_s,
        "wall_s": statistics.median(run.raw_chunk_s),
        "case_p50_ms": statistics.median(run.raw_case_s) * 1e3,
        "case_tail_ms": percentile(run.raw_case_s, tail_p) * 1e3,
        "terms_per_s": run.terms / sum(run.raw_case_s),
        "calibration_s": statistics.median(run.gauge.samples),
        "reference_calibration_s": run.gauge.ref,
    }
    emit(not run.unexpected and not problems, run, metrics, E2E_UNITS, prov)
    return 0


def _result_provenance(run, tail_p, problems):
    return {
        "cases_attempted": run.attempted,
        "cases_failed": run.failed,
        "cases_known_defect": run.known,
        "known_defect_frac": run.known / run.attempted,
        "chunks_run": run.chunks_run,
        "tail_percentile": tail_p,
        "failures": {name: {"reason": why,
                            "known_defect": name not in run.unexpected}
                     for name, why in sorted(run.failures.items())},
        "chunk0_digest": bc.digest([",".join(run.digests[0])]),
        "problems": problems,
    }


def run_traced(args, chunks, env, prov, record_key):
    """Per-layer run: chunk 0 untraced for half the time, then chunk 0
    traced twice (the counters must repeat exactly), then the fixed
    probe chunk and the layer probes.  The scaled traced and untraced
    chunk-0 times give the tracing overhead."""
    w = args.workload
    plain = Run(chunks, env, w)
    deadline = time.perf_counter() + args.seconds / 2.0
    while plain.chunks_run < 2 or time.perf_counter() < deadline:
        plain.run_chunk(0, bt.NullTracer())
    plain.finish()
    tr = bt.Tracer()
    traced = Run(chunks, env, w)
    traced.digests = {0: plain.digests[0]}
    problems = list(plain.problems)
    tr.install()
    try:
        traced.run_chunk(0, tr)
        first = dict(tr.counts)
        traced.run_chunk(0, tr)
        second = {k: v - first[k] for k, v in tr.counts.items()}
        if first != second:
            problems.append("exact counters differ between two traced "
                            "runs of the same chunk: %r vs %r"
                            % (first, second))
        # a fixed chunk that reaches every library layer on every workload
        probe = Run([bc.probe_cases()], env, w)
        probe.run_chunk(0, tr)
        metrics = bt.probe_cli_dispatch(tr)
    finally:
        tr.uninstall()
    traced.finish()
    problems += traced.problems + probe.problems
    metrics.update(bt.span_metrics(tr))
    metrics.update(bt.probe_sequences())
    metrics.update(bt.probe_dynamics())
    metrics.update(bt.probe_misc())
    metrics.update(bt.probe_imports(ROOT, env))
    metrics["reports.json_bytes"] = traced.json_bytes // 2
    metrics["oracle.known_defect_frac"] = plain.known / plain.attempted
    metrics["bench.calibration_ms"] = statistics.median(
        plain.gauge.samples + traced.gauge.samples) * 1e3
    wall_plain = statistics.median(plain.chunk_s)
    wall_traced = statistics.median(traced.chunk_s)
    metrics["trace.overhead_pct"] = (wall_traced / wall_plain - 1.0) * 100.0
    counters = {k: metrics[k] for k in bt.COUNTERS + ("reports.json_bytes",)}
    check_record(record_key, {"counters": counters,
                              "digests": {"0": plain.digests[0]}}, problems)
    print(bt.format_table(tr))
    prov.update(_result_provenance(plain, None, problems))
    prov.update({"counters": counters, "wall_untraced_s": wall_plain,
                 "wall_traced_s": wall_traced})
    correct = not (plain.unexpected or traced.unexpected or probe.unexpected
                   or problems)
    units = bt.per_layer_units()
    emit(correct, plain, {k: metrics[k] for k in units}, units, prov)
    return 0


def run_all(args):
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for w in bc.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            print("== %s trace=%d" % (w, trace), flush=True)
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
            ok = ok and proc.returncode == 0 and \
                json.loads(last[0]).get("correct") is True
    print(json.dumps({"all_correct": ok}))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=bc.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

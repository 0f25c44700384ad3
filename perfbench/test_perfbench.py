"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402

sc = bench.bootstrap()

import bench_cases as bc  # noqa: E402
import bench_trace as bt  # noqa: E402


def test_seeded_generation_is_deterministic(tmp_path):
    out = str(tmp_path)
    first = bc.generate("bound-sweep", 7, out)
    assert first == bc.generate("bound-sweep", 7, out)
    assert first != bc.generate("bound-sweep", 8, out)
    assert bc.generate("orbit-long", 7, out) == bc.generate("orbit-long", 8,
                                                            out)
    assert bc.generate("cli-cold", 7, out) == bc.generate("cli-cold", 7, out)


def test_every_known_defect_names_a_generated_case(tmp_path):
    names = set()
    for w in bc.WORKLOADS:
        for chunk in bc.generate(w, 1, str(tmp_path))[:1]:
            names |= {spec[0] for spec in chunk} | {spec[1] for spec in chunk}
    assert set(bc.KNOWN_DEFECTS) <= names
    assert bc.known_defect("threed-converging", "threed-converging",
                           "raised DomainError: z_42 = 0.0") is not None
    assert bc.known_defect("threed-converging", "threed-converging",
                           "raised ValueError: x") is None


def with_verdict(report, residue, verdict):
    """A copy of ``report`` whose prediction for ``residue`` carries
    ``verdict``."""
    preds = tuple(replace(p, verdict=verdict) if p.residue_class == residue
                  else p for p in report.predictions)
    return replace(report, predictions=preds)


def test_oracle_flags_a_deliberately_wrong_verdict():
    eq, bound = sc.make_sp3(3)
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 450)
    report = sc.build_report(eq, bound, traj)
    assert bc.judge(report, traj, "sp3", bound, "k3") is None
    violated = with_verdict(report, 0, "violated")
    assert "violated" in bc.judge(violated, traj, "sp3", bound, "k3")
    # a wrong but non-alarming verdict still misses the pinned entries
    wrong = with_verdict(report, 1, "inconclusive")
    assert "entries" in bc.judge(wrong, traj, "sp3", bound, "k3")


def test_cli_oracle_flags_a_wrong_crossing():
    payload = {"n0": 14, "predictions": [
        {"residue_class": 0, "n0": 14, "verdict": "converging-to-zero"}]}
    assert bc.check_cli_oracle("k1", json.dumps(payload)) is None
    payload["n0"] = 15
    assert bc.check_cli_oracle("k1", json.dumps(payload)) is not None


def _run_cases(cases, tr):
    return [bc.digest(bc.run_case(spec, tr).series) for spec in cases]


def test_counters_repeat_and_tracing_keeps_terms_bit_identical():
    cases = [c for c in bc.probe_cases() if c[1] != "cli"][:8]
    plain = _run_cases(cases, bt.NullTracer())
    tr = bt.Tracer()
    tr.install()
    try:
        traced = _run_cases(cases, tr)
        first = dict(tr.counts)
        _run_cases(cases, tr)
    finally:
        tr.uninstall()
    second = {k: v - first[k] for k, v in tr.counts.items()}
    assert traced == plain
    assert first == second
    for key in ("dynamics.map_evals", "criteria.g_evals_threshold",
                "criteria.g_evals_validate", "criteria.chain_links"):
        assert first[key] > 0, key
    assert sc.models.solve_threshold is sc.criteria.solve_threshold


def test_per_layer_units_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == bt.per_layer_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(bench.E2E_UNITS)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "orbit-long", "--seconds", "1"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""

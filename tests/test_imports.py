"""The package's import footprint and its lazy namespace.

``import subconverge`` runs no submodule: each public name is imported
from its module on first use (PEP 562).  A scalar command, and ``fold``
of the 3D model, load neither ``systems`` nor the planar builders.  No
command loads ``click``; only ``analyze`` loads the analysis, and only a
command that reads a config, or writes ``simulate --format json``, the
config schema.  Footprints are read in fresh interpreters, since this
test process has long since imported everything.
"""

import json
import os
import subprocess
import sys

import pytest

import subconverge
from subconverge import planar

# The public names of the package; ``__all__`` lists exactly these.
PUBLIC = [
    'BoundingFunction', 'ChainResult', 'Classification', 'CompetitionParams',
    'ConvergenceReport', 'EnvelopeVerdict', 'EquationSpec', 'FixedPointResult',
    'FoldCheck', 'MODEL_NAMES', 'MonotoneResult', 'Orbit', 'ParameterSequence',
    'PlanarSystem', 'Prediction', 'RickerFamilySpec', 'SigmaForm',
    'SigmoidBHSpec', 'ThreeDSystem', 'ThresholdResult', 'ThresholdWindow',
    'Trajectory', 'analysis', 'analyze_residues', 'bisect', 'build_report',
    'check_alternating_envelopes', 'check_envelope_cycle',
    'check_fold_consistency', 'check_inequality_chain', 'check_tail_envelope',
    'classify_limit', 'competition_threshold', 'criteria', 'dynamics',
    'errors', 'evaluate_map', 'fold_initial', 'fold_planar', 'iterate',
    'iterate_system', 'make_3d_example', 'make_adult_juvenile',
    'make_competition', 'make_generalized_ricker', 'make_sigmoid_bh',
    'make_sp3', 'models', 'predict_alternating_convergence',
    'predict_envelope_cycle', 'predict_full_convergence',
    'predict_tail_convergence', 'reports', 'ricker_fixed_points',
    'ricker_threshold_condition', 'sequences', 'sigmoid_bh_bound',
    'sigmoid_bh_window', 'solve_threshold', 'swapped_competition_threshold',
    'symmetrize', 'systems', 'translate_to_origin', 'validate_bound',
    'verify_monotone_to_zero', 'verify_sublinearity',
]

# Run a CLI command in process, then print the package's and click's
# modules loaded.
_RUN = """
import json, sys
from subconverge.cli import main
try:
    main(sys.argv[1:])
except SystemExit as exc:
    assert not exc.code, exc.code
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("subconverge", "click"))))
"""


def _loaded(code: str, *args: str) -> list:
    """The modules a fresh interpreter has loaded after running ``code``,
    which prints those it looks for as its last line."""
    src = os.path.dirname(os.path.dirname(subconverge.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SCALAR = {
    "models": ["models"],
    "simulate-ricker": ["simulate", "--model", "ricker", "--steps", "20"],
    "analyze-sp3": ["analyze", "--model", "sp3", "--k", "3", "--init",
                    "1,1,1", "--steps", "300"],
    "threshold-sp3": ["threshold", "--model", "sp3", "--json"],
    "fold-threed": ["fold", "--model", "threed", "--init", "0.9,1.1,1",
                    "--steps", "50"],
}
PLANAR = ["analyze", "--model", "adult-juvenile", "--init", "1,1",
          "--steps", "20"]


@pytest.mark.parametrize("args", SCALAR.values(), ids=SCALAR)
def test_a_scalar_command_loads_no_planar_code(args):
    loaded = _loaded(_RUN, *args)
    assert "subconverge.models" in loaded
    assert "subconverge.systems" not in loaded
    assert "subconverge.planar" not in loaded


@pytest.mark.parametrize("args", SCALAR.values(), ids=SCALAR)
def test_a_command_loads_the_analysis_only_if_it_analyzes(args):
    loaded = _loaded(_RUN, *args)
    assert ("subconverge.analysis" in loaded) == (args[0] == "analyze")
    assert "subconverge.config" not in loaded
    assert not [m for m in loaded if m.startswith("click")]


def test_a_planar_command_loads_the_planar_code():
    loaded = _loaded(_RUN, *PLANAR)
    assert {"subconverge.planar", "subconverge.systems"} <= set(loaded)
    assert "subconverge.config" not in loaded
    assert not [m for m in loaded if m.startswith("click")]


def test_a_command_that_reads_a_config_loads_the_config(tmp_path):
    config = tmp_path / "sp3.json"
    config.write_text('{"model": "sp3", "steps": 30}')
    for args in (["analyze", "--config", str(config)],
                 ["simulate", "--model", "sp3", "--steps", "3", "--format",
                  "json"]):
        loaded = _loaded(_RUN, *args)
        assert "subconverge.config" in loaded
        assert not [m for m in loaded if m.startswith("click")]


def test_importing_the_cli_loads_no_click():
    loaded = _loaded("import json, sys, subconverge.cli\n"
                     "print(json.dumps([m for m in sys.modules "
                     "if m.split('.')[0] in ('subconverge', 'click')]))")
    assert "subconverge.cli" in loaded
    assert not [m for m in loaded if m.startswith("click")]


def test_importing_the_package_runs_no_submodule():
    loaded = _loaded("import json, sys, subconverge\n"
                     "assert subconverge.__version__\n"
                     "print(json.dumps([m for m in sys.modules "
                     "if m.startswith('subconverge')]))")
    assert loaded == ["subconverge"]


def test_all_lists_the_public_names():
    assert subconverge.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(subconverge, name) is not None, name
    assert subconverge.make_competition is planar.make_competition
    assert subconverge.systems.PlanarSystem is subconverge.PlanarSystem


def test_dir_lists_the_public_names():
    assert set(PUBLIC) <= set(dir(subconverge))


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from subconverge import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["make_sp3"] is subconverge.models.make_sp3


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        subconverge.no_such_name
    with pytest.raises(AttributeError):
        subconverge.models.no_such_name
    assert not hasattr(subconverge, "_private")

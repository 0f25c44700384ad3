"""Convergence criteria for subsequences of solutions of nonlinear,
non-autonomous difference equations and planar systems.

The core result implemented here: if the equation's map is dominated
through a single lag k by a continuous scalar bound g with g(0) = 0 and
g(u) < |u| near the origin, then any solution term entering the window
(-alpha, alpha) starts an arithmetic-progression subsequence (stride k)
that converges to zero.  The package supplies the bound machinery,
built-in population-model families with certified bounds, folding of
planar and 3D systems to scalar equations, and empirical verification
of the predictions.

Importing the package runs no submodule: each public name is imported
from its module on first use (PEP 562), so a scalar command never loads
the planar code.
"""

import sys

__version__ = "0.1.0"

# The module each public name is read from.
_SOURCES = {
    "analysis": ("Classification", "MonotoneResult", "analyze_residues",
                 "build_report", "classify_limit",
                 "verify_monotone_to_zero"),
    "criteria": ("BoundingFunction", "ThresholdResult", "bisect",
                 "check_inequality_chain", "solve_threshold", "symmetrize",
                 "validate_bound", "verify_sublinearity"),
    "dynamics": ("EquationSpec", "Orbit", "Trajectory", "iterate",
                 "iterate_system"),
    "models": ("MODEL_NAMES", "FixedPointResult", "RickerFamilySpec",
               "SigmoidBHSpec", "ThreeDSystem", "make_3d_example",
               "make_generalized_ricker", "make_sigmoid_bh", "make_sp3",
               "ricker_fixed_points", "ricker_threshold_condition",
               "sigmoid_bh_bound", "sigmoid_bh_window",
               "translate_to_origin"),
    "planar": ("CompetitionParams", "competition_threshold",
               "make_adult_juvenile", "make_competition",
               "swapped_competition_threshold"),
    "reports": ("ChainResult", "ConvergenceReport", "Prediction",
                "ThresholdWindow"),
    "sequences": ("ParameterSequence",),
    "systems": ("EnvelopeVerdict", "FoldCheck", "PlanarSystem",
                "SigmaForm", "check_alternating_envelopes",
                "check_envelope_cycle", "check_fold_consistency",
                "check_tail_envelope", "fold_initial", "fold_planar",
                "predict_alternating_convergence",
                "predict_envelope_cycle", "predict_tail_convergence"),
}
_WHERE = {name: module for module, names in _SOURCES.items()
          for name in names}
# The submodules the namespace binds; ``planar`` is reached through its
# names, or bound by importing it.
_WHERE.update((module, module) for module in (
    "analysis", "criteria", "dynamics", "errors", "models", "reports",
    "sequences", "systems"))

__all__ = sorted(_WHERE)


def __getattr__(name: str):
    module = _WHERE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    path = "%s.%s" % (__name__, module)
    __import__(path)    # the interpreter's import, which -X importtime logs
    value = sys.modules[path]
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

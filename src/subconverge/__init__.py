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
"""

from .analysis import (Classification, MonotoneResult, analyze_residues,
                       build_report, classify_limit, detect_crossing,
                       predict_subsequence_convergence,
                       verify_monotone_to_zero)
from .criteria import (BoundingFunction, ThresholdResult, bisect,
                       check_inequality_chain, predict_full_convergence,
                       solve_threshold, symmetrize, validate_bound,
                       verify_sublinearity)
from .dynamics import (EquationSpec, Trajectory, evaluate_map,
                       extract_subsequence, iterate)
from .models import (MODEL_NAMES, CompetitionParams, FixedPointResult,
                     RickerFamilySpec,
                     SigmoidBHSpec, ThreeDSystem, competition_threshold,
                     make_3d_example, make_adult_juvenile, make_competition,
                     make_generalized_ricker, make_sigmoid_bh, make_sp3,
                     ricker_fixed_points, ricker_threshold_condition,
                     sigmoid_bh_bound, sigmoid_bh_window,
                     swapped_competition_threshold, translate_to_origin)
from .reports import (ChainResult, ConvergenceReport, Prediction,
                      ThresholdWindow)
from .sequences import ParameterSequence
from .systems import (EnvelopeVerdict, FoldCheck, Orbit, PlanarSystem,
                      SigmaForm, check_alternating_envelopes,
                      check_envelope_cycle, check_fold_consistency,
                      check_tail_envelope, fold_initial, fold_planar,
                      iterate_system, predict_alternating_convergence,
                      predict_envelope_cycle, predict_tail_convergence,
                      solve_sigma)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

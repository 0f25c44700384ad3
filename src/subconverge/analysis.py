"""Per-residue-class analysis and empirical verification.

These functions inspect computed sequences: where each residue class
first enters the threshold window, whether a predicted subsequence
actually decreases monotonically, and which candidate value (zero, or a
fixed point of the bounding function) the tail settles on.
``analyze_residues`` is the one implementation of the criterion per
residue class; ``build_report`` (the scalar report) and the planar
envelope predictions are views of it.

Functions of ``criteria`` are looked up on that module at call time, so
a rebinding there (a tracer, a test double) reaches every caller.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, List, NamedTuple, Optional, Sequence

from . import criteria
from .criteria import BoundingFunction
from .dynamics import EquationSpec, Trajectory
from .reports import (CONVERGING_TO_FIXED_POINT, CONVERGING_TO_ZERO,
                      INCONCLUSIVE, VIOLATED, ChainResult, ConvergenceReport,
                      LimitClassification, Prediction, ThresholdWindow)

VERIFIED = "verified"
VIOLATION = "violation"

DEFAULT_ZERO_TOL = 1e-10
DEFAULT_LIMIT_TOL = 1e-3


class MonotoneResult(NamedTuple):
    status: str                     # verified | violation | inconclusive
    violation_index: Optional[int] = None
    final_value: Optional[float] = None


def verify_monotone_to_zero(subseq: Sequence[float],
                            tol: float = DEFAULT_ZERO_TOL) -> MonotoneResult:
    """Check strict decrease of |terms| down to (numerical) zero.

    An exact zero means the limit was reached.  Monotone sequences whose
    final term is still >= tol are inconclusive, not failures.
    """
    if not subseq:
        raise ValueError("subsequence must be non-empty")
    prev = abs(subseq[0])
    if prev == 0.0:
        return MonotoneResult(VERIFIED, final_value=0.0)
    for j in range(1, len(subseq)):
        cur = abs(subseq[j])
        if cur == 0.0:
            return MonotoneResult(VERIFIED, final_value=0.0)
        if cur >= prev:
            return MonotoneResult(VIOLATION, violation_index=j,
                                  final_value=subseq[-1])
        prev = cur
    if prev < tol:
        return MonotoneResult(VERIFIED, final_value=subseq[-1])
    return MonotoneResult(INCONCLUSIVE, final_value=subseq[-1])


class Classification(NamedTuple):
    kind: str                       # zero | fixed-point | inconclusive
    value: Optional[float]
    tail_mean: float
    tail_width: float


def classify_limit(subseq: Sequence[float], candidates: Sequence[float],
                   tol: float = DEFAULT_LIMIT_TOL) -> Classification:
    """Match the tail of a subsequence against candidate limits.

    The statistic is the mean of the last max(4, len/4) entries; the
    nearest candidate within tol wins, otherwise the verdict is
    inconclusive.  Tail width (max - min) measures how settled the tail
    is.
    """
    if not subseq:
        raise ValueError("subsequence must be non-empty")
    n_tail = min(len(subseq), max(4, len(subseq) // 4))
    tail = subseq[-n_tail:]
    mean = math.fsum(tail) / len(tail)
    width = max(tail) - min(tail)
    best = None
    for c in candidates:
        if best is None or abs(mean - c) < abs(mean - best):
            best = c
    if best is not None and abs(mean - best) <= tol and width <= 2 * tol:
        kind = "zero" if best == 0.0 else "fixed-point"
        return Classification(kind, best, mean, width)
    return Classification("inconclusive", None, mean, width)


def analyze_residues(terms: Sequence[float], stride: int,
                     chain: Optional[Callable[[int], ChainResult]],
                     window: ThresholdWindow, floor: int = 0,
                     candidates: Optional[Sequence[float]] = None,
                     zero_tol: float = DEFAULT_ZERO_TOL,
                     limit_tol: float = DEFAULT_LIMIT_TOL,
                     first_only: bool = False) -> ConvergenceReport:
    """The criterion on each residue class mod ``stride``.

    A class enters at its first index >= ``floor`` whose term is in the
    window (or exactly 0) and gets a zero-convergence prediction with
    ``chain(n0)`` (no chain if ``chain`` is None), VIOLATED if it fails.
    With ``candidates``, every class is also classified against them and
    a class that never enters but settles on a fixed point gets an
    empirical prediction.  ``first_only`` keeps the first crossing's
    class only.
    """
    lo, hi = window.lo, window.hi

    def entry(start: int, step: int) -> Optional[int]:
        return next((n for n in range(start, len(terms), step)
                     if lo < terms[n] < hi or terms[n] == 0.0), None)

    if first_only:
        first = entry(floor, 1)
        entries = {} if first is None else {first % stride: first}
    else:
        # Starting at floor, floor + 1, ... meets each class once.
        entries = {start % stride: entry(start, stride)
                   for start in range(floor, floor + stride)}
        first = min((n for n in entries.values() if n is not None),
                    default=None)
    predictions: List[Prediction] = []
    limits: List[LimitClassification] = []
    tails = {}
    for residue in sorted(entries):
        n0 = entries[residue]
        if n0 is None and candidates is None:
            continue
        sub = terms[residue if n0 is None else n0::stride]
        tails[residue] = list(sub[-8:])
        cls = None if candidates is None else \
            classify_limit(sub, candidates, limit_tol)
        if n0 is not None:
            links = None if chain is None else chain(n0)
            verdict = CONVERGING_TO_ZERO if links is None or links.holds \
                else VIOLATED
            note = "" if candidates is None else "monotone:%s" % \
                verify_monotone_to_zero(sub, zero_tol).status
            predictions.append(Prediction(residue, n0, stride, verdict,
                                          links, limit=0.0, note=note))
        elif cls.kind == "fixed-point":
            predictions.append(Prediction(
                residue, residue, stride, CONVERGING_TO_FIXED_POINT, None,
                limit=cls.value,
                note="empirical limit; not asserted by the criterion"))
        if cls is not None:
            limits.append(LimitClassification(residue, cls.kind, cls.value,
                                              cls.tail_mean, cls.tail_width))
    return ConvergenceReport(stride, window, first, tuple(predictions),
                             tuple(limits), subsequence_tails=tails)


def build_report(eq: EquationSpec, bound: BoundingFunction,
                 traj: Trajectory,
                 zero_tol: float = DEFAULT_ZERO_TOL,
                 limit_tol: float = DEFAULT_LIMIT_TOL) -> ConvergenceReport:
    """Full per-residue-class analysis of one trajectory.

    For each residue class mod k: find the window entry, verify the
    inequality chain and monotone decrease from there, and classify the
    tail limit.  Classes that never enter the window are still
    classified (they may settle on a positive fixed point of the bound).
    A VIOLATED verdict means the criterion's guarantee failed, i.e. the
    bound is invalid or there is a bug.  An unproven bound is
    grid-checked first; a bound whose stride is not the equation's
    dominant lag raises ValueError.
    """
    if bound.dominant_lag != eq.dominant_lag:
        raise ValueError("bound stride %d != equation dominant lag %d"
                         % (bound.dominant_lag, eq.dominant_lag))
    if bound.sublinear is None:
        bound = criteria.validate_bound(bound)
    k, h, terms = bound.dominant_lag, criteria.symmetrize(bound), traj.terms
    report = analyze_residues(
        terms, k, lambda n0: criteria.check_inequality_chain(terms, n0, k, h),
        bound.validity, criteria.chain_start_floor(eq.order, k),
        (0.0,) + tuple(bound.fixed_points), zero_tol, limit_tol)
    full_from = criteria.predict_full_convergence(eq, bound, traj)
    return replace(report, full_convergence_from=full_from)

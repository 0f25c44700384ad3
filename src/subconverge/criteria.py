"""The sufficient convergence criterion for subsequences of solutions.

The criterion: if |F_n(u_1, ..., u_m)| <= g(u_k) for a continuous g with
g(0) = 0 and g(u) < |u| on a window (-alpha, alpha) around the origin,
then any solution term entering that window starts a subsequence (with
stride k) that converges to zero.  This module owns the bounding-function
machinery: threshold solving, sublinearity falsification, the
symmetrized bound, the one link engine of scalar and planar chains, and
the one bisection every root search here uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import truediv
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import BoundValidationError, CriterionInapplicableError
from .reports import ChainResult, ThresholdWindow

ScalarMap = Callable[[float], float]

_GRID_POINTS = 10_000      # the threshold scan's and the sublinearity grid's
_ROOT_TOL = 1e-12          # the tangency search's ternary stop
_TANGENT_TOL = 1e-12       # a peak this close to the identity is a tangency

CLOSED_FORM, GRID = "closed-form", "grid"   # BoundingFunction.sublinear


class ThresholdResult(NamedTuple):
    """Smallest positive solution of g(u) = u, or +inf when g stays
    strictly below the identity."""

    alpha: float
    tangent: bool = False          # g touches the identity without crossing


@dataclass(frozen=True)
class BoundingFunction:
    """Scalar envelope g controlling the equation through its dominant lag.

    ``validity`` is the window (-alpha, alpha) intersected with the
    domain projection onto the dominant-lag axis.  ``sublinear`` says how
    g(u) < |u| on the window was established: CLOSED_FORM, GRID (a
    falsification test, evidence rather than proof) or None (not yet).
    ``informal`` marks envelopes that are not certified to dominate the
    map (user-supplied, or known-heuristic bounds).
    """

    g: ScalarMap
    alpha: float
    dominant_lag: int
    validity: ThresholdWindow
    tangent: bool = False
    sublinear: Optional[str] = None
    informal: bool = False
    g_domain: Tuple[float, float] = (-math.inf, math.inf)
    fixed_points: Tuple[float, ...] = ()
    name: str = "bound"

    def __call__(self, u: float) -> float:
        return self.g(u)


def symmetrize(bound: BoundingFunction) -> ScalarMap:
    """The even companion h(u) = max{g(u), g(-u)}.

    Where only one of +-u lies in g's domain, h uses the defined side
    (the window is the intersection with the domain projection, so the
    missing side never matters for the criterion).
    """
    g = bound.g
    lo, hi = bound.g_domain

    def h(u: float) -> float:
        vals = []
        if lo <= u <= hi:
            vals.append(g(u))
        if lo <= -u <= hi:
            vals.append(g(-u))
        if not vals:
            raise ValueError("u=%r outside the bound's domain" % u)
        return max(vals)

    return h


def bisect(lo: float, hi: float, lo_side: Callable[[float], bool],
           lo_end: bool = False) -> float:
    """Root of a sign change between ``lo`` and ``hi`` (in either order),
    bisected to adjacent doubles: each step moves ``lo`` to the midpoint
    ``0.5 * lo + 0.5 * hi`` (``0.5 * (lo + hi)`` away from the
    subnormals, without its overflow) when ``lo_side(mid)`` holds, else
    ``hi``, until the midpoint equals an end.  No tolerance; (0, the
    largest double) takes about 2,100 halvings, under the loop's bound.
    Returns the last midpoint or, with ``lo_end``, the last bracket's
    ``lo`` end: a point where ``lo_side`` held (or the initial ``lo``).
    """
    for _ in range(2200):
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            break
        if lo_side(mid):
            lo = mid
        else:
            hi = mid
    return lo if lo_end else 0.5 * lo + 0.5 * hi


def _peak_threshold(excess: float, u_peak: float,
                    log_ratio: Callable[[float], float],
                    root: Optional[Callable[[], float]] = None,
                    scale: float = 1.0) -> ThresholdResult:
    """The threshold of a cycle map that meets the identity at most twice
    and peaks over it by ``excess`` at u_peak (in any form that has the
    sign of map(u) - u): +inf (no root) for an excess below
    -_TANGENT_TOL * scale, a tangency for one in [-_TANGENT_TOL * scale,
    0] (the safe side only: the map <= u throughout), else (also for NaN)
    ``root()``, the lower root, by default the tangent window's end: the
    ``_lower_root`` below u_peak of ``log_ratio``(u) < -_TANGENT_TOL, for
    ln(map(u)/u) or (map(u) - u)/u.  Nearer the peak the computed map
    rounds onto u (a failed link) or above it about as often as below."""
    def margin() -> float:
        return _lower_root(lambda u: log_ratio(u) < -_TANGENT_TOL, u_peak,
                           "the cycle map")

    if -_TANGENT_TOL * scale <= excess <= 0:
        return ThresholdResult(margin(), tangent=True)
    return ThresholdResult(math.inf if excess < 0 else (root or margin)())


def _lower_root(below: Callable[[float], bool], peak: float,
                cycle: str) -> float:
    """The end where ``below`` holds (``cycle`` <= u) of (0, peak)
    bisected to adjacent doubles; CriterionInapplicableError for a root
    below the smallest positive double."""
    u = bisect(0.0, peak, below, lo_end=True)
    if not u:
        raise CriterionInapplicableError(
            "%s >= u down to the smallest positive double" % cycle)
    return u


def _scan_grid(search_hi: float) -> List[float]:
    """The threshold scan's points, ascending and without repeats: a
    linear grid search_hi * i / _GRID_POINTS (i = 1 .. _GRID_POINTS) and
    900 log-spaced points over the 30 decades below search_hi, so roots
    many orders of magnitude below search_hi are not stepped over.
    Where search_hi * i overflows, a linear point is search_hi *
    (i / _GRID_POINTS); the last one is search_hi itself, its exact
    value.  So every point is finite and at most search_hi."""
    linear = [v / _GRID_POINTS if (v := search_hi * i) < math.inf
              else search_hi * (i / _GRID_POINTS)
              for i in range(1, _GRID_POINTS)]
    linear.append(search_hi)
    log_pts = [search_hi * 10.0 ** (-30.0 * i / 900) for i in range(1, 901)]
    return sorted(set(linear) | set(log_pts))


def _check_near_origin(fs: List[float]) -> None:
    """Sublinearity must hold near 0 for the criterion to mean anything:
    g(u) < u at one of the three smallest scan points at least."""
    if all(fu >= 0 for fu in fs[:3]):
        raise CriterionInapplicableError(
            "g(u) >= u arbitrarily close to 0; no positive threshold")


def solve_threshold(g: ScalarMap, search_hi: float) -> ThresholdResult:
    """Smallest positive root of g(u) = u on (0, search_hi].

    A sign-bracketing scan in ascending order locates the first crossing
    of g(u) - u, which ``bisect`` then refines to adjacent doubles,
    returning the end where g(u) < u; the scan stops there, so g is not
    evaluated above the first crossing.  An exact grid hit is the root
    unless g(u) < u just past it; such a touch, or no sign change, is
    decided by ``_peak_threshold`` on the ratio (g(u) - u) / u at the hit
    or at the ratio's peak: +inf, a tangency, or an unseparated pair.

    Raises CriterionInapplicableError when g(u) >= u already at the
    smallest sampled points, i.e. sublinearity fails near the origin.
    """
    if search_hi <= 0:
        raise ValueError("search_hi must be positive")

    def f(u: float) -> float:
        return g(u) - u

    # g(u)/u - 1: unlike g(u) - u, it does not vanish trivially near 0.
    def ratio(u: float) -> float:
        return f(u) / u

    grid: List[float] = []
    fs: List[float] = []
    for u in _scan_grid(search_hi):
        fu = g(u) - u
        # A crossing needs a negative value before it; among the first
        # three points that also rules out the near-origin failure.
        if fu >= 0 and fs and fs[-1] < 0:
            if fu != 0.0:
                return ThresholdResult(
                    bisect(grid[-1], u, lambda v: f(v) < 0, lo_end=True))
            # Exact grid hit: a touch if g(u) < u just past u.
            if f(u * (1.0 + 1e-6)) < 0:
                return _peak_threshold(0.0, u, ratio)
            return ThresholdResult(u)
        grid.append(u)
        fs.append(fu)
        if len(fs) == 3:
            _check_near_origin(fs)
    if len(fs) < 3:
        _check_near_origin(fs)

    # No crossing: search the peak of g(u)/u from the scanned ratios.
    ratios = list(map(truediv, fs, grid))
    i_best = ratios.index(max(ratios))       # its first maximum
    lo, hi = grid[max(0, i_best - 1)], grid[min(len(grid) - 1, i_best + 1)]
    for _ in range(200):
        if hi - lo <= _ROOT_TOL:
            break
        m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        if ratio(m1) < ratio(m2):
            lo = m1
        else:
            hi = m2
    u_t = 0.5 * (lo + hi)
    return _peak_threshold(ratio(u_t), u_t, ratio)


def verify_sublinearity(g: ScalarMap, window: ThresholdWindow
                        ) -> Tuple[bool, Optional[float]]:
    """Falsification check of g(u) < |u| on a uniform grid of
    ``_GRID_POINTS`` intervals over the window.

    Returns (True, None) when no counterexample is found, else
    (False, u) with the first violating grid point; a non-finite g(u)
    raises BoundValidationError.  A passing verdict is evidence, not
    proof.
    """
    lo, hi = window.lo, window.hi
    # Unbounded windows are spot-checked on a finite surrogate span.
    if math.isinf(hi):
        hi = (lo if math.isfinite(lo) else 0.0) + 100.0
    if math.isinf(lo):
        lo = hi - 100.0
    span = hi - lo
    for i in range(1, _GRID_POINTS):
        u = lo + span * i / _GRID_POINTS
        if u == 0.0:
            continue
        gu = g(u)
        if not -math.inf < gu < abs(u):     # fails on NaN and on +-inf too
            if not math.isfinite(gu):
                raise BoundValidationError("g non-finite at u=%r" % u)
            return False, u
    return True, None


def validate_bound(bound: BoundingFunction) -> BoundingFunction:
    """Check g(0)=0 (where defined) and grid-verify sublinearity on the
    validity window; returns the bound marked ``sublinear=GRID``."""
    lo, hi = bound.g_domain
    if lo <= 0 <= hi and bound.g(0.0) != 0.0:
        raise BoundValidationError("g(0) must be 0, got %r" % bound.g(0.0))
    ok, u_bad = verify_sublinearity(bound.g, bound.validity)
    if not ok:
        raise BoundValidationError(
            "sublinearity fails at u=%r inside the window" % u_bad)
    return replace(bound, sublinear=GRID)


def check_inequality_chain(terms: Sequence[float], n0: int, k: int,
                           cycle: Tuple[ScalarMap, ...]) -> ChainResult:
    """Verify the chain from x_{n0} link by link under a cycle of L maps
    e_0 .. e_{L-1} of |term|: link j runs from z_0 = x_{n0+jLk} through L
    stride-k steps, each |z_{i+1}| <= e_i(|z_i|), and closes with the last
    bound < |z_0|.  Only complete links are checked; an exact zero at a
    link's start is the limit, and ends the chain holding.
    """
    span = len(cycle) * k
    starts = range(n0, len(terms) - span, span)
    z = abs(terms[n0]) if starts else 0.0   # each term is read once
    for j, start in enumerate(starts):
        if z == 0.0:
            return ChainResult(True, links_checked=j, terminated_at_zero=j)
        first, i = z, start
        for e in cycle:
            bound = e(z)
            i += k
            z = abs(terms[i])
            if not z <= bound:
                return ChainResult(False, first_violation=j, links_checked=j)
        if not bound < first:
            return ChainResult(False, first_violation=j, links_checked=j)
    return ChainResult(True, links_checked=len(starts))


def chain_start_floor(order: int, k: int) -> int:
    """Smallest admissible entry index: every subsequent subsequence term
    must be generated by the map, so n0 + k >= order."""
    return max(0, order - k)

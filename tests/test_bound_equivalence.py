"""Bound construction and envelope checks against reference copies.

``solve_threshold`` stops its scan at the first crossing and reuses the
scanned values, ``verify_sublinearity`` tests each point with one
comparison, and the envelope checks evaluate each envelope value once.
The functions below are the earlier implementations, kept verbatim as
the oracle: on every input both must give the same result, or raise the
same exception with the same message.  Three intended differences are
pinned in their own tests: g is no longer evaluated above the first
crossing, so an error g would raise only there no longer surfaces; an
envelope is evaluated on the whole grid before the comparisons, so one
that cannot be evaluated there raises even where the old loop returned
a counterexample first; and an envelope check whose scan finds no
positive threshold returns an inapplicable verdict with the scan's
message, where the oracle raised CriterionInapplicableError.

Two intended differences move alpha, so alphas are compared within the
scan's 1e-12 bracket rather than by bits: ``solve_threshold`` bisects
to adjacent doubles and returns the end where g(u) < u (the oracle
returns the midpoint of a 1e-12 bracket), and a catalog system's own
envelope cycle takes its exact threshold instead of the scan's.  An
exact threshold may lie below the scan's smallest points (1e-29), where
the scan raised CriterionInapplicableError.  Where the oracle's grid hit
an exact touch point and read a tangency, the cycle map may pass above
u between two grid points below it; the exact threshold is then a root
below the oracle's alpha, accepted only with a witness u between the two
alphas where the cycle map is above u.

The scan's tangencies now follow the catalog's rule,
``criteria._peak_threshold``, read on the ratio (g(u) - u) / u at an
exact grid hit that is a touch, or at the ratio's peak.  A tangent
window ends where that ratio falls under -1e-12, about 1.4e-6 below
the oracle's touch point, so tangent alphas agree within 1e-5.  A peak
ratio in [-1e-10, -1e-12) reads +inf, where the oracle read a
tangency.  A peak above 0 that the grid did not separate is a pair:
its root is the tangent window's end, not flagged tangent, or a raise
where that end lies below the doubles.  Each move is pinned in its own
test.

The catalog's closed-form roots (``ricker_fixed_points``,
``competition_threshold``, ``swapped_competition_threshold``) now take
their lower root from one bisection of (0, peak) to adjacent doubles.
Their earlier versions, and the bisection with its 200-halving cap and
tolerance that they and the scan called (``ref_bisect``), are kept
verbatim below too.  Where the earlier bracket was exhausted, the
Ricker and competition roots keep their bits.  Where the cap cut it
short, the earlier alpha lay below the root (or was 0.0); the swapped
alpha may also move by a few ulps where its log-form predicate flips
more than once next to the root.  So every finite alpha is checked to
be the below-side end of an adjacent pair of doubles.
"""

import math
import sys
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subconverge as sc
from subconverge import criteria, models, planar
from subconverge.criteria import (ThresholdResult, solve_threshold,
                                  verify_sublinearity)
from subconverge.errors import (BoundValidationError,
                                CriterionInapplicableError,
                                ModelParameterError, NonFiniteError)
from subconverge.models import FixedPointResult, REGISTRY, ricker_fixed_points
from subconverge.planar import (CompetitionParams, _log_envelope,
                                competition_threshold,
                                swapped_competition_threshold)

S = sc.ParameterSequence
from subconverge.reports import ThresholdWindow
from subconverge.systems import (EnvelopeVerdict, _grid,
                                 check_alternating_envelopes,
                                 check_tail_envelope)

_DEFAULT_SCAN = 10_000
_DEFAULT_TOL = 1e-12
_TANGENCY_TOL = 1e-10
NEAR_ORIGIN = "g(u) >= u arbitrarily close to 0; no positive threshold"
MARGIN_BELOW_DOUBLES = ("the cycle map >= u down to the smallest positive "
                        "double")


# -- reference implementations (verbatim) --------------------------------


def ref_bisect(lo: float, hi: float, lo_side, tol=None,
               lo_end: bool = False) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (hi - lo <= tol) if tol is not None else (mid == lo or mid == hi):
            break
        if lo_side(mid):
            lo = mid
        else:
            hi = mid
    return lo if lo_end else 0.5 * (lo + hi)


def ref_solve_threshold(g, search_hi: float,
                        tol: float = _DEFAULT_TOL,
                        scan_points: int = _DEFAULT_SCAN) -> ThresholdResult:
    if search_hi <= 0:
        raise ValueError("search_hi must be positive")

    def f(u: float) -> float:
        return g(u) - u

    # Linear grid plus log-spaced points (30 decades below search_hi) so
    # roots many orders of magnitude below search_hi are not stepped over.
    linear = [search_hi * i / scan_points for i in range(1, scan_points + 1)]
    log_pts = [search_hi * 10.0 ** (-30.0 * i / 900) for i in range(1, 901)]
    grid = sorted(set(linear) | set(log_pts))
    fs = [f(u) for u in grid]

    # Sublinearity must hold near 0 for the criterion to mean anything.
    if all(fu >= 0 for fu in fs[:3]):
        raise CriterionInapplicableError(
            "g(u) >= u arbitrarily close to 0; no positive threshold")

    prev_u, prev_f = None, None
    for u, fu in zip(grid, fs):
        if fu >= 0 and prev_f is not None and prev_f < 0:
            if fu == 0.0:
                # Exact grid hit: look just past u to tell a transversal
                # crossing from a tangency.
                probe = f(u * (1.0 + 1e-6))
                return ThresholdResult(u, tangent=probe < 0)
            return ThresholdResult(
                ref_bisect(prev_u, u, lambda v: f(v) < 0, tol=tol))
        prev_u, prev_f = u, fu

    # No crossing: look for a tangency where g(u)/u comes up to 1.  The
    # ratio (not g - u itself) separates a genuine touch point from the
    # trivial vanishing of g - u near the origin.
    def ratio(u: float) -> float:
        return f(u) / u

    i_best = max(range(len(grid)), key=lambda i: ratio(grid[i]))
    lo = grid[max(0, i_best - 1)]
    hi = grid[min(len(grid) - 1, i_best + 1)]
    for _ in range(200):
        if hi - lo <= tol:
            break
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if ratio(m1) < ratio(m2):
            lo = m1
        else:
            hi = m2
    u_t = 0.5 * (lo + hi)
    if ratio(u_t) >= -_TANGENCY_TOL:
        return ThresholdResult(u_t, tangent=True)
    return ThresholdResult(math.inf)


def ref_verify_sublinearity(g, window: ThresholdWindow,
                            grid_points: int = _DEFAULT_SCAN):
    if grid_points < 2:
        raise ValueError("need at least 2 grid points")
    lo, hi = window.lo, window.hi
    # Unbounded windows are spot-checked on a finite surrogate span.
    if math.isinf(hi):
        hi = (lo if math.isfinite(lo) else 0.0) + 100.0
    if math.isinf(lo):
        lo = hi - 100.0
    for i in range(1, grid_points):
        u = lo + (hi - lo) * i / grid_points
        if u == 0.0:
            continue
        gu = g(u)
        if not math.isfinite(gu):
            raise BoundValidationError("g non-finite at u=%r" % u)
        if gu >= abs(u):
            return False, u
    return True, None


def ref_check_alternating_envelopes(sys, grid: int = 60,
                                    search_hi: float = 10.0
                                    ) -> EnvelopeVerdict:
    if sys.envelope_f is None or sys.envelope_g is None:
        return EnvelopeVerdict(False, reason="missing envelopes")
    fbar, gbar = sys.envelope_f, sys.envelope_g
    us = _grid(0.0, search_hi, grid)
    for n in sys.sample_steps:
        for u1 in us:
            for u2 in us:
                if sys.f(n, u1, u2) > fbar(u2):
                    return EnvelopeVerdict(
                        False, reason="f_n(u1,u2) > fbar(u2)",
                        counterexample=(n, u1, u2))
                if sys.g(n, u1, u2) > gbar(u1):
                    return EnvelopeVerdict(
                        False, reason="g_n(u1,u2) > gbar(u1)",
                        counterexample=(n, u1, u2))
    fine = _grid(0.0, search_hi, 10_000)
    for a, b in zip(fine, fine[1:]):
        if fbar(b) < fbar(a):
            return EnvelopeVerdict(False, reason="fbar not non-decreasing",
                                   counterexample=(a, b))
    res = ref_solve_threshold(lambda u: fbar(gbar(u)), search_hi)
    return EnvelopeVerdict(True, res.alpha, res.tangent)


def ref_check_tail_envelope(sys, grid: int = 60,
                            search_hi: float = 10.0) -> EnvelopeVerdict:
    if sys.envelope_f is None:
        return EnvelopeVerdict(False, reason="missing envelope")
    fbar = sys.envelope_f
    us = _grid(0.0, search_hi, grid)
    for n in sys.sample_steps:
        for u1 in us:
            for u2 in us:
                if sys.f(n, u1, u2) > fbar(u1):
                    return EnvelopeVerdict(
                        False, reason="f_n(u1,u2) > fbar(u1)",
                        counterexample=(n, u1, u2))
    res = ref_solve_threshold(fbar, search_hi)
    return EnvelopeVerdict(True, res.alpha, res.tangent)


_TANGENT_TOL = 1e-12
_INF, _MAX = math.inf, 1.7976931348623157e308


def ref_ricker_fixed_points(lam: float, a: float,
                            b: float) -> FixedPointResult:
    if lam <= 1 or b <= 0:
        raise ModelParameterError("need lam > 1 and b > 0")

    def phi(u: float) -> float:
        return (lam - 1.0) * math.log(u) - b * u + a

    u_max = (lam - 1.0) / b
    if u_max > _MAX:
        raise NonFiniteError("(lam-1)/b = %r is not finite" % u_max)
    peak = phi(u_max)
    if -_TANGENT_TOL <= peak <= 0:  # the safe side only: g <= u throughout
        return FixedPointResult("tangent", u_star=u_max, u_bar=u_max)
    if peak < 0:
        return FixedPointResult("none")

    def root(step: float) -> float:
        inner, outer = u_max, min(u_max * step, _MAX)
        while outer and outer != inner and phi(outer) > 0:
            inner, outer = outer, min(outer * step, _MAX)
        if not outer:
            raise CriterionInapplicableError(
                "g(u) >= u down to the smallest positive double")
        if outer == inner:
            raise NonFiniteError("a fixed point of g is not finite")
        # Above 1, at half scale (exact), so that no midpoint overflows.
        s = 0.5 if outer > 1.0 else 1.0
        return ref_bisect(outer * s, inner * s,
                          lambda v: phi(v / s) <= 0) / s

    u_star = root(0.5)
    if phi(u_star) > 0:
        u_star = math.nextafter(u_star, 0.0)
    return FixedPointResult("pair", u_star, root(2.0))


def ref_competition_threshold(r1: float, a1: float,
                              d1: float) -> ThresholdResult:
    if r1 <= 0 or a1 <= 0 or d1 <= 1:
        raise ModelParameterError("need r1, a1 > 0 and d1 > 1")
    if d1 == 2.0:
        disc = r1 * r1 - 4.0 * a1
        if disc < 0:
            return ThresholdResult(_INF)
        if disc == 0:
            return ThresholdResult(0.5 * r1, tangent=True)
        return ThresholdResult(a1 / (0.5 * (r1 + math.sqrt(disc))))

    def psi(u: float) -> float:
        return u ** d1 - r1 * u ** (d1 - 1.0) + a1

    u_min = r1 * (d1 - 1.0) / d1
    bottom = psi(u_min)
    if bottom > _TANGENT_TOL * a1:
        return ThresholdResult(_INF)
    if bottom >= 0:     # the safe side only: fbar <= u throughout
        return ThresholdResult(u_min, tangent=True)
    return ThresholdResult(ref_bisect(0.0, u_min, lambda u: psi(u) > 0,
                                      lo_end=True))


def ref_swapped_competition_threshold(r1: float, a1: float, d1: float,
                                      r2: float, a2: float, d2: float
                                      ) -> ThresholdResult:
    if min(r1, a1, r2, a2) <= 0 or d1 <= 1 or d2 <= 1:
        raise ModelParameterError("need r_i, a_i > 0 and d_i > 1")
    log_f1, slope1 = _log_envelope(r1, a1, d1)
    log_f2, slope2 = _log_envelope(r2, a2, d2)

    def phi(t: float) -> float:
        return log_f1(log_f2(t)) - t

    def rising(t: float) -> bool:   # phi'(t) > 0
        return slope1(log_f2(t)) * slope2(t) > 1.0

    # Bracket the peak by doubling steps from t = 0, then bisect phi'.
    last, step = 0.0, 1.0 if rising(0.0) else -1.0
    while rising(step) == (step > 0):
        last, step = step, 2.0 * step
    t_max = ref_bisect(min(last, step), max(last, step), rising)
    peak = phi(t_max)
    if -1e-12 <= peak <= 0:     # the safe side only: fbar1(fbar2(u)) <= u
        return ThresholdResult(math.exp(t_max), tangent=True)
    if peak < 0:
        return ThresholdResult(_INF)
    step = 1.0
    while phi(t_max - step) > 0:
        step *= 2.0
    u_lo, u_max = math.exp(t_max - step), math.exp(t_max)
    if not u_lo:        # the lower root may lie below the doubles
        u_lo = 5e-324
        if u_max <= u_lo or phi(math.log(u_lo)) > 0:
            raise CriterionInapplicableError(
                "fbar1(fbar2(u)) >= u down to the smallest positive double")
    return ThresholdResult(ref_bisect(u_lo, u_max,
                                      lambda u: phi(math.log(u)) <= 0,
                                      lo_end=True))


# -- comparison helpers --------------------------------------------------


def outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:        # compared, never swallowed
        return type(exc), str(exc)


def same(a, b) -> bool:
    """Equality, except that alphas (of a ThresholdResult or an
    EnvelopeVerdict) need only agree within the scan's bracket: 1e-12
    for a crossing, 1e-5 for a tangency.  Two NaN alphas (an inapplicable
    envelope verdict) are equal."""
    if not (isinstance(a, (ThresholdResult, EnvelopeVerdict))
            and type(a) is type(b)):
        return a == b
    close = (a.alpha == b.alpha or math.isnan(a.alpha) and math.isnan(b.alpha)
             or abs(a.alpha - b.alpha) <= (1e-5 if b.tangent else 1e-12))
    return close and a._replace(alpha=0.0) == b._replace(alpha=0.0)


def assert_threshold_same(g, search_hi):
    new = outcome(solve_threshold, g, search_hi)
    ref = outcome(ref_solve_threshold, g, search_hi)
    assert same(new, ref)
    if isinstance(new, ThresholdResult) and not new.tangent and \
            math.isfinite(new.alpha) and new.alpha != ref.alpha:
        assert g(new.alpha) - new.alpha < 0     # the g(u) < u end
    return new


def assert_sublinearity_same(g, window):
    new = outcome(verify_sublinearity, g, window)
    assert new == outcome(ref_verify_sublinearity, g, window)
    return new


def same_verdict(new, ref, cycle_map=None) -> bool:
    """``same``, or where the oracle's scan raised: an exact alpha below
    the points the scan started at, or the scan's message as the reason
    of an inapplicable verdict; or where the oracle read a tangency at a
    grid point that the cycle map passes above u before: a root below
    the oracle's alpha, shown by a witness u between the two alphas with
    ``cycle_map``(u) > u (the oracle's window would hold it)."""
    return same(new, ref) or (
        ref == (CriterionInapplicableError, NEAR_ORIGIN)
        and isinstance(new, EnvelopeVerdict)
        and (new.applicable and new.alpha < 1.2e-29
             or new == EnvelopeVerdict(False, reason=NEAR_ORIGIN))) or (
        cycle_map is not None and isinstance(ref, EnvelopeVerdict)
        and ref.applicable and ref.tangent
        and isinstance(new, EnvelopeVerdict) and new.applicable
        and not new.tangent and new.alpha < ref.alpha
        and any(cycle_map(u) > u for u in _grid(new.alpha, ref.alpha,
                                                 1000)[:-1]))


def assert_envelopes_same(sysm):
    fbar, gbar = sysm.envelope_f, sysm.envelope_g
    tail = outcome(check_tail_envelope, sysm)
    alt = outcome(check_alternating_envelopes, sysm)
    assert same_verdict(tail, outcome(ref_check_tail_envelope, sysm), fbar)
    assert same_verdict(alt, outcome(ref_check_alternating_envelopes, sysm),
                        lambda u: fbar(gbar(u)))
    return tail, alt


def ricker_g(lam, a, b):
    def g(u):
        return u ** lam * math.exp(a - b * u)
    return g


# -- cases named by the change -------------------------------------------


def test_finite_alpha_sp3():
    res = assert_threshold_same(ricker_g(1.5, 1.5, 0.9), 2 * 0.5 / 0.9)
    assert 0 < res.alpha < math.inf and not res.tangent


def test_alpha_inf_competition():
    sysm = REGISTRY["competition"].build(REGISTRY["competition"].coerce({}))
    tail, _ = assert_envelopes_same(sysm)
    assert tail.applicable and tail.alpha == math.inf


def test_tangency_competition():
    sysm = REGISTRY["competition"].build(
        REGISTRY["competition"].coerce({"r1": 2.0, "a1": 1.0}))
    tail, _ = assert_envelopes_same(sysm)
    assert tail.tangent and abs(tail.alpha - 1.0) < 1e-5


def test_inapplicable_near_origin():
    res = assert_threshold_same(lambda u: 2.0 * u, 1.0)
    assert res == (CriterionInapplicableError, NEAR_ORIGIN)


@pytest.mark.parametrize("above, below, raises", [
    (3, None, True),    # g(u) >= u at the three smallest points only
    (3, 4, True),       # ... and a crossing right after them
    (2, None, False),   # at the two smallest only: applicable
])
def test_near_origin_test_reads_the_first_three_points(above, below, raises):
    points = criteria._scan_grid(1.0)[:4]

    def g(u):
        if u <= points[above - 1] or below and u > points[below - 1]:
            return 2.0 * u
        return 0.5 * u

    res = outcome(solve_threshold, g, 1.0)
    assert (res == (CriterionInapplicableError, NEAR_ORIGIN)) == raises
    if raises:
        assert res == outcome(ref_solve_threshold, g, 1.0)
    else:
        # The ratio peaks at 1 among the two smallest points: a pair the
        # grid did not separate, whose root lies below the doubles.  The
        # oracle read a tangency at about 1e-30, where g(u) = 2u > u.
        assert ref_solve_threshold(g, 1.0).tangent
        assert res == (CriterionInapplicableError, MARGIN_BELOW_DOUBLES)


def test_two_point_grid():
    # The smallest subnormal search_hi leaves the grid [0.0, 5e-324].
    assert criteria._scan_grid(5e-324) == [0.0, 5e-324]
    assert assert_threshold_same(lambda u: 2.0 * u + 1.0, 5e-324) == \
        (CriterionInapplicableError, NEAR_ORIGIN)
    assert assert_threshold_same(lambda u: 0.5 * u - 1.0, 5e-324) == \
        (ZeroDivisionError, "float division by zero")


def tied_peaks(exponent):
    """g(u)/u peaks at 1 - 2^-exponent at the grid points 0.25 and 0.75,
    and is half that far below 1 within 2e-4 of them."""
    def g(u):
        if u in (0.25, 0.75):
            return u * (1.0 - 2.0 ** -exponent)
        if abs(u - 0.25) < 2e-4 or abs(u - 0.75) < 2e-4:
            return u * (1.0 - 2.0 ** (1 - exponent))
        return 0.5 * u
    return g


def test_tied_ratio_maximum_takes_the_first():
    # A peak ratio of -2^-37, below -1e-12, is no tangency (as in the
    # catalog); the oracle's 1e-10 band read one at 0.25.
    assert ref_solve_threshold(tied_peaks(37), 1.0).tangent
    assert solve_threshold(tied_peaks(37), 1.0) == ThresholdResult(math.inf)
    # Within the band the tangency search starts from the first peak, and
    # the window ends where the ratio falls under -1e-12 below it.
    # (0.75 would end it near 0.7498).
    res = solve_threshold(tied_peaks(41), 1.0)
    assert res.tangent and abs(res.alpha - 0.2498) < 1e-15


@pytest.mark.parametrize("g, tangent", [
    (lambda u: 2.0 * u * u, False),           # crosses at the grid's 0.5
    (lambda u: u - (u - 0.5) ** 2, True),     # touches it there
])
def test_exact_grid_hit(g, tangent):
    res = assert_threshold_same(g, 1.0)
    assert res.tangent == tangent
    if tangent:     # the window ends where (g(u) - u) / u < -1e-12
        assert 0.5 - 1e-6 < res.alpha < 0.5
        assert (g(res.alpha) - res.alpha) / res.alpha < -1e-12
    else:
        assert res.alpha == 0.5


def test_crossing_among_first_points():
    # g(u) - u changes sign between the first and second scan points.
    first, second = criteria._scan_grid(1.0)[:2]
    mid = 0.5 * (first + second)
    res = assert_threshold_same(lambda u: 2.0 * u - mid, 1.0)
    # The bracket was narrower than the old 1e-12 tolerance from the
    # start; bisected to adjacent doubles, alpha is the last double below
    # the root.
    assert res.alpha == math.nextafter(mid, 0.0)


def test_non_finite_and_violating_sublinearity():
    window = ThresholdWindow(-1.0, 1.0)
    assert assert_sublinearity_same(
        lambda u: math.nan if u > 0.5 else 0.5 * u, window)[0] \
        is BoundValidationError
    assert assert_sublinearity_same(
        lambda u: -math.inf if u < -0.5 else 0.0, window)[0] \
        is BoundValidationError
    assert assert_sublinearity_same(lambda u: 4.0 * u * u, window) \
        == (False, -0.9998)
    # g(u) = |u| exactly is a violation too.
    assert assert_sublinearity_same(
        lambda u: abs(u) if u >= 0.5 else 0.5 * abs(u), window) \
        == (False, 0.5)
    assert assert_sublinearity_same(
        lambda u: 0.5 * abs(u), ThresholdWindow(0.0, math.inf)) \
        == (True, None)


def test_overflow_above_the_crossing_no_longer_raises():
    # u^150 overflows for u > ~112, far above the root near 1; the old
    # scan evaluated g up to search_hi = 298 and raised.
    lam, a, b = 150.0, 0.0, 1.0
    g, search_hi = ricker_g(lam, a, b), 2.0 * (lam - 1.0) / b
    with pytest.raises(OverflowError):
        ref_solve_threshold(g, search_hi)

    def capped(u):          # g, with +inf where it would overflow
        try:
            return g(u)
        except OverflowError:
            return math.inf

    res = solve_threshold(g, search_hi)
    assert same(res, ref_solve_threshold(capped, search_hi))
    assert 1.0 < res.alpha < 1.1


def test_envelope_values_are_computed_before_the_grid_comparisons():
    # x^400 overflows above ~5.9: an envelope written as the plain quotient
    # cannot be evaluated on the whole grid.  The old tail check returned
    # its first counterexample before reaching those points; now the
    # envelope is evaluated on the grid first.  The alternating check,
    # which the CLI runs next, raised the same error on its monotonicity
    # grid.  The catalog's own fbar takes the quotient in logs where the
    # power overflows, so it no longer raises: the plain quotient below is
    # that fbar as it was, and replacing the envelope voids the
    # certificate, so the alternating check runs the grid.
    sysm = planar.make_competition(
        CompetitionParams.make(2, 2, 1, 1, 400, 2), swapped=True)
    plain = replace(sysm, envelope_f=lambda u: 2.0 * (ud := u ** 400.0) / (
        1.0 + ud + 0.0 * 0.0 ** 1.0))
    error = (OverflowError, "(34, 'Numerical result out of range')")
    assert ref_check_tail_envelope(plain).reason == "f_n(u1,u2) > fbar(u1)"
    assert outcome(check_tail_envelope, plain) == error
    assert outcome(ref_check_alternating_envelopes, plain) == error
    assert outcome(check_alternating_envelopes, plain) == error
    # The catalog's fbar is finite on the whole grid, and the checks agree
    # with their oracles on it.
    assert_envelopes_same(replace(sysm, certificate=None))
    assert check_alternating_envelopes(sysm).applicable


def test_a_scan_without_a_threshold_is_an_inapplicable_verdict():
    # s = 0.01 lets f = s v pass the tail grid of fbar = id; the scan of
    # the identity then finds no positive threshold.
    sysm = planar.make_adult_juvenile(0.01, 1.0, 2.0, 2.0)
    tail, alt = assert_envelopes_same(sysm)
    assert outcome(ref_check_tail_envelope, sysm) == \
        (CriterionInapplicableError, NEAR_ORIGIN)
    assert tail == EnvelopeVerdict(False, reason=NEAR_ORIGIN)
    assert alt.applicable


# -- property tests ------------------------------------------------------


# Up to the largest double: above ~1.8e304, search_hi * i overflows for
# the top linear points.
positive = st.floats(min_value=5e-324, allow_nan=False,
                     allow_infinity=False)


def ref_linear(search_hi):
    """The scan's linear points: search_hi * i / N, or search_hi * (i / N)
    where search_hi * i overflows, and search_hi itself for i = N."""
    return [search_hi * i / _DEFAULT_SCAN if search_hi * i < math.inf
            else search_hi * (i / _DEFAULT_SCAN)
            for i in range(1, _DEFAULT_SCAN)] + [search_hi]


@settings(max_examples=30, deadline=None)
@given(positive)
@example(sys.float_info.max)
@example(1.8e304)
@example(3.7469301455335216)    # search_hi * N / N rounds one ulp above
def test_scan_grid_equals_sorted_union(search_hi):
    log_pts = [search_hi * 10.0 ** (-30.0 * i / 900) for i in range(1, 901)]
    assert criteria._scan_grid(search_hi) == \
        sorted(set(ref_linear(search_hi)) | set(log_pts))


@settings(max_examples=30, deadline=None)
@given(positive)
@example(sys.float_info.max)
@example(1.8e304)
@example(3.7469301455335216)
def test_scan_grid_equals_sorted_union_default_size(search_hi):
    # The reference scans default to the library's grid size: every one
    # of the _DEFAULT_SCAN linear points is on the grid, which rises
    # strictly, and every point is finite and at most search_hi.
    assert criteria._GRID_POINTS == _DEFAULT_SCAN
    grid = criteria._scan_grid(search_hi)
    on_grid = set(grid)
    assert all(u in on_grid for u in ref_linear(search_hi))
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert all(math.isfinite(u) and u <= search_hi for u in grid)
    assert grid[-1] == search_hi


@settings(max_examples=60, deadline=None)
@given(st.floats(1.05, 4.0), st.floats(-2.0, 3.0), st.floats(0.05, 3.0),
       st.floats(0.5, 1.5))
def test_ricker_bounds_match(lam, a, b, scale):
    g = ricker_g(lam, a, b)
    res = assert_threshold_same(g, 2.0 * (lam - 1.0) / b)
    if isinstance(res, ThresholdResult) and math.isfinite(res.alpha):
        # The bound's own window, and a stretched one that may fail.
        assert_sublinearity_same(g, ThresholdWindow(0.0, res.alpha))
        assert_sublinearity_same(g, ThresholdWindow(0.0, res.alpha * scale))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([1, 2, 3]), st.booleans())
def test_sp3_bounds_match(k, rigorous):
    _, factory, _ = REGISTRY["sp3"].build(
        {"k": k, "rigorous": rigorous})
    bound = factory()
    assert_threshold_same(bound.g, 1.0)
    assert_sublinearity_same(bound.g, bound.validity)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.1, 5.0), st.sampled_from(["2", "3", "4/3"]),
       st.floats(0.0, 3.0), st.floats(0.5, 1.5))
def test_sigmoid_bh_bounds_match(a, p, b, scale):
    spec = models.SigmoidBHSpec(*REGISTRY["sigmoid-bh"].coerce(
        {"a": a, "p": p, "b": b}).values())
    bound = models.sigmoid_bh_bound(spec)
    window = bound.validity
    assert_sublinearity_same(bound.g, window)
    assert_sublinearity_same(bound.g, ThresholdWindow(window.lo * scale,
                                                      window.hi * scale))
    assert_threshold_same(bound.g, 4.0 * bound.alpha)


coefficient = st.one_of(st.floats(0.2, 4.0),
                        st.lists(st.floats(0.2, 4.0), min_size=2,
                                 max_size=3))


@settings(max_examples=25, deadline=None)
@given(st.booleans(), coefficient, coefficient, coefficient, coefficient,
       st.floats(1.1, 4.0), st.floats(1.1, 4.0), st.floats(0.0, 2.0),
       st.floats(0.0, 2.0), st.floats(0.2, 3.0), st.floats(0.2, 3.0))
def test_competition_envelopes_match(swapped, r1, r2, a1, a2, d1, d2, b1, b2,
                                     d3, d4):
    params = CompetitionParams.make(r1, r2, a1, a2, d1, d2, b1, b2, d3, d4)
    assert_envelopes_same(planar.make_competition(params, swapped=swapped))


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.floats(0.05, 1.0),
                 st.lists(st.floats(0.05, 1.0), min_size=2, max_size=3)),
       st.floats(0.2, 3.0), st.floats(-1.0, 4.0), st.floats(1.05, 4.0))
# The oracle's grid hits f(g(1)) = 1 and reads a tangency there, but the
# cycle map is above u by 2.96e-8 at 0.9995: the root is 0.99938.
@example(1.0, 1.0, 1.0, 1.9996906990692334)
def test_adult_juvenile_envelopes_match(s, t, r, lam):
    assert_envelopes_same(planar.make_adult_juvenile(s, t, r, lam))


def test_envelope_counterexamples_match():
    # Envelopes that fail each grid check, at their first failing point.
    aj = planar.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    below = replace(aj, envelope_f=lambda u: 0.5 * u)
    assert assert_envelopes_same(below)[1].reason == "f_n(u1,u2) > fbar(u2)"
    low_g = replace(aj, envelope_g=lambda u: 0.0)
    assert assert_envelopes_same(low_g)[1].reason == "g_n(u1,u2) > gbar(u1)"
    wavy = replace(aj, envelope_f=lambda u: u + 2.0 * abs(math.sin(u)))
    assert assert_envelopes_same(wavy)[1].reason == \
        "fbar not non-decreasing"
    no_f = replace(aj, envelope_f=None)
    assert [v.reason for v in assert_envelopes_same(no_f)] == \
        ["missing envelope", "missing envelopes"]
    no_g = replace(aj, envelope_g=None)
    assert assert_envelopes_same(no_g)[1].reason == "missing envelopes"


# -- evaluation counts ---------------------------------------------------
#
# Exact counts, so that a scan that runs past its crossing again, or an
# envelope value computed more than once, shows as a failure.  (Before
# the change: 10,924 threshold evaluations for sp3 k=3, and 25,499 /
# 45,497 + 25,499 / 34,523 + 14,525 envelope evaluations for the passing
# checks below.  The catalog's scalar bounds have since taken alpha from
# their closed forms: sp3 k=3 went from 1,380 scan and 10,000 grid
# evaluations to none.  The planar envelope cycles then took theirs from
# the systems' exact thresholds: the passing checks below went from
# 11,063 / 21,063 + 11,063 / 11,092 + 1,092 evaluations, the scan's
# share, to the grids alone.)


class Counter:
    def __init__(self):
        self.calls = {}

    def wrap(self, key, fn):
        def counted(*args):
            self.calls[key] = self.calls.get(key, 0) + 1
            return fn(*args)
        return counted


def count_scan_and_grid(monkeypatch) -> Counter:
    """Count g evaluations through the scan and the grid check, wherever
    they are called from."""
    count = Counter()
    solve, verify = criteria.solve_threshold, criteria.verify_sublinearity
    monkeypatch.setattr(criteria, "solve_threshold", lambda g, *a, **kw:
                        solve(count.wrap("threshold", g), *a, **kw))
    monkeypatch.setattr(criteria, "verify_sublinearity", lambda g, *a, **kw:
                        verify(count.wrap("validate", g), *a, **kw))
    return count


def test_sp3_k3_build_counts(monkeypatch):
    count = count_scan_and_grid(monkeypatch)
    _, bound = models.make_sp3(3)
    assert bound.alpha == 0.0549647352569813
    assert bound.sublinear == models.CLOSED_FORM
    assert count.calls == {}


@pytest.mark.parametrize("build", [
    lambda: models.make_sp3(1)[1],
    lambda: models.make_sp3(1, rigorous=True)[1],
    lambda: models.make_sp3(2)[1],
    lambda: models.make_generalized_ricker(models.RickerFamilySpec(
        1.8, 2, 3, S.periodic([1.0, 0.5]),
        (S.constant(0.4), S.tabulated([0.7, 0.9], 0.8), S.constant(0.3))))[1],
    lambda: models.sigmoid_bh_bound(models.SigmoidBHSpec(
        S.constant(2.0), S.constant(1.0), S.constant(2.0), 3, 1.0, 1, 2)),
], ids=["sp3-k1", "sp3-k1-rigorous", "sp3-k2", "ricker", "sigmoid-bh"])
def test_catalog_bounds_evaluate_g_zero_times(monkeypatch, build):
    count = count_scan_and_grid(monkeypatch)
    assert build().sublinear == models.CLOSED_FORM
    assert count.calls == {}
    # A user-supplied bound is still grid-checked before analysis.
    eq, bound = models.make_sp3(3)
    user = replace(bound, sublinear=None)
    sc.build_report(eq, user, sc.iterate(eq, (1.0, 1.0, 1.0), 5))
    assert count.calls == {"validate": 9_999}


@pytest.mark.parametrize("name, tail_counts, alt_counts", [
    ("competition", {"f": 60}, {"f": 60, "g": 60}),
    ("competition-swapped", {"f": 60}, {"f": 10_060, "g": 60}),
    ("adult-juvenile", {"f": 60}, {"f": 10_060, "g": 60}),
])
def test_envelope_check_counts(name, tail_counts, alt_counts):
    sysm = REGISTRY[name].build(REGISTRY[name].coerce({}))
    for check, expected in ((check_tail_envelope, tail_counts),
                            (check_alternating_envelopes, alt_counts)):
        count = Counter()
        check(replace(sysm, envelope_f=count.wrap("f", sysm.envelope_f),
                      envelope_g=count.wrap("g", sysm.envelope_g)))
        assert count.calls == expected, check.__name__


# -- the catalog's lower roots -------------------------------------------


def ricker_below(lam, a, b):
    return lambda u: (lam - 1.0) * math.log(u) - b * u + a <= 0


def competition_below(r1, a1, d1):
    return lambda u: u ** d1 - r1 * u ** (d1 - 1.0) + a1 > 0


def swapped_below(r1, a1, d1, r2, a2, d2):
    log_f1, _ = _log_envelope(r1, a1, d1)
    log_f2, _ = _log_envelope(r2, a2, d2)
    return lambda u: log_f1(log_f2(math.log(u))) - math.log(u) <= 0


def assert_below_side_end(alpha, below):
    """alpha is positive, below the root, and its upper neighbour is not."""
    assert alpha > 0 and below(alpha)
    assert not below(math.nextafter(alpha, math.inf))


def lower_root(solve, below, *args):
    """The solver's outcome, after checking its lower root: a below-side
    end of an adjacent pair, or a raise where the smallest positive
    double is not below the root."""
    res = outcome(solve, *args)
    if isinstance(res, tuple) and res[0] is CriterionInapplicableError:
        assert res[1].endswith("down to the smallest positive double")
        assert not below(5e-324)
    elif isinstance(res, FixedPointResult) and res.kind == "pair":
        assert_below_side_end(res.u_star, below)
    elif isinstance(res, ThresholdResult) and not res.tangent \
            and res.alpha != math.inf:
        assert_below_side_end(res.alpha, below)
    return res


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(1.05, 4.0), st.floats(4.0, 1e6)),
       st.floats(-50.0, 50.0), st.floats(-300.0, 3.0))
def test_ricker_fixed_points_match(lam, a, b_exp):
    b = 10.0 ** b_exp
    new = lower_root(ricker_fixed_points, ricker_below(lam, a, b), lam, a, b)
    assert new == outcome(ref_ricker_fixed_points, lam, a, b)


exponents = st.one_of(st.floats(1.001, 1.2), st.floats(1.2, 10.0))


@settings(max_examples=300, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-300.0, 300.0), exponents)
def test_competition_threshold_matches(r1_exp, a1_exp, d1):
    r1, a1 = 10.0 ** r1_exp, 10.0 ** a1_exp
    below = competition_below(r1, a1, d1)
    ref = outcome(ref_competition_threshold, r1, a1, d1)
    if d1 == 2.0:       # the closed quadratic form, untouched
        assert outcome(competition_threshold, r1, a1, d1) == ref
        return
    new = lower_root(competition_threshold, below, r1, a1, d1)
    if not isinstance(ref, ThresholdResult) or ref.tangent or \
            ref.alpha == math.inf or ref.alpha > 0 and \
            below(ref.alpha) and not below(math.nextafter(ref.alpha,
                                                          math.inf)):
        assert new == ref   # the oracle's bracket ended on adjacent doubles
    else:                   # the cap cut it short: alpha was below the root
        assert ref.alpha < getattr(new, "alpha", math.inf)


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.0, 3.0), st.floats(-300.0, 3.0), exponents,
       st.floats(-1.0, 3.0), st.floats(-300.0, 3.0), exponents)
def test_swapped_competition_threshold_ends_below_the_root(
        r1_exp, a1_exp, d1, r2_exp, a2_exp, d2):
    args = (10.0 ** r1_exp, 10.0 ** a1_exp, d1,
            10.0 ** r2_exp, 10.0 ** a2_exp, d2)
    new = lower_root(swapped_competition_threshold, swapped_below(*args),
                     *args)
    ref = outcome(ref_swapped_competition_threshold, *args)
    if not isinstance(ref, ThresholdResult) or ref.tangent or \
            ref.alpha == math.inf:
        assert new == ref


def test_a_deep_competition_root_is_found():
    # 200 halvings of (0, u_min) reach ~1e-60; the root is near 1e-150.
    assert ref_competition_threshold(1.0, 1e-300, 3.0).alpha == 0.0
    res = lower_root(competition_threshold, competition_below(
        1.0, 1e-300, 3.0), 1.0, 1e-300, 3.0)
    assert res == ThresholdResult(9.999999999999999e-151)


def test_a_competition_root_below_the_doubles_raises():
    # u^0.01 (u - 1) + 1e-30 = 0 near u = 1e-3000.
    assert ref_competition_threshold(1.0, 1e-30, 1.01).alpha == 0.0
    with pytest.raises(CriterionInapplicableError):
        competition_threshold(1.0, 1e-30, 1.01)


def test_a_deep_swapped_root_is_found():
    # The t-walk's bracket needed more than 200 halvings.
    args = (122.53623418225607, 5.974318695293356e-14, 1.3400950881042115,
            3.9217041985450445, 1.6765618155349744e-16, 1.0395263072887615)
    assert ref_swapped_competition_threshold(*args).alpha < 1e-136
    res = lower_root(swapped_competition_threshold, swapped_below(*args),
                     *args)
    assert res == ThresholdResult(1.7244882735314033e-95)

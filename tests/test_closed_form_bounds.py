"""The catalog's bounds against the scan and the grid check.

Ricker, sp3 and sigmoid-BH bounds take alpha from their closed forms:
u*, the smaller root of the concave log form phi(u) = (lam-1) ln u + a
- b u, and a^(-1/(p-1)).  ``validate_bound`` (a 10,000-point grid) and
``solve_threshold`` (the threshold scan) no longer run when they are
built; here they are the oracle.  Every bound must pass the grid check
on its own window, and where the scan's bracket is valid its alpha must
equal the scan's within 1e-12 and agree on tangency.  A builder whose
alpha is 1% too large must fail the oracle.

The planar systems' envelope cycles take alpha from exact thresholds
too: ``competition_threshold`` for the competition tail fbar1,
``ricker_fixed_points`` for adult-juvenile's gbar, and
``swapped_competition_threshold`` for the swapped system's
fbar1(fbar2(u)).  Their oracle is the same scan, plus a fine grid below
alpha on which the cycle map must stay strictly below the identity.
The builders certify their cycles' domination and monotonicity, so the
envelope check no longer grid-checks them; the oracle keeps its own copy
of both grids, with points added toward 0, and a certificate attached
to an envelope shrunk by 1% must fail it.  On orbits, the alternating
links must hold for every swapped system, fbar1 saturated or not, and
must fail on pinned orbits once an envelope is shrunk by 1%.

Every bound and envelope above is its family's own map at dominating
constants (sigmoid-BH's: its map written in y = x - b).  Drawn
coefficients, lag values and steps check that it lies above the map in
floating point, and libm's ``exp``, the one operation that argument
takes on trust, is checked on adjacent doubles.  A bound's map read at
a non-dominating constant must end ``analyze`` with exit 4 on an orbit
where map and bound coincide.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from subconverge import models, planar
from subconverge.cli import main
from subconverge.criteria import (ThresholdResult, solve_threshold,
                                  validate_bound)
from subconverge.errors import (BoundValidationError,
                                CriterionInapplicableError, NonFiniteError)
from subconverge.models import (RickerFamilySpec, SigmoidBHSpec,
                                ricker_fixed_points)
from subconverge.planar import CompetitionParams
from subconverge.reports import ThresholdWindow
from subconverge.sequences import ParameterSequence as S
from subconverge.dynamics import iterate_system
from subconverge.systems import (check_envelope_cycle,
                                 predict_alternating_convergence)

_SCAN_POINTS = 10_000
_MAX = 1.7976931348623157e308


def phi(lam, a, b, u):
    return (lam - 1.0) * math.log(u) - b * u + a


def log_form_g(lam, a, b):
    """The Ricker bound evaluated as exp(lam ln u + a - b u): the same
    function, without the overflow of u**lam on its own, and +inf where
    the value itself is beyond the doubles (so above u)."""
    def g(u):
        if u <= 0:
            return 0.0
        try:
            return math.exp(lam * math.log(u) + a - b * u)
        except OverflowError:
            return math.inf
    return g


def assert_matches_scan(bound, search_hi):
    res = solve_threshold(bound.g, search_hi)
    if math.isinf(bound.alpha):
        assert res.alpha == math.inf
    else:
        assert math.isclose(bound.alpha, res.alpha, rel_tol=1e-12,
                            abs_tol=1e-12), (bound.alpha, res.alpha)
    assert bound.tangent == res.tangent


def scan_bracket_valid(lam, a, b, bound) -> bool:
    """Whether the scan over (0, 2(lam-1)/b] can see what the closed form
    sees: a clear pair whose smaller root lies above the scan's lowest
    points with a grid point between the roots, or a peak clearly below
    the identity.  (Near tangency the two use different tolerances.)"""
    search_hi = 2.0 * (lam - 1.0) / b
    peak = phi(lam, a, b, (lam - 1.0) / b)
    if peak < -1e-9:
        return True
    if peak <= 1e-9 or not math.isfinite(search_hi):
        return False
    u_star, u_bar = bound.fixed_points
    return (u_star > search_hi * 1e-29
            and min(u_bar, search_hi) - u_star > 2 * search_hi / _SCAN_POINTS)


def check_ricker(build, lam, a_sup, b_inf):
    """The oracle for a Ricker-type bound with the given sup/inf."""
    try:
        bound = build()
    except NonFiniteError:
        # Only when u_bar lies beyond the largest double.
        assert phi(lam, a_sup, b_inf, _MAX) > 0
        return
    except CriterionInapplicableError:
        # Only when u* lies below the smallest positive double.
        assert phi(lam, a_sup, b_inf, 5e-324) > 0
        return
    assert bound.sublinear == models.CLOSED_FORM

    def check(bound):
        validate_bound(bound)
        if scan_bracket_valid(lam, a_sup, b_inf, bound):
            assert_matches_scan(bound, 2.0 * (lam - 1.0) / b_inf)
    try:
        check(bound)
    except OverflowError:
        # g evaluates u**lam before exp(a - b u), which overflows for a
        # large lam even where the product is small: the same checks then
        # run on the log form of g.
        check(replace(bound, g=log_form_g(lam, a_sup, b_inf)))


def check_sigmoid_bh(spec):
    bound = models.sigmoid_bh_bound(spec)
    assert bound.sublinear == models.CLOSED_FORM
    validate_bound(bound)
    assert_matches_scan(bound, 4.0 * bound.alpha)


def check_sp3(k, rigorous):
    _, bound = models.make_sp3(k, rigorous)
    assert bound.sublinear == models.CLOSED_FORM
    validate_bound(bound)
    if k == 1 and rigorous:
        assert_matches_scan(bound, 1.0)
    else:
        b = models._sp3_b_inf(k, rigorous)
        assert scan_bracket_valid(1.5, 1.5, b, bound)
        assert_matches_scan(bound, 2.0 * 0.5 / b)


# -- strategies ----------------------------------------------------------


lams = st.one_of(st.floats(1.05, 4.0), st.floats(4.0, 1e6))
exponents = st.floats(-300.0, 3.0)


def coefficient(draw, extreme, sign):
    """A constant, periodic or tabulated sequence whose inf (sign +1) or
    sup (sign -1) is ``extreme``."""
    kind = draw(st.sampled_from(["constant", "periodic", "tabulated"]))
    others = [extreme + sign * d for d in draw(
        st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3))]
    if kind == "constant":
        return S.constant(extreme)
    if kind == "periodic":
        return S.periodic([extreme] + others)
    return S.tabulated(others, extreme)


@st.composite
def ricker_specs(draw):
    lam = draw(lams)
    m = draw(st.integers(1, 3))
    k = draw(st.integers(1, m))
    a_seq = coefficient(draw, draw(st.floats(-3.0, 3.0)), -1)
    b_seqs = [coefficient(draw, draw(st.floats(0.0, 3.0)), 1)
              for _ in range(m)]
    b_seqs[k - 1] = coefficient(draw, 10.0 ** draw(exponents), 1)
    return RickerFamilySpec(lam, k, m, a_seq, tuple(b_seqs))


# -- the oracle over the catalog -----------------------------------------


@settings(max_examples=300, deadline=None)
@given(ricker_specs())
def test_ricker_bounds_pass_the_oracle(spec):
    a_sup, b_inf = spec.resolved_bounds()
    check_ricker(lambda: models.make_generalized_ricker(spec)[1],
                 spec.lam, a_sup, b_inf)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rigorous", [False, True])
def test_sp3_bounds_pass_the_oracle(k, rigorous):
    check_sp3(k, rigorous)


@settings(max_examples=150, deadline=None)
@given(st.floats(0.05, 20.0), st.sampled_from(["2", "3", "4/3", "5"]),
       st.floats(0.0, 3.0), st.floats(0.0, 2.0))
def test_sigmoid_bh_bounds_pass_the_oracle(a, p, b, spread):
    spec = SigmoidBHSpec(*models.REGISTRY["sigmoid-bh"].coerce(
        {"a": [a, a - spread * a / 4], "p": p, "b": b}).values())
    check_sigmoid_bh(spec)


def test_tangent_ricker_bound_matches_the_scan_on_tangency():
    # phi peaks at exactly 0: (lam-1)/b = 1, a tangency, whose window
    # ends below 1, where the computed g is below u.
    _, bound = models.make_generalized_ricker(RickerFamilySpec(
        2.0, 1, 1, S.constant(1.0), (S.constant(1.0),)))
    assert bound.tangent and 1.0 - 1e-5 < bound.alpha < 1.0
    assert bound.fixed_points == (1.0,)
    validate_bound(bound)
    # The scan hits the touch point 1.0 on its grid and ends the window
    # at the same margin below it, by its ratio (g(u) - u) / u.
    res = solve_threshold(bound.g, 2.0)
    assert res.tangent and abs(res.alpha - 0.99999858573) < 1e-11
    assert abs(res.alpha - bound.alpha) < 1e-10


def test_the_formerly_rejected_ricker_bound_passes():
    # lam = 1.1, a = 2.5, b = 1: u* = 1.3888e-11, where the scan's
    # absolute tolerance overshot the root.
    _, bound = models.make_generalized_ricker(RickerFamilySpec(
        1.1, 1, 1, S.constant(2.5), (S.constant(1.0),)))
    assert bound.alpha == 1.3887943866893135e-11
    assert phi(1.1, 2.5, 1.0, bound.alpha) <= 0
    validate_bound(bound)
    # The scan's last bracket is 1e-12 wide, 7% of u*.  Its midpoint lay
    # above u*, and the grid check rejected that window; the scan now
    # returns the bracket's end where g(u) < u, below u*.
    scan = solve_threshold(bound.g, 2.0 * 0.1 / 1.0).alpha
    assert bound.alpha - 1e-12 <= scan < bound.alpha
    validate_bound(replace(bound, alpha=scan,
                           validity=ThresholdWindow(0.0, scan)))
    with pytest.raises(BoundValidationError):
        validate_bound(replace(bound, alpha=scan + 1e-12,
                               validity=ThresholdWindow(0.0, scan + 1e-12)))


# -- the oracle catches a wrong alpha ------------------------------------


def scaled_fixed_points(lam, a, b):
    res = ricker_fixed_points(lam, a, b)
    if res.kind == "none":
        return res
    return models.FixedPointResult(res.kind, 1.01 * res.u_star, res.u_bar)


@pytest.mark.parametrize("build, ricker", [
    (lambda: models.make_sp3(1)[1], (1.5, 1.5, 1.6)),
    (lambda: models.make_sp3(2)[1], (1.5, 1.5, 0.7)),
    (lambda: models.make_sp3(3)[1], (1.5, 1.5, 0.9)),
    (lambda: models.make_generalized_ricker(RickerFamilySpec(
        1.1, 1, 1, S.constant(2.5), (S.constant(1.0),)))[1],
     (1.1, 2.5, 1.0)),
    (lambda: models.make_generalized_ricker(RickerFamilySpec(
        3.0, 2, 2, S.periodic([1.0, 2.0]),
        (S.constant(0.5), S.tabulated([0.8, 0.6], 0.4))))[1],
     (3.0, 2.0, 0.4)),
], ids=["sp3-k1", "sp3-k2", "sp3-k3", "ricker-tiny-u-star", "ricker-varying"])
def test_a_ricker_alpha_scaled_by_1_01_fails_the_oracle(monkeypatch, build,
                                                        ricker):
    check_ricker(build, *ricker)
    monkeypatch.setattr(models, "ricker_fixed_points", scaled_fixed_points)
    with pytest.raises((AssertionError, BoundValidationError)):
        check_ricker(build, *ricker)


@pytest.mark.parametrize("a, p, b", [(2.0, "3", 1.0), (0.7, "2", 2.6),
                                     (3.0, "4/3", 0.0)])
def test_a_sigmoid_bh_alpha_scaled_by_1_01_fails_the_oracle(monkeypatch, a,
                                                            p, b):
    spec = SigmoidBHSpec(*models.REGISTRY["sigmoid-bh"].coerce(
        {"a": a, "p": p, "b": b}).values())
    check_sigmoid_bh(spec)
    alpha = models._sigmoid_bh_alpha
    monkeypatch.setattr(models, "_sigmoid_bh_alpha", lambda a_sup, p: (
        alpha(1.01 ** (1.0 - p) * a_sup, p)))
    assert models.sigmoid_bh_bound(spec).alpha == \
        pytest.approx(1.01 * alpha(a, float(Fraction(p))))
    with pytest.raises((AssertionError, BoundValidationError)):
        check_sigmoid_bh(spec)


# -- the planar envelope cycles ------------------------------------------


def cycle_map(sysm, length):
    """fbar (tail) or u -> fbar(gbar(u)) (alternating), as written."""
    fbar, gbar = sysm.envelope_f, sysm.envelope_g
    return fbar if length == 1 else (lambda u: fbar(gbar(u)))


def points_below(res):
    """A fine grid of (0, alpha): 1,000 linear points, 300 log-spaced
    ones over 30 decades and, unless alpha is a tangency (where the
    cycle meets the identity to second order, closer than the doubles
    resolve near alpha), 21 points closing in on alpha to within 2^-30
    of it.  For alpha = +inf, 2,000 log-spaced points on [1e-10, 1e6]."""
    alpha = res.alpha
    if math.isinf(alpha):
        return [10.0 ** (-10.0 + 16.0 * i / 1999) for i in range(2000)]
    return ([alpha * i / 1000 for i in range(1, 1000)]
            + [alpha * 10.0 ** (-i / 10) for i in range(1, 301)]
            + [alpha * (1.0 - 2.0 ** -k) for k in range(10, 31)
               if not res.tangent])


def grid_axis(count):
    """The envelope check's grid on (0, 10] (``count`` linear points),
    with the points 1e-1, 1e-3, ..., 1e-29 added."""
    return sorted({10.0 * i / count for i in range(1, count + 1)}
                  | {10.0 ** -k for k in range(1, 31, 2)})


def first_domination_failure(sysm, length):
    """Component i <= envelope i at argument (i+1) mod L, on the grid:
    the first (n, u1, u2) where it fails, or None."""
    f, g, us = sysm.f, sysm.g, grid_axis(60)
    fbar_us = list(map(sysm.envelope_f, us))
    if length == 1:
        return next(((n, u1, u2) for n in sysm.sample_steps
                     for u1, fbar_u1 in zip(us, fbar_us) for u2 in us
                     if f(n, u1, u2) > fbar_u1), None)
    gbar_us = list(map(sysm.envelope_g, us))
    return next(((n, u1, u2) for n in sysm.sample_steps
                 for u1, gbar_u1 in zip(us, gbar_us)
                 for u2, fbar_u2 in zip(us, fbar_us)
                 if f(n, u1, u2) > fbar_u2 or g(n, u1, u2) > gbar_u1), None)


def first_fall(fbar):
    """The first pair of adjacent points of the fine grid where fbar
    falls, or None."""
    us = grid_axis(10_000)
    values = list(map(fbar, us))
    return next(((a, b) for a, b, fa, fb in zip(us, us[1:], values,
                                                  values[1:]) if fb < fa),
                None)


def check_planar_cycle(sysm):
    """The oracle for a catalog system's own envelope cycle."""
    length = sysm.certificate.length
    res, cycle = sysm.certificate.threshold(), cycle_map(sysm, length)
    assert first_domination_failure(sysm, length) is None
    if length == 2:
        assert first_fall(sysm.envelope_f) is None
    verdict = check_envelope_cycle(
        sysm, (sysm.envelope_f, sysm.envelope_g)[:length])
    assert verdict.applicable
    assert (verdict.alpha, verdict.tangent) == (res.alpha, res.tangent)
    bad = [u for u in points_below(res) if not cycle(u) < u]
    assert not bad, bad[:3]
    try:
        scan = solve_threshold(cycle, 10.0)
    except CriterionInapplicableError:
        # The cycle is above the identity at the scan's three smallest
        # points, 1e-29 to 1.2e-29: alpha must lie below them.
        assert res.alpha < 1.2e-29
        return
    if math.isfinite(scan.alpha) and not scan.tangent:
        assert not res.tangent
        assert abs(res.alpha - scan.alpha) <= 1e-12, (res, scan)
    elif scan.tangent and res.tangent:
        assert abs(res.alpha - scan.alpha) <= 1e-5 * res.alpha
    elif math.isfinite(res.alpha) and not res.tangent and res.alpha < 10:
        # The scan saw no crossing: the cycle may rise above the identity
        # only between two of its points, by less than 1e-6.
        assert all(cycle(u) - u < 1e-6 * u for u in
                   (10.0 * i / _SCAN_POINTS for i in range(1, 10_001))
                   if u > res.alpha)


@st.composite
def sequences(draw, lo, hi):
    """A constant, periodic or tabulated sequence of values in [lo, hi]."""
    values = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=3))
    kind = draw(st.sampled_from(["constant", "periodic", "tabulated"]))
    if kind == "tabulated":
        return S.tabulated(values, draw(st.floats(lo, hi)))
    return S.constant(values[0]) if kind == "constant" \
        else S.periodic(values)


@st.composite
def competition_systems(draw):
    swapped = draw(st.booleans())
    r1, r2 = draw(sequences(0.2, 60.0)), draw(sequences(0.2, 60.0))
    a1, a2 = draw(sequences(0.05, 700.0)), draw(sequences(0.05, 700.0))
    b1, b2 = draw(sequences(0.0, 2.0)), draw(sequences(0.0, 2.0))
    d1, d2 = draw(st.floats(1.1, 4.0)), draw(st.floats(1.1, 4.0))
    d3, d4 = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    return planar.make_competition(CompetitionParams(
        r1, r2, a1, a2, d1, d2, b1, b2, d3, d4), swapped=swapped)


@st.composite
def adult_juvenile_systems(draw):
    return planar.make_adult_juvenile(
        draw(sequences(0.05, 1.0)), draw(sequences(0.2, 3.0)),
        draw(sequences(-40.0, 5.0)), draw(st.floats(1.05, 25.0)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(competition_systems(), adult_juvenile_systems()))
def test_planar_cycles_pass_the_oracle(sysm):
    check_planar_cycle(sysm)


PLANAR_CASES = {
    "competition": lambda: planar.make_competition(
        CompetitionParams.make(4.0, 1.0, 1.0, 1.0, 2.0, 2.0)),
    "competition-delta-3": lambda: planar.make_competition(
        CompetitionParams.make(S.periodic([2.0, 1.5]), 1.0, 0.5, 1.0, 3.0,
                               2.0)),
    "competition-above-10": lambda: planar.make_competition(
        CompetitionParams.make(50.0, 1.0, 600.0, 1.0, 2.0, 2.0)),
    "swapped": lambda: planar.make_competition(
        CompetitionParams.make(3.0, 3.0, 1.0, 1.0, 2.0, 2.0), swapped=True),
    "swapped-mixed": lambda: planar.make_competition(
        CompetitionParams.make(4.0, S.periodic([2.0, 1.0]), 0.5, 1.0, 3.0,
                               1.5), swapped=True),
    "adult-juvenile": lambda: planar.make_adult_juvenile(0.8, 1.0, 2.0, 2.0),
    "adult-juvenile-above-10": lambda: planar.make_adult_juvenile(
        0.8, 1.0, S.periodic([-39.0, -40.0]), 21.0),
}


@pytest.mark.parametrize("name", sorted(PLANAR_CASES))
def test_a_planar_alpha_scaled_by_1_01_fails_the_oracle(name):
    sysm = PLANAR_CASES[name]()
    check_planar_cycle(sysm)
    res = sysm.certificate.threshold()
    assert math.isfinite(res.alpha) and not res.tangent
    scaled = replace(sysm, certificate=sysm.certificate._replace(
        threshold=lambda: ThresholdResult(1.01 * res.alpha)))
    with pytest.raises(AssertionError):
        check_planar_cycle(scaled)


def shrunk_and_certified(sysm, field):
    """The system with one envelope scaled by 0.99 and its certificate
    re-attached to the new envelope, as a builder that proved the wrong
    envelope would attach it."""
    old = getattr(sysm, field)

    def shrunk(u):
        return 0.99 * old(u)
    mutant = replace(sysm, **{field: shrunk})
    maps = (mutant.f, mutant.g, mutant.envelope_f, mutant.envelope_g)
    return replace(mutant, certificate=sysm.certificate._replace(maps=maps))


@pytest.mark.parametrize("name, field", [
    ("competition", "envelope_f"),
    ("competition-delta-3", "envelope_f"),
    ("swapped", "envelope_f"),
    ("swapped-mixed", "envelope_g"),
    ("adult-juvenile", "envelope_g"),
    ("adult-juvenile-above-10", "envelope_g"),
])
def test_a_certified_envelope_shrunk_by_1_percent_fails_the_oracle(name,
                                                                   field):
    sysm = PLANAR_CASES[name]()
    check_planar_cycle(sysm)
    mutant = shrunk_and_certified(sysm, field)
    length = sysm.certificate.length
    # The envelope check trusts the certificate and runs no grid ...
    assert check_envelope_cycle(
        mutant, (mutant.envelope_f, mutant.envelope_g)[:length]).applicable
    # ... and the oracle's own grids catch the envelope.
    with pytest.raises(AssertionError):
        check_planar_cycle(mutant)


# -- the alternating links on orbits ------------------------------------


@st.composite
def saturated_swapped(draw):
    """A swapped system whose fbar1 saturates (d1 in 20-60), where the
    monotonicity grid rejected it, with an initial point."""
    sysm = planar.make_competition(CompetitionParams(
        draw(sequences(0.2, 60.0)), draw(sequences(0.2, 60.0)),
        draw(sequences(0.05, 700.0)), draw(sequences(0.05, 700.0)),
        draw(st.floats(20.0, 60.0)), draw(st.floats(1.1, 4.0)),
        draw(sequences(0.0, 2.0)), draw(sequences(0.0, 2.0)),
        draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))), swapped=True)
    return sysm, (draw(st.floats(0.01, 5.0)), draw(st.floats(0.01, 5.0)))


def alternating_report(sysm, initial, steps):
    orbit = iterate_system(sysm, initial, steps)
    verdict = check_envelope_cycle(sysm, (sysm.envelope_f, sysm.envelope_g))
    assert verdict.applicable
    return predict_alternating_convergence(sysm, orbit, verdict.alpha)


@settings(max_examples=150, deadline=None)
@given(saturated_swapped())
def test_saturated_swapped_orbits_hold_their_links(case):
    sysm, initial = case
    report = alternating_report(sysm, initial, 120)
    assert not report.any_violated


@pytest.mark.parametrize("build, initial", [
    (lambda: planar.make_competition(CompetitionParams.make(
        1.0, 1.0, 1.0, 1.0, 2.0, 2.0), swapped=True), (2.0, 1.0)),
    (lambda: planar.make_adult_juvenile(1.0, 1e-12, 2.0, 2.0), (0.1, 0.1)),
], ids=["swapped-default", "adult-juvenile-s1"])
@pytest.mark.parametrize("field", ["envelope_f", "envelope_g"])
def test_a_certified_envelope_shrunk_by_1_percent_is_violated(build, initial,
                                                              field):
    sysm = build()
    assert not alternating_report(sysm, initial, 30).any_violated
    # The certificate trusted, no grid runs: the links catch the envelope.
    report = alternating_report(shrunk_and_certified(sysm, field), initial,
                                30)
    assert report.any_violated


# -- each bound is its family's map at dominating constants -------------
#
# Rounding to nearest is monotone, so a map evaluated with every operand on
# its dominating side computes a double at least as large as the map at
# any admissible coefficients: fl(|F_n(u)|) <= fl(g(u_k)) in floating
# point.  An overflow counts as +inf, so one in F needs one in g.


def value(fn, *args) -> float:
    """fn(*args), with an OverflowError read as +inf."""
    try:
        return fn(*args)
    except OverflowError:
        return math.inf


steps = st.integers(0, 12)      # beyond a table's end: its fallback
states = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, 1e300))


@st.composite
def dominated_ricker(draw):
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, m))
    b_seqs = [draw(sequences(0.0, 3.0)) for _ in range(m)]
    b_seqs[k - 1] = draw(sequences(1e-3, 3.0))
    spec = RickerFamilySpec(draw(st.one_of(st.floats(1.01, 4.0),
                                           st.floats(4.0, 1e3))),
                            k, m, draw(sequences(-3.0, 3.0)), tuple(b_seqs))
    return (models.make_generalized_ricker(spec), draw(steps),
            draw(st.lists(states, min_size=m, max_size=m)))


@st.composite
def dominated_sp3(draw):
    k, rigorous = draw(st.sampled_from([(1, True), (2, False), (3, False),
                                        (2, True), (3, True)]))
    return (models.make_sp3(k, rigorous), draw(steps),
            draw(st.lists(states, min_size=3, max_size=3)))


@st.composite
def dominated_sigmoid_bh(draw):
    b = draw(st.floats(0.0, 5.0))
    spec = SigmoidBHSpec(
        draw(sequences(0.05, 3.0)),
        draw(st.one_of(st.just(S.constant(0.0)), sequences(0.0, 2.0))),
        draw(sequences(0.1, 3.0)),
        draw(st.sampled_from([2, 3, 5, Fraction(4, 3), Fraction(6, 5),
                              Fraction(8, 7)])),
        b, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    eq = models.translate_to_origin(models.make_sigmoid_bh(spec), b)
    lags = st.one_of(st.floats(-b, 10.0), st.floats(-b, 1e6))
    return ((eq, models.sigmoid_bh_bound(spec)), draw(steps),
            draw(st.lists(lags, min_size=spec.order, max_size=spec.order)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(dominated_ricker(), dominated_sp3(), dominated_sigmoid_bh()))
def test_a_scalar_map_lies_below_its_bound(case):
    (eq, bound), n, u = case
    assert not bound.informal
    lag = u[bound.dominant_lag - 1]
    assert abs(value(eq.evaluator, n, u)) <= value(bound.g, lag)


# Every finite state: where X ** d or the other species' Y ** e overflows
# on its own, the map and its envelope take the quotient in logs.
competition_states = st.one_of(st.floats(0.0, 10.0),
                               st.floats(0.0, 1.7976931348623157e308))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(competition_systems(), steps, competition_states, competition_states)
def test_competition_maps_lie_below_their_envelopes(sysm, n, x, y):
    # Each species' envelope reads its own species: y for f when swapped.
    own_f, own_g = (y, x) if sysm.name == "competition-swapped" else (x, y)
    assert sysm.f(n, x, y) <= sysm.envelope_f(own_f)
    assert sysm.g(n, x, y) <= sysm.envelope_g(own_g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(adult_juvenile_systems(), steps, states, states)
def test_adult_juvenile_maps_lie_below_their_envelopes(sysm, n, x, y):
    assert sysm.f(n, x, y) <= sysm.envelope_f(y)
    assert value(sysm.g, n, x, y) <= value(sysm.envelope_g, x)


_EXP_LO, _EXP_HI = -745.2, 709.8    # exp is 0.0 below, overflows above


def exp_arguments():
    """100,001 evenly spaced points over [_EXP_LO, _EXP_HI], 20,002
    log-spaced ones of either sign within 1e-300..100 of 0, where exp
    rounds onto 1, and the ends: the largest doubles of either sign and
    the points where exp leaves 0 and reaches overflow."""
    span = _EXP_HI - _EXP_LO
    linear = [_EXP_LO + span * i / 100_000 for i in range(100_001)]
    near_zero = [sign * 10.0 ** (-300.0 + 302.0 * i / 10_000)
                 for sign in (-1.0, 1.0) for i in range(10_001)]
    ends = [-_MAX, -745.1332191019412, -745.1332191019411,
            709.782712893384, _MAX]
    return linear + near_zero + ends


def test_exp_is_non_decreasing_on_adjacent_doubles():
    """The one operation the lemma takes on trust: libm's exp, which IEEE
    754 does not require to be correctly rounded."""
    points = exp_arguments()
    assert len(points) >= 100_000
    for x in points:
        up = math.nextafter(x, math.inf)
        assert value(math.exp, x) <= value(math.exp, up), (x, up)
    points.sort()
    values = [value(math.exp, x) for x in points]
    assert all(a <= b for a, b in zip(values, values[1:]))


# -- a bound's map at a non-dominating constant -------------------------


@pytest.mark.parametrize("args, end", [
    # Ricker k = m = 1 with constant coefficients: the orbit is g's.
    (["--model", "ricker", "--lambda", "2", "--a", "0.5", "--b", "1",
      "--init", "0.5"], "sup"),
    (["--model", "ricker", "--lambda", "2", "--a", "0.5", "--b", "1",
      "--init", "0.5"], "inf"),
    # b1 = b2 = 0: each species' map is its envelope.
    (["--model", "competition", "--init", "0.5,0.5"], "sup"),
    (["--model", "competition", "--init", "0.5,0.5"], "inf"),
    (["--model", "competition-swapped", "--init", "2,1"], "sup"),
    (["--model", "competition-swapped", "--init", "2,1"], "inf"),
    # s = 1: f is fbar; t y_n ~ 1e-13 keeps g within 2e-6 of gbar.
    (["--model", "adult-juvenile", "--s", "1", "--t", "1e-12",
      "--init", "0.1,0.1"], "sup"),
    # c = 0: the translated map is its bound at a_sup.
    (["--model", "sigmoid-bh", "--a", "0.7", "--b", "2.6", "--p", "2",
      "--init", "3.2"], "sup"),
], ids=["ricker-a-sup", "ricker-b-inf", "competition-r1-sup",
        "competition-a1-inf", "swapped-r-sup", "swapped-a-inf",
        "adult-juvenile-r-sup", "sigmoid-bh-a-sup"])
def test_a_bound_map_at_a_non_dominating_constant_exits_4(monkeypatch, args,
                                                          end):
    """Every builder reads its dominating constants from ``bounds``: with
    each sup lowered (growth) or each inf raised (damping) by a relative
    1e-6, the bound's map no longer dominates the map, and an orbit on
    which the two coincided bit for bit raises the soundness alarm."""
    command = ["analyze"] + args + ["--steps", "30"]
    runner = CliRunner()
    assert runner.invoke(main, command).exit_code == 0
    bounds = S.bounds

    def off(seq):
        lo, hi = bounds(seq)
        return (lo, hi * (1.0 - 1e-6)) if end == "sup" else \
            (lo * (1.0 + 1e-6), hi)
    monkeypatch.setattr(S, "bounds", off)
    res = runner.invoke(main, command)
    assert res.exit_code == 4
    assert res.stderr == "error: a prediction was violated (soundness " \
                         "alarm)\n"


def test_a_replaced_envelope_is_scanned():
    # The exact threshold belongs to the system's own envelopes: a cycle
    # of other envelopes, a system without a certificate, or one whose
    # certificate has no threshold, goes to the scan.
    sysm = PLANAR_CASES["competition"]()

    def double(u):
        return 2.0 * sysm.envelope_f(u)
    own = check_envelope_cycle(sysm, (sysm.envelope_f,))
    assert own.alpha == planar.competition_threshold(4.0, 1.0, 2.0).alpha
    assert check_envelope_cycle(sysm, (double,)).alpha == \
        solve_threshold(double, 10.0).alpha != own.alpha
    for user in (replace(sysm, certificate=None), replace(
            sysm, certificate=sysm.certificate._replace(threshold=None))):
        assert check_envelope_cycle(user, (user.envelope_f,)).alpha == \
            solve_threshold(user.envelope_f, 10.0).alpha


# -- ricker_fixed_points on its own ------------------------------------


def assert_roots_bracket_a_sign_change(lam, a, b):
    try:
        res = ricker_fixed_points(lam, a, b)
    except NonFiniteError:
        assert phi(lam, a, b, _MAX) > 0
        return
    except CriterionInapplicableError:
        assert phi(lam, a, b, 5e-324) > 0
        return
    if res.kind != "pair":
        return

    def f(u):
        return phi(lam, a, b, u)
    u_star, u_bar = res.u_star, res.u_bar
    assert u_star < (lam - 1.0) / b < u_bar
    # u*: the last double with phi <= 0 before the sign change.
    assert f(u_star) <= 0 < f(math.nextafter(u_star, math.inf))
    # u_bar: one end of an adjacent pair across the sign change.
    below, above = math.nextafter(u_bar, 0.0), math.nextafter(u_bar, math.inf)
    assert (f(below) > 0 >= f(u_bar)) or (f(u_bar) > 0 >= f(above))


@settings(max_examples=300, deadline=None)
@given(lams, st.floats(-50.0, 50.0), exponents)
def test_fixed_points_bracket_a_sign_change_of_phi(lam, a, b_exp):
    assert_roots_bracket_a_sign_change(lam, a, 10.0 ** b_exp)


def test_fixed_point_above_half_the_largest_double():
    # u_bar = 1.42e308: its doubling bracket's midpoint would overflow.
    assert_roots_bracket_a_sign_change(2e5, 0.0, 1e-300)
    assert 1.4e308 < ricker_fixed_points(2e5, 0.0, 1e-300).u_bar < _MAX


def test_fixed_points_of_a_wide_bracket():
    # u_max = 1e300: 200 halvings of [lo, u_max] stopped at 3.11e239.
    res = ricker_fixed_points(2.0, 0.0, 1e-300)
    assert res.u_star == 1.0
    assert phi(2.0, 0.0, 1e-300, res.u_star) <= 0
    assert 6.97e302 < res.u_bar < 6.98e302


@pytest.mark.parametrize("lam, a, b, error", [
    (1e308, 0.0, 1.0, NonFiniteError),          # u_bar beyond the doubles
    (1e6, 0.0, 1e-300, NonFiniteError),
    (1e308, 0.0, 1e-300, NonFiniteError),       # (lam-1)/b overflows
    (1.001, 1.0, 1.0, CriterionInapplicableError),  # u* underflows
])
def test_fixed_points_beyond_the_doubles_raise(lam, a, b, error):
    with pytest.raises(error):
        ricker_fixed_points(lam, a, b)

"""The one none / tangent / root rule against the tails it replaced.

``models._peak_threshold`` decides, for every catalog threshold, between
no root (+inf), a tangency at the peak and the lower root.  Before it,
``ricker_fixed_points``, ``competition_threshold`` (both branches) and
``swapped_competition_threshold`` each ended in their own comparisons.
Those tails are kept below verbatim as the oracle.  On seeded draws of
the value each tail compared, straddling every band edge (-1e-12 times
the scale, and 0, each with the doubles either side), the rule must give
the same ``ThresholdResult`` bits, except in one band: d1 = 2 with
-1e-12 a1 <= disc/4 < 0, where the closed form tested ``disc == 0``
alone and read +inf for a near-tangent, and which now reads tangent as
every other exponent does.

A tangency no longer ends its window at the peak, where the computed
cycle map rounds onto u or above it about as often as below it: the
window ends where ln(map(u) / u) falls under -1e-12.  So where a tail
read tangent at the peak, the rule must read tangent at the end of an
adjacent pair of doubles below the peak across which that log ratio
crosses -1e-12.
"""

import math
import random

import pytest

from subconverge.criteria import ThresholdResult
from subconverge.models import (_INF, _TANGENT_TOL, FixedPointResult,
                                _fixed_point_threshold, _peak_threshold,
                                ricker_fixed_points)
from subconverge.planar import competition_threshold


# -- the tails the rule replaced (verbatim) ------------------------------


def ricker_tail(peak, u_max, root):
    if -_TANGENT_TOL <= peak <= 0:  # the safe side only: g <= u throughout
        return FixedPointResult("tangent", u_star=u_max, u_bar=u_max)
    if peak < 0:
        return FixedPointResult("none")
    u_star = root()
    return FixedPointResult("pair", u_star, None)


def competition_tail(bottom, u_min, root, a1):
    if bottom > _TANGENT_TOL * a1:
        return ThresholdResult(_INF)
    if bottom >= 0:     # the safe side only: fbar <= u throughout
        return ThresholdResult(u_min, tangent=True)
    return ThresholdResult(root())


def quadratic_tail(disc, r1, a1):
    if disc < 0:
        return ThresholdResult(_INF)
    if disc == 0:
        return ThresholdResult(0.5 * r1, tangent=True)
    return ThresholdResult(a1 / (0.5 * (r1 + math.sqrt(disc))))


def swapped_tail(peak, t_max, root):
    if -_TANGENT_TOL <= peak <= 0:  # the safe side only: fbar1(fbar2(u)) <= u
        return ThresholdResult(math.exp(t_max), tangent=True)
    if peak < 0:
        return ThresholdResult(_INF)
    return ThresholdResult(root())


# -- draws ----------------------------------------------------------------


def straddling(scale):
    """-1e-12 * scale and 0, each with the doubles either side; -0.0 and
    NaN too."""
    values = [-0.0, math.nan]
    for edge in (-_TANGENT_TOL * scale, 0.0):
        values += [math.nextafter(edge, -_INF), edge,
                   math.nextafter(edge, _INF)]
    return values


def draws(seed, count=200):
    """(scale, u_peak, root) triples: the scale log-uniform over 1e-8 to
    1e8, the peak and the root below it likewise."""
    rng = random.Random(seed)
    for _ in range(count):
        u_peak = 10.0 ** rng.uniform(-6.0, 6.0)
        yield (10.0 ** rng.uniform(-8.0, 8.0), u_peak,
               u_peak * rng.uniform(0.01, 0.99))


def same(a, b):
    """Equal to the bit, NaN included."""
    return repr(tuple(a)) == repr(tuple(b))


def log_ratio(u_peak):
    """A concave ln(map(u) / u) that touches 0 at u_peak."""
    return lambda u: -math.log(u / u_peak) ** 2


def rule(excess, u_peak, root, scale=1.0):
    return _peak_threshold(excess, u_peak, log_ratio(u_peak), root, scale)


def agrees(new, old, u_peak):
    """``new`` is ``old``, or for an old tangency at u_peak a tangency
    whose window ends where the log ratio crosses -1e-12 below it."""
    if not old.tangent:
        return same(new, old)
    ratio = log_ratio(u_peak)
    return new.tangent and old.alpha == u_peak and 0 < new.alpha < u_peak \
        and ratio(new.alpha) < -_TANGENT_TOL \
        <= ratio(math.nextafter(new.alpha, _INF))


@pytest.mark.parametrize("seed", range(5))
def test_ricker_tail(seed):
    for _, u_max, root in draws(seed):
        for peak in straddling(1.0):
            old = _fixed_point_threshold(ricker_tail(peak, u_max,
                                                     lambda: root))
            assert agrees(rule(peak, u_max, lambda: root), old, u_max), \
                (peak, u_max)


@pytest.mark.parametrize("seed", range(5))
def test_competition_tail(seed):
    for a1, u_min, root in draws(seed):
        for excess in straddling(a1):
            bottom = -excess
            old = competition_tail(bottom, u_min, lambda: root, a1)
            new = rule(excess, u_min, lambda: root, a1)
            assert agrees(new, old, u_min), (bottom, a1)


@pytest.mark.parametrize("seed", range(5))
def test_swapped_tail(seed):
    for _, u_max, root in draws(seed):
        t_max = math.log(u_max)
        for peak in straddling(1.0):
            old = swapped_tail(peak, t_max, lambda: root)
            new = rule(peak, math.exp(t_max), lambda: root)
            assert agrees(new, old, math.exp(t_max)), (peak, t_max)


def in_quadratic_band(disc, a1):
    return -_TANGENT_TOL * a1 <= 0.25 * disc < 0


@pytest.mark.parametrize("seed", range(5))
def test_quadratic_tail_moves_only_in_its_band(seed):
    moved = 0
    for a1, _, _ in draws(seed):
        r1 = 2.0 * math.sqrt(a1)
        for excess in straddling(a1):
            disc = 4.0 * excess
            old = quadratic_tail(disc, r1, a1)
            new = rule(0.25 * disc, 0.5 * r1, lambda: a1 / (
                0.5 * (r1 + math.sqrt(disc))), a1)
            if in_quadratic_band(disc, a1):
                assert old == ThresholdResult(_INF)
                assert agrees(new, ThresholdResult(0.5 * r1, tangent=True),
                              0.5 * r1)
                moved += 1
            else:
                assert agrees(new, old, 0.5 * r1), (disc, a1)
    # Per draw: the lower edge, the double above it and the one below 0.
    assert moved == 3 * 200


@pytest.mark.parametrize("seed", range(3))
def test_competition_threshold_moves_only_in_the_quadratic_band(seed):
    # The solver itself at d1 = 2, a1 within a few doubles of r1^2/4 and
    # of its band's lower edge.
    rng = random.Random(seed)
    moved = 0
    for _ in range(300):
        r1 = 10.0 ** rng.uniform(-3.0, 3.0)
        centre = r1 * r1 / 4.0
        for a1 in (centre, centre * (1.0 + 1e-12), centre * (1.0 - 1e-12)):
            for step in range(-3, 4):
                a = a1
                for _ in range(abs(step)):
                    a = math.nextafter(a, math.copysign(_INF, step))
                disc = r1 * r1 - 4.0 * a
                old = quadratic_tail(disc, r1, a)
                new = competition_threshold(r1, a, 2.0)
                if in_quadratic_band(disc, a):
                    assert tangent_below(new, 0.5 * r1, r1, a)
                    moved += old != new
                elif old.tangent:
                    assert tangent_below(new, old.alpha, r1, a), (r1, a)
                else:
                    assert same(new, old), (r1, a)
    assert moved > 0


def tangent_below(res, u_peak, r1, a1):
    """A d1 = 2 tangency at u_peak = r1/2 whose window ends within 1e-5 of
    it, relatively, where fbar(u) = r1 u^2 / (a1 + u^2) < u."""
    u = res.alpha
    return res.tangent and u_peak * (1.0 - 1e-5) < u < u_peak and all(
        r1 * v * v / (a1 + v * v) < v for v in (u, u * (1.0 - 1e-9)))


def test_the_mended_near_tangent():
    # a1 one double above r1^2/4: fbar(u) < u for all u > 0, and fbar(1.0)
    # rounds to 1.0, so the orbit from 1 stalls at the touch point.  The
    # closed form read +inf; it is a tangency at r1/2, whose window ends
    # below 1.0.
    assert tangent_below(competition_threshold(2.0, 1.0000000000000002, 2.0),
                         1.0, 2.0, 1.0000000000000002)
    assert quadratic_tail(4.0 - 4.0 * 1.0000000000000002, 2.0,
                          1.0000000000000002) == ThresholdResult(_INF)


def test_a_tangent_window_ends_below_the_rounding():
    """lam = 2, a = b = 1: g(u) = u^2 e^(1 - u) touches u at 1, and half
    the doubles just under 1.0 have fl(g(u)) >= u.  Below alpha none does,
    and the orbit from 0.99999999, which g maps to itself, is outside."""
    res = _fixed_point_threshold(ricker_fixed_points(2.0, 1.0, 1.0))
    assert res.tangent and 1.0 - 1e-5 < res.alpha < 0.99999999

    def g(u):
        return u ** 2 * math.exp(1.0 - u)
    assert g(0.99999999) == 0.99999999
    u = res.alpha
    for _ in range(20_000):
        assert g(u) < u, u
        u = math.nextafter(u, 0.0)
    rng = random.Random("tangent-window")
    assert all(g(v) < v for v in (rng.uniform(0.9, res.alpha)
                                  for _ in range(20_000)))

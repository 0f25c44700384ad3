"""The alternating planar chain, link by link through the orbit's y-terms.

A link from x_n holds when |y_{n+1}| <= gbar(|x_n|) and |x_{n+2}| <=
fbar(|y_{n+1}|) < |x_n|.  It needs fbar monotone only in the reals: the
x-only chain under fbar(gbar(u)) also needs it between adjacent doubles,
which the swapped competition fbar1 is not.
"""

import pytest

import subconverge as sc
from subconverge.models import REGISTRY
from subconverge.reports import ChainResult
from subconverge.systems import Orbit, _alternating_links


def fbar(u):
    return 0.5 * u


def gbar(u):
    return u


def orbit(*points):
    return Orbit(tuple(points))


def test_links_that_hold():
    points = orbit((1.0, 9.0), (4.0, 1.0), (0.5, 4.0), (2.0, 0.5),
                   (0.25, 9.0)).points
    assert _alternating_links(points, 0, fbar, gbar) == \
        ChainResult(True, links_checked=2)
    # The odd parity: one link, from x_1 through y_2 to x_3.
    assert _alternating_links(points, 1, fbar, gbar) == \
        ChainResult(True, links_checked=1)


@pytest.mark.parametrize("y3, x4", [(1.5, 0.5), (1.0, 0.6)],
                         ids=["y-above-gbar", "x-above-fbar"])
def test_a_link_above_its_envelope_fails(y3, x4):
    # Link 0 holds; link 1 runs from x_2 = 1 through y_3 to x_4, and only
    # one of its checks fails: y_3 > gbar(1) = 1 with x_4 <= fbar(y_3) <
    # 1, or x_4 > fbar(y_3) = 0.5 with y_3 <= gbar(1).
    points = orbit((2.0, 0.0), (0.0, 2.0), (1.0, 0.0), (9.0, y3),
                   (x4, 0.0)).points
    assert _alternating_links(points, 0, fbar, gbar) == \
        ChainResult(False, first_violation=1, links_checked=1)


def test_a_link_whose_envelope_does_not_fall_fails():
    # Under fbar = gbar = id, y_1 <= gbar(x_0) and x_2 <= fbar(y_1), but
    # fbar(y_1) = x_0.
    points = orbit((1.0, 0.0), (0.0, 1.0), (0.5, 0.0)).points
    assert _alternating_links(points, 0, gbar, gbar) == \
        ChainResult(False, first_violation=0, links_checked=0)


def test_an_exact_zero_ends_the_chain():
    # x_2 = 0 is the limit: the chain stops there, holding, even though
    # y_3 lies above gbar(0) = 0.
    points = orbit((1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.0, 5.0),
                   (3.0, 0.0)).points
    assert _alternating_links(points, 0, fbar, gbar) == \
        ChainResult(True, links_checked=1, terminated_at_zero=1)


def test_the_links_count_as_the_x_only_chain_does():
    # Where both hold, both count the same links.
    sysm = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    orb = sc.iterate_system(sysm, (1.0, 1.0), 200)
    alpha = sc.check_alternating_envelopes(sysm).alpha
    report = sc.predict_alternating_convergence(sysm, orb, alpha)
    (pred,) = report.predictions
    old = sc.check_inequality_chain(
        orb.xs, pred.start_index, 2,
        lambda u: sysm.envelope_f(sysm.envelope_g(abs(u))))
    assert old.holds and pred.chain == old


ONE_ULP = {"r1": 2.4775435411239406, "r2": 2.1597108745573808,
           "a1": 2.0098908143898324, "a2": 1.596075972834719,
           "delta1": 2.7115852941823113, "delta2": 2.445635238355775,
           "b1": 0.5608716508659177, "b2": 0.880629950850026}


def test_the_one_ulp_orbit_holds():
    model = REGISTRY["competition-swapped"]
    sysm = model.build(model.coerce(dict(ONE_ULP)))
    orb = sc.iterate_system(sysm, (2.4008015981807587, 0.5526209873182195),
                            300)
    alpha = sc.check_alternating_envelopes(sysm).alpha
    report = sc.predict_alternating_convergence(sysm, orb, alpha)
    assert report.predictions and not report.any_violated
    # The x-only chain through fbar1(fbar2(u)) fails there: x_{n+2}
    # exceeds it by rounding, since fbar1 is not monotone between
    # adjacent doubles.
    (pred,) = report.predictions
    cycle = lambda u: sysm.envelope_f(sysm.envelope_g(abs(u)))  # noqa: E731
    old = sc.check_inequality_chain(orb.xs, pred.start_index, 2, cycle)
    assert not old.holds

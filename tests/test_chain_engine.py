"""One link engine: ``check_inequality_chain`` under a cycle of L maps.

The two chains it replaced are kept below verbatim as oracles: the scalar
chain under one map h of the signed term, and the alternating planar
chain through an orbit's own y-terms.  The engine applies its maps to
|term|, so for L = 1 it agrees with the scalar oracle under an even h
(the symmetrized bound, or the planar tail's fbar read at |x|); for
L = 2, over x_{n0}, y_{n0+1}, x_{n0+2}, ..., it agrees with the
alternating oracle under (gbar, fbar).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import subconverge as sc
from subconverge.reports import ChainResult
from subconverge.systems import _Alternating


# -- the replaced chains (verbatim) ----------------------------------------


def check_inequality_chain(terms, n0, k, h):
    """Verify |x_{n0+(j+1)k}| <= h(x_{n0+jk}) < |x_{n0+jk}| link by link.

    An exact zero term means the subsequence has reached its limit; the
    chain terminates there and counts as holding.
    """
    j = 0
    links = 0
    while n0 + (j + 1) * k < len(terms):
        x0 = terms[n0 + j * k]
        x1 = terms[n0 + (j + 1) * k]
        if x0 == 0.0:
            return ChainResult(True, links_checked=links,
                               terminated_at_zero=j)
        hx = h(x0)
        if not (abs(x1) <= hx < abs(x0)):
            return ChainResult(False, first_violation=j, links_checked=links)
        links += 1
        j += 1
    return ChainResult(True, links_checked=links)


def _alternating_links(points, n0, fbar, gbar):
    """The alternating chain from x_{n0} through the orbit's own y-terms:
    link j (n = n0 + 2j) holds when |y_{n+1}| <= gbar(|x_n|) and
    |x_{n+2}| <= fbar(|y_{n+1}|) < |x_n|.  The fields mean what they mean
    for ``check_inequality_chain``: j counts links, and an exact zero
    x_n ends the chain, holding."""
    j = 0
    for n in range(n0, len(points) - 2, 2):
        x0 = abs(points[n][0])
        if x0 == 0.0:
            return ChainResult(True, links_checked=j, terminated_at_zero=j)
        y1 = abs(points[n + 1][1])
        if not (y1 <= gbar(x0) and abs(points[n + 2][0]) <= fbar(y1) < x0):
            return ChainResult(False, first_violation=j, links_checked=j)
        j += 1
    return ChainResult(True, links_checked=j)


# -- strategies -------------------------------------------------------------

SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, -1.0, 1.0, 0.5, -0.25)
term = st.one_of(st.sampled_from(SPECIAL), st.floats())


@st.composite
def decaying(draw, max_len=24):
    """Terms that mostly decay, so that chains run past their first link:
    each |x| is the last one's times a drawn ratio, with a drawn sign, and
    now and then a special value in place."""
    x, out = draw(st.floats(0.01, 10.0)), []
    for _ in range(draw(st.integers(0, max_len))):
        out.append(draw(st.sampled_from((1.0, -1.0))) * x
                   if draw(st.integers(0, 9)) else draw(term))
        x *= draw(st.sampled_from((0.25, 0.5, 0.9, 1.0, 1.1, 0.0)))
    return out


terms_lists = st.one_of(decaying(), st.lists(term, max_size=16))
coeff = st.one_of(st.sampled_from((0.0, 0.5, 0.95, 1.0, 2.0, math.inf)),
                  st.floats(0.0, 4.0))


@st.composite
def even_map(draw):
    """An even map of one float: linear in |u|, quadratic, or capped."""
    c, kind = draw(coeff), draw(st.integers(0, 2))
    if kind == 0:
        return lambda u: c * abs(u)
    if kind == 1:
        return lambda u: c * u * u
    cap = draw(st.floats(0.0, 2.0))
    return lambda u: min(c * abs(u), cap)


# -- properties -------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(terms_lists, st.integers(0, 20), st.integers(1, 4), even_map())
@example([0.0, -0.0, 1.0], 0, 1, abs)
@example([-0.0, 5.0], 0, 1, abs)
@example([math.nan, 0.0], 0, 1, abs)
@example([math.inf, 1.0], 0, 1, lambda u: 0.5 * abs(u))
@example([-1.0, -0.5, 0.25, -0.125], 0, 1, lambda u: 0.5 * abs(u))
@example([1.0, 9.0, 0.5, 9.0, 0.25], 0, 2, lambda u: 0.5 * abs(u))
def test_one_map_is_the_scalar_chain(terms, n0, k, h):
    # Under an even map the signed term and |term| give the same bound.
    assert sc.check_inequality_chain(terms, n0, k, (h,)) == \
        check_inequality_chain(terms, n0, k, h)


points_lists = st.one_of(
    st.lists(st.tuples(term, term), max_size=16),
    st.tuples(decaying(), decaying()).map(lambda xy: list(zip(*xy))))


@settings(max_examples=400, deadline=None)
@given(points_lists, st.integers(0, 20), even_map(), even_map())
@example([(1.0, 9.0), (4.0, 1.0), (0.5, 4.0), (2.0, 0.5), (0.25, 9.0)], 1,
         lambda u: 0.5 * abs(u), abs)
@example([(1.0, 0.0), (0.0, 1.0), (-0.0, 0.0), (0.0, 5.0), (3.0, 0.0)], 0,
         lambda u: 0.5 * abs(u), abs)
@example([(1.0, 0.0), (0.0, math.nan), (0.5, 0.0)], 0,
         lambda u: 0.5 * abs(u), abs)
@example([(-2.0, 0.0), (0.0, -1.0), (-0.5, 0.0), (0.0, 0.0)], 0,
         lambda u: 0.5 * abs(u), abs)
def test_two_maps_are_the_alternating_chain(points, n0, fbar, gbar):
    assert sc.check_inequality_chain(_Alternating(points, n0), n0, 1,
                                     (gbar, fbar)) == \
        _alternating_links(points, n0, fbar, gbar)


def test_the_view_reads_x_and_y_by_parity():
    points = [(0.0, 10.0), (1.0, 11.0), (2.0, 12.0), (3.0, 13.0)]
    assert [_Alternating(points, 0)[n] for n in range(4)] == \
        [0.0, 11.0, 2.0, 13.0]
    assert [_Alternating(points, 1)[n] for n in range(4)] == \
        [10.0, 1.0, 12.0, 3.0]
    assert len(_Alternating(points, 1)) == 4


def test_a_cycle_of_three_maps():
    # Each link grows by up to 2, shrinks by 4, then by 2: a net factor
    # 1/4 < 1.  Two complete links; x_6 starts a third, which the terms
    # end before it closes.
    cycle = (lambda u: 2.0 * u, lambda u: 0.25 * u, lambda u: 0.5 * u)
    terms = [1.0, -2.0, 0.5, 0.25, 0.5, -0.125, 0.0625, 0.1, 0.01]
    assert sc.check_inequality_chain(terms, 0, 1, cycle) == \
        ChainResult(True, links_checked=2)
    # At stride 2, with a term between each pair that no link reads: the
    # same links.
    spread = [t for x in terms for t in (x, 99.0)]
    assert sc.check_inequality_chain(spread, 0, 2, cycle) == \
        ChainResult(True, links_checked=2)
    # A middle step above its bound fails its link: x_5 > 0.25 * 0.5.
    terms[5] = 0.2
    assert sc.check_inequality_chain(terms, 0, 1, cycle) == \
        ChainResult(False, first_violation=1, links_checked=1)
    # A cycle whose last bound does not fall below the start fails at
    # link 0, though every step is within its bound.
    flat = (lambda u: 2.0 * u, lambda u: 0.5 * u, lambda u: u)
    assert sc.check_inequality_chain([1.0, 2.0, 1.0, 1.0], 0, 1, flat) == \
        ChainResult(False, first_violation=0, links_checked=0)

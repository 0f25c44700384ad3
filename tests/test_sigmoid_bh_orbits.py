"""Sigmoid-BH orbits, iterated in y = x - b, against the criterion and
against exact arithmetic.

The translated map is written in y, so a term near 0 keeps its own
digits instead of being rounded to a multiple of ulp(b).  A sweep of
seeded draws, with c = 0 (where map and bound coincide) and c > 0, and
with constant and varying a and c, must give no VIOLATED report from
initial values inside the window.  Three orbits shadowed at 50 digits
must keep each term's relative error below 1e-12 while the term is
above 1e-300.
"""

import random
from fractions import Fraction

import pytest

import subconverge as sc

S = sc.ParameterSequence
POWERS = [2, 3, 5, Fraction(4, 3), Fraction(6, 5), Fraction(8, 7)]


def _coefficient(rng, lo, hi):
    """A constant, periodic or tabulated sequence with values in
    [lo, hi]."""
    values = [rng.uniform(lo, hi) for _ in range(rng.randint(1, 3))]
    kind = rng.choice(["constant", "periodic", "tabulated"])
    if kind == "tabulated":
        return S.tabulated(values, rng.uniform(lo, hi))
    return S.constant(values[0]) if kind == "constant" else S.periodic(values)


def _draw(rng, zero_c):
    b = rng.uniform(0.1, 5.0)
    spec = sc.SigmoidBHSpec(
        _coefficient(rng, 0.2, 3.0),
        S.constant(0.0) if zero_c else _coefficient(rng, 0.05, 2.0),
        _coefficient(rng, 0.5, 3.0), rng.choice(POWERS), b,
        rng.randint(1, 3), rng.randint(1, 3))
    bound = sc.sigmoid_bh_bound(spec)
    lo, hi = bound.validity.lo, bound.validity.hi
    init = [lo + (hi - lo) * rng.uniform(0.001, 0.999)
            for _ in range(spec.order)]
    return spec, bound, init


def test_a_sweep_of_draws_gives_no_violated_report():
    rng = random.Random(25)
    varying = 0
    for i in range(400):
        spec, bound, init = _draw(rng, zero_c=i % 2 == 0)
        varying += spec.a_seq.kind != "constant" or \
            spec.c_seq.kind != "constant"
        eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), spec.b)
        report = sc.build_report(eq, bound, sc.iterate(eq, init, 40))
        assert not report.any_violated, (spec, init)
    assert varying > 100


# -- an exact shadow -------------------------------------------------------


ORBITS = {
    # The two former false alarms (c = 0), from analyze's initial values.
    "a0.7-b2.6-p2": (sc.SigmoidBHSpec(S.constant(0.7), S.constant(0.0),
                                      S.constant(1.0), 2, 2.6, 1, 1),
                     [3.2 - 2.6]),
    "a1-b1-p3": (sc.SigmoidBHSpec(S.constant(1.0), S.constant(0.0),
                                  S.constant(1.0), 3, 1.0, 1, 1),
                 [0.2 - 1.0]),
    "c1": (sc.SigmoidBHSpec(S.constant(2.0), S.constant(1.0),
                            S.constant(2.0), 3, 1.0, 1, 2),
           [1.1 - 1.0, 1.1 - 1.0]),
}


@pytest.mark.parametrize("name", sorted(ORBITS))
def test_an_orbit_shadows_the_exact_one(name):
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 50
    spec, init = ORBITS[name]
    eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), spec.b)
    terms = sc.iterate(eq, init, 40).terms
    a, c, q = (ctx.mpf(seq(0)) for seq in (spec.a_seq, spec.c_seq,
                                           spec.q_seq))
    exact = [ctx.mpf(y) for y in init]
    checked = 0
    for n in range(len(init), len(terms)):
        y_k, y_l = exact[n - spec.k], exact[n - spec.l]
        exact.append(a * y_k ** spec.p / (1 + c * (y_l + spec.b) ** q))
        if abs(exact[n]) > ctx.mpf(1e-300):
            checked += 1
            assert abs(terms[n] - exact[n]) <= 1e-12 * abs(exact[n]), n
    assert checked >= 5

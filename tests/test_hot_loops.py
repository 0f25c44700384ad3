"""The per-step forms of the hot loops against plain oracles.

``iterate`` draws its windows from list iterators, the varying Ricker
map of order 3 is unrolled, sigmoid-BH carries its map written in
y = x - b, and the fold check writes out the comparisons of max().  Each
must give the bits the plain form gives; the oracles live here, not in
the package.
"""

import dataclasses
import functools
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subconverge as sc
from subconverge.dynamics import _outside
from subconverge.errors import DomainError, FoldError, ModelParameterError
from subconverge.models import _ricker_parts
from subconverge.systems import (FoldCheck, PlanarSystem, SigmaForm,
                                 _initial_state, _non_finite_state,
                                 _solver, _state_outside)

S = sc.ParameterSequence


def _bits(x):
    return struct.pack("<d", x)


def _outcome(fn, *args):
    """The value's bits, or the exception's type and message."""
    try:
        return _bits(fn(*args))
    except Exception as exc:    # noqa: BLE001 -- any error must match
        return type(exc), str(exc)


def sequences(lo, hi):
    """Constant, periodic and tabulated sequences with values in
    [lo, hi]."""
    value = st.floats(lo, hi)
    values = st.lists(value, min_size=1, max_size=4)
    return st.one_of(
        value.map(S.constant),
        values.map(S.periodic),
        st.tuples(values, value).map(lambda vf: S.tabulated(*vf)))


# -- the Ricker map ----------------------------------------------------------


def ricker_oracle(spec, n, u):
    """u_k^lam exp(a_n - b_1,n u_1 - ... - b_m,n u_m), accumulated left to
    right with seq(n)."""
    e = spec.a_seq(n)
    for seq, u_i in zip(spec.b_seqs, u):
        e = e - seq(n) * u_i
    return u[spec.k - 1] ** spec.lam * math.exp(e)


@st.composite
def ricker_specs(draw):
    m = draw(st.integers(1, 4))
    k = draw(st.integers(1, m))
    b_seqs = [draw(sequences(0.0, 2.0)) for _ in range(m)]
    b_seqs[k - 1] = draw(sequences(0.05, 2.0))
    return sc.RickerFamilySpec(draw(st.floats(1.05, 3.0)), k, m,
                               draw(sequences(-2.0, 2.0)), tuple(b_seqs))


@settings(max_examples=200, deadline=None)
@given(ricker_specs(), st.data())
def test_ricker_evaluator_matches_the_formula_bit_for_bit(spec, data):
    eq, _ = _ricker_parts(spec)
    for n in (0, 1, 2, 3, 5, 7, 40):
        u = tuple(data.draw(st.lists(st.floats(0.0, 4.0), min_size=spec.m,
                                     max_size=spec.m)))
        assert _bits(eq.evaluator(n, u)) == _bits(ricker_oracle(spec, n, u))


@settings(max_examples=50, deadline=None)
@given(ricker_specs(), st.lists(st.floats(0.0, 2.0), min_size=4,
                                max_size=4))
def test_ricker_orbit_matches_the_formula_bit_for_bit(spec, init):
    init = init[:spec.m]
    terms = sc.iterate(_ricker_parts(spec)[0], init, 60).terms
    for n in range(spec.m, len(terms)):
        window = terms[n - spec.m:n][::-1]
        assert _bits(terms[n]) == _bits(ricker_oracle(spec, n, window))


# -- the translated sigmoid Beverton-Holt map --------------------------------


POWERS = [2, 3, Fraction(4, 3)]


@st.composite
def sigmoid_specs(draw, varying):
    p = draw(st.sampled_from(POWERS))
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    zero_c = draw(st.booleans())
    if varying:
        a, q = draw(sequences(0.2, 3.0)), draw(sequences(0.5, 3.0))
        c = S.constant(0.0) if zero_c else draw(sequences(0.05, 2.0))
    else:
        a = S.constant(draw(st.floats(0.2, 3.0)))
        q = S.constant(draw(st.floats(0.5, 3.0)))
        c = S.constant(0.0 if zero_c else draw(st.floats(0.05, 2.0)))
    return sc.SigmoidBHSpec(a, c, q, p=p, b=draw(st.floats(0.1, 3.0)),
                            k=k, l=l)


def round_trip(base, b):
    return lambda n, v: base(n, [vi + b for vi in v]) - b


def y_formula(spec):
    """The conjugate G_n(v) = F_n(v + b) - b written in y = v_k:
    a_n y^p / (1 + c_n (v_l + b)^{q_n}), with y^p keeping its sign for an
    integer p and taken as |y|^p for an even/odd p, and seq(n)."""
    p = Fraction(spec.p)

    def power(y):
        return y ** int(p) if p.denominator == 1 else abs(y) ** float(p)

    def g(n, v):
        w = v[spec.l - 1] + spec.b
        return spec.a_seq(n) * power(v[spec.k - 1]) / (
            1.0 + spec.c_seq(n) * w ** spec.q_seq(n))
    return g


# The round trip in these names is the conjugate F(y + b) - b, which the
# builder writes in y; the oracle writes it in y too, from the formula.
@pytest.mark.parametrize("varying", [False, True],
                         ids=["constant", "varying"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_sigmoid_translated_form_matches_the_round_trip(varying, data):
    spec = data.draw(sigmoid_specs(varying))
    eq = sc.make_sigmoid_bh(spec)
    shifted = sc.translate_to_origin(eq, spec.b)
    assert shifted.evaluator is eq.translated[2]
    oracle = y_formula(spec)
    for n in (0, 1, 2, 5, 9):
        v = data.draw(st.lists(st.floats(-spec.b, 4.0), min_size=spec.order,
                               max_size=spec.order))
        assert _outcome(shifted.evaluator, n, v) == _outcome(oracle, n, v)


@pytest.mark.parametrize("p", POWERS, ids=str)
@pytest.mark.parametrize("c", [0.0, 1.0])
@pytest.mark.parametrize("varying", [False, True],
                         ids=["constant", "varying"])
def test_sigmoid_translated_orbit_matches_the_round_trip(p, c, varying):
    a = S.periodic((1.5, 2.0, 2.5)) if varying else S.constant(2.0)
    cs = S.tabulated((c, 2 * c, c), c) if varying else S.constant(c)
    spec = sc.SigmoidBHSpec(a, cs, S.constant(2.0), p=p, b=1.0, k=2, l=1)
    shifted = sc.translate_to_origin(sc.make_sigmoid_bh(spec), 1.0)
    oracle = dataclasses.replace(shifted, evaluator=y_formula(spec))
    init = (-0.3, 0.2)
    got = sc.iterate(shifted, init, 300).terms
    assert list(map(_bits, got)) == \
        list(map(_bits, sc.iterate(oracle, init, 300).terms))


# -- the translated form cannot outlive a replace ----------------------------


def _sigmoid(a=2.0, c=1.0, b=1.0):
    return sc.make_sigmoid_bh(sc.SigmoidBHSpec(
        S.constant(a), S.constant(c), S.constant(2.0), p=2, b=b, k=1, l=2))


@pytest.mark.parametrize(
    "steps,wraps", [(steps, wraps) for wraps in (False, True)
                    for steps in (0, 1, 250)],
    ids=["0", "1", "250", "0-wraps", "1-wraps", "250-wraps"])
def test_a_replaced_evaluator_gets_the_round_trip(steps, wraps):
    eq = _sigmoid()
    calls = []

    def wrapped(n, u):
        calls.append(n)
        return eq.evaluator(n, u)

    if wraps:
        # functools.wraps copies the evaluator's name and __dict__, so
        # only the identity check tells the wrapper from the builder's map.
        wrapped = functools.wraps(eq.evaluator)(wrapped)
        assert wrapped.__wrapped__ is eq.evaluator
    replaced = dataclasses.replace(eq, evaluator=wrapped)
    assert replaced.translated is eq.translated     # carried, but void
    shifted = sc.translate_to_origin(replaced, 1.0)
    assert shifted.evaluator is not eq.translated[2]
    del calls[:]                # the fixed-point check's calls
    traj = sc.iterate(shifted, (0.1, 0.1), steps)
    assert calls == list(range(2, 2 + steps))
    oracle = dataclasses.replace(shifted,
                                 evaluator=round_trip(eq.evaluator, 1.0))
    assert traj.terms == sc.iterate(oracle, (0.1, 0.1), steps).terms


def test_another_fixed_point_gets_the_round_trip():
    # (x - 1)^2 + 1 is fixed at 1, the builder's b, and at 2.
    eq = _sigmoid(a=1.0, c=0.0)
    shifted = sc.translate_to_origin(eq, 2.0)
    assert shifted.evaluator is not eq.translated[2]
    oracle = round_trip(eq.evaluator, 2.0)
    for v in ([-0.5, 0.0], [0.25, 1.0], [-1.0, 3.0]):
        assert _bits(shifted.evaluator(3, v)) == _bits(oracle(3, v))


def test_a_fixed_point_within_the_tolerance_gets_the_round_trip():
    eq = _sigmoid()
    b = 1.0 + 1e-12
    shifted = sc.translate_to_origin(eq, b)
    assert shifted.evaluator is not eq.translated[2]
    assert _bits(shifted.evaluator(3, [0.1, 0.2])) == \
        _bits(round_trip(eq.evaluator, b)(3, [0.1, 0.2]))


def test_a_point_that_is_not_fixed_is_still_refused():
    with pytest.raises(ModelParameterError, match="is not a fixed value"):
        sc.translate_to_origin(_sigmoid(), 1.5)


# -- windows -----------------------------------------------------------------


def _keeping(order, domain_high=None):
    """An equation whose evaluator keeps every window it receives."""
    kept = []

    def evaluator(n, u):
        kept.append((n, u))
        return 0.5 * u[0] + 0.25 * u[-1] + 0.1

    high = domain_high or (math.inf,) * order
    return sc.EquationSpec(order=order, dominant_lag=1, evaluator=evaluator,
                           domain_low=(0.0,) * order,
                           domain_high=high), kept


@pytest.mark.parametrize("steps", [0, 1, 250])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_kept_windows_hold_their_own_values(order, steps):
    eq, kept = _keeping(order)
    terms = sc.iterate(eq, [0.1 * (i + 1) for i in range(order)],
                       steps).terms
    assert [n for n, _ in kept] == list(range(order, order + steps))
    for n, u in kept:
        assert type(u) is tuple
        assert u == terms[n - order:n][::-1]


@pytest.mark.parametrize("order", [2, 3])
def test_the_mixed_interval_path_still_passes_lists(order):
    high = (math.inf,) * (order - 1) + (10.0,)
    eq, kept = _keeping(order, high)
    terms = sc.iterate(eq, [0.2] * order, 40).terms
    assert len(kept) == 40
    for n, u in kept:
        assert type(u) is list
        assert u == list(terms[n - order:n][::-1])


@pytest.mark.parametrize("order", [1, 2, 4])
def test_a_domain_exit_names_the_window_it_would_enter(order):
    def evaluator(n, u):
        return -1.0 if n == order + 3 else 0.5 * u[0]

    eq = sc.EquationSpec(order=order, dominant_lag=1, evaluator=evaluator,
                         domain_low=(0.0,) * order,
                         domain_high=(math.inf,) * order)
    init = [0.5 * (i + 1) for i in range(order)]
    terms = list(init)
    for n in range(order, order + 4):
        terms.append(evaluator(n, terms[::-1]))
    with pytest.raises(DomainError) as exc:
        sc.iterate(eq, init, 20)
    expected = _outside(order + 4, terms[:-order - 1:-1])
    assert exc.value.index == order + 4
    assert str(exc.value) == str(expected)
    assert str(exc.value).startswith("history (-1.0")


# -- fold-check deviations ---------------------------------------------------


def old_check_fold_consistency(sys, initial, steps, tol=1e-9):
    """The fold check with max() for each deviation, as it was written
    before the comparisons were spelled out, but with the rule that came
    later: a NaN deviation diverges (max() still passes it over)."""
    x, y = _initial_state(sys, initial)
    f, g, sigma, isfinite = sys.f, sys.g, _solver(sys), math.isfinite
    (x_lo, x_hi), (y_lo, y_hi) = sys.domain_x, sys.domain_y
    u0, u1, r = None, x, None
    max_x = max_y = 0.0
    div_x = div_y = stopped = None
    for n in range(steps):
        xn, yn = f(n, x, y), g(n, x, y)
        if not (isfinite(xn) and isfinite(yn)):
            stopped = _non_finite_state(xn, yn, n + 1)
            break
        if not (x_lo <= xn <= x_hi and y_lo <= yn <= y_hi):
            raise _state_outside(xn, yn, n + 1)
        try:
            nxt = f(n, u1, g(n - 1, u0, r)) if n else float(xn)
        except OverflowError:
            nxt = math.inf
        if not isfinite(nxt):
            stopped = "fold term x_%d is not finite" % (n + 1)
            break
        if not x_lo <= nxt <= x_hi and n + 1 < steps:
            raise _outside(n + 2, (nxt, u1))
        try:
            r = sigma(n, u1, nxt)
        except FoldError as exc:
            if exc.index is None:
                raise
            stopped = str(exc)
            break
        if r != y:
            d = abs(y - r) / max(abs(y), abs(r), 1.0)
            if (d > tol or d != d) and div_y is None:
                div_y = n
            if d > max_y:
                max_y = d
        if nxt != xn:
            d = abs(xn - nxt) / max(abs(xn), abs(nxt), 1.0)
            if (d > tol or d != d) and div_x is None:
                div_x = n + 1
            if d > max_x:
                max_x = d
        u0, u1 = u1, nxt
        x, y = xn, yn
    else:
        n = max(steps, 0)
    first = div_x if div_x is not None else div_y
    return FoldCheck(max_x <= tol and max_y <= tol and first is None, max_x,
                     max_y, first, n + 1, stopped)


# sigma's answer as a function of the true y_n: exact, a tie in |.|,
# NaN, complex, 1 (the floor itself), and values below and above 1.
ANSWERS = {
    "exact": lambda y: y,
    "tie": lambda y: -y,
    "nan": lambda y: math.nan,
    "complex": lambda y: complex(y, 0.5),
    "one": lambda y: 1.0,
    "minus-one": lambda y: -1.0,
    "small": lambda y: 0.25 * y,
    "large": lambda y: 3.0 * y + 2.0,
    "ulp": lambda y: math.nextafter(y, math.inf),
}


def answering(answers, initial, steps):
    """x' = y, y' = y/2 - x (eigenvalues of modulus 1, so |x|, |y| stay
    on the initial scale); sigma answers with ANSWERS[answers[n]] of the
    true y_n, and the fold feeds the answer's real part on into g."""
    def f(n, u, v):
        return v

    def g(n, u, v):
        return 0.5 * v.real - u

    plain = PlanarSystem(f, g, domain_x=(-math.inf, math.inf),
                         domain_y=(-math.inf, math.inf))
    ys = sc.iterate_system(plain, initial, steps).ys

    def sigma(n, u, w):
        return ANSWERS[answers[n % len(answers)]](ys[n])

    return dataclasses.replace(plain, sigma=SigmaForm.custom(sigma))


def _fold_outcome(check, sysm, init, steps, tol):
    try:
        return repr(tuple(check(sysm, init, steps, tol)))
    except Exception as exc:    # noqa: BLE001 -- any error must match
        return type(exc), str(exc), getattr(exc, "index", None)


@pytest.mark.parametrize("answer", sorted(ANSWERS))
@pytest.mark.parametrize("init", [(0.3, -0.2), (1.0, -1.0), (2.5, 1.5),
                                  (0.75, 1.25)], ids=str)
def test_fold_deviations_match_the_max_loop(answer, init):
    sysm = answering(["exact", answer], init, 40)
    new = _fold_outcome(sc.check_fold_consistency, sysm, init, 40, 1e-9)
    assert new == _fold_outcome(old_check_fold_consistency, sysm, init, 40,
                                1e-9)
    if answer not in ("exact", "ulp"):
        assert "False" in new       # the answer was seen as a divergence
    if answer == "nan":             # at y_1; the maxima pass NaN over
        assert new.startswith("(False, 0.0, 0.0, 1, ")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(sorted(ANSWERS)), min_size=1, max_size=8),
       st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       st.integers(0, 40), st.sampled_from([1e-9, 0.0, 0.5]))
def test_fold_deviations_match_the_max_loop_on_draws(answers, init, steps,
                                                     tol):
    sysm = answering(answers, init, steps)
    assert _fold_outcome(sc.check_fold_consistency, sysm, init, steps,
                         tol) == \
        _fold_outcome(old_check_fold_consistency, sysm, init, steps, tol)

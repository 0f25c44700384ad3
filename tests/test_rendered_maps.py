"""Each family's rendered map against the closures it replaced.

Every catalog map, sigma and step is one body of text, filled in for
constant or step-dependent coefficients by ``models._render``.  The
closures below are the constant/varying pairs the builders had before,
kept verbatim as the oracle.  On seeded draws of constant, periodic,
tabulated and mixed coefficients, each rendered function must return the
same double (compared by repr, so every bit) or raise the same exception
type with the same message and index.  The draws reach ``DomainError`` at
z <= 0, the sigmas' indexed ``FoldError`` and ``OverflowError``.
"""

import dataclasses
import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

import subconverge as sc
from subconverge.dynamics import EquationSpec
from subconverge.errors import DomainError, FoldError, SubconvergeError
from subconverge.models import (RickerFamilySpec, SigmoidBHSpec,
                                _real_power, _validate_power)
from subconverge.planar import CompetitionParams
from subconverge.sequences import ParameterSequence as S


# -- reference implementation (verbatim) ---------------------------------


def _varying(*resolved) -> bool:
    """Whether any resolved coefficient depends on the step."""
    return any(map(callable, resolved))


def _at(resolved):
    """A resolved coefficient as a function of the step n."""
    return resolved if callable(resolved) else (lambda n: resolved)


def ref_ricker_evaluator(lam: float, k: int, a, bs):
    m, km1, exp = len(bs), k - 1, math.exp
    if _varying(a, *bs):
        a_at, b_at = _at(a), tuple(map(_at, bs))
        if m == 3:
            b1, b2, b3 = b_at

            def evaluator(n: int, u: Sequence[float]) -> float:
                e = a_at(n) - b1(n) * u[0] - b2(n) * u[1] - b3(n) * u[2]
                return u[km1] ** lam * exp(e)
        else:
            def evaluator(n: int, u: Sequence[float]) -> float:
                e = a_at(n)
                for b_i, u_i in zip(b_at, u):
                    e -= b_i(n) * u_i
                return u[km1] ** lam * exp(e)
    elif m == 3:
        b1, b2, b3 = bs

        def evaluator(n: int, u: Sequence[float]) -> float:
            return u[km1] ** lam * exp(a - b1 * u[0] - b2 * u[1]
                                       - b3 * u[2])
    else:
        def evaluator(n: int, u: Sequence[float]) -> float:
            e = a
            for b_i, u_i in zip(bs, u):
                e -= b_i * u_i
            return u[km1] ** lam * exp(e)
    return evaluator


def ref_sigmoid_bh(spec: SigmoidBHSpec):
    p = _validate_power(spec.p)
    b, k, l = spec.b, spec.k, spec.l
    km1, lm1 = k - 1, l - 1
    a, c, q = (seq.resolve() for seq in (spec.a_seq, spec.c_seq, spec.q_seq))
    absolute, power = _real_power(p)
    if _varying(a, c, q):
        a_at, c_at, q_at = _at(a), _at(c), _at(q)

        def evaluator(n: int, u: Sequence[float]) -> float:
            x = u[km1] - b
            num = a_at(n) * (abs(x) if absolute else x) ** power
            return num / (1.0 + c_at(n) * u[lm1] ** q_at(n)) + b

        def translated(n: int, v: Sequence[float]) -> float:
            y = v[km1]
            num = a_at(n) * (abs(y) if absolute else y) ** power
            return num / (1.0 + c_at(n) * (v[lm1] + b) ** q_at(n))
    else:
        def evaluator(n: int, u: Sequence[float]) -> float:
            x = u[km1] - b
            num = a * (abs(x) if absolute else x) ** power
            return num / (1.0 + c * u[lm1] ** q) + b

        def translated(n: int, v: Sequence[float]) -> float:
            y = v[km1]
            num = a * (abs(y) if absolute else y) ** power
            return num / (1.0 + c * (v[lm1] + b) ** q)
    return evaluator, translated


def ref_threed_step(a, p, b: float, c: float, d: float, q: float, r: float,
                    s: float):
    exp, log = math.exp, math.log
    if _varying(a, p):
        a_at, p_at = _at(a), _at(p)

        def step(n: int, state):
            x, y, z = state
            if z <= 0:
                raise DomainError("z_%d = %r is not positive" % (n, z),
                                  index=n)
            return (exp(a_at(n) - b * x - c * y - d * z),
                    p_at(n) * x + q * z - r * log(z), s * x)
    else:
        def step(n: int, state):
            x, y, z = state
            if z <= 0:
                raise DomainError("z_%d = %r is not positive" % (n, z),
                                  index=n)
            return (exp(a - b * x - c * y - d * z),
                    p * x + q * z - r * log(z), s * x)
    return step


def ref_adult_juvenile_maps(s, t, r, lam: float):
    exp = math.exp
    if _varying(s, t, r):
        s_at, t_at, r_at = _at(s), _at(t), _at(r)

        def f(n: int, u: float, v: float) -> float:
            return s_at(n) * v

        def g(n: int, u: float, v: float) -> float:
            return u ** lam * exp(r_at(n) - u - t_at(n) * v)

        def sigma(n: int, u: float, w: float) -> float:
            return w / s_at(n)
    else:
        def f(n: int, u: float, v: float) -> float:
            return s * v

        def g(n: int, u: float, v: float) -> float:
            return u ** lam * exp(r - u - t * v)

        def sigma(n: int, u: float, w: float) -> float:
            return w / s
    return f, g, sigma


def ref_rbh_map(r, a, b, d: float, e: float, own_is_y: bool):
    if _varying(r, a, b):
        r_at, a_at, b_at = _at(r), _at(a), _at(b)
        if own_is_y:
            def rbh(n: int, x: float, y: float) -> float:
                return r_at(n) * (yd := y ** d) / (a_at(n) + yd
                                                   + b_at(n) * x ** e)
        else:
            def rbh(n: int, x: float, y: float) -> float:
                return r_at(n) * (xd := x ** d) / (a_at(n) + xd
                                                   + b_at(n) * y ** e)
    elif own_is_y:
        def rbh(n: int, x: float, y: float) -> float:
            return r * (yd := y ** d) / (a + yd + b * x ** e)
    else:
        def rbh(n: int, x: float, y: float) -> float:
            return r * (xd := x ** d) / (a + xd + b * y ** e)
    return rbh


def _no_preimage(n: int, u: float, w: float) -> FoldError:
    return FoldError("sigma_%d: w=%r has no preimage at u=%r" % (n, w, u),
                     index=n)


def ref_competition_sigma(r1, a1, b1, d1: float, d3: float):
    inv_d3 = 1.0 / d3
    if _varying(r1, a1, b1):
        r1_at, a1_at, b1_at = _at(r1), _at(a1), _at(b1)

        def sigma(n: int, u: float, w: float) -> float:
            if w <= 0:
                raise _no_preimage(n, u, w)
            num = r1_at(n) * (ud := u ** d1) / w - a1_at(n) - ud
            return (num / b1_at(n)) ** inv_d3
    else:
        def sigma(n: int, u: float, w: float) -> float:
            if w <= 0:
                raise _no_preimage(n, u, w)
            return ((r1 * (ud := u ** d1) / w - a1 - ud) / b1) ** inv_d3
    return sigma


def ref_swapped_sigma(r1, a1, b1, d1: float, d3: float):
    inv_d1 = 1.0 / d1
    r1_at, a1_at, b1_at = _at(r1), _at(a1), _at(b1)

    def sigma(n: int, u: float, w: float) -> float:
        denom = r1_at(n) - w
        if denom <= 0:
            raise _no_preimage(n, u, w)
        return (w * (a1_at(n) + b1_at(n) * u ** d3) / denom) ** inv_d1
    return sigma


# -- comparison ------------------------------------------------------------

KINDS = ("constant", "periodic", "tabulated", "mixed")


def _draw_seq(rng: random.Random, kind: str, lo: float, hi: float) -> S:
    if kind == "mixed":
        kind = rng.choice(KINDS[:3])
    if kind == "constant":
        return S.constant(rng.uniform(lo, hi))
    values = [rng.uniform(lo, hi) for _ in range(rng.randint(1, 5))]
    if kind == "periodic":
        return S.periodic(values)
    return S.tabulated(values, rng.uniform(lo, hi))


def _call(fn, *args):
    """fn's result by repr, or its exception's type, message and index."""
    try:
        return repr(fn(*args))
    except Exception as exc:    # compared by Tally.same, not hidden
        return type(exc), str(exc), getattr(exc, "index", None)


class Tally:
    """Which exception types the compared calls raised."""

    def __init__(self):
        self.raised = set()

    def same(self, got_fn, ref_fn, *args):
        got = _call(got_fn, *args)
        assert got == _call(ref_fn, *args), args
        if isinstance(got, tuple):
            self.raised.add(got[0])


def _steps(rng: random.Random):
    """Step indices past tables' ends and below 0 too."""
    return [rng.randint(-3, 30) for _ in range(12)]


def _value(rng: random.Random, lo: float = 0.0, hi: float = 5.0) -> float:
    """Mostly in [lo, hi]; sometimes 0, huge, or negative."""
    pick = rng.random()
    if pick < 0.05:
        return 0.0
    if pick < 0.12:
        return rng.choice((1e200, 1e300, 700.0))
    if pick < 0.17:
        return -rng.uniform(0.0, 2.0)
    return rng.uniform(lo, hi)


RICKER_ORDERS = [(m, k) for m in range(1, 6) for k in range(1, m + 1)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m,k", RICKER_ORDERS)
def test_ricker_map_matches_reference(m, k, kind):
    rng = random.Random("ricker:%d:%d:%s" % (m, k, kind))
    tally = Tally()
    for _ in range(25):
        spec = RickerFamilySpec(
            rng.uniform(1.1, 3.0), k, m, _draw_seq(rng, kind, -1.0, 800.0),
            tuple(_draw_seq(rng, kind, 0.1, 1.5) for _ in range(m)))
        eq, _ = sc.models._ricker_parts(spec)
        ref = ref_ricker_evaluator(spec.lam, k, spec.a_seq.resolve(),
                                   tuple(s.resolve() for s in spec.b_seqs))
        for n in _steps(rng):
            u = tuple(_value(rng) for _ in range(m))
            tally.same(eq.evaluator, ref, n, u)
        init = tuple(rng.uniform(0.0, 3.0) for _ in range(m))
        assert _orbit(eq, init) == \
            _orbit(dataclasses.replace(eq, evaluator=ref), init)
    assert OverflowError in tally.raised


def _orbit(eq: EquationSpec, init, steps: int = 60):
    try:
        traj = sc.iterate(eq, init, steps)
    except SubconvergeError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return repr(traj.terms), traj.diagnostic


def test_ricker_bound_is_the_map_at_dominating_constants():
    rng = random.Random("ricker-bound")
    for m, k in RICKER_ORDERS:
        lam, a_sup, b_inf = rng.uniform(1.1, 3.0), rng.uniform(0, 2), 0.7
        bound = sc.models._ricker_bound(lam, a_sup, b_inf, k)
        ref = ref_ricker_evaluator(lam, k, a_sup, (0.0,) * (k - 1) + (b_inf,))
        for _ in range(20):
            u = _value(rng)
            assert _call(bound.g, u) == \
                _call(ref, 0, (0.0,) * (k - 1) + (u,))


POWERS = (1, 2, 3, Fraction(2, 3), Fraction(4, 3), Fraction(4, 5))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", POWERS, ids=str)
def test_sigmoid_bh_maps_match_reference(p, kind):
    rng = random.Random("sigmoid-bh:%s:%s" % (p, kind))
    tally = Tally()
    for _ in range(25):
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        spec = SigmoidBHSpec(_draw_seq(rng, kind, 0.1, 3.0),
                             _draw_seq(rng, kind, 0.0, 2.0),
                             _draw_seq(rng, kind, 0.3, 2.5), p,
                             rng.choice((0.0, rng.uniform(0.0, 3.0))), k, l)
        eq = sc.make_sigmoid_bh(spec)
        assert eq.translated[:2] == (eq.evaluator, spec.b)
        evaluator, translated = ref_sigmoid_bh(spec)
        for n in _steps(rng):
            u = tuple(_value(rng) for _ in range(spec.order))
            tally.same(eq.evaluator, evaluator, n, u)
            tally.same(eq.translated[2], translated, n, u)
    if not isinstance(p, int) or p > 1:
        assert OverflowError in tally.raised


@pytest.mark.parametrize("a_kind", KINDS)
@pytest.mark.parametrize("p_kind", KINDS)
def test_threed_step_matches_reference(a_kind, p_kind):
    rng = random.Random("threed-step:%s:%s" % (a_kind, p_kind))
    tally = Tally()
    for _ in range(25):
        a = _draw_seq(rng, a_kind, -1.0, 1500.0)
        p = _draw_seq(rng, p_kind, -1.0, 0.5)
        coeffs = [rng.uniform(0.0, 0.5), rng.uniform(0.2, 1.7),
                  rng.choice((0.0, rng.uniform(0.0, 0.5)))] + \
            [rng.uniform(0.2, 1.7) for _ in range(3)]
        sysm, _ = sc.make_3d_example(a, p, *coeffs)
        ref = ref_threed_step(a.resolve(), p.resolve(), *coeffs)
        for n in _steps(rng):
            state = (_value(rng), _value(rng), _value(rng, -1.0, 3.0))
            tally.same(sysm.step, ref, n, state)
    assert {DomainError, OverflowError} <= tally.raised


def _planar_args(rng: random.Random):
    return [(n, _value(rng), _value(rng)) for n in _steps(rng)]


@pytest.mark.parametrize("kind", KINDS)
def test_adult_juvenile_maps_match_reference(kind):
    rng = random.Random("adult-juvenile:%s" % kind)
    tally = Tally()
    for _ in range(25):
        s, t = _draw_seq(rng, kind, 0.1, 1.0), _draw_seq(rng, kind, 0.1, 2.0)
        r, lam = _draw_seq(rng, kind, -1.0, 800.0), rng.uniform(1.1, 3.0)
        sysm = sc.make_adult_juvenile(s, t, r, lam)
        f, g, sigma = ref_adult_juvenile_maps(s.resolve(), t.resolve(),
                                              r.resolve(), lam)
        _, g_top, _ = ref_adult_juvenile_maps(1.0, 0.0, r.bounds()[1], lam)
        for args in _planar_args(rng):
            tally.same(sysm.f, f, *args)
            tally.same(sysm.g, g, *args)
            tally.same(sysm.sigma, sigma, *args)
            tally.same(sysm.envelope_f, lambda v: v * 1.0, args[2])
            tally.same(sysm.envelope_g, lambda u: g_top(0, u, 0.0), args[1])
    assert OverflowError in tally.raised


@pytest.mark.parametrize("swapped", [False, True], ids=["tail", "swapped"])
@pytest.mark.parametrize("kind", KINDS)
def test_competition_maps_match_reference(kind, swapped):
    rng = random.Random("competition:%s:%s" % (kind, swapped))
    tally = Tally()
    for _ in range(25):
        r1, r2, a1, a2 = (_draw_seq(rng, kind, 0.5, 3.0) for _ in range(4))
        b1, b2 = (_draw_seq(rng, kind, 0.0, 1.0) for _ in range(2))
        d1, d2 = rng.uniform(1.1, 3.0), rng.uniform(1.1, 3.0)
        d3, d4 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        sysm = sc.make_competition(CompetitionParams.make(
            r1, r2, a1, a2, d1, d2, b1, b2, d3, d4), swapped)
        res = [seq.resolve() for seq in (r1, a1, b1, r2, a2, b2)]
        f = ref_rbh_map(*res[:3], d1, d3, own_is_y=swapped)
        g = ref_rbh_map(*res[3:], d2, d4, own_is_y=not swapped)
        fbar1 = ref_rbh_map(r1.bounds()[1], a1.bounds()[0], 0.0, d1, d3,
                            False)
        fbar2 = ref_rbh_map(r2.bounds()[1], a2.bounds()[0], 0.0, d2, d4,
                            False)
        if swapped:
            sigma = ref_swapped_sigma(*res[:3], d1, d3)
        elif b1.bounds()[0] > 0:
            sigma = ref_competition_sigma(*res[:3], d1, d3)
        else:
            sigma = None
        assert (sysm.sigma is None) == (sigma is None)
        for n, u, v in _planar_args(rng):
            tally.same(sysm.f, f, n, u, v)
            tally.same(sysm.g, g, n, u, v)
            tally.same(sysm.envelope_f, lambda x: fbar1(0, x, 0.0), u)
            tally.same(sysm.envelope_g, lambda x: fbar2(0, x, 0.0), u)
            if sigma is not None:
                # w near r1 too, where the swapped sigma has no preimage
                w = rng.choice((v, -v, rng.uniform(2.5, 3.5)))
                tally.same(sysm.sigma, sigma, n, u, w)
    assert FoldError in tally.raised
    assert OverflowError in tally.raised


# -- large order -----------------------------------------------------------


def test_ricker_of_five_thousand_lags_matches_reference():
    """One statement per lag: as one expression, the lag sum of a few
    thousand lags nests too deep to compile."""
    m = 5000
    rng = random.Random("ricker-5000")
    bs = [S.constant(rng.uniform(1e-5, 2e-4)) for _ in range(m)]
    bs[1234] = S.periodic((1e-4, 3e-4, 2e-4))
    spec = RickerFamilySpec(1.5, 7, m, S.periodic((1.0, 1.5, 0.5, 1.2)),
                            tuple(bs))
    eq, _ = sc.models._ricker_parts(spec)
    ref = ref_ricker_evaluator(spec.lam, spec.k, spec.a_seq.resolve(),
                               tuple(s.resolve() for s in bs))
    init = tuple(rng.uniform(0.1, 2.0) for _ in range(m))
    got = sc.iterate(eq, init, 60)
    assert repr(got.terms) == repr(sc.iterate(
        dataclasses.replace(eq, evaluator=ref), init, 60).terms)
    assert len(set(got.terms[m:])) > 10


# -- shared code -------------------------------------------------------------


def _builds(rng: random.Random):
    """Per family, the functions of one build, from fresh coefficient
    values of fixed kinds."""
    def seq(lo, hi):
        return S.periodic((rng.uniform(lo, hi),) * 2)

    def const(lo, hi):
        return S.constant(rng.uniform(lo, hi))

    ricker, _ = sc.models._ricker_parts(RickerFamilySpec(
        rng.uniform(1.1, 3.0), 2, 4, seq(0, 2),
        (const(0.1, 1),) * 3 + (seq(0.1, 1),)))
    sig = sc.make_sigmoid_bh(SigmoidBHSpec(
        const(0.5, 2), seq(0, 1), const(0.5, 2), 3, rng.uniform(0, 2), 2, 1))
    threed, fold = sc.make_3d_example(
        seq(0.5, 1.5), const(0, 0.5), *(rng.uniform(0.2, 1) for _ in range(6)))
    aj = sc.make_adult_juvenile(seq(0.3, 1), const(0.5, 1), const(1, 2),
                                rng.uniform(1.1, 3.0))
    out = [ricker.evaluator, sig.evaluator, sig.translated[2], threed.step,
           fold.evaluator, aj.f, aj.g, aj.sigma.solve]
    for swapped in (False, True):
        comp = sc.make_competition(CompetitionParams.make(
            seq(1, 3), const(1, 3), const(1, 2), seq(1, 2), 2.0,
            rng.uniform(1.5, 3), seq(0.2, 1), const(0.2, 1)), swapped)
        out += [comp.f, comp.g, comp.sigma.solve]
    return out


def test_builds_that_differ_in_values_share_code():
    """Only fixed text and ints enter a map's source: two builds that
    differ in coefficient values share each function's code object, so a
    build compiles nothing that an earlier one compiled."""
    rng = random.Random("shared-code")
    first, second = _builds(rng), _builds(rng)
    for one, two in zip(first, second):
        assert one is not two
        assert one.__code__ is two.__code__, one.__qualname__

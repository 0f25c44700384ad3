"""Each family's rendered map, and the orbit loops that inline it,
against the closures the maps replaced.

Every catalog map, sigma and step is one body of text, filled in for
constant or step-dependent coefficients by ``dynamics._render``.  The
closures below are the constant/varying pairs the builders had before,
kept verbatim as the oracle; where a power overflows on its own, the
Ricker and competition maps and adult-juvenile's g now take the term in
logs, and the oracle adds that fallback around the closures.  On seeded draws of constant,
periodic, tabulated and mixed coefficients, each rendered function must
return the same double (compared by repr, so every bit) or raise the same
exception type with the same message and index.  The draws reach the
sigmas' indexed ``FoldError`` and ``OverflowError``.  The 3D system's
three component maps, run as one step, match its former one-body step
wherever z > 0; at z = 0.0, where that step raised ``DomainError``, y is
+inf.

``iterate`` and ``iterate_system`` inline a rendered map's body in their
loop and call any other evaluator, such as these closures, once per step.
The orbits of both must agree term for term, with the same diagnostics
and the same ``DomainError`` messages and indices.
"""

import dataclasses
import decimal
import functools
import io
import math
import random
import tokenize
from fractions import Fraction
from itertools import islice
from typing import List, Sequence, Tuple

import pytest

import subconverge as sc
from subconverge.dynamics import (EquationSpec, Orbit, Trajectory, _fill,
                                  _non_finite, _outside, _overflow,
                                  _rendered, check_finite_initial)
from subconverge.errors import (DomainError, FoldError, NonFiniteError,
                                SubconvergeError)
from subconverge.models import (RickerFamilySpec, SigmoidBHSpec,
                                _real_power, _validate_power)
from subconverge.planar import CompetitionParams, _rbh_log
from subconverge.sequences import ParameterSequence as S

_INF = math.inf


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


def ref_iterate(eq: EquationSpec, initial: Sequence[float],
                steps: int) -> Trajectory:
    """``iterate`` before its loop was rendered (verbatim, with the
    checks of the former ``evaluate_map`` written out): a zip loop over
    list iterators, or the evaluator on the whole window, checked, on
    lags with different intervals."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    init = tuple(float(v) for v in initial)
    if len(init) != eq.order:
        raise ValueError("need %d initial values, got %d"
                         % (eq.order, len(init)))
    check_finite_initial(init)
    if not eq.in_domain(init[::-1]):
        raise DomainError("initial values %r outside domain" % (init,),
                          index=0)
    terms: List[float] = list(init)
    m = eq.order
    end = m + steps
    stop = -m - 1           # terms[:stop:-1] is the window x_{n-1}..x_{n-m}
    diagnostic = None
    lo, hi = eq.domain_low[0], eq.domain_high[0]
    if eq.domain_low.count(lo) != m or eq.domain_high.count(hi) != m:
        # Lags with different intervals: check the whole window each step.
        for n in range(m, end):
            u = terms[:stop:-1]
            if not eq.in_domain(u):
                raise _outside(n, u)
            try:
                x = eq.evaluator(n, u)
            except OverflowError as exc:
                diagnostic = str(_overflow(n, exc))
                break
            if not math.isfinite(x):
                diagnostic = str(_non_finite(n, x))
                break
            terms.append(x)
        return Trajectory(tuple(terms), diagnostic)
    # One interval for every lag: a window leaves the domain exactly when
    # its newest term does, so each term is checked once, as it enters.
    # Lag i+1 reads terms from index m-1-i on; the list iterators see each
    # term appended before the next window is drawn, and range comes first
    # in the zip so that no window is drawn past the last step.
    windows = zip(*[islice(terms, m - 1 - i, None) for i in range(m)])
    evaluator = eq.evaluator
    isfinite = math.isfinite
    append = terms.append
    for n, u in zip(range(m, end), windows):
        try:
            x = evaluator(n, u)
        except OverflowError as exc:
            diagnostic = str(_overflow(n, exc))
            break
        if not isfinite(x):
            diagnostic = str(_non_finite(n, x))
            break
        append(x)
        if not lo <= x <= hi and n + 1 < end:
            raise _outside(n + 1, terms[:stop:-1])
    return Trajectory(tuple(terms), diagnostic)


def _in_domain(sys, x: float, y: float) -> bool:
    return (sys.domain_x[0] <= x <= sys.domain_x[1]
            and sys.domain_y[0] <= y <= sys.domain_y[1])


def _initial_state(sys, initial) -> Tuple[float, float]:
    x, y = float(initial[0]), float(initial[1])
    check_finite_initial((x, y))
    if not _in_domain(sys, x, y):
        raise DomainError("initial point %r outside domain" % ((x, y),),
                          index=0)
    return x, y


def _non_finite_state(x: float, y: float, n: int) -> str:
    return "non-finite state (%r, %r) at step %d" % (x, y, n)


def _state_outside(x: float, y: float, n: int) -> DomainError:
    return DomainError("state %r outside domain at step %d" % ((x, y), n),
                       index=n)


def ref_iterate_system(sys, initial, steps: int) -> Orbit:
    """``iterate_system`` before its loop was rendered (verbatim)."""
    x, y = _initial_state(sys, initial)
    points: List[Tuple[float, float]] = [(x, y)]
    append, isfinite = points.append, math.isfinite
    f, g = sys.f, sys.g
    (x_lo, x_hi), (y_lo, y_hi) = sys.domain_x, sys.domain_y
    diagnostic = None
    for n in range(steps):
        xn, yn = f(n, x, y), g(n, x, y)
        if not (isfinite(xn) and isfinite(yn)):
            diagnostic = _non_finite_state(xn, yn, n + 1)
            break
        if not (x_lo <= xn <= x_hi and y_lo <= yn <= y_hi):
            raise _state_outside(xn, yn, n + 1)
        x, y = xn, yn
        append((x, y))
    return Orbit(tuple(points), diagnostic)


# -- the overflow fallbacks ---------------------------------------------------
#
# Where u^lam or exp(e) overflows on its own, the Ricker map and
# adult-juvenile's g take exp(lam ln u + e); the competition map takes its quotient in log form
# (``planar._rbh_log``) where X^d or Y^e does.  The closures above raise
# there; these wrappers add the fallback, so the closures stay verbatim.


def ricker_exponent(a, bs):
    """e = a_n - b_1,n u_1 - ... - b_m,n u_m, accumulated left to right."""
    a_at, b_at = _at(a), tuple(map(_at, bs))

    def exponent(n: int, u: Sequence[float]) -> float:
        e = a_at(n)
        for b_i, u_i in zip(b_at, u):
            e -= b_i(n) * u_i
        return e
    return exponent


def with_ricker_log_form(ref, lam: float, k: int, exponent):
    """``ref``, or where it overflows exp(lam ln u_k + e) (0.0 at u_k = 0);
    ref's own error where that overflows too, or u_k < 0."""
    def evaluator(n: int, u: Sequence[float]) -> float:
        try:
            return ref(n, u)
        except OverflowError:
            if not u[k - 1]:
                return 0.0
            try:
                return math.exp(lam * math.log(u[k - 1]) + exponent(n, u))
            except (OverflowError, ValueError):
                pass
            raise
    return evaluator


def ref_ricker(lam: float, k: int, a, bs):
    """The Ricker closure with the log-form fallback."""
    return with_ricker_log_form(ref_ricker_evaluator(lam, k, a, bs), lam, k,
                                ricker_exponent(a, bs))


def ref_adult_juvenile(s, t, r, lam: float):
    """The adult-juvenile closures, g with the Ricker fallback on its
    exponent e = r_n - u - t_n v."""
    f, g, sigma = ref_adult_juvenile_maps(s, t, r, lam)
    r_at, t_at = _at(r), _at(t)
    ricker = with_ricker_log_form(
        lambda n, w: g(n, *w), lam, 1,
        lambda n, w: r_at(n) - w[0] - t_at(n) * w[1])
    return f, lambda n, u, v: ricker(n, (u, v)), sigma


def ref_rbh(r, a, b, d: float, e: float, own_is_y: bool):
    """The competition closure, or where it overflows on the quadrant the
    log form of its quotient."""
    ref = ref_rbh_map(r, a, b, d, e, own_is_y)
    r_at, a_at, b_at = _at(r), _at(a), _at(b)

    def rbh(n: int, x: float, y: float) -> float:
        try:
            return ref(n, x, y)
        except OverflowError:
            own, other = (y, x) if own_is_y else (x, y)
            if own < 0 or other < 0:
                raise
            return _rbh_log(r_at(n), a_at(n), b_at(n), own, other, d, e)
    return rbh


def _relative(got: float, exact: decimal.Decimal) -> float:
    return float(abs((decimal.Decimal(got) - exact) / exact))


def _overflowing_log(rng: random.Random, power: float) -> float:
    """ln u for which u ** power overflows."""
    return rng.uniform(709.8 / power, 709.7)


def test_the_log_forms_are_accurate():
    """Against 40-digit decimals, where a power or exp overflows on its own
    and the exact term is a normal double: exp(s) is off by about |s| ulps
    when s is off by one, so the bound grows with the exponents' size."""
    rng = random.Random("log-forms")
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        for i in range(400):
            # u^lam e^a with lam ln u + a = t in (-700, 700)
            lam, t = rng.uniform(1.1, 1000.0), rng.uniform(-700.0, 700.0)
            if i % 2:
                a = rng.uniform(710.0, 1500.0)
                log_u = (t - a) / lam
            else:
                log_u = _overflowing_log(rng, lam)
                a = t - lam * log_u
            u = math.exp(log_u)
            ricker = sc.models._ricker_map(lam, 1, a, (0.0,), "r").evaluator
            exact = (D(lam) * D(u).ln() + D(a)).exp()
            assert _relative(ricker(0, (u,)), exact) < \
                1e-15 * (abs(lam * log_u) + abs(a) + 1.0), (lam, a, u)
        checked = 0
        for i in range(400):
            # r X^d / (a + X^d + b Y^e) with X^d or Y^e past the doubles
            r, a = rng.uniform(0.2, 60.0), rng.uniform(0.05, 700.0)
            b = rng.choice((0.0, rng.uniform(0.0, 2.0),
                            10.0 ** rng.uniform(-300, 0)))
            d, e = rng.uniform(1.1, 4.0), rng.uniform(0.2, 3.0)
            x, y = (math.exp(rng.uniform(-690.0, 690.0) / d),
                    math.exp(rng.uniform(-690.0, 690.0) / max(e, 1.0)))
            if i % 2:
                x = math.exp(_overflowing_log(rng, d))
            else:   # a finite Y with Y^e past the doubles needs e > 1
                e = rng.uniform(1.05, 3.0)
                y = math.exp(_overflowing_log(rng, e))
            xd, ye = (D(d) * D(x).ln()).exp(), (D(e) * D(y).ln()).exp()
            exact = D(r) * xd / (D(a) + xd + D(b) * ye)
            if exact < D("2.3e-308") or D(r) * xd > D("1.7e308"):
                continue    # subnormal, or r X^d is inf in the direct form
            rbh = sc.planar._rbh_map(r, a, b, d, e, False)
            size = abs(d * math.log(x)) + abs(e * math.log(y)) + 1.0
            assert _relative(rbh(0, x, y), exact) < 1e-15 * size, \
                (r, a, b, d, e, x, y)
            checked += 1
    assert checked > 100


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
        ref = ref_ricker(spec.lam, k, spec.a_seq.resolve(),
                         tuple(s.resolve() for s in spec.b_seqs))
        for n in _steps(rng):
            u = tuple(_value(rng) for _ in range(m))
            tally.same(eq.evaluator, ref, n, u)
        init = tuple(rng.uniform(0.0, 3.0) for _ in range(m))
        assert _orbit(eq, init) == \
            _orbit(dataclasses.replace(eq, evaluator=ref), init)
    assert OverflowError in tally.raised


def _orbit(eq: EquationSpec, init, steps: int = 60, iterate=sc.iterate):
    try:
        traj = iterate(eq, init, steps)
    except SubconvergeError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return repr(traj.terms), traj.diagnostic


def test_ricker_bound_is_the_map_at_dominating_constants():
    rng = random.Random("ricker-bound")
    for m, k in RICKER_ORDERS:
        lam, a_sup, b_inf = rng.uniform(1.1, 3.0), rng.uniform(0, 2), 0.7
        bound = sc.models._ricker_bound(lam, a_sup, b_inf, k)
        ref = ref_ricker(lam, k, a_sup, (0.0,) * (k - 1) + (b_inf,))
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
    tally, zeros = Tally(), 0
    for _ in range(25):
        a = _draw_seq(rng, a_kind, -1.0, 1500.0)
        p = _draw_seq(rng, p_kind, -1.0, 0.5)
        coeffs = [rng.uniform(0.0, 0.5), rng.uniform(0.2, 1.7),
                  rng.choice((0.0, rng.uniform(0.0, 0.5)))] + \
            [rng.uniform(0.2, 1.7) for _ in range(3)]
        sysm, _ = sc.make_3d_example(a, p, *coeffs)
        ref = ref_threed_step(a.resolve(), p.resolve(), *coeffs)

        def step(n: int, state):
            return tuple(component(n, *state) for component in sysm.maps)
        for n in _steps(rng):
            state = (_value(rng), _value(rng), _value(rng, -1.0, 3.0))
            if state[2] > 0:
                tally.same(step, ref, n, state)
            elif state[2] == 0:
                assert sysm.maps[1](n, *state) == _INF
                assert _call(ref, n, state)[0] is DomainError
                zeros += 1
    assert OverflowError in tally.raised
    assert zeros


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
        f, g, sigma = ref_adult_juvenile(s.resolve(), t.resolve(),
                                         r.resolve(), lam)
        _, g_top, _ = ref_adult_juvenile(1.0, 0.0, r.bounds()[1], lam)
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
        f = ref_rbh(*res[:3], d1, d3, own_is_y=swapped)
        g = ref_rbh(*res[3:], d2, d4, own_is_y=not swapped)
        fbar1 = ref_rbh(r1.bounds()[1], a1.bounds()[0], 0.0, d1, d3, False)
        fbar2 = ref_rbh(r2.bounds()[1], a2.bounds()[0], 0.0, d2, d4, False)
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


# -- the orbit loops --------------------------------------------------------


class Seen:
    """How the compared orbits ended: with every term, a diagnostic, a
    DomainError, or an error of the map (planar maps raise their
    OverflowError)."""

    def __init__(self):
        self.ends = set()

    def add(self, outcome):
        if outcome[0] is DomainError:
            self.ends.add("domain")
        elif isinstance(outcome[0], type):
            self.ends.add(outcome[0].__name__)
        else:
            self.ends.add("truncated" if outcome[1] else "complete")


def _same_orbits(eq: EquationSpec, ref: EquationSpec, init, steps: int,
                 seen: Seen):
    """The rendered loop of ``eq`` against ``ref``'s called evaluator, in
    the loop and in the loop before it was rendered; on a domain exit,
    the orbits that end on the exit's term too, which do not raise."""
    got = _orbit(eq, init, steps)
    assert got == _orbit(ref, init, steps) == \
        _orbit(ref, init, steps, ref_iterate), init
    seen.add(got)
    if got[0] is DomainError and got[2]:    # not the initial values
        last = got[2] - len(init)       # the exit's term is the last one
        end = _orbit(eq, init, last)
        assert end == _orbit(ref, init, last) == \
            _orbit(ref, init, last, ref_iterate) and end[1] is None
        seen.ends.add("domain on the last step")


def _init(rng: random.Random, m: int, lo: float, hi: float):
    return tuple(rng.choice((rng.uniform(lo, hi), _value(rng, lo, hi)))
                 for _ in range(m))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m,k", RICKER_ORDERS)
def test_ricker_loop_matches_the_reference_loop(m, k, kind):
    """Also with one interval for every lag below 40 (a domain exit), and
    with 40 on the last lag only (the window is checked whole).  Every
    fourth draw has a > 712, where e^a overflows in the log form too."""
    rng = random.Random("ricker-loop:%d:%d:%s" % (m, k, kind))
    seen = Seen()
    for i in range(24):
        a = _draw_seq(rng, kind, 712.0 if i % 4 == 3 else -1.0, 800.0)
        spec = RickerFamilySpec(
            rng.uniform(1.1, 3.0), k, m, a,
            tuple(_draw_seq(rng, kind, 0.0, 1.5) for _ in range(m)))
        eq, _ = sc.models._ricker_parts(spec)
        high = ((), (40.0,) * m, (_INF,) * (m - 1) + (40.0,))[i % 3]
        if high:
            eq = dataclasses.replace(eq, domain_high=high)
        ref = dataclasses.replace(eq, evaluator=ref_ricker(
            spec.lam, k, spec.a_seq.resolve(),
            tuple(s.resolve() for s in spec.b_seqs)))
        _same_orbits(eq, ref, _init(rng, m, 0.0, 3.0), 120, seen)
    assert {"truncated", "domain", "domain on the last step"} <= seen.ends


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", POWERS, ids=str)
def test_sigmoid_bh_loops_match_the_reference_loops(p, kind):
    """In x, and in y = x - b through ``translate_to_origin``."""
    rng = random.Random("sigmoid-bh-loop:%s:%s" % (p, kind))
    seen = Seen()
    for _ in range(24):
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        b = rng.choice((0.0, rng.uniform(0.0, 3.0)))
        spec = SigmoidBHSpec(_draw_seq(rng, kind, 0.1, 3.0),
                             _draw_seq(rng, kind, 0.0, 2.0),
                             _draw_seq(rng, kind, 0.3, 2.5), p, b, k, l)
        eq = sc.make_sigmoid_bh(spec)
        evaluator, translated = ref_sigmoid_bh(spec)
        init = _init(rng, spec.order, 0.0, 2.0 * b + 2.0)
        _same_orbits(eq, dataclasses.replace(eq, evaluator=evaluator), init,
                     120, seen)
        if b:
            shifted = sc.translate_to_origin(eq, b)
            assert shifted.evaluator is eq.translated[2]
            _same_orbits(shifted, dataclasses.replace(
                shifted, evaluator=translated), [v - b for v in init], 120,
                seen)
    assert "domain" in seen.ends or isinstance(p, Fraction) or p % 2 == 0
    assert len(seen.ends) > 1


@pytest.mark.parametrize("a_kind", KINDS)
@pytest.mark.parametrize("p_kind", KINDS)
def test_threed_fold_loop_matches_the_reference_loop(a_kind, p_kind):
    """The fold is a Ricker map with lam = cr, k = m = 3, coefficient
    a_{n-1} + cr ln s and lag coefficients (b, c p_{n-2} + d s, c q s)."""
    rng = random.Random("threed-fold-loop:%s:%s" % (a_kind, p_kind))
    seen = Seen()
    for i in range(24):
        a_seq = _draw_seq(rng, a_kind, -1.0, 6.0)
        p_seq = _draw_seq(rng, p_kind, -1.0, 0.5)
        b, d = rng.uniform(0.0, 0.5), rng.choice((0.0, rng.uniform(0.0, 0.5)))
        c, q, r, s = (rng.uniform(0.2, 1.7) for _ in range(4))
        _, eq = sc.make_3d_example(a_seq, p_seq, b, c, d, q, r, s)
        a_at, p_at = _at(a_seq.resolve()), _at(p_seq.resolve())
        cr, cr_ln_s = c * r, c * r * math.log(s)
        ref = ref_ricker(cr, 3, lambda n: a_at(n - 1) + cr_ln_s,
                         (b, lambda n: c * p_at(n - 2) + d * s, c * q * s))
        _same_orbits(eq, dataclasses.replace(eq, evaluator=ref),
                     _init(rng, 3, 0.0, 3.0), 120, seen)
    assert {"complete", "truncated"} <= seen.ends


def _system_orbit(sysm, init, steps: int = 120,
                  iterate_system=sc.iterate_system):
    try:
        orbit = iterate_system(sysm, init, steps)
    except (SubconvergeError, OverflowError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return repr(orbit.points), orbit.diagnostic


def _same_system_orbits(sysm, f, g, init, seen: Seen):
    """The loop with sysm's rendered f and g inlined against the one that
    calls the reference closures, against each mix, and against the loop
    before it was rendered."""
    got = _system_orbit(sysm, init)
    seen.add(got)
    for mix in ({"f": f, "g": g}, {"f": f}, {"g": g}):
        assert got == _system_orbit(dataclasses.replace(sysm, **mix), init)
    assert got == _system_orbit(dataclasses.replace(sysm, f=f, g=g), init,
                                iterate_system=ref_iterate_system)


@pytest.mark.parametrize("kind", KINDS)
def test_adult_juvenile_loop_matches_the_reference_loop(kind):
    rng = random.Random("adult-juvenile-loop:%s" % kind)
    seen = Seen()
    for i in range(24):
        s, t = _draw_seq(rng, kind, 0.1, 1.0), _draw_seq(rng, kind, 0.1, 2.0)
        r, lam = _draw_seq(rng, kind, -1.0, 6.0), rng.uniform(1.1, 3.0)
        sysm = sc.make_adult_juvenile(s, t, r, lam)
        if i % 3 == 0:
            sysm = dataclasses.replace(sysm, domain_y=(0.0, 3.0))
        f, g, _ = ref_adult_juvenile(s.resolve(), t.resolve(), r.resolve(),
                                     lam)
        # x = 1e200 overflows u^lam, and g takes the term in logs.
        init = (1e200, 1.0) if i % 6 == 5 else _init(rng, 2, 0.0, 3.0)
        _same_system_orbits(sysm, f, g, init, seen)
    # exp(799) overflows in both forms: the first overflow stands.
    f, g, _ = ref_adult_juvenile(1.0, 1.0, 800.0, 2.0)
    _same_system_orbits(sc.make_adult_juvenile(1.0, 1.0, 800.0, 2.0), f, g,
                        (1.0, 0.0), seen)
    assert {"domain", "complete", "OverflowError"} <= seen.ends


@pytest.mark.parametrize("swapped", [False, True], ids=["tail", "swapped"])
@pytest.mark.parametrize("kind", KINDS)
def test_competition_loop_matches_the_reference_loop(kind, swapped):
    rng = random.Random("competition-loop:%s:%s" % (kind, swapped))
    seen = Seen()
    for i in range(24):
        r1, r2, a1, a2 = (_draw_seq(rng, kind, 0.5, 3.0) for _ in range(4))
        b1, b2 = (_draw_seq(rng, kind, 0.0, 1.0) for _ in range(2))
        d1, d2 = rng.uniform(1.1, 3.0), rng.uniform(1.1, 3.0)
        d3, d4 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        sysm = sc.make_competition(CompetitionParams.make(
            r1, r2, a1, a2, d1, d2, b1, b2, d3, d4), swapped)
        if i % 3 == 0:
            sysm = dataclasses.replace(sysm, domain_x=(0.0, 1.0))
        res = [seq.resolve() for seq in (r1, a1, b1, r2, a2, b2)]
        f = ref_rbh(*res[:3], d1, d3, own_is_y=swapped)
        g = ref_rbh(*res[3:], d2, d4, own_is_y=not swapped)
        _same_system_orbits(sysm, f, g, _init(rng, 2, 0.0, 3.0), seen)
    # 3 X^2 is past the largest double, which no power raises for: the
    # map gives inf, and the orbit ends on a non-finite state.
    sysm = sc.make_competition(CompetitionParams.make(3, 3, 1, 1, 2, 2),
                               swapped)
    f = ref_rbh(3.0, 1.0, 0.0, 2.0, 1.0, own_is_y=swapped)
    g = ref_rbh(3.0, 1.0, 0.0, 2.0, 1.0, own_is_y=not swapped)
    _same_system_orbits(sysm, f, g, (1.2e154, 1.2e154), seen)
    assert {"domain", "complete", "truncated"} <= seen.ends


# -- wrappers ----------------------------------------------------------------


class Counter:
    """A callable object without a weak reference slot."""

    __slots__ = ("fn", "calls")

    def __init__(self, fn, calls):
        self.fn, self.calls = fn, calls

    def __call__(self, n, *args):
        self.calls.append(n)
        return self.fn(n, *args)


def _recording(fn, calls):
    def closure(n, *args):
        calls.append(n)
        return fn(n, *args)
    return closure


def _wrappers(fn, calls):
    """A plain closure, a functools.wraps wrapper and a callable object
    around ``fn``, each recording the step of every call.  (wraps updates
    the function it is given, so the wrapper is a closure of its own.)"""
    return {"closure": _recording(fn, calls),
            "wraps": functools.wraps(fn)(_recording(fn, calls)),
            "object": Counter(fn, calls)}


WRAPPERS = ("closure", "wraps", "object")


@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_a_wrapped_evaluator_is_called_once_per_step(wrapper):
    """As perfbench's counting wrapper is, installed by dataclasses.replace:
    so map-evaluation counts stay exact."""
    sigmoid = sc.make_sigmoid_bh(SigmoidBHSpec(
        S.periodic((2.0, 1.5)), S.constant(1.0), S.constant(2.0), 3, 1.0, 1,
        2))
    for eq, init in ((sc.make_sp3(3)[0], (1.0, 1.0, 1.0)),
                     (sigmoid, (1.1, 1.1)),
                     (sc.translate_to_origin(sigmoid, 1.0), (0.1, 0.1)),
                     (sc.make_3d_example(S.periodic((1.0, 0.8)), 0.0, 0.0,
                                         1.0, 0.0, 1.0, 1.0, 1.0)[1],
                      (0.9, 1.0, 1.1))):
        calls = []
        wrapped = dataclasses.replace(
            eq, evaluator=_wrappers(eq.evaluator, calls)[wrapper])
        traj = sc.iterate(wrapped, init, 200)
        assert calls == list(range(eq.order, eq.order + 200))
        assert repr(traj.terms) == repr(sc.iterate(eq, init, 200).terms)


@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_wrapped_system_maps_are_called_once_per_step(wrapper):
    for sysm, init in ((sc.make_adult_juvenile(S.periodic((0.8, 0.6)), 1.0,
                                               2.0, 2.0), (1.0, 1.0)),
                       (sc.make_competition(CompetitionParams.make(
                           3, 3, 1, 1, 2, 2, 0.3, 0.3)), (2.0, 1.0)),
                       (sc.make_competition(CompetitionParams.make(
                           S.periodic((1, 1.2)), 1, 1, 1, 2, 2), True),
                        (2.0, 1.0))):
        expected = repr(sc.iterate_system(sysm, init, 200).points)
        for names in (("f",), ("g",), ("f", "g")):
            calls = {name: [] for name in names}
            wrapped = dataclasses.replace(sysm, **{
                name: _wrappers(getattr(sysm, name), calls[name])[wrapper]
                for name in names})
            orbit = sc.iterate_system(wrapped, init, 200)
            assert calls == {name: list(range(200)) for name in names}
            assert repr(orbit.points) == expected


@pytest.mark.parametrize("wrapper", WRAPPERS)
def test_wrappers_run_at_every_step_of_a_repeating_orbit(wrapper):
    """Orbits that repeat bit for bit from step 72 at most, over 30,000
    steps: the loops copy a repeated block of rendered maps, but a
    wrapped evaluator, f, g, sigma or 3D component still runs at every step
    (in the fold check, f and g twice a step after step 0), and the
    results are the unwrapped ones."""
    steps = 30_000
    eq = sc.make_sp3(1)[0]
    calls = []
    wrapped = dataclasses.replace(
        eq, evaluator=_wrappers(eq.evaluator, calls)[wrapper])
    assert repr(sc.iterate(wrapped, (1.0, 1.0, 1.0), steps).terms) == \
        repr(sc.iterate(eq, (1.0, 1.0, 1.0), steps).terms)
    assert calls == list(range(3, 3 + steps))
    threed = sc.make_3d_example(1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0)[0]
    calls = []
    states = sc.ThreeDSystem((_wrappers(threed.maps[0], calls)[wrapper],)
                             + threed.maps[1:]).iterate((0.9, 1.1, 1.0),
                                                        steps)
    assert repr(states) == repr(threed.iterate((0.9, 1.1, 1.0), steps))
    assert calls == list(range(steps))
    sysm = sc.make_competition(CompetitionParams.make(
        3, 3, 1, 1, 2, 2, 0.3, 0.3))
    orbit = repr(sc.iterate_system(sysm, (2.0, 1.0), steps).points)
    check = repr(sc.check_fold_consistency(sysm, (2.0, 1.0), steps))
    later = range(1, steps)
    for name, per_step in (("f", [[n, n] for n in later]),
                           ("g", [[n, n - 1] for n in later]),
                           ("sigma", [[n] for n in later])):
        calls = []
        if name == "sigma":
            wrapped = dataclasses.replace(sysm, sigma=sc.SigmaForm.custom(
                _wrappers(sysm.sigma.solve, calls)[wrapper]))
        else:
            wrapped = dataclasses.replace(sysm, **{name: _wrappers(
                getattr(sysm, name), calls)[wrapper]})
            assert repr(sc.iterate_system(wrapped, (2.0, 1.0),
                                          steps).points) == orbit
            assert calls == list(range(steps))
            calls.clear()
        assert repr(sc.check_fold_consistency(wrapped, (2.0, 1.0),
                                              steps)) == check
        assert calls == [0] + [n for pair in per_step for n in pair]


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
    out = [ricker.evaluator, sig.evaluator, sig.translated[2], *threed.maps,
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


def test_no_body_reads_a_bare_n():
    """A body reads its step only as {n} (a step-dependent coefficient
    through its placeholder), so a loop runs it at another step, as the
    fold check runs g at n - 1, by filling {n} with that step's name."""
    for fn in _builds(random.Random("bare-n")):
        shape, _ = _rendered(fn)
        _, body, keys, varying, _ = shape
        text = _fill(body, keys, varying, step="step")
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
        bare = [tok.start for prev, tok in zip(tokens, tokens[1:])
                if tok.type == tokenize.NAME and tok.string == "n"
                and prev.string != "."]
        assert not bare, (fn.__qualname__, text)


def test_a_body_reads_its_step_only_to_raise():
    """The premise of the loops' block copy: with constant coefficients a
    body reads its step, as {n}, only in a ``raise`` statement, so a
    state that repeats has a future that repeats."""
    readers = set()
    for fn in _builds(random.Random("raise-n")):
        _, body, keys, _, _ = _rendered(fn)[0]
        text = _fill(body, keys, (False,) * len(keys), step="step")
        line: List[str] = []
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.NEWLINE:
                if "step" in line:
                    assert line[0] == "raise", text
                    readers.add(fn.__qualname__)
                line = []
            elif tok.type in (tokenize.NAME, tokenize.OP, tokenize.NUMBER,
                              tokenize.STRING):
                line.append(tok.string)
    assert readers == {"sigma"}

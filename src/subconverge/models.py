"""Built-in equation families with analytically valid envelope bounds.

Families:

* generalized Ricker recurrence
  x_n = x_{n-k}^lam * exp(a_n - b_{1,n} x_{n-1} - ... - b_{m,n} x_{n-m})
  with bound g(u) = u^lam * exp(a_sup - b_inf u) through the dominant lag;
* the third-order showcase equation (lam = 3/2, coefficients 0.7 and 0.9)
  whose delay k in {1, 2, 3} selects which subsequences converge;
* a delayed sigmoid Beverton-Holt equation with an off-origin fixed
  point, handled by translation;
* a three-dimensional system that folds to an order-3 Ricker-type
  equation.

The planar families (adult-juvenile, competition) are built in
``planar``, the one builder module that needs ``systems``.  The registry
imports it only when a planar model is built, so a scalar model loads
no planar code.
"""

from __future__ import annotations

import functools
import math
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, NamedTuple,
                    Optional, Sequence, Tuple, Union)

from .criteria import CLOSED_FORM, BoundingFunction, ThresholdResult, bisect
from .dynamics import _INF, _MAX, EquationSpec, _render, iterate_system
from .errors import (ConfigError, CriterionInapplicableError,
                     ModelParameterError, NonFiniteError)
from .reports import ThresholdWindow
from .sequences import _REPEATS, CONSTANT, ParameterSequence, as_sequence

if TYPE_CHECKING:
    from fractions import Fraction

State3 = Tuple[float, float, float]

_TANGENT_TOL = 1e-12    # a peak this close to the identity is a tangency
_FIXED_TOL = 1e-9       # translate_to_origin's check that b is fixed


# -- generalized Ricker family ------------------------------------------


class RickerFamilySpec(NamedTuple):
    """Parameters of the generalized Ricker recurrence.

    ``b_seqs[i]`` is the coefficient of x_{n-(i+1)}.
    """

    lam: float
    k: int
    m: int
    a_seq: ParameterSequence
    b_seqs: Tuple[ParameterSequence, ...]

    def resolved_bounds(self) -> Tuple[float, float]:
        """(a_sup, b_inf): the sup of a and the inf of the dominant lag's
        coefficient."""
        return self.a_seq.bounds()[1], self.b_seqs[self.k - 1].bounds()[0]


def _ricker_equation(spec: RickerFamilySpec, name: str) -> EquationSpec:
    return _ricker_map(spec.lam, spec.k, spec.a_seq.resolve(),
                       tuple(seq.resolve() for seq in spec.b_seqs), name)


_RICKER = """\
    e = {a}
%(lags)s    try:
        return u[%(k)d] ** {lam} * exp(e)
    except OverflowError:
        return ricker_log(u[%(k)d], {lam}, e)
"""


@functools.lru_cache(maxsize=128)
def _ricker_body(m: int, k: int) -> str:
    """The map's body: a_n - b_1 u_1 - ... - b_m u_m accumulates left to
    right, one statement per lag (as one expression, a few thousand lags
    nest too deep to compile).  The crossing indices depend on that
    order.  Where u_k^lam or exp(e) overflows on its own, the term is
    ``_ricker_log``'s."""
    return _RICKER % {"k": k - 1, "lags": "".join(
        "    e -= {b%d} * u[%d]\n" % (i + 1, i) for i in range(m))}


def _ricker_log(u: float, lam: float, e: float) -> float:
    """u^lam e^e as exp(lam ln u + e), 0 at u = 0.  Called while the
    overflow of the direct form is handled: where this overflows too, or
    u < 0, the bare ``raise`` re-raises that first overflow."""
    try:
        return math.exp(lam * math.log(u) + e) if u else 0.0
    except (OverflowError, ValueError):
        pass
    raise


def _ricker_map(lam: float, k: int, a, bs: Tuple, name: str
                ) -> EquationSpec:
    """x_n = x_{n-k}^lam exp(a_n - b_{1,n} x_{n-1} - ... - b_{m,n} x_{n-m})
    on [0, inf)^m, m = len(bs), from resolved coefficients (each a float
    or a function of n)."""
    m = len(bs)
    evaluator = _render("evaluator(n, u)", _ricker_body(m, k),
                        {"exp": math.exp, "ricker_log": _ricker_log}, lam=lam,
                        a=a,
                        **{"b%d" % (i + 1): b for i, b in enumerate(bs)})
    return EquationSpec(order=m, dominant_lag=k, evaluator=evaluator,
                        domain_low=(0.0,) * m, domain_high=(_INF,) * m,
                        name=name, origin_fixed=True)


def _ricker_bound(lam: float, a_sup: float, b_inf: float, k: int,
                  informal: bool = False,
                  name: str = "ricker-bound") -> BoundingFunction:
    """g(u): the family's map at a_sup, b_inf on lag k and 0 on the other
    lags (README, "How a bound is built"), with u on lag k.  alpha is u*
    from ``ricker_fixed_points`` (+inf without fixed points), or for
    b_inf = 0, where g has none, exp(-a_sup/(lam-1))."""
    zeros = (0.0,) * (k - 1)
    evaluator = _ricker_map(lam, k, a_sup, zeros + (b_inf,), name).evaluator

    def g(u: float) -> float:
        return evaluator(0, zeros + (u,))

    if b_inf:
        fps = ricker_fixed_points(lam, a_sup, b_inf)
        threshold, fixed = _fixed_point_threshold(fps), fps.as_tuple()
    else:
        threshold, fixed = ThresholdResult(math.exp(-a_sup / (lam - 1.0))), ()
    return BoundingFunction(
        g=g, alpha=threshold.alpha, dominant_lag=k,
        validity=ThresholdWindow(0.0, threshold.alpha),
        tangent=threshold.tangent, sublinear=CLOSED_FORM,
        informal=informal, g_domain=(0.0, _INF),
        fixed_points=fixed, name=name)


def _ricker_parts(spec: RickerFamilySpec
                  ) -> Tuple[EquationSpec, Callable[[], BoundingFunction]]:
    """The checked equation, and a factory for its bound: the bound can
    fail to build where the equation runs (no positive threshold), and
    only analysis needs it, so ``simulate`` must not build it."""
    if spec.lam <= 1:
        raise ModelParameterError("lam must exceed 1, got %r" % spec.lam)
    if not 1 <= spec.k <= spec.m:
        raise ModelParameterError("need 1 <= k <= m")
    if len(spec.b_seqs) != spec.m:
        raise ModelParameterError("need one coefficient sequence per lag")
    for i, s in enumerate(spec.b_seqs):
        if s.bounds()[0] < 0:
            raise ModelParameterError(
                "coefficient sequence %d takes negative values" % (i + 1))
    a_sup, b_inf = spec.resolved_bounds()
    if b_inf <= 0:
        raise ModelParameterError(
            "dominant-lag coefficient must be bounded away from 0")
    eq = _ricker_equation(spec, "ricker(lam=%g,k=%d,m=%d)"
                          % (spec.lam, spec.k, spec.m))
    return eq, lambda: _ricker_bound(spec.lam, a_sup, b_inf, spec.k)


def make_generalized_ricker(spec: RickerFamilySpec
                            ) -> Tuple[EquationSpec, BoundingFunction]:
    """Build the family's equation on [0, inf)^m together with its
    dominant-lag bound g(u) = u^lam * exp(a_sup - b_inf u)."""
    eq, bound = _ricker_parts(spec)
    return eq, bound()


def ricker_threshold_condition(lam: float, a_sup: float,
                               b_inf: float) -> Tuple[bool, float]:
    """Whether a_sup >= (lam-1)(1 + ln b_inf - ln(lam-1)), the exact
    condition for the bound g to have positive fixed points.

    Returns (holds, right-hand side); equality is the tangency case.
    """
    if lam <= 1 or b_inf <= 0:
        raise ModelParameterError("need lam > 1 and b_inf > 0")
    rhs = (lam - 1.0) * (1.0 + math.log(b_inf) - math.log(lam - 1.0))
    return a_sup >= rhs, rhs


class FixedPointResult(NamedTuple):
    """Positive fixed points of g(u) = u^lam * exp(a - b u)."""

    kind: str                       # none | tangent | pair
    u_star: Optional[float] = None  # smaller root (the decline threshold)
    u_bar: Optional[float] = None   # larger root

    def as_tuple(self) -> Tuple[float, ...]:
        if self.kind == "pair":
            return (self.u_star, self.u_bar)
        if self.kind == "tangent":
            return (self.u_bar,)
        return ()


def ricker_fixed_points(lam: float, a: float, b: float) -> FixedPointResult:
    """Solve u^(lam-1) * exp(a - b u) = 1 for its positive roots.

    Works on the log form phi(u) = (lam-1) ln u + a - b u, concave with
    its maximum at u = (lam-1)/b: ``_peak_threshold`` of phi there decides
    between no roots, a tangency and a pair bracketing the maximum.
    u_star is ``_lower_root`` below it (the end where phi <= 0, so
    g(u) < u on (0, u_star); CriterionInapplicableError below the
    doubles), u_bar (a limit candidate) the midpoint of the last doubling
    step from it bisected to adjacent doubles (NonFiniteError past them).
    A tangency's u_bar is the touch point and its u_star the end of the
    window below it, where phi < -_TANGENT_TOL.
    """
    if lam <= 1 or b <= 0:
        raise ModelParameterError("need lam > 1 and b > 0")

    def phi(u: float) -> float:
        return (lam - 1.0) * math.log(u) - b * u + a

    def below(u: float) -> bool:
        return phi(u) <= 0

    u_max = (lam - 1.0) / b
    if u_max > _MAX:
        raise NonFiniteError("(lam-1)/b = %r is not finite" % u_max)
    res = _peak_threshold(phi(u_max), u_max, phi,
                          lambda: _lower_root(below, u_max, "g(u)"))
    if res.tangent:
        return FixedPointResult("tangent", u_star=res.alpha, u_bar=u_max)
    if res.alpha == _INF:
        return FixedPointResult("none")
    inner, outer = u_max, min(u_max * 2.0, _MAX)
    while outer != inner and phi(outer) > 0:
        inner, outer = outer, min(outer * 2.0, _MAX)
    if outer == inner:
        raise NonFiniteError("a fixed point of g is not finite")
    return FixedPointResult("pair", res.alpha, bisect(outer, inner, below))


def _peak_threshold(excess: float, u_peak: float,
                    log_ratio: Callable[[float], float],
                    root: Callable[[], float],
                    scale: float = 1.0) -> ThresholdResult:
    """The threshold of a cycle map that meets the identity at most twice
    and peaks over it by ``excess`` at u_peak (in any form that has the
    sign of map(u) - u): +inf (no root) for an excess below
    -_TANGENT_TOL * scale, a tangency for one in [-_TANGENT_TOL * scale,
    0] (the safe side only: the map <= u throughout), else (also for NaN)
    ``root()``, the lower root.  A tangent window ends below u_peak, at
    ``_lower_root`` of ``log_ratio``(u) = ln(map(u) / u) < -_TANGENT_TOL:
    nearer the peak the computed map rounds onto u (or above it) about as
    often as below it, and a chain link closes only where it is below."""
    if -_TANGENT_TOL * scale <= excess <= 0:
        return ThresholdResult(_lower_root(
            lambda u: log_ratio(u) < -_TANGENT_TOL, u_peak, "the cycle map"),
            tangent=True)
    return ThresholdResult(_INF if excess < 0 else root())


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


def _fixed_point_threshold(fps: FixedPointResult) -> ThresholdResult:
    """The threshold u* of a Ricker bound's fixed points: +inf for none."""
    if fps.kind == "none":
        return ThresholdResult(_INF)
    return ThresholdResult(fps.u_star, tangent=fps.kind == "tangent")


# -- the third-order showcase equation ----------------------------------

_SP3_LAM = 1.5
_SP3_A = 1.5
_SP3_B = (0.0, 0.7, 0.9)


def _sp3_b_inf(k: int, rigorous: bool) -> float:
    """The coefficient of sp3's Ricker-type bound through lag k: the
    lag's own (0 for k = 1 with ``rigorous``), or for k = 1 without it
    the conventional informal sum (exactly 1.6)."""
    if k not in (1, 2, 3):
        raise ModelParameterError("k must be 1, 2 or 3")
    return _SP3_B[k - 1] if k > 1 or rigorous else sum(_SP3_B)


def _sp3_parts(k: int, rigorous: bool = False
               ) -> Tuple[EquationSpec, Callable[[], BoundingFunction]]:
    b_inf = _sp3_b_inf(k, rigorous)
    spec = RickerFamilySpec(
        _SP3_LAM, k, 3, ParameterSequence.constant(_SP3_A),
        tuple(ParameterSequence.constant(b) for b in _SP3_B))
    eq = _ricker_equation(spec, "sp3(k=%d)" % k)
    informal = b_inf != _SP3_B[k - 1]
    name = "sp3-bound(k=%d%s)" % (k, ",informal" if informal else
                                  "" if b_inf else ",rigorous")
    return eq, lambda: _ricker_bound(_SP3_LAM, _SP3_A, b_inf, k,
                                     informal=informal, name=name)


def make_sp3(k: int, rigorous: bool = False
             ) -> Tuple[EquationSpec, BoundingFunction]:
    """x_n = x_{n-k}^{3/2} * exp(1.5 - 0.7 x_{n-2} - 0.9 x_{n-3}),
    k in {1, 2, 3}, with the Ricker bound through lag k at the lag's own
    coefficient.  For k = 1 that is 0 (``rigorous=True``: g(u) =
    u^{3/2} e^{1.5}, threshold e^{-3}); by default k = 1 takes the
    conventional exp(1.5 - 1.6 u) instead, flagged ``informal``.
    """
    eq, bound = _sp3_parts(k, rigorous)
    return eq, bound()


# -- sigmoid Beverton-Holt with delay -----------------------------------


RationalPower = Union[int, "Fraction"]


def _fraction(p) -> Fraction:
    """``Fraction(p)``, importing ``fractions`` (and ``decimal``) only
    where a sigmoid-BH exponent is read."""
    from fractions import Fraction
    return Fraction(p)


def _validate_power(p: RationalPower) -> Fraction:
    """Admissible exponents: positive integers, or even/odd rationals
    (which stay real on negative bases)."""
    frac = _fraction(p)
    if frac <= 0:
        raise ModelParameterError("exponent must be positive")
    if frac.denominator == 1:
        return frac
    if frac.numerator % 2 == 0 and frac.denominator % 2 == 1:
        return frac
    raise ModelParameterError(
        "exponent %s is neither an integer nor of even/odd rational form"
        % frac)


def _real_power(p: Fraction) -> Tuple[bool, Union[int, float]]:
    """(whether to take |x| first, exponent) for x**p on the real branch:
    integer exponents keep the sign, even/odd rationals give |x|**p."""
    if p.denominator == 1:
        return False, int(p)
    return True, float(p)


class SigmoidBHSpec(NamedTuple):
    """Parameters of
    x_n = a_n (x_{n-k} - b)^p / (1 + c_n x_{n-l}^{q_n}) + b."""

    a_seq: ParameterSequence
    c_seq: ParameterSequence
    q_seq: ParameterSequence
    p: RationalPower
    b: float
    k: int
    l: int

    @property
    def order(self) -> int:
        return max(self.k, self.l)


# The map in x, and written in y = x - b.
_SIGMOID_BH = """\
    x = u[%d] - {b}
    num = {a} * (abs(x) if {absolute} else x) ** {power}
    return num / (1.0 + {c} * u[%d] ** {q}) + {b}
"""
_SIGMOID_BH_Y = """\
    y = v[%d]
    num = {a} * (abs(y) if {absolute} else y) ** {power}
    return num / (1.0 + {c} * (v[%d] + {b}) ** {q})
"""


def make_sigmoid_bh(spec: SigmoidBHSpec) -> EquationSpec:
    """Build the delayed sigmoid Beverton-Holt equation on [0, inf)^m.

    The equation has a fixed point at b; apply translate_to_origin
    before using the convergence criterion.  ``translated`` is the map
    written in y = x - b, not translate_to_origin's round trip: no term
    is rounded to a multiple of ulp(b).
    """
    p = _validate_power(spec.p)
    if spec.k < 1 or spec.l < 1:
        raise ModelParameterError("lags must be >= 1")
    a_lo, _ = spec.a_seq.bounds()
    if a_lo <= 0:
        raise ModelParameterError("a_n must be positive")
    if spec.c_seq.bounds()[0] < 0:
        raise ModelParameterError("c_n must be non-negative")
    if spec.q_seq.bounds()[0] <= 0:
        raise ModelParameterError("q_n must be positive")
    if spec.b < 0:
        raise ModelParameterError("b must be non-negative")
    m = spec.order
    b, k, l = spec.b, spec.k, spec.l
    absolute, power = _real_power(p)
    coeffs = {"a": spec.a_seq.resolve(), "c": spec.c_seq.resolve(),
              "q": spec.q_seq.resolve(), "b": b, "absolute": absolute,
              "power": power}
    evaluator = _render("evaluator(n, u)", _SIGMOID_BH % (k - 1, l - 1),
                        {}, **coeffs)
    translated = _render("translated(n, v)", _SIGMOID_BH_Y % (k - 1, l - 1),
                         {}, **coeffs)
    return EquationSpec(order=m, dominant_lag=k, evaluator=evaluator,
                        domain_low=(0.0,) * m, domain_high=(_INF,) * m,
                        name="sigmoid-bh(p=%s,b=%g,k=%d,l=%d)"
                             % (p, b, k, l),
                        translated=(evaluator, b, translated))


def _sigmoid_bh_alpha(a_sup: float, p: float) -> float:
    """Threshold alpha = a_sup^(-1/(p-1)) of the translated equation."""
    if p <= 1:
        raise ModelParameterError("window formula requires p > 1")
    if a_sup <= 0:
        raise ModelParameterError("a_sup must be positive")
    return a_sup ** (-1.0 / (p - 1.0))


def sigmoid_bh_window(a_sup: float, p: float, b: float
                      ) -> Tuple[float, ThresholdWindow]:
    """Threshold alpha and the window (max{0, b - alpha}, b + alpha)
    around the fixed point b, from which a stride-k subsequence converges
    to b; CriterionInapplicableError where the window rounds onto b."""
    alpha = _sigmoid_bh_alpha(a_sup, p)
    lo, hi = max(0.0, b - alpha), b + alpha
    if not lo < hi:
        raise CriterionInapplicableError("the window rounds onto b = %r" % b)
    return alpha, ThresholdWindow(lo, hi)


def sigmoid_bh_bound(spec: SigmoidBHSpec) -> BoundingFunction:
    """g(u): |the family's map in y = x - b| at a_sup and c = 0, with u on
    lag k and 0 on the other lags (README, "How a bound is built").  Its
    denominator is exactly 1.0, so g(u) = a_sup |u|^p, and a_sup
    |u|^(p-1) < 1, so g(u) < |u|, on (max{-alpha, -b}, alpha)."""
    a_sup = spec.a_seq.bounds()[1]
    alpha = _sigmoid_bh_alpha(a_sup, float(_validate_power(spec.p)))
    translated = make_sigmoid_bh(spec._replace(
        a_seq=ParameterSequence.constant(a_sup),
        c_seq=ParameterSequence.constant(0.0))).translated[2]
    head, tail = (0.0,) * (spec.k - 1), (0.0,) * (spec.order - spec.k)

    def g(u: float) -> float:
        return abs(translated(0, head + (u,) + tail))

    lo = max(-alpha, -spec.b) if spec.b > 0 else 0.0
    return BoundingFunction(
        g=g, alpha=alpha, dominant_lag=spec.k,
        validity=ThresholdWindow(lo, alpha),
        sublinear=CLOSED_FORM, g_domain=(-spec.b, _INF), fixed_points=(),
        name="sigmoid-bh-bound")


def translate_to_origin(eq: EquationSpec, fixed_point: float
                        ) -> EquationSpec:
    """Conjugate the equation by y = x - b so the fixed point b moves to
    the origin; verifies numerically that b actually is fixed.

    The conjugate is the builder's map written in y when ``eq.translated``
    holds for this evaluator and b, or else the round trip G(n, v) =
    F(n, [v_i + b, ...]) - b.  The round trip rounds each term to a
    multiple of ulp(b): where b + y rounds up, a translated term can land
    above what a bound on G allows, and the inequality chain reports a
    violation that exact arithmetic would not.
    """
    b = float(fixed_point)
    m = eq.order
    const = (b,) * m
    for n in range(m, m + 8):
        val = eq.evaluator(n, const)
        if abs(val - b) > _FIXED_TOL * max(1.0, abs(b)):
            raise ModelParameterError(
                "%r is not a fixed value: F_%d(b,...,b) = %r" % (b, n, val))
    if b == 0.0:
        return eq
    form = eq.translated
    if form is not None and form[0] is eq.evaluator and form[1] == b:
        evaluator = form[2]
    else:
        base = eq.evaluator

        def evaluator(n: int, v: Sequence[float]) -> float:
            return base(n, [vi + b for vi in v]) - b

    return EquationSpec(
        order=m, dominant_lag=eq.dominant_lag, evaluator=evaluator,
        domain_low=tuple(lo - b for lo in eq.domain_low),
        domain_high=tuple(hi - b for hi in eq.domain_high),
        name=eq.name + "-translated", origin_fixed=True)


# -- three-dimensional system and its order-3 fold ----------------------


class ThreeDSystem:
    """x_{n+1} = exp(a_n - b x_n - c y_n - d z_n),
    y_{n+1} = p_n x_n + q z_n - r ln z_n,
    z_{n+1} = s x_n, with c, q, r, s > 0 and b, d >= 0, on x and z in
    [0, inf] and y real: ``maps``, three component maps on (n, x, y, z)
    that ``make_3d_example`` renders, run by ``iterate_system``."""

    domains = ((0.0, _INF), (-_INF, _INF), (0.0, _INF))

    def __init__(self, maps: Tuple[Callable[..., float], ...]):
        self.maps = maps

    def iterate(self, initial: State3, steps: int) -> Sequence[State3]:
        return iterate_system(self, initial, steps).points

    def fold_initial(self, initial: State3) -> State3:
        """(x_0, x_1, x_2) feeding the folded order-3 equation, or
        NonFiniteError with the diagnostic of an orbit that ends first."""
        orbit = iterate_system(self, initial, 2)
        if orbit.diagnostic:
            raise NonFiniteError(orbit.diagnostic, index=len(orbit))
        return tuple(orbit.xs)


# The step's three components on (n, x, y, z).  At z = 0.0 y is the
# limit of -r ln z, +inf, which ends the orbit.
_THREED_X = "    return exp({a} - {b} * x - {c} * y - {d} * z)\n"
_THREED_Y = """\
    if z:
        return {p} * x + {q} * z - {r} * log(z)
    else:
        return inf
"""
_THREED_Z = "    return {s} * x\n"


def make_3d_example(a_seq, p_seq, b: float, c: float, d: float,
                    q: float, r: float, s: float
                    ) -> Tuple[ThreeDSystem, EquationSpec]:
    """Build the 3D system and its closed-form order-3 fold
    x_n = x_{n-3}^{cr} * exp(a_{n-1} + cr ln s - b x_{n-1}
                             - (c p_{n-2} + d s) x_{n-2} - cqs x_{n-3}),
    a Ricker map with lam = cr and k = m = 3, built by the family's own
    builder from those coefficients."""
    if b < 0 or d < 0:
        raise ModelParameterError("b and d must be non-negative")
    if min(c, q, r, s) <= 0:
        raise ModelParameterError("c, q, r, s must be positive")
    a, p = as_sequence(a_seq).resolve(), as_sequence(p_seq).resolve()
    sysm = ThreeDSystem((
        _render("f(n, x, y, z)", _THREED_X, {"exp": math.exp}, a=a,
                b=float(b), c=float(c), d=float(d)),
        _render("g(n, x, y, z)", _THREED_Y, {"log": math.log, "inf": _INF},
                p=p, q=float(q), r=float(r)),
        _render("h(n, x, y, z)", _THREED_Z, {}, s=float(s))))
    cr = c * r
    cr_ln_s, ds = cr * math.log(s), d * s
    a_fold = (lambda n: a(n - 1) + cr_ln_s) if callable(a) else a + cr_ln_s
    p_fold = (lambda n: c * p(n - 2) + ds) if callable(p) else c * p + ds
    for fold, coeff, lag in ((a_fold, a, 1), (p_fold, p, 2)):
        if callable(coeff):     # it repeats as coeff does, lag steps later
            onset, period = _REPEATS[coeff]
            _REPEATS[fold] = onset + lag, period
    return sysm, _ricker_map(cr, 3, a_fold, (b, p_fold, c * q * s),
                             "threed-folded")


def relative_deviation(expected: Iterable[float], actual: Iterable[float],
                       tol: float) -> Tuple[float, Optional[int]]:
    """Largest relative deviation |e - a| / max(|e|, |a|, 1) over the
    paired terms (as many as the shorter series has), and the first index
    where it exceeds ``tol`` or is NaN (the largest passes NaN over)."""
    worst, first = 0.0, None
    for n, (e, a) in enumerate(zip(expected, actual)):
        if a == e:          # the usual case: deviation 0
            continue
        d = abs(e - a) / max(abs(e), abs(a), 1.0)
        if (d > tol or d != d) and first is None:
            first = n
        if d > worst:
            worst = d
    return worst, first


# -- model registry ------------------------------------------------------
#
# The one place that knows the catalog.  Each entry names a model, its
# kind, its parameter schema, its builder and its threshold; the CLI and
# the config loader only read entries.

SCALAR, PLANAR, THREED = "scalar", "planar", "threed"


def _per_lag(value) -> Tuple[ParameterSequence, ...]:
    """One coefficient sequence per list entry (a non-list is one)."""
    return tuple(map(as_sequence, value if isinstance(value, list)
                     else [value]))


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false, got %r" % (value,))
    return value


class Param(NamedTuple):
    """A schema entry: the coercer of a raw (JSON or CLI) value, the
    default (None: absent), and accepted aliases."""

    coerce: Callable[[object], object]
    default: object = None
    aliases: Tuple[str, ...] = ()


class Model(NamedTuple):
    """A catalog entry.  ``params`` is the schema, in the order of the
    builder's arguments.  From coerced parameters ``build`` returns, by
    kind: scalar -- (equation translated by -offset, zero-argument bound
    factory, offset; a factory, because a bound that cannot be built
    must fail ``analyze`` only, never ``simulate``); planar -- a
    PlanarSystem; threed -- (ThreeDSystem, folded equation).
    ``threshold`` gives the threshold command's fields (None: no
    formula)."""

    name: str
    kind: str
    params: Dict[str, Param]
    build: Callable[[dict], object]
    threshold: Optional[Callable[[dict], dict]] = None

    def names(self) -> set:
        """Every key ``coerce`` reads: the schema's keys and aliases."""
        return set(self.params).union(*(
            param.aliases for param in self.params.values()))

    def coerce(self, raw: dict) -> dict:
        """Typed parameters from raw values; a key outside the schema and
        its aliases, or a value the schema cannot read, is a
        ConfigError."""
        unknown = set(raw) - self.names()
        if unknown:
            raise ConfigError("unknown %s parameters: %s"
                              % (self.name, ", ".join(sorted(unknown))))
        out = {}
        for key, param in self.params.items():
            name = next((n for n in (key,) + param.aliases if n in raw),
                        None)
            if name is None:
                out[key] = param.default if param.default is None \
                    else param.coerce(param.default)
                continue
            try:
                if param.coerce is not _flag and _holds_bool(raw[name]):
                    raise TypeError("expected a number, not true or false")
                out[key] = param.coerce(raw[name])
                if not _finite(out[key]):
                    raise ValueError("%r is not finite" % (raw[name],))
            except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
                raise ConfigError("%s parameter %r: %s"
                                  % (self.name, name, exc)) from exc
        return out


def _holds_bool(value) -> bool:
    """Whether a raw value is or holds JSON's true or false."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return any(map(_holds_bool, value))
    return isinstance(value, bool)


def _finite(value) -> bool:
    """Whether every number a coerced parameter stores is finite: a float
    or a sigmoid-BH exponent at most the largest double."""
    if isinstance(value, ParameterSequence):
        value = value.stored_values()
    if isinstance(value, tuple):
        return all(map(_finite, value))
    return isinstance(value, int) or abs(value) <= _MAX


def _constant(p: dict, key: str) -> float:
    """A parameter the threshold formulas need as one constant."""
    seqs = p[key] if isinstance(p[key], tuple) else (p[key],)
    if len(seqs) != 1 or seqs[0].kind != CONSTANT:
        raise ConfigError("the threshold needs %s to be one constant" % key)
    return seqs[0].values[0]


def _ricker_fields(lam: float, a: float, b: float) -> dict:
    if not b:   # g(u) = u^lam e^a: no fixed points, alpha alone
        return _threshold_fields(_ricker_bound(lam, a, b, 1))
    holds, rhs = ricker_threshold_condition(lam, a, b)
    fps = ricker_fixed_points(lam, a, b)
    return {"condition_holds": holds, "condition_rhs": rhs,
            "fixed_points": {"kind": fps.kind, "u_star": fps.u_star,
                             "u_bar": fps.u_bar},
            "alpha": fps.u_star if fps.kind != "none" else None}


def _ricker(p: dict):
    b = p["b"]
    return _ricker_parts(RickerFamilySpec(
        p["lambda"], p["k"], len(b) if p["m"] is None else p["m"], p["a"],
        b)) + (0.0,)


def _sigmoid_bh(p: dict):
    spec = SigmoidBHSpec(*p.values())
    eq = translate_to_origin(make_sigmoid_bh(spec), spec.b)
    return eq, lambda: sigmoid_bh_bound(spec), spec.b


def _sigmoid_bh_fields(p: dict) -> dict:
    alpha, window = sigmoid_bh_window(_constant(p, "a"), float(p["p"]),
                                      p["b"])
    return {"alpha": alpha, "window": window.as_list()}


def _threshold_fields(res: Union[ThresholdResult, BoundingFunction]
                      ) -> dict:
    return {"alpha": res.alpha if math.isfinite(res.alpha) else "inf",
            "tangent": res.tangent}


def _planar():
    """The ``planar`` module, imported when a planar entry is first used."""
    from . import planar
    return planar


def _competition(p: dict, swapped: bool = False):
    planar = _planar()
    return planar.make_competition(planar.CompetitionParams(*p.values()),
                                   swapped)


def _competition_fields(p: dict) -> dict:
    return _threshold_fields(_planar().competition_threshold(
        _constant(p, "r1"), _constant(p, "a1"), p["delta1"]))


def _swapped_fields(p: dict) -> dict:
    return _threshold_fields(_planar().swapped_competition_threshold(
        _constant(p, "r1"), _constant(p, "a1"), p["delta1"],
        _constant(p, "r2"), _constant(p, "a2"), p["delta2"]))


_COMPETITION = {
    **{key: Param(as_sequence, 1.0) for key in ("r1", "r2", "a1", "a2")},
    "delta1": Param(float, 2.0), "delta2": Param(float, 2.0),
    "b1": Param(as_sequence, 0.0), "b2": Param(as_sequence, 0.0),
    "delta3": Param(float, 1.0), "delta4": Param(float, 1.0),
}

REGISTRY: Dict[str, Model] = {m.name: m for m in (
    Model("ricker", SCALAR, {
        "lambda": Param(float, 2.0, ("lam",)), "k": Param(int, 1),
        "m": Param(int),                    # default: one lag per b
        "a": Param(as_sequence, 0.0), "b": Param(_per_lag, 1.0),
    }, _ricker, lambda p: _ricker_fields(
        p["lambda"], _constant(p, "a"), _constant(p, "b"))),
    Model("sp3", SCALAR, {
        "k": Param(int, 3), "rigorous": Param(_flag, False),
    }, lambda p: _sp3_parts(p["k"], p["rigorous"]) + (0.0,),
        lambda p: _ricker_fields(_SP3_LAM, _SP3_A,
                                 _sp3_b_inf(p["k"], p["rigorous"]))),
    Model("sigmoid-bh", SCALAR, {
        "a": Param(as_sequence, 1.0), "c": Param(as_sequence, 0.0),
        "q": Param(as_sequence, 1.0), "p": Param(_fraction, 2),
        "b": Param(float, 0.0), "k": Param(int, 1), "l": Param(int, 1),
    }, _sigmoid_bh, _sigmoid_bh_fields),
    Model("adult-juvenile", PLANAR, {
        "s": Param(as_sequence, 0.8), "t": Param(as_sequence, 1.0),
        "r": Param(as_sequence, 2.0), "lambda": Param(float, 2.0, ("lam",)),
    }, lambda p: _planar().make_adult_juvenile(*p.values()),
        lambda p: _ricker_fields(p["lambda"], _constant(p, "r"), 1.0)),
    Model("competition", PLANAR, _COMPETITION, _competition,
          _competition_fields),
    Model("competition-swapped", PLANAR, _COMPETITION,
          lambda p: _competition(p, swapped=True), _swapped_fields),
    Model("threed", THREED, {
        "a": Param(as_sequence, 1.0), "p": Param(as_sequence, 0.0),
        **{key: Param(float, default) for key, default in (
            ("b", 0.0), ("c", 1.0), ("d", 0.0), ("q", 1.0), ("r", 1.0),
            ("s", 1.0))},
    }, lambda p: make_3d_example(*p.values())),
)}

MODEL_NAMES = tuple(REGISTRY)

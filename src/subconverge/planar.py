"""Built-in planar families: builders with certified envelope cycles.

* the adult-juvenile system, whose alternating cycle map is a Ricker
  bound;
* the two-species competition system (tail cycle) and its
  variable-swapped variant (alternating cycle).

These are the only builders that need ``systems``; they live apart from
the scalar families of ``models`` so that a scalar command loads no
planar code.  The registry and the package import this module on first
use.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import models
from .criteria import ThresholdResult, bisect
from .dynamics import _render
from .errors import FoldError, ModelParameterError
from .models import (_INF, _MAX, _fixed_point_threshold, _lower_root,
                     _peak_threshold)
from .sequences import ParameterSequence, as_sequence
from .systems import CycleCertificate, PlanarSystem, SigmaForm


# -- adult-juvenile planar system ---------------------------------------


def make_adult_juvenile(s_seq, t_seq, r_seq, lam: float) -> PlanarSystem:
    """x_{n+1} = s_n y_n,  y_{n+1} = x_n^lam * exp(r_n - x_n - t_n y_n).

    Adults all die each period; juveniles mature.  The first equation is
    multiplicatively separable, so the system folds exactly.  The
    envelopes are the maps themselves at dominating constants (README,
    "How a bound is built"): fbar(u) = f at s = 1, the identity, and
    gbar(u) = g at r_sup with v = 0, u^lam exp(r_sup - u).  They make the
    alternating criterion applicable without folding, and the cycle map
    is gbar, a Ricker bound: its certificate's threshold is
    ``ricker_fixed_points(lam, r_sup, 1)``'s u*.
    """
    s_seq, t_seq, r_seq = map(as_sequence, (s_seq, t_seq, r_seq))
    s_lo, s_hi = s_seq.bounds()
    if s_lo <= 0 or s_hi > 1:
        raise ModelParameterError("s_n must lie in (0, 1]")
    if t_seq.bounds()[0] <= 0:
        raise ModelParameterError("t_n must be positive")
    if lam <= 1:
        raise ModelParameterError("lam must exceed 1")
    r_sup = r_seq.bounds()[1]
    f, g, sigma = _adult_juvenile_maps(s_seq.resolve(), t_seq.resolve(),
                                       r_seq.resolve(), lam)
    f_top, g_top, _ = _adult_juvenile_maps(1.0, 0.0, r_sup, lam)
    fbar, gbar = _envelope(f_top, True), _envelope(g_top, False)
    steps = sorted(set(s_seq.sample_indices()) | set(t_seq.sample_indices())
                   | set(r_seq.sample_indices()))
    return PlanarSystem(
        f=f, g=g, sigma=SigmaForm.custom(sigma), envelope_f=fbar,
        envelope_g=gbar, sample_steps=tuple(steps), name="adult-juvenile",
        certificate=CycleCertificate(
            2, (f, g, fbar, gbar), lambda: _fixed_point_threshold(
                models.ricker_fixed_points(lam, r_sup, 1.0))))


_ADULT_JUVENILE_G = """\
    e = {r} - u - {t} * v
    try:
        return u ** {lam} * exp(e)
    except OverflowError:
        return ricker_log(u, {lam}, e)
"""


def _adult_juvenile_maps(s, t, r, lam: float):
    """The adult-juvenile (f, g, sigma) from resolved coefficients; sigma
    solves w = f(n, u, v) for v.  g is the Ricker body's: where u^lam or
    exp(e) overflows on its own, the term is ``_ricker_log``'s."""
    return (_render("f(n, u, v)", "    return {s} * v\n", {}, s=s),
            _render("g(n, u, v)", _ADULT_JUVENILE_G,
                    {"exp": math.exp, "ricker_log": models._ricker_log},
                    lam=lam, r=r, t=t),
            _render("sigma(n, u, w)", "    return w / {s}\n", {}, s=s))


def _envelope(planar_map, own_is_y: bool):
    """u -> a planar map at step 0, its own species at u and the other at
    0: at dominating constants, the envelope of the species' maps."""
    if own_is_y:
        return lambda u: planar_map(0, 0.0, u)
    return lambda u: planar_map(0, u, 0.0)


# -- two-species competition system -------------------------------------


class CompetitionParams(NamedTuple):
    """Ricker-Beverton-Holt competition parameters; all per-species
    sequences coercible from scalars."""

    r1: ParameterSequence
    r2: ParameterSequence
    a1: ParameterSequence
    a2: ParameterSequence
    d1: float
    d2: float
    b1: ParameterSequence
    b2: ParameterSequence
    d3: float
    d4: float

    @staticmethod
    def make(r1, r2, a1, a2, d1, d2, b1=0.0, b2=0.0,
             d3=1.0, d4=1.0) -> "CompetitionParams":
        return CompetitionParams(
            as_sequence(r1), as_sequence(r2), as_sequence(a1),
            as_sequence(a2), float(d1), float(d2),
            as_sequence(b1), as_sequence(b2), float(d3), float(d4))


def make_competition(params: CompetitionParams,
                     swapped: bool = False) -> PlanarSystem:
    """x_{n+1} = r_{1,n} x_n^d1 / (a_{1,n} + x_n^d1 + b_{1,n} y_n^d3) and
    the analogous y-equation; ``swapped`` exchanges the roles of x and y
    in the right-hand sides.

    Each species' envelope is its own map at r_sup and a_inf with the
    other species at 0 (README, "How a bound is built"):
    fbar_i(u) = r_i_sup u^d_i / (a_i_inf + u^d_i).  The unswapped system
    admits the tail envelope fbar1, whose certificate's threshold is
    ``competition_threshold``; the swapped variant admits the
    alternating envelope pair (fbar1, fbar2) instead, with
    ``swapped_competition_threshold``.  fbar1 increases in the reals
    (derivative r a d u^(d-1) / (a + u^d)^2 > 0), all that the
    alternating links use.
    """
    p = params
    if p.d1 <= 1 or p.d2 <= 1:
        raise ModelParameterError("d1, d2 must exceed 1")
    if p.d3 <= 0 or p.d4 <= 0:
        raise ModelParameterError("d3, d4 must be positive")
    for name, seq in (("r1", p.r1), ("r2", p.r2), ("a1", p.a1),
                      ("a2", p.a2)):
        if seq.bounds()[0] <= 0:
            raise ModelParameterError("%s must be positive" % name)
    if p.b1.bounds()[0] < 0 or p.b2.bounds()[0] < 0:
        raise ModelParameterError("b1, b2 must be non-negative")

    r1_sup, a1_inf = p.r1.bounds()[1], p.a1.bounds()[0]
    r2_sup, a2_inf = p.r2.bounds()[1], p.a2.bounds()[0]
    d1, d2, d3, d4 = p.d1, p.d2, p.d3, p.d4
    r1, a1, b1 = p.r1.resolve(), p.a1.resolve(), p.b1.resolve()
    # The x-equation reads its own species from y when swapped, and the
    # y-equation reads its own from x unless swapped.
    f = _rbh_map(r1, a1, b1, d1, d3, own_is_y=swapped)
    g = _rbh_map(p.r2.resolve(), p.a2.resolve(), p.b2.resolve(), d2, d4,
                 own_is_y=not swapped)

    fbar1 = _envelope(_rbh_map(r1_sup, a1_inf, 0.0, d1, d3, False), False)
    fbar2 = _envelope(_rbh_map(r2_sup, a2_inf, 0.0, d2, d4, False), False)
    steps = tuple(sorted(set().union(*(
        s.sample_indices() for s in (p.r1, p.r2, p.a1, p.a2, p.b1, p.b2)))))
    maps = (f, g, fbar1, fbar2)
    if swapped:
        sigma = _swapped_sigma(r1, a1, b1, d1, d3)
        cert = CycleCertificate(2, maps, lambda: swapped_competition_threshold(
            r1_sup, a1_inf, d1, r2_sup, a2_inf, d2))
    else:
        sigma = _competition_sigma(r1, a1, b1, d1, d3) \
            if p.b1.bounds()[0] > 0 else None
        cert = CycleCertificate(1, maps, lambda: competition_threshold(
            r1_sup, a1_inf, d1))
    return PlanarSystem(
        f=f, g=g, sigma=SigmaForm.custom(sigma) if sigma else None,
        envelope_f=fbar1, envelope_g=fbar2, sample_steps=steps,
        name="competition-swapped" if swapped else "competition",
        certificate=cert)


_EXP_SAFE = 709.0     # exp stays finite below (it overflows above ~709.78)
_RBH = """\
    try:
        return {r} * (own_d := own ** {d}) / ({a} + own_d + {b} * other ** {e})
    except OverflowError:
        return rbh_log({r}, {a}, {b}, own, other, {d}, {e})
"""


def _rbh_map(r, a, b, d: float, e: float, own_is_y: bool):
    """(n, x, y) -> r_n X^d / (a_n + X^d + b_n Y^e) from resolved
    coefficients, where X is the species' own state (x, or y when
    ``own_is_y``) and Y the other one: the signature names x and y own
    and other in that order.  Where X^d or Y^e overflows on its own, the
    quotient is ``_rbh_log``'s."""
    return _render("rbh(n, other, own)" if own_is_y else "rbh(n, own, other)",
                   _RBH, {"rbh_log": _rbh_log}, r=r, a=a, b=b, d=d, e=e)


def _rbh_log(r: float, a: float, b: float, own: float, other: float,
             d: float, e: float) -> float:
    """r X^d / (a + X^d + b Y^e) for X = own, Y = other >= 0 where X^d or
    Y^e overflows, with b Y^e as exp(ln b + e ln Y) (0 for b Y = 0).
    While X^d and b Y^e are finite, the map's own operations; else each
    term over the larger of them, the exponents taken in logs.  Each
    form is the envelope's (b = 0) plus a term >= 0 in the denominator,
    or at most about 0.7 of the envelope, so the map stays below it.
    Called while the overflow of the direct form is handled: for a
    negative state the bare ``raise`` re-raises it."""
    if own < 0 or other < 0:
        raise
    q = math.log(b) + e * math.log(other) if b and other else -_INF
    try:
        own_d = own ** d
        if q < _EXP_SAFE:
            return r * own_d / (a + own_d + math.exp(q))
    except OverflowError:
        pass
    p = d * math.log(own) if own else -_INF
    top = max(p, q)
    return r * math.exp(p - top) / (a * math.exp(-top) + math.exp(p - top)
                                    + math.exp(q - top))


def _no_preimage(n: int, u: float, w: float) -> FoldError:
    return FoldError("sigma_%d: w=%r has no preimage at u=%r" % (n, w, u),
                     index=n)


_COMPETITION_SIGMA = """\
    if w <= 0:
        raise no_preimage({n}, u, w)
    return (({r1} * (ud := u ** {d1}) / w - {a1} - ud) / {b1}) ** {inv_d3}
"""
_SWAPPED_SIGMA = """\
    denom = {r1} - w
    if denom <= 0:
        raise no_preimage({n}, u, w)
    return (w * ({a1} + {b1} * u ** {d3}) / denom) ** {inv_d1}
"""


def _competition_sigma(r1, a1, b1, d1: float, d3: float):
    """Solve w = r1 u^d1 / (a1 + u^d1 + b1 v^d3) for v (needs w > 0)."""
    return _render("sigma(n, u, w)", _COMPETITION_SIGMA,
                   {"no_preimage": _no_preimage}, r1=r1, a1=a1, b1=b1, d1=d1,
                   inv_d3=1.0 / d3)


def _swapped_sigma(r1, a1, b1, d1: float, d3: float):
    """Solve w = r1 v^d1 / (a1 + v^d1 + b1 u^d3) for v (needs w < r1)."""
    return _render("sigma(n, u, w)", _SWAPPED_SIGMA,
                   {"no_preimage": _no_preimage}, r1=r1, a1=a1, b1=b1, d3=d3,
                   inv_d1=1.0 / d1)


def competition_threshold(r1: float, a1: float,
                          d1: float) -> ThresholdResult:
    """Smallest positive root of u^d1 - r1 u^(d1-1) + a1 = 0, below which
    the competition envelope satisfies fbar(u) < u.

    The polynomial psi is (u - fbar(u)) (a1 + u^d1) / u, so -psi at its
    interior minimum u_min = r1 (d1-1)/d1 is the excess that
    ``_peak_threshold`` reads, on the scale of a1.  d1 = 2 uses the
    closed quadratic form: the excess is disc/4 = r1^2/4 - a1 at r1/2, and
    the root a1 over the larger root (r1 - sqrt(disc) cancels when a1 is
    small).  Other exponents take ``_lower_root`` below u_min: the end of
    an adjacent pair of doubles where fbar(u) < u, or a raise.
    """
    if r1 <= 0 or a1 <= 0 or d1 <= 1:
        raise ModelParameterError("need r1, a1 > 0 and d1 > 1")

    def log_ratio(u: float) -> float:   # read at a tangency only
        return _log_envelope(r1, a1, d1)[0](t := math.log(u)) - t

    if d1 == 2.0:
        disc = r1 * r1 - 4.0 * a1
        return _peak_threshold(0.25 * disc, 0.5 * r1, log_ratio, lambda: a1 / (
            0.5 * (r1 + math.sqrt(disc))), a1)

    def psi(u: float) -> float:
        return u ** d1 - r1 * u ** (d1 - 1.0) + a1

    u_min = r1 * (d1 - 1.0) / d1
    return _peak_threshold(-psi(u_min), u_min, log_ratio, lambda: _lower_root(
        lambda u: psi(u) > 0, u_min, "fbar(u)"), a1)


def _log_envelope(r: float, a: float, d: float):
    """L(t) = ln fbar(e^t) for fbar(u) = r u^d / (a + u^d), and L'(t).

    L(t) = ln r + d t - ln(a + e^(d t)) = ln r - softplus(ln a - d t),
    written so that no exponential overflows: increasing, with slope
    d a / (a + e^(d t)) falling from d to 0, and so concave.
    """
    ln_r, ln_a, exp, log1p = math.log(r), math.log(a), math.exp, math.log1p

    def log_fbar(t: float) -> float:
        x = ln_a - d * t
        return ln_r - (max(x, 0.0) + log1p(exp(-abs(x))))

    def slope(t: float) -> float:
        x = ln_a - d * t
        if x >= 0:
            return d / (1.0 + exp(-x))
        e = exp(x)
        return d * e / (1.0 + e)
    return log_fbar, slope


def swapped_competition_threshold(r1: float, a1: float, d1: float,
                                  r2: float, a2: float, d2: float
                                  ) -> ThresholdResult:
    """Smallest positive root of fbar1(fbar2(u)) = u, the swapped
    competition system's alternating cycle, with fbar_i(u) =
    r_i u^d_i / (a_i + u^d_i).

    The cycle has no closed form, but its log form phi(t) = L1(L2(t)) - t
    (L_i(t) = ln fbar_i(e^t)) is concave: each L_i is increasing and
    concave.  phi' falls from d1 d2 - 1 > 0 (t -> -inf) to -1, so
    bisecting its sign finds the one peak; as with
    ``ricker_fixed_points``, ``_peak_threshold`` of phi there decides
    between no root (+inf), a tangency and a pair, whose lower root is
    ``_lower_root`` below the peak: the end of an adjacent pair of
    doubles where phi <= 0, or a raise.
    """
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
    t_max = bisect(min(last, step), max(last, step), rising)
    # e^t overflows just past ln(_MAX) >= ln r1 >= L1, where phi < 0.
    u_max = math.exp(t_max) if t_max <= math.log(_MAX) else _INF
    return _peak_threshold(
        phi(t_max), u_max, lambda u: phi(math.log(u)), lambda: _lower_root(
            lambda u: phi(math.log(u)) <= 0, u_max, "fbar1(fbar2(u))"))

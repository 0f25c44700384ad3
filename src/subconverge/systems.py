"""Planar systems, folding to scalar equations, and envelope criteria.

A planar system x_{n+1} = f_n(x_n, y_n), y_{n+1} = g_n(x_n, y_n) folds to
a second-order scalar equation once f_n is solvable for its second
argument (y_n = sigma_n(x_n, x_{n+1})).  A cycle of envelopes lets the
criterion apply directly to the system without folding:

* tail cycle (fbar,): f_n(u1, u2) <= fbar(u1) and fbar(u) < u near 0 --
  the whole x-tail converges monotonically;
* alternating cycle (fbar, gbar): f_n(u1, u2) <= fbar(u2), g_n(u1, u2)
  <= gbar(u1), fbar non-decreasing, and fbar(gbar(u)) < u near 0 --
  terms of {x_n} with the parity of the crossing index converge to zero.
  A link runs through the orbit's own y-term (``_alternating_links``),
  so fbar need be non-decreasing only in the reals.

A catalog builder proves domination and monotonicity for its own cycle
and attaches the proof as a ``CycleCertificate``; any other cycle, and a
user-built system, has them checked on grids.  The threshold alpha of
the cycle map comes from the system's ``cycle_threshold`` when the
catalog built it (exact: a closed form or a concave log form), else
from the threshold scan on (0, 10].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import islice
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import criteria
from .analysis import analyze_residues
from .criteria import ScalarMap, ThresholdResult, solve_threshold
from .dynamics import EquationSpec, _outside, check_finite_initial
from .errors import CriterionInapplicableError, DomainError, FoldError
from .reports import ChainResult, ConvergenceReport, ThresholdWindow

SystemMap = Callable[[int, float, float], float]


class SigmaForm(NamedTuple):
    """Solvability form for f_n(u, v) = w with respect to v; calling it
    runs ``solve(n, u, w)``."""

    solve: Callable[[int, float, float], float]

    @staticmethod
    def custom(sigma) -> "SigmaForm":
        return SigmaForm(sigma)

    def __call__(self, n: int, u: float, w: float) -> float:
        return self.solve(n, u, w)


class CycleCertificate(NamedTuple):
    """A builder's proof of the premises of its own envelope cycle of
    length ``length``: each component is at most its envelope on the whole
    quadrant in floating point (each envelope is its map at dominating
    constants: README, "How a bound is built"), and fbar increases in the
    reals, all that the alternating links use.  ``maps`` are the objects
    (f, g, envelope_f, envelope_g) the proof is about."""

    length: int
    maps: Tuple[Callable, ...]


@dataclass(frozen=True)
class PlanarSystem:
    """A non-autonomous planar map pair on (a subset of) the quadrant.

    ``cycle_threshold`` is (L, solve): the length of the envelope cycle
    the system was built for (1 tail, 2 alternating) and a zero-argument
    function returning that cycle's exact threshold.  The envelope check
    calls it in place of the scan; it stays with the system when
    ``dataclasses.replace`` wraps f, g or the envelopes, so an envelope
    replaced by a different function needs it replaced too (None: scan).
    ``certificate`` lets the envelope check skip both grids for that
    cycle; it too stays with the system under ``replace``, but it covers
    the system only while f, g and both envelopes are the very objects in
    its ``maps``, so replacing any of them brings the grids back.
    """

    f: SystemMap
    g: SystemMap
    sigma: Optional[SigmaForm] = None
    envelope_f: Optional[ScalarMap] = None
    envelope_g: Optional[ScalarMap] = None
    domain_x: Tuple[float, float] = (0.0, math.inf)
    domain_y: Tuple[float, float] = (0.0, math.inf)
    sample_steps: Tuple[int, ...] = tuple(range(8))
    name: str = "system"
    cycle_threshold: Optional[
        Tuple[int, Callable[[], ThresholdResult]]] = None
    certificate: Optional[CycleCertificate] = None

    def origin_residual(self) -> float:
        """Max |f_n(0,0)|, |g_n(0,0)| over the sampled steps; must be 0
        for the convergence machinery to apply."""
        return max(max(abs(self.f(n, 0.0, 0.0)), abs(self.g(n, 0.0, 0.0)))
                   for n in self.sample_steps)

    def in_domain(self, x: float, y: float) -> bool:
        return (self.domain_x[0] <= x <= self.domain_x[1]
                and self.domain_y[0] <= y <= self.domain_y[1])


@dataclass(frozen=True)
class Orbit:
    """A forward orbit {(x_n, y_n)} of a planar system; ``points[0]`` is
    the initial point."""

    points: Tuple[Tuple[float, float], ...]
    diagnostic: Optional[str] = None

    def __len__(self) -> int:
        return len(self.points)

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self.points]

    def to_csv(self) -> str:
        lines = ["n,x,y"]
        lines += ["%d,%r,%r" % (n, x, y)
                  for n, (x, y) in enumerate(self.points)]
        return "\n".join(lines) + "\n"


def _solver(sys: PlanarSystem) -> Callable[[int, float, float], float]:
    """The system's sigma, as a plain function; FoldError if it has none."""
    if sys.sigma is None:
        raise FoldError("system %r has no solvability form" % sys.name)
    return sys.sigma.solve


def _initial_state(sys: PlanarSystem, initial) -> Tuple[float, float]:
    x, y = float(initial[0]), float(initial[1])
    check_finite_initial((x, y))
    if not sys.in_domain(x, y):
        raise DomainError("initial point %r outside domain" % ((x, y),),
                          index=0)
    return x, y


def _non_finite_state(x: float, y: float, n: int) -> str:
    return "non-finite state (%r, %r) at step %d" % (x, y, n)


def _state_outside(x: float, y: float, n: int) -> DomainError:
    return DomainError("state %r outside domain at step %d" % ((x, y), n),
                       index=n)


def iterate_system(sys: PlanarSystem, initial: Tuple[float, float],
                   steps: int) -> Orbit:
    """Forward orbit of ``steps`` applications of the system map.

    The initial point must be finite.  Non-finite values truncate the
    orbit with a diagnostic; a domain exit raises DomainError.
    """
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


def fold_initial(sys: PlanarSystem, x0: float, y0: float
                 ) -> Tuple[float, float]:
    """Initial pair (x_0, x_1) for the folded equation: x_1 = f_0(x_0, y_0)."""
    return float(x0), sys.f(0, float(x0), float(y0))


def fold_planar(sys: PlanarSystem) -> EquationSpec:
    """Fold to the order-2 scalar equation
    x_n = f_{n-1}(x_{n-1}, g_{n-2}(x_{n-2}, sigma_{n-2}(x_{n-2}, x_{n-1}))).

    History convention: u_1 = x_{n-1}, u_2 = x_{n-2}; sigma is applied at
    (x_{n-2}, x_{n-1}), recovering y_{n-2}.
    """
    f, g, sigma = sys.f, sys.g, _solver(sys)

    # check_fold_consistency writes this step out in its loop.
    def evaluator(n: int, u: Sequence[float]) -> float:
        y = sigma(n - 2, u[1], u[0])
        return f(n - 1, u[0], g(n - 2, u[1], y))

    lo, hi = sys.domain_x
    return EquationSpec(order=2, dominant_lag=2, evaluator=evaluator,
                        domain_low=(lo, lo), domain_high=(hi, hi),
                        name=sys.name + "-folded",
                        origin_fixed=sys.origin_residual() == 0.0)


class FoldCheck(NamedTuple):
    """Comparison of a direct orbit against the folded scalar equation.

    ``steps`` is the number of x-terms compared; ``stopped`` says why the
    comparison ended before the requested length (a truncated orbit, a
    non-finite fold term, or a step whose y has no preimage under sigma),
    or is None.  A NaN deviation fails the check at ``first_divergent``;
    ``max_dev_x``/``max_dev_y`` pass it over (they may read 0.0).
    """

    passed: bool
    max_dev_x: float
    max_dev_y: float
    first_divergent: Optional[int]
    steps: int
    stopped: Optional[str] = None


def check_fold_consistency(sys: PlanarSystem, initial: Tuple[float, float],
                           steps: int, tol: float = 1e-9) -> FoldCheck:
    """Iterate the system and its fold in lockstep and compare x_n, and
    y_n with sigma_n(x_n, x_{n+1}), evaluated once per step on the fold's
    terms.  Events surface in step order; the first stop ends the check
    and ``stopped`` says why.  No solvability form: FoldError before any
    step.  At step n the direct state comes first: non-finite stops,
    outside the domain raises DomainError.  Then the fold's x_{n+1}:
    overflow, a non-finite or a complex value stops; outside the domain
    raises DomainError unless it is the last term (as ``iterate`` does);
    a FoldError of sigma_n with an index (no preimage, e.g. x underflowed
    to 0) stops; any other error is raised.  Zero steps evaluate nothing.
    """
    x, y = _initial_state(sys, initial)
    f, g, sigma, isfinite = sys.f, sys.g, _solver(sys), math.isfinite
    (x_lo, x_hi), (y_lo, y_hi) = sys.domain_x, sys.domain_y
    u0, u1, r = None, x, None   # the fold's x_{n-1}, x_n, recovered y_{n-1}
    max_x = max_y = 0.0
    div_x = div_y = stopped = None
    for n in range(steps):
        xn, yn = f(n, x, y), g(n, x, y)
        if not (isfinite(xn) and isfinite(yn)):
            stopped = _non_finite_state(xn, yn, n + 1)
            break
        if not (x_lo <= xn <= x_hi and y_lo <= yn <= y_hi):
            raise _state_outside(xn, yn, n + 1)
        # The fold's x_{n+1} = f_n(x_n, g_{n-1}(x_{n-1}, r)), fold_planar's
        # evaluator with r in hand; x_1 = f_0(x_0, y_0) is the direct x_1.
        try:
            nxt = f(n, u1, g(n - 1, u0, r)) if n else float(xn)
            finite = isfinite(nxt)
        except OverflowError:
            finite = False
        except TypeError:   # complex: a root or power of a negative value
            stopped = "fold term x_%d is not real" % (n + 1)
            break
        if not finite:
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
        # Each deviation is |a - b| / max(|a|, |b|, 1) with max()'s
        # comparisons written out, in its order (the call costs more than
        # the step's arithmetic): a later operand replaces the running
        # maximum only if it is greater, so a NaN |r| or d is passed over;
        # a NaN d (r NaN or infinite) still diverges.
        if r != y:
            s, t = abs(y), abs(r)
            if t > s:
                s = t
            d = abs(y - r) / (1.0 if 1.0 > s else s)
            if (d > tol or d != d) and div_y is None:
                div_y = n
            if d > max_y:
                max_y = d
        if nxt != xn:
            s, t = abs(xn), abs(nxt)
            if t > s:
                s = t
            d = abs(xn - nxt) / (1.0 if 1.0 > s else s)
            if (d > tol or d != d) and div_x is None:
                div_x = n + 1
            if d > max_x:
                max_x = d
        u0, u1 = u1, nxt
        x, y = xn, yn   # apart: a four-name swap was ~4% slower on 3.11
    else:
        n = max(steps, 0)   # every term x_0 .. x_steps was compared
    first = div_x if div_x is not None else div_y
    return FoldCheck(max_x <= tol and max_y <= tol and first is None, max_x,
                     max_y, first, n + 1, stopped)


# -- envelope criteria ---------------------------------------------------


class EnvelopeVerdict(NamedTuple):
    applicable: bool
    alpha: float = math.nan
    tangent: bool = False
    reason: str = ""
    counterexample: Optional[Tuple] = None


def _grid(lo: float, hi: float, count: int) -> List[float]:
    return [lo + (hi - lo) * i / count for i in range(1, count + 1)]


_GRID, _SEARCH_HI = 60, 10.0    # the envelope grids and scan on (0, 10]
_US = _grid(0.0, _SEARCH_HI, _GRID)         # the domination grid's axis


@lru_cache(maxsize=1)
def _fine_grid() -> Tuple[float, ...]:
    """The 10,000-point monotonicity grid, built on first use (so that
    importing the package does not pay for it)."""
    return tuple(_grid(0.0, _SEARCH_HI, 10_000))


Cycle = Sequence[Optional[ScalarMap]]   # envelopes, outermost first
_NOTES = {1: "entire x-tail monotone to 0 from n0={0}",
          2: "x-subsequence of parity {1} from n0={0}; y-subsequence of "
             "parity {2} follows via y_n = sigma_n(x_n, x_{{n+1}})"}


def _cycle_map(envelopes: Sequence[ScalarMap]) -> ScalarMap:
    """u -> fbar(gbar(u)) for (fbar, gbar); the bare fbar for (fbar,)."""
    if len(envelopes) == 1:
        return envelopes[0]
    fbar, gbar = envelopes
    return lambda u: fbar(gbar(u))


def _certificate(sys: PlanarSystem,
                 envelopes: Cycle) -> Optional[CycleCertificate]:
    """The system's certificate if it covers this cycle: the system's own
    envelopes, of the certified length, and f, g and both envelopes still
    the objects it was proved for."""
    cert = sys.certificate
    if cert is None or cert.length != len(envelopes):
        return None
    own = (sys.f, sys.g, sys.envelope_f, sys.envelope_g)
    if all(map(operator.is_, cert.maps, own)) and \
            all(map(operator.is_, envelopes, own[2:])):
        return cert
    return None


def _domination_grid(sys: PlanarSystem,
                     envelopes: Cycle) -> Optional[EnvelopeVerdict]:
    """Component i (f, then g at each point) <= envelope i at argument
    (i+1) mod L on the 60x60 grid: the first counterexample, or None."""
    length = len(envelopes)
    f, g, us = sys.f, sys.g, _US

    def above(i: int, n: int, u1: float, u2: float) -> EnvelopeVerdict:
        return EnvelopeVerdict(False, counterexample=(n, u1, u2), reason=(
            "{0}_n(u1,u2) > {0}bar(u{1})".format("fg"[i], (i+1) % length + 1)))

    # One nest per length: a loop over f, g was ~1.5x slower (Python 3.11).
    if length == 1:
        fbar_us = list(map(envelopes[0], us))   # on the grid first
        for n in sys.sample_steps:
            for u1, fbar_u1 in zip(us, fbar_us):
                for u2 in us:
                    if f(n, u1, u2) > fbar_u1:
                        return above(0, n, u1, u2)
    else:
        fbar_us, gbar_us = (list(map(e, us)) for e in envelopes)
        for n in sys.sample_steps:
            for u1, gbar_u1 in zip(us, gbar_us):
                for u2, fbar_u2 in zip(us, fbar_us):
                    if f(n, u1, u2) > fbar_u2:
                        return above(0, n, u1, u2)
                    if g(n, u1, u2) > gbar_u1:
                        return above(1, n, u1, u2)
    return None


def _monotonicity_grid(fbar: ScalarMap) -> Optional[EnvelopeVerdict]:
    """fbar non-decreasing on the 10,000-point grid: the first pair of
    points where it falls, or None."""
    fine = _fine_grid()
    fbar_a = fbar(fine[0])
    for a, b in zip(fine, islice(fine, 1, None)):
        fbar_b = fbar(b)
        if fbar_b < fbar_a:
            return EnvelopeVerdict(False, reason="fbar not non-decreasing",
                                   counterexample=(a, b))
        fbar_a = fbar_b
    return None


def check_envelope_cycle(sys: PlanarSystem,
                         envelopes: Cycle) -> EnvelopeVerdict:
    """Envelope check for the cycle (fbar,) (tail) or (fbar, gbar)
    (alternating): (i) component i (f, then g at each point) <= envelope
    i at argument (i+1) mod L; (ii) fbar non-decreasing if L = 2; (iii)
    fbar(gbar(u)), or fbar(u), < u on (0, alpha).  (i) and (ii) are
    checked on grids with exact comparisons, unless the system's
    certificate proves them for its own cycle ((ii) in the reals); alpha
    is the system's exact ``cycle_threshold`` when the cycle is its own
    envelopes, else the threshold scan's, and a scan that finds no
    positive threshold makes the criterion inapplicable."""
    length = len(envelopes)
    if not all(envelopes):
        return EnvelopeVerdict(False, reason="missing envelope"
                               + "s" * (length > 1))
    if _certificate(sys, envelopes) is None:
        failed = _domination_grid(sys, envelopes)
        if failed is None and length == 2:
            failed = _monotonicity_grid(envelopes[0])
        if failed is not None:
            return failed
    own = sys.cycle_threshold
    if own is not None and own[0] == length and \
            tuple(envelopes) == (sys.envelope_f, sys.envelope_g)[:length]:
        res = own[1]()
    else:
        try:
            res = solve_threshold(_cycle_map(envelopes), _SEARCH_HI)
        except CriterionInapplicableError as exc:
            return EnvelopeVerdict(False, reason=str(exc))
    return EnvelopeVerdict(True, res.alpha, res.tangent)


def check_alternating_envelopes(sys: PlanarSystem) -> EnvelopeVerdict:
    return check_envelope_cycle(sys, (sys.envelope_f, sys.envelope_g))


def check_tail_envelope(sys: PlanarSystem) -> EnvelopeVerdict:
    return check_envelope_cycle(sys, (sys.envelope_f,))


def _alternating_links(points: Sequence[Tuple[float, float]], n0: int,
                       fbar: ScalarMap, gbar: ScalarMap) -> ChainResult:
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


def predict_envelope_cycle(orbit: Orbit, alpha: float,
                           envelopes: Cycle) -> ConvergenceReport:
    """Once x_{n0} enters (0, alpha), x_{n0}, x_{n0+L}, ... (L the cycle
    length) decrease to zero; for L = 2 the other-parity y-terms follow
    when they inherit the decay (reported, not asserted).  The chain is
    ``check_inequality_chain`` under fbar for L = 1, and
    ``_alternating_links`` for L = 2."""
    stride, terms, fbar = len(envelopes), orbit.xs, envelopes[0]
    if not all(envelopes):
        chain = None
    elif stride == 1:
        chain = (lambda n0: criteria.check_inequality_chain(
            terms, n0, 1, lambda u: fbar(abs(u))))
    else:
        chain = (lambda n0: _alternating_links(orbit.points, n0, *envelopes))
    report = analyze_residues(terms, stride, chain,
                              ThresholdWindow(0.0, alpha), first_only=True)
    predictions = tuple(replace(p, note=_NOTES[stride].format(
        p.start_index, p.start_index % 2, (p.start_index + 1) % 2))
        for p in report.predictions)
    return replace(report, predictions=predictions, full_convergence_from=(
        report.crossing_index if stride == 1 else None))


def predict_alternating_convergence(sys: PlanarSystem, orbit: Orbit,
                                    alpha: float) -> ConvergenceReport:
    return predict_envelope_cycle(orbit, alpha,
                                  (sys.envelope_f, sys.envelope_g))


def predict_tail_convergence(sys: PlanarSystem, orbit: Orbit,
                             alpha: float) -> ConvergenceReport:
    return predict_envelope_cycle(orbit, alpha, (sys.envelope_f,))


def folded_descriptor(sys: PlanarSystem) -> dict:
    """JSON-serializable descriptor of the folded equation."""
    eq = fold_planar(sys)
    return {
        "name": eq.name,
        "order": eq.order,
        "dominant_lag": eq.dominant_lag,
        "domain_low": [v if math.isfinite(v) else "-inf" if v < 0 else "inf"
                       for v in eq.domain_low],
        "domain_high": [v if math.isfinite(v) else "inf"
                        for v in eq.domain_high],
        "origin_fixed": eq.origin_fixed,
        "source_system": sys.name,
    }

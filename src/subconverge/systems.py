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
  The chain (``criteria.check_inequality_chain`` under (gbar, fbar), as
  the tail's is under (fbar,)) runs through the orbit's own y-terms, so
  fbar need be non-decreasing only in the reals.

A catalog builder proves domination and monotonicity for its own cycle
and attaches the proof as a ``CycleCertificate``; any other cycle, and a
user-built system, has them checked on grids.  The threshold alpha of
the cycle map comes from the certificate's ``threshold`` when the
catalog built it (exact: a closed form or a concave log form), else
from the threshold scan on (0, 10].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain, count, islice, takewhile
from typing import (Callable, Iterable, List, NamedTuple, Optional, Sequence,
                    Tuple)

from . import criteria
from .analysis import analyze_residues
from .criteria import ScalarMap, ThresholdResult, solve_threshold
from .dynamics import (_BLOCK, _SCHEDULE, EquationSpec, Orbit, _blocked,
                       _initial_state, _loop, _loop_args, _map_step,
                       _non_finite_state, _outside, _rendered, _repeated,
                       _state_outside)
from .errors import CriterionInapplicableError, FoldError
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
    """A builder's record of its own envelope cycle of length ``length``
    (1 tail, 2 alternating).

    The proof of the cycle's premises: each component is at most its
    envelope on the whole quadrant in floating point (each envelope is its
    map at dominating constants: README, "How a bound is built"), and fbar
    increases in the reals, all that the alternating links use.  ``maps``
    are the objects (f, g, envelope_f, envelope_g) the proof is about.
    The certificate stays with the system under ``dataclasses.replace``,
    but the proof covers it only while f, g and both envelopes are those
    very objects, so replacing any of them brings the grids back.

    ``threshold`` returns the cycle map's exact threshold, called in place
    of the scan.  It holds for the system's own envelopes, also after
    ``replace`` wrapped them, so an envelope replaced by a different
    function needs it replaced too (None: scan)."""

    length: int
    maps: Tuple[Callable, ...]
    threshold: Optional[Callable[[], ThresholdResult]] = None


@dataclass(frozen=True)
class PlanarSystem:
    """A non-autonomous planar map pair on (a subset of) the quadrant.

    A catalog builder attaches the ``certificate`` of the envelope cycle
    it built the system for; a user-built system has none.
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
    certificate: Optional[CycleCertificate] = None

    def origin_residual(self) -> float:
        """Max |f_n(0,0)|, |g_n(0,0)| over the sampled steps; must be 0
        for the convergence machinery to apply."""
        return max(max(abs(self.f(n, 0.0, 0.0)), abs(self.g(n, 0.0, 0.0)))
                   for n in self.sample_steps)

    # The system as ``dynamics.iterate_system`` reads it.
    maps = property(lambda self: (self.f, self.g))
    domains = property(lambda self: (self.domain_x, self.domain_y))


def _solver(sys: PlanarSystem) -> Callable[[int, float, float], float]:
    """The system's sigma, as a plain function; FoldError if it has none."""
    if sys.sigma is None:
        raise FoldError("system %r has no solvability form" % sys.name)
    return sys.sigma.solve


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

    # check_fold_consistency runs this step in its rendered loop, with the
    # y that sigma recovered at the step before in hand.
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


# The direct state comes first, then the fold's x_{n+1} =
# f_n(x_n, g_{n-1}(x_{n-1}, r)): fold_planar's evaluator with r, the y_{n-1}
# sigma recovered, in hand; x_1 = f_0(x_0, y_0) is the direct x_1.  Each
# deviation is |a - b| / max(|a|, |b|, 1) with max()'s comparisons written
# out, in its order: a later operand replaces the running maximum only if
# it is greater, so a NaN |r| or d is passed over; a NaN d (r NaN or
# infinite) still diverges.
_CHECK_FOLD = """\
def orbit(x, y, steps, stops, tol, x_lo, x_hi, y_lo, y_hi, %(args)s):
    u0, u1, r = None, x, None   # the fold's x_{n-1}, x_n, recovered y_{n-1}
    max_x = max_y = 0.0
    div_x = div_y = stopped = None
    start, kept = 0, {}     # kept[p]: the state p steps before a checkpoint
    for stop, key, compared in stops:
        for n in range(start, stop):
%(f)s
%(g)s
            if not (isfinite(xn) and isfinite(yn)):
                stopped = _non_finite_state((xn, yn), n + 1)
                break
            if not (x_lo <= xn <= x_hi and y_lo <= yn <= y_hi):
                raise _state_outside((xn, yn), n + 1)
            try:
                if n:
%(fold_g)s
%(fold_f)s
                else:
                    nxt = float(xn)
                finite = isfinite(nxt)
            except OverflowError:
                finite = False
            except TypeError:   # complex: a root or power of a negative value
                stopped = "fold term x_%%d is not real" %% (n + 1)
                break
            if not finite:
                stopped = "fold term x_%%d is not finite" %% (n + 1)
                break
            if not x_lo <= nxt <= x_hi and n + 1 < steps:
                raise _outside(n + 2, (nxt, u1))
            try:
%(sigma)s
            except FoldError as exc:
                if exc.index is None:
                    raise
                stopped = str(exc)
                break
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
            x, y = xn, yn   # apart: a four-name swap was ~4%% slower on 3.11
        else:   # a stop: end at a checkpoint whose state repeats
            start, state = stop, (x, y, u0, u1, r)
            if not compared or _repeated(
                    state, kept.__getitem__, compared) is None:
                kept[key] = state
                continue
        break
    if stopped is None:     # every term x_0 .. x_steps was compared
        n = max(steps, 0)
    first = div_x if div_x is not None else div_y
    return FoldCheck(max_x <= tol and max_y <= tol and first is None, max_x,
                     max_y, first, n + 1, stopped)
"""


@lru_cache(maxsize=128)
def _fold_loop(f: Optional[tuple], g: Optional[tuple],
               sigma: Optional[tuple]) -> Callable:
    """The fold check's loop for the shapes of a rendered f, g and sigma
    (None: that map is called).  f and g each run twice per step: on the
    direct state, and in the fold term, g at step n - 1."""
    direct, fold = " " * 12, " " * 20
    return _loop(_CHECK_FOLD % {
        "args": _loop_args(((f, "f"), (g, "g"), (sigma, "sigma"))),
        "f": _map_step(f, "f", "xn", "x, y", direct),
        "g": _map_step(g, "g", "yn", "x, y", direct),
        "fold_g": _map_step(g, "g", "gy", "u0, r", fold, "n - 1"),
        "fold_f": _map_step(f, "f", "nxt", "u1, gy", fold),
        "sigma": _map_step(sigma, "sigma", "r", "u1, nxt", " " * 16)},
        (math.isfinite, _non_finite_state, _state_outside, _outside,
         FoldError, FoldCheck, _repeated))


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
    A rendered f, g or sigma runs inlined in the loop; any other is called
    once per use: at step 0 f, g and sigma once each, at each later step f
    and g twice and sigma once.  As ``dynamics._in_blocks`` does, a
    ``_blocked`` check ends at the first checkpoint whose state (x, y,
    x_{n-1}, x_n, y_{n-1}) repeats the one p steps earlier, for a p of
    ``_blocked``'s periods whose earlier state is at or past its first
    step (the fold reads g at n - 1): every later step repeats a compared
    one.  Its checkpoints are those of ``dynamics._in_blocks`` (steps 105,
    210, 420, 840, then every 840), and it keeps the states it compares
    with at the stops of ``_checkpoints``.
    """
    x, y = _initial_state(initial, sys.domains)
    maps = (f, f_values), (g, g_values), (sigma, s_values) = tuple(map(
        _rendered, (sys.f, sys.g, _solver(sys))))
    (x_lo, x_hi), (y_lo, y_hi) = sys.domain_x, sys.domain_y
    return _fold_loop(f, g, sigma)(
        x, y, steps, _checkpoints(steps, _blocked(steps, *maps)), tol, x_lo,
        x_hi, y_lo, y_hi, *f_values, *g_values, *s_values)


def _widest(periods: Tuple[int, ...]) -> Tuple[int, ...]:
    """Of ``periods``, smallest first: each below the largest that divides
    no larger one, then the largest (at q = 1 and a whole block: 120, 168,
    280, 420, 840).  Every other period p divides one of them, so a state
    that repeats with p from a step at least that far back repeats with
    it too.  A state kept for every period (31 at q = 1) cost a
    30,000-step check that never repeats about 7% of its time; these five
    cost about 1%."""
    proper = periods[:-1]
    return tuple(p for p in proper if not any(
        d % p == 0 for d in proper if d > p)) + periods[-1:]


def _checkpoints(steps: int, blocked: Optional[Tuple[int, Tuple[int, ...]]]
                 ) -> Iterable[Tuple[int, Optional[int], Tuple[int, ...]]]:
    """The fold check's stops up to ``steps``, for the (first, periods) of
    ``_blocked``: each (stop, key, compared).  At a stop the check compares
    its state with the one kept p steps back, for each p of ``compared``,
    then keeps it under ``key``, the steps to the next checkpoint that
    reads it.  Not blocked: only ``steps``."""
    end = (steps, None, ())
    if blocked is None:
        return (end,)
    head, block, begin = _schedule(*blocked)
    return chain(takewhile(lambda stop: stop[0] < steps, chain(head, (
        (start + offset, key, compared)
        for start in count(begin, _BLOCK)
        for offset, key, compared in block))), (end,))


@lru_cache(maxsize=128)
def _schedule(first: int, periods: Tuple[int, ...]) -> tuple:
    """(head, block, begin): the stops of ``_checkpoints`` up to the
    checkpoint ``begin``, and from there the stops of every block, as
    offsets from its start.  At checkpoint c the check compares with the
    ``_widest`` of the periods that divide gcd(c, _BLOCK), for each p
    whose earlier state is at or past step first + 1 (g reads n - 1): at
    q = 1, (15, 21, 35) at 105, (30, 42, 70, 105) at 210, (60, 84, 140,
    210) at 420, (120, 168, 280, 420) at 840, and those and 840 from
    1680 on.  Every state compared with lies between the checkpoint
    before and c.  From the first checkpoint past 2 * _BLOCK - 1 and
    _BLOCK + first, each block's stops are the same."""
    marks = list(_SCHEDULE)
    while marks[-1] < 2 * _BLOCK or marks[-1] - first <= _BLOCK:
        marks.append(marks[-1] + _BLOCK)
    stops = []
    for before, mark, after in zip([0] + marks, marks,
                                   marks[1:] + [marks[-1] + _BLOCK]):
        gcd = math.gcd(mark, _BLOCK)
        compared = tuple(p for p in _widest(tuple(
            p for p in periods if not gcd % p)) if p < mark - first)
        stops += [(mark - p, p, ()) for p in reversed(compared)
                  if mark - p > before]
        stops.append((mark, after - mark, compared))
    begin = marks[-2]
    block = tuple((stop - begin, key, compared)
                  for stop, key, compared in stops if stop > begin)
    return tuple(stops[:len(stops) - len(block)]), block, begin


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


def _own_certificate(sys: PlanarSystem,
                     envelopes: Cycle) -> Optional[CycleCertificate]:
    """The system's certificate if this cycle is its own: the system's
    own envelopes, of the certified length."""
    cert = sys.certificate
    if cert is not None and cert.length == len(envelopes) and all(map(
            operator.is_, envelopes, (sys.envelope_f, sys.envelope_g))):
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
    certificate proves them for its own cycle ((ii) in the reals), with
    f, g and both envelopes the objects it was proved for; alpha is the
    certificate's exact ``threshold`` when the cycle is its own, else the
    threshold scan's, and a scan that finds no positive threshold makes
    the criterion inapplicable."""
    length = len(envelopes)
    if not all(envelopes):
        return EnvelopeVerdict(False, reason="missing envelope"
                               + "s" * (length > 1))
    cert = _own_certificate(sys, envelopes)
    maps = (sys.f, sys.g, sys.envelope_f, sys.envelope_g)
    if cert is None or len(cert.maps) != len(maps) or not all(
            map(operator.is_, cert.maps, maps)):
        failed = _domination_grid(sys, envelopes)
        if failed is None and length == 2:
            failed = _monotonicity_grid(envelopes[0])
        if failed is not None:
            return failed
    if cert is not None and cert.threshold is not None:
        res = cert.threshold()
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


class _Alternating:
    """x_n, y_{n+1}, x_{n+2}, ... for n of the parity of ``n0``: the terms
    an alternating chain from x_{n0} runs through, read from the orbit's
    points by index (never copied)."""

    __slots__ = ("points", "n0")

    def __init__(self, points: Sequence[Tuple[float, float]], n0: int):
        self.points, self.n0 = points, n0

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, n: int) -> float:
        return self.points[n][(n - self.n0) & 1]


def predict_envelope_cycle(orbit: Orbit, alpha: float,
                           envelopes: Cycle) -> ConvergenceReport:
    """Once x_{n0} enters (0, alpha), x_{n0}, x_{n0+L}, ... (L the cycle
    length) decrease to zero; for L = 2 the other-parity y-terms follow
    when they inherit the decay (reported, not asserted).  The chain is
    ``check_inequality_chain`` under the reversed cycle: (fbar,) on the
    x-terms, or (gbar, fbar) on x_{n0}, y_{n0+1}, x_{n0+2}, ..."""
    stride, terms, cycle = len(envelopes), orbit.xs, tuple(envelopes[::-1])

    def chain(n0: int) -> ChainResult:
        seq = terms if stride == 1 else _Alternating(orbit.points, n0)
        return criteria.check_inequality_chain(seq, n0, 1, cycle)
    report = analyze_residues(terms, stride, chain if all(envelopes) else None,
                              ThresholdWindow(0.0, alpha), first_only=True,
                              repeat=orbit.repeat)
    predictions = tuple(replace(p, note=_NOTES[stride].format(
        p.start_index, p.start_index % 2, (p.start_index + 1) % 2))
        for p in report.predictions)
    return replace(report, predictions=predictions)


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

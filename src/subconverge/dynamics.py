"""Core representation and iteration of higher-order difference equations.

An equation of order m is x_n = F_n(x_{n-1}, ..., x_{n-m}).  History
vectors follow the convention u_1 = x_{n-1} (most recent term first); every
model builder and fold in this package uses the same convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DomainError, NonFiniteError

Evaluator = Callable[[int, Sequence[float]], float]

_INF = math.inf


@dataclass(frozen=True)
class EquationSpec:
    """An order-m recurrence with a designated dominant lag k.

    The dominant lag is the history slot through which a bounding
    function controls the map; 1 <= k <= m.

    ``domain_low``/``domain_high`` give a rectangular invariant domain,
    one closed interval per history coordinate (use +-inf for unbounded
    sides).

    ``origin_fixed`` declares that F_n(0, ..., 0) = 0 for all n, which is
    required before convergence criteria may be applied.

    ``translated`` is an optional builder's form of the map conjugated
    by a fixed point b: ``(evaluator, b, G)`` with G the map written
    in y = x - b.  It holds only while
    ``evaluator`` is still the first entry (``translate_to_origin``
    checks by identity), so ``dataclasses.replace`` with a new evaluator
    voids it, even one made with ``functools.wraps``.
    """

    order: int
    dominant_lag: int
    evaluator: Evaluator
    domain_low: Tuple[float, ...] = ()
    domain_high: Tuple[float, ...] = ()
    name: str = "equation"
    origin_fixed: bool = False
    translated: Optional[Tuple[Evaluator, float, Evaluator]] = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not 1 <= self.dominant_lag <= self.order:
            raise ValueError("dominant lag must lie in 1..order")
        if not self.domain_low:
            object.__setattr__(self, "domain_low", (-_INF,) * self.order)
        if not self.domain_high:
            object.__setattr__(self, "domain_high", (_INF,) * self.order)
        if len(self.domain_low) != self.order or \
                len(self.domain_high) != self.order:
            raise ValueError("domain bounds must have one entry per lag")

    def in_domain(self, history: Sequence[float]) -> bool:
        return all(lo <= u <= hi for u, lo, hi in
                   zip(history, self.domain_low, self.domain_high))


@dataclass(frozen=True)
class Trajectory:
    """A forward orbit x_0, x_1, ... of an equation.

    The first ``order`` terms are the initial values (x_0 oldest); for
    n >= order, terms[n] is the evaluator applied to the preceding
    window.  ``diagnostic`` is set when iteration stopped early on a
    non-finite value.
    """

    terms: Tuple[float, ...]
    diagnostic: Optional[str] = None

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def truncated(self) -> bool:
        return self.diagnostic is not None

    def to_csv(self) -> str:
        lines = ["n,x"]
        lines += ["%d,%r" % (n, x) for n, x in enumerate(self.terms)]
        return "\n".join(lines) + "\n"


def _overflow(n: int, exc: OverflowError) -> NonFiniteError:
    return NonFiniteError("overflow at step %d: %s" % (n, exc), index=n)


def _non_finite(n: int, value: float) -> NonFiniteError:
    return NonFiniteError("non-finite value %r at step %d" % (value, n),
                          index=n)


def _outside(n: int, history: Sequence[float]) -> DomainError:
    return DomainError("history %r outside domain at step %d"
                       % (tuple(history), n), index=n)


def check_finite_initial(initial: Sequence[float]) -> None:
    """Raise NonFiniteError (index 0) unless every initial value is
    finite; an orbit started at inf or NaN carries no information."""
    if not all(map(math.isfinite, initial)):
        raise NonFiniteError("initial values %r are not all finite"
                             % (tuple(initial),), index=0)


def evaluate_map(eq: EquationSpec, n: int, history: Sequence[float]) -> float:
    """Apply F_n to a history vector (u_1 = x_{n-1} first).

    Raises DomainError if the history leaves the declared domain and
    NonFiniteError if the result overflows.
    """
    if len(history) != eq.order:
        raise ValueError("history length %d != order %d"
                         % (len(history), eq.order))
    if not eq.in_domain(history):
        raise _outside(n, history)
    try:
        value = eq.evaluator(n, history)
    except OverflowError as exc:
        raise _overflow(n, exc) from exc
    if not math.isfinite(value):
        raise _non_finite(n, value)
    return value


def iterate(eq: EquationSpec, initial: Sequence[float],
            steps: int) -> Trajectory:
    """Generate the forward orbit for ``steps`` terms past the initial data.

    Initial values are given oldest first (x_0, ..., x_{m-1}) and must
    be finite.  A non-finite term truncates the trajectory and records a
    diagnostic; a domain exit raises DomainError with the offending
    index.  The evaluator receives each window as a tuple, most recent
    term first.
    """
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
            try:
                terms.append(evaluate_map(eq, n, terms[:stop:-1]))
            except NonFiniteError as exc:
                diagnostic = str(exc)
                break
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

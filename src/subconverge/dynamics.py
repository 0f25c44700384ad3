"""Core representation and iteration of higher-order difference equations
and of systems.

An equation of order m is x_n = F_n(x_{n-1}, ..., x_{n-m}).  History
vectors follow the convention u_1 = x_{n-1} (most recent term first); every
model builder and fold in this package uses the same convention.  A system
is d maps x_{i,n+1} = f_{i,n}(x_{1,n}, ..., x_{d,n}) on d closed intervals.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import struct
import weakref
from array import array
from dataclasses import dataclass
from itertools import chain, count
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DomainError, NonFiniteError
from .sequences import _REPEATS

Evaluator = Callable[[int, Sequence[float]], float]

_INF = math.inf
_MAX = 1.7976931348623157e308       # the largest double


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
    non-finite value.  ``repeat`` is set when the terms repeat, as
    ``_in_blocks`` found: (onset, period), the least index from which
    every term has the bits of the term one period later, and the least
    such period, which divides ``_BLOCK``.
    """

    terms: Tuple[float, ...]
    diagnostic: Optional[str] = None
    repeat: Optional[Tuple[int, int]] = None

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


# -- rendered maps and orbit loops ------------------------------------------
#
# Each catalog map, sigma and step is written once, as the text of a
# function body in which every value of the model is a {placeholder}, and
# the step is {n}; the body's other names are shared functions (exp, log,
# ...).  ``_render`` fills a body in: a constant coefficient is read by its
# bare name, a step-dependent one as name(n).  Only fixed text and ints
# enter the source, and the values are bound by name in the function's
# own namespace.  So models that differ only in their values share one
# code object, compiled once per shape (the body, and which coefficients
# vary), and a bound rendered from its map's body at dominating constants
# runs the map's operations in the map's order.
#
# The orbit loops inline the same bodies.  ``_RENDERED`` holds the parts
# of every function ``_render`` made, keyed by the function itself: a
# wrapper (even one made with functools.wraps, which copies __dict__) is
# another object, so it is called once per step like any evaluator.  A
# loop is compiled once per shape and takes the values as arguments.


# A rendered function's shape is what its code depends on: the tuple
# (params, body, keys, varying, names) of its parameter names, its body,
# its placeholders, whether each varies with n, and the other names its
# body reads.  Each entry is (shape, the values of names + keys).
_RENDERED: "weakref.WeakKeyDictionary[Callable, tuple]" = \
    weakref.WeakKeyDictionary()


def _rendered(function: Callable) -> tuple:
    """(shape, values) of a function ``_render`` made, which a loop
    inlines; (None, (function,)) for any other, which it calls."""
    try:
        parts = _RENDERED.get(function)
    except TypeError:   # not weakly referable, so not rendered
        parts = None
    return parts or (None, (function,))


def _fill(body: str, keys: Tuple[str, ...], varying: Tuple[bool, ...],
          prefix: str = "", step: str = "n") -> str:
    """``body`` with {n} read as ``step``, and each {placeholder} as its
    value's name under ``prefix``: called at ``step`` if it varies."""
    return body.format_map(dict(
        {key: prefix + key + ("(%s)" % step if varies else "")
         for key, varies in zip(keys, varying)}, n=step))


@functools.lru_cache(maxsize=128)
def _compiled(signature: str, body: str, keys: Tuple[str, ...],
              varying: Tuple[bool, ...], names: Tuple[str, ...]):
    """The code of ``def signature: body`` filled in, its function's name
    and its shape."""
    name, _, params = signature.rstrip(")").partition("(")
    return (compile("def %s:\n%s" % (signature, _fill(body, keys, varying)),
                    "<rendered map>", "exec"), name,
            (tuple(p.strip() for p in params.split(",")), body, keys,
             varying, names))


def _render(signature: str, body: str, names: dict, **coeffs) -> Callable:
    """``def signature: body`` as a function, with each {placeholder} of
    ``body`` filled in for its resolved coefficient (a float or a function
    of n) in ``coeffs``, over a fresh namespace of ``names`` and
    ``coeffs``.  The step is the parameter n, and ``names`` are shared
    functions (exp, log, ...): each name means one object in every body,
    so a loop that inlines two bodies reads it once."""
    namespace = dict(names, **coeffs)
    code, name, shape = _compiled(signature, body, tuple(coeffs), tuple(
        map(callable, coeffs.values())), tuple(names))
    exec(code, namespace)
    # Popped, so that no cycle keeps the function and its namespace alive
    # until the garbage collector runs: they go, and leave the registry,
    # with their last reference.
    function = namespace.pop(name)
    _RENDERED[function] = shape, (*names.values(), *coeffs.values())
    return function


def _statements(shape: tuple, result: str, indent: str,
                prefix: str = "", step: str = "n") -> str:
    """The body as the statements of a loop's step ``step``: placeholders
    filled in under ``prefix``, and each ``return`` assigning ``result``
    (so no statement may follow a return on its path)."""
    _, body, keys, varying, _ = shape
    text = _fill(body, keys, varying, prefix, step)
    return "".join(indent + line for line in
                   text.replace("return ", result + " = ").splitlines(True))


def _loop(source: str, helpers: Tuple[Callable, ...]) -> Callable:
    """The function ``orbit`` that ``source`` defines, reading each of
    ``helpers`` by its own name."""
    namespace = {helper.__name__: helper for helper in helpers}
    exec(compile(source, "<orbit loop>", "exec"), namespace)
    return namespace["orbit"]


_BLOCK = 840    # lcm(1, ..., 8): every period up to 8 divides a block
_DIVISORS = tuple(p for p in range(1, _BLOCK + 1) if not _BLOCK % p)
# The checkpoints of a blocked loop, in steps from its start: these, then
# every _BLOCK.  An orbit that repeats early ends at the first that shows
# it, and the fold check (``systems._checkpoints``) keeps the same.
_SCHEDULE = (_BLOCK // 8, _BLOCK // 4, _BLOCK // 2, _BLOCK)


def _blocked(steps: int, *maps: tuple
             ) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """(first, periods) for a loop of ``steps`` steps over these maps (each
    ``(shape, values)`` of ``_rendered``) when it runs in blocks, or None.
    It does when it is longer than a block, every map is rendered, and
    each coefficient that varies has an (onset, period) in
    ``sequences._REPEATS`` whose period divides _BLOCK (a constant: 0, 1).
    first is the latest onset, q the lcm of the periods: from first on,
    every step reads the coefficients of the step q later (a body reads
    its step only to raise).  ``periods`` are the divisors of _BLOCK that
    q divides, smallest first: the distances at which the loop compares
    its states.  A ``steps`` that is not an integer raises range()'s
    TypeError."""
    if operator.index(steps) <= _BLOCK:
        return None
    try:    # a called map has no shape, a wrapper no record
        repeats = [_REPEATS[value] if varies else (0, 1)
                   for shape, values in maps for varies, value in
                   zip(shape[3], values[len(shape[4]):])]
    except (KeyError, TypeError):
        return None
    q = math.lcm(*(period for _, period in repeats))
    return None if _BLOCK % q else (
        max((onset for onset, _ in repeats), default=0),
        tuple(p for p in _DIVISORS if not p % q))


def _repeated(state, earlier: Callable[[int], object],
              periods: Sequence[int]) -> Optional[int]:
    """The least p of ``periods`` whose state p steps back,
    ``earlier(p)``, holds the bits of ``state``; or None.  The caller
    passes only the p whose earlier state starts at or past ``first``."""
    for p in periods:
        back = earlier(p)
        if back == state and _same_bits(back, state):
            return p
    return None


def _same_bits(a: Sequence, b: Sequence) -> bool:
    """Whether two runs of items hold the same doubles (0.0 and -0.0
    differ); a value that is not a real number (None, a complex) matches
    nothing."""
    try:
        return _bits(a) == _bits(b)
    except (TypeError, struct.error):
        return False


def _bits(items: Sequence) -> bytes:
    """The doubles of ``items``, each a double or a tuple of doubles (all
    of one length)."""
    if items and isinstance(items[0], tuple):
        return struct.pack("%dd" % (len(items) * len(items[0])),
                           *chain.from_iterable(items))
    return array("d", items).tobytes()


def _repeat(seq: list, start: int, p: int) -> Tuple[int, int]:
    """(onset, period) of ``seq``, whose items from ``start`` on repeat
    with p: the period is the least divisor of p with which they repeat,
    and the onset the least index from which every item has the bits of
    the item one period later.  The onset is bisected with ``==`` (which
    0.0 and -0.0 pass), then confirmed by bits, or bisected by bits."""
    bits = _bits(seq[start:start + p])
    size = len(bits) // p
    period = next(d for d in _DIVISORS if not p % d
                  and bits[d * size:] == bits[:(p - d) * size])

    def onset(lo: int, same: Callable[[list, list], bool]) -> int:
        return bisect.bisect_left(range(lo, start), True, key=lambda i: same(
            seq[i:start], seq[i + period:start + period])) + lo
    least = onset(0, operator.eq)
    if least < start and not _same_bits(seq[least:start],
                                        seq[least + period:start + period]):
        least = onset(least + 1, _same_bits)
    return least, period


def _in_blocks(loop: Callable, seq: list, end: int, lags: int,
               blocked: Optional[Tuple[int, Tuple[int, ...]]],
               *args) -> tuple:
    """The items of ``seq`` extended to ``end`` by ``loop(seq, stop,
    *args)``, which appends items up to ``stop`` and returns why it
    stopped early, or None.  Given the (first, periods) of ``_blocked``,
    the loop runs to the checkpoints of ``_SCHEDULE``: _BLOCK/8, /4, /2
    and _BLOCK items past its start, then every _BLOCK.  At each it
    compares the state (the last ``lags`` items) with the state p items
    back, for each p of ``periods``, smallest first, while that earlier
    state starts at or past ``first``.  At the first match the last p
    items repeat to ``end``: the cycle, rotated to the phase at which
    whole cycles fill the rest, is built once as a tuple, repeated once
    and joined to the stored head in one concatenation, so no list of
    the copy is built.  Returns the items as a tuple, why the loop
    stopped, and the repeat (onset, period) of ``_repeat``, or None.  A
    copy too long to hold raises MemoryError naming the steps."""
    if blocked is None:
        stopped = loop(seq, end, *args)
        return tuple(seq), stopped, None
    first, periods = blocked
    begin = len(seq)
    for offset in chain(_SCHEDULE, count(2 * _BLOCK, _BLOCK)):
        stopped = loop(seq, min(begin + offset, end), *args)
        if stopped is not None or len(seq) >= end:
            return tuple(seq), stopped, None
        # States are sliced only for the periods whose newest item matches:
        # slicing one for each of the 32 periods cost a 30,000-step orbit
        # that never repeats about 5% of its time.  The bound comes first,
        # so that seq[-1 - d] is never read before the list's start.
        last, latest = seq[-1], len(seq) - lags - first
        p = _repeated(seq[-lags:], lambda back: seq[-lags - back:-back],
                      [d for d in periods if d <= latest
                       and seq[-1 - d] == last])
        if p is not None:
            # The copy starts at head, from which `cycles` whole cycles
            # reach end.  head lies in the last p stored items, so the
            # rotated cycle is the stored items from head on, then those
            # from p before the last up to head.
            stored = len(seq)
            cycles = -((stored - end) // p)
            head = end - cycles * p
            cycle = tuple(seq[head:] + seq[stored - p:head])
            try:
                items = tuple(seq[:head]) + cycle * cycles
            except (MemoryError, OverflowError):
                raise MemoryError("an orbit of %d steps does not fit in "
                                  "memory" % (end - begin)) from None
            return items, None, _repeat(seq, stored - lags - p, p)


def _stop(n: int, x: float, end: int, terms: List[float], m: int
          ) -> Optional[str]:
    """Why an orbit of order m stops at the term x of step n, which failed
    the loop's check: a diagnostic if x is not finite, a DomainError if x
    leaves the domain before the last step, or None if it is the last term
    (no window reads it)."""
    if not math.isfinite(x):
        return str(_non_finite(n, x))
    if n + 1 < end:
        terms.append(x)
        raise _outside(n + 1, terms[:-m - 1:-1])
    return None


# The lags u0 (x_{n-1}) ... u{m-1} shift through locals; with finite
# bounds, ``lo <= x <= hi`` passes exactly the finite terms in lag 1's
# interval.  The loop runs to ``stop``, and ``end`` is the orbit's last
# term, which may leave the domain.
_ITERATE = """\
def orbit(terms, stop, end, lo, hi, in_domain, %(args)s):
    %(oldest_first)s= terms[-%(m)d:]
    append = terms.append
    try:
        for n in range(len(terms), stop):
%(step)s
            if not %(check)s and (why := _stop(n, x, end, terms, %(m)d)):
                return why
            append(x)
            %(lags)s= x, %(window)s
    except OverflowError as exc:
        return str(_overflow(n, exc))
"""


@functools.lru_cache(maxsize=128)
def _iterate_loop(shape: Optional[tuple], m: int,
                  uniform: bool) -> Callable:
    """The orbit loop of order m for a rendered map's ``shape`` (None: the
    evaluator is called), with one interval for every lag (``uniform``)
    or one per lag (then the window is checked whole).  The body reads
    its lags as u[i] (under its own parameter name), its only brackets;
    the loop reads them as u{i}."""
    lags = ["u%d, " % i for i in range(m)]
    window = "".join(lags[:-1])
    if shape is None:
        args = "evaluator"
        step = "            x = evaluator(n, (%s))\n" % "".join(lags)
    else:
        params, _, keys, _, names = shape
        args = ", ".join(names + keys)
        step = _statements(shape, "x", " " * 8).replace(
            params[1] + "[", "u").replace("]", "")
    check = "lo <= x <= hi" if uniform else \
        "(lo <= x <= hi and in_domain((x, %s)))" % window
    return _loop(_ITERATE % {
        "args": args, "oldest_first": "".join(reversed(lags)),
        "step": step.rstrip("\n"), "check": check, "m": m,
        "window": window, "lags": "".join(lags)}, (_overflow, _stop))


def iterate(eq: EquationSpec, initial: Sequence[float],
            steps: int) -> Trajectory:
    """Generate the forward orbit for ``steps`` terms past the initial data.

    Initial values are given oldest first (x_0, ..., x_{m-1}) and must
    be finite.  A non-finite term truncates the trajectory and records a
    diagnostic; a domain exit raises DomainError with the offending
    index.  An evaluator that ``_render`` made runs inlined in the loop
    (``_in_blocks``); any other is called once per step with the window
    as a tuple, most recent term first.  An orbit that repeats but has
    too many steps to hold raises MemoryError.
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
    m, terms = eq.order, list(init)
    lo, hi = eq.domain_low[0], eq.domain_high[0]
    # One interval for every lag: a window leaves the domain exactly when
    # its newest term does, so each term is checked once, as it enters.
    uniform = eq.domain_low.count(lo) == m and eq.domain_high.count(hi) == m
    shape, values = rendered = _rendered(eq.evaluator)
    blocked = _blocked(steps, rendered)
    return Trajectory(*_in_blocks(
        _iterate_loop(shape, m, uniform), terms, m + steps, m, blocked,
        m + steps, max(lo, -_MAX), min(hi, _MAX), eq.in_domain, *values))


# -- systems ------------------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    """A forward orbit of a system; ``points[0]`` is the initial state, and
    ``diagnostic`` and ``repeat`` are as a ``Trajectory``'s.  ``xs`` and
    ``ys`` are the first two components of every point, each a tuple
    built on first read."""

    points: Tuple[Tuple[float, ...], ...]
    diagnostic: Optional[str] = None
    repeat: Optional[Tuple[int, int]] = None

    def __len__(self) -> int:
        return len(self.points)

    @functools.cached_property
    def xs(self) -> Tuple[float, ...]:
        return self._column(0)

    @functools.cached_property
    def ys(self) -> Tuple[float, ...]:
        return self._column(1)

    def _column(self, i: int) -> Tuple[float, ...]:
        """Component i of every point; with a repeat, read from the points
        up to one period past the index, within a period of the onset,
        from which whole periods reach the end, and the last period read,
        repeated, joined to it in one concatenation."""
        points = self.points
        if self.repeat is None:
            return tuple([p[i] for p in points])
        onset, period = self.repeat
        more = (len(points) - onset) // period - 1    # cycles not read
        read = tuple([p[i] for p in points[:len(points) - more * period]])
        return read + read[len(read) - period:] * more

    def to_csv(self) -> str:
        lines = ["n," + ",".join("xyz"[:len(self.points[0])])]
        lines += ["%d,%s" % (n, ",".join(map(repr, p)))
                  for n, p in enumerate(self.points)]
        return "\n".join(lines) + "\n"


def _initial_state(initial: Sequence[float], domains) -> Tuple[float, ...]:
    """The first d initial values, d = len(domains), as floats: finite
    (NonFiniteError) and each in its interval (DomainError)."""
    state = tuple(float(initial[i]) for i in range(len(domains)))
    check_finite_initial(state)
    if not all(lo <= v <= hi for v, (lo, hi) in zip(state, domains)):
        raise DomainError("initial point %r outside domain" % (state,),
                          index=0)
    return state


def _non_finite_state(state: Tuple[float, ...], n: int) -> str:
    return "non-finite state %r at step %d" % (state, n)


def _state_outside(state: Tuple[float, ...], n: int) -> DomainError:
    return DomainError("state %r outside domain at step %d" % (state, n),
                       index=n)


# In the system loops, a map that ``_render`` made runs inlined: its
# parameters bound to the step's operands, its placeholders read under its
# own prefix (f_, g_, ...).  Any other map is called.


def _loop_args(maps: Sequence[Tuple[Optional[tuple], str]]) -> str:
    """The loop's parameters for the values of each (shape, name) of
    ``maps``: the map itself if it is called (shape None), else its
    names', then its keys'.  A name two maps read is the same object, and
    the loop reads it from the first."""
    args: List[str] = []
    for shape, name in maps:
        if shape is None:
            args.append(name)
            continue
        _, _, keys, _, names = shape
        args += [name + "_" + key if key in args else key for key in names]
        args += [name + "_" + key for key in keys]
    return ", ".join(args)


def _map_step(shape: Optional[tuple], name: str, result: str,
              operands: str, indent: str, step: str = "n") -> str:
    """``result = name(step, operands)`` as statements of a loop at
    ``indent``: a rendered map's body with its parameters bound to the
    operands (unless they are the operands' names), or the call.  At a
    step other than the loop's n, a body that reads its step (as {n} or
    through a varying coefficient) reads it as name_n, bound to that
    step, so the loop's own index is never rebound."""
    if shape is None:
        return "%s%s = %s(%s, %s)" % (indent, result, name, step, operands)
    params = ", ".join(shape[0][1:])
    head = "" if params == operands else "%s%s = %s\n" % (
        indent, params, operands)
    if step != "n" and ("{n}" in shape[1] or any(shape[3])):
        head += "%s%s_n = %s\n" % (indent, name, step)
        step = name + "_n"
    # A body is indented one level already.
    return head + _statements(shape, result, indent[4:], name + "_",
                              step).rstrip()


# With finite bounds, the one comparison passes exactly the finite states
# inside the domain.  The loop runs until ``points`` holds ``stop`` points.
_ITERATE_SYSTEM = """\
def orbit(points, stop, %(bounds)s, %(args)s):
    append = points.append
    %(state)s = points[-1]
    for n in range(len(points) - 1, stop - 1):
%(maps)s
        if not (%(inside)s):
            if not (%(finite)s):
                return _non_finite_state((%(next)s), n + 1)
            raise _state_outside((%(next)s), n + 1)
        %(state)s = %(next)s
        append((%(state)s))
"""


@functools.lru_cache(maxsize=128)
def _system_loop(shapes: Tuple[Optional[tuple], ...]) -> Callable:
    """The orbit loop for the shapes of d <= 3 rendered component maps
    (None: that map is called), named x, y, z and f, g, h."""
    xs, names = "xyz"[:len(shapes)], "fgh"[:len(shapes)]
    state, nxt = ", ".join(xs), ", ".join(x + "n" for x in xs)
    return _loop(_ITERATE_SYSTEM % {
        "bounds": ", ".join("%s_lo, %s_hi" % (x, x) for x in xs),
        "args": _loop_args(tuple(zip(shapes, names))),
        "state": state, "next": nxt,
        "maps": "\n".join(_map_step(shape, name, x + "n", state, " " * 8)
                          for shape, name, x in zip(shapes, names, xs)),
        "inside": " and ".join("%s_lo <= %sn <= %s_hi" % (x, x, x)
                               for x in xs),
        "finite": " and ".join("isfinite(%sn)" % x for x in xs)},
        (math.isfinite, _non_finite_state, _state_outside))


def iterate_system(sys, initial: Sequence[float], steps: int) -> Orbit:
    """Forward orbit of ``steps`` applications of a system's ``maps``, d <=
    3 component maps f_i(n, x_1, ..., x_d), each on its closed interval of
    ``domains``, from a finite initial point in the domain.  A non-finite
    state truncates the orbit with a diagnostic; a finite one outside the
    domain raises DomainError.  A rendered map runs inlined in the loop
    (``_in_blocks``); any other is called once per step.  As in
    ``iterate``, a repeating orbit with too many steps to hold raises
    MemoryError."""
    points: List[Tuple[float, ...]] = [_initial_state(initial, sys.domains)]
    maps = tuple(map(_rendered, sys.maps))
    blocked = _blocked(steps, *maps)
    return Orbit(*_in_blocks(
        _system_loop(tuple(shape for shape, _ in maps)), points, steps + 1,
        1, blocked,
        *(b for lo, hi in sys.domains for b in (max(lo, -_MAX),
                                                 min(hi, _MAX))),
        *(value for _, values in maps for value in values)))

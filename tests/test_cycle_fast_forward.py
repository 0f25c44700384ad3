"""Orbit loops that copy a repeated block, against the loops that ran
every step.

``iterate``, ``iterate_system`` (planar and 3D) and
``check_fold_consistency`` run in blocks of ``dynamics._BLOCK`` steps when
every map of the loop is rendered, and each coefficient that varies with
n is a periodic or tabulated sequence's own closure whose period divides
the block.  Once the state at a block end has the bits of the state one
block earlier, and that earlier end is at or past every table's end,
every later step repeats one already taken: the stored loops copy the
last block to the end, and the fold check returns.  The loops below are
the ones that took every step, kept verbatim as the oracle.  On seeded
draws of every catalog family, with constant coefficients and with
periodic and tabulated ones, at step counts around one and two blocks
(and around a long table's end), both must give the same terms (by
bits), the same diagnostic and every ``FoldCheck`` field, or raise the
same exception type with the same message and index.

The draws reach orbits of period 1, 2, 4 and 6, and the benchmark's
periodic Ricker orbit period 12.  A chaotic Ricker orbit never repeats,
an orbit whose state differs one block later only in the sign of a zero
must not be copied, and neither may an orbit whose coefficients have a
period that does not divide the block or are called through a wrapper.
An orbit that repeats before a table ends, and changes after, is copied
only after.
"""

import dataclasses
import functools
from functools import lru_cache
import math
import random
from array import array
from itertools import chain
from typing import Callable, List, Optional, Sequence, Tuple

import pytest

import subconverge as sc
from subconverge import dynamics, models, planar, systems
from subconverge.dynamics import (_BLOCK, _MAX, EquationSpec, Orbit,
                                  Trajectory, _loop, _loop_args, _map_step,
                                  _outside, _overflow, _render, _rendered,
                                  _statements, _stop, check_finite_initial)
from subconverge.errors import DomainError, NonFiniteError
from subconverge.planar import CompetitionParams
from subconverge.sequences import ParameterSequence as S
from subconverge.systems import (FoldCheck, FoldError, PlanarSystem,
                                 SigmaForm, _solver)
from test_rendered_maps import (_initial_state, _non_finite_state,
                                _state_outside)

State3 = Tuple[float, float, float]


# -- reference loops (verbatim) ----------------------------------------------

# The lags u0 (x_{n-1}) ... u{m-1} shift through locals; with finite
# bounds, ``lo <= x <= hi`` passes exactly the finite terms in lag 1's
# interval.
_ITERATE = """\
def orbit(terms, end, lo, hi, in_domain, %(args)s):
    %(oldest_first)s= terms
    append = terms.append
    try:
        for n in range(len(terms), end):
%(step)s
            if not %(check)s and (stop := _stop(n, x, end, terms, %(m)d)):
                return stop
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


def ref_iterate(eq: EquationSpec, initial: Sequence[float],
                steps: int) -> Trajectory:
    """Generate the forward orbit for ``steps`` terms past the initial data.

    Initial values are given oldest first (x_0, ..., x_{m-1}) and must
    be finite.  A non-finite term truncates the trajectory and records a
    diagnostic; a domain exit raises DomainError with the offending
    index.  An evaluator that ``_render`` made runs inlined in the loop;
    any other is called once per step with the window as a tuple, most
    recent term first.
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
    shape, values = _rendered(eq.evaluator)
    diagnostic = _iterate_loop(shape, m, uniform)(
        terms, m + steps, max(lo, -_MAX), min(hi, _MAX), eq.in_domain,
        *values)
    return Trajectory(tuple(terms), diagnostic)


# With finite bounds, the one comparison passes exactly the finite states
# inside the domain.
_ITERATE_SYSTEM = """\
def orbit(points, x, y, steps, x_lo, x_hi, y_lo, y_hi, %(args)s):
    append = points.append
    for n in range(steps):
%(f)s
%(g)s
        if not (x_lo <= xn <= x_hi and y_lo <= yn <= y_hi):
            if not (isfinite(xn) and isfinite(yn)):
                return _non_finite_state(xn, yn, n + 1)
            raise _state_outside(xn, yn, n + 1)
        x, y = xn, yn
        append((x, y))
"""


@lru_cache(maxsize=128)
def _system_loop(f: Optional[tuple], g: Optional[tuple]) -> Callable:
    """The orbit loop for the shapes of a rendered f and g (None: that
    map is called)."""
    indent = " " * 8
    return _loop(_ITERATE_SYSTEM % {
        "args": _loop_args(((f, "f"), (g, "g"))),
        "f": _map_step(f, "f", "xn", "x, y", indent),
        "g": _map_step(g, "g", "yn", "x, y", indent)},
        (math.isfinite, _non_finite_state, _state_outside))


def ref_iterate_system(sys: PlanarSystem, initial: Tuple[float, float],
                       steps: int) -> Orbit:
    """Forward orbit of ``steps`` applications of the system map.

    The initial point must be finite.  Non-finite values truncate the
    orbit with a diagnostic; a domain exit raises DomainError.
    """
    x, y = _initial_state(sys, initial)
    points: List[Tuple[float, float]] = [(x, y)]
    (f, f_values), (g, g_values) = map(_rendered, (sys.f, sys.g))
    (x_lo, x_hi), (y_lo, y_hi) = sys.domain_x, sys.domain_y
    diagnostic = _system_loop(f, g)(
        points, x, y, steps, max(x_lo, -_MAX), min(x_hi, _MAX),
        max(y_lo, -_MAX), min(y_hi, _MAX), *f_values, *g_values)
    return Orbit(tuple(points), diagnostic)

# The direct state comes first, then the fold's x_{n+1} =
# f_n(x_n, g_{n-1}(x_{n-1}, r)): fold_planar's evaluator with r, the y_{n-1}
# sigma recovered, in hand; x_1 = f_0(x_0, y_0) is the direct x_1.  Each
# deviation is |a - b| / max(|a|, |b|, 1) with max()'s comparisons written
# out, in its order: a later operand replaces the running maximum only if
# it is greater, so a NaN |r| or d is passed over; a NaN d (r NaN or
# infinite) still diverges.
_CHECK_FOLD = """\
def orbit(x, y, steps, tol, x_lo, x_hi, y_lo, y_hi, %(args)s):
    u0, u1, r = None, x, None   # the fold's x_{n-1}, x_n, recovered y_{n-1}
    max_x = max_y = 0.0
    div_x = div_y = stopped = None
    for n in range(steps):
%(f)s
%(g)s
        if not (isfinite(xn) and isfinite(yn)):
            stopped = _non_finite_state(xn, yn, n + 1)
            break
        if not (x_lo <= xn <= x_hi and y_lo <= yn <= y_hi):
            raise _state_outside(xn, yn, n + 1)
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
    else:
        n = max(steps, 0)   # every term x_0 .. x_steps was compared
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
    direct, fold = " " * 8, " " * 16
    return _loop(_CHECK_FOLD % {
        "args": _loop_args(((f, "f"), (g, "g"), (sigma, "sigma"))),
        "f": _map_step(f, "f", "xn", "x, y", direct),
        "g": _map_step(g, "g", "yn", "x, y", direct),
        "fold_g": _map_step(g, "g", "gy", "u0, r", fold, "n - 1"),
        "fold_f": _map_step(f, "f", "nxt", "u1, gy", fold),
        "sigma": _map_step(sigma, "sigma", "r", "u1, nxt", " " * 12)},
        (math.isfinite, _non_finite_state, _state_outside, _outside,
         FoldError, FoldCheck))


def ref_check_fold_consistency(sys: PlanarSystem,
                               initial: Tuple[float, float], steps: int,
                               tol: float = 1e-9) -> FoldCheck:
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
    and g twice and sigma once.
    """
    x, y = _initial_state(sys, initial)
    (f, f_values), (g, g_values), (sigma, s_values) = map(
        _rendered, (sys.f, sys.g, _solver(sys)))
    (x_lo, x_hi), (y_lo, y_hi) = sys.domain_x, sys.domain_y
    return _fold_loop(f, g, sigma)(x, y, steps, tol, x_lo, x_hi, y_lo, y_hi,
                                   *f_values, *g_values, *s_values)


class _Stepped:
    """A 3D system as one step on its state, as the loop below took it:
    the component maps at a state whose z is positive, DomainError
    otherwise."""

    def __init__(self, sysm):
        maps = sysm.maps

        def step(n: int, state: State3) -> State3:
            x, y, z = state
            if z <= 0:
                raise DomainError("z_%d = %r is not positive" % (n, z),
                                  index=n)
            return tuple(component(n, x, y, z) for component in maps)
        self.step = step


def ref_threed_iterate(self, initial: State3, steps: int) -> List[State3]:
    x0, y0, z0 = (float(v) for v in initial)
    check_finite_initial((x0, y0, z0))
    if x0 <= 0 or z0 <= 0:
        raise DomainError("x_0 and z_0 must be positive")
    state = (x0, y0, z0)
    states = [state]
    append, step, isfinite = states.append, self.step, math.isfinite
    for n in range(steps):
        state = step(n, state)
        x, y, z = state
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise NonFiniteError("non-finite state at step %d" % (n + 1),
                                 index=n + 1)
        append(state)
    return states


# -- comparison --------------------------------------------------------------

B = _BLOCK
STEPS = (0, 1, B - 1, B, B + 1, 2 * B, 2 * B + 1, 5 * B + 7)


def _bits(values) -> bytes:
    return array("d", values).tobytes()


def _outcome(run: Callable, *args):
    """What ``run(*args)`` gives, bit for bit: the terms of a trajectory,
    the points of an orbit or the states of a 3D orbit as bytes (with the
    diagnostic), a FoldCheck by repr; or the exception's type, message
    and index."""
    try:
        got = run(*args)
    except Exception as exc:    # compared, not hidden
        return type(exc), str(exc), getattr(exc, "index", None)
    if isinstance(got, Trajectory):
        return _bits(got.terms), got.diagnostic
    if isinstance(got, Orbit):
        return _bits(chain.from_iterable(got.points)), got.diagnostic
    if isinstance(got, FoldCheck):
        return repr(got)
    return _bits(chain.from_iterable(got))


@pytest.fixture
def repeats(monkeypatch) -> List[bool]:
    """For each block end, whether its state repeated one p steps back
    (``dynamics._repeated``).  The fold loops are compiled afresh, so that
    they read the recording one."""
    seen: List[bool] = []
    repeated = dynamics._repeated

    def _repeated(*args):   # a loop reads it by this name
        p = repeated(*args)
        seen.append(p is not None)
        return p
    monkeypatch.setattr(dynamics, "_repeated", _repeated)
    monkeypatch.setattr(systems, "_repeated", _repeated)
    systems._fold_loop.cache_clear()
    yield seen
    systems._fold_loop.cache_clear()


def same_scalar(eq: EquationSpec, init, steps=STEPS):
    for n in steps:
        got = _outcome(sc.iterate, eq, init, n)
        assert got == _outcome(ref_iterate, eq, init, n), (eq.name, init, n)


def same_planar(sysm: PlanarSystem, init, steps=STEPS):
    for n in steps:
        for run, ref in ((sc.iterate_system, ref_iterate_system),
                         (sc.check_fold_consistency,
                          ref_check_fold_consistency)):
            got = _outcome(run, sysm, init, n)
            assert got == _outcome(ref, sysm, init, n), (sysm.name, init, n)


def same_threed(sysm, init, steps=STEPS):
    """The orbit against the loop that took every step, which raised
    where an orbit now ends: at a non-finite state, or at z = 0.0 (the
    orbit ends a step later, y being +inf).  Up to there the states have
    the same bits."""
    ref = _Stepped(sysm)
    for n in steps:
        got = _outcome(sc.iterate_system, sysm, init, n)
        want = _outcome(ref_threed_iterate, ref, init, n)
        if want[0] in (NonFiniteError, DomainError) and want[2]:
            stop = want[2] + (want[0] is DomainError)
            assert got[0] == _outcome(ref_threed_iterate, ref, init,
                                      stop - 1), (init, n)
            assert got[1].startswith("non-finite state (")
            assert got[1].endswith(" at step %d" % stop)
            assert want[0] is NonFiniteError or ", inf, " in got[1]
        else:
            assert got == (want if len(want) == 3 else (want, None)), (
                init, n)
        assert _outcome(sysm.iterate, init, n) == (
            got[0] if len(got) == 2 else got)


def _period(states: Sequence[bytes]) -> Optional[int]:
    """The least p with the last state equal to the one p states back."""
    return next((p for p in range(1, len(states))
                 if states[-1] == states[-1 - p]), None)


# -- every family, constant coefficients ------------------------------------


def test_ricker_draws(repeats):
    rng = random.Random("fast-forward:ricker")
    for _ in range(16):
        m = rng.randint(1, 4)
        spec = sc.RickerFamilySpec(
            rng.uniform(1.0, 3.0), rng.randint(1, m), m,
            S.constant(rng.uniform(-1.0, 3.0)),
            tuple(S.constant(rng.uniform(0.0, 1.5)) for _ in range(m)))
        eq, _ = sc.make_generalized_ricker(spec)
        same_scalar(eq, [rng.uniform(0.0, 3.0) for _ in range(m)])
    assert True in repeats


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sp3_draws(k, repeats):
    rng = random.Random("fast-forward:sp3:%d" % k)
    eq, _ = sc.make_sp3(k)
    for _ in range(6):
        same_scalar(eq, [rng.uniform(0.0, 3.0) for _ in range(3)])
    assert True in repeats


def test_sigmoid_bh_draws(repeats):
    """In x, and in y = x - b through ``translate_to_origin``."""
    rng = random.Random("fast-forward:sigmoid-bh")
    for _ in range(12):
        spec = sc.SigmoidBHSpec(
            S.constant(rng.uniform(0.1, 3.0)),
            S.constant(rng.choice((0.0, rng.uniform(0.0, 2.0)))),
            S.constant(rng.uniform(0.3, 2.5)), rng.choice((2, 3)),
            rng.uniform(0.0, 3.0), rng.randint(1, 3), rng.randint(1, 3))
        eq = sc.make_sigmoid_bh(spec)
        init = [rng.uniform(0.0, 2.0 * spec.b + 2.0)
                for _ in range(eq.order)]
        same_scalar(eq, init)
        shifted = sc.translate_to_origin(eq, spec.b)
        same_scalar(shifted, [v - spec.b for v in init])
    assert True in repeats


def test_threed_draws(repeats):
    """The 3D system and its order-3 fold."""
    rng = random.Random("fast-forward:threed")
    for _ in range(12):
        b, d = rng.uniform(0.0, 0.5), rng.choice((0.0, rng.uniform(0.0, 0.5)))
        c, q, r, s = (rng.uniform(0.2, 1.7) for _ in range(4))
        sysm, eq = sc.make_3d_example(rng.uniform(-1.0, 3.0),
                                      rng.uniform(-1.0, 0.5), b, c, d, q, r, s)
        init = (rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0),
                rng.uniform(0.1, 2.0))
        same_threed(sysm, init)
        same_scalar(eq, sysm.fold_initial(init))
    assert True in repeats


def test_adult_juvenile_draws(repeats):
    rng = random.Random("fast-forward:adult-juvenile")
    for _ in range(12):
        sysm = sc.make_adult_juvenile(
            rng.uniform(0.1, 1.0), rng.uniform(0.1, 2.0),
            rng.uniform(-1.0, 4.0), rng.uniform(1.1, 3.0))
        same_planar(sysm, (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)))
    assert True in repeats


@pytest.mark.parametrize("swapped", [False, True], ids=["tail", "swapped"])
def test_competition_draws(swapped, repeats):
    rng = random.Random("fast-forward:competition:%s" % swapped)
    for _ in range(12):
        sysm = sc.make_competition(CompetitionParams.make(
            *(rng.uniform(0.5, 3.0) for _ in range(4)),
            rng.uniform(1.1, 3.0), rng.uniform(1.1, 3.0),
            rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0),
            rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)), swapped)
        same_planar(sysm, (rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)))
    assert True in repeats


# -- the periods -------------------------------------------------------------


def _sp3(k):
    return sc.make_sp3(k)[0], (1.0, 1.0, 1.0)


@pytest.mark.parametrize("build,period", [
    (lambda: _sp3(1), 1), (lambda: _sp3(2), 2), (lambda: _sp3(3), 6)],
    ids=["sp3-k1", "sp3-k2", "sp3-k3"])
def test_scalar_periods(build, period, repeats):
    """sp3 from (1, 1, 1) repeats from step 29, 117 and 252."""
    eq, init = build()
    same_scalar(eq, init, STEPS + (30_000,))
    terms = ref_iterate(eq, init, 2 * B).terms
    assert _period([_bits(terms[i:i + 3]) for i in range(2 * B - 2)]) == \
        period
    assert True in repeats


@pytest.mark.parametrize("params,init,period", [
    (None, (1.0, 1.0), 4),
    ((3, 3, 1, 1, 2, 2, 0.3, 0.3), (2.0, 1.0), 1)],
    ids=["adult-juvenile", "competition"])
def test_planar_periods(params, init, period, repeats):
    """Adult-juvenile from (1, 1) repeats from step 308, competition from
    (2, 1) from step 72.  The fold check ends early too."""
    sysm = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0) if params is None \
        else sc.make_competition(CompetitionParams.make(*params))
    same_planar(sysm, init, STEPS + (30_000,))
    points = ref_iterate_system(sysm, init, 2 * B).points
    assert _period([_bits(p) for p in points]) == period
    repeats.clear()
    sc.check_fold_consistency(sysm, init, 30_000)
    assert True in repeats


def test_threed_period_one(repeats):
    """The 3D orbit of the benchmark repeats from step 12."""
    sysm, _ = sc.make_3d_example(1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    same_threed(sysm, (0.9, 1.1, 1.0), STEPS + (30_000,))
    states = ref_threed_iterate(_Stepped(sysm), (0.9, 1.1, 1.0), 2 * B)
    assert _period([_bits(state) for state in states]) == 1
    assert True in repeats


def test_chaotic_ricker_never_repeats(repeats):
    """x^1.1 exp(3 - 3x): no state comes back within five blocks."""
    eq, _ = sc.make_generalized_ricker(sc.RickerFamilySpec(
        1.1, 1, 1, S.constant(3.0), (S.constant(3.0),)))
    same_scalar(eq, (0.5,))
    terms = ref_iterate(eq, (0.5,), 5 * B + 7).terms
    assert len(set(terms)) == len(terms)
    assert repeats and True not in repeats


def test_steps_that_are_not_counts():
    """The same errors (or, below 0, orbits) as the loops that ran every
    step."""
    bad = (-3, 2.5, "5", None)
    same_scalar(sc.make_sp3(1)[0], (1.0, 1.0, 1.0), bad)
    same_planar(sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0), (1.0, 1.0), bad)
    same_threed(sc.make_3d_example(1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0,
                                   1.0)[0], (0.9, 1.1, 1.0), bad)


# -- what must not be copied --------------------------------------------------

# A rendered map of constant coefficients that counts 0, 1, ..., B - 1,
# then -0.0, -1, ..., -(B - 1), then 0.0: its state one block later
# differs only in the sign of a zero, and a comparison by == would copy
# the wrong block.
_FLIP = """\
    if copysign(1.0, u[0]) > 0:
        return u[0] + 1.0 if u[0] < {top} else -0.0
    else:
        return u[0] - 1.0 if u[0] > -{top} else 0.0
"""


def test_a_signed_zero_is_another_state(repeats):
    eq = EquationSpec(1, 1, _render("evaluator(n, u)", _FLIP,
                                    {"copysign": math.copysign},
                                    top=float(B - 1)))
    same_scalar(eq, (0.0,))
    terms = sc.iterate(eq, (0.0,), 2 * B).terms
    assert terms[B] == terms[0] == terms[2 * B]
    assert repr((terms[0], terms[B])) == "(0.0, -0.0)"
    assert repeats and True not in repeats
    f = _render("f(n, u, v)", _FLIP.replace("u[0]", "u"),
                {"copysign": math.copysign}, top=float(B - 1))
    g = _render("g(n, u, v)", "    return v\n", {})
    same_planar(PlanarSystem(f, g, domain_x=(-math.inf, math.inf)),
                (0.0, 1.0))
    assert True not in repeats


def test_a_domain_exit_on_the_last_term(repeats):
    """x_n = x_{n-1} + 1 on [0, B - 1] leaves the domain at x_B: allowed
    as the orbit's last term, a DomainError at index B + 1 before it;
    the block's end is not the orbit's."""
    count = _render("evaluator(n, u)", "    return u[0] + {one}\n", {},
                    one=1.0)
    eq = EquationSpec(1, 1, count, (0.0,), (float(B - 1),))
    same_scalar(eq, (0.0,))
    assert sc.iterate(eq, (0.0,), B).terms[-1] == B
    with pytest.raises(DomainError) as raised:
        sc.iterate(eq, (0.0,), B + 1)
    assert raised.value.index == B + 1


def test_periodic_coefficients_copy_when_the_period_divides_the_block(
        repeats):
    """The Ricker periodic/tabulated case of the benchmark (period 3 and a
    table of 4, its orbit of period 12 from step 103), adult-juvenile
    with a periodic s, and the 3D system with a periodic a and its fold,
    whose coefficients a_{n-1} + cr ln s and c p_{n-2} + d s repeat as a
    and p do, a step or two later."""
    eq, _ = sc.make_generalized_ricker(sc.RickerFamilySpec(
        1.8, 2, 3, S.periodic((0.5, 1.0, 1.5)),
        (S.constant(0.4), S.tabulated((0.5, 0.7, 0.6, 0.8), 0.6),
         S.constant(0.3))))
    same_scalar(eq, (0.5, 1.0, 1.5), STEPS + (30_000,))
    terms = ref_iterate(eq, (0.5, 1.0, 1.5), 2 * B).terms
    assert _period([_bits(terms[i:i + 3]) for i in range(2 * B - 2)]) == 12
    assert True in repeats
    repeats.clear()
    same_planar(sc.make_adult_juvenile(S.periodic((0.8, 0.6, 0.9)), 1.0,
                                       2.0, 2.0), (1.0, 1.0))
    assert True in repeats
    repeats.clear()
    sysm, fold = sc.make_3d_example(S.periodic((1.0, 0.8)), 0.0, 0.0, 1.0,
                                    0.0, 1.0, 1.0, 1.0)
    same_threed(sysm, (0.9, 1.1, 1.0))
    assert True in repeats
    repeats.clear()
    same_scalar(fold, sysm.fold_initial((0.9, 1.1, 1.0)))
    assert True in repeats


# -- coefficients that vary with n --------------------------------------------

DIVIDING = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 15)    # periods dividing B


def _varying(rng, lo: float, hi: float) -> S:
    """A seeded coefficient on [lo, hi]: periodic, with a period that
    divides B, or a table of up to 2,000 entries, all drawn or all one
    value, with a fallback of its own."""
    if rng.random() < 0.5:
        return S.periodic([rng.uniform(lo, hi)
                           for _ in range(rng.choice(DIVIDING))])
    size = rng.randint(1, 2000)
    table = [rng.uniform(lo, hi) for _ in range(size)] \
        if rng.random() < 0.5 else [rng.uniform(lo, hi)] * size
    return S.tabulated(table, rng.uniform(lo, hi))


def _steps(*seqs: S) -> Tuple[int, ...]:
    """STEPS, and around the longest table's end if it is past 2B."""
    onset = max([len(seq.values) for seq in seqs if seq.kind == "tabulated"],
                default=0)
    return STEPS + ((onset - 1, onset, onset + 1) if onset > 2 * B else ())


def test_ricker_varying_draws(repeats):
    rng = random.Random("fast-forward:ricker:varying")
    for _ in range(16):
        m = rng.randint(1, 3)
        seqs = (_varying(rng, -1.0, 2.0),) + tuple(
            _varying(rng, 0.2, 1.2) if rng.random() < 0.5
            else S.constant(rng.uniform(0.2, 1.2)) for _ in range(m))
        eq, _ = sc.make_generalized_ricker(sc.RickerFamilySpec(
            rng.uniform(1.2, 2.5), rng.randint(1, m), m, seqs[0], seqs[1:]))
        same_scalar(eq, [rng.uniform(0.0, 3.0) for _ in range(m)],
                    _steps(*seqs))
    assert True in repeats


def test_sigmoid_bh_varying_draws(repeats):
    """In x, and in y = x - b through ``translate_to_origin``."""
    rng = random.Random("fast-forward:sigmoid-bh:varying")
    for _ in range(12):
        seqs = (_varying(rng, 0.1, 3.0), _varying(rng, 0.0, 2.0),
                _varying(rng, 0.3, 2.5))
        spec = sc.SigmoidBHSpec(*seqs, rng.choice((2, 3)),
                                rng.uniform(0.0, 3.0), rng.randint(1, 3),
                                rng.randint(1, 3))
        eq = sc.make_sigmoid_bh(spec)
        init = [rng.uniform(0.0, 2.0 * spec.b + 2.0)
                for _ in range(eq.order)]
        same_scalar(eq, init, _steps(*seqs))
        same_scalar(sc.translate_to_origin(eq, spec.b),
                    [v - spec.b for v in init], _steps(*seqs))
    assert True in repeats


def test_adult_juvenile_varying_draws(repeats):
    """The orbit and the fold check."""
    rng = random.Random("fast-forward:adult-juvenile:varying")
    for _ in range(12):
        seqs = (_varying(rng, 0.1, 1.0), _varying(rng, 0.1, 2.0),
                _varying(rng, -1.0, 4.0))
        sysm = sc.make_adult_juvenile(*seqs, rng.uniform(1.1, 3.0))
        same_planar(sysm, (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)),
                    _steps(*seqs))
    assert True in repeats


def test_threed_varying_draws(repeats):
    """The 3D system and its order-3 fold."""
    rng = random.Random("fast-forward:threed:varying")
    for _ in range(12):
        seqs = (_varying(rng, 0.5, 1.5), _varying(rng, -0.3, 0.3))
        b, d = rng.uniform(0.0, 0.5), rng.choice((0.0, rng.uniform(0.0, 0.2)))
        c, q, r, s = (rng.uniform(0.5, 1.2) for _ in range(4))
        sysm, eq = sc.make_3d_example(*seqs, b, c, d, q, r, s)
        init = (rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0),
                rng.uniform(0.1, 2.0))
        same_threed(sysm, init, _steps(*seqs))
        same_scalar(eq, sysm.fold_initial(init), _steps(*seqs))
    assert True in repeats


def _ricker_with(a: S) -> EquationSpec:
    """The benchmark's m = 3 Ricker shape with the coefficient ``a``."""
    return sc.make_generalized_ricker(sc.RickerFamilySpec(
        1.8, 2, 3, a, (S.constant(0.4), S.constant(0.6),
                       S.constant(0.3))))[0]


@pytest.mark.parametrize("period", DIVIDING + (9, 11, 16))
def test_a_period_copies_only_when_it_divides_the_block(period, repeats):
    """Every period here makes an orbit that repeats; a period that does
    not divide B never runs in blocks, so no state is compared."""
    a = S.periodic([0.5 + (i % 3) * 0.5 + 0.01 * i for i in range(period)])
    same_scalar(_ricker_with(a), (0.5, 1.0, 1.5))
    same_planar(sc.make_adult_juvenile(
        S.periodic([0.6 + 0.3 * (i * 7 % period) / period
                    for i in range(period)]), 1.0, 2.0, 2.0), (1.0, 1.0))
    sysm, _ = sc.make_3d_example(
        S.periodic([1.0 - 0.2 * (i % 2) + 0.01 * i for i in range(period)]),
        0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    same_threed(sysm, (0.9, 1.1, 1.0))
    if B % period:
        assert repeats == []
    else:
        assert True in repeats


def test_a_wrapped_coefficient_runs_every_step(repeats):
    """A coefficient closure called through a functools.wraps wrapper
    (which copies the closure's __dict__) has no record, so the loop
    takes every step."""
    def wrapped(seq: S):
        closure = seq.resolve()
        return functools.wraps(closure)(lambda n: closure(n))
    a = wrapped(S.periodic((0.5, 1.0, 1.5)))
    eq = models._ricker_map(1.8, 2, a, (0.4, 0.6, 0.3), "wrapped")
    same_scalar(eq, (0.5, 1.0, 1.5))
    f, g, sigma = planar._adult_juvenile_maps(
        wrapped(S.periodic((0.8, 0.6, 0.9))), 1.0, 2.0, 2.0)
    same_planar(PlanarSystem(f, g, sigma=SigmaForm.custom(sigma)),
                (1.0, 1.0))
    assert repeats == []
    assert _ricker_with(S.periodic((0.5, 1.0, 1.5))).evaluator(7, (
        1.0, 1.0, 1.0)) == eq.evaluator(7, (1.0, 1.0, 1.0))


def _table(size: int, regular: float, other: float, blip: bool) -> S:
    """A table of ``size`` entries of ``regular`` and a fallback of
    ``other``; with ``blip``, the table is ``regular`` but its last
    entry, ``other``, and the fallback is ``regular`` again."""
    if blip:
        return S.tabulated([regular] * (size - 1) + [other], regular)
    return S.tabulated([regular] * size, other)


def _three(sp3_a: S, aj_r: S, threed_a: S):
    """sp3 with the coefficient a, adult-juvenile with r and the 3D
    system with a, each with its initial values."""
    sp3, _ = sc.make_generalized_ricker(sc.RickerFamilySpec(
        1.5, 3, 3, sp3_a, (S.constant(0.0), S.constant(0.7),
                           S.constant(0.9))))
    threed, _ = sc.make_3d_example(threed_a, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0,
                                   1.0)
    return ((sp3, (1.0, 1.0, 1.0)),
            (sc.make_adult_juvenile(0.8, 1.0, aj_r, 2.0), (1.0, 1.0)),
            (threed, (0.9, 1.1, 1.0)))


@pytest.mark.parametrize("blip", [False, True], ids=["switch", "blip"])
@pytest.mark.parametrize("size", [2 * B - 1, 2 * B, 2 * B + 1])
def test_an_orbit_repeating_before_its_table_ends_is_copied_after(
        size, blip, repeats):
    """Each orbit repeats bit for bit long before its table ends.  Then
    it takes another cycle, from its fallback, or (a blip) is knocked off
    its cycle by the table's last entry and comes back to it, bit for
    bit, within a block: a copy of the block before, or across, the
    table's end, or a fold check ended there, would be wrong.  With 2B + 1
    entries, the planar and 3D state at step 2B is a block end that the
    table's last entry is yet to act on."""
    tables = _three(_table(size, 1.5, 1.2, blip),
                    _table(size, 2.0, 1.5, blip),
                    _table(size, 1.0, 0.8, blip))
    (sp3, sp3_init), (aj, aj_init), (threed, threed_init) = tables
    around = (size - 1, size, size + 1, size + B + 1)
    same_scalar(sp3, sp3_init, STEPS + around)
    same_planar(aj, aj_init, STEPS + around)
    same_threed(threed, threed_init, STEPS + around)
    assert True in repeats
    # The table acts: each orbit differs from the one whose coefficient
    # stays at the table's value (a blip may hit an sp3 term whose x_{n-3}
    # is 0, or an adult-juvenile one whose x_n is, and change nothing).
    runs = (lambda eq, init: ref_iterate(eq, init, 5 * B).terms,
            lambda sysm, init: ref_iterate_system(sysm, init, 5 * B).points,
            lambda sysm, init: ref_threed_iterate(_Stepped(sysm), init,
                                                  5 * B))
    changed = [run(*table) != run(*constant) for run, table, constant in zip(
        runs, tables, _three(S.constant(1.5), S.constant(2.0),
                             S.constant(1.0)))]
    assert changed[2] and (blip or all(changed))

"""The one-pass fold check against the two-pass check it replaced.

``check_fold_consistency`` runs the direct orbit and the fold in
lockstep and evaluates each sigma_n once.  The functions below are the
earlier implementation, kept verbatim as the oracle: it iterated the
direct orbit, then the fold with ``iterate`` on ``fold_planar``, then
recovered every y_n again, then compared x and y in two passes.  On
every input both must return the same ``FoldCheck`` (compared by repr,
so every double is the same bits) or raise the same exception type with
the same message and index.

Four differences are intended.  A sigma_n whose FoldError names another
step than n, or an f or g that raises FoldError inside the fold: the
old check re-ran the fold up to the named step; the new one takes the
index as sigma's own step (the FoldError contract) and raises any other
error of f or g at once.  No model does either.  Where only a fold term
overflows or is not finite, the old check gave no reason for comparing
fewer terms (``stopped`` None); the new one names the term
(``assert_same_but_stopped``).  Where a fold term is complex (sigma
took a root of a value that rounded below 0, or g a power of a negative
recovered y), the old check raised TypeError; the new one stops there
and names the term (``assert_same_but_not_real``).  And events surface
in step order
(``step_order``): the old check ran the whole direct orbit first, so an
error or truncation of the direct orbit at a later step came before the
fold's stop or error at an earlier one, a system without a solvability
form raised the direct orbit's errors first, and f and g were evaluated
at the origin (for ``origin_fixed``) and on the fold's initial pair even
for zero steps.  The new check stops at the first event, raises FoldError
for a missing form before any step, and with zero steps evaluates
nothing.  These differ only between two errors, or an error and a stop,
on hand-built systems; on catalog models both checks agree.
"""

import math
from dataclasses import replace
from itertools import islice
from operator import itemgetter
from typing import Iterable, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subconverge as sc
from subconverge.dynamics import EquationSpec, Trajectory, evaluate_map
from subconverge.errors import (DomainError, FoldError, NonFiniteError)
from subconverge.models import relative_deviation
from subconverge.systems import (FoldCheck, Orbit, PlanarSystem, SigmaForm,
                                 check_fold_consistency, fold_initial,
                                 fold_planar)


# -- reference implementation (verbatim) ---------------------------------


def _overflow(n: int, exc: OverflowError) -> NonFiniteError:
    return NonFiniteError("overflow at step %d: %s" % (n, exc), index=n)


def _non_finite(n: int, value: float) -> NonFiniteError:
    return NonFiniteError("non-finite value %r at step %d" % (value, n),
                          index=n)


def _outside(n: int, history: Sequence[float]) -> DomainError:
    return DomainError("history %r outside domain at step %d"
                       % (tuple(history), n), index=n)


def check_finite_initial(initial: Sequence[float]) -> None:
    if not all(map(math.isfinite, initial)):
        raise NonFiniteError("initial values %r are not all finite"
                             % (tuple(initial),), index=0)


def ref_iterate(eq: EquationSpec, initial: Sequence[float],
                steps: int) -> Trajectory:
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
    evaluator = eq.evaluator
    isfinite = math.isfinite
    append = terms.append
    for n in range(m, end):
        try:
            x = evaluator(n, terms[:stop:-1])
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


def ref_iterate_system(sys: PlanarSystem, initial: Tuple[float, float],
                       steps: int) -> Orbit:
    x, y = float(initial[0]), float(initial[1])
    check_finite_initial((x, y))
    if not sys.in_domain(x, y):
        raise DomainError("initial point %r outside domain" % ((x, y),),
                          index=0)
    points: List[Tuple[float, float]] = [(x, y)]
    append, isfinite = points.append, math.isfinite
    f, g = sys.f, sys.g
    (x_lo, x_hi), (y_lo, y_hi) = sys.domain_x, sys.domain_y
    diagnostic = None
    for n in range(steps):
        xn, yn = f(n, x, y), g(n, x, y)
        if not (isfinite(xn) and isfinite(yn)):
            diagnostic = "non-finite state (%r, %r) at step %d" % (xn, yn,
                                                                  n + 1)
            break
        if not (x_lo <= xn <= x_hi and y_lo <= yn <= y_hi):
            raise DomainError("state %r outside domain at step %d"
                              % ((xn, yn), n + 1), index=n + 1)
        x, y = xn, yn
        append((x, y))
    return Orbit(tuple(points), diagnostic)


def ref_fold_initial(sys: PlanarSystem, x0: float, y0: float
                     ) -> Tuple[float, float]:
    return float(x0), sys.f(0, float(x0), float(y0))


def ref_fold_planar(sys: PlanarSystem) -> EquationSpec:
    if sys.sigma is None:
        raise FoldError("system %r has no solvability form" % sys.name)
    f, g, sigma = sys.f, sys.g, sys.sigma.solve

    def evaluator(n: int, u: Sequence[float]) -> float:
        y = sigma(n - 2, u[1], u[0])
        return f(n - 1, u[0], g(n - 2, u[1], y))

    lo, hi = sys.domain_x
    return EquationSpec(order=2, dominant_lag=2, evaluator=evaluator,
                        domain_low=(lo, lo), domain_high=(hi, hi),
                        name=sys.name + "-folded",
                        origin_fixed=sys.origin_residual() == 0.0)


def ref_check_fold_consistency(sys: PlanarSystem,
                               initial: Tuple[float, float],
                               steps: int, tol: float = 1e-9) -> FoldCheck:
    orbit = ref_iterate_system(sys, initial, steps)
    eq = ref_fold_planar(sys)
    x_init = ref_fold_initial(sys, *initial)
    stopped = orbit.diagnostic
    try:
        traj = ref_iterate(eq, x_init, max(0, len(orbit) - 2))
    except FoldError as exc:
        if exc.index is None:
            raise
        # sigma_j failed, so x_{j+2} has no fold: x_0 .. x_{j+1} remain.
        stopped = str(exc)
        traj = ref_iterate(eq, x_init, exc.index)
    xs, points, sigma = traj.terms, orbit.points, sys.sigma.solve
    n_cmp = min(len(points), len(xs))

    def recovered_ys():
        # y_n = sigma_n(x_n, x_{n+1}), up to the first step without one.
        nonlocal stopped, n_cmp
        for n in range(n_cmp - 1):
            try:
                yield sigma(n, xs[n], xs[n + 1])
            except FoldError as exc:
                if exc.index is None:
                    raise
                stopped, n_cmp = stopped or str(exc), n + 1
                return

    # The y pass runs first: a step without a preimage shortens n_cmp.
    max_y, div_y = ref_relative_deviation(map(itemgetter(1), points),
                                          recovered_ys(), tol)
    max_x, div_x = ref_relative_deviation(map(itemgetter(0), points),
                                          islice(xs, n_cmp), tol)
    return FoldCheck(max_x <= tol and max_y <= tol, max_x, max_y,
                     div_x if div_x is not None else div_y, n_cmp, stopped)


def ref_relative_deviation(expected: Iterable[float],
                           actual: Iterable[float],
                           tol: float) -> Tuple[float, Optional[int]]:
    worst, first = 0.0, None
    for n, (e, a) in enumerate(zip(expected, actual)):
        if a == e:          # the usual case: deviation 0
            continue
        d = abs(e - a) / max(abs(e), abs(a), 1.0)
        if d > tol and first is None:
            first = n
        if d > worst:
            worst = d
    return worst, first


# -- comparison ----------------------------------------------------------


def _outcome(check, sysm, init, steps, tol):
    try:
        return repr(tuple(check(sysm, init, steps, tol)))
    except Exception as exc:    # noqa: BLE001 -- any error must match
        return (type(exc), str(exc), getattr(exc, "index", None))


def assert_same(sysm, init, steps, tol=1e-9):
    """Both checks agree; returns the new check's outcome."""
    new = _outcome(check_fold_consistency, sysm, init, steps, tol)
    old = _outcome(ref_check_fold_consistency, sysm, init, steps, tol)
    assert new == old
    return new


def assert_same_but_stopped(sysm, init, steps, tol=1e-9):
    """Both checks agree, except that the new one says that the fold's
    last compared term was followed by one that is not finite, where the
    old one gave no reason."""
    new = check_fold_consistency(sysm, init, steps, tol)
    old = ref_check_fold_consistency(sysm, init, steps, tol)
    assert old.stopped is None
    assert new.stopped == "fold term x_%d is not finite" % new.steps
    assert repr(tuple(new._replace(stopped=old.stopped))) == \
        repr(tuple(old))
    return new


def assert_same_but_not_real(sysm, init, steps, tol=1e-9):
    """Both checks agree, except where the old one raised TypeError on a
    complex fold term: the new one stops there and names it."""
    new = _outcome(check_fold_consistency, sysm, init, steps, tol)
    old = _outcome(ref_check_fold_consistency, sysm, init, steps, tol)
    if old[:2] != (TypeError, "must be real number, not complex"):
        assert new == old
        return new
    check = check_fold_consistency(sysm, init, steps, tol)
    assert check.stopped == "fold term x_%d is not real" % check.steps
    return check


def step_order(sysm, init, steps, tol=1e-9):
    """The new check's outcome where step order makes it differ from the
    oracle's (which ran the direct orbit to its end first)."""
    new = _outcome(check_fold_consistency, sysm, init, steps, tol)
    assert new != _outcome(ref_check_fold_consistency, sysm, init, steps, tol)
    return new


def _raised(outcome):
    assert isinstance(outcome, tuple), outcome
    return outcome[0]


def _result(outcome):
    assert isinstance(outcome, str), outcome
    return outcome


# -- catalog models ------------------------------------------------------

S = sc.ParameterSequence
tols = st.sampled_from([1e-9, 1e-15, 0.0, 1e-3])
steps_st = st.integers(0, 150)


def coefficient(lo, hi):
    """A constant or a short periodic sequence with values in [lo, hi]."""
    value = st.floats(lo, hi)
    return st.one_of(value, st.lists(value, min_size=2, max_size=4)
                     .map(S.periodic))


@settings(max_examples=80, deadline=None)
@given(coefficient(0.05, 1.0), coefficient(0.2, 3.0), coefficient(-1.0, 3.0),
       st.floats(1.05, 3.5), st.floats(0.0, 4.0), st.floats(0.0, 4.0),
       steps_st, tols)
def test_adult_juvenile_matches(s, t, r, lam, x0, y0, steps, tol):
    sysm = sc.make_adult_juvenile(s, t, r, lam)
    assert_same(sysm, (x0, y0), steps, tol)


@settings(max_examples=80, deadline=None)
@given(st.booleans(), coefficient(0.5, 4.0), coefficient(0.5, 4.0),
       coefficient(0.1, 3.0), coefficient(0.1, 3.0),
       st.floats(1.1, 3.0), st.floats(1.1, 3.0),
       coefficient(0.05, 1.0), coefficient(0.0, 1.0),
       st.floats(0.5, 2.0), st.floats(0.5, 2.0),
       st.floats(0.0, 3.0), st.floats(0.0, 3.0), steps_st, tols)
def test_competition_matches(swapped, r1, r2, a1, a2, d1, d2, b1, b2, d3,
                             d4, x0, y0, steps, tol):
    sysm = sc.make_competition(sc.CompetitionParams.make(
        r1, r2, a1, a2, d1, d2, b1, b2, d3, d4), swapped=swapped)
    assert_same_but_not_real(sysm, (x0, y0), steps, tol)


@pytest.mark.parametrize("params, init, steps, expected", [
    # y_0 = 0: sigma's numerator rounds just below 0 before its root.
    (dict(b1=1.0, d3=2.0), (1.0, 0.0), 6, (False, 2, 6)),
    # The recovered y_0 cancels to -7.4e283; g raises it to 1.01.
    (dict(a1=1e300, d2=1.01, b2=1e-30, b1=2.0), (0.5, 1.0), 50,
     (False, 0, 2)),
], ids=["sigma-root", "g-power"])
def test_a_complex_fold_term_stops_the_check(params, init, steps, expected):
    sysm = sc.make_competition(sc.CompetitionParams.make(**{
        "r1": 1.0, "r2": 1.0, "a1": 1.0, "a2": 1.0, "d1": 2.0, "d2": 2.0,
        **params}))
    check = assert_same_but_not_real(sysm, init, steps)
    assert (check.passed, check.first_divergent, check.steps) == expected


EXTINCT = sc.CompetitionParams.make(3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 0.5, 0.5)


@pytest.mark.parametrize("steps", [0, 1, 2, 3, 16, 17, 18, 19, 200])
def test_extinct_orbit_matches(steps):
    out = assert_same(sc.make_competition(EXTINCT), (1.5, 1.5), steps)
    assert "sigma_17" in out or steps < 18


@pytest.mark.parametrize("steps", [0, 1, 2, 3])
@pytest.mark.parametrize("build, init", [
    (lambda: sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0), (1.0, 1.0)),
    (lambda: sc.make_competition(sc.CompetitionParams.make(
        3.0, 3.0, 1.0, 1.0, 2.0, 2.0, 0.3, 0.3)), (2.0, 1.0)),
    (lambda: sc.make_competition(sc.CompetitionParams.make(
        2.0, 2.0, 0.5, 0.5, 2.0, 2.0, b1=0.3, b2=0.3), swapped=True),
     (0.8, 0.6)),
])
def test_short_runs_match(build, init, steps):
    out = _result(assert_same(build(), init, steps))
    assert out.endswith(", %d, None)" % (steps + 1))


def test_negative_or_non_integer_steps_match():
    sysm = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    _result(assert_same(sysm, (1.0, 1.0), -3))
    for steps in (2.5, "5"):
        assert _raised(assert_same(sysm, (1.0, 1.0), steps)) is TypeError


def test_initial_errors_match():
    sysm = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    assert _raised(assert_same(sysm, (math.inf, 1.0), 10)) is NonFiniteError
    assert _raised(assert_same(sysm, (-1.0, 1.0), 10)) is DomainError


# -- hand-built systems --------------------------------------------------


ANY = (-math.inf, math.inf)


def linear(a=0.5, b=0.25, c=0.3, d=0.4, sigma=None, domain_x=ANY,
           domain_y=ANY):
    """x' = a x + b y, y' = c x + d y, with sigma solving for y; ``sigma``
    wraps the exact solution, as ``sigma(exact)``."""
    def exact(n, u, w):
        return (w - a * u) / b
    return PlanarSystem(
        f=lambda n, x, y: a * x + b * y, g=lambda n, x, y: c * x + d * y,
        sigma=SigmaForm.custom(sigma(exact) if sigma else exact),
        domain_x=domain_x, domain_y=domain_y)


def at_step(k, then):
    """sigma wrapper: the exact value, except ``then(exact, n, u, w)`` at
    step k."""
    def wrap(exact):
        def sigma(n, u, w):
            return then(exact, n, u, w) if n == k else exact(n, u, w)
        return sigma
    return wrap


def raising(exc):
    def then(exact, n, u, w):
        raise exc
    return then


def test_linear_system_passes():
    out = _result(assert_same(linear(), (1.0, 2.0), 50))
    assert out.startswith("(True,")


@pytest.mark.parametrize("init, steps", [
    ((1e300, 1.0), 5),      # x_1 = inf: the fold's x_1 is not finite
    ((1e300, 1.0), 0),
    ((1.0, 1e300), 5),      # y_1 = inf, x_1 finite: one x-term compared
    ((1e200, 1e200), 50),   # non-finite after a few steps
])
def test_direct_orbit_goes_non_finite(init, steps):
    sysm = linear(a=1e60, b=1.0, c=1e60, d=1e60)
    if init != (1e300, 1.0):
        assert_same(sysm, init, steps)
    elif steps:     # the oracle raised on the fold's initial pair (1e300, inf)
        assert step_order(sysm, init, steps) == "(True, 0.0, 0.0, None, 1, " \
            "'non-finite state (inf, inf) at step 1')"
    else:           # with no step nothing is evaluated: x_1 is never formed
        assert step_order(sysm, init, steps) == \
            "(True, 0.0, 0.0, None, 1, None)"


def test_non_finite_at_step_one():
    # The direct state x_1 = inf stops the check at step 1, before the
    # fold's initial pair (x_0, x_1), on which the oracle raised.
    out = step_order(linear(a=1e60, b=1.0), (1e300, 1.0), 5)
    assert out == "(True, 0.0, 0.0, None, 1, " \
        "'non-finite state (inf, 3e+299) at step 1')"
    out = _result(assert_same(linear(c=1e60, d=1e60), (1.0, 1e300), 5))
    assert out == "(True, 0.0, 0.0, None, 1, " \
        "'non-finite state (2.5e+299, inf) at step 1')"


@pytest.mark.parametrize("fold_stop", [2, 5])
def test_direct_domain_exit_beats_every_fold_event(fold_stop):
    # The direct state leaves (0, 10) at step 6.  It beats every event of
    # sigma_5, which comes later in step order; sigma_2's come first.
    stop = linear(a=0.5, b=1.0, c=0.0, d=1.5, domain_y=(0.0, 10.0),
                  sigma=at_step(fold_stop, raising(
                      FoldError("no preimage", index=fold_stop))))
    excs = (FoldError("no index"), ZeroDivisionError("sigma"),
            OverflowError("sigma"))
    systems = [replace(stop, sigma=linear(
        a=0.5, b=1.0, sigma=at_step(fold_stop, raising(exc))).sigma)
        for exc in excs]
    if fold_stop == 5:
        assert _raised(assert_same(stop, (1.0, 1.0), 20)) is DomainError
        for sysm in systems:
            assert _raised(assert_same(sysm, (1.0, 1.0), 20)) is DomainError
    else:
        assert step_order(stop, (1.0, 1.0), 20) == \
            "(True, 0.0, 0.0, None, 3, 'no preimage')"
        for exc, sysm in zip(excs, systems):
            assert step_order(sysm, (1.0, 1.0), 20) == \
                (type(exc), str(exc), None)
    # Without the domain exit the fold's own outcome shows.
    free = replace(stop, domain_y=(0.0, math.inf))
    out = _result(assert_same(free, (1.0, 1.0), 20))
    assert "no preimage" in out


def _far(exact, n, u, w):
    return exact(n, u, w) + 1e6


@pytest.mark.parametrize("k", [0, 1, 4])
@pytest.mark.parametrize("extra", [0, 1, 2, 10])
def test_fold_term_leaves_the_domain(k, extra):
    # sigma_k is far off, so the fold's x_{k+2} leaves (-100, 100); that
    # raises unless x_{k+2} is the fold's last term (steps = k + 2).
    sysm = linear(domain_x=(-100.0, 100.0), sigma=at_step(k, _far))
    out = assert_same(sysm, (1.0, 2.0), k + 2 + extra)
    if extra:
        assert _raised(out) is DomainError
    else:
        assert _result(out).startswith("(False,")


@pytest.mark.parametrize("k", [0, 3])
@pytest.mark.parametrize("steps_after", [0, 1, 5])
def test_fold_overflows(k, steps_after):
    # A far-off sigma_k sends the fold's g through exp: OverflowError
    # ends the fold's terms (the check compares those before it).
    def g(n, x, y):
        return 0.3 * x + math.exp(y) * 1e-3
    sysm = replace(linear(sigma=at_step(k, lambda e, n, u, w: 1e5)), g=g)
    assert_same_but_stopped(sysm, (1.0, 0.5), k + 2 + steps_after)
    # A fold term that is inf without an OverflowError ends it the same.
    sysm = replace(linear(sigma=at_step(k, lambda e, n, u, w: 1e308)),
                   f=lambda n, x, y: 0.5 * x + 10.0 * y)
    assert_same_but_stopped(sysm, (1.0, 0.5), k + 2 + steps_after)


@pytest.mark.parametrize("steps_after", [0, 1, 5])
def test_sigma_overflow_is_raised(steps_after):
    sysm = linear(sigma=at_step(2, raising(OverflowError("phi_inv"))))
    out = assert_same(sysm, (1.0, 0.5), 3 + steps_after)
    assert _raised(out) is OverflowError


@pytest.mark.parametrize("k", [0, 1, 5, 9])
@pytest.mark.parametrize("with_index", [True, False])
@pytest.mark.parametrize("steps", [6, 10, 30])
def test_sigma_fold_error(k, with_index, steps):
    # steps = k + 1 makes sigma_k the last recovered y.
    exc = FoldError("sigma_%d: no preimage" % k,
                    index=k if with_index else None)
    sysm = linear(sigma=at_step(k, raising(exc)))
    out = assert_same(sysm, (1.0, 2.0), steps)
    if k >= steps:
        _result(out)
    elif with_index:
        assert _result(out).endswith(", %d, 'sigma_%d: no preimage')"
                                     % (k + 1, k))
    else:
        assert _raised(out) is FoldError


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("blow_up_at", [0, 1, 2, 6])
def test_fold_stop_and_truncation_diagnostic(k, blow_up_at):
    # The direct orbit goes non-finite near where sigma_k fails: the
    # recorded reason is that of the event that comes first.
    def f(n, x, y):
        return 1e300 * 1e300 if n == k + blow_up_at else 0.5 * x + 0.25 * y
    sysm = replace(linear(sigma=at_step(k, raising(
        FoldError("no preimage", index=k)))), f=f)
    if blow_up_at != 1:
        assert_same(sysm, (1.0, 2.0), 20)
    else:   # sigma_k fails at step k, the direct state one step later
        assert step_order(sysm, (1.0, 2.0), 20) == \
            "(True, 0.0, 0.0, None, %d, 'no preimage')" % (k + 1)


@pytest.mark.parametrize("k", [0, 3, 7])
def test_deviation_in_y_only(k):
    # g ignores y, so a perturbed sigma_k shows only in the recovered y_k.
    sysm = replace(linear(sigma=at_step(k, lambda e, n, u, w:
                                        e(n, u, w) * (1 + 1e-6))),
                   g=lambda n, x, y: 0.3 * x + 0.1)
    out = _result(assert_same(sysm, (1.0, 2.0), 20))
    assert out.startswith("(False, 0.0,") and out.endswith(
        ", %d, 21, None)" % k)


@pytest.mark.parametrize("k", [0, 3, 7])
def test_deviation_in_x_only(k):
    # A tiny error in y_k (within tol) is amplified in x_{k+2}.
    sysm = linear(b=1e6, c=1e-7, d=0.5,
                  sigma=at_step(k, lambda e, n, u, w: e(n, u, w) + 1e-13))
    out = _result(assert_same(sysm, (1.0, 1e-7), 20))
    assert out.startswith("(False,") and ", %d, 21, None)" % (k + 2) in out


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf, 0.0])
def test_degenerate_tolerances_match(tol):
    sysm = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    assert_same(sysm, (1.0, 1.0), 30, tol)
    assert_same(sysm, (1.0, 1.0), 0, tol)


def test_errors_at_the_origin_come_after_the_direct_orbit():
    # The oracle's fold_planar evaluated f and g at the origin (for
    # origin_fixed) once the direct orbit had ended; the new check never
    # evaluates them there.
    def g(n, x, y):
        if x == 0.0 and y == 0.0:
            raise ZeroDivisionError("g at the origin")
        return 0.3 * x + 1.5 * y
    sysm = replace(linear(d=1.5), g=g)
    for steps, result in ((0, "(True, 0.0, 0.0, None, 1, None)"),
                          (1, "(True, 0.0, 0.0, None, 2, None)"),
                          (5, "(True, 0.0, 1.6917684184764294e-16, None, "
                              "6, None)")):
        assert step_order(sysm, (1.0, 2.0), steps) == result
    # y grows past 10 at step 3: the direct orbit's error.
    outside = replace(sysm, domain_y=(0.0, 10.0))
    assert _raised(assert_same(outside, (1.0, 2.0), 40)) is DomainError
    # The oracle took max() over no sampled steps.
    bare = replace(linear(), sample_steps=())
    assert step_order(bare, (1.0, 2.0), 5) == \
        "(True, 0.0, 0.0, None, 6, None)"
    # An error of sigma_2 is raised at step 2.
    failing = replace(sysm, sigma=linear(
        d=1.5, sigma=at_step(2, raising(ValueError("sigma")))).sigma)
    assert step_order(failing, (1.0, 2.0), 5) == (ValueError, "sigma", None)


def test_fold_starts_from_float_x1():
    # f_0 returns an int; the fold's x_1 is float(x_1), as in `iterate`.
    def sigma(exact):
        def solve(n, u, w):
            if w == 0:
                raise FoldError("sigma_%d: w=%r" % (n, w), index=n)
            return exact(n, u, w)
        return solve
    sysm = replace(linear(sigma=sigma),
                   f=lambda n, x, y: 0 if n == 0 else 0.5 * x + 0.25 * y)
    out = _result(assert_same(sysm, (1.0, 2.0), 5))
    assert out.endswith("'sigma_0: w=0.0')")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("steps", [3, 4, 10])
def test_sigma_non_finite_value(value, steps):
    # A NaN or infinite recovered y_2 makes its deviation NaN.  The oracle
    # passed it over; the check now fails there (first_divergent 2), and
    # its maxima, which pass NaN over, read 0.0 as the oracle's do.
    sysm = linear(sigma=at_step(2, lambda e, n, u, w: value))
    old = ref_check_fold_consistency(sysm, (1.0, 2.0), steps)
    new = check_fold_consistency(sysm, (1.0, 2.0), steps)
    assert (old.passed, old.first_divergent) == (True, None)
    assert (new.passed, new.max_dev_x, new.max_dev_y,
            new.first_divergent) == (False, 0.0, 0.0, 2)
    expected = old._replace(passed=False, first_divergent=2)
    if steps > 3:       # sigma_2's value makes the fold's x_4 non-finite
        assert (new.steps, new.stopped) == (
            4, "fold term x_4 is not finite")
        new = new._replace(stopped=None)
    assert repr(tuple(new)) == repr(tuple(expected))


def test_a_nan_deviation_diverges():
    # relative_deviation keeps its largest numeric deviation, 0.0, and
    # names the NaN one's index.
    assert relative_deviation([1.0, 2.0], [1.0, math.nan], 1e-9) == \
        (0.0, 1)
    assert relative_deviation([1.0, math.inf], [1.0, math.inf], 1e-9) == \
        (0.0, None)


def test_no_solvability_form_matches():
    sysm = replace(linear(), sigma=None)
    assert _raised(assert_same(sysm, (1.0, 2.0), 5)) is FoldError
    # FoldError comes before any step, where the oracle ran the direct
    # orbit first (x leaves (0, 0.9) at step 1).
    outside = replace(sysm, domain_x=(0.0, 0.9))
    assert step_order(outside, (0.85, 2.0), 5) == (
        FoldError, "system 'system' has no solvability form", None)


# -- sigma once per recovered y; the fold's terms ------------------------


def _recording(sysm):
    calls = []
    solve = sysm.sigma.solve

    def sigma(n, u, w):
        calls.append((n, u, w))
        return solve(n, u, w)
    return replace(sysm, sigma=SigmaForm.custom(sigma)), calls


@pytest.mark.parametrize("build, init", [
    (lambda: sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0), (1.0, 1.0)),
    (lambda: sc.make_adult_juvenile(S.periodic((0.5, 0.9)), 1.0, 2.0, 2.0),
     (0.4, 1.5)),
    (lambda: sc.make_competition(sc.CompetitionParams.make(
        3.0, 3.0, 1.0, 1.0, 2.0, 2.0, 0.3, 0.3)), (2.0, 1.0)),
    (lambda: sc.make_competition(sc.CompetitionParams.make(
        2.0, 2.0, 0.5, 0.5, 2.0, 2.0, b1=0.3, b2=0.3), swapped=True),
     (0.8, 0.6)),
])
@pytest.mark.parametrize("steps", [1, 2, 100])
def test_sigma_once_per_recovered_y(build, init, steps):
    sysm, calls = _recording(build())
    check = check_fold_consistency(sysm, init, steps)
    assert check.steps == steps + 1
    assert [n for n, _, _ in calls] == list(range(steps))
    # The check's fold terms (sigma's arguments) are fold_planar's.
    terms = sc.iterate(fold_planar(build()),
                       fold_initial(sysm, *init), steps - 1).terms
    assert [u for _, u, _ in calls] + [calls[-1][2]] == list(terms)


def test_old_check_called_sigma_twice_per_step():
    sysm, calls = _recording(sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0))
    ref_check_fold_consistency(sysm, (1.0, 1.0), 100)
    assert len(calls) == 199
    calls.clear()
    check_fold_consistency(sysm, (1.0, 1.0), 100)
    assert len(calls) == 100


def test_extinct_orbit_sigma_calls():
    sysm, calls = _recording(sc.make_competition(EXTINCT))
    check = check_fold_consistency(sysm, (1.5, 1.5), 30_000)
    assert check.steps == 18
    assert len(calls) == 18       # sigma_0 .. sigma_17, the last failing


def test_extinct_orbit_stops_with_the_fold():
    # The fold stops at sigma_17: neither orbit is iterated past step 17.
    sysm = sc.make_competition(EXTINCT)
    steps = []

    def recording(h):
        def call(n, x, y):
            steps.append(n)
            return h(n, x, y)
        return call
    sysm = replace(sysm, f=recording(sysm.f), g=recording(sysm.g))
    check = check_fold_consistency(sysm, (1.5, 1.5), 30_000)
    assert check.stopped.startswith("sigma_17")
    assert max(steps) == 17

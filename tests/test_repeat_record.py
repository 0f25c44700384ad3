"""The repeat an orbit records, and the reports that stop scanning at it.

``iterate`` and ``iterate_system`` copy an orbit's last p terms once its
state at a block end repeats the one p steps back, and record the repeat
as (onset, period): every stored term from onset on has the bits of the
term one period later, the onset is the least such index, and the period
is the least divisor of the block with which the last block repeats.
Nothing is recorded when the loop ran every step: at most one block of
steps, a called map or wrapper, a coefficient period that does not divide
the block, or an orbit that stopped early.

``analyze_residues`` stops its window-entry scans where every term they
would test repeats one they tested, and takes ``full_convergence_from``
from the class entries.  So a report built from an orbit must equal, in
every field, the one built from the same terms with ``repeat=None``,
and its ``full_convergence_from`` must equal the scan over every term
that ``build_report`` took it from before (``ref_full_convergence``).
"""

import functools
import random
from array import array
from dataclasses import replace
from fractions import Fraction

import pytest

import subconverge as sc
from subconverge.analysis import analyze_residues
from subconverge.dynamics import _BLOCK, _repeat
from subconverge.planar import CompetitionParams
from subconverge.reports import ThresholdWindow
from test_criteria import ref_full_convergence

S = sc.ParameterSequence
STEPS = 30_000      # the benchmark's long orbits


def _bits(item) -> bytes:
    return array("d", item if isinstance(item, tuple) else (item,)).tobytes()


def _walk_back(bits, period):
    """The least onset by brute force: from the end, step back while the
    item has the bits of the item one period later."""
    onset = len(bits) - period
    while onset and bits[onset - 1] == bits[onset - 1 + period]:
        onset -= 1
    return onset


def assert_repeat(items, repeat):
    """Every stored item from onset on has the bits of the item one
    period later, and the onset is the least such index: it is 0, or the
    item before it differs in bits from the one a period later, as the
    walk back finds.  No smaller divisor of the block is a period of the
    last block."""
    onset, period = repeat
    bits = list(map(_bits, items))
    assert 0 <= onset < len(bits) - period
    assert _BLOCK % period == 0
    assert bits[onset + period:] == bits[onset:-period]
    assert onset == 0 or bits[onset - 1] != bits[onset - 1 + period]
    assert onset == _walk_back(bits, period)
    block = bits[-_BLOCK:]
    for p in range(1, period):
        assert _BLOCK % p or block[p:] != block[:-p], p


# -- the orbit-long families, and periodic coefficients ----------------------


def _sp3(k):
    return (*sc.make_sp3(k), (1.0, 1.0, 1.0))


def _ricker_periodic_tabulated():
    spec = sc.RickerFamilySpec(
        1.8, 2, 3, S.periodic((0.5, 1.0, 1.5)),
        (S.constant(0.4), S.tabulated((0.5, 0.7, 0.6, 0.8), 0.6),
         S.constant(0.3)))
    return (*sc.make_generalized_ricker(spec), (0.5, 1.0, 1.5))


def _sigmoid_bh(a, c, q, p, b, k, l, init):
    spec = sc.SigmoidBHSpec(S.constant(a), S.constant(c), S.constant(q), p,
                            b, k, l)
    eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), b)
    return eq, sc.sigmoid_bh_bound(spec), [v - b for v in init]


def _threed(a, p, init):
    sysm, eq = sc.make_3d_example(a, p, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    return sysm, eq, init


SCALAR = {
    "sp3-k1": lambda: _sp3(1),
    "sp3-k2": lambda: _sp3(2),
    "sp3-k3": lambda: _sp3(3),
    "ricker-m3-periodic-tabulated": _ricker_periodic_tabulated,
    "sigmoid-bh-c1": lambda: _sigmoid_bh(2.0, 1.0, 2.0, 3, 1.0, 1, 2,
                                         (1.1, 1.1)),
    "sigmoid-bh-c0": lambda: _sigmoid_bh(0.7, 0.0, 1.0, 2, 2.6, 1, 1,
                                         (3.2,)),
}

PLANAR = {
    "adult-juvenile": lambda: (sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0),
                               (1.0, 1.0)),
    "adult-juvenile-periodic": lambda: (
        sc.make_adult_juvenile(S.periodic((0.8, 0.6, 0.9)), 1.0, 2.0, 2.0),
        (1.0, 1.0)),
    "competition-coexist": lambda: (sc.make_competition(
        CompetitionParams.make(3.0, 3.0, 1.0, 1.0, 2.0, 2.0, 0.3, 0.3)),
        (2.0, 1.0)),
    "competition-extinct": lambda: (sc.make_competition(
        CompetitionParams.make(3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 0.5, 0.5)),
        (1.5, 1.5)),
}

THREED = {
    "threed": lambda: _threed(1.0, 0.0, (0.9, 1.1, 1.0)),
    "threed-periodic": lambda: _threed(S.periodic((1.0, 0.8)),
                                       S.periodic((0.1, -0.2)),
                                       (0.9, 1.1, 1.0)),
}


# The least onsets of the benchmark's orbits that repeat.
ONSETS = {"sp3-k1": 29, "sp3-k2": 117, "sp3-k3": 252,
          "ricker-m3-periodic-tabulated": 103, "adult-juvenile": 308,
          "competition-coexist": 72, "threed": 12}


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_scalar_orbits_record_their_repeat(name):
    eq, _, init = SCALAR[name]()
    traj = sc.iterate(eq, init, STEPS)
    assert traj.repeat is not None
    assert_repeat(traj.terms, traj.repeat)
    assert traj.repeat[0] == ONSETS.get(name, traj.repeat[0])


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_planar_orbits_record_their_repeat(name):
    sysm, init = PLANAR[name]()
    orbit = sc.iterate_system(sysm, init, STEPS)
    assert orbit.repeat is not None
    assert_repeat(orbit.points, orbit.repeat)
    assert orbit.repeat[0] == ONSETS.get(name, orbit.repeat[0])


@pytest.mark.parametrize("name", sorted(THREED))
def test_threed_orbits_and_their_folds_record_their_repeat(name):
    sysm, eq, init = THREED[name]()
    orbit = sc.iterate_system(sysm, init, STEPS)
    assert_repeat(orbit.points, orbit.repeat)
    assert orbit.repeat[0] == ONSETS.get(name, orbit.repeat[0])
    traj = sc.iterate(eq, sysm.fold_initial(init, orbit), STEPS)
    assert_repeat(traj.terms, traj.repeat)


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_the_columns_are_the_points_components(name):
    """``xs`` and ``ys``, copied from one period past the onset, hold the
    bits of each point's components, as without the record; each is a
    tuple built once."""
    sysm, init = PLANAR[name]()
    for steps in (STEPS, 2 * _BLOCK + 1, 100):
        orbit = sc.iterate_system(sysm, init, steps)
        plain = replace(orbit, repeat=None)
        for i, column in enumerate(("xs", "ys")):
            got = getattr(orbit, column)
            assert type(got) is tuple and getattr(orbit, column) is got
            assert list(map(_bits, got)) == [_bits(p[i]) for p in
                                              orbit.points]
            assert got == getattr(plain, column)


def test_a_signed_zero_is_no_part_of_the_repeat():
    """-0.0 == 0.0, so ``==`` alone would put the onset at 0; the bits put
    it at 1.  The period is the least divisor of the matched one."""
    seq = [-0.0, 1.0, 0.0] + [1.0, 0.0] * 5
    assert _repeat(seq, 2, 4) == (1, 2)
    assert _repeat(seq[1:], 1, 2) == (0, 2)


def test_the_periods_are_the_orbits_own():
    """sp3 k = 3 settles on a cycle of 6, the periodic Ricker orbit on
    one of 12 (as the benchmark's configuration states)."""
    for build, period in ((lambda: _sp3(3), 6),
                          (_ricker_periodic_tabulated, 12)):
        eq, _, init = build()
        assert sc.iterate(eq, init, STEPS).repeat[1] == period


# -- no record where the loop ran every step ---------------------------------


def test_no_repeat_within_one_block():
    eq, _, init = _sp3(3)
    assert sc.iterate(eq, init, _BLOCK).repeat is None
    sysm, init = PLANAR["adult-juvenile"]()
    assert sc.iterate_system(sysm, init, _BLOCK).repeat is None


def test_no_repeat_through_a_wrapper():
    eq, _, init = _sp3(3)
    evaluator = eq.evaluator
    wrapped = replace(eq, evaluator=functools.wraps(evaluator)(
        lambda n, u: evaluator(n, u)))
    traj = sc.iterate(wrapped, init, STEPS)
    assert traj.repeat is None
    assert traj.terms == sc.iterate(eq, init, STEPS).terms


def test_no_repeat_for_a_truncated_orbit():
    """The converging 3D orbit ends at a non-finite state at step 43."""
    sysm, _ = sc.make_3d_example(-1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.5, 1.0)
    orbit = sc.iterate_system(sysm, (0.5, 0.0, 0.5), STEPS)
    assert orbit.diagnostic is not None and orbit.repeat is None


def test_no_repeat_for_a_period_that_does_not_divide_the_block():
    spec = sc.RickerFamilySpec(1.8, 1, 1, S.periodic([0.5] * 8 + [0.6]),
                               (S.constant(0.4),))
    eq, _ = sc.make_generalized_ricker(spec)
    assert sc.iterate(eq, (0.5,), STEPS).repeat is None


# -- reports with and without the record -------------------------------------


def _report_fields(report):
    """Every field of a report, its tails (which ``==`` skips) included."""
    return report, report.subsequence_tails, report.to_json()


def same_report(eq, bound, traj):
    """The report with the record equals the one without, and its full
    convergence index is the oracle's; returns the report."""
    got = sc.build_report(eq, bound, traj)
    plain = sc.build_report(eq, bound, replace(traj, repeat=None))
    assert _report_fields(got) == _report_fields(plain), (eq.name, traj.repeat)
    assert got.full_convergence_from == ref_full_convergence(eq, bound, traj)
    return got


def same_planar_report(predict, sysm, orbit, alpha):
    got = predict(sysm, orbit, alpha)
    plain = predict(sysm, replace(orbit, repeat=None), alpha)
    assert _report_fields(got) == _report_fields(plain), (sysm.name,
                                                          orbit.repeat)
    # The tail's (stride 1) tail converges from its crossing; the
    # alternating report keeps one parity, so never all classes.
    assert got.full_convergence_from == (
        got.crossing_index if predict is sc.predict_tail_convergence
        else None)
    return got


def _shrunk(bound):
    """The bound at half its value on the same window: an orbit that
    enters it may break a link of its chain."""
    g = bound.g
    return replace(bound, g=lambda u: 0.5 * g(u))


def _coefficient(rng, lo, hi):
    kind = rng.choice(("constant", "periodic", "tabulated"))
    values = [rng.uniform(lo, hi) for _ in range(rng.randint(2, 5))]
    if kind == "tabulated":
        return S.tabulated(values * rng.randint(1, 8), rng.uniform(lo, hi))
    return S.constant(values[0]) if kind == "constant" else S.periodic(values)


def _reports(eq, bound, init, rng, counts):
    traj = sc.iterate(eq, init, rng.choice((2 * _BLOCK + 1, 3000, 5000)))
    counts["repeat"] += traj.repeat is not None
    counts["violated"] += same_report(eq, _shrunk(bound),
                                      traj).any_violated
    return same_report(eq, bound, traj)


@pytest.fixture
def counts():
    """How many draws repeated, and how many shrunk reports broke."""
    seen = {"repeat": 0, "violated": 0}
    yield seen
    assert seen["repeat"] and seen["violated"]


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_the_long_orbits_report_the_same(name):
    eq, bound, init = SCALAR[name]()
    traj = sc.iterate(eq, init, STEPS)
    same_report(eq, bound, traj)
    same_report(eq, _shrunk(bound), traj)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_sp3_draws_report_the_same(k, counts):
    rng = random.Random("repeat-record:sp3:%d" % k)
    eq, bound = sc.make_sp3(k)
    for _ in range(12):
        _reports(eq, bound, [rng.uniform(0.0, 3.0) for _ in range(3)], rng,
                 counts)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_ricker_draws_report_the_same(m, counts):
    """Constant, periodic and tabulated coefficients."""
    rng = random.Random("repeat-record:ricker:%d" % m)
    for _ in range(12):
        k = rng.randint(1, m)
        spec = sc.RickerFamilySpec(
            rng.uniform(1.2, 2.5), k, m, _coefficient(rng, 0.0, 2.0),
            tuple(_coefficient(rng, 0.1, 1.5) for _ in range(m)))
        eq, bound = sc.make_generalized_ricker(spec)
        _reports(eq, bound, [rng.uniform(0.05, 3.0) for _ in range(m)],
                 rng, counts)


@pytest.mark.parametrize("p", [2, 3, Fraction(4, 3)])
def test_sigmoid_bh_draws_report_the_same(p, counts):
    rng = random.Random("repeat-record:sigmoid-bh:%s" % p)
    for i in range(12):
        b = rng.uniform(0.1, 3.0)
        spec = sc.SigmoidBHSpec(
            _coefficient(rng, 0.2, 3.0),
            S.constant(0.0) if i % 2 else _coefficient(rng, 0.05, 2.0),
            _coefficient(rng, 0.5, 3.0), p, b, rng.randint(1, 3),
            rng.randint(1, 3))
        bound = sc.sigmoid_bh_bound(spec)
        eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), b)
        _reports(eq, bound, [rng.uniform(0.0, 3.0)
                             for _ in range(spec.order)], rng, counts)


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_the_long_planar_orbits_report_the_same(name):
    sysm, init = PLANAR[name]()
    orbit = sc.iterate_system(sysm, init, STEPS)
    checked = 0
    for predict, check in (
            (sc.predict_tail_convergence, sc.check_tail_envelope),
            (sc.predict_alternating_convergence,
             sc.check_alternating_envelopes)):
        verdict = check(sysm)
        if verdict.applicable:
            checked += 1
            same_planar_report(predict, sysm, orbit, verdict.alpha)
    assert checked


def test_planar_draws_report_the_same():
    """Both envelope cycles, on seeded adult-juvenile and competition
    systems with constant and periodic coefficients."""
    rng = random.Random("repeat-record:planar")
    repeated = checked = 0
    for i in range(24):
        if i % 2:
            sysm = sc.make_adult_juvenile(
                _coefficient(rng, 0.2, 1.0), rng.uniform(0.5, 2.0),
                rng.uniform(0.0, 3.0), rng.uniform(1.1, 3.0))
        else:
            sysm = sc.make_competition(CompetitionParams.make(
                _coefficient(rng, 1.1, 4.0), rng.uniform(1.1, 4.0),
                rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0),
                rng.uniform(1.1, 3.0), rng.uniform(1.1, 3.0),
                rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)),
                swapped=i % 4 == 0)
        orbit = sc.iterate_system(sysm, (rng.uniform(0.1, 3.0),
                                         rng.uniform(0.1, 3.0)), 3000)
        repeated += orbit.repeat is not None
        for predict, check in (
                (sc.predict_tail_convergence, sc.check_tail_envelope),
                (sc.predict_alternating_convergence,
                 sc.check_alternating_envelopes)):
            verdict = check(sysm)
            if verdict.applicable:
                checked += 1
                same_planar_report(predict, sysm, orbit, verdict.alpha)
    assert repeated and checked


# -- the scans themselves, on made-up repeating terms ------------------------


def test_the_scan_caps_on_repeating_terms():
    """Terms that repeat with a given period from a given onset, drawn
    from values inside the window, outside it and at +-0: every report
    (every stride, floor and first_only) equals the one without the
    record, and the full convergence index the run scan's."""
    rng = random.Random("repeat-record:scan")
    values = (0.5, -0.25, 0.0, -0.0, 2.0, -3.0)
    window = ThresholdWindow(-1.0, 1.0)
    for _ in range(400):
        stride, floor = rng.randint(1, 4), rng.randint(0, 3)
        onset = rng.randint(0, 40)
        period = rng.choice([p for p in range(1, 25) if _BLOCK % p == 0])
        weights = [rng.random() for _ in values]
        draw = functools.partial(rng.choices, values, weights)
        cycle = draw(k=period)
        terms = tuple(draw(k=onset) + cycle * rng.randint(2, 30)
                      + cycle[:rng.randrange(period)])
        run = next((n for n in range(floor, len(terms) - stride + 1)
                    if all(-1.0 < x < 1.0 or x == 0.0
                           for x in terms[n:n + stride])), None)
        for first_only in (False, True):
            got, plain = (analyze_residues(
                terms, stride, None, window, floor, (0.0,),
                first_only=first_only, repeat=repeat)
                for repeat in ((onset, period), None))
            assert _report_fields(got) == _report_fields(plain)
            # first_only keeps one class: all classes are in at stride 1.
            assert got.full_convergence_from == (
                (got.crossing_index if stride == 1 else None)
                if first_only else run)

"""A report of repeating terms reads one class cycle of each tail.

Given the terms' repeat (onset, period), ``analyze_residues`` reads each
class by index: its last eight terms, the width of its tail over the
tail's first class cycle, the mean as the exact sum of whole cycles and
a remainder rounded once, and the monotone check up to one class cycle
past the onset.  The brute-force oracle is the same call with
``repeat=None``, which slices every class and sums its whole tail with
``math.fsum``: the two must agree bit for bit (``float.hex`` of every
tail mean and width, the tails, and the JSON bytes), and raise the same
OverflowError where ``fsum`` does.
"""

import math
import random
from dataclasses import replace

import pytest

import subconverge as sc
from subconverge.analysis import analyze_residues
from subconverge.reports import ThresholdWindow
from test_repeat_record import PLANAR, SCALAR, STEPS, _coefficient

S = sc.ParameterSequence
WINDOW = ThresholdWindow(-1.0, 1.0)


def fields(report):
    """What the oracle compares: every field, the tails, the JSON bytes,
    and the bits of each tail mean and width."""
    bits = [(c.residue_class, c.tail_mean.hex(), c.tail_width.hex())
            for c in report.limits]
    return report, report.subsequence_tails, report.to_json(), bits


def same(terms, stride, repeat, **kw):
    """analyze_residues with the record equals the oracle without it;
    returns the report."""
    got, plain = (analyze_residues(terms, stride, None, WINDOW, **kw,
                                   repeat=r) for r in (repeat, None))
    assert fields(got) == fields(plain), (stride, repeat, kw)
    # Each class's tail is the last eight terms of its slice, from its
    # entry if it entered.
    starts = {p.residue_class: p.start_index for p in got.predictions}
    for residue, tail in got.subsequence_tails.items():
        assert tail == list(terms[starts.get(residue, residue)::stride][-8:])
    return got


def repeating(rng, values, onset, period, length):
    """``length`` terms drawn from ``values`` whose terms from ``onset`` on
    repeat with ``period``."""
    cycle = rng.choices(values, k=period)
    head = rng.choices(values, k=onset)
    rest = length - onset
    return tuple(head + cycle * (rest // period) + cycle[:rest % period])


POOLS = {
    "mixed": (0.5, -0.25, 0.75, 1e-3, 2.0, -3.0, 0.1, 1.0 / 3.0),
    "signed zeros": (0.0, -0.0, 0.5, -0.5),
    "negative zeros": (-0.0,),
    "subnormals": (5e-324, -5e-324, 2.5e-310, 1e-320, -0.0, 0.0),
    "large": (1e300, -7e299, 3.3e299, 1.7e300),
}


@pytest.mark.parametrize("pool", sorted(POOLS))
def test_made_up_repeating_terms_report_the_same(pool):
    """Strides 1 to 4, periods up to 840, tails shorter than a class
    cycle and lengths that are no multiple of one, candidates at zero
    and at two of the terms, every floor, with and without first_only."""
    rng = random.Random("one-cycle:%s" % pool)
    values = POOLS[pool]
    periods = [p for p in range(1, 841) if 840 % p == 0]
    for _ in range(150):
        stride, floor = rng.randint(1, 4), rng.randint(0, 3)
        onset, period = rng.randint(0, 60), rng.choice(periods)
        length = onset + rng.randint(1, 3000)
        terms = repeating(rng, values, onset, period, length)
        candidates = (0.0,) + tuple(rng.choices(values, k=2))
        for first_only in (False, True):
            same(terms, stride, (onset, period), floor=floor,
                 candidates=candidates, first_only=first_only)


def test_a_tail_shorter_than_one_class_cycle():
    """Period 840 at stride 1: a tail of 250 terms holds no whole cycle;
    at stride 4 a class cycle is 210 terms."""
    rng = random.Random("one-cycle:short")
    for stride, length in ((1, 1000), (4, 1000), (3, 3001), (2, 845)):
        terms = repeating(rng, POOLS["mixed"], 5, 840, length)
        same(terms, stride, (5, 840), candidates=(0.0,))


def test_tails_that_start_before_the_onset():
    """An onset late in the orbit: the tail is read whole."""
    rng = random.Random("one-cycle:late")
    for stride in (1, 2, 3, 4):
        terms = repeating(rng, POOLS["mixed"], 900, 6, 1000)
        same(terms, stride, (900, 6), candidates=(0.0, 0.5))


def test_every_zero_sign_of_the_mean():
    """A tail of -0.0 only, of +0.0 only, of both, and of terms whose
    exact sum is zero: the mean's sign is fsum's."""
    for cycle in ((-0.0,), (0.0,), (-0.0, 0.0), (0.0, -0.0, -0.0),
                  (0.5, -0.5), (1e-300, -1e-300, -0.0), (-0.0, 0.25, -0.25)):
        terms = tuple([0.75] * 3 + list(cycle) * 400)
        for stride in (1, 2, 3, 4):
            report = same(terms, stride, (3, len(cycle)), candidates=(0.0,))
            assert report.limits


def test_tails_near_overflow_raise_as_fsum_does():
    """Terms near 1e300 whose tail, or a partial sum of it, passes the
    largest double: fsum raises OverflowError, with the record as without
    it; a tail that stays below it is summed exactly."""
    for cycle in ((1e306,), (-1.5e307,), (8.9e307,),
                  # The partial sums overflow, though the exact sum is 0.
                  (1e308, 1e308, -1e308, -1e308)):
        terms = cycle * 2000    # the tail starts at a cycle's start
        for repeat in ((0, len(cycle)), None):
            with pytest.raises(OverflowError):
                analyze_residues(terms, 1, None, WINDOW, candidates=(0.0,),
                                 repeat=repeat)
    # One term past 1e300 in each cycle, and a sum that stays finite.
    terms = (1.0,) * 4 + (1.5e304, -1.4e304, 2.0) * 700
    for stride in (1, 2, 3, 4):
        same(terms, stride, (4, 3), candidates=(0.0,))
    terms = (1.0,) * 4 + (1e300, 3.0) * 800
    same(terms, 1, (4, 2), candidates=(0.0,))


def test_classes_that_enter_check_monotone_to_one_cycle_past_the_onset():
    """Classes that decrease to an exact 0, or down to a cycle that does
    not decrease: the monotone status is the full scan's."""
    window = ThresholdWindow(0.0, 1.0)
    for cycle in ((0.0,), (0.125,), (0.25, 0.125), (0.125, 0.25),
                  (-0.0, 0.5)):
        head = [0.9 / 2 ** i for i in range(20)]
        terms = tuple(head + list(cycle) * 500)
        for stride in (1, 2, 3, 4):
            got, plain = (analyze_residues(terms, stride, None, window,
                                           candidates=(0.0,), repeat=r)
                          for r in ((20, len(cycle)), None))
            assert fields(got) == fields(plain), (cycle, stride)
            assert [p.note for p in got.predictions]


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_the_long_orbits_report_the_same(name):
    eq, bound, init = SCALAR[name]()
    traj = sc.iterate(eq, init, STEPS)
    assert traj.repeat is not None
    assert fields(sc.build_report(eq, bound, traj)) == fields(
        sc.build_report(eq, bound, replace(traj, repeat=None)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_periodic_coefficients_report_the_same(k):
    """Ricker orbits of dominant lag k (the stride) with constant, periodic
    and tabulated coefficients, at lengths that end anywhere in a cycle."""
    rng = random.Random("one-cycle:ricker:%d" % k)
    repeated = 0
    for _ in range(10):
        m = rng.randint(k, 4)
        spec = sc.RickerFamilySpec(
            rng.uniform(1.2, 2.5), k, m, _coefficient(rng, 0.0, 2.0),
            tuple(_coefficient(rng, 0.1, 1.5) for _ in range(m)))
        eq, bound = sc.make_generalized_ricker(spec)
        traj = sc.iterate(eq, [rng.uniform(0.05, 3.0) for _ in range(m)],
                          rng.randint(900, 6000))
        repeated += traj.repeat is not None
        assert fields(sc.build_report(eq, bound, traj)) == fields(
            sc.build_report(eq, bound, replace(traj, repeat=None)))
    assert repeated


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_the_planar_first_only_reports_read_the_same(name):
    """The envelope predictions (``first_only``; stride 1 and 2) read the
    tails of the orbit's x-column by index."""
    sysm, init = PLANAR[name]()
    for steps in (STEPS, 1001):
        orbit = sc.iterate_system(sysm, init, steps)
        for predict, check in (
                (sc.predict_tail_convergence, sc.check_tail_envelope),
                (sc.predict_alternating_convergence,
                 sc.check_alternating_envelopes)):
            verdict = check(sysm)
            if verdict.applicable:
                assert fields(predict(sysm, orbit, verdict.alpha)) == \
                    fields(predict(sysm, replace(orbit, repeat=None),
                                   verdict.alpha))


def test_the_report_does_not_slice_a_class():
    """With the record, no class of a 30,000-term orbit is copied: the
    work is one cycle, not the tail (a class slice is 7,500 terms)."""
    eq, bound, init = SCALAR["sp3-k3"]()
    traj = sc.iterate(eq, init, STEPS)

    class Terms(tuple):
        longest = 0

        def __getitem__(self, key):
            got = tuple.__getitem__(self, key)
            if isinstance(key, slice):
                Terms.longest = max(Terms.longest, len(got))
            return got
    terms = Terms(traj.terms)
    analyze_residues(terms, 3, None, bound.validity, 0, (0.0,),
                     repeat=traj.repeat)
    assert 0 < Terms.longest <= traj.repeat[0] // 3 + 2 * math.lcm(
        traj.repeat[1], 3)

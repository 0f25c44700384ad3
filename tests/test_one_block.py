"""How many steps the blocked loops compute before they copy.

``iterate`` and ``iterate_system`` hand their loop to
``dynamics._in_blocks``, which runs it to the checkpoints 105, 210, 420
and 840 steps past its start, then every ``_BLOCK`` (840) steps, and at
each compares the state with the state p steps back for each period p it
may use.  Each of the benchmark's long orbits repeats early in its first
block, so its loop must compute exactly up to the first checkpoint that
shows the repeat (c - period >= onset) and copy the rest; the fold check
of each of its repeating planar orbits must end at that checkpoint too.
Timing cannot see one checkpoint more; these spies can.

A coefficient period that does not divide the block runs every step in
one call, and a table longer than two blocks holds the copy back until
the state compared starts past the table's end.  Every orbit here also
has the bits of the loops that took every step, at lengths around one
and two blocks and at the benchmark's 30,000.
"""

import math

import pytest

import subconverge as sc
from subconverge import dynamics, systems
from subconverge.sequences import ParameterSequence as S
from test_cycle_fast_forward import (_three, _table, same_planar,
                                     same_scalar, same_threed)
from test_repeat_record import PLANAR, SCALAR, STEPS, THREED

B = dynamics._BLOCK
LENGTHS = (B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, STEPS)
CHECKPOINTS = (105, 210, 420, 840) + tuple(range(2 * B, STEPS, B))
# The checkpoint at which each long orbit's loop (and, for the planar
# ones, its fold check) ends: the first c with c - period >= onset.
ENDS = {"sp3-k1": 105, "sp3-k2": 210, "sp3-k3": 420,
        "ricker-m3-periodic-tabulated": 210, "sigmoid-bh-c1": 105,
        "sigmoid-bh-c0": 105, "adult-juvenile": 420,
        "competition-coexist": 105, "competition-extinct": 105,
        "threed": 105}


def test_the_schedule():
    assert dynamics._SCHEDULE == CHECKPOINTS[:4] == (B // 8, B // 4,
                                                      B // 2, B)


def up_to(checkpoint):
    """The steps each call of the loop computes, up to ``checkpoint``."""
    marks = [0] + [c for c in CHECKPOINTS if c <= checkpoint]
    assert marks[-1] == checkpoint
    return [b - a for a, b in zip(marks, marks[1:])]


def showing(repeat, first=0):
    """The first checkpoint at which the state compared one period back
    starts at or past the onset and ``first``."""
    onset, period = repeat
    return next(c for c in CHECKPOINTS if c - period >= max(onset, first))


@pytest.fixture
def loops(monkeypatch):
    """For each run of ``_in_blocks``: the number of items each call of
    its loop appended, and the repeat it recorded."""
    runs = []
    in_blocks = dynamics._in_blocks

    def _in_blocks(loop, seq, *args):
        calls = []

        def counted(seq, stop, *rest):
            before = len(seq)
            stopped = loop(seq, stop, *rest)
            calls.append(len(seq) - before)
            return stopped
        items, stopped, repeat = in_blocks(counted, seq, *args)
        runs.append((calls, repeat))
        return items, stopped, repeat
    monkeypatch.setattr(dynamics, "_in_blocks", _in_blocks)
    return runs


@pytest.fixture
def folds(monkeypatch):
    """For each fold check: the steps its loop ran to, one per stop it
    drew (the last is where it ended)."""
    runs = []
    fold_loop = systems._fold_loop

    def _fold_loop(*shapes):
        loop = fold_loop(*shapes)

        def counted(x, y, steps, stops, *rest):
            drawn = []
            runs.append(drawn)
            return loop(x, y, steps, (drawn.append(stop[0]) or stop
                                      for stop in stops), *rest)
        return counted
    monkeypatch.setattr(systems, "_fold_loop", _fold_loop)
    return runs


def ends_at(runs, name):
    """The last run computed up to its orbit's first checkpoint that shows
    its repeat, then copied; returns that checkpoint."""
    calls, repeat = runs[-1]
    assert repeat is not None, runs[-1]
    checkpoint = showing(repeat)
    assert calls == up_to(checkpoint), (name, runs[-1])
    return checkpoint


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_each_long_scalar_orbit_computes_one_block(
        name, loops):
    eq, _, init = SCALAR[name]()
    sc.iterate(eq, init, STEPS)
    assert ends_at(loops, name) == ENDS[name]
    same_scalar(eq, init, LENGTHS)


@pytest.mark.parametrize("name", ["adult-juvenile", "competition-coexist",
                                  "competition-extinct"])
def test_each_long_planar_orbit_computes_one_block(
        name, loops, folds):
    """The orbit, and the fold check where it repeats, which ends at the
    same checkpoint (the extinct one stops at step 17, where sigma has no
    preimage, after drawing only its first stop)."""
    sysm, init = PLANAR[name]()
    sc.iterate_system(sysm, init, STEPS)
    assert ends_at(loops, name) == ENDS[name]
    check = sc.check_fold_consistency(sysm, init, STEPS)
    if check.stopped is None:
        assert folds[-1][-1] == ENDS[name] and check.steps == STEPS + 1
    else:
        assert check.steps == 18 and folds[-1] == [70]
    same_planar(sysm, init, LENGTHS)


def test_the_repeating_fold_checks_end_at_the_first_block_end(folds):
    """Each draws its stops up to that checkpoint and no further: at 105 it
    compares with the states kept 15, 21 and 35 steps back, at 420 with
    those 60, 84, 140 and 210 back."""
    for name, stops in (
            ("adult-juvenile", [70, 84, 90, 105, 140, 168, 180, 210, 280,
                                336, 360, 420]),
            ("competition-coexist", [70, 84, 90, 105])):
        sysm, init = PLANAR[name]()
        check = sc.check_fold_consistency(sysm, init, STEPS)
        assert check.passed and check.stopped is None
        assert folds[-1] == stops, name


def test_the_long_threed_orbit_and_its_fold_compute_one_block(
        loops):
    sysm, eq, init = THREED["threed"]()
    orbit = sc.iterate_system(sysm, init, STEPS)
    assert ends_at(loops, "threed") == ENDS["threed"]
    sc.iterate(eq, sysm.fold_initial(init, orbit), STEPS)
    assert ends_at(loops, "threed fold") == 105
    same_threed(sysm, init, LENGTHS)
    same_scalar(eq, sysm.fold_initial(init), LENGTHS)


def test_a_period_that_does_not_divide_the_block_runs_every_step(
        loops, folds):
    """Period 9: one call of each loop takes every step, and the fold
    check draws no stop but its end."""
    a = S.periodic([0.5 + (i % 3) * 0.5 + 0.01 * i for i in range(9)])
    eq = sc.make_generalized_ricker(sc.RickerFamilySpec(
        1.8, 2, 3, a, (S.constant(0.4), S.constant(0.6),
                       S.constant(0.3))))[0]
    sc.iterate(eq, (0.5, 1.0, 1.5), STEPS)
    assert loops[-1] == ([STEPS], None)
    sysm = sc.make_adult_juvenile(S.periodic(
        [0.6 + 0.3 * (i * 7 % 9) / 9 for i in range(9)]), 1.0, 2.0, 2.0)
    sc.iterate_system(sysm, (1.0, 1.0), STEPS)
    assert loops[-1] == ([STEPS], None)
    sc.check_fold_consistency(sysm, (1.0, 1.0), STEPS)
    assert folds[-1] == [STEPS]
    same_scalar(eq, (0.5, 1.0, 1.5), LENGTHS)


def test_a_table_longer_than_two_blocks_holds_the_copy_back(loops, folds):
    """Each orbit repeats long before its table of 2B + 100 entries ends,
    then takes another cycle from the fallback: no copy, and no fold
    check's end, before the state compared starts past the table.  With
    periods 1 to 6, the first checkpoint whose state p steps back starts
    there is 3B, the sixth."""
    size = 2 * B + 100
    (sp3, sp3_init), (aj, aj_init), (threed, threed_init) = _three(
        _table(size, 1.5, 1.2, False), _table(size, 2.0, 1.5, False),
        _table(size, 1.0, 0.8, False))
    for run, system, init in ((sc.iterate, sp3, sp3_init),
                              (sc.iterate_system, aj, aj_init),
                              (sc.iterate_system, threed, threed_init)):
        run(system, init, STEPS)
        calls, repeat = loops[-1]
        assert calls == up_to(3 * B) and repeat is not None, (system, calls)
        assert showing(repeat, size) == 3 * B
    sc.check_fold_consistency(aj, aj_init, STEPS)
    assert folds[-1][-1] == 3 * B
    same_scalar(sp3, sp3_init, LENGTHS + (size - 1, size, size + 1))
    same_planar(aj, aj_init, LENGTHS + (size - 1, size, size + 1))
    same_threed(threed, threed_init, LENGTHS + (size - 1, size, size + 1))


# -- orbits that never repeat --------------------------------------------------


def _chaotic():
    """Ricker x^1.1 exp(3 - 3x), which never repeats from 0.5."""
    return sc.make_generalized_ricker(sc.RickerFamilySpec(
        1.1, 1, 1, S.constant(3.0), (S.constant(3.0),)))[0]


def test_an_orbit_that_never_repeats_computes_every_step(
        loops, monkeypatch):
    """It draws every checkpoint of the schedule, computes every step, and
    no comparison matches."""
    matched = []
    repeated = dynamics._repeated

    def _repeated(*args):
        matched.append(repeated(*args))
        return matched[-1]
    monkeypatch.setattr(dynamics, "_repeated", _repeated)
    eq = _chaotic()
    traj = sc.iterate(eq, (0.5,), STEPS)
    calls, repeat = loops[-1]
    assert repeat is None and sum(calls) == STEPS
    assert calls == up_to(CHECKPOINTS[-1]) + [STEPS - CHECKPOINTS[-1]]
    assert len(matched) == len(CHECKPOINTS) and not any(matched)
    assert len(set(traj.terms)) == len(traj.terms)
    same_scalar(eq, (0.5,), LENGTHS)


def test_an_order_one_orbit_of_106_steps(loops):
    """Not longer than a block, so one call takes every step.  Run in
    blocks, its first checkpoint (105 steps) holds 106 terms: a period
    past 105 would index before the list's start, so none is tried."""
    eq = _chaotic()
    traj = sc.iterate(eq, (0.5,), 106)
    assert loops[-1] == ([106], None)

    def loop(seq, stop):
        while len(seq) < stop:
            x = seq[-1]
            seq.append(x ** 1.1 * math.exp(3.0 - 3.0 * x))
    seq = [0.5]
    assert dynamics._in_blocks(loop, seq, 107, 1,
                               (0, dynamics._DIVISORS))[1:] == (None, None)
    assert seq == list(traj.terms)

"""How many steps the blocked loops compute before they copy.

``iterate`` and ``iterate_system`` hand their loop to
``dynamics._in_blocks``, which runs it one block of ``_BLOCK`` steps at a
time and, at each block end, compares the state with the state p steps
back for each period p it may use.  Each of the benchmark's long orbits
repeats early in its first block, so its loop must compute exactly one
block and copy the rest; so must the fold check of each of its repeating
planar orbits.  Timing cannot see one block more; these spies can.

A coefficient period that does not divide the block runs every step in
one call, and a table longer than two blocks holds the copy back until
the state compared starts past the table's end.  Every orbit here also
has the bits of the loops that took every step, at lengths around one
and two blocks and at the benchmark's 30,000.
"""

import pytest

import subconverge as sc
from subconverge import dynamics, systems
from subconverge.sequences import ParameterSequence as S
from test_cycle_fast_forward import (_three, _table, same_planar,
                                     same_scalar, same_threed)
from test_repeat_record import PLANAR, SCALAR, STEPS, THREED

B = dynamics._BLOCK
LENGTHS = (B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, STEPS)


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
        stopped, repeat = in_blocks(counted, seq, *args)
        runs.append((calls, repeat))
        return stopped, repeat
    monkeypatch.setattr(dynamics, "_in_blocks", _in_blocks)
    return runs


@pytest.fixture
def folds(monkeypatch):
    """For each fold check: the steps its loop ran to, one per checkpoint
    it drew (the last is where it ended)."""
    runs = []
    fold_loop = systems._fold_loop

    def _fold_loop(*shapes):
        loop = fold_loop(*shapes)

        def counted(x, y, steps, stops, *rest):
            drawn = []
            runs.append(drawn)
            return loop(x, y, steps, (drawn.append(stop) or stop
                                      for stop in stops), *rest)
        return counted
    monkeypatch.setattr(systems, "_fold_loop", _fold_loop)
    return runs


def one_block(runs):
    """The last run computed one block, then copied."""
    calls, repeat = runs[-1]
    assert calls == [B] and repeat is not None, runs[-1]


@pytest.mark.parametrize("name", sorted(SCALAR))
def test_each_long_scalar_orbit_computes_one_block(name, loops):
    eq, _, init = SCALAR[name]()
    sc.iterate(eq, init, STEPS)
    one_block(loops)
    same_scalar(eq, init, LENGTHS)


@pytest.mark.parametrize("name", ["adult-juvenile", "competition-coexist",
                                  "competition-extinct"])
def test_each_long_planar_orbit_computes_one_block(name, loops, folds):
    """The orbit, and the fold check where it repeats (the extinct one
    stops at step 17, where sigma has no preimage)."""
    sysm, init = PLANAR[name]()
    sc.iterate_system(sysm, init, STEPS)
    one_block(loops)
    check = sc.check_fold_consistency(sysm, init, STEPS)
    if check.stopped is None:
        assert folds[-1][-1] == B and check.steps == STEPS + 1
    same_planar(sysm, init, LENGTHS)


def test_the_repeating_fold_checks_end_at_the_first_block_end(folds):
    for name in ("adult-juvenile", "competition-coexist"):
        sysm, init = PLANAR[name]()
        check = sc.check_fold_consistency(sysm, init, STEPS)
        assert check.passed and check.stopped is None
        assert folds[-1][-1] == B, name


def test_the_long_threed_orbit_and_its_fold_compute_one_block(loops):
    sysm, eq, init = THREED["threed"]()
    orbit = sc.iterate_system(sysm, init, STEPS)
    one_block(loops)
    sc.iterate(eq, sysm.fold_initial(init, orbit), STEPS)
    one_block(loops)
    same_threed(sysm, init, LENGTHS)
    same_scalar(eq, sysm.fold_initial(init), LENGTHS)


def test_a_period_that_does_not_divide_the_block_runs_every_step(
        loops, folds):
    """Period 9: one call of each loop takes every step, and the fold
    check draws no checkpoint but its end."""
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
    periods 1 to 6, the first block end whose state p steps back starts
    there is the third."""
    size = 2 * B + 100
    (sp3, sp3_init), (aj, aj_init), (threed, threed_init) = _three(
        _table(size, 1.5, 1.2, False), _table(size, 2.0, 1.5, False),
        _table(size, 1.0, 0.8, False))
    for run, system, init in ((sc.iterate, sp3, sp3_init),
                              (sc.iterate_system, aj, aj_init),
                              (sc.iterate_system, threed, threed_init)):
        run(system, init, STEPS)
        calls, repeat = loops[-1]
        assert calls == [B] * 3 and repeat is not None, (system, calls)
    sc.check_fold_consistency(aj, aj_init, STEPS)
    assert folds[-1][-1] == 3 * B
    same_scalar(sp3, sp3_init, LENGTHS + (size - 1, size, size + 1))
    same_planar(aj, aj_init, LENGTHS + (size - 1, size, size + 1))
    same_threed(threed, threed_init, LENGTHS + (size - 1, size, size + 1))

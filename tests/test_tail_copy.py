"""The copy of a repeating orbit's tail, against the items it stands for.

``dynamics._in_blocks`` builds a repeating orbit's items as one tuple:
the stored head, then the cycle rotated to the phase from which whole
cycles reach the end, repeated.  ``Orbit._column`` reads a column the
same way.  Each is compared here by bits with the stored items followed
by ``list(islice(cycle(last period), rest))``: for every period the loops
may find, with rests of 0, 1 and p - 1 past whole cycles; for columns
whose read part reaches the orbit's end; and for cycles that hold a
signed zero.  A million-step copy, and its column, may at their peak
hold at most twice the result (and 1 MB).
"""

import sys
import tracemalloc
from array import array
from itertools import cycle, islice

import pytest

import subconverge as sc
from subconverge import dynamics
from subconverge.dynamics import _BLOCK, _DIVISORS, Orbit
from test_repeat_record import PLANAR, SCALAR

CHECKPOINTS = dynamics._SCHEDULE + (2 * _BLOCK,)


def _bits(items) -> bytes:
    return array("d", items).tobytes()


def _cycle(p: int, zero: bool = False) -> list:
    """p distinct doubles; with ``zero``, 0.0 and -0.0 lead."""
    values = [1.0 + i / 1024 for i in range(p)]
    if zero:
        values[:2] = [0.0, -0.0]
    return values


def _copied(values: list, end: int):
    """The items, the stored items and the repeat of ``_in_blocks`` run
    to ``end`` over a loop that appends ``values`` cyclically after one
    leading -1.0 (so the onset is 1), with one lag and every period of
    the block."""
    def loop(seq, stop):
        seq.extend(values[(n - 1) % len(values)]
                   for n in range(len(seq), stop))
    seq = [-1.0]
    items, stopped, repeat = dynamics._in_blocks(loop, seq, end, 1,
                                                 (0, _DIVISORS))
    assert stopped is None
    return items, seq, repeat


def _reference(stored: list, p: int, end: int) -> list:
    return stored + list(islice(cycle(stored[-p:]), end - len(stored)))


def _ends(p: int):
    """The items stored at the first checkpoint that shows a period p
    repeating from 1, and the ends 0 or 2 whole cycles past them, plus
    0, 1 or p - 1 items (none at the checkpoint itself: no copy)."""
    stored = 1 + next(c for c in CHECKPOINTS if c - p >= 1)
    return stored, sorted({stored + cycles * p + r for cycles in (0, 2)
                           for r in (0, 1, p - 1)} - {stored})


@pytest.mark.parametrize("p", _DIVISORS)
def test_the_tail_is_the_cycle_repeated(p):
    values = _cycle(p)
    stored, ends = _ends(p)
    for end in ends:
        items, seq, repeat = _copied(values, end)
        assert type(items) is tuple and len(items) == end, end
        assert len(seq) == stored and repeat == (1, p), (end, repeat)
        assert _bits(items) == _bits(_reference(seq, p, end)), end


@pytest.mark.parametrize("p", (2, 3, 12, 840))
def test_a_signed_zero_in_the_cycle_keeps_its_sign(p):
    """0.0 == -0.0, so the newest-item prefilter passes period 1 when
    they are neighbours; the bits reject it, and the copy keeps each
    zero's sign."""
    values = _cycle(p, zero=True)
    stored, ends = _ends(p)
    for end in ends:
        items, seq, repeat = _copied(values, end)
        assert repeat == (1, p), (end, repeat)
        assert _bits(items) == _bits(_reference(seq, p, end)), end


def _points(onset: int, period: int, length: int, zero: bool) -> tuple:
    """Points whose first component runs through its own leading values
    to the onset, then a cycle of ``period``; the second is its negative
    plus one."""
    values = _cycle(period, zero and period > 1)
    xs = [-2.0 - n for n in range(onset)] + \
        list(islice(cycle(values), max(length - onset, 0)))
    return tuple((x, 1.0 - x) for x in xs[:length])


@pytest.mark.parametrize("zero", (False, True))
@pytest.mark.parametrize("onset", (0, 1, 5))
@pytest.mark.parametrize("period", (1, 2, 3, 7, 12))
def test_a_column_is_the_points_components(period, onset, zero):
    """At every length from the onset up to two periods past it (where
    what is read reaches the orbit's end), and at a long one."""
    for length in [*range(max(onset, 1), onset + 2 * period + 3),
                   onset + 50 * period + 3]:
        points = _points(onset, period, length, zero)
        orbit = Orbit(points, repeat=(onset, period))
        for i in (0, 1):
            got = orbit._column(i)
            assert type(got) is tuple and len(got) == length, length
            assert _bits(got) == _bits([p[i] for p in points]), length


# -- peak memory ----------------------------------------------------------------


def _peak(run):
    """``run()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MILLION = 1_000_000


def _at_most_twice(items: tuple, peak: int):
    assert len(items) > MILLION
    assert peak <= 2 * sys.getsizeof(items) + 2 ** 20, \
        (peak, sys.getsizeof(items))


def test_a_million_step_copy_holds_at_most_twice_its_result():
    """sp3 k = 3, adult-juvenile, and that orbit's ``xs``: each repeats
    early, so its loop stops at a checkpoint and the copy is all of the
    peak."""
    eq, _, init = SCALAR["sp3-k3"]()
    sysm, start = PLANAR["adult-juvenile"]()
    sc.iterate(eq, init, 2 * _BLOCK)        # the loops compiled
    sc.iterate_system(sysm, start, 2 * _BLOCK)
    traj, peak = _peak(lambda: sc.iterate(eq, init, MILLION))
    assert traj.repeat is not None
    _at_most_twice(traj.terms, peak)
    orbit, peak = _peak(lambda: sc.iterate_system(sysm, start, MILLION))
    assert orbit.repeat is not None
    _at_most_twice(orbit.points, peak)
    xs, peak = _peak(lambda: orbit.xs)
    _at_most_twice(xs, peak)

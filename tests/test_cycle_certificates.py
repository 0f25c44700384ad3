"""The catalog's envelope-cycle certificates: where they skip the grids.

Each planar builder proves domination for its own cycle in floating
point, and that fbar increases in the reals (adult-juvenile's identity;
the swapped competition fbar1 by its derivative), which is all the
alternating links use.  The envelope check then skips both grids for
that cycle only, and only while the system's f, g and envelopes are the
objects the certificate was proved for.  Whether a certified cycle is
right is the oracle's business (``tests/test_closed_form_bounds.py``).
"""

from dataclasses import replace

import pytest

from subconverge import systems
from subconverge.models import REGISTRY
from subconverge.systems import (check_alternating_envelopes,
                                 check_envelope_cycle, check_tail_envelope)


class GridUsed(Exception):
    pass


class Raising:
    """Stands in for a grid: any use raises GridUsed."""

    def __call__(self, *args):
        raise GridUsed

    def __iter__(self):
        raise GridUsed


@pytest.fixture
def no_grids(monkeypatch):
    monkeypatch.setattr(systems, "_fine_grid", Raising())
    monkeypatch.setattr(systems, "_US", Raising())


def build(name, **params):
    model = REGISTRY[name]
    return model.build(model.coerce(params))


CATALOG = {
    "competition": lambda: build("competition"),
    "competition-r1-4": lambda: build("competition", r1=4.0),
    "competition-varying": lambda: build(
        "competition", r1=[2.0, 1.5], a1={"kind": "tabulated",
                                          "values": [0.5, 2.0],
                                          "fallback": 1.0},
        b1=[0.0, 0.5], delta1=3.0),
    "competition-swapped": lambda: build("competition-swapped"),
    "competition-swapped-varying": lambda: build(
        "competition-swapped", r1=4.0, r2=[2.0, 1.0], a1=[0.5, 0.7],
        delta1=3.0, delta2=1.5, b1={"kind": "tabulated", "values": [1.0],
                                    "fallback": 0.0}),
    "adult-juvenile": lambda: build("adult-juvenile"),
    "adult-juvenile-varying": lambda: build(
        "adult-juvenile", s=[0.5, 1.0], t={"kind": "tabulated",
                                           "values": [0.5, 2.0],
                                           "fallback": 1.0},
        r=[-1.0, 2.5], lam=3.0),
}


def own_cycle(sysm):
    return (sysm.envelope_f, sysm.envelope_g)[:sysm.cycle_threshold[0]]


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_a_catalog_cycle_touches_no_grid(no_grids, name):
    sysm = CATALOG[name]()
    verdict = check_envelope_cycle(sysm, own_cycle(sysm))
    assert verdict.applicable
    assert (verdict.alpha, verdict.tangent) == (
        sysm.cycle_threshold[1]().alpha, sysm.cycle_threshold[1]().tangent)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_the_grids_match_the_certified_verdict(name):
    sysm = CATALOG[name]()
    length = sysm.cycle_threshold[0]
    uncertified = replace(sysm, certificate=None)
    assert check_envelope_cycle(uncertified, own_cycle(sysm)) == \
        check_envelope_cycle(sysm, own_cycle(sysm))
    assert systems._domination_grid(sysm, own_cycle(sysm)) is None
    if length == 2:
        assert systems._monotonicity_grid(sysm.envelope_f) is None


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("field", ["f", "g", "envelope_f", "envelope_g"])
def test_replacing_a_map_brings_the_grids_back(no_grids, name, field):
    sysm = CATALOG[name]()
    old = getattr(sysm, field)
    wrapped = replace(sysm, **{field: lambda *args: old(*args)})
    with pytest.raises(GridUsed):
        check_envelope_cycle(wrapped, own_cycle(wrapped))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_the_other_cycle_is_grid_checked(no_grids, name):
    sysm = CATALOG[name]()
    other = check_alternating_envelopes if sysm.cycle_threshold[0] == 1 \
        else check_tail_envelope
    with pytest.raises(GridUsed):
        other(sysm)


def test_a_certificate_covers_only_the_systems_own_envelopes(no_grids):
    # The same f, g and envelopes, but the cycle passed in is a copy.
    sysm = CATALOG["competition"]()
    fbar = sysm.envelope_f
    with pytest.raises(GridUsed):
        check_envelope_cycle(sysm, (lambda u: fbar(u),))


# -- swapped cycles the grids used to reject ---------------------------


@pytest.mark.parametrize("d1", [20.0, 30.0, 60.0, 400.0])
def test_a_saturated_swapped_cycle_touches_no_grid(monkeypatch, d1):
    # The monotonicity grid rejected fbar1 for every d1 >= 20, where it
    # saturates and rises by less than its rounding, and overflowed on it
    # at d1 = 400.
    def no_grid(*_, **__):
        raise GridUsed
    monkeypatch.setattr(systems, "_domination_grid", no_grid)
    monkeypatch.setattr(systems, "_monotonicity_grid", no_grid)
    sysm = build("competition-swapped", delta1=d1)
    verdict = check_alternating_envelopes(sysm)
    assert verdict.applicable
    assert verdict.alpha == sysm.cycle_threshold[1]().alpha
    with pytest.raises(GridUsed):
        check_alternating_envelopes(replace(sysm, certificate=None))


# -- an uncertified cycle the grids miss --------------------------------


@pytest.mark.xfail(strict=True, reason=(
    "known defect, ROADMAP item 8: the 60x60 domination grid starts at "
    "u = 1/6, and the map exceeds the tail envelope below it"))
def test_an_uncertified_tail_the_grid_misses_is_inapplicable():
    # The swapped system certifies its alternating cycle only; the tail
    # is grid-checked, and the grid reads applicable, alpha = inf.  The
    # orbit from (1, 1) over 30 steps then reports a violated prediction.
    sysm = build("competition-swapped", b1=1e6)
    assert not check_tail_envelope(sysm).applicable

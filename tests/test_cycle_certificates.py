"""The catalog's envelope-cycle certificates: where they skip the grids.

Each planar builder proves domination for its own cycle in floating
point, and monotonicity of fbar where that is exact (adult-juvenile's
identity) or where ``models._rises_on_the_grid`` shows the monotonicity
grid would pass (the swapped competition fbar1).  The envelope check
then skips those grids for that cycle only, and only while the system's
f, g and envelopes are the objects the certificate was proved for.
Whether a certified cycle is right is the oracle's business
(``tests/test_closed_form_bounds.py``).
"""

import math
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subconverge import models, systems
from subconverge.models import REGISTRY, CompetitionParams
from subconverge.sequences import ParameterSequence as S
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


# -- the swapped cycle's rounding guard ------------------------------


def test_the_guard_assumes_the_checks_grid():
    fine = systems._fine_grid()
    assert (len(fine), fine[0], fine[-2], fine[-1]) == \
        (10_000, 1e-3, 9.999, 10.0)


def test_a_saturated_swapped_cycle_is_still_rejected():
    # d1 = 30 > 10 + log10(a1_inf) = 10: outside the guard the grid runs,
    # and it finds fbar1 falling by an ulp where it saturates.
    sysm = build("competition-swapped", delta1=30.0)
    assert not sysm.certificate.monotone
    verdict = check_alternating_envelopes(sysm)
    assert not verdict.applicable
    assert verdict.reason == "fbar not non-decreasing"


@pytest.mark.parametrize("r, a, d", [
    (1.0, 1.0, 10.0 + 1e-9),        # 10^d / a just above 10^10
    (1e100, 1e95, 101.0),           # u^d below 1e-300 on the grid
    (1e250, 1e60, 60.0),            # r u^d above 1e300
    (1e-150, 1e60, 60.0),           # fbar below 1e-300 near u = 1e-3
    (1e100, 1e301, 20.0),           # a above 1e300
])
def test_guard_conditions(r, a, d):
    assert not models._rises_on_the_grid(r, a, d)
    assert models._rises_on_the_grid(1.0, 1.0, 10.0)


@st.composite
def guarded_swapped(draw):
    """A swapped system whose fbar1 lies within the guard: a1 (constant or
    periodic) up to 1e60, d1 up to 10 + log10(a1_inf), often at the
    limit, r1 over 60 decades."""
    log_a = draw(st.floats(-8.0, 60.0))
    a_inf = 10.0 ** log_a
    a1 = draw(st.sampled_from([S.constant(a_inf), S.periodic(
        [a_inf, 2.0 * a_inf, 1.5 * a_inf])]))
    top = min(10.0 + math.log10(a_inf), 60.0)
    assume(top > 1.01)
    d1 = draw(st.one_of(st.floats(1.01, top),
                        st.floats(max(1.01, top - 0.5), top)))
    r1 = 10.0 ** draw(st.floats(-30.0, 30.0))
    return models.make_competition(CompetitionParams.make(
        r1, 1.0, a1, 1.0, d1, 2.0), swapped=True)


@settings(max_examples=200, deadline=None)
@given(guarded_swapped())
def test_where_the_guard_holds_the_grid_passes(sysm):
    assert sysm.certificate.monotone
    fine = [10.0 * i / 10_000 for i in range(1, 10_001)]   # the old grid
    values = list(map(sysm.envelope_f, fine))
    assert all(a <= b for a, b in zip(values, values[1:]))

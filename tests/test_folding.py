import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subconverge as sc
from subconverge.errors import FoldError
from subconverge.systems import folded_descriptor


# -- sigma recovery ------------------------------------------------------


def test_solve_sigma_multiplicative(adult_juvenile):
    # x' = 0.8 y, so y = w / 0.8; substituted back, f gives w again
    v = adult_juvenile.sigma(0, 5.0, 2.0)
    assert v == pytest.approx(2.5)
    assert adult_juvenile.f(0, 5.0, v) == pytest.approx(2.0, rel=1e-9)


def test_solve_sigma_requires_form():
    sysm = sc.PlanarSystem(f=lambda n, x, y: x * y,
                           g=lambda n, x, y: x + y)
    with pytest.raises(FoldError):
        sc.fold_planar(sysm)


def test_solve_sigma_competition_swapped():
    params = sc.CompetitionParams.make(2.0, 2.0, 0.5, 0.5, 2.0, 2.0,
                                       b1=0.3, b2=0.3)
    sysm = sc.make_competition(params, swapped=True)
    # pick v, compute w = f(u, v), recover v
    u, v = 0.7, 0.4
    w = sysm.f(0, u, v)
    got = sysm.sigma(0, u, w)
    assert got == pytest.approx(v, rel=1e-9)
    assert sysm.f(0, u, got) == pytest.approx(w, rel=1e-9)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(0.01, 5.0))
def test_sigma_inversion_property(u, v):
    sysm = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    w = sysm.f(3, u, v)
    got = sysm.sigma(3, u, w)
    assert got == pytest.approx(v, rel=1e-12)
    assert sysm.f(3, u, got) == pytest.approx(w, rel=1e-9)


# -- folding -------------------------------------------------------------


def test_fold_initial_hand_value(adult_juvenile):
    # x_1 = s y_0 = 0.8 * 1.0
    assert sc.fold_initial(adult_juvenile, 1.0, 1.0) == (1.0, 0.8)


def test_folded_equation_hand_value(adult_juvenile):
    # x_2 = f_1(x_1, g_0(x_0, y_0)) with (x_0, y_0) = (1, 1):
    # y_1 = 1^2 e^{2 - 1 - 1} = 1, x_2 = 0.8
    eq = sc.fold_planar(adult_juvenile)
    x0, x1 = sc.fold_initial(adult_juvenile, 1.0, 1.0)
    assert eq.evaluator(2, (x1, x0)) == pytest.approx(0.8, rel=1e-12)


def test_fold_zero_data(adult_juvenile):
    eq = sc.fold_planar(adult_juvenile)
    assert eq.origin_fixed
    traj = sc.iterate(eq, (0.0, 0.0), 10)
    assert traj.terms == (0.0,) * 12


def test_fold_consistency_adult_juvenile(adult_juvenile):
    check = sc.check_fold_consistency(adult_juvenile, (1.0, 1.0), 100)
    assert check.passed
    assert check.max_dev_x <= 1e-9
    assert check.max_dev_y <= 1e-9
    assert check.first_divergent is None


def test_fold_consistency_random_initials(adult_juvenile):
    rng = random.Random(4242)
    for _ in range(20):
        init = (rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0))
        check = sc.check_fold_consistency(adult_juvenile, init, 60)
        assert check.passed, (init, check)


def test_fold_consistency_competition_swapped():
    params = sc.CompetitionParams.make(2.0, 2.0, 0.5, 0.5, 2.0, 2.0,
                                       b1=0.3, b2=0.3)
    sysm = sc.make_competition(params, swapped=True)
    check = sc.check_fold_consistency(sysm, (0.8, 0.6), 50)
    assert check.passed, check


def test_threed_fold_consistency():
    sysm, eq = sc.make_3d_example(0.5, 0.4, b=0.2, c=0.8, d=0.1,
                                  q=0.6, r=1.5, s=0.9)
    states = sysm.iterate((1.0, 0.3, 0.7), 50)
    xs = [st_[0] for st_ in states]
    traj = sc.iterate(eq, tuple(sysm.fold_initial((1.0, 0.3, 0.7))),
                      len(xs) - 3)
    for n, (a, b) in enumerate(zip(xs, traj.terms)):
        assert abs(a - b) / max(abs(a), abs(b), 1.0) <= 1e-9, n


def test_folded_descriptor(adult_juvenile):
    desc = folded_descriptor(adult_juvenile)
    assert desc["order"] == 2
    assert desc["dominant_lag"] == 2
    assert desc["origin_fixed"] is True
    assert desc["source_system"] == "adult-juvenile"
    assert desc["domain_high"] == ["inf", "inf"]


# -- envelope criteria ---------------------------------------------------


def test_alternating_envelopes_adult_juvenile(adult_juvenile):
    verdict = sc.check_alternating_envelopes(adult_juvenile)
    assert verdict.applicable
    assert verdict.alpha == pytest.approx(0.15859433956303937, abs=1e-9)
    assert not verdict.tangent


def test_tail_envelope_fails_adult_juvenile(adult_juvenile):
    # f(u1, u2) = s u2 is not controlled by u1 alone
    verdict = sc.check_tail_envelope(adult_juvenile)
    assert not verdict.applicable
    assert verdict.counterexample is not None


def test_alternating_tangency_at_unit_rate():
    sysm = sc.make_adult_juvenile(1.0, 1.0, 1.0, 2.0)
    verdict = sc.check_alternating_envelopes(sysm)
    assert verdict.applicable
    assert verdict.alpha == pytest.approx(1.0, abs=1e-6)
    assert verdict.tangent


def test_tail_envelope_competition():
    params = sc.CompetitionParams.make(1.0, 1.0, 1.0, 1.0, 2.0, 2.0)
    sysm = sc.make_competition(params)
    verdict = sc.check_tail_envelope(sysm)
    assert verdict.applicable
    # r1^2 < 4 a1: fbar(u) < u everywhere, threshold unbounded
    assert math.isinf(verdict.alpha)
    # the alternating pair does not hold for this orientation
    assert not sc.check_alternating_envelopes(sysm).applicable


def test_alternating_envelopes_competition_swapped():
    params = sc.CompetitionParams.make(1.0, 1.0, 1.0, 1.0, 2.0, 2.0)
    sysm = sc.make_competition(params, swapped=True)
    assert sc.check_alternating_envelopes(sysm).applicable
    assert not sc.check_tail_envelope(sysm).applicable


# -- envelope-based predictions ------------------------------------------


def test_alternating_prediction_parity(adult_juvenile):
    verdict = sc.check_alternating_envelopes(adult_juvenile)
    orbit = sc.iterate_system(adult_juvenile, (1.0, 1.0), 200)
    report = sc.predict_alternating_convergence(adult_juvenile, orbit,
                                                verdict.alpha)
    assert report.crossing_index is not None
    pred = report.predictions[0]
    assert pred.stride == 2
    assert pred.residue_class == report.crossing_index % 2
    assert pred.verdict == "converging-to-zero"
    assert pred.chain_verified
    # the predicted subsequence actually decays
    sub = orbit.xs[report.crossing_index::2]
    assert sub[-1] < 1e-8
    assert all(b < a for a, b in zip(sub, sub[1:]) if a > 0)


def test_tail_prediction_competition():
    params = sc.CompetitionParams.make(1.0, 1.0, 1.0, 1.0, 2.0, 2.0)
    sysm = sc.make_competition(params)
    verdict = sc.check_tail_envelope(sysm)
    orbit = sc.iterate_system(sysm, (0.9, 0.9), 100)
    report = sc.predict_tail_convergence(sysm, orbit, verdict.alpha)
    assert report.crossing_index == 0
    assert report.full_convergence_from == 0
    xs = orbit.xs
    assert xs[-1] < 1e-8
    assert all(b < a for a, b in zip(xs, xs[1:]) if a > 0)


def test_prediction_without_crossing(adult_juvenile):
    orbit = sc.Orbit(((5.0, 5.0), (4.0, 6.0)))
    report = sc.predict_alternating_convergence(adult_juvenile, orbit, 0.1)
    assert report.crossing_index is None
    assert report.predictions == ()


def test_fold_consistency_stops_where_the_orbit_goes_extinct():
    # x underflows to 0.0 at n=18; sigma_17 then has no preimage.  The
    # check must stop there and pass on the terms it could compare.
    sysm = sc.make_competition(sc.CompetitionParams.make(
        3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 0.5, 0.5))
    check = sc.check_fold_consistency(sysm, (1.5, 1.5), 30_000)
    assert check.passed, check
    assert check.steps == 18
    assert check.stopped.startswith("sigma_17: w=0.0 has no preimage")
    assert check.max_dev_x <= 1e-14 and check.max_dev_y <= 1e-14
    assert check.first_divergent is None


def test_competition_sigma_rejects_zero_w():
    sysm = sc.make_competition(sc.CompetitionParams.make(
        3.0, 3.0, 2.0, 2.0, 2.0, 2.0, 0.5, 0.5))
    with pytest.raises(FoldError) as exc:
        sysm.sigma(5, 1e-200, 0.0)
    assert exc.value.index == 5


def test_fold_consistency_full_run_records_no_stop(adult_juvenile):
    check = sc.check_fold_consistency(adult_juvenile, (1.0, 1.0), 100)
    assert check.stopped is None
    assert check.steps == 101

import math
import random

import pytest

import subconverge as sc
from subconverge.errors import CriterionInapplicableError, ModelParameterError
from subconverge.models import _validate_power
from subconverge.sequences import ParameterSequence


# -- generalized Ricker family ------------------------------------------


def _ricker_spec(lam, k, m, a, bs):
    return sc.RickerFamilySpec(
        lam, k, m, ParameterSequence.constant(a),
        tuple(ParameterSequence.constant(b) for b in bs))


def test_ricker_evaluator_hand_value():
    eq, _ = sc.make_generalized_ricker(_ricker_spec(2.0, 1, 2, 1.0,
                                                    (0.5, 0.25)))
    # x_n = x_{n-1}^2 e^{1 - 0.5 x_{n-1} - 0.25 x_{n-2}}
    got = sc.evaluate_map(eq, 2, (2.0, 4.0))
    assert got == pytest.approx(4.0 * math.exp(1.0 - 1.0 - 1.0), rel=1e-12)


def test_ricker_bound_uses_sup_and_inf():
    spec = sc.RickerFamilySpec(
        2.0, 1, 1, ParameterSequence.periodic([0.5, 1.0]),
        (ParameterSequence.periodic([1.0, 2.0]),))
    _, bound = sc.make_generalized_ricker(spec)
    # g(u) = u^2 e^{a_sup - b_inf u} with a_sup = 1, b_inf = 1
    assert bound.g(0.5) == pytest.approx(0.25 * math.exp(0.5), rel=1e-12)


def test_ricker_parameter_validation():
    with pytest.raises(ModelParameterError):
        sc.make_generalized_ricker(_ricker_spec(1.0, 1, 1, 1.0, (1.0,)))
    with pytest.raises(ModelParameterError):
        sc.make_generalized_ricker(_ricker_spec(2.0, 3, 2, 1.0, (1.0, 1.0)))
    with pytest.raises(ModelParameterError):
        # dominant-lag coefficient not bounded away from zero
        sc.make_generalized_ricker(_ricker_spec(2.0, 1, 2, 1.0, (0.0, 1.0)))
    with pytest.raises(ModelParameterError):
        sc.make_generalized_ricker(_ricker_spec(2.0, 1, 2, 1.0, (1.0, -0.1)))


def test_threshold_condition_examples():
    # lam = 3/2, b = 0.9: rhs = 0.5 (1 + ln 0.9 - ln 0.5) ~ 0.79389
    holds, rhs = sc.ricker_threshold_condition(1.5, 1.5, 0.9)
    assert holds
    assert rhs == pytest.approx(
        0.5 * (1 + math.log(0.9) - math.log(0.5)), rel=1e-12)
    assert rhs == pytest.approx(0.7938933, abs=1e-6)
    # lam = 2, b = 1: rhs = 1, so a = e fails only below 1
    holds, rhs = sc.ricker_threshold_condition(2.0, 0.5, 1.0)
    assert not holds and rhs == pytest.approx(1.0)
    # equality is the tangency case and counts as holding
    holds, rhs = sc.ricker_threshold_condition(2.0, 1.0, 1.0)
    assert holds and rhs == pytest.approx(1.0)


def test_fixed_points_pair():
    fps = sc.ricker_fixed_points(1.5, 1.5, 0.9)
    assert fps.kind == "pair"
    assert fps.u_star == pytest.approx(0.0549647352569813, abs=1e-9)
    assert fps.u_bar == pytest.approx(2.0711758192373013, abs=1e-9)
    # residual check: u^(lam-1) e^{a - b u} = 1 at both roots
    for u in fps.as_tuple():
        assert abs(u ** 0.5 * math.exp(1.5 - 0.9 * u) - 1.0) < 1e-9


def test_fixed_points_tangent():
    # lam = 2, b = 1, a = 1: peak of the log form sits exactly at 0
    fps = sc.ricker_fixed_points(2.0, 1.0, 1.0)
    assert fps.kind == "tangent"
    assert fps.u_star == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("a, kind", [
    (1.0 - 8e-13, "tangent"),   # peak just below 0: g <= u throughout
    (1.0 + 8e-13, "pair"),      # peak just above 0: g > u near u = 1
])
def test_fixed_points_near_tangency_are_sound(a, kind):
    # lam = 2, b = 1: the log form's peak at u = 1 is a - 1, within the
    # tangency tolerance of 0 on either side.  Only the safe side is a
    # tangency; above it, g(u) < u must hold on the whole window.
    fps = sc.ricker_fixed_points(2.0, a, 1.0)
    assert fps.kind == kind
    eq, bound = sc.make_generalized_ricker(_ricker_spec(2.0, 1, 1, a, [1.0]))
    assert (bound.alpha, bound.tangent) == (fps.u_star, kind == "tangent")
    window = [u for u in (1.0 - i * 1e-8 for i in range(200))
              if u < bound.alpha]
    assert window and all(bound.g(u) < u for u in window)


def test_fixed_points_none():
    fps = sc.ricker_fixed_points(2.0, 0.5, 1.0)
    assert fps.kind == "none"
    assert fps.as_tuple() == ()


# -- the showcase third-order equation ----------------------------------


def test_sp3_thresholds_by_lag():
    _, b3 = sc.make_sp3(3)
    _, b2 = sc.make_sp3(2)
    assert b3.alpha == pytest.approx(0.0549647352569813, abs=1e-9)
    assert b2.alpha == pytest.approx(0.05367226861755307, abs=1e-9)
    assert not b3.informal and not b2.informal


def test_sp3_k1_informal_and_rigorous_bounds():
    _, informal = sc.make_sp3(1)
    assert informal.informal
    assert informal.alpha == pytest.approx(0.06040345722312389, abs=1e-9)
    _, rigorous = sc.make_sp3(1, rigorous=True)
    assert not rigorous.informal
    assert rigorous.alpha == pytest.approx(math.exp(-3.0), rel=1e-12)


def test_sp3_invalid_lag():
    with pytest.raises(ModelParameterError):
        sc.make_sp3(4)


def test_sp3_bound_dominates_map_on_random_histories(sp3_k3):
    # |F_n(u1,u2,u3)| <= g(u3) holds exactly: the omitted exponential
    # factors are <= 1 on the positive domain
    eq, bound = sp3_k3
    rng = random.Random(20260826)
    for _ in range(100_000):
        u = [rng.uniform(0.0, 10.0) for _ in range(3)]
        assert sc.evaluate_map(eq, 5, u) <= bound.g(u[2])


def test_sp3_k2_bound_dominates(sp3_k2):
    eq, bound = sp3_k2
    rng = random.Random(7)
    for _ in range(10_000):
        u = [rng.uniform(0.0, 10.0) for _ in range(3)]
        assert sc.evaluate_map(eq, 5, u) <= bound.g(u[1])


# -- sigmoid Beverton-Holt ----------------------------------------------


def _bh_spec(a=2.0, c=1.0, q=2.0, p=3, b=1.0, k=1, l=2):
    return sc.SigmoidBHSpec(ParameterSequence.constant(a),
                            ParameterSequence.constant(c),
                            ParameterSequence.constant(q),
                            p, b, k, l)


def test_sigmoid_bh_hand_value():
    eq = sc.make_sigmoid_bh(_bh_spec())
    # x = a (u1 - b)^3 / (1 + c u2^2) + b at u1 = 1.1, u2 = 2
    got = sc.evaluate_map(eq, 2, (1.1, 2.0))
    want = 2.0 * 0.1 ** 3 / (1.0 + 4.0) + 1.0
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(1.0004, rel=1e-12)


def test_sigmoid_bh_fixed_point_is_b():
    eq = sc.make_sigmoid_bh(_bh_spec())
    assert sc.evaluate_map(eq, 9, (1.0, 1.0)) == pytest.approx(1.0)


def test_sigmoid_bh_window():
    alpha, window = sc.sigmoid_bh_window(2.0, 3.0, 1.0)
    assert alpha == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert window.lo == pytest.approx(1.0 - 2.0 ** -0.5)
    assert window.hi == pytest.approx(1.0 + 2.0 ** -0.5)
    # wide window clips at zero for small b
    _, clipped = sc.sigmoid_bh_window(2.0, 3.0, 0.1)
    assert clipped.lo == 0.0


def test_sigmoid_bh_bound_and_threshold():
    bound = sc.sigmoid_bh_bound(_bh_spec())
    assert bound.alpha == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert bound.g(0.1) == pytest.approx(2.0 * 1e-3, rel=1e-12)
    assert bound.g(-0.1) == bound.g(0.1)


def test_power_validation():
    from fractions import Fraction
    assert _validate_power(3) == Fraction(3)
    assert _validate_power(Fraction(4, 3)) == Fraction(4, 3)
    for bad in (0, -2, Fraction(3, 2), Fraction(5, 3)):
        with pytest.raises(ModelParameterError):
            _validate_power(bad)


def test_rational_power_branches():
    from fractions import Fraction

    def power(p, y):
        # The map in y at a = 1, c = 0: y^p on the real branch.
        spec = _bh_spec(a=1.0, c=0.0, p=p, b=0.0, l=1)
        return sc.make_sigmoid_bh(spec).translated[2](0, (y,))
    assert power(3, -2.0) == -8.0
    assert power(Fraction(4, 3), -8.0) == pytest.approx(16.0)
    assert power(Fraction(4, 3), 8.0) == pytest.approx(16.0)


def test_translation_round_trip():
    eq = sc.make_sigmoid_bh(_bh_spec())
    shifted = sc.translate_to_origin(eq, 1.0)
    assert shifted.origin_fixed
    # y-coordinates: F~(v) = F(v + b) - b
    for u1, u2 in ((1.1, 2.0), (0.5, 0.5), (1.7, 0.2)):
        direct = sc.evaluate_map(eq, 4, (u1, u2))
        via = sc.evaluate_map(shifted, 4, (u1 - 1.0, u2 - 1.0)) + 1.0
        assert via == pytest.approx(direct, rel=1e-12)


def test_translation_rejects_non_fixed_value():
    eq = sc.make_sigmoid_bh(_bh_spec())
    with pytest.raises(ModelParameterError):
        sc.translate_to_origin(eq, 0.5)


def test_sigmoid_bh_translated_dominated_by_bound():
    spec = _bh_spec()
    eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), 1.0)
    bound = sc.sigmoid_bh_bound(spec)
    rng = random.Random(99)
    for _ in range(10_000):
        v = [rng.uniform(-1.0, 3.0) for _ in range(2)]
        assert abs(sc.evaluate_map(eq, 3, v)) <= bound.g(v[0])


# -- planar and 3D builders ---------------------------------------------


def test_adult_juvenile_parameter_validation():
    with pytest.raises(ModelParameterError):
        sc.make_adult_juvenile(1.5, 1.0, 2.0, 2.0)   # s > 1
    with pytest.raises(ModelParameterError):
        sc.make_adult_juvenile(0.8, 0.0, 2.0, 2.0)   # t = 0
    with pytest.raises(ModelParameterError):
        sc.make_adult_juvenile(0.8, 1.0, 2.0, 1.0)   # lam = 1


def test_adult_juvenile_maps(adult_juvenile):
    sysm = adult_juvenile
    assert sysm.f(0, 3.0, 2.0) == pytest.approx(1.6)
    want = 4.0 * math.exp(2.0 - 2.0 - 2.0)
    assert sysm.g(0, 2.0, 2.0) == pytest.approx(want, rel=1e-12)


def test_competition_threshold_quadratic():
    res = sc.competition_threshold(1.0, 0.1, 2.0)
    assert res.alpha == pytest.approx(0.5 * (1 - math.sqrt(0.6)), rel=1e-12)
    assert not res.tangent
    # discriminant zero: tangency at r1/2
    res = sc.competition_threshold(2.0, 1.0, 2.0)
    assert res.tangent and res.alpha == pytest.approx(1.0)
    # no positive root
    assert math.isinf(sc.competition_threshold(1.0, 1.0, 2.0).alpha)


@pytest.mark.parametrize("a1, tangent", [
    (4.0 + 1e-12, True),    # bottom just above 0: fbar <= u throughout
    (4.0 - 1e-12, False),   # bottom just below 0: fbar > u near u = 2
])
def test_competition_threshold_near_tangency_is_sound(a1, tangent):
    # r1 = 3, d1 = 3: psi(u) = u^3 - 3u^2 + a1 has its minimum a1 - 4 at
    # u = 2, within the tangency tolerance of 0 on either side.  Only
    # the safe side is a tangency; below it, fbar(u) < u must hold on
    # the whole window.
    res = sc.competition_threshold(3.0, a1, 3.0)
    assert res.tangent == tangent
    assert (res.alpha == 2.0) if tangent else (res.alpha < 2.0)
    window = [u for u in (2.0 - i * 1e-9 for i in range(1, 2000))
              if u < res.alpha]
    assert window and all(3.0 * u ** 3 / (a1 + u ** 3) < u for u in window)


def test_competition_threshold_general_exponent():
    # d1 = 3: root of u^3 - r1 u^2 + a1; check against the closed cubic
    res = sc.competition_threshold(2.0, 0.5, 3.0)
    u = res.alpha
    assert abs(u ** 3 - 2.0 * u * u + 0.5) < 1e-9
    assert 0 < u < 2.0 * 2.0 / 3.0


def test_competition_threshold_bisection_ends_where_fbar_is_below_u():
    # d1 != 2: the bisection returns its end where psi > 0, that is
    # fbar(u) < u, next to a double where psi <= 0.
    rng = random.Random(3)
    for _ in range(300):
        r1, a1 = rng.uniform(0.5, 5.0), rng.uniform(0.05, 2.0)
        d1 = rng.uniform(1.2, 4.0)
        u = sc.competition_threshold(r1, a1, d1).alpha
        if math.isfinite(u) and u < r1 * (d1 - 1.0) / d1:
            assert u ** d1 - r1 * u ** (d1 - 1.0) + a1 > 0


def test_competition_threshold_without_cancellation():
    # r1 = 60, a1 = 1e-8: 0.5 (r1 - sqrt(r1^2 - 4 a1)) lost five digits
    # to cancellation and lay 1.1e-5 (relative) above the root, where
    # fbar(u) > u.  a1 over the larger root keeps every digit.
    r1, a1 = 60.0, 1e-8
    u = sc.competition_threshold(r1, a1, 2.0).alpha
    assert u == pytest.approx(1.6666666666712962e-10, rel=1e-15)
    assert all(r1 * v * v / (a1 + v * v) < v
               for v in (u * (1.0 - i * 1e-7) for i in range(1, 101)))


def test_swapped_competition_threshold():
    T = sc.swapped_competition_threshold
    # Equal species: fbar1(fbar2(u)) = u first where fbar(u) = u, at the
    # smaller root of u^2 - 3u + 1, (3 - sqrt(5)) / 2.
    res = T(3.0, 1.0, 2.0, 3.0, 1.0, 2.0)
    assert not res.tangent
    assert res.alpha == pytest.approx((3.0 - 5.0 ** 0.5) / 2.0, rel=1e-15)
    assert T(2.0, 1.0, 2.0, 2.0, 1.0, 2.0) == sc.ThresholdResult(1.0, True)
    assert math.isinf(T(1.0, 1.0, 2.0, 1.0, 1.0, 2.0).alpha)
    # Unequal species: the cycle, evaluated as written, crosses u within
    # rounding of alpha (alpha is bisected in the log form).
    r1, a1, d1, r2, a2, d2 = 4.0, 0.5, 3.0, 2.0, 1.0, 1.5
    u = T(r1, a1, d1, r2, a2, d2).alpha

    def cycle(v):
        w = r2 * v ** d2 / (a2 + v ** d2)
        return r1 * w ** d1 / (a1 + w ** d1)
    below, above = u * (1.0 - 1e-14), u * (1.0 + 1e-14)
    assert cycle(below) < below and cycle(above) > above
    assert 0.37 < u < 0.374


def test_swapped_competition_threshold_limits():
    T = sc.swapped_competition_threshold
    # Near 0 the cycle is ~ 1e15 u^2.25: its root 1e-12 is found in log form.
    assert T(1e3, 1e-3, 1.5, 1e3, 1e-3, 1.5).alpha == pytest.approx(1e-12)
    # ~ 1e1500 u^2.25: the root lies below the smallest positive double.
    with pytest.raises(CriterionInapplicableError):
        T(1e300, 1e-300, 1.5, 1e300, 1e-300, 1.5)
    with pytest.raises(ModelParameterError):
        T(1.0, 1.0, 1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ModelParameterError):
        T(1.0, 0.0, 2.0, 1.0, 1.0, 2.0)


def test_competition_threshold_matches_envelope_root():
    # the threshold is exactly where fbar(u) = u
    r1, a1, d1 = 3.0, 1.0, 2.0
    res = sc.competition_threshold(r1, a1, d1)
    u = res.alpha
    assert r1 * u ** d1 / (a1 + u ** d1) == pytest.approx(u, rel=1e-9)


def test_competition_parameter_validation():
    with pytest.raises(ModelParameterError):
        sc.make_competition(sc.CompetitionParams.make(1, 1, 1, 1, 1.0, 2))
    with pytest.raises(ModelParameterError):
        sc.make_competition(sc.CompetitionParams.make(0, 1, 1, 1, 2, 2))


def test_threed_fold_hand_value():
    sysm, eq = sc.make_3d_example(1.0, 0.5, b=0.1, c=1.0, d=0.2,
                                  q=0.5, r=1.0, s=0.8)
    states = sysm.iterate((1.0, 0.5, 1.0), 5)
    xs = [st[0] for st in states]
    for n in range(3, len(xs)):
        want = xs[n]
        got = eq.evaluator(n, (xs[n - 1], xs[n - 2], xs[n - 3]))
        assert got == pytest.approx(want, rel=1e-12)


def test_threed_parameter_validation():
    with pytest.raises(ModelParameterError):
        sc.make_3d_example(1.0, 0.5, b=-0.1, c=1.0, d=0.0,
                           q=0.5, r=1.0, s=0.8)
    with pytest.raises(ModelParameterError):
        sc.make_3d_example(1.0, 0.5, b=0.0, c=0.0, d=0.0,
                           q=0.5, r=1.0, s=0.8)


def test_model_catalog():
    assert "sp3" in sc.MODEL_NAMES
    assert "competition-swapped" in sc.MODEL_NAMES
    assert len(sc.MODEL_NAMES) == 7

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subconverge as sc
from subconverge.criteria import validate_bound
from subconverge.errors import CriterionInapplicableError
from subconverge.reports import ThresholdWindow


def _bound(g, alpha, k=1, lo=None, hi=None, g_domain=(-math.inf, math.inf)):
    window = ThresholdWindow(-alpha if lo is None else lo,
                             alpha if hi is None else hi)
    return sc.BoundingFunction(g=g, alpha=alpha, dominant_lag=k,
                               validity=window, g_domain=g_domain)


# -- symmetrize ---------------------------------------------------------


def test_symmetrize_even_function_unchanged():
    h = sc.symmetrize(_bound(lambda u: u * u, 1.0))
    for u in (-0.9, -0.3, 0.0, 0.4, 0.8):
        assert h(u) == u * u


def test_symmetrize_takes_max_side():
    def g(u):
        return u * u if u >= 0 else 0.0
    h = sc.symmetrize(_bound(g, 1.0))
    assert h(-0.5) == 0.25
    assert h(0.5) == 0.25


def test_symmetrize_one_sided_domain():
    def g(u):
        return u ** 1.5 * math.exp(1.5 - 0.9 * u)
    h = sc.symmetrize(_bound(g, 0.05, lo=0.0, hi=0.05,
                             g_domain=(0.0, math.inf)))
    for u in (0.01, 0.03, 0.05):
        assert h(u) == g(u)


@settings(max_examples=100, deadline=None)
@given(st.floats(-2.0, 2.0))
def test_symmetrize_properties(u):
    def g(x):
        return abs(x) ** 1.5 * math.exp(-abs(x)) if x >= -3 else 0.0
    h = sc.symmetrize(_bound(g, 1.0, g_domain=(-3.0, math.inf)))
    assert h(u) == h(-u)
    assert g(u) <= h(u)
    assert h(0.0) == 0.0


# -- solve_threshold ----------------------------------------------------


def test_threshold_sp3_k3_bound():
    g = lambda u: u ** 1.5 * math.exp(1.5 - 0.9 * u)
    res = sc.solve_threshold(g, 10.0)
    assert res.alpha == pytest.approx(0.0549647352569813, abs=1e-9)
    assert not res.tangent


def test_threshold_no_root_is_infinite():
    res = sc.solve_threshold(lambda u: u * u / (1 + u * u), 100.0)
    assert math.isinf(res.alpha)


def test_threshold_sp3_k2_bound():
    g = lambda u: u ** 1.5 * math.exp(1.5 - 0.7 * u)
    res = sc.solve_threshold(g, 10.0)
    assert res.alpha == pytest.approx(0.05367226861755307, abs=1e-9)


def test_threshold_tangency_detected():
    # u^2 e^{1-u} touches the identity at u = 1 without crossing (at the
    # grid point 1.0).  The window ends below the touch, where the ratio
    # (g(u) - u) / u falls under -1e-12: about 1.4e-6 lower.
    g = lambda u: u * u * math.exp(1 - u)
    res = sc.solve_threshold(g, 10.0)
    assert res.tangent
    assert 1.0 - 2e-6 < res.alpha < 1.0 - 1e-6
    assert (g(res.alpha) - res.alpha) / res.alpha < -1e-12


def test_threshold_superlinear_near_zero_rejected():
    with pytest.raises(CriterionInapplicableError):
        sc.solve_threshold(lambda u: 2 * u, 10.0)


def test_threshold_matches_fixed_point_solver():
    for lam, a, b in ((1.5, 1.5, 0.9), (1.5, 1.5, 0.7), (2.0, 2.0, 1.0)):
        g = lambda u: u ** lam * math.exp(a - b * u)
        res = sc.solve_threshold(g, 2 * (lam - 1) / b)
        fps = sc.ricker_fixed_points(lam, a, b)
        assert res.alpha == pytest.approx(fps.u_star, rel=1e-9)


# -- verify_sublinearity ------------------------------------------------


def test_sublinearity_holds_for_half():
    ok, bad = sc.verify_sublinearity(lambda u: u / 2,
                                     ThresholdWindow(-1.0, 1.0))
    assert ok and bad is None


def test_sublinearity_counterexample_at_first_point():
    ok, bad = sc.verify_sublinearity(lambda u: 2 * u,
                                     ThresholdWindow(0.0, 1.0))
    assert not ok
    assert bad == pytest.approx(1e-4)


def test_sublinearity_inside_threshold():
    g = lambda u: u ** 1.5 * math.exp(1.5 - 0.9 * u)
    ok, _ = sc.verify_sublinearity(g, ThresholdWindow(0.0, 0.0549))
    assert ok


def test_threshold_correctness_invariant():
    # alpha from solve_threshold bounds a window where sublinearity holds
    g = lambda u: u ** 1.5 * math.exp(1.5 - 0.9 * u)
    alpha = sc.solve_threshold(g, 10.0).alpha
    ok, _ = sc.verify_sublinearity(
        g, ThresholdWindow(0.0, alpha * (1 - 1e-6)))
    assert ok


# -- inequality chain ---------------------------------------------------


def test_chain_holds_along_predicted_subsequence(sp3_k3, sp3_k3_traj):
    _, bound = sp3_k3
    h = sc.symmetrize(bound)
    res = sc.check_inequality_chain(sp3_k3_traj.terms, 132, 3, (h,))
    assert res.holds


def test_chain_zero_terms_terminate():
    res = sc.check_inequality_chain([0.0, 0.0, 0.0], 0, 1,
                                    (lambda u: u / 2,))
    assert res.holds
    assert res.terminated_at_zero == 0


def test_chain_violation_reported():
    traj = [0.04, 0.9, 0.05]  # 0.05 > h(0.04) = 0.02
    res = sc.check_inequality_chain(traj, 0, 2, (lambda u: u / 2,))
    assert not res.holds
    assert res.first_violation == 0


# -- predictions --------------------------------------------------------


def test_predict_subsequence_figure1(sp3_k3, sp3_k3_traj):
    eq, bound = sp3_k3
    report = sc.build_report(eq, bound, sp3_k3_traj)
    starts = {p.residue_class: p.start_index for p in report.predictions
              if p.chain is not None}
    assert starts == {0: 132, 1: 166}
    assert report.crossing_index == 132
    assert report.chain_verified
    assert not report.any_violated


def test_predict_all_zero_trajectory(sp3_k3):
    eq, bound = sp3_k3
    traj = sc.iterate(eq, (0.0, 0.0, 0.0), 30)
    report = sc.build_report(eq, bound, traj)
    assert len(report.predictions) == 3
    assert all(p.start_index == p.residue_class for p in report.predictions)


def test_predict_k2_crossing(sp3_k2):
    eq, bound = sp3_k2
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 100)
    report = sc.build_report(eq, bound, traj)
    assert report.crossing_index == 25
    pred = {p.residue_class: p for p in report.predictions}[25 % 2]
    assert pred.start_index == 25
    assert pred.verdict == "converging-to-zero"


def test_full_convergence_k1(sp3_k1):
    eq, bound = sp3_k1
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 100)
    assert sc.predict_full_convergence(eq, bound, traj) == 14


def test_full_convergence_inside_window():
    eq, bound = sc.make_sp3(2)
    traj_terms = [0.01, 0.02, 0.03, 0.01]
    traj = sc.Trajectory(tuple(traj_terms))
    # index 0 is initial data (order 3, stride 2): guarantee starts at 1
    assert sc.predict_full_convergence(eq, bound, traj) == 1


def test_full_convergence_none_when_outside(sp3_k2):
    eq, bound = sp3_k2
    traj = sc.Trajectory((1.0, 1.0, 2.0, 3.0))
    assert sc.predict_full_convergence(eq, bound, traj) is None


def test_stride_mismatch_rejected(sp3_k3, sp3_k2):
    eq3, _ = sp3_k3
    _, bound2 = sp3_k2
    traj = sc.iterate(eq3, (1.0, 1.0, 1.0), 10)
    with pytest.raises(ValueError):
        sc.build_report(eq3, bound2, traj)


def test_validate_bound_rejects_nonzero_origin():
    from subconverge.errors import BoundValidationError
    bad = _bound(lambda u: abs(u) / 2 + 0.1, 1.0)
    with pytest.raises(BoundValidationError):
        validate_bound(bad)


# -- the shared bisection --------------------------------------------------


def test_solve_threshold_returns_the_end_below_the_identity():
    # fbar(u) = 4u^2 / (1 + u^2) crosses u at 2 - sqrt(3).  The midpoint
    # of the last 1e-12 bracket lay 1.7e-13 above it, where fbar(u) > u.
    def fbar(u):
        return 4.0 * u * u / (1.0 + u * u)
    alpha = sc.solve_threshold(fbar, 10.0).alpha
    assert fbar(alpha) < alpha
    assert 2.0 - 3.0 ** 0.5 - 1e-12 <= alpha <= 2.0 - 3.0 ** 0.5


def test_bisect_lo_end():
    # lo_end returns the end of the last bracket where lo_side held.
    for lo, hi in ((0.0, 2.0), (2.0, 0.0)):
        root = sc.bisect(lo, hi, lambda u: (u * u < 2.0) == (lo < hi),
                         lo_end=True)
        assert (root * root < 2.0) == (lo < hi)
        assert abs(root - 2.0 ** 0.5) <= 4e-16


def test_bisect_runs_to_double_precision_in_either_order():
    # The search ends when the midpoint hits an end.
    for lo, hi in ((0.0, 2.0), (2.0, 0.0)):
        root = sc.bisect(lo, hi, lambda u: (u * u < 2.0) == (lo < hi))
        assert abs(root - 2.0 ** 0.5) <= 4e-16


@pytest.mark.parametrize("root", [5e-324, 1e-300, 1.0, 1e300, 1.7e308])
def test_bisect_exhausts_any_finite_bracket(root):
    # From (0, the largest double) down to the smallest positive double
    # takes about 2,100 halvings; no midpoint overflows.
    lo = sc.bisect(0.0, 1.7976931348623157e308, lambda u: u < root,
                   lo_end=True)
    assert lo == math.nextafter(root, 0.0)
    assert sc.bisect(-1.7976931348623157e308, 1.7976931348623157e308,
                     lambda u: u < root) in (lo, root)

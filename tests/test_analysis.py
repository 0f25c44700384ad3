import pytest

import subconverge as sc
from subconverge.analysis import (VERIFIED, VIOLATION, classify_limit,
                                  verify_monotone_to_zero)
from subconverge.reports import ThresholdWindow


# -- crossing detection --------------------------------------------------


def test_detect_crossing_simple():
    window = ThresholdWindow(0.0, 0.05)
    report = sc.analyze_residues([1.0, 0.9, 0.04, 0.5], 1, None, window)
    assert report.crossing_index == 2


def test_detect_crossing_strictness():
    window = ThresholdWindow(0.0, 0.05)
    # a boundary value is not strictly inside; an exact zero is the limit
    # itself, so the class enters there
    report = sc.analyze_residues([0.05, 0.0, 0.06], 1, None, window)
    assert report.crossing_index == 1


def test_detect_crossing_on_trajectory(sp3_k3, sp3_k3_traj):
    eq, bound = sp3_k3
    assert sc.build_report(eq, bound, sp3_k3_traj).crossing_index == 132


# -- monotone verification -----------------------------------------------


def test_monotone_verified_below_tolerance():
    res = verify_monotone_to_zero([0.04, 0.02, 0.01, 1e-13])
    assert res.status == VERIFIED
    assert res.final_value == 1e-13


def test_monotone_exact_zero_is_limit():
    res = verify_monotone_to_zero([0.04, 0.01, 0.0])
    assert res.status == VERIFIED
    assert res.final_value == 0.0


def test_monotone_violation_index():
    res = verify_monotone_to_zero([0.04, 0.05, 0.01])
    assert res.status == VIOLATION
    assert res.violation_index == 1


def test_monotone_inconclusive_when_still_large():
    res = verify_monotone_to_zero([0.4, 0.3, 0.2])
    assert res.status == "inconclusive"


def test_monotone_empty_rejected():
    with pytest.raises(ValueError):
        verify_monotone_to_zero([])


def test_monotone_on_predicted_subsequence(sp3_k3_traj):
    sub = sp3_k3_traj.terms[132::3]
    assert verify_monotone_to_zero(sub).status == VERIFIED


# -- limit classification ------------------------------------------------


def test_classify_zero_tail():
    cls = classify_limit([0.5, 0.1, 1e-6, 1e-9, 1e-12, 0.0], [0.0, 2.07])
    assert cls.kind == "zero"
    assert cls.value == 0.0


def test_classify_fixed_point_tail():
    tail = [2.072, 2.071, 2.0712, 2.0711, 2.07118]
    cls = classify_limit(tail, [0.0, 2.0711758192373013])
    assert cls.kind == "fixed-point"
    assert cls.value == pytest.approx(2.0711758192373013)


def test_classify_inconclusive_oscillation():
    cls = classify_limit([1.0, 3.0, 1.0, 3.0, 1.0, 3.0], [0.0, 2.0])
    assert cls.kind == "inconclusive"
    assert cls.value is None
    assert cls.tail_width == pytest.approx(2.0)


def test_classify_no_candidates():
    cls = classify_limit([1.0, 1.0, 1.0, 1.0], [])
    assert cls.kind == "inconclusive"


# -- report building -----------------------------------------------------


def test_build_report_three_classes(sp3_k3, sp3_k3_traj):
    eq, bound = sp3_k3
    report = sc.build_report(eq, bound, sp3_k3_traj)
    assert report.stride == 3
    assert report.crossing_index == 132
    assert not report.any_violated
    by_class = {p.residue_class: p for p in report.predictions}
    assert by_class[0].start_index == 132
    assert by_class[1].start_index == 166
    # the remaining class settles on the larger fixed point of the bound
    assert by_class[2].verdict == "converging-to-fixed-point"
    assert by_class[2].limit == pytest.approx(2.0711758192373013, abs=1e-2)
    kinds = {c.residue_class: c.kind for c in report.limits}
    assert kinds == {0: "zero", 1: "zero", 2: "fixed-point"}


def test_build_report_full_convergence(sp3_k1):
    eq, bound = sp3_k1
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 250)
    report = sc.build_report(eq, bound, traj)
    assert report.stride == 1
    assert report.crossing_index == 14
    assert report.full_convergence_from == 14
    assert report.limits[0].kind == "zero"


def test_build_report_k2(sp3_k2):
    eq, bound = sp3_k2
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 300)
    report = sc.build_report(eq, bound, traj)
    assert report.crossing_index == 25
    kinds = {c.residue_class: c.kind for c in report.limits}
    assert kinds[25 % 2] == "zero"


def test_build_report_json_roundtrip(sp3_k3, sp3_k3_traj):
    import json
    eq, bound = sp3_k3
    report = sc.build_report(eq, bound, sp3_k3_traj)
    data = json.loads(report.to_json())
    assert data["n0"] == 132
    assert data["stride"] == 3
    assert data["chain_verified"] is True
    assert len(data["limits"]) == 3
    assert data["window"][0] == 0.0


# -- the per-residue engine ------------------------------------------------


def test_prediction_is_a_report_without_limits(sp3_k3, sp3_k3_traj):
    eq, bound = sp3_k3
    report = sc.build_report(eq, bound, sp3_k3_traj)
    terms, h = sp3_k3_traj.terms, sc.symmetrize(bound)
    pred = sc.analyze_residues(
        terms, 3, lambda n0: sc.check_inequality_chain(terms, n0, 3, h),
        bound.validity)
    zero = [p for p in report.predictions if p.chain is not None]
    assert [(p.residue_class, p.start_index, p.verdict, p.chain)
            for p in zero] == [(p.residue_class, p.start_index, p.verdict,
                                p.chain) for p in pred.predictions]
    assert pred.limits == () and len(report.limits) == 3
    assert pred.crossing_index == report.crossing_index == 132


def test_first_only_keeps_the_class_of_the_first_crossing():
    window = ThresholdWindow(0.0, 1.0)
    terms = [5.0, 0.8, 0.5, 0.4, 0.2, 0.1]
    h = lambda u: 0.9 * abs(u)  # noqa: E731

    def chain(n0):
        return sc.check_inequality_chain(terms, n0, 2, h)
    both = sc.analyze_residues(terms, 2, chain, window)
    first = sc.analyze_residues(terms, 2, chain, window, first_only=True)
    assert [p.start_index for p in both.predictions] == [2, 1]
    assert [p.start_index for p in first.predictions] == [1]
    assert [p.chain for p in first.predictions] == [chain(1)]
    assert first.crossing_index == both.crossing_index == 1
    assert sc.analyze_residues([5.0, 6.0], 2, chain, window,
                               first_only=True).predictions == ()

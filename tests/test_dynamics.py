import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subconverge as sc
from subconverge.errors import DomainError, NonFiniteError


def test_evaluate_map_first_step(sp3_k3):
    eq, _ = sp3_k3
    # all-ones history: exponent 1.5 - 0.7 - 0.9 = -0.1
    assert sc.evaluate_map(eq, 3, (1.0, 1.0, 1.0)) == \
        pytest.approx(math.exp(-0.1), rel=1e-12)


def test_evaluate_map_zero_history_is_fixed(sp3_k3):
    eq, _ = sp3_k3
    assert sc.evaluate_map(eq, 5, (0.0, 0.0, 0.0)) == 0.0


def test_evaluate_map_second_step_matches_hand_arithmetic(sp3_k3):
    # x_4 = x_1^{3/2} e^{1.5 - 0.7 x_2 - 0.9 x_1} with x_1 = x_2 = 1
    eq, _ = sp3_k3
    x3 = math.exp(-0.1)
    assert sc.evaluate_map(eq, 4, (x3, 1.0, 1.0)) == \
        pytest.approx(math.exp(-0.1), rel=1e-12)


def test_evaluate_map_rejects_wrong_history_length(sp3_k3):
    eq, _ = sp3_k3
    with pytest.raises(ValueError):
        sc.evaluate_map(eq, 3, (1.0, 1.0))


def test_evaluate_map_rejects_domain_violation(sp3_k3):
    eq, _ = sp3_k3
    with pytest.raises(DomainError):
        sc.evaluate_map(eq, 3, (-1.0, 1.0, 1.0))


def test_iterate_two_steps(sp3_k3):
    eq, _ = sp3_k3
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 2)
    assert traj.terms[:3] == (1.0, 1.0, 1.0)
    assert traj.terms[3] == pytest.approx(0.9048374, abs=1e-7)
    assert traj.terms[4] == pytest.approx(math.exp(-0.1), rel=1e-12)


def test_iterate_zero_steps(sp3_k3):
    eq, _ = sp3_k3
    traj = sc.iterate(eq, (0.5, 0.6, 0.7), 0)
    assert traj.terms == (0.5, 0.6, 0.7)


def test_iterate_zero_initial_stays_zero(sp3_k3):
    eq, _ = sp3_k3
    traj = sc.iterate(eq, (0.0, 0.0, 0.0), 10)
    assert traj.terms == (0.0,) * 13


def test_recurrence_consistency_bitwise(sp3_k3, sp3_k3_traj):
    # every generated term must re-evaluate identically from its window
    eq, _ = sp3_k3
    terms = sp3_k3_traj.terms
    for n in range(3, len(terms)):
        window = (terms[n - 1], terms[n - 2], terms[n - 3])
        assert terms[n] == eq.evaluator(n, window)


def test_iterate_deterministic(sp3_k3):
    eq, _ = sp3_k3
    t1 = sc.iterate(eq, (1.0, 1.0, 1.0), 100)
    t2 = sc.iterate(eq, (1.0, 1.0, 1.0), 100)
    assert t1.terms == t2.terms


def test_iterate_truncates_on_overflow():
    eq = sc.EquationSpec(order=1, dominant_lag=1,
                         evaluator=lambda n, u: math.exp(u[0]) * 1e200,
                         name="blowup")
    traj = sc.iterate(eq, (700.0,), 10)
    assert traj.truncated
    assert len(traj.terms) < 11
    assert "non-finite" in traj.diagnostic


def test_extract_subsequence_figure_indices(sp3_k3_traj):
    sub = sp3_k3_traj.terms[132::3]
    assert sub[0] == sp3_k3_traj.terms[132]
    assert sub[1] == sp3_k3_traj.terms[135]
    assert sub[2] == sp3_k3_traj.terms[138]


def test_csv_export(sp3_k3):
    eq, _ = sp3_k3
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 2)
    lines = traj.to_csv().strip().split("\n")
    assert lines[0] == "n,x"
    assert len(lines) == 6
    assert lines[1] == "0,1.0"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.01, 3.0), min_size=3, max_size=3),
       st.integers(0, 40))
def test_iterate_matches_evaluate_map(init, steps):
    eq, _ = sc.make_sp3(3)
    traj = sc.iterate(eq, init, steps)
    for n in range(3, len(traj.terms)):
        window = tuple(traj.terms[n - i] for i in (1, 2, 3))
        assert traj.terms[n] == sc.evaluate_map(eq, n, window)


@pytest.mark.parametrize("init", [(math.inf, 1.0, 1.0), (1.0, math.nan, 1.0),
                                  (1.0, 1.0, -math.inf)])
def test_iterate_rejects_non_finite_initial_values(sp3_k3, init):
    eq, _ = sp3_k3
    with pytest.raises(NonFiniteError) as exc:
        sc.iterate(eq, init, 5)
    assert exc.value.index == 0


def test_iterate_system_rejects_non_finite_initial_values(adult_juvenile):
    with pytest.raises(NonFiniteError) as exc:
        sc.iterate_system(adult_juvenile, (1.0, math.inf), 5)
    assert exc.value.index == 0

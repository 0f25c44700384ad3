"""Regression tests for the iteration hot path.

The digests pin the exact bits of every orbit term.  They were taken
before coefficient sequences were resolved at build time and before
``iterate``/``iterate_system`` were streamlined, so any change to the
order of floating-point accumulation shows up here.  The two sigmoid-BH
digests were re-pinned when its translated map came to be written in
y = x - b, without the (v + b) - b round trip.  The diagnostics and
domain errors are pinned the same way.
"""

import dataclasses
import hashlib
import math
import struct
from fractions import Fraction

import pytest

import subconverge as sc
from subconverge.errors import DomainError

S = sc.ParameterSequence
STEPS = 30_000
SHORT = 3_000


def _digest(*series):
    h = hashlib.sha256()
    for terms in series:
        h.update(struct.pack("<%dd" % len(terms), *terms))
    return h.hexdigest()


def _scalar(eq, init, steps):
    return _digest(sc.iterate(eq, init, steps).terms)


def _planar(sysm, init, steps):
    orbit = sc.iterate_system(sysm, init, steps)
    fold = sc.iterate(sc.fold_planar(sysm), sc.fold_initial(sysm, *init),
                      steps)
    return _digest(orbit.xs, orbit.ys, fold.terms)


def _threed(sysm, eq, init, steps):
    states = sysm.iterate(init, steps)
    traj = sc.iterate(eq, sysm.fold_initial(init), steps - 2)
    return _digest(*zip(*states), traj.terms)


def _sp3(k):
    return _scalar(sc.make_sp3(k)[0], (1.0, 1.0, 1.0), STEPS)


def _ricker_m3():
    eq, _ = sc.make_generalized_ricker(sc.RickerFamilySpec(
        1.8, 2, 3, S.periodic((0.5, 1.0, 1.5)),
        (S.constant(0.4), S.tabulated((0.5, 0.7, 0.6, 0.8), 0.6),
         S.constant(0.3))))
    return _scalar(eq, (0.5, 1.0, 1.5), STEPS)


def _sigmoid_c1():
    spec = sc.SigmoidBHSpec(S.constant(2.0), S.constant(1.0), S.constant(2.0),
                            p=3, b=1.0, k=1, l=2)
    eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), 1.0)
    return _scalar(eq, (0.1, 0.1), STEPS)


def _sigmoid_variable():
    spec = sc.SigmoidBHSpec(S.periodic((1.5, 2.0, 2.5)),
                            S.tabulated((0.5, 1.0, 1.5), 1.0),
                            S.periodic((1.0, 2.0)), p=Fraction(4, 3),
                            b=1.0, k=2, l=1)
    eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), 1.0)
    return _scalar(eq, (0.2, 0.1), SHORT)


def _competition(swapped=False, steps=STEPS):
    sysm = sc.make_competition(sc.CompetitionParams.make(
        3.0, 3.0, 1.0, 1.0, 2.0, 2.0, 0.3, 0.3), swapped=swapped)
    return _planar(sysm, (2.0, 1.0), steps)


def _competition_variable():
    sysm = sc.make_competition(sc.CompetitionParams.make(
        (3.5, 4.5), 4.0, 1.0, S.tabulated((0.8, 1.2), 1.0), 2.0, 2.5,
        S.periodic((0.2, 0.4, 0.3)), 0.3, 1.5, 1.0))
    return _planar(sysm, (2.0, 1.0), SHORT)


def _adult_juvenile_variable():
    sysm = sc.make_adult_juvenile(S.periodic((0.6, 0.9)),
                                  S.tabulated((0.5, 1.5), 1.0),
                                  S.periodic((1.5, 2.5, 2.0)), 2.0)
    return _planar(sysm, (1.0, 1.0), SHORT)


def _threed_fold():
    sysm, eq = sc.make_3d_example(1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0)
    return _threed(sysm, eq, (0.9, 1.1, 1.0), STEPS)


def _threed_variable():
    sysm, eq = sc.make_3d_example((0.8, 1.2), S.tabulated((0.1, 0.2), 0.15),
                                  0.1, 1.0, 0.2, 1.0, 1.0, 1.0)
    return _threed(sysm, eq, (0.9, 1.1, 1.0), SHORT)


DIGESTS = [
    ("sp3-k1", lambda: _sp3(1),
     "1a0737b89eaa914f56755acb58b471dfc04de958f0558a4f6955f1b803d5b545"),
    ("sp3-k2", lambda: _sp3(2),
     "40ef950700608b23684f0e3ed42e2adcbd720241cd7922d68848ee5763d91e38"),
    ("sp3-k3", lambda: _sp3(3),
     "5f224d19d30a86325517167614c53942bd0567b550e9ca22b643a0f740e5484d"),
    ("ricker-m3-periodic-tabulated", _ricker_m3,
     "68ac9dc881276ab5039d83afc31aed902e0685178b945479e33c5c2efb5f58f6"),
    ("sigmoid-bh-translated-c1", _sigmoid_c1,
     "41e91afdcecf0e9250089d09b98ce9d2a614583a9831328c6fdd07a7be3b4145"),
    ("sigmoid-bh-variable", _sigmoid_variable,
     "3857dbc4ecb2ee90d75f37cca3e13968e10368b02b125c7b2eeb70951c1aca3a"),
    ("adult-juvenile", lambda: _planar(
        sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0), (1.0, 1.0), STEPS),
     "a3f2d315f415de747a3d74d3a8857efd48ca415eeaac8858cccb3cab9a05e9a7"),
    ("adult-juvenile-variable", _adult_juvenile_variable,
     "473a3b10e1bf2a4700e44697e771aa70a04d707735e0e88bb9e806da5bd28865"),
    ("competition", _competition,
     "1aad9abf435f20f65d16adce4325631b30cf3d1455ff033a80251c950977c1ba"),
    ("competition-variable", _competition_variable,
     "077e468109348c2738ef1aedf1baf963a44e9b6aaa7fb4b36c2c496dbca19704"),
    ("competition-swapped", lambda: _competition(True, SHORT),
     "e27ca94e72a814e7555910ac4ab738e1a0a101660744893c4010f0e8d9a0c94f"),
    ("threed-fold", _threed_fold,
     "943c3f2f6ac24924b2ac50f3c8da769da1a5a068ab7ff7e2301e17e0fb7ec8ba"),
    ("threed-variable", _threed_variable,
     "ce41be8c7171f63f89b692303169c7d1acb62200afa27b8e0aed5c9f19029615"),
]


@pytest.mark.parametrize("name,run,expected", DIGESTS,
                         ids=[d[0] for d in DIGESTS])
def test_orbit_digest_is_bit_identical(name, run, expected):
    assert run() == expected


# -- the evaluator field is the one iterate calls ------------------------


@pytest.mark.parametrize("steps", [0, 1, 250])
def test_replaced_evaluator_is_called_once_per_step(steps):
    eq, _ = sc.make_sp3(3)
    calls = []

    def counting(n, u):
        calls.append(n)
        return eq.evaluator(n, u)

    counted = dataclasses.replace(eq, evaluator=counting)
    traj = sc.iterate(counted, (1.0, 1.0, 1.0), steps)
    assert calls == list(range(3, 3 + steps))
    assert traj.terms == sc.iterate(eq, (1.0, 1.0, 1.0), steps).terms


def test_evaluator_receives_most_recent_term_first():
    seen = []

    def spy(n, u):
        seen.append(tuple(u))
        return 0.5 * u[0]

    eq = sc.EquationSpec(order=3, dominant_lag=1, evaluator=spy)
    sc.iterate(eq, (1.0, 2.0, 3.0), 2)
    assert seen == [(3.0, 2.0, 1.0), (1.5, 3.0, 2.0)]


# -- domain errors and truncation diagnostics, as before -------------------


def _lagged_domain():
    # A term may be u_1 (any x >= 0) but not u_2 (x <= 0.5).
    return sc.EquationSpec(order=2, dominant_lag=1,
                           evaluator=lambda n, u: 0.7 + 0.1 * u[1],
                           domain_low=(0.0, 0.0),
                           domain_high=(math.inf, 0.5))


def _uniform_domain():
    return sc.EquationSpec(order=2, dominant_lag=1,
                           evaluator=lambda n, u: u[0] - 0.5 * u[1] - 0.25,
                           domain_low=(0.0, 0.0),
                           domain_high=(math.inf, math.inf))


def test_lag_dependent_domain_error_unchanged():
    with pytest.raises(DomainError) as exc:
        sc.iterate(_lagged_domain(), (0.2, 0.3), 20)
    assert exc.value.index == 4
    assert str(exc.value) == \
        "history (0.73, 0.72) outside domain at step 4"


def test_uniform_domain_error_unchanged():
    with pytest.raises(DomainError) as exc:
        sc.iterate(_uniform_domain(), (0.5, 0.8), 20)
    assert exc.value.index == 4
    assert str(exc.value) == \
        "history (-0.35, 0.30000000000000004) outside domain at step 4"


def test_domain_exit_on_the_last_term_is_not_an_error():
    # The bad term is never part of a window the map is applied to.
    traj = sc.iterate(_uniform_domain(), (0.5, 0.8), 2)
    assert traj.terms[-1] < 0 and not traj.truncated


@pytest.mark.parametrize("evaluator,init,length,diagnostic", [
    (lambda n, u: math.exp(u[0]) * 1e200, (700.0,), 1,
     "non-finite value inf at step 1"),
    (lambda n, u: math.exp(u[0]) * 1e200, (1.0,), 2,
     "overflow at step 2: math range error"),
    (lambda n, u: u[0] ** 300.0, (3.0,), 2,
     "overflow at step 2: (34, 'Numerical result out of range')"),
    (lambda n, u: u[0] * 1e300, (2.0,), 2,
     "non-finite value inf at step 2"),
    (lambda n, u: (u[0] - 1.0) * math.inf if n > 3 else u[0], (1.0,), 4,
     "non-finite value nan at step 4"),
], ids=["inf", "exp-overflow", "pow-overflow", "product-inf", "nan"])
def test_truncation_diagnostics_unchanged(evaluator, init, length,
                                          diagnostic):
    eq = sc.EquationSpec(order=1, dominant_lag=1, evaluator=evaluator)
    traj = sc.iterate(eq, init, 10)
    assert len(traj.terms) == length
    assert traj.diagnostic == diagnostic


# -- resolved coefficient accessors ----------------------------------------


@pytest.mark.parametrize("seq", [
    S.constant(1.5),
    S.periodic((0.5, 1.0, 1.5)),
    S.tabulated((0.1, 0.2, 0.3), 0.6),
], ids=["constant", "periodic", "tabulated"])
def test_resolve_matches_call(seq):
    resolved = seq.resolve()
    for n in range(-2, 12):
        value = resolved(n) if callable(resolved) else resolved
        assert value == seq(n)


def test_constant_resolves_to_its_float():
    assert S.constant(0.7).resolve() == 0.7

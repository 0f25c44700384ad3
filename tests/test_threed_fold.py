"""The threed fold built by the Ricker map builder against its own
evaluator.

``make_3d_example`` builds its order-3 fold with the generalized Ricker
builder: lam = cr, k = m = 3, the coefficient a_{n-1} + cr ln s and the
lag coefficients (b, c p_{n-2} + d s, c q s).  ``ref_fold`` below is the
two-form evaluator the fold had before, kept verbatim as the oracle, with
the Ricker map's log form added where u_3^cr or exp(e) overflows on its
own (``with_log_form``).  On every input both must give the same terms
(compared by repr, so every double is the same bits) and the same
diagnostic, or raise the same exception type with the same message and
index.  The fold's orbit runs its map inlined in ``iterate``'s loop, and
the oracle's runs it called from the same loop.
"""

import dataclasses
import json
import math
import random
from typing import Sequence

import pytest
from click.testing import CliRunner

import subconverge as sc
from subconverge import cli, models
from subconverge.dynamics import EquationSpec, iterate_system
from subconverge.errors import SubconvergeError
from subconverge.sequences import ParameterSequence as S


# -- reference implementation (verbatim) ---------------------------------


def _varying(*resolved) -> bool:
    return any(map(callable, resolved))


def _at(resolved):
    return resolved if callable(resolved) else (lambda n: resolved)


def ref_fold(a_seq, p_seq, b, c, d, q, r, s) -> EquationSpec:
    cr = c * r
    cr_ln_s = cr * math.log(s)
    cqs = c * q * s
    ds = d * s
    exp = math.exp
    a, p = a_seq.resolve(), p_seq.resolve()
    if _varying(a, p):
        a_at, p_at = _at(a), _at(p)

        def evaluator(n: int, u: Sequence[float]) -> float:
            e = a_at(n - 1) + cr_ln_s - b * u[0] \
                - (c * p_at(n - 2) + ds) * u[1] - cqs * u[2]
            return u[2] ** cr * exp(e)
    else:
        a_0, b_2 = a + cr_ln_s, c * p + ds

        def evaluator(n: int, u: Sequence[float]) -> float:
            return u[2] ** cr * exp(a_0 - b * u[0] - b_2 * u[1] - cqs * u[2])

    return EquationSpec(order=3, dominant_lag=3, evaluator=evaluator,
                        domain_low=(0.0,) * 3, domain_high=(math.inf,) * 3,
                        name="threed-folded", origin_fixed=cr > 0)


def with_log_form(ref: EquationSpec, a_seq, p_seq, b, c, d, q, r, s
                  ) -> EquationSpec:
    """``ref``, or where it overflows exp(cr ln u_3 + e) with the fold's
    exponent e accumulated left to right (0.0 at u_3 = 0); ref's own error
    where that overflows too, or u_3 < 0."""
    cr, ds, cqs = c * r, d * s, c * q * s
    cr_ln_s = cr * math.log(s)
    a_at, p_at = _at(a_seq.resolve()), _at(p_seq.resolve())
    base = ref.evaluator

    def evaluator(n: int, u: Sequence[float]) -> float:
        try:
            return base(n, u)
        except OverflowError:
            e = a_at(n - 1) + cr_ln_s
            for coeff, u_i in zip((b, c * p_at(n - 2) + ds, cqs), u):
                e -= coeff * u_i
            try:
                return math.exp(cr * math.log(u[2]) + e) if u[2] else 0.0
            except (OverflowError, ValueError):
                pass
            raise
    return dataclasses.replace(ref, evaluator=evaluator)


# -- comparison ------------------------------------------------------------

KINDS = ("constant", "periodic", "tabulated")


def _draw_seq(rng: random.Random, kind: str, lo: float, hi: float) -> S:
    if kind == "constant":
        return S.constant(rng.uniform(lo, hi))
    values = [rng.uniform(lo, hi) for _ in range(rng.randint(1, 5))]
    if kind == "periodic":
        return S.periodic(values)
    return S.tabulated(values, rng.uniform(lo, hi))


def _outcome(eq: EquationSpec, init, steps: int):
    try:
        traj = sc.iterate(eq, init, steps)
    except SubconvergeError as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return repr(traj.terms), traj.diagnostic


def _evaluations(eq: EquationSpec, histories):
    out = []
    for n, u in histories:
        try:
            out.append(repr(eq.evaluator(n, u)))
        except OverflowError as exc:
            out.append(("OverflowError", str(exc)))
    return out


@pytest.mark.parametrize("a_kind", KINDS)
@pytest.mark.parametrize("p_kind", KINDS)
def test_fold_matches_reference_evaluator(a_kind, p_kind):
    rng = random.Random("threed-fold:%s:%s" % (a_kind, p_kind))
    truncated = 0
    for _ in range(150):
        # Negative p, and d > 0 in most draws; a up to 6 with cr up to 3
        # makes some orbits overflow, so diagnostics are compared too.
        a = _draw_seq(rng, a_kind, -1.0, 6.0)
        p = _draw_seq(rng, p_kind, -1.0, 0.5)
        b, d = rng.uniform(0.0, 0.5), rng.choice((0.0, rng.uniform(0.0, 0.5)))
        c, q, r, s = (rng.uniform(0.2, 1.7) for _ in range(4))
        sysm, eq = sc.make_3d_example(a, p, b, c, d, q, r, s)
        ref = with_log_form(ref_fold(a, p, b, c, d, q, r, s), a, p, b, c, d,
                            q, r, s)
        assert (eq.order, eq.dominant_lag, eq.domain_low, eq.domain_high,
                eq.name, eq.origin_fixed) == \
            (ref.order, ref.dominant_lag, ref.domain_low, ref.domain_high,
             ref.name, ref.origin_fixed)
        init = tuple(rng.uniform(0.0, 3.0) for _ in range(3))
        got = _outcome(eq, init, 80)
        assert got == _outcome(ref, init, 80)
        truncated += got[-1] is not None
        # Steps below the order too: a_{n-1} and p_{n-2} at n = 0, 1.
        histories = [(n, tuple(rng.uniform(0.0, 4.0) for _ in range(3)))
                     for n in range(12)]
        assert _evaluations(eq, histories) == _evaluations(ref, histories)
    assert truncated > 0


def test_fold_reproduces_the_direct_orbit_with_negative_p():
    a = S.tabulated((0.9, 1.1, 0.7), 1.0)
    p = S.periodic((-0.4, 0.2))
    sysm, eq = sc.make_3d_example(a, p, 0.1, 0.8, 0.3, 0.9, 1.2, 0.7)
    init = (0.9, 0.4, 1.1)
    states = sysm.iterate(init, 60)
    traj = sc.iterate(eq, sysm.fold_initial(init), len(states) - 3)
    assert len(traj.terms) == len(states)
    for (x, _, _), folded in zip(states, traj.terms):
        assert abs(x - folded) <= 1e-9 * max(abs(x), abs(folded), 1.0)


@pytest.mark.parametrize("steps", [0, 1, 2, 40])
def test_the_cli_fold_iterates_the_system_once(monkeypatch, steps):
    # ``fold`` takes x_0 .. x_2 from the orbit it compares, which runs
    # max(steps, 2) steps, and compares its first steps + 1 terms.
    calls = []

    def counting(sysm, initial, n):
        calls.append(n)
        return iterate_system(sysm, initial, n)
    monkeypatch.setattr(cli, "iterate_system", counting)
    monkeypatch.setattr(models, "iterate_system", counting)
    res = CliRunner().invoke(cli.main, ["fold", "--model", "threed", "--init",
                                        "1,0.3,0.7", "--steps", str(steps)])
    payload = json.loads(res.stdout)
    assert res.exit_code == 0 and calls == [max(steps, 2)]
    assert payload["passed"] and payload["steps"] == steps + 1


def test_fold_initial_reads_a_given_orbit():
    sysm, _ = sc.make_3d_example(0.5, 0.4, 0.2, 0.8, 0.3, 0.9, 1.2, 0.7)
    init = (1.0, 0.3, 0.7)
    orbit = iterate_system(sysm, init, 9)
    assert sysm.fold_initial(init, orbit) == sysm.fold_initial(init) \
        == tuple(orbit.xs[:3])
    with pytest.raises(SubconvergeError):   # the orbit ends before x_2
        sysm.fold_initial(init, iterate_system(sysm, (1.0, 0.3, 0.0), 5))

"""Acceptance suite: end-to-end checks of the package's core claims.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s``
or in captured output on failure) and asserts the same condition.
"""

import math
import random

import pytest

import subconverge as sc

U_BAR = 2.0711758192373013      # larger fixed point of the k=3 bound
ALPHA_K3 = 0.0549647352569813   # smaller fixed point / decline threshold


def _report(label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("ACCEPTANCE %s: %s%s" % (label, status, suffix))
    assert ok, "%s failed%s" % (label, suffix)


def test_acceptance_01_k1_full_convergence():
    eq, bound = sc.make_sp3(1)
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 250)
    n0 = sc.build_report(eq, bound, traj).crossing_index
    tail = list(traj.terms[n0:])
    mono = sc.verify_monotone_to_zero(tail)
    settled = abs(traj.terms[n0 + 200]) < 1e-10
    _report("01 lag-1 full convergence",
            n0 == 14 and mono.status == "verified" and settled,
            "n0=%s final=%r" % (n0, traj.terms[n0 + 200]))


def test_acceptance_02_k2_even_subsequence():
    eq, bound = sc.make_sp3(2)
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 300)
    report = sc.build_report(eq, bound, traj)
    pred = {p.residue_class: p for p in report.predictions}.get(25 % 2)
    ok = (report.crossing_index == 25 and pred is not None
          and pred.start_index == 25 and pred.chain_verified)
    _report("02 lag-2 subsequence with verified chain", ok,
            "crossing=%s" % report.crossing_index)


def test_acceptance_03_k3_two_zero_classes_one_positive():
    eq, bound = sc.make_sp3(3)
    traj = sc.iterate(eq, (1.0, 1.0, 1.0), 450)
    report = sc.build_report(eq, bound, traj)
    starts = {p.residue_class: p.start_index for p in report.predictions
              if p.verdict == "converging-to-zero"}
    entries_ok = (len(starts) == 2
                  and abs(starts[0] - 132) <= 5
                  and abs(starts[1] - 166) <= 5)
    small_ok = all(abs(traj.terms[n]) < 1e-8
                   for n in range(400, len(traj.terms))
                   if n % 3 in starts)
    third = [c for c in report.limits if c.residue_class == 2][0]
    third_ok = (third.kind == "fixed-point"
                and abs(third.value - U_BAR) <= 1e-2)
    _report("03 lag-3 split: two zero classes, one positive",
            entries_ok and small_ok and third_ok,
            "starts=%s third=%s" % (starts, third.value))


def test_acceptance_04_fixed_points_against_sign_scan():
    cases = [(1.5, 1.5, 0.9), (1.5, 1.5, 0.7), (2.0, 2.0, 1.0),
             (1.8, 1.0, 0.5)]
    ok = True
    details = []
    for lam, a, b in cases:
        fps = sc.ricker_fixed_points(lam, a, b)
        # residual of g(u) = u at every reported root
        for u in fps.as_tuple():
            if abs(u ** (lam - 1.0) * math.exp(a - b * u) - 1.0) > 1e-9:
                ok = False
                details.append("residual %g at u=%r" % (lam, u))
        # independent oracle: sign scan of the concave log form
        phi = lambda u: (lam - 1.0) * math.log(u) - b * u + a
        hi = 4.0 * max(1.0, (lam - 1.0) / b, a / b + 1.0)
        pts = 1_000_000
        scan_roots = []
        prev = phi(hi / pts)
        for i in range(2, pts + 1):
            u = hi * i / pts
            cur = phi(u)
            if (prev < 0) != (cur < 0):
                scan_roots.append(u)
            prev = cur
        if len(scan_roots) != len(fps.as_tuple()) and fps.kind != "tangent":
            ok = False
            details.append("count mismatch for %r" % ((lam, a, b),))
        for u_scan, u_solved in zip(scan_roots, fps.as_tuple()):
            if abs(u_scan - u_solved) > hi / pts + 1e-6:
                ok = False
                details.append("root mismatch %r vs %r" % (u_scan, u_solved))
    _report("04 fixed points match independent sign scan", ok,
            "; ".join(details))


def test_acceptance_05_tangency_boundary_case():
    holds, rhs = sc.ricker_threshold_condition(2.0, 1.0, 1.0)
    fps = sc.ricker_fixed_points(2.0, 1.0, 1.0)
    ok = (holds and rhs == pytest.approx(1.0, abs=1e-12)
          and fps.kind == "tangent"
          and fps.u_star == pytest.approx(1.0, abs=1e-9))
    _report("05 threshold condition equality is the tangency case", ok,
            "rhs=%r kind=%s" % (rhs, fps.kind))


def test_acceptance_06_planar_fold_consistency():
    sysm = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    check = sc.check_fold_consistency(sysm, (1.0, 1.0), 100, tol=1e-9)
    # explicit y-recovery on top of the built-in check, verified by
    # substitution: f_n(x_n, sigma_n(x_n, x_{n+1})) = x_{n+1}
    orbit = sc.iterate_system(sysm, (1.0, 1.0), 20)
    xs, ys = orbit.xs, orbit.ys

    def recovered(n):
        y = sysm.sigma(n, xs[n], xs[n + 1])
        return (abs(y - ys[n]) <= 1e-9 * max(1.0, abs(ys[n]))
                and abs(sysm.f(n, xs[n], y) - xs[n + 1])
                <= 1e-9 * max(1.0, abs(xs[n + 1])))
    rec_ok = all(recovered(n) for n in range(len(orbit) - 1))
    _report("06 planar fold agrees with direct orbit",
            check.passed and rec_ok,
            "max_dev_x=%g max_dev_y=%g" % (check.max_dev_x, check.max_dev_y))


def test_acceptance_07_threed_fold_random_draws():
    rng = random.Random(20260826)
    worst = 0.0
    ok = True
    for _ in range(10):
        a = rng.uniform(-0.5, 1.0)
        p = rng.uniform(-0.5, 0.5)
        b = rng.uniform(0.0, 0.3)
        c = rng.uniform(0.3, 1.2)
        d = rng.uniform(0.0, 0.3)
        q = rng.uniform(0.3, 1.2)
        r = rng.uniform(0.3, 1.2)
        s = rng.uniform(0.3, 1.2)
        sysm, eq = sc.make_3d_example(a, p, b, c, d, q, r, s)
        init = (rng.uniform(0.3, 1.5), rng.uniform(-0.5, 0.5),
                rng.uniform(0.3, 1.5))
        states = sysm.iterate(init, 50)
        xs = [st[0] for st in states]
        traj = sc.iterate(eq, tuple(sysm.fold_initial(init)), len(xs) - 3)
        for x_direct, x_folded in zip(xs, traj.terms):
            dev = abs(x_direct - x_folded) / max(abs(x_direct),
                                                 abs(x_folded), 1.0)
            worst = max(worst, dev)
            if dev > 1e-9:
                ok = False
    _report("07 3D fold matches direct orbits on random draws", ok,
            "worst relative deviation %.3g" % worst)


def test_acceptance_08_competition_joint_extinction():
    params = sc.CompetitionParams.make(1.0, 1.0, 1.0, 1.0, 2.0, 2.0)
    sysm = sc.make_competition(params)
    verdict = sc.check_tail_envelope(sysm)
    rng = random.Random(8)
    ok = verdict.applicable
    for _ in range(20):
        init = (rng.uniform(0.1, 5.0), rng.uniform(0.1, 5.0))
        orbit = sc.iterate_system(sysm, init, 200)
        xs, ys = orbit.xs, orbit.ys
        if not (xs[-1] < 1e-8 and ys[-1] < 1e-8):
            ok = False
        # x decreases monotonically from the very first step
        if not all(b < a for a, b in zip(xs, xs[1:]) if a > 0):
            ok = False
    _report("08 competition: joint extinction from any positive start", ok)


def test_acceptance_09_competition_threshold_sharpness():
    # smallest positive root of u^2 - 3u + 2: exactly 1
    res = sc.competition_threshold(3.0, 2.0, 2.0)
    alpha_ok = res.alpha == 1.0 and not res.tangent
    params = sc.CompetitionParams.make(3.0, 3.0, 2.0, 2.0, 2.0, 2.0)
    sysm = sc.make_competition(params)
    inside = sc.iterate_system(sysm, (0.99, 0.99), 400)
    xs_in = inside.xs
    inside_ok = all(b < a for a, b in zip(xs_in, xs_in[1:]) if a > 0)
    # recorded for documentation only: behavior just above the threshold
    outside = sc.iterate_system(sysm, (1.01, 1.01), 400)
    _report("09 competition threshold exactly 1",
            alpha_ok and inside_ok,
            "alpha=%r inside_tail=%.3g outside_tail=%.3g"
            % (res.alpha, xs_in[-1], outside.xs[-1]))


def test_acceptance_10_alternating_parity():
    sysm = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    verdict = sc.check_alternating_envelopes(sysm)
    orbit = sc.iterate_system(sysm, (1.0, 1.0), 300)
    report = sc.predict_alternating_convergence(sysm, orbit, verdict.alpha)
    n0 = report.crossing_index
    pred = report.predictions[0]
    x_sub = orbit.xs[n0::2]
    x_ok = (pred.chain_verified and x_sub[-1] < 1e-8
            and all(b < a for a, b in zip(x_sub, x_sub[1:]) if a > 0))
    parity_ok = (n0 % 2 == 1 and pred.residue_class == n0 % 2)
    # the even-indexed y-subsequence follows: y_n = x_{n+1}/s
    start_y = n0 - 1
    y_sub = orbit.ys[start_y::2]
    y_ok = start_y % 2 == 0 and y_sub[-1] < 1e-8
    _report("10 alternating parity: odd x-subsequence, even y-subsequence",
            verdict.applicable and x_ok and parity_ok and y_ok,
            "n0=%s parity=%s" % (n0, pred.residue_class))


def test_acceptance_11_soundness_random_families():
    violated = 0

    def run(eq, bound, init, steps=300):
        nonlocal violated
        traj = sc.iterate(eq, init, steps)
        if sc.build_report(eq, bound, traj).any_violated:
            violated += 1

    # built-in scalar models first
    for k in (1, 2, 3):
        run(*sc.make_sp3(k), (1.0, 1.0, 1.0))
    bh_spec = sc.SigmoidBHSpec(sc.ParameterSequence.constant(2.0),
                               sc.ParameterSequence.constant(1.0),
                               sc.ParameterSequence.constant(2.0),
                               p=3, b=1.0, k=1, l=2)
    bh_eq = sc.translate_to_origin(sc.make_sigmoid_bh(bh_spec), 1.0)
    run(bh_eq, sc.sigmoid_bh_bound(bh_spec), (0.1, 0.1))

    # 100 random admissible draws, fixed seed
    rng = random.Random(1234)
    for _ in range(100):
        lam = rng.uniform(1.2, 2.5)
        m = rng.randint(1, 3)
        k = rng.randint(1, m)
        a = rng.uniform(0.0, 2.0)
        bs = [rng.uniform(0.1, 1.5) for _ in range(m)]
        spec = sc.RickerFamilySpec(
            lam, k, m, sc.ParameterSequence.constant(a),
            tuple(sc.ParameterSequence.constant(b) for b in bs))
        eq, bound = sc.make_generalized_ricker(spec)
        run(eq, bound, [rng.uniform(0.05, 3.0) for _ in range(m)])
    _report("11 no violated predictions across models and random draws",
            violated == 0, "%d violated" % violated)


def test_acceptance_12_off_origin_fixed_point():
    spec = sc.SigmoidBHSpec(sc.ParameterSequence.constant(2.0),
                            sc.ParameterSequence.constant(0.0),
                            sc.ParameterSequence.constant(1.0),
                            p=3, b=1.0, k=1, l=1)
    eq = sc.make_sigmoid_bh(spec)
    alpha, window = sc.sigmoid_bh_window(2.0, 3.0, 1.0)
    window_ok = (window.lo == pytest.approx(1.0 - 2.0 ** -0.5, abs=1e-5)
                 and window.hi == pytest.approx(1.0 + 2.0 ** -0.5, abs=1e-5))
    ok = window_ok
    worst = 0.0
    for x0 in (0.3, 0.5, 0.9, 1.3, 1.7):
        assert window.lo < x0 < window.hi
        traj = sc.iterate(eq, (x0,), 200)
        devs = [abs(t - 1.0) for t in traj.terms]
        worst = max(worst, devs[-1])
        if devs[-1] >= 1e-8 or not all(b <= a for a, b in
                                       zip(devs, devs[1:])):
            ok = False
    _report("12 convergence to the off-origin fixed point", ok,
            "window=(%.5f, %.5f) worst final deviation %.3g"
            % (window.lo, window.hi, worst))

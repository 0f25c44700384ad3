import json

import pytest
from click.testing import CliRunner

from subconverge import systems
from subconverge.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


# -- simulate ------------------------------------------------------------


def test_simulate_sp3_csv(runner):
    res = runner.invoke(main, ["simulate", "--model", "sp3", "--k", "3",
                               "--init", "1,1,1", "--steps", "300"])
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0] == "n,x"
    assert len(lines) == 304  # header + 3 initial + 300 generated
    assert lines[1] == "0,1.0"


def test_simulate_zero_initial(runner):
    res = runner.invoke(main, ["simulate", "--model", "sp3", "--k", "3",
                               "--init", "0,0,0", "--steps", "5"])
    assert res.exit_code == 0
    rows = res.output.strip().split("\n")[1:]
    assert all(row.endswith(",0.0") for row in rows)


def test_simulate_adult_juvenile(runner):
    res = runner.invoke(main, ["simulate", "--model", "adult-juvenile",
                               "--init", "1,1", "--steps", "2"])
    assert res.exit_code == 0
    lines = res.output.strip().split("\n")
    assert lines[0] == "n,x,y"
    # x_1 = 0.8, y_1 = 1; x_2 = 0.8, y_2 = 0.8^2 e^{2 - 0.8 - 1}
    assert lines[2].startswith("1,0.8,1.0")


def test_simulate_json_format(runner):
    res = runner.invoke(main, ["simulate", "--model", "sp3", "--k", "2",
                               "--init", "1,1,1", "--steps", "10",
                               "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["model"] == "sp3"
    assert len(data["terms"]) == 13


def test_simulate_sigmoid_bh_reports_original_coordinates(runner):
    res = runner.invoke(main, ["simulate", "--model", "sigmoid-bh",
                               "--a", "2", "--c", "1", "--q", "2",
                               "--p", "3", "--b", "1", "--k", "1",
                               "--l", "2", "--init", "1.1,1.1",
                               "--steps", "50"])
    assert res.exit_code == 0
    last = res.output.strip().split("\n")[-1]
    # converges to the fixed point b = 1, not to 0
    assert abs(float(last.split(",")[1]) - 1.0) < 1e-6


def test_simulate_threed_csv(runner):
    res = runner.invoke(main, ["simulate", "--model", "threed",
                               "--a", "0.5", "--p", "0.4", "--b", "0.2",
                               "--c", "0.8", "--d", "0.1", "--q", "0.6",
                               "--r", "1.5", "--s", "0.9",
                               "--init", "1,0.3,0.7", "--steps", "5"])
    assert res.exit_code == 0
    assert res.output.startswith("n,x,y,z")


def test_simulate_writes_file(runner, tmp_path):
    out = tmp_path / "traj.csv"
    res = runner.invoke(main, ["simulate", "--model", "sp3", "--k", "3",
                               "--steps", "5", "--out", str(out)])
    assert res.exit_code == 0
    assert out.read_text().startswith("n,x")


def test_simulate_requires_model(runner):
    res = runner.invoke(main, ["simulate", "--steps", "5"])
    assert res.exit_code == 2


def test_simulate_bad_init(runner):
    res = runner.invoke(main, ["simulate", "--model", "sp3",
                               "--init", "one,two"])
    assert res.exit_code == 2


def test_simulate_blowup_exit_code(runner):
    # Huge growth: x_3 = x_2^5 e^(10 - 1e-300 x_2) is about e^787, past
    # the largest double in the log form too.
    res = runner.invoke(main, ["simulate", "--model", "ricker",
                               "--lambda", "5", "--k", "1", "--a", "10",
                               "--b", "1e-300", "--init", "50",
                               "--steps", "50"])
    assert res.exit_code == 3
    assert "overflow at step 3: (34, 'Numerical result out of range')" \
        in res.output


@pytest.mark.parametrize("args,row", [
    # x_2^5 overflows, but e^(10 - 1e-15 x_2) is 0: x_3 is 0.0
    (["--model", "ricker", "--lambda", "5", "--k", "1", "--a", "10", "--b",
      "1e-15", "--init", "50"], "3,0.0"),
    # 2.5^1000 overflows, but x_1 = e^(1000 ln 2.5 - 2500) is 0.0
    (["--model", "ricker", "--lambda", "1000", "--b", "1000", "--init",
      "2.5"], "1,0.0"),
    # y^2 = 1e400 overflows in both maps, but x_1 rounds to 0 and y_1 to 1
    (["--model", "competition", "--b1", "1", "--delta3", "2", "--init",
      "1,1e200"], "1,0.0,1.0"),
], ids=["ricker-exp-underflows", "ricker-power-overflows", "competition"])
def test_an_overflowing_power_with_a_finite_term_exits_0(runner, args, row):
    res = runner.invoke(main, ["simulate"] + args + ["--steps", "3"])
    assert res.exit_code == 0, res.output
    assert row in res.output.splitlines()


# -- analyze -------------------------------------------------------------


def test_analyze_sp3_k2(runner):
    res = runner.invoke(main, ["analyze", "--model", "sp3", "--k", "2",
                               "--init", "1,1,1", "--steps", "300"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["n0"] == 25
    assert data["stride"] == 2
    assert data["chain_verified"] is True


def test_analyze_sp3_k1_full_convergence(runner):
    res = runner.invoke(main, ["analyze", "--model", "sp3", "--k", "1",
                               "--init", "1,1,1", "--steps", "250"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["full_convergence_from"] == 14


def test_analyze_sp3_k3_limits(runner):
    res = runner.invoke(main, ["analyze", "--model", "sp3", "--k", "3",
                               "--init", "1,1,1", "--steps", "450"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    kinds = {c["residue_class"]: c["classification"]
             for c in data["limits"]}
    assert kinds == {0: "zero", 1: "zero", 2: "fixed-point"}


def test_analyze_sigmoid_bh_offsets_limit(runner):
    res = runner.invoke(main, ["analyze", "--model", "sigmoid-bh",
                               "--a", "2", "--c", "1", "--q", "2",
                               "--p", "3", "--b", "1", "--k", "1",
                               "--l", "2", "--init", "1.1,1.1",
                               "--steps", "100"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["limit_offset"] == 1.0
    # index 0 is initial data; the guarantee starts at index 1
    assert data["n0"] == 1


def test_analyze_planar_tail(runner):
    res = runner.invoke(main, ["analyze", "--model", "competition",
                               "--r1", "1", "--r2", "1", "--a1", "1",
                               "--a2", "1", "--init", "0.9,0.9",
                               "--steps", "100"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["criterion"] == "tail"
    assert data["full_convergence_from"] == 0


def test_analyze_planar_alternating(runner):
    res = runner.invoke(main, ["analyze", "--model", "adult-juvenile",
                               "--init", "1,1", "--steps", "200"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["criterion"] == "alternating"
    assert data["stride"] == 2


def test_analyze_planar_checks_alternating_only_without_tail(runner,
                                                            monkeypatch):
    import subconverge.systems as systems
    calls = []
    check = systems.check_envelope_cycle

    def counted(sysm, envelopes):
        if len(envelopes) == 2:     # the alternating cycle (fbar, gbar)
            calls.append(sysm.name)
        return check(sysm, envelopes)

    monkeypatch.setattr(systems, "check_envelope_cycle", counted)
    for model in ("competition", "adult-juvenile"):
        res = runner.invoke(main, ["analyze", "--model", model, "--init",
                                   "0.9,0.9", "--steps", "20"])
        assert res.exit_code == 0
    assert calls == ["adult-juvenile"]
    # So an alternating envelope that overflows on its grid no longer
    # fails a system the tail criterion covers (it exited 3).
    res = runner.invoke(main, ["analyze", "--model", "competition",
                               "--delta2", "400", "--init", "0.5,0.5",
                               "--steps", "20"])
    assert res.exit_code == 0
    assert json.loads(res.output)["criterion"] == "tail"


@pytest.mark.parametrize("args", [
    ["--model", "adult-juvenile", "--s", "0.01", "--init", "1,1",
     "--steps", "50"],
    ["--model", "competition-swapped", "--b1", "1e6", "--init", "1,1",
     "--steps", "30"],
], ids=["adult-juvenile-small-s", "competition-swapped-large-b1"])
def test_analyze_planar_uses_the_certified_cycle(runner, monkeypatch, args):
    # Both pass the tail cycle's domination grid, but only the alternating
    # cycle is certified: the tail's scan raises (exit 5) or gives
    # alpha = inf and a false soundness alarm (exit 4).
    import subconverge.systems as systems

    def no_scan(*_, **__):
        raise AssertionError("the threshold scan ran")

    monkeypatch.setattr(systems, "solve_threshold", no_scan)
    res = runner.invoke(main, ["analyze"] + args)
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["criterion"] == "alternating"


@pytest.mark.parametrize("args", [
    ["--model", "competition", "--delta1", "400"],
    ["--model", "competition-swapped", "--delta2", "400"],
    ["--model", "adult-juvenile", "--lambda", "400"],
], ids=["competition", "competition-swapped", "adult-juvenile"])
def test_a_certified_envelope_is_not_evaluated_on_a_grid(runner, args):
    # Each of these envelopes overflows on the domination grid, up to
    # u = 10 (it exited 3); the builder's certificate proves domination,
    # so no grid runs and the orbit from (0.5, 0.5) is analyzed.
    res = runner.invoke(main, ["analyze"] + args + ["--init", "0.5,0.5",
                                                    "--steps", "20"])
    assert res.exit_code == 0, res.output
    assert not any(p["verdict"] == "violated"
                   for p in json.loads(res.output)["predictions"])


ONE_ULP = ["--r1", "2.4775435411239406", "--r2", "2.1597108745573808",
           "--a1", "2.0098908143898324", "--a2", "1.596075972834719",
           "--delta1", "2.7115852941823113", "--delta2", "2.445635238355775",
           "--b1", "0.5608716508659177", "--b2", "0.880629950850026",
           "--init", "2.4008015981807587,0.5526209873182195",
           "--steps", "300"]


@pytest.mark.parametrize("args", [
    ["--delta1", "30", "--init", "1,1", "--steps", "30"],
    ["--delta1", "400", "--init", "0.5,0.5", "--steps", "20"],
    ONE_ULP,
], ids=["saturated-delta1-30", "overflowing-delta1-400", "one-ulp"])
def test_swapped_cycles_once_refused_exit_0(runner, monkeypatch, args):
    # The monotonicity grid rejected f̄₁ where it saturates (exit 5) and
    # overflowed on it at d1 = 400 (exit 3); the x-only chain through
    # f̄₁∘f̄₂ failed by one ulp on the last orbit (exit 4).  The links
    # run through the orbit's own y-terms, and no grid runs.
    import subconverge.systems as systems

    def no_grid(*_, **__):
        raise AssertionError("an envelope grid ran")

    monkeypatch.setattr(systems, "_domination_grid", no_grid)
    monkeypatch.setattr(systems, "_monotonicity_grid", no_grid)
    res = runner.invoke(main, ["analyze", "--model", "competition-swapped"]
                        + args)
    assert res.exit_code == 0, res.output
    predictions = json.loads(res.output)["predictions"]
    assert predictions
    assert not any(p["verdict"] == "violated" for p in predictions)


@pytest.mark.parametrize("params", [
    ["--model", "sp3", "--k", "1"],
    ["--model", "sp3", "--k", "2"],
    ["--model", "sp3", "--k", "3"],
    ["--model", "ricker"],
    ["--model", "ricker", "--lambda", "1.1", "--a", "2.5", "--b", "1"],
    ["--model", "adult-juvenile"],
    ["--model", "adult-juvenile", "--lambda", "21", "--r", "-39"],
    ["--model", "adult-juvenile", "--r", "-1"],
    ["--model", "competition-swapped", "--r1", "3", "--r2", "3", "--a1", "1",
     "--a2", "1"],
    ["--model", "competition-swapped", "--r1", "4", "--r2", "2", "--a1",
     "0.5", "--delta1", "3", "--delta2", "1.5"],
    ["--model", "competition-swapped"],
    ["--model", "competition", "--r1", "50", "--a1", "600"],
    ["--model", "competition", "--r1", "2", "--a1", "0.5", "--delta1", "3"],
    {"model": "sp3", "params": {"k": 1, "rigorous": True}},
], ids=["sp3-k1", "sp3-k2", "sp3-k3", "ricker-defaults", "ricker-tiny-u-star",
        "adult-juvenile-defaults", "adult-juvenile-above-10",
        "adult-juvenile-no-root", "swapped-symmetric", "swapped-mixed",
        "swapped-no-root", "competition-above-10", "competition-delta-3",
        "sp3-k1-rigorous-config"])
def test_analyze_window_is_the_threshold_alpha(runner, tmp_path, params):
    if isinstance(params, dict):    # a config file
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(params))
        params = ["--config", str(cfg)]
    res = runner.invoke(main, ["threshold", *params, "--json"])
    assert res.exit_code == 0
    alpha = json.loads(res.output)["alpha"]
    res = runner.invoke(main, ["analyze", *params, "--steps", "50"])
    assert res.exit_code == 0
    hi = json.loads(res.output)["window"][1]
    if alpha in (None, "inf"):  # no fixed point: g(u) < u for every u > 0
        assert hi == "inf"
    else:
        assert hi.hex() == alpha.hex()


@pytest.mark.parametrize("params, window", [
    (["--model", "competition", "--r1", "50", "--a1", "600", "--init",
      "25,1"], [0.0, 20.0]),
    (["--model", "adult-juvenile", "--lambda", "21", "--r", "-39",
      "--init", "19,19"], [0.0, 14.545144415565264]),
], ids=["competition", "adult-juvenile"])
def test_analyze_planar_threshold_above_the_scan_range(runner, params,
                                                       window):
    # alpha lies above 10, where the threshold scan stopped: it read
    # alpha = +inf, and the orbit's first terms, above the true alpha,
    # violated the prediction (exit 4).
    res = runner.invoke(main, ["analyze", *params, "--steps", "60"])
    assert res.exit_code == 0
    assert json.loads(res.output)["window"] == window


def test_analyze_competition_with_a_tiny_threshold(runner):
    # The root of fbar(u) = u is 1.6666666666712962e-10.  The scan's
    # 1e-12 bracket, and then the quadratic formula's cancellation, put
    # alpha above it, and x_0 between the two broke the prediction
    # (exit 4).
    res = runner.invoke(main, ["analyze", "--model", "competition", "--r1",
                               "60", "--a1", "1e-8", "--init",
                               "1.66668e-10,0", "--steps", "30"])
    assert res.exit_code == 0
    assert json.loads(res.output)["window"] == [0.0, 1.6666666666712962e-10]


def test_analyze_ricker_with_a_tiny_threshold(runner):
    # u* = 1.3888e-11: the scan's absolute 1e-12 tolerance overshot it,
    # and the grid check then rejected the bound (exit 5).
    res = runner.invoke(main, ["analyze", "--model", "ricker", "--lambda",
                               "1.1", "--a", "2.5", "--b", "1", "--init",
                               "0.5", "--steps", "50"])
    assert res.exit_code == 0
    assert json.loads(res.output)["window"] == [0.0, 1.3887943866893135e-11]


# -- threshold -----------------------------------------------------------


def test_threshold_sp3(runner):
    res = runner.invoke(main, ["threshold", "--model", "sp3", "--k", "3",
                               "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["condition_holds"] is True
    assert abs(data["alpha"] - 0.0549647352569813) < 1e-9
    assert data["fixed_points"]["kind"] == "pair"


def test_threshold_ricker_tangent(runner):
    res = runner.invoke(main, ["threshold", "--model", "ricker",
                               "--lambda", "2", "--a", "1", "--b", "1",
                               "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["fixed_points"]["kind"] == "tangent"
    # The touch point is 1; the window ends below it, where the computed
    # g is below u.
    assert abs(data["fixed_points"]["u_bar"] - 1.0) < 1e-9
    assert 1.0 - 1e-5 < data["alpha"] < 1.0


def test_threshold_competition(runner):
    res = runner.invoke(main, ["threshold", "--model", "competition",
                               "--r1", "1", "--a1", "1", "--delta1", "2",
                               "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["alpha"] == "inf"


def test_threshold_sigmoid_bh(runner):
    res = runner.invoke(main, ["threshold", "--model", "sigmoid-bh",
                               "--a", "2", "--p", "3", "--b", "1",
                               "--json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert abs(data["alpha"] - 2 ** -0.5) < 1e-12
    assert data["window"][1] == pytest.approx(1 + 2 ** -0.5)


def test_threshold_text_output(runner):
    res = runner.invoke(main, ["threshold", "--model", "sp3", "--k", "2"])
    assert res.exit_code == 0
    assert "alpha:" in res.output


# -- fold ----------------------------------------------------------------


def test_fold_adult_juvenile(runner):
    res = runner.invoke(main, ["fold", "--model", "adult-juvenile",
                               "--init", "1,1", "--steps", "100"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["passed"] is True
    assert data["max_deviation_x"] <= 1e-9
    assert data["descriptor"]["order"] == 2
    assert (data["steps"], data["stopped"]) == (101, None)


def test_a_planar_fold_says_where_it_stopped(runner):
    # sigma_0 has no preimage at w = x_1 = 1: the check passes (exit 0)
    # on the one term it compared, and says so.
    res = runner.invoke(main, ["fold", "--model", "competition-swapped",
                               "--init", "1,1e10", "--steps", "100"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["passed"] is True and data["steps"] == 1
    assert data["stopped"] == "sigma_0: w=1.0 has no preimage at u=1.0"


def test_fold_threed(runner):
    res = runner.invoke(main, ["fold", "--model", "threed",
                               "--a", "0.5", "--p", "0.4", "--b", "0.2",
                               "--c", "0.8", "--d", "0.1", "--q", "0.6",
                               "--r", "1.5", "--s", "0.9",
                               "--init", "1,0.3,0.7", "--steps", "50"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["passed"] is True


def test_fold_requires_solvability(runner):
    # unswapped competition with b1 = 0 has no solvability form
    res = runner.invoke(main, ["fold", "--model", "competition",
                               "--r1", "1", "--a1", "1",
                               "--init", "0.5,0.5"])
    assert res.exit_code == 2


def test_fold_rejects_scalar_model(runner):
    res = runner.invoke(main, ["fold", "--model", "sp3"])
    assert res.exit_code == 2


# -- config files --------------------------------------------------------


def test_config_driven_simulate(runner, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "schema": 1, "model": "sp3", "params": {"k": 3},
        "initial": [1, 1, 1], "steps": 10, "format": "json"}))
    res = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["terms"]) == 13


@pytest.mark.parametrize("command, run", [
    ("analyze", ["--model", "ricker", "--lambda", "1.5", "--init", "0.5"]),
    ("analyze", ["--model", "adult-juvenile", "--init", "1,1"]),
    ("fold", ["--model", "threed", "--init", "0.9,1.1,1"]),
    # Translated to its fixed point b inside; written as given.
    ("simulate", ["--model", "sigmoid-bh", "--a", "0.7", "--b", "2.6",
                  "--p", "2", "--init", "3.2"]),
], ids=["scalar", "planar", "threed", "sigmoid-bh-off-origin"])
def test_simulate_json_reads_back_as_a_config(runner, tmp_path, command,
                                              run):
    # The output's "terms" or "points" are accepted and ignored; model,
    # params and initial values read back.
    out = tmp_path / "run.json"
    steps = ["--steps", "3"]
    assert runner.invoke(main, ["simulate", "--format", "json", "--out",
                                str(out)] + run + steps).exit_code == 0
    res = runner.invoke(main, [command, "--config", str(out)] + steps)
    assert res.exit_code == 0
    assert res.output == runner.invoke(main, [command] + run + steps).output


@pytest.mark.parametrize("config, steps", [
    ({"steps": 3}, 3), ({}, 100)], ids=["config-steps", "default"])
def test_fold_config_steps(runner, tmp_path, monkeypatch, config, steps):
    check, seen = systems.check_fold_consistency, []
    monkeypatch.setattr(systems, "check_fold_consistency",
                        lambda sysm, init, n, tol: seen.append(n) or
                        check(sysm, init, n, tol))
    cfg = tmp_path / "fold.json"
    cfg.write_text(json.dumps({"model": "adult-juvenile",
                               "initial": [1, 1], **config}))
    assert runner.invoke(main, ["fold", "--config", str(cfg)]).exit_code == 0
    assert runner.invoke(main, ["fold", "--config", str(cfg), "--steps",
                                "7"]).exit_code == 0
    assert seen == [steps, 7]


def test_config_unknown_key_exit_code(runner, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"model": "sp3", "bogus": 1}')
    res = runner.invoke(main, ["simulate", "--config", str(cfg)])
    assert res.exit_code == 2
    assert "bogus" in res.output


def test_config_tolerances_apply(runner, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"model": "sp3", "params": {"k": 3},
                               "initial": [1, 1, 1], "steps": 450,
                               "tolerances": {"zero": 1e-10,
                                              "limit": 1e-3}}))
    res = runner.invoke(main, ["analyze", "--config", str(cfg)])
    assert res.exit_code == 0
    assert res.output == runner.invoke(main, [
        "analyze", "--model", "sp3", "--k", "3", "--init", "1,1,1",
        "--steps", "450"]).output


def test_options_a_model_does_not_read_are_ignored(runner):
    # Unlike config params, the CLI's options are shared by all models.
    res = runner.invoke(main, ["simulate", "--model", "sp3", "--init",
                               "1,1,1", "--steps", "3", "--r1", "2"])
    assert res.exit_code == 0


def test_cli_overrides_config(runner, tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"model": "sp3", "params": {"k": 3},
                               "initial": [1, 1, 1], "steps": 3}))
    res = runner.invoke(main, ["simulate", "--config", str(cfg),
                               "--steps", "7"])
    assert res.exit_code == 0
    assert len(res.output.strip().split("\n")) == 1 + 3 + 7


# -- models --------------------------------------------------------------


def test_models_listing(runner):
    res = runner.invoke(main, ["models"])
    assert res.exit_code == 0
    names = res.output.split()
    assert "sp3" in names and "threed" in names
    assert len(names) == 7


@pytest.mark.parametrize("args", [
    ["analyze", "--model", "sp3", "--init", "inf,1,1"],
    ["simulate", "--model", "sp3", "--init", "nan,1,1"],
    ["simulate", "--model", "adult-juvenile", "--init", "1,inf"],
    ["fold", "--model", "adult-juvenile", "--init", "inf,1"],
    ["fold", "--model", "threed", "--init", "1,inf,1"],
], ids=["analyze", "simulate", "simulate-planar", "fold", "fold-threed"])
def test_non_finite_initial_values_exit_3(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert "Infinity" not in res.output and "NaN" not in res.output
    assert "not all finite" in res.output


def test_json_output_is_strict(runner):
    # a non-finite parameter echoed into JSON is a blow-up, not Infinity
    res = runner.invoke(main, ["simulate", "--model", "sp3", "--init",
                               "1,1,1", "--steps", "3", "--format", "json",
                               "--a", "inf"])
    assert res.exit_code == 3
    assert "Infinity" not in res.output


# -- the exit-code contract: one error line, never a traceback -------------


SP3_ANALYZE = ["analyze", "--model", "sp3", "--k", "3", "--init", "1,1,1",
               "--steps", "450"]
AJ_FOLD = ["fold", "--model", "adult-juvenile", "--init", "1,1", "--steps",
           "100"]


@pytest.mark.parametrize("args,config,code", [
    (["simulate", "--model", "sp3", "--steps", "-1"], None, 2),
    (["analyze", "--model", "sp3", "--init", "1,1"], None, 2),
    (["simulate", "--config", "{config}"],
     {"model": "sp3", "params": {"k": "x"}}, 2),
    (["threshold", "--model", "ricker", "--b", "1,0.5"], None, 2),
    (["threshold", "--config", "{config}"],
     {"model": "ricker", "params": {"a": [1, 2]}}, 2),
    (["analyze", "--model", "sigmoid-bh", "--p", "abc"], None, 2),
    (["simulate", "--model", "ricker", "--b", "x"], None, 2),
    (["simulate", "--model", "ricker", "--lambda", "2", "--a", "800",
      "--b", "1", "--init", "0.5"], None, 3),
    (["threshold", "--model", "sigmoid-bh", "--a", "1e-320", "--p", "2",
      "--json"], None, 3),
    (["analyze", "--model", "ricker", "--lambda", "1e308"], None, 3),
    (["threshold", "--model", "ricker", "--lambda", "1.001", "--a", "1",
      "--json"], None, 5),
    (["analyze", "--config", "{config}"],
     {"model": "sp3", "tolerances": {"limit": "x"}}, 2),
    (["analyze", "--config", "{config}"],
     {"model": "sp3", "tolerances": {"zero": -1e-9}}, 2),
    (["analyze", "--config", "{config}"],
     {"model": "sp3", "tolerances": {"lmit": 1e-3}}, 2),
    (["simulate", "--config", "{config}"],
     {"model": "ricker", "params": {"lamda": 3}}, 2),
    (SP3_ANALYZE + ["--tol", "-1"], None, 2),
    (SP3_ANALYZE + ["--tol", "nan"], None, 2),
    (SP3_ANALYZE + ["--tol", "inf"], None, 2),
    (AJ_FOLD + ["--tol", "-1"], None, 2),
    (AJ_FOLD + ["--tol", "nan"], None, 2),
    (["fold", "--model", "threed", "--init", "0.9,1.1,1", "--tol", "nan"],
     None, 2),
    (["threshold", "--model", "ricker", "--k", "2", "--b", "1", "--json"],
     None, 2),
    (["threshold", "--model", "adult-juvenile", "--s", "1.5"], None, 2),
    (["threshold", "--model", "sigmoid-bh", "--k", "0"], None, 2),
    (["analyze", "--model", "sigmoid-bh", "--a", "inf", "--p", "2", "--init",
      "0.1", "--steps", "3"], None, 2),
    (["analyze", "--model", "competition", "--r1", "inf", "--steps", "3"],
     None, 2),
    (["analyze", "--model", "ricker", "--lambda", "nan", "--steps", "3"],
     None, 2),
    (["analyze", "--model", "competition", "--delta1", "nan", "--steps",
      "3"], None, 2),
    (["threshold", "--model", "ricker", "--lambda", "nan"], None, 2),
    (["threshold", "--model", "adult-juvenile", "--r", "nan", "--json"],
     None, 2),
    (["threshold", "--model", "competition", "--r1", "inf", "--json"], None,
     2),
    (["threshold", "--config", "{config}"], {"model": "ricker", "params": {
        "a": {"kind": "tabulated", "values": [1, 2], "fallback": 1e400}}},
     2),
    (["analyze", "--config", "{config}"],
     {"model": "ricker", "params": {"b": [1, -1e400]}}, 2),
    (["analyze", "--model", "sp3", "--k", "x"], None, 2),
    (["simulate", "--model", "sp3", "--steps", "x"], None, 2),
    (["analyze", "--model", "nope"], None, 2),
    (["analyze", "--model", "ricker", "--a", "1,2"], None, 2),
    (["analyze", "--bogus", "1"], None, 2),
    (["nosuch"], None, 2),
], ids=["negative-steps", "short-init", "config-k-text", "threshold-b-list",
        "threshold-a-periodic", "p-text", "b-text", "overflow-simulate",
        "overflow-threshold", "overflow-bound", "threshold-underflow",
        "tolerance-text",
        "tolerance-negative", "tolerance-unknown", "param-unknown",
        "analyze-tol-negative", "analyze-tol-nan", "analyze-tol-inf",
        "fold-tol-negative", "fold-tol-nan", "fold-threed-tol-nan",
        "threshold-ricker-k-above-m", "threshold-adult-juvenile-s",
        "threshold-sigmoid-bh-k", "analyze-sigmoid-bh-a-inf",
        "analyze-competition-r1-inf", "analyze-ricker-lambda-nan",
        "analyze-competition-delta1-nan", "threshold-ricker-lambda-nan",
        "threshold-adult-juvenile-r-nan", "threshold-competition-r1-inf",
        "config-tabulated-fallback-inf", "config-per-lag-b-inf",
        "click-k-text", "click-steps-text", "click-model-unknown",
        "click-a-list", "click-option-unknown", "click-command-unknown"])
def test_bad_input_exits_with_one_error_line(runner, tmp_path, args, config,
                                             code):
    cfg = tmp_path / "config.json"
    if config is not None:
        cfg.write_text(json.dumps(config))
    res = runner.invoke(main, [a.format(config=cfg) for a in args])
    assert res.exit_code == code
    assert not isinstance(res.exception, Exception)   # SystemExit only
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.output


def test_help_is_not_a_usage_error(runner):
    # A bare command prints the help, as click does; --help exits 0.
    bare = runner.invoke(main, [])
    assert "Commands:" in bare.output and "error:" not in bare.output
    for args in (["--help"], ["analyze", "--help"]):
        res = runner.invoke(main, args)
        assert res.exit_code == 0 and "Usage:" in res.output


@pytest.mark.parametrize("command,options", [
    ("simulate", ["--init", "--steps", "--format", "--out"]),
    ("analyze", ["--init", "--steps", "--out", "--tol"]),
    ("threshold", ["--json"]),
    ("fold", ["--init", "--steps", "--tol", "--out"]),
])
def test_command_options_unchanged(command, options):
    model_options = ["--model", "--config", "--k", "--l", "--lambda", "--a",
                     "--b", "--c", "--d", "--p", "--q", "--r", "--s", "--t",
                     "--r1", "--r2", "--a1", "--a2", "--b1", "--b2",
                     "--delta1", "--delta2", "--delta3", "--delta4"]
    _, rows = main.commands[command]
    names = [flag for flag, *_ in rows]
    assert names == model_options + options


def test_simulate_and_threshold_build_no_bound(runner, monkeypatch):
    """A bound that cannot be built must fail ``analyze`` only: the
    equation runs where its bound has no positive threshold."""
    import subconverge.models as models

    failing = ["--model", "ricker", "--lambda", "1.001", "--a", "1",
               "--init", "0.5", "--steps", "3"]
    assert runner.invoke(main, ["simulate"] + failing).exit_code == 0
    assert runner.invoke(main, ["analyze"] + failing).exit_code == 5

    def unused(*args, **kw):
        raise AssertionError("bound built for a command that discards it")
    monkeypatch.setattr(models, "_ricker_bound", unused)
    for args in (["simulate", "--model", "sp3", "--steps", "5"],
                 ["simulate", "--model", "ricker", "--steps", "5"],
                 ["threshold", "--model", "sp3", "--json"]):
        assert runner.invoke(main, args).exit_code == 0
    assert runner.invoke(main, ["analyze", "--model", "sp3"]).exit_code == 1


@pytest.mark.parametrize("command", [
    ["simulate", "--model", "sp3", "--steps", "5"],
    ["analyze", "--model", "sp3", "--steps", "5"],
    ["fold", "--model", "threed", "--steps", "5"],
], ids=["simulate", "analyze", "fold"])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_out_that_cannot_be_written_exits_2(runner, tmp_path, command,
                                            target):
    out = tmp_path / "no-such-dir" / "out.json" if target == "missing-dir" \
        else tmp_path
    res = runner.invoke(main, command + ["--out", str(out)])
    assert res.exit_code == 2
    assert not isinstance(res.exception, Exception)   # SystemExit only
    assert res.stderr.startswith("error: cannot write %s: " % out)
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("steps", [10 ** 17, 10 ** 19],
                         ids=["past-memory", "past-index"])
@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_steps_too_many_to_hold_exit_2(runner, tmp_path, source, command,
                                       steps):
    """sp3 k = 1 from (1, 1, 1) repeats from step 29, so its loop stops at
    the first checkpoint and the copy's allocation is refused at once:
    10^17 steps need 8e17 bytes, and 10^19 cycles do not fit an index."""
    run = [command, "--model", "sp3", "--k", "1", "--init", "1,1,1"]
    if source == "flag":
        run += ["--steps", str(steps)]
    else:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"model": "sp3", "params": {"k": 1},
                                   "initial": [1, 1, 1], "steps": steps}))
        run += ["--config", str(cfg)]
    res = runner.invoke(main, run)
    assert res.exit_code == 2
    assert not isinstance(res.exception, Exception)   # SystemExit only
    assert res.stderr == ("error: an orbit of %d steps does not fit in "
                          "memory\n" % steps)


def test_analyze_tol_zero_is_honoured(runner, tmp_path):
    # With --tol 0 only an exact zero verifies a monotone tail.
    args = ["analyze", "--model", "sp3", "--k", "1", "--init",
            "0.5,0.5,0.5", "--steps", "12"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"model": "sp3",
                               "tolerances": {"zero": 1.0}}))
    notes = {}
    for extra in ([], ["--tol", "0"], ["--config", str(cfg), "--tol", "0"]):
        res = runner.invoke(main, args + extra)
        assert res.exit_code == 0
        notes[len(extra)] = [p["note"] for p in
                             json.loads(res.output)["predictions"]]
    assert notes == {0: ["monotone:verified"], 2: ["monotone:inconclusive"],
                     4: ["monotone:inconclusive"]}

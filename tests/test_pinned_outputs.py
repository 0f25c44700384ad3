"""Output digests pinned before the per-residue analysis, the model
catalog and the bisections were each collapsed to one implementation.
The sp3 and acceptance-sweep digests were re-pinned when the catalog's
scalar bounds took alpha from their closed forms: only the report's
window moved (and sp3 k=2's u_star in ``threshold-text``).  The
adult-juvenile and competition-swapped analyses and the planar
predictions were re-pinned when the planar envelope cycles took alpha
from their exact thresholds: again only the window moved.
``cold-analyze-sigmoid-bh-c0`` was re-pinned when sigmoid-BH's
translated map came to be written in y = x - b: its exit 4, a false
alarm of the (v + b) - b round trip, became exit 0.  ``simulate-blowup``
moved to b = 1e-300 when the Ricker map came to take u^lam e^e in logs
where a factor overflows alone: at b = 1e-15 its x_3 is 0.0, not an
overflow (exit 0, not 3).  The ``log-form`` cases pin that fallback; the
two adult-juvenile ones were pinned when adult-juvenile's g took the same
fallback, and exited 3 before.  The two planar fold digests were re-pinned
when the planar fold payload gained the check's ``steps`` and ``stopped``
(the number of x-terms compared, and why the comparison ended early):
nothing else in it moved.  The two ``near-tangent`` competition cases
were pinned when d1 = 2's closed form took the tangent band that every
other threshold has: there ``threshold`` read alpha = +inf, and
``analyze`` exited 4.  ``threshold-ricker-tangent``, the two
``near-tangent`` cases and ``cold-analyze-ricker`` were re-pinned when a
tangent window came to end below the touch point, where ln(map(u) / u)
falls under -1e-12: only alpha (and the report's window) moved.
``analyze-ricker-tangent-stall`` was pinned then: its orbit, which g
maps to itself just under the touch point, exited 4.  ``fold-threed`` and
``cold-fold-threed`` were re-pinned when the 3D system came to run
through the planar loop and contract, and the 3D ``fold`` payload gained
``steps`` and ``stopped`` as the planar one had: nothing else in it
moved.  The ``threed-converging`` cases were pinned then: a converging
orbit whose z underflows to 0.0 exited 2 ("z_42 = 0.0 is not
positive"); it now ends there as a non-finite state (y = +inf, the limit
of -r ln z), so ``simulate`` exits 3 and ``fold`` compares the terms up
to that point.

Every digest is a SHA-256 over exact text: CLI stdout with its exit code,
or ``json.dumps(report.to_dict(), sort_keys=True)``.  A change to any
digit of any float, a reordered key or a different exit code shows up
here.
"""

import hashlib
import json
import random

import pytest
from click.testing import CliRunner

import subconverge as sc
from subconverge.cli import main

THREED = ["--model", "threed", "--a", "0.5", "--p", "0.4", "--b", "0.2",
          "--c", "0.8", "--d", "0.1", "--q", "0.6", "--r", "1.5",
          "--s", "0.9"]
# z_42 underflows to 0.0, so y_43 = +inf.
THREED_CONVERGING = ["--model", "threed", "--a", "-1", "--r", "1.5",
                     "--init", "0.5,0,0.5", "--steps", "100"]
SIGMOID_C1 = ["--model", "sigmoid-bh", "--a", "2", "--c", "1", "--q", "2",
              "--p", "3", "--b", "1", "--k", "1", "--l", "2",
              "--init", "1.1,1.1"]
# d1 = 2 with a1 one double above r1^2/4: fbar(u) < u for all u > 0, and
# fbar(1.0) rounds to 1.0.
NEAR_TANGENT = ["--model", "competition", "--r1", "2", "--a1",
                "1.0000000000000002"]

# (id, argv, config written to {config} or None).  The invocations of
# tests/test_cli.py, then the cli-cold commands of perfbench/bench_cases.py
# that test_cli.py does not already make.
CLI_CASES = [
    ("simulate-sp3-csv", ["simulate", "--model", "sp3", "--k", "3",
                          "--init", "1,1,1", "--steps", "300"], None),
    ("simulate-zero", ["simulate", "--model", "sp3", "--k", "3",
                       "--init", "0,0,0", "--steps", "5"], None),
    ("simulate-adult-juvenile", ["simulate", "--model", "adult-juvenile",
                                 "--init", "1,1", "--steps", "2"], None),
    ("simulate-json", ["simulate", "--model", "sp3", "--k", "2", "--init",
                       "1,1,1", "--steps", "10", "--format", "json"], None),
    ("simulate-sigmoid-bh", ["simulate"] + SIGMOID_C1 + ["--steps", "50"],
     None),
    ("simulate-threed", ["simulate"] + THREED
     + ["--init", "1,0.3,0.7", "--steps", "5"], None),
    ("simulate-out", ["simulate", "--model", "sp3", "--k", "3", "--steps",
                      "5", "--out", "{out}"], None),
    ("simulate-no-model", ["simulate", "--steps", "5"], None),
    ("simulate-bad-init", ["simulate", "--model", "sp3", "--init",
                           "one,two"], None),
    ("simulate-blowup", ["simulate", "--model", "ricker", "--lambda", "5",
                         "--k", "1", "--a", "10", "--b", "1e-300", "--init",
                         "50", "--steps", "50"], None),
    ("simulate-ricker-log-form", ["simulate", "--model", "ricker",
                                  "--lambda", "1000", "--b", "1000",
                                  "--init", "2.5", "--steps", "3"], None),
    ("simulate-competition-log-form", ["simulate", "--model", "competition",
                                       "--b1", "1", "--delta3", "2",
                                       "--init", "1,1e200", "--steps", "3"],
     None),
    ("simulate-adult-juvenile-log-form", ["simulate", "--model",
                                          "adult-juvenile", "--init",
                                          "1e200,1", "--steps", "2"], None),
    ("fold-adult-juvenile-log-form", ["fold", "--model", "adult-juvenile",
                                      "--init", "1e200,1", "--steps", "3"],
     None),
    ("analyze-sp3-k2", ["analyze", "--model", "sp3", "--k", "2", "--init",
                        "1,1,1", "--steps", "300"], None),
    ("analyze-sp3-k1", ["analyze", "--model", "sp3", "--k", "1", "--init",
                        "1,1,1", "--steps", "250"], None),
    ("analyze-sp3-k3", ["analyze", "--model", "sp3", "--k", "3", "--init",
                        "1,1,1", "--steps", "450"], None),
    ("analyze-sigmoid-bh", ["analyze"] + SIGMOID_C1 + ["--steps", "100"],
     None),
    ("analyze-competition", ["analyze", "--model", "competition", "--r1",
                             "1", "--r2", "1", "--a1", "1", "--a2", "1",
                             "--init", "0.9,0.9", "--steps", "100"], None),
    ("analyze-adult-juvenile", ["analyze", "--model", "adult-juvenile",
                                "--init", "1,1", "--steps", "200"], None),
    # The one catalog system whose tail check fails and alternating passes.
    ("analyze-competition-swapped", ["analyze", "--model",
                                     "competition-swapped", "--r1", "3",
                                     "--r2", "3", "--a1", "1", "--a2", "1",
                                     "--init", "0.3,0.2", "--steps", "100"],
     None),
    ("threshold-sp3", ["threshold", "--model", "sp3", "--k", "3", "--json"],
     None),
    ("threshold-ricker-tangent", ["threshold", "--model", "ricker",
                                  "--lambda", "2", "--a", "1", "--b", "1",
                                  "--json"], None),
    # g maps 0.99999999 to itself: the orbit starts outside the window.
    ("analyze-ricker-tangent-stall", ["analyze", "--model", "ricker",
                                      "--lambda", "2", "--a", "1", "--b",
                                      "1", "--init", "0.99999999",
                                      "--steps", "5"], None),
    ("threshold-competition", ["threshold", "--model", "competition",
                               "--r1", "1", "--a1", "1", "--delta1", "2",
                               "--json"], None),
    ("threshold-competition-near-tangent",
     ["threshold"] + NEAR_TANGENT + ["--json"], None),
    ("analyze-competition-near-tangent",
     ["analyze"] + NEAR_TANGENT + ["--init", "1,1", "--steps", "60"], None),
    ("threshold-sigmoid-bh", ["threshold", "--model", "sigmoid-bh", "--a",
                              "2", "--p", "3", "--b", "1", "--json"], None),
    ("threshold-text", ["threshold", "--model", "sp3", "--k", "2"], None),
    ("fold-adult-juvenile", ["fold", "--model", "adult-juvenile", "--init",
                             "1,1", "--steps", "100"], None),
    ("fold-threed", ["fold"] + THREED + ["--init", "1,0.3,0.7", "--steps",
                                         "50"], None),
    ("fold-no-solvability", ["fold", "--model", "competition", "--r1", "1",
                             "--a1", "1", "--init", "0.5,0.5"], None),
    ("fold-scalar", ["fold", "--model", "sp3"], None),
    ("config-simulate", ["simulate", "--config", "{config}"],
     {"schema": 1, "model": "sp3", "params": {"k": 3},
      "initial": [1, 1, 1], "steps": 10, "format": "json"}),
    ("config-unknown-key", ["simulate", "--config", "{config}"],
     {"model": "sp3", "bogus": 1}),
    ("config-override", ["simulate", "--config", "{config}", "--steps", "7"],
     {"model": "sp3", "params": {"k": 3}, "initial": [1, 1, 1],
      "steps": 3}),
    ("models", ["models"], None),
    ("nonfinite-analyze", ["analyze", "--model", "sp3", "--init",
                           "inf,1,1"], None),
    ("nonfinite-simulate", ["simulate", "--model", "sp3", "--init",
                            "nan,1,1"], None),
    ("nonfinite-simulate-planar", ["simulate", "--model", "adult-juvenile",
                                   "--init", "1,inf"], None),
    ("nonfinite-fold", ["fold", "--model", "adult-juvenile", "--init",
                        "inf,1"], None),
    ("nonfinite-fold-threed", ["fold", "--model", "threed", "--init",
                               "1,inf,1"], None),
    ("strict-json", ["simulate", "--model", "sp3", "--init", "1,1,1",
                     "--steps", "3", "--format", "json", "--a", "inf"],
     None),
    ("cold-simulate-ricker-json", ["simulate", "--model", "ricker",
                                   "--lambda", "1.8", "--k", "2", "--b",
                                   "0.4,0.7,0.3", "--a", "1", "--init",
                                   "0.5,1,1.5", "--steps", "300",
                                   "--format", "json"], None),
    ("cold-analyze-ricker", ["analyze", "--model", "ricker", "--lambda",
                             "2", "--a", "1", "--b", "1", "--init", "0.5",
                             "--steps", "300"], None),
    ("cold-analyze-sigmoid-bh-c1", ["analyze"] + SIGMOID_C1
     + ["--steps", "300"], None),
    ("cold-analyze-sigmoid-bh-c0", ["analyze", "--model", "sigmoid-bh",
                                    "--a", "0.7", "--b", "2.6", "--p", "2",
                                    "--init", "3.2", "--steps", "40"], None),
    ("cold-analyze-adult-juvenile", ["analyze", "--model", "adult-juvenile",
                                     "--init", "1,1", "--steps", "300"],
     None),
    ("cold-fold-threed", ["fold", "--model", "threed", "--init",
                          "0.9,1.1,1", "--steps", "100"], None),
    ("simulate-threed-converging", ["simulate"] + THREED_CONVERGING, None),
    ("fold-threed-converging", ["fold"] + THREED_CONVERGING, None),
    ("fold-threed-ends-before-x2", ["fold", "--model", "threed", "--a",
                                    "1e-300", "--s", "1e300", "--q", "1e300",
                                    "--steps", "0"], None),
    ("cold-simulate-config", ["simulate", "--config", "{config}",
                              "--format", "json"],
     {"schema": 1, "model": "sp3", "params": {"k": 2},
      "initial": [1, 1, 1], "steps": 300}),
]

CLI_DIGESTS = {
    "simulate-sp3-csv":
        "7ada14922ab5119da745bd22e15ec07b91f712b83b88ba2e3b928c15dbc6faff",
    "simulate-zero":
        "33a61162fbafc3d55e7a8866f35c9248421b9b539caa9b4d2ad096da364806ed",
    "simulate-adult-juvenile":
        "1ebad1de9ed183cc578a22e9ef35754b0131fbf9b83a5d1a189f545bfcebf23f",
    "simulate-json":
        "96f9154daa5475ede79b1edbf476490854ed6c96cacbb8fbd8b48e441565a77e",
    "simulate-sigmoid-bh":
        "b643bc0ab1eb74c0c9fea52205550b913de2c81fe461c890a9e85a8a181d8c9a",
    "simulate-threed":
        "d17a329d124ff03d831fdbea098b3e857ce5e6fc0a24903429e6904eae833195",
    "simulate-out":
        "e2df75ca7122ef2f550f61d7afa9f0b93df8fc2166e8a0ead6be8407ad43df7f",
    "simulate-no-model":
        "5f8bd21203fdbe78b3339b6c8102f5a67cea53316e7b8797aa7aea63e498d985",
    "simulate-bad-init":
        "5f8bd21203fdbe78b3339b6c8102f5a67cea53316e7b8797aa7aea63e498d985",
    "simulate-blowup":
        "4bf7329610ec0f51ae5565f492584bbdc1568345bf0436205985ff808fdb41fd",
    "simulate-ricker-log-form":
        "5c31225892fe8b3f830965507bf65111d7d81a9d0d54b39675cd6d743f225e99",
    "simulate-competition-log-form":
        "1049ca7c52ee807d4d4fd287e3a5b797783f76825882c71a8004d376ea44e062",
    "simulate-adult-juvenile-log-form":
        "e85c90bd84be05ab11f3e24c4542a97991daef33d41e09ff3e8dce613ab37ff9",
    "fold-adult-juvenile-log-form":
        "52c5a10106e9618fb9e5c2a287a77ce3c5f046914fd011eaea26d17f9213fef5",
    "analyze-sp3-k2":
        "0f47f0fbe69b76440f9afe2b8a740e37cf72cefbf17d091e8ab05033ffb9db52",
    "analyze-sp3-k1":
        "394bcd5d070e56cc10b5327d3870c3b3d439d63a3de1097412b8845ae6285d79",
    "analyze-sp3-k3":
        "aa3aad56a9637cc743b142eb7e73a078bf181967f1431b18303b05b9134be9c4",
    "analyze-sigmoid-bh":
        "b67e432ee7424e5ef56b27d6da3c1f4406e92523f2fc7c973679ec00cf0cdac6",
    "analyze-competition":
        "d1219bf6a73eaaf0612d83e5378ed4df215afb619984993f916d965a3e6f4e55",
    "analyze-adult-juvenile":
        "1c07f63b7d5021ecfb6a24b07a921caf46a130316d5d5bdaaecf23c37b2f487d",
    "analyze-competition-swapped":
        "38f304d4b9a345b8493a576dd54799a8aaf9c3d29dc4024b6706dd9946b46fb5",
    "threshold-sp3":
        "8b3476033e6f2dfbe3a4f695b91be367d2a4d04f8d923d3b19f28606d1478894",
    "threshold-ricker-tangent":
        "c764555ac5e07cbe82f5439700d3e3dd2e99faa3aa1461d8f9af90d6205b25da",
    "analyze-ricker-tangent-stall":
        "501e5a479cdd7f91d511d2279a594604ef997ab50cdc09a6e29f29a7c501f3ff",
    "threshold-competition":
        "eede4dccebaa4f65df270cdd6ccd4107162fb0bc6d87399183af7beab3c16d3d",
    "threshold-competition-near-tangent":
        "331419a41bc7215398b06b7ef353ee47c523d376a5e13886180da1b5580daa24",
    "analyze-competition-near-tangent":
        "55e53f15aa150be7171b54019e1d9f85571e977dd31dfe3c18c48b2136aceb30",
    "threshold-sigmoid-bh":
        "a993d8ac989a89c666ec705fd48e1f5f504117ddee90e7905fc01cb52b996b7a",
    "threshold-text":
        "1918be3100649a2140f4a1e2c3aa3cc9e7208602c8764ce0f4d4d18e877c6fef",
    "fold-adult-juvenile":
        "0204a54d82a3032384942dda61035a179798cb4709dd90efcd84ea947b7c7f14",
    "fold-threed":
        "af69e176d267a6d364a74e7b978e8496f4b9cf64037e794ddda8b039c50a8a73",
    "fold-no-solvability":
        "5f8bd21203fdbe78b3339b6c8102f5a67cea53316e7b8797aa7aea63e498d985",
    "fold-scalar":
        "5f8bd21203fdbe78b3339b6c8102f5a67cea53316e7b8797aa7aea63e498d985",
    "config-simulate":
        "f65e126196da491f1346ff3b25e7d4d0bda33a6c9c252f9805c4f875ba155f19",
    "config-unknown-key":
        "5f8bd21203fdbe78b3339b6c8102f5a67cea53316e7b8797aa7aea63e498d985",
    "config-override":
        "1def572cec9bd62b46cb078a076f2acd625955159c2f9d2e6ded8c3c52267b05",
    "models":
        "c40471949087f9b42fcfe1b5a044c40c3aae015d185185e9553e236aed7c9991",
    "nonfinite-analyze":
        "48c8dc7180e1465d8d40249aab0f6ac0a7ac89624e8345b0d6555ef735b85245",
    "nonfinite-simulate":
        "48c8dc7180e1465d8d40249aab0f6ac0a7ac89624e8345b0d6555ef735b85245",
    "nonfinite-simulate-planar":
        "48c8dc7180e1465d8d40249aab0f6ac0a7ac89624e8345b0d6555ef735b85245",
    "nonfinite-fold":
        "48c8dc7180e1465d8d40249aab0f6ac0a7ac89624e8345b0d6555ef735b85245",
    "nonfinite-fold-threed":
        "48c8dc7180e1465d8d40249aab0f6ac0a7ac89624e8345b0d6555ef735b85245",
    "strict-json":
        "48c8dc7180e1465d8d40249aab0f6ac0a7ac89624e8345b0d6555ef735b85245",
    "cold-simulate-ricker-json":
        "9ed45987990a2acc2e910a05ede6fa1d45e90a230c14dd68669aff5c91a4a4a7",
    "cold-analyze-ricker":
        "9f74cb2709e24263bab9abe28a99e808678decd7a9e71dec1e37cdf7d1f14066",
    "cold-analyze-sigmoid-bh-c1":
        "b67e432ee7424e5ef56b27d6da3c1f4406e92523f2fc7c973679ec00cf0cdac6",
    "cold-analyze-sigmoid-bh-c0":
        "4789a354394120aa964000609ce363d2b1b6a6411cea3397e763511f52af58c8",
    "cold-analyze-adult-juvenile":
        "1c07f63b7d5021ecfb6a24b07a921caf46a130316d5d5bdaaecf23c37b2f487d",
    "cold-fold-threed":
        "4d472ffc7d7e037e9ccb8e4c00ef50917b3001093ec1ced33ce214125d5a22b3",
    "simulate-threed-converging":
        "7d5056460caf9f857c8c30b0a344bef01761acf1763736cbd683a0df7249e524",
    "fold-threed-converging":
        "da18293b23fa292f386622e0a0f99a0c45f9eed15a710ec673858eb59f37ec57",
    "fold-threed-ends-before-x2":
        "48c8dc7180e1465d8d40249aab0f6ac0a7ac89624e8345b0d6555ef735b85245",
    "cold-simulate-config":
        "015917ebb559c93a364e2bc0fd14f9b5972bc24d91267590aa96435165694d05",
}


def cli_digest(args, config, tmp_path) -> str:
    cfg, out = tmp_path / "config.json", tmp_path / "out.txt"
    if config is not None:
        cfg.write_text(json.dumps(config))
    argv = [a.format(config=cfg, out=out) for a in args]
    res = CliRunner().invoke(main, argv)
    text = "exit=%d\n%s" % (res.exit_code, res.stdout)
    if out.exists():
        text += out.read_text()
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name,args,config", CLI_CASES,
                         ids=[c[0] for c in CLI_CASES])
def test_cli_stdout_and_exit_code_pinned(name, args, config, tmp_path):
    assert cli_digest(args, config, tmp_path) == CLI_DIGESTS[name]


def test_a_converging_threed_orbit_ends_where_z_underflows():
    """z_42 = 0.0: ``simulate`` prints x_0 .. x_42 and exits 3 with the
    non-finite state y_43 = +inf; ``fold`` compares those 43 terms,
    passes, and says why it stopped.  An orbit that ends before x_2
    leaves the fold no initial values: exit 3 with the diagnostic."""
    runner = CliRunner()
    res = runner.invoke(main, ["simulate"] + THREED_CONVERGING)
    rows = res.stdout.splitlines()
    assert res.exit_code == 3
    assert len(rows) == 44 and rows[0] == "n,x,y,z"
    assert rows[-1].startswith("42,") and float(rows[-1].split(",")[3]) == 0
    res = runner.invoke(main, ["fold"] + THREED_CONVERGING)
    payload = json.loads(res.stdout)
    assert res.exit_code == 0 and payload["passed"] is True
    assert payload["steps"] == 43
    assert payload["stopped"] == \
        "non-finite state (0.0, inf, 0.0) at step 43"
    res = runner.invoke(main, ["fold", "--model", "threed", "--a", "1e-300",
                               "--s", "1e300", "--q", "1e300", "--steps",
                               "0"])
    assert res.exit_code == 3 and res.stdout == ""


def test_the_near_tangent_competition_is_a_tangency():
    # The closed form for d1 = 2 read alpha = +inf here, and the orbit,
    # which sits at 1.0 = fl(fbar(1.0)), gave a false exit 4.
    # Its window ends below the touch point 1.0.
    alpha = 0.999998585861627
    res = CliRunner().invoke(main, ["threshold"] + NEAR_TANGENT + ["--json"])
    assert (res.exit_code, res.stdout) == (
        0, '{"model": "competition", "alpha": %r, "tangent": true}\n'
        % alpha)
    res = CliRunner().invoke(main, ["analyze"] + NEAR_TANGENT
                             + ["--init", "1,1", "--steps", "60"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["window"] == [0.0, alpha]


# -- reports ---------------------------------------------------------------


def _dicts_digest(reports) -> str:
    h = hashlib.sha256()
    for report in reports:
        h.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def _sp3_reports(predict, steps):
    for k in (1, 2, 3):
        eq, bound = sc.make_sp3(k)
        yield predict(eq, bound, sc.iterate(eq, (1.0, 1.0, 1.0), steps))


def _acceptance_sweep():
    """The scalar models and 100 random draws of acceptance test 11."""
    for k in (1, 2, 3):
        eq, bound = sc.make_sp3(k)
        yield sc.build_report(eq, bound, sc.iterate(eq, (1.0, 1.0, 1.0), 300))
    S = sc.ParameterSequence
    spec = sc.SigmoidBHSpec(S.constant(2.0), S.constant(1.0), S.constant(2.0),
                            p=3, b=1.0, k=1, l=2)
    eq = sc.translate_to_origin(sc.make_sigmoid_bh(spec), 1.0)
    yield sc.build_report(eq, sc.sigmoid_bh_bound(spec),
                          sc.iterate(eq, (0.1, 0.1), 300))
    rng = random.Random(1234)
    for _ in range(100):
        lam = rng.uniform(1.2, 2.5)
        m = rng.randint(1, 3)
        k = rng.randint(1, m)
        a = rng.uniform(0.0, 2.0)
        bs = [rng.uniform(0.1, 1.5) for _ in range(m)]
        eq, bound = sc.make_generalized_ricker(sc.RickerFamilySpec(
            lam, k, m, S.constant(a), tuple(S.constant(b) for b in bs)))
        init = [rng.uniform(0.05, 3.0) for _ in range(m)]
        yield sc.build_report(eq, bound, sc.iterate(eq, init, 300))


def _planar_reports():
    """The envelope predictions of tests/test_folding.py and acceptance
    test 10."""
    aj = sc.make_adult_juvenile(0.8, 1.0, 2.0, 2.0)
    alpha = sc.check_alternating_envelopes(aj).alpha
    for steps in (200, 300):
        yield sc.predict_alternating_convergence(
            aj, sc.iterate_system(aj, (1.0, 1.0), steps), alpha)
    comp = sc.make_competition(sc.CompetitionParams.make(
        1.0, 1.0, 1.0, 1.0, 2.0, 2.0))
    yield sc.predict_tail_convergence(
        comp, sc.iterate_system(comp, (0.9, 0.9), 100),
        sc.check_tail_envelope(comp).alpha)
    yield sc.predict_alternating_convergence(
        aj, sc.Orbit(((5.0, 5.0), (4.0, 6.0))), 0.1)
    swapped = sc.make_competition(sc.CompetitionParams.make(
        1.0, 1.0, 1.0, 1.0, 2.0, 2.0), swapped=True)
    yield sc.predict_alternating_convergence(
        swapped, sc.iterate_system(swapped, (0.9, 0.4), 100),
        sc.check_alternating_envelopes(swapped).alpha)


REPORTS = [
    ("build-report-sp3-450", lambda: _sp3_reports(sc.build_report, 450)),
    ("build-report-sp3-30000",
     lambda: _sp3_reports(sc.build_report, 30_000)),
    ("acceptance-11-sweep", _acceptance_sweep),
    ("planar-predictions", _planar_reports),
]

REPORT_DIGESTS = {
    "build-report-sp3-450":
        "c09f0763789ee1463c3b884dbf5c00926ac78148464e8da5cfbf24edc1a85326",
    "build-report-sp3-30000":
        "84a7a47f25e23d990d08aeab551143acc3f266d49830160f91c240ba6c3f52d3",
    "acceptance-11-sweep":
        "df350f72ff04d0d744d015fc34855e9f911884b01a3594ead6ddc8e828862674",
    "planar-predictions":
        "a362014d05da7f7b55a2f18ef01a2fd66ca2657242c837b562abf81e815264c5",
}


@pytest.mark.parametrize("name,reports", REPORTS,
                         ids=[r[0] for r in REPORTS])
def test_report_dicts_pinned(name, reports):
    assert _dicts_digest(reports()) == REPORT_DIGESTS[name]

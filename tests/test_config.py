import json

import pytest
from click.testing import CliRunner

from subconverge.cli import main
from subconverge.config import (SCHEMA_VERSION, ExperimentConfig,
                                load_config, parse_config)
from subconverge.errors import ConfigError
from subconverge.models import REGISTRY


def test_parse_minimal():
    cfg = parse_config('{"model": "sp3"}')
    assert cfg.model == "sp3"
    assert cfg.steps == 100
    assert cfg.format == "csv"


def test_parse_full():
    cfg = parse_config(
        '{"schema": 1, "model": "ricker", "params": {"k": 1},'
        ' "initial": [1, 2], "steps": 50, "format": "json",'
        ' "tolerances": {"zero": 1e-8}}')
    assert cfg.params == {"k": 1}
    assert cfg.initial == [1.0, 2.0]
    assert cfg.tolerances["zero"] == 1e-8


def test_unknown_key_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config('{"model": "sp3", "stepz": 5}')
    assert "stepz" in str(exc.value)


def test_analysis_key_rejected(tmp_path):
    text = '{"model": "sp3", "analysis": {"k": 2}}'
    with pytest.raises(ConfigError, match="unknown config keys: analysis"):
        parse_config(text)
    path = tmp_path / "exp.json"
    path.write_text(text)
    res = CliRunner().invoke(main, ["analyze", "--config", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: unknown config keys: analysis")


def test_bad_inputs_rejected():
    for text in ('not json', '[1, 2]', '{"model": "no-such-model"}',
                 '{"model": "sp3", "schema": 9}',
                 '{"model": "sp3", "format": "xml"}',
                 '{"model": "sp3", "steps": -1}',
                 '{"model": "sp3", "initial": "one"}',
                 '{"model": "sp3", "params": []}'):
        with pytest.raises(ConfigError):
            parse_config(text)


def test_to_dict_round_trip():
    cfg = ExperimentConfig(model="sp3", params={"k": 2}, initial=[1.0],
                           steps=10, format="json")
    d = cfg.to_dict()
    assert d["schema"] == SCHEMA_VERSION
    import json
    again = parse_config(json.dumps(d))
    assert again == cfg


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "nope.json"))


def test_load_config_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text('{"model": "sp3", "steps": 7}')
    cfg = load_config(str(path))
    assert cfg.model == "sp3" and cfg.steps == 7


# -- every schema key rejects a wrongly typed value -----------------------

SCHEMA_KEYS = [(model.name, name) for model in REGISTRY.values()
               for key, param in model.params.items()
               for name in (key,) + param.aliases]


@pytest.mark.parametrize("model,key", SCHEMA_KEYS,
                         ids=["%s-%s" % mk for mk in SCHEMA_KEYS])
@pytest.mark.parametrize("value", ["x", {"kind": "bogus"}, None],
                         ids=["text", "object", "null"])
def test_mistyped_param_exits_2_without_traceback(tmp_path, model, key,
                                                  value):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"model": model, "params": {key: value}}))
    res = CliRunner().invoke(main, ["simulate", "--config", str(path)])
    assert res.exit_code == 2
    assert not isinstance(res.exception, Exception)   # SystemExit only
    assert res.stderr.startswith("error: ") and repr(key) in res.stderr
    assert "Traceback" not in res.output


# -- tolerances and parameter names --------------------------------------


@pytest.mark.parametrize("tolerances", [
    {"limit": "x"}, {"zero": True}, {"zero": -1e-12}, {"limit": None},
    {"limit": [1e-3]}, {"zero": float("nan")}, {"limit": float("inf")},
    {"tol": 1e-3},
], ids=["text", "bool", "negative", "null", "list", "nan", "inf",
        "unknown-key"])
def test_bad_tolerances_rejected(tolerances):
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"model": "sp3", "tolerances": tolerances}))
    assert repr(next(iter(tolerances))) in str(exc.value)


def test_tolerances_accepted():
    cfg = parse_config('{"model": "sp3", "tolerances": '
                       '{"zero": 0, "limit": 1e-3}}')
    assert cfg.tolerances == {"zero": 0, "limit": 1e-3}


@pytest.mark.parametrize("model", sorted(REGISTRY))
def test_unknown_param_rejected(model):
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps({"model": model, "params": {"bogus": 1}}))
    assert "bogus" in str(exc.value)


def test_misspelt_param_rejected_alias_accepted():
    with pytest.raises(ConfigError, match="lamda"):
        parse_config('{"model": "ricker", "params": {"lamda": 3}}')
    assert parse_config('{"model": "ricker", "params": {"lam": 3}}'
                        ).params == {"lam": 3}
    # The cli-cold benchmark's config.
    assert parse_config('{"schema": 1, "model": "sp3", "params": {"k": 2},'
                        ' "initial": [1, 1, 1], "steps": 300}').params \
        == {"k": 2}


# -- JSON booleans are not numbers ---------------------------------------

NUMERIC_KEYS = [(model, key) for model, key in SCHEMA_KEYS
                if key != "rigorous"]


@pytest.mark.parametrize("model,key", NUMERIC_KEYS,
                         ids=["%s-%s" % mk for mk in NUMERIC_KEYS])
@pytest.mark.parametrize("value", [True, False, [1, True]],
                         ids=["true", "false", "list"])
def test_boolean_param_exits_2(tmp_path, model, key, value):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"model": model, "params": {key: value}}))
    res = CliRunner().invoke(main, ["simulate", "--config", str(path)])
    assert res.exit_code == 2
    assert res.stderr == "error: %s parameter %r: expected a number, not " \
                         "true or false\n" % (model, key)


@pytest.mark.parametrize("text", [
    '{"model": "sp3", "steps": true}',
    '{"model": "sp3", "initial": [true, false, 1]}',
    '{"model": "sp3", "params": {"k": true}}',
    '{"model": "ricker", "params": {"a": {"kind": "tabulated", '
    '"values": [1], "fallback": false}}}',
    '{"model": "sp3", "params": {"k": 1, "rigorous": 1}}',
], ids=["steps", "initial", "k", "tabulated-fallback", "rigorous-number"])
def test_boolean_where_a_number_belongs_rejected(text, tmp_path):
    with pytest.raises(ConfigError):
        parse_config(text)
    path = tmp_path / "exp.json"
    path.write_text(text)
    res = CliRunner().invoke(main, ["analyze", "--config", str(path)])
    assert res.exit_code == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_rigorous_is_still_a_boolean():
    assert parse_config('{"model": "sp3", "params": {"k": 1, '
                        '"rigorous": true}}').params["rigorous"] is True


# -- an exponent that no double holds ------------------------------------


@pytest.mark.parametrize("command", ["analyze", "simulate", "threshold"])
def test_an_exponent_beyond_the_doubles_exits_2(command):
    res = CliRunner().invoke(main, [command, "--model", "sigmoid-bh", "--p",
                                    "1e400", "--b", "1"])
    assert res.exit_code == 2
    assert res.stderr == "error: sigmoid-bh parameter 'p': '1e400' is not " \
                         "finite\n"


def test_an_exponent_beyond_the_doubles_in_a_config_exits_2(tmp_path):
    with pytest.raises(ConfigError, match="'p'"):
        REGISTRY["sigmoid-bh"].coerce({"p": "1e400"})
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"model": "sigmoid-bh",
                                "params": {"p": "1e400", "b": 1}}))
    res = CliRunner().invoke(main, ["analyze", "--config", str(path)])
    assert res.exit_code == 2
    assert res.stderr == "error: sigmoid-bh parameter 'p': '1e400' is not " \
                         "finite\n"

import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import riskrnn
from riskrnn.config import ConfigError, RunConfig, load_run_config
from riskrnn.model import VARIANTS, ModelConfig, variant_config
from riskrnn.synthworld import ScenarioConfig


def config_file(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestLoadRunConfig:
    def test_flag_beats_file_beats_default(self, tmp_path):
        path = config_file(tmp_path, "[training]\nepochs = 7  # a comment\nlr = 0.01\n")
        cfg = load_run_config(path, {"epochs": "3"})
        assert (cfg.epochs, cfg.lr, cfg.batch_size) == (3, 0.01, RunConfig().batch_size)
        assert load_run_config(path).epochs == 7

    def test_unknown_key_in_a_file_is_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown configuration key: 'no_such_key'"):
            load_run_config(config_file(tmp_path, "no_such_key = 1\n"))

    def test_duplicate_key_names_the_file_and_line(self, tmp_path):
        path = config_file(tmp_path, "[a]\nepochs = 3\n\n[b]\nepochs = 4\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:5: duplicate key 'epochs'")):
            load_run_config(path)


def test_every_scenario_field_reaches_scenario_config():
    defaults = ScenarioConfig()
    changed = {}
    for f in dataclasses.fields(ScenarioConfig):
        value = getattr(defaults, f.name)
        changed[f.name] = value + 1 if isinstance(value, int) else value / 2
    scenario = dataclasses.replace(RunConfig(), **changed).scenario_config()
    assert scenario == ScenarioConfig(**changed)
    scenario.validate()


def test_run_config_defaults_are_the_scenario_defaults():
    assert RunConfig().scenario_config() == ScenarioConfig()


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_config_defaults_are_the_model_defaults(variant):
    assert RunConfig().model_config(variant) == variant_config(
        ModelConfig(d_agent=32, d_region=32), variant)


def test_every_model_key_reaches_model_config():
    changed = {"d_u": 3, "h_agent": 5, "h_aa": 7, "horizon": 2, "imagine_steps": 2,
               "lambdas": (0.5, 0.25, 0.25)}
    cfg = dataclasses.replace(RunConfig(), **changed).model_config("L-RAI")
    assert {key: getattr(cfg, key) for key in changed} == changed


NAN, INF = float("nan"), float("inf")
NAN_SETTINGS = {
    "model lambdas": ModelConfig(lambdas=(NAN, 0.4)),
    "run lambdas": RunConfig(lambdas=(0.6, NAN)),
    "lr": RunConfig(lr=NAN),
    "time_scale": RunConfig(time_scale=NAN),
    "fps": RunConfig(fps=NAN),
    "dedup_iou": RunConfig(dedup_iou=NAN),
    "noise_sigma": ScenarioConfig(noise_sigma=NAN),
    "proposal_jitter": ScenarioConfig(proposal_jitter=NAN),
    "collision_iou": ScenarioConfig(collision_iou=NAN),
    "lr inf": RunConfig(lr=INF),
    "time_scale inf": RunConfig(time_scale=INF),
    "fps inf": RunConfig(fps=INF),
    "noise_sigma inf": ScenarioConfig(noise_sigma=INF),
    "proposal_jitter inf": ScenarioConfig(proposal_jitter=INF),
}


@pytest.mark.parametrize("config", NAN_SETTINGS.values(), ids=NAN_SETTINGS.keys())
def test_a_nan_setting_fails_validation(config):
    # a comparison that NaN or infinity passes would let it through; the CLI
    # rejects non-finite values when it parses them, but a config built in
    # code is only validated, and an infinite noise level writes features
    # that the dataset check then rejects
    with pytest.raises(ValueError, match="must"):
        config.validate()


def copied_run_defaults(package_dir) -> list[str]:
    """``module:line function(parameter=default)`` for each parameter of a
    function, method or lambda written in the package's sources that is
    named after a RunConfig key and defaults to that key's default. Each
    default is evaluated in its module, so a constant copied under another
    name counts too. Dataclass-generated ``__init__``s, where RunConfig's
    own defaults live, have no source and are not read."""
    defaults = {f.name: f.default for f in dataclasses.fields(RunConfig)}
    copies = []
    for path in sorted(Path(package_dir).glob("*.py")):
        name = "riskrnn" if path.stem == "__init__" else f"riskrnn.{path.stem}"
        namespace = vars(importlib.import_module(name))
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                     *zip(args.kwonlyargs, args.kw_defaults)]
            for arg, default in pairs:
                if default is None or arg.arg not in defaults:
                    continue
                value = eval(compile(ast.Expression(default), str(path), "eval"), namespace)
                if value == defaults[arg.arg]:
                    copies.append(f"{path.stem}:{node.lineno} "
                                  f"{getattr(node, 'name', '<lambda>')}({arg.arg}={value!r})")
    return copies


def test_no_parameter_restates_a_run_default():
    # a copied default drifts from RunConfig's when either changes alone
    assert copied_run_defaults(Path(riskrnn.__file__).parent) == []

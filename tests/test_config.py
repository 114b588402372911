import dataclasses
import re

import pytest

from riskrnn.config import ConfigError, RunConfig, load_run_config
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

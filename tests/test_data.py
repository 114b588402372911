import ast
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import riskrnn.data as data
import riskrnn.synthworld as synthworld
from riskrnn.data import DATASET_HEADER, read_dataset, write_dataset
from riskrnn.synthworld import ScenarioConfig, generate_split

CFG = ScenarioConfig(frames_per_video=4, n_regions=3, feature_dim=5,
                     n_distractor_proposals=2, seed=5)


@pytest.fixture
def samples():
    return generate_split(CFG, 3, "val")


@pytest.fixture
def dataset(tmp_path, samples):
    path = tmp_path / "val.dat"
    write_dataset(path, samples)
    return path


def imported_modules(module) -> set:
    """Top-level names a module imports, relative ones with their dots."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("." * node.level + (node.module or ""))
    return names


class TestRecords:
    def test_fields_cannot_be_set(self, samples):
        s = samples[0]
        for record, name in ((s, "proposals"), (s.targets, "t_accident"),
                             (s.frames[0], "agent_box"), (s.frames[0].regions, "feats"),
                             (s.proposals[0][0], "score")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)

    def test_a_negative_needs_an_empty_risky_entry_per_frame(self, samples):
        b = samples[0].targets.agent_track[0]
        with pytest.raises(ValueError, match="risky boxes have 0 entries for 2 frames"):
            data.VideoTargets(False, None, (b, b), ()).validate(2)
        negative = data.VideoTargets(False, None, (b, b), ((), ()))
        negative.validate(2)
        assert negative.risky_array().shape == (2, 0, 4)

    def test_data_layer_does_not_import_the_model(self):
        stdlib = set(sys.stdlib_module_names) | {"__future__"}
        assert imported_modules(data) - stdlib == {"numpy", ".geometry"}
        assert not imported_modules(synthworld) & {".model", ".losses", "json"}


class TestFileLayout:
    def test_arrays_and_conventions(self, dataset):
        with np.load(dataset, allow_pickle=False) as npz:
            assert npz["header"].item() == DATASET_HEADER
            assert npz["proposal_feat"].shape == (3, 4, 1 + 3 + 2, 5)
            assert npz["t_accident"].tolist() == [3, -1, 3]
            risky = npz["risky_box"]
        assert risky.shape == (3, 4, 1, 4)
        assert np.isnan(risky[1]).all() and not np.isnan(risky[[0, 2]]).any()

    def test_videos_must_share_their_sizes(self, tmp_path, samples):
        short = dataclasses.replace(
            samples[1], proposals=tuple(props[:-1] for props in samples[1].proposals))
        with pytest.raises(ValueError, match="proposal_box has shape"):
            write_dataset(tmp_path / "bad.dat", [samples[0], short])


def _rewrite(path, change):
    with np.load(path, allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    change(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


CORRUPTIONS = {
    "v1 text": lambda p: p.write_text("RISKRNN-DATASET v1\n{\"id\": \"train-00000\"}\n"),
    "truncated": lambda p: p.write_bytes(p.read_bytes()[:p.stat().st_size // 2]),
    "empty": lambda p: p.write_bytes(b""),
    "missing array": lambda p: _rewrite(p, lambda a: a.pop("region_feat")),
    "object array": lambda p: _rewrite(
        p, lambda a: a.update(video_id=np.array(list(a["video_id"]), dtype=object))),
    "wrong header": lambda p: _rewrite(
        p, lambda a: a.update(header=np.array("RISKRNN-DATASET v9"))),
    "inconsistent sizes": lambda p: _rewrite(
        p, lambda a: a.update(region_class=a["region_class"][:, :-1])),
    "invalid box": lambda p: _rewrite(
        p, lambda a: a["agent_box"].__setitem__((1, 2, 2), -0.5)),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_malformed_file_raises_value_error_naming_it(dataset, corrupt):
    corrupt(dataset)
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: ")):
        read_dataset(dataset)


def _copy_risky_box(a, src, dst):
    a["risky_box"][dst] = a["risky_box"][src]


LABEL_FAULTS = {
    # the fixture's videos 0 and 2 are positive with 4 frames, video 1 negative
    "positive without an accident frame": (0, lambda a: a["t_accident"].__setitem__(0, -1)),
    "positive accident after the last frame": (2, lambda a: a["t_accident"].__setitem__(2, 99)),
    "negative with an accident frame": (1, lambda a: a["t_accident"].__setitem__(1, 2)),
    "negative with a risky box": (1, lambda a: _copy_risky_box(a, 0, 1)),
}


@pytest.mark.parametrize("video,fault", LABEL_FAULTS.values(), ids=LABEL_FAULTS.keys())
def test_inconsistent_accident_labels_name_the_file_and_the_video(dataset, video, fault):
    _rewrite(dataset, fault)
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: ")) as err:
        read_dataset(dataset)
    assert f"video val-{video:05d}: " in str(err.value)

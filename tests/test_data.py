import ast
import dataclasses
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
                             (s.proposals[0], "scores"), (s.proposals[0][0], "score")):
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


finite = st.floats(-1e6, 1e6)


@st.composite
def video_proposals(draw):
    """A video's (T, M, 4) proposal boxes with positive sides, (T, M) scores
    and (T, M, D) features."""
    n_frames, n_proposals = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    centers = draw(arrays(np.float64, (n_frames, n_proposals, 2), elements=finite))
    sides = draw(arrays(np.float64, (n_frames, n_proposals, 2),
                        elements=st.floats(0.0, 1e6, exclude_min=True)))
    return (np.concatenate((centers, sides), axis=2),
            draw(arrays(np.float64, (n_frames, n_proposals), elements=finite)),
            draw(arrays(np.float64, (n_frames, n_proposals, dim), elements=finite)))


class TestProposalSet:
    @settings(max_examples=100, deadline=None)
    @given(video_proposals())
    def test_records_are_built_from_the_array_rows(self, video):
        xywh, scores, feats = video
        frames = data.proposal_frames(xywh, scores, feats)
        assert len(frames) == len(xywh)
        for t, proposals in enumerate(frames):
            for got, want in ((proposals.xywh, xywh), (proposals.scores, scores),
                              (proposals.feats, feats)):
                assert np.shares_memory(got, want) and (got == want[t]).all()
            records = list(proposals)
            assert len(records) == len(proposals) == xywh.shape[1]
            for i, record in enumerate(records):
                box = record.box
                assert (box.cx, box.cy, box.w, box.h) == tuple(xywh[t, i])
                assert type(record.score) is float and record.score == scores[t, i]
                assert np.shares_memory(record.feat, feats) and (record.feat == feats[t, i]).all()
            assert proposals[-1].score == records[-1].score
            with pytest.raises(IndexError):
                proposals[len(records)]

    @pytest.mark.parametrize("part,index,value,named", [
        ("xywh", (1, 2, 2), 0.0, "frame 1: proposal 2 has box [0.5, 0.5, 0.0, 0.25]"),
        ("xywh", (0, 1, 3), -0.25, "frame 0: proposal 1 has box [0.5, 0.5, 0.25, -0.25]"),
        ("xywh", (1, 0, 0), np.inf, "frame 1: proposal 0 has box [inf, 0.5, 0.25, 0.25]"),
        ("scores", (0, 2), np.nan, "frame 0: proposal 2 has box [0.5, 0.5, 0.25, 0.25] "
                                   "and score nan"),
    ], ids=["zero width", "negative height", "infinite center", "NaN score"])
    def test_a_bad_proposal_names_its_frame(self, part, index, value, named):
        video = dict(xywh=np.tile([0.5, 0.5, 0.25, 0.25], (2, 3, 1)), scores=np.ones((2, 3)),
                     feats=np.zeros((2, 3, 1)))
        video[part][index] = value
        with pytest.raises(ValueError, match="^" + re.escape(named)):
            data.proposal_frames(**video)


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
        short = dataclasses.replace(samples[1], proposals=tuple(
            data.ProposalSet(ps.xywh[:-1], ps.scores[:-1], ps.feats[:-1])
            for ps in samples[1].proposals))
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
# key and index of the value set, the value; the index names the video, the
# frame and the proposal
PROPOSAL_FAULTS = {
    "zero-width proposal box": ("proposal_box", (1, 2, 3, 2), 0.0),
    "infinite proposal center": ("proposal_box", (0, 3, 4, 1), -np.inf),
    "NaN proposal score": ("proposal_score", (2, 1, 5), np.nan),
}


def _set_proposal_value(key, index, value):
    return lambda p: _rewrite(p, lambda a: a[key].__setitem__(index, value))


CORRUPTIONS.update({name: _set_proposal_value(*fault) for name, fault in PROPOSAL_FAULTS.items()})


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_malformed_file_raises_value_error_naming_it(dataset, corrupt):
    corrupt(dataset)
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: ")):
        read_dataset(dataset)


@pytest.mark.parametrize("key,index,value", PROPOSAL_FAULTS.values(), ids=PROPOSAL_FAULTS.keys())
def test_a_bad_proposal_names_the_file_the_video_and_the_frame(dataset, key, index, value):
    _set_proposal_value(key, index, value)(dataset)
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: ")) as err:
        read_dataset(dataset)
    video, frame, proposal = index[:3]
    assert f"video val-{video:05d}: frame {frame}: proposal {proposal} has box " in str(err.value)


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

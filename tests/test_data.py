import ast
import dataclasses
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import riskrnn.data as data
import riskrnn.synthworld as synthworld
from riskrnn.data import DATASET_HEADER, read_dataset, write_dataset
from riskrnn.evaluation import tta_atta
from riskrnn.losses import SequenceTargets
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


# one video of CFG, cut to two frames, whose arrays a test replaces
VIDEO = generate_split(CFG, 1, "val")[0]
FRAME_KEYS = [key for key, (_, dims) in data._LAYOUT.items() if dims.startswith("VT")]


def two_frames(**arrays) -> data.VideoSample:
    cut = {key: getattr(VIDEO, key)[:2] for key in FRAME_KEYS}
    return dataclasses.replace(VIDEO, t_accident=1, **{**cut, **arrays})


class TestRecords:
    def test_fields_cannot_be_set(self, samples):
        s = samples[0]
        for record, name in ((s, "proposal_box"), (s.targets, "t_accident"),
                             (s.frames[0], "agent_box"), (s.frames[0], "region_feats"),
                             (s.proposals[0][0], "score"), (s.proposals[0][0], "box")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)

    def test_a_negative_needs_an_empty_risky_entry_per_frame(self, tmp_path, samples):
        positive, negative = samples[0], samples[1]
        assert np.isnan(negative.risky_box).all()
        write_dataset(tmp_path / "negative.dat", [negative])
        assert negative.targets.risky_boxes == ((),) * negative.n_frames
        risky = negative.risky_box.copy()
        risky[2] = positive.risky_box[2]
        with pytest.raises(ValueError, match=re.escape(
                f"video {negative.video_id}: negative video needs no accident frame and no "
                f"risky box, got accident frame -1 and 1 risky boxes")):
            write_dataset(tmp_path / "bad.dat", [dataclasses.replace(negative, risky_box=risky)])
        assert not (tmp_path / "bad.dat").exists()

    def test_data_layer_does_not_import_the_model(self):
        stdlib = set(sys.stdlib_module_names) | {"__future__"}
        assert imported_modules(data) - stdlib == {"numpy"}
        assert not imported_modules(synthworld) & {".model", ".losses", "json"}


finite = st.floats(-1e6, 1e6)
sides = st.floats(0.0, 1e6, exclude_min=True)


@st.composite
def box_arrays(draw, shape):
    """(*shape, 4) boxes with finite centers and positive sides."""
    return np.concatenate((draw(arrays(np.float64, shape + (2,), elements=finite)),
                           draw(arrays(np.float64, shape + (2,), elements=sides))), axis=-1)


@st.composite
def videos(draw):
    """A video of small random sizes whose risky rows are boxes or NaN padding."""
    n_frames, n_regions, n_proposals, n_risky, dim = (
        draw(st.integers(lo, 3)) for lo in (1, 1, 1, 0, 1))
    risky = draw(box_arrays((n_frames, n_risky)))
    risky[draw(arrays(np.bool_, (n_frames, n_risky)))] = np.nan
    t_accident = draw(st.integers(-1, n_frames - 1))
    return data.VideoSample(
        video_id=draw(st.text(max_size=5)), positive=t_accident >= 0, t_accident=t_accident,
        agent_class=draw(st.integers(0, 9)),
        region_class=draw(arrays(np.int64, n_regions, elements=st.integers(0, 9))),
        agent_box=draw(box_arrays((n_frames,))),
        agent_feat=draw(arrays(np.float64, (n_frames, dim), elements=finite)),
        region_box=draw(box_arrays((n_frames, n_regions))),
        region_feat=draw(arrays(np.float64, (n_frames, n_regions, dim), elements=finite)),
        proposal_box=draw(box_arrays((n_frames, n_proposals))),
        proposal_score=draw(arrays(np.float64, (n_frames, n_proposals), elements=finite)),
        proposal_feat=draw(arrays(np.float64, (n_frames, n_proposals, dim), elements=finite)),
        risky_box=risky)


def assert_boxes(got, rows) -> None:
    """``got`` is the rows as (cx, cy, w, h) tuples of Python floats."""
    assert list(got) == [tuple(map(float, row)) for row in rows]
    assert all(type(box) is tuple and all(type(v) is float for v in box) for box in got)


class TestRecordViews:
    @settings(max_examples=100, deadline=None)
    @given(videos())
    def test_the_views_are_the_array_rows(self, video):
        frames, targets = video.frames, video.targets
        assert len(frames) == len(targets.agent_track) == len(targets.risky_boxes) == \
            video.n_frames
        assert (targets.positive, targets.t_accident) == \
            (video.positive, None if video.t_accident == -1 else video.t_accident)
        assert video.region_classes == tuple(video.region_class)
        assert_boxes([frame.agent_box for frame in frames], video.agent_box)
        assert_boxes(targets.agent_track, video.agent_box)
        for t, frame in enumerate(frames):
            assert_boxes(frame.region_boxes, video.region_box[t])
            for got, want in ((frame.agent_feat, video.agent_feat[t]),
                              (frame.region_feats, video.region_feat[t])):
                assert np.shares_memory(got, want) and (got == want).all()
            # the risky view keeps exactly the rows that are not NaN padding
            assert_boxes(targets.risky_boxes[t],
                         [row for row in video.risky_box[t] if not np.isnan(row).all()])


class TestProposalSet:
    """A frame's proposals: a tuple of Proposal records over its rows."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 5))).flatmap(
        lambda tm: st.tuples(box_arrays(tm), arrays(np.float64, tm, elements=finite),
                             arrays(np.float64, tm + (3,), elements=finite))))
    def test_records_are_built_from_the_array_rows(self, video):
        xywh, scores, feats = video
        frames = dataclasses.replace(VIDEO, proposal_box=xywh, proposal_score=scores,
                                     proposal_feat=feats).proposals
        assert type(frames) is tuple and len(frames) == len(xywh)
        for t, records in enumerate(frames):
            assert type(records) is tuple and len(records) == xywh.shape[1]
            assert all(type(record) is data.Proposal for record in records)
            assert_boxes([record.box for record in records], xywh[t])
            for i, record in enumerate(records):
                assert type(record.score) is float and record.score == scores[t, i]
                assert np.shares_memory(record.feat, feats) and (record.feat == feats[t, i]).all()

    @pytest.mark.parametrize("part,index,value,named", [
        ("proposal_box", (1, 2, 2), 0.0, "frame 1: proposal 2 has box [0.5, 0.5, 0.0, 0.25]"),
        ("proposal_box", (0, 1, 3), -0.25,
         "frame 0: proposal 1 has box [0.5, 0.5, 0.25, -0.25]"),
        ("proposal_box", (1, 0, 0), np.inf,
         "frame 1: proposal 0 has box [inf, 0.5, 0.25, 0.25]"),
        ("proposal_score", (0, 2), np.nan, "frame 0: proposal 2 has box [0.5, 0.5, 0.25, 0.25] "
                                           "and score nan"),
    ], ids=["zero width", "negative height", "infinite center", "NaN score"])
    def test_a_bad_proposal_names_its_frame(self, tmp_path, part, index, value, named):
        proposals = dict(proposal_box=np.tile([0.5, 0.5, 0.25, 0.25], (2, 3, 1)),
                         proposal_score=np.ones((2, 3)),
                         proposal_feat=np.zeros((2, 3, CFG.feature_dim)))
        video = two_frames(**proposals)
        write_dataset(tmp_path / "video.dat", [video])
        proposals[part][index] = value
        with pytest.raises(ValueError, match=re.escape(f"video {VIDEO.video_id}: {named}")):
            write_dataset(tmp_path / "video.dat", [video])


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
        short = dataclasses.replace(samples[1], proposal_box=samples[1].proposal_box[:, :-1],
                                    proposal_score=samples[1].proposal_score[:, :-1],
                                    proposal_feat=samples[1].proposal_feat[:, :-1])
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
    "no frames": lambda p: _rewrite(
        p, lambda a: a.update({key: a[key][:, :0] for key in FRAME_KEYS})),
    "no proposals": lambda p: _rewrite(
        p, lambda a: a.update({key: a[key][:, :, :0] for key in PROPOSAL_KEYS})),
}
PROPOSAL_KEYS = ("proposal_box", "proposal_score", "proposal_feat")
# key and index of the value set, the value; the index names the video, the
# frame and the proposal
PROPOSAL_FAULTS = {
    "zero-width proposal box": ("proposal_box", (1, 2, 3, 2), 0.0),
    "infinite proposal center": ("proposal_box", (0, 3, 4, 1), -np.inf),
    "NaN proposal score": ("proposal_score", (2, 1, 5), np.nan),
}
# the same, and what the row is called; the index names the video, the frame
# and the row
ROW_FAULTS = {
    "NaN agent feature": ("agent_feat", (1, 2, 4), np.nan, "agent"),
    "NaN region feature": ("region_feat", (0, 3, 2, 0), np.nan, "region"),
    "infinite proposal feature": ("proposal_feat", (2, 0, 4, 3), np.inf, "proposal"),
    "risky box with a NaN center": ("risky_box", (2, 1, 0, 0), np.nan, "risky box"),
}


def _set_value(key, index, value, *_):
    return lambda p: _rewrite(p, lambda a: a[key].__setitem__(index, value))


CORRUPTIONS.update({name: _set_value(*fault) for name, fault in PROPOSAL_FAULTS.items()})
CORRUPTIONS.update({name: _set_value(*fault) for name, fault in ROW_FAULTS.items()})


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_malformed_file_raises_value_error_naming_it(dataset, corrupt):
    corrupt(dataset)
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: ")):
        read_dataset(dataset)


@pytest.mark.parametrize("key,index,value", PROPOSAL_FAULTS.values(), ids=PROPOSAL_FAULTS.keys())
def test_a_bad_proposal_names_the_file_the_video_and_the_frame(dataset, key, index, value):
    _set_value(key, index, value)(dataset)
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: ")) as err:
        read_dataset(dataset)
    video, frame, proposal = index[:3]
    assert f"video val-{video:05d}: frame {frame}: proposal {proposal} has box " in str(err.value)


@pytest.mark.parametrize("fault", ROW_FAULTS.values(), ids=ROW_FAULTS.keys())
def test_a_bad_row_names_the_file_the_video_the_frame_and_the_row(dataset, fault):
    # before the video check, each of these read without complaint: a NaN
    # feature went on into the metrics, and the risky row counted as padding
    key, index, value, what = fault
    _set_value(*fault)(dataset)
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: ")) as err:
        read_dataset(dataset)
    video, frame = index[:2]
    row = index[2] if len(index) == 4 else 0
    assert f"video val-{video:05d}: frame {frame}: {what} {row} has box " in str(err.value)


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


def test_of_several_faults_the_first_rule_is_named_then_the_first_video(tmp_path, samples):
    # video 0 breaks a row rule and video 2 a label rule; the labels come first
    agent_feat = samples[0].agent_feat.copy()
    agent_feat[1, 0] = np.nan
    split = [dataclasses.replace(samples[0], agent_feat=agent_feat), samples[1],
             dataclasses.replace(samples[2], t_accident=-1)]
    with pytest.raises(ValueError, match=re.escape(
            f"video {samples[2].video_id}: positive video needs an accident frame")):
        write_dataset(tmp_path / "val.dat", split)


def test_a_repeated_video_id_names_the_id_and_both_videos(tmp_path, dataset, samples):
    # video 1 also breaks a label rule; the id rule comes first
    split = [samples[0], dataclasses.replace(samples[1], t_accident=2),
             dataclasses.replace(samples[2], video_id=samples[0].video_id)]
    message = (f"video {samples[0].video_id}: video 2 repeats the id of video 0; "
               f"every video needs its own id")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_dataset(tmp_path / "repeated.dat", split)
    assert not (tmp_path / "repeated.dat").exists()
    _rewrite(dataset, lambda a: a["video_id"].__setitem__(2, a["video_id"][0]))
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: not a readable "
                                                   f"{DATASET_HEADER} file (ValueError: {message})")):
        read_dataset(dataset)


@pytest.mark.parametrize("video_id", ["../escaped", "", "..", "a\0b"])
def test_an_id_that_is_no_plain_file_name_names_the_video_and_the_id(tmp_path, dataset, samples,
                                                                    video_id):
    # video 2 also breaks a label rule; the id rule comes first
    split = [samples[0], dataclasses.replace(samples[1], video_id=video_id),
             dataclasses.replace(samples[2], t_accident=-1)]
    message = (f"video 1: id {video_id!r} is not a plain file name; every id needs to be "
               f"non-empty, not '.' or '..', and without '/' or NUL")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_dataset(tmp_path / "escaped.dat", split)
    assert not (tmp_path / "escaped.dat").exists()
    # a new array, as the file's may be too narrow for the id
    _rewrite(dataset, lambda a: a.update(video_id=np.array([v.video_id for v in split])))
    _rewrite(dataset, lambda a: a["t_accident"].__setitem__(2, -1))
    with pytest.raises(ValueError, match=re.escape(f"{dataset}: not a readable "
                                                   f"{DATASET_HEADER} file (ValueError: {message})")):
        read_dataset(dataset)


@pytest.mark.parametrize("t_accident", [-1, CFG.frames_per_video])
def test_a_file_the_loss_targets_and_tta_name_one_accident_frame_fault_alike(tmp_path, samples,
                                                                             t_accident):
    # videos 0 and 2 are positive; two broken ones, and the first is named
    split = [samples[0], samples[1], dataclasses.replace(samples[2], t_accident=t_accident),
             dataclasses.replace(samples[0], video_id="later", t_accident=-1)]
    message = (f"video {samples[2].video_id}: positive video needs an accident frame in "
               f"[0, {CFG.frames_per_video}), got {t_accident}")
    probs = np.full((len(split), CFG.frames_per_video), 0.5)
    for check in (lambda: write_dataset(tmp_path / "val.dat", split),
                  lambda: SequenceTargets.of(split, horizon=1, time_scale=1.0),
                  lambda: tta_atta(probs, [v.positive for v in split],
                                   [v.t_accident for v in split], [v.video_id for v in split])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check()


SPLIT = generate_split(CFG, 3, "val")
NOT_FILE_NAMES = ["", ".", "..", "../escaped", "a/b", "/", "a\0b"]
FLOAT_KEYS = [key for key, (dtype, _) in data._LAYOUT.items() if dtype is np.float64]


@st.composite
def corrupted_splits(draw):
    """SPLIT with one field of one video changed: an entry of one of its
    arrays set to NaN, an infinity, a side <= 0 or a value that may be
    harmless, its label flipped, its accident frame moved, or the id of a
    video (maybe its own) or one that is no plain file name given to it."""
    v = draw(st.integers(0, len(SPLIT) - 1))
    video = SPLIT[v]
    key = draw(st.sampled_from(FLOAT_KEYS + ["positive", "t_accident", "video_id"]))
    if key == "video_id":
        value = draw(st.sampled_from([other.video_id for other in SPLIT] + NOT_FILE_NAMES))
    elif key == "positive":
        value = not video.positive
    elif key == "t_accident":
        value = draw(st.integers(-2, video.n_frames + 1))
    else:
        value = getattr(video, key).copy()
        index = tuple(draw(st.integers(0, n - 1)) for n in value.shape)
        value[index] = draw(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.5, 0.5]))
    return SPLIT[:v] + [dataclasses.replace(video, **{key: value})] + SPLIT[v + 1:]


@settings(max_examples=200, deadline=None)
@given(corrupted_splits())
def test_write_rejects_exactly_the_files_read_rejects(split):
    # the same arrays saved without the check, as a file from elsewhere would be
    arrays = {key: np.array([getattr(video, key) for video in split], dtype=dtype)
              for key, (dtype, _) in data._LAYOUT.items()}
    with tempfile.TemporaryDirectory() as tmp:
        saved, written = Path(tmp) / "saved.dat", Path(tmp) / "written.dat"
        with open(saved, "wb") as fh:
            np.savez(fh, header=np.array(DATASET_HEADER), **arrays)
        try:
            read_dataset(saved)
        except ValueError as err:
            with pytest.raises(ValueError) as rejected:
                write_dataset(written, split)
            assert str(err) == (f"{saved}: not a readable {DATASET_HEADER} file "
                                f"(ValueError: {rejected.value})")
            assert not written.exists()
            return
        write_dataset(written, split)
        read = read_dataset(written)
    assert len(read) == len(split)
    for got, want in zip(read, split):
        for key, (dtype, _) in data._LAYOUT.items():
            got_a, want_a = np.asarray(getattr(got, key), dtype), np.asarray(getattr(want, key), dtype)
            assert (got_a.shape, got_a.tobytes()) == (want_a.shape, want_a.tobytes()), key

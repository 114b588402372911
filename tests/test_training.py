"""The training loop: the best-validation model it returns, its checks on the
loss and on the shapes of a split, and its determinism; a split's track
table and the rows a pass selects from it; and the model input it builds
from the tracks' and the videos' arrays."""
import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riskrnn import training
from riskrnn.autodiff import Tape
from riskrnn.config import RunConfig
from riskrnn.model import RiskModel
from riskrnn.nn import TrainingError
from riskrnn.pipeline import evaluate_model
from riskrnn.synthworld import generate_scenario, generate_split
from riskrnn.tracking import deduplicate_tracks, track_by_detection
from riskrnn.training import (_Split, _validation_pass, detected_tracks, stack_regions,
                              track_inputs, train_model)

from helpers import TINY_CONFIG, random_video

# a learning rate this high makes validation loss rise after epoch 3 on this
# split, so the returned model is not the last epoch's
CFG = RunConfig(n_train=3, n_val=2, epochs=5, patience=6, lr=0.3, batch_size=1, seed=4)


@pytest.fixture(scope="module")
def splits():
    scenario = CFG.scenario_config()
    return (generate_split(scenario, CFG.n_train, "train"),
            generate_split(scenario, CFG.n_val, "val"))


@pytest.mark.parametrize("variant", ["RA", "L-RAI"])
def test_the_returned_model_has_the_least_validation_loss(splits, variant):
    model, history = train_model(CFG, variant, *splits)
    best = min(history, key=lambda stats: stats.val_loss)
    assert history[-1].val_loss > best.val_loss
    val = _Split(splits[1], model.cfg.horizon, CFG.time_scale)
    assert _validation_pass(model, val, CFG, best.epoch)[0] == best.val_loss


@pytest.mark.parametrize("empty", ["training", "validation"])
def test_an_empty_split_is_an_error_naming_it(splits, empty):
    train, val = splits
    with pytest.raises(ValueError, match=f"the {empty} split has no videos"):
        train_model(CFG, "RA", [] if empty == "training" else train,
                    [] if empty == "validation" else val)


def with_nan_region_features(sample):
    return dataclasses.replace(sample, region_feat=np.full_like(sample.region_feat, np.nan))


def test_a_non_finite_loss_names_the_epoch_and_the_video(splits):
    train, val = splits
    sample = train[1]
    with pytest.raises(TrainingError, match=f"at epoch 1, video {sample.video_id}$"):
        train_model(CFG, "RA", [with_nan_region_features(sample)], val)
    # with batch_size 3 the three videos run as one batch, and at most one of
    # the three choices of the broken video puts it first in that batch
    for broken, sample in enumerate(train):
        videos = list(train)
        videos[broken] = with_nan_region_features(sample)
        with pytest.raises(TrainingError, match=f"at epoch 1, video {sample.video_id}$"):
            train_model(dataclasses.replace(CFG, batch_size=3), "RA", videos, val)


@pytest.mark.parametrize("batch_size", [1, 2])
def test_a_non_finite_validation_loss_names_the_epoch_and_the_video(splits, batch_size):
    # NaN never improves on the best validation loss, so training would
    # otherwise return the untrained model without a word
    train, val = splits
    broken = with_nan_region_features(val[1])
    with pytest.raises(TrainingError, match=f"^non-finite validation loss at epoch 1, "
                                            f"video {broken.video_id}$"):
        train_model(dataclasses.replace(CFG, batch_size=batch_size), "RA", train,
                    [val[0], broken])


@pytest.mark.parametrize("field,key", [("frames_per_video", "agent_box"),
                                       ("n_regions", "region_class")], ids=["frames", "regions"])
def test_a_split_of_two_shapes_fails_before_any_tracking_or_epoch(splits, monkeypatch,
                                                                  field, key):
    train, val = splits
    odd_cfg = dataclasses.replace(CFG, **{field: getattr(CFG, field) - 2})
    odd = dataclasses.replace(generate_scenario(odd_cfg.scenario_config(), positive=True,
                                                split="test"), video_id="odd")

    def never(*args, **kwargs):
        raise AssertionError("a split of two shapes reached the tracker or an epoch")

    monkeypatch.setattr(training, "track_by_detection", never)
    # the split is checked as a whole, so neither the batch size nor the
    # shuffle's seed decides whether or how it fails
    for train_videos, val_videos, first in (([*train, odd], val, train[0]),
                                            (train, [val[0], odd], val[0])):
        message = (f"video odd: {key} has shape {getattr(odd, key).shape}, not "
                   f"{getattr(first, key).shape} as video {first.video_id}")
        for batch_size in (1, 4):
            for seed in range(8):
                cfg = dataclasses.replace(CFG, batch_size=batch_size, seed=seed)
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    train_model(cfg, "RA", train_videos, val_videos, progress=never)


# a video's frames share one proposal count, so a frame without proposals is
# a video without them, and its first frame is named
@pytest.mark.parametrize("empty_frame", [0])
def test_a_frame_without_proposals_names_the_video_and_the_frame(splits, empty_frame):
    train, val = splits
    sample = train[1]
    broken = dataclasses.replace(sample, proposal_box=sample.proposal_box[:, :0],
                                 proposal_score=sample.proposal_score[:, :0],
                                 proposal_feat=sample.proposal_feat[:, :0])
    with pytest.raises(ValueError, match=f"^video {sample.video_id}: frame {empty_frame} "
                                         f"has no proposals"):
        train_model(CFG, "L-RA", [train[0], broken], val)


# in-memory videos are not checked as a dataset file's are
@pytest.mark.parametrize("t_accident", [-1, CFG.frames_per_video])
def test_a_positive_without_an_accident_frame_names_the_video(splits, t_accident):
    train, val = splits
    broken = dataclasses.replace(train[0], t_accident=t_accident)
    assert broken.positive
    with pytest.raises(ValueError, match=rf"^video {broken.video_id}: positive video needs an "
                                         rf"accident frame in \[0, {CFG.frames_per_video}\), "
                                         rf"got {t_accident}$"):
        train_model(CFG, "RA", [broken, train[1]], val)


def test_one_seed_gives_one_run(splits):
    (first, first_history), (second, second_history) = (
        train_model(CFG, "L-RAI", *splits) for _ in range(2))
    assert first_history == second_history
    for pm in first.store:
        assert np.array_equal(pm.values, second.store[pm.name].values)


@settings(max_examples=25, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**16), n_videos=st.integers(1, 4),
       n_frames=st.integers(2, 4), dedup_iou=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       batch_size=st.integers(1, 4))
def test_a_splits_tracks_are_one_table_of_each_videos_rows(data, seed, n_videos, n_frames,
                                                          dedup_iou, batch_size):
    cfg = RunConfig(seed=seed, frames_per_video=n_frames, n_regions=2, feature_dim=4,
                    n_classes=2, n_distractor_proposals=3, top_init=4, dedup_iou=dedup_iou,
                    batch_size=batch_size)
    videos = generate_split(cfg.scenario_config(), n_videos, "train")
    # the per-video reference: each video tracked alone, and the tracker's
    # rows at its deduplicated indices
    reference = []
    for v in videos:
        [boxes], [feats], [scores] = track_by_detection(
            [v.proposal_box], [v.proposal_feat], [v.proposal_score], top_init=cfg.top_init,
            top_iou=cfg.top_iou)
        kept = deduplicate_tracks(boxes, scores, dedup_iou=dedup_iou)
        reference.append((boxes[kept], feats[kept]))

    table = detected_tracks(videos, cfg)
    np.testing.assert_array_equal(table[0], np.concatenate([b for b, _ in reference]))
    np.testing.assert_array_equal(table[1], np.concatenate([f for _, f in reference]))
    np.testing.assert_array_equal(table[2], np.repeat(np.arange(n_videos),
                                                      [len(b) for b, _ in reference]))

    # a batch's rows of the split are the candidates the per-video lists,
    # annotated track first, give its picks
    split = _Split(videos, cfg.horizon, cfg.time_scale, table)
    candidates = [(np.concatenate([v.agent_box[None], b]),
                   np.concatenate([v.agent_feat[None], f]))
                  for v, (b, f) in zip(videos, reference)]
    batch = np.array(data.draw(st.permutations(range(n_videos)))[:batch_size])
    picks = [data.draw(st.integers(0, len(candidates[i][0]) - 1)) for i in batch]
    model = RiskModel.create(cfg.model_config("RA"), seed=0)
    with mock.patch.object(training, "track_inputs", wraps=track_inputs) as spy:
        split.loss(model, batch, picks, Tape(train=False))
    boxes, feats, _, video_of = spy.call_args.args
    np.testing.assert_array_equal(boxes, [candidates[i][0][k] for i, k in zip(batch, picks)])
    np.testing.assert_array_equal(feats, [candidates[i][1][k] for i, k in zip(batch, picks)])
    np.testing.assert_array_equal(video_of, batch)

    # eval runs each video's rows, batch_size videos per pass
    summary = evaluate_model(model, videos, cfg)
    assert [result.n_tracks for result in summary.videos] == [len(b) for b, _ in reference]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_videos=st.integers(1, 4), n_frames=st.integers(1, 5),
       n_regions=st.integers(1, 4), views=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_track_inputs_puts_frame_t_of_sequence_b_at_column_t_times_b_plus_b(
        data, n_videos, n_frames, n_regions, views, seed):
    # any video_of: a permutation of the videos, or any list of them, with
    # repeats, and a single video among them
    video_of = data.draw(st.one_of(st.permutations(range(n_videos)),
                                   st.lists(st.integers(0, n_videos - 1), min_size=1,
                                            max_size=6)))
    n_sequences = len(video_of)
    rng = np.random.default_rng(seed)
    videos = [random_video(rng, TINY_CONFIG, n_frames, n_regions) for _ in range(n_videos)]
    boxes = rng.uniform(size=(n_frames, n_sequences, 4)).transpose(1, 0, 2)
    feats = rng.normal(size=(n_frames, n_sequences, TINY_CONFIG.d_agent)).transpose(1, 0, 2)
    if views:  # strided inputs, as the tracker's output and a file's rows can be
        videos = [dataclasses.replace(v, region_box=np.asfortranarray(v.region_box),
                                      region_feat=np.asfortranarray(v.region_feat))
                  for v in videos]
        regions = tuple(map(np.asfortranarray, stack_regions(videos)))
    else:
        boxes, feats = list(boxes.copy()), list(feats.copy())
        regions = stack_regions(videos)
    frames = track_inputs(boxes, feats, regions, video_of)
    agent_feats = frames.feats.reshape(TINY_CONFIG.d_agent, -1)
    agent_boxes = frames.boxes.reshape(4, -1)
    for s, v in enumerate(video_of):
        for t in range(n_frames):
            column = t * n_sequences + s
            assert np.all(agent_feats[:, column] == feats[s][t])
            assert np.all(agent_boxes[:, column] == boxes[s][t])
            assert np.all(frames.region_boxes[column] == videos[v].region_box[t])
            assert np.all(frames.region_feats[:, column] == videos[v].region_feat[t].T)
    assert len(frames) == n_frames
    assert all(a.flags.c_contiguous for a in (frames.feats, frames.boxes, frames.region_boxes,
                                              frames.region_feats))

"""The training loop: the best-validation model it returns, its checks on the
loss and on the shapes of a batch, and its determinism."""
import dataclasses

import numpy as np
import pytest

from riskrnn.config import RunConfig
from riskrnn.nn import TrainingError
from riskrnn.synthworld import generate_scenario, generate_split
from riskrnn.training import _Split, _validation_pass, train_model

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
    best = min(stats.val_loss for stats in history)
    assert history[-1].val_loss > best
    val = _Split(splits[1], model.cfg.horizon, CFG.time_scale)
    assert _validation_pass(model, val, CFG)[0] == best


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


@pytest.mark.parametrize("field,what", [("frames_per_video", "frames"),
                                        ("n_regions", "regions per frame")])
def test_a_batch_of_two_shapes_names_the_first_odd_video_and_both_counts(splits, field, what):
    train, val = splits
    odd_cfg = dataclasses.replace(CFG, **{field: getattr(CFG, field) - 2})
    odd = generate_scenario(odd_cfg.scenario_config(), positive=True, split="test",
                            video_id="odd")
    n, odd_n = getattr(CFG, field), getattr(odd_cfg, field)
    cfg = dataclasses.replace(CFG, batch_size=4)
    # a training batch comes in drawn order: the odd video is either the first
    # to differ from the batch's first video, or that first video itself
    with pytest.raises(ValueError, match=(
            rf"^video ({odd.video_id} has {odd_n} {what} and video \S+ has {n}|"
            rf"\S+ has {n} {what} and video {odd.video_id} has {odd_n}); the videos of a "
            rf"batch need one frame count and one region count$")):
        train_model(cfg, "RA", [*train, odd], val)
    # validation runs its videos in order
    with pytest.raises(ValueError, match=(
            rf"^video {odd.video_id} has {odd_n} {what} and video {val[0].video_id} "
            rf"has {n}; ")):
        train_model(cfg, "RA", train, [val[0], odd])


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


def test_one_seed_gives_one_run(splits):
    (first, first_history), (second, second_history) = (
        train_model(CFG, "L-RAI", *splits) for _ in range(2))
    assert first_history == second_history
    for pm in first.store:
        assert np.array_equal(pm.values, second.store[pm.name].values)

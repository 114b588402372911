"""The training loop: the best-validation model it returns, its check on the
loss, and its determinism."""
import dataclasses

import numpy as np
import pytest

from riskrnn.config import RunConfig
from riskrnn.data import RegionSet
from riskrnn.nn import TrainingError
from riskrnn.synthworld import generate_split
from riskrnn.training import _validation_pass, train_model

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
    assert _validation_pass(model, splits[1], CFG)[0] == best


def test_a_non_finite_loss_names_the_epoch_and_the_video(splits):
    train, val = splits
    sample = train[1]
    frames = tuple(dataclasses.replace(
        frame, regions=RegionSet(frame.regions.boxes, np.full_like(frame.regions.feats, np.nan)))
        for frame in sample.frames)
    with pytest.raises(TrainingError, match=f"at epoch 1, video {sample.video_id}$"):
        train_model(CFG, "RA", [dataclasses.replace(sample, frames=frames)], val)


@pytest.mark.parametrize("empty_frame", [0, 5])
def test_a_frame_without_proposals_names_the_video_and_the_frame(splits, empty_frame):
    train, val = splits
    sample = train[1]
    proposals = list(sample.proposals)
    proposals[empty_frame] = ()
    broken = dataclasses.replace(sample, proposals=tuple(proposals))
    with pytest.raises(ValueError, match=f"^video {sample.video_id}: frame {empty_frame} "
                                         f"has no proposals"):
        train_model(CFG, "L-RA", [train[0], broken], val)


def test_one_seed_gives_one_run(splits):
    (first, first_history), (second, second_history) = (
        train_model(CFG, "L-RAI", *splits) for _ in range(2))
    assert first_history == second_history
    for pm in first.store:
        assert np.array_equal(pm.values, second.store[pm.name].values)

"""The benchmark's traced run replaces program functions by the names their
callers look up (``bench/tracing.py``). This checks that every one of those
names still exists and that a traced training run still goes through them."""
import sys
from pathlib import Path

from riskrnn import geometry, model, training
from riskrnn.config import RunConfig
from riskrnn.model import VARIANTS
from riskrnn.synthworld import generate_split

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


def test_every_patched_attribute_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing._patches() if not hasattr(owner, attr)]
    assert missing == []


def test_every_patched_iou_is_the_geometry_one():
    # a module-local copy would silently drop out of the geometry.iou counts
    owners = [owner for owner, attr, _ in tracing._patches() if attr == "iou"]
    assert owners
    assert [o.__name__ for o in owners if o.iou is not geometry.iou] == []


def test_a_traced_training_epoch_reaches_every_wrapper():
    cfg = RunConfig(n_train=2, n_val=1, epochs=1, patience=2, seed=5)
    train_videos = generate_split(cfg.scenario_config(), cfg.n_train, "train")
    val_videos = generate_split(cfg.scenario_config(), cfg.n_val, "val")
    original = model.forward_video
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for variant in VARIANTS:
            tracer.variant = variant
            training.train_model(cfg, variant, train_videos, val_videos)
            tracer.commit(cfg.n_train)
    assert model.forward_video is original

    for name in [f"model.{stage}" for stage in tracing.MODEL_STAGES] + [
            "nn.lstm_step", "autodiff.Tape.backward", "losses.total_loss.recording",
            "model.forward_video.recording", "nn.adam_step", "training.detected_tracks"]:
        assert tracer.seconds(name), name
    for variant in VARIANTS:
        assert tracer.total("model.taped_nodes", variant) > 0
        assert tracer.total("model.frames", variant) > 0
        assert 0 < tracer.total("autodiff.grad_nodes", variant) <= tracer.total(
            "autodiff.taped_nodes", variant)
    metrics = tracing.layer_metrics("train", tracer)
    assert all(metrics[name] is not None for name in metrics), metrics

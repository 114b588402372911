"""Why each metric the benchmark reports was chosen and, for a per-layer
metric, the end-to-end metric (and workload) it should move.

BENCHMARK.json alone holds each metric's name, unit, direction and bound,
and ``run.py`` reads them from there. Its entries may carry no other key,
so the reasons are kept here, by name.

The end-to-end metrics are reported on every workload, so each one is
defined for all three. Throughput per variant is a per-layer metric: the
data workload has no variants, and RAI and L-RAI have no successful call
to measure at this commit.
"""
from __future__ import annotations

from tracing import LAYER_VARIANTS, MODEL_STAGES
from workloads import WORKLOADS

# name -> why it was chosen
END_TO_END = {
    "setup_s": "Imports plus input generation and model creation before the timed loop "
               "(imports once, then the median of 3 set-ups), so work moved out of the "
               "loop into set-up shows.",
    "videos_per_s": "Successful videos per second of the timed calls' total wall time, "
                    "failed calls included. A call counts n_train x epochs videos (train), "
                    "n_test (eval), or every video of its generate-write-read round trip "
                    "(data).",
    "ok_frac": "Successful operations / attempted; an operation is one variant call or one "
               "data round, and an exception or a failed output check fails it.",
    "peak_rss_mb": "Peak resident memory of the benchmark process, which holds the "
                   "program's whole working set.",
}


def _per_variant(prefix, why, moves):
    return {f"{prefix}.{v}": (why, moves) for v in LAYER_VARIANTS}


# name -> (why it was chosen, the end-to-end metric it should move)
PER_LAYER = {
    "synthworld.generate_split.ms_per_video": (
        "Scenario generation, the first stage of `riskrnn generate`.",
        "videos_per_s on data; setup_s on train and eval"),
    "synthworld.write_dataset.ms_per_video": (
        "JSON dataset writing, most of the time of `riskrnn generate`.",
        "videos_per_s on data"),
    "synthworld.read_dataset.ms_per_video": (
        "JSON dataset parsing, paid by every train and eval command.",
        "videos_per_s on data"),
    "synthworld.bytes_per_video": (
        "Dataset file size per video; a binary format should cut it.",
        "videos_per_s on data"),
    "tracking.track_by_detection.ms_per_video": (
        "Scalar-IoU tracking, about half of each RA and L-RA eval video.",
        "videos_per_s on eval (and on train, once per training video per call)"),
    "tracking.deduplicate_tracks.ms_per_video": (
        "Pairwise track de-duplication.", "videos_per_s on eval"),
    "tracking.tracks_per_video": (
        "Tracks the test protocol runs the model on per video.", "videos_per_s on eval"),
    "tracking.dedup_keep_ratio": (
        "Tracks kept / tracks started; the rest is tracking work thrown away.",
        "videos_per_s on eval"),
    **{f"geometry.iou.calls_per_video.{w}": (
        f"Scalar IoU calls per video made by the program on {w} (tracking, evaluation, "
        "losses, synthworld), not by the output checks; vectorised IoU should cut them.",
        f"videos_per_s on {w}") for w in WORKLOADS},
    **_per_variant("pipeline.eval_video.ms_p50",
                   "Median test-protocol time per video (tracking plus every track's "
                   "forward pass).", "videos_per_s on eval"),
    **_per_variant("pipeline.eval_video.ms_p90",
                   "90th-percentile time per video; videos with many tracks set it.",
                   "videos_per_s on eval"),
    **_per_variant("model.forward_video.ms_per_track",
                   "Non-recording forward pass per track; batching tracks should cut it.",
                   "videos_per_s on eval"),
    **_per_variant("model.forward_video.ms_per_video",
                   "Recording forward pass per training video.", "videos_per_s on train"),
    **_per_variant("model.taped_nodes_per_frame",
                   "Tape nodes recorded per frame, a machine-independent cost of "
                   "forward and backward.", "videos_per_s on train"),
    **{f"model.{stage}.us_per_call.{w}": (
        f"Mean time of one model.{stage} call on {w}.", f"videos_per_s on {w}")
       for stage in MODEL_STAGES for w in ("train", "eval")},
    **_per_variant("autodiff.Tape.backward.ms_per_video",
                   "Backward sweep per training video.", "videos_per_s on train"),
    **_per_variant("autodiff.grad_node_frac",
                   "Taped nodes the loss gradient reaches / taped nodes; the rest is "
                   "recorded for nothing.", "videos_per_s on train"),
    **_per_variant("losses.total_loss.ms_per_video",
                   "Loss construction per training video, region labels included.",
                   "videos_per_s on train"),
    **{f"nn.lstm_step.us_per_call.{w}": (
        f"One LSTM step on {w}; only L-RA (and L-RAI) run it.", f"videos_per_s on {w}")
       for w in ("train", "eval")},
    "nn.adam_step.ms_per_step": (
        "One Adam update over every parameter.", "videos_per_s on train"),
    "training.detected_tracks.ms_per_video": (
        "Tracking plus de-duplication that train_model runs once per training video per "
        "call; the train workload keeps its default-run share of the call (1.4% on L-RA, "
        "2.8% on RA).", "videos_per_s on train"),
    **_per_variant("training.epoch_s",
                   "Wall time of one epoch (training plus validation) from the progress "
                   "callback, untraced.", "videos_per_s on train"),
    **{f"evaluation.{name}.ms_per_call": (
        f"One evaluation.{name} call over the test split.", "videos_per_s on eval")
       for name in ("tta_atta", "region_average_precision", "oracle_region_average_precision")},
    "evaluation.match_frame_detections.calls_per_video": (
        "Greedy frame matches per evaluated video (region AP and its oracle).",
        "videos_per_s on eval"),
    **{f"videos_per_s.{w}.{v}": (
        f"Untraced {w} throughput of variant {v} alone.", f"videos_per_s on {w}")
       for w in ("train", "eval") for v in LAYER_VARIANTS},
    **{f"trace.overhead_frac.{w}": (
        f"(traced - untraced) / untraced round time on {w}, fastest round of each, as "
        "load from other processes only adds time: what the wrappers add.",
        "none; it qualifies the per-layer times") for w in WORKLOADS},
}

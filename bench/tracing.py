"""The traced run: wrappers around the program's public functions.

``installed(tracer)`` replaces each function under the name its caller looks
it up by (``training.forward_video``, ``tracking.iou`` and so on) with a
wrapper that records its wall time or counts its calls, and puts the
originals back on exit. Nothing under ``src/`` knows about it.

Records are kept per variant, and pending until the operation that made
them ends: a successful one commits them, a failed one discards them, so
every per-layer number describes successful operations only. While the
harness checks an output the tracer is paused, so calls the checks make
into the program are not counted as the operation's work.
"""
from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import mean, quantiles
from time import perf_counter

from riskrnn import autodiff, evaluation, losses, model, pipeline, synthworld, tracking, training

# Variants with per-variant layer metrics. RAI and L-RAI raise before their
# first frame completes, so they have no successful calls to measure yet.
LAYER_VARIANTS = ("RA", "L-RA")
MODEL_STAGES = ("score_regions", "pool_regions", "anticipate_step", "agent_rnn_step")
# Units of the metrics that depend only on the inputs, so every traced round
# must give them exactly.
EXACT_UNITS = ("count", "bytes", "ratio")


class Tracer:
    def __init__(self):
        self.variant = None
        self.spans = defaultdict(list)   # (name, variant) -> [seconds]
        self.counts = Counter()          # (name, variant) -> n
        self.videos = Counter()          # variant -> videos of committed ops
        self._spans = defaultdict(list)
        self._counts = Counter()
        self._paused = False

    def span(self, name, seconds):
        if not self._paused:
            self._spans[name, self.variant].append(seconds)

    def count(self, name, n=1):
        if not self._paused:
            self._counts[name, self.variant] += n

    @contextmanager
    def paused(self):
        """Record nothing inside: for the harness's own calls into the program."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def commit(self, videos):
        for key, values in self._spans.items():
            self.spans[key].extend(values)
        self.counts.update(self._counts)
        self.videos[self.variant] += videos
        self.discard()

    def discard(self):
        self._spans.clear()
        self._counts.clear()

    def merge(self, other: "Tracer"):
        for key, values in other.spans.items():
            self.spans[key].extend(values)
        self.counts.update(other.counts)
        self.videos.update(other.videos)

    def seconds(self, name, variant=None) -> list:
        return [s for (n, v), values in self.spans.items()
                if n == name and variant in (None, v) for s in values]

    def total(self, name, variant=None) -> int:
        return sum(c for (n, v), c in self.counts.items() if n == name and variant in (None, v))

    def total_videos(self) -> int:
        return sum(self.videos.values())


def _timed(name, after=None):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            out = fn(*args, **kwargs)
            tracer.span(name, perf_counter() - start)
            if after is not None:
                after(tracer, args, out)
            return out
        return wrapper
    return make


def _counted(name):
    def make(tracer, fn):
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        return wrapper
    return make


def _forward(tracer, fn):
    def wrapper(store, cfg, frames, tape):
        before = len(tape.nodes)
        start = perf_counter()
        out = fn(store, cfg, frames, tape)
        mode = "recording" if tape.train else "inference"
        tracer.span(f"model.forward_video.{mode}", perf_counter() - start)
        if tape.train:
            tracer.count("model.taped_nodes", len(tape.nodes) - before)
            tracer.count("model.frames", len(frames))
        return out
    return wrapper


def _backward(tracer, fn):
    def wrapper(tape, loss, seed=1.0):
        start = perf_counter()
        fn(tape, loss, seed)
        tracer.span("autodiff.Tape.backward", perf_counter() - start)
        tracer.count("autodiff.taped_nodes", len(tape.nodes))
        tracer.count("autodiff.grad_nodes", sum(1 for n in tape.nodes if n.grad is not None))
    return wrapper


def _total_loss(tracer, fn):
    def wrapper(tape, *args, **kwargs):
        start = perf_counter()
        out = fn(tape, *args, **kwargs)
        mode = "recording" if tape.train else "inference"
        tracer.span(f"losses.total_loss.{mode}", perf_counter() - start)
        return out
    return wrapper


def _videos(name, videos_of):
    return lambda tracer, args, out: tracer.count(name + ".videos", videos_of(args, out))


def _dedup_counts(tracer, args, out):
    tracer.count("tracking.tracks_started", len(args[0]))
    tracer.count("tracking.tracks_kept", len(out))


def _file_bytes(tracer, args, out):
    tracer.count("synthworld.videos_written", len(args[1]))
    tracer.count("synthworld.bytes", os.path.getsize(args[0]))


def _patches():
    """(owner, attribute, wrapper factory): each at the name its caller uses."""
    tracked = _timed("training.detected_tracks")
    iou = _counted("geometry.iou")
    return [
        (synthworld, "generate_split",
         _timed("synthworld.generate_split", _videos("synthworld.generate_split",
                                                     lambda a, out: len(out)))),
        (synthworld, "write_dataset", _timed("synthworld.write_dataset", _file_bytes)),
        (synthworld, "read_dataset",
         _timed("synthworld.read_dataset", _videos("synthworld.read_dataset",
                                                   lambda a, out: len(out)))),
        (synthworld, "iou", iou),
        (tracking, "iou", iou),
        (losses, "iou", iou),
        (evaluation, "iou", iou),
        (training, "detected_tracks", tracked),
        (pipeline, "detected_tracks", tracked),
        (training, "track_by_detection", _timed("tracking.track_by_detection")),
        (training, "deduplicate_tracks", _timed("tracking.deduplicate_tracks", _dedup_counts)),
        (training, "forward_video", _forward),
        (model, "forward_video", _forward),
        *[(model, stage, _timed(f"model.{stage}")) for stage in MODEL_STAGES],
        (model, "lstm_step", _timed("nn.lstm_step")),
        (autodiff.Tape, "backward", _backward),
        (training, "total_loss", _total_loss),
        (training, "adam_step", _timed("nn.adam_step")),
        (pipeline, "eval_video", _timed("pipeline.eval_video")),
        (pipeline, "tta_atta", _timed("evaluation.tta_atta")),
        (pipeline, "region_average_precision", _timed("evaluation.region_average_precision")),
        (pipeline, "oracle_region_average_precision",
         _timed("evaluation.oracle_region_average_precision")),
        (evaluation, "match_frame_detections", _counted("evaluation.match_frame_detections")),
    ]


@contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for owner, attr, make in _patches():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(tracer, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one workload's traced rounds

def _ratio(num, den):
    return num / den if den else None


def _mean(values, scale):
    return scale * mean(values) if values else None


def _percentile(values, q):
    """The q-th percentile (1..99) of the values, in ms."""
    if len(values) < 2:
        return None
    return 1e3 * quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(workload: str, t: Tracer) -> dict:
    """Per-layer metrics that the traced rounds of ``workload`` define."""
    m = {f"geometry.iou.calls_per_video.{workload}":
         _ratio(t.total("geometry.iou"), t.total_videos())}
    if workload in ("train", "eval"):
        for stage in MODEL_STAGES:
            m[f"model.{stage}.us_per_call.{workload}"] = _mean(t.seconds(f"model.{stage}"), 1e6)
        m[f"nn.lstm_step.us_per_call.{workload}"] = _mean(t.seconds("nn.lstm_step"), 1e6)
    if workload == "train":
        for v in LAYER_VARIANTS:
            m[f"model.forward_video.ms_per_video.{v}"] = _mean(
                t.seconds("model.forward_video.recording", v), 1e3)
            m[f"model.taped_nodes_per_frame.{v}"] = _ratio(
                t.total("model.taped_nodes", v), t.total("model.frames", v))
            m[f"autodiff.Tape.backward.ms_per_video.{v}"] = _mean(
                t.seconds("autodiff.Tape.backward", v), 1e3)
            m[f"autodiff.grad_node_frac.{v}"] = _ratio(
                t.total("autodiff.grad_nodes", v), t.total("autodiff.taped_nodes", v))
            m[f"losses.total_loss.ms_per_video.{v}"] = _mean(
                t.seconds("losses.total_loss.recording", v), 1e3)
        m["nn.adam_step.ms_per_step"] = _mean(t.seconds("nn.adam_step"), 1e3)
        m["training.detected_tracks.ms_per_video"] = _mean(
            t.seconds("training.detected_tracks"), 1e3)
    if workload == "eval":
        for v in LAYER_VARIANTS:
            m[f"model.forward_video.ms_per_track.{v}"] = _mean(
                t.seconds("model.forward_video.inference", v), 1e3)
            per_video = t.seconds("pipeline.eval_video", v)
            m[f"pipeline.eval_video.ms_p50.{v}"] = _percentile(per_video, 50)
            m[f"pipeline.eval_video.ms_p90.{v}"] = _percentile(per_video, 90)
        m["tracking.track_by_detection.ms_per_video"] = _mean(
            t.seconds("tracking.track_by_detection"), 1e3)
        m["tracking.deduplicate_tracks.ms_per_video"] = _mean(
            t.seconds("tracking.deduplicate_tracks"), 1e3)
        kept = t.total("tracking.tracks_kept")
        m["tracking.tracks_per_video"] = _ratio(kept, len(t.seconds("tracking.deduplicate_tracks")))
        m["tracking.dedup_keep_ratio"] = _ratio(kept, t.total("tracking.tracks_started"))
        for name in ("tta_atta", "region_average_precision", "oracle_region_average_precision"):
            m[f"evaluation.{name}.ms_per_call"] = _mean(t.seconds(f"evaluation.{name}"), 1e3)
        m["evaluation.match_frame_detections.calls_per_video"] = _ratio(
            t.total("evaluation.match_frame_detections"), t.total_videos())
    if workload == "data":
        for name in ("generate_split", "read_dataset"):
            m[f"synthworld.{name}.ms_per_video"] = _ratio(
                1e3 * sum(t.seconds(f"synthworld.{name}")), t.total(f"synthworld.{name}.videos"))
        written = t.total("synthworld.videos_written")
        m["synthworld.write_dataset.ms_per_video"] = _ratio(
            1e3 * sum(t.seconds("synthworld.write_dataset")), written)
        m["synthworld.bytes_per_video"] = _ratio(t.total("synthworld.bytes"), written)
    return m

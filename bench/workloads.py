"""The benchmark's three workloads and the checks on their outputs.

Each workload is a closed loop with one client: one process, one thread,
one call at a time. A workload is a set-up step, which builds its inputs
from the run configuration, and a round of operations, each one call into
the program's public API:

- ``train``: ``training.train_model`` once per variant on an in-memory split;
- ``eval``: ``pipeline.evaluate_model`` once per variant with untrained,
  seeded weights on an in-memory test split;
- ``data``: one ``synthworld.generate_split -> write_dataset -> read_dataset``
  round trip of the train, val and test splits in a temporary directory.

An operation fails when it raises or when its output fails a check. Checks
run after the call has been timed, so they never count as program time.
"""
from __future__ import annotations

import gc
import math
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from riskrnn import pipeline, synthworld, training
from riskrnn.config import RunConfig, derive_seed
from riskrnn.model import VARIANTS, RiskModel

WORKLOADS = ("train", "eval", "data")

# Relative and absolute tolerance for every float compared against a pinned
# or earlier value. Reordered float sums (batched or fused rewrites) move
# results by about 1e-12, so bit equality would be too strict.
RTOL = 1e-9
ATOL = 1e-12

_EVAL_INIT_TAG = 23  # sub-seed stream of the untrained eval weights


def run_config(seed: int) -> RunConfig:
    """Workload sizes.

    Training keeps the default run's shares of work: its 100 epochs (a
    default ``riskrnn train`` never stops early, as validation loss keeps
    falling at the default learning rate) and its 1:4 validation to training
    videos, so tracking, which runs once per training video per call, and
    validation weigh what they weigh in a default run (tracking about 2.8%
    of an RA call and 1.3% of an L-RA call, validation 8-12%, in both).
    ``patience`` exceeds ``epochs``, so every call runs all its epochs on
    every seed. The test split has the default 100 videos.
    """
    return RunConfig(n_train=4, n_val=1, n_test=100, epochs=100, patience=101, seed=seed)


def close(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=RTOL, atol=ATOL))


@dataclass
class Op:
    """One operation of a round: a call and the checks on what it returns."""

    workload: str
    label: str      # the variant, or "round" for the data workload
    videos: int     # videos a successful call counts towards videos_per_s
    call: Callable[[], object]
    inspect: Callable[[object], tuple]  # output -> (problems, summary vector)
    keep: Callable[[object], object] = lambda output: None  # what the record retains


@dataclass
class CallRecord:
    """One timed call. It keeps only ``op.keep(output)``, so memory does not
    grow with the number of rounds."""

    op: Op
    seconds: float
    kept: object | None
    error: str | None


class Tally:
    """Attempted and failed operations, and the first output of each op,
    which every later output of that op must match."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._first: dict = {}

    def fail(self, op: Op, message: str, wrong_output: bool) -> None:
        self.failed += 1
        if wrong_output:
            self.correct = False
        print(f"FAILED workload={op.workload} variant={op.label}: {message}", flush=True)

    def check(self, op: Op, output) -> list[str]:
        problems, summary = op.inspect(output)
        key = (op.workload, op.label)
        first = self._first.setdefault(key, summary)
        if not problems and not close(summary, first):
            problems.append("output differs from the first call on the same inputs")
        return problems


def run_round(ops, tally: Tally, tracer=None) -> list[CallRecord]:
    """Call every op once; time only the call, then check its output.

    A full garbage collection before each call, outside its timing, makes
    every call start from the same heap, so none pays for garbage that an
    earlier one left (the program's tapes are reference cycles).
    """
    records = []
    for op in ops:
        gc.collect()
        records.append(_run_op(op, tally, tracer))
    return records


def _run_op(op: Op, tally: Tally, tracer) -> CallRecord:
    tally.attempted += 1
    if tracer is not None:
        tracer.variant = op.label
    start = perf_counter()
    try:
        output = op.call()
    except Exception as exc:  # a failed operation; the loop goes on
        seconds = perf_counter() - start
        where = traceback.extract_tb(exc.__traceback__)[-1]
        message = (f"{type(exc).__name__}: {exc} "
                   f"({Path(where.filename).name}:{where.lineno} in {where.name})")
        tally.fail(op, message, wrong_output=False)
        if tracer is not None:
            tracer.discard()
        return CallRecord(op, seconds, None, message)
    seconds = perf_counter() - start
    with tracer.paused() if tracer is not None else nullcontext():
        problems = tally.check(op, output)
    if problems:
        tally.fail(op, "wrong output: " + "; ".join(problems), wrong_output=True)
        if tracer is not None:
            tracer.discard()
        return CallRecord(op, seconds, None, problems[0])
    if tracer is not None:
        tracer.commit(op.videos)
    return CallRecord(op, seconds, op.keep(output), None)


def _in_range(values, low: float, high: float) -> bool:
    """Finite and in [low, high], give or take ATOL: a mean or an AP summed
    in floating point can read 1 + 1e-14 when it is exactly 1."""
    a = np.asarray(values, dtype=np.float64)
    return bool(np.all(np.isfinite(a)) and np.all(a >= low - ATOL) and np.all(a <= high + ATOL))


def _in_unit_interval(values) -> bool:
    return _in_range(values, 0.0, 1.0)


# ---------------------------------------------------------------------------
# train

@dataclass
class TrainOutput:
    model: RiskModel
    history: list
    epoch_seconds: list  # epochs 2.. as seen by the progress callback


def setup_train(cfg: RunConfig):
    scenario = cfg.scenario_config()
    return (synthworld.generate_split(scenario, cfg.n_train, "train"),
            synthworld.generate_split(scenario, cfg.n_val, "val"))


def history_rows(history) -> list:
    return [[row.train_loss, row.val_loss, row.val_map] for row in history]


def inspect_train(cfg: RunConfig, out: TrainOutput):
    rows = history_rows(out.history)
    problems = []
    if len(rows) != cfg.epochs:
        problems.append(f"{len(rows)} epochs in the history, expected {cfg.epochs}")
    if not all(math.isfinite(v) for row in rows for v in row):
        problems.append("non-finite loss in the history")
    if not _in_unit_interval([row[2] for row in rows]):
        problems.append("validation AP outside [0, 1]")
    if not all(np.all(np.isfinite(pm.values)) for pm in out.model.store):
        problems.append("non-finite trained parameter")
    return problems, np.ravel(rows)


def train_ops(cfg: RunConfig, inputs) -> list[Op]:
    train_videos, val_videos = inputs

    def op(variant):
        def call():
            stamps = []
            model, history = training.train_model(
                cfg, variant, train_videos, val_videos,
                progress=lambda stats: stamps.append(perf_counter()))
            return TrainOutput(model, history, list(np.diff(stamps)))
        return Op("train", variant, cfg.n_train * cfg.epochs, call,
                  lambda out: inspect_train(cfg, out), keep=lambda out: out.epoch_seconds)

    return [op(v) for v in VARIANTS]


# ---------------------------------------------------------------------------
# eval

def setup_eval(cfg: RunConfig):
    test_videos = synthworld.generate_split(cfg.scenario_config(), cfg.n_test, "test")
    seed = derive_seed(cfg.seed, _EVAL_INIT_TAG)
    models = {v: RiskModel.create(cfg.model_config(v), seed=seed) for v in VARIANTS}
    return test_videos, models


def report_vector(summary) -> list:
    fields = summary.report_fields()
    return [float(fields[k]) for k in sorted(fields)]


def inspect_eval(cfg: RunConfig, summary):
    problems = []
    fields = summary.report_fields()
    if fields["n_videos"] != cfg.n_test:
        problems.append(f"{fields['n_videos']} videos reported, expected {cfg.n_test}")
    if not _in_unit_interval([summary.anticipation_map, summary.region_map,
                              summary.oracle_region_map]):
        problems.append("an AP lies outside [0, 1]")
    if not _in_range(summary.atta_frames, 0.0, cfg.frames_per_video - 1):
        problems.append(f"ATTA {summary.atta_frames} frames outside the video")
    probs = [v.frame_probs for v in summary.videos]
    if not _in_unit_interval(np.concatenate(probs)):
        problems.append("a frame probability lies outside [0, 1]")
    if not all(_in_unit_interval(scores) for v in summary.videos
               for _, scores in v.frame_regions):
        problems.append("a region score lies outside [0, 1]")
    return problems, np.concatenate([report_vector(summary)] + probs)


def eval_ops(cfg: RunConfig, inputs) -> list[Op]:
    test_videos, models = inputs

    def op(variant):
        return Op("eval", variant, cfg.n_test,
                  lambda: pipeline.evaluate_model(models[variant], test_videos, cfg),
                  lambda out: inspect_eval(cfg, out))

    return [op(v) for v in VARIANTS]


# ---------------------------------------------------------------------------
# data

def data_splits(cfg: RunConfig):
    return (("train", cfg.n_train), ("val", cfg.n_val), ("test", cfg.n_test))


def setup_data(cfg: RunConfig):
    return cfg.scenario_config()


def sample_mismatch(a, b) -> str | None:
    """The first field where two samples differ, compared exactly."""
    same_arrays = np.array_equal
    if (a.video_id, a.positive, a.targets.t_accident, a.agent_class, list(a.region_classes)) != \
            (b.video_id, b.positive, b.targets.t_accident, b.agent_class, list(b.region_classes)):
        return "labels"
    if a.targets.agent_track != b.targets.agent_track or \
            a.targets.risky_boxes != b.targets.risky_boxes:
        return "targets"
    if len(a.frames) != len(b.frames) or len(a.proposals) != len(b.proposals):
        return "frame count"
    for t, (fa, fb) in enumerate(zip(a.frames, b.frames)):
        if fa.agent_box != fb.agent_box or not same_arrays(fa.agent_feat, fb.agent_feat):
            return f"agent at frame {t}"
        if fa.region_boxes != fb.region_boxes or not same_arrays(fa.region_feats, fb.region_feats):
            return f"regions at frame {t}"
    for t, (pa, pb) in enumerate(zip(a.proposals, b.proposals)):
        if len(pa) != len(pb) or any(
                x.box != y.box or x.score != y.score or not same_arrays(x.feat, y.feat)
                for x, y in zip(pa, pb)):
            return f"proposals at frame {t}"
    return None


def inspect_data(cfg: RunConfig, out):
    problems = []
    totals = np.zeros(3)
    for split, n in data_splits(cfg):
        written, read = out[split]
        if len(written) != n or len(read) != n:
            problems.append(f"{split}: {len(written)} written, {len(read)} read, expected {n}")
            continue
        for w, r in zip(written, read):
            where = sample_mismatch(w, r)
            if where is not None:
                problems.append(f"{w.video_id}: read back differs in {where}")
            if not synthworld.verify_collision_predicate(w, cfg.collision_iou):
                problems.append(f"{w.video_id}: label contradicts the collision predicate")
            totals += [sum(float(f.agent_feat.sum()) for f in w.frames),
                       sum(float(f.region_feats.sum()) for f in w.frames),
                       sum(p.score for props in w.proposals for p in props)]
    return problems, totals


def data_ops(cfg: RunConfig, scenario, workdir: Path) -> list[Op]:
    def call():
        out = {}
        with tempfile.TemporaryDirectory(dir=workdir, prefix=".bench-data-") as tmp:
            for split, n in data_splits(cfg):
                path = Path(tmp) / f"{split}.dat"
                written = synthworld.generate_split(scenario, n, split)
                synthworld.write_dataset(path, written)
                out[split] = (written, synthworld.read_dataset(path))
        return out

    total = sum(n for _, n in data_splits(cfg))
    return [Op("data", "round", total, call, lambda out: inspect_data(cfg, out))]


SETUP = {"train": setup_train, "eval": setup_eval, "data": setup_data}


def make_ops(workload: str, cfg: RunConfig, inputs, workdir: Path) -> list[Op]:
    if workload == "train":
        return train_ops(cfg, inputs)
    if workload == "eval":
        return eval_ops(cfg, inputs)
    return data_ops(cfg, inputs, workdir)

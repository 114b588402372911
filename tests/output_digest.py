"""SHA-256 digests over every output of generate, train and eval, to show
that a change to the program keeps its outputs bit for bit.

    python tests/output_digest.py SRC_DIR

imports ``riskrnn`` from SRC_DIR (a checkout's ``src``) and prints, for
seeds 7 and 11, one digest over all the outputs on the first line, then one
digest for each part on its own line: ``data``, the bytes of the three
dataset files as written; ``train``, for each of the four variants, the
training history and the trained weights; and ``eval``, for the untrained
and the trained model of each variant, the eval report's fields, each test
video's frame probabilities, region scores and track count, and the
time-to-accident curve rows. Run it on two trees and compare the lines.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (7, 11)
PARTS = ("data", "train", "eval")
# every variant trains for several epochs of several batches, and each split
# holds several positives; one core runs it in a few seconds
SIZES = dict(n_train=20, n_val=5, n_test=30, epochs=8)


def output_digest(seeds=SEEDS, **sizes) -> dict[str, str]:
    """The SHA-256 hex digests of the outputs of the ``RunConfig`` of each
    seed with the given split sizes and training settings: ``"all"`` over
    every output, in the order they are made, and one for each of
    ``PARTS`` over its own."""
    from riskrnn import (VARIANTS, RiskModel, RunConfig, evaluate_model, generate_split,
                         read_dataset, train_model, write_dataset)

    digests = {name: hashlib.sha256() for name in ("all", *PARTS)}

    def add(part, data: bytes):
        digests["all"].update(data)
        digests[part].update(data)

    def add_arrays(part, *values):
        for value in values:
            add(part, np.ascontiguousarray(value, dtype=np.float64).tobytes())

    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            cfg = RunConfig(**{**SIZES, **sizes, "seed": seed})
            splits = {}
            for split in ("train", "val", "test"):
                path = Path(tmp) / f"{seed}_{split}.dat"
                write_dataset(path, generate_split(cfg.scenario_config(),
                                                   getattr(cfg, f"n_{split}"), split))
                add("data", path.read_bytes())
                splits[split] = read_dataset(path)
            for variant in VARIANTS:
                trained, history = train_model(cfg, variant, splits["train"], splits["val"])
                add("train", repr(history).encode())
                add_arrays("train", trained.store.values)
                for model in (RiskModel.create(cfg.model_config(variant), seed=seed), trained):
                    summary = evaluate_model(model, splits["test"], cfg)
                    add("eval", repr(summary.report_fields()).encode())
                    add_arrays("eval", summary.curve_rows)
                    for video in summary.videos:
                        add_arrays("eval", video.frame_probs, video.region_scores,
                                   video.n_tracks)
    return {name: digest.hexdigest() for name, digest in digests.items()}


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import riskrnn
    if not Path(riskrnn.__file__).resolve().is_relative_to(src):
        print(f"error: riskrnn was imported from {riskrnn.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    digests = output_digest()
    print(digests["all"])
    for part in PARTS:
        print(f"{part} {digests[part]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

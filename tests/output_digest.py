"""SHA-256 digests over every output of generate, train and eval, to show
that a change to the program keeps its outputs bit for bit.

    python tests/output_digest.py SRC_DIR
    python tests/output_digest.py SRC_A SRC_B

The first form imports ``riskrnn`` from SRC_DIR (a checkout's ``src``) and
prints, for seeds 7 and 11, one digest over all the outputs on the first
line, then one digest for each part on its own line: ``data``, the bytes of
the three dataset files as written; ``train``, for each of the four
variants, the training history and the trained weights; and ``eval``, for
the untrained and the trained model of each variant, the eval report's
fields, each test video's frame probabilities, region scores and track
count, and the time-to-accident curve rows.

The second form digests each tree in a process of its own, prints each
tree's name and its lines, then ``same``, or ``differ:`` and the parts that
differ, and exits 1 if any part does.

Both forms digest each tree in a spawned process whose
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS`` are 1
before it loads numpy: a matrix product may round differently with more
BLAS threads, so the digests do not depend on the shell's setting. After
the digest lines (in the second form, before the verdict) a ``blas`` line
names the BLAS library and the thread settings the digests were made with.
"""
from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np

SEEDS = (7, 11)
PARTS = ("data", "train", "eval")
# every variant trains for several epochs of several batches, and each split
# holds several positives; one core runs it in a few seconds
SIZES = dict(n_train=20, n_val=5, n_test=30, epochs=8)
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


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


def tree_digest(src, seeds=SEEDS, **sizes) -> tuple[dict[str, str], str]:
    """``output_digest`` of the ``riskrnn`` that the tree ``src`` holds, and
    the ``blas`` line of this process. Raises ImportError if this process
    imports ``riskrnn`` from elsewhere, as it does once it has imported
    another tree's."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    import riskrnn
    if not Path(riskrnn.__file__).resolve().is_relative_to(src):
        raise ImportError(f"riskrnn was imported from {riskrnn.__file__}, not from {src}")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={os.environ.get(name)}" for name in BLAS_THREADS)
    return output_digest(seeds, **sizes), f"blas {blas['name']} {blas['version']}, {threads}"


def spawned_tree_digest(src, seeds=SEEDS, **sizes) -> tuple[dict[str, str], str]:
    """``tree_digest`` in a new process of its own, spawned with
    ``BLAS_THREADS`` in its environment so numpy loads with one BLAS
    thread."""
    # the child inherits the environment as it is when the pool spawns it
    with (mock.patch.dict(os.environ, BLAS_THREADS),
          ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool):
        return pool.submit(tree_digest, src, seeds, **sizes).result()


def digest_lines(digests) -> list[str]:
    return [digests["all"], *(f"{part} {digests[part]}" for part in PARTS)]


def compare(trees, seeds=SEEDS, **sizes) -> int:
    """Digest each of two trees in a spawned process of its own, print its
    name and its lines, then the ``blas`` line, and name the parts that
    differ; returns 1 if any does."""
    digests = []
    for src in trees:
        tree, blas = spawned_tree_digest(src, seeds, **sizes)
        digests.append(tree)
        print(src, *digest_lines(tree), sep="\n")
    print(blas)  # each child runs this interpreter's numpy, so one line serves both
    differ = [part for part in PARTS if digests[0][part] != digests[1][part]]
    print(f"differ: {' '.join(differ)}" if differ else "same")
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 2:
        return compare(argv)
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        digests, blas = spawned_tree_digest(argv[0])
    except ImportError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(*digest_lines(digests), blas, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

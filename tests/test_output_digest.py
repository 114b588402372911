"""The digests tests/output_digest.py prints to compare two trees bit for
bit: at a tiny size they are the same on a second run, and each differs by
seed; its two-tree form, which names each part that differs; and that the
lines do not depend on the caller's BLAS thread count."""
import shutil
from pathlib import Path

import riskrnn
from output_digest import PARTS, compare, output_digest

TINY = dict(n_train=2, n_val=1, n_test=2, epochs=1, frames_per_video=4, n_regions=3)
SRC = Path(riskrnn.__file__).parents[1]


def test_one_tree_gives_one_digest_and_each_seed_its_own():
    first = output_digest(seeds=(7,), **TINY)
    assert list(first) == ["all", *PARTS]
    assert all(len(digest) == 64 for digest in first.values())
    assert len(set(first.values())) == len(first)
    assert output_digest(seeds=(7,), **TINY) == first
    other = output_digest(seeds=(11,), **TINY)
    assert all(other[name] != first[name] for name in first)


def test_two_trees_are_compared_part_by_part(tmp_path, capsys):
    assert compare([SRC, SRC], seeds=(7,), **TINY) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "same"
    # the risky-region threshold changes training's labels, and so the
    # trained models' eval, but not the data
    changed = tmp_path / "src"
    shutil.copytree(SRC / "riskrnn", changed / "riskrnn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    evaluation = changed / "riskrnn" / "evaluation.py"
    source = evaluation.read_text()
    assert "REGION_IOU_THRESHOLD = 0.4\n" in source
    evaluation.write_text(source.replace("REGION_IOU_THRESHOLD = 0.4\n",
                                         "REGION_IOU_THRESHOLD = 0.0\n"))
    assert compare([SRC, changed], seeds=(7,), **TINY) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == str(SRC) and lines[5] == str(changed)
    assert lines[-1] == "differ: train eval"


# eval's products at this size run on two BLAS threads where two are allowed
# and round differently there; TINY's stay below OpenBLAS's threading size
THREADED = dict(n_train=2, n_val=1, n_test=8, epochs=1)


def test_the_lines_do_not_depend_on_the_callers_blas_threads(monkeypatch, capsys):
    printed = {}
    for threads in ("2", "1"):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)
        assert compare([SRC, SRC], seeds=(7,), **THREADED) == 0
        printed[threads] = capsys.readouterr().out
    assert printed["2"] == printed["1"]
    assert printed["1"].splitlines()[-2].endswith(
        "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1")

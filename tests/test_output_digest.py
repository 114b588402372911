"""The digests tests/output_digest.py prints to compare two trees bit for
bit: at a tiny size they are the same on a second run, and each differs by
seed."""
from output_digest import PARTS, output_digest

TINY = dict(n_train=2, n_val=1, n_test=2, epochs=1, frames_per_video=4, n_regions=3)


def test_one_tree_gives_one_digest_and_each_seed_its_own():
    first = output_digest(seeds=(7,), **TINY)
    assert list(first) == ["all", *PARTS]
    assert all(len(digest) == 64 for digest in first.values())
    assert len(set(first.values())) == len(first)
    assert output_digest(seeds=(7,), **TINY) == first
    other = output_digest(seeds=(11,), **TINY)
    assert all(other[name] != first[name] for name in first)

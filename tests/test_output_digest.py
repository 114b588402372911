"""The digest tests/output_digest.py prints to compare two trees bit for
bit: at a tiny size it is the same on a second run and differs by seed."""
from output_digest import output_digest

TINY = dict(n_train=2, n_val=1, n_test=2, epochs=1, frames_per_video=4, n_regions=3)


def test_one_tree_gives_one_digest_and_each_seed_its_own():
    first = output_digest(seeds=(7,), **TINY)
    assert len(first) == 64
    assert output_digest(seeds=(7,), **TINY) == first
    assert output_digest(seeds=(11,), **TINY) != first

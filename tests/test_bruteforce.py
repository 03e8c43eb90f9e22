"""The bounded search's frame list: isomorph-free generation against the
permutation filter it replaced, and the reduced search against the full one."""

import random
from collections import Counter

import pytest

from lhs import And, parse, render
from lhs.bruteforce import _frames, find_model

from conftest import random_formula, reference_frame_ids


# Binary relations on n points up to isomorphism (OEIS A000595).
@pytest.mark.parametrize("n, classes", [(1, 2), (2, 10), (3, 104), (4, 3044)])
def test_one_frame_per_isomorphism_class(n, classes):
    masks, adj = _frames(n, True)
    assert len(masks) == classes
    assert adj.shape == (classes, n, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_same_masks_as_permutation_filter(n):
    assert tuple(int(m) for m in _frames(n, True)[0]) == reference_frame_ids(n, True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_unreduced_path_lists_every_mask(n):
    assert tuple(int(m) for m in _frames(n, False)[0]) == reference_frame_ids(n, False)


@pytest.mark.parametrize("mod_iso", [True, False])
def test_adjacency_reads_the_masks(mod_iso):
    masks, adj = _frames(3, mod_iso)
    for mask, frame in zip(masks, adj):
        assert [[bool(int(mask) >> (3 * i + j) & 1) for j in range(3)]
                for i in range(3)] == frame.tolist()


@pytest.mark.parametrize("mod_iso", [True, False])
def test_cached_arrays_are_read_only(mod_iso):
    masks, adj = _frames(2, mod_iso)
    assert _frames(2, mod_iso)[0] is masks
    for array in (masks, adj):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


# Conjuncts that push the smallest model past one state: two states for
# `~I`, three for each chain of pairwise different labels.
_FORCERS = ["true", "~I", "~I & <W>I & <B><B>~l:p",
            "l:p & ~l:q & <W>(~l:p & l:q & <W>(~l:p & ~l:q))",
            "r:p & <B>(~r:p & ~r:q & <B>(r:q & ~r:p))"]


def test_reduced_search_finds_the_same_witness():
    # The first satisfying mask in full order is the smallest of its class,
    # so both searches stop at the same frame, valuation and pair.
    rng = random.Random(404)
    sizes = Counter()
    for i in range(200):
        phi = And(parse(_FORCERS[i % len(_FORCERS)]), random_formula(rng, depth=2 + i % 2))
        for bound in (1, 2, 3):
            found = find_model(phi, bound)
            assert found == find_model(phi, bound, mod_iso=False), (render(phi), bound)
            sizes[found and len(found[0].states)] += 1
    assert set(sizes) == {None, 1, 2, 3}

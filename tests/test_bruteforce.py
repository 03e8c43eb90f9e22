"""The bounded search's frame list: isomorph-free generation against the
permutation filter it replaced, the reduced search against the full one, and
the limits that size the search."""

import random
import re
from collections import Counter

import pytest

from lhs import And, ResourceGuard, parse, render
from lhs.bruteforce import WORK_CEILING, _CLASSES, _frames, find_model, search_work
from lhs.syntax import prop_names, subformulas

from conftest import random_formula, random_i_free, reference_frame_ids


@pytest.mark.parametrize("n, classes", [(n, _CLASSES[n]) for n in range(1, 5)])
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


def test_heaviest_searches_within_the_ceiling():
    # Bound 4 over four props at 24 subformulas, the most in the benchmark's
    # fullsat pool (its heaviest search, oracle.b4.4, has 13).
    assert search_work(4, 4, 24) < WORK_CEILING
    # The README's bound-5 example, exhausted in about 20 s.
    phi = parse("<W>(l:p & [B]~I) & <B>(r:q & ~I) & [W][W]false & <B><B><B>r:q & "
                "[B][B][B]~r:q")
    assert search_work(5, len(prop_names(phi)), len(subformulas(phi))) == 172_198_920_248
    assert 172_198_920_248 < WORK_CEILING
    # The bound-4 oracle calls of acceptance criterion 1, same seed.
    rng = random.Random(101)
    for i in range(300):
        phi = random_i_free(rng, depth=2 if i % 2 else 3)
        assert search_work(4, len(prop_names(phi)), len(subformulas(phi))) < WORK_CEILING


@pytest.mark.parametrize("bound, k, size, mod_iso, refusal", [
    (6, 0, 1, True, "level 6 of the search needs a frame table of 597950464 rows"),
    (5, 0, 1, False, "level 5 of the search needs a frame table of 33554432 rows"),
    (3, 9, 1, True, "level 3 of the search needs a valuation table of 2^27 rows"),
    (5, 3, 1, True, "levels 1 to 5 of the search charge 239380158992 units"),
])
def test_refusal_names_the_level(bound, k, size, mod_iso, refusal):
    with pytest.raises(ResourceGuard, match=re.escape(refusal)):
        search_work(bound, k, size, mod_iso)

"""The bounded search's frame list: isomorph-free generation against the
permutation filter it replaced, the reduced search against the full one, the
level-5 masks and a corpus of witnesses pinned by digests, the limits that
size the search, and its one plan per search. The kernel's boolean
single-model path against its packed path and the pointwise checker, and its
one-step and successor-set table modalities."""

import hashlib
import random
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from lhs import (
    And,
    BBox,
    BDia,
    Bot,
    EqConst,
    ResourceGuard,
    Top,
    WBox,
    WDia,
    check,
    check_all,
    generate_phi,
    load_tileset,
    parse,
    render,
    torus_model,
)
from lhs import bruteforce
from lhs.bruteforce import (
    WORK_CEILING,
    _CLASSES,
    _atom_patterns,
    _frames,
    find_model,
    plan,
    search_work,
    truth_table,
)
from lhs.syntax import prop_names, subformulas
from lhs.tiling import PeriodicTiling

from conftest import (
    all_pairs, make_model, random_formula, random_i_free, reference_frame_ids,
)

DATA = Path(__file__).parent / "data"


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


def test_atom_patterns_cached_and_read_only():
    patterns = _atom_patterns(2, 3)
    assert _atom_patterns(2, 3) is patterns
    assert patterns.shape == (3, 2, 8) and not patterns.flags.writeable
    with pytest.raises(ValueError):
        patterns[0] = 0


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


def test_level_five_masks_pinned():
    # ROADMAP direction 8: the masks up to 4 states are pinned by the
    # permutation filter above, those of 5 states by a digest taken when
    # `_relabel` moved one bit at a time. A wrong relabelling keeps many more
    # codes, which at 5 states take gigabytes: level 4 is checked first.
    assert len(_frames(4, True)[0]) == _CLASSES[4]
    masks = _frames(5, True)[0]
    assert len(masks) == _CLASSES[5]
    assert hashlib.sha256(masks.astype("<u8").tobytes()).hexdigest() == (
        "a7817fb501433b1c3eb1df0373568c30c59999097bca2e5d6561f8db331a2aba")


def test_witnesses_pinned():
    # The witnesses of 300 seeded formulas at bounds 1 to 4, each conjoined
    # with a forcer, digested when every modality looped over the states; the
    # last forcer needs four states (four distinct left valuations).
    forcers = _FORCERS + ["l:p & l:q & <W>(l:p & ~l:q) & <W>(~l:p & l:q) & <W>(~l:p & ~l:q)"]
    rng = random.Random(3434)
    digest, sizes = hashlib.sha256(), Counter()
    for i in range(300):
        phi = And(parse(forcers[i % len(forcers)]), random_formula(rng, depth=2 + i % 2))
        for bound in (1, 2, 3, 4):
            found = find_model(phi, bound)
            record = found and (list(found[0].states), sorted(found[0].edges), sorted(
                (str(p), sorted(ws)) for p, ws in found[0].valuation.items()), list(found[1:]))
            digest.update(repr(record).encode())
            sizes[record and len(record[0])] += 1
    assert set(sizes) == {None, 1, 2, 3, 4}
    assert digest.hexdigest() == "9e9b2dcd639b70a10179c6a7cce74684515cef6d7838ed9fc3770386ddf78a1c"


def test_search_plans_once(monkeypatch):
    # One walk of the formula per search, and one set of steps that every
    # level and every chunk reuses. Chunks of one frame split each level
    # into as many chunks as it has frames, and find the same witnesses.
    phis = [parse(text) for text in _FORCERS[1:] + ["l:p & ~r:p", "false"]]
    expected = [find_model(phi, 3) for phi in phis]
    walks, plans, charges = [], [], []
    walk, kernel, charge = bruteforce.subformulas, bruteforce.truth_table, bruteforce.search_work
    monkeypatch.setattr(bruteforce, "_CHUNK_BYTES", 1)
    monkeypatch.setattr(bruteforce, "subformulas", lambda phi: walks.append(phi) or walk(phi))
    monkeypatch.setattr(bruteforce, "truth_table",
                        lambda steps, *args: plans.append(steps) or kernel(steps, *args))
    monkeypatch.setattr(bruteforce, "search_work",
                        lambda *args: charges.append(charge(*args)) or charges[-1])
    for phi, found in zip(phis, expected):
        walks.clear()
        plans.clear()
        assert find_model(phi, 3) == found
        assert walks == [phi]
        assert all(steps is plans[0] for steps in plans)
    # `false` is planned once and evaluated on every frame of levels 1 to 3.
    assert len(plans) == sum(len(_frames(n, True)[0]) for n in (1, 2, 3))
    # The charges of seeded searches, pinned when the kernel replanned per call.
    charges.clear()
    rng = random.Random(2024)
    for i in range(40):
        find_model(random_formula(rng, depth=2 + i % 3), 1 + i % 3)
    assert (len(charges), sum(charges), charges[:6]) == (
        40, 213_083_894, [20, 7128, 2934, 8, 656, 57_661_920])


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


def _packed_pairs(model, phi):
    """`check_all`'s answer from the packed path: the same frame, with each
    prop one 0/255 byte per state."""
    states = model.states
    adj = np.array([[[(a, b) in model.edges for b in states] for a in states]])
    props = list(model.valuation)
    patterns = np.array([[[255 if w in model.valuation[p] else 0] for w in states]
                         for p in props], dtype=np.uint8).reshape(len(props), len(states), 1)
    truth = truth_table(plan(phi), adj, props, patterns)
    assert truth.dtype == np.uint8 and set(np.unique(truth)) <= {0, 255}
    truth = np.broadcast_to(truth, adj.shape + (1,))
    return {(states[s], states[t]) for s, t in np.argwhere(truth[0, :, :, 0]).tolist()}


def _hostile_model(rng, n, shape):
    states = [f"w{i}" for i in range(n)]
    if shape == "no edges":
        edges = []
    elif shape == "complete":
        edges = [(a, b) for a in states for b in states]
    else:
        # Sparse enough to leave dead ends; "loops" adds every self-loop.
        edges = [(a, b) for a in states for b in states if rng.random() < 2.5 / n]
        if shape == "loops":
            edges += [(a, a) for a in states]
    if shape == "empty valuation":
        return make_model(states, edges)
    # The formulas also read l:z and r:z, which no valuation mentions, and
    # l:extra is mentioned but never read.
    valuation = {p: [w for w in states if rng.random() < 0.4]
                 for p in ("l:p", "l:q", "r:p", "r:q", "l:extra") if rng.random() < 0.8}
    return make_model(states, edges, valuation)


def test_boolean_path_agrees_with_packed_path_and_pointwise():
    rng = random.Random(1414)
    shapes = ["sparse", "loops", "no edges", "complete", "empty valuation"]
    node_types, dead_ends = set(), set()
    for i in range(60):
        n = 1 + i if i % 3 else rng.randint(1, 8)
        m = _hostile_model(rng, n, shapes[i % len(shapes)])
        for _ in range(3):
            phi = random_formula(rng, depth=rng.randint(3, 5), left_vars=("p", "q", "z"),
                                 right_vars=("p", "q", "z"))
            node_types |= {type(f) for f in subformulas(phi)}
            got = check_all(m, phi)
            assert got == _packed_pairs(m, phi), (render(phi), n)
            # Pointwise `check` on every pair where that stays quick.
            pairs = all_pairs(m) if n <= 12 else rng.sample(all_pairs(m), 40)
            assert {pair for pair in pairs if check(m, *pair, phi)} == got & set(pairs)
        dead_ends.add(any(not m.successor_map[w] for w in m.states))
    assert {WBox, WDia, BBox, BDia, EqConst, Top, Bot} <= node_types
    assert dead_ends == {True, False}


# Box operands with no axis for the state the box moves to: formulas of the
# right coordinate under a white modality, of the left under a black one,
# and constants.
_ONE_STEP = ["[W]r:p", "<W>r:p", "[W](r:p -> r:q)", "<W>(r:p & ~r:q)", "[W]true", "<W>true",
             "[W]false", "<W>false", "[B]l:p", "<B>l:p", "[B](l:p | ~l:q)", "<B>(l:p <-> l:q)",
             "[B]true", "<B>false", "<W>[B]l:q & [B]<W>r:q", "l:q -> [W][W]r:p"]


def _agrees_with_pointwise(phi, n, rng, frames=None, samples=6):
    """The packed kernel on one batch of the frame classes of n states, those
    at the indices `frames` (all by default), against `check` on every pair
    and `check_all`'s boolean path: at every valuation below 3 states, at
    `samples` seeded ones from 3. The set of whether each has a dead end."""
    props = sorted(prop_names(phi), key=str)
    k = len(props)
    adj = _frames(n, True)[1] if frames is None else _frames(n, True)[1][sorted(frames)]
    patterns = _atom_patterns(n, k)
    truth = np.broadcast_to(truth_table(plan(phi), adj, props, patterns),
                            adj.shape + patterns.shape[-1:])
    states = [f"w{i}" for i in range(n)]
    dead_ends = set()
    for frame, frame_truth in zip(adj, truth):
        bits = np.unpackbits(frame_truth, axis=-1, count=1 << (n * k), bitorder="little")
        edges = [(states[a], states[b]) for a, b in np.argwhere(frame).tolist()]
        dead_ends.add(not frame.any(axis=1).all())
        valuations = range(1 << (n * k))
        for v in valuations if n < 3 else rng.sample(valuations, min(samples, len(valuations))):
            model = make_model(states, edges, {
                str(p): [w for i, w in enumerate(states) if v >> (n * j + i) & 1]
                for j, p in enumerate(props)})
            holds = {(states[s], states[t]) for s, t in np.argwhere(bits[:, :, v]).tolist()}
            assert {pair for pair in all_pairs(model) if check(model, *pair, phi)} == holds
            assert check_all(model, phi) == holds
    return dead_ends


@pytest.mark.parametrize("text", _ONE_STEP)
def test_one_step_box_agrees_with_pointwise(text):
    # The packed kernel on every frame class up to 3 states, against `check`
    # on every pair, and the boolean single-model path on the same models.
    phi = parse(text)
    props = sorted(prop_names(phi), key=str)
    rng = random.Random(text)
    boxes = [f for f in subformulas(phi) if isinstance(f, (WBox, WDia, BBox, BDia))]
    axis = [1 if isinstance(f, (WBox, WDia)) else 2 for f in boxes]
    dead_ends = set()
    for n in (1, 2, 3):
        adj = _frames(n, True)[1]
        patterns = _atom_patterns(n, len(props))
        # Some box here takes the one step: its operand has no axis for w.
        assert any(truth_table(plan(f.child), adj, props, patterns).shape[a] == 1
                   for f, a in zip(boxes, axis))
        dead_ends |= _agrees_with_pointwise(phi, n, rng)
    assert dead_ends == {True, False}


def _spy_on_paths(monkeypatch):
    """The set of modality paths that `truth_table` takes from now on, each
    seen through the one view of its batch that it reads."""
    seen = set()
    for view, path in (("codes", "table"), ("live", "one step"), ("rel", "loop")):
        build = getattr(bruteforce._Batch, view).func
        monkeypatch.setattr(bruteforce._Batch, view, property(
            lambda batch, build=build, path=path: seen.add(path) or build(batch)))
    return seen


# Modalities over operands that read no frame but read the state they move
# to: a batch of at least 4^n frames gathers them from a table over successor
# sets. Over them, a modality whose operand does read the frame loops over
# the states, and the last formula adds one-step modalities; box and diamond
# of both colours take each path. At most three props keep a batch of 4-state
# frames small.
_TABLE = {"<W>l:p": {"table"}, "[W](l:p | r:q)": {"table"}, "<B>(r:p & ~r:q)": {"table"},
          "[W]I": {"table"}, "<B>~I": {"table"}, "[B](I | r:p) & <W>(l:q <-> I)": {"table"},
          "<W>(l:p & <B>r:q)": {"table", "loop"},
          "[W](l:p | [B]r:q) & <B>(r:q & <W>l:p)": {"table", "loop"},
          "[B](r:q | [W]l:p) & (<W>r:p | [W]r:q) & ([B]~l:p | <B>l:p)": {
              "table", "loop", "one step"}}


@pytest.mark.parametrize("text, paths", _TABLE.items())
def test_successor_set_table_agrees_with_pointwise(monkeypatch, text, paths):
    # Every frame class at 3 states (104 >= 4^3) and 256 seeded classes at 4,
    # each one batch, so that the table is built at both.
    phi = parse(text)
    rng = random.Random(text)
    seen = _spy_on_paths(monkeypatch)
    assert _agrees_with_pointwise(phi, 3, rng) == {True, False}
    assert seen == paths
    seen.clear()
    assert True in _agrees_with_pointwise(phi, 4, rng, rng.sample(range(_CLASSES[4]), 4 ** 4),
                                          samples=2)
    assert seen == paths
    # A single frame of any size loops as before: the table would have 2^n
    # rows for one frame.
    seen.clear()
    for n in (1, 3, 5, 60):
        model = _hostile_model(rng, n, "sparse")
        assert _packed_pairs(model, phi) == check_all(model, phi)
    assert "table" not in seen and "loop" in seen


@pytest.mark.parametrize("period, prune, holds", [
    ((1, 2), False, True),
    ((1, 2), True, False),
    ((4, 4), True, False),
])
def test_boolean_path_on_tiling_tori(period, prune, holds):
    # `tiling model --check` reads (spy, spy) from `check_all`. Pruning one
    # spy edge makes phi_T fail there.
    ts = load_tileset((DATA / "stripe_tiles.json").read_text())
    pt = PeriodicTiling(period, {(a, b): "AB"[b % 2] for a in range(period[0])
                                 for b in range(period[1])})
    model, spy = torus_model(ts, pt)
    if prune:
        victim = sorted(set(model.states) - {spy})[0]
        model = make_model(model.states, model.edges - {(spy, victim)},
                           {str(p): ws for p, ws in model.valuation.items()})
    phi = generate_phi(ts)
    got = check_all(model, phi)
    assert ((spy, spy) in got) == holds == check(model, spy, spy, phi)
    assert got == _packed_pairs(model, phi)

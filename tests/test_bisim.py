"""Bisimulation computation, witness checking, and truth invariance."""

import random

import pytest

from lhs import (
    parse,
    ResourceGuard,
    UnknownState,
    are_bisimilar,
    check,
    check_bisimulation_witness,
    largest_bisimulation,
)
from lhs import bisim
from lhs.bisim import PairRelation, _zigzag_violation
from lhs.syntax import Side

from conftest import (
    all_pairs, disjoint_union, make_model, random_formula, random_model, rename_copy, time_budget,
)


def quad_fixpoint(m, n):
    """The greatest bisimulation as a fixpoint over quadruples, the reference
    for the partition refinement: start from atom agreement and the diagonal
    clause, then drop quadruples that break a back-and-forth clause until
    none does."""
    props = sorted(set(m.valuation) | set(n.valuation), key=str)

    def atoms(model, s, t):
        return [(s if p.side is Side.LEFT else t) in model.truth_set(p) for p in props]

    current = {((s, t), (s2, t2))
               for s in m.states for t in m.states for s2 in n.states for t2 in n.states
               if (s == t) == (s2 == t2) and atoms(m, s, t) == atoms(n, s2, t2)}
    changed = True
    while changed:
        changed = False
        for quad in list(current):
            if _zigzag_violation(quad, current, m.successor_map, n.successor_map):
                current.discard(quad)
                changed = True
    return frozenset(current)


def corpus_pair(rng, i):
    """Model pair number `i` of the equivalence corpus, 1 to 5 states each:
    isomorphic copies, disjoint-union embeddings and unrelated models, every
    fourth without valuation so that only the diagonal bit labels pairs."""
    val_prob = 0.0 if i % 4 == 3 else 0.4
    if i % 3 == 0:
        m = random_model(rng, max_states=5, val_prob=val_prob)
        return m, rename_copy(m)[0]
    if i % 3 == 1:
        m = random_model(rng, max_states=3, val_prob=val_prob)
        return m, disjoint_union(m, random_model(rng, max_states=2, val_prob=val_prob))[0]
    return (random_model(rng, max_states=5, val_prob=val_prob),
            random_model(rng, max_states=5, val_prob=val_prob))


def edgeless(size):
    return make_model([f"w{i}" for i in range(size)], [])


def cycle(size):
    """An atomless directed cycle: its single states form one block."""
    states = [f"w{i}" for i in range(size)]
    return make_model(states, list(zip(states, states[1:] + states[:1])))


def complete(size):
    states = [f"k{i}" for i in range(size)]
    return make_model(states, [(a, b) for a in states for b in states])


def path(size):
    states = [f"p{i}" for i in range(size)]
    return make_model(states, list(zip(states, states[1:])))


def lasso(size):
    """An atomless path whose last state loops: no two of its pair nodes are
    bisimilar, yet its single states form one block."""
    states = [f"x{i}" for i in range(size)]
    return make_model(states, list(zip(states, states[1:])) + [(states[-1], states[-1])])


def structured_pair(rng):
    """Two of: an atomless cycle or complete graph of 1 to 4 states, half of
    them in a disjoint union with a path of 1 to 3 states. Their single
    states fall into one or few blocks, so the pair rounds do the work."""
    def one():
        base = rng.choice([cycle, complete])(rng.randint(1, 4))
        return disjoint_union(base, path(rng.randint(1, 3)))[0] if rng.random() < 0.5 else base
    return one(), one()


def state_bisimilarity(m, n, side):
    """The greatest Kripke bisimulation between the states of `m` and of `n`
    over the atoms of `side`, as a fixpoint over state pairs."""
    props = [p for p in set(m.valuation) | set(n.valuation) if p.side is side]
    current = {(s, s2) for s in m.states for s2 in n.states
               if all((s in m.truth_set(p)) == (s2 in n.truth_set(p)) for p in props)}
    changed = True
    while changed:
        changed = False
        for s, s2 in list(current):
            forth = all(any((v, v2) in current for v2 in n.successor_map[s2]) for v in m.successor_map[s])
            back = all(any((v, v2) in current for v in m.successor_map[s]) for v2 in n.successor_map[s2])
            if not (forth and back):
                current.discard((s, s2))
                changed = True
    return current


class TestLargestBisimulation:
    def test_reflexive_singleton(self):
        m = make_model(["w"], [("w", "w")])
        rel = largest_bisimulation(m, m)
        assert (("w", "w"), ("w", "w")) in rel.pairs

    def test_isomorphic_copy(self, rng):
        for _ in range(10):
            m = random_model(rng, max_states=3)
            n, ren = rename_copy(m)
            rel = largest_bisimulation(m, n)
            for s, t in all_pairs(m):
                assert ((s, t), (ren[s], ren[t])) in rel.pairs

    def test_disjoint_union_embedding(self, rng):
        for _ in range(10):
            m = random_model(rng, max_states=3)
            n = random_model(rng, max_states=3)
            u, rm, _ = disjoint_union(m, n)
            rel = largest_bisimulation(m, u)
            for s, t in all_pairs(m):
                assert ((s, t), (rm[s], rm[t])) in rel.pairs

    def test_unraveling_of_shared_child(self):
        # two parents sharing one child vs the tree that splits the child
        m = make_model(["x", "z", "y"], [("x", "y"), ("z", "y")],
                       {"l:p": ["y"], "r:p": ["y"]})
        n = make_model(["x", "z", "yx", "yz"], [("x", "yx"), ("z", "yz")],
                       {"l:p": ["yx", "yz"], "r:p": ["yx", "yz"]})
        assert are_bisimilar(m, "x", "x", n, "x", "x")
        # the pair (x, z) is NOT preserved: the two coordinates can meet at
        # the shared child y in m, which <W><B>I observes
        assert not are_bisimilar(m, "x", "z", n, "x", "z")
        assert check(m, "x", "z", parse("<W><B>I"))
        assert not check(n, "x", "z", parse("<W><B>I"))

    def test_duplicating_a_successor_is_observable(self):
        # with the equality constant, one successor vs two identical copies
        # are distinguishable (<W><B>~I holds only on the split side)
        m = make_model(["x", "y"], [("x", "y")], {"l:p": ["y"], "r:p": ["y"]})
        n = make_model(["x", "y1", "y2"], [("x", "y1"), ("x", "y2")],
                       {"l:p": ["y1", "y2"], "r:p": ["y1", "y2"]})
        assert not are_bisimilar(m, "x", "x", n, "x", "x")
        phi = parse("<W><B>~I")
        assert not check(m, "x", "x", phi)
        assert check(n, "x", "x", phi)

    def test_resource_guard(self, rng, monkeypatch):
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 2)
        m = random_model(rng, max_states=4)
        with pytest.raises(ResourceGuard):
            largest_bisimulation(m, m)

    def test_guard_counts_refinement_work_and_listed_quadruples(self, monkeypatch):
        # 2 * 40^2 pair nodes and no edges, in two blocks (diagonal,
        # off-diagonal) that relate 40^2 + 1560^2 quadruples
        m = edgeless(40)
        with pytest.raises(ResourceGuard, match="2435200 related quadruples"):
            largest_bisimulation(m, m)
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 3199)
        with pytest.raises(ResourceGuard, match="reads 3200 pair-graph nodes and edges a round, "
                                                "so round 1 would"):
            largest_bisimulation(m, m)
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 3200)
        assert not are_bisimilar(m, "w0", "w0", m, "w0", "w1")

    def test_quadruple_ceiling_is_inclusive(self, monkeypatch):
        # Three isolated states: each single-state refinement reads 6 states
        # and each pair round 18 pair nodes, 30 in all, while the diagonal
        # and off-diagonal blocks relate 3^2 + 6^2 = 45 quadruples. So the
        # listing, not the refinement, meets a ceiling between the two.
        m = edgeless(3)
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 30)
        assert len(set(bisim._blocks(m, m).values())) == 2
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 45)
        assert len(largest_bisimulation(m, m).pairs) == 45
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 44)
        with pytest.raises(ResourceGuard,
                           match="^45 related quadruples exceed the ceiling of 44$"):
            largest_bisimulation(m, m)

    def test_guard_charges_every_refinement_round(self, monkeypatch):
        # The single states of an atomless 30-cycle form one block, which one
        # round over 30 + 30 states and 60 edges confirms for the left and
        # one for the right atoms. Its pair nodes start in two blocks (the
        # diagonal and the rest) and split by their offset t - s, two blocks
        # a round, so the 15th pair round is the first to split none; each
        # reads 2 * 30 * (30 + 2 * 30) = 5400 pair nodes and edges.
        m = cycle(30)
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 2 * 120 + 15 * 5400)
        assert are_bisimilar(m, "w0", "w1", m, "w0", "w1")
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 2 * 120 + 15 * 5400 - 1)
        with pytest.raises(ResourceGuard, match="reads 5400 .* so round 15 would pass"):
            are_bisimilar(m, "w0", "w1", m, "w0", "w1")

    def test_guard_charges_single_state_rounds(self, monkeypatch):
        # A 30-state path beside a copy: 60 states and 58 edges, split by
        # their distance to the end, one block a round, so each single-state
        # refinement runs 30 rounds of 118. A ceiling of one pair round
        # (2 * 30 * (30 + 2 * 29) = 5280) lets 44 single-state rounds run:
        # the 30 of the left atoms and 14 of the right ones.
        m = path(30)
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 5280)
        with pytest.raises(ResourceGuard, match="^refinement of single states by right atoms reads "
                                                "118 states and edges a round, so round 15 would "
                                                "pass the ceiling of 5280$"):
            are_bisimilar(m, "p0", "p1", m, "p0", "p1")
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 5279)
        with pytest.raises(ResourceGuard, match="^refinement reads 5280 pair-graph nodes and edges "
                                                "a round, so round 1 would pass"):
            are_bisimilar(m, "p0", "p1", m, "p0", "p1")

    def test_stops_at_a_discrete_partition(self, monkeypatch):
        # The single states of a 6-state lasso and of a 2-state model
        # (a <-> b, b -> b) form one block, which one round of 8 states and
        # 9 edges confirms for each side. Their 36 + 4 pair nodes are each
        # alone in their block after pair round 9, each pair round reading
        # 6 * (6 + 2 * 6) + 2 * (2 + 2 * 3) = 124 pair nodes and edges:
        # nine rounds are enough, eight are not.
        m = lasso(6)
        n = make_model(["a", "b"], [("a", "b"), ("b", "a"), ("b", "b")])
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 2 * 17 + 9 * 124)
        blocks = bisim._blocks(m, n)
        assert len(set(blocks.values())) == len(blocks) == 40
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 2 * 17 + 9 * 124 - 1)
        with pytest.raises(ResourceGuard, match="reads 124 .* so round 9 would pass"):
            bisim._blocks(m, n)
        # But after pair round 2 no block holds pair nodes of both models, so
        # the relation is empty and its listing stops there.
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 2 * 17 + 2 * 124)
        assert largest_bisimulation(m, n).pairs == frozenset()
        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 2 * 17 + 2 * 124 - 1)
        with pytest.raises(ResourceGuard, match="reads 124 .* so round 2 would pass"):
            largest_bisimulation(m, n)

    def test_stop_test_ends_refinement_early(self, monkeypatch):
        # An atomless 30-cycle settles after 15 pair rounds (see above). With
        # two affordable, the full refinement is refused, and a stop test
        # that holds after pair round 2 is answered with that round's
        # numbering.
        m = cycle(30)
        seen = []

        def stop(block, at):
            seen.append(list(block))
            return len(seen) == 3

        monkeypatch.setattr(bisim, "DEFAULT_CEILING", 2 * 120 + 2 * 5400)
        with pytest.raises(ResourceGuard, match="so round 3 would pass"):
            bisim._blocks(m, m)
        blocks = bisim._blocks(m, m, stop)
        assert len(seen) == 3 and list(blocks.values()) == seen[-1]
        assert [len(set(block)) for block in seen] == [2, 4, 6]

    def test_equals_quadruple_fixpoint(self):
        rng = random.Random(7001)
        for i in range(300):
            m, n = corpus_pair(rng, i)
            assert largest_bisimulation(m, n).pairs == quad_fixpoint(m, n), i
        rng = random.Random(7004)
        for i in range(60):
            m, n = structured_pair(rng)
            assert largest_bisimulation(m, n).pairs == quad_fixpoint(m, n), ("structured", i)

    def test_relates_only_bisimilar_coordinates(self):
        # A related quadruple projects onto state pairs that are bisimilar
        # over the left atoms (first coordinates) and over the right atoms
        # (second coordinates): the partition refinement starts from there.
        rng = random.Random(7005)
        for i in range(200):
            m, n = corpus_pair(rng, i) if i % 2 else structured_pair(rng)
            left = state_bisimilarity(m, n, Side.LEFT)
            right = state_bisimilarity(m, n, Side.RIGHT)
            for (s, t), (s2, t2) in largest_bisimulation(m, n).pairs:
                assert (s, s2) in left and (t, t2) in right, (i, s, t, s2, t2)

    def test_forty_states(self):
        rng = random.Random(7002)
        states = [f"w{i}" for i in range(40)]

        def model():
            return make_model(states, [(a, b) for a in states for b in states
                                       if rng.random() < 0.1],
                              {"l:p": rng.sample(states, 20), "r:p": rng.sample(states, 20)})

        m, n = model(), model()
        with time_budget(2):
            unrelated = largest_bisimulation(m, n)
            copy = largest_bisimulation(m, m)
        assert check_bisimulation_witness(unrelated) is None
        assert {((s, t), (s, t)) for s, t in all_pairs(m)} <= copy.pairs


class TestAreBisimilar:
    def test_same_pointed_model(self, rng):
        m = random_model(rng, max_states=3)
        s, t = sorted(m.states)[0], sorted(m.states)[-1]
        assert are_bisimilar(m, s, t, m, s, t)

    def test_diagonal_clause_blocks(self):
        # two states with identical (empty) atoms: diagonal pair is still
        # distinguishable from a non-diagonal one
        m = make_model(["a", "b"], [])
        assert not are_bisimilar(m, "a", "a", m, "a", "b")

    def test_atom_disagreement_blocks(self):
        m = make_model(["a", "b"], [], {"l:p": ["a"]})
        assert not are_bisimilar(m, "a", "a", m, "b", "b")

    def test_unknown_state(self):
        m = make_model(["a", "b"], [])
        with pytest.raises(UnknownState):
            are_bisimilar(m, "a", "b", m, "a", "c")

    def test_answers_past_the_listing_ceiling(self):
        m = edgeless(40)
        assert are_bisimilar(m, "w0", "w1", m, "w2", "w3")
        assert not are_bisimilar(m, "w0", "w0", m, "w2", "w3")

    def test_agrees_with_the_settled_partition(self):
        # The stop test ends refinement once the two pair nodes part; the
        # answer is still block equality in the full refinement.
        rng = random.Random(7003)
        for i in range(120):
            m, n = corpus_pair(rng, i)
            blocks = bisim._blocks(m, n)
            for s, t in all_pairs(m):
                for s2, t2 in rng.sample(all_pairs(n), min(6, len(all_pairs(n)))):
                    want = blocks[0, s, t] == blocks[1, s2, t2]
                    assert are_bisimilar(m, s, t, n, s2, t2) == want, (i, s, t, s2, t2)
        for i in range(40):
            m, n = structured_pair(rng)
            blocks = bisim._blocks(m, n)
            for s, t in all_pairs(m):
                for s2, t2 in rng.sample(all_pairs(n), min(6, len(all_pairs(n)))):
                    want = blocks[0, s, t] == blocks[1, s2, t2]
                    assert are_bisimilar(m, s, t, n, s2, t2) == want, ("structured", i, s, t, s2, t2)

    def test_truth_invariance(self, rng):
        for _ in range(10):
            m = random_model(rng, max_states=3)
            n, ren = rename_copy(m)
            s, t = rng.choice(all_pairs(m))
            assert are_bisimilar(m, s, t, n, ren[s], ren[t])
            for _ in range(50):
                phi = random_formula(rng, depth=3)
                assert check(m, s, t, phi) == check(n, ren[s], ren[t], phi)


class TestWitnessChecker:
    def test_empty_relation_ok(self):
        m = make_model(["a"], [])
        assert check_bisimulation_witness(PairRelation(m, m, frozenset())) is None

    def test_largest_is_self_consistent(self, rng):
        for _ in range(10):
            m = random_model(rng, max_states=3)
            n = random_model(rng, max_states=3)
            rel = largest_bisimulation(m, n)
            assert check_bisimulation_witness(rel) is None

    def test_diagonal_violation_reported(self):
        m = make_model(["a", "b"], [])
        bad = PairRelation(m, m, frozenset({(("a", "a"), ("a", "b"))}))
        violation = check_bisimulation_witness(bad)
        assert violation is not None
        assert violation.quad == (("a", "a"), ("a", "b"))

    def test_passing_subrelations_are_contained(self, rng):
        # anything the checker accepts must sit inside the greatest fixpoint
        for _ in range(20):
            m = random_model(rng, max_states=3)
            n = random_model(rng, max_states=3)
            rel = largest_bisimulation(m, n)
            quads = [((s, t), (s2, t2))
                     for s in m.states for t in m.states
                     for s2 in n.states for t2 in n.states]
            sample = frozenset(q for q in quads if rng.random() < 0.2)
            candidate = PairRelation(m, n, sample)
            if check_bisimulation_witness(candidate) is None:
                assert sample <= rel.pairs

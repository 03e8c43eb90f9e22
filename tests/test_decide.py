"""K satisfiability, the full decision procedure, and bounded search."""

import pytest

from lhs import (
    ContainsI,
    MixedFormula,
    Not,
    ResourceGuard,
    brute_force_sat_oracle,
    check,
    k_sat,
    k_valid,
    lhs_bounded_sat,
    lhs_minus_sat,
    lhs_minus_valid,
    one_sided_eval,
    parse,
)
from lhs.bruteforce import find_model
from lhs.model import enumerate_models
from lhs.syntax import Side, prop_names

from conftest import random_i_free, random_one_sided, time_budget


def enumerated_sat(phi, bound):
    """Whether some model over phi's variables with at most `bound` states
    satisfies phi at some pair, by `check` on every model and pair."""
    props = sorted(prop_names(phi), key=str)
    for model in enumerate_models(bound, props):
        if any(check(model, s, t, phi)
               for s in model.states for t in model.states):
            return True
    return False


class TestKSat:
    def test_propositional_clash(self):
        assert k_sat(parse("l:p & ~l:p")).status == "UNSAT"

    def test_diamond_top(self):
        v = k_sat(parse("<W> true"))
        assert v.status == "SAT"
        assert len(v.model.states) == 2
        assert one_sided_eval(v.model, v.state, parse("<W> true"))

    def test_k_non_theorem_needs_two_successors(self):
        phi = parse("[W](l:p | l:q) & ~([W]l:p | [W]l:q)")
        v = k_sat(phi)
        assert v.status == "SAT"
        assert one_sided_eval(v.model, v.state, phi)
        assert brute_force_sat_oracle(phi, 3).status == "SAT"

    def test_rejects_mixed(self):
        with pytest.raises(MixedFormula):
            k_sat(parse("l:p & r:q"))

    def test_witnesses_are_trees(self, rng):
        for _ in range(100):
            phi = random_one_sided(rng, Side.LEFT, depth=3)
            v = k_sat(phi)
            if v.status != "SAT":
                continue
            assert one_sided_eval(v.model, v.state, phi)
            indeg = {w: 0 for w in v.model.states}
            for a, b in v.model.edges:
                assert a != b
                indeg[b] += 1
            assert all(d <= 1 for d in indeg.values())


class TestKValid:
    def test_k_axiom(self):
        ok, _ = k_valid(parse("[W](l:p -> l:q) -> ([W]l:p -> [W]l:q)"))
        assert ok

    def test_atom_invalid_with_countermodel(self):
        ok, counter = k_valid(parse("l:p"))
        assert not ok
        assert len(counter.model.states) == 1
        assert not one_sided_eval(counter.model, counter.state, parse("l:p"))

    def test_oracle_agreement(self, rng):
        for _ in range(150):
            side = rng.choice([Side.LEFT, Side.RIGHT])
            phi = random_one_sided(rng, side, depth=2)
            ok, counter = k_valid(phi)
            oracle = brute_force_sat_oracle(Not(phi), 3)
            if oracle.status == "SAT":
                assert not ok
            if ok:
                assert oracle.status == "NO-MODEL-UP-TO-BOUND"
            else:
                assert not one_sided_eval(counter.model, counter.state, phi)


class TestLhsMinusValid:
    def test_white_distribution_axiom(self):
        v = lhs_minus_valid(parse("[W](l:p | r:p) <-> ([W]l:p | r:p)"))
        assert v.status == "VALID"
        assert v.certificate

    def test_modal_commutation(self):
        phi = parse("[W][B](l:p & r:q) <-> [B][W](l:p & r:q)")
        assert lhs_minus_valid(phi).status == "VALID"

    def test_unsound_distribution_refuted(self):
        phi = parse("[W](l:p | l:q) -> ([W]l:p | l:q)")
        v = lhs_minus_valid(phi)
        assert v.status == "INVALID"
        s, t = v.pair
        assert not check(v.model, s, t, phi)
        assert brute_force_sat_oracle(Not(phi), 4).status == "SAT"

    def test_rejects_equality_constant(self):
        with pytest.raises(ContainsI):
            lhs_minus_valid(parse("I -> I"))


class TestLhsMinusSat:
    def test_top(self):
        assert lhs_minus_sat(parse("true")).status == "SAT"

    def test_contradiction(self):
        assert lhs_minus_sat(parse("l:p & ~l:p")).status == "UNSAT"

    def test_witnesses_verify(self, rng):
        for _ in range(100):
            phi = random_i_free(rng, depth=2)
            v = lhs_minus_sat(phi)
            if v.status == "SAT":
                s, t = v.pair
                assert check(v.model, s, t, phi)

    def test_oracle_agreement(self, rng):
        for _ in range(150):
            phi = random_i_free(rng, depth=2)
            mine = lhs_minus_sat(phi)
            oracle = brute_force_sat_oracle(phi, 4)
            if oracle.status == "SAT":
                assert mine.status == "SAT"
            if mine.status == "UNSAT":
                assert oracle.status == "NO-MODEL-UP-TO-BOUND"


class TestBoundedSat:
    def test_equality_constant_needs_one_state(self):
        v = lhs_bounded_sat(parse("I"), 1)
        assert v.status == "SAT"
        s, t = v.pair
        assert s == t

    def test_contradiction_exhausts(self):
        for bound in (1, 2, 3):
            assert lhs_bounded_sat(parse("I & ~I"), bound).status == "NO-MODEL-UP-TO-BOUND"

    def test_agrees_with_oracle(self, rng):
        # The reference is the plain enumerate-and-check loop over every model.
        for _ in range(40):
            phi = random_i_free(rng, depth=2)
            v = lhs_bounded_sat(phi, 2)
            assert v.status == ("SAT" if enumerated_sat(phi, 2) else "NO-MODEL-UP-TO-BOUND")
            if v.status == "SAT":
                assert check(v.model, *v.pair, phi)

    def test_witness_verifies(self, rng):
        for _ in range(40):
            phi = rng.choice([parse("<W>I"), parse("I & <W>~I"), parse("[B]I & <W>l:p")])
            v = lhs_bounded_sat(phi, 3)
            if v.status == "SAT":
                assert check(v.model, *v.pair, phi)


# Formulas whose companion blew up (or was refused) when negation and every
# diamond were pushed back through the propositional CNF at each level.
BAD_CASES = [
    "<B> <W> ([B] l:p -> <W> <B> true)",
    "((((l:p0 <-> [B]r:p1) <-> [W]l:p2) <-> [B]r:p3) <-> [W]l:p4)",
    "<B> <W> ((l:p | r:q) & (r:q & true))",
    "<B> [B] ((r:q <-> l:p) & (r:q & l:q))",
    "<B> ([B] l:q -> (r:q <-> l:q))",
    "<B> <W> [B] (<W> r:p & (false & false))",
    # Its negation puts a <W> over 16 conjuncts whose black sides share
    # disjuncts: one conjunct per subset would be 2^15 of them.
    "<B> (([W] true <-> r:p) <-> false) & ([W] (<B> <W> r:p <-> (<W> r:p | l:q)"
    " & (true & r:p -> l:p)) & ((<W> r:p | [B] <W> true | ~[W] l:q"
    " & ([B] l:p & (r:p | true))) & r:q))",
    # The mixed <-> chain at length 8: its written-out NNF holds 2^8 l:q.
    "(((((((l:q <-> [W] l:p0) <-> [B] r:p1) <-> [W] l:p2) <-> [B] r:p3)"
    " <-> [W] l:p4) <-> [B] r:p5) <-> [W] l:p6) <-> [B] r:p7",
]


class TestBadCases:
    @pytest.mark.parametrize("text", BAD_CASES)
    def test_sat(self, text):
        phi = parse(text)
        with time_budget(5):
            v = lhs_minus_sat(phi)
        assert v.status == "SAT"
        assert check(v.model, *v.pair, phi)
        if len(prop_names(phi)) <= 3:
            assert find_model(phi, 3) is not None

    @pytest.mark.parametrize("text", BAD_CASES)
    def test_valid(self, text):
        phi = parse(text)
        with time_budget(5):
            v = lhs_minus_valid(phi)
        assert v.status == "INVALID"
        assert not check(v.model, *v.pair, phi)
        if len(prop_names(phi)) <= 3:
            assert find_model(Not(phi), 3) is not None


def test_deep_formulas_agree_with_oracle(rng):
    # The acceptance gate samples depth 2 only; the companion's diamond and
    # disjunction rules compound from depth 3 on.
    for _ in range(200):
        phi = random_i_free(rng, depth=rng.randint(3, 5))
        with time_budget(5):
            v = lhs_minus_sat(phi)
        if v.status == "SAT":
            assert check(v.model, *v.pair, phi)
        else:
            assert find_model(phi, 2) is None


def mixed_iff_chain(length):
    """`((l:q <-> [W]l:p0) <-> [B]r:p1) <-> ...`: every level is mixed."""
    text = "l:q"
    for i in range(length):
        text = f"({text} <-> {'[B]r' if i % 2 else '[W]l'}:p{i})"
    return parse(text)


class TestCompanionGuard:
    # A written-out NNF doubles at every <->, so a 30-deep chain would take
    # 2^30 nodes before any guard; read once per polarity it stays linear,
    # and only the guarded conjunct products grow.
    @pytest.mark.parametrize("decide", [lhs_minus_sat, lhs_minus_valid])
    def test_long_iff_chain_ends(self, decide):
        phi = mixed_iff_chain(30)
        with time_budget(20):
            try:
                v = decide(phi)
            except ResourceGuard:
                return
        assert check(v.model, *v.pair, phi) == (v.status == "SAT")

    def test_wide_diamond_refused_at_ceiling(self):
        # The negation puts a <W> over 56 conjuncts with pairwise different
        # black sides; their distinct unions pass the ceiling, and the
        # refusal comes at the first one past it.
        phi = parse("[W] <B> ([W] [B] [B] (r:q & l:q) <-> <B> [W] [B] [W] r:q)")
        with time_budget(2):
            with pytest.raises(ResourceGuard, match="would build 100001 conjuncts"):
                lhs_minus_sat(phi)
        with time_budget(2):
            v = lhs_minus_valid(phi)
        assert v.status == "INVALID"
        assert not check(v.model, *v.pair, phi)


def test_one_sided_iff_chain():
    # The K tableau reads the NNF of ((l:q <-> l:p0) <-> l:p1) ...; written
    # out as a tree it doubled at every <->, 2^30 nodes here.
    text = "l:q"
    for i in range(30):
        text = f"({text} <-> l:p{i})"
    phi = parse(f"{text} | r:q")
    with time_budget(1):
        v = lhs_minus_valid(phi)
    assert v.status == "INVALID"
    assert not check(v.model, *v.pair, phi)

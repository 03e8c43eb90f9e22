"""K satisfiability, the full decision procedure, and bounded search."""

import hashlib
import itertools
import json
import random
import time

import pytest

from lhs import (
    And,
    Atom,
    BBox,
    BDia,
    Bot,
    ContainsI,
    EqConst,
    Iff,
    Implies,
    Not,
    ResourceGuard,
    brute_force_sat_oracle,
    check,
    companion,
    k_sat,
    lhs_bounded_sat,
    lhs_minus_sat,
    lhs_minus_valid,
    Or,
    Top,
    WBox,
    WDia,
    parse,
)
from lhs import decide, syntax
from lhs.bruteforce import find_model
from lhs.model import enumerate_models, model_doc
from lhs.syntax import WHITE_MODAL, Side, drive, left_atom, prop_names, right_atom, subformulas

from conftest import (iff_chain, k_branch_n, k_branch_p, one_sided_eval, random_i_free,
                      random_one_sided, time_budget)


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
        assert one_sided_eval(v.model, v.pair[0], parse("<W> true"))

    def test_k_non_theorem_needs_two_successors(self):
        phi = parse("[W](l:p | l:q) & ~([W]l:p | [W]l:q)")
        v = k_sat(phi)
        assert v.status == "SAT"
        assert one_sided_eval(v.model, v.pair[0], phi)
        assert brute_force_sat_oracle(phi, 3).status == "SAT"

    def test_answers_mixed_and_rejects_i(self):
        # The white part holds at the first state of the pair and the black
        # part at the second: two copies of the root carry them.
        phi = parse("l:p & r:q & <W>l:q & [B]~r:q & [W](r:p | l:q)")
        v = k_sat(phi)
        assert v.status == "SAT" and v.pair == ("n0", "n2")
        assert check(v.model, *v.pair, phi)
        with pytest.raises(ContainsI):
            k_sat(parse("l:p & ~I"))

    def test_witnesses_are_trees(self, rng):
        for _ in range(100):
            phi = random_one_sided(rng, Side.LEFT, depth=3)
            v = k_sat(phi)
            if v.status != "SAT":
                continue
            assert one_sided_eval(v.model, v.pair[0], phi)
            indeg = {w: 0 for w in v.model.states}
            for a, b in v.model.edges:
                assert a != b
                indeg[b] += 1
            assert all(d <= 1 for d in indeg.values())


# The reference K tableau: it writes out the negation normal form and
# branches on every `|`, blind to why a branch failed, so the branching
# families below take it 2^k leaves. It shares no code with `decide._tableau`.


def reference_nnf(phi, positive=True):
    """Negation normal form: literals, constants, &, | and the modalities,
    one table entry per (subformula, polarity), so the result is a DAG."""
    table = {}
    for f in subformulas(phi):
        for pos in (True, False):
            if isinstance(f, (Atom, EqConst)):
                g = f if pos else Not(f)
            elif isinstance(f, (Top, Bot)):
                g = Top() if isinstance(f, Top) == pos else Bot()
            elif isinstance(f, Not):
                g = table[f.child, not pos]
            elif isinstance(f, (And, Or, Implies)):
                node = And if isinstance(f, And) == pos else Or
                g = node(table[f.left, pos != isinstance(f, Implies)], table[f.right, pos])
            elif isinstance(f, Iff):
                outer, inner = (And, Or) if pos else (Or, And)
                g = outer(inner(table[f.left, not pos], table[f.right, pos]),
                          inner(table[f.right, not pos], table[f.left, pos]))
            else:
                box, dia = (WBox, WDia) if isinstance(f, WHITE_MODAL) else (BBox, BDia)
                g = (box if isinstance(f, (WBox, BBox)) == pos else dia)(table[f.child, pos])
            table[f, pos] = g
    return table[phi, positive]


def _reference_tableau(goals):
    todo = list(goals)
    while todo:
        f = todo.pop(0)
        if isinstance(f, And):
            del goals[f]
            for g in (f.left, f.right):
                if g not in goals:
                    goals[g] = None
                    todo.append(g)
        elif isinstance(f, Or):
            del goals[f]
            return ((yield _reference_tableau({**goals, f.left: None}))
                    or (yield _reference_tableau({**goals, f.right: None})))
    if any(isinstance(f, Bot) for f in goals):
        return False
    positive = {f.prop for f in goals if isinstance(f, Atom)}
    negative = {f.child.prop for f in goals if isinstance(f, Not)}
    if positive & negative:
        return False
    boxes = {f.child: None for f in goals if isinstance(f, (WBox, BBox))}
    for f in goals:
        if isinstance(f, (WDia, BDia)):
            if not (yield _reference_tableau({**boxes, f.child: None})):
                return False
    return True


def reference_k_sat(phi):
    """Whether the one-sided `phi` is satisfiable in K, by the reference."""
    return drive(_reference_tableau({reference_nnf(phi): None}))


def test_k_sat_agrees_with_reference(rng):
    # Until 500 formulas with <-> have been decided, and every one drawn on
    # the way: <-> is where the two searches differ most.
    with_iff = 0
    while with_iff < 500:
        phi = random_one_sided(rng, rng.choice(list(Side)), depth=4)
        with_iff += any(isinstance(f, Iff) for f in subformulas(phi))
        with time_budget(5):
            v = k_sat(phi)
        assert (v.status == "SAT") == reference_k_sat(phi), phi
        if v.status == "SAT":
            assert one_sided_eval(v.model, v.pair[0], phi), phi


def random_cnf_k(rng, depth, clauses=10):
    """A random CNF_K formula in the style of Giunchiglia & Sebastiani 1996:
    up to `clauses` clauses of one to three literals over three left atoms,
    where a literal may be a box or a diamond over a smaller such formula.
    Many clashes depend on a few choices, which is where backjumping prunes;
    about a quarter of them are unsatisfiable."""
    def literal():
        if depth and rng.random() < 0.3:
            core = rng.choice([WBox, WDia])(random_cnf_k(rng, depth - 1, 3))
        else:
            core = parse(f"l:{rng.choice('pqr')}")
        return core if rng.random() < 0.5 else Not(core)

    phi = None
    for _ in range(rng.randint(1, clauses)):
        clause = literal()
        for _ in range(rng.randint(0, 2)):
            clause = Or(clause, literal())
        phi = clause if phi is None else And(phi, clause)
    return phi


@pytest.mark.parametrize("text, verdict", [
    # The diamond's successor clashes on the box alone, yet the clash
    # depends on the branch that chose the diamond.
    ("[W]false & (<W>true | l:p)", "SAT"),
    # The second branch of the inner choice fails on its own, the first
    # because of the outer choice: together they depend on the outer one.
    ("(l:p | l:q) & (~l:p | ~l:s) & l:s", "SAT"),
    ("(l:p | l:q) & (~l:p | ~l:s) & l:s & ~l:q", "UNSAT"),
    ("(l:p <-> l:q) & (l:q <-> ~l:p)", "UNSAT"),
    ("~(l:p <-> l:q) & <W>(l:p -> false) & (l:q -> [W]l:p)", "SAT"),
    # A `|` chain is one branch point. Its first branch clashes because of
    # the chain's choice; its second clashes without it, so the third is
    # skipped: on (d | e) alone, on the outer choice of l:x (which l:y then
    # satisfies), and on the box and diamond alone.
    ("(l:a | l:b | l:c) & ~l:a & (l:d | l:e) & ~l:d & ~l:e", "UNSAT"),
    ("(l:x | l:y) & (l:a | l:b | l:c) & ~l:a & (~l:x | l:d) & ~l:d", "SAT"),
    ("(l:a | l:b | l:c | l:d) & ~l:a & [W]false & <W>true", "UNSAT"),
])
def test_backjumping_keeps_the_choices_a_clash_depends_on(text, verdict):
    phi = parse(text)
    v = k_sat(phi)
    assert v.status == verdict
    assert reference_k_sat(phi) == (verdict == "SAT")
    if verdict == "SAT":
        assert one_sided_eval(v.model, v.pair[0], phi)


def test_k_sat_agrees_with_reference_on_cnf_k(rng):
    verdicts = []
    for _ in range(400):
        phi = random_cnf_k(rng, rng.randint(0, 2))
        with time_budget(5):
            v = k_sat(phi)
            assert (v.status == "SAT") == reference_k_sat(phi), phi
        if v.status == "SAT":
            assert one_sided_eval(v.model, v.pair[0], phi), phi
        verdicts.append(v.status)
    assert verdicts.count("UNSAT") >= 50


BRANCH_FAMILIES = {"k_branch_n": (k_branch_n, "UNSAT"), "k_branch_p": (k_branch_p, "SAT")}


@pytest.mark.parametrize("k", [*range(8, 21), 40])
@pytest.mark.parametrize("family", BRANCH_FAMILIES)
def test_branching_families(family, k):
    build, verdict = BRANCH_FAMILIES[family]
    phi = parse(build(k))
    with time_budget(5):
        v = lhs_minus_sat(phi)
    assert v.status == verdict
    if verdict == "SAT":
        assert check(v.model, *v.pair, phi)
    if k == 8:  # the reference tries 2^k leaves
        assert reference_k_sat(phi) == (verdict == "SAT")


def test_branching_family_is_linear():
    # A search that branches blindly doubles its time with each k.
    phi = parse(k_branch_n(20))
    with time_budget(5):
        start = time.process_time()
        v = lhs_minus_sat(phi)
        elapsed = time.process_time() - start
    assert v.status == "UNSAT"
    assert elapsed < 0.1


def test_step_ceiling(monkeypatch):
    phi = parse(k_branch_n(10))
    monkeypatch.setattr(decide, "DEFAULT_STEP_CEILING", 20)
    with pytest.raises(ResourceGuard, match="K tableau expanded 21 goals, over the ceiling of 20"):
        k_sat(phi)
    with pytest.raises(ResourceGuard, match="K tableau expanded"):
        lhs_minus_sat(phi)
    monkeypatch.setattr(decide, "DEFAULT_STEP_CEILING", 1000)
    assert k_sat(phi).status == "UNSAT"


def shared_one_sided(rng, side, size):
    """A one-sided formula built from a pool of its own subformulas, so that
    the tableau often meets the same goal from more than one place."""
    mk = left_atom if side is Side.LEFT else right_atom
    box, dia = (WBox, WDia) if side is Side.LEFT else (BBox, BDia)
    pool = [mk(v) for v in "pqr"] + [Top(), Bot()]
    for _ in range(size):
        roll = rng.random()
        a = rng.choice(pool[-8:] if rng.random() < 0.6 else pool)
        if roll < 0.15:
            f = Not(a)
        elif roll < 0.3:
            f = box(a)
        elif roll < 0.42:
            f = dia(a)
        else:
            f = rng.choice([And, And, Or, Or, Implies, Iff])(a, rng.choice(pool))
        pool.append(f)
    return pool[-1]


def witness_digest(seed):
    """One hash over the verdicts and witness files of seeded `k_sat` and
    `lhs_minus_sat` calls."""
    rng = random.Random(seed)
    h = hashlib.sha256()
    for i in range(900):
        side = rng.choice(list(Side))
        if i % 3:
            phi = shared_one_sided(rng, side, rng.randint(5, 40))
        else:
            phi = random_one_sided(rng, side, depth=rng.randint(2, 6), names=("p", "q", "r"))
        v = k_sat(phi)
        doc = model_doc(v.model) if v.model else None
        h.update(json.dumps([v.status, doc, v.pair and v.pair[0]]).encode())
    for _ in range(300):
        v = lhs_minus_sat(random_i_free(rng, depth=rng.randint(2, 3)))
        doc = model_doc(v.model) if v.model else None
        h.update(json.dumps([v.status, doc, v.pair]).encode())
    return h.hexdigest()


WITNESS_DIGEST = "69cbf1a615c7478396093d51caf9590db38278c70835a3e38a81194755bb91f4"


class TestTableauState:
    def test_witnesses_unchanged(self):
        # Pinned when the tableau began to read a chain of one junction in
        # one step, which queues its operands in a new order: one witness of
        # the 1,200 changed (the two successors of call 694 swapped their
        # atoms), and no verdict. Undoing a failed branch and expanding each
        # goal once must leave every witness as is. Re-pinned when `sat` became
        # one tableau call: the 300 `lhs_minus_sat` witnesses changed from
        # unions of two countermodels to the tableau's own trees, and the
        # 900 `k_sat` calls hash as before.
        assert witness_digest(18) == WITNESS_DIGEST

    def test_failed_branch_leaves_nothing(self):
        # The first branch clashes on ~l:c; its l:a and <W>l:b must not
        # reach the witness of the second.
        phi = parse("((l:a & <W>l:b & ~l:c) | <W>l:d) & l:c & [W]~l:b")
        v = k_sat(phi)
        assert v.status == "SAT" and v.pair == ("n0", "n0")
        assert model_doc(v.model) == {"states": ["n0", "n1"], "edges": [["n0", "n1"]],
                                      "valuation": {"l:c": ["n0"], "l:d": ["n1"]}}

    def test_one_companion_per_goal(self, monkeypatch):
        # Each failed branch undoes the `[W]` goal, and each later branch
        # re-expands it: 13 times here, from one companion.
        calls = []
        monkeypatch.setattr(decide, "companion", lambda f: calls.append(f) or companion(f))
        branches = [f"(l:a{i} | l:b{i})" for i in range(12)]
        negated = [f"~l:a{i}" for i in range(12)]
        phi = parse(" & ".join([*branches, "[W](l:p | r:q)", *negated]))
        v = lhs_minus_sat(phi)
        assert v.status == "SAT" and len(calls) == 1

    def test_long_disjunction_chain_is_linear(self):
        # A branch point that copies its goals makes this chain quadratic:
        # 7 s at 8,000 disjunctions.
        phi = parse(" & ".join(f"(l:a{i} | l:b{i})" for i in range(8000)))
        start = time.process_time()
        with time_budget(30):
            v = k_sat(phi)
        assert time.process_time() - start < 1
        assert v.status == "SAT"
        assert one_sided_eval(v.model, v.pair[0], phi)


def test_k_sat_pair_is_a_witness_that_check_confirms(rng):
    # A one-sided formula holds at a pair exactly when it holds in K at the
    # pair's coordinate of its side, so the root pair (n0, n0) of the
    # tableau's tree is an LHS witness.
    sat = dict.fromkeys(Side, 0)
    for i in range(300):
        side = rng.choice(list(Side))
        if i % 2:
            phi = shared_one_sided(rng, side, rng.randint(5, 30))
        else:
            phi = random_one_sided(rng, side, depth=rng.randint(2, 4))
        v = k_sat(phi)
        if v.status == "SAT":
            assert v.pair == ("n0", "n0")
            assert check(v.model, *v.pair, phi) and one_sided_eval(v.model, "n0", phi), phi
            sat[side] += 1
    assert min(sat.values()) >= 50, sat


class TestKValid:
    """Validity in K is unsatisfiability of the negation."""

    def test_k_axiom(self):
        counter = k_sat(Not(parse("[W](l:p -> l:q) -> ([W]l:p -> [W]l:q)")))
        assert counter.status == "UNSAT"

    def test_atom_invalid_with_countermodel(self):
        counter = k_sat(Not(parse("l:p")))
        assert counter.status != "UNSAT"
        assert len(counter.model.states) == 1
        assert not one_sided_eval(counter.model, counter.pair[0], parse("l:p"))

    def test_oracle_agreement(self, rng):
        for _ in range(150):
            side = rng.choice([Side.LEFT, Side.RIGHT])
            phi = random_one_sided(rng, side, depth=2)
            counter = k_sat(Not(phi))
            ok = counter.status == "UNSAT"
            oracle = brute_force_sat_oracle(Not(phi), 3)
            if oracle.status == "SAT":
                assert not ok
            if ok:
                assert oracle.status == "NO-MODEL-UP-TO-BOUND"
            else:
                assert not one_sided_eval(counter.model, counter.pair[0], phi)


class TestLhsMinusValid:
    def test_white_distribution_axiom(self):
        v = lhs_minus_valid(parse("[W](l:p | r:p) <-> ([W]l:p | r:p)"))
        assert v.status == "VALID"

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


class TestWitnessValuation:
    # A `_fresh` name is an ordinary variable: the companion writes an empty
    # side as `false`, so no name of its own meets a name of the input.
    def test_countermodel_of_reserved_name_falsifies(self):
        phi = parse("~l:_fresh0")
        v = lhs_minus_valid(phi)
        assert v.status == "INVALID"
        assert not check(v.model, *v.pair, phi)

    def test_witness_of_reserved_name_satisfies(self):
        phi = parse("l:_fresh0 & r:q")
        v = lhs_minus_sat(phi)
        assert v.status == "SAT"
        assert check(v.model, *v.pair, phi)

    def test_witnesses_name_only_atoms_of_the_input(self, rng):
        # The companion adds no atom (an empty side is `false`), so the
        # returned models hold only names of the input.
        for _ in range(300):
            phi = random_i_free(rng, depth=rng.randint(1, 4))
            for v in (lhs_minus_sat(phi), lhs_minus_valid(phi)):
                if v.model is not None:
                    assert set(v.model.valuation) <= prop_names(phi)

    def test_inputs_that_name_the_pad_atom(self, rng):
        # Inputs may name `_fresh0` on either side like any other variable.
        names = ("p", "_fresh0")
        for _ in range(1000):
            phi = random_i_free(rng, depth=rng.randint(1, 4), left_vars=names, right_vars=names)
            sat, valid = lhs_minus_sat(phi), lhs_minus_valid(phi)
            if sat.status == "SAT":
                assert check(sat.model, *sat.pair, phi)
            if valid.status == "INVALID":
                assert not check(valid.model, *valid.pair, phi)
            # Every satisfiable formula of this seeded sample has a model of
            # at most 2 states, so the bounded search agrees both ways.
            assert (sat.status == "SAT") == (find_model(phi, 2) is not None)
            assert (valid.status == "INVALID") == (find_model(Not(phi), 2) is not None)


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
    # The companion reads each subformula once per polarity, and the CNF
    # pass counts the conjuncts it builds against one ceiling. A negation
    # normal form written out as a tree would double at every <->, 2^30
    # nodes here before any guard.
    @pytest.mark.parametrize("decide", [lhs_minus_sat, lhs_minus_valid])
    def test_long_iff_chain_ends(self, decide):
        # Both chains are clean, so the tableau reads them without building a
        # companion, also past the lengths whose companion is refused.
        status = "SAT" if decide is lhs_minus_sat else "INVALID"
        for phi in [mixed_iff_chain(30), *map(iff_chain, [*range(15, 31), 60])]:
            start = time.process_time()
            with time_budget(2):
                v = decide(phi)
            assert time.process_time() - start < 0.1
            assert v.status == status
            assert check(v.model, *v.pair, phi) == (status == "SAT")

    def test_wide_diamond_refused_at_ceiling(self):
        # A <W> over 16 conjuncts with pairwise different black sides has
        # 2^16 distinct unions; each is charged once, and the refusal comes
        # at the first one past the ceiling.
        phi = parse("<W>(" + " & ".join(f"(l:a{i} | r:b{i})" for i in range(16)) + ")")
        with time_budget(2):
            with pytest.raises(ResourceGuard, match="built 50000 conjuncts and its next "
                                                    "step would build 1 more"):
                lhs_minus_valid(phi)

    @pytest.mark.parametrize("decide, status", [(lhs_minus_sat, "SAT"),
                                                (lhs_minus_valid, "INVALID")])
    def test_wide_diamond_of_negated_iff_answered(self, decide, status):
        # Read as a DNF product, the negated <-> put a <W> over 56 conjuncts
        # whose unions passed the ceiling; read as a CNF it builds 4,096
        # conjuncts in all.
        phi = parse("[W] <B> ([W] [B] [B] (r:q & l:q) <-> <B> [W] [B] [W] r:q)")
        with time_budget(2):
            v = decide(phi)
        assert v.status == status
        assert check(v.model, *v.pair, phi) == (status == "SAT")

    def test_iff_chain_answered_below_the_ceiling(self):
        # 8,192 conjuncts. The bound is on CPU time, which other load on the
        # machine does not inflate.
        phi = iff_chain(14)
        start = time.process_time()
        with time_budget(10):
            v = lhs_minus_valid(phi)
        assert time.process_time() - start < 1.5
        assert v.status == "INVALID" and len(companion(phi).conjuncts) == 2 ** 13
        assert not check(v.model, *v.pair, phi)

    @pytest.mark.parametrize("length", range(15, 31))
    def test_iff_chain_refused_in_bounded_time(self, length):
        # The companion of every longer chain is refused once the pass has
        # built as much as the chain of length 14 needs and a little more.
        # `sat` and `valid` answer these chains without it.
        phi = iff_chain(length)
        start = time.process_time()
        with time_budget(10):
            with pytest.raises(ResourceGuard, match="built 49146 conjuncts and its next "
                                                    "step would build 8192 more"):
                companion(phi)
        assert time.process_time() - start < 1


def test_one_sided_iff_chain():
    # The K tableau reads ((l:q <-> l:p0) <-> l:p1) ... as polarity pairs,
    # one branch point per <->. Its negation normal form written out as a
    # tree doubled at every <->, 2^30 nodes here.
    text = "l:q"
    for i in range(30):
        text = f"({text} <-> l:p{i})"
    phi = parse(f"{text} | r:q")
    with time_budget(1):
        v = lhs_minus_valid(phi)
    assert v.status == "INVALID"
    assert not check(v.model, *v.pair, phi)


def prefix_family(own_atoms):
    """The `|` of all 2,187 seven-long prefixes over `[W]`, `<W>` and `~`, each
    applied to `l:p`, or to `l:p{i}` in operand i."""
    prefixes = itertools.product(("[W]", "<W>", "~"), repeat=7)
    return parse(" | ".join("".join(prefix) + (f"l:p{i}" if own_atoms else "l:p")
                            for i, prefix in enumerate(prefixes)))


@pytest.mark.parametrize("own_atoms", [False, True], ids=["one-atom", "own-atoms"])
def test_formulas_of_one_shape_do_not_collide(monkeypatch, own_atoms):
    # Hashed without its kind, every operand of the one-atom family shares
    # its hash with all the others of its depth: the sets and dicts of the
    # tableau and of the bounded search made 1.2 and 15.3 million equality
    # tests. With its own atoms, each operand hashes apart.
    phi, calls = prefix_family(own_atoms), [0]
    equal = syntax.Node.__eq__

    def counted(a, b):
        calls[0] += 1
        return equal(a, b)

    monkeypatch.setattr(syntax.Node, "__eq__", counted)
    assert lhs_minus_sat(phi).status == "SAT"
    if own_atoms:  # 2,187 variables: refused before the search
        with pytest.raises(ResourceGuard):
            find_model(phi, 1)
    else:
        assert find_model(phi, 1) is not None
    assert calls[0] <= 10_000

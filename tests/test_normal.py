"""Propositional CNF, clean CNF, and the companion."""

import hashlib
import itertools
import json
import random
import re
import time

import pytest

from lhs import (
    And,
    Atom,
    BBox,
    Bot,
    ContainsI,
    Iff,
    ModalInput,
    Not,
    NotClean,
    Or,
    ResourceGuard,
    Top,
    WBox,
    clean_to_cnf,
    companion,
    left_atom,
    lhs_minus_valid,
    parse,
    prop_cnf,
    prop_names,
    render,
    right_atom,
)
from lhs import normal
from lhs.bruteforce import find_model
from lhs.normal import CleanCNF
from lhs.syntax import BLACK_ONLY, WHITE_ONLY, Side, conjoin, disjoin

from conftest import (
    iff_chain,
    random_clean,
    random_i_free,
    time_budget,
)


def truth_table_equal(f1, f2):
    """Propositional equivalence by brute force over all assignments."""
    names = sorted(prop_names(f1) | prop_names(f2), key=str)
    for bits in itertools.product([False, True], repeat=len(names)):
        env = dict(zip(names, bits))
        if _prop_eval(f1, env) != _prop_eval(f2, env):
            return False
    return True


def _prop_eval(phi, env):
    if isinstance(phi, Atom):
        return env[phi.prop]
    if isinstance(phi, Top):
        return True
    if isinstance(phi, Bot):
        return False
    if isinstance(phi, Not):
        return not _prop_eval(phi.child, env)
    if isinstance(phi, And):
        return _prop_eval(phi.left, env) and _prop_eval(phi.right, env)
    if isinstance(phi, Or):
        return _prop_eval(phi.left, env) or _prop_eval(phi.right, env)
    if isinstance(phi, Iff):
        return _prop_eval(phi.left, env) == _prop_eval(phi.right, env)
    # Implies
    return (not _prop_eval(phi.left, env)) or _prop_eval(phi.right, env)


def is_cnf(phi):
    """Shape check: a conjunction of disjunctions of literals (or a constant)."""
    def literal(f):
        return isinstance(f, Atom) or (isinstance(f, Not) and isinstance(f.child, Atom))

    def clause(f):
        if isinstance(f, Or):
            return clause(f.left) and clause(f.right)
        return literal(f)

    def conj(f):
        if isinstance(f, And):
            return conj(f.left) and conj(f.right)
        return clause(f)

    return isinstance(phi, (Top, Bot)) or conj(phi)


def random_prop_formula(rng, depth=3):
    """Random modality-free formula over both sides' atoms."""
    from lhs import Implies
    leaves = [left_atom("p"), left_atom("q"), right_atom("p"), right_atom("q"),
              Top(), Bot()]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    if rng.random() < 0.25:
        return Not(random_prop_formula(rng, depth - 1))
    op = rng.choice([And, Or, Implies, Iff])
    return op(random_prop_formula(rng, depth - 1), random_prop_formula(rng, depth - 1))


def mixed_chain(width):
    """Left-deep `l:p0 & r:p1 & l:p2 & ...`, as the parser builds it, and its atoms."""
    atoms = [(left_atom if i % 2 == 0 else right_atom)(f"p{i}") for i in range(width)]
    phi = atoms[0]
    for a in atoms[1:]:
        phi = And(phi, a)
    return phi, atoms


def negations(phi, depth):
    for _ in range(depth):
        phi = Not(phi)
    return phi


def companion_formula(phi):
    return companion(phi).to_formula()


def equivalent_everywhere(f1, f2, max_states=3):
    """No model up to `max_states` states splits f1/f2."""
    return find_model(Not(Iff(f1, f2)), max_states) is None


def companion_digest():
    """One hash over what `companion` gives for seeded I-free formulas and the
    mixed `<->` chain, each at both polarities: the companion formula and its
    conjunct pairs, rendered, or the `ResourceGuard` message."""
    rng = random.Random(36)
    inputs = [random_i_free(rng, depth=rng.randint(2, 5)) for _ in range(300)]
    inputs += [iff_chain(length) for length in (*range(2, 13), 15)]
    h = hashlib.sha256()
    for phi in inputs:
        for f in (phi, Not(phi)):
            try:
                cnf = companion(f)
                out = [render(cnf.to_formula()), [[render(psi), render(gamma)]
                                                  for psi, gamma in cnf.conjuncts]]
            except ResourceGuard as exc:
                out = str(exc)
            h.update(json.dumps(out).encode())
    return h.hexdigest()


COMPANION_DIGEST = "232d4ddb01182a5cd4033ed2bbd1693e22e8cfb6011db9b68831611b709b667b"


class TestPropCNF:
    def test_unit_clause(self):
        assert prop_cnf(parse("l:p")) == parse("l:p")

    def test_de_morgan(self):
        assert truth_table_equal(prop_cnf(parse("~(l:p & r:q)")),
                                 parse("~l:p | ~r:q"))
        assert is_cnf(prop_cnf(parse("~(l:p & r:q)")))

    def test_iff_expands(self):
        got = prop_cnf(parse("l:p <-> r:q"))
        assert is_cnf(got)
        assert truth_table_equal(got, parse("(~l:p | r:q) & (l:p | ~r:q)"))

    def test_rejects_modalities(self):
        with pytest.raises(ModalInput):
            prop_cnf(parse("[W]l:p"))

    def test_rejects_equality_constant(self):
        with pytest.raises(ModalInput):
            prop_cnf(parse("I"))

    def test_random_equivalence_and_shape(self, rng):
        for _ in range(150):
            alpha = random_prop_formula(rng)
            out = prop_cnf(alpha)
            assert is_cnf(out)
            assert truth_table_equal(alpha, out)

    def test_deep_negation_chain(self):
        iff = parse("l:p <-> r:q")
        assert prop_cnf(negations(iff, 3000)) == prop_cnf(iff)
        assert prop_cnf(negations(iff, 3001)) == prop_cnf(Not(iff))

    def test_wide_mixed_chain(self):
        phi, atoms = mixed_chain(3000)
        with time_budget(5):
            out = prop_cnf(phi)
        assert out == conjoin(atoms)

    @pytest.mark.parametrize("text, constant", [
        ("true & ~false", Top()), ("l:p | ~l:p", Top()), ("false & l:p", Bot())])
    def test_constant_result(self, text, constant):
        out = prop_cnf(parse(text))
        assert out == constant
        assert is_cnf(out)

    def test_resource_guard(self):
        # 2^17 clauses of one literal per pair, refused before the product
        # that doubles 2^15 clauses is built.
        pairs = [And(left_atom(f"a{i}"), right_atom(f"b{i}")) for i in range(17)]
        with pytest.raises(ResourceGuard, match="built 32781 conjuncts and its next "
                                                "step would build 32768 more"):
            prop_cnf(disjoin(pairs))


class TestCleanToCNF:
    def test_left_atom_padding_shape(self):
        # The empty side is `false`, as in the companion.
        cnf = clean_to_cnf(parse("l:p"))
        assert cnf.conjuncts == ((parse("l:p"), Bot()),)

    def test_conjuncts_are_one_sided(self, rng):
        for _ in range(100):
            phi = random_clean(rng)
            for psi, gamma in clean_to_cnf(phi).conjuncts:
                assert psi.facts & WHITE_ONLY
                assert gamma.facts & BLACK_ONLY

    def test_mixed_disjunction_equivalent(self):
        phi = parse("[W]l:p | [B]r:q")
        cnf = clean_to_cnf(phi)
        assert len(cnf.conjuncts) == 1
        assert equivalent_everywhere(phi, cnf.to_formula())

    def test_rejects_unclean(self):
        with pytest.raises(NotClean, match=re.escape("not a clean formula: [W] (l:p | r:q)")):
            clean_to_cnf(parse("[W](l:p | r:q)"))

    def test_random_equivalence(self, rng):
        for _ in range(100):
            phi = random_clean(rng)
            assert equivalent_everywhere(phi, clean_to_cnf(phi).to_formula())

    def test_deep_negation_chain(self):
        cnf = clean_to_cnf(negations(parse("[W]l:p | [B]r:q"), 3000))
        assert cnf.conjuncts == ((parse("[W]l:p"), parse("[B]r:q")),)

    def test_deep_negation_over_mixed_box(self):
        # The message shows the formula, whose repr recursed.
        with pytest.raises(NotClean, match="^not a clean formula: ~~~"):
            clean_to_cnf(negations(parse("[W](l:p | r:q)"), 3000))

    def test_wide_mixed_chain(self):
        phi, atoms = mixed_chain(3000)
        with time_budget(5):
            cnf = clean_to_cnf(phi)
        assert cnf.conjuncts == tuple(
            (a, Bot()) if a.prop.side is Side.LEFT else (Bot(), a) for a in atoms)

    @pytest.mark.parametrize("psi, gamma, message", [
        ("l:p | [B]r:q", "r:q", "psi component is not white-only: l:p | [B] r:q"),
        ("l:p", "r:q | (r:p | ~l:q)", "gamma component is not black-only: r:q | (r:p | ~l:q)"),
    ])
    def test_rejects_mixed_side(self, psi, gamma, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CleanCNF(((parse("l:p"), parse("r:p")), (parse(psi), parse(gamma))))

    def test_equals_companion(self, rng):
        for _ in range(200):
            phi = random_clean(rng)
            assert clean_to_cnf(phi) == companion(phi)


class TestCompanion:
    def test_black_box_atom_identity(self):
        cnf = companion(parse("[B]l:p"))
        assert len(cnf.conjuncts) == 1
        psi, gamma = cnf.conjuncts[0]
        assert psi == parse("l:p")
        assert gamma == parse("[B]false")

    def test_left_atom_identity(self):
        cnf = companion(parse("l:p"))
        assert render(cnf.to_formula()) == "l:p | false"

    def test_printed_companion_parses_back(self):
        # The printed companion is a formula of the input language,
        # equivalent to the input: every biconditional is VALID, or refused
        # by a budget.
        rng = random.Random(29)
        answered = 0
        for _ in range(300):
            phi = random_i_free(rng, depth=rng.randint(1, 4))
            back = parse(render(companion(phi).to_formula()))
            try:
                assert lhs_minus_valid(Iff(phi, back)).status == "VALID", render(phi)
            except ResourceGuard:
                continue
            answered += 1
        assert answered >= 290

    def test_conjunction_concatenates(self):
        a = companion(parse("l:p"))
        b = companion(parse("r:q"))
        both = companion(parse("l:p & r:q"))
        assert len(both.conjuncts) == len(a.conjuncts) + len(b.conjuncts)

    def test_rejects_equality_constant(self):
        with pytest.raises(ContainsI):
            companion(parse("[W]I"))

    def test_deterministic(self, rng):
        for _ in range(30):
            phi = random_i_free(rng)
            assert companion(phi).conjuncts == companion(phi).conjuncts

    def test_conjuncts_one_sided(self, rng):
        for _ in range(100):
            phi = random_i_free(rng)
            for psi, gamma in companion(phi).conjuncts:
                assert psi.facts & WHITE_ONLY
                assert gamma.facts & BLACK_ONLY

    def test_modal_commutation_companions_equivalent(self, rng):
        # the companions of [W][B]~phi and [B][W]~phi describe the same class
        for _ in range(20):
            phi = random_i_free(rng, depth=1)
            a = companion_formula(WBox(BBox(Not(phi))))
            b = companion_formula(BBox(WBox(Not(phi))))
            assert find_model(Not(Iff(a, b)), 3) is None

    def test_random_equivalence(self, rng):
        for _ in range(100):
            phi = random_i_free(rng)
            assert equivalent_everywhere(phi, companion_formula(phi))

    def test_negated_iff_equivalence(self, rng):
        # ~(a <-> b) is read as a <-> ~b, the CNF (~a | ~b) & (b | a).
        for _ in range(200):
            phi = Not(Iff(random_i_free(rng, depth=2), random_i_free(rng, depth=2)))
            assert equivalent_everywhere(phi, companion_formula(phi)), phi

    def test_wide_mixed_chain(self):
        phi, atoms = mixed_chain(3000)
        with time_budget(5):
            cnf = companion(phi)
        assert cnf.conjuncts == tuple(
            (a, Bot()) if a.prop.side is Side.LEFT else (Bot(), a) for a in atoms)

    def test_output_unchanged(self):
        assert companion_digest() == COMPANION_DIGEST

    def test_box_drops_repeated_conjuncts(self):
        # `(l:a | l:b) | r:c` keeps its white block whole, `l:a | (l:b | r:c)`
        # reads its operands; both sides box to `[W](l:a | l:b)`.
        cnf = companion(parse("[W](((l:a | l:b) | r:c) & (l:a | (l:b | r:c)))"))
        assert cnf.conjuncts == ((parse("[W](l:a | l:b)"), parse("r:c")),)

    def test_negation_chain_is_one_step(self, monkeypatch):
        # The pass reads a `~` chain off in one step: no step is taken at a
        # `~`, so 100,000 of them cost the steps that one does.
        walk, steps = normal._walk, []
        monkeypatch.setattr(normal, "_walk", lambda *args: steps.append(args[0]) or walk(*args))
        counts = []
        for n in (1, 100_000):
            steps.clear()
            companion(negations(parse("[W]l:p | [B]r:q"), n))
            assert not any(isinstance(f, Not) for f in steps)
            counts.append(len(steps))
        assert counts == [3, 3]

    def test_negation_chain_read_by_parity(self, rng):
        for _ in range(10):
            phi = random_i_free(rng)
            by_parity = companion(phi), companion(Not(phi))
            for n in (*range(8), 100_000):
                assert companion(negations(phi, n)) == by_parity[n % 2], (n, phi)

    def test_equal_copies_of_a_chain_are_read_once_each(self):
        # The parser builds two equal, distinct copies of the chain. Read as
        # one already expanded, the second copy's spine was re-read one
        # operand a step, each step comparing equal copies node by node:
        # 12 s at 2,000 operands, 63 s at 4,000.
        chain = " & ".join(f"(l:a{i} | r:b{i})" for i in range(4000))
        phi = parse(f"({chain}) & ({chain})")
        start = time.process_time()
        with time_budget(30):
            assert companion(phi) == companion(parse(chain))
        assert time.process_time() - start < 3

    def test_shared_chain_is_not_unfolded(self):
        # 10^4 levels of phi & phi over one shared node: 2^10000 leaves as a
        # tree, and each level's spine is expanded once, not once per level
        # above it.
        phi = parse("l:p & r:q")
        for _ in range(10_000):
            phi = And(phi, phi)
        with time_budget(5):
            assert companion(phi) == companion(parse("l:p & r:q"))
            assert len(companion(Not(phi)).conjuncts) == 1

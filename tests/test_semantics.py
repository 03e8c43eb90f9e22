"""Truth definition, one-sided evaluation, and the first-order translation."""

import gc
import json
import random
import sys
import time

import pytest

from lhs import (
    And,
    BBox,
    BDia,
    EqConst,
    Iff,
    Implies,
    LhsError,
    Not,
    Or,
    PropName,
    ResourceGuard,
    WBox,
    WDia,
    check,
    check_all,
    fo_eval,
    fo_render,
    fo_translate,
    k_sat,
    left_atom,
    lhs_minus_sat,
    parse,
    right_atom,
    subformulas,
    substitute,
)
from lhs.cli import main
from lhs import semantics
from lhs.semantics import FOFormula
from lhs.syntax import Side, conjoin, disjoin, drive, render

from conftest import (
    all_pairs,
    make_model,
    one_sided_eval,
    random_formula,
    random_model,
    random_one_sided,
    reference_fo_render,
    run_python,
    time_budget,
)

_PEAK_SCRIPT = """
import resource, sys
from lhs import parse
from lhs.bruteforce import find_model
found = find_model(parse(sys.argv[1]), 4)
print(found is None, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestCheck:
    def test_equality_constant_is_diagonal(self, rng):
        m = random_model(rng)
        for s, t in all_pairs(m):
            assert check(m, s, t, EqConst()) == (s == t)

    def test_box_false_iff_dead_end(self):
        m = make_model(["a", "b"], [("a", "b")])
        assert not check(m, "a", "a", parse("[W] false"))
        assert check(m, "b", "a", parse("[W] false"))
        assert check(m, "a", "b", parse("[B] false"))

    def test_atoms_read_their_coordinate(self):
        m = make_model(["a", "b"], [], {"l:p": ["a"], "r:p": ["b"]})
        assert check(m, "a", "b", parse("l:p & r:p"))
        assert not check(m, "b", "a", parse("l:p | r:p"))

    def test_white_moves_first_coordinate(self):
        m = make_model(["a", "b"], [("a", "b")], {"l:p": ["b"], "r:p": ["b"]})
        assert check(m, "a", "a", parse("<W> l:p"))
        assert not check(m, "a", "a", parse("<B> l:p"))
        assert check(m, "a", "a", parse("<B> r:p"))

    def test_unknown_state(self):
        m = make_model(["a"], [])
        with pytest.raises(Exception):
            check(m, "a", "zz", EqConst())

    def test_diamond_box_duality(self, rng):
        for _ in range(100):
            m = random_model(rng)
            phi = random_formula(rng, depth=2)
            s, t = rng.choice(all_pairs(m))
            assert check(m, s, t, WDia(phi)) == (not check(m, s, t, WBox(Not(phi))))
            assert check(m, s, t, BDia(phi)) == (not check(m, s, t, BBox(Not(phi))))


def chain_formula(rng, depth):
    """A random formula whose `&`, `|` and `->` nodes come as chains of 2 to 7
    operands. `&` and `|` chains take one of three shapes: left-deep as
    `parse` reads them, balanced as `conjoin`/`disjoin` build them, or
    right-nested; some hold a subchain shared as a DAG, some a negated
    operand, and some are negated as a whole. `->` chains are right-nested as
    `parse` reads them, left-nested, or a conjunction implying a disjunction,
    which is one disjunction. `~` comes in chains of odd and even length."""
    if depth == 0 or rng.random() < 0.15:
        return random_formula(rng, depth=0)
    kind = rng.choice(["&", "|", "&", "|", "->", "~", "modal", "binary"])
    if kind == "~":
        phi = chain_formula(rng, depth - 1)
        for _ in range(rng.randint(1, 6)):
            phi = Not(phi)
        return phi
    if kind == "modal":
        return rng.choice([WBox, WDia, BBox, BDia])(chain_formula(rng, depth - 1))
    if kind == "binary":
        return rng.choice([And, Or, Implies, Iff])(chain_formula(rng, depth - 1),
                                                   chain_formula(rng, depth - 1))
    parts = [chain_formula(rng, depth - 1) for _ in range(rng.randint(2, 7))]
    if kind == "->":
        shape = rng.choice(["parse", "left", "and-or"])
        if shape == "parse":
            return parse(" -> ".join(f"({render(part)})" for part in parts))
        if shape == "and-or":
            mid = len(parts) // 2
            return Implies(conjoin(parts[:mid]), disjoin(parts[mid:]))
        phi = parts[0]
        for part in parts[1:]:
            phi = Implies(phi, part)
        return phi
    node = And if kind == "&" else Or
    parts = [Not(part) if rng.random() < 0.2 else part for part in parts]
    shape = rng.choice(["parse", "balanced", "right", "shared"])
    if shape == "parse":
        phi = parse(f" {kind} ".join(f"({render(part)})" for part in parts))
    elif shape == "balanced":
        phi = (conjoin if node is And else disjoin)(parts)
    else:
        phi = parts[-1]
        for part in reversed(parts[:-1]):
            phi = node(part, phi)
        if shape == "shared":
            # the same subchain object on both sides, and as a left operand
            phi = node(node(phi, parts[0]), node(phi, phi))
    return Not(phi) if rng.random() < 0.25 else phi


class TestCheckChains:
    """`check` reads a `~` chain, and a chain of one junction (`&`, `|` and
    `->`, read at their polarity), in one step."""

    def test_agrees_with_check_all_and_the_translation(self):
        rng = random.Random(8101)
        kinds, shapes = set(), set()
        for i in range(150):
            m = random_model(rng)
            phi = chain_formula(rng, rng.randint(2, 4))
            kinds.update(type(f) for f in subformulas(phi))
            shapes.update((type(f), type(f.child if isinstance(f, Not) else f.right))
                          for f in subformulas(phi) if isinstance(f, (Not, Implies)))
            holds = {(s, t) for s, t in all_pairs(m) if check(m, s, t, phi)}
            assert holds == check_all(m, phi), (i, render(phi))
            alpha = fo_translate(phi)
            for s, t in all_pairs(m):
                assert fo_eval(m, alpha, {"x": s, "y": t}) == ((s, t) in holds), (i, s, t)
        assert {And, Or, Not, Implies, Iff, WBox, BDia} <= kinds
        # negated junctions, `->` chains, and `->` over a disjunction
        assert {(Not, And), (Not, Or), (Implies, Implies), (Implies, Or)} <= shapes

    def test_shapes_and_parities(self):
        # l:p holds at a and r:q at b. Every operand but one is p (in an &
        # chain) or ~p (in an | chain); the one is r:q, at each position.
        m = make_model(["a", "b"], [("a", "b")], {"l:p": ["a"], "r:q": ["b"]})
        p, q = left_atom("p"), right_atom("q")
        for width in (1, 2, 3, 8, 33):
            for where in range(width):
                for node, other in ((And, p), (Or, Not(p))):
                    parts = [other] * where + [q] + [other] * (width - where - 1)
                    right = parts[-1]
                    for part in reversed(parts[:-1]):
                        right = node(part, right)
                    joined = (conjoin if node is And else disjoin)(parts)
                    read = parse(f" {'&' if node is And else '|'} ".join(map(render, parts)))
                    for s, t in all_pairs(m):
                        rest = [check(m, s, t, other)] * (width - 1)
                        want = all(rest) and t == "b" if node is And else any(rest) or t == "b"
                        for phi in (right, joined, read):
                            assert check(m, s, t, phi) == want, (render(phi), s, t)
        for length in range(1, 8):
            phi = parse("~" * length + "l:p")
            assert check(m, "a", "a", phi) == (length % 2 == 0)
            assert check(m, "b", "a", phi) == (length % 2 == 1)

    def test_one_walk_for_a_chain_and_one_for_each_operand(self, monkeypatch):
        # Inner nodes of a chain get no walk, and neither do leaves and
        # operands already memoized: `_read` answers them in place. A walk
        # per leaf read gave 2, 2, 1001, 3, 3 and 1000 walks here, and 5
        # under the box.
        walked = []
        original = semantics._sat

        def counted(f, *rest):
            walked.append(f)
            return original(f, *rest)

        monkeypatch.setattr(semantics, "_sat", counted)
        m = make_model(["a"], [], {"l:p": ["a"]})
        qs = [f"l:q{i}" for i in range(999)]
        for phi, walks in ((parse("~" * 1000 + "l:p"), 1),
                           (parse(" & ".join(["l:p"] * 1000)), 1),
                           (parse(" | ".join(qs + ["l:p"])), 1),
                           (parse(" & ".join(["l:p"] + qs)), 1),
                           (parse(" -> ".join(["l:p"] * 999 + ["l:q0"])), 1),
                           (disjoin([parse(q) for q in qs]), 1),
                           # The chain, and its operand `l:p | l:q0` once: met
                           # again under the `~`, it is a memo hit.
                           (parse("(l:p | l:q0) & ~(l:p | l:q0)"), 2),
                           # A leaf root is read in place.
                           (parse("l:p"), 0), (parse("I"), 0), (parse("false"), 0)):
            walked.clear()
            check(m, "a", "a", phi)
            assert len(walked) == walks
        # Under a box, the chain at each successor pair is expanded there: the
        # box, then per pair the chain, whose operand is read in place.
        m = make_model(["a", "b", "c"], [("a", "b"), ("a", "c")], {"l:p": ["b", "c"]})
        walked.clear()
        assert check(m, "a", "a", parse("[W](" + " & ".join(["l:p"] * 1000) + ")"))
        assert len(walked) == 3

    def test_shared_chain_is_not_unfolded(self):
        # 10^4 levels of phi & phi over one shared node: 2^10000 operands as
        # a tree, read once each as a DAG.
        m = make_model(["a", "b"], [], {"l:p": ["a"]})
        for node, leaf, want in ((And, left_atom("p"), True), (Or, Not(left_atom("p")), False)):
            phi = leaf
            for _ in range(10_000):
                phi = node(phi, phi)
            with time_budget(5):
                assert check(m, "a", "b", phi) is want
                assert check(m, "b", "a", phi) is not want

    def test_shared_inner_chain_is_expanded_once_per_pair(self):
        # z, a 3,000-operand & chain, under 300 & roots: z's spine is expanded
        # under the first root only, then read as an operand. Each operand
        # read is one memo lookup; expanding z under every root takes 900,000.
        class Lookups(dict):
            def get(self, key, default=None):
                reads[0] += 1
                return super().get(key, default)

        # z holds where t is w, and the last root's l:q299 where s is v: at
        # (v, v) a walk that skipped z under the later roots would answer true.
        z = parse(" & ".join(["l:p"] * 2999 + ["r:s"]))
        phi = disjoin([And(z, left_atom(f"q{i}")) for i in range(300)])
        m = make_model(["w", "v"], [("w", "v")],
                       {"l:p": ["w", "v"], "r:s": ["w"], "l:q299": ["v"]})
        for s, t in all_pairs(m):
            reads = [0]
            want = (s, t) == ("v", "w")
            assert drive(semantics._sat(phi, s, t, m, Lookups())) is want
            assert reads[0] < 15_000
            with time_budget(1):
                assert check(m, s, t, phi) is want

    def test_wide_and_deep_chains_at_a_low_recursion_limit(self):
        # l:p and r:q hold at w only; the last operand of each chain decides
        # it at (w, v).
        proc = run_python(["-c", _CHAIN_SCRIPT])
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert json.loads(proc.stdout) == [[True, False, False], [True, True, False],
                                           [True, True, False], [False, False, True]]


_CHAIN_SCRIPT = """
import json, sys
from lhs import check, load_model, parse
n = 200_000
model = load_model('{"states": ["w", "v"], "valuation": {"l:p": ["w"], "r:q": ["w"]}}')
texts = [" & ".join(["l:p"] * (n - 1) + ["r:q"]), " | ".join(["r:q"] * (n - 1) + ["l:p"]),
         "~" * n + "l:p", "~" * (n - 1) + "l:p"]
formulas = [parse(text) for text in texts]
# Far below the nesting of every formula: a recursive walk would raise RecursionError.
sys.setrecursionlimit(200)
json.dump([[check(model, s, t, phi) for s, t in (("w", "w"), ("w", "v"), ("v", "v"))]
           for phi in formulas], sys.stdout)
"""


class TestCheckAll:
    def test_equality_constant(self, rng):
        m = random_model(rng)
        assert check_all(m, EqConst()) == {(s, s) for s in m.states}

    def test_top(self, rng):
        m = random_model(rng)
        assert check_all(m, parse("true")) == set(all_pairs(m))

    def test_agrees_with_pointwise(self, rng):
        cases = [(random_model(rng), random_formula(rng, depth=2)) for _ in range(30)]
        while len(cases) < 70:
            phi = random_formula(rng, depth=rng.randint(4, 5))
            if EqConst() in subformulas(phi):
                cases.append((random_model(rng, max_states=8), phi))
        for m, phi in cases:
            got = check_all(m, phi)
            want = {(s, t) for s, t in all_pairs(m) if check(m, s, t, phi)}
            assert got == want

    def test_deep_chain(self):
        # ~[W]~[W]... 3000 nodes deep; the expected truth set is computed
        # alongside, one layer at a time.
        m = make_model(["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c"), ("c", "c")],
                       {"l:p": ["a", "c"]})
        phi, holds = left_atom("p"), {"a", "c"}
        for _ in range(1500):
            phi = Not(WBox(phi))
            holds = {s for s in m.states
                     if not all(w in holds for w in m.successor_map[s])}
        assert check_all(m, phi) == {(s, t) for s in holds for t in m.states}

    def test_wide_conjunction(self):
        # A left-deep 3000-way &, as the parser builds it.
        m = make_model(["a", "b", "c"], [("a", "b")], {"l:p": ["a", "b"], "r:q": ["b", "c"]})
        phi = left_atom("p")
        for i in range(2999):
            phi = And(phi, right_atom("q") if i % 2 == 0 else left_atom("p"))
        assert check_all(m, phi) == {(s, t) for s in "ab" for t in "bc"}

    def test_model_past_the_table_limit_refused(self):
        # 4,097^2 pairs is past the 2^24 rows of one table: refused before
        # anything is allocated.
        m = make_model([f"w{i}" for i in range(4097)], [("w0", "w1")], {"l:p": ["w0"]})
        with pytest.raises(ResourceGuard, match="4097-state model needs a table of 16785409 pairs"):
            check_all(m, parse("[W]l:p"))


class TestTruthTable:
    @pytest.mark.skipif(sys.platform != "linux", reason="reads ru_maxrss in KiB")
    def test_frees_arrays_early(self):
        # Nine conjuncts, unsatisfiable through `I & ~I`, searched at bound 4.
        # Holding every subformula's array to the end peaked at 435 MiB.
        phi = ("[W](l:a -> <W> l:b) & [B](r:a -> <B> r:a) & <W>(l:a & ~l:b) & "
               "<B>(r:a | ~I) & [W][B](l:b -> r:a) & <W><B>(l:b & r:a) & "
               "([W]~l:a | [B] r:a) & ~(l:a <-> <W> l:a) & (I & ~I)")
        proc = run_python(["-c", _PEAK_SCRIPT, phi])
        assert proc.returncode == 0, proc.stderr
        unsat, peak_kib = proc.stdout.split()
        assert unsat == "True"
        assert int(peak_kib) < 300 * 1024


class TestOneSidedEval:
    def test_rejects_mixed(self):
        with pytest.raises(ValueError, match="white-only or black-only"):
            one_sided_eval(make_model(["a"], []), "a", parse("l:p & r:q"))

    def test_dead_end_box(self):
        m = make_model(["a"], [])
        assert one_sided_eval(m, "a", parse("[W] false"))
        assert one_sided_eval(m, "a", parse("[B] false"))

    def test_white_formula_ignores_second_coordinate(self, rng):
        for _ in range(100):
            m = random_model(rng)
            psi = random_one_sided(rng, Side.LEFT, depth=3)
            for s in m.states:
                expect = one_sided_eval(m, s, psi)
                assert all(check(m, s, t, psi) == expect for t in m.states)

    def test_black_formula_ignores_first_coordinate(self, rng):
        for _ in range(100):
            m = random_model(rng)
            gamma = random_one_sided(rng, Side.RIGHT, depth=3)
            for t in m.states:
                expect = one_sided_eval(m, t, gamma)
                assert all(check(m, s, t, gamma) == expect for s in m.states)


class TestBoxOverMixedDisjunction:
    def test_white_box_splits(self, rng):
        # [W](psi | gamma) and [W]psi | gamma agree everywhere when psi is
        # white-only and gamma is black-only
        for _ in range(100):
            m = random_model(rng)
            psi = random_one_sided(rng, Side.LEFT, depth=2)
            gamma = random_one_sided(rng, Side.RIGHT, depth=2)
            for s, t in all_pairs(m):
                assert (check(m, s, t, WBox(Or(psi, gamma)))
                        == check(m, s, t, Or(WBox(psi), gamma)))

    def test_black_box_splits(self, rng):
        for _ in range(100):
            m = random_model(rng)
            psi = random_one_sided(rng, Side.LEFT, depth=2)
            gamma = random_one_sided(rng, Side.RIGHT, depth=2)
            for s, t in all_pairs(m):
                assert (check(m, s, t, BBox(Or(psi, gamma)))
                        == check(m, s, t, Or(psi, BBox(gamma))))


class TestTranslation:
    def test_equality_constant(self):
        assert fo_render(fo_translate(EqConst())) == "x = y"

    def test_white_box_guarded_forall(self):
        out = fo_render(fo_translate(parse("[W] l:p")))
        assert out.startswith("forall z0.")
        assert "R(x,z0)" in out.replace(" ", "")
        # Bound names skip the free ones.
        out = fo_render(fo_translate(parse("[W] l:p"), x="z0"))
        assert out == "forall z1. ((R(z0,z1) -> Pl_p(z1)))"

    def test_one_name_for_both_free_variables(self):
        # `x = x` would make I valid, though it holds only on the diagonal.
        with pytest.raises(ValueError, match="x and y must differ"):
            fo_translate(EqConst(), x="v", y="v")

    def test_equality_reflexive(self):
        m = make_model(["a"], [])
        alpha = fo_translate(EqConst())
        assert fo_eval(m, alpha, {"x": "a", "y": "a"})

    def test_empty_successor_set_vacuous(self):
        m = make_model(["a"], [])
        alpha = fo_translate(parse("[W] false"))
        assert fo_eval(m, alpha, {"x": "a", "y": "a"})

    def test_unbound_variable(self):
        m = make_model(["a"], [])
        with pytest.raises(Exception):
            fo_eval(m, fo_translate(EqConst()), {"x": "a"})

    def test_translation_agrees_with_check(self, rng):
        for _ in range(200):
            m = random_model(rng, max_states=5)
            phi = random_formula(rng, depth=3)
            s, t = rng.choice(all_pairs(m))
            assert (check(m, s, t, phi)
                    == fo_eval(m, fo_translate(phi), {"x": s, "y": t})
                    == fo_eval(m, fo_translate(phi, x="z0", y="z1"), {"z0": s, "z1": t}))

    def test_quantifier_stops_at_deciding_state(self):
        # On a complete frame where l:p fails at one state, [W]^d l:p is
        # refuted along the first path that reaches it: the evaluation takes
        # linear time, not |S|^d.
        states = ["a", "b", "c"]
        m = make_model(states, [(s, t) for s in states for t in states], {"l:p": ["a", "b"]})
        alpha = fo_translate(parse("[W]" * 12 + "l:p"))
        start = time.process_time()
        assert fo_eval(m, alpha, {"x": "a", "y": "a"}) is False
        assert time.process_time() - start < 0.5

    def test_quantifier_restores_its_variable(self):
        # `exists x. x = x` and `forall x. x = y` (y is "b") are decided at the
        # first state, "a"; after them `x` is again "c", where l:p holds, and
        # an unbound `z` is unbound again.
        m = make_model(["a", "b", "c"], [], {"l:p": ["c"]})
        p = FOFormula("P", PropName(Side.LEFT, "p"), "x")
        for op, other in (("exists", "x"), ("forall", "y")):
            decided = FOFormula(op, "x", FOFormula("=", "x", other))
            assert fo_eval(m, FOFormula("|", FOFormula("&", decided, p), p), {"x": "c", "y": "b"})
        unbound = FOFormula("&", FOFormula("exists", "z", FOFormula("=", "z", "z")),
                            FOFormula("=", "z", "z"))
        with pytest.raises(LhsError, match="unbound variable 'z'"):
            fo_eval(m, unbound, {"x": "a", "y": "a"})

    def test_unknown_connective(self):
        m = make_model(["a"], [])
        alpha = FOFormula("xor", FOFormula("=", "x", "x"), FOFormula("=", "x", "y"))
        for walk in (fo_render, lambda f: fo_eval(m, f, {"x": "a", "y": "a"})):
            with pytest.raises(TypeError, match="not an FO formula"):
                walk(alpha)
            with pytest.raises(TypeError, match="not an FO formula"):
                walk(EqConst())

    def test_deep_translation_nodes(self):
        # Hashing, comparing and printing a 3000-deep translation must not
        # recurse.
        a, b = (fo_translate(parse("~" * 3000 + "l:p")) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != fo_translate(parse("~" * 2998 + "l:p"))
        assert repr(a) == fo_render(a) == "~(" * 2999 + "~Pl_p(x)" + ")" * 2999

    def test_same_text_as_reference(self, rng):
        # Byte for byte the text of `reference_fo_render`, which built each
        # node's string from its children's; a free variable that starts
        # with "(" decides whether a `~` parenthesises an equality.
        for _ in range(1000):
            phi = random_formula(rng, depth=rng.choice([2, 4, 6]))
            for x, y in (("x", "y"), ("(v", "w")):
                alpha = fo_translate(phi, x=x, y=y)
                assert fo_render(alpha) == reference_fo_render(alpha), phi

    def test_nested_iff_answered(self, capsys):
        # Each <-> is one first-order <->, which reads its operands once, so
        # the chain translates to a formula of linear size.
        text = "[W]l:p0"
        for i in range(1, 31):
            text = f"({text} <-> [W]l:p{i})"
        with time_budget(1):
            assert fo_render(fo_translate(parse(text))).count("<->") == 30
            assert main(["translate", "-f", text]) == 0
        assert capsys.readouterr().out.count("<->") == 30

    def test_shared_subformulas_refused(self):
        # 31 objects, but a tree of 2^31 - 1 nodes, which the translation
        # follows.
        phi = left_atom("p")
        for _ in range(30):
            phi = And(phi, phi)
        with time_budget(1):
            with pytest.raises(ResourceGuard, match="over the ceiling of 1000000"):
                fo_translate(phi)

    def test_ceiling_counts_the_translation(self, rng, monkeypatch):
        # The count made before the walk is the size of the tree it builds.
        for _ in range(50):
            phi = random_formula(rng, depth=4)
            size, stack = 0, [fo_translate(phi)]
            while stack:
                alpha = stack.pop()
                size += 1
                stack += [c for c in (alpha.left, alpha.right) if isinstance(c, FOFormula)]
            with monkeypatch.context() as patch:
                patch.setattr("lhs.semantics.FO_NODE_CEILING", size)
                fo_translate(phi)
                patch.setattr("lhs.semantics.FO_NODE_CEILING", size - 1)
                with pytest.raises(ResourceGuard, match=f"would build {size} nodes"):
                    fo_translate(phi)


_MODEL = make_model(["a", "b"], [("a", "b"), ("b", "b")], {"l:p": ["b"], "r:q": ["a"]})
_PHI = parse("[W](l:p -> <B> r:q) & ~(l:p <-> <W> I) | [B][W]l:p")
_WHITE = parse("[W](l:p -> <W> l:q) & ~<W>l:p")
_ALPHA = fo_translate(_PHI)
_CALLS = {
    "check": lambda: check(_MODEL, "a", "b", _PHI),
    "one_sided_eval": lambda: one_sided_eval(_MODEL, "a", _WHITE),
    "fo_translate": lambda: fo_translate(_PHI),
    "fo_eval": lambda: fo_eval(_MODEL, _ALPHA, {"x": "a", "y": "b"}),
    "fo_render": lambda: fo_render(_ALPHA),
    "substitute": lambda: substitute(_WHITE, {PropName(Side.LEFT, "p"): _WHITE}),
    "k_sat": lambda: k_sat(_WHITE),
    "lhs_minus_sat": lambda: lhs_minus_sat(parse("<W>(l:p & r:q) & [B](~r:q | <W>l:p)")),
}


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_leaves_no_cyclic_garbage(name):
    # Reference cycles are freed only by the cyclic collector, so what a
    # call leaves in them stays allocated until its next run.
    gc.collect()
    gc.disable()
    try:
        _CALLS[name]()
        assert gc.collect() == 0
    finally:
        gc.enable()

"""Parser, printer, classification and substitution tests."""

import random
import re
import time

import pytest

from lhs import (
    And,
    Atom,
    BBox,
    BDia,
    Bot,
    EqConst,
    Iff,
    Implies,
    Not,
    Or,
    SideViolation,
    Top,
    WBox,
    WDia,
    companion,
    fo_render,
    fo_translate,
    left_atom,
    parse,
    prop_names,
    render,
    right_atom,
    subformulas,
    substitute,
)
from lhs.errors import FormulaSyntaxError
from lhs.syntax import (BLACK_ONLY, CLEAN, I_FREE, ONE_SIDED, WHITE_ONLY, PropName, Side,
                        conjoin, disjoin, junction, spine)

from conftest import (
    random_formula,
    random_i_free,
    random_one_sided,
    reference_classify,
    reference_parse,
    reference_render,
    time_budget,
)


def lp(name="p"):
    return left_atom(name)


def rp(name="p"):
    return right_atom(name)


class TestParse:
    def test_equality_constant(self):
        assert parse("I") == EqConst()

    def test_modal_nesting(self):
        assert parse("[W](l:p -> <B> r:q)") == WBox(Implies(lp(), BDia(rp("q"))))

    def test_black_distribution_axiom_ast(self):
        got = parse("[B](l:p | r:p) <-> (l:p | [B] r:p)")
        want = Iff(BBox(Or(lp(), rp())), Or(lp(), BBox(rp())))
        assert got == want

    def test_constants(self):
        assert parse("true") == Top()
        assert parse("false") == Bot()

    def test_precedence_and_over_or(self):
        assert parse("l:p & l:q | r:p") == Or(And(lp(), lp("q")), rp())

    def test_implies_right_associative(self):
        assert parse("l:p -> l:q -> r:p") == Implies(lp(), Implies(lp("q"), rp()))

    def test_iff_right_associative(self):
        assert parse("l:p <-> l:q <-> r:p") == Iff(lp(), Iff(lp("q"), rp()))

    @pytest.mark.parametrize("text, tree", [
        ("l:a & l:b & l:c", "((l:a & l:b) & l:c)"),
        ("l:a & l:b | l:c", "((l:a & l:b) | l:c)"),
        ("l:a & l:b -> l:c", "((l:a & l:b) -> l:c)"),
        ("l:a & l:b <-> l:c", "((l:a & l:b) <-> l:c)"),
        ("l:a | l:b & l:c", "(l:a | (l:b & l:c))"),
        ("l:a | l:b | l:c", "((l:a | l:b) | l:c)"),
        ("l:a | l:b -> l:c", "((l:a | l:b) -> l:c)"),
        ("l:a | l:b <-> l:c", "((l:a | l:b) <-> l:c)"),
        ("l:a -> l:b & l:c", "(l:a -> (l:b & l:c))"),
        ("l:a -> l:b | l:c", "(l:a -> (l:b | l:c))"),
        ("l:a -> l:b -> l:c", "(l:a -> (l:b -> l:c))"),
        ("l:a -> l:b <-> l:c", "((l:a -> l:b) <-> l:c)"),
        ("l:a <-> l:b & l:c", "(l:a <-> (l:b & l:c))"),
        ("l:a <-> l:b | l:c", "(l:a <-> (l:b | l:c))"),
        ("l:a <-> l:b -> l:c", "(l:a <-> (l:b -> l:c))"),
        ("l:a <-> l:b <-> l:c", "(l:a <-> (l:b <-> l:c))"),
    ])
    def test_binary_precedence_and_associativity(self, text, tree):
        # `&` binds tighter than `|`, `|` than `->`, `->` than `<->`; `&` and
        # `|` associate to the left, `->` and `<->` to the right.
        phi = parse(text)
        assert render(phi, full_parens=True) == tree
        assert render(phi) == text

    def test_unary_binds_tightest(self):
        assert parse("~l:p & <W>l:q") == And(Not(lp()), WDia(lp("q")))

    def test_syntax_error_reports_position(self):
        with pytest.raises(Exception) as exc:
            parse("l:p &")
        assert "5" in str(exc.value) or "position" in str(exc.value).lower()

    def test_fresh_name_is_an_ordinary_atom(self):
        # No name is reserved: `_fresh0` reads and prints like any other.
        assert parse("l:_fresh0") == lp("_fresh0")
        assert render(parse("l:_fresh0 & ~r:_fresh12")) == "l:_fresh0 & ~r:_fresh12"


_VOCAB = ("l:p", "r:q", "l:_fresh0", "r:_fresh12", "I", "true", "false", "foo", "W", "~",
          "[W]", "<W>", "[B]", "<B>", "&", "|", "->", "<->", "(", ")", "\t")
# Fragments of tokens and characters that start none.
_STRAY = ("$", "l:", "r:1", "<", "-", "[", ":", "\u00e9")
_TOKEN = re.compile(r"[lr]:\w+|<->|->|\[[WB]\]|<[WB]>|\w+|\S")


def _outcome(parser, text):
    try:
        return parser(text)
    except FormulaSyntaxError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def _token(rng):
    return rng.choice(_STRAY if rng.random() < 0.03 else _VOCAB)


def _texts(rng, count):
    """Random token strings, rendered random formulas (some naming
    `_fresh0`) and rendered ones with a token inserted or deleted, in turn."""
    for i in range(count):
        sep = rng.choice(("", " ", "  "))
        if i % 3 == 0:
            yield sep.join(_token(rng) for _ in range(rng.randint(0, 10)))
            continue
        phi = random_formula(rng, rng.randint(0, 4), left_vars=("p", "_fresh0"))
        text = render(phi, full_parens=rng.random() < 0.3)
        if i % 3 == 1:
            yield text
            continue
        tokens = _TOKEN.findall(text)
        at = rng.randrange(len(tokens) + 1)
        if tokens and rng.random() < 0.5:
            del tokens[min(at, len(tokens) - 1)]
        else:
            tokens.insert(at, _token(rng))
        yield sep.join(tokens)


class TestAgainstReference:
    def test_same_trees_and_errors(self):
        # The generator-per-rule parser that preceded the operator-precedence
        # loop is the reference: equal trees, or equal error type, message
        # and position: 40,000 checks.
        for text in _texts(random.Random(15), 40_000):
            assert _outcome(parse, text) == _outcome(reference_parse, text), text

    @pytest.mark.parametrize("text, message, position", [
        ("l:p & \u00e9", "unexpected character '\u00e9'", 6),  # not an ASCII letter
        (") $", "unexpected character '$'", 2),  # before the earlier `)`
        ("l:1", "unexpected character ':'", 1),
        ("l:p & <", "unexpected character '<'", 6),
        ("   ", "unexpected 'end of input'", 3),
        ("(l:p", "expected ')', found 'end of input'", 4),
    ])
    def test_token_errors(self, text, message, position):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse(text)
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position

    def test_unicode_whitespace_separates_tokens(self):
        assert parse("l:p\u00a0& l:q") == And(lp(), lp("q"))

    @pytest.mark.parametrize("make", [lambda k: " & ".join(["l:p"] * k),
                                      lambda k: "~" * k + "l:p",
                                      lambda k: "(" * k + "l:p" + ")" * k,
                                      lambda k: "[W]" * k + "l:p"],
                             ids=["wide_and", "deep_not", "nested_parens", "deep_box"])
    def test_linear_time(self, make):
        # Four times the input costs about four times the CPU time, not
        # sixteen: 10^5 operators parse within a CPU-second bound.
        def cpu(k):
            text = make(k)
            start = time.process_time()
            parse(text)
            return time.process_time() - start

        with time_budget(20):
            small, large = min(cpu(25_000) for _ in range(3)), cpu(100_000)
        assert large < 10 * small + 0.05
        assert large < 5.0

    def test_each_atom_built_once(self):
        phi = parse("l:p & l:p")
        assert phi == And(lp(), lp()) and phi.left is phi.right
        phi = parse("(l:q -> l:p) | ~l:p")
        assert phi.left.right is phi.right.child


class TestRender:
    def test_equality_constant(self):
        assert render(EqConst()) == "I"

    def test_box_false(self):
        assert render(WBox(Bot())) == "[W] false"

    def test_round_trip_random_asts(self):
        rng = random.Random(7)
        for _ in range(1000):
            phi = random_formula(rng, depth=4)
            assert parse(render(phi)) == phi
            assert parse(render(phi, full_parens=True)) == phi

    def test_same_text_as_reference(self):
        # Byte for byte the text of `reference_render`, which built each
        # subformula's string from its children's, on random formulas, long
        # chains and formulas that share subtrees.
        rng = random.Random(11)
        shared = parse("l:p -> ~r:q")
        corpus = [random_formula(rng, depth=rng.choice([2, 4, 6])) for _ in range(2000)]
        corpus += [parse(" & ".join(["(l:p | r:q)"] * 300)), parse("[W]" * 300 + "I"),
                   parse(" <-> ".join(["(l:p -> r:q)"] * 50)), conjoin([shared] * 64),
                   Iff(Iff(shared, shared), Implies(Implies(shared, shared), Not(shared)))]
        for phi in corpus:
            for full_parens in (False, True):
                assert render(phi, full_parens) == reference_render(phi, full_parens), phi

    @pytest.mark.parametrize("build, show", [
        (lambda k: parse(" & ".join(["(l:p | r:q)"] * k)), render),
        (lambda k: parse("[W]" * k + "l:p"), render),
        (lambda k: fo_translate(parse("[W]" * k + "l:p")), fo_render),
    ], ids=["wide_and", "deep_box", "fo_deep_box"])
    def test_linear_time(self, build, show):
        # Four times the input costs about four times the CPU time, not
        # sixteen, as it did when each node's text copied its children's.
        def cpu(k):
            built = build(k)
            start = time.process_time()
            show(built)
            return time.process_time() - start

        with time_budget(20):
            small, large = min(cpu(10_000) for _ in range(3)), cpu(40_000)
        assert large < 10 * small + 0.05


class TestSubformulas:
    def test_atom(self):
        assert subformulas(lp()) == [lp()]

    def test_box_atom(self):
        assert subformulas(WBox(lp())) == [lp(), WBox(lp())]

    def test_deduplicated_postorder_input_last(self):
        phi = And(lp(), lp())
        subs = subformulas(phi)
        assert subs == [lp(), phi]

    def test_deep_equal_copies(self):
        # Two separately built 3000-deep chains: hashing, comparing and
        # walking them must not recurse.
        def chain():
            phi = lp()
            for _ in range(1500):
                phi = WBox(Not(phi))
            return phi

        a, b = chain(), chain()
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != WBox(Not(lp()))
        subs = subformulas(And(a, b))
        assert len(subs) == 3002 and subs[0] == lp() and subs[-2] == a

    def test_modal_depth_and_prop_names(self):
        phi = parse("[W](l:p -> <B> r:q)")
        assert phi == WBox(Implies(lp(), BDia(right_atom("q"))))
        assert prop_names(phi) == {PropName(Side.LEFT, "p"), PropName(Side.RIGHT, "q")}


class TestClassify:
    def test_white_only_clean(self):
        assert parse("[W]l:p & [W][W]l:q").facts == WHITE_ONLY | I_FREE | CLEAN

    def test_mixed_atoms_under_modality_not_clean(self):
        assert parse("[W](l:p | r:q)").facts == I_FREE

    def test_equality_constant_not_clean(self):
        assert not EqConst().facts & (I_FREE | CLEAN)

    def test_clean_boolean_combination(self):
        assert parse("[W]l:p | [B]r:q").facts & CLEAN

    def test_deep_negation_chain(self):
        clean, mixed = parse("[W]l:p | [B][B]r:q"), parse("[W](l:p | r:q)")
        for _ in range(3000):
            clean, mixed = Not(clean), Not(mixed)
        assert clean.facts == I_FREE | CLEAN
        assert not mixed.facts & CLEAN
        assert len(subformulas(clean)) == 3006

    def test_subformulas_of_one_sided_stay_one_sided(self, rng):
        for _ in range(100):
            phi = random_one_sided(rng, Side.LEFT, depth=3)
            assert all(sub.facts & WHITE_ONLY for sub in subformulas(phi))


class TestClassifyAgainstReference:
    """The `facts` bits each node computes when it is built, against the walk
    `reference_classify`, on every subformula."""

    @staticmethod
    def assert_agrees(phi):
        for sub in subformulas(phi):
            bits = tuple(bool(sub.facts & bit) for bit in (I_FREE, WHITE_ONLY, BLACK_ONLY, CLEAN))
            assert bits == reference_classify(sub), sub

    def test_random_formulas(self, rng):
        seen = set()
        for _ in range(400):
            phi = random_formula(rng, depth=rng.choice([3, 4, 5]))
            self.assert_agrees(phi)
            seen.update(type(sub) for sub in subformulas(phi))
        assert {Atom, EqConst, Top, Bot, WBox, BDia, Iff} <= seen

    def test_companion_outputs(self, rng):
        for _ in range(100):
            comp = companion(random_i_free(rng, depth=3))
            self.assert_agrees(comp.to_formula())

    def test_substitution_results(self, rng):
        for _ in range(200):
            phi = random_i_free(rng, depth=3)
            left = {PropName(Side.LEFT, v): random_one_sided(rng, Side.LEFT, depth=2)
                    for v in ("p", "q") if rng.random() < 0.7}
            right = {PropName(Side.RIGHT, v): random_one_sided(rng, Side.RIGHT, depth=2)
                     for v in ("p", "q") if rng.random() < 0.7}
            self.assert_agrees(substitute(phi, left, right))


class TestSubstitute:
    def test_identity(self):
        phi = parse("[W](l:p | r:p) <-> ([W]l:p | r:p)")
        assert substitute(phi, {}, {}) == phi

    def test_axiom_instance(self):
        axiom = parse("[W](l:p | r:p) <-> ([W]l:p | r:p)")
        got = substitute(
            axiom,
            {PropName(Side.LEFT, "p"): parse("[W]l:a")},
            {PropName(Side.RIGHT, "p"): parse("<B>r:b")},
        )
        assert got == parse("[W]([W]l:a | <B>r:b) <-> ([W][W]l:a | <B>r:b)")

    def test_side_violation(self):
        with pytest.raises(SideViolation):
            substitute(parse("r:p"), {}, {PropName(Side.RIGHT, "p"): parse("[W]l:a")})

    def test_commutes_with_render_parse(self, rng):
        for _ in range(50):
            phi = random_i_free(rng, depth=2)
            out = substitute(phi, {PropName(Side.LEFT, "p"): parse("[W]l:q")}, {})
            assert parse(render(out)) == out
            assert out.facts & I_FREE


class TestFolds:
    def test_small_folds_left_associated(self):
        a, b, c = lp("a"), lp("b"), lp("c")
        assert conjoin([a]) == a
        assert conjoin([a, b]) == And(a, b)
        assert conjoin([a, b, c]) == And(And(a, b), c)
        assert disjoin([a, b, c]) == Or(Or(a, b), c)

    def test_empty_disjunction_is_false(self):
        assert disjoin([]) == Bot()

    def test_large_folds_balanced(self):
        parts = [lp(f"a{i}") for i in range(64)]
        phi = conjoin(parts)
        assert len(prop_names(phi.left)) == len(prop_names(phi.right)) == 32
        # a balanced tree over 64 leaves reparses and keeps all atoms
        assert prop_names(conjoin(parts)) == {PropName(Side.LEFT, f"a{i}")
                                              for i in range(64)}


class TestSpine:
    """`spine` lists the operands of a chain of one junction in one step."""

    a, b, c, d = (lp(x) for x in "abcd")

    def test_junction(self):
        a, b = self.a, self.b
        for node, positive, want in ((And, True, True), (And, False, False),
                                     (Or, True, False), (Or, False, True),
                                     (Implies, True, False), (Implies, False, True)):
            assert junction(node(a, b), positive) is want
        for f in (a, Not(And(a, b)), Iff(a, b), WBox(a), Top()):
            assert junction(f, True) is None

    def test_shapes(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        want = [(a, True), (b, True), (c, True), (d, True)]
        for phi in (parse("l:a & l:b & l:c & l:d"),           # left-deep, as parsed
                    conjoin([a, b, c, d]),                    # balanced
                    And(a, And(b, And(c, d)))):               # right-nested
            assert spine(phi, True, set()) == want
            # read negatively, the same chain is a disjunction of negations
            assert spine(phi, False, set()) == [(f, False) for f, _ in want]

    def test_implication_is_a_disjunction(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        assert spine(parse("l:a -> l:b -> l:c"), True, set()) == [(a, False), (b, False), (c, True)]
        # the antecedent, read negatively, is a disjunction too: one spine
        assert spine(parse("l:a & l:b -> l:c | l:d"), True, set()) == [
            (a, False), (b, False), (c, True), (d, True)]
        # ~(a -> b) is a & ~b; (a -> b) -> c has a conjunction as its left operand
        assert spine(parse("l:a -> l:b"), False, set()) == [(a, True), (b, False)]
        assert spine(parse("(l:a -> l:b) -> l:c"), True, set()) == [
            (parse("l:a -> l:b"), False), (c, True)]

    def test_negations(self):
        a, b, c = self.a, self.b, self.c
        # ~(a | b) is a conjunction
        assert spine(Or(a, b), False, set()) == [(a, False), (b, False)]
        # a `~` ends the spine; its operand is read off at its parity
        assert spine(parse("l:c & ~(l:a | l:b)"), True, set()) == [(c, True), (Or(a, b), False)]
        assert spine(parse("l:c & ~~(l:a & l:b)"), True, set()) == [(c, True), (And(a, b), True)]
        assert spine(parse("l:a & ~~~l:b & l:c"), True, set()) == [(a, True), (b, False), (c, True)]

    def test_block_is_an_operand(self):
        # The companion's blocks: a one-sided node stays whole.
        phi = parse("(l:a & l:b) & r:s & (l:c | r:d) & (r:e & l:f)")
        assert spine(phi, True, set(), lambda g: g.facts & ONE_SIDED) == [
            (parse("l:a & l:b"), True), (rp("s"), True), (parse("l:c | r:d"), True),
            (rp("e"), True), (lp("f"), True)]

    def test_shared_node_expanded_once(self):
        # 30 levels of x = x & x: 2^30 operands as a tree; each level is
        # expanded once, then read as an operand where it is met again.
        x = self.a
        levels = [x]
        for _ in range(30):
            x = And(x, x)
            levels.append(x)
        expanded = set()
        with time_budget(5):
            operands = spine(x, True, expanded)
        assert operands == [(self.a, True)] * 2 + [(level, True) for level in levels[1:-1]]
        assert len(expanded) == 30
        # a later spine reads each node that one expanded as an operand
        assert spine(And(levels[5], self.b), True, expanded) == [(levels[5], True), (self.b, True)]
        # one expansion per polarity: read negatively, x is expanded again
        assert len(spine(x, False, expanded)) == 31

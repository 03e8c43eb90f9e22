"""Parser, printer, classification, substitution, and fresh-name tests."""

import random

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
    ReservedNameError,
    SideViolation,
    Top,
    WBox,
    WDia,
    classify,
    left_atom,
    modal_depth,
    parse,
    prop_names,
    render,
    right_atom,
    subformulas,
    substitute,
)
from lhs.syntax import PropName, Side, conjoin, disjoin, fresh_var

from conftest import random_formula


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

    def test_reserved_prefix_rejected(self):
        with pytest.raises(ReservedNameError):
            parse("l:_fresh0")

    def test_reserved_prefix_opt_in(self):
        assert parse("l:_fresh0", allow_reserved=True) == lp("_fresh0")


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
        assert modal_depth(phi) == 2
        assert prop_names(phi) == {PropName(Side.LEFT, "p"), PropName(Side.RIGHT, "q")}


class TestClassify:
    def test_white_only_clean(self):
        c = classify(parse("[W]l:p & [W][W]l:q"))
        assert c.white_only and c.clean and c.i_free and not c.black_only

    def test_mixed_atoms_under_modality_not_clean(self):
        c = classify(parse("[W](l:p | r:q)"))
        assert c.i_free and not c.clean and not c.white_only and not c.black_only

    def test_equality_constant_not_clean(self):
        c = classify(EqConst())
        assert not c.i_free and not c.clean

    def test_clean_boolean_combination(self):
        assert classify(parse("[W]l:p | [B]r:q")).clean

    def test_deep_negation_chain(self):
        clean, mixed = parse("[W]l:p | [B][B]r:q"), parse("[W](l:p | r:q)")
        for _ in range(3000):
            clean, mixed = Not(clean), Not(mixed)
        c = classify(clean)
        assert c.i_free and c.clean and not c.white_only and not c.black_only
        assert not classify(mixed).clean
        assert modal_depth(clean) == 2

    def test_subformulas_of_one_sided_stay_one_sided(self, rng):
        from conftest import random_one_sided
        for _ in range(100):
            phi = random_one_sided(rng, Side.LEFT, depth=3)
            assert all(classify(sub).white_only for sub in subformulas(phi))


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
        from conftest import random_i_free
        for _ in range(50):
            phi = random_i_free(rng, depth=2)
            out = substitute(phi, {PropName(Side.LEFT, "p"): parse("[W]l:q")}, {})
            assert parse(render(out)) == out
            assert classify(out).i_free


class TestFreshVar:
    def test_first(self):
        assert fresh_var(Side.LEFT, set()) == PropName(Side.LEFT, "_fresh0")

    def test_skips_taken(self):
        taken = {PropName(Side.LEFT, "_fresh0")}
        assert fresh_var(Side.LEFT, taken) == PropName(Side.LEFT, "_fresh1")

    def test_never_collides(self):
        avoid = set()
        for _ in range(30):
            v = fresh_var(Side.RIGHT, avoid)
            assert v not in avoid
            avoid.add(v)


class TestFolds:
    def test_small_folds_left_associated(self):
        a, b, c = lp("a"), lp("b"), lp("c")
        assert conjoin([a]) == a
        assert conjoin([a, b]) == And(a, b)
        assert conjoin([a, b, c]) == And(And(a, b), c)
        assert disjoin([a, b, c]) == Or(Or(a, b), c)

    def test_large_folds_balanced(self):
        parts = [lp(f"a{i}") for i in range(64)]
        assert modal_depth(conjoin(parts)) == 0
        # a balanced tree over 64 leaves reparses and keeps all atoms
        assert prop_names(conjoin(parts)) == {PropName(Side.LEFT, f"a{i}")
                                              for i in range(64)}

"""Truth definition, one-sided evaluation, and the first-order translation."""

import gc
import sys

import pytest

from lhs import (
    And,
    BBox,
    BDia,
    EqConst,
    MixedFormula,
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
    make_model,
    one_sided_eval,
    parse,
    right_atom,
    subformulas,
    substitute,
)
from lhs.cli import main
from lhs.syntax import Side

from conftest import (
    all_pairs,
    random_formula,
    random_model,
    random_one_sided,
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
        with pytest.raises(MixedFormula):
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

    def test_deep_translation_nodes(self):
        # Hashing, comparing and printing a 3000-deep translation must not
        # recurse.
        a, b = (fo_translate(parse("~" * 3000 + "l:p")) for _ in range(2))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != fo_translate(parse("~" * 2998 + "l:p"))
        assert repr(a) == fo_render(a) == "~(" * 2999 + "~Pl_p(x)" + ")" * 2999

    def test_nested_iff_refused(self):
        # Each <-> translates both operands twice: 30 nested ones would build
        # about 1.6e10 nodes.
        text = "[W]l:p0"
        for i in range(1, 31):
            text = f"({text} <-> [W]l:p{i})"
        with time_budget(1):
            with pytest.raises(ResourceGuard, match="over the ceiling of 1000000"):
                fo_translate(parse(text))
            assert main(["translate", "-f", text]) == 70


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

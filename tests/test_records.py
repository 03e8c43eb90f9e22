"""The record contract: every immutable record of the package (formula nodes,
verdicts, models, proof, tiling and bisimulation records) is built from its
annotated fields, by position or by keyword, and compares, hashes and prints
by its tuple of field values."""

import pytest

from lhs import bisim, decide, normal, proof, semantics, syntax, tiling
from lhs.errors import ModelFormatError, UnknownState
from lhs.model import Model
from lhs.syntax import (
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
    PropName,
    Record,
    Side,
    Top,
    WBox,
    WDia,
    left_atom,
    right_atom,
    subformulas,
)

from conftest import random_formula

P, Q = left_atom("p"), right_atom("q")
MODEL = Model(("a", "b"), frozenset({("a", "b")}), {PropName(Side.LEFT, "p"): frozenset({"a"})})
TILE = tiling.Tile("A", "0", "0", "1", "1")

# class: (its fields in order, values for each field, the defaults of the last fields)
RECORDS = {
    PropName: (("side", "name"), (Side.LEFT, "p"), ()),
    Atom: (("prop",), (PropName(Side.RIGHT, "q"),), ()),
    EqConst: ((), (), ()),
    Top: ((), (), ()),
    Bot: ((), (), ()),
    Not: (("child",), (P,), ()),
    And: (("left", "right"), (P, Q), ()),
    Or: (("left", "right"), (P, Q), ()),
    Implies: (("left", "right"), (P, Q), ()),
    Iff: (("left", "right"), (P, Q), ()),
    WBox: (("child",), (P,), ()),
    WDia: (("child",), (P,), ()),
    BBox: (("child",), (Q,), ()),
    BDia: (("child",), (Q,), ()),
    semantics.FOFormula: (("op", "left", "right"), ("=", "x", "y"), (None,)),
    Model: (("states", "edges", "valuation"), (MODEL.states, MODEL.edges, MODEL.valuation), ({},)),
    normal.CleanCNF: (("conjuncts",), (((P, Q),),), ()),
    decide.Verdict: (("status", "model", "pair"), ("SAT", MODEL, ("a", "b")), (None, None)),
    proof.ProofLine: (("formula", "rule", "premises", "left_map", "right_map"),
                      (P, "A1", (1,), {PropName(Side.LEFT, "p"): P}, None), ((), None, None)),
    proof.LineError: (("line", "reason"), (3, "bad"), ()),
    tiling.Tile: (("name", "up", "down", "left", "right"), ("A", "0", "0", "1", "1"), ()),
    tiling.TileSet: (("tiles",), ((TILE,),), ()),
    tiling.PeriodicTiling: (("period", "assign"), ((1, 1), {(0, 0): "A"}), ()),
    tiling.TilingViolation: (("cell", "direction"), ((0, 1), "vertical"), ()),
    bisim.PairRelation: (("left", "right", "pairs"),
                         (MODEL, MODEL, frozenset({(("a", "b"), ("a", "b"))})), ()),
    bisim.ClauseViolation: (("clause", "quad"), ("diagonal", (("a", "a"), ("a", "b"))), ()),
}


def _record_classes(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("lhs."):
            yield sub
            yield from _record_classes(sub)


def _hashable(values) -> bool:
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_every_record_is_listed():
    bases = {syntax.Node, syntax.Formula, syntax.Unary, syntax.Binary}
    assert set(_record_classes()) - bases == set(RECORDS)
    assert len(RECORDS) == 26


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecord:
    def test_fields(self, cls):
        names, values, _ = RECORDS[cls]
        record = cls(*values)
        assert cls._fields == names
        assert tuple(getattr(record, f) for f in names) == values

    def test_keywords_and_defaults(self, cls):
        names, values, defaults = RECORDS[cls]
        assert cls(**dict(zip(names, values))) == cls(*values)
        assert cls(*values[:1], **dict(zip(names[1:], values[1:]))) == cls(*values)
        required = len(names) - len(defaults)
        record = cls(*values[:required])
        assert tuple(getattr(record, f) for f in names[required:]) == defaults
        assert record == cls(*values[:required], *defaults)

    def test_bad_calls(self, cls):
        names, values, defaults = RECORDS[cls]
        with pytest.raises(TypeError):
            cls(*values, "extra")
        with pytest.raises(TypeError):
            cls(*values, unknown=1)
        if names:
            with pytest.raises(TypeError):
                cls(*values, **{names[0]: values[0]})
        if len(defaults) < len(names):
            with pytest.raises(TypeError):
                cls(*values[:len(names) - len(defaults) - 1])

    def test_immutable(self, cls):
        names, values, _ = RECORDS[cls]
        record = cls(*values)
        for name in (*names, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert tuple(getattr(record, f) for f in names) == values

    def test_equality_and_hash(self, cls):
        names, values, _ = RECORDS[cls]
        record, twin = cls(*values), cls(*values)
        assert record == twin and not record != twin
        assert record != values and values != record  # not a tuple
        if _hashable(values):
            assert hash(record) == hash(twin) == hash(values)
            assert {record: 1}[twin] == 1
        else:
            with pytest.raises(TypeError):
                hash(record)

    def test_differs_in_each_field(self, cls):
        names, values, _ = RECORDS[cls]
        for i in range(len(names)):
            other = list(values)
            other[i] = None if values[i] is not None else "x"
            try:
                changed = cls(*other)
            except (AttributeError, TypeError, ValueError, ModelFormatError, UnknownState):
                continue  # a check of the class refuses the changed value
            assert changed != cls(*values)


def test_repr():
    assert repr(decide.Verdict("SAT")) == "Verdict(status='SAT', model=None, pair=None)"
    assert repr(PropName(Side.LEFT, "p")) == "PropName(side=<Side.LEFT: 'l'>, name='p')"
    assert repr(proof.LineError(2, "no")) == "LineError(line=2, reason='no')"
    assert repr(TILE) == "Tile(name='A', up='0', down='0', left='1', right='1')"
    assert repr(tiling.TilingViolation((0, 1), "vertical")) == (
        "TilingViolation(cell=(0, 1), direction='vertical')")
    assert repr(bisim.ClauseViolation("diagonal", (("a", "a"), ("a", "b")))) == (
        "ClauseViolation(clause='diagonal', quad=(('a', 'a'), ('a', 'b')))")
    assert repr(Model(("a",), frozenset())) == (
        "Model(states=('a',), edges=frozenset(), valuation={})")
    # Formulas print as formulas, FO formulas as first-order text.
    assert repr(And(P, Not(Q))) == "l:p & ~r:q"
    assert repr(semantics.FOFormula("=", "x", "y")) == "x = y"


def test_post_init_checks_run():
    with pytest.raises(ModelFormatError):
        Model(states=("a",), edges=frozenset({("a", "b")}))
    with pytest.raises(ValueError):
        normal.CleanCNF(conjuncts=())
    with pytest.raises(ModelFormatError):
        tiling.TileSet(())
    with pytest.raises(ModelFormatError):
        tiling.PeriodicTiling((1, 1), {})
    with pytest.raises(UnknownState):
        bisim.PairRelation(MODEL, MODEL, frozenset({(("a", "c"), ("a", "b"))}))


def test_model_default_valuation_is_fresh():
    a, b = Model(("a",), frozenset()), Model(states=("b",), edges=frozenset())
    assert a.valuation == b.valuation == {}
    assert a.valuation is not b.valuation


def test_formula_hash_is_the_hash_of_its_fields(rng):
    # A node stores the hash of its tuple of field values, so sets of
    # formulas keep the order they have always had.
    seen = 0
    for _ in range(300):
        for f in subformulas(random_formula(rng, depth=4)):
            assert hash(f) == hash(tuple(getattr(f, name) for name in f._fields))
            seen += 1
    assert seen > 1000

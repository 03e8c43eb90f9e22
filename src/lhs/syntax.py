"""Formula AST, concrete syntax, sublanguage classification, substitution.

The language has two-sided atoms (``l:p`` / ``r:q``), the equality constant
``I``, the usual Boolean connectives and two pairs of modalities: the white
ones ``[W]``/``<W>`` move the first evaluation point, the black ones
``[B]``/``<B>`` move the second, both along the single relation of a model.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    ContainsI,
    FormulaSyntaxError,
    ReservedNameError,
    SideViolation,
)

RESERVED_PREFIX = "_fresh"


class Side(Enum):
    LEFT = "l"
    RIGHT = "r"


@dataclass(frozen=True)
class PropName:
    side: Side
    name: str

    def __str__(self):
        return f"{self.side.value}:{self.name}"


class Formula:
    """Base class; all nodes are immutable and hashable.

    A node stores its hash, the one a frozen dataclass computes, when it is
    built: no hash or equality test recurses into a deep tree.
    """

    __slots__ = ()

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash(tuple(vars(self).values())))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            for x, y in zip(vars(a).values(), vars(b).values()):
                if isinstance(x, Formula):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


# Equality and hashing come from `Formula`, not from the dataclass.
_node = dataclass(frozen=True, eq=False)


@_node
class Atom(Formula):
    prop: PropName


@_node
class EqConst(Formula):
    pass


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Not(Formula):
    child: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Iff(Formula):
    left: Formula
    right: Formula


@_node
class WBox(Formula):
    child: Formula


@_node
class WDia(Formula):
    child: Formula


@_node
class BBox(Formula):
    child: Formula


@_node
class BDia(Formula):
    child: Formula


MODAL_NODES = (WBox, WDia, BBox, BDia)
WHITE_MODAL = (WBox, WDia)
BLACK_MODAL = (BBox, BDia)
BINARY_NODES = (And, Or, Implies, Iff)


def atom(side: Side, name: str) -> Atom:
    return Atom(PropName(side, name))


def left_atom(name: str) -> Atom:
    return atom(Side.LEFT, name)


def right_atom(name: str) -> Atom:
    return atom(Side.RIGHT, name)


def children(phi: Formula):
    if isinstance(phi, Not) or isinstance(phi, MODAL_NODES):
        return (phi.child,)
    if isinstance(phi, BINARY_NODES):
        return (phi.left, phi.right)
    return ()


def _fold_balanced(parts: list, node) -> Formula:
    # Balanced so that huge conjunctions stay log-deep; splitting with a
    # ceiling keeps three-element folds identical to the left-associated read.
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return node(_fold_balanced(parts[:mid], node), _fold_balanced(parts[mid:], node))


def conjoin(parts) -> Formula:
    """Conjunction of a nonempty list (balanced tree, log depth)."""
    parts = list(parts)
    if not parts:
        raise ValueError("conjoin of empty list")
    return _fold_balanced(parts, And)


def disjoin(parts, empty: Formula | None = None) -> Formula:
    """Disjunction of a list (balanced tree); `empty` is returned for []."""
    parts = list(parts)
    if not parts:
        if empty is None:
            raise ValueError("disjoin of empty list")
        return empty
    return _fold_balanced(parts, Or)


# ---------------------------------------------------------------------------
# Traversal helpers


def subformulas(phi: Formula) -> list[Formula]:
    """Deduplicated subformulas in post-order; `phi` is the last element."""
    out: list[Formula] = []
    seen: set[Formula] = set()
    stack = [(phi, False)]
    while stack:
        f, expanded = stack.pop()
        if f in seen:
            continue
        if expanded:
            seen.add(f)
            out.append(f)
        else:
            stack.append((f, True))
            stack.extend((c, False) for c in reversed(children(f)))
    return out


def prop_names(phi: Formula) -> set[PropName]:
    return {f.prop for f in subformulas(phi) if isinstance(f, Atom)}


def modal_depth(phi: Formula) -> int:
    depth: dict[Formula, int] = {}
    for f in subformulas(phi):
        inner = max((depth[c] for c in children(f)), default=0)
        depth[f] = inner + isinstance(f, MODAL_NODES)
    return depth[phi]


# ---------------------------------------------------------------------------
# Negation normal form


def nnf(phi: Formula, positive: bool = True) -> Formula:
    """Equivalent formula over literals, constants, &, | and the modalities.

    `->` and `<->` are eliminated and negations pushed to atoms and `I`;
    a negated box becomes the diamond of the negation and vice versa. With
    `positive=False` the result is equivalent to `~phi`.
    """
    if isinstance(phi, (Atom, EqConst)):
        return phi if positive else Not(phi)
    if isinstance(phi, Top):
        return Top() if positive else Bot()
    if isinstance(phi, Bot):
        return Bot() if positive else Top()
    if isinstance(phi, Not):
        return nnf(phi.child, not positive)
    if isinstance(phi, And):
        ctor = And if positive else Or
        return ctor(nnf(phi.left, positive), nnf(phi.right, positive))
    if isinstance(phi, Or):
        ctor = Or if positive else And
        return ctor(nnf(phi.left, positive), nnf(phi.right, positive))
    if isinstance(phi, Implies):
        return nnf(Or(Not(phi.left), phi.right), positive)
    if isinstance(phi, Iff):
        both = And(Implies(phi.left, phi.right), Implies(phi.right, phi.left))
        return nnf(both, positive)
    if isinstance(phi, (WBox, BBox)):
        box, dia = (WBox, WDia) if isinstance(phi, WBox) else (BBox, BDia)
        return box(nnf(phi.child, True)) if positive else dia(nnf(phi.child, False))
    if isinstance(phi, (WDia, BDia)):
        box, dia = (WBox, WDia) if isinstance(phi, WDia) else (BBox, BDia)
        return dia(nnf(phi.child, True)) if positive else box(nnf(phi.child, False))
    raise TypeError(f"not a formula: {phi!r}")


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class SyntaxClass:
    i_free: bool
    white_only: bool
    black_only: bool
    clean: bool


def side_map(phi: Formula) -> dict[Formula, tuple[bool, bool]]:
    """(white_only, black_only) of every subformula, in one bottom-up pass.

    A formula is white-only when it is I-free and has left atoms and white
    modalities only; black-only is the mirror. Constants are both.
    """
    sides: dict[Formula, tuple[bool, bool]] = {}
    for f in subformulas(phi):
        if isinstance(f, Atom):
            white = f.prop.side is Side.LEFT
            sides[f] = (white, not white)
        elif isinstance(f, EqConst):
            sides[f] = (False, False)
        elif isinstance(f, WHITE_MODAL):
            sides[f] = (sides[f.child][0], False)
        elif isinstance(f, BLACK_MODAL):
            sides[f] = (False, sides[f.child][1])
        else:
            kids = [sides[c] for c in children(f)]
            sides[f] = (all(w for w, _ in kids), all(b for _, b in kids))
    return sides


def classify(phi: Formula) -> SyntaxClass:
    sides = side_map(phi)
    i_free = not any(isinstance(f, EqConst) for f in sides)
    white_only, black_only = sides[phi]
    # Clean: every modal subformula is one-sided, which holds exactly when
    # the maximal ones (those at the Boolean level) are.
    clean = i_free and all(any(sides[f]) for f in sides if isinstance(f, MODAL_NODES))
    return SyntaxClass(i_free, white_only, black_only, clean)


# ---------------------------------------------------------------------------
# Substitution


def substitute(
    phi: Formula,
    left_map: dict[PropName, Formula] | None = None,
    right_map: dict[PropName, Formula] | None = None,
) -> Formula:
    """Simultaneous uniform substitution with side-purity enforcement.

    Values of `left_map` must be white-only and keyed by left-side names;
    values of `right_map` must be black-only and keyed by right-side names.
    This restriction is what keeps substitution sound for the one-sided
    axioms of the calculus.
    """
    left_map = left_map or {}
    right_map = right_map or {}
    if not classify(phi).i_free:
        raise ContainsI("substitution target must be I-free")
    for key, value in left_map.items():
        if key.side is not Side.LEFT:
            raise SideViolation(f"left map key {key} is not a left variable")
        if not classify(value).white_only:
            raise SideViolation(f"left map value for {key} is not white-only")
    for key, value in right_map.items():
        if key.side is not Side.RIGHT:
            raise SideViolation(f"right map key {key} is not a right variable")
        if not classify(value).black_only:
            raise SideViolation(f"right map value for {key} is not black-only")
    mapping = {**left_map, **right_map}

    def go(f: Formula) -> Formula:
        if isinstance(f, Atom):
            return mapping.get(f.prop, f)
        if isinstance(f, Not):
            return Not(go(f.child))
        if isinstance(f, BINARY_NODES):
            return type(f)(go(f.left), go(f.right))
        if isinstance(f, MODAL_NODES):
            return type(f)(go(f.child))
        return f

    return go(phi)


def fresh_vars(side: Side, avoid: set[PropName]):
    """The `_fresh<k>` names of the given side not in `avoid`, smallest first."""
    for k in itertools.count():
        prop = PropName(side, f"{RESERVED_PREFIX}{k}")
        if prop not in avoid:
            yield prop


def fresh_var(side: Side, avoid: set[PropName]) -> PropName:
    """Smallest `_fresh<k>` name of the given side not in `avoid`."""
    return next(fresh_vars(side, avoid))


# ---------------------------------------------------------------------------
# Concrete syntax: parser

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<atom>[lr]:[A-Za-z_][A-Za-z0-9_]*)
    | (?P<mod>\[W\]|\[B\]|<W>|<B>)
    | (?P<op><->|->|[~&|()])
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_MOD_NODE = {"[W]": WBox, "<W>": WDia, "[B]": BBox, "<B>": BDia}


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens, allow_reserved):
        self.tokens = tokens
        self.i = 0
        self.allow_reserved = allow_reserved

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.peek()
        if text != value:
            raise FormulaSyntaxError(f"expected {value!r}, found {text or 'end of input'!r}", pos)
        return self.advance()

    def formula(self) -> Formula:
        left = self.imp()
        if self.peek()[1] == "<->":
            self.advance()
            return Iff(left, self.formula())
        return left

    def imp(self) -> Formula:
        left = self.disj()
        if self.peek()[1] == "->":
            self.advance()
            return Implies(left, self.imp())
        return left

    def disj(self) -> Formula:
        acc = self.conj()
        while self.peek()[1] == "|":
            self.advance()
            acc = Or(acc, self.conj())
        return acc

    def conj(self) -> Formula:
        acc = self.unary()
        while self.peek()[1] == "&":
            self.advance()
            acc = And(acc, self.unary())
        return acc

    def unary(self) -> Formula:
        kind, text, pos = self.peek()
        if text == "~":
            self.advance()
            return Not(self.unary())
        if kind == "mod":
            self.advance()
            return _MOD_NODE[text](self.unary())
        return self.atom()

    def atom(self) -> Formula:
        kind, text, pos = self.advance()
        if kind == "atom":
            side = Side.LEFT if text[0] == "l" else Side.RIGHT
            name = text[2:]
            if name.startswith(RESERVED_PREFIX) and not self.allow_reserved:
                raise ReservedNameError(
                    f"variable name {name!r} uses the reserved {RESERVED_PREFIX!r} prefix"
                )
            return Atom(PropName(side, name))
        if kind == "word":
            if text == "I":
                return EqConst()
            if text == "true":
                return Top()
            if text == "false":
                return Bot()
            raise FormulaSyntaxError(f"unknown identifier {text!r}", pos)
        if text == "(":
            inner = self.formula()
            self.expect(")")
            return inner
        raise FormulaSyntaxError(f"unexpected {text or 'end of input'!r}", pos)


def parse(text: str, allow_reserved: bool = False) -> Formula:
    """Parse concrete syntax into an AST.

    `allow_reserved` admits the normalizer's `_fresh*` variables and is meant
    for re-reading output this package produced itself.
    """
    parser = _Parser(_tokenize(text), allow_reserved)
    phi = parser.formula()
    kind, tok_text, pos = parser.peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input {tok_text!r}", pos)
    return phi


# ---------------------------------------------------------------------------
# Concrete syntax: printer

_PREC_IFF = 1
_PREC_IMP = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5
_PREC_ATOM = 6

_MOD_TOKEN = {WBox: "[W]", WDia: "<W>", BBox: "[B]", BDia: "<B>"}


def _prec(phi: Formula) -> int:
    if isinstance(phi, Iff):
        return _PREC_IFF
    if isinstance(phi, Implies):
        return _PREC_IMP
    if isinstance(phi, Or):
        return _PREC_OR
    if isinstance(phi, And):
        return _PREC_AND
    if isinstance(phi, Not) or isinstance(phi, MODAL_NODES):
        return _PREC_UNARY
    return _PREC_ATOM


def render(phi: Formula, full_parens: bool = False) -> str:
    """Concrete syntax; reparses to an identical AST."""
    if full_parens:
        return _render_full(phi)
    return _render(phi, 0)


def _render(phi: Formula, min_prec: int) -> str:
    p = _prec(phi)
    if isinstance(phi, Atom):
        s = str(phi.prop)
    elif isinstance(phi, EqConst):
        s = "I"
    elif isinstance(phi, Top):
        s = "true"
    elif isinstance(phi, Bot):
        s = "false"
    elif isinstance(phi, Not):
        s = "~" + _render(phi.child, _PREC_UNARY)
    elif isinstance(phi, MODAL_NODES):
        s = _MOD_TOKEN[type(phi)] + " " + _render(phi.child, _PREC_UNARY)
    elif isinstance(phi, And):
        s = _render(phi.left, _PREC_AND) + " & " + _render(phi.right, _PREC_AND + 1)
    elif isinstance(phi, Or):
        s = _render(phi.left, _PREC_OR) + " | " + _render(phi.right, _PREC_OR + 1)
    elif isinstance(phi, Implies):
        s = _render(phi.left, _PREC_IMP + 1) + " -> " + _render(phi.right, _PREC_IMP)
    elif isinstance(phi, Iff):
        s = _render(phi.left, _PREC_IFF + 1) + " <-> " + _render(phi.right, _PREC_IFF)
    else:
        raise TypeError(f"not a formula: {phi!r}")
    if p < min_prec:
        return "(" + s + ")"
    return s


def _render_full(phi: Formula) -> str:
    if isinstance(phi, (Atom, EqConst, Top, Bot)):
        return _render(phi, 0)
    if isinstance(phi, Not):
        return "~(" + _render_full(phi.child) + ")"
    if isinstance(phi, MODAL_NODES):
        return _MOD_TOKEN[type(phi)] + " (" + _render_full(phi.child) + ")"
    op = {And: "&", Or: "|", Implies: "->", Iff: "<->"}[type(phi)]
    return "(" + _render_full(phi.left) + " " + op + " " + _render_full(phi.right) + ")"

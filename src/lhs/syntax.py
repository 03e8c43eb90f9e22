"""Formula AST, concrete syntax and sublanguage classification.

The language has two-sided atoms (``l:p`` / ``r:q``), the equality constant
``I``, the usual Boolean connectives and two pairs of modalities: the white
ones ``[W]``/``<W>`` move the first evaluation point, the black ones
``[B]``/``<B>`` move the second, both along the single relation of a model.
"""

from __future__ import annotations

import itertools
import re
from enum import Enum

from .errors import FormulaSyntaxError


class Side(Enum):
    LEFT = "l"
    RIGHT = "r"


class Record:
    """Base class of immutable records, built without generated code.

    The fields are the names a class annotates, after its bases' fields; the
    values that the class body gives the last fields are their defaults (`_tail`).
    Equality, hash and `repr` read the field values; setting one raises AttributeError.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        names = cls._fields = cls._fields + tuple(cls.__dict__.get("__annotations__", ()))
        kept = itertools.takewhile(lambda f: hasattr(cls, f), reversed(names))
        cls._tail = tuple(reversed([getattr(cls, f) for f in kept]))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        fields = self.__dict__
        for i, name in enumerate(names):  # faster than a zip
            fields[name] = args[i]
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:  # the field values of any other call
        names, tail = cls._fields, cls._tail
        if not kwargs and 0 < len(names) - len(args) <= len(tail):
            return args + tail[len(args) - len(names):]
        given = dict(zip(names, args), **kwargs)
        values = dict(zip(names[len(names) - len(tail):], tail)) | given
        if len(given) < len(args) + len(kwargs) or values.keys() != {*names}:
            raise TypeError(f"{cls.__name__}({', '.join(names)}) got {args} and {kwargs}")
        return tuple(values[f] for f in names)

    def __post_init__(self):
        pass

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class PropName(Record):
    side: Side
    name: str

    def __init__(self, side: Side, name: str):
        # Not via `__dict__`, so reads stay fast; the tableau's leaf sets hash props by the 100,000.
        object.__setattr__(self, "side", side)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash((side, name)))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not PropName:
            return NotImplemented
        return self.name == other.name and self.side is other.side

    def __str__(self):
        return f"{self.side.value}:{self.name}"


class Node(Record):
    """Base class of immutable, hashable syntax trees (formulas, FO formulas).

    A node stores its hash, the hash of its tuple of field values, when it is
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
                if isinstance(x, Node):
                    stack.append((x, y))
                elif x != y:
                    return False
        return True


# The syntax class of a formula, as bits of `Formula.facts`: white-only (I-free,
# left atoms and white modalities only), black-only (the mirror; constants are
# both), I-free, and clean (I-free, every modal subformula one-sided).
WHITE_ONLY, BLACK_ONLY, I_FREE, CLEAN = 1, 2, 4, 8
ONE_SIDED = WHITE_ONLY | BLACK_ONLY


class Formula(Node):
    """Base class of formulas; `repr` is `render`. A formula stores its syntax
    class in `facts` when it is built, from its children's (`_FACTS`, `Unary`)."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        # `Record.__init__`, with `Node`'s hash and the facts computed from `args` in one pass.
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        fields = self.__dict__
        for i, name in enumerate(names):
            fields[name] = args[i]
        fields["_hash"] = hash(args)
        fields["facts"] = _FACTS[type(self)](*args)

    def __repr__(self):
        return render(self)


class Atom(Formula):
    prop: PropName


class EqConst(Formula):
    pass


class Top(Formula):
    pass


class Bot(Formula):
    pass


class Unary(Formula):
    """Base class of `~` and the modalities; like `Binary`, it stores its field,
    hash and facts itself. It keeps the bits `_keep` of its child's facts; a
    modality, whose colour's bit is `_side`, is also clean when it keeps that bit."""

    child: Formula
    _keep, _side = ONE_SIDED | I_FREE | CLEAN, 0

    def __init__(self, child: Formula):
        fields = self.__dict__
        fields["child"] = child
        fields["_hash"] = hash((child,))
        facts = child.facts & self._keep
        fields["facts"] = facts | CLEAN if facts & self._side else facts


class Binary(Formula):
    """Base class of the binary connectives; their facts are their operands' in common."""

    left: Formula
    right: Formula

    def __init__(self, left: Formula, right: Formula):
        fields = self.__dict__
        fields["left"] = left
        fields["right"] = right
        fields["_hash"] = hash((left, right))
        fields["facts"] = left.facts & right.facts


class Not(Unary):
    pass


class And(Binary):
    pass


class Or(Binary):
    pass


class Implies(Binary):
    pass


class Iff(Binary):
    pass


class WBox(Unary):
    _keep, _side = WHITE_ONLY | I_FREE, WHITE_ONLY


class WDia(Unary):
    _keep, _side = WHITE_ONLY | I_FREE, WHITE_ONLY


class BBox(Unary):
    _keep, _side = BLACK_ONLY | I_FREE, BLACK_ONLY


class BDia(Unary):
    _keep, _side = BLACK_ONLY | I_FREE, BLACK_ONLY


MODAL_NODES = (WBox, WDia, BBox, BDia)
WHITE_MODAL = (WBox, WDia)
BLACK_MODAL = (BBox, BDia)
BINARY_NODES = (And, Or, Implies, Iff)


# node type: its facts from its field values
_FACTS = {
    Atom: lambda prop: (WHITE_ONLY if prop.side is Side.LEFT else BLACK_ONLY) | I_FREE | CLEAN,
    EqConst: lambda: 0,
    **dict.fromkeys((Top, Bot), lambda: ONE_SIDED | I_FREE | CLEAN),
}


def left_atom(name: str) -> Atom:
    return Atom(PropName(Side.LEFT, name))


def right_atom(name: str) -> Atom:
    return Atom(PropName(Side.RIGHT, name))


def children(phi: Formula):
    if isinstance(phi, Unary):
        return (phi.child,)
    if isinstance(phi, Binary):
        return (phi.left, phi.right)
    return ()


def strip_nots(f: Formula, positive: bool = True) -> tuple[Formula, bool]:
    """`f` read at `positive` (as `f`, or as `~f` when False) with its `~`
    chain read off: (g, polarity), g not a `~`, standing for the same formula."""
    while isinstance(f, Not):
        f, positive = f.child, not positive
    return f, positive


# node type: whether it is a conjunction when read positively
_JUNCTIONS = {And: True, Or: False, Implies: False}


def junction(f: Formula, positive: bool) -> bool | None:
    """True when `f` read at `positive` is a conjunction (`a & b`, `~(a | b)`,
    `~(a -> b)`), False when it is a disjunction, None when it is neither."""
    kind = _JUNCTIONS.get(type(f))
    return None if kind is None else kind == positive


def spine(f: Formula, positive: bool, expanded: set, block=None) -> list:
    """The (operand, polarity) pairs, left to right with `~`s read off, of the
    maximal spine of the junction that `f` is at `positive` (`->` is `|` with
    its left operand negated): a chain of any shape is one list. A node of
    another junction or none, one that `block` holds of and one in `expanded`
    are operands. Each node expanded goes into `expanded` as (id, polarity),
    cheap to hash, so none is expanded twice and no DAG is unfolded."""
    want = _JUNCTIONS[type(f)] == positive
    expanded.add((id(f), positive))
    operands, stack = [], [(f.right, positive), (f.left, positive != (type(f) is Implies))]
    while stack:
        g, polarity = key = stack.pop()
        kind = _JUNCTIONS.get(type(g))
        if (kind is None or (kind == polarity) != want or block and block(g)
                or (node := (id(g), polarity)) in expanded):
            operands.append(strip_nots(g, polarity) if type(g) is Not else key)
        else:
            expanded.add(node)
            stack += (g.right, polarity), (g.left, polarity != (type(g) is Implies))
    return operands


def fold_balanced(parts: list, node) -> Formula:
    """A nonempty list joined by the binary constructor `node` (`And`, `Or`)."""
    # Balanced so that huge conjunctions stay log-deep; splitting with a
    # ceiling keeps three-element folds identical to the left-associated read.
    if len(parts) == 1:
        return parts[0]
    mid = (len(parts) + 1) // 2
    return node(fold_balanced(parts[:mid], node), fold_balanced(parts[mid:], node))


def conjoin(parts) -> Formula:
    """Conjunction of a nonempty list (balanced tree, log depth)."""
    parts = list(parts)
    if not parts:
        raise ValueError("conjoin of empty list")
    return fold_balanced(parts, And)


def disjoin(parts) -> Formula:
    """Disjunction of a list (balanced tree); `false` for the empty list."""
    parts = list(parts)
    return fold_balanced(parts, Or) if parts else Bot()


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


def drive(walk):
    """Run `walk`, a generator that yields each sub-walk and receives its result.

    Walks that carry context down the formula (an evaluation pair, a variable
    counter) are written this way: the suspended walks wait on a list here,
    so nesting depth costs heap, never Python stack.
    """
    stack = [walk]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(sub)
            value = None
    return value


def prop_names(phi: Formula) -> set[PropName]:
    return {f.prop for f in subformulas(phi) if isinstance(f, Atom)}


# ---------------------------------------------------------------------------
# Concrete syntax: one precedence table for the parser and the printer

_PREC_IFF = 1
_PREC_IMP = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5
_PREC_ATOM = 6

_PREFIX = {Not: "~", WBox: "[W] ", WDia: "<W> ", BBox: "[B] ", BDia: "<B> "}
_CONSTANT = {EqConst: "I", Top: "true", Bot: "false"}
_PREC = {Iff: _PREC_IFF, Implies: _PREC_IMP, Or: _PREC_OR, And: _PREC_AND,
         **dict.fromkeys(_PREFIX, _PREC_UNARY)}  # the rest bind like atoms
# node: (operator, least precedence of a left and of a right operand that
# needs no parentheses). The parser reads a right operand at that least
# precedence, so the table also fixes associativity: `&` and `|` to the left,
# `->` and `<->` to the right.
_BINARY_TOKEN = {
    And: (" & ", _PREC_AND, _PREC_AND + 1),
    Or: (" | ", _PREC_OR, _PREC_OR + 1),
    Implies: (" -> ", _PREC_IMP + 1, _PREC_IMP),
    Iff: (" <-> ", _PREC_IFF + 1, _PREC_IFF),
}
_PREFIX_NODE = {op.strip(): node for node, op in _PREFIX.items()}
_CONSTANT_NODE = {text: node for node, text in _CONSTANT.items()}


def _prec(phi: Formula) -> int:
    return _PREC.get(type(phi), _PREC_ATOM)


# ---------------------------------------------------------------------------
# Concrete syntax: parser

# A variable: its side, a colon and its name. Model files use the same grammar.
ATOM_RE = re.compile(r"[lr]:[A-Za-z_][A-Za-z0-9_]*")
# Whitespace starts no token, so `findall` skips it. A character that starts
# no other token is a token alone (`\S`), one that the parser cannot read.
_TOKEN_RE = re.compile(
    rf"{ATOM_RE.pattern}|<->|->|[~&|()]|\[[WB]\]|<[WB]>|[A-Za-z_][A-Za-z0-9_]*|\S")
# token: (node, its precedence, least precedence of its right operand)
_INFIX = {op.strip(): (node, _PREC[node], right) for node, (op, _, right) in _BINARY_TOKEN.items()}
_NOT_INFIX = (None, 0, None)  # ends every pending operand down to the innermost `(`
_OPEN, _START = ("(", None, 0), ("", None, 0)  # pending entries that no operator ends
# token: the pending entry it opens
_OPENS = {"(": _OPEN, **{tok: (node, None, _PREC_UNARY) for tok, node in _PREFIX_NODE.items()}}


def _error(message: str, text: str, at: int) -> FormulaSyntaxError:
    """`message` at token `at` of `text`, or at its end past the last token;
    but a character anywhere that starts no token is the error."""
    matches = list(_TOKEN_RE.finditer(text))
    for m in matches:
        tok = m.group()
        if len(tok) == 1 and tok not in "~&|()" and not (tok.isascii() and tok.isidentifier()):
            return FormulaSyntaxError(f"unexpected character {tok!r}", m.start())
    return FormulaSyntaxError(message, matches[at].start() if at < len(matches) else len(text))


def _leaf(tok: str, error) -> Formula:
    if tok[1:2] == ":":
        return Atom(PropName(Side.LEFT if tok[0] == "l" else Side.RIGHT, tok[2:]))
    if tok in _CONSTANT_NODE:
        return _CONSTANT_NODE[tok]()
    what = "unknown identifier" if tok[:1].isidentifier() else "unexpected"
    raise error(f"{what} {tok or 'end of input'!r}")


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST. Every name is an ordinary variable,
    so the printed output of `render` (a CNF included) parses back.

    One `findall` lists the tokens; only an error message finds their positions.
    Operator precedence (Floyd 1963): one pass over the tokens keeps the
    operators still waiting for their right operand on a stack, so nesting
    costs heap, never Python stack. An operator of precedence p ends the
    right operands of the pending operators that read theirs above p.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # the end of the input
    stream = iter(tokens)

    def error(message: str) -> FormulaSyntaxError:  # at the token read last
        return _error(message, text, len(tokens) - 1 - stream.__length_hint__())

    leaves: dict[str, Formula] = {}  # each distinct atom is built once
    # (node, left operand or None for a prefix, least precedence of the
    # right operand) of each pending operator, above `_START`.
    pending: list = [_START]
    for tok in stream:  # where an operand starts
        if tok in _OPENS:
            pending.append(_OPENS[tok])
            continue
        phi = leaves.get(tok)
        if phi is None:
            phi = leaves[tok] = _leaf(tok, error)
        for tok in stream:  # after the operand `phi`
            node, prec, least = _INFIX.get(tok, _NOT_INFIX)
            while prec < pending[-1][2]:
                op, left, _ = pending.pop()
                phi = op(phi) if left is None else op(left, phi)
            if node is not None:
                pending.append((node, phi, least))
                break
            top = pending.pop()
            if top is _OPEN and tok == ")":
                continue
            if top is _OPEN:
                raise error(f"expected ')', found {tok or 'end of input'!r}")
            if tok:
                raise error(f"trailing input {tok!r}")
            return phi


# ---------------------------------------------------------------------------
# Concrete syntax: printer

class Token(str):
    """Text on a printer's stack, written out when it is popped."""


OPEN, CLOSE = Token("("), Token(")")


def wrapped(node, parens: bool) -> tuple:
    """The printer's stack entries for `node`, in push order, in parentheses if `parens`."""
    return (CLOSE, node, OPEN) if parens else (node,)


def render(phi: Formula, full_parens: bool = False) -> str:
    """Concrete syntax; reparses to an identical AST.

    A parent puts parentheses around an operand whose precedence is below
    what the operand's position needs. With `full_parens`, every binary
    formula is parenthesised and so is the operand of every unary operator.
    Each token is written once, into one list: an explicit stack holds the
    formulas still to print and the tokens that come after them.
    """
    out: list[str] = []
    stack: list = [phi]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is Token:
            out.append(f)
        elif kind is Atom:
            out.append(str(f.prop))
        elif kind in _CONSTANT:
            out.append(_CONSTANT[kind])
        elif kind in _PREFIX:
            out.append(_PREFIX[kind])
            stack += wrapped(f.child, full_parens or _prec(f.child) < _PREC_UNARY)
        elif kind in _BINARY_TOKEN:
            op, left_prec, right_prec = _BINARY_TOKEN[kind]
            if full_parens:
                out.append(OPEN)
                stack.append(CLOSE)
            stack += wrapped(f.right, not full_parens and _prec(f.right) < right_prec)
            stack.append(Token(op))
            stack += wrapped(f.left, not full_parens and _prec(f.left) < left_prec)
        else:
            raise TypeError(f"not a formula: {f!r}")
    return "".join(out)

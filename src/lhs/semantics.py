"""Two-dimensional truth definition and the first-order standard translation."""

from __future__ import annotations

import itertools

from .errors import LhsError, ResourceGuard
from .model import Model, State
from .syntax import (
    Atom,
    BBox,
    BINARY_NODES,
    Bot,
    CLOSE,
    EqConst,
    Formula,
    And,
    Iff,
    Implies,
    MODAL_NODES,
    Node,
    Not,
    OPEN,
    Or,
    Side,
    Token,
    Top,
    WBox,
    WHITE_MODAL,
    children,
    drive,
    junction,
    spine,
    strip_nots,
    subformulas,
    wrapped,
)


def check(model: Model, s: State, t: State, phi: Formula) -> bool:
    """Truth of `phi` at the pair (s, t).

    Left atoms and white modalities read/move the first coordinate, right
    atoms and black modalities the second; `I` holds exactly on the diagonal.
    A `~` chain is one step, and so is a chain of one junction (`&`, `|`,
    `->`), read through `syntax.spine` up to the first operand that decides.
    Chain roots and operands, like every other node read, are memoized per
    call on (subformula, s, t); an inner node that an earlier chain at (s, t)
    expanded is an operand. The readable reference: `bruteforce.truth_table`
    evaluates the same definition at every pair at once.
    """
    model.require_state(s, t)
    return drive(_sat(phi, s, t, model, {}))


def _sat(f: Formula, a: State, b: State, model: Model, memo: dict):
    """The walk of `check` at (a, b): yields the walk of each subformula it reads."""
    key = (f, a, b)
    value = memo.get(key)
    if value is not None:
        return value
    if isinstance(f, Atom):
        value = (a if f.prop.side is Side.LEFT else b) in model.truth_set(f.prop)
    elif isinstance(f, EqConst):
        value = a == b
    elif isinstance(f, Top):
        value = True
    elif isinstance(f, Bot):
        value = False
    elif isinstance(f, Not):
        g, positive = strip_nots(f)
        value = positive == (yield _sat(g, a, b, model, memo))
    elif isinstance(f, Iff):
        value = (yield _sat(f.left, a, b, model, memo)) == (yield _sat(f.right, a, b, model, memo))
    elif isinstance(f, MODAL_NODES):
        # A box holds unless some successor fails the child; a diamond fails
        # unless some successor satisfies it. Stop at the first that decides.
        white = isinstance(f, WHITE_MODAL)
        value = isinstance(f, (WBox, BBox))
        for w in model.successor_map[a if white else b]:
            pair = (w, b) if white else (a, w)
            if (yield _sat(f.child, *pair, model, memo)) != value:
                value = not value
                break
    elif (value := junction(f, True)) is not None:  # true for a conjunction
        # The pairs that chains at (a, b) expanded, kept in `memo` under (a, b)
        # for the whole call: met again, one is read as an operand.
        for g, polarity in spine(f, True, memo.setdefault((a, b), set())):
            held = memo.get((g, a, b))  # operands left to right until one decides
            if held is None:
                held = yield _sat(g, a, b, model, memo)
            if (held == polarity) != value:
                value = not value
                break
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = value
    return value


def check_all(model: Model, phi: Formula) -> set[tuple[State, State]]:
    """All pairs (s, t) where `phi` holds, from one pass of the vectorised
    kernel `bruteforce.truth_table`. A model past 4,096 states raises
    `ResourceGuard`. The first call loads numpy."""
    from .bruteforce import holding_pairs

    return holding_pairs(model, phi)


# ---------------------------------------------------------------------------
# First-order translation


class FOFormula(Node):
    """A first-order formula over R, Pl_*/Pr_* and equality; `repr` is `fo_render`.

    `op` is the connective as printed: `P` (`left` a proposition, `right` a
    variable), `R` and `=` (two variables), `~` (`left` the operand), `&`,
    `|`, `->`, `<->` (two operands), `forall` and `exists` (`left` the bound
    variable, `right` the body).
    """

    op: str
    left: object
    right: object = None

    def __repr__(self):
        return fo_render(self)


# A formula built in code can share subformulas; the translation follows its tree.
FO_NODE_CEILING = 1_000_000
_FO_OPS = {And: "&", Or: "|", Implies: "->", Iff: "<->"}
_FO_BINARY = frozenset(_FO_OPS.values())
_FO_BARE = _FO_BINARY | {"P", "R"}  # the connectives whose text needs no parentheses after `~`


def fo_translate(phi: Formula, x: str = "x", y: str = "y") -> FOFormula:
    """Standard translation into first-order logic over R, Pl_*/Pr_* and equality.

    Bound variables are drawn fresh (z0, z1, ..., skipping `x` and `y`) left
    to right, so the output is rectified: no variable is bound twice along
    any path, and none captures a free one. A translation of more than
    `FO_NODE_CEILING` nodes raises `ResourceGuard` before any of it is built.
    Equal `x` and `y` raise `ValueError`: the translation of I would hold
    on every pair.
    """
    if x == y:
        raise ValueError(f"x and y must differ, both are {x!r}")
    size: dict[Formula, int] = {}
    for f in subformulas(phi):
        inner = sum(size[c] for c in children(f))
        size[f] = 1 + inner + (2 if isinstance(f, MODAL_NODES) else isinstance(f, Bot))
    if size[phi] > FO_NODE_CEILING:
        raise ResourceGuard(f"FO translation would build {size[phi]} nodes, over the "
                            f"ceiling of {FO_NODE_CEILING}")
    names = (z for z in map("z{}".format, itertools.count()) if z not in (x, y))
    return drive(_fo(phi, x, y, names))


def _fo(f: Formula, a: str, b: str, names):
    """The walk of `fo_translate` with free variables a and b; bound
    variables are taken from the iterator `names`."""
    if isinstance(f, Atom):
        return FOFormula("P", f.prop, a if f.prop.side is Side.LEFT else b)
    if isinstance(f, EqConst):
        return FOFormula("=", a, b)
    if isinstance(f, Top):
        return FOFormula("=", a, a)
    if isinstance(f, Bot):
        return FOFormula("~", FOFormula("=", a, a))
    if isinstance(f, Not):
        return FOFormula("~", (yield _fo(f.child, a, b, names)))
    if isinstance(f, BINARY_NODES):
        left = yield _fo(f.left, a, b, names)
        return FOFormula(_FO_OPS[type(f)], left, (yield _fo(f.right, a, b, names)))
    if isinstance(f, MODAL_NODES):
        z = next(names)
        white = isinstance(f, WHITE_MODAL)
        child = yield (_fo(f.child, z, b, names) if white else _fo(f.child, a, z, names))
        edge = FOFormula("R", a if white else b, z)
        if isinstance(f, (WBox, BBox)):
            return FOFormula("forall", z, FOFormula("->", edge, child))
        return FOFormula("exists", z, FOFormula("&", edge, child))
    raise TypeError(f"not a formula: {f!r}")


def fo_eval(model: Model, alpha: FOFormula, env: dict[str, State]) -> bool:
    """Classical Tarskian satisfaction over the finite domain of `model`."""
    try:
        return drive(_fo_sat(alpha, model, dict(env)))
    except KeyError as exc:
        raise LhsError(f"unbound variable {exc.args[0]!r}") from None


def _fo_sat(f: FOFormula, model: Model, env: dict[str, State]):
    """The walk of `fo_eval` under the assignment `env`, which it updates in place."""
    op = getattr(f, "op", None)
    if op == "P":
        return env[f.right] in model.truth_set(f.left)
    if op == "R":
        return (env[f.left], env[f.right]) in model.edges
    if op == "=":
        return env[f.left] == env[f.right]
    if op == "~":
        return not (yield _fo_sat(f.left, model, env))
    if op == "&":
        return (yield _fo_sat(f.left, model, env)) and (yield _fo_sat(f.right, model, env))
    if op == "|":
        return (yield _fo_sat(f.left, model, env)) or (yield _fo_sat(f.right, model, env))
    if op == "->":
        return (not (yield _fo_sat(f.left, model, env))) or (yield _fo_sat(f.right, model, env))
    if op == "<->":
        return (yield _fo_sat(f.left, model, env)) == (yield _fo_sat(f.right, model, env))
    if op in ("forall", "exists"):
        outer, had, value = env.get(f.left), f.left in env, op == "forall"
        for w in model.states:
            env[f.left] = w
            if (yield _fo_sat(f.right, model, env)) != value:
                value = not value
                break
        if had:
            env[f.left] = outer
        else:
            del env[f.left]
        return value
    raise TypeError(f"not an FO formula: {type(f).__name__} with op {op!r}")


def fo_render(alpha: FOFormula) -> str:
    """Plain-text form, e.g. `forall z0. ((R(x,z0) -> Pl_p(z0)))`, written
    token by token from an explicit stack, as `syntax.render` writes."""
    out: list[str] = []
    stack: list = [alpha]
    while stack:
        f = stack.pop()
        if type(f) is Token:
            out.append(f)
            continue
        op = getattr(f, "op", None)
        if op == "P":
            out.append(f"{'Pl_' if f.left.side is Side.LEFT else 'Pr_'}{f.left.name}({f.right})")
        elif op == "R":
            out.append(f"R({f.left},{f.right})")
        elif op == "=":
            out.append(f"{f.left} = {f.right}")
        elif op == "~":
            # Bare when the operand's text is an atom or starts with "(".
            child = getattr(f.left, "op", None)
            bare = child in _FO_BARE or child == "=" and str(f.left.left).startswith("(")
            out.append("~")
            stack += wrapped(f.left, not bare)
        elif op in _FO_BINARY:
            out.append(OPEN)
            stack += CLOSE, f.right, Token(f" {op} "), f.left
        elif op in ("forall", "exists"):
            out.append(f"{op} {f.left}. (")
            stack += CLOSE, f.right
        else:
            raise TypeError(f"not an FO formula: {type(f).__name__} with op {op!r}")
    return "".join(out)

"""Two-dimensional truth definition, one-sided evaluation, FO translation."""

from __future__ import annotations

import itertools

from .errors import LhsError, MixedFormula, ResourceGuard
from .model import Model, State
from .syntax import (
    Atom,
    BBox,
    Bot,
    EqConst,
    Formula,
    And,
    Iff,
    Implies,
    MODAL_NODES,
    Node,
    Not,
    Or,
    PropName,
    Side,
    Top,
    WBox,
    WHITE_MODAL,
    _node,
    children,
    classify,
    drive,
    subformulas,
)


def check(model: Model, s: State, t: State, phi: Formula) -> bool:
    """Truth of `phi` at the pair (s, t).

    Left atoms and white modalities read/move the first coordinate, right
    atoms and black modalities the second; `I` holds exactly on the diagonal.
    Memoized per call on (subformula, s, t). This is the readable reference;
    `bruteforce.truth_table` evaluates the same definition at every pair at
    once.
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
        value = not (yield _sat(f.child, a, b, model, memo))
    elif isinstance(f, And):
        value = (yield _sat(f.left, a, b, model, memo)) and (yield _sat(f.right, a, b, model, memo))
    elif isinstance(f, Or):
        value = (yield _sat(f.left, a, b, model, memo)) or (yield _sat(f.right, a, b, model, memo))
    elif isinstance(f, Implies):
        value = (not (yield _sat(f.left, a, b, model, memo))) or (yield _sat(f.right, a, b, model, memo))
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
    else:
        raise TypeError(f"not a formula: {f!r}")
    memo[key] = value
    return value


def check_all(model: Model, phi: Formula) -> set[tuple[State, State]]:
    """All pairs (s, t) where `phi` holds, from one pass of the vectorised
    kernel `bruteforce.truth_table`. The first call loads numpy."""
    from .bruteforce import holding_pairs

    return holding_pairs(model, phi)


def one_sided_eval(model: Model, w: State, phi: Formula) -> bool:
    """Standard single-agent Kripke truth for a white-only or black-only formula.

    Atoms read their valuation regardless of side; either color of modality
    quantifies over the successors of `w`.
    """
    sc = classify(phi)
    if not (sc.white_only or sc.black_only):
        raise MixedFormula("one-sided evaluation requires a white-only or black-only formula")
    model.require_state(w)
    states = frozenset(model.states)
    succ = model.successor_map
    holds: dict[Formula, frozenset] = {}  # the states where each subformula holds
    for f in subformulas(phi):
        if isinstance(f, Atom):
            value = model.truth_set(f.prop)
        elif isinstance(f, Top):
            value = states
        elif isinstance(f, Bot):
            value = frozenset()
        elif isinstance(f, Not):
            value = states - holds[f.child]
        elif isinstance(f, And):
            value = holds[f.left] & holds[f.right]
        elif isinstance(f, Or):
            value = holds[f.left] | holds[f.right]
        elif isinstance(f, Implies):
            value = (states - holds[f.left]) | holds[f.right]
        elif isinstance(f, Iff):
            value = states - (holds[f.left] ^ holds[f.right])
        elif isinstance(f, MODAL_NODES):
            child = holds[f.child]
            test = all if isinstance(f, (WBox, BBox)) else any
            value = frozenset(a for a in states if test(v in child for v in succ[a]))
        else:
            raise TypeError(f"not a one-sided formula: {f!r}")
        holds[f] = value
    return w in holds[phi]


# ---------------------------------------------------------------------------
# First-order translation


class FOFormula(Node):
    """Base class of first-order formulas; `repr` is `fo_render`."""

    __slots__ = ()

    def __repr__(self):
        return fo_render(self)


@_node
class FOPred(FOFormula):
    prop: PropName
    var: str


@_node
class FORel(FOFormula):
    left: str
    right: str


@_node
class FOEq(FOFormula):
    left: str
    right: str


@_node
class FONot(FOFormula):
    child: FOFormula


@_node
class FOAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@_node
class FOOr(FOFormula):
    left: FOFormula
    right: FOFormula


@_node
class FOImplies(FOFormula):
    left: FOFormula
    right: FOFormula


@_node
class FOForall(FOFormula):
    var: str
    child: FOFormula


@_node
class FOExists(FOFormula):
    var: str
    child: FOFormula


# Each `<->` is translated twice, so nested ones grow exponentially.
FO_NODE_CEILING = 1_000_000


def fo_translate(phi: Formula, x: str = "x", y: str = "y") -> FOFormula:
    """Standard translation into first-order logic over R, Pl_*/Pr_* and equality.

    Bound variables are drawn fresh (z0, z1, ..., skipping `x` and `y`) left
    to right, so the output is rectified: no variable is bound twice along
    any path, and none captures a free one. A translation of more than
    `FO_NODE_CEILING` nodes raises `ResourceGuard` before any of it is built.
    """
    size: dict[Formula, int] = {}
    for f in subformulas(phi):
        inner = sum(size[c] for c in children(f))
        if isinstance(f, Iff):
            size[f] = 3 + 2 * inner
        elif isinstance(f, MODAL_NODES):
            size[f] = 3 + inner
        else:
            size[f] = 1 + inner + isinstance(f, Bot)
    if size[phi] > FO_NODE_CEILING:
        raise ResourceGuard(f"FO translation would build {size[phi]} nodes, over the "
                            f"ceiling of {FO_NODE_CEILING}")
    names = (z for z in map("z{}".format, itertools.count()) if z not in (x, y))
    return drive(_fo(phi, x, y, names))


def _fo(f: Formula, a: str, b: str, names):
    """The walk of `fo_translate` with free variables a and b; bound
    variables are taken from the iterator `names`."""
    if isinstance(f, Atom):
        return FOPred(f.prop, a if f.prop.side is Side.LEFT else b)
    if isinstance(f, EqConst):
        return FOEq(a, b)
    if isinstance(f, Top):
        return FOEq(a, a)
    if isinstance(f, Bot):
        return FONot(FOEq(a, a))
    if isinstance(f, Not):
        return FONot((yield _fo(f.child, a, b, names)))
    if isinstance(f, (And, Or, Implies)):
        node = {And: FOAnd, Or: FOOr, Implies: FOImplies}[type(f)]
        left = yield _fo(f.left, a, b, names)
        return node(left, (yield _fo(f.right, a, b, names)))
    if isinstance(f, Iff):
        # No biconditional in the FO fragment; expand into two implications.
        left = yield _fo(f.left, a, b, names)
        right = yield _fo(f.right, a, b, names)
        left2 = yield _fo(f.left, a, b, names)
        right2 = yield _fo(f.right, a, b, names)
        return FOAnd(FOImplies(left, right), FOImplies(right2, left2))
    if isinstance(f, MODAL_NODES):
        z = next(names)
        white = isinstance(f, WHITE_MODAL)
        child = yield (_fo(f.child, z, b, names) if white else _fo(f.child, a, z, names))
        edge = FORel(a if white else b, z)
        if isinstance(f, (WBox, BBox)):
            return FOForall(z, FOImplies(edge, child))
        return FOExists(z, FOAnd(edge, child))
    raise TypeError(f"not a formula: {f!r}")


def fo_eval(model: Model, alpha: FOFormula, env: dict[str, State]) -> bool:
    """Classical Tarskian satisfaction over the finite domain of `model`."""
    try:
        return drive(_fo_sat(alpha, model, dict(env)))
    except KeyError as exc:
        raise LhsError(f"unbound variable {exc.args[0]!r}") from None


def _fo_sat(f: FOFormula, model: Model, env: dict[str, State]):
    """The walk of `fo_eval` under the assignment `env`, which it updates in place."""
    if isinstance(f, FOPred):
        return env[f.var] in model.truth_set(f.prop)
    if isinstance(f, FORel):
        return (env[f.left], env[f.right]) in model.edges
    if isinstance(f, FOEq):
        return env[f.left] == env[f.right]
    if isinstance(f, FONot):
        return not (yield _fo_sat(f.child, model, env))
    if isinstance(f, FOAnd):
        return (yield _fo_sat(f.left, model, env)) and (yield _fo_sat(f.right, model, env))
    if isinstance(f, FOOr):
        return (yield _fo_sat(f.left, model, env)) or (yield _fo_sat(f.right, model, env))
    if isinstance(f, FOImplies):
        return (not (yield _fo_sat(f.left, model, env))) or (yield _fo_sat(f.right, model, env))
    if isinstance(f, (FOForall, FOExists)):
        outer = env.get(f.var)
        had = f.var in env
        results = []
        for w in model.states:
            env[f.var] = w
            results.append((yield _fo_sat(f.child, model, env)))
        if had:
            env[f.var] = outer
        else:
            del env[f.var]
        return all(results) if isinstance(f, FOForall) else any(results)
    raise TypeError(f"not an FO formula: {f!r}")


def fo_render(alpha: FOFormula) -> str:
    """Plain-text form, e.g. `forall z0. (R(x,z0) -> Pl_p(z0))`."""
    return drive(_fo_render(alpha))


def _fo_render(alpha: FOFormula):
    if isinstance(alpha, FOPred):
        prefix = "Pl_" if alpha.prop.side is Side.LEFT else "Pr_"
        return f"{prefix}{alpha.prop.name}({alpha.var})"
    if isinstance(alpha, FORel):
        return f"R({alpha.left},{alpha.right})"
    if isinstance(alpha, FOEq):
        return f"{alpha.left} = {alpha.right}"
    if isinstance(alpha, FONot):
        text = yield _fo_render(alpha.child)
        if isinstance(alpha.child, (FOPred, FORel)) or text.startswith("("):
            return f"~{text}"
        return f"~({text})"
    if isinstance(alpha, (FOAnd, FOOr, FOImplies)):
        op = {FOAnd: "&", FOOr: "|", FOImplies: "->"}[type(alpha)]
        left = yield _fo_render(alpha.left)
        right = yield _fo_render(alpha.right)
        return f"({left} {op} {right})"
    if isinstance(alpha, (FOForall, FOExists)):
        quantifier = "forall" if isinstance(alpha, FOForall) else "exists"
        child = yield _fo_render(alpha.child)
        return f"{quantifier} {alpha.var}. ({child})"
    raise TypeError(f"not an FO formula: {alpha!r}")

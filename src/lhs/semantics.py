"""Two-dimensional truth definition, one-sided evaluation, FO translation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LhsError, MixedFormula
from .model import Model, State
from .syntax import (
    Atom,
    BBox,
    BDia,
    Bot,
    EqConst,
    Formula,
    And,
    Iff,
    Implies,
    Not,
    Or,
    PropName,
    Side,
    Top,
    WBox,
    WDia,
    children,
    classify,
    subformulas,
)


def check(model: Model, s: State, t: State, phi: Formula) -> bool:
    """Truth of `phi` at the pair (s, t).

    Left atoms and white modalities read/move the first coordinate, right
    atoms and black modalities the second; `I` holds exactly on the diagonal.
    Memoized per call on (subformula, s, t). This is the readable reference;
    `truth_table` evaluates the same definition at every pair at once.
    """
    model.require_state(s)
    model.require_state(t)
    memo: dict = {}
    succ = model.successor_map

    def sat(f: Formula, a: State, b: State) -> bool:
        key = (f, a, b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if isinstance(f, Atom):
            members = model.truth_set(f.prop)
            value = (a if f.prop.side is Side.LEFT else b) in members
        elif isinstance(f, EqConst):
            value = a == b
        elif isinstance(f, Top):
            value = True
        elif isinstance(f, Bot):
            value = False
        elif isinstance(f, Not):
            value = not sat(f.child, a, b)
        elif isinstance(f, And):
            value = sat(f.left, a, b) and sat(f.right, a, b)
        elif isinstance(f, Or):
            value = sat(f.left, a, b) or sat(f.right, a, b)
        elif isinstance(f, Implies):
            value = (not sat(f.left, a, b)) or sat(f.right, a, b)
        elif isinstance(f, Iff):
            value = sat(f.left, a, b) == sat(f.right, a, b)
        elif isinstance(f, WBox):
            value = all(sat(f.child, a2, b) for a2 in succ[a])
        elif isinstance(f, WDia):
            value = any(sat(f.child, a2, b) for a2 in succ[a])
        elif isinstance(f, BBox):
            value = all(sat(f.child, a, b2) for b2 in succ[b])
        elif isinstance(f, BDia):
            value = any(sat(f.child, a, b2) for b2 in succ[b])
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[key] = value
        return value

    try:
        return sat(phi, s, t)
    finally:
        # `sat` reaches itself through its closure; clearing the name breaks
        # that cycle, so the memo is freed on return and not at the next
        # cyclic garbage collection.
        del sat


def _box(child: np.ndarray, unreachable: np.ndarray) -> np.ndarray:
    """`[W] child`: the AND, over every state w, of child at (w, t) wherever
    (s, w) is not an edge. `unreachable` is 255 where there is no edge.
    """
    n = unreachable.shape[1]
    child = np.broadcast_to(child, (child.shape[0], n) + child.shape[2:])
    acc = child[:, :1] | unreachable[:, :, :1, None]
    for w in range(1, n):
        acc &= child[:, w:w + 1] | unreachable[:, :, w:w + 1, None]
    return acc


def truth_table(phi: Formula, adj: np.ndarray, atoms: dict, nbytes: int) -> np.ndarray:
    """Truth of `phi` at every pair of every frame, as packed bytes.

    `adj` is a (frames, n, n) boolean adjacency array. `atoms` maps a
    PropName to its (n, nbytes) uint8 truth pattern: each bit of row w is the
    prop's truth at state w under one valuation, the same bit position
    standing for the same valuation for every prop (a single valuation is
    one 0/255 byte per state). Names missing from `atoms` are false
    everywhere. Returns a read-only (frames, s, t, nbytes) view.
    """
    n = adj.shape[1]
    unreachable = np.where(adj, np.uint8(0), np.uint8(255))
    false = np.zeros((1, 1, 1, 1), dtype=np.uint8)
    order = subformulas(phi)
    index = {f: i for i, f in enumerate(order)}
    kids = [[index[c] for c in children(f)] for f in order]
    # A subformula's array is freed once its last parent is built.
    last_parent = {k: i for i, ks in enumerate(kids) for k in ks}
    arrays: list = [None] * len(order)
    for i, f in enumerate(order):
        args = [arrays[k] for k in kids[i]]
        if isinstance(f, Atom):
            pattern = atoms.get(f.prop)
            if pattern is None:
                arr = false
            elif f.prop.side is Side.LEFT:
                arr = pattern[None, :, None, :]
            else:
                arr = pattern[None, None, :, :]
        elif isinstance(f, EqConst):
            arr = np.where(np.eye(n, dtype=bool), np.uint8(255), np.uint8(0))[None, :, :, None]
        elif isinstance(f, Top):
            arr = ~false
        elif isinstance(f, Bot):
            arr = false
        elif isinstance(f, Not):
            arr = ~args[0]
        elif isinstance(f, And):
            arr = args[0] & args[1]
        elif isinstance(f, Or):
            arr = args[0] | args[1]
        elif isinstance(f, Implies):
            arr = ~args[0] | args[1]
        elif isinstance(f, Iff):
            arr = ~(args[0] ^ args[1])
        elif isinstance(f, WBox):
            arr = _box(args[0], unreachable)
        elif isinstance(f, WDia):
            arr = ~_box(~args[0], unreachable)
        # A black modality is the white one with the two coordinates swapped.
        elif isinstance(f, BBox):
            arr = _box(args[0].swapaxes(1, 2), unreachable).swapaxes(1, 2)
        elif isinstance(f, BDia):
            arr = ~_box(~args[0].swapaxes(1, 2), unreachable).swapaxes(1, 2)
        else:
            raise TypeError(f"not a formula: {f!r}")
        arrays[i] = arr
        for k in kids[i]:
            if last_parent[k] == i:
                arrays[k] = None
    return np.broadcast_to(arrays[-1], adj.shape + (nbytes,))


def check_all(model: Model, phi: Formula) -> set[tuple[State, State]]:
    """All pairs (s, t) where `phi` holds, from one `truth_table` pass."""
    states = model.states
    adj = np.array([[[(a, b) in model.edges for b in states] for a in states]])
    atoms = {prop: np.array([[255 if w in members else 0] for w in states], dtype=np.uint8)
             for prop, members in model.valuation.items()}
    truth = truth_table(phi, adj, atoms, 1)
    return {(states[s], states[t]) for s, t in np.argwhere(truth[0, :, :, 0])}


def one_sided_eval(model: Model, w: State, phi: Formula) -> bool:
    """Standard single-agent Kripke truth for a white-only or black-only formula.

    Atoms read their valuation regardless of side; either color of modality
    quantifies over the successors of `w`.
    """
    sc = classify(phi)
    if not (sc.white_only or sc.black_only):
        raise MixedFormula("one-sided evaluation requires a white-only or black-only formula")
    model.require_state(w)
    succ = model.successor_map

    def sat(f: Formula, a: State) -> bool:
        if isinstance(f, Atom):
            return a in model.truth_set(f.prop)
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, Not):
            return not sat(f.child, a)
        if isinstance(f, And):
            return sat(f.left, a) and sat(f.right, a)
        if isinstance(f, Or):
            return sat(f.left, a) or sat(f.right, a)
        if isinstance(f, Implies):
            return (not sat(f.left, a)) or sat(f.right, a)
        if isinstance(f, Iff):
            return sat(f.left, a) == sat(f.right, a)
        if isinstance(f, (WBox, BBox)):
            return all(sat(f.child, a2) for a2 in succ[a])
        if isinstance(f, (WDia, BDia)):
            return any(sat(f.child, a2) for a2 in succ[a])
        raise TypeError(f"not a one-sided formula: {f!r}")

    return sat(phi, w)


# ---------------------------------------------------------------------------
# First-order translation


class FOFormula:
    __slots__ = ()


@dataclass(frozen=True)
class FOPred(FOFormula):
    prop: PropName
    var: str


@dataclass(frozen=True)
class FORel(FOFormula):
    left: str
    right: str


@dataclass(frozen=True)
class FOEq(FOFormula):
    left: str
    right: str


@dataclass(frozen=True)
class FONot(FOFormula):
    child: FOFormula


@dataclass(frozen=True)
class FOAnd(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOOr(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOImplies(FOFormula):
    left: FOFormula
    right: FOFormula


@dataclass(frozen=True)
class FOForall(FOFormula):
    var: str
    child: FOFormula


@dataclass(frozen=True)
class FOExists(FOFormula):
    var: str
    child: FOFormula


def fo_translate(phi: Formula, x: str = "x", y: str = "y") -> FOFormula:
    """Standard translation into first-order logic over R, Pl_*/Pr_* and equality.

    Bound variables are drawn fresh (z0, z1, ...) left to right, so the output
    is rectified: no variable is bound twice along any path.
    """
    counter = [0]

    def fresh() -> str:
        z = f"z{counter[0]}"
        counter[0] += 1
        return z

    def go(f: Formula, a: str, b: str) -> FOFormula:
        if isinstance(f, Atom):
            return FOPred(f.prop, a if f.prop.side is Side.LEFT else b)
        if isinstance(f, EqConst):
            return FOEq(a, b)
        if isinstance(f, Top):
            return FOEq(a, a)
        if isinstance(f, Bot):
            return FONot(FOEq(a, a))
        if isinstance(f, Not):
            return FONot(go(f.child, a, b))
        if isinstance(f, And):
            return FOAnd(go(f.left, a, b), go(f.right, a, b))
        if isinstance(f, Or):
            return FOOr(go(f.left, a, b), go(f.right, a, b))
        if isinstance(f, Implies):
            return FOImplies(go(f.left, a, b), go(f.right, a, b))
        if isinstance(f, Iff):
            left = go(f.left, a, b)
            right = go(f.right, a, b)
            # No biconditional in the FO fragment; expand into two implications.
            left2 = go(f.left, a, b)
            right2 = go(f.right, a, b)
            return FOAnd(FOImplies(left, right), FOImplies(right2, left2))
        if isinstance(f, WBox):
            z = fresh()
            return FOForall(z, FOImplies(FORel(a, z), go(f.child, z, b)))
        if isinstance(f, WDia):
            z = fresh()
            return FOExists(z, FOAnd(FORel(a, z), go(f.child, z, b)))
        if isinstance(f, BBox):
            z = fresh()
            return FOForall(z, FOImplies(FORel(b, z), go(f.child, a, z)))
        if isinstance(f, BDia):
            z = fresh()
            return FOExists(z, FOAnd(FORel(b, z), go(f.child, a, z)))
        raise TypeError(f"not a formula: {f!r}")

    return go(phi, x, y)


def fo_eval(model: Model, alpha: FOFormula, env: dict[str, State]) -> bool:
    """Classical Tarskian satisfaction over the finite domain of `model`."""

    def lookup(var: str) -> State:
        try:
            return env_stack[var]
        except KeyError:
            raise LhsError(f"unbound variable {var!r}") from None

    env_stack = dict(env)

    def sat(f: FOFormula) -> bool:
        if isinstance(f, FOPred):
            return lookup(f.var) in model.truth_set(f.prop)
        if isinstance(f, FORel):
            return (lookup(f.left), lookup(f.right)) in model.edges
        if isinstance(f, FOEq):
            return lookup(f.left) == lookup(f.right)
        if isinstance(f, FONot):
            return not sat(f.child)
        if isinstance(f, FOAnd):
            return sat(f.left) and sat(f.right)
        if isinstance(f, FOOr):
            return sat(f.left) or sat(f.right)
        if isinstance(f, FOImplies):
            return (not sat(f.left)) or sat(f.right)
        if isinstance(f, (FOForall, FOExists)):
            outer = env_stack.get(f.var)
            had = f.var in env_stack
            results = []
            for w in model.states:
                env_stack[f.var] = w
                results.append(sat(f.child))
            if had:
                env_stack[f.var] = outer
            else:
                del env_stack[f.var]
            return all(results) if isinstance(f, FOForall) else any(results)
        raise TypeError(f"not an FO formula: {f!r}")

    return sat(alpha)


def fo_render(alpha: FOFormula) -> str:
    """Plain-text form, e.g. `forall z0. (R(x,z0) -> Pl_p(z0))`."""
    if isinstance(alpha, FOPred):
        prefix = "Pl_" if alpha.prop.side is Side.LEFT else "Pr_"
        return f"{prefix}{alpha.prop.name}({alpha.var})"
    if isinstance(alpha, FORel):
        return f"R({alpha.left},{alpha.right})"
    if isinstance(alpha, FOEq):
        return f"{alpha.left} = {alpha.right}"
    if isinstance(alpha, FONot):
        return f"~{fo_render_atomic(alpha.child)}"
    if isinstance(alpha, FOAnd):
        return f"({fo_render(alpha.left)} & {fo_render(alpha.right)})"
    if isinstance(alpha, FOOr):
        return f"({fo_render(alpha.left)} | {fo_render(alpha.right)})"
    if isinstance(alpha, FOImplies):
        return f"({fo_render(alpha.left)} -> {fo_render(alpha.right)})"
    if isinstance(alpha, FOForall):
        return f"forall {alpha.var}. ({fo_render(alpha.child)})"
    if isinstance(alpha, FOExists):
        return f"exists {alpha.var}. ({fo_render(alpha.child)})"
    raise TypeError(f"not an FO formula: {alpha!r}")


def fo_render_atomic(alpha: FOFormula) -> str:
    text = fo_render(alpha)
    if isinstance(alpha, (FOPred, FORel)) or text.startswith("("):
        return text
    return f"({text})"

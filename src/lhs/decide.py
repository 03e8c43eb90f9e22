"""Satisfiability and validity: the tableau that decides the I-free
fragment, and bounded search for the full language."""

from __future__ import annotations

from itertools import count

from .errors import ContainsI, LhsError, ResourceGuard
from .model import Model
from .normal import companion
from .semantics import check
from .syntax import (
    BLACK_MODAL,
    CLEAN,
    I_FREE,
    MODAL_NODES,
    ONE_SIDED,
    Atom,
    BBox,
    Bot,
    Formula,
    Iff,
    Not,
    Record,
    Top,
    WBox,
    drive,
    junction,
    spine,
    strip_nots,
)


class Verdict(Record):
    """The answer of `k_sat`, `lhs_minus_valid`, `lhs_minus_sat` and
    `lhs_bounded_sat`: a witness model and its pair for "SAT" and "INVALID",
    none otherwise."""

    status: str  # "VALID" | "INVALID" | "SAT" | "UNSAT" | "NO-MODEL-UP-TO-BOUND"
    model: Model | None = None
    pair: tuple[str, str] | None = None


# ---------------------------------------------------------------------------
# The tableau

DEFAULT_STEP_CEILING = 1_000_000


def _queue(goals: dict, todo: list, keys, deps: frozenset) -> None:
    for key in keys:
        if key not in goals:
            goals[key] = deps
            todo.append(key)


def _tableau(goals: dict, todo: list, head: int, steps):
    """Satisfiability of a set of I-free goals at a pair of states.

    A clean formula (all modal subformulas one-sided) holds at a pair iff its
    white part holds in K at the first state and its black part at the
    second, so boxes, diamonds and children are kept per colour. A modal goal
    (M, p) that is not clean becomes (companion(~M if p else M), False): one
    branch per conjunct psi_i | gamma_i, each adding ~psi_i and ~gamma_i.

    A goal is a (subformula, polarity) pair, read the way the companion reads
    them, so no negation normal form is written out. Of a chain of one
    junction, read through `syntax.spine`, a conjunction queues every operand
    and a disjunction is one branch point, a branch per distinct operand.
    `<->` is one branch point whose two branches each add both operands, at
    equal polarities or, negated, at opposite ones.

    `goals` maps each goal of this state on this branch to the set of branch
    points it depends on, a frozenset of their step numbers, which `steps`
    hands out once per `k_sat` call. A set holds only the branch points a
    goal depends on, so its size does not grow with the depth of the search
    path. `todo` lists the goals in the order they were queued: a
    conjunction queues its operands and a branch point the goals of its
    branch, so the order, and with it the witness, does not depend on string
    hashing. The walk expands `todo` from index `head` on, and only ever
    appends to `goals` and `todo`. An expanded goal stays in `goals`, so a
    goal queued again is not expanded again: its operands are already
    queued. A branch point notes the lengths of both before its first
    branch, and each branch starts by dropping the entries past those
    lengths (dicts keep insertion order) that a failed branch left.
    Every goal expanded counts against `DEFAULT_STEP_CEILING`; `steps`
    numbers them.

    Returns a tree witness, (positive atoms, white children, black children),
    or, on a clash, the set of branch points the clash depends on. Two
    complementary literals (or `false`) depend on their sets; a diamond whose
    successor clashes adds its own set to the successor's, which holds only
    sets of the boxes that took part. A branch point whose branch fails without
    it in the clash returns that clash and skips the branches left
    (backjumping, Horrocks & Patel-Schneider 1999), else the union of its
    branches' clashes without it. Depth is bounded by modal depth, so no loop
    check is needed.
    """
    while head < len(todo):
        key = todo[head]
        head += 1
        expanded = next(steps)
        if expanded > DEFAULT_STEP_CEILING:
            raise ResourceGuard(f"K tableau expanded {expanded} goals, over the ceiling "
                                f"of {DEFAULT_STEP_CEILING}")
        f, positive = key
        deps = goals[key]
        if isinstance(f, Atom):
            if (f, not positive) in goals:
                return deps | goals[f, not positive]
            continue
        if isinstance(f, (Top, Bot)):
            if isinstance(f, Top) != positive:
                return deps
            continue
        if isinstance(f, Iff):
            branches = ((strip_nots(f.left, True), strip_nots(f.right, positive)),
                        (strip_nots(f.left, False), strip_nots(f.right, not positive)))
        elif isinstance(f, MODAL_NODES):
            if not f.facts & CLEAN:
                cnf = companion(Not(f) if positive else f).to_formula()
                _queue(goals, todo, ((cnf, False),), deps)
            continue  # a clean box or diamond is read once every goal is expanded
        elif junction(f, positive):
            _queue(goals, todo, spine(f, positive, set()), deps)
            continue
        else:
            branches = [(operand,) for operand in dict.fromkeys(spine(f, positive, set()))]
        point = frozenset((expanded,))
        goal_mark, todo_mark = len(goals), len(todo)
        clash = frozenset()
        for branch in branches:
            while len(goals) > goal_mark:
                goals.popitem()
            del todo[todo_mark:]
            _queue(goals, todo, branch, deps | point)
            result = yield _tableau(goals, todo, head, steps)
            if isinstance(result, tuple) or expanded not in result:
                return result
            clash |= result
        return clash - point
    atoms, boxes, diamonds = set(), ({}, {}), ({}, {})
    for (f, positive), deps in goals.items():
        if isinstance(f, Atom):
            if positive:
                atoms.add(f.prop)
        elif isinstance(f, MODAL_NODES) and f.facts & CLEAN:
            content = strip_nots(f.child, positive)
            is_box = isinstance(f, (WBox, BBox)) == positive
            (boxes if is_box else diamonds)[isinstance(f, BLACK_MODAL)].setdefault(content, deps)
    children = [], []
    for own_children, own_boxes, own_diamonds in zip(children, boxes, diamonds):
        for content, deps in own_diamonds.items():
            successor = {**own_boxes, content: deps}
            child = yield _tableau(successor, list(successor), 0, steps)
            if not isinstance(child, tuple):
                return child | deps
            own_children.append(child)
    return frozenset(atoms), *children


def _trees_to_model(trees: list) -> tuple[Model, list[str]]:
    """The model of tableau witnesses, and the names of their roots: states
    n0, n1, ... in pre-order, tree after tree."""
    states: list[str] = []
    roots: list[str] = []
    edges = set()
    valuation: dict = {}
    stack = [(tree, None) for tree in reversed(trees)]
    while stack:
        (atoms, white, black), parent = stack.pop()
        name = f"n{len(states)}"
        states.append(name)
        for prop in atoms:
            valuation.setdefault(prop, set()).add(name)
        if parent is None:
            roots.append(name)
        else:
            edges.add((parent, name))
        stack.extend((child, name) for child in reversed(white + black))
    return Model(tuple(states), frozenset(edges),
                 {p: frozenset(ws) for p, ws in valuation.items()}), roots


def k_sat(phi: Formula) -> Verdict:
    """Sound and complete satisfiability of an I-free formula, by the tableau.

    A one-sided formula holds at a pair iff it holds in K at its side's
    coordinate, so its witness is the tableau's tree at (n0, n0). Any other
    witness hangs the root's white and black subtrees off two copies of the
    root, its pair. A formula with `I` raises `ContainsI`; past
    `DEFAULT_STEP_CEILING` goal expansions, or a companion's ceiling, the
    tableau raises `ResourceGuard`.
    """
    if not phi.facts & I_FREE:
        raise ContainsI("the tableau decides the I-free fragment only")
    root = strip_nots(phi)
    tree = drive(_tableau({root: frozenset()}, [root], 0, count(1)))
    if not isinstance(tree, tuple):
        return Verdict("UNSAT")
    atoms, white, black = tree
    trees = [tree] if phi.facts & ONE_SIDED else [(atoms, white, []), (atoms, [], black)]
    model, roots = _trees_to_model(trees)
    return Verdict("SAT", model, (roots[0], roots[-1]))


# ---------------------------------------------------------------------------
# Decision procedure for the I-free fragment


def lhs_minus_valid(phi: Formula) -> Verdict:
    """Validity of an I-free formula: one `k_sat` call on ~phi. Its witness,
    once `check` has confirmed that it falsifies phi, is the countermodel."""
    verdict = k_sat(Not(phi))
    if verdict.status == "UNSAT":
        return Verdict("VALID")
    if check(verdict.model, *verdict.pair, phi):
        raise LhsError("internal error: countermodel failed to falsify the input")
    return Verdict("INVALID", verdict.model, verdict.pair)


def lhs_minus_sat(phi: Formula) -> Verdict:
    """Satisfiability of an I-free formula: one `k_sat` call, whose witness
    `check` confirms before it is returned."""
    verdict = k_sat(phi)
    if verdict.status == "SAT" and not check(verdict.model, *verdict.pair, phi):
        raise LhsError("internal error: witness failed to satisfy the input")
    return verdict


# ---------------------------------------------------------------------------
# Bounded search for the full language


def lhs_bounded_sat(phi: Formula, max_states: int) -> Verdict:
    """Search every model with at most `max_states` states for a pair satisfying `phi`.

    Exhaustion means "no model up to the bound", never "unsatisfiable":
    satisfiability of the full language is undecidable, so only this
    semi-procedure is offered. The search is `bruteforce.find_model` on the
    numpy kernel `bruteforce.truth_table`, which shares nothing with the
    tableau or the companion; its witness is re-verified through the
    reference truth definition before it is returned. The first call loads
    numpy.
    """
    from . import bruteforce

    found = bruteforce.find_model(phi, max_states)
    if found is None:
        return Verdict("NO-MODEL-UP-TO-BOUND")
    model, s, t = found
    if not check(model, s, t, phi):
        raise LhsError("internal error: bounded-search witness failed re-verification")
    return Verdict("SAT", model, (s, t))


brute_force_sat_oracle = lhs_bounded_sat

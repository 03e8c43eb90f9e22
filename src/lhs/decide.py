"""Satisfiability and validity: K tableau, the I-free decision procedure,
and bounded search for the full language."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import count

from .errors import LhsError, MixedFormula, ResourceGuard
from .model import Model, disjoint_union
from .normal import CleanCNF, companion
from .semantics import check
from .syntax import (
    MODAL_NODES,
    ONE_SIDED,
    And,
    Atom,
    BBox,
    Bot,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    WBox,
    drive,
)


@dataclass(frozen=True)
class KVerdict:
    status: str  # "SAT" | "UNSAT"
    model: Model | None = None
    state: str | None = None


@dataclass(frozen=True)
class LHSVerdict:
    status: str  # "VALID" | "INVALID" | "SAT" | "UNSAT"
    model: Model | None = None
    pair: tuple[str, str] | None = None
    # For VALID: one record per companion conjunct, ("white"|"black", formula).
    certificate: tuple[tuple[str, Formula], ...] | None = None
    companion: CleanCNF | None = None


@dataclass(frozen=True)
class BoundedVerdict:
    status: str  # "SAT" | "NO-MODEL-UP-TO-BOUND"
    bound: int
    model: Model | None = None
    pair: tuple[str, str] | None = None


# ---------------------------------------------------------------------------
# K tableau

DEFAULT_STEP_CEILING = 1_000_000


@dataclass
class _TreeNode:
    atoms: frozenset
    children: list = field(default_factory=list)


def _goal(f: Formula, positive: bool) -> tuple[Formula, bool]:
    """The goal (f, positive), which stands for `f` or `~f`, with its `~`s read
    off: a goal is never a negation."""
    while isinstance(f, Not):
        f, positive = f.child, not positive
    return f, positive


def _queue(goals: dict, todo: deque, keys, deps: int) -> None:
    for key in keys:
        if key not in goals:
            goals[key] = deps
            todo.append(key)


def _tableau(goals: dict, todo: deque, depth: int, steps):
    """Satisfiability of a set of goals in basic modal logic K.

    A goal is a (subformula, polarity) pair, read the way the companion reads
    them, so no negation normal form is written out: `->` is `|` with its left
    operand negated, and `<->` is one branch point whose two branches each add
    both operands, at equal polarities or, negated, at opposite ones.

    `goals` maps each goal of this state on this branch to the set of branch
    points it depends on: an int whose bit d stands for the branch point at
    depth d of the search path, `depth` being the number of branch points
    above this walk. `todo` holds the goals not yet expanded, in order: a
    conjunction queues its operands and a branch point the goals of its
    branch, so the order, and with it the witness, does not depend on string
    hashing. The walk consumes both. Every goal taken from `todo` counts
    against `DEFAULT_STEP_CEILING`; `steps` numbers them.

    Returns a tree witness (nodes carry their positive atoms) or, on a clash,
    the set of branch points the clash depends on. Two complementary literals
    (or `false`) depend on their sets; a diamond whose successor clashes adds
    its own set to the successor's, which holds only sets of the boxes that
    took part. A branch point whose first branch fails without it in the
    clash returns that clash and skips the second branch (backjumping,
    Horrocks & Patel-Schneider 1999). Depth is bounded by modal depth, so no
    loop check is needed.
    """
    while todo:
        key = todo.popleft()
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
            branches = ((_goal(f.left, True), _goal(f.right, positive)),
                        (_goal(f.left, False), _goal(f.right, not positive)))
        elif isinstance(f, (And, Or, Implies)):
            operands = (_goal(f.left, positive != isinstance(f, Implies)),
                        _goal(f.right, positive))
            if isinstance(f, And) == positive:  # a conjunction
                del goals[key]
                _queue(goals, todo, operands, deps)
                continue
            branches = operands[:1], operands[1:]
        else:
            continue  # a box or a diamond, read once every goal is expanded
        del goals[key]
        bit = 1 << depth
        first_goals, first_todo = dict(goals), deque(todo)
        _queue(first_goals, first_todo, branches[0], deps | bit)
        first = yield _tableau(first_goals, first_todo, depth + 1, steps)
        if isinstance(first, _TreeNode) or not first & bit:
            return first
        _queue(goals, todo, branches[1], deps | bit)
        second = yield _tableau(goals, todo, depth + 1, steps)
        if isinstance(second, _TreeNode) or not second & bit:
            return second
        return (first | second) & ~bit
    atoms, boxes, diamonds = set(), {}, {}
    for (f, positive), deps in goals.items():
        if isinstance(f, Atom):
            if positive:
                atoms.add(f.prop)
        elif isinstance(f, MODAL_NODES):
            content = _goal(f.child, positive)
            is_box = isinstance(f, (WBox, BBox)) == positive
            (boxes if is_box else diamonds).setdefault(content, deps)
    node = _TreeNode(frozenset(atoms))
    for content, deps in diamonds.items():
        successor = {**boxes, content: deps}
        child = yield _tableau(successor, deque(successor), depth, steps)
        if not isinstance(child, _TreeNode):
            return child | deps
        node.children.append(child)
    return node


def _emit(node: _TreeNode, states: list, edges: set, valuation: dict):
    """The walk of `_tree_to_model`: names states n0, n1, ... in pre-order."""
    name = f"n{len(states)}"
    states.append(name)
    for prop in node.atoms:
        valuation.setdefault(prop, set()).add(name)
    for child in node.children:
        edges.add((name, (yield _emit(child, states, edges, valuation))))
    return name


def _tree_to_model(root: _TreeNode) -> tuple[Model, str]:
    states: list[str] = []
    edges = set()
    valuation: dict = {}
    root_name = drive(_emit(root, states, edges, valuation))
    return (
        Model(tuple(states), frozenset(edges), {p: frozenset(ws) for p, ws in valuation.items()}),
        root_name,
    )


def k_sat(phi: Formula) -> KVerdict:
    """Sound and complete satisfiability for a one-sided formula in K.

    On SAT the witness is the extracted tableau tree (acyclic, in-degree one
    except at the root). More than `DEFAULT_STEP_CEILING` goal expansions
    raise `ResourceGuard`.
    """
    if not phi.facts & ONE_SIDED:
        raise MixedFormula("K satisfiability requires a white-only or black-only formula")
    root = _goal(phi, True)
    tree = drive(_tableau({root: 0}, deque([root]), 0, count(1)))
    if not isinstance(tree, _TreeNode):
        return KVerdict("UNSAT")
    model, root = _tree_to_model(tree)
    return KVerdict("SAT", model, root)


def k_valid(phi: Formula) -> tuple[bool, KVerdict | None]:
    """Validity in K; on failure also returns the countermodel verdict."""
    verdict = k_sat(Not(phi))
    if verdict.status == "UNSAT":
        return True, None
    return False, verdict


# ---------------------------------------------------------------------------
# Decision procedure for the I-free fragment


def lhs_minus_valid(phi: Formula) -> LHSVerdict:
    """Validity of an I-free formula.

    The companion splits phi into conjuncts psi_i | gamma_i; the formula is
    valid iff every conjunct has a K-valid side. An invalid conjunct yields
    two K countermodels; their disjoint union falsifies phi at the paired
    roots, and that union, once `check` has confirmed it, is the countermodel
    returned. The companion's padding names never hold in it: a pad is a
    contradiction, and the tableau tries a negated atom false first. The
    companion raises `ContainsI` when phi is not I-free.
    """
    comp = companion(phi)
    certificate = []
    for psi, gamma in comp.conjuncts:
        counter_white = k_sat(Not(psi))
        if counter_white.status == "UNSAT":
            certificate.append(("white", psi))
            continue
        counter_black = k_sat(Not(gamma))
        if counter_black.status == "UNSAT":
            certificate.append(("black", gamma))
            continue
        union, rename_m, rename_n = disjoint_union(counter_white.model, counter_black.model)
        s = rename_m[counter_white.state]
        t = rename_n[counter_black.state]
        if check(union, s, t, phi):
            raise LhsError(
                "internal error: countermodel failed to falsify the input"
            )
        return LHSVerdict("INVALID", union, (s, t), companion=comp)
    return LHSVerdict("VALID", certificate=tuple(certificate), companion=comp)


def lhs_minus_sat(phi: Formula) -> LHSVerdict:
    """Satisfiability of an I-free formula, with a finite witness on SAT.

    The witness is the countermodel of ~phi from `lhs_minus_valid`: `check`
    has already found ~phi false there, so phi holds at its pair.
    """
    verdict = lhs_minus_valid(Not(phi))
    if verdict.status == "INVALID":
        return LHSVerdict("SAT", verdict.model, verdict.pair)
    return LHSVerdict("UNSAT")


# ---------------------------------------------------------------------------
# Bounded search for the full language


def lhs_bounded_sat(phi: Formula, max_states: int) -> BoundedVerdict:
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
        return BoundedVerdict("NO-MODEL-UP-TO-BOUND", max_states)
    model, s, t = found
    if not check(model, s, t, phi):
        raise LhsError("internal error: bounded-search witness failed re-verification")
    return BoundedVerdict("SAT", max_states, model, (s, t))


brute_force_sat_oracle = lhs_bounded_sat

"""Satisfiability and validity: K tableau, the I-free decision procedure,
and bounded search for the full language."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from . import bruteforce
from .errors import ContainsI, LhsError, MixedFormula
from .model import Model, disjoint_union
from .normal import CleanCNF, companion
from .semantics import check
from .syntax import (
    And,
    Atom,
    BBox,
    BDia,
    Bot,
    Formula,
    Not,
    Or,
    RESERVED_PREFIX,
    WBox,
    WDia,
    classify,
    drive,
    nnf,
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


@dataclass
class _TreeNode:
    atoms: frozenset
    children: list = field(default_factory=list)


def _tableau(goals: dict):
    """Satisfiability of a set of NNF formulas in basic modal logic K.

    `goals` holds the formulas as keys; the walk consumes it. Dicts keep
    insertion order, so the expansion order, and with it the witness, does
    not depend on string hashing: the first `&` or `|` is expanded first,
    `&` in this frame and each branch of `|` as a sub-walk. Returns a tree
    witness (nodes carry their positive atoms) or None. Depth is bounded by
    modal depth, so no loop check is needed.
    """
    todo = deque(goals)  # the keys not yet looked at, in order
    while todo:
        f = todo.popleft()
        if isinstance(f, And):
            del goals[f]
            for g in (f.left, f.right):
                if g not in goals:
                    goals[g] = None
                    todo.append(g)
        elif isinstance(f, Or):
            del goals[f]
            return ((yield _tableau({**goals, f.left: None}))
                    or (yield _tableau({**goals, f.right: None})))
    # Only literals, constants, boxes and diamonds remain.
    if any(isinstance(f, Bot) for f in goals):
        return None
    positive = {f.prop for f in goals if isinstance(f, Atom)}
    negative = {f.child.prop for f in goals if isinstance(f, Not)}
    if positive & negative:
        return None
    box_contents = {f.child: None for f in goals if isinstance(f, (WBox, BBox))}
    node = _TreeNode(frozenset(positive))
    for f in goals:
        if isinstance(f, (WDia, BDia)):
            child = yield _tableau({**box_contents, f.child: None})
            if child is None:
                return None
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
    except at the root).
    """
    sc = classify(phi)
    if not (sc.white_only or sc.black_only):
        raise MixedFormula("K satisfiability requires a white-only or black-only formula")
    tree = drive(_tableau({nnf(phi): None}))
    if tree is None:
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


def _strip_fresh(model: Model) -> Model:
    val = {
        p: ws
        for p, ws in model.valuation.items()
        if not p.name.startswith(RESERVED_PREFIX)
    }
    return Model(model.states, model.edges, val)


def lhs_minus_valid(phi: Formula) -> LHSVerdict:
    """Validity of an I-free formula.

    The companion splits phi into conjuncts psi_i | gamma_i; the formula is
    valid iff every conjunct has a K-valid side. An invalid conjunct yields
    two K countermodels whose disjoint union falsifies phi at the paired
    roots; the witness is re-verified before being returned.
    """
    if not classify(phi).i_free:
        raise ContainsI("the decision procedure covers the I-free fragment only")
    comp = companion(phi)
    certificate = []
    for psi, gamma in comp.conjuncts:
        ok_white, counter_white = k_valid(psi)
        if ok_white:
            certificate.append(("white", psi))
            continue
        ok_black, counter_black = k_valid(gamma)
        if ok_black:
            certificate.append(("black", gamma))
            continue
        union, rename_m, rename_n = disjoint_union(counter_white.model, counter_black.model)
        s = rename_m[counter_white.state]
        t = rename_n[counter_black.state]
        if check(union, s, t, phi):
            raise LhsError(
                "internal error: countermodel failed to falsify the input"
            )
        return LHSVerdict("INVALID", _strip_fresh(union), (s, t), companion=comp)
    return LHSVerdict("VALID", certificate=tuple(certificate), companion=comp)


def lhs_minus_sat(phi: Formula) -> LHSVerdict:
    """Satisfiability of an I-free formula, with a finite witness on SAT."""
    verdict = lhs_minus_valid(Not(phi))
    if verdict.status == "INVALID":
        s, t = verdict.pair
        if not check(verdict.model, s, t, phi):
            raise LhsError("internal error: witness failed to satisfy the input")
        return LHSVerdict("SAT", verdict.model, verdict.pair)
    return LHSVerdict("UNSAT")


# ---------------------------------------------------------------------------
# Bounded search for the full language


def lhs_bounded_sat(phi: Formula, max_states: int, force: bool = False) -> BoundedVerdict:
    """Search every model with at most `max_states` states for a pair satisfying `phi`.

    Exhaustion means "no model up to the bound", never "unsatisfiable":
    satisfiability of the full language is undecidable, so only this
    semi-procedure is offered. The search is `bruteforce.find_model` on the
    numpy kernel `semantics.truth_table`, which shares nothing with the
    tableau or the companion; its witness is re-verified through the
    reference truth definition before it is returned.
    """
    found = bruteforce.find_model(phi, max_states, force=force)
    if found is None:
        return BoundedVerdict("NO-MODEL-UP-TO-BOUND", max_states)
    model, s, t = found
    if not check(model, s, t, phi):
        raise LhsError("internal error: bounded-search witness failed re-verification")
    return BoundedVerdict("SAT", max_states, model, (s, t))


brute_force_sat_oracle = lhs_bounded_sat

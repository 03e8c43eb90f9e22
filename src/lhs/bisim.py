"""Bisimulations for the two-dimensional semantics.

A bisimulation relates pairs of evaluation points across two models; besides
the four back-and-forth clauses (one per coordinate and direction) it demands
atom agreement at the respective coordinates and that diagonal pairs map to
diagonal pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceGuard
from .model import Model, State
from .syntax import Side

Quad = tuple[tuple[State, State], tuple[State, State]]

DEFAULT_QUAD_CEILING = 2_000_000


@dataclass(frozen=True)
class PairRelation:
    left: Model
    right: Model
    pairs: frozenset[Quad]

    def __post_init__(self):
        for (s, t), (s2, t2) in self.pairs:
            self.left.require_state(s)
            self.left.require_state(t)
            self.right.require_state(s2)
            self.right.require_state(t2)


@dataclass(frozen=True)
class ClauseViolation:
    clause: str
    quad: Quad

    def __str__(self):
        return f"clause {self.clause} fails at {self.quad}"


def _atoms_agree(m: Model, s: State, t: State, n: Model, s2: State, t2: State,
                 props) -> bool:
    for p in props:
        here = (s if p.side is Side.LEFT else t) in m.truth_set(p)
        there = (s2 if p.side is Side.LEFT else t2) in n.truth_set(p)
        if here != there:
            return False
    return True


def largest_bisimulation(m: Model, n: Model,
                         ceiling: int = DEFAULT_QUAD_CEILING) -> PairRelation:
    """Greatest bisimulation between two finite models.

    Computed as a fixpoint over quadruples: start from atom agreement plus the
    diagonal clause, then repeatedly drop quadruples violating a back-and-forth
    clause. The result satisfies all six clauses, or is empty.
    """
    size = (len(m.states) * len(n.states)) ** 2
    if size > ceiling:
        raise ResourceGuard(
            f"{size} candidate quadruples exceed the ceiling of {ceiling}"
        )
    props = sorted(set(m.valuation) | set(n.valuation), key=str)
    succ_m, succ_n = m.successor_map, n.successor_map
    current = {
        ((s, t), (s2, t2))
        for s in m.states
        for t in m.states
        for s2 in n.states
        for t2 in n.states
        if (s == t) == (s2 == t2) and _atoms_agree(m, s, t, n, s2, t2, props)
    }
    changed = True
    while changed:
        changed = False
        for quad in list(current):
            if _zigzag_violation(quad, current, succ_m, succ_n) is not None:
                current.discard(quad)
                changed = True
    return PairRelation(m, n, frozenset(current))


def _zigzag_violation(quad: Quad, pairs, succ_m, succ_n) -> str | None:
    (s, t), (s2, t2) = quad
    for v in succ_m[s]:
        if not any(((v, t), (v2, t2)) in pairs for v2 in succ_n[s2]):
            return "white-forth"
    for v in succ_m[t]:
        if not any(((s, v), (s2, v2)) in pairs for v2 in succ_n[t2]):
            return "black-forth"
    for v2 in succ_n[s2]:
        if not any(((v, t), (v2, t2)) in pairs for v in succ_m[s]):
            return "white-back"
    for v2 in succ_n[t2]:
        if not any(((s, v), (s2, v2)) in pairs for v in succ_m[t]):
            return "black-back"
    return None


def are_bisimilar(m: Model, s: State, t: State, n: Model, s2: State, t2: State,
                  ceiling: int = DEFAULT_QUAD_CEILING) -> bool:
    relation = largest_bisimulation(m, n, ceiling=ceiling)
    return ((s, t), (s2, t2)) in relation.pairs


def check_bisimulation_witness(relation: PairRelation) -> ClauseViolation | None:
    """None when every quadruple satisfies all six clauses, else the first failure."""
    m, n = relation.left, relation.right
    props = sorted(set(m.valuation) | set(n.valuation), key=str)
    succ_m, succ_n = m.successor_map, n.successor_map
    for quad in sorted(relation.pairs):
        (s, t), (s2, t2) = quad
        if not _atoms_agree(m, s, t, n, s2, t2, props):
            return ClauseViolation("atom-agreement", quad)
        clause = _zigzag_violation(quad, relation.pairs, succ_m, succ_n)
        if clause is not None:
            return ClauseViolation(clause, quad)
        if (s == t) != (s2 == t2):
            return ClauseViolation("diagonal", quad)
    return None

"""Bisimulations for the two-dimensional semantics.

A bisimulation relates pairs of evaluation points across two models. It is a
two-colour bisimulation of the *pair graph*: its nodes are the pairs (s, t)
of a model, labelled by the diagonal bit and the atoms at their own
coordinates, with edges (s, t) -> (v, t) (white) and (s, t) -> (s, v)
(black) for every successor v.
"""

from __future__ import annotations

from .errors import ResourceGuard
from .model import Model, State
from .syntax import Record, Side

Quad = tuple[tuple[State, State], tuple[State, State]]

DEFAULT_CEILING = 2_000_000


class PairRelation(Record):
    left: Model
    right: Model
    pairs: frozenset[Quad]

    def __post_init__(self):
        for (s, t), (s2, t2) in self.pairs:
            self.left.require_state(s, t)
            self.right.require_state(s2, t2)


class ClauseViolation(Record):
    clause: str
    quad: Quad

    def __str__(self):
        return f"clause {self.clause} fails at {self.quad}"


def _labels(model: Model, props) -> tuple[dict[State, int], dict[State, int]]:
    """Per state, the bit set of the left and of the right props of `props`
    that hold there: a pair (s, t) reads its atoms as left[s] and right[t]."""
    left, right = dict.fromkeys(model.states, 0), dict.fromkeys(model.states, 0)
    for j, p in enumerate(props):
        bits = left if p.side is Side.LEFT else right
        for w in model.truth_set(p):
            bits[w] |= 1 << j
    return left, right


def _blocks(m: Model, n: Model, stop=lambda block, at: False) -> dict[tuple[int, State, State], int]:
    """The block of each pair node (0, s, t) of `m` and (1, s, t) of `n`.

    A pair node starts in the block of its diagonal bit, the white class of s
    and the black class of t: the single states of both models, with white
    edges only, refined from their left and from their right atoms. A pair
    bisimulation projected onto either coordinate is a bisimulation of single
    states, so this start parts no related pairs. `stop(block, at)`
    (`block[at[i, s, t]]` is a node's block), checked on the start and after
    each pair round, ends refinement early, short of the settled partition.
    Every round is charged against `DEFAULT_CEILING`; a pair graph one of
    whose rounds alone would pass it is refused before anything is built.
    """
    models, props = (m, n), sorted(set(m.valuation) | set(n.valuation), key=str)
    work = sum(len(x.states) * (len(x.states) + 2 * len(x.edges)) for x in models)
    what = f"refinement reads {work} pair-graph nodes and edges"
    _charge([0], work, what, 1)
    bits = [_labels(x, props) for x in models]
    states = [(i, s) for i, x in enumerate(models) for s in x.states]
    pos = {node: j for j, node in enumerate(states)}
    succ = [[pos[i, v] for v in models[i].successor_map[s]] for i, s in states]
    cost, spent, no_edges = len(states) + sum(map(len, succ)), [0], [()] * len(states)
    white, black = (_refine(_number(bits[i][side][s] for i, s in states), lambda: (succ, no_edges),
                            cost, spent, f"refinement of single states by {atoms} atoms reads "
                                         f"{cost} states and edges")
                    for side, atoms in enumerate(("left", "right")))
    keys = [(i, s, t) for i, x in enumerate(models) for s in x.states for t in x.states]
    at = {key: i for i, key in enumerate(keys)}
    block = _number((s == t, white[pos[i, s]], black[pos[i, t]]) for i, s, t in keys)
    return dict(zip(keys, _refine(
        block, lambda: ([[at[i, v, t] for v in models[i].successor_map[s]] for i, s, t in keys],
                        [[at[i, s, v] for v in models[i].successor_map[t]] for i, s, t in keys]),
        work, spent, what, lambda b: stop(b, at))))


def _refine(block: list[int], graph, cost: int, spent: list[int], what: str,
            stop=lambda block: False) -> list[int]:
    """Signature refinement of `block`: a node's next block is its block with the
    sets of blocks of its white and of its black successors, listed by `graph()`
    when the first round runs, until `stop(block)` holds, every node has a block
    of its own or a round splits none. A round adds `cost` to `spent[0]`."""
    k = 1
    # Numbered in order of first use: an unchanged count is an unchanged
    # partition, and a discrete one cannot split further.
    while not (stop(block) or max(block) == len(block) - 1):
        _charge(spent, cost, what, k)
        whites, blacks = graph() if k == 1 else (whites, blacks)
        refined = _number((b, frozenset(map(block.__getitem__, ws)),
                           frozenset(map(block.__getitem__, bs)))
                          for b, ws, bs in zip(block, whites, blacks))
        if max(refined) == max(block):
            return refined
        block, k = refined, k + 1
    return block


def _charge(spent: list[int], cost: int, what: str, k: int):
    if spent[0] + cost > DEFAULT_CEILING:
        raise ResourceGuard(f"{what} a round, so round {k} would pass the ceiling of "
                            f"{DEFAULT_CEILING}")
    spent[0] += cost


def _number(signatures) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(sig, len(ids)) for sig in signatures]


def largest_bisimulation(m: Model, n: Model) -> PairRelation:
    """Greatest bisimulation between two finite models: the quadruples whose
    pairs share a block. `DEFAULT_CEILING` bounds the refinement's work
    (`_blocks`) and the quadruples listed, each checked before the work is done.
    """
    k = len(m.states) ** 2  # refinement stops once no block holds pair nodes of both models
    members: dict[int, tuple[list, list]] = {}
    for (side, s, t), block in _blocks(m, n, lambda b, at: set(b[:k]).isdisjoint(b[k:])).items():
        members.setdefault(block, ([], []))[side].append((s, t))
    if (size := sum(len(a) * len(b) for a, b in members.values())) > DEFAULT_CEILING:
        raise ResourceGuard(f"{size} related quadruples exceed the ceiling of {DEFAULT_CEILING}")
    return PairRelation(m, n, frozenset((a, b) for here, there in members.values()
                                        for a in here for b in there))


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


def are_bisimilar(m: Model, s: State, t: State, n: Model, s2: State, t2: State) -> bool:
    """Whether (s, t) in `m` and (s2, t2) in `n` share a block; builds no quadruple."""
    m.require_state(s, t)
    n.require_state(s2, t2)
    blocks = _blocks(m, n, lambda block, at: block[at[0, s, t]] != block[at[1, s2, t2]])
    return blocks[0, s, t] == blocks[1, s2, t2]


def check_bisimulation_witness(relation: PairRelation) -> ClauseViolation | None:
    """None when every quadruple satisfies all six clauses, else the first failure."""
    m, n = relation.left, relation.right
    props = sorted(set(m.valuation) | set(n.valuation), key=str)
    (m_left, m_right), (n_left, n_right) = _labels(m, props), _labels(n, props)
    for quad in sorted(relation.pairs):
        (s, t), (s2, t2) = quad
        if (m_left[s], m_right[t]) != (n_left[s2], n_right[t2]):
            return ClauseViolation("atom-agreement", quad)
        clause = _zigzag_violation(quad, relation.pairs, m.successor_map, n.successor_map)
        if clause is not None:
            return ClauseViolation(clause, quad)
        if (s == t) != (s2 == t2):
            return ClauseViolation("diagonal", quad)
    return None

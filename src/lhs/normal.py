"""Normal forms: propositional CNF and the clean CNF companion.

The clean CNF companion rewrites any I-free formula into an equivalent
conjunction of disjunctions psi_i | gamma_i, with psi_i built from left atoms
and white modalities only and gamma_i from right atoms and black modalities
only. This splitting is what reduces validity in the I-free logic to plain
K validity of the one-sided parts. An empty side is `false`, so the printed
companion is a formula of the input language.

The companion is built in one bottom-up pass over the negation normal form,
read off each (subformula, polarity) pair of the input rather than written
out, so no negation is ever pushed through a CNF and `<->` does not double
the input. Maximal one-sided subformulas stay whole, `&` concatenates, `|`
distributes, boxes move onto their own side (the R axiom), and a diamond
over conjuncts (psi_i, gamma_i) becomes the conjunction over sets S of
conjuncts of <W>(&_S psi_i) | (|_S gamma_i), because the black parts gamma_i
do not change along white moves (mirrored for <B>); only the sets S that no
larger set implies are built. A chain of one junction (`a & b & c ...`, read
at its polarity) is one step, and so is a `~` chain, so each operand is read
once, not once per level of the chain: `syntax.spine` lists the operands, as
it does for `check` and the K tableau.

The propositional `prop_cnf` runs the same pass with every atom, and nothing
else, a block of its own side, so only the Boolean steps apply; so do they on
a clean formula, whose modalities all lie inside one-sided blocks. The
companion's blocks are read off the side bits that each formula carries from
construction, so no side check walks the formula.
"""

from __future__ import annotations

from itertools import chain

from .errors import ContainsI, ModalInput, NotClean, ResourceGuard
from .syntax import (
    BLACK_ONLY,
    CLEAN,
    I_FREE,
    ONE_SIDED,
    WHITE_ONLY,
    Atom,
    BBox,
    BDia,
    Bot,
    EqConst,
    Formula,
    Iff,
    MODAL_NODES,
    Not,
    Or,
    Record,
    Top,
    WBox,
    WDia,
    WHITE_MODAL,
    conjoin,
    disjoin,
    drive,
    junction,
    spine,
    strip_nots,
    subformulas,
)

DEFAULT_CLAUSE_CEILING = 50_000


# ---------------------------------------------------------------------------
# Propositional CNF


def prop_cnf(alpha: Formula) -> Formula:
    """Classically equivalent CNF of a propositional (modal-free, I-free) formula.

    Runs the companion's pass with every atom a block of its own side, so
    `->` and `<->` are expanded, negations pushed to literals and | distributed
    over &. Each clause lists its left literals before its right ones. Constants,
    repeated literals, repeated clauses and clauses with a complementary pair
    are dropped; a constant result is `true` or `false`. The pass's budget of
    `DEFAULT_CLAUSE_CEILING` conjuncts raises `ResourceGuard`.
    """
    if any(isinstance(sub, (*MODAL_NODES, EqConst)) for sub in subformulas(alpha)):
        raise ModalInput("CNF conversion expects a purely propositional formula")
    clauses = _conjuncts(alpha, _atom_block)
    if not clauses:
        return Top()
    return conjoin(disjoin(white + black) for white, black in clauses)


def _atom_block(f: Formula) -> int:
    """`prop_cnf`'s blocks: each atom is one, of its own side."""
    return f.facts & ONE_SIDED if isinstance(f, Atom) else 0


# ---------------------------------------------------------------------------
# Clean CNF


class CleanCNF(Record):
    """Conjunction of pairs (psi_i, gamma_i), psi_i white-only, gamma_i black-only."""

    conjuncts: tuple[tuple[Formula, Formula], ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise ValueError("a clean CNF needs at least one conjunct")
        for psi, gamma in self.conjuncts:
            if not psi.facts & WHITE_ONLY:
                raise ValueError(f"psi component is not white-only: {psi!r}")
            if not gamma.facts & BLACK_ONLY:
                raise ValueError(f"gamma component is not black-only: {gamma!r}")

    def to_formula(self) -> Formula:
        return conjoin(Or(psi, gamma) for psi, gamma in self.conjuncts)


def clean_to_cnf(phi: Formula) -> CleanCNF:
    """The companion of a clean formula; any other input raises `NotClean`."""
    if not phi.facts & CLEAN:
        raise NotClean(f"not a clean formula: {phi!r}")
    return companion(phi)


# ---------------------------------------------------------------------------
# The CNF pass, shared by the companion and `prop_cnf`
#
# A conjunct is a pair (white, black) of disjunct tuples; an empty tuple is
# false. A list of conjuncts is their conjunction; the empty list is true.


def _prune(conjuncts) -> list:
    """Drop conjuncts with a valid side and repeated conjuncts; keep order.

    A side is valid when it holds a complementary pair (`_walk` reads `true`
    off first). A conjunct with two empty sides is false, and so is the list.
    """
    out = {}
    for white, black in conjuncts:
        if not (white or black):
            return [((), ())]
        if not (_valid_side(white) or _valid_side(black)):
            out[white, black] = None
    return list(out)


def _valid_side(side: tuple) -> bool:
    # A set, as a scan of the tuple per literal made wide sides cubic.
    return not set(side).isdisjoint([d.child for d in side if isinstance(d, Not)])


def _charge(spent: list, count: int) -> None:
    """Count the `count` conjuncts a step is about to build into `spent[0]`,
    or refuse past `DEFAULT_CLAUSE_CEILING`: a conjunction charges what it
    adds, a disjunction its product and a diamond each new union."""
    if spent[0] + count > DEFAULT_CLAUSE_CEILING:
        raise ResourceGuard(
            f"CNF pass built {spent[0]} conjuncts and its next step would build "
            f"{count} more, over the ceiling of {DEFAULT_CLAUSE_CEILING}"
        )
    spent[0] += count


def _merge(a: tuple, b: tuple) -> tuple:
    return tuple(dict.fromkeys(a + b))


def _and(lists: list, spent: list) -> list:
    """Conjunction of conjunct lists, folded from the left."""
    out = dict.fromkeys(lists[0])
    for part in lists[1:]:
        _charge(spent, len(part))
        # Every list is pruned already, so only repeats can be new.
        if ((), ()) in out or part == [((), ())]:
            out = {((), ()): None}
        else:
            out.update(dict.fromkeys(part))
    return list(out)


def _or(lists: list, spent: list) -> list:
    """Disjunction of conjunct lists: their product, folded from the left.

    A run of one-conjunct lists adds the same disjuncts to every conjunct.
    `_merge` is associative, and a conjunct that is dropped or repeated stays
    so as it grows, so the run is merged into one conjunct first and the fold
    reads each disjunct once.
    """
    out, i = lists[0], 1
    while i < len(lists):
        part, i = lists[i], i + 1
        if len(part) == 1:
            run = [part[0]]
            while i < len(lists) and len(lists[i]) == 1:
                run.append(lists[i][0])
                i += 1
            part = [tuple(tuple(chain.from_iterable(side)) for side in zip(*run))]
        _charge(spent, len(out) * len(part))
        out = _prune((_merge(w1, w2), _merge(b1, b2)) for w1, b1 in out for w2, b2 in part)
    return out


def _box(conjuncts: list, white: bool) -> list:
    # The boxed side is one literal and the other side is pruned already, so
    # only repeats can go: `(a | b, c)` and `(a, b, c)` box to one conjunct.
    if white:
        return list(dict.fromkeys(((WBox(disjoin(w)),), b) for w, b in conjuncts))
    return list(dict.fromkeys((w, (BBox(disjoin(b)),)) for w, b in conjuncts))


def _diamond(conjuncts: list, white: bool, spent: list) -> list:
    """The diamond of the colour `white` names over a conjunct list.

    Write each conjunct as (own_i, other_i), `own` on the diamond's side.
    Every other_i is constant along the diamond's moves (dual of the R axiom),
    so dia(&_i (own_i | other_i)) is the conjunction over all sets S of
    (dia(&_S own_i) | |_S other_i). The conjunct of S is implied by that of
    S + {j} whenever other_j adds no disjunct to |_S other_i (as when other_j
    is empty), so only sets closed under this are built: one per distinct
    union U of other sides, with S the conjuncts whose other side lies in U.
    """
    dia = WDia if white else BDia
    pairs = [(w, b) if white else (b, w) for w, b in conjuncts]
    # Disjuncts become small ints, so that each formula is hashed once.
    index: dict[Formula, int] = {}
    others = [tuple(index.setdefault(d, len(index)) for d in other)
              for _, other in pairs]
    keys = [frozenset(other) for other in others]
    unions = {frozenset(): ()}
    for other, key in zip(others, keys):
        for union, ordered in list(unions.items()):
            grown = union | key
            if grown not in unions:
                _charge(spent, 1)
                unions[grown] = ordered + tuple(i for i in other if i not in union)
    disjuncts = list(index)
    out = []
    for union, ordered in unions.items():
        owns = [own for (own, _), key in zip(pairs, keys) if union >= key]
        if not all(owns):
            own = ()
        elif owns:
            own = (dia(conjoin(dict.fromkeys(map(disjoin, owns)))),)
        else:
            own = (dia(Top()),)
        other = tuple(disjuncts[i] for i in ordered)
        out.append((own, other) if white else (other, own))
    return _prune(out)


def _one_sided(f: Formula) -> int:
    """The companion's blocks: each one-sided formula is one, of its side."""
    return f.facts & ONE_SIDED


def _walk(f: Formula, positive: bool, parts: dict, expanded: set, block, spent: list):
    """Conjunct list of `f` (of `~f` if not `positive`; `f` is never a `~`),
    a walk for `syntax.drive`.

    It first walks, right to left, the (subformula, polarity) pairs it reads
    that `parts` lacks, `~`s read off, and stores their lists there: for `&`,
    `|` and `->` the operands of one `spine`, which stops at `block`s and
    shares `expanded` with every other spine of the pass. A subformula whose
    `block` bits are `WHITE_ONLY` or `BLACK_ONLY` stays whole on that side
    (on the white one when it is both, as a constant is). Each rule is that
    of `f` read at its polarity, as the negation normal form would have it:
    `->` is `|` with its left operand negated, and a negated box is the
    diamond rule and vice versa.
    """
    if isinstance(f, Top):
        return [] if positive else [((), ())]
    if isinstance(f, Bot):
        return [((), ())] if positive else []
    side = block(f)
    if side:
        leaf = (f if positive else Not(f),)
        return [(leaf, ())] if side & WHITE_ONLY else [((), leaf)]
    if isinstance(f, Iff):
        keys = [strip_nots(g, sign) for sign in (True, False) for g in (f.left, f.right)]
    elif isinstance(f, MODAL_NODES):
        keys = [strip_nots(f.child, positive)]
    else:
        keys = spine(f, positive, expanded, block)
    for key in reversed(keys):
        if key not in parts:
            parts[key] = yield _walk(*key, parts, expanded, block, spent)
    lists = [parts[key] for key in keys]
    if isinstance(f, MODAL_NODES):
        white = isinstance(f, WHITE_MODAL)
        if isinstance(f, (WBox, BBox)) == positive:
            return _box(lists[0], white)
        return _diamond(lists[0], white, spent)
    if isinstance(f, Iff):
        left, right, not_left, not_right = lists
        if not positive:  # ~(a <-> b) is a <-> ~b
            right, not_right = not_right, right
        return _and([_or([not_left, right], spent), _or([not_right, left], spent)], spent)
    return (_and if junction(f, positive) else _or)(lists, spent)


def _conjuncts(phi: Formula, block) -> list:
    """Conjunct list of `phi`, built bottom-up over its negation normal form,
    which is never written out: `_walk` reads each (subformula, polarity) pair once."""
    return drive(_walk(*strip_nots(phi), {}, set(), block, [0]))


def companion(phi: Formula) -> CleanCNF:
    """Clean CNF companion of an I-free formula.

    Built by the one pass over the negation normal form of `phi` that the
    module docstring describes; a maximal one-sided subformula that occurs
    negatively stays whole, negated. Conjuncts with a valid side are dropped
    and repeats removed. An empty side is `false`, so the printed companion
    parses back. The output is equivalent to the input on every model; a
    step that would take the conjuncts the pass has built past
    `DEFAULT_CLAUSE_CEILING` raises `ResourceGuard` before it runs.
    """
    if not phi.facts & I_FREE:
        raise ContainsI("the companion is defined on the I-free fragment only")
    conjuncts = _conjuncts(phi, _one_sided) or [((Top(),), ())]
    return CleanCNF(tuple((disjoin(w), disjoin(b)) for w, b in conjuncts))

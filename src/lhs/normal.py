"""Normal forms: propositional CNF, clean decomposition, clean CNF companion.

The clean CNF companion rewrites any I-free formula into an equivalent
conjunction of disjunctions psi_i | gamma_i, with psi_i built from left atoms
and white modalities only and gamma_i from right atoms and black modalities
only. This splitting is what reduces validity in the I-free logic to plain
K validity of the one-sided parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContainsI, ModalInput, NotClean, ResourceGuard
from .syntax import (
    And,
    Atom,
    BBox,
    BDia,
    Bot,
    EqConst,
    Formula,
    Iff,
    Implies,
    MODAL_NODES,
    Not,
    Or,
    PropName,
    RESERVED_PREFIX,
    Side,
    Top,
    WBox,
    WDia,
    classify,
    conjoin,
    disjoin,
    nnf,
    prop_names,
    subformulas,
    substitute,
)

DEFAULT_CLAUSE_CEILING = 100_000


class _FreshSupply:
    """Deterministic fresh-name source: one counter per top-level call."""

    def __init__(self, avoid: set[PropName]):
        self.avoid = set(avoid)
        self.next = 0

    def _take(self, k: int, sides) -> int:
        while any(PropName(side, f"{RESERVED_PREFIX}{k}") in self.avoid for side in sides):
            k += 1
        return k

    def pair(self) -> tuple[PropName, PropName]:
        k = self._take(self.next, (Side.LEFT, Side.RIGHT))
        self.next = k + 1
        return PropName(Side.LEFT, f"{RESERVED_PREFIX}{k}"), PropName(
            Side.RIGHT, f"{RESERVED_PREFIX}{k}"
        )

    def single(self, side: Side) -> PropName:
        k = self._take(self.next, (side,))
        self.next = k + 1
        return PropName(side, f"{RESERVED_PREFIX}{k}")


def _contradiction(prop: PropName) -> Formula:
    return And(Atom(prop), Not(Atom(prop)))


# ---------------------------------------------------------------------------
# Propositional CNF


def _is_literal(phi: Formula) -> bool:
    return isinstance(phi, Atom) or (isinstance(phi, Not) and isinstance(phi.child, Atom))


def prop_cnf(alpha: Formula, clause_ceiling: int = DEFAULT_CLAUSE_CEILING) -> Formula:
    """Classically equivalent CNF of a propositional (modal-free, I-free) formula.

    Eliminates -> and <->, pushes negations to literals, distributes | over &.
    Duplicate literals inside a clause and tautological clauses are dropped;
    nothing else is simplified.
    """
    if any(isinstance(sub, (*MODAL_NODES, EqConst)) for sub in subformulas(alpha)):
        raise ModalInput("CNF conversion expects a purely propositional formula")
    clauses = _cnf_clauses(nnf(alpha), clause_ceiling)
    return _clauses_to_formula(clauses, alpha)


_TRUE = object()
_FALSE = object()


def _cnf_clauses(nnf: Formula, ceiling: int) -> list[list[Formula]]:
    """Clauses as lists of literals; constants are propagated away."""

    def go(f: Formula):
        if _is_literal(f):
            return [[f]]
        if isinstance(f, Top):
            return _TRUE
        if isinstance(f, Bot):
            return _FALSE
        if isinstance(f, And):
            left, right = go(f.left), go(f.right)
            if left is _FALSE or right is _FALSE:
                return _FALSE
            if left is _TRUE:
                return right
            if right is _TRUE:
                return left
            return left + right
        if isinstance(f, Or):
            left, right = go(f.left), go(f.right)
            if left is _TRUE or right is _TRUE:
                return _TRUE
            if left is _FALSE:
                return right
            if right is _FALSE:
                return left
            if len(left) * len(right) > ceiling:
                raise ResourceGuard(
                    f"CNF distribution would exceed {ceiling} clauses"
                )
            out = []
            for c1 in left:
                for c2 in right:
                    merged = list(c1)
                    for lit in c2:
                        if lit not in merged:
                            merged.append(lit)
                    if not _tautological(merged):
                        out.append(merged)
            return out if out else _TRUE
        raise ModalInput(f"unexpected node in NNF: {f!r}")

    result = go(nnf)
    if result is _TRUE:
        return _TRUE
    if result is _FALSE:
        return _FALSE
    deduped = []
    for clause in result:
        out = []
        for lit in clause:
            if lit not in out:
                out.append(lit)
        if not _tautological(out):
            deduped.append(out)
    return deduped if deduped else _TRUE


def _tautological(clause) -> bool:
    positives = {lit.prop for lit in clause if isinstance(lit, Atom)}
    return any(
        isinstance(lit, Not) and lit.child.prop in positives for lit in clause
    )


def _clauses_to_formula(clauses, original: Formula) -> Formula:
    # A constant outcome has no CNF shape under the n,m >= 1 definition; fall
    # back to a tautological / contradictory clause over a variable of the
    # input (or a reserved one when the input mentions none).
    if clauses is _TRUE or clauses is _FALSE:
        names = sorted(prop_names(original), key=str)
        prop = names[0] if names else PropName(Side.LEFT, f"{RESERVED_PREFIX}0")
        if clauses is _TRUE:
            return Or(Atom(prop), Not(Atom(prop)))
        return And(Atom(prop), Not(Atom(prop)))
    return conjoin(disjoin(clause) for clause in clauses)


def is_cnf(phi: Formula) -> bool:
    """Shape check: a conjunction of disjunctions of literals."""

    def clause(f: Formula) -> bool:
        if isinstance(f, Or):
            return clause(f.left) and clause(f.right)
        return _is_literal(f)

    def conj(f: Formula) -> bool:
        if isinstance(f, And):
            return conj(f.left) and conj(f.right)
        return clause(f)

    return conj(phi)


# ---------------------------------------------------------------------------
# Clean decomposition


def clean_decompose(phi: Formula):
    """Abstract maximal one-sided subformulas into placeholder atoms.

    Returns (skeleton, blocks) where the skeleton is propositional over
    placeholder atoms (left placeholders for white blocks, right for black)
    and substituting `blocks` back reproduces `phi` syntactically. Identical
    blocks share one placeholder.
    """
    if not classify(phi).clean:
        raise NotClean(f"not a clean formula: {phi!r}")
    supply = _FreshSupply(prop_names(phi))
    block_to_prop: dict[Formula, PropName] = {}
    blocks: list[Formula] = []

    def placeholder(block: Formula, side: Side) -> Formula:
        if block not in block_to_prop:
            block_to_prop[block] = supply.single(side)
            blocks.append(block)
        return Atom(block_to_prop[block])

    def go(f: Formula) -> Formula:
        sc = classify(f)
        if sc.white_only:
            return placeholder(f, Side.LEFT)
        if sc.black_only:
            return placeholder(f, Side.RIGHT)
        if isinstance(f, Not):
            return Not(go(f.child))
        if isinstance(f, (And, Or, Implies, Iff)):
            return type(f)(go(f.left), go(f.right))
        raise NotClean(f"not a clean formula: {phi!r}")

    skeleton = go(phi)
    return skeleton, blocks, block_to_prop


def recompose(skeleton: Formula, block_to_prop: dict[Formula, PropName]) -> Formula:
    left = {p: b for b, p in block_to_prop.items() if p.side is Side.LEFT}
    right = {p: b for b, p in block_to_prop.items() if p.side is Side.RIGHT}
    return substitute(skeleton, left, right)


# ---------------------------------------------------------------------------
# Clean CNF


@dataclass(frozen=True)
class CleanCNF:
    """Conjunction of pairs (psi_i, gamma_i), psi_i white-only, gamma_i black-only."""

    conjuncts: tuple[tuple[Formula, Formula], ...]

    def __post_init__(self):
        if not self.conjuncts:
            raise ValueError("a clean CNF needs at least one conjunct")
        for psi, gamma in self.conjuncts:
            if not classify(psi).white_only:
                raise ValueError(f"psi component is not white-only: {psi!r}")
            if not classify(gamma).black_only:
                raise ValueError(f"gamma component is not black-only: {gamma!r}")

    def to_formula(self) -> Formula:
        return conjoin(Or(psi, gamma) for psi, gamma in self.conjuncts)


def is_clean_cnf_formula(phi: Formula) -> bool:
    """Shape check: clean with a CNF propositional skeleton."""
    if not classify(phi).clean:
        return False
    skeleton, _, _ = clean_decompose(phi)
    return is_cnf(skeleton)


def clean_to_cnf(phi: Formula, _supply: _FreshSupply | None = None) -> CleanCNF:
    """Equivalent clean CNF of a clean formula.

    Decomposes, converts the propositional skeleton to CNF, substitutes the
    one-sided blocks back, and splits every clause by side. Both sides of
    every conjunct carry a contradictory pad (p & ~p over one fresh variable
    pair per call), so the output shape is uniform.
    """
    supply = _supply if _supply is not None else _FreshSupply(prop_names(phi))
    skeleton, _, block_to_prop = clean_decompose(phi)
    skeleton = _fold_constant_blocks(skeleton, block_to_prop)
    cnf_skeleton = prop_cnf(skeleton)
    prop_to_block = {p: b for b, p in block_to_prop.items()}
    pad_left, pad_right = supply.pair()
    supply.avoid.add(pad_left)
    supply.avoid.add(pad_right)

    conjuncts = []
    for clause in _iter_and(cnf_skeleton):
        white: list[Formula] = []
        black: list[Formula] = []
        for lit in _iter_or(clause):
            prop = lit.child.prop if isinstance(lit, Not) else lit.prop
            block = prop_to_block.get(prop)
            if block is None:
                # Constant fallback literal from prop_cnf; it is one-sided.
                instantiated = lit
            else:
                instantiated = Not(block) if isinstance(lit, Not) else block
            side_class = classify(instantiated)
            if side_class.white_only:
                white.append(instantiated)
            else:
                black.append(instantiated)
        psi = disjoin([_contradiction(pad_left), *white])
        gamma = disjoin([_contradiction(pad_right), *black])
        conjuncts.append((psi, gamma))
    return CleanCNF(tuple(conjuncts))


def _block_constant(f: Formula):
    """True/False when the (modal-free fragment of the) block is constant.

    Recognizes the contradiction pads this module generates (a & ~a and their
    Boolean combinations) so repeated conversion rounds do not let dead pads
    snowball the clause count. Returns None when no constant is detected.
    """
    if isinstance(f, Top):
        return True
    if isinstance(f, Bot):
        return False
    if isinstance(f, Not):
        c = _block_constant(f.child)
        return None if c is None else not c
    if isinstance(f, (And, Or)):
        lits = {g for g in _iter_node(f, type(f)) if isinstance(g, Atom)}
        negs = {g.child for g in _iter_node(f, type(f))
                if isinstance(g, Not) and isinstance(g.child, Atom)}
        clashing = bool(lits & negs)
        cl, cr = _block_constant(f.left), _block_constant(f.right)
        if isinstance(f, And):
            if clashing or cl is False or cr is False:
                return False
            if cl is True and cr is True:
                return True
        else:
            if clashing or cl is True or cr is True:
                return True
            if cl is False and cr is False:
                return False
    return None


def _fold_constant_blocks(skeleton: Formula,
                          block_to_prop: dict[Formula, PropName]) -> Formula:
    constant = {}
    for block, prop in block_to_prop.items():
        value = _block_constant(block)
        if value is not None:
            constant[prop] = Top() if value else Bot()
    if not constant:
        return skeleton

    def go(f: Formula) -> Formula:
        if isinstance(f, Atom):
            return constant.get(f.prop, f)
        if isinstance(f, Not):
            return Not(go(f.child))
        if isinstance(f, (And, Or, Implies, Iff)):
            return type(f)(go(f.left), go(f.right))
        return f

    return go(skeleton)


def _iter_node(phi: Formula, node):
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, node):
            stack.append(f.right)
            stack.append(f.left)
        else:
            yield f


def _iter_and(phi: Formula):
    return _iter_node(phi, And)


def _iter_or(phi: Formula):
    return _iter_node(phi, Or)


# ---------------------------------------------------------------------------
# Clean CNF companion


def _complementary_pair(a: Formula, b: Formula) -> bool:
    return (isinstance(a, Not) and a.child == b) or (isinstance(b, Not) and b.child == a)


def _simplify(phi: Formula) -> Formula:
    """Constant folding for formulas fed back into the CNF conversion.

    The companion recursion repeatedly negates its own padded output; without
    folding the dead padding, every contradiction introduced earlier survives
    as a pair of live literals and the clause count squares on each round.
    Folding is purely equivalence-preserving (constants, double negation,
    complementary operands) and is never applied to final results, so padded
    output shapes are unaffected.
    """
    if isinstance(phi, Not):
        child = _simplify(phi.child)
        if isinstance(child, Top):
            return Bot()
        if isinstance(child, Bot):
            return Top()
        if isinstance(child, Not):
            return child.child
        return Not(child)
    if isinstance(phi, And):
        left, right = _simplify(phi.left), _simplify(phi.right)
        if isinstance(left, Bot) or isinstance(right, Bot):
            return Bot()
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        if _complementary_pair(left, right):
            return Bot()
        return And(left, right)
    if isinstance(phi, Or):
        left, right = _simplify(phi.left), _simplify(phi.right)
        if isinstance(left, Top) or isinstance(right, Top):
            return Top()
        if isinstance(left, Bot):
            return right
        if isinstance(right, Bot):
            return left
        if _complementary_pair(left, right):
            return Top()
        return Or(left, right)
    if isinstance(phi, Implies):
        left, right = _simplify(phi.left), _simplify(phi.right)
        if isinstance(left, Bot) or isinstance(right, Top):
            return Top()
        if isinstance(left, Top):
            return right
        if isinstance(right, Bot):
            return _simplify(Not(left))
        return Implies(left, right)
    if isinstance(phi, Iff):
        left, right = _simplify(phi.left), _simplify(phi.right)
        if isinstance(left, Top):
            return right
        if isinstance(right, Top):
            return left
        if isinstance(left, Bot):
            return _simplify(Not(right))
        if isinstance(right, Bot):
            return _simplify(Not(left))
        if left == right:
            return Top()
        return Iff(left, right)
    if isinstance(phi, WBox):
        child = _simplify(phi.child)
        return Top() if isinstance(child, Top) else WBox(child)
    if isinstance(phi, BBox):
        child = _simplify(phi.child)
        return Top() if isinstance(child, Top) else BBox(child)
    if isinstance(phi, WDia):
        child = _simplify(phi.child)
        return Bot() if isinstance(child, Bot) else WDia(child)
    if isinstance(phi, BDia):
        child = _simplify(phi.child)
        return Bot() if isinstance(child, Bot) else BDia(child)
    return phi


def companion(phi: Formula) -> CleanCNF:
    """Clean CNF companion of an I-free formula.

    Atoms pad with a fresh contradiction on the opposite side, negation routes
    through the clean-to-CNF conversion, conjunction concatenates, and a box
    of either color distributes onto its own side of every conjunct. The other
    connectives combine the companions of their operands through the same
    clean-to-CNF conversion (the result of the recursion is always clean, so
    Boolean combinations of results are clean too). The output is equivalent
    to the input on every model.
    """
    if not classify(phi).i_free:
        raise ContainsI("the companion is defined on the I-free fragment only")
    supply = _FreshSupply(prop_names(phi))

    def via_f(f: Formula) -> CleanCNF:
        return clean_to_cnf(f, _supply=supply)

    def go(f: Formula) -> CleanCNF:
        if isinstance(f, Atom):
            if f.prop.side is Side.LEFT:
                pad = supply.single(Side.RIGHT)
                return CleanCNF(((f, _contradiction(pad)),))
            pad = supply.single(Side.LEFT)
            return CleanCNF(((_contradiction(pad), f),))
        if isinstance(f, Top):
            return CleanCNF(
                ((Not(_contradiction(supply.single(Side.LEFT))),
                  _contradiction(supply.single(Side.RIGHT))),)
            )
        if isinstance(f, Bot):
            return CleanCNF(
                ((_contradiction(supply.single(Side.LEFT)),
                  _contradiction(supply.single(Side.RIGHT))),)
            )
        if isinstance(f, Not):
            return via_f(_simplify(Not(go(f.child).to_formula())))
        if isinstance(f, And):
            return CleanCNF(go(f.left).conjuncts + go(f.right).conjuncts)
        if isinstance(f, Or):
            return via_f(_simplify(Or(go(f.left).to_formula(), go(f.right).to_formula())))
        if isinstance(f, Implies):
            return via_f(_simplify(Implies(go(f.left).to_formula(), go(f.right).to_formula())))
        if isinstance(f, Iff):
            return via_f(_simplify(Iff(go(f.left).to_formula(), go(f.right).to_formula())))
        if isinstance(f, WBox):
            inner = go(f.child)
            return CleanCNF(tuple((WBox(psi), gamma) for psi, gamma in inner.conjuncts))
        if isinstance(f, BBox):
            inner = go(f.child)
            return CleanCNF(tuple((psi, BBox(gamma)) for psi, gamma in inner.conjuncts))
        if isinstance(f, WDia):
            return go(Not(WBox(Not(f.child))))
        if isinstance(f, BDia):
            return go(Not(BBox(Not(f.child))))
        raise TypeError(f"unexpected node: {f!r}")

    return go(phi)

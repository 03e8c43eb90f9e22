"""Shared random generators, model constructions and reference
implementations for the test suite.

Everything here is seeded explicitly by the caller so test runs are
reproducible; no module-level RNG state.
"""

import itertools
import os
import random
import re
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from lhs import (
    And,
    Atom,
    BBox,
    BDia,
    Bot,
    EqConst,
    Iff,
    Implies,
    Model,
    Not,
    Or,
    Top,
    WBox,
    WDia,
    left_atom,
    right_atom,
)
from lhs.errors import FormulaSyntaxError, ModelFormatError
from lhs.model import State, _parse_prop_key
from lhs.syntax import (
    _BINARY_TOKEN,
    _CONSTANT,
    _PREC,
    _PREC_IFF,
    _PREC_UNARY,
    _PREFIX,
    _PREFIX_NODE,
    BLACK_MODAL,
    MODAL_NODES,
    ONE_SIDED,
    WHITE_MODAL,
    Formula,
    PropName,
    Side,
    _prec,
    children,
    drive,
    subformulas,
)

SRC = Path(__file__).parent.parent / "src"
LEFT_VARS = ("p", "q")
RIGHT_VARS = ("p", "q")

_UNARY = (Not, WBox, WDia, BBox, BDia)
_BINARY = (And, Or, Implies, Iff)


def run_python(args, env=None, stdout=subprocess.PIPE, **kwargs):
    """A fresh interpreter with the package from this checkout on its path;
    its stderr, and its stdout unless `stdout` says where to write it, are captured."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=300, **kwargs)


@contextmanager
def time_budget(seconds):
    """Fail the test with TimeoutError rather than hang past `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no verdict within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(20260826)


def random_formula(rng, depth=3, allow_i=True, left_vars=LEFT_VARS,
                   right_vars=RIGHT_VARS):
    """A random formula of modal/connective depth at most `depth`."""
    leaves = [left_atom(v) for v in left_vars] + [right_atom(v) for v in right_vars]
    leaves += [Top(), Bot()]
    if allow_i:
        leaves.append(EqConst())
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(leaves)
    if rng.random() < 0.5:
        op = rng.choice(_UNARY)
        return op(random_formula(rng, depth - 1, allow_i, left_vars, right_vars))
    op = rng.choice(_BINARY)
    return op(random_formula(rng, depth - 1, allow_i, left_vars, right_vars),
              random_formula(rng, depth - 1, allow_i, left_vars, right_vars))


def random_i_free(rng, depth=2, left_vars=LEFT_VARS, right_vars=RIGHT_VARS):
    return random_formula(rng, depth, allow_i=False, left_vars=left_vars,
                          right_vars=right_vars)


def random_one_sided(rng, side, depth=2, names=("p", "q")):
    """A random formula using only one side's atoms and modalities."""
    mk = left_atom if side is Side.LEFT else right_atom
    box, dia = (WBox, WDia) if side is Side.LEFT else (BBox, BDia)
    leaves = [mk(v) for v in names] + [Top(), Bot()]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)
    roll = rng.random()
    child = random_one_sided(rng, side, depth - 1, names)
    if roll < 0.2:
        return Not(child)
    if roll < 0.4:
        return box(child)
    if roll < 0.55:
        return dia(child)
    op = rng.choice(_BINARY)
    return op(child, random_one_sided(rng, side, depth - 1, names))


def _branches(k):
    return " & ".join(f"(l:a{i} | l:b{i})" for i in range(1, k + 1))


def k_branch_n(k):
    """The K branching family in the style of LWB `k_branch_n`; unsatisfiable.

    Every successor must pick one of a_i, b_i for each i and have no
    successor, while `<W><W>true` needs one that has. The clash depends on
    none of the k choices, so a search that branches blindly tries all 2^k.
    This is the family that the `decide` benchmark pins.
    """
    return f"[W]({_branches(k)} & [W]false) & <W><W>true"


def k_branch_p(k):
    """A satisfiable variant: the successor must falsify every a_i, so every
    choice must take its second branch. Each clash depends on one choice
    only, so a search that does not track this tries 2^k leaves."""
    negated = " & ".join(f"~l:a{i}" for i in range(1, k + 1))
    return f"[W]({_branches(k)} & [W]false) & <W>({negated})"


def random_clean(rng, depth=2, block_depth=2):
    """A random clean formula: a Boolean combination of one-sided blocks."""
    if depth == 0 or rng.random() < 0.4:
        side = rng.choice([Side.LEFT, Side.RIGHT])
        return random_one_sided(rng, side, block_depth)
    if rng.random() < 0.25:
        return Not(random_clean(rng, depth - 1, block_depth))
    op = rng.choice(_BINARY)
    return op(random_clean(rng, depth - 1, block_depth),
              random_clean(rng, depth - 1, block_depth))


def make_model(states, edges, valuation=None) -> Model:
    """Convenience constructor; valuation keys may be 'l:name' strings."""
    val = {
        p if isinstance(p, PropName) else _parse_prop_key(p): frozenset(ws)
        for p, ws in (valuation or {}).items()
    }
    return Model(tuple(states), frozenset(tuple(e) for e in edges), val)


def generated_submodel(model: Model, seeds) -> Model:
    """Restriction of the model to the reachability closure of `seeds`."""
    seeds = set(seeds)
    if not seeds:
        raise ModelFormatError("generated submodel needs a nonempty seed set")
    model.require_state(*seeds)
    reached = set(seeds)
    frontier = list(seeds)
    while frontier:
        w = frontier.pop()
        for v in model.successor_map[w]:
            if v not in reached:
                reached.add(v)
                frontier.append(v)
    states = tuple(w for w in model.states if w in reached)
    edges = frozenset((a, b) for a, b in model.edges if a in reached and b in reached)
    valuation = {p: ws & reached for p, ws in model.valuation.items()}
    return Model(states, edges, valuation)


def restrict_left(model: Model) -> Model:
    val = {p: ws for p, ws in model.valuation.items() if p.side is Side.LEFT}
    return Model(model.states, model.edges, val)


def restrict_right(model: Model) -> Model:
    val = {p: ws for p, ws in model.valuation.items() if p.side is Side.RIGHT}
    return Model(model.states, model.edges, val)


def one_sided_eval(model: Model, w: State, phi: Formula) -> bool:
    """Standard single-agent Kripke truth for a white-only or black-only formula.

    Atoms read their valuation regardless of side; either color of modality
    quantifies over the successors of `w`.
    """
    if not phi.facts & ONE_SIDED:
        raise ValueError("one-sided evaluation requires a white-only or black-only formula")
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


def random_model(rng, max_states=4, props=("l:p", "l:q", "r:p", "r:q"),
                 edge_prob=0.35, val_prob=0.4):
    """A random Kripke model with 1..max_states states."""
    n = rng.randint(1, max_states)
    states = [f"w{i}" for i in range(n)]
    edges = [(a, b) for a in states for b in states if rng.random() < edge_prob]
    valuation = {}
    for p in props:
        holds = [w for w in states if rng.random() < val_prob]
        if holds:
            valuation[p] = holds
    return make_model(states, edges, valuation)


def all_pairs(model):
    return [(s, t) for s in sorted(model.states) for t in sorted(model.states)]


def rename_copy(model, prefix="c."):
    """An isomorphic copy of `model` with prefixed state names."""
    ren = {w: prefix + w for w in model.states}
    return make_model(
        [ren[w] for w in model.states],
        [(ren[a], ren[b]) for a, b in model.edges],
        {f"{p.side.value}:{p.name}": [ren[w] for w in ws]
         for p, ws in model.valuation.items()},
    ), ren


def disjoint_union(m: Model, n: Model):
    """Side-by-side union with `a.`/`b.` renaming; no cross edges.

    Returns the union model plus the two renaming maps.
    """
    rename_m = {w: f"a.{w}" for w in m.states}
    rename_n = {w: f"b.{w}" for w in n.states}
    states = tuple(rename_m[w] for w in m.states) + tuple(rename_n[w] for w in n.states)
    edges = frozenset(
        {(rename_m[a], rename_m[b]) for a, b in m.edges}
        | {(rename_n[a], rename_n[b]) for a, b in n.edges}
    )
    valuation: dict[PropName, frozenset[State]] = {}
    for prop, ws in m.valuation.items():
        valuation[prop] = frozenset(rename_m[w] for w in ws)
    for prop, ws in n.valuation.items():
        tagged = frozenset(rename_n[w] for w in ws)
        valuation[prop] = valuation.get(prop, frozenset()) | tagged
    return Model(states, edges, valuation), rename_m, rename_n


_REFERENCE_TOKEN = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<atom>[lr]:[A-Za-z_][A-Za-z0-9_]*)
    | (?P<mod>\[W\]|\[B\]|<W>|<B>)
    | (?P<op><->|->|[~&|()])
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)
_REFERENCE_INFIX = {op.strip(): node for node, (op, _, _) in _BINARY_TOKEN.items()}


class _ReferenceParser:
    """Precedence climbing (Pratt 1973), one generator walk per grammar rule,
    run on an explicit stack by `drive`: the parser `lhs.syntax.parse` once was."""

    def __init__(self, text):
        pos, self.tokens = 0, []
        while pos < len(text):
            m = _REFERENCE_TOKEN.match(text, pos)
            if m is None:
                raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
            if m.lastgroup != "ws":
                self.tokens.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.tokens.append(("eof", "", len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def formula(self, least=_PREC_IFF):
        left = yield self.unary()
        while True:
            node = _REFERENCE_INFIX.get(self.peek()[1])
            if node is None or _PREC[node] < least:
                return left
            self.advance()
            left = node(left, (yield self.formula(_BINARY_TOKEN[node][2])))

    def unary(self):
        text = self.peek()[1]
        if text in _PREFIX_NODE:
            self.advance()
            return _PREFIX_NODE[text]((yield self.unary()))
        if text == "(":
            self.advance()
            inner = yield self.formula()
            kind, found, pos = self.peek()
            if found != ")":
                raise FormulaSyntaxError(f"expected ')', found {found or 'end of input'!r}", pos)
            self.advance()
            return inner
        return self.atom()

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "atom":
            return Atom(PropName(Side.LEFT if text[0] == "l" else Side.RIGHT, text[2:]))
        if kind == "word":
            if text == "I":
                return EqConst()
            if text == "true":
                return Top()
            if text == "false":
                return Bot()
            raise FormulaSyntaxError(f"unknown identifier {text!r}", pos)
        raise FormulaSyntaxError(f"unexpected {text or 'end of input'!r}", pos)


def reference_parse(text):
    """`parse` as a walk per grammar rule: the reference for the
    operator-precedence loop, which must give the same trees and errors."""
    parser = _ReferenceParser(text)
    phi = drive(parser.formula())
    kind, found, pos = parser.peek()
    if kind != "eof":
        raise FormulaSyntaxError(f"trailing input {found!r}", pos)
    return phi


def reference_frame_ids(n, mod_iso):
    """Frames on n states as bit masks (edge (i, j) = bit i*n+j), in
    increasing order; with `mod_iso` only the masks that no permutation of
    the states makes smaller. Maps every mask through every permutation,
    as the bounded search once did: the reference for its frame generator.
    """
    import numpy as np

    ids = np.arange(1 << (n * n), dtype=np.uint64)
    if not mod_iso or n == 1:
        return tuple(int(i) for i in ids)
    shifts = np.arange(n * n, dtype=np.uint64)
    bits = (ids[:, None] >> shifts) & np.uint64(1)
    minimal = ids.copy()
    for perm in itertools.permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        src = [perm[i] * n + perm[j] for i in range(n) for j in range(n)]
        image = (bits[:, src] << shifts).sum(axis=1, dtype=np.uint64)
        np.minimum(minimal, image, out=minimal)
    return tuple(int(i) for i in ids[minimal == ids])


def reference_classify(phi):
    """The syntax class as one bottom-up walk over the formula: the reference
    for the `facts` bits each formula computes when it is built, returned as
    (i_free, white_only, black_only, clean).

    A formula is white-only when it is I-free and has left atoms and white
    modalities only; black-only is the mirror. Constants are both.
    """
    sides = {}  # (white_only, black_only) of every subformula
    for f in subformulas(phi):
        if isinstance(f, Atom):
            white = f.prop.side is Side.LEFT
            sides[f] = (white, not white)
        elif isinstance(f, EqConst):
            sides[f] = (False, False)
        elif isinstance(f, WHITE_MODAL):
            sides[f] = (sides[f.child][0], False)
        elif isinstance(f, BLACK_MODAL):
            sides[f] = (False, sides[f.child][1])
        else:
            kids = [sides[c] for c in children(f)]
            sides[f] = (all(w for w, _ in kids), all(b for _, b in kids))
    i_free = not any(isinstance(f, EqConst) for f in sides)
    white_only, black_only = sides[phi]
    # Clean: every modal subformula is one-sided, which holds exactly when
    # the maximal ones (those at the Boolean level) are.
    clean = i_free and all(any(sides[f]) for f in sides if isinstance(f, MODAL_NODES))
    return i_free, white_only, black_only, clean


def reference_render(phi, full_parens=False):
    """`render` as it once was, one string per subformula built from its
    children's strings: the reference for the token printer."""
    order = subformulas(phi)
    # A subformula's text is dropped once its last parent is built.
    last_parent = {c: f for f in order for c in children(f)}
    text = {}
    for f in order:
        if isinstance(f, Atom):
            s = str(f.prop)
        elif type(f) in _CONSTANT:
            s = _CONSTANT[type(f)]
        elif type(f) in _PREFIX:
            child = text[f.child]
            if full_parens or _prec(f.child) < _PREC_UNARY:
                child = f"({child})"
            s = _PREFIX[type(f)] + child
        elif type(f) in _BINARY_TOKEN:
            op, left_prec, right_prec = _BINARY_TOKEN[type(f)]
            left, right = text[f.left], text[f.right]
            if full_parens:
                s = f"({left}{op}{right})"
            else:
                if _prec(f.left) < left_prec:
                    left = f"({left})"
                if _prec(f.right) < right_prec:
                    right = f"({right})"
                s = left + op + right
        else:
            raise TypeError(f"not a formula: {f!r}")
        text[f] = s
        for c in children(f):
            if last_parent[c] is f:
                text.pop(c, None)
    return text[phi]


def reference_fo_render(alpha):
    """`fo_render` as it once was, one string per node built from its
    children's strings: the reference for the token printer."""
    return drive(_reference_fo_render(alpha))


def _reference_fo_render(alpha):
    op = getattr(alpha, "op", None)
    if op == "P":
        prefix = "Pl_" if alpha.left.side is Side.LEFT else "Pr_"
        return f"{prefix}{alpha.left.name}({alpha.right})"
    if op == "R":
        return f"R({alpha.left},{alpha.right})"
    if op == "=":
        return f"{alpha.left} = {alpha.right}"
    if op == "~":
        text = yield _reference_fo_render(alpha.left)
        if alpha.left.op in ("P", "R") or text.startswith("("):
            return f"~{text}"
        return f"~({text})"
    if op in ("&", "|", "->", "<->"):
        left = yield _reference_fo_render(alpha.left)
        right = yield _reference_fo_render(alpha.right)
        return f"({left} {op} {right})"
    if op in ("forall", "exists"):
        child = yield _reference_fo_render(alpha.right)
        return f"{op} {alpha.left}. ({child})"
    raise TypeError(f"not an FO formula: {type(alpha).__name__} with op {op!r}")

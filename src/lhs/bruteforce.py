"""The vectorised truth definition and the exhaustive search it drives.

This is the package's one numpy module, loaded on first use: `import lhs`
does not import it, so the I-free decision path never pays for numpy.

`truth_table` evaluates the truth definition at every pair of a batch of
frames at once. A single model (`semantics.check_all`, `tiling model
--check`) gets a boolean table and one matrix product per modality. The
search's packed tables take one step for a modality whose operand does not
read the state it moves to, a lookup in a table over successor sets for one
whose operand reads no frame, and otherwise a loop over the states.

`find_model` is the package's one bounded search for the full language
(behind `lhs sat --full`) and its independent oracle: it evaluates the truth
definition over every model (frame x valuation x evaluation pair) within the
bound, and shares nothing with the companion or the K tableau. Frames are
processed in batches and the valuation axis is bit-packed, so every
connective is a handful of byte-wise array operations. By default the frames
are generated one per isomorphism class, which keeps both SAT and exhaustion
verdicts, rather than filtered from all 2^(n*n).
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import ResourceGuard
from .model import Model, State
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
    Not,
    Or,
    Side,
    Top,
    WBox,
    WDia,
    children,
    subformulas,
)


# ---------------------------------------------------------------------------
# The truth-definition kernel

# Past 2^24 rows a table no longer fits: the pairs of a single model, or at
# level n of the search all 2^(n*k) valuations (k props) and the frame codes
# it lists.
_MAX_TABLE_BITS = 24

# The connectives that act on truth values elementwise, in either representation.
_BOOLEAN = {Not: np.invert, And: np.bitwise_and, Or: np.bitwise_or,
            Implies: lambda a, b: ~a | b, Iff: lambda a, b: ~(a ^ b)}


class _Batch:
    """A batch of (frames, n, n) adjacencies as the modalities read it, each
    view built on first use. Per-state views chain n column steps: numpy's
    `any` and `packbits` over the short last axis are several times slower."""

    def __init__(self, adj: np.ndarray):
        self.adj = adj

    @cached_property
    def matrix(self) -> np.ndarray:  # a single frame's relation, for BLAS
        return self.adj[0].astype(np.float32)

    @cached_property
    def codes(self) -> np.ndarray:  # (frames, n), n <= 8: bit w of state s's code is edge (s, w)
        return reduce(np.bitwise_or, [self.adj[:, :, w].view(np.uint8) << np.uint8(w)
                                      for w in range(self.adj.shape[1])])

    @cached_property
    def live(self) -> tuple:  # 255 at the states with a successor, and at those without
        some = reduce(np.logical_or, [self.adj[:, :, w] for w in range(self.adj.shape[1])])
        live = some.view(np.uint8)[:, :, None, None] * np.uint8(255)
        return live, ~live

    @cached_property
    def rel(self) -> np.ndarray:  # 255 on an edge, 0 off it
        return self.adj.view(np.uint8) * np.uint8(255)


def _fold_table(rows, start, op) -> np.ndarray:
    """Row c: `op` folded from `start` over rows[w] for every bit w of c."""
    table = np.empty((1 << len(rows),) + np.shape(rows[0]), dtype=np.result_type(rows[0]))
    table[0] = start
    for w, row in enumerate(rows):
        table[1 << w:2 << w] = op(table[:1 << w], row)
    return table


def _modal(child: np.ndarray, batch: _Batch, box: bool) -> np.ndarray:
    """`[W] child` (box) or `<W> child`: the AND (OR), over every state w, of
    child at (w, t) wherever (s, w) is an edge. A diamond is computed as
    such, never as ~box(~child).
    - A single model's boolean table: one matrix product, ~(R . ~child > 0)
      or R . child > 0, in float32: BLAS does it, exact up to 2^24.
    - A packed table holds many frames and valuations per byte, which a
      product cannot combine. A child with no axis for w is one step, child
      ORed with the states without a successor (ANDed with those with one).
    - A child with no frame axis is, at s, a function of the successor set of
      s, one of 2^n: a table of the ANDs (ORs) of its rows over each set,
      gathered by every state's code. Taken when the batch has at least 4^n
      frames, where it pays: never for a single model of many states.
    - Otherwise n whole-array steps, ANDing child | ~R (ORing child & R).
    """
    n = batch.adj.shape[1]
    if child.dtype == bool:
        held = np.broadcast_to(~child if box else child, (1, n, n, 1))[0, :, :, 0]
        some = (batch.matrix @ held.astype(np.float32) > 0)[None, :, :, None]
        return ~some if box else some
    if child.shape[1] == 1:
        return child | batch.live[1] if box else child & batch.live[0]
    join, step = (np.bitwise_and, np.bitwise_or) if box else (np.bitwise_or, np.bitwise_and)
    if child.shape[0] == 1 and n <= 8 and len(batch.adj) >= 4 ** n:
        return np.take(_fold_table(child[0], 255 if box else 0, join), batch.codes, axis=0)
    rel = ~batch.rel if box else batch.rel
    acc = step(child[:, :1], rel[:, :, :1, None])
    for w in range(1, n):
        join(acc, step(child[:, w:w + 1], rel[:, :, w:w + 1, None]), out=acc)
    return acc


def plan(phi: Formula) -> list:
    """The steps of `truth_table` for `phi`, in `subformulas` order (`phi`
    last): each node, its children's indices and those of the children whose
    arrays it frees, as their last parent. A search plans once."""
    order = subformulas(phi)
    index = {f: i for i, f in enumerate(order)}
    kids = [[index[c] for c in children(f)] for f in order]
    frees: list = [[] for _ in order]
    for k, i in {k: i for i, ks in enumerate(kids) for k in ks}.items():
        frees[i].append(k)
    return list(zip(order, kids, frees))


def truth_table(steps: list, adj: np.ndarray, props: list, patterns: np.ndarray) -> np.ndarray:
    """Truth of a formula at every pair of every frame.

    `steps` is the formula's `plan`. `adj` is a (frames, n, n) boolean
    adjacency array. `patterns[j]` is the truth of `props[j]` at each state,
    in one of two representations, which its dtype selects:
    - bool, shape (n, 1): a single model (one frame, one valuation);
    - uint8, shape (n, nbytes): bit-packed valuations, each bit position
      standing for the same valuation for every prop.
    Names missing from `props` are false everywhere. Constants take the same
    dtype: a uint8 one would upcast a boolean table, where ~1 is 254.
    The modalities read `adj` through one `_Batch`, which builds each of its
    views on first use. Returns the formula's array, which broadcasts to
    (frames, s, t, width): an axis it does not read has length 1. It may be a
    view of `patterns`.
    """
    n = adj.shape[1]
    false = np.zeros((1, 1, 1, 1), dtype=patterns.dtype)
    batch = _Batch(adj)
    slot = {prop: j for j, prop in enumerate(props)}
    arrays: list = [None] * len(steps)
    for i, (f, kids, frees) in enumerate(steps):
        args = [arrays[k] for k in kids]
        kind = type(f)
        if kind in _BOOLEAN:
            arr = _BOOLEAN[kind](*args)
        elif kind is Atom:
            j = slot.get(f.prop)
            if j is None:
                arr = false
            elif f.prop.side is Side.LEFT:
                arr = patterns[j][None, :, None, :]
            else:
                arr = patterns[j][None, None, :, :]
        elif kind is WBox or kind is WDia:
            arr = _modal(args[0], batch, kind is WBox)
        # A black modality is the white one with the two coordinates swapped.
        elif kind is BBox or kind is BDia:
            arr = _modal(args[0].swapaxes(1, 2), batch, kind is BBox).swapaxes(1, 2)
        elif kind is Bot:
            arr = false
        elif kind is Top:
            arr = ~false
        elif kind is EqConst:
            arr = np.where(np.eye(n, dtype=bool)[None, :, :, None], ~false, false)
        else:
            raise TypeError(f"not a formula: {f!r}")
        arrays[i] = arr
        for k in frees:
            arrays[k] = None
    return arrays[-1]


def holding_pairs(model: Model, phi: Formula) -> set[tuple[State, State]]:
    """All pairs (s, t) of `model` where `phi` holds, from one boolean
    `truth_table` pass; `semantics.check_all` is the public name."""
    states = model.states
    n = len(states)
    if n * n > 1 << _MAX_TABLE_BITS:
        raise ResourceGuard(f"checking every pair of a {n}-state model needs a table of "
                            f"{n * n} pairs, past the limit of 2^{_MAX_TABLE_BITS}")
    index = {w: i for i, w in enumerate(states)}
    adj = np.zeros((1, len(states), len(states)), dtype=bool)
    edges = np.array([(index[a], index[b]) for a, b in model.edges], dtype=np.intp).reshape(-1, 2)
    adj[0, edges[:, 0], edges[:, 1]] = True
    patterns = np.zeros((len(model.valuation), len(states), 1), dtype=bool)
    for j, members in enumerate(model.valuation.values()):
        patterns[j, [index[w] for w in members], 0] = True
    truth = truth_table(plan(phi), adj, list(model.valuation), patterns)
    s, t = np.nonzero(np.broadcast_to(truth, (1, n, n, 1))[0, :, :, 0])
    return {(states[a], states[b]) for a, b in zip(s.tolist(), t.tolist())}


# ---------------------------------------------------------------------------
# The bounded search

# Binary relations on n points up to isomorphism (OEIS A000595). Level n
# builds _CLASSES[n-1] * 2^(2n-1) codes, so level 6 (6*10^8) is never built.
_CLASSES = (1, 2, 10, 104, 3044, 291968)

# Work: frames x valuations x pairs x subformulas, summed over the levels.
# The kernel does 1-2*10^10 units a second on 2 CPUs: 10-20 s at the ceiling.
WORK_CEILING = 2 * 10**11

# Target byte size for one fully materialized truth array; frames are chunked
# so that (chunk, n, n, packed-valuations) stays near this.
_CHUNK_BYTES = 1 << 25


def _relabel(codes: np.ndarray, src: list, dst: list, perm: tuple) -> np.ndarray:
    """Frames whose bit w is edge src[w], with each state a renamed to
    perm[a] and recoded so that bit w is edge dst[w]: per byte of the code,
    one gather from a 256-entry table of the bits each value moves to."""
    weight = {e: w for w, e in enumerate(dst)}
    moved = [np.uint64(1) << np.uint64(weight[perm[a], perm[c]]) for a, c in src]
    octets = codes.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)  # lowest byte first
    parts = (np.take(_fold_table(moved[b:b + 8], 0, np.bitwise_or), octets[:, b // 8])
             for b in range(0, len(src), 8))
    out = next(parts)
    for part in parts:
        out |= part
    return out


def _code_order(n: int) -> list:
    """The edge at each bit of a code, lowest first; states 0..m-1 own the top m*m bits."""
    return sorted(itertools.product(range(n), repeat=2), key=lambda e: (max(e), e), reverse=True)


@lru_cache(maxsize=None)
def _frames(n: int, mod_iso: bool) -> tuple[np.ndarray, np.ndarray]:
    """Read-only frames on n states: increasing bit masks (edge (i, j) = bit
    i*n+j) and their (frames, n, n) adjacency. With `mod_iso` each
    isomorphism class appears once, as its smallest mask.

    The classes come by orderly generation (Read 1978; McKay 1998). A code
    that no renaming of states makes larger begins with such a code of one
    state fewer, so every class is found by extending those in all ways.
    """
    if mod_iso:
        codes = np.zeros(1, dtype=np.uint64)
        for m in range(1, n + 1):
            new = np.arange(1 << (2 * m - 1), dtype=np.uint64)
            codes = ((codes[:, None] << np.uint64(2 * m - 1)) | new).ravel()
            order = _code_order(m)
            for perm in itertools.islice(itertools.permutations(range(m)), 1, None):
                codes = codes[_relabel(codes, order, order, perm) <= codes]
        edges = list(itertools.product(range(n), repeat=2))
        masks = np.sort(reduce(np.minimum, (_relabel(codes, order, edges, p)
                                            for p in itertools.permutations(range(n)))))
    else:
        masks = np.arange(1 << (n * n), dtype=np.uint64)
    adj = (((masks[:, None] >> np.arange(n * n, dtype=np.uint64)) & np.uint64(1))
           .astype(bool).reshape(-1, n, n))
    masks.flags.writeable = adj.flags.writeable = False
    return masks, adj


@lru_cache(maxsize=None)
def _atom_patterns(n: int, k: int) -> np.ndarray:
    """Read-only packed truth pattern of each of k props at each state over the valuation axis.

    Valuation v assigns prop j the extension whose bit w is bit n*j+w of v.
    Shape (k, n, B) uint8, B = packed length of 2^(n*k) bits. Fewer than 8
    valuations are repeated to fill one byte, so that every bit of the truth
    table stands for a real valuation.
    """
    nbits = 1 << (n * k)
    v = np.arange(max(8, nbits), dtype=np.uint64) % np.uint64(nbits)
    rows = [np.packbits(((v >> np.uint64(i)) & np.uint64(1)).astype(np.uint8), bitorder="little")
            for i in range(n * k)]
    patterns = np.array(rows, dtype=np.uint8).reshape(k, n, max(1, nbits // 8))
    patterns.flags.writeable = False
    return patterns


def _witness_model(adj: np.ndarray, props: list, v: int) -> Model:
    states = tuple(f"w{i}" for i in range(len(adj)))
    edges = frozenset((states[i], states[j]) for i, j in np.argwhere(adj))
    valuation = {prop: frozenset(w for i, w in enumerate(states) if (v >> (len(adj) * j + i)) & 1)
                 for j, prop in enumerate(props)}
    return Model(states, edges, valuation)


def search_work(max_states: int, k: int, size: int, mod_iso: bool = True) -> int:
    """The work of a search up to `max_states` states over k props and `size`
    subformulas; `ResourceGuard` at the first level that passes a limit."""
    work = 0
    for n in range(1, max_states + 1):
        codes = _CLASSES[n - 1] << (2 * n - 1) if mod_iso else 1 << (n * n)
        if n * k > _MAX_TABLE_BITS or codes > 1 << _MAX_TABLE_BITS:
            table = (f"valuation table of 2^{n * k}" if n * k > _MAX_TABLE_BITS
                     else f"frame table of {codes}")
            raise ResourceGuard(f"level {n} of the search needs a {table} rows, past the "
                                f"limit of 2^{_MAX_TABLE_BITS}")
        work += ((_CLASSES[n] if mod_iso else codes) << (n * k)) * n * n * size
        if work > WORK_CEILING:
            raise ResourceGuard(f"levels 1 to {n} of the search charge {work} units of work, "
                                f"over the ceiling of {WORK_CEILING}")
    return work


def find_model(phi: Formula, max_states: int, *, mod_iso: bool = True):
    """First (Model, s, t) within the bound satisfying `phi`, over valuations
    of the atoms of `phi`, or None: None means the bound is exhausted, not
    that `phi` is unsatisfiable. `search_work` refuses a search too large to
    run before it starts."""
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    steps = plan(phi)
    props = sorted({f.prop for f, _, _ in steps if type(f) is Atom}, key=str)
    search_work(max_states, len(props), len(steps), mod_iso)
    for n in range(1, max_states + 1):
        nbits = 1 << (n * len(props))
        patterns = _atom_patterns(n, len(props))
        nbytes = patterns.shape[-1]
        adj_all = _frames(n, mod_iso)[1]
        chunk = max(1, _CHUNK_BYTES // (n * n * nbytes))
        for lo in range(0, len(adj_all), chunk):
            adj = adj_all[lo:lo + chunk]
            truth = truth_table(steps, adj, props, patterns)
            hits = np.nonzero(truth.any(axis=(1, 2, 3)))[0]
            if hits.size == 0:
                continue
            # A root that reads no frame has one row, which stands for the chunk's first frame.
            f = int(hits[0])
            frame = np.broadcast_to(truth[f], (n, n, nbytes))
            bits = np.unpackbits(frame, axis=-1, count=nbits, bitorder="little")
            s, t, v = (int(x) for x in np.argwhere(bits)[0])
            return _witness_model(adj[f], props, v), f"w{s}", f"w{t}"
    return None

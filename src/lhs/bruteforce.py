"""Exhaustive satisfiability search over all models up to a size bound.

This is the package's one bounded search for the full language (behind
`lhs sat --full`) and its independent oracle: it evaluates the truth definition
directly over every model (frame x valuation x evaluation pair) within the
bound, with no normalization, tableau, or other cleverness. The inner loop is
vectorized with numpy: frames are processed in batches and the valuation axis
is bit-packed, so every connective is a handful of byte-wise array operations.
Frames can optionally be pruned to one representative per isomorphism class,
which preserves both SAT and exhaustion verdicts.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .errors import ResourceGuard
from .model import Model, enumeration_count
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
    prop_names,
)

DEFAULT_ORACLE_CEILING = 10**11

# The search builds a table of all 2^(n*n) frames and one of all 2^(n*k)
# valuations (k variables). Past 2^24 rows they no longer fit in memory:
# the frame bits for n = 5 alone take 6.7 GB.
_MAX_TABLE_BITS = 24

# Target byte size for one fully materialized truth array; frames are chunked
# so that (chunk, n, n, packed-valuations) stays near this.
_CHUNK_BYTES = 1 << 25


@lru_cache(maxsize=None)
def _frame_ids(n: int, mod_iso: bool) -> tuple[int, ...]:
    """Adjacency matrices of size n encoded as bit masks (edge (i,j) = bit i*n+j).

    With `mod_iso` only the minimal encoding of each isomorphism class is kept.
    """
    total = 1 << (n * n)
    ids = np.arange(total, dtype=np.uint64)
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


def _atom_patterns(n: int, k: int) -> np.ndarray:
    """Packed truth pattern of each (prop index, state) over the valuation axis.

    Valuation v assigns prop j the extension whose bit w is bit n*j+w of v.
    Returns shape (k, n, B) uint8 with B = packed length of 2^(n*k) bits.
    """
    v = np.arange(1 << (n * k), dtype=np.uint64)
    out = []
    for j in range(k):
        rows = []
        for w in range(n):
            bit = ((v >> np.uint64(n * j + w)) & np.uint64(1)).astype(np.uint8)
            rows.append(np.packbits(bit, bitorder="little"))
        out.append(rows)
    return np.array(out, dtype=np.uint8)


def _truth_packed(phi: Formula, adj: np.ndarray, patterns: np.ndarray,
                  props: list, n: int, nbytes: int, memo: dict) -> np.ndarray:
    """Packed truth array, broadcastable to (frames, s, t, packed valuations).

    Bits beyond the real valuation count in the last byte are garbage; callers
    mask them off before inspecting results.
    """
    cached = memo.get(phi)
    if cached is not None:
        return cached

    def rec(f):
        return _truth_packed(f, adj, patterns, props, n, nbytes, memo)

    if isinstance(phi, Atom):
        if phi.prop in props:
            j = props.index(phi.prop)
            if phi.prop.side is Side.LEFT:
                arr = patterns[j][None, :, None, :]
            else:
                arr = patterns[j][None, None, :, :]
        else:
            arr = np.zeros((1, 1, 1, nbytes), dtype=np.uint8)
    elif isinstance(phi, EqConst):
        arr = np.where(np.eye(n, dtype=bool)[None, :, :, None], 255, 0).astype(np.uint8)
    elif isinstance(phi, Top):
        arr = np.full((1, 1, 1, nbytes), 255, dtype=np.uint8)
    elif isinstance(phi, Bot):
        arr = np.zeros((1, 1, 1, nbytes), dtype=np.uint8)
    elif isinstance(phi, Not):
        arr = ~rec(phi.child)
    elif isinstance(phi, And):
        arr = rec(phi.left) & rec(phi.right)
    elif isinstance(phi, Or):
        arr = rec(phi.left) | rec(phi.right)
    elif isinstance(phi, Implies):
        arr = ~rec(phi.left) | rec(phi.right)
    elif isinstance(phi, Iff):
        arr = ~(rec(phi.left) ^ rec(phi.right))
    elif isinstance(phi, (WBox, WDia, BBox, BDia)):
        child = np.broadcast_to(
            rec(phi.child), (adj.shape[0], n, n, nbytes)
        )
        universal = isinstance(phi, (WBox, BBox))
        on_s = isinstance(phi, (WBox, WDia))
        fill = 255 if universal else 0
        arr = np.empty((adj.shape[0], n, n, nbytes), dtype=np.uint8)
        for w in range(n):
            acc = np.full((adj.shape[0], n, nbytes), fill, dtype=np.uint8)
            for w2 in range(n):
                edge = adj[:, w, w2, None, None]
                term = child[:, w2, :, :] if on_s else child[:, :, w2, :]
                if universal:
                    acc &= np.where(edge, term, 255)
                else:
                    acc |= np.where(edge, term, 0)
            if on_s:
                arr[:, w, :, :] = acc
            else:
                arr[:, :, w, :] = acc
    else:
        raise TypeError(f"not a formula: {phi!r}")

    memo[phi] = arr
    return arr


def _tail_mask(nbits: int, nbytes: int) -> np.ndarray:
    mask = np.full(nbytes, 255, dtype=np.uint8)
    spare = nbytes * 8 - nbits
    if spare:
        mask[-1] = (1 << (8 - spare)) - 1
    return mask


def _witness_model(frame_id: int, n: int, props: list, v: int) -> Model:
    states = tuple(f"w{i}" for i in range(n))
    edges = frozenset(
        (states[i], states[j]) for i in range(n) for j in range(n)
        if (frame_id >> (i * n + j)) & 1
    )
    valuation = {
        props[j]: frozenset(
            states[w] for w in range(n) if (v >> (n * j + w)) & 1
        )
        for j in range(len(props))
    }
    return Model(states, edges, valuation)


def find_model(phi: Formula, max_states: int, props=None,
               ceiling: int = DEFAULT_ORACLE_CEILING, force: bool = False,
               mod_iso: bool = True):
    """First (Model, s, t) within the bound satisfying `phi`, or None.

    None means the bound is exhausted, not that `phi` is unsatisfiable.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    if props is None:
        props = sorted(prop_names(phi), key=str)
    else:
        props = sorted(set(props), key=str)
    k = len(props)
    total = enumeration_count(max_states, k)
    table_bits = max_states * max(max_states, k)
    if (total > ceiling or table_bits > _MAX_TABLE_BITS) and not force:
        raise ResourceGuard(
            f"search over {total} models with tables of 2^{table_bits} rows "
            f"exceeds the ceiling of {ceiling} models or 2^{_MAX_TABLE_BITS} rows; "
            "pass --force (force=True) to run anyway"
        )
    for n in range(1, max_states + 1):
        nbits = 1 << (n * k)
        nbytes = max(1, nbits // 8)
        patterns = _atom_patterns(n, k)
        mask = _tail_mask(nbits, nbytes)
        frames = np.array(_frame_ids(n, mod_iso), dtype=np.uint64)
        shifts = np.arange(n * n, dtype=np.uint64)
        adj_all = (((frames[:, None] >> shifts) & np.uint64(1))
                   .astype(bool).reshape(-1, n, n))
        chunk = max(1, _CHUNK_BYTES // (n * n * nbytes))
        for lo in range(0, len(frames), chunk):
            adj = adj_all[lo:lo + chunk]
            memo: dict = {}
            truth = _truth_packed(phi, adj, patterns, props, n, nbytes, memo)
            truth = np.broadcast_to(truth, (adj.shape[0], n, n, nbytes)) & mask
            per_frame = truth.reshape(adj.shape[0], -1).any(axis=1)
            hits = np.nonzero(per_frame)[0]
            if hits.size == 0:
                continue
            f = int(hits[0])
            bits = np.unpackbits(truth[f], axis=-1, count=nbits,
                                 bitorder="little")
            s, t, v = (int(x) for x in np.argwhere(bits)[0])
            frame_id = int(frames[lo + f])
            model = _witness_model(frame_id, n, props, v)
            return model, f"w{s}", f"w{t}"
    return None

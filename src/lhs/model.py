"""Finite two-sided Kripke models, their JSON format, and bounded enumeration."""

from __future__ import annotations

import itertools
import json
from functools import cached_property

from .errors import ModelFormatError, ResourceGuard, UnknownState
from .syntax import ATOM_RE, PropName, Record, Side

State = str


def _parse_prop_key(key: str) -> PropName:
    if not ATOM_RE.fullmatch(key):
        raise ModelFormatError(f"malformed variable name {key!r} (expected 'l:name' or 'r:name')")
    return PropName(Side.LEFT if key[0] == "l" else Side.RIGHT, key[2:])


class Model(Record):
    """A frame (states, edges) with a two-sided valuation.

    `states` keeps declaration order; `edges` is a set of (source, target)
    pairs over one shared relation; `valuation` maps a PropName to the set of
    states where it holds and is implicitly empty for unmentioned names.
    """

    states: tuple[State, ...]
    edges: frozenset[tuple[State, State]]
    valuation: dict[PropName, frozenset[State]] = None  # a fresh {} when not given

    def __post_init__(self):
        if self.valuation is None:
            self.__dict__["valuation"] = {}
        if not self.states:
            raise ModelFormatError("a model needs at least one state")
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise ModelFormatError("duplicate state ids")
        # The least offender is named: set order follows the hash seed.
        for a, b in self.edges:
            if a not in declared or b not in declared:
                stray = min(e for e in self.edges if not declared.issuperset(e))
                raise ModelFormatError(f"edge {stray!r} mentions an undeclared state")
        for prop, members in self.valuation.items():
            if not declared.issuperset(members):
                stray = min(w for w in members if w not in declared)
                raise ModelFormatError(f"valuation of {prop} mentions undeclared state {stray!r}")

    def require_state(self, *ws: State):
        for w in ws:
            if w not in self.successor_map:  # keyed by the states
                raise UnknownState(f"unknown state {w!r}")

    def truth_set(self, prop: PropName) -> frozenset[State]:
        return self.valuation.get(prop, frozenset())

    @cached_property
    def successor_map(self) -> dict[State, tuple[State, ...]]:
        """Successors of every state, built once per model (`edges` is frozen)."""
        succ: dict[State, list[State]] = {w: [] for w in self.states}
        for a, b in self.edges:
            succ[a].append(b)
        return {w: tuple(ws) for w, ws in succ.items()}


# ---------------------------------------------------------------------------
# File format


def read_json(text: str):
    """The JSON document in `text`, for every file loader: malformed text, an
    integer too long to convert, nesting too deep for the decoder, or a key
    repeated in one object raises `ModelFormatError`."""
    try:
        return _DECODER.decode(text)
    except ValueError as exc:  # `JSONDecodeError` is one
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelFormatError("JSON nested too deeply to read") from None


def _unique_keys(pairs: list) -> dict:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ModelFormatError(f"key {key!r} appears more than once in one JSON object")
        doc[key] = value
    return doc


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def load_model(text: str) -> Model:
    doc = read_json(text)
    if not isinstance(doc, dict):
        raise ModelFormatError("model file must be a JSON object")
    unknown = set(doc) - {"states", "edges", "valuation"}
    if unknown:
        raise ModelFormatError(f"unknown keys: {sorted(unknown)}")
    states = doc.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelFormatError("'states' must be a list of strings")
    for s in states:  # `--at` and `--pairs` strip what they read
        if s != s.strip():
            raise ModelFormatError(f"state id {s!r} has leading or trailing whitespace")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise ModelFormatError("'edges' must be a list of [source, target] pairs")
    edge_set = set()
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                and isinstance(e[1], str)):
            raise ModelFormatError(f"bad edge entry {e!r}")
        edge_set.add((e[0], e[1]))
    valuation = {}
    raw_val = doc.get("valuation", {})
    if not isinstance(raw_val, dict):
        raise ModelFormatError("'valuation' must be an object")
    for key, members in raw_val.items():
        prop = _parse_prop_key(key)
        if not (isinstance(members, list) and all(isinstance(w, str) for w in members)):
            raise ModelFormatError(f"valuation of {key!r} must be a list of state ids")
        valuation[prop] = frozenset(members)
    return Model(tuple(states), frozenset(edge_set), valuation)


def model_doc(model: Model) -> dict:
    """The JSON object of the model file format, as `save_model` writes it."""
    return {
        "states": list(model.states),
        "edges": sorted([a, b] for a, b in model.edges),
        "valuation": {
            str(p): sorted(ws)
            for p, ws in sorted(model.valuation.items(), key=lambda kv: str(kv[0]))
        },
    }


def save_model(model: Model) -> str:
    return json.dumps(model_doc(model), indent=2) + "\n"


# ---------------------------------------------------------------------------
# Bounded enumeration (oracle support)

DEFAULT_ENUMERATION_CEILING = 5_000_000


def enumerate_models(max_states: int, props):
    """Yield every model with 1..max_states states over exactly `props`.

    State naming is the fixed canonical `w0..w{n-1}`; no isomorphism
    reduction, so counts match 2^(n^2) * 2^(|props|*n) per size. The first
    size that takes the count past the ceiling raises `ResourceGuard`.
    """
    if max_states < 1:
        raise ValueError("max_states must be at least 1")
    props = sorted(set(props), key=str)
    total = 0
    for n in range(1, max_states + 1):
        if (total := total + (1 << (n * n + len(props) * n))) > DEFAULT_ENUMERATION_CEILING:
            raise ResourceGuard(f"enumeration up to {n} states lists {total} models, over "
                                f"the ceiling of {DEFAULT_ENUMERATION_CEILING}")
    for n in range(1, max_states + 1):
        states = tuple(f"w{i}" for i in range(n))
        all_pairs = [(a, b) for a in states for b in states]
        subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(states, k)]
        for edge_bits in itertools.product((False, True), repeat=n * n):
            edges = frozenset(p for p, bit in zip(all_pairs, edge_bits) if bit)
            for assignment in itertools.product(subsets, repeat=len(props)):
                valuation = dict(zip(props, assignment))
                yield Model(states, edges, valuation)

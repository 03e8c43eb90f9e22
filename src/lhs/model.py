"""Finite two-sided Kripke models, their JSON format, and model constructions."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

from .errors import ModelFormatError, ResourceGuard, UnknownState
from .syntax import PropName, Side

State = str


def _parse_prop_key(key: str) -> PropName:
    if len(key) < 3 or key[0] not in "lr" or key[1] != ":":
        raise ModelFormatError(f"malformed variable name {key!r} (expected 'l:name' or 'r:name')")
    name = key[2:]
    if not name or not (name[0].isalpha() or name[0] == "_"):
        raise ModelFormatError(f"malformed variable name {key!r}")
    if not all(c.isalnum() or c == "_" for c in name):
        raise ModelFormatError(f"malformed variable name {key!r}")
    return PropName(Side.LEFT if key[0] == "l" else Side.RIGHT, name)


@dataclass(frozen=True)
class Model:
    """A frame (states, edges) with a two-sided valuation.

    `states` keeps declaration order; `edges` is a set of (source, target)
    pairs over one shared relation; `valuation` maps a PropName to the set of
    states where it holds and is implicitly empty for unmentioned names.
    """

    states: tuple[State, ...]
    edges: frozenset[tuple[State, State]]
    valuation: dict[PropName, frozenset[State]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.states:
            raise ModelFormatError("a model needs at least one state")
        declared = set(self.states)
        if len(declared) != len(self.states):
            raise ModelFormatError("duplicate state ids")
        for a, b in self.edges:
            if a not in declared or b not in declared:
                raise ModelFormatError(f"edge ({a!r}, {b!r}) mentions an undeclared state")
        for prop, members in self.valuation.items():
            for w in members:
                if w not in declared:
                    raise ModelFormatError(f"valuation of {prop} mentions undeclared state {w!r}")

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


def make_model(states, edges, valuation=None) -> Model:
    """Convenience constructor; valuation keys may be 'l:name' strings."""
    val = {
        p if isinstance(p, PropName) else _parse_prop_key(p): frozenset(ws)
        for p, ws in (valuation or {}).items()
    }
    return Model(tuple(states), frozenset(tuple(e) for e in edges), val)


def successors(model: Model, w: State) -> frozenset[State]:
    model.require_state(w)
    return frozenset(model.successor_map[w])


# ---------------------------------------------------------------------------
# File format


def read_json(text: str):
    """The JSON document in `text`, for every file loader: malformed text, or
    nesting too deep for the decoder, raises `ModelFormatError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ModelFormatError("JSON nested too deeply to read") from None


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
# Constructions


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


def restrict_left(model: Model) -> Model:
    val = {p: ws for p, ws in model.valuation.items() if p.side is Side.LEFT}
    return Model(model.states, model.edges, val)


def restrict_right(model: Model) -> Model:
    val = {p: ws for p, ws in model.valuation.items() if p.side is Side.RIGHT}
    return Model(model.states, model.edges, val)


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

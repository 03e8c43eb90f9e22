"""Tile sets, the satisfiability formula that encodes tiling, and torus models.

A tile set compiles to a formula whose models embed a grid: a spy point sees
every grid state, grid states carry `t`/`u`/`r_` labels, and the up/right
moves are forced to be functional and commuting. Periodic tilings yield
finite torus-shaped models on which the construction is machine-checkable.
"""

from __future__ import annotations

from collections import Counter
from functools import partial

from .errors import InvalidTiling, ModelFormatError, ResourceGuard
from .model import Model, read_json
from .syntax import (
    And,
    BBox,
    BDia,
    Bot,
    EqConst,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Record,
    WBox,
    WDia,
    fold_balanced,
    left_atom,
    right_atom,
)

# The horizontal-step label is surfaced as `r_` because `r:` is the side prefix.
LABEL_UP = "u"
LABEL_RIGHT = "r_"
PHI_OPERAND_CEILING = 250_000


class Tile(Record):
    name: str
    up: str
    down: str
    left: str
    right: str


class TileSet(Record):
    tiles: tuple[Tile, ...]

    def __post_init__(self):
        if not self.tiles:
            raise ModelFormatError("a tile set needs at least one tile")
        names = [t.name for t in self.tiles]
        if len(set(names)) != len(names):
            raise ModelFormatError("tile names must be unique")

    def labels(self) -> list[str]:
        return [LABEL_UP, LABEL_RIGHT] + [f"t{i + 1}" for i in range(len(self.tiles))]


class PeriodicTiling(Record):
    period: tuple[int, int]
    assign: dict[tuple[int, int], str]

    def __post_init__(self):
        p, q = self.period
        if p < 1 or q < 1:
            raise ModelFormatError("period components must be positive")
        # Linear in the file: a huge period with a short assignment is refused
        # without listing its p*q cells.
        rows, cols = range(p), range(q)
        if len(self.assign) != p * q or not all(
                type(c) is tuple and len(c) == 2 and c[0] in rows and c[1] in cols
                for c in self.assign):
            raise ModelFormatError("assignment must cover exactly the period cells")


class TilingViolation(Record):
    cell: tuple[int, int]
    direction: str  # "horizontal" | "vertical"

    def __str__(self):
        return f"{self.direction} color mismatch at cell {self.cell}"


def validate_tiling(ts: TileSet, pt: PeriodicTiling) -> TilingViolation | None:
    """First wrap-around color mismatch, or None when the tiling is valid.

    A cell assigned a tile the set lacks raises `ModelFormatError`.
    """
    by_name = {t.name: t for t in ts.tiles}
    for name in pt.assign.values():
        if name not in by_name:
            raise ModelFormatError(f"unknown tile {name!r}")
    p, q = pt.period
    for x in range(p):
        for y in range(q):
            here = by_name[pt.assign[(x, y)]]
            right_neighbor = by_name[pt.assign[((x + 1) % p, y)]]
            if here.right != right_neighbor.left:
                return TilingViolation((x, y), "horizontal")
            up_neighbor = by_name[pt.assign[(x, (y + 1) % q)]]
            if here.up != up_neighbor.down:
                return TilingViolation((x, y), "vertical")
    return None


# ---------------------------------------------------------------------------
# The satisfiability formula


def generate_phi(ts: TileSet) -> Formula:
    """The conjunction whose satisfiability encodes tilability by `ts`.

    Each distinct subformula is built once, by `mk`, so equal subformulas are
    one object and no later dict or set lookup compares two trees. Each of the
    L labels is folded against the L - 1 others, and each tile against the
    tiles that may follow it up and right; past `PHI_OPERAND_CEILING` such
    operands, counted from the tile set, `ResourceGuard` is raised first.
    """
    labels = ts.labels()
    downs, lefts = Counter(t.down for t in ts.tiles), Counter(t.left for t in ts.tiles)
    size = len(labels) * (len(labels) - 1) + sum(downs[t.up] + lefts[t.right] for t in ts.tiles)
    if size > PHI_OPERAND_CEILING:
        raise ResourceGuard(f"the formula of {len(ts.tiles)} tiles folds {size} operands, "
                            f"over the ceiling of {PHI_OPERAND_CEILING}")
    built: dict = {}

    def mk(node, *parts):
        # Each part is the one object of its subformula and stays alive
        # while `built` does, so its id names it.
        key = (node, *map(id, parts))
        if key not in built:
            built[key] = node(*parts)
        return built[key]

    def fold(node, parts):  # `conjoin` / `disjoin` through `mk`
        return fold_balanced(parts, partial(mk, node))

    la = {p: left_atom(p) for p in labels}
    ra = {p: right_atom(p) for p in labels}
    tiles = labels[2:]  # t1, t2, ...
    tl = fold(Or, [la[t] for t in tiles])
    tr = fold(Or, [ra[t] for t in tiles])
    eq, bot = EqConst(), Bot()

    def dia_step(step_label: str, phi: Formula) -> Formula:
        # White composite move: step onto a step-labelled state, then onto a tile state.
        return mk(And, tl, mk(WDia, mk(And, la[step_label], mk(WDia, mk(And, tl, phi)))))

    def bdia_step(step_label: str, phi: Formula) -> Formula:
        return mk(And, tr, mk(BDia, mk(And, ra[step_label], mk(BDia, mk(And, tr, phi)))))

    spy = mk(And, mk(And, eq, mk(WBox, mk(WBox, mk(BDia, eq)))), mk(WDia, tl))
    same_labels = mk(WBox, mk(BBox, mk(Implies, eq, fold(And, [mk(Iff, la[p], ra[p])
                                                               for p in labels]))))
    unique_label = mk(WBox, fold(And, [
        mk(Iff, la[p], fold(And, [mk(Not, la[q]) for q in labels if q != p])) for p in labels
    ]))

    # Each step is functional: a tile state has a successor with the step's
    # label, and a step state has a tile successor, that every black move to
    # a state of the same kind meets.
    steps = []
    for label in (LABEL_UP, LABEL_RIGHT):
        into_step = mk(WDia, mk(And, la[label], mk(BBox, mk(Implies, ra[label], eq))))
        out_of_step = mk(WDia, mk(And, tl, mk(BBox, mk(Implies, tr, eq))))
        steps.append(mk(WBox, mk(BBox, mk(Implies, mk(And, tl, eq), into_step))))
        steps.append(mk(WBox, mk(BBox, mk(Implies, mk(And, la[label], eq), out_of_step))))
    # The moves commute: after any up step of the first coordinate and any
    # right step of the second, a right step of the first and an up step of
    # the second meet again. A box step is a negated diamond step.
    meet = dia_step(LABEL_RIGHT, bdia_step(LABEL_UP, eq))
    bbox_right = mk(Not, bdia_step(LABEL_RIGHT, mk(Not, meet)))
    box_up = mk(Not, dia_step(LABEL_UP, mk(Not, bbox_right)))
    urt = mk(WBox, mk(BBox, mk(Implies, mk(And, tl, eq), box_up)))

    def tiling_group(step_label: str, matches) -> Formula:
        branches = []
        for here, tile in zip(tiles, ts.tiles):
            continuations = [la[t] for t, other in zip(tiles, ts.tiles) if matches(tile, other)]
            then = fold(Or, continuations) if continuations else bot
            branches.append(mk(Implies, la[here], dia_step(step_label, then)))
        return mk(WBox, mk(Implies, tl, fold(And, branches)))

    t1 = tiling_group(LABEL_UP, lambda a, b: a.up == b.down)
    t2 = tiling_group(LABEL_RIGHT, lambda a, b: a.right == b.left)

    return fold(And, [spy, same_labels, unique_label, *steps, urt, t1, t2])


# ---------------------------------------------------------------------------
# Torus models from periodic tilings


def torus_model(ts: TileSet, pt: PeriodicTiling) -> tuple[Model, str]:
    """Finite wrap-around version of the grid model for a periodic tiling.

    The grid interleaves tile states (even, even) with step states carrying
    the `r_` label at (odd, even) and the `u` label at (even, odd); the spy
    sees every grid state. Returns the model and the spy's id.
    """
    violation = validate_tiling(ts, pt)
    if violation is not None:
        raise InvalidTiling(str(violation))
    p, q = pt.period
    width, height = 2 * p, 2 * q
    spy = "s"
    grid = [
        (a, b) for a in range(width) for b in range(height) if (a * b) % 2 == 0
    ]
    name = {cell: f"{cell[0]},{cell[1]}" for cell in grid}
    states = (spy,) + tuple(name[c] for c in grid)
    edges = {(spy, name[c]) for c in grid}
    for a, b in grid:
        if b % 2 == 0:
            edges.add((name[(a, b)], name[((a + 1) % width, b)]))
        if a % 2 == 0:
            edges.add((name[(a, b)], name[(a, (b + 1) % height)]))
    valuation: dict = {}
    tile_label = dict(zip((t.name for t in ts.tiles), ts.labels()[2:]))

    def mark(label: str, cell):
        valuation.setdefault(left_atom(label).prop, set()).add(name[cell])
        valuation.setdefault(right_atom(label).prop, set()).add(name[cell])

    for a, b in grid:
        if a % 2 == 1 and b % 2 == 0:
            mark(LABEL_RIGHT, (a, b))
        elif a % 2 == 0 and b % 2 == 1:
            mark(LABEL_UP, (a, b))
        else:
            mark(tile_label[pt.assign[((a // 2) % p, (b // 2) % q)]], (a, b))
    model = Model(states, frozenset(edges), {k: frozenset(v) for k, v in valuation.items()})
    return model, spy


# ---------------------------------------------------------------------------
# File formats


def load_tileset(text: str) -> TileSet:
    doc = read_json(text)
    if not isinstance(doc, dict) or set(doc) != {"tiles"}:
        raise ModelFormatError("tile file must be an object with a single 'tiles' key")
    if not isinstance(doc["tiles"], list):
        raise ModelFormatError("'tiles' must be a list of tile objects")
    tiles = []
    for entry in doc["tiles"]:
        if not (isinstance(entry, dict) and set(entry) == {"name", "up", "down", "left", "right"}
                and all(isinstance(v, str) for v in entry.values())):
            raise ModelFormatError(f"bad tile entry {entry!r}")
        tiles.append(Tile(**entry))
    return TileSet(tuple(tiles))


def load_tiling(text: str) -> PeriodicTiling:
    doc = read_json(text)
    if not isinstance(doc, dict) or set(doc) != {"period", "assign"}:
        raise ModelFormatError("tiling file must have exactly 'period' and 'assign'")
    period = doc["period"]
    if not (isinstance(period, list) and len(period) == 2
            and all(isinstance(v, int) and not isinstance(v, bool) for v in period)):
        raise ModelFormatError("'period' must be a pair of integers")
    if not isinstance(doc["assign"], dict):
        raise ModelFormatError("'assign' must be an object from 'x,y' cells to tile names")
    assign, keys = {}, {}
    for key, value in doc["assign"].items():
        parts = key.split(",")
        if len(parts) != 2:
            raise ModelFormatError(f"bad cell key {key!r} (expected 'x,y')")
        try:
            cell = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise ModelFormatError(f"bad cell key {key!r}") from None
        if cell in keys:
            raise ModelFormatError(f"cell keys {keys[cell]!r} and {key!r} name the same cell")
        keys[cell] = key
        if not isinstance(value, str):
            raise ModelFormatError(f"tile of cell {key!r} must be a tile name")
        assign[cell] = value
    return PeriodicTiling((period[0], period[1]), assign)

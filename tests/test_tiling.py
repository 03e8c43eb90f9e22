"""Tile-set compilation, torus models, and tiling validation."""

import hashlib
import json
from pathlib import Path

import pytest

from lhs import (
    InvalidTiling,
    ModelFormatError,
    ResourceGuard,
    check,
    generate_phi,
    load_tileset,
    load_tiling,
    parse,
    render,
    subformulas,
    torus_model,
    validate_tiling,
)
from lhs.syntax import children
from lhs import tiling
from lhs.tiling import PeriodicTiling, Tile, TileSet

from conftest import make_model

DATA = Path(__file__).parent / "data"


def tileset(n, color="c"):
    """n tiles with all four edges the same color (mutually compatible)."""
    return TileSet([Tile(f"T{i+1}", up=color, down=color, left=color, right=color)
                    for i in range(n)])


class TestLoading:
    def test_round_trip_files(self):
        ts = load_tileset((DATA / "one_tile.json").read_text())
        assert len(ts.tiles) == 1
        pt = load_tiling((DATA / "unit_tiling.json").read_text())
        assert pt.period == (1, 1)

    def test_unknown_key_rejected(self):
        with pytest.raises(Exception):
            load_tileset('{"tiles": [], "bogus": 1}')

    def test_duplicate_names_rejected(self):
        text = json.dumps({"tiles": [
            {"name": "T", "up": "a", "down": "a", "left": "a", "right": "a"},
            {"name": "T", "up": "b", "down": "b", "left": "b", "right": "b"},
        ]})
        with pytest.raises(Exception):
            load_tileset(text)


class TestPeriod:
    @pytest.mark.parametrize("assign", [
        {(0, 0): "T1"},
        {(0, 0): "T1", (0, 2): "T1"},
        {(0, 0): "T1", (-1, 0): "T1"},
        {(0, 0): "T1", "0,1": "T1"},
    ])
    def test_assignment_must_cover_the_period(self, assign):
        with pytest.raises(ModelFormatError, match="cover exactly the period cells"):
            PeriodicTiling((1, 2), assign)


class TestValidate:
    def test_uniform_tile_ok(self):
        ts = tileset(1)
        pt = PeriodicTiling((1, 1), {(0, 0): "T1"})
        assert validate_tiling(ts, pt) is None

    def test_horizontal_mismatch_located(self):
        ts = load_tileset((DATA / "mismatched_tile.json").read_text())
        pt = PeriodicTiling((1, 1), {(0, 0): ts.tiles[0].name})
        violation = validate_tiling(ts, pt)
        assert violation is not None
        assert violation.cell == (0, 0)
        assert violation.direction == "horizontal"

    def test_checkerboard_ok(self):
        ts = TileSet([
            Tile("A", left="0", right="1", up="2", down="3"),
            Tile("B", left="1", right="0", up="3", down="2"),
        ])
        pt = PeriodicTiling((2, 2), {(0, 0): "A", (1, 0): "B",
                                     (0, 1): "B", (1, 1): "A"})
        assert validate_tiling(ts, pt) is None

    def test_stripes_ok(self):
        ts = load_tileset((DATA / "stripe_tiles.json").read_text())
        pt = load_tiling((DATA / "stripe_tiling.json").read_text())
        assert validate_tiling(ts, pt) is None


class TestGeneratePhi:
    def test_spy_conjunct_present(self):
        phi = generate_phi(tileset(1))
        assert parse("I & [W][W]<B>I & <W>l:t1") in subformulas(phi)

    def test_spy_conjunct_two_tiles(self):
        phi = generate_phi(tileset(2))
        assert parse("I & [W][W]<B>I & <W>(l:t1 | l:t2)") in subformulas(phi)

    def test_self_matching_tile_keeps_up_neighbor_clause(self):
        # one tile whose up color equals its down color: the vertical
        # successor-label disjunction is the tile itself
        phi = generate_phi(tileset(1))
        dia_u_t1 = parse("l:t1 & <W>(l:u & <W>(l:t1 & l:t1))")
        assert dia_u_t1 in subformulas(phi)

    def test_unmatchable_tile_gets_empty_disjunction(self):
        ts = load_tileset((DATA / "mismatched_tile.json").read_text())
        phi = generate_phi(ts)
        dia_u_false = parse("l:t1 & <W>(l:u & <W>(l:t1 & false))")
        assert dia_u_false in subformulas(phi)

    # sha256 of `render(generate_phi(ts))`: building each subformula once
    # must not change the formula's text.
    @pytest.mark.parametrize("name, digest", [
        ("mismatched_tile", "702a5722dbb7e0d0eb2c511315c9cab8ae4af500c05a9faedb054543333b9417"),
        ("one_tile", "806070f084c674395092428e8b0568e119b949904174ad1d4ac937320aad1159"),
        ("stripe_tiles", "f50e0a0864e3f531d3cee9af91f5381832fdc36f9fdeac3fac50b7b13042e9b5"),
    ])
    def test_one_object_per_distinct_subformula(self, name, digest):
        phi = generate_phi(load_tileset((DATA / f"{name}.json").read_text()))
        assert hashlib.sha256(render(phi).encode()).hexdigest() == digest
        ids, stack = set(), [phi]
        while stack:
            f = stack.pop()
            if id(f) not in ids:
                ids.add(id(f))
                stack.extend(children(f))
        assert len(ids) == len(subformulas(phi))

    def test_operand_count_guard(self, monkeypatch):
        # Stripe tiles: 4 labels, each folded against 3; A may sit below B
        # and B below A; each may sit left of each. 12 + 2 + 4 = 18 operands.
        ts = load_tileset((DATA / "stripe_tiles.json").read_text())
        monkeypatch.setattr(tiling, "PHI_OPERAND_CEILING", 18)
        generate_phi(ts)
        monkeypatch.setattr(tiling, "PHI_OPERAND_CEILING", 17)
        with pytest.raises(ResourceGuard, match="the formula of 2 tiles folds 18 operands, "
                                                "over the ceiling of 17$"):
            generate_phi(ts)

    def test_operand_ceiling(self):
        # n tiles of one colour: (n + 2)(n + 1) + 2n^2 operands, 249,698 at
        # n = 288 and 251,432 at n = 289. The count is read off the tile set.
        with pytest.raises(ResourceGuard, match="289 tiles folds 251432 operands"):
            generate_phi(tileset(289))
        assert "l:t288" in render(generate_phi(tileset(288)))

    def test_subformula_count_linear(self):
        counts = [len(subformulas(generate_phi(tileset(n)))) for n in range(1, 13)]
        steps = [b - a for a, b in zip(counts, counts[1:])]
        # growth per extra tile stays within a small constant band
        assert max(steps) <= 20
        assert counts[-1] <= counts[0] + 20 * (len(counts) - 1)


class TestTorusModel:
    def test_unit_torus_shape(self):
        ts = load_tileset((DATA / "one_tile.json").read_text())
        pt = load_tiling((DATA / "unit_tiling.json").read_text())
        model, spy = torus_model(ts, pt)
        assert len(model.states) == 4  # spy + the three even-coordinate cells
        grid = set(model.states) - {spy}
        assert frozenset(model.successor_map[spy]) == frozenset(grid)

    def test_unit_torus_satisfies_phi(self):
        ts = load_tileset((DATA / "one_tile.json").read_text())
        pt = load_tiling((DATA / "unit_tiling.json").read_text())
        model, spy = torus_model(ts, pt)
        assert check(model, spy, spy, generate_phi(ts))

    def test_stripe_torus_satisfies_phi(self):
        ts = load_tileset((DATA / "stripe_tiles.json").read_text())
        pt = load_tiling((DATA / "stripe_tiling.json").read_text())
        model, spy = torus_model(ts, pt)
        assert len(model.states) == 7
        assert check(model, spy, spy, generate_phi(ts))

    def test_spy_edge_removal_breaks_phi(self):
        ts = load_tileset((DATA / "one_tile.json").read_text())
        pt = load_tiling((DATA / "unit_tiling.json").read_text())
        model, spy = torus_model(ts, pt)
        victim = sorted(set(model.states) - {spy})[0]
        pruned = make_model(
            model.states,
            [(a, b) for a, b in model.edges if (a, b) != (spy, victim)],
            {f"{p.side.value}:{p.name}": sorted(ws)
             for p, ws in model.valuation.items()},
        )
        assert not check(pruned, spy, spy, generate_phi(ts))

    def test_invalid_tiling_rejected(self):
        ts = load_tileset((DATA / "mismatched_tile.json").read_text())
        pt = PeriodicTiling((1, 1), {(0, 0): ts.tiles[0].name})
        with pytest.raises(InvalidTiling):
            torus_model(ts, pt)

    def test_tile_cells_have_one_up_and_one_right_continuation(self):
        ts = load_tileset((DATA / "stripe_tiles.json").read_text())
        pt = load_tiling((DATA / "stripe_tiling.json").read_text())
        model, spy = torus_model(ts, pt)
        from lhs.syntax import PropName, Side
        u_states = model.truth_set(PropName(Side.LEFT, "u"))
        r_states = model.truth_set(PropName(Side.LEFT, "r_"))
        tiles = set(model.states) - {spy} - set(u_states) - set(r_states)
        for w in tiles:
            succ = frozenset(model.successor_map[w])
            assert len(succ & u_states) == 1
            assert len(succ & r_states) == 1
        # intermediate states continue in exactly one direction
        for w in set(u_states) | set(r_states):
            assert len(model.successor_map[w]) == 1

"""Seeded inputs for the three workloads.

Every workload mixes a pool of random inputs with pinned cases. The pool
(formulas, and for `models` also the models and evaluation pairs) is drawn
once from a fixed pool seed, so every run meets the same mix of easy and
hard queries. The run seed turns each pooled input into an isomorphic copy:
it renames variables and states, may swap the two coordinates (which keeps
every verdict), and it orders the queries. A fresh random draw per seed
would move the workload's times more than any bound could tolerate: a few
hard formulas more or less decide the tail. Pinned cases (the known bad
cases, the branching family and identities with known verdicts) are the
same in every run.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

POOL_SEED = 20230526

# Per-query time budgets in seconds. A query that runs past its budget is
# stopped and counted as failed, with the budget as its latency.
BUDGET_S = {"decide": 1.0, "models": 5.0, "fullsat": 3.0}


@dataclass
class Query:
    """One request. `argv` goes through `lhs.cli.main`; `call` names a library
    function as (module, function), called with `args`, each a (kind, value)
    pair: a formula text to parse, a model file loaded at set-up, or a value."""

    name: str
    budget: float
    argv: list | None = None
    call: tuple | None = None
    args: tuple = ()
    codes: tuple = (0, 1)  # exit codes the CLI documents for this request
    expect: dict = field(default_factory=dict)  # what the answer check needs


# ---------------------------------------------------------------------------
# Formula text

_UNARY = ["~", "[W]", "<W>", "[B]", "<B>"]
_BINARY = ["&", "|", "->", "<->"]
_OPS = _UNARY + _BINARY
_WEIGHTS = [2, 1.5, 1.5, 1.5, 1.5, 3, 3, 1, 0.5]


def random_formula(rng: random.Random, depth: int, names, allow_i: bool,
                   i_share: float = 0.15) -> str:
    """Fully parenthesised random formula text of connective depth <= depth."""
    if depth == 0 or rng.random() < 0.25:
        if allow_i and rng.random() < i_share:
            return "I"
        return f"{rng.choice('lr')}:{rng.choice(names)}"
    op = rng.choices(_OPS, weights=_WEIGHTS)[0]
    if op in _UNARY:
        return op + random_formula(rng, depth - 1, names, allow_i, i_share)
    left = random_formula(rng, depth - 1, names, allow_i, i_share)
    right = random_formula(rng, depth - 1, names, allow_i, i_share)
    return f"({left} {op} {right})"


_TOKEN = re.compile(r"([lr]):([A-Za-z_][A-Za-z0-9_]*)|\[W\]|<W>|\[B\]|<B>")
_MIRROR = {"[W]": "[B]", "<W>": "<B>", "[B]": "[W]", "<B>": "<W>"}


class Renaming:
    """A seeded isomorphism: variables renamed within each side, and with
    `mirror` the two coordinates swapped (`l:`/`r:` and `[W]`/`[B]`), which
    preserves every verdict once evaluation pairs are swapped too.

    With `keep_order` the new names are fresh letters in the same sorted order
    and the sides stay put: bounded search enumerates valuations in sorted
    variable order, so this keeps its work the same across seeds.
    """

    def __init__(self, rng: random.Random, names, keep_order: bool = False):
        if keep_order:
            letters = "abcdefghijklmnopqrstuvwxyz"
            self.names = {side: dict(zip(sorted(names), sorted(rng.sample(letters, len(names)))))
                          for side in "lr"}
            self.mirror = False
        else:
            self.names = {side: dict(zip(names, rng.sample(list(names), len(names))))
                          for side in "lr"}
            self.mirror = rng.random() < 0.5

    def atom(self, side: str, name: str) -> str:
        name = self.names[side].get(name, name)
        if self.mirror:
            side = "r" if side == "l" else "l"
        return f"{side}:{name}"

    def formula(self, text: str) -> str:
        def sub(m):
            if m.group(1) is None:
                tok = m.group(0)
                return _MIRROR[tok] if self.mirror else tok
            return self.atom(m.group(1), m.group(2))

        return _TOKEN.sub(sub, text)

    def pair(self, s: str, t: str) -> list:
        return [t, s] if self.mirror else [s, t]

    def model(self, doc: dict, rng: random.Random) -> tuple[dict, dict]:
        """Renamed copy of a model with shuffled state names, and the state map."""
        states = doc["states"]
        image = dict(zip(states, rng.sample([f"w{i}" for i in range(len(states))], len(states))))
        copy = {
            "states": sorted(image.values(), key=lambda w: int(w[1:])),
            "edges": sorted([image[a], image[b]] for a, b in doc["edges"]),
            "valuation": {self.atom(*key.split(":")): sorted(image[w] for w in ws)
                          for key, ws in doc["valuation"].items()},
        }
        return copy, image


# ---------------------------------------------------------------------------
# decide: I-free `sat --json` / `valid --json` through the decision procedure

DECIDE_POOL = 100
DECIDE_NAMES = ("p", "q", "r")

# ROADMAP bad cases. The first does not finish in 5 s; the <-> chain of
# length 5 is refused at 100k clauses.
DECIDE_BAD = {
    "bad.companion_blowup": "<B> <W> ([B] l:p -> <W> <B> true)",
    "bad.iff_chain5": "((((l:p0 <-> [B]r:p1) <-> [W]l:p2) <-> [B]r:p3) <-> [W]l:p4)",
}

# Identities and non-identities with known verdicts: verb, formula, verdict.
DECIDE_KNOWN = {
    "known.r_axiom_white": ("valid", "[W](l:p | r:p) <-> ([W]l:p | r:p)", "VALID"),
    "known.r_axiom_black": ("valid", "[B](l:p | r:p) <-> (l:p | [B]r:p)", "VALID"),
    "known.r_dual_white": ("valid", "<W>(l:p & r:q) <-> (<W>l:p & r:q)", "VALID"),
    "known.k_white": ("valid", "[W](l:p -> l:q) -> ([W]l:p -> [W]l:q)", "VALID"),
    "known.k_black": ("valid", "[B](r:p -> r:q) -> ([B]r:p -> [B]r:q)", "VALID"),
    "known.boxes_commute": ("valid", "[W][B]l:p <-> [B][W]l:p", "VALID"),
    "known.diamonds_commute": ("valid", "<W><B>r:p <-> <B><W>r:p", "VALID"),
    "known.no_reflexivity": ("valid", "[W]l:p -> l:p", "INVALID"),
    "known.black_box_moves_other": ("valid", "[W]l:p -> [B]l:p", "INVALID"),
    "known.dia_box_clash": ("sat", "<W>l:p & [W]~l:p", "UNSAT"),
    "known.sides_independent": ("sat", "l:p & ~r:p", "SAT"),
    "known.mixed_dia": ("sat", "<W>(l:p & r:q) & <B>(~r:q & l:p)", "SAT"),
}


def k_branch(k: int) -> str:
    """One-sided K-branching formula in the style of LWB k_branch; UNSAT."""
    body = " & ".join(f"(l:a{i} | l:b{i})" for i in range(1, k + 1))
    return f"[W]({body} & [W]false) & <W><W>true"


def decide_queries(seed: int, workdir: Path) -> list[Query]:
    budget = BUDGET_S["decide"]
    pool_rng, rng = random.Random(POOL_SEED), random.Random(seed)
    queries = []
    for i in range(DECIDE_POOL):
        text = random_formula(pool_rng, pool_rng.randint(3, 5), DECIDE_NAMES, allow_i=False)
        verb = pool_rng.choice(["sat", "valid"])
        text = Renaming(rng, DECIDE_NAMES).formula(text)
        queries.append(Query(f"random.{i:03d}", budget, argv=[verb, "--json", "-f", text],
                             expect={"formula": text}))
    for name, text in DECIDE_BAD.items():
        queries.append(Query(name, budget, argv=["valid", "--json", "-f", text],
                             expect={"formula": text}))
    for k in range(8, 14):
        text = k_branch(k)
        queries.append(Query(f"branch.k{k:02d}", budget, argv=["sat", "--json", "-f", text],
                             expect={"formula": text, "verdict": "UNSAT"}))
    for name, (verb, text, verdict) in DECIDE_KNOWN.items():
        queries.append(Query(name, budget, argv=[verb, "--json", "-f", text],
                             expect={"formula": text, "verdict": verdict}))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# models: model checking, all-pairs sweeps, tiling tori and bisimulation

MODEL_SIZES = (20, 40, 60, 80)
MODEL_NAMES = ("p", "q")
POINTS_PER_MODEL = 15
SWEEPS_PER_MODEL = 2
STACK_DEPTH = 3000

# Stripe tiles: A and B alternate vertically, any horizontal period works.
STRIPE_TILES = {"tiles": [{"name": "A", "up": "1", "down": "2", "left": "0", "right": "0"},
                          {"name": "B", "up": "2", "down": "1", "left": "0", "right": "0"}]}
TILING_PERIODS = ((2, 2), (3, 4), (6, 4))
BISIM_SIZES = (8, 12, 14, 16, 18, 20)


def random_model(rng: random.Random, n: int, degree: int, names) -> dict:
    states = [f"s{i}" for i in range(n)]
    edges = sorted({(a, rng.choice(states)) for a in states for _ in range(degree)})
    valuation = {f"{side}:{p}": [s for s in states if rng.random() < 0.5]
                 for side in "lr" for p in names}
    return {"states": states, "edges": [list(e) for e in edges], "valuation": valuation}


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def models_queries(seed: int, workdir: Path) -> list[Query]:
    """Models, formulas and evaluation pairs come from the pool; the run seed
    gives each model and its formulas one isomorphic renaming."""
    budget = BUDGET_S["models"]
    pool_rng, rng = random.Random(POOL_SEED + 1), random.Random(seed)
    queries = []
    for n in MODEL_SIZES:
        base = random_model(pool_rng, n, 3, MODEL_NAMES)
        ren = Renaming(rng, MODEL_NAMES)
        doc, image = ren.model(base, rng)
        path = _write(workdir / f"model{n}.json", doc)
        for j in range(POINTS_PER_MODEL):
            text = ren.formula(random_formula(pool_rng, pool_rng.randint(3, 5), MODEL_NAMES, True))
            s, t = ren.pair(image[pool_rng.choice(base["states"])],
                            image[pool_rng.choice(base["states"])])
            queries.append(Query(f"check.n{n}.{j:02d}", budget,
                                 argv=["check", "--json", "-m", path, "--at", f"{s},{t}", "-f", text],
                                 expect={"formula": text, "model": path, "pair": [s, t]}))
        for j in range(SWEEPS_PER_MODEL):
            text = ren.formula(random_formula(pool_rng, 5, MODEL_NAMES, True))
            queries.append(Query(f"check_all.n{n}.{j}", budget,
                                 call=("lhs.semantics", "check_all"),
                                 args=(("model", path), ("formula", text)),
                                 expect={"formula": text, "model": path}))
    tiles = _write(workdir / "stripe_tiles.json", STRIPE_TILES)
    for p, q in TILING_PERIODS:
        phase = rng.randrange(2)
        assign = {f"{x},{y}": "AB"[(y + phase) % 2] for x in range(p) for y in range(q)}
        tiling = _write(workdir / f"tiling{p}x{q}.json", {"period": [p, q], "assign": assign})
        queries.append(Query(f"tiling.{p}x{q}", budget,
                             argv=["tiling", "model", "--json", "--check", "-t", tiles, "-a", tiling],
                             codes=(0,), expect={"phi_T": True}))
    for i, n in enumerate(BISIM_SIZES):
        # Even sizes compare a model with an isomorphic copy, odd ones two
        # unrelated models.
        left_base = random_model(pool_rng, n, 2, MODEL_NAMES)
        if i % 2 == 0:
            iso = dict(zip(left_base["states"], pool_rng.sample(left_base["states"], n)))
            right_base = {
                "states": left_base["states"],
                "edges": [[iso[a], iso[b]] for a, b in left_base["edges"]],
                "valuation": {k: [iso[w] for w in ws] for k, ws in left_base["valuation"].items()},
            }
        else:
            iso, right_base = None, random_model(pool_rng, n, 2, MODEL_NAMES)
        ren = Renaming(rng, MODEL_NAMES)
        left, limage = ren.model(left_base, rng)
        right, rimage = ren.model(right_base, rng)
        image = None if iso is None else {limage[w]: rimage[iso[w]] for w in left_base["states"]}
        lpath = _write(workdir / f"bisim{n}a.json", left)
        rpath = _write(workdir / f"bisim{n}b.json", right)
        queries.append(Query(f"bisim.n{n}.{'iso' if image else 'random'}", budget,
                             argv=["bisim", "--json", "-m", lpath, "-n", rpath], codes=(0,),
                             expect={"left": lpath, "right": rpath, "image": image}))
    # ROADMAP stack cases: RecursionError escapes cli.main today.
    # Both formulas are equivalent to l:p, which gives their answer without a
    # recursive evaluator.
    small_doc = random_model(rng, 3, 2, MODEL_NAMES)
    small = _write(workdir / "small.json", small_doc)
    answer = "s0" in small_doc["valuation"]["l:p"]
    deep_not = "~" * (2 * (STACK_DEPTH // 2)) + "l:p"
    wide_and = " & ".join(["l:p"] * STACK_DEPTH)
    for name, text in (("bad.deep_not", deep_not), ("bad.wide_and", wide_and)):
        queries.append(Query(name, budget,
                             argv=["check", "--json", "-m", small, "--at", "s0,s1", "-f", text],
                             expect={"verdict": answer}))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# fullsat: bounded satisfiability for the full language (with I)

FULLSAT_POOL = 100
FULLSAT_NAMES = ("p", "q")
ORACLE_BOUNDS = (3, 3, 3, 4, 4, 4)

# Each needs four states (four distinct left valuations over p, q), so the
# search exhausts bound 3 (13-17 s today) and bound 4 is refused (exit 70).
# They get a shorter budget than the pool: the numpy kernel answers them in
# 0.01-0.5 s, and each second they wait is a second of every pass.
PINNED_BUDGET_S = 1.0
FULLSAT_PINNED = {
    "white": "l:p & l:q & <W>(l:p & ~l:q) & <W>(~l:p & l:q) & <W>(~l:p & ~l:q)",
    "black": "r:p & r:q & <B>(r:p & ~r:q) & <B>(~r:p & r:q) & <B>(~r:p & ~r:q)",
    "eq": "I & l:p & l:q & <W>(~l:p & l:q) & <W>(~l:p & ~l:q) & <W>(l:p & ~l:q & ~I)",
}


def fullsat_formula(rng: random.Random) -> str:
    parts = [random_formula(rng, rng.randint(2, 3), FULLSAT_NAMES, True, 0.2) for _ in range(4)]
    return " & ".join(f"({p})" for p in parts)


def fullsat_queries(seed: int, workdir: Path) -> list[Query]:
    budget = BUDGET_S["fullsat"]
    pool_rng, rng = random.Random(POOL_SEED + 2), random.Random(seed)
    queries = []
    for i in range(FULLSAT_POOL):
        text = Renaming(rng, FULLSAT_NAMES, keep_order=True).formula(fullsat_formula(pool_rng))
        queries.append(Query(f"random.{i:03d}", budget,
                             argv=["sat", "--full", "--max-size", "2", "--json", "-f", text],
                             codes=(0, 2), expect={"formula": text, "bound": 2}))
    for i, bound in enumerate(ORACLE_BOUNDS):
        text = Renaming(rng, FULLSAT_NAMES, keep_order=True).formula(fullsat_formula(pool_rng))
        queries.append(Query(f"oracle.b{bound}.{i}", budget,
                             call=("lhs.decide", "brute_force_sat_oracle"),
                             args=(("formula", text), ("value", bound)),
                             expect={"formula": text, "bound": bound}))
    for name, text in FULLSAT_PINNED.items():
        queries.append(Query(f"bad.bound3.{name}", PINNED_BUDGET_S,
                             argv=["sat", "--full", "--max-size", "3", "--json", "-f", text],
                             codes=(0, 2),
                             expect={"formula": text, "bound": 3,
                                     "verdict": "NO-MODEL-UP-TO-BOUND"}))
    text = FULLSAT_PINNED["white"]
    # The same questions through the numpy oracle, which answers them today.
    for bound, verdict in ((3, "NO-MODEL-UP-TO-BOUND"), (4, "SAT")):
        queries.append(Query(f"oracle.pinned.b{bound}.white", budget,
                             call=("lhs.decide", "brute_force_sat_oracle"),
                             args=(("formula", text), ("value", bound)),
                             expect={"formula": text, "bound": bound, "verdict": verdict}))
    queries.append(Query("bad.bound4.white", PINNED_BUDGET_S,
                         argv=["sat", "--full", "--max-size", "4", "--json", "-f", text],
                         codes=(0, 2), expect={"formula": text, "bound": 4, "verdict": "SAT"}))
    rng.shuffle(queries)
    return queries


WORKLOAD_QUERIES = {"decide": decide_queries, "models": models_queries, "fullsat": fullsat_queries}

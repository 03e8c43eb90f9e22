"""Acceptance gate: one test per top-level criterion, one printed verdict each.

Tolerances are pinned in the assertions: zero violations everywhere, 600 s for
the oracle sweep, 30 s per torus check. Sample sizes meet or exceed the stated
minimums (300 / 200 / 20 / 500 / 50x200 / 2 / 20-per-proof / 200-per-property).
"""

import random
import time
from pathlib import Path

from lhs import (
    BBox,
    Iff,
    Not,
    Or,
    WBox,
    are_bisimilar,
    brute_force_sat_oracle,
    check,
    check_bisimulation_witness,
    check_proof,
    companion,
    fo_eval,
    fo_translate,
    generate_phi,
    largest_bisimulation,
    lhs_minus_sat,
    lhs_minus_valid,
    load_proof,
    load_tileset,
    load_tiling,
    parse,
    render,
    torus_model,
)
from lhs.bruteforce import find_model
from lhs.proof import ProofLine
from lhs.syntax import Side

from conftest import (
    all_pairs,
    disjoint_union,
    generated_submodel,
    make_model,
    one_sided_eval,
    random_formula,
    random_i_free,
    random_model,
    random_one_sided,
    rename_copy,
    restrict_left,
    restrict_right,
)

DATA = Path(__file__).parent / "data"


def report(capsys, number, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"\nCRITERION {number}: {verdict} - {detail}")
    assert ok, detail


def test_criterion_1_decision_procedure_vs_oracle(capsys):
    rng = random.Random(101)
    started = time.monotonic()
    disagreements = []
    for i in range(300):
        phi = random_i_free(rng, depth=2 if i % 2 else 3)
        mine = lhs_minus_sat(phi)
        oracle = brute_force_sat_oracle(phi, 4)
        if oracle.status == "SAT" and mine.status != "SAT":
            disagreements.append(render(phi))
        if mine.status == "UNSAT" and oracle.status != "NO-MODEL-UP-TO-BOUND":
            disagreements.append(render(phi))
    elapsed = time.monotonic() - started
    ok = not disagreements and elapsed < 600
    report(capsys, 1, ok,
           f"decision procedure vs brute-force oracle on 300 formulas of depth 2 and 3, "
           f"{len(disagreements)} disagreements, {elapsed:.1f}s (limit 600s)")


def test_criterion_2_companion_equivalence(capsys):
    rng = random.Random(202)
    violations = []
    for i in range(200):
        phi = random_i_free(rng, depth=2 if i % 2 else 3)
        phi_c = companion(phi).to_formula()
        witness = find_model(Not(Iff(phi, phi_c)), 3)
        if witness is not None:
            violations.append(render(phi))
    report(capsys, 2, not violations,
           f"companion equivalence on 200 formulas over all models with <= 3 "
           f"states, {len(violations)} violations")


def test_criterion_3_pinned_identities_and_axioms(capsys):
    problems = []
    # the companion of a black box over a left atom: left side is the atom,
    # right side is the boxed empty side, `[B]false`
    cnf = companion(parse("[B]l:p"))
    if len(cnf.conjuncts) != 1:
        problems.append("boxed-atom companion is not a single conjunct")
    else:
        psi, gamma = cnf.conjuncts[0]
        if psi != parse("l:p"):
            problems.append(f"boxed-atom companion left side: {render(psi)}")
        if gamma != parse("[B]false"):
            problems.append(f"boxed-atom companion right side: {render(gamma)}")
    axioms = [
        "[W](l:p | r:p) <-> ([W]l:p | r:p)",
        "[B](l:p | r:p) <-> (l:p | [B]r:p)",
        "[W](l:p -> l:q) -> ([W]l:p -> [W]l:q)",
        "[B](r:p -> r:q) -> ([B]r:p -> [B]r:q)",
    ]
    for text in axioms:
        if lhs_minus_valid(parse(text)).status != "VALID":
            problems.append(f"axiom not validated: {text}")
    rng = random.Random(303)
    for _ in range(20):
        chi = random_i_free(rng, depth=2)
        phi = Iff(WBox(BBox(chi)), BBox(WBox(chi)))
        if lhs_minus_valid(phi).status != "VALID":
            problems.append(f"box commutation not validated for {render(chi)}")
    bad = parse("[W](l:p | l:q) -> ([W]l:p | l:q)")
    verdict = lhs_minus_valid(bad)
    if verdict.status != "INVALID":
        problems.append("one-sided distribution wrongly validated")
    else:
        s, t = verdict.pair
        if check(verdict.model, s, t, bad):
            problems.append("countermodel does not falsify the formula")
    report(capsys, 3, not problems,
           f"companion identity, 4 axioms, 20 box-commutation instances, "
           f"1 refutation with witness; problems: {problems or 'none'}")


def test_criterion_4_standard_translation(capsys):
    rng = random.Random(404)
    violations = 0
    for _ in range(500):
        m = random_model(rng, max_states=5)
        phi = random_formula(rng, depth=3)  # includes I
        s, t = rng.choice(all_pairs(m))
        if check(m, s, t, phi) != fo_eval(m, fo_translate(phi), {"x": s, "y": t}):
            violations += 1
    report(capsys, 4, violations == 0,
           f"translation agreement on 500 random instances, "
           f"{violations} violations")


def test_criterion_5_bisimulation_invariance(capsys):
    rng = random.Random(505)
    problems = []
    pairs_checked = 0
    for i in range(50):
        m = random_model(rng, max_states=3)
        if i % 2:
            n, ren = rename_copy(m)
        else:
            extra = random_model(rng, max_states=2)
            n, ren, _ = disjoint_union(m, extra)
        s, t = rng.choice(all_pairs(m))
        s2, t2 = ren[s], ren[t]
        if not are_bisimilar(m, s, t, n, s2, t2):
            problems.append(f"pair {i} not related")
            continue
        rel = largest_bisimulation(m, n)
        if check_bisimulation_witness(rel) is not None:
            problems.append(f"pair {i}: fixpoint fails its own clauses")
        for _ in range(200):
            phi = random_formula(rng, depth=2)
            if check(m, s, t, phi) != check(n, s2, t2, phi):
                problems.append(f"pair {i}: disagree on {render(phi)}")
                break
        pairs_checked += 1
    # negatives: a diagonal pair is never related to a non-diagonal one
    for _ in range(20):
        m = random_model(rng, max_states=3, val_prob=0.0)
        states = sorted(m.states)
        if len(states) < 2:
            continue
        if are_bisimilar(m, states[0], states[0], m, states[0], states[1]):
            problems.append("diagonal related to non-diagonal")
    report(capsys, 5, not problems,
           f"{pairs_checked} bisimilar pairs related and invariant over 200 "
           f"formulas each, diagonal negatives rejected; "
           f"problems: {problems or 'none'}")


def test_criterion_6_tiling_torus(capsys):
    problems = []
    timings = []
    cases = [("one_tile.json", "unit_tiling.json", 4),
             ("stripe_tiles.json", "stripe_tiling.json", 7)]
    for tiles_file, tiling_file, size in cases:
        ts = load_tileset((DATA / tiles_file).read_text())
        pt = load_tiling((DATA / tiling_file).read_text())
        model, spy = torus_model(ts, pt)
        phi = generate_phi(ts)
        started = time.monotonic()
        holds = check(model, spy, spy, phi)
        elapsed = time.monotonic() - started
        timings.append(elapsed)
        if len(model.states) != size:
            problems.append(f"{tiles_file}: {len(model.states)} states")
        if not holds:
            problems.append(f"{tiles_file}: phi_T fails at the spy pair")
        if elapsed >= 30:
            problems.append(f"{tiles_file}: check took {elapsed:.1f}s")
        # mutation: drop one spy edge, the formula must fail
        victim = sorted(set(model.states) - {spy})[0]
        pruned = make_model(
            model.states,
            [e for e in model.edges if e != (spy, victim)],
            {f"{p.side.value}:{p.name}": sorted(ws)
             for p, ws in model.valuation.items()},
        )
        if check(pruned, spy, spy, phi):
            problems.append(f"{tiles_file}: spy-edge mutation not detected")
    report(capsys, 6, not problems,
           f"torus models satisfy phi_T in {max(timings):.2f}s worst case "
           f"(limit 30s), mutations detected; problems: {problems or 'none'}")


def test_criterion_7_proof_corpus(capsys):
    corpus = sorted(DATA.glob("proof_*.json"))
    problems = []
    if len(corpus) < 6:
        problems.append(f"corpus has only {len(corpus)} derivations")
    for path in corpus:
        lines = load_proof(path.read_text())
        if check_proof(lines) is not None:
            problems.append(f"{path.stem} does not verify")
            continue
        if lhs_minus_valid(lines[-1].formula).status != "VALID":
            problems.append(f"{path.stem} conclusion not valid")
        rng = random.Random(len(path.stem))
        for _ in range(20):
            i = rng.randrange(len(lines))
            bad = list(lines)
            old = bad[i]
            bad[i] = ProofLine(Not(old.formula), old.rule, old.premises,
                               old.left_map, old.right_map)
            error = check_proof(bad)
            if error is None or error.line != i + 1:
                problems.append(f"{path.stem}: mutation at line {i + 1} missed")
    rules = {line.rule for path in corpus for line in load_proof(path.read_text())}
    missing = {"A1", "A2", "A3", "K_box", "K_bbox", "R_box", "R_bbox",
               "Sub", "MP", "Nec_W", "Nec_B"} - rules
    if missing:
        problems.append(f"rules never exercised: {sorted(missing)}")
    report(capsys, 7, not problems,
           f"{len(corpus)} derivations verify with valid conclusions, 20 "
           f"mutations each rejected at the right line; "
           f"problems: {problems or 'none'}")


def test_criterion_8_structural_properties(capsys):
    rng = random.Random(808)
    counts = {"generated submodel": 0, "disjoint union white": 0,
              "disjoint union black": 0, "restriction": 0,
              "opposite-coordinate invariance": 0, "box distribution": 0,
              "box distribution validity": 0}
    problems = []

    for _ in range(200):
        m = random_model(rng, max_states=5)
        states = sorted(m.states)
        s, t = rng.choice(states), rng.choice(states)
        phi = random_formula(rng, depth=3)
        sub = generated_submodel(m, {s, t})
        if check(m, s, t, phi) != check(sub, s, t, phi):
            problems.append("generated submodel changes truth")
        counts["generated submodel"] += 1

    for _ in range(200):
        m, n = random_model(rng), random_model(rng)
        u, rm, rn = disjoint_union(m, n)
        s = rng.choice(sorted(m.states))
        t = rng.choice(sorted(n.states))
        psi = random_one_sided(rng, Side.LEFT, depth=3)
        gamma = random_one_sided(rng, Side.RIGHT, depth=3)
        if check(u, rm[s], rn[t], psi) != one_sided_eval(m, s, psi):
            problems.append("white formula not preserved by disjoint union")
        counts["disjoint union white"] += 1
        if check(u, rm[s], rn[t], gamma) != one_sided_eval(n, t, gamma):
            problems.append("black formula not preserved by disjoint union")
        counts["disjoint union black"] += 1

    for _ in range(200):
        m = random_model(rng, max_states=5)
        s = rng.choice(sorted(m.states))
        psi = random_one_sided(rng, Side.LEFT, depth=3)
        gamma = random_one_sided(rng, Side.RIGHT, depth=3)
        if check(m, s, s, psi) != one_sided_eval(restrict_left(m), s, psi):
            problems.append("left restriction disagrees at the diagonal")
        if check(m, s, s, gamma) != one_sided_eval(restrict_right(m), s, gamma):
            problems.append("right restriction disagrees at the diagonal")
        counts["restriction"] += 1

    for _ in range(200):
        # one-sided truth ignores the opposite coordinate entirely
        m = random_model(rng)
        psi = random_one_sided(rng, Side.LEFT, depth=2)
        gamma = random_one_sided(rng, Side.RIGHT, depth=2)
        for s in m.states:
            if len({check(m, s, t, psi) for t in m.states}) != 1:
                problems.append("white formula depends on second coordinate")
        for t in m.states:
            if len({check(m, s, t, gamma) for s in m.states}) != 1:
                problems.append("black formula depends on first coordinate")
        counts["opposite-coordinate invariance"] += 1

    white_dist = None
    for _ in range(200):
        # pointwise: a box over a mixed disjunction splits at every pair,
        # which is also exactly the validity of the two distribution laws
        m = random_model(rng)
        psi = random_one_sided(rng, Side.LEFT, depth=2)
        gamma = random_one_sided(rng, Side.RIGHT, depth=2)
        for s, t in all_pairs(m):
            if (check(m, s, t, WBox(Or(psi, gamma)))
                    != check(m, s, t, Or(WBox(psi), gamma))):
                problems.append("white box does not split a mixed disjunction")
            if (check(m, s, t, BBox(Or(psi, gamma)))
                    != check(m, s, t, Or(psi, BBox(gamma)))):
                problems.append("black box does not split a mixed disjunction")
        counts["box distribution"] += 1

    for _ in range(200):
        psi = random_one_sided(rng, Side.LEFT, depth=1, names=("p",))
        gamma = random_one_sided(rng, Side.RIGHT, depth=1, names=("p",))
        white = Iff(WBox(Or(psi, gamma)), Or(WBox(psi), gamma))
        black = Iff(BBox(Or(psi, gamma)), Or(psi, BBox(gamma)))
        for law in (white, black):
            if lhs_minus_valid(law).status != "VALID":
                problems.append(f"distribution law not valid: {render(law)}")
        counts["box distribution validity"] += 1

    detail = ", ".join(f"{k}: {v}" for k, v in counts.items())
    report(capsys, 8, not problems,
           f"structural properties over 200 instances each ({detail}); "
           f"problems: {problems[:3] or 'none'}")

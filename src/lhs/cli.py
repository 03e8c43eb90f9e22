"""Command-line entry point.

Exit codes: 0 for positive verdicts (SAT, VALID, true, related, proof ok),
1 for negative verdicts, 2 when a bounded search exhausts its bound, 64 for
usage errors, 65 for malformed input files or formulas, 70 when a resource
guard refuses the job.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time

from . import bisim as bisim_mod
from . import decide, normal, proof as proof_mod, semantics, tiling as tiling_mod
from .errors import (
    ContainsI,
    FormulaSyntaxError,
    LhsError,
    MixedFormula,
    ModalInput,
    ModelFormatError,
    NotClean,
    ReservedNameError,
    ResourceGuard,
    UnknownState,
)
from .model import Model, load_model, model_doc, save_model
from .syntax import classify, parse, render

EX_USAGE = 64
EX_DATAERR = 65
EX_RESOURCE = 70


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EX_USAGE)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    return value


def _add_formula_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-f", "--formula", help="formula given inline")
    group.add_argument("-F", "--formula-file", help="file containing the formula")


def _read_formula(args):
    if args.formula is not None:
        text = args.formula
    else:
        with open(args.formula_file) as fh:
            text = fh.read()
    return parse(text)


def _read_model(path) -> Model:
    with open(path) as fh:
        return load_model(fh.read())


def _emit(args, payload: dict, human: str):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(human)


def _write_witness(args, model: Model, pair) -> dict | None:
    if model is None:
        return None
    info = {"pair": list(pair)}
    if getattr(args, "witness", None):
        with open(args.witness, "w") as fh:
            fh.write(save_model(model))
        info["path"] = args.witness
    else:
        info["model"] = model_doc(model)
    return info


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lhs", description="toolkit for the hide-and-seek modal logic")
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("parse", help="parse a formula and reprint it")
    _add_formula_args(p)
    p.add_argument("--full", action="store_true", help="fully parenthesized output")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("check", help="evaluate a formula at a pair of states")
    _add_formula_args(p)
    p.add_argument("-m", "--model", required=True, help="model JSON file")
    p.add_argument("--at", required=True, metavar="S,T", help="evaluation pair")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("sat", help="satisfiability (decision procedure, I-free)")
    _add_formula_args(p)
    p.add_argument("--full", action="store_true",
                   help="bounded search over full-language models (allows I)")
    p.add_argument("--max-size", type=_positive_int, metavar="N", default=3,
                   help="state bound for --full (default 3)")
    p.add_argument("--witness", help="write the witness model to this file")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("valid", help="validity for I-free formulas")
    _add_formula_args(p)
    p.add_argument("--witness", help="write the countermodel to this file")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("cnf", help="clean CNF companion of an I-free formula")
    _add_formula_args(p)
    p.add_argument("--clean-only", action="store_true",
                   help="require the input to be clean already (no companion step)")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("translate", help="first-order standard translation")
    _add_formula_args(p)
    p.add_argument("-x", default="x", help="first free variable name")
    p.add_argument("-y", default="y", help="second free variable name")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("bisim", help="largest bisimulation between two models")
    p.add_argument("-m", "--model", required=True, help="first model JSON file")
    p.add_argument("-n", "--other", required=True, help="second model JSON file")
    p.add_argument("--pairs", metavar="S,T=S2,T2",
                   help="exit 0 iff this pair of pairs is related")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("proof", help="check a Hilbert-style derivation")
    p.add_argument("-p", "--proof", required=True, help="proof JSON file")
    p.add_argument("--json", action="store_true")

    p = subs.add_parser("tiling", help="tiling reduction utilities")
    tsubs = p.add_subparsers(dest="tiling_command", required=True)
    g = tsubs.add_parser("gen", help="print the formula for a tile set")
    g.add_argument("-t", "--tiles", required=True, help="tile set JSON file")
    g.add_argument("--json", action="store_true")
    m = tsubs.add_parser("model", help="build the torus model of a periodic tiling")
    m.add_argument("-t", "--tiles", required=True, help="tile set JSON file")
    m.add_argument("-a", "--assignment", required=True, help="tiling JSON file")
    m.add_argument("-o", "--output", help="write the model to this file")
    m.add_argument("--check", action="store_true",
                   help="model-check the generated formula at (s,s)")
    m.add_argument("--json", action="store_true")

    p = subs.add_parser("selftest", help="quick randomized self-checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=25)
    p.add_argument("--json", action="store_true")
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` reads every argv with, built on its first call.

    A parse keeps nothing on the parser: each call fills a fresh namespace.
    """
    return build_parser()


def _parse_pair(text: str, model: Model):
    """The pair S,T that `text` names. A state id may hold commas (a torus
    names its states "a,b"), so the one split at a comma whose halves are
    both states is taken."""
    parts = text.split(",")
    splits = [(",".join(parts[:i]).strip(), ",".join(parts[i:]).strip())
              for i in range(1, len(parts))]
    states = model.successor_map  # keyed by the states; `check` reads it anyway
    pairs = [(s, t) for s, t in splits if s in states and t in states]
    if len(pairs) > 1:
        raise ModelFormatError(f"{text!r} names more than one pair of states: "
                               + " or ".join(map(repr, pairs)))
    if pairs:
        return pairs[0]
    if len(splits) == 1:
        model.require_state(*splits[0])  # names the state that is not declared
    raise ModelFormatError(f"expected S,T, two states split at a comma, but got {text!r}")


def _cmd_parse(args):
    phi = _read_formula(args)
    text = render(phi, full_parens=args.full)
    info = classify(phi)
    _emit(args, {
        "formula": text,
        "i_free": info.i_free,
        "white_only": info.white_only,
        "black_only": info.black_only,
        "clean": info.clean,
    }, text)
    return 0


def _cmd_check(args):
    phi = _read_formula(args)
    model = _read_model(args.model)
    s, t = _parse_pair(args.at, model)
    verdict = semantics.check(model, s, t, phi)
    _emit(args, {"verdict": verdict, "pair": [s, t]}, "true" if verdict else "false")
    return 0 if verdict else 1


def _cmd_sat(args):
    phi = _read_formula(args)
    start = time.monotonic()
    if args.full:
        verdict = decide.lhs_bounded_sat(phi, args.max_size)
    else:
        verdict = decide.lhs_minus_sat(phi)
    status, model, pair = verdict.status, verdict.model, verdict.pair
    elapsed = time.monotonic() - start
    payload = {"verdict": status, "time_s": round(elapsed, 4)}
    witness = _write_witness(args, model, pair) if model is not None else None
    if witness:
        payload["witness"] = witness
    _emit(args, payload, status)
    return {"SAT": 0, "UNSAT": 1, "NO-MODEL-UP-TO-BOUND": 2}[status]


def _cmd_valid(args):
    phi = _read_formula(args)
    start = time.monotonic()
    verdict = decide.lhs_minus_valid(phi)
    elapsed = time.monotonic() - start
    payload = {"verdict": verdict.status, "time_s": round(elapsed, 4)}
    if verdict.model is not None:
        witness = _write_witness(args, verdict.model, verdict.pair)
        if witness:
            payload["witness"] = witness
    _emit(args, payload, verdict.status)
    return 0 if verdict.status == "VALID" else 1


def _cmd_cnf(args):
    phi = _read_formula(args)
    if args.clean_only:
        result = normal.clean_to_cnf(phi)
    else:
        result = normal.companion(phi)
    text = render(result.to_formula())
    conjuncts = [[render(psi), render(gamma)] for psi, gamma in result.conjuncts]
    _emit(args, {"formula": text, "conjuncts": conjuncts}, text)
    return 0


def _cmd_translate(args):
    phi = _read_formula(args)
    alpha = semantics.fo_translate(phi, x=args.x, y=args.y)
    text = semantics.fo_render(alpha)
    _emit(args, {"translation": text, "free_vars": [args.x, args.y]}, text)
    return 0


def _cmd_bisim(args):
    m = _read_model(args.model)
    n = _read_model(args.other)
    if args.pairs:
        halves = args.pairs.split("=")
        if len(halves) != 2:
            raise ModelFormatError(f"expected S,T=S2,T2 but got {args.pairs!r}")
        left = _parse_pair(halves[0], m)
        right = _parse_pair(halves[1], n)
        related = bisim_mod.are_bisimilar(m, *left, n, *right)
        _emit(args, {"related": related, "pair": [list(left), list(right)]},
              "related" if related else "not related")
        return 0 if related else 1
    quads = sorted(bisim_mod.largest_bisimulation(m, n).pairs)
    human = "\n".join(f"({s},{t}) ~ ({s2},{t2})" for (s, t), (s2, t2) in quads)
    _emit(args, {"size": len(quads),
                 "pairs": [[list(a), list(b)] for a, b in quads]},
          human if human else "(empty)")
    return 0


def _cmd_proof(args):
    with open(args.proof) as fh:
        lines = proof_mod.load_proof(fh.read())
    report = proof_mod.check_proof(lines)
    if report.ok:
        conclusion = render(lines[-1].formula) if lines else "true"
        _emit(args, {"ok": True, "lines": len(lines), "conclusion": conclusion},
              f"ok: {len(lines)} lines, conclusion {conclusion}")
        return 0
    err = report.first_error
    _emit(args, {"ok": False, "line": err.line, "reason": err.reason},
          f"rejected at line {err.line}: {err.reason}")
    return 1


def _cmd_tiling(args):
    with open(args.tiles) as fh:
        ts = tiling_mod.load_tileset(fh.read())
    if args.tiling_command == "gen":
        phi = tiling_mod.generate_phi(ts)
        text = render(phi)
        _emit(args, {"formula": text, "labels": ts.labels()}, text)
        return 0
    with open(args.assignment) as fh:
        pt = tiling_mod.load_tiling(fh.read())
    model, spy = tiling_mod.torus_model(ts, pt)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(save_model(model))
    payload = {"states": len(model.states), "spy": spy}
    lines = [f"torus model: {len(model.states)} states, spy {spy}"]
    code = 0
    if args.check:
        holds = (spy, spy) in semantics.check_all(model, tiling_mod.generate_phi(ts))
        payload["phi_T"] = holds
        lines.append(f"phi_T {'holds' if holds else 'fails'} at ({spy},{spy})")
        code = 0 if holds else 1
    if not args.output:
        payload["model"] = model_doc(model)
    _emit(args, payload, "\n".join(lines))
    return code


def _random_i_free(rng: random.Random, depth: int):
    from .syntax import (
        And, BBox, BDia, Implies, Not, Or, WBox, WDia, left_atom, right_atom,
    )

    if depth == 0 or rng.random() < 0.3:
        side = rng.choice([left_atom, right_atom])
        return side(rng.choice(["p", "q"]))
    op = rng.choice([Not, And, Or, Implies, WBox, WDia, BBox, BDia])
    if op in (And, Or, Implies):
        return op(_random_i_free(rng, depth - 1), _random_i_free(rng, depth - 1))
    return op(_random_i_free(rng, depth - 1))


def _cmd_selftest(args):
    rng = random.Random(args.seed)
    failures = []
    start = time.monotonic()
    for i in range(args.count):
        phi = _random_i_free(rng, rng.randint(1, 2))
        if parse(render(phi), allow_reserved=True) != phi:
            failures.append(f"case {i}: render/parse mismatch for {render(phi)}")
            continue
        verdict = decide.lhs_minus_sat(phi)
        bounded = decide.lhs_bounded_sat(phi, 3)
        if verdict.status == "UNSAT" and bounded.status == "SAT":
            failures.append(f"case {i}: UNSAT but bounded search found a model "
                            f"for {render(phi)}")
        if verdict.status == "SAT" and verdict.model is None:
            failures.append(f"case {i}: SAT without witness for {render(phi)}")
    elapsed = time.monotonic() - start
    payload = {"cases": args.count, "failures": failures,
               "time_s": round(elapsed, 4)}
    human = (f"selftest: {args.count} cases, {len(failures)} failures "
             f"in {elapsed:.2f}s")
    if failures:
        human += "\n" + "\n".join(failures)
    _emit(args, payload, human)
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "parse": _cmd_parse,
        "check": _cmd_check,
        "sat": _cmd_sat,
        "valid": _cmd_valid,
        "cnf": _cmd_cnf,
        "translate": _cmd_translate,
        "bisim": _cmd_bisim,
        "proof": _cmd_proof,
        "tiling": _cmd_tiling,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except (FormulaSyntaxError, ReservedNameError, ModelFormatError, UnknownState,
            ContainsI, MixedFormula, ModalInput, NotClean,
            OSError, UnicodeDecodeError) as exc:  # unreadable file, or not UTF-8
        print(f"lhs: input error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except ResourceGuard as exc:
        print(f"lhs: refused: {exc}", file=sys.stderr)
        return EX_RESOURCE
    except LhsError as exc:
        print(f"lhs: error: {exc}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())

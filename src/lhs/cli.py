"""Command-line entry point.

Exit codes: 0 for positive verdicts (SAT, VALID, true, related, proof ok),
1 for negative verdicts, 2 when a bounded search exhausts its bound, 64 for
usage errors, 65 for malformed input files or formulas, 70 when a resource
guard refuses the job or memory runs out, 74 when a file or stdout cannot be
written.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import re
import sys
import time

# `sat` and `valid` run every module imported here; bisim, proof and tiling,
# which one verb each runs, load in that verb.
from . import decide, normal, semantics
from .errors import InputError, LhsError, ModelFormatError, ResourceGuard
from .model import Model, load_model, model_doc, save_model
from .syntax import BLACK_ONLY, CLEAN, I_FREE, WHITE_ONLY, parse, render

EX_USAGE = 64
EX_DATAERR = 65
EX_RESOURCE = 70
EX_IOERR = 74


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


def _variable(text: str) -> str:
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", text):
        raise argparse.ArgumentTypeError(
            f"expected a variable name (a letter or _, then letters, digits or _), got {text!r}")
    return text


def _add_formula_args(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("-f", "--formula", help="formula given inline")
    group.add_argument("-F", "--formula-file", help="file containing the formula")


def _read(path, load):
    """`load` applied to the text of the file at `path`, read as UTF-8."""
    with open(path, encoding="utf-8") as fh:
        return load(fh.read())


def _read_formula(args):
    if args.formula is not None:
        return parse(args.formula)
    return _read(args.formula_file, parse)


class _OutputError(Exception):
    """An `OSError` met while writing a file or stdout."""


def _write(text: str, path=None):
    """Write `text` to the file at `path` as UTF-8, or as a line to stdout."""
    try:
        if path is None:
            print(text, flush=True)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        if path is None:  # so that the interpreter's flush at exit writes nowhere
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise _OutputError(exc) from exc


def _emit(args, payload: dict, human: str):
    _write(json.dumps(payload) if args.json else human)


def _write_witness(args, model: Model, pair) -> dict:
    info = {"pair": list(pair)}
    if args.witness:
        _write(save_model(model), args.witness)
        info["path"] = args.witness
    else:
        info["model"] = model_doc(model)
    return info


def _verb(subs, name: str, handler, help: str) -> argparse.ArgumentParser:
    """The subparser of the verb `name`, which `main` answers with `handler`."""
    p = subs.add_parser(name, help=help)
    p.set_defaults(handler=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lhs", description="toolkit for the hide-and-seek modal logic")
    subs = ap.add_subparsers(dest="command", required=True)

    p = _verb(subs, "parse", _cmd_parse, "parse a formula and reprint it")
    _add_formula_args(p)
    p.add_argument("--full", action="store_true", help="fully parenthesized output")

    p = _verb(subs, "check", _cmd_check, "evaluate a formula at a pair of states")
    _add_formula_args(p)
    p.add_argument("-m", "--model", required=True, help="model JSON file")
    p.add_argument("--at", required=True, metavar="S,T", help="evaluation pair")

    p = _verb(subs, "sat", _cmd_sat, "satisfiability (decision procedure, I-free)")
    _add_formula_args(p)
    p.add_argument("--full", action="store_true",
                   help="bounded search over full-language models (allows I)")
    p.add_argument("--max-size", type=_positive_int, metavar="N",
                   help="state bound for --full (default 3)")
    p.add_argument("--witness", help="write the witness model to this file")

    p = _verb(subs, "valid", _cmd_valid, "validity for I-free formulas")
    _add_formula_args(p)
    p.add_argument("--witness", help="write the countermodel to this file")

    p = _verb(subs, "cnf", _cmd_cnf, "clean CNF companion of an I-free formula")
    _add_formula_args(p)
    p.add_argument("--clean-only", action="store_true",
                   help="the same companion, for a clean input only (exit 65 otherwise)")

    p = _verb(subs, "translate", _cmd_translate, "first-order standard translation")
    _add_formula_args(p)
    p.add_argument("-x", type=_variable, default="x", help="first free variable name")
    p.add_argument("-y", type=_variable, default="y", help="second free variable name")

    p = _verb(subs, "bisim", _cmd_bisim, "largest bisimulation between two models")
    p.add_argument("-m", "--model", required=True, help="first model JSON file")
    p.add_argument("-n", "--other", required=True, help="second model JSON file")
    p.add_argument("--pairs", metavar="S,T=S2,T2",
                   help="exit 0 iff this pair of pairs is related")

    p = _verb(subs, "proof", _cmd_proof, "check a Hilbert-style derivation")
    p.add_argument("-p", "--proof", required=True, help="proof JSON file")

    p = subs.add_parser("tiling", help="tiling reduction utilities")
    tsubs = p.add_subparsers(dest="tiling_command", required=True)
    g = _verb(tsubs, "gen", _cmd_tiling_gen, "print the formula for a tile set")
    g.add_argument("-t", "--tiles", required=True, help="tile set JSON file")
    m = _verb(tsubs, "model", _cmd_tiling_model, "build the torus model of a periodic tiling")
    m.add_argument("-t", "--tiles", required=True, help="tile set JSON file")
    m.add_argument("-a", "--assignment", required=True, help="tiling JSON file")
    m.add_argument("-o", "--output", help="write the model to this file")
    m.add_argument("--check", action="store_true",
                   help="model-check the generated formula at (s,s)")

    for verb in [*subs.choices.values(), *tsubs.choices.values()]:
        if verb.get_default("handler"):  # every verb but `tiling`, which only groups two
            verb.add_argument("--json", action="store_true")
    ap.verbs = subs.choices  # name -> subparser: `main` reads a verb's argv with its own
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser `main` reads every argv with, built on its first call
    (a verb's argv through the verb's own subparser, in `ap.verbs`).

    A parse keeps nothing on the parser: each call fills a fresh namespace.
    """
    return build_parser()


def _split_once(text: str, sep: str, readers, what: str, expected: str):
    """The halves of `text` at the one split at `sep` that the two `readers`
    accept, as they read them: a state id may hold `,` or `=`. A text with
    one `sep` gets the error of the half that fails; otherwise no split, or
    more than one, is an error."""
    parts = text.split(sep)
    splits = [(sep.join(parts[:i]), sep.join(parts[i:])) for i in range(1, len(parts))]
    if len(splits) == 1:
        return tuple(read(half) for read, half in zip(readers, splits[0]))
    found = []
    for halves in splits:
        with contextlib.suppress(LhsError):
            found.append(tuple(read(half) for read, half in zip(readers, halves)))
    if len(found) > 1:
        raise ModelFormatError(f"{text!r} names more than one {what}: "
                               + " or ".join(map(repr, found)))
    if found:
        return found[0]
    raise ModelFormatError(f"expected {expected} but got {text!r}")


def _parse_pair(text: str, model: Model):
    """The pair S,T that `text` names, split at the one comma whose halves
    are both states (a torus names its states "a,b")."""
    def state(half):
        half = half.strip()
        model.require_state(half)
        return half

    return _split_once(text, ",", (state, state), "pair of states",
                       "S,T, two states split at a comma,")


def _cmd_parse(args):
    phi = _read_formula(args)
    text = render(phi, full_parens=args.full)
    _emit(args, {
        "formula": text,
        "i_free": bool(phi.facts & I_FREE),
        "white_only": bool(phi.facts & WHITE_ONLY),
        "black_only": bool(phi.facts & BLACK_ONLY),
        "clean": bool(phi.facts & CLEAN),
    }, text)
    return 0


def _cmd_check(args):
    phi = _read_formula(args)
    model = _read(args.model, load_model)
    s, t = _parse_pair(args.at, model)
    verdict = semantics.check(model, s, t, phi)
    _emit(args, {"verdict": verdict, "pair": [s, t]}, "true" if verdict else "false")
    return 0 if verdict else 1


# The exit code of each `sat` and `valid` verdict.
_VERDICT_CODES = {"SAT": 0, "VALID": 0, "UNSAT": 1, "INVALID": 1, "NO-MODEL-UP-TO-BOUND": 2}


def _answer(args, verdict, start: float) -> int:
    """Print a `sat` or `valid` verdict reached since `start`, with its
    witness if it has one, and return its exit code."""
    payload = {"verdict": verdict.status, "time_s": round(time.monotonic() - start, 4)}
    if verdict.model is not None:
        payload["witness"] = _write_witness(args, verdict.model, verdict.pair)
    _emit(args, payload, verdict.status)
    return _VERDICT_CODES[verdict.status]


def _cmd_sat(args):
    if args.max_size is not None and not args.full:
        _parser().verbs["sat"].error("argument --max-size: not allowed without --full")
    phi = _read_formula(args)
    start = time.monotonic()
    if args.full:
        return _answer(args, decide.lhs_bounded_sat(phi, args.max_size or 3), start)
    return _answer(args, decide.lhs_minus_sat(phi), start)


def _cmd_valid(args):
    phi = _read_formula(args)
    start = time.monotonic()
    return _answer(args, decide.lhs_minus_valid(phi), start)


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
    if args.x == args.y:
        _parser().verbs["translate"].error(f"arguments -x and -y both name {args.x!r}")
    phi = _read_formula(args)
    alpha = semantics.fo_translate(phi, x=args.x, y=args.y)
    text = semantics.fo_render(alpha)
    _emit(args, {"translation": text, "free_vars": [args.x, args.y]}, text)
    return 0


def _cmd_bisim(args):
    from . import bisim

    m = _read(args.model, load_model)
    n = _read(args.other, load_model)
    if args.pairs:
        left, right = _split_once(args.pairs, "=", (functools.partial(_parse_pair, model=m),
                                                    functools.partial(_parse_pair, model=n)),
                                  "pair of pairs", "S,T=S2,T2")
        related = bisim.are_bisimilar(m, *left, n, *right)
        _emit(args, {"related": related, "pair": [list(left), list(right)]},
              "related" if related else "not related")
        return 0 if related else 1
    quads = sorted(bisim.largest_bisimulation(m, n).pairs)
    human = "" if args.json else "\n".join(
        f"({s},{t}) ~ ({s2},{t2})" for (s, t), (s2, t2) in quads) or "(empty)"
    _emit(args, {"size": len(quads),
                 "pairs": [[list(a), list(b)] for a, b in quads]}, human)
    return 0


def _cmd_proof(args):
    from . import proof

    lines = _read(args.proof, proof.load_proof)
    err = proof.check_proof(lines)
    if err is None:
        conclusion = render(lines[-1].formula) if lines else "true"
        _emit(args, {"ok": True, "lines": len(lines), "conclusion": conclusion},
              f"ok: {len(lines)} lines, conclusion {conclusion}")
        return 0
    _emit(args, {"ok": False, "line": err.line, "reason": err.reason},
          f"rejected at line {err.line}: {err.reason}")
    return 1


def _cmd_tiling_gen(args):
    from . import tiling

    ts = _read(args.tiles, tiling.load_tileset)
    text = render(tiling.generate_phi(ts))
    _emit(args, {"formula": text, "labels": ts.labels()}, text)
    return 0


def _cmd_tiling_model(args):
    from . import tiling

    ts = _read(args.tiles, tiling.load_tileset)
    model, spy = tiling.torus_model(ts, _read(args.assignment, tiling.load_tiling))
    if args.output:
        _write(save_model(model), args.output)
    payload = {"states": len(model.states), "spy": spy}
    lines = [f"torus model: {len(model.states)} states, spy {spy}"]
    code = 0
    if args.check:
        holds = (spy, spy) in semantics.check_all(model, tiling.generate_phi(ts))
        payload["phi_T"] = holds
        lines.append(f"phi_T {'holds' if holds else 'fails'} at ({spy},{spy})")
        code = 0 if holds else 1
    if not args.output:
        payload["model"] = model_doc(model)
    _emit(args, payload, "\n".join(lines))
    return code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    ap = _parser()
    verb = ap.verbs.get(argv[0]) if argv else None
    args, extras = verb.parse_known_args(argv[1:]) if verb else (None, None)
    if verb is None or extras:  # the whole parser reads it, or says what is wrong
        args = ap.parse_args(argv)
    try:
        return args.handler(args)
    except _OutputError as exc:
        print(f"lhs: output error: {exc}", file=sys.stderr)
        return EX_IOERR
    except (InputError, OSError, UnicodeDecodeError) as exc:  # unreadable file, or not UTF-8
        print(f"lhs: input error: {exc}", file=sys.stderr)
        return EX_DATAERR
    except ResourceGuard as exc:
        print(f"lhs: refused: {exc}", file=sys.stderr)
        return EX_RESOURCE
    except MemoryError:  # not 1, which would read as "no"
        print("lhs: refused: out of memory", file=sys.stderr)
        return EX_RESOURCE
    except LhsError as exc:
        print(f"lhs: error: {exc}", file=sys.stderr)
        return EX_DATAERR


if __name__ == "__main__":
    sys.exit(main())

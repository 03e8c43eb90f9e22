"""Command-line interface: exit codes, JSON output, witness round-trips."""

import argparse
import importlib
import json
import os
import random
import re
import resource
import sys
import time
from pathlib import Path

import pytest

from lhs import BDia, Iff, Implies, Not, WDia, check, decide, load_model, parse, render, syntax
import lhs
from lhs import cli
from lhs.cli import build_parser, main
from lhs.proof import RULE_NAMES
from lhs.syntax import conjoin

from conftest import (
    k_branch_n, k_branch_p, random_formula, random_i_free, run_python, time_budget,
)

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent

A1 = "l:p -> (l:q -> l:p)"
# Needs four distinct left valuations over p, q, hence four states.
FOUR_STATE_FORMULA = "l:p & l:q & <W>(l:p & ~l:q) & <W>(~l:p & l:q) & <W>(~l:p & ~l:q)"


def run(capsys, *argv, main=main):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _cap_address_space(limit=1 << 30):
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestExitCodes:
    def test_parse_ok(self, capsys):
        code, out, _ = run(capsys, "parse", "-f", "[W](l:p->r:q)")
        assert code == 0
        assert parse(out.strip()) == parse("[W](l:p->r:q)")

    def test_parse_syntax_error(self, capsys):
        assert run(capsys, "parse", "-f", "l:p &")[0] == 65

    def test_parse_reserved_name(self, capsys):
        # No name is reserved: `_fresh0` is an ordinary atom.
        assert run(capsys, "parse", "-f", "l:_fresh0")[:2] == (0, "l:_fresh0\n")

    def test_usage_error(self, capsys):
        assert run(capsys, "parse")[0] == 64

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 64

    def test_valid_axiom(self, capsys):
        code, out, _ = run(capsys, "valid", "-f",
                           "[W](l:p|r:q) <-> ([W]l:p | r:q)")
        assert code == 0
        assert "VALID" in out

    def test_invalid_formula(self, capsys):
        code, out, _ = run(capsys, "valid", "-f", "l:p")
        assert code == 1
        assert "INVALID" in out

    def test_sat_positive(self, capsys):
        assert run(capsys, "sat", "-f", "<W>l:p")[0] == 0

    def test_sat_negative(self, capsys):
        assert run(capsys, "sat", "-f", "l:p & ~l:p")[0] == 1

    def test_sat_rejects_equality_constant(self, capsys):
        assert run(capsys, "sat", "-f", "I")[0] == 65

    def test_bounded_sat_exhausted(self, capsys):
        code, out, _ = run(capsys, "sat", "--full", "--max-size", "2",
                           "-f", "I & ~I")
        assert code == 2
        assert "NO-MODEL-UP-TO-BOUND" in out

    def test_bounded_sat_found(self, capsys):
        assert run(capsys, "sat", "--full", "--max-size", "1", "-f", "I")[0] == 0

    def test_resource_guard(self, capsys):
        code, _, _ = run(capsys, "sat", "--full", "--max-size", "6",
                         "-f", "l:p & l:q & r:p & r:q & l:a & r:b")
        assert code == 70

    @pytest.mark.parametrize("argv", [
        *(pytest.param(["sat", "--full", "-f", "I", "--max-size", bound], id=bound)
          for bound in ("0", "-2", "x")),
    ])
    def test_bound_below_one_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert argv[-2] in err

    def test_tableau_step_ceiling(self, capsys, monkeypatch):
        monkeypatch.setattr(decide, "DEFAULT_STEP_CEILING", 20)
        code, _, err = run(capsys, "sat", "-f", k_branch_n(10))
        assert code == 70
        assert "K tableau expanded 21 goals, over the ceiling of 20" in err

    @pytest.mark.parametrize("bound", ["6", "1000", "100000"])
    def test_huge_bound_refused_at_once(self, capsys, bound):
        # Level 6 would list 291,968 * 2^11 frame codes; the levels are
        # checked from one state up, so no bound is summed past it.
        start = time.process_time()
        code, _, err = run(capsys, "sat", "--full", "--max-size", bound, "-f", "l:p")
        assert time.process_time() - start < 1
        assert code == 70
        assert "level 6 of the search needs a frame table of 597950464 rows" in err

    @pytest.mark.parametrize("argv", [
        ["sat", "-f", "l:p", "--witness", "{missing}/w.json"],
        ["valid", "--json", "-f", "l:p", "--witness", "{missing}/w.json"],
        ["tiling", "model", "-t", str(DATA / "one_tile.json"), "-a",
         str(DATA / "unit_tiling.json"), "-o", "{missing}/m.json"],
    ], ids=["sat", "valid", "tiling-model"])
    def test_unwritable_file_is_output_error(self, capsys, tmp_path, argv):
        code, out, err = run(capsys, *(a.format(missing=tmp_path / "missing") for a in argv))
        assert (code, out) == (74, "")
        assert err == (f"lhs: output error: [Errno 2] No such file or directory: "
                       f"'{tmp_path / 'missing' / argv[-1][-6:]}'\n")

    def test_closed_stdout_is_output_error(self):
        # A pipe whose reader has gone, as in `lhs parse -F big.txt | head -c 10`:
        # one line on stderr, and no second error when the interpreter
        # flushes stdout at exit.
        read, write = os.pipe()
        os.close(read)
        with open(write, "w") as sink:
            proc = run_python(["-m", "lhs.cli", "parse", "-f", "l:p & r:q"], stdout=sink)
        assert (proc.returncode, proc.stderr) == (74, "lhs: output error: [Errno 32] Broken pipe\n")

    def test_out_of_memory_is_refused(self, capsys, monkeypatch):
        # Exit 1 means "no" (and INVALID), so running out of memory must not
        # exit 1 with a traceback.
        def exhausted(phi):
            raise MemoryError

        monkeypatch.setattr(decide, "lhs_minus_sat", exhausted)
        assert run(capsys, "sat", "-f", "l:p") == (70, "", "lhs: refused: out of memory\n")

    def test_force_flag_is_gone(self, capsys):
        assert run(capsys, "sat", "--full", "--force", "-f", "I")[0] == 64

    @pytest.mark.parametrize("argv", [["--max-size", "2"], ["--json", "--max-size", "3"]])
    def test_bound_without_full_is_usage_error(self, capsys, argv):
        # Only the bounded search of --full reads a bound.
        code, out, err = run(capsys, "sat", *argv, "-f", "l:p")
        assert (code, out) == (64, "")
        assert "lhs sat: error: argument --max-size: not allowed without --full" in err

    def test_bound_five_searched_under_memory_cap(self):
        # Bound 5 lists 291,968 frame classes, about 100 MiB in all, and is
        # searched to exhaustion under a 1 GiB cap.
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = run_python(["-m", "lhs.cli", "sat", "--full", "--max-size", "5",
                           "-f", "I & ~I"],
                          env={"OPENBLAS_NUM_THREADS": "1"},
                          preexec_fn=_cap_address_space)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert proc.returncode == 2, proc.stderr
        assert "NO-MODEL-UP-TO-BOUND" in proc.stdout
        assert (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime) < 40

    @pytest.mark.parametrize("bound", ["6"])
    def test_unbuildable_bound_refused_before_allocating(self, bound):
        # Level 6 would build about 6*10^8 frame codes (4.8 GB). Under a
        # 1 GiB cap a missing guard ends in MemoryError (exit 1), not in
        # host exhaustion.
        proc = run_python(["-m", "lhs.cli", "sat", "--full", "--max-size", bound,
                           "-f", "I & ~I"],
                          env={"OPENBLAS_NUM_THREADS": "1"},
                          preexec_fn=_cap_address_space)
        assert proc.returncode == 70, proc.stderr

    @pytest.mark.parametrize("bound, code, verdict",
                             [(4, 0, "SAT"), (3, 2, "NO-MODEL-UP-TO-BOUND")])
    def test_bounded_sat_four_states(self, capsys, bound, code, verdict):
        start = time.perf_counter()
        got, out, _ = run(capsys, "sat", "--full", "--max-size", str(bound),
                          "--json", "-f", FOUR_STATE_FORMULA)
        elapsed = time.perf_counter() - start
        payload = json.loads(out)
        assert (got, payload["verdict"]) == (code, verdict)
        assert elapsed < 1.0
        if verdict == "SAT":
            model = load_model(json.dumps(payload["witness"]["model"]))
            s, t = payload["witness"]["pair"]
            assert check(model, s, t, parse(FOUR_STATE_FORMULA))

    def test_model_variable_outside_the_formula_grammar(self, capsys, tmp_path):
        # `l:p²` is no variable of the formula language, so no model may name it.
        model = tmp_path / "m.json"
        model.write_text('{"states": ["w"], "valuation": {"l:p\u00b2": ["w"]}}')
        code, _, err = run(capsys, "check", "-m", str(model), "--at", "w,w", "-f", "l:p")
        assert code == 65
        assert err.startswith("lhs: input error: malformed variable name")


class TestDeepInput:
    DEEP = "~" * 3000 + "l:p"

    def test_check(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"states": ["w"], "edges": [], "valuation": {}}')
        code, out, _ = run(capsys, "check", "-m", str(model), "--at", "w,w",
                           "-f", self.DEEP)
        assert (code, out.strip()) == (1, "false")

    def test_sat(self, capsys):
        code, out, _ = run(capsys, "sat", "--json", "-f", self.DEEP)
        assert code == 0
        witness = json.loads(out)["witness"]
        model = load_model(json.dumps(witness["model"]))
        assert check(model, *witness["pair"], parse(self.DEEP))

    @pytest.mark.parametrize("verb,code", [("valid", 1), ("sat", 0)])
    def test_wide_mixed_conjunction(self, capsys, verb, code):
        # One companion conjunct per atom (valid) or one conjunct of 10^4
        # disjuncts (sat): the CNF pass must read the chain in one step. The
        # bound is on CPU time, which other load on the machine does not
        # inflate.
        text = " & ".join(f"{'lr'[i % 2]}:p{i}" for i in range(10_000))
        start = time.process_time()
        with time_budget(30):
            assert run(capsys, verb, "-f", text)[0] == code
        assert time.process_time() - start < 2

    @pytest.mark.parametrize("verb, junction, answer, code",
                             [("valid", "&", "INVALID", 1), ("sat", "|", "SAT", 0)])
    def test_wide_one_sided_chain_under_memory_cap(self, tmp_path, verb, junction, answer, code):
        # The K tableau reads the chain as one step: its negation (valid) or
        # itself (sat) is one branch point over the one distinct operand.
        # Read as 200,000 nested branch points, each with an int of one bit
        # per branch point above it, the chain took 5 GiB.
        path = tmp_path / "chain.txt"
        path.write_text(f" {junction} ".join(["l:p"] * 200_000))
        proc = run_python(["-m", "lhs.cli", verb, "-F", str(path)],
                          preexec_fn=lambda: _cap_address_space(512 << 20))
        assert (proc.returncode, proc.stdout) == (code, answer + "\n"), proc.stderr[-2000:]

    def test_many_branch_points_under_memory_cap(self, tmp_path):
        # 80,000 disjunctions, each its own branch point, under a 512 MiB
        # cap: a goal's dependency set holds the branch points it depends
        # on, not an entry per branch point above it.
        path = tmp_path / "branches.txt"
        path.write_text(" & ".join(f"(l:a{i} | l:b{i})" for i in range(80_000)))
        proc = run_python(["-m", "lhs.cli", "sat", "-F", str(path)],
                          preexec_fn=lambda: _cap_address_space(512 << 20))
        assert (proc.returncode, proc.stdout) == (0, "SAT\n"), proc.stderr[-2000:]

    def test_wide_mixed_sat_walks_the_formula_few_times(self, capsys, monkeypatch):
        # Every formula carries its syntax class from construction, so the I
        # check and the tableau's test for a clean modal goal walk nothing.
        calls = 0
        original = syntax.subformulas

        def counted(*args):
            nonlocal calls
            calls += 1
            return original(*args)

        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("lhs")
                    and getattr(module, "subformulas", None) is original):
                monkeypatch.setattr(module, "subformulas", counted)
        text = " & ".join(f"{'lr'[i % 2]}:p{i}" for i in range(10_000))
        assert run(capsys, "sat", "-f", text)[0] == 0
        assert calls == 0


_STACK_SCRIPT = """
import contextlib, io, json, sys
from lhs.cli import main

argvs = json.load(sys.stdin)
# Far below any input's nesting: a traversal that recursed on the input
# would raise RecursionError.
sys.setrecursionlimit(200)
answers = []
for argv in argvs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    answers.append([code, out.getvalue()])
json.dump(answers, sys.stdout)
"""

_N = 10_000
# name: (formula, whether it is white-only, its truth at (w, w) in a
# one-state model with no edges and no true atoms, whether it is valid, the
# exit code of `sat --full --max-size 2`, which refuses thousands of
# variables). All are satisfiable.
_HOSTILE = {
    "deep_not": ("~" * _N + "l:p", True, False, False, 0),
    "deep_not_box": ("~[W]" * (_N // 2) + "l:p", True, False, False, 0),
    "parens": ("(" * _N + "l:p" + ")" * _N, True, False, False, 0),
    "implies": (" -> ".join("l:p" if i % 2 == 0 else "r:q" for i in range(_N)),
                False, True, True, 0),
    "wide_one_sided": (" & ".join(f"l:p{i}" for i in range(_N)), True, False, False, 70),
    "wide_mixed": (" & ".join(f"{'lr'[i % 2]}:p{i}" for i in range(3000)),
                   False, False, False, 70),
}


def _witness_holds(out, phi):
    witness = json.loads(out)["witness"]
    return check(load_model(json.dumps(witness["model"])), *witness["pair"], phi)


class TestStackSafety:
    """Every verb that reads a formula answers on inputs 10^4 deep or wide
    with Python's recursion limit at 200."""

    @pytest.mark.parametrize("name", sorted(_HOSTILE))
    def test_verdicts(self, name, tmp_path):
        text, white_only, holds, valid, full_sat_code = _HOSTILE[name]
        phi = parse(text)
        model = tmp_path / "m.json"
        model.write_text('{"states": ["w"], "edges": [], "valuation": {}}')
        proof = tmp_path / "proof.json"
        # A1, then l:q := phi: a proof when phi is white-only, otherwise
        # rejected for side purity.
        proof.write_text(json.dumps([
            {"formula": "l:p -> (l:q -> l:p)", "rule": "A1"},
            {"formula": f"l:p -> (({text}) -> l:p)", "rule": "Sub", "premises": [1],
             "subst": {"left": {"l:q": text}}},
        ]))
        verbs = {
            "parse": ["parse"],
            "parse_full": ["parse", "--full"],
            "check": ["check", "-m", str(model), "--at", "w,w"],
            "sat": ["sat", "--json"],
            "sat_full": ["sat", "--full", "--max-size", "2", "--json"],
            "valid": ["valid", "--json"],
            "cnf": ["cnf"],
            "cnf_clean": ["cnf", "--clean-only"],
            "translate": ["translate"],
        }
        argvs = [argv + ["-f", text] for argv in verbs.values()] + [["proof", "-p", str(proof)]]
        proc = run_python(["-c", _STACK_SCRIPT], input=json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr[-2000:]
        answers = dict(zip([*verbs, "proof"], json.loads(proc.stdout)))

        for verb in ("parse", "parse_full"):
            code, out = answers[verb]
            assert code == 0 and parse(out) == phi
        assert answers["check"] == [0 if holds else 1, "true\n" if holds else "false\n"]
        code, out = answers["sat"]
        assert code == 0 and _witness_holds(out, phi)
        code, out = answers["sat_full"]
        assert code == full_sat_code
        assert code == 70 or _witness_holds(out, phi)
        code, out = answers["valid"]
        if valid:
            assert (code, json.loads(out)["verdict"]) == (0, "VALID")
        else:
            assert code == 1 and not _witness_holds(out, phi)
        for verb in ("cnf", "cnf_clean", "translate"):
            code, out = answers[verb]
            assert code == 0 and out.strip()
        assert answers["cnf_clean"] == answers["cnf"]
        code, out = answers["proof"]
        assert (code, out.startswith("ok: 2 lines")) == ((0, True) if white_only else (1, False))


def test_deep_iff_chain_translated():
    # Each <-> is translated once, so a chain 10^4 long is translated, not
    # refused, with Python's recursion limit at 200.
    text = " <-> ".join(f"l:p{i}" if i % 2 else f"[B]r:q{i}" for i in range(_N))
    proc = run_python(["-c", _STACK_SCRIPT], input=json.dumps([["translate", "-f", text]]))
    assert proc.returncode == 0, proc.stderr[-2000:]
    [[code, out]] = json.loads(proc.stdout)
    assert code == 0 and out.count("<->") == _N - 1


_DETERMINISM_SCRIPT = """
import contextlib, io, json, sys
from lhs.cli import main

answers = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    payload = json.loads(out.getvalue())
    del payload["time_s"]
    answers.append([code, payload])
print(json.dumps(answers))
"""


def test_witnesses_do_not_depend_on_hash_seed():
    # Several diamonds at one node give the K tableau a choice of order; the
    # witness must not follow the hashing of its goals. Under diamonds, `->`
    # and `<->` make it branch, and the branching families make it backjump:
    # the sets of branch points it keeps must not follow the hashing either.
    rng = random.Random(7)
    formulas = [conjoin([rng.choice([WDia, BDia])(random_i_free(rng, depth=2))
                         for _ in range(3)]) for _ in range(20)]
    formulas += [conjoin([rng.choice([WDia, BDia])(rng.choice([Iff, Implies])(
        random_i_free(rng, depth=2), random_i_free(rng, depth=2))) for _ in range(3)])
        for _ in range(20)]
    formulas += [parse(build(k)) for build in (k_branch_n, k_branch_p) for k in (3, 8)]
    argvs = []
    for phi in formulas:
        argvs += [["sat", "--json", "-f", render(phi)],
                  ["valid", "--json", "-f", render(Not(phi))]]
    outputs = []
    for seed in ("0", "1"):
        proc = run_python(["-c", _DETERMINISM_SCRIPT], env={"PYTHONHASHSEED": seed},
                          input=json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]


def test_full_search_does_not_depend_on_hash_seed():
    # `sat --full` on 30 seeded formulas with I at bounds 2 to 4. The forcers
    # push the search to the last level, where the witness has as many states
    # as the bound or none exists.
    forcers = ["~I", "<B>~I & l:p & ~l:q & <W>(~l:p & l:q & <W>(~l:p & ~l:q))",
               "I & l:p & l:q & <W>(l:p & ~l:q) & <W>(~l:p & l:q) & <W>(~l:p & ~l:q)"]
    rng = random.Random(34)
    argvs = [["sat", "--full", "--max-size", str(2 + i % 3), "--json", "-f",
              render(conjoin([parse(forcers[i % 3]), random_formula(
                  rng, depth=2 + i % 2, left_vars=("p", "q"), right_vars=("p",))]))]
             for i in range(30)]
    outputs = []
    for seed in ("0", "1"):
        proc = run_python(["-c", _DETERMINISM_SCRIPT], env={"PYTHONHASHSEED": seed},
                          input=json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]
    sizes = {(argv[3], len(payload["witness"]["model"]["states"]) if code == 0 else None)
             for argv, (code, payload) in zip(argvs, outputs[0])}
    assert sizes == {("2", 2), ("3", 3), ("4", 4), ("2", None), ("3", None), ("4", None)}


@pytest.mark.parametrize("doc, error", [
    ({"states": ["a", "b"], "edges": [["a", "z"], ["a", "x"], ["q", "b"], ["a", "b"]]},
     "edge ('a', 'x') mentions an undeclared state"),
    ({"states": ["a", "b"], "edges": [], "valuation": {"l:p": ["a", "y", "c", "zz"]}},
     "valuation of l:p mentions undeclared state 'c'"),
])
def test_model_error_does_not_depend_on_hash_seed(tmp_path, doc, error):
    # Edges and valuation members are sets: the least offender is named,
    # whatever order the hash seed gives them.
    model = tmp_path / "m.json"
    model.write_text(json.dumps(doc))
    for seed in "0123":
        proc = run_python(["-m", "lhs.cli", "check", "-m", str(model), "--at", "a,a", "-f", "l:p"],
                          env={"PYTHONHASHSEED": seed})
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            65, "", f"lhs: input error: {error}\n"), seed


class TestReadme:
    @staticmethod
    def synopsis():
        text = (ROOT / "README.md").read_text()
        block = text.split("## Command line", 1)[1].split("```")[1]
        return [line for line in block.splitlines() if line.startswith("lhs ")]

    @staticmethod
    def expand(line):
        """Every argv a synopsis line shows: optional [parts] included, each
        {A | B} alternative taken in turn, N as a number."""
        line = line.replace("[", "").replace("]", "")
        choice = re.search(r"\{([^}]*)\}", line)
        if choice is None:
            return [["3" if tok == "N" else tok for tok in line.split()[1:]]]
        return [argv for alt in choice.group(1).split(" | ")
                for argv in TestReadme.expand(line[:choice.start()] + alt
                                              + line[choice.end():])]

    def test_synopsis_parses(self):
        for line in self.synopsis():
            for argv in self.expand(line):
                try:
                    build_parser().parse_args(argv)
                except SystemExit:
                    pytest.fail(f"README synopsis does not parse: {' '.join(argv)}")

    def test_synopsis_covers_every_verb(self):
        verbs = next(a.choices for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction))
        assert {line.split()[1] for line in self.synopsis()} == set(verbs)

    @staticmethod
    def leaves(parser, path=()):
        """(verb words, subparser) of every verb that has no verbs below it."""
        subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if not subs:
            yield path, parser
        for action in subs:
            for name, sub in action.choices.items():
                yield from TestReadme.leaves(sub, path + (name,))

    def test_synopsis_names_every_option(self):
        lines = self.synopsis()
        for path, parser in self.leaves(build_parser()):
            [line] = [line for line in lines if tuple(line.split()[1:1 + len(path)]) == path]
            shown = {token.strip("[]{}") for token in line.split()}
            for action in parser._actions:
                names = set(action.option_strings)
                assert not names or "-h" in names or names & shown, \
                    f"README synopsis of {' '.join(path)} lacks {action.option_strings}"


def _without_time(out):
    try:
        payload = json.loads(out)
    except ValueError:
        return out
    payload.pop("time_s", None)
    return payload


class TestParserReuse:
    """`main` reads every argv with one parser, built once per process."""

    def test_calls_in_turn_answer_as_fresh_parsers_do(self, capsys, tmp_path, monkeypatch):
        witness = tmp_path / "w.json"
        argvs = [
            ["sat"],
            ["--help"],
            ["sat", "-f", "l:p", "-F", str(tmp_path / "f.txt")],
            ["sat", "--full", "--max-size", "2", "--witness", str(witness), "--json",
             "-f", "<W>l:p"],
            # Satisfiable, but not within 2 states: a `--full --max-size 2`
            # left over from the call before would exit 2.
            ["sat", "--json", "-f", FOUR_STATE_FORMULA],
        ]
        reused = [run(capsys, *argv) for argv in argvs]
        monkeypatch.setattr(cli, "_parser", build_parser)
        fresh = [run(capsys, *argv) for argv in argvs]
        assert ([(code, _without_time(out), err) for code, out, err in reused]
                == [(code, _without_time(out), err) for code, out, err in fresh])
        assert [code for code, _, _ in reused] == [64, 0, 64, 0, 0]
        assert "not allowed with argument" in reused[2][2]
        assert json.loads(reused[3][1])["witness"]["path"] == str(witness)
        last = json.loads(reused[4][1])["witness"]
        assert "path" not in last and len(last["model"]["states"]) >= 3

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["bogus"], ["sat", "-f", "l:p", "--bogus"], ["sat", "-f", "l:p", "extra"],
        ["tiling"], ["tiling", "bogus"], ["sat", "--js", "-f", "l:p"], ["--json", "sat", "-f", "l:p"],
        ["sat", "-h"], ["tiling", "gen"], ["translate", "-f", "I", "-x", "y", "--bogus"],
    ])
    def test_verb_parser_answers_as_the_whole_parser(self, capsys, argv):
        # `main` reads a verb's argv with the verb's own subparser; what that
        # leaves over, and any argv that does not start with a verb, gets
        # the whole parser's answer, byte for byte.
        def whole(argv):
            args = build_parser().parse_args(argv)
            return args.handler(args)

        def answer(main):
            code, out, err = run(capsys, *argv, main=main)
            return code, _without_time(out), err

        assert answer(cli.main) == answer(whole)

    def test_verb_argv_skips_the_whole_parser(self, capsys, monkeypatch):
        # A well-formed verb argv is read by the verb's subparser alone.
        monkeypatch.setattr(cli._parser(), "parse_args", None)
        assert run(capsys, "tiling", "gen", "-t", str(DATA / "one_tile.json"))[0] == 0
        assert run(capsys, "valid", "-f", A1) == (0, "VALID\n", "")

    def test_main_builds_one_parser(self, capsys, monkeypatch):
        built = []

        def counted():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            for argv in (["parse", "-f", "l:p"], ["sat"], ["valid", "-f", "l:p | ~l:p"]):
                run(capsys, *argv)
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


_NUMPY_SCRIPT = """
import contextlib, io, json, sys
import lhs, lhs.cli

light, heavy = json.load(sys.stdin)
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in light:
        codes.append(lhs.cli.main(argv))
loaded_light = "numpy" in sys.modules
if heavy == "check_all":
    model = lhs.Model(("a", "b"), frozenset({("a", "b")}))
    codes.append(sorted(lhs.check_all(model, lhs.parse("<W>I"))))
else:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(lhs.cli.main(heavy))
print(json.dumps([codes, loaded_light, "numpy" in sys.modules]))
"""


class TestLazyNumpy:
    """Numpy loads only when a call needs the vectorised kernel."""

    @pytest.mark.parametrize("heavy, answer", [
        pytest.param(["sat", "--full", "--max-size", "1", "-f", "I"], 0, id="sat-full"),
        pytest.param("check_all", [["a", "b"]], id="check_all"),
        pytest.param(["tiling", "model", "-t", str(DATA / "one_tile.json"),
                      "-a", str(DATA / "unit_tiling.json"), "--check"], 0,
                     id="tiling-model-check"),
    ])
    def test_only_kernel_calls_load_numpy(self, tmp_path, heavy, answer):
        model = tmp_path / "m.json"
        model.write_text('{"states": ["w"], "edges": [["w", "w"]], "valuation": {}}')
        formula = ["-f", "[W](l:p | r:q) <-> ([W]l:p | r:q)"]
        light = [
            ["parse", *formula],
            ["check", "-m", str(model), "--at", "w,w", *formula],
            ["sat", *formula],
            ["valid", *formula],
            ["cnf", *formula],
            ["bisim", "-m", str(model), "-n", str(model)],
            ["proof", "-p", str(DATA / "proof_r_box_sub.json")],
            ["tiling", "gen", "-t", str(DATA / "one_tile.json")],
        ]
        proc = run_python(["-c", _NUMPY_SCRIPT], input=json.dumps([light, heavy]))
        assert proc.returncode == 0, proc.stderr
        codes, loaded_light, loaded_heavy = json.loads(proc.stdout)
        assert codes == [0] * len(light) + [answer]
        assert (loaded_light, loaded_heavy) == (False, True)

    def test_import_lhs_cli_leaves_numpy_out(self):
        proc = run_python(["-c", "import sys, lhs.cli; assert 'numpy' not in sys.modules"])
        assert proc.returncode == 0, proc.stderr

    def test_import_lhs_cli_leaves_dataclasses_out(self):
        # The records are built without `dataclasses` (and the `inspect` it
        # imports); the CLI loads the modules that `sat` and `valid` run.
        script = ("import json, sys; before = set(sys.modules); import lhs.cli; "
                  "print(json.dumps(sorted(set(sys.modules) - before)))")
        proc = run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(proc.stdout))
        assert not loaded & {"dataclasses", "inspect"}
        assert {name for name in loaded if name.split(".")[0] == "lhs"} == {
            "lhs", "lhs.cli", "lhs.errors", "lhs.syntax", "lhs.model", "lhs.normal",
            "lhs.semantics", "lhs.decide"}

    def test_numpy_imported_in_one_module(self):
        importers = {path.name for path in (ROOT / "src" / "lhs").glob("*.py")
                     if re.search(r"^\s*(import|from) numpy\b", path.read_text(), re.M)}
        assert importers == {"bruteforce.py"}


# Runs each argv of stdin through `lhs.cli.main` in one fresh interpreter;
# prints each exit code and stdout, and the `lhs` modules that each loaded.
_LOADS_SCRIPT = """
import contextlib, io, json, sys
import lhs.cli

out = []
for argv in json.load(sys.stdin):
    before, buf = set(sys.modules), io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lhs.cli.main(argv)
    out.append([code, buf.getvalue(), sorted(n for n in set(sys.modules) - before
                                             if n.startswith("lhs."))])
print(json.dumps(out))
"""

# The names `lhs` exported when its `__init__` imported every module.
EXPORTS = """
    ClauseViolation PairRelation are_bisimilar check_bisimulation_witness largest_bisimulation
    Verdict brute_force_sat_oracle k_sat lhs_bounded_sat lhs_minus_sat lhs_minus_valid
    ContainsI FormulaSyntaxError InputError InvalidTiling LhsError ModalInput
    ModelFormatError NotClean ResourceGuard SideViolation UnknownState
    Model enumerate_models load_model model_doc save_model
    CleanCNF clean_to_cnf companion prop_cnf ProofLine check_proof load_proof
    check check_all fo_eval fo_render fo_translate
    And Atom BBox BDia Bot EqConst Formula Iff Implies Not Or PropName Side Top WBox WDia
    left_atom parse prop_names render right_atom subformulas substitute
    PeriodicTiling Tile TileSet generate_phi load_tileset load_tiling torus_model validate_tiling
""".split()


class TestLazyModules:
    """A module that only one verb runs loads in that verb, and the package
    loads a module when one of its names is first read."""

    def loads(self, argvs):
        proc = run_python(["-c", _LOADS_SCRIPT], input=json.dumps(argvs))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize("argv, code, modules", [
        pytest.param(["proof", "-p", str(DATA / "proof_r_box_sub.json")], 0, ["lhs.proof"],
                     id="proof"),
        pytest.param(["tiling", "gen", "-t", str(DATA / "stripe_tiles.json")], 0,
                     ["lhs.tiling"], id="tiling-gen"),
        pytest.param(["tiling", "model", "-t", str(DATA / "one_tile.json"),
                      "-a", str(DATA / "unit_tiling.json"), "--check"], 0,
                     ["lhs.bruteforce", "lhs.tiling"], id="tiling-model-check"),
    ])
    def test_single_verb_loads_its_module(self, capsys, argv, code, modules):
        [[got, out, loaded]] = self.loads([argv])
        assert (got, loaded) == (code, modules)
        assert (got, out) == run(capsys, *argv)[:2]

    def test_bisim_loads_its_module(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"states": ["a", "b"], "edges": [["a", "b"]], '
                         '"valuation": {"l:p": ["a"]}}')
        argvs = [["bisim", "-m", str(model), "-n", str(model)],
                 ["bisim", "-m", str(model), "-n", str(model), "--pairs", "a,b=a,b"]]
        first, second = self.loads(argvs)
        assert (first[0], first[2], second[0], second[2]) == (0, ["lhs.bisim"], 0, [])
        assert [first[:2], second[:2]] == [list(run(capsys, *argv)[:2]) for argv in argvs]

    def test_other_verbs_load_no_single_verb_module(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"states": ["w"], "edges": [["w", "w"]], "valuation": {}}')
        formula = ["-f", "[W](l:p | r:q) <-> ([W]l:p | r:q)"]
        argvs = [["parse", *formula], ["check", "-m", str(model), "--at", "w,w", *formula],
                 ["sat", *formula], ["valid", *formula], ["cnf", *formula],
                 ["translate", *formula]]
        answers = self.loads(argvs)
        assert [code for code, _, _ in answers] == [0] * len(argvs)
        assert [loaded for _, _, loaded in answers] == [[]] * len(argvs)

    def test_a_name_loads_its_module(self):
        script = ("import json, sys; from lhs import parse; "
                  "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'lhs')))")
        proc = run_python(["-c", script])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["lhs", "lhs.errors", "lhs.syntax"]

    def test_package_exports(self):
        assert len(EXPORTS) == len(set(EXPORTS)) == 70
        assert sorted(lhs.__all__) == sorted(EXPORTS)
        assert set(EXPORTS) <= set(dir(lhs))
        for name in EXPORTS:
            value = getattr(lhs, name)
            assert value.__module__.startswith("lhs."), name
            assert getattr(importlib.import_module(value.__module__), name) is value, name
        assert lhs.substitute.__module__ == "lhs.proof"
        with pytest.raises(AttributeError, match="has no attribute 'nope'"):
            lhs.nope
        with pytest.raises(ImportError):
            from lhs import nope  # noqa: F401


@pytest.fixture
def torus(capsys, tmp_path):
    """A torus model file: states "s", "0,0", "0,1" and "1,0", so every grid
    state id holds a comma."""
    path = tmp_path / "torus.json"
    assert run(capsys, "tiling", "model", "-t", str(DATA / "one_tile.json"),
               "-a", str(DATA / "unit_tiling.json"), "-o", str(path))[0] == 0
    return path


class TestCheck:
    def test_diagonal(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"states": ["w"], "edges": [], "valuation": {}}')
        code, out, _ = run(capsys, "check", "-m", str(model), "-f", "I",
                           "--at", "w,w")
        assert code == 0 and "true" in out

    def test_off_diagonal(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"states": ["a", "b"], "edges": [], "valuation": {}}')
        code, out, _ = run(capsys, "check", "-m", str(model), "-f", "I",
                           "--at", "a,b")
        assert code == 1 and "false" in out

    @pytest.mark.parametrize("at, code, pair", [
        ("0,0,0,0", 0, ["0,0", "0,0"]),
        ("s,0,0", 1, ["s", "0,0"]),
        ("0,1, s", 1, ["0,1", "s"]),
    ])
    def test_state_ids_with_commas(self, capsys, torus, at, code, pair):
        got, out, _ = run(capsys, "check", "--json", "-m", str(torus), "-f", "l:t1",
                          "--at", at)
        assert (got, json.loads(out)["pair"]) == (code, pair)

    @pytest.mark.parametrize("at, message", [
        ("0,9", "unknown state '0'"),
        ("0,0,0", "expected S,T"),
        ("s,0,0,0,0", "expected S,T"),
        ("s", "expected S,T"),
    ])
    def test_pair_that_names_no_states(self, capsys, torus, at, message):
        code, _, err = run(capsys, "check", "-m", str(torus), "-f", "l:t1", "--at", at)
        assert code == 65 and message in err

    def test_state_id_with_outer_whitespace(self, capsys, tmp_path):
        # `--at ' a, a'` would read the pair (a, a), which the file does not declare.
        model = tmp_path / "m.json"
        model.write_text('{"states": [" a", "a "], "edges": []}')
        for argv in (["check", "-m", str(model), "-f", "I", "--at", " a, a"],
                     ["bisim", "-m", str(model), "-n", str(model)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (65, "")
            assert "state id ' a' has leading or trailing whitespace" in err

    def test_ambiguous_pair(self, capsys, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"states": ["a", "b", "a,b", "b,a"], "edges": []}')
        code, _, err = run(capsys, "check", "-m", str(model), "-f", "I", "--at", "a,b,a")
        assert code == 65
        assert "names more than one pair of states: ('a', 'b,a') or ('a,b', 'a')" in err

    def test_missing_model_file(self, capsys, tmp_path):
        assert run(capsys, "check", "-m", str(tmp_path / "nope.json"),
                   "-f", "I", "--at", "w,w")[0] == 65

    @pytest.mark.parametrize("argv", [
        pytest.param(["parse", "-F", "{dir}"], id="parse-dir"),
        pytest.param(["parse", "-F", "{binary}"], id="parse-binary"),
        pytest.param(["check", "-m", "{binary}", "-f", "I", "--at", "w,w"], id="check-binary"),
        pytest.param(["check", "-m", "{dir}", "-f", "I", "--at", "w,w"], id="check-dir"),
        pytest.param(["bisim", "-m", "{binary}", "-n", "{binary}"], id="bisim-binary"),
        pytest.param(["proof", "-p", "{dir}"], id="proof-dir"),
        pytest.param(["tiling", "gen", "-t", "{binary}"], id="tiling-binary"),
        pytest.param(["tiling", "model", "-t", str(DATA / "one_tile.json"), "-a", "{dir}"],
                     id="tiling-model-dir"),
    ])
    def test_unreadable_input_is_input_error(self, capsys, tmp_path, argv):
        # A directory or a file that is not UTF-8 is malformed input (65),
        # not a traceback with exit 1 ("no").
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00\x80")
        argv = [a.format(dir=tmp_path, binary=binary) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 65
        assert "input error" in err


class TestWitnessRoundTrip:
    def test_sat_witness_reverifies(self, capsys, tmp_path):
        witness = tmp_path / "w.json"
        formula = "<W>l:p & [B]r:q"
        code, out, _ = run(capsys, "sat", "--json", "-f", formula,
                           "--witness", str(witness))
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "SAT"
        s, t = payload["witness"]["pair"]
        code, out, _ = run(capsys, "check", "-m", str(witness), "-f", formula,
                           "--at", f"{s},{t}")
        assert code == 0

    def test_invalid_countermodel_reverifies(self, capsys, tmp_path):
        witness = tmp_path / "w.json"
        formula = "[W](l:p | l:q) -> ([W]l:p | l:q)"
        code, out, _ = run(capsys, "valid", "--json", "-f", formula,
                           "--witness", str(witness))
        assert code == 1
        payload = json.loads(out)
        s, t = payload["witness"]["pair"]
        assert not check(load_model(witness.read_text()), s, t, parse(formula))


class TestJsonOutput:
    """`--json` prints one compact line; model files stay indented."""

    @pytest.fixture
    def files(self, tmp_path):
        model = tmp_path / "m.json"
        model.write_text('{"states": ["a", "b"], "edges": [["a", "b"]], "valuation": {"l:p": ["a"]}}')
        return {"m": str(model), "tiles": str(DATA / "one_tile.json"),
                "tiling": str(DATA / "unit_tiling.json"),
                "proof": str(DATA / "proof_r_box_sub.json"), "w": str(tmp_path / "w.json")}

    @pytest.mark.parametrize("argv, keys", [
        ("parse -f l:p", "formula i_free white_only black_only clean"),
        ("check -m {m} --at a,b -f l:p", "verdict pair"),
        ("sat -f <W>l:p", "verdict time_s witness"),
        ("sat --full -f I", "verdict time_s witness"),
        ("valid -f l:p|~l:p", "verdict time_s"),
        ("valid -f l:p --witness {w}", "verdict time_s witness"),
        ("cnf -f [B]l:p", "formula conjuncts"),
        ("translate -f [W]l:p", "translation free_vars"),
        ("bisim -m {m} -n {m}", "size pairs"),
        ("bisim -m {m} -n {m} --pairs a,b=a,b", "related pair"),
        ("proof -p {proof}", "ok lines conclusion"),
        ("tiling gen -t {tiles}", "formula labels"),
        ("tiling model -t {tiles} -a {tiling} --check", "states spy phi_T model"),
    ])
    def test_one_line(self, capsys, files, argv, keys):
        code, out, err = run(capsys, *argv.format(**files).split(), "--json")
        assert code in (0, 1) and err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        assert sorted(json.loads(out)) == sorted(keys.split())

    def test_model_files_stay_indented(self, capsys, files, tmp_path):
        torus = tmp_path / "torus.json"
        run(capsys, "sat", "--json", "--witness", files["w"], "-f", "<W>l:p")
        run(capsys, "tiling", "model", "--json", "-t", files["tiles"], "-a", files["tiling"],
            "-o", str(torus))
        for path in (Path(files["w"]), torus):
            text = path.read_text()
            assert text.startswith('{\n  "states": [') and load_model(text)


class TestOtherCommands:
    def test_cnf(self, capsys):
        code, out, _ = run(capsys, "cnf", "-f", "[B]l:p")
        assert code == 0
        assert "l:p" in out

    def test_cnf_rejects_equality_constant(self, capsys):
        assert run(capsys, "cnf", "-f", "I")[0] == 65

    @pytest.mark.parametrize("text", ["[W]l:p | [B]r:q", "l:p", "true", "false",
                                      "~(l:p & [B]r:q) -> ([W]l:q <-> r:p)"])
    def test_cnf_clean_only_prints_the_companion(self, capsys, text):
        for extra in ([], ["--json"]):
            want = run(capsys, "cnf", *extra, "-f", text)
            assert want[0] == 0
            assert run(capsys, "cnf", "--clean-only", *extra, "-f", text) == want

    @pytest.mark.parametrize("text", ["[W](l:p | r:q)", "I", "<B>(l:p & r:q)"])
    def test_cnf_clean_only_refuses_other_input(self, capsys, text):
        code, out, err = run(capsys, "cnf", "--clean-only", "-f", text)
        assert (code, out) == (65, "")
        assert err.startswith("lhs: input error: not a clean formula: ")

    def test_translate(self, capsys):
        code, out, _ = run(capsys, "translate", "-f", "I")
        assert code == 0 and "x = y" in out

    @pytest.mark.parametrize("names", [["-x", "v", "-y", "v"], ["-x", "y"], ["-y", "x"]])
    def test_translate_refuses_one_name_for_both_variables(self, capsys, names):
        # One name would make the translation of I, `v = v`, valid, though
        # I holds only on the diagonal.
        code, out, err = run(capsys, "translate", *names, "-f", "I -> [W]r:q")
        assert (code, out) == (64, "")
        assert "lhs translate: error: arguments -x and -y both name" in err

    @pytest.mark.parametrize("flag, name", [("-x", ""), ("-y", "R(x"), ("-x", "2x"), ("-y", "x y")])
    def test_translate_variable_outside_the_grammar(self, capsys, flag, name):
        code, out, err = run(capsys, "translate", flag, name, "-f", "[W]l:p & r:p")
        assert (code, out) == (64, "")
        assert f"lhs translate: error: argument {flag}: expected a variable name" in err

    def test_proof(self, capsys):
        code, out, _ = run(capsys, "proof", "-p",
                           str(DATA / "proof_r_box_sub.json"))
        assert code == 0

    @pytest.mark.parametrize("subst", [{"left": {"l:p": "l:zzz"}},
                                       {"right": {"r:p": "<B>r:b"}}], ids=["left", "right"])
    @pytest.mark.parametrize("rule", [rule for rule in RULE_NAMES if rule != "Sub"])
    def test_proof_substitution_outside_sub_rejected(self, capsys, tmp_path, rule, subst):
        # The first corpus line of `rule`, after the lines before it, with a
        # substitution that no rule but Sub reads.
        for path in sorted(DATA.glob("proof_*.json")):
            entries = json.loads(path.read_text())
            at = next((i for i, e in enumerate(entries) if e["rule"] == rule), None)
            if at is not None:
                break
        entries = entries[:at + 1]
        entries[at]["subst"] = subst
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps(entries))
        code, out, _ = run(capsys, "proof", "-p", str(proof))
        assert (code, out) == (1, f"rejected at line {at + 1}: {rule} takes no substitution\n")

    def test_bisim(self, capsys, tmp_path):
        m = tmp_path / "m.json"
        m.write_text('{"states": ["w"], "edges": [["w", "w"]], "valuation": {}}')
        code, _, _ = run(capsys, "bisim", "-m", str(m), "-n", str(m),
                         "--pairs", "w,w=w,w")
        assert code == 0

    def test_bisim_listing(self, capsys, tmp_path):
        # The human-readable listing, one related quadruple a line, or
        # `(empty)`; `--json` gives the same quadruples as lists.
        m, n = tmp_path / "m.json", tmp_path / "n.json"
        m.write_text('{"states": ["a", "b"], "edges": [["a", "b"]], "valuation": {"l:p": ["a"]}}')
        n.write_text('{"states": ["c"], "edges": [], "valuation": {"l:p": ["c"]}}')
        assert run(capsys, "bisim", "-m", str(m), "-n", str(m)) == (
            0, "(a,a) ~ (a,a)\n(a,b) ~ (a,b)\n(b,a) ~ (b,a)\n(b,b) ~ (b,b)\n", "")
        assert run(capsys, "bisim", "-m", str(m), "-n", str(n)) == (0, "(empty)\n", "")
        assert run(capsys, "bisim", "--json", "-m", str(m), "-n", str(n)) == (
            0, '{"size": 0, "pairs": []}\n', "")
        assert run(capsys, "bisim", "--json", "-m", str(n), "-n", str(n)) == (
            0, '{"size": 1, "pairs": [[["c", "c"], ["c", "c"]]]}\n', "")

    def test_input_files_are_utf8_under_any_locale(self, tmp_path):
        # Under the C locale without UTF-8 mode, `open` defaults to ASCII;
        # input files are read as UTF-8 all the same.
        model, formula = tmp_path / "m.json", tmp_path / "f.txt"
        model.write_text('{"states": ["é"], "edges": [["é", "é"]]}', encoding="utf-8")
        formula.write_text("l:p\u00a0& l:q", encoding="utf-8")  # a no-break space
        env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        proc = run_python(["-m", "lhs.cli", "bisim", "--json", "-m", str(model), "-n", str(model)],
                          env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["size"] == 1
        proc = run_python(["-m", "lhs.cli", "parse", "-F", str(formula)], env=env)
        assert (proc.returncode, proc.stdout) == (0, "l:p & l:q\n"), proc.stderr

    def test_bisim_pairs_with_commas(self, capsys, torus):
        argv = ["bisim", "--json", "-m", str(torus), "-n", str(torus), "--pairs"]
        code, out, _ = run(capsys, *argv, "0,0,s=0,0,s")
        assert code == 0 and json.loads(out)["pair"] == [["0,0", "s"], ["0,0", "s"]]
        code, out, _ = run(capsys, *argv, "s,0,1=0,0,0,1")
        assert code == 1 and json.loads(out)["pair"] == [["s", "0,1"], ["0,0", "0,1"]]
        assert run(capsys, *argv, "s,0=0,0,s")[0] == 65

    def test_bisim_pairs_with_equals_signs(self, capsys, tmp_path):
        # A state id may hold `=` as well: the one split at a `=` whose
        # halves both name pairs is taken.
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"states": ["a=1", "b", "x", "x=x"], "edges": [["a=1", "b"]]}))
        argv = ["bisim", "--json", "-m", str(m), "-n", str(m), "--pairs"]
        code, out, _ = run(capsys, *argv, "a=1,b=a=1,b")
        assert code == 0 and json.loads(out)["pair"] == [["a=1", "b"], ["a=1", "b"]]
        code, out, _ = run(capsys, *argv, "a=1,b=b,a=1")
        assert code == 1 and json.loads(out)["pair"] == [["a=1", "b"], ["b", "a=1"]]
        # (x, x) = (x=x, x) or (x, x=x) = (x, x)
        code, _, err = run(capsys, *argv, "x,x=x=x,x")
        assert code == 65 and "names more than one pair of pairs" in err
        code, _, err = run(capsys, *argv, "a=1,b=a=2,b")
        assert code == 65 and "expected S,T=S2,T2 but got 'a=1,b=a=2,b'" in err
        code, _, err = run(capsys, *argv, "a=1,b")
        assert code == 65 and "expected S,T, two states split at a comma, but got 'a'" in err

    def test_bisim_listing_guard_and_pair_query(self, capsys, tmp_path):
        # Two blocks of 40 and 1560 pairs: the listing would build
        # 40^2 + 1560^2 quadruples, a pair query builds none.
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"states": [f"w{i}" for i in range(40)], "edges": []}))
        code, _, err = run(capsys, "bisim", "-m", str(m), "-n", str(m))
        assert code == 70 and "2435200 related quadruples" in err
        code, out, _ = run(capsys, "bisim", "--json", "-m", str(m), "-n", str(m),
                           "--pairs", "w0,w1=w2,w3")
        assert code == 0 and json.loads(out)["related"] is True

    @pytest.mark.parametrize("size, edges", [
        pytest.param(1000, lambda ws: zip(ws, ws[1:]), id="path-1000"),
        pytest.param(200, lambda ws: ((a, b) for a in ws for b in ws), id="complete-200"),
    ])
    def test_bisim_refuses_large_pair_graph_at_once(self, capsys, tmp_path, size, edges):
        # 1000 * (1000 + 2 * 999) and 200 * (200 + 2 * 200^2) pair nodes and
        # edges per model: round 1 is refused before the pair graph is built.
        states = [f"w{i}" for i in range(size)]
        m = tmp_path / "m.json"
        m.write_text(json.dumps({"states": states, "edges": [list(e) for e in edges(states)]}))
        for extra in ([], ["--pairs", "w0,w1=w0,w1"]):
            with time_budget(5):
                code, _, err = run(capsys, "bisim", "-m", str(m), "-n", str(m), *extra)
            assert code == 70 and "so round 1 would pass" in err

    def test_tiling_gen(self, capsys):
        code, out, _ = run(capsys, "tiling", "gen", "-t",
                           str(DATA / "one_tile.json"))
        assert code == 0
        assert "l:t1" in out

    def test_tiling_formula_past_its_ceiling_refused(self, capsys, tmp_path):
        # 1,500 tiles fold millions of operands: refused (70) before the
        # formula is built, by `gen` and by `model --check`.
        tiles = tmp_path / "tiles.json"
        tiles.write_text(json.dumps({"tiles": [
            {"name": f"T{i + 1}", "up": "c", "down": "c", "left": "c", "right": "c"}
            for i in range(1500)]}))
        for argv in (["gen", "-t", str(tiles)],
                     ["model", "-t", str(tiles), "-a", str(DATA / "unit_tiling.json"),
                      "-o", str(tmp_path / "torus.json"), "--check"]):
            with time_budget(1):
                code, out, err = run(capsys, "tiling", *argv)
            assert (code, out) == (70, "")
            assert "refused: the formula of 1500 tiles folds 6754502 operands" in err

    def test_tiling_model_end_to_end(self, capsys, tmp_path):
        out_file = tmp_path / "torus.json"
        code, out, _ = run(capsys, "tiling", "model",
                           "-t", str(DATA / "one_tile.json"),
                           "-a", str(DATA / "unit_tiling.json"),
                           "-o", str(out_file), "--check")
        assert code == 0
        model = load_model(out_file.read_text())
        assert len(model.states) == 4

    def test_tiling_model_check_refuses_a_torus_past_the_table_limit(self, capsys, tmp_path):
        # A 38x36 stripe tiling gives a torus of 4,105 states, whose pairs
        # no longer fit one table: refused (70), not a traceback with exit 1.
        path = tmp_path / "tiling.json"
        path.write_text(json.dumps({"period": [38, 36], "assign": {
            f"{a},{b}": "AB"[b % 2] for a in range(38) for b in range(36)}}))
        code, out, err = run(capsys, "tiling", "model", "-t", str(DATA / "stripe_tiles.json"),
                             "-a", str(path), "-o", str(tmp_path / "torus.json"), "--check")
        assert code == 70
        assert err.startswith("lhs: refused: checking every pair of a 4105-state model")
        assert "Traceback" not in out + err

    def test_tiling_model_invalid_assignment(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"period": [1, 1], "assign": {"0,0": "X"}}))
        code, _, _ = run(capsys, "tiling", "model",
                         "-t", str(DATA / "mismatched_tile.json"),
                         "-a", str(bad))
        assert code == 65

    @pytest.mark.parametrize("tile, direction", [
        pytest.param({"name": "X", "up": "a", "down": "b", "left": "c", "right": "d"},
                     "horizontal", id="horizontal"),
        pytest.param({"name": "X", "up": "a", "down": "b", "left": "c", "right": "c"},
                     "vertical", id="vertical"),
    ])
    def test_tiling_model_colour_mismatch_is_input_error(self, capsys, tmp_path, tile,
                                                         direction):
        tiles, tiling = tmp_path / "tiles.json", tmp_path / "tiling.json"
        tiles.write_text(json.dumps({"tiles": [tile]}))
        tiling.write_text(json.dumps({"period": [1, 1], "assign": {"0,0": "X"}}))
        code, out, err = run(capsys, "tiling", "model", "-t", str(tiles), "-a", str(tiling))
        assert (code, out) == (65, "")
        assert err == f"lhs: input error: {direction} color mismatch at cell (0, 0)\n"

    @pytest.mark.parametrize("verb, doc", [
        pytest.param("proof", [{"formula": A1, "rule": "A1", "subst": 5}], id="proof-subst"),
        pytest.param("proof", [{"formula": A1, "rule": "A1", "subst": {"left": 5}}],
                     id="proof-subst-map"),
        pytest.param("proof", [{"formula": 5, "rule": "A1"}], id="proof-formula"),
        pytest.param("proof", [{"formula": A1, "rule": "A1", "vars": {}}], id="proof-vars"),
        pytest.param("proof", [{"formula": A1, "rule": "A1", "premises": 5}], id="proof-premises"),
        pytest.param("proof", [{"formula": A1, "rule": "A1"},
                               {"formula": f"[W]({A1})", "rule": "Nec_W", "premises": [True]}],
                     id="proof-premise-bool"),
        pytest.param("proof", [{"formula": A1, "rule": "A1"},
                               {"formula": "l:a -> (l:q -> l:a)", "rule": "Sub", "premises": [1],
                                "subst": {"lfet": {"l:p": "l:a"}}}], id="proof-subst-key"),
        pytest.param("proof", [{"formula": A1, "rule": "A1"},
                               {"formula": A1, "rule": "Sub", "premises": [1],
                                "subst": {"left": {"l:p": 5}}}], id="proof-subst-value"),
        pytest.param("tiling gen", {"tiles": 5}, id="tiles"),
        pytest.param("tiling gen", {"tiles": [5]}, id="tile-entry"),
        pytest.param("tiling gen", {"tiles": [{"name": ["T1"], "up": "c", "down": "c",
                                               "left": "c", "right": "c"}]}, id="tile-name"),
        pytest.param("tiling model", {"period": [1, 1], "assign": 5}, id="assign"),
        pytest.param("tiling model", {"period": [True, 1], "assign": {"0,0": "T1"}},
                     id="period-bool"),
        pytest.param("tiling model", {"period": [1, 1], "assign": {"0,0": ["T1"]}},
                     id="assign-value"),
        pytest.param("tiling model", {"period": [1, 1], "assign": {"0,0": "T2"}},
                     id="unknown-tile"),
        pytest.param("tiling model", {"period": [1, 1], "assign": {"0,0": "T1", " 0,0": "T1"}},
                     id="cell-named-twice"),
    ])
    def test_malformed_file_is_input_error(self, capsys, tmp_path, verb, doc):
        # A file of the wrong shape is malformed input (65), not a traceback
        # with exit 1 ("no").
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = {
            "proof": ["proof", "-p", str(path)],
            "tiling gen": ["tiling", "gen", "-t", str(path)],
            "tiling model": ["tiling", "model", "-t", str(DATA / "one_tile.json"), "-a", str(path)],
        }[verb]
        code, _, err = run(capsys, *argv)
        assert code == 65
        assert err.startswith("lhs: input error: ")

    @pytest.mark.parametrize("verb", ["check", "bisim", "proof", "tiling gen", "tiling model"])
    def test_deeply_nested_file_is_input_error(self, capsys, tmp_path, verb):
        # Nesting past the decoder's recursion limit, or an integer longer
        # than the interpreter converts, is malformed input (65), not a
        # traceback with exit 1 ("no"). No loader takes a list of numbers, so
        # the long integer is refused also where no digit limit applies.
        path = tmp_path / "doc.json"
        argv = {
            "check": ["check", "-m", str(path), "--at", "w,w", "-f", "l:p"],
            "bisim": ["bisim", "-m", str(path), "-n", str(path)],
            "proof": ["proof", "-p", str(path)],
            "tiling gen": ["tiling", "gen", "-t", str(path)],
            "tiling model": ["tiling", "model", "-t", str(DATA / "one_tile.json"), "-a", str(path)],
        }[verb]
        for text in ("[" * 10**5 + "]" * 10**5, "[1" + "0" * 5000 + "]"):
            path.write_text(text)
            code, _, err = run(capsys, *argv)
            assert code == 65
            assert err.startswith("lhs: input error: ")

    @pytest.mark.parametrize("verb", ["check", "bisim", "proof", "tiling gen", "tiling model"])
    def test_repeated_key_is_input_error(self, capsys, tmp_path, verb):
        # The decoder alone keeps a repeated key's last value, so the model
        # below would be read with l:p at b only. Without the repeat, each
        # file is read and answered.
        path = tmp_path / "doc.json"
        argv, text, repeat, key = {
            "check": (["check", "-m", str(path), "--at", "a,a", "-f", "l:p"],
                      '{"states": ["a", "b"], "edges": [], "valuation": {"l:p": ["a"], '
                      '"l:p": ["b"]}}', ', "l:p": ["b"]', "l:p"),
            "bisim": (["bisim", "-m", str(path), "-n", str(path)],
                      '{"states": ["a"], "edges": [], "states": ["a"]}', ', "states": ["a"]',
                      "states"),
            "proof": (["proof", "-p", str(path)],
                      '[{"formula": "l:p -> (l:q -> l:p)", "rule": "A1", "rule": "A2"}]',
                      ', "rule": "A2"', "rule"),
            "tiling gen": (["tiling", "gen", "-t", str(path)],
                           '{"tiles": [{"name": "T1", "up": "c", "down": "c", "left": "c", '
                           '"right": "c", "up": "d"}]}', ', "up": "d"', "up"),
            "tiling model": (["tiling", "model", "-t", str(DATA / "one_tile.json"), "-a", str(path)],
                             '{"period": [1, 1], "assign": {"0,0": "T1", "0,0": "T2"}}',
                             ', "0,0": "T2"', "0,0"),
        }[verb]
        path.write_text(text)
        code, _, err = run(capsys, *argv)
        assert code == 65
        assert err == f"lhs: input error: key '{key}' appears more than once in one JSON object\n"
        path.write_text(text.replace(repeat, ""))
        assert run(capsys, *argv)[0] == 0

    @pytest.mark.parametrize("period", [[10**5, 10**5], [10**5, 1]])
    def test_huge_period_refused_without_listing_cells(self, capsys, tmp_path, period):
        # A few bytes that name 10^10 cells: the check must not list them.
        # The bound is on CPU time, which other load on the machine does not
        # inflate.
        path = tmp_path / "tiling.json"
        path.write_text(json.dumps({"period": period, "assign": {"0,0": "T1"}}))
        start = time.process_time()
        with time_budget(30):
            code, _, err = run(capsys, "tiling", "model", "-t", str(DATA / "one_tile.json"),
                               "-a", str(path))
        assert time.process_time() - start < 1
        assert code == 65
        assert "assignment must cover exactly the period cells" in err

"""Command-line interface: exit codes, JSON output, witness round-trips."""

import argparse
import json
import random
import re
import resource
import sys
import time
from pathlib import Path

import pytest

from lhs import BDia, Iff, Implies, Not, WDia, check, decide, load_model, parse, render, syntax
from lhs import cli
from lhs.cli import build_parser, main
from lhs.syntax import conjoin

from conftest import k_branch_n, k_branch_p, random_i_free, run_python, time_budget

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent

A1 = "l:p -> (l:q -> l:p)"
# Needs four distinct left valuations over p, q, hence four states.
FOUR_STATE_FORMULA = "l:p & l:q & <W>(l:p & ~l:q) & <W>(~l:p & l:q) & <W>(~l:p & ~l:q)"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors exit directly
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestExitCodes:
    def test_parse_ok(self, capsys):
        code, out, _ = run(capsys, "parse", "-f", "[W](l:p->r:q)")
        assert code == 0
        assert parse(out.strip()) == parse("[W](l:p->r:q)")

    def test_parse_syntax_error(self, capsys):
        assert run(capsys, "parse", "-f", "l:p &")[0] == 65

    def test_parse_reserved_name(self, capsys):
        assert run(capsys, "parse", "-f", "l:_fresh0")[0] == 65

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
        pytest.param(["selftest", "--count", "-3"], id="count-3"),
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

    def test_force_flag_is_gone(self, capsys):
        assert run(capsys, "sat", "--full", "--force", "-f", "I")[0] == 64

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

    def test_wide_mixed_sat_walks_the_formula_few_times(self, capsys, monkeypatch):
        # Only the companion's read of the variable names for its pads: every
        # formula carries its syntax class from construction, so the I check,
        # `CleanCNF`'s check of each side and `k_sat` walk nothing.
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
        assert calls <= 1


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
        code, out = answers["proof"]
        assert (code, out.startswith("ok: 2 lines")) == ((0, True) if white_only else (1, False))


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
    model = lhs.make_model(["a", "b"], [("a", "b")], {})
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

    def test_numpy_imported_in_one_module(self):
        importers = {path.name for path in (ROOT / "src" / "lhs").glob("*.py")
                     if re.search(r"^\s*(import|from) numpy\b", path.read_text(), re.M)}
        assert importers == {"bruteforce.py"}


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


class TestOtherCommands:
    def test_cnf(self, capsys):
        code, out, _ = run(capsys, "cnf", "-f", "[B]l:p")
        assert code == 0
        assert "l:p" in out

    def test_cnf_rejects_equality_constant(self, capsys):
        assert run(capsys, "cnf", "-f", "I")[0] == 65

    def test_translate(self, capsys):
        code, out, _ = run(capsys, "translate", "-f", "I")
        assert code == 0 and "x = y" in out

    def test_proof(self, capsys):
        code, out, _ = run(capsys, "proof", "-p",
                           str(DATA / "proof_r_box_sub.json"))
        assert code == 0

    def test_bisim(self, capsys, tmp_path):
        m = tmp_path / "m.json"
        m.write_text('{"states": ["w"], "edges": [["w", "w"]], "valuation": {}}')
        code, _, _ = run(capsys, "bisim", "-m", str(m), "-n", str(m),
                         "--pairs", "w,w=w,w")
        assert code == 0

    def test_bisim_pairs_with_commas(self, capsys, torus):
        argv = ["bisim", "--json", "-m", str(torus), "-n", str(torus), "--pairs"]
        code, out, _ = run(capsys, *argv, "0,0,s=0,0,s")
        assert code == 0 and json.loads(out)["pair"] == [["0,0", "s"], ["0,0", "s"]]
        code, out, _ = run(capsys, *argv, "s,0,1=0,0,0,1")
        assert code == 1 and json.loads(out)["pair"] == [["s", "0,1"], ["0,0", "0,1"]]
        assert run(capsys, *argv, "s,0=0,0,s")[0] == 65

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

    def test_tiling_model_end_to_end(self, capsys, tmp_path):
        out_file = tmp_path / "torus.json"
        code, out, _ = run(capsys, "tiling", "model",
                           "-t", str(DATA / "one_tile.json"),
                           "-a", str(DATA / "unit_tiling.json"),
                           "-o", str(out_file), "--check")
        assert code == 0
        model = load_model(out_file.read_text())
        assert len(model.states) == 4

    def test_tiling_model_invalid_assignment(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"period": [1, 1], "assign": {"0,0": "X"}}))
        code, _, _ = run(capsys, "tiling", "model",
                         "-t", str(DATA / "mismatched_tile.json"),
                         "-a", str(bad))
        assert code == 65

    @pytest.mark.parametrize("verb, doc", [
        pytest.param("proof", [{"formula": A1, "rule": "A1", "subst": 5}], id="proof-subst"),
        pytest.param("proof", [{"formula": A1, "rule": "A1", "subst": {"left": 5}}],
                     id="proof-subst-map"),
        pytest.param("proof", [{"formula": 5, "rule": "A1"}], id="proof-formula"),
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
        # Nesting past the decoder's recursion limit is malformed input (65),
        # not a RecursionError traceback with exit 1 ("no").
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 10**5 + "]" * 10**5)
        argv = {
            "check": ["check", "-m", str(deep), "--at", "w,w", "-f", "l:p"],
            "bisim": ["bisim", "-m", str(deep), "-n", str(deep)],
            "proof": ["proof", "-p", str(deep)],
            "tiling gen": ["tiling", "gen", "-t", str(deep)],
            "tiling model": ["tiling", "model", "-t", str(DATA / "one_tile.json"), "-a", str(deep)],
        }[verb]
        code, _, err = run(capsys, *argv)
        assert code == 65
        assert err.startswith("lhs: input error: ")

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

    def test_selftest(self, capsys):
        assert run(capsys, "selftest", "--seed", "1", "--count", "5")[0] == 0

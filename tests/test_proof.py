"""Hilbert-style derivation checking over the bundled proof corpus."""

import json
import random
from pathlib import Path

import pytest

from lhs import ModelFormatError, Not, check, check_proof, lhs_minus_valid, load_proof, parse
from lhs.proof import RULE_NAMES, LineError, ProofLine
from lhs.syntax import PropName, Side

from conftest import random_model

DATA = Path(__file__).parent / "data"
CORPUS = sorted(DATA.glob("proof_*.json"))


def load(path):
    return load_proof(path.read_text())


class TestCorpus:
    def test_corpus_is_substantial(self):
        assert len(CORPUS) >= 6

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_verifies(self, path):
        error = check_proof(load(path))
        assert error is None, error

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_conclusion_valid(self, path):
        lines = load(path)
        assert check_proof(lines) is None
        assert lhs_minus_valid(lines[-1].formula).status == "VALID"

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_conclusion_true_on_random_models(self, path, rng):
        conclusion = load(path)[-1].formula
        for _ in range(100):
            m = random_model(rng)
            for s in m.states:
                for t in m.states:
                    assert check(m, s, t, conclusion)

    def test_every_rule_exercised(self):
        used = {line.rule for path in CORPUS for line in load(path)}
        assert {"A1", "A2", "A3", "K_box", "K_bbox", "R_box", "R_bbox",
                "Sub", "MP", "Nec_W", "Nec_B"} <= used


class TestRejections:
    def test_corrupted_line_reported(self):
        lines = load(CORPUS[0])
        bad = list(lines)
        bad[0] = ProofLine(Not(bad[0].formula), bad[0].rule, bad[0].premises,
                           bad[0].left_map, bad[0].right_map)
        error = check_proof(bad)
        assert error is not None and error.line == 1

    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_single_mutations_rejected_at_right_line(self, path):
        lines = load(path)
        rng = random.Random(hash(path.stem) & 0xFFFF)
        for _ in range(20):
            i = rng.randrange(len(lines))
            bad = list(lines)
            old = bad[i]
            bad[i] = ProofLine(Not(old.formula), old.rule, old.premises,
                               old.left_map, old.right_map)
            error = check_proof(bad)
            assert error is not None
            assert error.line == i + 1  # reports are 1-based

    def test_sub_side_violation(self):
        text = json.dumps([
            {"formula": "r:p", "rule": "A1", "premises": [],
             "subst": {"left": {}, "right": {}}},
        ])
        # an A1 line must be an implication; and a Sub sending a right
        # variable to a white formula must fail even on a correct premise
        assert check_proof(load_proof(text)) is not None
        text = json.dumps([
            {"formula": "l:p -> (r:q -> l:p)", "rule": "A1", "premises": [],
             "subst": {"left": {}, "right": {}}},
            {"formula": "l:p -> ([W]l:a -> l:p)", "rule": "Sub", "premises": [1],
             "subst": {"left": {}, "right": {"r:q": "[W]l:a"}}},
        ])
        error = check_proof(load_proof(text))
        assert error is not None and error.line == 2
        assert "side purity" in error.reason

    def test_substitution_outside_sub_rejected(self):
        # Every line but a Sub line reads no substitution: a non-empty map is
        # rejected there, and empty maps are accepted.
        maps = (({PropName(Side.LEFT, "p"): parse("l:zzz")}, None),
                (None, {PropName(Side.RIGHT, "p"): parse("<B>r:b")}))
        rules = set()
        for path in CORPUS:
            lines = load(path)
            for i, line in enumerate(lines):
                if line.rule == "Sub":
                    continue
                rules.add(line.rule)
                prefix = lines[:i]
                for left, right in maps:
                    bad = ProofLine(line.formula, line.rule, line.premises, left, right)
                    assert check_proof(prefix + [bad]) == LineError(
                        i + 1, f"{line.rule} takes no substitution")
                empty = ProofLine(line.formula, line.rule, line.premises, {}, {})
                assert check_proof(prefix + [empty]) is None
        assert rules == set(RULE_NAMES) - {"Sub"}

    def test_unknown_key_rejected(self):
        # A line has four keys; any other, such as "vars", declares nothing.
        text = json.dumps([{"formula": "l:p -> (r:q -> l:p)", "rule": "A1", "vars": {}}])
        with pytest.raises(ModelFormatError, match=r"line 1: unknown keys \['vars'\]"):
            load_proof(text)

    def test_forward_premise_rejected(self):
        text = json.dumps([
            {"formula": "[W](l:p -> (l:q -> l:p))", "rule": "Nec_W",
             "premises": [2], "subst": {"left": {}, "right": {}}},
            {"formula": "l:p -> (l:q -> l:p)", "rule": "A1", "premises": [],
             "subst": {"left": {}, "right": {}}},
        ])
        assert check_proof(load_proof(text)) == LineError(
            line=1, reason="premise 2 does not precede line 1")

    def test_empty_proof_has_no_conclusion(self):
        lines = []
        assert check_proof(lines) is None  # vacuously fine
        with pytest.raises(IndexError):  # no last line to decide
            lhs_minus_valid(lines[-1].formula)


class TestAxiomInstance:
    @pytest.mark.parametrize("rule, text, ok", [
        # K takes atoms of the box's own side only.
        ("K_box", "[W](l:p -> l:q) -> ([W]l:p -> [W]l:q)", True),
        ("K_box", "[W](l:p -> r:q) -> ([W]l:p -> [W]r:q)", False),
        ("K_box", "[W](r:p -> r:q) -> ([W]r:p -> [W]r:q)", False),
        ("K_bbox", "[B](r:p -> r:q) -> ([B]r:p -> [B]r:q)", True),
        ("K_bbox", "[B](l:p -> l:q) -> ([B]l:p -> [B]l:q)", False),
        # R takes a left atom and a right atom, in that order.
        ("R_box", "[W](l:p | r:q) <-> ([W]l:p | r:q)", True),
        ("R_box", "[W](r:q | l:p) <-> ([W]r:q | l:p)", False),
        ("R_bbox", "[B](l:p | r:q) <-> (l:p | [B]r:q)", True),
        ("R_bbox", "[B](r:q | l:p) <-> (r:q | [B]l:p)", False),
        # A1-A3 take atoms of either side, mixed.
        ("A1", "r:p -> (l:q -> r:p)", True),
        ("A2", "(l:p -> (r:q -> l:r)) -> ((l:p -> r:q) -> (l:p -> l:r))", True),
        ("A3", "(~r:q -> ~l:p) -> (l:p -> r:q)", True),
        # Two schema variables may be filled by the same atom ...
        ("A1", "l:p -> (l:p -> l:p)", True),
        ("A2", "(l:p -> (l:p -> l:q)) -> ((l:p -> l:p) -> (l:p -> l:q))", True),
        ("K_box", "[W](l:p -> l:p) -> ([W]l:p -> [W]l:p)", True),
        # ... but each variable by one atom throughout.
        ("A1", "l:p -> (l:q -> l:q)", False),
        ("A3", "(~l:q -> ~l:p) -> (l:q -> l:p)", False),
        ("K_bbox", "[B](r:p -> r:q) -> ([B]r:q -> [B]r:q)", False),
        ("R_box", "[W](l:p | r:q) <-> ([W]l:q | r:q)", False),
        # Variables are filled by atoms only; Sub reaches other instances.
        ("A1", "[W]l:p -> (l:q -> [W]l:p)", False),
    ])
    def test_schema_side_constraints(self, rule, text, ok):
        assert (check_proof([ProofLine(parse(text), rule)]) is None) is ok

    def test_single_a1_line(self):
        text = json.dumps([
            {"formula": "l:p -> (r:q -> l:p)", "rule": "A1", "premises": [],
             "subst": {"left": {}, "right": {}}},
        ])
        assert check_proof(load_proof(text)) is None

    def test_two_line_distribution_instance(self):
        proof = load(DATA / "proof_r_box_sub.json")
        assert check_proof(proof) is None
        assert proof[-1].formula == parse(
            "[W]([W]l:a | <B>r:b) <-> ([W][W]l:a | <B>r:b)")

"""Checker for Hilbert-style derivations in the I-free calculus.

Axiom lines must be literal schema instances over propositional variables
(with the side constraints of each schema); general instances are reached via
an explicit substitution line, whose side-purity requirement is exactly what
keeps the one-sided axioms sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ModelFormatError, SideViolation
from .model import read_json
from .syntax import (
    Atom,
    BBox,
    Formula,
    Implies,
    PropName,
    Side,
    WBox,
    children,
    classify,
    parse,
    render,
    substitute,
)


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    rule: str
    premises: tuple[int, ...] = ()  # 1-based indices of earlier lines
    left_map: dict[PropName, Formula] | None = None
    right_map: dict[PropName, Formula] | None = None


@dataclass(frozen=True)
class LineError:
    line: int
    reason: str


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    first_error: LineError | None = None


# ---------------------------------------------------------------------------
# Axiom schemata

# name: (schema, whether its atoms may be filled by atoms of either side).
# K and R take only atoms of the side that is written: the K axioms hold for
# variables of the box's own side, the R axioms for a left and a right one.
_SCHEMATA = {
    "A1": (parse("l:p -> (l:q -> l:p)"), True),
    "A2": (parse("(l:p -> (l:q -> l:r)) -> ((l:p -> l:q) -> (l:p -> l:r))"), True),
    "A3": (parse("(~l:q -> ~l:p) -> (l:p -> l:q)"), True),
    "K_box": (parse("[W](l:p -> l:q) -> ([W]l:p -> [W]l:q)"), False),
    "K_bbox": (parse("[B](r:p -> r:q) -> ([B]r:p -> [B]r:q)"), False),
    "R_box": (parse("[W](l:p | r:q) <-> ([W]l:p | r:q)"), False),
    "R_bbox": (parse("[B](l:p | r:q) <-> (l:p | [B]r:q)"), False),
}
AXIOM_NAMES = tuple(_SCHEMATA)
RULE_NAMES = AXIOM_NAMES + ("Sub", "MP", "Nec_W", "Nec_B")


def _is_instance(f: Formula, name: str) -> bool:
    """Whether `f` is the schema `name` with its atoms filled by atoms.

    Each schema atom is bound to one atom of `f`, and its repeated uses must
    be that atom; two schema atoms may be bound to the same one.
    """
    schema, any_side = _SCHEMATA[name]
    bound: dict[PropName, PropName] = {}
    stack = [(schema, f)]
    while stack:
        s, g = stack.pop()
        if isinstance(s, Atom):
            if not isinstance(g, Atom) or not (any_side or g.prop.side is s.prop.side):
                return False
            if bound.setdefault(s.prop, g.prop) != g.prop:
                return False
        elif type(s) is not type(g):
            return False
        else:
            stack.extend(zip(children(s), children(g)))
    return True


# ---------------------------------------------------------------------------
# Proof checking


def check_proof(lines: list[ProofLine]) -> CheckReport:
    for number, line in enumerate(lines, start=1):
        reason = _check_line(lines, number, line)
        if reason is not None:
            return CheckReport(False, LineError(number, reason))
    return CheckReport(True)


def _check_line(lines: list[ProofLine], number: int, line: ProofLine) -> str | None:
    if not classify(line.formula).i_free:
        return "proof lines must be I-free"
    for idx in line.premises:
        if not (1 <= idx < number):
            return f"premise {idx} does not precede line {number}"
    rule = line.rule
    if rule in _SCHEMATA:
        if line.premises:
            return f"axiom {rule} takes no premises"
        if not _is_instance(line.formula, rule):
            return f"formula is not an instance of schema {rule}"
        return None
    if rule == "Sub":
        if len(line.premises) != 1:
            return "Sub takes exactly one premise"
        premise = lines[line.premises[0] - 1].formula
        try:
            expected = substitute(premise, line.left_map or {}, line.right_map or {})
        except SideViolation as exc:
            return f"substitution violates side purity: {exc}"
        if line.formula != expected:
            return (
                f"substitution result mismatch: expected {render(expected)}"
            )
        return None
    if rule == "MP":
        if len(line.premises) != 2:
            return "MP takes exactly two premises"
        antecedent = lines[line.premises[0] - 1].formula
        implication = lines[line.premises[1] - 1].formula
        if implication != Implies(antecedent, line.formula):
            return "second premise is not (first premise -> this line)"
        return None
    if rule in ("Nec_W", "Nec_B"):
        if len(line.premises) != 1:
            return f"{rule} takes exactly one premise"
        premise = lines[line.premises[0] - 1].formula
        box = WBox if rule == "Nec_W" else BBox
        if line.formula != box(premise):
            return f"formula is not the {rule} of its premise"
        return None
    return f"unknown rule {rule!r}"


def proof_conclusion_valid(lines: list[ProofLine]) -> bool:
    """Soundness cross-check: the last line must be valid per the decision procedure."""
    from .decide import lhs_minus_valid

    report = check_proof(lines)
    if not report.ok or not lines:
        raise ModelFormatError("conclusion check requires a nonempty verified proof")
    return lhs_minus_valid(lines[-1].formula).status == "VALID"


# ---------------------------------------------------------------------------
# File format


def _parse_subst_map(raw, expected_side: Side) -> dict[PropName, Formula]:
    if not isinstance(raw, dict):
        raise ModelFormatError(f"'{expected_side.name.lower()}' of 'subst' must be an object")
    out = {}
    for key, value in raw.items():
        prop_formula = parse(key)
        if not isinstance(prop_formula, Atom):
            raise ModelFormatError(f"substitution key {key!r} is not an atom")
        if prop_formula.prop.side is not expected_side:
            raise ModelFormatError(
                f"substitution key {key!r} is on the wrong side for this map"
            )
        if not isinstance(value, str):
            raise ModelFormatError(f"substitution value for {key!r} must be a string")
        out[prop_formula.prop] = parse(value)
    return out


def load_proof(text: str) -> list[ProofLine]:
    doc = read_json(text)
    if not isinstance(doc, list):
        raise ModelFormatError("a proof file is a JSON list of line objects")
    lines = []
    for i, entry in enumerate(doc, start=1):
        if not isinstance(entry, dict):
            raise ModelFormatError(f"line {i}: not an object")
        unknown = set(entry) - {"formula", "rule", "premises", "subst", "vars"}
        if unknown:
            raise ModelFormatError(f"line {i}: unknown keys {sorted(unknown)}")
        if "formula" not in entry:
            raise ModelFormatError(f"line {i}: missing 'formula'")
        if not isinstance(entry["formula"], str):
            raise ModelFormatError(f"line {i}: 'formula' must be a string")
        formula = parse(entry["formula"])
        rule = entry.get("rule")
        if rule not in RULE_NAMES:
            raise ModelFormatError(f"line {i}: unknown rule {rule!r}")
        premises = entry.get("premises", [])
        if not (isinstance(premises, list) and all(type(p) is int for p in premises)):
            raise ModelFormatError(f"line {i}: premises must be a list of integers")
        left_map = right_map = None
        if "subst" in entry:
            subst = entry["subst"]
            if not (isinstance(subst, dict) and set(subst) <= {"left", "right"}):
                raise ModelFormatError(
                    f"line {i}: 'subst' must be an object with only 'left' and 'right' maps")
            left_map = _parse_subst_map(subst.get("left", {}), Side.LEFT)
            right_map = _parse_subst_map(subst.get("right", {}), Side.RIGHT)
        lines.append(ProofLine(formula, rule, tuple(premises), left_map, right_map))
    return lines

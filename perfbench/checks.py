"""Answer checks, run after the timed passes.

Witnesses are re-checked with the first-order translation (`fo_eval` of
`fo_translate`), which shares no code with the recursive model checker.
Negative verdicts and exhausted bounded searches are cross-checked against
the numpy brute-force search at the largest bound whose search space fits
`CROSS_CHECK_MODELS`. Each check returns None for a right answer or a short
reason for a wrong one.
"""

from __future__ import annotations

import json

from lhs.bisim import PairRelation, check_bisimulation_witness
from lhs.bruteforce import find_model
from lhs.model import load_model
from lhs.semantics import fo_eval, fo_translate
from lhs.syntax import Not, parse, prop_names
from tracing import search_space

CROSS_CHECK_MODELS = 300_000


def fitting_bound(phi, limit: int) -> int:
    k = len(prop_names(phi))
    bound = 0
    while bound < limit and search_space(bound + 1, k) <= CROSS_CHECK_MODELS:
        bound += 1
    return bound


def holds(model, pair, phi) -> bool:
    return fo_eval(model, fo_translate(phi), {"x": pair[0], "y": pair[1]})


class Checker:
    """Checks one query's first answer; counts what could not be cross-checked."""

    def __init__(self, models: dict):
        self.models = models  # model file path -> loaded Model
        self.unchecked: list[str] = []

    def _no_model(self, name, phi, bound, **kwargs) -> str | None:
        fit = fitting_bound(phi, bound)
        if fit == 0:
            self.unchecked.append(name)
            return None
        found = find_model(phi, fit, **kwargs)
        if found is not None:
            return f"brute force found a model within bound {fit}"
        return None

    def check(self, q, code, stdout, value) -> str | None:
        if q.call is not None:
            return self._check_call(q, value)
        verb = q.argv[0]
        payload = json.loads(stdout)
        if verb in ("sat", "valid"):
            return self._check_verdict(q, code, payload)
        if verb == "check":
            want = q.expect.get("verdict")
            if want is None:
                phi = parse(q.expect["formula"])
                want = holds(self.models[q.expect["model"]], q.expect["pair"], phi)
            if payload["verdict"] != want or code != (0 if want else 1):
                return f"check says {payload['verdict']}, first-order evaluation says {want}"
            return None
        if verb == "tiling":
            if payload.get("phi_T") is not True:
                return "phi_T does not hold at (spy, spy) for a valid tiling"
            return None
        if verb == "bisim":
            return self._check_bisim(q, payload)
        raise ValueError(f"no check for {verb}")

    def _check_verdict(self, q, code, payload) -> str | None:
        phi = parse(q.expect["formula"])
        verdict = payload["verdict"]
        want = q.expect.get("verdict")
        if want is not None and verdict != want:
            return f"verdict {verdict}, known answer {want}"
        full = "--full" in q.argv
        codes = {"SAT": 0, "UNSAT": 1, "VALID": 0, "INVALID": 1, "NO-MODEL-UP-TO-BOUND": 2}
        if codes.get(verdict) != code:
            return f"exit code {code} does not match verdict {verdict}"
        if verdict in ("SAT", "INVALID"):
            witness = payload.get("witness")
            if witness is None:
                return f"{verdict} without a witness"
            model = load_model(json.dumps(witness["model"]))
            if holds(model, witness["pair"], phi) != (verdict == "SAT"):
                return f"{verdict} witness fails first-order re-check"
            return None
        if full:
            return self._no_model(q.name, phi, q.expect["bound"])
        target = phi if verdict == "UNSAT" else Not(phi)
        return self._no_model(q.name, target, 2)

    def _check_call(self, q, value) -> str | None:
        phi = parse(q.expect["formula"])
        if q.call[1] == "check_all":
            model = self.models[q.expect["model"]]
            for s in model.states:
                for t in model.states:
                    if ((s, t) in value) != holds(model, (s, t), phi):
                        return f"check_all disagrees with first-order evaluation at ({s},{t})"
            return None
        if q.call[1] == "brute_force_sat_oracle":
            want = q.expect.get("verdict")
            if want is not None and value.status != want:
                return f"verdict {value.status}, known answer {want}"
            if value.status == "SAT":
                if not holds(value.model, value.pair, phi):
                    return "oracle witness fails first-order re-check"
                return None
            # Same kernel without the isomorphism pruning.
            return self._no_model(q.name, phi, q.expect["bound"], mod_iso=False)
        raise ValueError(f"no check for {q.call}")

    def _check_bisim(self, q, payload) -> str | None:
        left = self.models[q.expect["left"]]
        right = self.models[q.expect["right"]]
        quads = frozenset((tuple(a), tuple(b)) for a, b in payload["pairs"])
        violation = check_bisimulation_witness(PairRelation(left, right, quads))
        if violation is not None:
            return f"not a bisimulation: {violation}"
        image = q.expect["image"]
        if image is not None:
            for s in left.states:
                for t in left.states:
                    if ((s, t), (image[s], image[t])) not in quads:
                        return f"isomorphism pair ({s},{t}) missing from the largest bisimulation"
        return None

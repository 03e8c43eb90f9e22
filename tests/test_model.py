"""Model construction, file round-trips, submodels, unions, enumeration."""

import json
import re
import time

import pytest

from lhs import (
    ModelFormatError,
    ResourceGuard,
    check,
    load_model,
    model_doc,
    save_model,
)
from lhs import model
from lhs.model import enumerate_models
from lhs.syntax import Side

from conftest import (
    disjoint_union,
    generated_submodel,
    make_model,
    one_sided_eval,
    random_formula,
    random_model,
    random_one_sided,
    restrict_left,
    restrict_right,
)


class TestLoadSave:
    def test_minimal(self):
        m = load_model('{"states": ["w"], "edges": [], "valuation": {}}')
        assert set(m.states) == {"w"}
        assert not m.edges and not m.valuation

    def test_round_trip(self, rng):
        for _ in range(20):
            m = random_model(rng)
            again = load_model(save_model(m))
            assert set(again.states) == set(m.states)
            assert set(again.edges) == set(m.edges)
            assert again.valuation == m.valuation
            # `--json` outputs embed this dict in place of the file's text.
            assert model_doc(m) == json.loads(save_model(m))

    def test_golden_round_trip(self):
        text = json.dumps({
            "states": ["a", "b"],
            "edges": [["a", "b"]],
            "valuation": {"l:p": ["a"], "r:q": ["b"]},
        })
        assert json.loads(save_model(load_model(text))) == json.loads(text)

    def test_undeclared_edge_state(self):
        with pytest.raises(ModelFormatError):
            load_model('{"states": ["a"], "edges": [["a", "b"]], "valuation": {}}')

    def test_unknown_key_rejected(self):
        with pytest.raises(ModelFormatError):
            load_model('{"states": ["a"], "edges": [], "valuation": {}, "x": 1}')

    @pytest.mark.parametrize("text, key", [
        ('{"states": ["a", "b"], "edges": [], "valuation": {"l:p": ["a"], "l:p": ["b"]}}', "l:p"),
        ('{"states": ["a"], "states": ["b"], "edges": []}', "states"),
        ('{"states": ["a"], "edges": [{"x": 1, "x": 1}]}', "x"),
    ])
    def test_repeated_key_rejected(self, text, key):
        # The decoder alone keeps the last value of a repeated key.
        with pytest.raises(ModelFormatError, match=f"key '{key}' appears more than once"):
            load_model(text)

    @pytest.mark.parametrize("state", [" a", "a ", "\ta", "a\n", " "])
    def test_state_id_with_outer_whitespace_rejected(self, state):
        # `--at` and `--pairs` strip each half, so they could not name it.
        text = json.dumps({"states": ["a", state], "edges": []})
        with pytest.raises(ModelFormatError, match=re.escape(
                f"state id {state!r} has leading or trailing whitespace")):
            load_model(text)
        assert load_model(json.dumps({"states": ["a", "a b", ""], "edges": []})).states == (
            "a", "a b", "")

    @pytest.mark.parametrize("entry, shown", [
        ('"ab"', "'ab'"), ('["a"]', "['a']"), ('["a", "a", "a"]', "['a', 'a', 'a']"),
        ('["a", 1]', "['a', 1]"), ('[null, "a"]', "[None, 'a']"), ('{"a": "a"}', "{'a': 'a'}"),
    ])
    def test_first_bad_edge_entry_named(self, entry, shown):
        text = f'{{"states": ["a"], "edges": [["a", "a"], {entry}, [1]]}}'
        with pytest.raises(ModelFormatError, match=re.escape(f"bad edge entry {shown}")):
            load_model(text)


class TestSuccessors:
    def test_isolated(self):
        m = make_model(["a"], [])
        assert m.successor_map["a"] == ()

    def test_reflexive(self):
        m = make_model(["a"], [("a", "a")])
        assert "a" in m.successor_map["a"]

    def test_unknown_state(self):
        m = make_model(["a"], [])
        with pytest.raises(Exception):
            m.require_state("zz")


class TestGeneratedSubmodel:
    def test_all_states(self):
        m = make_model(["a", "b"], [("a", "b")], {"l:p": ["a"]})
        sub = generated_submodel(m, m.states)
        assert set(sub.states) == set(m.states)
        assert set(sub.edges) == set(m.edges)

    def test_disconnected_component(self):
        m = make_model(["a", "b", "c"], [("a", "b"), ("c", "c")])
        sub = generated_submodel(m, ["a"])
        assert set(sub.states) == {"a", "b"}

    def test_empty_seed_rejected(self):
        m = make_model(["a"], [])
        with pytest.raises(Exception):
            generated_submodel(m, [])

    def test_idempotent(self, rng):
        for _ in range(20):
            m = random_model(rng, max_states=5)
            seed = sorted(m.states)[:1]
            once = generated_submodel(m, seed)
            twice = generated_submodel(once, seed)
            assert set(once.states) == set(twice.states)
            assert set(once.edges) == set(twice.edges)

    def test_truth_invariance(self, rng):
        # truth at (s, t) only depends on the part generated from {s, t}
        for _ in range(60):
            m = random_model(rng, max_states=5)
            states = sorted(m.states)
            s, t = rng.choice(states), rng.choice(states)
            phi = random_formula(rng, depth=3)
            sub = generated_submodel(m, {s, t})
            assert check(m, s, t, phi) == check(sub, s, t, phi)


class TestDisjointUnion:
    def test_singletons(self):
        m = make_model(["a"], [])
        u, _, _ = disjoint_union(m, m)
        assert len(u.states) == 2 and not u.edges

    def test_state_count_and_no_cross_edges(self, rng):
        for _ in range(20):
            m = random_model(rng)
            n = random_model(rng)
            u, rm, rn = disjoint_union(m, n)
            assert len(u.states) == len(m.states) + len(n.states)
            left_img = set(rm.values())
            right_img = set(rn.values())
            for a, b in u.edges:
                assert (a in left_img) == (b in left_img)
                assert (a in right_img) == (b in right_img)

    def test_white_truth_transfers(self, rng):
        # a white-only formula at (rm(s), rn(t)) reads only the first model
        for _ in range(60):
            m, n = random_model(rng), random_model(rng)
            u, rm, rn = disjoint_union(m, n)
            s = rng.choice(sorted(m.states))
            t = rng.choice(sorted(n.states))
            psi = random_one_sided(rng, Side.LEFT, depth=3)
            assert check(u, rm[s], rn[t], psi) == one_sided_eval(m, s, psi)

    def test_black_truth_transfers(self, rng):
        for _ in range(60):
            m, n = random_model(rng), random_model(rng)
            u, rm, rn = disjoint_union(m, n)
            s = rng.choice(sorted(m.states))
            t = rng.choice(sorted(n.states))
            gamma = random_one_sided(rng, Side.RIGHT, depth=3)
            assert check(u, rm[s], rn[t], gamma) == one_sided_eval(n, t, gamma)


class TestRestrictions:
    def test_right_only_valuation_empties(self):
        m = make_model(["a"], [], {"r:p": ["a"]})
        assert not restrict_left(m).valuation
        assert restrict_right(m).valuation == m.valuation

    def test_idempotent(self, rng):
        m = random_model(rng)
        assert restrict_left(restrict_left(m)).valuation == restrict_left(m).valuation

    def test_diagonal_agreement(self, rng):
        # a white-only formula at (s, s) sees only the left valuation
        for _ in range(60):
            m = random_model(rng, max_states=5)
            s = rng.choice(sorted(m.states))
            psi = random_one_sided(rng, Side.LEFT, depth=3)
            assert check(m, s, s, psi) == one_sided_eval(restrict_left(m), s, psi)
            gamma = random_one_sided(rng, Side.RIGHT, depth=3)
            assert check(m, s, s, gamma) == one_sided_eval(restrict_right(m), s, gamma)


class TestEnumeration:
    def test_one_state_no_props(self):
        assert len(list(enumerate_models(1, []))) == 2

    def test_one_state_one_prop(self):
        assert len(list(enumerate_models(1, ["l:p"]))) == 4

    def test_two_states_no_props(self):
        assert len(list(enumerate_models(2, []))) == 18

    def test_resource_guard(self, monkeypatch):
        monkeypatch.setattr(model, "DEFAULT_ENUMERATION_CEILING", 1000)
        with pytest.raises(ResourceGuard):
            list(enumerate_models(6, ["l:p", "l:q", "r:p", "r:q"]))

    def test_huge_bound_refused_at_once(self):
        # Sizes are counted one by one: 5 states already pass the ceiling.
        start = time.process_time()
        with pytest.raises(ResourceGuard, match="up to 5 states lists 33620498 models"):
            next(enumerate_models(10**5, []))
        assert time.process_time() - start < 1

"""The package source itself: every module reads each name it imports, and
something outside each top-level definition uses it; and the committed
benchmark records."""

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "lhs"


def unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads. `from __future__`
    imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


# `__init__.py` imports names to re-export them.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text()) == []


def test_unused_import_found():
    source = "import os.path\nfrom .syntax import Atom, Side as S\nos.sep\nS.LEFT\n"
    assert unused_imports(source) == ["Atom"]


def names_used(node) -> set[str]:
    """The names that the code of `node` imports or reads, attributes included."""
    return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
            else n.asname or n.name.split(".")[-1]
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}


def unused_definitions(planted: str = "") -> list[str]:
    """`module.name` of each top-level function and class of `src/lhs`, with
    `planted` appended to `syntax.py`, that no other top-level statement there
    (`__init__.py` only re-exports), no code of `perfbench/*.py` and no word
    of `README.md` uses. A name inside a string is no use."""
    trees = {p.stem: ast.parse(p.read_text() + planted * (p.stem == "syntax"))
             for p in SRC.glob("*.py") if p.name != "__init__.py"}
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text())).union(
        *(names_used(ast.parse(p.read_text())) for p in (ROOT / "perfbench").glob("*.py")))
    statements = [(node, names_used(node)) for tree in trees.values() for node in tree.body]
    return sorted(f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
                  and not any(node.name in names for other, names in statements if other is not node))


# The benchmark's tracer hooks it by name, in a string; ROADMAP direction 5
# moves it into the tests.
KEPT_FOR_THE_BENCHMARK = ["model.enumerate_models"]


def test_every_definition_used():
    assert unused_definitions() == KEPT_FOR_THE_BENCHMARK


def test_unused_definition_found():
    planted = "\n\ndef planted_unused(n):\n    return planted_unused(n - 1)\n"
    assert unused_definitions(planted) == sorted(KEPT_FOR_THE_BENCHMARK + ["syntax.planted_unused"])


def test_no_generated_code():
    # Records are built by `syntax.Record`: no module imports `dataclasses`
    # or calls `exec` or `eval`.
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert "dataclasses" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", path.name
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("exec", "eval"), path.name


def test_benchmark_records():
    # Each `BENCH_*.json` is the result line of `perfbench/run.py --workload
    # all`: one line, every answer right, and one value per workload and
    # end-to-end metric that BENCHMARK.json declares.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    keys = {f"{w['name']}.{e['name']}" for w in spec["workloads"] for e in spec["end_to_end"]}
    assert len(keys) == 18
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        text = path.read_text()
        assert len(text.splitlines()) == 1, path.name
        record = json.loads(text)
        assert record["correct"] is True and record["failed"] == 0, path.name
        assert record["metrics"].keys() == keys, path.name

"""The package source itself: every module reads each name it imports; and
the committed benchmark records."""

import ast
import json
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

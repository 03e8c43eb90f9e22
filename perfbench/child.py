"""Helpers that run in a fresh interpreter.

`python3 perfbench/child.py setup WORKLOAD WORKDIR` times a cold set-up: the
import of `lhs.cli`, the workload's one-time warm-up and the loading of its
model and tile files. It prints the seconds taken.

`python3 perfbench/child.py replay IN.json OUT.json` runs each argv list in
IN.json through `lhs.cli.main` and writes the exit codes and outputs, with
the timing field removed, to OUT.json.
"""

import contextlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def setup(workload: str, workdir: Path) -> dict:
    """Import the CLI, warm what later queries reuse, and load input files."""
    import lhs.cli  # noqa: F401  (the cold import is what set-up pays)
    from lhs.model import load_model

    loaded = {}
    if workload == "fullsat":
        # Fills the frame cache that find_model reuses up to bound 4.
        from lhs.bruteforce import find_model
        from lhs.syntax import parse

        find_model(parse("false"), 4)
    elif workload == "models":
        from lhs.tiling import load_tileset, load_tiling

        for path in sorted(workdir.glob("*.json")):
            text = path.read_text()
            if path.name.startswith("tiling"):
                load_tiling(text)
            elif path.name.endswith("tiles.json"):
                load_tileset(text)
            else:
                loaded[str(path)] = load_model(text)
    return loaded


def strip_time(stdout: str) -> str:
    try:
        payload = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(payload, dict):
        payload.pop("time_s", None)
    return json.dumps(payload, sort_keys=True)


def replay(argvs: list) -> list:
    from lhs.cli import main

    out = []
    for argv in argvs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        out.append([code, strip_time(buf.getvalue())])
    return out


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        start = time.perf_counter()
        setup(sys.argv[2], Path(sys.argv[3]))
        print(time.perf_counter() - start)
    elif sys.argv[1] == "replay":
        argvs = json.loads(Path(sys.argv[2]).read_text())
        Path(sys.argv[3]).write_text(json.dumps(replay(argvs)))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")

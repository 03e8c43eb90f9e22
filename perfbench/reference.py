"""Calibration loop and set-up reference that cancel the host's speed swings.

On a shared machine the same query can take 40% longer from one minute to
the next. The benchmark times this fixed pure-Python loop around each query
(and after each set-up probe) and reports times scaled to `NOMINAL_S`, the
loop's time on a quiet run: a time t measured while the loop took r seconds
is reported as t * NOMINAL_S / r. The loop uses only the standard library,
so no change to `lhs` can move it, and it creates no object the garbage
collector tracks, so it neither triggers nor depends on the program's
collections. Raw times stay in the report.

A cold set-up follows the host's swings far less than the loop does, so it
has its own reference: `python3 reference.py` imports a fixed set of
standard library modules, Python code and C extensions as `import lhs.cli`
loads them, in a fresh interpreter, and prints the seconds taken. A set-up
that took t seconds just after the reference took r seconds is reported as
t * NOMINAL_IMPORT_S / r.
"""

import importlib
import time

NOMINAL_S = 0.0025
NOMINAL_IMPORT_S = 0.1
IMPORTS = ("asyncio", "csv", "decimal", "difflib", "email.mime.multipart", "http.client",
           "logging", "mailbox", "sqlite3", "tarfile", "unittest", "uuid", "xml.dom.minidom")


def reference_seconds() -> float:
    """Time one round of integer, str and dict work (about 2.5 ms)."""
    start = time.perf_counter()
    counts: dict = {}
    total = 0
    for i in range(8000):
        key = (i % 101) * 8 + i % 7
        counts[key] = counts.get(key, 0) + 1
        total += len(str(i)) + (i ^ total) % 3
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time the first import of IMPORTS; meaningful in a fresh interpreter."""
    start = time.perf_counter()
    for name in IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - start


if __name__ == "__main__":
    print(import_seconds())

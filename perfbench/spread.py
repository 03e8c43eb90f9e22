"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload decide --seeds 1-10 --seconds 20

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median, the quartiles and the spread: the distance between the
first and third quartile (`statistics.quantiles(values, n=4)`) as a share of
the median. BENCHMARK.json bounds each metric; a spread under a third of the
bound is steady.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=HERE.parent)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds[name]
        verdict = "steady" if share < bound / 3 else "NOT steady"
        print(f"{name:40s} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={share:.4f} bound={bound} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark for the lhs toolkit: `decide`, `models` and `fullsat` workloads.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Runs from the repository root and imports `lhs` from `src/`. One client sends
each query once the previous one has finished (a closed loop), in this
process, through `lhs.cli.main(argv)` with stdout captured or through a
public library call. Each query has a time budget enforced with SIGALRM.
Query times are scaled by a calibration loop run around each query
(reference.py).

With `--trace 0` the run repeats whole passes over the workload's queries
until `--seconds` have gone by and reports the end-to-end metrics. With
`--trace 1` it makes one untraced pass and two traced passes and reports the
per-layer metrics of the first traced pass, the tracing overhead, and which
work counters failed to repeat in the second. Answers are checked after the
timed passes. `--workload all` runs the three workloads one after another,
each in its own process, and prints one row per workload.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A full report goes to
`perfbench/out/<workload>-seed<seed>-trace<trace>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_IMPORT_S, NOMINAL_S, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("decide", "models", "fullsat")
HASH_SEED = "0"
# Cold set-ups per untraced run.
SETUP_REPEATS = 9
# Enough latency samples that at least ten lie beyond the 90th percentile.
MIN_SAMPLES = 110
SETUP_TIMEOUT_S = 60
# Thread counts of numpy's BLAS back ends, all set to 1: the benchmark starts
# no threads, and numpy may not either.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BudgetExceeded(BaseException):
    """Raised by the SIGALRM handler when a query runs past its budget.

    It derives from BaseException so that no `except Exception` in the
    program can swallow it.
    """


_armed = [False]


def _on_alarm(signum, frame):
    if _armed[0]:
        raise BudgetExceeded()


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = HASH_SEED
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Running one query


class Outcome:
    """What one execution of a query produced."""

    __slots__ = ("elapsed", "budget", "status", "layer", "code", "stdout", "value", "detail",
                 "ref", "digest")

    def __init__(self, elapsed, budget, status, layer=None, code=None, stdout="", value=None,
                 detail=""):
        self.elapsed = elapsed  # seconds as measured
        self.budget = budget
        self.status = status  # ok | budget | refused | crash | bad_exit | wrong
        self.layer = layer
        self.code = code
        self.stdout = stdout
        self.value = value
        self.detail = detail
        self.ref = NOMINAL_S  # the calibration loop's time around the query
        self.digest = None  # hash of the answer, which must repeat between passes

    def scale(self) -> float:
        """Factor that brings this query's times to the calibration loop's
        nominal speed (reference.py). A budget stop is timed by the clock, so
        no speed changes it."""
        return 1.0 if self.status == "budget" else NOMINAL_S / self.ref

    def scaled_elapsed(self) -> float:
        return self.elapsed * self.scale()

    def latency(self) -> float:
        """Time to verdict; a failed query counts its budget."""
        return self.scaled_elapsed() if self.status == "ok" else self.budget

    def seal(self, keep_value: bool):
        """Hash the answer and, unless it is kept for the answer check, drop
        the returned object: objects kept alive across passes would slow the
        program's garbage collections."""
        from child import strip_time

        if self.status != "ok":
            return
        v = self.value
        if v is None:
            answer = (self.code, strip_time(self.stdout))
        elif isinstance(v, (set, frozenset)):
            answer = sorted(v)
        else:
            answer = (v.status, v.pair, None if v.model is None else
                      (v.model.states, sorted(v.model.edges),
                       sorted((str(p), sorted(ws)) for p, ws in v.model.valuation.items())))
        self.digest = hashlib.sha256(repr(answer).encode()).hexdigest()
        if not keep_value:
            self.value = None


def _resolve(q, models):
    import lhs.syntax

    args = []
    for kind, value in q.args:
        if kind == "formula":
            args.append(lhs.syntax.parse(value))
        elif kind == "model":
            args.append(models[value])
        else:
            args.append(value)
    return args


def execute(q, models, tracer=None) -> Outcome:
    """Run one query within its budget."""
    import lhs.cli
    from tracing import layer_from_traceback

    if tracer is not None:
        tracer.begin_query(q.name)
    out, err = io.StringIO(), io.StringIO()
    code = value = None
    start = time.perf_counter()
    try:
        try:
            _armed[0] = True
            signal.setitimer(signal.ITIMER_REAL, q.budget)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if q.argv is not None:
                    code = lhs.cli.main(list(q.argv))
                else:
                    module = sys.modules[q.call[0]]
                    value = getattr(module, q.call[1])(*_resolve(q, models))
        finally:
            elapsed = time.perf_counter() - start
            _armed[0] = False
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetExceeded as exc:
        return Outcome(elapsed, q.budget, "budget", layer_from_traceback(exc.__traceback__))
    except SystemExit as exc:
        return Outcome(elapsed, q.budget, "bad_exit", "cli.main", code=exc.code,
                       detail=f"SystemExit({exc.code})")
    except Exception as exc:  # noqa: BLE001 - an escaping exception is a result
        return Outcome(elapsed, q.budget, "crash", layer_from_traceback(exc.__traceback__),
                       detail=type(exc).__name__)
    if code is not None and code not in q.codes:
        status = "refused" if code == 70 else "bad_exit"
        layer = tracer.failed_layer if tracer is not None else None
        return Outcome(elapsed, q.budget, status, layer, code=code,
                       detail=err.getvalue().strip()[:200])
    return Outcome(elapsed, q.budget, "ok", code=code, stdout=out.getvalue(), value=value)


def run_pass(queries, models, answered: set, tracer=None) -> tuple[list, float]:
    """One pass over all queries; returns the outcomes and the wall time.
    `answered` holds the queries whose answer an earlier pass kept.

    The calibration loop runs before the first query and after each one; a
    query's speed reference is the mean of the runs just before and after it.
    """
    outcomes = []
    start = time.perf_counter()
    refs = [reference_seconds()]
    for q in queries:
        saved = dict(tracer.counters) if tracer is not None else None
        outcome = execute(q, models, tracer)
        if tracer is not None and outcome.status == "budget":
            # Work done before a budget stop depends on timing; keep it out of
            # the counters so that they can repeat exactly.
            tracer.counters.update(saved)
        refs.append(reference_seconds())
        outcome.ref = (refs[-2] + refs[-1]) / 2
        outcome.seal(keep_value=len(outcomes) not in answered)
        if outcome.status == "ok":
            answered.add(len(outcomes))
        outcomes.append(outcome)
    return outcomes, time.perf_counter() - start


class MemoryProbe:
    """Peak resident memory of the queries that finished within budget.

    Forked right after set-up, the probe waits on a pipe while the timed
    passes run. It then runs the queries it is sent one after another, as the
    workload's process does, while the answers are checked, and exits; the
    figure is the peak the kernel recorded for it, so memory that builds up
    across queries shows. Queries stopped by their budget are left out: how
    much memory they hold depends on how far they got.
    """

    def __init__(self, queries, models):
        receive, self._send = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            os.close(self._send)
            try:
                with os.fdopen(receive) as fh:
                    for i in json.loads(fh.read() or "[]"):
                        execute(queries[i], models)
            finally:
                os._exit(0)
        os.close(receive)

    def run(self, indices=()):
        """Send the probe the queries to run; it starts on them at once."""
        with os.fdopen(self._send, "w") as fh:
            fh.write(json.dumps(list(indices)))
        self._send = None

    def peak_mb(self) -> float:
        """Wait for the probe to finish; return its peak resident memory."""
        _, _, usage = os.wait4(self.pid, 0)
        self.pid = None
        return usage.ru_maxrss / 1024

    def stop(self):
        if self._send is not None:
            self.run()
        if self.pid is not None:
            self.peak_mb()


def attribute_layers(queries, outcomes, models):
    """Name the layer for failures the CLI caught (exit 65/70) by re-running
    those queries once under the tracer, outside any timed pass."""
    from tracing import Tracer

    for q, o in zip(queries, outcomes):
        if o.layer is None and o.status in ("refused", "bad_exit"):
            tracer = Tracer()
            tracer.install()
            try:
                execute(q, models, tracer)
            finally:
                tracer.uninstall()
            o.layer = tracer.failed_layer or "cli.main"


# ---------------------------------------------------------------------------
# Set-up


def _probe(argv) -> float:
    proc = subprocess.run(argv, env=pinned_env(), capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def setup_probes(workload: str, workdir: Path, count: int) -> list[tuple[float, float]]:
    """Cold set-ups, each in a fresh interpreter (child.py) just after the
    set-up reference ran in another (reference.py): pairs of the reference's
    seconds and the set-up's seconds."""
    reference = [sys.executable, str(HERE / "reference.py")]
    setup = [sys.executable, str(HERE / "child.py"), "setup", workload, str(workdir)]
    return [(_probe(reference), _probe(setup)) for _ in range(count)]


def hashseed_probe(queries, first, workdir: Path) -> dict:
    """Replay the witness-bearing answers under a second hash seed and count
    the witnesses that differ (a known defect: the tableau iterates sets)."""
    from child import strip_time

    picked = [(q, o) for q, o in zip(queries, first)
              if q.argv is not None and o.status == "ok" and '"witness"' in o.stdout]
    src, dst = workdir / "probe_in.json", workdir / "probe_out.json"
    src.write_text(json.dumps([q.argv for q, _ in picked]))
    env = pinned_env()
    env["PYTHONHASHSEED"] = "1"
    subprocess.run([sys.executable, str(HERE / "child.py"), "replay", str(src), str(dst)],
                   env=env, check=True, timeout=120, cwd=ROOT, capture_output=True)
    replayed = json.loads(dst.read_text())
    differ = [q.name for (q, o), (code, text) in zip(picked, replayed)
              if code != o.code or text != strip_time(o.stdout)]
    return {"hash_seeds": [HASH_SEED, "1"], "compared": len(picked),
            "witnesses_differ": len(differ), "queries": differ}


# ---------------------------------------------------------------------------
# Metrics


def percentiles(values) -> tuple[float, float]:
    """Median and 90th percentile, interpolated between neighbouring samples."""
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def end_to_end(all_outcomes, wall, setup_times, rss_mb) -> tuple[dict, dict]:
    lat = [o.latency() for o in all_outcomes]
    raw = [o.elapsed if o.status == "ok" else o.budget for o in all_outcomes]
    p50, p90 = percentiles(lat)
    ok = sum(o.status == "ok" for o in all_outcomes)
    metrics = {
        "setup_s": (statistics.median(t * NOMINAL_IMPORT_S / ref for ref, t in setup_times),
                    "s"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90, "s"),
        # Completed queries per second the closed loop spent in queries.
        "queries_per_s": (ok / sum(o.scaled_elapsed() for o in all_outcomes), "1/s"),
        "ok_share": (ok / len(all_outcomes), "ratio"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    info = {"samples": len(lat), "samples_beyond_p90": sum(x > p90 for x in lat),
            "fail_share": 1 - ok / len(all_outcomes),
            "raw": {"setup_s": statistics.median(t for _, t in setup_times),
                    "latency_p50_s": percentiles(raw)[0],
                    "latency_p90_s": percentiles(raw)[1],
                    "queries_per_s": ok / wall},
            "reference_s": {"nominal": NOMINAL_S,
                            "median": statistics.median(o.ref for o in all_outcomes)},
            "setup_runs_s": setup_times, "wall_s": wall}
    return metrics, info


def failure_counts(queries, outcomes) -> dict:
    from tracing import GENERATORS, SPAN_NAMES

    kinds = {"budget": "budget_stops", "refused": "guard_refusals", "crash": "crashes"}
    layers = SPAN_NAMES + [name for _, _, name in GENERATORS] + ["harness"]
    counts = {f"{layer}.{kind}": 0 for layer in layers for kind in kinds.values()}
    for o in outcomes:
        if o.status in kinds:
            counts[f"{o.layer}.{kinds[o.status]}"] += 1
    return counts


def per_layer(tracer_a, tracer_b, queries, untraced, traced_a, traced_b,
              traced_wall) -> tuple[dict, dict]:
    from tracing import COUNTERS

    # Self time, each query's scaled like its latency.
    scaled = tracer_a.self_seconds([o.scale() for o in traced_a])
    metrics = {f"{name}.self_s": (v, "s") for name, v in scaled.items()}
    for name in COUNTERS:
        metrics[name] = (tracer_a.counters[name], "count")
    for name, v in failure_counts(queries, traced_a).items():
        metrics[name] = (v, "count")
    unstable = [name for name in COUNTERS if tracer_a.counters[name] != tracer_b.counters[name]]
    # Overhead over the queries that finished in all three passes.
    both = [i for i in range(len(queries))
            if untraced[i].status == traced_a[i].status == traced_b[i].status == "ok"]
    base = sum(untraced[i].latency() for i in both)
    traced = sum(traced_a[i].latency() + traced_b[i].latency() for i in both) / 2
    metrics["trace.overhead_s"] = (traced - base, "s")
    metrics["trace.overhead_share"] = (traced / base - 1 if base else 0.0, "ratio")
    metrics["trace.spans"] = (len(tracer_a.span_end), "count")
    metrics["trace.unstable_counters"] = (len(unstable), "count")
    info = {"raw_self_s": tracer_a.self_seconds(), "traced_wall_s": traced_wall,
            "unstable_counters": unstable,
            "counters_second_pass": dict(tracer_b.counters),
            "overhead_queries": len(both)}
    return metrics, info


# ---------------------------------------------------------------------------
# One workload


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "recursion_limit": sys.getrecursionlimit(),
        "seed": args.seed,
        "seconds": args.seconds,
    }


def run_workload(args) -> dict:
    from workloads import BUDGET_S, POOL_SEED, WORKLOAD_QUERIES

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    probe = None
    try:
        queries = WORKLOAD_QUERIES[args.workload](args.seed, workdir)

        import child
        models = child.setup(args.workload, workdir)
        from checks import Checker
        from tracing import Tracer

        signal.signal(signal.SIGALRM, _on_alarm)
        probe = MemoryProbe(queries, models) if args.trace == 0 else None
        report = {"workload": args.workload, "trace": args.trace, "pool_seed": POOL_SEED,
                  "budget_s": BUDGET_S[args.workload], "queries": len(queries),
                  "env": environment(args)}
        answered: set = set()
        if args.trace == 0:
            # A third of the set-up probes before the passes, a third after
            # the first and the rest after the last, so that a busy stretch
            # on the host does not decide their median.
            third = SETUP_REPEATS // 3
            setup_times = setup_probes(args.workload, workdir, third)
            passes, walls = [], []
            while sum(walls) < args.seconds or len(passes) * len(queries) < MIN_SAMPLES:
                outcomes, elapsed = run_pass(queries, models, answered)
                passes.append(outcomes)
                walls.append(elapsed)
                if len(passes) == 1:
                    setup_times += setup_probes(args.workload, workdir, third)
            setup_times += setup_probes(args.workload, workdir, SETUP_REPEATS - 2 * third)
            wall = sum(walls)
            report["pass_walls_s"] = walls
            # In the order of the query names, so that the seed's order of the
            # queries does not move the peak.
            probe.run(sorted((i for i, o in enumerate(passes[0]) if o.status == "ok"),
                             key=lambda i: queries[i].name))
        else:
            untraced, _ = run_pass(queries, models, answered)
            tracer_a, tracer_b = Tracer(), Tracer()
            tracer_a.install()
            try:
                traced_a, traced_wall = run_pass(queries, models, answered, tracer_a)
            finally:
                tracer_a.uninstall()
            tracer_b.install()
            try:
                traced_b, _ = run_pass(queries, models, answered, tracer_b)
            finally:
                tracer_b.uninstall()
            passes = [untraced, traced_a, traced_b]

        first = passes[0]
        attribute_layers(queries, first, models)
        for later in passes[1:]:
            for o, o1 in zip(later, first):
                if o.layer is None and o.status == o1.status:
                    o.layer = o1.layer
        # Check the first answer of each query; later answers must repeat it.
        checker = Checker(models)
        for i, q in enumerate(queries):
            answers = [p[i] for p in passes if p[i].status == "ok"]
            if not answers:
                continue
            reason = checker.check(q, answers[0].code, answers[0].stdout, answers[0].value)
            reference = answers[0].digest
            for o in answers:
                if reason is None and o.digest != reference:
                    o.status, o.detail = "wrong", "answer differs between passes"
                elif reason is not None:
                    o.status, o.detail = "wrong", reason

        failures = {}
        for q, o in zip(queries, first):
            if o.status != "ok":
                failures[q.name] = {"status": o.status, "layer": o.layer, "code": o.code,
                                    "detail": o.detail}
        wrong = sorted({q.name for p in passes for q, o in zip(queries, p)
                        if o.status == "wrong"})
        report.update(failures=failures, wrong=wrong, unchecked=checker.unchecked)
        report["latency_by_query"] = {
            q.name: statistics.median(p[i].latency() for p in passes)
            for i, q in enumerate(queries)}

        if args.trace == 0:
            everything = [o for p in passes for o in p]
            metrics, info = end_to_end(everything, wall, setup_times, probe.peak_mb())
            report.update(passes=len(passes), **info)
            counted = everything
        else:
            metrics, info = per_layer(tracer_a, tracer_b, queries, *passes, traced_wall)
            report.update(info)
            if args.workload == "decide":
                report["hashseed_probe"] = hashseed_probe(queries, first, workdir)
            tracer_a.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
            counted = traced_a
        result = {
            "correct": not wrong,
            "attempted": len(counted),
            "failed": sum(o.status != "ok" for o in counted),
            "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        }
        report["result"] = result
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(report, indent=1, sort_keys=True, default=str))
        return result
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def row(workload: str, result: dict) -> str:
    failed, attempted = result["failed"], result["attempted"]
    cells = [f"{workload:8s} attempted={attempted} failed={failed} "
             f"fail_share={failed / attempted:.4f} correct={result['correct']}"]
    for name, m in result["metrics"].items():
        cells.append(f"{name}={m['value']:.6g} {m['unit']}")
    return " | ".join(cells)


def run_all(args) -> dict:
    """Each workload in its own process, so set-up and peak memory are its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env=pinned_env(), capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} failed: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(row(workload, result), flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lhs" / "cli.py").is_file():
        print(f"perfbench: no lhs sources under {SRC}", file=sys.stderr)
        return 2
    env = pinned_env()
    if any(os.environ.get(k) != env[k] for k in ("PYTHONHASHSEED", *THREAD_VARS)):
        # Hash order and numpy threads are fixed for the whole run.
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        print(row(args.workload, result), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

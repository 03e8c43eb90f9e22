"""Span tracing from outside the program.

`Tracer.install()` wraps each public layer function listed in `LAYERS` and
rebinds every name in the `lhs` package that refers to it (for example both
`lhs.semantics.check` and the `check` that `lhs.decide` imported), so calls
between layers pass through the wrapper. Each call records a span (name,
query id, parent span, start, end) in memory; self time is the span's time
minus the time its child spans cover. Counters are read from arguments and
results after the call returns.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array

# (module, function, span name). Order is the order of the report.
LAYERS = [
    ("lhs.cli", "main", "cli.main"),
    ("lhs.syntax", "parse", "syntax.parse"),
    ("lhs.model", "load_model", "model.load_model"),
    ("lhs.normal", "companion", "normal.companion"),
    ("lhs.normal", "clean_to_cnf", "normal.clean_to_cnf"),
    ("lhs.normal", "prop_cnf", "normal.prop_cnf"),
    ("lhs.decide", "lhs_minus_valid", "decide.lhs_minus_valid"),
    ("lhs.decide", "k_sat", "decide.k_sat"),
    ("lhs.decide", "lhs_bounded_sat", "decide.lhs_bounded_sat"),
    ("lhs.bruteforce", "find_model", "bruteforce.find_model"),
    ("lhs.semantics", "check", "semantics.check"),
    ("lhs.semantics", "check_all", "semantics.check_all"),
    ("lhs.bisim", "largest_bisimulation", "bisim.largest_bisimulation"),
    ("lhs.tiling", "generate_phi", "tiling.generate_phi"),
    ("lhs.tiling", "torus_model", "tiling.torus_model"),
]
SPAN_NAMES = [name for _, _, name in LAYERS]

# Generators get a counting wrapper but no span: their time is spent in the
# caller's span between resumptions.
GENERATORS = [("lhs.model", "enumerate_models", "model.enumerate_models")]

# Work counters, all summed over calls except `clauses_max`.
COUNTERS = [
    "normal.companion.conjuncts",
    "normal.clean_to_cnf.calls",
    "normal.prop_cnf.clauses_max",
    "decide.k_sat.calls",
    "decide.k_sat.witness_states",
    "syntax.parse.nodes",
    "semantics.check.calls",
    "semantics.check_all.pairs",
    "bisim.largest_bisimulation.quads",
    "bisim.largest_bisimulation.pairs",
    "tiling.torus_model.states",
    "model.enumerate_models.yielded",
    "bruteforce.find_model.models_in_bound",
]


def layer_from_traceback(tb) -> str:
    """Innermost frame of a layer function on the traceback, or 'harness'."""
    by_code = {(mod, fn): name for mod, fn, name in LAYERS + GENERATORS}
    layer = "harness"
    while tb is not None:
        frame = tb.tb_frame
        key = (frame.f_globals.get("__name__"), frame.f_code.co_name)
        if key in by_code:
            layer = by_code[key]
        tb = tb.tb_next
    return layer


def _tree_size(phi) -> int:
    """Node count of a formula tree, without recursion (inputs may be deep)."""
    count, stack = 0, [phi]
    while stack:
        node = stack.pop()
        count += 1
        for attr in ("child", "left", "right"):
            sub = getattr(node, attr, None)
            if sub is not None:
                stack.append(sub)
    return count


def _top_conjuncts(phi) -> int:
    count, stack = 0, [phi]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "And":
            stack.extend((node.left, node.right))
        else:
            count += 1
    return count


def search_space(max_states: int, num_props: int) -> int:
    """Models with 1..max_states states over `num_props` variables."""
    return sum(2 ** (n * n) * 2 ** (num_props * n) for n in range(1, max_states + 1))


def _count(counters: dict, name: str, args, kwargs, result):
    """Update the work counters for one completed call of layer `name`."""
    if name == "normal.companion":
        counters["normal.companion.conjuncts"] += len(result.conjuncts)
    elif name == "normal.clean_to_cnf":
        counters["normal.clean_to_cnf.calls"] += 1
    elif name == "normal.prop_cnf":
        key = "normal.prop_cnf.clauses_max"
        counters[key] = max(counters[key], _top_conjuncts(result))
    elif name == "decide.k_sat":
        counters["decide.k_sat.calls"] += 1
        if result.model is not None:
            counters["decide.k_sat.witness_states"] += len(result.model.states)
    elif name == "syntax.parse":
        counters["syntax.parse.nodes"] += _tree_size(result)
    elif name == "semantics.check":
        counters["semantics.check.calls"] += 1
    elif name == "semantics.check_all":
        counters["semantics.check_all.pairs"] += len(args[0].states) ** 2
    elif name == "bisim.largest_bisimulation":
        m, n = args[0], args[1]
        counters["bisim.largest_bisimulation.quads"] += (len(m.states) * len(n.states)) ** 2
        counters["bisim.largest_bisimulation.pairs"] += len(result.pairs)
    elif name == "tiling.torus_model":
        counters["tiling.torus_model.states"] += len(result[0].states)
    elif name == "bruteforce.find_model":
        from lhs.syntax import prop_names

        phi, bound = args[0], args[1]
        props = kwargs.get("props", args[2] if len(args) > 2 else None)
        k = len(set(props)) if props is not None else len(prop_names(phi))
        counters["bruteforce.find_model.models_in_bound"] += search_space(bound, k)


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        # One column per span field, in arrays: a list of tuples would add
        # objects that every garbage collection of the program must scan.
        self.span_id, self.span_parent = array("q"), array("q")
        self.span_name, self.span_query = array("q"), array("q")
        self.span_start, self.span_end = array("q"), array("q")
        self.queries: list[str] = []
        self.query_self_ns: list[list[int]] = []  # per query, per layer
        self._self_ns = [0] * len(SPAN_NAMES)  # the current query's
        self.counters = {name: 0 for name in COUNTERS}
        self.query = None
        self.failed_layer = None  # innermost span an exception left, this query
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._saved: list[tuple] = []

    def begin_query(self, name: str):
        self.query = len(self.queries)
        self.queries.append(name)
        self._self_ns = [0] * len(SPAN_NAMES)
        self.query_self_ns.append(self._self_ns)
        self.failed_layer = None

    def _wrap(self, fn, name):
        tracer = self
        clock = time.perf_counter_ns
        name_index = SPAN_NAMES.index(name)

        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = len(tracer.span_end) + len(stack)
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if tracer.failed_layer is None:
                    tracer.failed_layer = name
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer._self_ns[name_index] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                tracer.span_id.append(span_id)
                tracer.span_parent.append(parent[0] if parent else -1)
                tracer.span_name.append(name_index)
                tracer.span_query.append(tracer.query)
                tracer.span_start.append(frame[1])
                tracer.span_end.append(end)
            _count(tracer.counters, name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, name):
        tracer = self
        key = f"{name}.yielded"

        def counted(*args, **kwargs):
            try:
                for item in fn(*args, **kwargs):
                    tracer.counters[key] += 1
                    yield item
            except GeneratorExit:  # closed early by the caller: not a failure
                raise
            except BaseException:
                if tracer.failed_layer is None:
                    tracer.failed_layer = name
                raise

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Rebind every `lhs` module attribute that refers to a layer function."""
        targets = []
        for mod, fn_name, name in LAYERS:
            targets.append((getattr(importlib.import_module(mod), fn_name), name, self._wrap))
        for mod, fn_name, name in GENERATORS:
            targets.append((getattr(importlib.import_module(mod), fn_name), name,
                            self._wrap_generator))
        replacement = {id(fn): wrap(fn, name) for fn, name, wrap in targets}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "lhs" or mod_name.startswith("lhs.")):
                continue
            for attr, value in list(vars(module).items()):
                new = replacement.get(id(value))
                if new is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, new)

    def uninstall(self):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def self_seconds(self, scale=None) -> dict:
        """Self time per layer, summed over queries; `scale` gives a factor
        for each query's times (by default 1)."""
        if scale is None:
            scale = [1.0] * len(self.queries)
        return {name: sum(f * ns[i] for f, ns in zip(scale, self.query_self_ns)) / 1e9
                for i, name in enumerate(SPAN_NAMES)}

    def write_spans(self, path):
        """Spans in closing order; a span's id is the order in which it opened."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tquery\tstart_ns\tend_ns\n")
            for row in range(len(self.span_end)):
                fh.write(f"{self.span_id[row]}\t{self.span_parent[row]}\t"
                         f"{SPAN_NAMES[self.span_name[row]]}\t"
                         f"{self.queries[self.span_query[row]]}\t{self.span_start[row]}\t"
                         f"{self.span_end[row]}\n")

"""Wrappers around cutlab's public functions and constructors.

A Probe replaces each public function of the layer modules with a wrapper
in every namespace that holds it (the defining module, modules that import
it, and the package), and wraps each public class's ``__init__``.  cutlab's
source is not edited; the wrappers are installed at run time.

A wrapper does nothing unless the probe is active, which it is only while
an operation runs.  Then it can

- capture the return value, so a check can see outputs that cutlab's entry
  points do not return (the cut behind a CSV row, for instance), and
- time the call: self time is the span minus the spans of wrapped calls
  made inside it, so the self times of all wrapped calls add up to the time
  spent inside the outermost wrapped calls.

Work counts are taken from return values and input sizes.
"""

from __future__ import annotations

import functools
import importlib
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

import checks

LAYERS = ("rng", "sampling", "graph", "core_model", "cuts", "hom",
          "tournament", "experiments", "cli")


def _targets():
    """{'layer.name': function or class} for every public definition."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"cutlab.{layer}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                found[f"{layer}.{attr}"] = obj
            elif isinstance(obj, type) and not issubclass(obj, BaseException) \
                    and "__init__" in vars(obj):
                found[f"{layer}.{attr}"] = obj
    return found


def _namespaces():
    return [importlib.import_module("cutlab")] + [
        importlib.import_module(f"cutlab.{layer}") for layer in LAYERS]


# --- work counts, taken after a call returns ---------------------------------

def _count_sample_gnp(work, args, out):
    work["sampling.pairs"] += out.m


def _count_graph(work, args, out):
    work["graph.SparseGraph.edges"] += args[0].m


def _count_chains(work, args, out):
    work["graph.kernel_paths.chains"] += len(out)


def _count_dump(work, args, out):
    work["graph.io_bytes"] += len(out)


def _count_parse(work, args, out):
    work["graph.io_bytes"] += len(args[0])


def _count_attempts(work, args, out):
    work["core_model.parity_attempts"] += out.attempts


def _count_scanned(work, args, out):
    work["tournament.h_scanned"] += out.scanned


def _count_min_bad(work, args, out):
    kernel = args[0]
    edges = int((kernel.eu != kernel.ev).sum())
    if edges and kernel.n:
        work["cuts.exact.counters"] += 1 << (kernel.n - 1)
        work["cuts.exact.edge_evals"] += (1 << (kernel.n - 1)) * edges


_COUNTERS = {
    "sampling.sample_gnp": _count_sample_gnp,
    "graph.SparseGraph": _count_graph,
    "graph.kernel_paths": _count_chains,
    "graph.dump_edge_list": _count_dump,
    "graph.parse_edge_list": _count_parse,
    "core_model.sample_degree_profile": _count_attempts,
    "tournament.find_h_copy": _count_scanned,
    "cuts.min_bad_edges": _count_min_bad,
}


def exact_work(graphs):
    """(counters, edge evaluations) of exact_maxcut on these graphs: each
    component of k vertices and e edges costs 2^(k-1) counters, each
    evaluated on e edges."""
    counters = evals = 0
    for n, eu, ev in graphs:
        labels = checks.component_labels(n, eu, ev)
        sizes = np.bincount(labels)
        edges = np.bincount(labels[eu], minlength=sizes.size)
        for k, e in zip(sizes.tolist(), edges.tolist()):
            counters += 1 << (k - 1)
            evals += (1 << (k - 1)) * e
    return counters, evals


class Probe:
    """Installs the wrappers; ``timing`` selects span timing (the traced
    run), ``capture`` names the calls whose results are kept."""

    def __init__(self, timing: bool, capture=()):
        self.timing = timing
        self.capture = set(capture)
        self.active = False
        self.spans = defaultdict(lambda: [0.0, 0])  # name -> [self_s, calls]
        self.work = defaultdict(int)
        self.captured = defaultdict(list)
        self.exact_inputs = []
        self._stack = []

    def install(self):
        targets = _targets()
        unknown = self.capture - set(targets)
        if unknown:
            raise KeyError(f"no such cutlab definitions: {sorted(unknown)}")
        names = targets if self.timing else self.capture
        spaces = _namespaces()
        for name in names:
            obj = targets[name]
            if isinstance(obj, type):
                obj.__init__ = self._wrap(name, obj.__init__)
                continue
            wrapper = self._wrap(name, obj)
            for space in spaces:
                for attr, val in list(vars(space).items()):
                    if val is obj:
                        setattr(space, attr, wrapper)

    def take(self, name):
        """The results captured for ``name`` since the last take."""
        return self.captured.pop(name, [])

    def _wrap(self, name, fn):
        probe = self
        span = self.spans[name]
        count = _COUNTERS.get(name)
        keep = name in self.capture
        exact = name == "cuts.exact_maxcut"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not probe.active:
                return fn(*args, **kwargs)
            if not probe.timing:
                out = fn(*args, **kwargs)
            else:
                stack = probe._stack
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - t0
                    span[0] += elapsed - stack.pop()
                    span[1] += 1
                    if stack:
                        stack[-1] += elapsed
                if count is not None:
                    count(probe.work, args, out)
                if exact:
                    g = args[0]
                    probe.exact_inputs.append((g.n, g.eu, g.ev))
            if keep:
                probe.captured[name].append(out)
            return out

        return wrapper

    # --- report -------------------------------------------------------------

    def self_s(self, name) -> float:
        return self.spans[name][0] if name in self.spans else 0.0

    def calls(self, name) -> int:
        return self.spans[name][1] if name in self.spans else 0

    def layer_metrics(self, op_wall_s: float, accept_ratio: float) -> dict:
        """Every per-layer metric of PER_LAYER, by name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, (s, _) in self.spans.items()
                if name.startswith(layer + "."))
        for name in _SELF_S:
            out[f"{name}.self_s"] = self.self_s(name)
        for name in _CALLS:
            out[f"{name}.calls"] = self.calls(name)
        work = self.work
        counters, evals = exact_work(self.exact_inputs)
        counters += work["cuts.exact.counters"]
        evals += work["cuts.exact.edge_evals"]
        exact_s = self.self_s("cuts.exact_maxcut") + self.self_s("cuts.min_bad_edges")
        io_s = self.self_s("graph.parse_edge_list") + self.self_s("graph.dump_edge_list")
        gnp_s = self.self_s("sampling.sample_gnp")
        out.update({
            "sampling.pairs_per_s": _rate(work["sampling.pairs"], gnp_s),
            "graph.SparseGraph.edges": work["graph.SparseGraph.edges"],
            "graph.kernel_paths.chains": work["graph.kernel_paths.chains"],
            "graph.io_mb_per_s": _rate(work["graph.io_bytes"] / 1e6, io_s),
            "core_model.parity_attempts": work["core_model.parity_attempts"],
            "core_model.accept_ratio": accept_ratio,
            "cuts.exact.counters": counters,
            "cuts.exact.edge_evals_per_s": _rate(evals, exact_s),
            "tournament.h_scanned": work["tournament.h_scanned"],
            "trace.op_wall_s": op_wall_s,
            "trace.wrapped_share": _rate(
                sum(s for s, _ in self.spans.values()), op_wall_s),
        })
        return out

    def table(self):
        """(name, self_s, calls) of every wrapped call made, slowest first."""
        rows = [(name, s, c) for name, (s, c) in self.spans.items() if c]
        return sorted(rows, key=lambda r: -r[1])


def _rate(amount, seconds) -> float:
    return amount / seconds if seconds > 0 else 0.0


_SELF_S = (
    "sampling.sample_gnp", "sampling.sample_tournament",
    "graph.SparseGraph", "graph.component_labels", "graph.induced_subgraph",
    "graph.two_core", "graph.kernel_paths", "graph.is_bipartite",
    "graph.odd_girth", "graph.parse_edge_list", "graph.dump_edge_list",
    "core_model.sample_core_model", "core_model.kernelize",
    "core_model.parse_expanded_core", "core_model.dump_expanded_core",
    "cuts.giant_cut_algorithm", "cuts.exact_maxcut", "cuts.min_bad_edges",
    "cuts.sandwich_check", "cuts.dist_bp_via_kernel",
    "hom.hom_to_odd_cycle",
    "tournament.Tournament", "tournament.find_h_copy",
    "tournament.two_coloring", "tournament.chromatic_number_exact",
    "tournament.parse_tournament", "tournament.dump_tournament",
    "experiments.run_experiment", "experiments.records_to_csv",
)
_CALLS = (
    "graph.SparseGraph", "graph.component_labels", "graph.induced_subgraph",
    "graph.two_core", "graph.kernel_paths", "graph.is_bipartite",
    "hom.hom_to_odd_cycle",
)

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{name}.self_s", "s", "lower") for name in _SELF_S]
    + [(f"{name}.calls", "count", "lower") for name in _CALLS]
    + [
        ("sampling.pairs_per_s", "1/s", "higher"),
        ("graph.SparseGraph.edges", "count", "lower"),
        ("graph.kernel_paths.chains", "count", "lower"),
        ("graph.io_mb_per_s", "MB/s", "higher"),
        ("core_model.parity_attempts", "count", "lower"),
        ("core_model.accept_ratio", "share", "higher"),
        ("cuts.exact.counters", "count", "lower"),
        ("cuts.exact.edge_evals_per_s", "1/s", "higher"),
        ("tournament.h_scanned", "count", "lower"),
        ("trace.op_wall_s", "s", "lower"),
        ("trace.wrapped_share", "share", "higher"),
    ]
)

"""Declarative Monte Carlo experiments with replayable seeded streams.

A config names an experiment type, parameter grids, a trial count, and a
master seed.  Trial k of the run draws from stream k of the seed, so any
row of the emitted CSV can be reproduced in isolation, reruns are
byte-identical, and workers can split the stream range arbitrarily without
affecting output order.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core_model import sample_core_model
from .cuts import (dist_bp_via_kernel, giant_cut_algorithm,
                   odd_path_bipartization)
from .errors import ConfigError, GuardLimitError
from .graph import decompose_giant, is_bipartite
from .hom import hom_to_odd_cycle, ell_epsilon
from .rng import RngSpec
from .sampling import MAX_N, sample_gnp, sample_tournament
from .tournament import (
    DIST_LIMIT,
    TWO_COLOR_LIMIT,
    backedge_graph,
    chromatic_number_exact,
    dist_tour_bp_exact,
    find_h_copy,
    long_backedges,
    two_coloring,
)

EXPERIMENT_TYPES = ("maxcut_scaling", "hom", "tournament")


def _resolve_options(experiment: str, options) -> tuple:
    """(schema, every option of the schema with its given or default value).

    ConfigError for an unknown mode, a key the schema does not declare, or
    a value of the wrong type.
    """
    if not isinstance(options, dict):
        raise ConfigError("options must be a JSON object")
    schema = experiment
    if experiment == "tournament":
        mode = options["mode"] if "mode" in options else "band"
        schema = f"tournament_{mode}"
        if schema not in _SCHEMAS:
            raise ConfigError(f"unknown tournament mode {mode!r}")
    declared = _SCHEMAS[schema].options
    unknown = set(options) - set(declared)
    if unknown:
        raise ConfigError(f"unknown options for {schema}: {sorted(unknown)}")
    resolved = {key: spec[1] for key, spec in declared.items()}
    for key, value in options.items():
        kind, _, *cap = declared[key]
        largest = cap[0] if cap else math.inf
        if type(value) is not kind or (kind is int and not 0 <= value <= largest):
            want = (f"a {kind.__name__}" if kind is not int else
                    f"an int in 0..{largest}" if cap else "a non-negative int")
            raise ConfigError(f"option {key} must be {want}, not {value!r}")
        resolved[key] = value
    return schema, resolved


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated config; ``options`` holds every option of ``schema``."""

    experiment: str
    eps_grid: tuple
    n_grid: tuple
    trials: int
    seed: int
    workers: int = 1
    out: Optional[str] = None
    name: Optional[str] = None
    options: dict = field(default_factory=dict)
    schema: str = field(init=False)

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_TYPES:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        schema, options = _resolve_options(self.experiment, self.options)
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "options", options)
        for what, x in [("trials", self.trials), ("seed", self.seed),
                        ("workers", self.workers)] + [("n grid entry", n)
                                                      for n in self.n_grid]:
            if type(x) is not int:  # as for options, a bool is no int
                raise ConfigError(f"{what} must be an int, not {x!r}")
        for what, x in (("out", self.out), ("name", self.name)):
            if x is not None and type(x) is not str:
                raise ConfigError(f"{what} must be a string or null, not {x!r}")
        if self.name and any(c in self.name for c in ",\r\n"):
            # the name fills the CSV's first column
            raise ConfigError(f"name must hold no comma or line break: {self.name!r}")
        for eps in self.eps_grid:
            if isinstance(eps, bool) or not isinstance(eps, numbers.Real):
                raise ConfigError(f"eps grid entry {eps!r} is not a number")
            if _SCHEMAS[schema].grid == "c":
                if not 0.0 <= eps < math.inf:
                    raise ConfigError(
                        f"c {eps} must be finite and non-negative")
            elif not 0.0 < eps < 1.0:
                raise ConfigError(f"eps {eps} outside (0,1)")
        for what, grid in (("eps", self.eps_grid), ("n", self.n_grid)):
            if not grid:
                raise ConfigError(f"{what} grid must be non-empty")
            if len(set(grid)) < len(grid):
                raise ConfigError(f"{what} grid repeats a value: {list(grid)}")
        if min(self.n_grid) < 2:  # G(n, p) at p = (1+eps)/n needs a pair
            raise ConfigError("n values must be at least 2")
        if max(self.n_grid) > MAX_N:  # the samplers' bound
            raise ConfigError("n values must be at most 2^27")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must lie in 0..2^64-1")

    @property
    def label(self) -> str:
        return self.name or self.experiment

    def cells(self) -> list:
        return [(eps, n) for eps in self.eps_grid for n in self.n_grid]

    def cell_of_stream(self, stream: int):
        cell = self.cells()[stream // self.trials]
        return cell[0], cell[1]

    @property
    def total_trials(self) -> int:
        return len(self.cells()) * self.trials

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        init = [f for f in fields(cls) if f.init]
        unknown = set(data) - {f.name for f in init}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for grid in ("eps_grid", "n_grid"):
            if not isinstance(data.get(grid, []), list):
                raise ConfigError(f"{grid} must be a list of numbers")
        for f in init:
            if (f.name not in data and f.default is MISSING
                    and f.default_factory is MISSING):
                raise ConfigError(f"missing config field: {f.name!r}")
        try:
            return cls(**{**data, "eps_grid": tuple(data["eps_grid"]),
                          "n_grid": tuple(data["n_grid"])})
        except TypeError as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(data)


@dataclass(frozen=True)
class TrialRecord:
    """One trial; ``eps`` is the grid value (c for ``tournament_kscan``), and
    ``stats`` holds the schema's stat columns in CSV order."""

    experiment: str
    eps: float
    n: int
    stream: int
    stats: dict

    def row(self) -> list:
        return [self.experiment, self.eps, self.n, self.stream,
                *self.stats.values()]


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log(deficit/n) against log(eps)."""

    exponent: float
    amplitude: float
    stderr: float
    r2: float
    ci_low: float
    ci_high: float
    points: int

    def to_dict(self) -> dict:
        """Fields as JSON values; an undefined (NaN) value becomes None."""
        def finite(x):
            return x if math.isfinite(x) else None

        return {
            "exponent": finite(self.exponent),
            "amplitude": finite(self.amplitude),
            "stderr": finite(self.stderr),
            "r2": finite(self.r2),
            "ci": [finite(self.ci_low), finite(self.ci_high)],
            "points": self.points,
        }


def fit_power_law(xs, ys) -> ScalingFit:
    """Fit y = A * x^B by least squares in log-log space."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2:
        raise ValueError("need at least two points to fit")
    if (ys <= 0).any() or (xs <= 0).any():
        raise ValueError("power-law fit needs positive data")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ssr = float(((ly - pred) ** 2).sum())
    sst = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 - ssr / sst if sst > 0 else 1.0
    dof = len(xs) - 2
    sxx = float(((lx - lx.mean()) ** 2).sum())
    se = math.sqrt(ssr / dof / sxx) if dof > 0 else float("nan")
    half = 1.96 * se if dof > 0 else float("nan")
    return ScalingFit(
        exponent=float(slope),
        amplitude=float(math.exp(intercept)),
        stderr=se,
        r2=r2,
        ci_low=float(slope - half),
        ci_high=float(slope + half),
        points=len(xs),
    )


# --- single trials ---------------------------------------------------------
# Each takes the resolved options, the cell (eps, n) and the trial's
# generator, and returns the trial's CSV stats.

def _maxcut_trial(opts: dict, eps: float, n: int, gen) -> dict:
    g = sample_gnp(n, (1.0 + eps) / n, gen)
    dec = decompose_giant(g)
    result = giant_cut_algorithm(g, dec)
    deficit = len(result.deleted_edge_ids)

    core = dec.core.graph
    # odd-variant sanity: breaking every odd chain leaves the core bipartite
    odd_reps = odd_path_bipartization(core, dec.paths)

    model = sample_core_model(n, eps, gen)
    ek = model.kernel.m
    odd_model = int(model.parities.sum())
    return {
        "m_edges": g.m,
        "giant_v": int(dec.sizes[0]),
        "core_v": core.n,
        "core_e": core.m,
        "kernel_paths": len(dec.paths),
        "odd_paths": odd_reps.size,
        "small_deleted": deficit - len(dec.paths),
        "deficit": deficit,
        "model_kernel_edges": ek,
        "model_odd_paths": odd_model,
        "model_ek_per_n": ek / n,
        "model_odd_frac": odd_model / ek if ek else 0.0,
    }


def _least_certified_ell(m: int, bound: int) -> int:
    """The least ell >= 1 that ``no_hom_certificate`` fires for on m edges
    with distance lower bound ``bound`` >= 1, i.e. the least ell with
    bound * (2 ell + 1) > m; -1 if that ell is above 10."""
    ell = max(1, (m // bound + 1) // 2)
    return ell if ell <= 10 else -1


def _hom_trial(opts: dict, eps: float, n: int, gen) -> dict:
    g = sample_gnp(n, (1.0 + eps) / n, gen)
    try:
        bound = dist_bp_via_kernel(g)
    except GuardLimitError:
        bound = -1  # infeasible contraction; no certificate fires this trial
    least = _least_certified_ell(g.m, bound) if bound > 0 else -1
    delta = bound / g.m if (bound >= 0 and g.m) else 0.0
    crosscheck = -1
    if opts["crosscheck"]:
        crosscheck = 1  # nothing fired, nothing to confirm
        if least > 0:
            # absence at the least certified ell implies absence above it
            crosscheck = int(hom_to_odd_cycle(g, least) is None)
    return {
        "m_edges": g.m,
        "dist_lb": bound,
        "delta": delta,
        "least_cert_ell": least,
        "ell_eps": ell_epsilon(delta) if 0.0 < delta < 1.0 else -1,
        "crosscheck": crosscheck,
    }


def _band_trial(opts: dict, eps: float, n: int, gen) -> dict:
    t = sample_tournament(n, (1.0 - eps) / n, gen)
    two_col = -1
    if t.n <= TWO_COLOR_LIMIT:
        two_col = int(two_coloring(t) is not None)
    return {
        "backedges": t.backedge_count,
        "b_bipartite": int(is_bipartite(backedge_graph(t)) is not None),
        "two_colorable": two_col,
    }


def _far_trial(opts: dict, eps: float, n: int, gen) -> dict:
    t = sample_tournament(n, (1.0 + eps) / n, gen)
    search = find_h_copy(t, budget=opts["budget"])
    return {
        "backedges": t.backedge_count,
        "long_backedges": len(long_backedges(t, n ** (-1.0 / 6.0))),
        "h_found": int(search.found is not None),
        "h_exhausted": int(search.exhausted),
        "dist_tour": dist_tour_bp_exact(t) if t.n <= opts["dist_limit"] else -1,
    }


def _kscan_trial(opts: dict, c: float, n: int, gen) -> dict:
    t = sample_tournament(n, min(c / n, 1.0), gen)
    chi, _ = chromatic_number_exact(t)
    return {
        "backedges": t.backedge_count,
        "chi": chi,
        "within_k": int(chi <= opts["k"]),
    }


class _Schema(NamedTuple):
    """One CSV schema: its trial, the stat columns the trial returns (in CSV
    order, after ``experiment, <grid>, n, stream``), its options and its
    grid column.

    ``options`` maps key -> (type, default), or (int, default, largest).  A
    given value must have exactly that type (so a bool is no int), and an
    int must lie in 0..largest (unbounded if none is declared).  The grid
    is ``eps`` in (0, 1), or ``c`` = pn, finite and non-negative.
    """

    trial: Callable
    columns: tuple
    options: dict
    grid: str = "eps"


_SCHEMAS = {
    "maxcut_scaling": _Schema(_maxcut_trial, (
        "m_edges", "giant_v", "core_v", "core_e", "kernel_paths",
        "odd_paths", "small_deleted", "deficit", "model_kernel_edges",
        "model_odd_paths", "model_ek_per_n", "model_odd_frac"), {}),
    "hom": _Schema(_hom_trial, (
        "m_edges", "dist_lb", "delta", "least_cert_ell", "ell_eps",
        "crosscheck"), {"crosscheck": (bool, False)}),
    "tournament_band": _Schema(_band_trial, (
        "backedges", "b_bipartite", "two_colorable"),
        {"mode": (str, "band")}),
    # dist_tour_bp_exact is guarded at n <= DIST_LIMIT, so a larger
    # dist_limit would only move the guard's exit past the first trials
    "tournament_far": _Schema(_far_trial, (
        "backedges", "long_backedges", "h_found", "h_exhausted", "dist_tour"),
        {"mode": (str, "far"), "budget": (int, 10_000_000),
         "dist_limit": (int, DIST_LIMIT, DIST_LIMIT)}),
    "tournament_kscan": _Schema(_kscan_trial, (
        "backedges", "chi", "within_k"),
        {"mode": (str, "kscan"), "k": (int, 3)}, grid="c"),
}


def _dispatch(cfg: ExperimentConfig, stream: int) -> TrialRecord:
    """Trial ``stream`` of the config, drawn from its own seeded stream."""
    eps, n = cfg.cell_of_stream(stream)
    gen = RngSpec(cfg.seed, stream).generator()
    schema = _SCHEMAS[cfg.schema]
    stats = schema.trial(cfg.options, eps, n, gen)
    if tuple(stats) != schema.columns:
        raise AssertionError(f"{cfg.schema} trial returned columns "
                             f"{list(stats)}, not {list(schema.columns)}")
    return TrialRecord(cfg.label, eps, n, stream, stats)


# --- runners ----------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def records_to_csv(records, schema: str) -> str:
    s = _SCHEMAS[schema]
    lines = [",".join(("experiment", s.grid, "n", "stream", *s.columns))]
    ordered = sorted(records, key=lambda r: (r.eps, r.n, r.stream))
    for rec in ordered:
        lines.append(",".join(_format_value(v) for v in rec.row()))
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig, progress=False):
    """Run all trials of a config, deterministically ordered.

    Returns (records, fit) where fit is a ScalingFit for maxcut_scaling
    runs and None otherwise.  The pool holds at most one worker per trial
    and per CPU.  If the run is interrupted, the trials completed so far
    are written to the output path before the interrupt propagates.
    """
    records = []
    workers = min(cfg.workers, cfg.total_trials, os.cpu_count() or 1)
    try:
        with (ProcessPoolExecutor(workers) if workers > 1
              else nullcontext()) as pool:
            mapper = pool.map if pool else map
            for rec in mapper(partial(_dispatch, cfg), range(cfg.total_trials)):
                records.append(rec)
                if progress:
                    print(f"trial {rec.stream} done", file=sys.stderr)
    except KeyboardInterrupt:
        if cfg.out:
            _flush(records, cfg)
        raise
    if cfg.out:
        _flush(records, cfg)
    fit = None
    if cfg.experiment == "maxcut_scaling" and len(cfg.eps_grid) >= 2:
        cells = {}
        for rec in records:
            cells.setdefault(rec.eps, []).append(rec.stats["deficit"] / rec.n)
        eps_vals = sorted(cells)
        means = [float(np.mean(cells[e])) for e in eps_vals]
        if all(m > 0 for m in means):
            fit = fit_power_law(eps_vals, means)
            if cfg.out:
                with open(cfg.out + ".fit.json", "w") as fh:
                    json.dump(fit.to_dict(), fh, indent=2, sort_keys=True,
                              allow_nan=False)
                    fh.write("\n")
    return records, fit


def _flush(records, cfg: ExperimentConfig) -> None:
    parent = os.path.dirname(cfg.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(cfg.out, "w") as fh:
        fh.write(records_to_csv(records, cfg.schema))


# --- aggregation ------------------------------------------------------------

def emit_plot_data(records, schema: str) -> str:
    """Collapse a run's trial records into per-cell means and standard errors.

    Output is a columnar text block: one row per (grid value, n) cell, in
    increasing order, with the trial count and mean/stderr for every stat
    column of ``schema``.  A single observation leaves its stderr field
    empty.
    """
    s = _SCHEMAS[schema]
    cells = {}
    for rec in sorted(records, key=lambda r: (r.eps, r.n, r.stream)):
        cells.setdefault((float(rec.eps), rec.n), []).append(
            [float(v) for v in rec.stats.values()])
    out_cols = [s.grid, "n", "trials"]
    for c in s.columns:
        out_cols.extend([f"{c}_mean", f"{c}_stderr"])
    rows = [" ".join(out_cols)]
    for key in sorted(cells):
        data = np.array(cells[key])
        k = data.shape[0]
        fields = [repr(key[0]), str(key[1]), str(k)]
        for j in range(data.shape[1]):
            fields.append(repr(float(data[:, j].mean())))
            if k > 1:
                stderr = float(data[:, j].std(ddof=1) / math.sqrt(k))
                fields.append(repr(stderr))
            else:
                fields.append("")
        rows.append(" ".join(fields))
    return "\n".join(rows) + "\n"

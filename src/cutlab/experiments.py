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
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core_model import sample_core_model
from .cuts import dist_bp_via_kernel, giant_cut_algorithm
from .errors import ConfigError, GuardLimitError
from .graph import decompose_giant, is_bipartite
from .hom import hom_to_odd_cycle, no_hom_certificate, ell_epsilon
from .rng import RngSpec
from .sampling import sample_gnp, sample_tournament
from .tournament import (
    backedge_graph,
    chromatic_number_exact,
    dist_tour_bp_exact,
    find_h_copy,
    long_backedges,
    two_coloring,
)

EXPERIMENT_TYPES = ("maxcut_scaling", "hom", "tournament")

_COLUMNS = {
    "maxcut_scaling": [
        "experiment", "eps", "n", "stream", "m_edges", "giant_v", "core_v",
        "core_e", "kernel_paths", "odd_paths", "small_deleted", "deficit",
        "model_kernel_edges", "model_odd_paths", "model_ek_per_n",
        "model_odd_frac",
    ],
    "hom": [
        "experiment", "eps", "n", "stream", "m_edges", "dist_lb", "delta",
        "least_cert_ell", "ell_eps", "crosscheck",
    ],
    "tournament_band": [
        "experiment", "eps", "n", "stream", "backedges", "b_bipartite",
        "two_colorable",
    ],
    "tournament_far": [
        "experiment", "eps", "n", "stream", "backedges", "long_backedges",
        "h_found", "h_exhausted", "dist_tour",
    ],
    "tournament_kscan": [
        "experiment", "c", "n", "stream", "backedges", "chi", "within_k",
    ],
}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    eps_grid: tuple
    n_grid: tuple
    trials: int
    seed: int
    workers: int = 1
    out: Optional[str] = None
    name: Optional[str] = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENT_TYPES:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if not self.eps_grid:
            raise ConfigError("eps grid must be non-empty")
        if not self.n_grid:
            raise ConfigError("n grid must be non-empty")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1")
        for eps in self.eps_grid:
            if isinstance(eps, bool) or not isinstance(eps, numbers.Real):
                raise ConfigError(f"eps grid entry {eps!r} is not a number")
        mode = self.options.get("mode", "band")
        if self.experiment != "tournament" or mode != "kscan":
            for eps in self.eps_grid:
                if not 0.0 < eps < 1.0:
                    raise ConfigError(f"eps {eps} outside (0,1)")
        for n in self.n_grid:
            if n < 1:
                raise ConfigError("n values must be positive")

    @property
    def label(self) -> str:
        return self.name or self.experiment

    @property
    def schema(self) -> str:
        if self.experiment == "tournament":
            return f"tournament_{self.options.get('mode', 'band')}"
        return self.experiment

    def cells(self) -> list:
        return [(eps, n) for eps in self.eps_grid for n in self.n_grid]

    def cell_of_stream(self, stream: int):
        cell = self.cells()[stream // self.trials]
        return cell[0], cell[1]

    @property
    def total_trials(self) -> int:
        return len(self.cells()) * self.trials

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "eps_grid": list(self.eps_grid),
            "n_grid": list(self.n_grid),
            "trials": self.trials,
            "seed": self.seed,
            "workers": self.workers,
            "out": self.out,
            "name": self.name,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {"experiment", "eps_grid", "n_grid", "trials", "seed",
                 "workers", "out", "name", "options"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if not isinstance(data.get("eps_grid", []), list):
            raise ConfigError("eps_grid must be a list of numbers")
        try:
            return cls(
                experiment=data["experiment"],
                eps_grid=tuple(data["eps_grid"]),
                n_grid=tuple(int(n) for n in data["n_grid"]),
                trials=int(data["trials"]),
                seed=int(data["seed"]),
                workers=int(data.get("workers", 1)),
                out=data.get("out"),
                name=data.get("name"),
                options=dict(data.get("options", {})),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc
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
    experiment: str
    eps: float
    n: int
    stream: int
    stats: dict

    def row(self, columns) -> list:
        base = {"experiment": self.experiment, "eps": self.eps,
                "c": self.eps, "n": self.n, "stream": self.stream}
        out = []
        for col in columns:
            val = base.get(col, self.stats.get(col))
            if val is None:
                raise KeyError(f"missing column {col}")
            out.append(val)
        return out


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

def _maxcut_trial(cfg: ExperimentConfig, stream: int) -> TrialRecord:
    eps, n = cfg.cell_of_stream(stream)
    gen = RngSpec(cfg.seed, stream).generator()
    g = sample_gnp(n, (1.0 + eps) / n, gen)
    dec = decompose_giant(g)
    result = giant_cut_algorithm(g, dec)
    deficit = len(result.deleted_edge_ids)

    core = dec.core.graph
    odd_reps = dec.paths.last_edge_ids[dec.paths.lengths % 2 == 1]
    # odd-variant sanity: breaking every odd chain leaves the core bipartite
    if core.m and is_bipartite(core.delete_edges(odd_reps)) is None:
        raise AssertionError("odd-path deletion left an odd cycle")

    model = sample_core_model(n, eps, gen)
    ek = model.kernel.m
    odd_model = int(model.parities.sum())
    stats = {
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
    return TrialRecord(cfg.label, eps, n, stream, stats)


def _hom_trial(cfg: ExperimentConfig, stream: int) -> TrialRecord:
    eps, n = cfg.cell_of_stream(stream)
    opts = cfg.options
    gen = RngSpec(cfg.seed, stream).generator()
    g = sample_gnp(n, (1.0 + eps) / n, gen)
    kernel_limit = int(opts.get("kernel_limit", 24))
    try:
        bound = dist_bp_via_kernel(g, kernel_limit=kernel_limit)
    except GuardLimitError:
        bound = -1  # infeasible contraction; no certificate fires this trial
    ell_lo = int(opts.get("ell_min", 1))
    ell_hi = int(opts.get("ell_max", 10))
    least = -1
    if bound > 0:
        for ell in range(ell_lo, ell_hi + 1):
            if no_hom_certificate(g, ell, bound):
                least = ell
                break
    delta = bound / g.m if (bound >= 0 and g.m) else 0.0
    ell_eps = ell_epsilon(delta) if 0.0 < delta < 1.0 else -1
    crosscheck = -1
    if opts.get("crosscheck") and least > 0:
        # absence at the least certified ell implies absence above it
        witness = hom_to_odd_cycle(
            g, least,
            node_limit=int(opts.get("node_limit", 60)),
            edge_limit=int(opts.get("edge_limit", 120)),
        )
        crosscheck = 1 if witness is None else 0
    elif opts.get("crosscheck"):
        crosscheck = 1  # nothing fired, nothing to confirm
    stats = {
        "m_edges": g.m,
        "dist_lb": bound,
        "delta": delta,
        "least_cert_ell": least,
        "ell_eps": ell_eps,
        "crosscheck": crosscheck,
    }
    return TrialRecord(cfg.label, eps, n, stream, stats)


def _tournament_trial(cfg: ExperimentConfig, stream: int) -> TrialRecord:
    eps, n = cfg.cell_of_stream(stream)
    opts = cfg.options
    mode = opts.get("mode", "band")
    gen = RngSpec(cfg.seed, stream).generator()
    if mode == "band":
        p = (1.0 - eps) / n
        t = sample_tournament(n, p, gen)
        bip = is_bipartite(backedge_graph(t)) is not None
        guard = int(opts.get("two_color_limit", 24))
        two_col = -1
        if t.n <= guard:
            two_col = 1 if two_coloring(t, limit=guard) is not None else 0
        stats = {
            "backedges": t.backedge_count,
            "b_bipartite": int(bip),
            "two_colorable": two_col,
        }
    elif mode == "far":
        p = (1.0 + eps) / n
        t = sample_tournament(n, p, gen)
        search = find_h_copy(t, budget=int(opts.get("budget", 10_000_000)))
        alpha = float(opts.get("alpha", n ** (-1.0 / 6.0)))
        dist = -1
        if t.n <= int(opts.get("dist_limit", 14)):
            dist = dist_tour_bp_exact(t)
        stats = {
            "backedges": t.backedge_count,
            "long_backedges": len(long_backedges(t, alpha)),
            "h_found": int(search.found is not None),
            "h_exhausted": int(search.exhausted),
            "dist_tour": dist,
        }
    elif mode == "kscan":
        c = eps  # the grid carries plain c values in this mode
        t = sample_tournament(n, min(c / n, 1.0), gen)
        k = int(opts.get("k", 3))
        chi, _ = chromatic_number_exact(t, limit=int(opts.get("chi_limit", 12)))
        stats = {
            "backedges": t.backedge_count,
            "chi": chi,
            "within_k": int(chi <= k),
        }
    else:
        raise ConfigError(f"unknown tournament mode {mode!r}")
    return TrialRecord(cfg.label, eps, n, stream, stats)


_TRIAL_FN = {
    "maxcut_scaling": _maxcut_trial,
    "hom": _hom_trial,
    "tournament": _tournament_trial,
}


def _dispatch(config_dict: dict, stream: int) -> TrialRecord:
    cfg = ExperimentConfig.from_dict(config_dict)
    return _TRIAL_FN[cfg.experiment](cfg, stream)


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
    columns = _COLUMNS[schema]
    lines = [",".join(columns)]
    ordered = sorted(records, key=lambda r: (r.eps, r.n, r.stream))
    for rec in ordered:
        lines.append(",".join(_format_value(v) for v in rec.row(columns)))
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig, progress=False):
    """Run all trials of a config, deterministically ordered.

    Returns (records, fit) where fit is a ScalingFit for maxcut_scaling
    runs and None otherwise.  If the run is interrupted, the trials
    completed so far are written to the output path before the interrupt
    propagates.
    """
    streams = list(range(cfg.total_trials))
    records = []
    try:
        if cfg.workers > 1:
            with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
                for rec in pool.map(_dispatch, [cfg.to_dict()] * len(streams),
                                    streams, chunksize=1):
                    records.append(rec)
                    if progress:
                        print(f"trial {rec.stream} done", file=sys.stderr)
        else:
            for s in streams:
                records.append(_TRIAL_FN[cfg.experiment](cfg, s))
                if progress:
                    print(f"trial {s} done", file=sys.stderr)
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

def emit_plot_data(csv_text: str) -> str:
    """Collapse a trial CSV into per-cell means and standard errors.

    Output is a columnar text block: one row per (parameter, n) cell with
    the trial count and mean/stderr for every numeric column.  A single
    observation leaves its stderr field empty.
    """
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    if not lines:
        raise ConfigError("empty CSV input")
    header = lines[0].split(",")
    param = "eps" if "eps" in header else "c"
    for needed in ("experiment", param, "n", "stream"):
        if needed not in header:
            raise ConfigError(f"CSV lacks required column {needed!r}")
    value_cols = [c for c in header
                  if c not in ("experiment", param, "n", "stream")]
    idx = {c: header.index(c) for c in header}
    cells = {}
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"malformed CSV row: {ln!r}")
        key = (float(parts[idx[param]]), int(parts[idx["n"]]))
        cells.setdefault(key, []).append(
            [float(parts[idx[c]]) for c in value_cols]
        )
    out_cols = [param, "n", "trials"]
    for c in value_cols:
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

"""Command-line front end.

Subcommands: gen, maxcut, dlp-sample, hom, tournament, experiment.
Exit codes: 0 success, 2 configuration or input error, 3 size-guard
rejection.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import core_model, cuts, experiments, graph, hom, tournament
from .errors import ConfigError, GuardLimitError
from .rng import RngSpec
from .sampling import sample_gnp, sample_tournament

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3


def _add_global_flags(parser, suppress=False):
    # an absent flag reads None: seed 0, or the config's seed for experiment
    kw = {"default": argparse.SUPPRESS if suppress else None}
    parser.add_argument("--seed", type=int, help="master seed", **kw)
    parser.add_argument("--workers", type=int, help="worker count", **kw)
    parser.add_argument("--out", help="output path", **kw)
    parser.add_argument("--config", help="JSON config path", **kw)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutlab",
        description="sparse random graph and tournament laboratory",
    )
    _add_global_flags(parser)
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="sample a random graph or tournament")
    p.add_argument("--model", choices=["gnp", "tournament"], default="gnp")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float, help="edge probability")
    group.add_argument("--eps", type=float, help="use p = (1+eps)/n")

    p = sub.add_parser("maxcut", parents=[common],
                       help="cut a graph from an edge-list file")
    p.add_argument("--input", required=True)
    p.add_argument("--method", choices=["exact", "giant", "auto"],
                   default="auto")
    p.add_argument("--limit", type=int, default=cuts.EXACT_LIMIT,
                   help=f"exact enumeration guard, 0..{cuts.EXACT_LIMIT}")

    p = sub.add_parser("dlp-sample", parents=[common],
                       help="sample the synthetic giant-component 2-core")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)

    p = sub.add_parser("hom", parents=[common],
                       help="decide homomorphism into an odd cycle")
    p.add_argument("--input", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--node-limit", type=int, default=hom.NODE_LIMIT)
    p.add_argument("--edge-limit", type=int, default=hom.EDGE_LIMIT)

    p = sub.add_parser("tournament", parents=[common],
                       help="inspect a tournament")
    p.add_argument("--input", default=None, help="tournament file")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--chi", action="store_true", help="exact chromatic number")
    p.add_argument("--find-h", action="store_true", help="hero copy search")
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--alpha", type=float, default=None,
                   help="report long backedges at this threshold")

    p = sub.add_parser("experiment", parents=[common],
                       help="run a declarative experiment")
    p.add_argument("--aggregate", default=None,
                   help="also write per-cell aggregates to this path")
    p.add_argument("--progress", action="store_true")

    return parser


def _write_or_print(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    p = args.p if args.p is not None else (1.0 + args.eps) / args.n
    rng = RngSpec(args.seed or 0)
    if args.model == "gnp":
        g = sample_gnp(args.n, p, rng)
        _write_or_print(graph.dump_edge_list(g), args.out)
    else:
        t = sample_tournament(args.n, p, rng)
        _write_or_print(tournament.dump_tournament(t), args.out)
    return EXIT_OK


def _cmd_maxcut(args) -> int:
    if not 0 <= args.limit <= cuts.EXACT_LIMIT:
        raise ConfigError(f"--limit must be in 0..{cuts.EXACT_LIMIT} "
                          f"(got {args.limit})")
    g = graph.read_edge_list(args.input)
    method = args.method
    if method == "auto":
        method = "exact" if g.n <= args.limit else "giant"
    if method == "exact":
        result = cuts.exact_maxcut(g, limit=args.limit)
    else:
        result = cuts.giant_cut_algorithm(g)
    _write_or_print(result.to_json() + "\n", args.out)
    return EXIT_OK


def _cmd_dlp_sample(args) -> int:
    core = core_model.sample_core_model(args.n, args.eps,
                                        RngSpec(args.seed or 0))
    _write_or_print(core_model.dump_expanded_core(core), args.out)
    summary = {
        "n": args.n,
        "eps": args.eps,
        "kernel_vertices": core.kernel.n,
        "kernel_edges": core.kernel.m,
        "core_vertices": core.graph.n,
        "core_edges": core.graph.m,
        "odd_paths": int(core.parities.sum()),
    }
    print(json.dumps(summary, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def _cmd_hom(args) -> int:
    g = graph.read_edge_list(args.input)
    witness = hom.hom_to_odd_cycle(
        g, args.ell, node_limit=args.node_limit, edge_limit=args.edge_limit
    )
    if witness is None:
        _write_or_print("NONE\n", args.out)
    else:
        _write_or_print(witness.to_lines(), args.out)
    return EXIT_OK


def _cmd_tournament(args) -> int:
    if args.input:
        t = tournament.read_tournament(args.input)
    elif args.n is not None and args.p is not None:
        t = sample_tournament(args.n, args.p, RngSpec(args.seed or 0))
    else:
        raise ConfigError("tournament needs --input or both --n and --p")
    report = {
        "n": t.n,
        "backedges": t.backedge_count,
        "backedge_graph_bipartite": int(
            graph.is_bipartite(tournament.backedge_graph(t)) is not None
        ),
    }
    if args.chi:
        chi, coloring = tournament.chromatic_number_exact(t)
        report["chi"] = chi
        report["coloring"] = coloring.tolist()
    if args.find_h:
        search = tournament.find_h_copy(t, budget=args.budget)
        report["h_copy"] = list(search.found) if search.found else None
        report["h_search_exhausted"] = search.exhausted
    if args.alpha is not None:
        report["long_backedges"] = len(tournament.long_backedges(t, args.alpha))
    _write_or_print(json.dumps(report, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if not args.config:
        raise ConfigError("experiment requires --config")
    cfg = experiments.ExperimentConfig.from_json(args.config)
    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = dataclasses.replace(cfg, **overrides)
    records, fit = experiments.run_experiment(cfg, progress=args.progress)
    if not cfg.out:
        sys.stdout.write(experiments.records_to_csv(records, cfg.schema))
    if fit is not None:
        print(json.dumps({"fit": fit.to_dict()}, sort_keys=True,
                         allow_nan=False), file=sys.stderr)
    if args.aggregate:
        with open(args.aggregate, "w") as fh:
            fh.write(experiments.emit_plot_data(records, cfg.schema))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "maxcut": _cmd_maxcut,
    "dlp-sample": _cmd_dlp_sample,
    "hom": _cmd_hom,
    "tournament": _cmd_tournament,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except GuardLimitError as exc:
        print(f"guard rejection: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

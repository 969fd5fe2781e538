"""Command-line front end.

Subcommands: fit, scores-from-graph, glasso, sample, eval,
group-compare, grid.  Every command is deterministic given its inputs,
flags and seed.  ``main`` runs one command, then writes its ``meta.json``:
every flag but ``--out`` and the input files (``_INPUT_FLAGS``) under
``parameters``, one SHA-256 checksum per input file under ``inputs``.

Exit codes: 0 success, 1 input/configuration error (no ``meta.json``),
2 ``meta.json`` says ``"converged": false``: a solver stopped at a cap,
with results still written.  argparse also exits 2, with a usage message
and no ``meta.json``, for a command line it cannot parse: an unknown
flag, a missing required flag or an unparsable number.
"""

import argparse
import dataclasses
import inspect
import os
import sys

import numpy as np

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .baselines import kcore_scores, minres_scores
from .bca import fit as bca_fit
from .bca import fit_graph_given_scores
from .corescore import scores_from_graph
from .errors import CoreglassoError
from .glasso import support
from .io import (
    _write_rows,
    read_features_csv,
    read_scores_json,
    read_square_csv,
    sha256_file,
    write_edges_tsv,
    write_json,
    write_matrix_csv,
    write_scores_json,
    write_trace_csv,
)
from .metrics import _core_size, compare_methods, group_compare, support_recovery
from .model import CoreScores, DistanceMatrix, Hyperparams, _check_adjacency, _check_setting
from .synth import planted_scores, sample_coordinates, sample_instance

OUTDIR_ENV = "COREGLASSO_OUTDIR"
# eval --baselines names these graph baselines; all of them by default.
_BASELINES = {"minres": minres_scores, "kcores": kcore_scores}
_HYPER_NAMES = tuple(f.name for f in dataclasses.fields(Hyperparams))
# The fields a single graph step (glasso) reads.
_GRAPH_STEP_NAMES = ("lam", "e", "glasso_tol", "glasso_max_iter", "ridge")
# grid takes lambda from --lambdas and e from --es, so it has neither flag.
_GRID_HYPER_NAMES = tuple(name for name in _HYPER_NAMES if name not in ("lam", "e"))
_HYPER_HELP = {
    "lam": "penalty scale (default %(default)s)",
    "e": "distance coupling; requires --distances when > 0",
    "M": "core-mass budget (default N/8)",
}


def _hyper_from_args(args) -> Hyperparams:
    """Hyperparams from the flags the subcommand has; other fields keep their defaults."""
    return Hyperparams(**{n: getattr(args, n) for n in _HYPER_NAMES if hasattr(args, n)})


def _add_flag(p, name, default, help=None):
    """The flag of setting ``name``, typed by its default (None means float)."""
    flag = "--lambda" if name == "lam" else "--" + name.replace("_", "-")
    p.add_argument(flag, dest=name, type=int if isinstance(default, int) else float,
                   default=default, help=help)


def _add_hyper_flags(p, names=_HYPER_NAMES):
    """One flag per named ``Hyperparams`` field, defaulting to the field's
    default; ``lam`` has none there, so ``--lambda`` defaults to 0.1."""
    for f in dataclasses.fields(Hyperparams):
        if f.name in names:
            _add_flag(p, f.name, 0.1 if f.name == "lam" else f.default, _HYPER_HELP.get(f.name))


def _floats(text, flag):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise CoreglassoError(
            f"{flag} expects a comma list of numbers, got {text!r}"
        ) from None


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUTDIR_ENV)
    if not out:
        raise CoreglassoError(
            f"no output directory: pass --out or set {OUTDIR_ENV}"
        )
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _meta(args, result) -> dict:
    parameters = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    paths = {}
    for flag in _INPUT_FLAGS:
        value = parameters.pop(flag, None)
        if isinstance(value, list):
            # eval --scores items are (NAME, "=", PATH).
            paths.update({f"{flag}_{i}": item[-1] if isinstance(item, tuple) else item
                          for i, item in enumerate(value)})
        elif value is not None:
            paths[flag] = value
    return {
        "command": args.command,
        "version": __version__,
        "parameters": parameters,
        "inputs": {name: {"path": str(p), "sha256": sha256_file(p)} for name, p in paths.items()},
        **result,
    }


def _edge_count(theta, threshold=0.0) -> int:
    """Edges of ``support(theta, threshold)`` over pairs i < j."""
    return int(np.triu(support(theta, threshold), 1).sum())


def _distances(path):
    """The ``--distances`` file as a ``DistanceMatrix``; None without the flag."""
    return None if path is None else read_square_csv(path, DistanceMatrix)[0]


def _fit(features_path, dist, hyper, threshold):
    """Read the features and run one fit; returns the features, their row
    labels, the ``FitResult`` and the fields a fit and a grid cell both report."""
    features, labels = read_features_csv(features_path)
    result = bca_fit(features, dist=dist, hyper=hyper)
    return features, labels, result, {
        "edges": _edge_count(result.theta, threshold),
        "converged": result.converged,
        "outer_iterations": result.outer_iterations,
        "objective": float(result.objective_trace[-1]),
    }


# Each command writes its outputs under ``out`` and returns the fields
# ``meta.json`` adds to the common ones; ``"converged": False`` among them
# means a solver stopped at a cap.


def cmd_fit(args, out):
    features, labels, result, fields = _fit(args.features, _distances(args.distances),
                                            _hyper_from_args(args), args.threshold)
    write_scores_json(out / "scores.json", result.c, labels=labels)
    write_edges_tsv(out / "edges.tsv", result.theta, threshold=args.threshold)
    write_matrix_csv(out / "theta.csv", result.theta.values)
    write_trace_csv(out / "trace.csv", result.objective_trace)
    return {
        "resolved_M": result.c.budget,
        "n_nodes": features.n_nodes,
        "n_samples": features.n_samples,
        **fields,
    }


def cmd_scores_from_graph(args, out):
    adjacency, labels = read_square_csv(args.graph, _check_adjacency)
    result = scores_from_graph(adjacency, dist=_distances(args.distances), e=args.e, M=args.M)
    write_scores_json(out / "scores.json", result.c, labels=labels)
    return {
        "resolved_M": result.c.budget,
        "objective": result.objective,
        "active_constraints": [list(p) for p in result.active_constraints],
    }


def cmd_glasso(args, out):
    features, _ = read_features_csv(args.features)
    n = features.n_nodes
    dist = _distances(args.distances)
    if args.scores is not None:
        c = read_scores_json(args.scores)
    else:
        c = CoreScores(np.zeros(n), budget=0.0)
    result = fit_graph_given_scores(features, c, dist, hyper=_hyper_from_args(args))
    write_matrix_csv(out / "theta.csv", result.theta.values)
    write_edges_tsv(out / "edges.tsv", result.theta, threshold=args.threshold)
    return {
        "converged": result.converged,
        "iterations": result.iterations,
        "objective": result.objective,
        "kkt_residual": result.kkt_residual,
    }


def cmd_sample(args, out):
    n = args.n
    c_true = planted_scores(
        n, core_frac=args.core_frac, core_value=args.core_value, budget=args.M
    )
    coords = dist = None
    if args.with_coordinates or args.e > 0:
        coords, dist = sample_coordinates(n, seed=args.seed)
    inst = sample_instance(
        n, args.d, c_true, lam=args.lam, e=args.e, dist=dist,
        keep=args.keep, pd_margin=args.pd_margin,
        seed=args.seed,
    )
    # Only after the sampler accepts its inputs, so a rejected run writes nothing.
    if dist is not None:
        write_matrix_csv(out / "coords.csv", coords)
        write_matrix_csv(out / "dist.csv", dist.values)
    write_matrix_csv(out / "features.csv", inst.X.values)
    write_matrix_csv(out / "theta_true.csv", inst.theta_true.values)
    write_scores_json(out / "c_true.json", c_true)
    return {
        "resolved_M": c_true.budget,
        "n_nodes": n,
        "n_samples": args.d,
        "true_edges": _edge_count(inst.theta_true),
    }


def cmd_eval(args, out):
    truth_raw, _ = read_square_csv(args.truth)
    truth = support(truth_raw, args.threshold)
    theta_est, _ = read_square_csv(args.estimate)

    methods = [m for m in args.baselines.split(",") if m] if args.baselines != "none" else []
    scores = {}
    for name, sep, path in args.scores or []:
        if not sep:
            raise CoreglassoError(f"--scores expects NAME=PATH, got {name!r}")
        # One row per NAME: a second file or a baseline would replace it.
        if name in scores or name in methods:
            raise CoreglassoError(f"--scores NAME {name!r} is repeated or a --baselines method")
        scores[name] = read_scores_json(path).values
    for method in methods:
        if method not in _BASELINES:
            raise CoreglassoError(f"unknown baseline {method!r}")
        scores[method] = _BASELINES[method](truth).c
    if not scores:
        raise CoreglassoError("no score vectors: pass --scores or --baselines")

    est_support = support(theta_est, args.threshold)
    rows = compare_methods(truth, est_support if args.binarize_estimate else theta_est,
                           scores, t=args.t)
    precision, recall, f1 = support_recovery(truth, est_support)

    _write_rows(out / "table.csv", [r.values() for r in rows], header=list(rows[0]))
    table = {
        "table": rows,
        "support_recovery": {
            "precision": precision, "recall": recall, "f1": f1,
        },
        "t": _core_size(args.t, truth.shape[0]),
    }
    write_json(out / "table.json", table)
    return table


def cmd_group_compare(args, out):
    group_a = [read_scores_json(p) for p in args.group_a]
    group_b = [read_scores_json(p) for p in args.group_b]
    diff, top = group_compare(group_a, group_b, k=args.k)
    if len(top) < args.k:
        print(f"warning: k={args.k} larger than {len(diff)} nodes; clamping", file=sys.stderr)
    _write_rows(out / "diff.csv", enumerate(diff.tolist()), header=("node", "diff"))
    summary = {
        "k": len(top),
        "top_k": [int(i) for i in top],
        "top_k_diff": [float(diff[i]) for i in top],
    }
    write_json(out / "top.json", summary)
    return summary


def _grid_cell(payload):
    features, _, _, fields = _fit(*payload)
    hyper, n = payload[2], features.n_nodes
    # The grid.csv columns, in order; **fields leaves edges where it is.
    return {
        "lambda": hyper.lam,
        "e": hyper.e,
        "edges": fields["edges"],
        "edge_pct": 100.0 * fields["edges"] / (n * (n - 1) // 2),
        **fields,
    }


def cmd_grid(args, out):
    _check_setting(args.jobs, "jobs", "count")
    lambdas = _floats(args.lambdas, "--lambdas")
    es = _floats(args.es, "--es")
    if not lambdas or not es:
        raise CoreglassoError("empty grid: no lambda or e values")
    base = Hyperparams(lam=lambdas[0], **{k: getattr(args, k) for k in _GRID_HYPER_NAMES})
    # Each cell still reads the features itself, as perfbench's
    # test_counts_repeat_between_runs pins one read per cell (ROADMAP item 8).
    dist = _distances(args.distances)
    cells = [
        (args.features, dist, dataclasses.replace(base, lam=lam, e=e), args.threshold)
        for e in es for lam in lambdas
    ]
    # A pool starts all its workers at once; more than one per cell is waste.
    if args.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(cells))) as pool:
            results = list(pool.map(_grid_cell, cells))
    else:
        results = [_grid_cell(cell) for cell in cells]

    _write_rows(out / "grid.csv", (
        [int(v) if isinstance(v, bool) else v for v in row.values()] for row in results
    ), header=list(results[0]))
    return {"converged": all(r["converged"] for r in results), "cells": results}


# Flags naming input files: meta.json checksums them instead of recording them.
_INPUT_FLAGS = ("features", "distances", "graph", "scores", "truth", "estimate",
                "group_a", "group_b")


def _flag(*args, **kwargs) -> argparse.ArgumentParser:
    """A parent parser declaring one flag that several subcommands share."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*args, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreglasso",
        description=(
            "Learn sparse Gaussian graphical models with core-periphery "
            "structure from node attributes."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    out = _flag("--out", help=f"output directory (default ${OUTDIR_ENV})")
    features = _flag("--features", required=True,
                     help="features CSV: nodes on rows, samples on columns")
    distances = _flag("--distances", help="node distances CSV; required when e > 0")
    threshold = _flag("--threshold", type=float, default=0.0,
                      help="an edge is a pair with |theta_ij| above it (default %(default)s)")

    def command(name, func, help, *parents, **kwargs):
        """Subcommand ``name``, run by ``func``; every subcommand takes --out."""
        p = sub.add_parser(name, parents=[*parents, out], help=help, **kwargs)
        p.set_defaults(func=func)
        return p

    p = command("fit", cmd_fit, "joint graph and core-score estimation",
                features, distances, threshold)
    p.add_argument("--seed", type=int, default=0,
                   help="recorded in meta.json only: fit is deterministic")
    _add_hyper_flags(p)

    p = command("scores-from-graph", cmd_scores_from_graph, "core scores for a known graph",
                distances)
    p.add_argument("--graph", required=True, help="adjacency CSV")
    _add_hyper_flags(p, ("e", "M"))

    p = command("glasso", cmd_glasso, "single weighted graphical lasso solve",
                features, distances, threshold)
    p.add_argument("--scores", help="core scores JSON fixing the weights (default zeros)")
    _add_hyper_flags(p, _GRAPH_STEP_NAMES)

    p = command("sample", cmd_sample, "sample a planted synthetic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    # Library defaults, but sample_instance's lam has none; budget is --M.
    _add_flag(p, "lam", 100.0, "Laplace prior scale (default %(default)s)")
    for func, names in ((planted_scores, ("core_frac", "core_value", "budget")),
                        (sample_instance, ("e", "keep", "pd_margin", "seed"))):
        params = inspect.signature(func).parameters
        for name in names:
            _add_flag(p, "M" if name == "budget" else name, params[name].default)
    p.add_argument("--with-coordinates", action="store_true")

    p = command("eval", cmd_eval, "block-model and recovery metrics", threshold)
    p.add_argument("--truth", required=True, help="ground-truth matrix CSV")
    p.add_argument("--estimate", required=True, help="estimated precision CSV")
    p.add_argument("--scores", action="append", type=lambda item: item.partition("="),
                   help="NAME=PATH score file (repeatable)")
    p.add_argument("--baselines", default=",".join(_BASELINES),
                   help="comma list of graph baselines, or 'none' (default %(default)s)")
    p.add_argument("--t", type=int, default=None, help="core size (default N/4)")
    p.add_argument("--binarize-estimate", action="store_true")

    p = command("group-compare", cmd_group_compare, "normalized mean score difference")
    p.add_argument("--group-a", nargs="+", required=True)
    p.add_argument("--group-b", nargs="+", required=True)
    p.add_argument("--k", type=int, default=10)

    # No abbreviations, or --lambda would pass for --lambdas.
    p = command("grid", cmd_grid, "fit over a lambda (and e) grid",
                features, distances, threshold, allow_abbrev=False)
    p.add_argument("--lambdas", required=True, help="comma list of lambda values")
    p.add_argument("--es", default="0", help="comma list of e values (default %(default)s)")
    p.add_argument("--jobs", type=int, default=1)
    _add_hyper_flags(p, _GRID_HYPER_NAMES)

    return parser


def main(argv=None) -> int:
    """Run one subcommand, write its ``meta.json`` and return the exit code."""
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "threshold"):
            # Before any solve, so a bad edge rule leaves no partial outputs.
            _check_setting(args.threshold, "threshold", "nonnegative")
        out = _out_dir(args)
        meta = _meta(args, args.func(args, out))
        write_json(out / "meta.json", meta)
    except (CoreglassoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if meta.get("converged", True) else 2


if __name__ == "__main__":
    sys.exit(main())

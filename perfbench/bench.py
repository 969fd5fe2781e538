"""Measure one workload: set-up, timed calls, certificates, metrics.

Closed loop with one caller: each call starts after the previous one
returned.  A round makes one call on every instance of the workload's
basket; rounds repeat until the next one would end past ``seconds`` (at
least one round), and ``solve_s`` is the median over rounds of the mean
seconds per call.  Set-up of the basket is repeated ``SETUP_REPEATS``
times and reported as its median.  Certificates and recovery scores are
computed after the timed region, from the arguments and results the spans
captured.
"""

import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

from pathlib import Path

import numpy as np
import scipy

from coreglasso import Hyperparams, bca, cli, corescore, io, support, synth
from coreglasso.metrics import support_recovery
from coreglasso.simplex import simplex_solve

import certify

from spans import Recorder
from workloads import WORKLOADS

SETUP_REPEATS = 7

# (module, attribute callers look up, span name); the span name's prefix
# is the layer, i.e. the module that defines the function.
WRAPS = (
    (bca, "fit", "bca.fit"),
    (cli, "bca_fit", "bca.fit"),
    (bca, "fit_graph_given_scores", "bca.fit_graph_given_scores"),
    (bca, "weighted_glasso", "glasso.weighted_glasso"),
    (bca, "core_score_lp", "corescore.core_score_lp"),
    (bca, "max_core_mass", "corescore.max_core_mass"),
    (corescore, "simplex_solve", "simplex.simplex_solve"),
    (bca, "joint_objective", "model.joint_objective"),
    (bca, "compute_weights", "model.compute_weights"),
    (bca, "empirical_covariance", "model.empirical_covariance"),
    (cli, "read_features_csv", "io.read_features_csv"),
    (cli, "read_square_csv", "io.read_square_csv"),
    (cli, "write_json", "io.write_json"),
    (cli, "main", "cli.main"),
    (synth, "sample_instance", "synth.sample_instance"),
    (cli, "sample_instance", "synth.sample_instance"),
    (cli, "sample_coordinates", "synth.sample_coordinates"),
)

OPERATIONS = ("bca.fit", "bca.fit_graph_given_scores")

CERTIFICATES = {
    "glasso.weighted_glasso": certify.glasso_failures,
    "corescore.core_score_lp": certify.lp_failures,
    "corescore.max_core_mass": certify.max_mass_failures,
}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def warm_up() -> None:
    """One small untimed fit, so lazy BLAS/LAPACK set-up is not timed."""
    rng = np.random.default_rng(0)
    bca.fit(rng.standard_normal((8, 40)), hyper=Hyperparams(lam=0.1))


def run(workload, seed: int, seconds: float, traced: bool, root: Path) -> tuple[dict, Recorder]:
    """Set up, time and certify one workload; the result line and the spans."""
    seeds = [seed * workload.instances + k for k in range(workload.instances)]
    workdir = root / ".perfbench_out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    warm_up()
    rec = Recorder(timed=traced)
    for module, attr, span_name in WRAPS:
        rec.wrap(module, attr, span_name)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            with rec.root("setup"):
                basket = [workload.setup(s, workdir) for s in seeds]
            setup_s.append(time.perf_counter() - t0)

        calls = []  # (root span index, instance, exit code or None if it raised)
        rounds = []  # seconds per call, averaged over one pass over the basket
        start = time.perf_counter()
        while True:
            t_round = time.perf_counter()
            for k, inputs in enumerate(basket):
                index = len(rec.spans)
                calls.append((index, k, call(rec, workload, inputs)))
            took = time.perf_counter() - t_round
            rounds.append(took / len(basket))
            if time.perf_counter() - start + took > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        rec.restore()

    try:
        attempted, failed = certify_calls(rec, calls, workload.units)
        truths = [workload.truth(inputs) for inputs in basket]
        f1 = statistics.median(best_f1(rec, index, truths[k]) for index, k, _ in calls)
        if traced:
            metrics = layer_metrics(rec, [index for index, _, _ in calls], rounds)
        else:
            metrics = {
                "solve_s": (statistics.median(rounds), "s"),
                "setup_s": (statistics.median(setup_s), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "ok_frac": (1.0 - failed / attempted, "frac"),
                "support_f1": (f1, "frac"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, rec


def call(rec: Recorder, workload, inputs):
    """One timed call under a ``solve`` root span; None if it raised."""
    try:
        with rec.root("solve"):
            return workload.operate(inputs)
    except Exception:  # noqa: BLE001 - a call that raises is a failed operation
        traceback.print_exc(file=sys.stderr)
        return None


def certify_calls(rec: Recorder, calls, units: int) -> tuple[int, int]:
    """Attempted and failed operations over all timed calls.

    An operation (fit or graph solve) fails when it raised, did not
    converge, or any glasso, score-LP or max-mass result inside it fails
    its certificate.  A call that raised or exited non-zero fails all of
    its operations.
    """
    ops_of_root: dict[int, list[int]] = {}
    for i, s in enumerate(rec.spans):
        if s.name in OPERATIONS:
            ops_of_root.setdefault(s.root, []).append(i)
    bad = set()
    for i, s in enumerate(rec.spans):
        check = CERTIFICATES.get(s.name)
        if check is None or s.result is None:
            continue
        problems = check(s)
        if problems:
            print(f"certificate: {s.name}: {'; '.join(problems)}", file=sys.stderr)
            bad.add(owner(rec, i))
    for ops in ops_of_root.values():
        for i in ops:
            res = rec.spans[i].result
            if res is None or not res.converged:
                bad.add(i)
    failed = 0
    for index, _, code in calls:
        ops = ops_of_root.get(index, [])
        if code != 0 or len(ops) != units:
            failed += units
        else:
            failed += sum(i in bad for i in ops)
    return units * len(calls), failed


def owner(rec: Recorder, index: int) -> int:
    """Nearest enclosing operation span."""
    i = index
    while i is not None and rec.spans[i].name not in OPERATIONS:
        i = rec.spans[i].parent
    return index if i is None else i


def best_f1(rec: Recorder, root: int, theta_true) -> float:
    """Best support F1 against the planted graph over one call's operations.

    On a grid this is the cell a user would pick; elsewhere a call makes
    one operation.
    """
    truth = support(theta_true)
    return max((support_recovery(truth, support(s.result.theta))[2]
                for s in rec.spans
                if s.root == root and s.name in OPERATIONS and s.result is not None),
               default=0.0)


def layer_metrics(rec: Recorder, roots: list[int], rounds: list[float]) -> dict:
    """Per-layer time and counts per timed call, from the traced spans."""
    n = len(roots)
    roots = set(roots)
    self_s = rec.self_times()
    solve = [(i, s) for i, s in enumerate(rec.spans) if s.root in roots]
    by_name: dict[str, list[tuple[int, object]]] = {}
    for i, s in solve:
        by_name.setdefault(s.name, []).append((i, s))

    def spans(name):
        return [s for _, s in by_name.get(name, [])]

    def total(name):
        return sum(s.duration for s in spans(name)) / n

    def self_total(name):
        return sum(self_s[i] for i, _ in by_name.get(name, [])) / n

    def count(name):
        return len(spans(name)) / n

    def results(name):
        return [s.result for s in spans(name) if s.result is not None]

    def bytes_of(name, func):
        return sum(os.path.getsize(s.arguments(func)["path"]) for s in spans(name)) / n

    lp, mass, simplex = "corescore.core_score_lp", "corescore.max_core_mass", "simplex.simplex_solve"
    glasso = "glasso.weighted_glasso"
    sweeps = sum(r.iterations for r in results(glasso)) / n
    thetas = [r.theta.values for r in results(glasso)]
    off = [((t != 0).sum() - t.shape[0]) / (t.size - t.shape[0]) for t in thetas]
    cli_ids = {i for i, _ in by_name.get("cli.main", [])}
    setup_roots = {i for i, s in enumerate(rec.spans) if s.name == "setup"}
    synth_s = sum(s.duration for s in rec.spans
                  if s.layer == "synth" and s.root in setup_roots)
    m = {
        "corescore.solve_s": (total(lp), "s"),
        "corescore.self_s": (self_total(lp), "s"),
        "corescore.calls": (count(lp), "count"),
        "corescore.pivots": (sum(r.iterations for r in results(lp)) / n, "count"),
        "corescore.active_rows": (max((len(r.active_constraints) for r in results(lp)), default=0), "count"),
        "corescore.max_mass_s": (total(mass), "s"),
        "simplex.solve_s": (total(simplex), "s"),
        "simplex.calls": (count(simplex), "count"),
        "simplex.rows_max": (max((s.arguments(simplex_solve)["a_ub"].shape[0]
                                  for s in spans(simplex)), default=0), "count"),
        "glasso.solve_s": (total(glasso), "s"),
        "glasso.calls": (count(glasso), "count"),
        "glasso.sweeps": (sweeps, "count"),
        "glasso.s_per_sweep": (total(glasso) / sweeps if sweeps else 0.0, "s"),
        "glasso.nnz_frac": (float(np.mean(off)) if off else 0.0, "frac"),
        "glasso.kkt_max": (max((r.kkt_residual for r in results(glasso)), default=0.0), "1"),
        "glasso.unconverged": (sum(not r.converged for r in results(glasso)) / n, "count"),
        "model.objective_s": (total("model.joint_objective"), "s"),
        "model.objective_calls": (count("model.joint_objective"), "count"),
        "model.weights_s": (total("model.compute_weights"), "s"),
        "model.cov_s": (total("model.empirical_covariance"), "s"),
        "bca.self_s": (self_total("bca.fit") + self_total("bca.fit_graph_given_scores"), "s"),
        "bca.outer_iters": (sum(r.outer_iterations for r in results("bca.fit")) / n, "count"),
        "io.read_s": (total("io.read_features_csv"), "s"),
        "io.read_calls": (count("io.read_features_csv"), "count"),
        "io.read_bytes": (bytes_of("io.read_features_csv", io.read_features_csv), "bytes"),
        "io.dist_read_s": (total("io.read_square_csv"), "s"),
        "io.write_s": (total("io.write_json"), "s"),
        "io.write_bytes": (bytes_of("io.write_json", io.write_json), "bytes"),
        "cli.self_s": (self_total("cli.main"), "s"),
        "cli.cells": (sum(s.parent in cli_ids for s in spans("bca.fit")) / n, "count"),
        "synth.sample_s": (synth_s / max(1, len(setup_roots)), "s"),
        "trace.solve_s": (statistics.median(rounds), "s"),
    }
    return m

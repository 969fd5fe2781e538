import argparse
import dataclasses
import hashlib
import inspect
import json
import os
import subprocess
import sys

from pathlib import Path

import numpy as np
import pytest

import coreglasso
from coreglasso import (Hyperparams, cli, compare_methods, compute_weights, empirical_covariance,
                        joint_objective, kkt_residual, support)
from coreglasso.cli import build_parser, main
from coreglasso.io import (
    _write_rows,
    read_features_csv,
    read_scores_json,
    read_square_csv,
    write_matrix_csv,
    write_scores_json,
)
from coreglasso.synth import planted_scores, sample_coordinates, sample_instance

from conftest import NEAR_PAIR8, STAR

FIXTURE = Path(__file__).parent / "data" / "fixture30"


def read_all_bytes(directory):
    return {
        p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())
    }


def star_csv(path):
    write_matrix_csv(path, STAR)
    return path


def labelled_csv(path, values):
    """``values`` as CSV under the non-numeric row labels n0, n1, ..."""
    _write_rows(path, ([f"n{i}", *row] for i, row in enumerate(values.tolist())))
    return path


def near_pair_sample(tmp_path):
    """The features of an 8-node ``sample --with-coordinates`` and its
    distances edited to ``NEAR_PAIR8``, written to ``near.csv``."""
    out = tmp_path / "near"
    assert main(["sample", "--n", "8", "--d", "200", "--with-coordinates", "--out", str(out)]) == 0
    write_matrix_csv(out / "near.csv", NEAR_PAIR8)
    return out / "features.csv", out / "near.csv"


class TestFit:
    def test_outputs_complete(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "fit", "--features", str(FIXTURE / "features.csv"),
            "--lambda", "0.05", "--out", str(out),
        ])
        assert code == 0
        for name in ("scores.json", "edges.tsv", "theta.csv", "trace.csv",
                     "meta.json"):
            assert (out / name).exists()
        meta = json.loads((out / "meta.json").read_text())
        assert meta["resolved_M"] == 30 / 8
        assert meta["converged"] is True
        assert "sha256" in meta["inputs"]["features"]
        # The features file's row labels reach scores.json, and only there.
        x, _ = read_features_csv(FIXTURE / "features.csv")
        labelled = labelled_csv(tmp_path / "labelled.csv", x.values)
        assert main([
            "fit", "--features", str(labelled), "--lambda", "0.05", "--out", str(tmp_path / "l"),
        ]) == 0
        plain, named = (json.loads((d / "scores.json").read_text()) for d in (out, tmp_path / "l"))
        assert plain["labels"] == [str(i) for i in range(30)]
        assert named == {**plain, "labels": [f"n{i}" for i in range(30)]}

    def test_missing_distances_with_coupling(self, tmp_path, capsys):
        for flags, message in (
            (["--e", "0.09"], "e > 0 requires distances"),
            # An infinite penalty would run to the outer cap and write NaN.
            (["--lambda", "inf"], "lam must be finite"),
            # N (1 - eps_w) / 2 = 14.985 at N = 30 and e = 0.
            (["--M", "15"], "maximum feasible core mass 14.985"),
        ):
            code = main([
                "fit", "--features", str(FIXTURE / "features.csv"),
                *flags, "--out", str(tmp_path / "o"),
            ])
            assert code == 1
            assert message in capsys.readouterr().err

    def test_near_pair_fit_starts_inside_the_bounds(self, tmp_path):
        # At M = 2.65 half the pairwise bounds hold less than M, the bounds up
        # to 2.699, so the default start is the score LP's vertex.
        features, near = near_pair_sample(tmp_path)
        for flags in ([], ["--M", "2.65"]):
            out = tmp_path / "_".join(["o", *flags])
            assert main(["fit", "--features", str(features), "--distances", str(near),
                         "--e", "0.09", *flags, "--out", str(out)]) == 0
            meta = json.loads((out / "meta.json").read_text())
            assert meta["converged"] is True
            theta, _ = read_square_csv(out / "theta.csv")
            c = read_scores_json(out / "scores.json")
            hyper = Hyperparams(**{f.name: meta["parameters"][f.name]
                                   for f in dataclasses.fields(Hyperparams)})
            s = empirical_covariance(read_features_csv(features)[0], hyper.ridge)
            w = compute_weights(c, NEAR_PAIR8, hyper.e)
            assert kkt_residual(theta, s, w, hyper.lam) <= hyper.glasso_tol
            # The recorded objective is the joint objective of the written
            # theta and scores, and the trace has a graph and a scores row
            # per outer iteration.
            assert joint_objective(theta, c, s, hyper, NEAR_PAIR8) == pytest.approx(
                meta["objective"], rel=1e-12, abs=0)
            trace = [line.split(",")[:2] for line in (out / "trace.csv").read_text().splitlines()]
            assert trace == [["outer_iter", "half_step"]] + [
                [str(k), step] for k in range(1, meta["outer_iterations"] + 1)
                for step in ("graph", "scores")]

    def test_malformed_features(self, tmp_path, capsys):
        # A parse error names the file and its line.
        bad = tmp_path / "bad.csv"
        for text, message in (
            ("1.0,2.0\n3.0,oops\n", "non-numeric value 'oops'"),
            ("1.0,2.0\n" + "1" * 131073 + ",2.0\n", "field larger than field limit (131072)"),
        ):
            bad.write_text(text)
            code = main(["fit", "--features", str(bad), "--out", str(tmp_path / "o")])
            assert code == 1
            assert capsys.readouterr().err == f"error: {bad}:2: {message}\n"

    def test_iteration_cap_exit_two(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "fit", "--features", str(FIXTURE / "features.csv"),
            "--lambda", "0.05", "--bca-max-iter", "1", "--out", str(out),
        ])
        assert code == 2
        assert (out / "scores.json").exists()

    def test_capped_graph_step_exit_two(self, tmp_path):
        # d < N without ridge: the first graph step hits its sweep cap, so
        # the fit stops there unconverged, with exit code 2.
        inst = sample_instance(30, 5, planted_scores(30), lam=100.0, seed=0)
        features = tmp_path / "x.csv"
        write_matrix_csv(features, inst.X.values)
        out = tmp_path / "o"
        code = main([
            "fit", "--features", str(features), "--lambda", "0.2",
            "--glasso-max-iter", "20",
            "--out", str(out),
        ])
        assert code == 2
        meta = json.loads((out / "meta.json").read_text())
        assert meta["converged"] is False and meta["outer_iterations"] == 1

    def test_default_flags_are_hyperparams_defaults(self, tmp_path):
        out = tmp_path / "o"
        assert main([
            "fit", "--features", str(FIXTURE / "features.csv"), "--out", str(out),
        ]) == 0
        params = json.loads((out / "meta.json").read_text())["parameters"]
        expected = dataclasses.asdict(Hyperparams(lam=0.1))
        assert {k: params[k] for k in expected} == expected

    def test_outdir_from_environment(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("COREGLASSO_OUTDIR", raising=False)
        assert main(["fit", "--features", str(FIXTURE / "features.csv")]) == 1
        assert "no output directory" in capsys.readouterr().err
        target = tmp_path / "env_out"
        monkeypatch.setenv("COREGLASSO_OUTDIR", str(target))
        code = main([
            "fit", "--features", str(FIXTURE / "features.csv"),
            "--lambda", "0.08",
        ])
        assert code == 0
        assert (target / "scores.json").exists()


class TestScoresFromGraph:
    def test_star_hub_top_ranked(self, tmp_path):
        # The graph file's row labels, if any, reach scores.json.
        for graph, labels in ((star_csv(tmp_path / "star.csv"), [str(i) for i in range(5)]),
                              (labelled_csv(tmp_path / "labelled.csv", STAR),
                               [f"n{i}" for i in range(5)])):
            out = tmp_path / graph.stem
            assert main([
                "scores-from-graph", "--graph", str(graph), "--M", "1.0",
                "--out", str(out),
            ]) == 0
            scores = read_scores_json(out / "scores.json")
            assert np.argmax(scores.values) == 0
            assert scores.values[0] == pytest.approx(2.996 / 3.0, abs=1e-8)
            assert json.loads((out / "scores.json").read_text())["labels"] == labels

    def test_empty_graph_tie_break(self, tmp_path):
        empty = tmp_path / "empty.csv"
        write_matrix_csv(empty, np.zeros((4, 4)))
        out = tmp_path / "o"
        assert main([
            "scores-from-graph", "--graph", str(empty), "--M", "0.9",
            "--out", str(out),
        ]) == 0
        scores = read_scores_json(out / "scores.json")
        np.testing.assert_allclose(scores.values, [0.9, 0, 0, 0])

    def test_asymmetric_graph_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,1.0\n0.0,0.0\n")
        code = main([
            "scores-from-graph", "--graph", str(bad),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "symmetric" in capsys.readouterr().err


class TestGlasso:
    def test_zero_scores_default(self, tmp_path):
        out = tmp_path / "o"
        code = main([
            "glasso", "--features", str(FIXTURE / "features.csv"),
            "--lambda", "0.1", "--out", str(out),
        ])
        assert code == 0
        theta, _ = read_square_csv(out / "theta.csv")
        assert theta.shape == (30, 30)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["converged"] is True and meta["kkt_residual"] <= 1e-5
        s = empirical_covariance(read_features_csv(FIXTURE / "features.csv")[0])
        assert kkt_residual(theta, s, compute_weights(np.zeros(30)), 0.1) <= 1e-5
        # Only the fields the graph step reads, plus the edge threshold.
        assert set(meta["parameters"]) == {
            "lam", "e", "glasso_tol", "glasso_max_iter", "ridge", "threshold",
        }

    def test_scores_violating_pairwise_bound_rejected(self, tmp_path, capsys):
        values = [0.75, 0.75] + [0.0] * 28
        scores = tmp_path / "c.json"
        scores.write_text(json.dumps({"values": values, "M": 1.5}))
        code = main([
            "glasso", "--features", str(FIXTURE / "features.csv"),
            "--scores", str(scores), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "pairwise bound" in capsys.readouterr().err

    def test_scores_with_nan_budget_rejected(self, tmp_path, capsys):
        scores = tmp_path / "c.json"
        scores.write_text(json.dumps({"values": [0.0] * 30, "M": float("nan")}))
        code = main([
            "glasso", "--features", str(FIXTURE / "features.csv"),
            "--scores", str(scores), "--out", str(tmp_path / "o"),
        ])
        assert code == 1
        assert "budget is nan" in capsys.readouterr().err


class TestSample:
    def test_reproducible(self, tmp_path):
        args = ["sample", "--n", "8", "--d", "40", "--seed", "13"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert read_all_bytes(tmp_path / "a") == read_all_bytes(tmp_path / "b")

    def test_minimal_instance(self, tmp_path):
        out = tmp_path / "o"
        assert main([
            "sample", "--n", "2", "--d", "3", "--out", str(out),
        ]) == 0
        theta, _ = read_square_csv(out / "theta_true.csv")
        np.linalg.cholesky(theta)

    def test_theta_true_pd(self, tmp_path):
        out = tmp_path / "o"
        assert main([
            "sample", "--n", "10", "--d", "5", "--seed", "3",
            "--out", str(out),
        ]) == 0
        theta, _ = read_square_csv(out / "theta_true.csv")
        assert np.linalg.eigvalsh(theta).min() > 0

    def test_flag_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(["sample", "--n", "4", "--d", "2"])
        params = {**inspect.signature(planted_scores).parameters,
                  **inspect.signature(sample_instance).parameters}
        for name in ("core_frac", "core_value", "e", "keep", "pd_margin", "seed"):
            assert getattr(args, name) == params[name].default, name
        assert args.M is params["budget"].default

    def test_keep_sets_the_true_edge_count(self, tmp_path):
        # At N = 40, --keep 0.1 keeps 78 of the 780 drawn pairs.
        out = tmp_path / "o"
        assert main(["sample", "--n", "40", "--d", "200", "--seed", "2", "--keep", "0.1",
                     "--out", str(out)]) == 0
        assert json.loads((out / "meta.json").read_text())["true_edges"] == 78

    def test_coordinates_written_when_coupled(self, tmp_path):
        out = tmp_path / "o"
        assert main([
            "sample", "--n", "6", "--d", "4", "--e", "0.09",
            "--out", str(out),
        ]) == 0
        assert (out / "dist.csv").exists()
        assert (out / "coords.csv").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--n", "6", "--d", "4", "--with-coordinates", "--keep", "1.5"],
         "keep must be at most 1"),
        (["--n", "60", "--d", "50", "--e", "0.09"], "violate the pairwise bound"),
    ], ids=["keep", "bound"])
    def test_rejected_run_writes_nothing(self, tmp_path, capsys, flags, message):
        # Coordinates are written only once the sampler accepts its inputs.
        out = tmp_path / "o"
        assert main(["sample", *flags, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert list(out.iterdir()) == []


class TestEval:
    @pytest.fixture
    def fitted(self, tmp_path):
        sample_dir = tmp_path / "s"
        fit_dir = tmp_path / "f"
        assert main(["sample", "--n", "12", "--d", "400", "--seed", "2",
                     "--out", str(sample_dir)]) == 0
        assert main(["fit", "--features", str(sample_dir / "features.csv"),
                     "--lambda", "0.05", "--out", str(fit_dir)]) == 0
        return sample_dir, fit_dir

    def test_perfect_estimate_f1_one(self, tmp_path):
        sample_dir = tmp_path / "s"
        assert main(["sample", "--n", "10", "--d", "20", "--seed", "4",
                     "--out", str(sample_dir)]) == 0
        out = tmp_path / "e"
        code = main([
            "eval", "--truth", str(sample_dir / "theta_true.csv"),
            "--estimate", str(sample_dir / "theta_true.csv"),
            "--baselines", "kcores", "--out", str(out),
        ])
        assert code == 0
        table = json.loads((out / "table.json").read_text())
        assert table["support_recovery"]["f1"] == 1.0

    def test_table_schema(self, fitted, tmp_path):
        sample_dir, fit_dir = fitted
        out = tmp_path / "e"
        code = main([
            "eval", "--truth", str(sample_dir / "theta_true.csv"),
            "--estimate", str(fit_dir / "theta.csv"),
            "--scores", f"proposed={fit_dir / 'scores.json'}",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "table.csv").read_text().splitlines()
        assert lines[0] == "method,dist_truth,dist_estimate"
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["proposed", "minres", "kcores"]

    def test_default_core_size_matches_library(self, fitted, tmp_path):
        # eval without --t uses the library's core-size rule, floor(N/4);
        # --binarize-estimate measures the estimate's support instead.
        sample_dir, fit_dir = fitted
        truth = support(read_square_csv(sample_dir / "theta_true.csv")[0])
        theta, _ = read_square_csv(fit_dir / "theta.csv")
        n = truth.shape[0]
        scores = {"proposed": read_scores_json(fit_dir / "scores.json").values}
        for flags, estimate in (([], theta), (["--binarize-estimate"], support(theta))):
            out = tmp_path / f"e{len(flags)}"
            assert main([
                "eval", "--truth", str(sample_dir / "theta_true.csv"),
                "--estimate", str(fit_dir / "theta.csv"),
                "--scores", f"proposed={fit_dir / 'scores.json'}",
                "--baselines", "none", *flags, "--out", str(out),
            ]) == 0
            table = json.loads((out / "table.json").read_text())
            assert table["t"] == n // 4
            assert table["table"] == compare_methods(truth, estimate, scores, t=n // 4)

    def test_missing_truth_file(self, tmp_path, capsys):
        star = str(star_csv(tmp_path / "star.csv"))
        eye = tmp_path / "eye4.csv"
        write_matrix_csv(eye, np.eye(4))
        scores = tmp_path / "c5.json"
        write_scores_json(scores, planted_scores(5))
        for inputs, message in (
            ([str(tmp_path / "nope.csv")] * 2, "nope.csv"),
            # A negative threshold would make every pair an edge.
            ([star, star, "--threshold", "-0.5"], "threshold must be finite and nonnegative"),
            ([star, star, "--threshold", "nan"], "threshold must be finite and nonnegative"),
            ([star, star, "--threshold", "inf"], "threshold must be finite and nonnegative"),
            # One table row per NAME: a repeat or a baseline would drop a file.
            ([star, star, "--scores", f"a={scores}", "--scores", f"a={scores}"],
             "NAME 'a' is repeated"),
            ([star, star, "--scores", f"minres={scores}"], "NAME 'minres' is repeated or a"),
            ([star, str(eye), "--scores", f"a={scores}"], "estimate is 4x4, truth is 5x5"),
            ([star, star, "--baselines", "minres,pagerank"], "unknown baseline 'pagerank'"),
            ([star, star, "--scores", str(scores)], "--scores expects NAME=PATH"),
            ([star, star, "--baselines", "none"], "no score vectors"),
        ):
            truth, estimate, *flags = inputs
            code = main([
                "eval", "--truth", truth, "--estimate", estimate, *flags,
                "--out", str(tmp_path / "e"),
            ])
            assert code == 1
            assert message in capsys.readouterr().err
            assert not (tmp_path / "e" / "table.csv").exists()


class TestGroupCompare:
    def write_scores(self, path, values):
        payload = {
            "labels": [str(i) for i in range(len(values))],
            "values": list(values),
            "M": float(sum(values)),
        }
        Path(path).write_text(json.dumps(payload))
        return str(path)

    def test_identical_groups(self, tmp_path):
        a = self.write_scores(tmp_path / "a.json", [0.5, 0.25, 0.25])
        b = self.write_scores(tmp_path / "b.json", [0.5, 0.25, 0.25])
        out = tmp_path / "o"
        code = main([
            "group-compare", "--group-a", a, "--group-b", b,
            "--k", "2", "--out", str(out),
        ])
        assert code == 0
        top = json.loads((out / "top.json").read_text())
        assert top["top_k_diff"] == [0.0, 0.0]

    def test_k_clamped_with_warning(self, tmp_path, capsys):
        a = self.write_scores(tmp_path / "a.json", [0.5, 0.5])
        b = self.write_scores(tmp_path / "b.json", [0.25, 0.75])
        code = main([
            "group-compare", "--group-a", a, "--group-b", b,
            "--k", "10", "--out", str(tmp_path / "o"),
        ])
        assert code == 0
        assert "clamping" in capsys.readouterr().err
        top = json.loads((tmp_path / "o" / "top.json").read_text())
        assert top["k"] == 2 and sorted(top["top_k"]) == [0, 1]

    def test_single_file_groups(self, tmp_path):
        a = self.write_scores(tmp_path / "a.json", [0.2, 0.2, 0.6])
        b = self.write_scores(tmp_path / "b.json", [0.6, 0.2, 0.2])
        out = tmp_path / "o"
        code = main([
            "group-compare", "--group-a", a, "--group-b", b,
            "--k", "1", "--out", str(out),
        ])
        assert code == 0
        top = json.loads((out / "top.json").read_text())
        assert top["top_k"] == [0]


class TestGrid:
    def test_edge_count_nonincreasing_in_lambda(self, tmp_path):
        out = tmp_path / "g"
        code = main([
            "grid", "--features", str(FIXTURE / "features.csv"),
            "--lambdas", "0.03,0.08,0.2", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "grid.csv").read_text().splitlines()[1:]
        edges = [int(line.split(",")[2]) for line in lines]
        assert edges == sorted(edges, reverse=True)

    def test_empty_grid_exit_one(self, tmp_path, capsys):
        for grid, message in (
            (["--lambdas", ""], "empty grid"),
            (["--lambdas", "0.1,abc"], "--lambdas expects a comma list"),
            (["--lambdas", "0.1", "--es", "0,x"], "--es expects a comma list"),
            (["--lambdas", "0.1,inf"], "lam must be finite"),
            (["--lambdas", "0.1", "--jobs", "0"], "jobs must be a whole number >= 1"),
            (["--lambdas", "0.1", "--es", "0.09"], "e > 0 requires distances"),
        ):
            code = main([
                "grid", "--features", str(FIXTURE / "features.csv"),
                *grid, "--out", str(tmp_path / "g"),
            ])
            assert code == 1
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--lambda", "0.05"], ["--seed", "1"], ["--e", "0.09"]],
                             ids=["lambda", "seed", "e"])
    def test_fit_only_flags_rejected(self, tmp_path, capsys, flag):
        # Cells take lambda from --lambdas and e from --es, and a fit uses no seed.
        with pytest.raises(SystemExit) as exc:
            main([
                "grid", "--features", str(FIXTURE / "features.csv"),
                "--lambdas", "0.05", *flag, "--out", str(tmp_path / "g"),
            ])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_size_one_grid_matches_fit(self, tmp_path):
        grid_out = tmp_path / "g"
        fit_out = tmp_path / "f"
        assert main([
            "grid", "--features", str(FIXTURE / "features.csv"),
            "--lambdas", "0.05", "--out", str(grid_out),
        ]) == 0
        assert main([
            "fit", "--features", str(FIXTURE / "features.csv"),
            "--lambda", "0.05", "--out", str(fit_out),
        ]) == 0
        cell = json.loads((grid_out / "meta.json").read_text())["cells"][0]
        meta = json.loads((fit_out / "meta.json").read_text())
        assert cell["edges"] == meta["edges"]
        assert cell["objective"] == pytest.approx(meta["objective"], abs=1e-12)

    def test_near_pair_grid(self, tmp_path):
        features, near = near_pair_sample(tmp_path)
        for flags in ([], ["--M", "2.65"]):
            out = tmp_path / "_".join(["g", *flags])
            assert main(["grid", "--features", str(features), "--distances", str(near),
                         "--lambdas", "0.05,0.1", "--es", "0,0.09", *flags, "--out", str(out)]) == 0
            assert len((out / "grid.csv").read_text().splitlines()) == 1 + 4

    def test_distances_read_once(self, tmp_path, monkeypatch):
        # The cells share one parsed DistanceMatrix.
        dist = tmp_path / "d.csv"
        write_matrix_csv(dist, sample_coordinates(30, seed=0)[1].values)
        calls = []

        def counting(path, *args, **kwargs):
            calls.append(path)
            return read_square_csv(path, *args, **kwargs)

        monkeypatch.setattr(cli, "read_square_csv", counting)
        assert main([
            "grid", "--features", str(FIXTURE / "features.csv"), "--distances", str(dist),
            "--lambdas", "0.05,0.1", "--es", "0,0.09", "--out", str(tmp_path / "g"),
        ]) == 0
        assert calls == [str(dist)]

    @pytest.mark.parametrize("with_distances", [False, True], ids=["features", "distances"])
    def test_parallel_jobs_deterministic(self, tmp_path, with_distances):
        serial = tmp_path / "s"
        parallel = tmp_path / "p"
        base = [
            "grid", "--features", str(FIXTURE / "features.csv"),
            "--lambdas", "0.05,0.1",
        ]
        if with_distances:
            # The pool sends the parsed DistanceMatrix to its workers.
            dist = tmp_path / "d.csv"
            write_matrix_csv(dist, sample_coordinates(30, seed=0)[1].values)
            base += ["--distances", str(dist), "--es", "0,0.09"]
        assert main(base + ["--out", str(serial)]) == 0
        assert main(base + ["--jobs", "2", "--out", str(parallel)]) == 0
        assert (serial / "grid.csv").read_bytes() == (parallel / "grid.csv").read_bytes()
        if with_distances:
            # Cells run over lambda within e, on the one distances file checksummed.
            meta = json.loads((parallel / "meta.json").read_text())
            assert [(c["lambda"], c["e"]) for c in meta["cells"]] == [
                (0.05, 0.0), (0.1, 0.0), (0.05, 0.09), (0.1, 0.09)]
            assert meta["inputs"]["distances"]["sha256"] == hashlib.sha256(
                dist.read_bytes()).hexdigest()

    def test_jobs_capped_at_cell_count(self, tmp_path, monkeypatch):
        # A process pool starts all its workers at once, so it gets at most
        # one per cell; this stand-in runs the cells in-process.
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
        base = ["grid", "--features", str(FIXTURE / "features.csv"), "--jobs", "500"]
        assert main(base + ["--lambdas", "0.05,0.1", "--out", str(tmp_path / "two")]) == 0
        assert main(base + ["--lambdas", "0.1", "--out", str(tmp_path / "one")]) == 0
        assert pools == [2]


@pytest.mark.parametrize("command, flag", [
    ("fit", ["--lp-tol", "1e-6"]),
    ("glasso", ["--bca-max-iter", "1"]),
    ("glasso", ["--M", "1"]),
    ("fit", ["--eps-w", "1e-3"]),
    ("glasso", ["--eps-w", "1e-3"]),
    ("grid", ["--eps-w", "1e-3"]),
    ("scores-from-graph", ["--eps-w", "nan"]),
    ("fit", ["--bca-rel-tol", "1e-5"]),
    ("grid", ["--bca-rel-tol", "1e-5"]),
], ids=["fit-lp-tol", "glasso-bca-max-iter", "glasso-M", "fit-eps-w", "glasso-eps-w",
        "grid-eps-w", "scores-from-graph-eps-w", "fit-bca-rel-tol", "grid-bca-rel-tol"])
def test_unused_flags_rejected(tmp_path, capsys, command, flag):
    # A flag the command would not apply does not exist.
    features = str(FIXTURE / "features.csv")
    required = {
        "grid": ["--features", features, "--lambdas", "0.1"],
        "scores-from-graph": ["--graph", str(star_csv(tmp_path / "star.csv"))],
    }.get(command, ["--features", features])
    with pytest.raises(SystemExit) as exc:
        main([command, *required, *flag, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    ([], "the following arguments are required: --features"),
    (["--features", str(FIXTURE / "features.csv"), "--lambda", "abc"],
     "argument --lambda: invalid float value: 'abc'"),
], ids=["missing-required", "unparsable-number"])
def test_usage_error_exits_two(tmp_path, capsys, flags, message):
    # argparse rejects the command line before any run: exit 2, a usage
    # message and no meta.json, as for an unknown flag.
    with pytest.raises(SystemExit) as exc:
        main(["fit", *flags, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: coreglasso fit") and message in err
    assert not (tmp_path / "o").exists()


def _subparsers():
    """The parser of each subcommand of ``build_parser()``, by name."""
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


# The option strings of each subcommand: a flag gained or lost fails here.
_HELP = {"-h", "--help"}
_GRAPH_STEP = {"--lambda", "--e", "--glasso-tol", "--glasso-max-iter", "--ridge"}
_SURFACE = {
    "fit": _HELP | _GRAPH_STEP | {"--features", "--distances", "--out", "--threshold",
                                  "--seed", "--M", "--bca-max-iter"},
    "scores-from-graph": _HELP | {"--graph", "--distances", "--out", "--e", "--M"},
    "glasso": _HELP | _GRAPH_STEP | {"--features", "--distances", "--out", "--threshold",
                                     "--scores"},
    "sample": _HELP | {"--n", "--d", "--out", "--lambda", "--core-frac", "--core-value", "--M",
                       "--e", "--keep", "--pd-margin", "--seed", "--with-coordinates"},
    "eval": _HELP | {"--truth", "--estimate", "--scores", "--baselines", "--threshold", "--t",
                     "--binarize-estimate", "--out"},
    "group-compare": _HELP | {"--group-a", "--group-b", "--k", "--out"},
    "grid": _HELP | {"--features", "--distances", "--out", "--threshold", "--lambdas", "--es",
                     "--jobs", "--M", "--glasso-tol", "--bca-max-iter", "--glasso-max-iter",
                     "--ridge"},
}


def test_option_strings_per_subcommand():
    assert {
        name: {s for action in p._actions for s in action.option_strings}
        for name, p in _subparsers().items()
    } == _SURFACE


@pytest.mark.parametrize("dest", ["out", "features", "distances", "threshold"])
def test_shared_flag_is_one_declaration(dest):
    # A flag several subcommands take means the same, and says so, in each.
    seen = {
        (action.dest, action.type, action.default, action.required, action.help)
        for p in _subparsers().values() for action in p._actions if action.dest == dest
    }
    assert len(seen) == 1, seen
    assert seen.pop()[-1], f"--{dest} has no help"


def _with(a, value, *cells):
    """A copy of ``a`` with ``value`` at each of the (i, j) ``cells``."""
    a = np.array(a, dtype=float)
    for cell in cells:
        a[cell] = value
    return a


_FEATURES = str(FIXTURE / "features.csv")


@pytest.mark.parametrize("values, argv, message", [
    (_with(np.ones((4, 6)), np.nan, (2, 3)), ["fit", "--features", "{bad}"],
     "feature matrix contains non-finite entries"),
    (_with(sample_coordinates(30, seed=0)[1].values, -1.0, (3, 7), (7, 3)),
     ["fit", "--features", _FEATURES, "--distances", "{bad}"],
     "distance matrix has negative entries"),
    (_with(STAR, 1.0, (2, 2)), ["scores-from-graph", "--graph", "{bad}"],
     "adjacency must have a zero diagonal"),
    (_with(STAR, -1.0, (1, 3), (3, 1)), ["scores-from-graph", "--graph", "{bad}"],
     "adjacency must be nonnegative"),
    (_with(STAR, 1.0, (1, 2)), ["eval", "--truth", "{bad}", "--estimate", "{star}"],
     "matrix must be symmetric"),
    (_with(STAR, np.nan, (0, 1), (1, 0)), ["eval", "--truth", "{star}", "--estimate", "{bad}"],
     "matrix contains non-finite entries"),
    (b'{"values": [NaN, 0.5], "M": 0.5}', ["glasso", "--features", _FEATURES, "--scores", "{bad}"],
     "core scores must be a finite 1-D vector, got shape (2,)"),
    (b'{"values": [], "M": 0.0}', ["group-compare", "--group-a", "{bad}", "--group-b", "{bad}"],
     "core scores must be non-empty, got shape (0,)"),
    # A UTF-16 byte-order mark, and a Latin-1 label.
    (b"\xff\xfe1,2\n", ["fit", "--features", "{bad}"], "not UTF-8 text (invalid start byte)"),
    (b'{"labels": ["\xe9"], "values": [1.0], "M": 1.0}',
     ["group-compare", "--group-a", "{bad}", "--group-b", "{bad}"],
     "not UTF-8 text (invalid continuation byte)"),
], ids=["features-nan", "distances-negative", "graph-diagonal", "graph-negative",
        "truth-asymmetric", "estimate-nan", "scores-nan", "scores-empty", "features-not-utf8",
        "scores-not-utf8"])
def test_bad_file_contents_name_the_file(tmp_path, capsys, values, argv, message):
    # io only parses; the value types judge each file, and the message
    # starts with the path of the file that broke the rule.
    bad = tmp_path / "bad"
    if isinstance(values, bytes):
        bad.write_bytes(values)
    else:
        write_matrix_csv(bad, values)
    star = star_csv(tmp_path / "star.csv")
    argv = [arg.format(bad=bad, star=star) for arg in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    assert not (tmp_path / "o" / "meta.json").exists()


def test_module_entry_point_exit_codes(tmp_path):
    # ``python -m coreglasso.cli`` ends the process with main's code: 0 done,
    # 1 a rejected input, 2 a run stopped at a solver cap.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(coreglasso.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    for flags, code in ((["--features", _FEATURES], 0),
                        (["--features", str(tmp_path / "nope.csv")], 1),
                        (["--features", _FEATURES, "--glasso-max-iter", "1"], 2)):
        run = subprocess.run([sys.executable, "-m", "coreglasso.cli", "fit", *flags,
                              "--out", str(tmp_path / str(code))], capture_output=True, text=True,
                             env=env)
        assert run.returncode == code, run.stderr
        assert (tmp_path / str(code) / "meta.json").exists() == (code != 1)


def _contract_runs(tmp_path):
    """Per subcommand: flags of a run that finishes, and of runs that fail.

    Each finishing run passes every input-file flag its command has.
    """
    features = str(FIXTURE / "features.csv")
    star = str(star_csv(tmp_path / "star.csv"))
    scores = tmp_path / "c.json"
    scores.write_text(json.dumps({"values": [0.5, 0.25, 0.25], "M": 1.0}))
    dist30, dist12, dist5 = tmp_path / "d30.csv", tmp_path / "d12.csv", tmp_path / "d5.csv"
    write_matrix_csv(dist30, sample_coordinates(30, seed=0)[1].values)
    write_matrix_csv(dist12, sample_coordinates(12, seed=0)[1].values)
    write_matrix_csv(dist5, sample_coordinates(5, seed=0)[1].values)
    scores30, scores5 = tmp_path / "c30.json", tmp_path / "c5.json"
    write_scores_json(scores30, planted_scores(30))
    write_scores_json(scores5, planted_scores(5))
    missing = str(tmp_path / "nope.csv")
    return {
        "fit": (["--features", features, "--distances", str(dist30), "--bca-max-iter", "2"], [
            ["--features", missing],
            ["--features", features, "--threshold", "nan"],
            # Distances of the wrong size, even at e = 0.
            ["--features", features, "--distances", str(dist12)],
        ]),
        "scores-from-graph": (["--graph", star, "--distances", str(dist5)], [
            ["--graph", missing],
            ["--graph", star, "--e", "-0.5"],
            ["--graph", str(dist30), "--distances", str(dist12)],
        ]),
        "glasso": (["--features", features, "--scores", str(scores30),
                    "--distances", str(dist30)], [
            ["--features", missing],
            ["--features", features, "--threshold", "inf"],
            ["--features", features, "--distances", str(dist12)],
        ]),
        "sample": (["--n", "8", "--d", "40"], [
            ["--n", "8", "--d", "0"],
            ["--n", "1", "--d", "5"],
            ["--n", "0", "--d", "5"],
            ["--n", "-2", "--d", "5"],
            ["--n", "8", "--d", "5", "--lambda", "inf"],
            ["--n", "8", "--d", "5", "--pd-margin", "inf"],
            ["--n", "8", "--d", "5", "--keep", "nan"],
            ["--n", "8", "--d", "5", "--e", "nan"],
            ["--n", "8", "--d", "5", "--e", "-1"],
        ]),
        "eval": (["--truth", star, "--estimate", star, "--scores", f"planted={scores5}",
                  "--baselines", "kcores"],
                 [["--truth", missing, "--estimate", star]]),
        "group-compare": (["--group-a", str(scores), "--group-b", str(scores), "--k", "1"],
                          [["--group-a", missing, "--group-b", str(scores)]]),
        "grid": (["--features", features, "--distances", str(dist30), "--lambdas", "0.1",
                  "--bca-max-iter", "2"], [
            ["--features", missing, "--lambdas", "0.1"],
            ["--features", features, "--lambdas", "0.1", "--threshold", "nan"],
        ]),
    }


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in meta.json")


@pytest.mark.parametrize("command", [
    "fit", "scores-from-graph", "glasso", "sample", "eval", "group-compare", "grid",
])
def test_meta_json_contract(tmp_path, capsys, command):
    ok, failing = _contract_runs(tmp_path)[command]
    out = tmp_path / "ok"
    assert main([command, *ok, "--out", str(out)]) in (0, 2)
    # Strict JSON: NaN or Infinity in meta.json fails the contract.
    meta = json.loads((out / "meta.json").read_text(), parse_constant=_reject_constant)
    assert meta["command"] == command
    assert {"version", "parameters", "inputs"} <= meta.keys()
    # The record names every flag: as a parameter, or as checksummed input
    # files (a list flag's files keyed <flag>_<i>).
    parsed = vars(build_parser().parse_args([command, *ok, "--out", str(out)]))
    for key in parsed.keys() - {"command", "func", "out"}:
        files = [name for name in meta["inputs"] if name == key or name.startswith(f"{key}_")]
        assert key in meta["parameters"] or files, key
        assert not (key in meta["parameters"] and files), key

    for flags in failing:
        out = tmp_path / "failing"
        assert main([command, *flags, "--out", str(out)]) == 1, flags
        assert capsys.readouterr().err.startswith("error: "), flags
        assert not (out / "meta.json").exists()

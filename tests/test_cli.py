import json

import numpy as np
import pytest

from hdsl.cli import main
from hdsl.model import deserialize
from hdsl.sparse_data import Dataset, SparseVector, parse_libsvm, serialize_libsvm


@pytest.fixture
def labeled_file(tmp_path):
    rng = np.random.default_rng(0)
    pts, labels = [], []
    for c in range(2):
        for _ in range(12):
            base = np.arange(c * 4, c * 4 + 3)
            extra = rng.choice(np.arange(8, 20), 2, replace=False)
            idx = np.sort(np.concatenate([base, extra]))
            pts.append(SparseVector(idx, rng.uniform(0.3, 1.0, idx.size), 20))
            labels.append(c)
    ds = Dataset(pts, labels, dim=20)
    path = tmp_path / "train.svm"
    path.write_text(serialize_libsvm(ds))
    return path


def run(args):
    return main([str(a) for a in args])


RECOVERY = ["synth", "recovery", "--d", 40, "--bases", 5, "--n", 40, "--triplets", 100]
LINK = ["synth", "link", "--d", 300, "--n", 60, "--links", 90, "--per-link", 2,
        "--bases", 10, "--avg-sparsity", 0.06]


class TestTrain:
    def test_deterministic_model_file(self, tmp_path, labeled_file, capsys):
        outs = []
        for rep in range(2):
            out = tmp_path / f"m{rep}.hdsl"
            code = run(
                ["train", "--data", labeled_file, "--lambda", 5, "--iters", 30,
                 "--oracle", "exact", "--seed", 1, "--out", out]
            )
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    def test_missing_data_file_exits_3(self, tmp_path, capsys):
        code = run(["train", "--data", tmp_path / "absent.svm", "--lambda", 1,
                    "--out", tmp_path / "m.hdsl"])
        assert code == 3

    def test_non_finite_data_exits_3(self, tmp_path, capsys):
        data = tmp_path / "nan.svm"
        data.write_text("0 1:1.0\n1 1:nan 2:inf\n")
        code = run(["train", "--data", data, "--lambda", 1, "--out", tmp_path / "m.hdsl"])
        assert code == 3

    def test_bad_flags_exit_2(self, labeled_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", labeled_file, "--out", tmp_path / "m.hdsl"])
        assert exc.value.code == 2

    def test_history_jsonl_schema(self, tmp_path, labeled_file, capsys):
        hist = tmp_path / "h.jsonl"
        code = run(["train", "--data", labeled_file, "--lambda", 5, "--iters", 20,
                    "--seed", 0, "--out", tmp_path / "m.hdsl", "--history", hist])
        assert code == 0
        rows = [json.loads(line) for line in hist.read_text().splitlines()]
        assert rows
        for row in rows:
            assert {"k", "objective", "gap", "step", "gamma", "atoms", "features"} <= set(row)
            assert row["step"] in ("F", "A")
        # the summary: the last row's certified gap, and the rows whose
        # oracle ran; a lazy row's gap is null
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == len(rows)
        assert summary["gap"] == rows[-1]["gap"] is not None
        assert summary["oracle_calls"] == sum(row["gap"] is not None for row in rows)

    def test_summary_counts_lazy_rows_out(self, tmp_path, labeled_file, capsys):
        hist = tmp_path / "h.jsonl"
        code = run(["train", "--data", labeled_file, "--lambda", 1, "--iters", 30,
                    "--gap-tol", 0, "--out", tmp_path / "m.hdsl", "--history", hist])
        assert code == 0
        rows = [json.loads(line) for line in hist.read_text().splitlines()]
        summary = json.loads(capsys.readouterr().out)
        lazy = [row for row in rows if row["gap"] is None]
        assert lazy and all("stat_rows" not in row for row in lazy)
        assert summary["oracle_calls"] == len(rows) - len(lazy) > 0
        assert summary["gap"] == rows[-1]["gap"] is not None

    @pytest.mark.parametrize("oracle", ["exact", "minibatch", "heuristic"])
    def test_overflowing_margins_exit_4(self, tmp_path, oracle, capsys):
        # 30 points, one feature at 1e200: 8 lam max|x|^2 overflows, and
        # train refuses the set with one error line before any model is written
        data, out = tmp_path / "big.svm", tmp_path / "m.hdsl"
        rng = np.random.default_rng(0)
        values = rng.uniform(-1.0, 1.0, size=(30, 3)).round(3)
        values[7, 0] = 1e200
        data.write_text("".join(f"{t % 3} " + " ".join(f"{f + 1}:{v!r}" for f, v in enumerate(row))
                                + "\n" for t, row in enumerate(values.tolist())))
        code = run(["train", "--data", data, "--lambda", 1, "--iters", 20, "--oracle", oracle,
                    "--out", out])
        err = capsys.readouterr().err
        assert code == 4 and err.startswith("error: ") and err.count("\n") == 1
        assert "margins could overflow" in err and "Traceback" not in err
        assert not out.exists()

    def test_constraint_file_round_trip(self, tmp_path, labeled_file, capsys):
        trip = tmp_path / "t.txt"
        trip.write_text("0 1 12\n2 3 13\n")
        code = run(["train", "--data", labeled_file, "--constraints", "file",
                    "--triplets", trip, "--lambda", 2, "--iters", 10,
                    "--out", tmp_path / "m.hdsl"])
        assert code == 0

    @pytest.mark.parametrize("line", ["1e20 1:1.0\n", "1 99999999999999999999999:0.5\n"])
    def test_int64_overflow_in_data_exits_3(self, tmp_path, line, capsys):
        data = tmp_path / "big.svm"
        data.write_text("0 1:1.0\n" + line)
        code = run(["train", "--data", data, "--lambda", 1, "--out", tmp_path / "m.hdsl"])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_int64_overflow_in_triplets_exits_3(self, tmp_path, labeled_file, capsys):
        trip = tmp_path / "t.txt"
        trip.write_text("0 1 12\n2 99999999999999999999999 13\n")
        code = run(["train", "--data", labeled_file, "--constraints", "file",
                    "--triplets", trip, "--lambda", 2, "--out", tmp_path / "m.hdsl"])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("constraints", ["random-label", "neighbors"])
    def test_huge_inferred_dimension_exits_4(self, tmp_path, constraints, capsys):
        # feature index 2**50 makes d = 2**50 + 1: any per-feature array
        # needs petabytes, so its allocation fails at once on any host
        data = tmp_path / "huge.svm"
        data.write_text("0 1:1.0 2:0.5\n1 1125899906842624:1\n0 3:1\n1 2:1 4:1\n")
        code = run(["train", "--data", data, "--constraints", constraints,
                    "--n-targets", 1, "--n-impostors", 1, "--lambda", 1,
                    "--out", tmp_path / "m.hdsl"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1

    def test_eval_every_zero_exits_4(self, tmp_path, labeled_file, capsys):
        code = run(["train", "--data", labeled_file, "--val-data", labeled_file,
                    "--eval-every", 0, "--lambda", 5, "--iters", 5,
                    "--out", tmp_path / "m.hdsl"])
        assert code == 4

    @pytest.mark.parametrize("flags", [["--val-data", "DATA", "--patience", 0],
                                       ["--val-data", "DATA", "--patience", -3],
                                       ["--iters", -1]])
    def test_bad_stopping_flags_exit_4(self, tmp_path, labeled_file, flags, capsys):
        flags = [labeled_file if f == "DATA" else f for f in flags]
        code = run(["train", "--data", labeled_file, "--lambda", 5, *flags,
                    "--out", tmp_path / "m.hdsl"])
        assert code == 4
        assert not (tmp_path / "m.hdsl").exists()

    @pytest.mark.parametrize("flags", [["--iters", -1], ["--patience", 0],
                                       ["--eval-every", 0], ["--constraints", "file"],
                                       ["--n-impostors", -1], ["--per-instance", 0],
                                       ["--val-data", "absent.svm", "--knn-k", 0]])
    def test_bad_flag_exits_4_before_reading_data(self, tmp_path, flags, capsys):
        code = run(["train", "--data", tmp_path / "absent.svm", "--lambda", 5, *flags,
                    "--out", tmp_path / "m.hdsl"])
        assert code == 4
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("dim", [-5, 0, 1])
    def test_dim_below_two_exits_4_before_reading_data(self, tmp_path, dim, capsys):
        code = run(["train", "--data", tmp_path / "absent.svm", "--dim", dim, "--lambda", 5,
                    "--out", tmp_path / "m.hdsl"])
        assert code == 4
        assert "--dim" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_triplet_with_b_equal_c_exits_4(self, tmp_path, labeled_file, capsys):
        trip = tmp_path / "t.txt"
        trip.write_text("0 1 12\n2 13 13\n")
        code = run(["train", "--data", labeled_file, "--constraints", "file",
                    "--triplets", trip, "--lambda", 2, "--out", tmp_path / "m.hdsl"])
        assert code == 4
        assert "b != c" in capsys.readouterr().err
        assert not (tmp_path / "m.hdsl").exists()

    def test_zero_iters_writes_initial_model(self, tmp_path, labeled_file, capsys):
        code = run(["train", "--data", labeled_file, "--lambda", 5, "--iters", 0,
                    "--out", tmp_path / "m.hdsl"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 0 and summary["objective"] is None
        assert summary["gap"] is None and summary["oracle_calls"] == 0
        assert deserialize((tmp_path / "m.hdsl").read_text()).n_atoms == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_point_in_code_exits_4(self, tmp_path, labeled_file, bad, monkeypatch,
                                              capsys):
        # the parser rejects non-finite text, so the value is put in after it
        import hdsl.cli as cli

        def parse_with_bad_value(text, dim=None):
            ds = parse_libsvm(text, dim=dim)
            X = ds.to_csr()
            X.data[X.indptr[1]] = bad  # the first stored value of point 1
            return ds

        monkeypatch.setattr(cli, "parse_libsvm", parse_with_bad_value)
        trip = tmp_path / "t.txt"
        trip.write_text("0 1 12\n2 3 13\n")
        code = run(["train", "--data", labeled_file, "--constraints", "file",
                    "--triplets", trip, "--lambda", 2, "--out", tmp_path / "m.hdsl"])
        assert code == 4
        assert "finite" in capsys.readouterr().err

    def test_solver_precondition_exit_4(self, tmp_path, capsys):
        # single-class data cannot build random-label constraints
        data = tmp_path / "one.svm"
        data.write_text("1 1:1.0\n1 2:1.0\n")
        code = run(["train", "--data", data, "--constraints", "random-label",
                    "--lambda", 1, "--out", tmp_path / "m.hdsl"])
        assert code == 4


class TestChecksBeforeWork:
    """train and project check their outputs' directories before they read
    any input, and synth checks that --out-dir can be made before it
    generates any data; train reads and checks --val-data before it builds
    constraints."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("work done before the output check")

    @pytest.fixture
    def no_build(self, monkeypatch):
        import hdsl.cli as cli

        def fail(*args):
            raise AssertionError("constraints built")

        monkeypatch.setattr(cli, "_build_constraints", fail)

    @pytest.fixture
    def no_work(self, monkeypatch):
        import hdsl.cli as cli

        def fail(*args, **kwargs):
            raise AssertionError("data read or solved")

        monkeypatch.setattr(cli, "_load_dataset", fail)
        monkeypatch.setattr(cli, "_solve", fail)

    @pytest.mark.parametrize("normalize", [[], ["--normalize"]])
    def test_empty_val_data_exits_4(self, tmp_path, labeled_file, normalize, no_build, capsys):
        empty, out = tmp_path / "empty.svm", tmp_path / "m.hdsl"
        empty.write_text("")
        code = run(["train", "--data", labeled_file, *normalize, "--val-data", empty,
                    "--lambda", 5, "--iters", 10, "--out", out])
        assert code == 4
        err = capsys.readouterr().err
        assert err == f"error: {empty}: dataset is empty\n"
        assert not out.exists()

    def test_absent_val_data_exits_3(self, tmp_path, labeled_file, no_build, capsys):
        out = tmp_path / "m.hdsl"
        code = run(["train", "--data", labeled_file, "--val-data", tmp_path / "absent.svm",
                    "--lambda", 5, "--iters", 10, "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["out", "history"])
    def test_missing_output_dir_exits_3(self, tmp_path, labeled_file, bad, no_work, capsys):
        paths = {"out": tmp_path / "m.hdsl", "history": tmp_path / "h.jsonl"}
        paths[bad] = tmp_path / "absent" / paths[bad].name
        code = run(["train", "--data", labeled_file, "--lambda", 5, "--iters", 10,
                    "--out", paths["out"], "--history", paths["history"]])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {paths[bad]}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [labeled_file]

    def test_project_missing_output_dir_exits_3(self, tmp_path, labeled_file, monkeypatch, capsys):
        import hdsl.cli as cli

        for name in ("_load_model", "_load_dataset", "factorize"):
            monkeypatch.setattr(cli, name, self.refuse)
        model = tmp_path / "m.hdsl"
        model.write_text("hdsl-model 1\nlambda 2 dim 20\nP 0 4 1\n")
        out = tmp_path / "absent" / "p.svm"
        code = run(["project", "--model", model, "--data", labeled_file, "--out", out])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == sorted([labeled_file, model])

    @pytest.mark.parametrize("protocol", [RECOVERY, LINK], ids=["recovery", "link"])
    @pytest.mark.parametrize("inside", [False, True], ids=["is-a-file", "under-a-file"])
    def test_synth_out_dir_that_cannot_be_made_exits_3(self, tmp_path, protocol, inside,
                                                       monkeypatch, capsys):
        import hdsl.synthetic as synthetic

        for name in ("gen_truth", "gen_uniform_sparse", "gen_powerlaw_sparse",
                     "gen_truth_frequent", "gen_links"):
            monkeypatch.setattr(synthetic, name, self.refuse)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out_dir = blocker / "out" if inside else blocker
        code = run([*protocol, "--seed", 1, "--out-dir", out_dir, "--run", "--lambda", 10])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create {out_dir}") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == ""


class TestNormalizeEmptyFile:
    """--normalize on an empty data file exits 4 with an error line, through
    the one normalization helper of train and eval; no model is written."""

    @staticmethod
    def assert_exit_4(code, capsys):
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dataset is empty" in err
        assert "Traceback" not in err

    def test_train_data(self, tmp_path, capsys):
        empty, out = tmp_path / "empty.svm", tmp_path / "m.hdsl"
        empty.write_text("")
        self.assert_exit_4(run(["train", "--data", empty, "--normalize", "--lambda", 5,
                                "--out", out]), capsys)
        assert not out.exists()

    def test_train_val_data(self, tmp_path, labeled_file, capsys):
        empty, out = tmp_path / "empty.svm", tmp_path / "m.hdsl"
        empty.write_text("")
        self.assert_exit_4(run(["train", "--data", labeled_file, "--normalize", "--val-data", empty,
                                "--lambda", 5, "--iters", 10, "--out", out]), capsys)
        assert not out.exists()

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_eval(self, tmp_path, labeled_file, split, capsys):
        empty, model = tmp_path / "empty.svm", tmp_path / "m.hdsl"
        empty.write_text("")
        assert run(["train", "--data", labeled_file, "--lambda", 5, "--iters", 10,
                    "--out", model]) == 0
        capsys.readouterr()
        files = {"train": labeled_file, "test": labeled_file, split: empty}
        self.assert_exit_4(run(["eval", "--model", model, "--train", files["train"],
                                "--test", files["test"], "--normalize"]), capsys)


class TestEval:
    def test_eval_json(self, tmp_path, labeled_file, capsys):
        model = tmp_path / "m.hdsl"
        assert run(["train", "--data", labeled_file, "--lambda", 5, "--iters", 30,
                    "--seed", 1, "--out", model]) == 0
        capsys.readouterr()
        code = run(["eval", "--model", model, "--train", labeled_file,
                    "--test", labeled_file, "--k", 1])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert {"knn_error", "atoms", "features", "nnz"} <= set(out)
        assert out["k"] == 1

    def test_bad_k_exits_4_before_reading_files(self, tmp_path, capsys):
        absent = tmp_path / "absent"
        assert run(["eval", "--model", absent, "--train", absent, "--test", absent,
                    "--k", 0]) == 4
        assert "--k must be >= 1" in capsys.readouterr().err

    def test_corrupt_model_exits_3(self, tmp_path, labeled_file):
        bad = tmp_path / "bad.hdsl"
        bad.write_text("not a model\n")
        code = run(["eval", "--model", bad, "--train", labeled_file, "--test", labeled_file])
        assert code == 3


class TestProject:
    def test_projected_dots_match_similarity(self, tmp_path, labeled_file, capsys):
        model_path = tmp_path / "m.hdsl"
        proj_path = tmp_path / "p.svm"
        assert run(["train", "--data", labeled_file, "--lambda", 5, "--iters", 30,
                    "--seed", 1, "--out", model_path]) == 0
        assert run(["project", "--model", model_path, "--data", labeled_file,
                    "--out", proj_path]) == 0
        model = deserialize(model_path.read_text())
        ds = parse_libsvm(labeled_file.read_text(), dim=model.dim)
        projected = parse_libsvm(proj_path.read_text(), dim=model.n_atoms)
        from hdsl.model import similarity

        for a in range(0, len(ds), 5):
            for b in range(0, len(ds), 7):
                lhs = np.dot(projected[a].to_dense(), projected[b].to_dense())
                assert lhs == pytest.approx(similarity(model, ds[a], ds[b]), abs=1e-10)

    def test_single_atom_gives_one_dimension(self, tmp_path, labeled_file, capsys):
        model_path = tmp_path / "m1.hdsl"
        model_path.write_text("hdsl-model 1\nlambda 2 dim 20\nP 0 4 1\n")
        proj_path = tmp_path / "p1.svm"
        assert run(["project", "--model", model_path, "--data", labeled_file,
                    "--out", proj_path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dimensions"] == 1

    def test_empty_dataset_gives_empty_output(self, tmp_path, capsys):
        model_path = tmp_path / "m1.hdsl"
        model_path.write_text("hdsl-model 1\nlambda 2 dim 20\nP 0 4 1\n")
        data = tmp_path / "empty.svm"
        data.write_text("")
        proj_path = tmp_path / "p2.svm"
        assert run(["project", "--model", model_path, "--data", data, "--out", proj_path]) == 0
        assert proj_path.read_text() == ""


class TestSynth:
    def test_recovery_outputs_consume_cleanly(self, tmp_path, capsys):
        out_dir = tmp_path / "rec"
        code = run(["synth", "recovery", "--d", 60, "--bases", 8, "--alpha", 0.2,
                    "--n", 60, "--triplets", 400, "--seed", 3, "--out-dir", out_dir])
        assert code == 0
        samples = parse_libsvm((out_dir / "samples.svm").read_text())
        truth = deserialize((out_dir / "truth.hdsl").read_text())
        assert truth.n_atoms == 8
        assert len(samples) == 60
        # triplet file feeds back into train via --constraints file
        model_out = tmp_path / "m.hdsl"
        code = run(["train", "--data", out_dir / "samples.svm", "--dim", 60,
                    "--constraints", "file", "--triplets", out_dir / "triplets.txt",
                    "--lambda", 10, "--iters", 15, "--out", model_out])
        assert code == 0

    def test_recovery_seed_reproducible(self, tmp_path, capsys):
        texts = []
        for rep in range(2):
            out_dir = tmp_path / f"rec{rep}"
            assert run(["synth", "recovery", "--d", 40, "--bases", 5, "--n", 40,
                        "--triplets", 100, "--seed", 9, "--out-dir", out_dir]) == 0
            texts.append((out_dir / "samples.svm").read_text()
                         + (out_dir / "truth.hdsl").read_text()
                         + (out_dir / "triplets.txt").read_text())
        assert texts[0] == texts[1]

    def test_link_protocol_runs(self, tmp_path, capsys):
        out_dir = tmp_path / "lnk"
        code = run(["synth", "link", "--d", 300, "--n", 60, "--links", 90,
                    "--per-link", 2, "--bases", 10, "--avg-sparsity", 0.06,
                    "--seed", 3, "--out-dir", out_dir, "--run",
                    "--lambda", 20, "--iters", 60, "--oracle", "heuristic", "--batch", 32])
        assert code == 0
        metrics = json.loads((out_dir / "metrics.json").read_text())
        assert 0.0 <= metrics["test_auc"] <= 1.0
        assert (out_dir / "links.train.txt").exists()

    def test_recovery_patience_zero_never_stops(self, tmp_path, capsys):
        models = []
        for patience in (0, 10**9):
            out_dir = tmp_path / f"rec{patience}"
            assert run(["synth", "recovery", "--d", 40, "--bases", 5, "--n", 40,
                        "--triplets", 100, "--seed", 2, "--out-dir", out_dir, "--run",
                        "--lambda", 10, "--iters", 25, "--eval-every", 1,
                        "--patience", patience]) == 0
            models.append((out_dir / "model.hdsl").read_text())
            assert json.loads((out_dir / "metrics.json").read_text())["iterations"] == 25
        assert models[0] == models[1]

    def test_link_patience_zero_never_stops(self, tmp_path, capsys):
        models = []
        for patience in (0, 10**9):
            out_dir = tmp_path / f"lnk{patience}"
            assert run([*LINK, "--seed", 3, "--out-dir", out_dir, "--run", "--lambda", 20,
                        "--oracle", "heuristic", "--batch", 32,
                        "--iters", 25, "--eval-every", 1, "--patience", patience]) == 0
            models.append((out_dir / "model.hdsl").read_text())
            assert json.loads((out_dir / "metrics.json").read_text())["iterations"] == 25
        assert models[0] == models[1]

    @pytest.mark.parametrize("protocol", [RECOVERY, LINK], ids=["recovery", "link"])
    @pytest.mark.parametrize("flags,code", [
        ([], 2),  # --run without --lambda
        (["--lambda", 10, "--eval-every", 0], 4),
        (["--lambda", 10, "--iters", -1], 4),
        (["--lambda", 10, "--patience", -3], 4),
    ], ids=["no-lambda", "eval-every-0", "iters-neg", "patience-neg"])
    def test_bad_flag_exits_before_any_file(self, tmp_path, protocol, flags, code, capsys):
        out_dir = tmp_path / "out"
        assert run([*protocol, "--seed", 1, "--out-dir", out_dir, "--run", *flags]) == code
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    @pytest.mark.parametrize("per_link", [0, -1])
    def test_link_per_link_below_one_exits_4_before_any_file(self, tmp_path, per_link, capsys):
        out_dir = tmp_path / "out"
        assert run([*LINK, "--per-link", per_link, "--seed", 1, "--out-dir", out_dir]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "per_link must be >= 1" in err
        assert not out_dir.exists()

    def test_recovery_negative_patience_exits_4(self, tmp_path, capsys):
        code = run(["synth", "recovery", "--d", 40, "--bases", 5, "--n", 40,
                    "--triplets", 100, "--seed", 2, "--out-dir", tmp_path / "x", "--run",
                    "--lambda", 10, "--patience", -3])
        assert code == 4

    def test_run_without_lambda_exits_2(self, tmp_path):
        code = run(["synth", "recovery", "--d", 40, "--bases", 5, "--n", 40,
                    "--triplets", 100, "--seed", 1, "--out-dir", tmp_path / "x", "--run"])
        assert code == 2

"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import json
import os
import struct
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipmatch.cli import _read_assignments, main
from flipmatch.energy import (
    IsingModel,
    random_factor_lattice,
    random_ising,
    TabularBayesNetModel,
    enumerate_exact,
    read_model,
    write_model,
)
from flipmatch.errors import FlipmatchError
from flipmatch.graph import Imap, _cached_chordal, _min_fill, grid_graph
from flipmatch.harness import read_metrics_csv
from flipmatch.nn import MaeConfig, MaeParams, save_checkpoint
from flipmatch.sampler import AnnealSchedule
from oracles import (
    reference_blanket,
    reference_max_cardinality_search,
    reference_min_fill_chordalize,
    reference_sample_imap,
    sequential_gibbs,
)


@pytest.fixture
def model_file(tmp_path):
    m = IsingModel(
        np.array([[0, 0.7, 0], [0.7, 0, -0.5], [0, -0.5, 0]]),
        np.array([0.3, -0.2, 0.1]),
        1.0,
    )
    path = tmp_path / "model.json"
    write_model(m, str(path))
    return str(path)


def write_config(tmp_path, **overrides):
    doc = {
        "objective": "delta",
        "total_steps": 150,
        "batch_size": 32,
        "lr": 0.01,
        "eval_period": 75,
        "width": 16,
        "blocks": 2,
        "activation": "elu",
        "seed": 1,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestChordalize:
    def test_reports_structure(self, tmp_path, capsys):
        m = IsingModel(
            np.array(
                [
                    [0, 1, 0, 1.0],
                    [1, 0, 1, 0],
                    [0, 1, 0, 1],
                    [1.0, 0, 1, 0],
                ]
            ),
            np.zeros(4),
            0.5,
        )
        path = tmp_path / "cycle.json"
        write_model(m, str(path))
        assert main(["chordalize", "--model", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_vars"] == 4
        assert doc["edges"] == 4
        assert len(doc["fill_edges"]) == 1  # one chord triangulates a 4-cycle
        assert doc["max_clique_size"] == 3
        assert sorted(doc["topo_order"]) == [0, 1, 2, 3]

    def test_one_completion_matches_the_references(self, tmp_path, capsys):
        # the fill edges, the cliques and the map all come from one min-fill run,
        # and the report is the one the whole-scan references give
        g = grid_graph(4, 5)
        path = tmp_path / "grid.json"
        write_model(random_ising(g, seed=1), str(path))
        code, calls = _min_fill.__code__, []

        def count(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls.append(frame)

        _cached_chordal.cache_clear()
        argv = ["chordalize", "--model", str(path), "--chordal-seed", "3", "--imap-seed", "5"]
        sys.setprofile(count)
        try:
            assert main(argv) == 0
        finally:
            sys.setprofile(None)
        assert len(calls) == 1
        chordal = reference_min_fill_chordalize(g, 3)
        _, cliques = reference_max_cardinality_search(chordal, 3)
        dag = reference_sample_imap(g, 5, chordal_seed=3)
        expected = {
            "num_vars": 20,
            "edges": len(g.edges),
            "fill_edges": sorted([a, b] for a, b in chordal.edges - g.edges),
            "max_clique_size": max(len(c) for c in cliques),
            "topo_order": list(dag.topo_order),
            "max_blanket_size": max(len(b) for b in reference_blanket(dag).values()),
        }
        assert expected["fill_edges"]
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"

    def test_zero_variable_model(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"kind":"ising","num_vars":0,"sigma":0.2,"edges":[],"bias":[]}')
        assert main(["chordalize", "--model", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_vars"] == 0 and doc["topo_order"] == []
        assert doc["max_clique_size"] == 0 and doc["max_blanket_size"] == 0


class TestOracle:
    def test_matches_direct_enumeration(self, model_file, tmp_path, capsys):
        out = tmp_path / "oracle.json"
        assert main(["oracle", "--model", model_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        table = enumerate_exact(read_model(model_file))
        assert abs(doc["log_z"] - table.log_z) < 1e-12
        assert abs(doc["entropy"] - table.entropy()) < 1e-12
        np.testing.assert_allclose(doc["marginals"], table.marginals, rtol=1e-12)

    def test_too_many_variables_is_config_error(self, tmp_path):
        m = IsingModel(np.zeros((21, 21)), np.zeros(21), 0.5)
        path = tmp_path / "big.json"
        write_model(m, str(path))
        assert main(["oracle", "--model", str(path)]) == 2

    def test_missing_model_file(self, tmp_path):
        assert main(["oracle", "--model", str(tmp_path / "nope.json")]) == 2


class TestTruncatedFiles:
    """A cut-short binary file is an input error (exit 2) that names the file."""

    def test_sample_with_empty_checkpoint(self, model_file, tmp_path, capsys):
        ck = tmp_path / "empty.ckpt"
        ck.write_bytes(b"")
        assert main(["sample", "--model", model_file, "--checkpoint", str(ck)]) == 2
        assert "empty.ckpt" in capsys.readouterr().err

    def test_sample_with_a_conditioning_block_checkpoint(self, model_file, tmp_path, capsys):
        # a network with two conditioning values, as older EM runs wrote it
        ck = tmp_path / "cond.ckpt"
        mae = MaeParams(MaeConfig(num_vars=3, width=4, blocks=1))
        header = struct.pack("<4sIIIIIII", b"DMAE", 1, 3, 4, 1, 64, 0, 2)
        ck.write_bytes(header + bytes(8) + struct.pack("<Q", mae.cfg.param_count + 8))
        assert main(["sample", "--model", model_file, "--checkpoint", str(ck)]) == 2
        err = capsys.readouterr().err
        assert "cond.ckpt" in err and "conditioning-block checkpoints are no longer read" in err
        assert "Traceback" not in err

    def test_oracle_with_short_sidecar(self, tmp_path, capsys):
        path = tmp_path / "fg.json"
        write_model(random_factor_lattice(2, 2, seed=0), str(path))
        side = tmp_path / "fg.json.bin"
        side.write_bytes(side.read_bytes()[:10])
        assert main(["oracle", "--model", str(path)]) == 2
        assert "fg.json.bin" in capsys.readouterr().err


def ising_doc(edge):
    return {"kind": "ising", "num_vars": 3, "sigma": 1.0, "edges": [edge], "bias": [0, 0, 0]}


class TestMalformedModel:
    """A model document that describes no model is an input error (exit 2)."""

    @pytest.mark.parametrize(
        "doc",
        [[1, 2], ising_doc([0, 7, 1.0]), ising_doc([-1, 0, 1.0])],
        ids=["list", "edge-past-the-end", "negative-edge"],
    )
    def test_oracle_exits_2_naming_the_file(self, doc, tmp_path, capsys):
        path = tmp_path / "bad_model.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--model", str(path)]) == 2
        assert "bad_model.json" in capsys.readouterr().err


class TestTrain:
    def test_writes_checkpoint_and_metrics(self, model_file, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ck = tmp_path / "net.ckpt"
        csv = tmp_path / "metrics.csv"
        code = main(
            [
                "train",
                "--model",
                model_file,
                "--config",
                cfg,
                "--checkpoint",
                str(ck),
                "--metrics",
                str(csv),
                "--eval-n",
                "256",
            ]
        )
        assert code == 0
        assert ck.exists()
        rows = read_metrics_csv(str(csv))
        assert [r.step for r in rows] == [75, 150]
        assert all(np.isfinite(r.nll) for r in rows)
        doc = json.loads(capsys.readouterr().out)
        assert doc["objective"] == "delta" and doc["steps"] == 150

    @pytest.mark.parametrize("knob", ["sub_dags_per_var", "stochastic_children_above"])
    def test_flip_matching_knob_under_tb_is_exit_2(self, model_file, tmp_path, capsys, knob):
        cfg = write_config(tmp_path, objective="tb", **{knob: 1})
        assert main(["train", "--model", model_file, "--config", cfg]) == 2
        assert knob in capsys.readouterr().err

    def test_tb_reports_log_partition(self, model_file, tmp_path, capsys):
        cfg = write_config(tmp_path, objective="tb", policy_kind="eps-uniform", policy_eps=0.1)
        assert main(["train", "--model", model_file, "--config", cfg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "log_z" in doc and np.isfinite(doc["log_z"])

    def test_metrics_reproducible_across_runs(self, model_file, tmp_path):
        cfg = write_config(tmp_path, total_steps=60, eval_period=30)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert (
                main(
                    [
                        "train",
                        "--model",
                        model_file,
                        "--config",
                        cfg,
                        "--metrics",
                        str(path),
                        "--eval-n",
                        "64",
                    ]
                )
                == 0
            )
        rows_a, rows_b = read_metrics_csv(str(a)), read_metrics_csv(str(b))
        for ra, rb in zip(rows_a, rows_b):
            assert (ra.step, ra.nll, ra.mmd, ra.loss, ra.instantiated) == (
                rb.step,
                rb.nll,
                rb.mmd,
                rb.loss,
                rb.instantiated,
            )

    def test_seed_flag_changes_the_run(self, model_file, tmp_path):
        cfg = write_config(tmp_path, total_steps=60, eval_period=60)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["train", "--model", model_file, "--config", cfg, "--metrics", str(a)])
        main(
            ["train", "--model", model_file, "--config", cfg, "--metrics", str(b), "--seed", "99"]
        )
        assert read_metrics_csv(str(a))[-1].loss != read_metrics_csv(str(b))[-1].loss

    def test_bad_config_is_exit_2(self, model_file, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"objective": "delta", "learning_rate": 0.1}))
        assert main(["train", "--model", model_file, "--config", str(bad)]) == 2

    def test_undecodable_config_is_exit_2(self, model_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        assert main(["train", "--model", model_file, "--config", str(bad)]) == 2
        assert "bad.json" in capsys.readouterr().err

    def test_float_width_in_config_is_exit_2(self, model_file, tmp_path, capsys):
        cfg = write_config(tmp_path, width=2.5)
        assert main(["train", "--model", model_file, "--config", cfg]) == 2
        assert "width" in capsys.readouterr().err

    def test_overflowing_model_is_exit_3(self, tmp_path):
        m = IsingModel(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1e308, 0.0]), 1.0)
        path = tmp_path / "hot.json"
        write_model(m, str(path))
        cfg = write_config(tmp_path, total_steps=5, eval_period=5, batch_size=8, width=8, blocks=1)
        with np.errstate(over="ignore"):
            assert main(["train", "--model", str(path), "--config", cfg]) == 3

    def test_non_finite_gradient_is_exit_3(self, model_file, tmp_path, monkeypatch, capsys):
        from flipmatch.nn import tape

        backward = tape.backward

        def poisoned(root):
            # a finite loss whose gradient reaches a parameter as NaN
            backward(root)
            stack = [root]
            while stack:
                node = stack.pop()
                if not node._parents and node.grad is not None:
                    node.grad.flat[0] = np.nan
                    return
                stack.extend(node._parents)

        monkeypatch.setattr(tape, "backward", poisoned)
        cfg = write_config(tmp_path, total_steps=5, eval_period=5, batch_size=8, width=8, blocks=1)
        assert main(["train", "--model", model_file, "--config", cfg]) == 3
        assert "gradient" in capsys.readouterr().err


class TestSampleAndEval:
    @pytest.fixture
    def trained(self, model_file, tmp_path):
        cfg = write_config(tmp_path, total_steps=400, eval_period=400)
        ck = tmp_path / "net.ckpt"
        assert main(["train", "--model", model_file, "--config", cfg, "--checkpoint", str(ck)]) == 0
        return str(ck)

    def test_sample_writes_assignments(self, model_file, trained, tmp_path):
        out = tmp_path / "draws.txt"
        code = main(
            [
                "sample",
                "--model",
                model_file,
                "--checkpoint",
                trained,
                "--n",
                "25",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        X = np.loadtxt(str(out), ndmin=2)
        assert X.shape == (25, 3)
        assert np.all(np.isin(X, (-1.0, 1.0)))

    def test_sample_is_seed_deterministic(self, model_file, trained, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            main(
                [
                    "sample",
                    "--model",
                    model_file,
                    "--checkpoint",
                    trained,
                    "--n",
                    "16",
                    "--seed",
                    "7",
                    "--out",
                    str(out),
                ]
            )
        assert a.read_text() == b.read_text()

    def test_checkpoint_model_mismatch(self, trained, tmp_path):
        other = tmp_path / "other.json"
        write_model(IsingModel(np.zeros((5, 5)), np.zeros(5), 0.5), str(other))
        assert main(["sample", "--model", str(other), "--checkpoint", trained]) == 2

    def test_eval_scores_against_exact_samples(self, model_file, trained, capsys):
        code = main(
            ["eval", "--model", model_file, "--checkpoint", trained, "--exact-n", "1024"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # a briefly trained sampler should sit near the entropy floor
        assert abs(doc["nll"] - doc["entropy"]) < 0.2
        assert doc["mmd"] < 0.05

    def test_eval_reads_sample_files(self, model_file, trained, tmp_path, capsys):
        truth = enumerate_exact(read_model(model_file)).sample_matrix(256, seed=4)
        path = tmp_path / "truth.txt"
        np.savetxt(str(path), truth, fmt="%d")
        assert (
            main(["eval", "--model", model_file, "--checkpoint", trained, "--samples", str(path)])
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 256 and np.isfinite(doc["nll"])

    def test_eval_requires_a_reference(self, model_file, trained):
        assert main(["eval", "--model", model_file, "--checkpoint", trained]) == 2

    def test_eval_rejects_an_empty_sample_file_without_a_warning(
        self, model_file, trained, tmp_path, capsys
    ):
        path = tmp_path / "truth.txt"
        for text in ("", "\n  \n"):
            path.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(
                    ["eval", "--model", model_file, "--checkpoint", trained, "--samples", str(path)]
                )
            assert code == 2
            assert "reference rows have 0 columns" in capsys.readouterr().err

    def test_eval_rejects_wrong_width(self, model_file, trained, tmp_path):
        path = tmp_path / "wide.txt"
        np.savetxt(str(path), np.ones((8, 5), dtype=int), fmt="%d")
        assert (
            main(["eval", "--model", model_file, "--checkpoint", trained, "--samples", str(path)])
            == 2
        )


class TestGibbs:
    def test_matches_exact_marginals(self, tmp_path):
        m = IsingModel(np.array([[0, 0.9], [0.9, 0]]), np.array([0.5, -0.1]), 1.0)
        path = tmp_path / "m.json"
        write_model(m, str(path))
        out = tmp_path / "chains.txt"
        code = main(
            [
                "gibbs",
                "--model",
                str(path),
                "--n",
                "2000",
                "--steps",
                "60",
                "--start-temperature",
                "4",
                "--ramp-sweeps",
                "30",
                "--seed",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        X = np.loadtxt(str(out), ndmin=2)
        assert X.shape == (2000, 2)
        exact = enumerate_exact(m).marginals
        empirical = (X > 0).mean(axis=0)
        assert np.abs(empirical - exact).max() < 0.05

    def test_writes_the_sequential_scan_draws(self, tmp_path):
        # the command's chains are the one-variable-at-a-time scan's, bit for bit
        path = tmp_path / "grid.json"
        write_model(random_ising(grid_graph(4, 5), sigma=0.6, seed=3), str(path))
        out = tmp_path / "chains.txt"
        argv = "gibbs --n 40 --steps 6 --start-temperature 4 --ramp-sweeps 3 --seed 2"
        assert main(argv.split() + ["--model", str(path), "--out", str(out)]) == 0
        want = sequential_gibbs(read_model(str(path)), 40, 6, AnnealSchedule(4.0, 3), seed=2)
        assert np.array_equal(_read_assignments(str(out)), want)


class TestEm:
    def test_fits_and_writes_model(self, tmp_path, capsys):
        dag = Imap.from_parents(3, (0, 1, 2), ((), (0,), (1,)))
        truth = TabularBayesNetModel(
            dag, {0: np.array([0.7]), 1: np.array([-0.9, 0.9]), 2: np.array([0.5, -1.1])}
        )
        X = truth.sample(500, 3)
        X[:, 1] = 0
        data = tmp_path / "data.txt"
        np.savetxt(str(data), X, fmt="%d")
        init = tmp_path / "init.json"
        write_model(
            TabularBayesNetModel(
                dag, {0: np.array([0.0]), 1: np.array([-0.4, 0.4]), 2: np.array([0.2, -0.2])}
            ),
            str(init),
        )
        cfg = write_config(tmp_path, total_steps=60, eval_period=30, batch_size=32, lr=0.005)
        fitted = tmp_path / "fitted.json"
        code = main(
            [
                "em",
                "--model",
                str(init),
                "--data",
                str(data),
                "--latent",
                "1",
                "--config",
                cfg,
                "--rounds",
                "2",
                "--m-steps",
                "10",
                "--m-lr",
                "0.2",
                "--out-model",
                str(fitted),
                "--checkpoint",
                str(tmp_path / "posterior.ckpt"),
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["latent"] == [1] and np.isfinite(doc["nll"])
        reread = read_model(str(fitted))
        assert isinstance(reread, TabularBayesNetModel)
        # the posterior network is a plain network of the model's variables
        argv = ["sample", "--model", str(fitted), "--checkpoint", str(tmp_path / "posterior.ckpt")]
        assert main(argv + ["--n", "3"]) == 0

    @pytest.mark.parametrize("knob", ["sub_dags_per_var", "stochastic_children_above"])
    def test_flip_matching_knobs_are_exit_2(self, tmp_path, capsys, knob):
        dag = Imap.from_parents(2, (0, 1), ((), (0,)))
        init = tmp_path / "init.json"
        write_model(TabularBayesNetModel(dag), str(init))
        data = tmp_path / "data.txt"
        np.savetxt(str(data), np.ones((4, 2), dtype=int), fmt="%d")
        cfg = write_config(tmp_path, **{knob: 1})
        argv = ["em", "--model", str(init), "--data", str(data), "--latent", "1", "--config", cfg]
        assert main(argv) == 2
        assert knob in capsys.readouterr().err

    def test_rejects_non_bayesnet_model(self, model_file, tmp_path):
        data = tmp_path / "data.txt"
        np.savetxt(str(data), np.ones((4, 3), dtype=int), fmt="%d")
        assert main(["em", "--model", model_file, "--data", str(data), "--latent", "1"]) == 2

    def test_empty_data_file_is_exit_2_without_a_warning(self, tmp_path, capsys):
        dag = Imap.from_parents(2, (0, 1), ((), (0,)))
        init = tmp_path / "init.json"
        write_model(TabularBayesNetModel(dag), str(init))
        data = tmp_path / "data.txt"
        for text in ("", "\n  \n"):
            data.write_text(text)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["em", "--model", str(init), "--data", str(data), "--latent", "1"])
            assert code == 2
            assert "got (0, 0)" in capsys.readouterr().err

    def test_rejects_out_of_range_latent(self, tmp_path):
        dag = Imap.from_parents(2, (0, 1), ((), (0,)))
        init = tmp_path / "init.json"
        write_model(TabularBayesNetModel(dag), str(init))
        data = tmp_path / "data.txt"
        np.savetxt(str(data), np.ones((4, 2), dtype=int), fmt="%d")
        assert main(["em", "--model", str(init), "--data", str(data), "--latent", "7"]) == 2

    def test_empty_latent_list_fits_by_plain_likelihood(self, tmp_path, capsys):
        dag = Imap.from_parents(2, (0, 1), ((), (0,)))
        init = tmp_path / "init.json"
        write_model(TabularBayesNetModel(dag), str(init))
        data = tmp_path / "data.txt"
        np.savetxt(str(data), np.array([[1, -1], [1, 1], [-1, -1]]), fmt="%d")
        argv = ["em", "--model", str(init), "--data", str(data), "--latent", ",", "--rounds", "1"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["latent"] == [] and np.isfinite(doc["nll"])

    def test_non_integer_latent_is_exit_2_naming_the_token(self, tmp_path, capsys):
        dag = Imap.from_parents(2, (0, 1), ((), (0,)))
        init = tmp_path / "init.json"
        write_model(TabularBayesNetModel(dag), str(init))
        data = tmp_path / "data.txt"
        np.savetxt(str(data), np.ones((4, 2), dtype=int), fmt="%d")
        for latent, token in (("1,a", "'a'"), ("0.5", "'0.5'"), ("1,,x2", "'x2'")):
            argv = ["em", "--model", str(init), "--data", str(data), "--latent", latent]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "--latent" in err and token in err


class TestReadAssignments:
    @settings(max_examples=300, deadline=None)
    @given(
        st.binary(max_size=64)
        | st.lists(
            st.lists(
                st.sampled_from(["-1", "0", "1", "+1", "2", "1.0", "-0", "nan", "1e400", "x", "#"]),
                max_size=4,
            ),
            max_size=4,
        ).map(lambda rows: "\n".join(" ".join(r) for r in rows).encode())
    )
    def test_any_bytes_give_assignments_or_flipmatch_error(self, data):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "rows.txt")
            with open(path, "wb") as fh:
                fh.write(data)
            try:
                X = _read_assignments(path)
            except FlipmatchError:
                return
        assert X.dtype == np.int8 and X.ndim == 2
        assert np.isin(X, (-1, 0, 1)).all()


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestBadCountsAndSeeds:
    """Zero or negative counts and negative seeds end in exit 0 or 2, never a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        model, ckpt = str(tmp_path / "m.json"), str(tmp_path / "c.ckpt")
        write_model(random_ising(grid_graph(2, 2), 0.5, seed=0), model)
        save_checkpoint(MaeParams(MaeConfig(num_vars=4, width=8, blocks=1)), ckpt)
        small = dict(total_steps=2, eval_period=2, batch_size=4, width=8, blocks=1)
        (tmp_path / "neg").mkdir()
        samples = str(tmp_path / "truth.txt")
        np.savetxt(samples, np.ones((3, 4)), fmt="%d")
        return {
            "model": model,
            "ckpt": ckpt,
            "samples": samples,
            "good": write_config(tmp_path, **small),
            "bad": write_config(tmp_path / "neg", seed=-1, **small),
        }

    @pytest.mark.parametrize(
        "argv",
        [
            "sample --model {model} --checkpoint {ckpt} --n 0",
            "sample --model {model} --checkpoint {ckpt} --n -1",
            "sample --model {model} --checkpoint {ckpt} --seed -1",
            "sample --model {model} --checkpoint {ckpt} --imap-seed -1",
            "eval --model {model} --checkpoint {ckpt} --exact-n 8 --seed -1",
            "eval --model {model} --checkpoint {ckpt} --exact-n 8 --imap-seed -1",
            "eval --model {model} --checkpoint {ckpt} --samples {samples} --seed -1",
            "eval --model {model} --checkpoint {ckpt} --samples {samples} --seed -2",
            "gibbs --model {model} --n -1 --steps 2",
            "gibbs --model {model} --n 0 --steps 2",
            "gibbs --model {model} --n 2 --steps -1",
            "gibbs --model {model} --steps 2 --seed -1",
            "chordalize --model {model} --imap-seed -1",
            "chordalize --model {model} --chordal-seed -1",
            "train --model {model} --config {good} --seed -1",
            "train --model {model} --config {bad}",
        ],
    )
    def test_exit_0_or_2_without_traceback(self, argv, files, capsys):
        assert main(argv.format(**files).split()) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "-2"])
    @pytest.mark.parametrize(
        "source", ["--samples {samples}", "--exact-n 8"], ids=["samples", "exact"]
    )
    def test_eval_names_the_negative_seed_it_was_given(self, seed, source, files, capsys):
        argv = f"eval --model {{model}} --checkpoint {{ckpt}} {source} --seed {seed}"
        assert main(argv.format(**files).split()) == 2
        assert f"got {seed}" in capsys.readouterr().err

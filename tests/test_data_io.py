"""Dataset formats, synthesis, PCA, checkpoints, configs and the CLI."""

import json
import os
import re
import struct

import numpy as np
import pytest

from conftest import rbf_autoencoder, random_mixed_net, sigmoid_autoencoder
from macqp.checkpoint import load_model, save_model
from macqp.cli import main as cli_main
from macqp.data import (
    load_dataset,
    pca_embed,
    save_dataset_csv,
    save_dataset_f64bin,
    synth_manifold_dataset,
    write_pgm,
)
from macqp.harness import run_experiment, validate_config
from macqp.mac import TRACE_HEADER
from macqp.model import (
    ConfigError,
    Dataset,
    DimensionMismatchError,
    Layer,
    LayerWeights,
    MacqpError,
    NestedNet,
    forward_all,
    nested_objective,
)


class TestDatasetFormats:
    def test_f64bin_round_trip_bitwise(self, rng, tmp_path):
        ds = Dataset(rng.normal(size=(13, 4)), rng.normal(size=(13, 2)))
        p = tmp_path / "d.macd"
        save_dataset_f64bin(ds, p)
        back = load_dataset(p, "f64bin")
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.Y, ds.Y)

    def test_csv_round_trip_bitwise(self, rng, tmp_path):
        ds = Dataset(rng.normal(size=(9, 3)), rng.normal(size=(9, 2)))
        p = tmp_path / "d.csv"
        save_dataset_csv(ds, p)
        back = load_dataset(p, "csv")
        np.testing.assert_array_equal(back.X, ds.X)
        np.testing.assert_array_equal(back.Y, ds.Y)

    def test_cross_format_agreement(self, rng, tmp_path):
        ds = Dataset(rng.uniform(size=(20, 5)), rng.uniform(size=(20, 5)))
        save_dataset_f64bin(ds, tmp_path / "d.macd")
        save_dataset_csv(ds, tmp_path / "d.csv")
        a = load_dataset(tmp_path / "d.macd", "f64bin")
        b = load_dataset(tmp_path / "d.csv", "csv")
        np.testing.assert_allclose(a.X, b.X, rtol=0, atol=1e-15)
        np.testing.assert_allclose(a.Y, b.Y, rtol=0, atol=1e-15)

    def test_csv_bad_cell_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x0,x1,y0\n1.0,2.0,3.0\n4.0,oops,6.0\n")
        with pytest.raises(MacqpError, match=r"3.*column 2"):
            load_dataset(p, "csv")

    @pytest.mark.parametrize("header", [
        "x0,y0,x1,y1",  # interleaved: read by position it would swap columns
        "x1,x0,y0",
        "x0,x1,y1",
        "x0,xa,y0",
        "x0,x1,z0",
        "x0,x1",
    ])
    def test_csv_header_must_list_inputs_then_targets_in_order(self, tmp_path, header):
        p = tmp_path / "bad_header.csv"
        cells = ",".join(["1.0"] * len(header.split(",")))
        p.write_text(f"{header}\n{cells}\n")
        with pytest.raises(MacqpError, match="bad_header.csv.*header"):
            load_dataset(p, "csv")

    def test_fortran_ordered_weights_reproduce_e1_after_reload(self, rng, tmp_path):
        # matmul rounding depends on memory layout and a checkpoint reloads
        # C-ordered matrices, so weights are stored C-ordered from the start
        net = random_mixed_net(rng)
        net = NestedNet(
            [Layer(l.spec, LayerWeights(np.asfortranarray(l.weights.matrix)))
             for l in net.layers],
            net.placement,
        )
        assert all(l.weights.matrix.flags.c_contiguous for l in net.layers)
        data = Dataset(rng.normal(size=(50, net.in_dim)), rng.normal(size=(50, net.out_dim)))
        p = tmp_path / "fortran.macn"
        save_model(net, p)
        assert nested_objective(load_model(p), data) == nested_objective(net, data)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_csv_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"x0,x1,y0\n1.0,2.0,3.0\n4.0,5.0,{cell}\n")
        with pytest.raises(MacqpError,
                           match=f"nonfinite.csv:3: non-finite cell in column 3: '{cell}'"):
            load_dataset(p, "csv")

    @staticmethod
    def _raw_macd(path, shape, X, Y):
        path.write_bytes(b"MACD" + struct.pack("<QII", *shape)
                         + np.asarray(X, dtype="<f8").tobytes()
                         + np.asarray(Y, dtype="<f8").tobytes())
        return path

    @pytest.mark.parametrize("name, row, value", [("X", 0, np.nan), ("X", 2, np.inf),
                                                  ("Y", 1, -np.inf)])
    def test_f64bin_non_finite_entry_names_path_matrix_and_row(self, tmp_path, name, row,
                                                               value):
        X, Y = np.ones((3, 2)), np.ones((3, 1))
        (X if name == "X" else Y)[row, -1] = value
        p = self._raw_macd(tmp_path / "nonfinite.macd", (3, 2, 1), X, Y)
        with pytest.raises(MacqpError,
                           match=f"nonfinite.macd: {name} has a non-finite entry in row {row} "):
            load_dataset(p, "f64bin")

    @pytest.mark.parametrize("shape", [(0, 2, 1), (3, 0, 1), (3, 2, 0)])
    def test_f64bin_empty_shape_names_path_and_header(self, tmp_path, shape):
        # the header follows the 4-byte magic; a width of 0 would load as an
        # (n, 0) matrix and fail only once training starts
        n, d, dp = shape
        p = self._raw_macd(tmp_path / "empty.macd", shape, np.ones((n, d)), np.ones((n, dp)))
        with pytest.raises(MacqpError, match=(
                f"empty.macd: the header at byte offset 4 gives n = {n}, d = {d}, "
                f"d' = {dp}; none may be 0")):
            load_dataset(p, "f64bin")

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.macd"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(MacqpError, match="magic"):
            load_dataset(p, "f64bin")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(MacqpError):
            load_dataset(tmp_path / "x", "parquet")


class TestSynthManifold:
    def test_fixed_seed_reproducible(self):
        a = synth_manifold_dataset(40, 10, 1, 0.01, seed=5)
        b = synth_manifold_dataset(40, 10, 1, 0.01, seed=5)
        np.testing.assert_array_equal(a.X, b.X)

    def test_targets_equal_inputs(self):
        ds = synth_manifold_dataset(30, 8, 2, 0.0, seed=1)
        np.testing.assert_array_equal(ds.X, ds.Y)
        assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0

    def test_noise_free_curve_has_low_rank_spectrum(self):
        # a 1-d latent embedded with linear + sin + cos terms spans at most
        # 3 directions, so singular values beyond the third vanish
        ds = synth_manifold_dataset(200, 16, 1, 0.0, seed=2)
        s = np.linalg.svd(ds.X - ds.X.mean(axis=0), compute_uv=False)
        assert s[3] <= 1e-6 * s[0]

    def test_noise_bounds_residual_spectrum(self):
        noise = 0.01
        ds = synth_manifold_dataset(300, 16, 1, noise, seed=2)
        s = np.linalg.svd(ds.X - ds.X.mean(axis=0), compute_uv=False)
        # residual directions carry only (rescaled) noise energy
        assert s[3] / np.sqrt(ds.n) <= 5 * noise

    def test_validation_split(self):
        ds = synth_manifold_dataset(50, 6, 1, 0.0, seed=0, n_val=20)
        assert ds.n == 50
        assert ds.val_X.shape == (20, 6)

    def test_intrinsic_must_be_smaller(self):
        with pytest.raises(DimensionMismatchError):
            synth_manifold_dataset(10, 4, 4, 0.0, seed=0)


class TestPcaEmbed:
    def test_exact_reconstruction_for_embedded_data(self, rng):
        latent = rng.normal(size=(50, 3))
        basis, _ = np.linalg.qr(rng.normal(size=(10, 3)))
        X = latent @ basis.T
        E = pca_embed(X, 3)
        # distances are preserved by an orthogonal embedding
        g_x = np.linalg.norm(X[:, None] - X[None, :], axis=2)
        g_e = np.linalg.norm(E[:, None] - E[None, :], axis=2)
        np.testing.assert_allclose(g_e, g_x, atol=1e-10)

    def test_projection_variance_equals_top_eigenvalues(self, rng):
        X = rng.normal(size=(80, 7)) @ np.diag([5, 4, 3, 2, 1, 0.5, 0.2])
        d = 3
        E = pca_embed(X, d)
        Xc = X - X.mean(axis=0)
        eig = np.sort(np.linalg.eigvalsh(Xc.T @ Xc))[::-1]
        np.testing.assert_allclose(np.sum(E**2), np.sum(eig[:d]), rtol=1e-10)

    def test_directions_orthonormal(self, rng):
        X = rng.normal(size=(60, 6))
        E = pca_embed(X, 4)
        Xc = X - X.mean(axis=0)
        # recover the directions via least squares and check orthonormality
        V, *_ = np.linalg.lstsq(E, Xc, rcond=None)
        np.testing.assert_allclose(V @ V.T, np.eye(4), atol=1e-10)

    def test_width_check(self, rng):
        with pytest.raises(DimensionMismatchError):
            pca_embed(rng.normal(size=(5, 3)), 4)


class TestCheckpoint:
    def test_round_trip_bitwise(self, rng, tmp_path):
        net = random_mixed_net(rng)
        p = tmp_path / "model_roundtrip.macn"
        save_model(net, p)
        back = load_model(p)
        assert back.placement == list(net.placement)
        for a, b in zip(net.layers, back.layers):
            assert a.spec == b.spec
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)

    def test_rbf_autoencoder_round_trip(self, tmp_path):
        net = rbf_autoencoder(6, 9, 2, 9)
        p = tmp_path / "m.macn"
        save_model(net, p)
        back = load_model(p)
        assert [l.spec.bias for l in back.layers] == [False, False, False, False]
        assert back.num_params() == net.num_params()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.macn"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(MacqpError):
            load_model(p)


class TestDamagedBinaryFiles:
    """Every prefix of a saved file, and a file with bytes added, is rejected
    with a MacqpError naming the path and where the file went wrong."""

    def _saved(self, tmp_path, kind):
        if kind == "model":
            p = tmp_path / "m.macn"
            save_model(rbf_autoencoder(2, 2, 1, 2), p)
            return p, load_model
        p = tmp_path / "d.macd"
        X = np.arange(6.0).reshape(3, 2)
        save_dataset_f64bin(Dataset(X, X[:, :1]), p)
        return p, lambda path: load_dataset(path, "f64bin")

    @pytest.mark.parametrize("kind", ["model", "dataset"])
    def test_truncation_at_every_byte_offset(self, tmp_path, kind):
        p, load = self._saved(tmp_path, kind)
        raw = p.read_bytes()
        cut_path = tmp_path / f"cut.{kind}"
        for cut in range(len(raw)):
            cut_path.write_bytes(raw[:cut])
            with pytest.raises(MacqpError) as err:
                load(cut_path)
            msg = str(err.value)
            assert str(cut_path) in msg and f"the file ends at byte {cut}" in msg

    @pytest.mark.parametrize("kind", ["model", "dataset"])
    def test_trailing_bytes_rejected(self, tmp_path, kind):
        p, load = self._saved(tmp_path, kind)
        size = len(p.read_bytes())
        with open(p, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(MacqpError, match=f"1 trailing bytes .* byte offset {size}"):
            load(p)

    def test_unknown_layer_kind_code_rejected(self, tmp_path):
        p, _ = self._saved(tmp_path, "model")
        raw = bytearray(p.read_bytes())
        raw[12] = 7  # the first layer's kind code follows the magic and header
        p.write_bytes(bytes(raw))
        with pytest.raises(MacqpError, match="unknown layer kind code 7 at byte offset 12"):
            load_model(p)


class TestInvalidModelFiles:
    """Well-formed MACN files that describe no valid net are rejected at load
    with a MacqpError naming the path, and ``macqp eval`` reports it."""

    @staticmethod
    def _write(path, layers, placement):
        """A MACN file of linear layers given as (in_dim, out_dim, weights)."""
        with open(path, "wb") as fh:
            fh.write(b"MACN" + struct.pack("<II", 1, len(layers)))
            for in_dim, out_dim, weights in layers:
                fh.write(struct.pack("<BIIddd", 1, in_dim, out_dim, 0.0, 0.0, 0.0))
                fh.write(np.asarray(weights, dtype="<f8").tobytes())
            fh.write(struct.pack(f"<I{len(placement)}I", len(placement), *placement))
        return path

    def _rejected(self, tmp_path, capsys, p, match):
        with pytest.raises(MacqpError, match=match) as err:
            load_model(p)
        assert str(err.value).startswith(f"{p}: ")
        data = tmp_path / "d.macd"
        save_dataset_f64bin(Dataset(np.ones((3, 2)), np.ones((3, 2))), data)
        assert cli_main(["eval", "--model", str(p), "--data", str(data)]) == 1
        assert str(p) in capsys.readouterr().err

    def test_zero_layers(self, tmp_path, capsys):
        p = self._write(tmp_path / "empty.macn", [], [])
        self._rejected(tmp_path, capsys, p, "0 layers")

    def test_widths_that_do_not_chain(self, tmp_path, capsys):
        p = self._write(tmp_path / "chain.macn",
                        [(2, 3, np.ones((3, 2))), (4, 2, np.ones((2, 4)))], [])
        self._rejected(tmp_path, capsys, p, "widths do not chain: 3 -> 4")

    def test_placement_out_of_range(self, tmp_path, capsys):
        p = self._write(tmp_path / "placed.macn",
                        [(2, 3, np.ones((3, 2))), (3, 2, np.ones((2, 3)))], [2])
        self._rejected(tmp_path, capsys, p, "placement index 2 outside 1..1")

    def test_non_finite_weights(self, tmp_path, capsys):
        p = self._write(tmp_path / "nan.macn",
                        [(2, 3, np.ones((3, 2))), (3, 2, [[1, 1, np.nan]] * 2)], [1])
        # the second layer's weights follow the header, one spec and 6 weights
        self._rejected(tmp_path, capsys, p,
                       "layer 2's weights at byte offset 126: .*non-finite")

    @pytest.mark.parametrize("net, offset, value, match", [
        # the first layer's spec starts at byte 12: kind u8, two u32 widths,
        # then rbf_width, ridge and the bias flag as f64 at 21, 29 and 37
        ("sigmoid", 29, float("nan"),
         r"layer 1's spec at byte offset 12: ridge must be a finite number >= 0, got nan"),
        ("sigmoid", 37, 0.5, r"layer 1's bias flag at byte offset 37 is 0\.5, not 0\.0 or 1\.0"),
        ("rbf", 21, float("inf"),
         r"layer 1's spec at byte offset 12: rbf_width must be a finite number >= 0, got inf"),
    ], ids=["nan_ridge", "bias_flag_one_half", "infinite_rbf_width"])
    def test_bad_layer_values_rejected(self, tmp_path, capsys, net, offset, value, match):
        p = tmp_path / "patched.macn"
        save_model(rbf_autoencoder(2, 2, 1, 2) if net == "rbf"
                   else sigmoid_autoencoder((3, 2, 3), seed=1), p)
        raw = bytearray(p.read_bytes())
        raw[offset : offset + 8] = struct.pack("<d", value)
        p.write_bytes(bytes(raw))
        self._rejected(tmp_path, capsys, p, match)


class TestPgm:
    def test_pixel_formula(self, tmp_path):
        img = np.array([[0.0, 0.5, 1.0], [-0.3, 2.0, 0.2]])
        p = tmp_path / "img.pgm"
        write_pgm(p, img)
        raw = p.read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        body = raw.split(b"255\n", 1)[1]
        assert list(body) == [0, 128, 255, 0, 255, 51]


def _mac_config(out_dir, workers=1):
    return {
        "method": "mac",
        "seed": 3,
        "output_dir": str(out_dir),
        "dataset": {"synth": {"n": 40, "ambient_dim": 8, "intrinsic_dim": 1,
                              "noise": 0.01, "seed": 1, "n_val": 15}},
        "architecture": {
            "layers": [
                {"kind": "sigmoid_dense", "in_dim": 8, "out_dim": 5},
                {"kind": "sigmoid_dense", "in_dim": 5, "out_dim": 2},
                {"kind": "sigmoid_dense", "in_dim": 2, "out_dim": 5},
                {"kind": "linear_dense", "in_dim": 5, "out_dim": 8},
            ],
            "placement": "all",
        },
        "schedule": {"max_stages": 3, "max_iters_per_stage": 3},
        "parallel": {"workers": workers},
        "recon_indices": [0],
        "recon_shape": [2, 4],
    }


def _rbf_select_arch():
    """The RBF autoencoder of the rbf_select benchmark: two RBF + linear blocks."""
    def rbf(i, o):
        return {"kind": "gaussian_rbf", "in_dim": i, "out_dim": o, "rbf_width": 2.0}

    def linear(i, o):
        return {"kind": "linear_dense", "in_dim": i, "out_dim": o, "ridge": 1e-6,
                "bias": False}

    return {"layers": [rbf(16, 40), linear(40, 2), rbf(2, 40), linear(40, 16)],
            "placement": "coding"}


# a valid selection section, into which the selection cases put one bad value
_GOOD_SELECTION = {"candidates_per_block": [[5]], "epsilon_sq": 1e-3}


class TestHarness:
    def test_unknown_keys_rejected(self, tmp_path):
        cfg = _mac_config(tmp_path)
        cfg["surprise"] = 1
        with pytest.raises(MacqpError, match="surprise"):
            validate_config(cfg)
        cfg = _mac_config(tmp_path)
        cfg["schedule"]["mu_final"] = 7
        with pytest.raises(MacqpError, match="mu_final"):
            validate_config(cfg)
        cfg = _mac_config(tmp_path)
        cfg["step"] = {"z_gn_iters": 1}
        with pytest.raises(MacqpError, match=r"unknown config keys in config: \['step'\]"):
            validate_config(cfg)

    # the penalty path, CG's line search, restart period and tolerance are constants
    @pytest.mark.parametrize("section, key, value", [
        ("schedule", "mu0", 1.0),
        ("schedule", "growth", 10.0),
        ("schedule", "reg_drop_threshold", 1e4),
        ("schedule", "transient_reg", 1e-4),
        ("cg", "line_search", "cubic"),
        ("cg", "gtol", 1e-10),
        ("cg", "restart_every", 100),
    ])
    def test_removed_keys_rejected_as_unknown(self, tmp_path, section, key, value):
        cfg = _mac_config(tmp_path)
        cfg[section] = {key: value}
        with pytest.raises(MacqpError, match=rf"unknown config keys in {section}: \['{key}'\]"):
            validate_config(cfg)

    @pytest.mark.parametrize("section, values", [
        ("schedule", {"max_iters_per_stage": 0}),
        ("schedule", {"stage_tolerance": float("nan")}),
        ("schedule", {"stage_tolerance": 0}),
        ("selection", {"epsilon_sq": 1e-3}),
        ("sgd", {"minibatch": 0}),
        *[("selection", dict(_GOOD_SELECTION, candidates_per_block=c))
          for c in ("abc", [[0, 5]], [[-3, 5]], [[2.5, 5]], [[]], [[5, 2]], [[True]])],
        ("selection", dict(_GOOD_SELECTION, epsilon_sq=float("nan"))),
        ("selection", dict(_GOOD_SELECTION, cadence=1.5)),
        ("sgd", {"minibatch": 2.5}),
        ("sgd", {"epochs": 1.5}),
        ("sgd", {"seed": "x"}),
        ("sgd", {"seed": -1}),
        ("sgd", {"trace_every": 0}),
        ("sgd", {"trace_every": 2.5}),
        ("sgd", {"learning_rate": float("nan")}),
        ("cg", {"max_iters": 0}),
        ("cg", {"max_iters": 2.5}),
        ("cg", {"trace_every": 0}),
    ])
    def test_invalid_section_values_rejected_at_load(self, tmp_path, section, values):
        cfg = _mac_config(tmp_path)
        cfg.setdefault(section, {}).update(values)
        with pytest.raises(MacqpError, match=f"invalid {section} section") as exc:
            validate_config(cfg)
        # the message names each key given a bad value
        for key, value in values.items():
            if not (section == "selection" and _GOOD_SELECTION.get(key) == value):
                assert key in str(exc.value)

    def test_mac_select_without_selection_fails_before_data(self, tmp_path, monkeypatch):
        import macqp.harness

        def no_data(cfg):
            raise AssertionError("dataset built")

        monkeypatch.setattr(macqp.harness, "build_dataset", no_data)
        cfg = dict(_mac_config(tmp_path), method="mac_select")
        for run in (validate_config, run_experiment):
            with pytest.raises(MacqpError, match="mac_select requires a 'selection' section"):
                run(cfg)

    @pytest.mark.parametrize("arch, lists, count", [
        # two RBF + linear blocks, one list
        (_rbf_select_arch(), [[10, 20]], 2),
        # a sigmoid net has no block selection can resize
        (_mac_config(".")["architecture"], [[5]], 0),
    ], ids=["rbf", "sigmoid"])
    def test_candidate_list_count_checked_at_load(self, tmp_path, monkeypatch, arch, lists,
                                                  count):
        import macqp.harness

        def no_data(cfg):
            raise AssertionError("dataset built")

        monkeypatch.setattr(macqp.harness, "build_dataset", no_data)
        cfg = dict(_mac_config(tmp_path), method="mac_select", architecture=arch,
                   selection=dict(_GOOD_SELECTION, candidates_per_block=lists))
        cfg["dataset"]["synth"]["ambient_dim"] = arch["layers"][0]["in_dim"]
        del cfg["recon_shape"]
        message = (rf"selection.candidates_per_block has {len(lists)} lists, but the "
                   rf"architecture has {count} selectable")
        for run in (validate_config, run_experiment):
            with pytest.raises(MacqpError, match=message):
                run(cfg)
        cfg["selection"]["candidates_per_block"] = lists * count
        validate_config(cfg)

    def test_altopt_with_ridge_free_readouts_runs(self, tmp_path):
        # at the first decoder fit the codes make a singular Gram matrix; the
        # ridge-free readout takes the minimum-norm least-squares solution
        arch = _rbf_select_arch()
        for layer in arch["layers"]:
            layer.pop("ridge", None)
        cfg = {"method": "altopt", "seed": 3, "warmup_step": 0, "output_dir": str(tmp_path),
               "dataset": {"synth": {"n": 500, "ambient_dim": 16, "intrinsic_dim": 1,
                                     "noise": 0.01, "seed": 7}},
               "architecture": arch, "altopt": {"iters": 1}}
        res = run_experiment(cfg)
        assert [r.event for r in res["trace"].rows] == ["altopt_iter"] * 2
        assert np.isfinite(res["e1_train"])

    def test_altopt_architecture_checked_before_any_data(self, tmp_path, capsys,
                                                         monkeypatch):
        import macqp.harness

        def no_data(*args, **kwargs):
            raise AssertionError("dataset built")

        monkeypatch.setattr(macqp.harness, "build_dataset", no_data)
        cfg = dict(_mac_config(tmp_path / "run"), method="altopt")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: alternating optimization expects an RBF autoencoder "
                              "architecture")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("change, message", [
        ({"out_dim": 7}, "dataset.synth.ambient_dim: the targets have width 8, but "
                         "architecture.layers[3].out_dim is 7"),
        ({"placement": "coding"}, "architecture.placement [2] makes layers 1..2 one block, "
                                  "of layer structure ['sigmoid_dense', 'sigmoid_dense'], "
                                  "which has no block solver"),
        ({"format": "parquet"}, "dataset.format must be 'csv' or 'f64bin', got 'parquet'"),
    ], ids=["target-width", "block-structure", "format"])
    def test_load_time_error_before_any_data(self, tmp_path, capsys, monkeypatch, change,
                                             message):
        import macqp.harness

        def no_data(*args, **kwargs):
            raise AssertionError("dataset built")

        monkeypatch.setattr(macqp.harness, "build_dataset", no_data)
        cfg = _mac_config(tmp_path / "run")
        del cfg["recon_shape"]
        if "out_dim" in change:
            cfg["architecture"]["layers"][-1]["out_dim"] = change["out_dim"]
        if "placement" in change:
            cfg["architecture"]["placement"] = change["placement"]
        if "format" in change:
            (tmp_path / "ds.parquet").write_bytes(b"")
            cfg["dataset"] = {"path": str(tmp_path / "ds.parquet"), "format": change["format"]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["bogus", ["sigmoid_dense"], {"a": 1}, None],
                             ids=["string", "list", "object", "null"])
    def test_unknown_layer_kind_is_a_config_error(self, tmp_path, capsys, kind):
        # a kind that is no LayerKind value, hashable or not, is named by its key
        cfg = _mac_config(tmp_path / "run")
        cfg["architecture"]["layers"][0]["kind"] = kind
        message = f"architecture.layers[0]: unknown layer kind {kind!r}"
        for load in (validate_config, run_experiment):
            with pytest.raises(MacqpError) as err:
                load(cfg)
            assert str(err.value) == message
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_file_dataset_widths_checked_before_training(self, tmp_path, capsys):
        # the widths of a file's columns are known once it is read: the error
        # names the file and the layer key, and no output is written
        data_path = tmp_path / "ds.csv"
        data_path.write_text("x0,y0,y1\n0.5,0.25,0.5\n0.25,0.5,0.75\n")
        cfg = _mac_config(tmp_path / "run")
        cfg["dataset"] = {"path": str(data_path), "format": "csv"}
        cfg["architecture"]["layers"][0]["in_dim"] = 1
        cfg["architecture"]["layers"][-1]["out_dim"] = 1
        del cfg["recon_shape"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (f"error: {data_path}: the targets have width 2, "
                                           "but architecture.layers[3].out_dim is 1\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("workers", [0, -2, 1.5, "2", True, None])
    def test_invalid_worker_count_rejected(self, tmp_path, workers):
        with pytest.raises(MacqpError, match="parallel.workers"):
            validate_config(_mac_config(tmp_path, workers=workers))

    def test_worker_count_error_is_a_config_error_quoting_the_value(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config(_mac_config(tmp_path, workers=0))
        assert str(err.value) == "parallel.workers must be an integer >= 1, got 0"

    @pytest.mark.parametrize("key, value, match", [
        ("recon_indices", [0, 40], "recon_indices"),
        ("recon_indices", [-1], "recon_indices"),
        ("recon_indices", [1.0], "recon_indices"),
        ("recon_shape", [3, 3], "recon_shape"),
        ("recon_shape", [-2, -4], "recon_shape"),
        ("recon_shape", [2, 2, 2], "recon_shape"),
    ])
    def test_bad_recon_settings_fail_before_training(self, tmp_path, monkeypatch,
                                                     key, value, match):
        import macqp.harness

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(macqp.harness, "mac_train", no_training)
        cfg = _mac_config(tmp_path)
        cfg[key] = value
        with pytest.raises(MacqpError, match=match):
            run_experiment(cfg)

    def test_mac_run_writes_artifacts_and_reduces_error(self, tmp_path):
        res = run_experiment(_mac_config(tmp_path))
        assert os.path.exists(res["trace_path"])
        assert os.path.exists(res["model_path"])
        assert os.path.exists(tmp_path / "recon_0.pgm")
        with open(res["trace_path"]) as fh:
            header = fh.readline().strip()
        assert header == TRACE_HEADER
        rows = res["trace"].rows
        assert rows[-1].e1_train <= rows[0].e1_train

    def test_postprocess_row_records_its_own_time(self, tmp_path):
        rows = run_experiment(_mac_config(tmp_path))["trace"].rows
        assert rows[-1].event == "postprocess"
        assert rows[-1].seconds > rows[-2].seconds

    def test_identical_configs_give_identical_traces(self, tmp_path):
        a = run_experiment(_mac_config(tmp_path / "a"))
        b = run_experiment(_mac_config(tmp_path / "b"))
        with open(a["trace_path"]) as fh:
            ta = fh.read()
        with open(b["trace_path"]) as fh:
            tb = fh.read()
        # all but wall-clock seconds must agree; weights must agree exactly
        strip = lambda t: [
            ",".join(c for i, c in enumerate(line.split(",")) if i != 1)
            for line in t.splitlines()
        ]
        assert strip(ta) == strip(tb)
        for la, lb in zip(a["net"].layers, b["net"].layers):
            np.testing.assert_array_equal(la.weights.matrix, lb.weights.matrix)

    def test_sgd_zero_lr_trace_is_constant(self, tmp_path):
        cfg = _mac_config(tmp_path)
        cfg["method"] = "sgd"
        cfg["sgd"] = {"learning_rate": 0.0, "epochs": 10, "minibatch": 10}
        res = run_experiment(cfg)
        vals = {r.e1_train for r in res["trace"].rows}
        assert len(vals) == 1

    def test_eval_matches_training_error(self, tmp_path):
        res = run_experiment(_mac_config(tmp_path))
        from macqp.data import save_dataset_f64bin
        from macqp.harness import build_dataset, eval_model

        ds = build_dataset(_mac_config(tmp_path))
        save_dataset_f64bin(ds, tmp_path / "ds.macd")
        out = eval_model(res["model_path"], tmp_path / "ds.macd", "f64bin")
        assert out["e1"] == pytest.approx(res["e1_train"], rel=1e-12)


class TestCli:
    def test_synth_then_eval_smoke(self, tmp_path, capsys):
        data_path = tmp_path / "ds.macd"
        rc = cli_main([
            "synth", "--out", str(data_path), "--n", "30",
            "--ambient-dim", "6", "--intrinsic-dim", "1",
        ])
        assert rc == 0 and data_path.exists()

        cfg = _mac_config(tmp_path / "run")
        cfg["dataset"] = {"path": str(data_path), "format": "f64bin"}
        cfg["architecture"]["layers"][0]["in_dim"] = 6
        cfg["architecture"]["layers"][-1]["out_dim"] = 6
        del cfg["recon_shape"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 0

        model = tmp_path / "run" / "model.macn"
        rc = cli_main([
            "eval", "--model", str(model), "--data", str(data_path),
            "--format", "f64bin",
        ])
        assert rc == 0
        assert "E1 =" in capsys.readouterr().out

    @pytest.mark.parametrize("x_dim, y_dim, message", [
        (5, 6, "the inputs have width 5, but architecture.layers[0].in_dim is 6"),
        (6, 4, "the targets have width 4, but architecture.layers[1].out_dim is 6"),
    ], ids=["inputs", "targets"])
    def test_eval_names_the_data_file_and_widths(self, tmp_path, capsys, x_dim, y_dim,
                                                 message):
        model = tmp_path / "model.macn"
        save_model(sigmoid_autoencoder((6, 3, 6)), model)
        data_path = tmp_path / "ds.macd"
        save_dataset_f64bin(Dataset(np.ones((4, x_dim)), np.ones((4, y_dim))), data_path)
        rc = cli_main(["eval", "--model", str(model), "--data", str(data_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {data_path}: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0"], "--n must be an integer >= 1, got 0"),
        (["--n", "-3"], "--n must be an integer >= 1, got -3"),
        (["--noise", "-1"], "--noise must be a finite number >= 0, got -1.0"),
        (["--intrinsic-dim", "0"], "--intrinsic-dim must be an integer >= 1, got 0"),
        (["--noise", "nan"], "--noise must be a finite number >= 0, got nan"),
        (["--ambient-dim", "1"], "--intrinsic-dim must be below --ambient-dim, got 1 and 1"),
        (["--seed", "-1"], "--seed must be an integer >= 0, got -1"),
    ], ids=["n=0", "n=-3", "noise=-1", "intrinsic-dim=0", "noise=nan", "ambient-dim=1",
            "seed=-1"])
    def test_synth_rejects_bad_flags_before_writing(self, tmp_path, capsys, flags, message):
        data_path = tmp_path / "ds.macd"
        rc = cli_main(["synth", "--out", str(data_path), *flags])
        assert rc == 1 and not data_path.exists()
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bench_parallel_writes_csv(self, tmp_path):
        cfg = _mac_config(tmp_path / "bench")
        cfg["schedule"] = {"max_stages": 2, "max_iters_per_stage": 2}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli_main([
            "bench-parallel", "--config", str(cfg_path), "--workers", "1,2",
        ])
        assert rc == 0
        lines = (tmp_path / "bench" / "bench.csv").read_text().splitlines()
        assert lines[0] == "workers,seconds,speedup"
        assert len(lines) == 3

    @pytest.mark.parametrize("workers", ["1,a", "0", "2,-1", "1,"])
    def test_bench_parallel_rejects_bad_worker_counts(self, tmp_path, capsys, workers):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(_mac_config(tmp_path / "bench")))
        rc = cli_main(["bench-parallel", "--config", str(cfg_path), "--workers", workers])
        assert rc == 1
        assert "error: --workers must be an integer >= 1, got " in capsys.readouterr().err
        assert not (tmp_path / "bench").exists()

    def test_train_rejects_bad_schedule_value(self, tmp_path, capsys):
        cfg = _mac_config(tmp_path / "run")
        cfg["schedule"]["stage_tolerance"] = 0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert "error: invalid schedule section" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c["architecture"]["layers"][0].update(in_dim="a"),
         "architecture.layers[0].in_dim must be an integer >= 1, got 'a'"),
        (lambda c: c["architecture"]["layers"].__setitem__(
            0, {"kind": "gaussian_rbf", "in_dim": 8, "out_dim": 5}),
         "invalid architecture.layers[0]: rbf_width must be positive"),
        (lambda c: c["dataset"]["synth"].update(n="x"),
         "dataset.synth.n must be an integer >= 1, got 'x'"),
        (lambda c: c.update(seed="x"), "seed must be an integer >= 0, got 'x'"),
        (lambda c: c.update(time_budget="x"),
         "time_budget must be a finite number >= 0, got 'x'"),
        # integers too large for a float
        (lambda c: c["schedule"].update(stage_tolerance=10**399),
         "invalid schedule section: stage_tolerance must be a finite number >= 0, got 1000"),
        (lambda c: c["architecture"]["layers"][0].update(ridge=10**399),
         "architecture.layers[0].ridge must be a finite number >= 0, got 1000"),
    ])
    def test_train_rejects_bad_values_before_training(self, tmp_path, capsys, monkeypatch,
                                                      edit, message):
        import macqp.harness

        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(macqp.harness, "mac_train", no_training)
        cfg = _mac_config(tmp_path / "run")
        edit(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_train_invalid_json_names_path_line_and_column(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{\n  "method": "mac"\n  "seed": 1\n}\n')
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (f"error: {cfg_path}: invalid JSON at line 3 "
                                           "column 3: Expecting ',' delimiter\n")

    def test_train_non_utf8_config_names_path_and_byte_offset(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b"\xff\xfe" + json.dumps(_mac_config(tmp_path)).encode("utf-16-le"))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (f"error: {cfg_path}: not UTF-8 text: invalid "
                                           "start byte at byte offset 0\n")

    def test_train_non_utf8_csv_names_path_and_byte_offset(self, tmp_path, capsys):
        data_path = tmp_path / "ds.csv"
        data_path.write_bytes(b"x0,y0\n0.5,0.25\n0.5,\xe9\n")
        cfg = _mac_config(tmp_path / "run")
        cfg["dataset"] = {"path": str(data_path), "format": "csv"}
        cfg["architecture"]["layers"][0]["in_dim"] = 1
        cfg["architecture"]["layers"][-1]["out_dim"] = 1
        del cfg["recon_shape"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err == (f"error: {data_path}: not UTF-8 text: invalid "
                                           "continuation byte at byte offset 19\n")

    @pytest.mark.parametrize("argv, missing", [
        (["train", "--config", "{tmp}/cfg.json"], "{tmp}/cfg.json"),
        (["eval", "--model", "{tmp}/model.macn", "--data", "{tmp}/ds.macd"],
         "{tmp}/model.macn"),
        (["synth", "--out", "{tmp}/no_dir/ds.macd", "--n", "5"], "{tmp}/no_dir/ds.macd"),
    ], ids=["train-config", "eval-model", "synth-out"])
    def test_missing_file_is_an_error_line(self, tmp_path, capsys, argv, missing):
        rc = cli_main([a.format(tmp=tmp_path) for a in argv])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory: ")
        assert missing.format(tmp=tmp_path) in err and err.count("\n") == 1

    def test_train_error_exits_nonzero(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"method": "warp"}))
        assert cli_main(["train", "--config", str(cfg_path)]) == 1


def test_readme_configs_are_valid():
    # every fenced JSON block of README.md is a config that loads
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = re.findall(r"^```json\n(.*?)^```$", fh.read(), re.DOTALL | re.MULTILINE)
    assert blocks
    for block in blocks:
        validate_config(json.loads(block))

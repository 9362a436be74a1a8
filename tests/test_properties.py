"""Property-based tests: file round-trips, header checks, config validation,
damaged files.

Examples are drawn with a fixed seed (``derandomize``), so every run of the
suite checks the same cases.
"""

import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from macqp.checkpoint import load_model, save_model
from macqp.data import load_dataset, save_dataset_csv, save_dataset_f64bin
from macqp.harness import load_config, validate_config
from macqp.model import (
    Dataset,
    Layer,
    LayerKind,
    LayerSpec,
    LayerWeights,
    MacqpError,
    NestedNet,
    init_weights,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 5))
    dp = draw(st.integers(1, 4))
    X = draw(hnp.arrays(np.float64, (n, d), elements=finite))
    Y = draw(hnp.arrays(np.float64, (n, dp), elements=finite))
    return Dataset(X, Y)


@st.composite
def nets(draw):
    widths = draw(st.lists(st.integers(1, 5), min_size=2, max_size=5))
    layers = []
    for a, b in zip(widths, widths[1:]):
        kind = draw(st.sampled_from(list(LayerKind)))
        spec = LayerSpec(
            kind, a, b,
            rbf_width=draw(st.floats(1e-3, 1e3)) if kind == LayerKind.GAUSSIAN_RBF else 0.0,
            ridge=draw(st.floats(0.0, 10.0)),
            bias=draw(st.booleans()),
        )
        W = draw(hnp.arrays(np.float64, spec.weight_shape, elements=finite))
        layers.append(Layer(spec, LayerWeights(W)))
    boundaries = range(1, len(layers))
    placement = sorted(draw(st.sets(st.sampled_from(boundaries)))) if len(layers) > 1 else []
    return NestedNet(layers, placement)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRoundTrips:
    @PROPERTY
    @given(datasets(), st.sampled_from(["f64bin", "csv"]))
    def test_dataset_round_trip_is_exact(self, ds, fmt):
        save = save_dataset_f64bin if fmt == "f64bin" else save_dataset_csv
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data")
            save(ds, path)
            back = load_dataset(path, fmt)
        assert _same_bits(back.X, ds.X) and _same_bits(back.Y, ds.Y)

    @PROPERTY
    @given(nets())
    def test_model_round_trip_is_exact(self, net):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.macn")
            save_model(net, path)
            back = load_model(path)
        assert back.placement == net.placement
        assert [l.spec for l in back.layers] == [l.spec for l in net.layers]
        for a, b in zip(back.layers, net.layers):
            assert _same_bits(a.weights.matrix, b.weights.matrix)

    @PROPERTY
    @given(st.data())
    def test_permuted_csv_header_is_rejected(self, data):
        d, dp = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
        header = [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(dp)]
        permuted = data.draw(st.permutations(header).filter(lambda p: p != header))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w") as fh:
                fh.write(",".join(permuted) + "\n" + ",".join(["0.5"] * (d + dp)) + "\n")
            with pytest.raises(MacqpError, match="header"):
                load_dataset(path, "csv")


# ---------------------------------------------------------------------------
# Config validation

_BASE = {
    "method": "mac",
    "seed": 3,
    "output_dir": "out",
    "time_budget": 10.0,
    "dataset": {"synth": {"n": 40, "ambient_dim": 8, "intrinsic_dim": 1,
                          "noise": 0.01, "seed": 1, "n_val": 15}},
    "architecture": {
        "layers": [
            {"kind": "sigmoid_dense", "in_dim": 8, "out_dim": 5},
            {"kind": "gaussian_rbf", "in_dim": 5, "out_dim": 4, "rbf_width": 1.0},
            {"kind": "linear_dense", "in_dim": 4, "out_dim": 8, "ridge": 0.0,
             "bias": False},
        ],
        "placement": [1],
    },
    "schedule": {"max_stages": 3, "max_iters_per_stage": 3},
    "selection": {"candidates_per_block": [[2, 4]], "epsilon_sq": 1e-4},
    "parallel": {"workers": 1},
    "sgd": {"minibatch": 10},
    "cg": {"max_iters": 50},
    "altopt": {"iters": 2, "cg_steps": 3},
    "recon_indices": [0],
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def edited_configs(draw):
    """The valid base config with a few values replaced by arbitrary JSON
    values, or keys deleted or added, at any depth."""
    cfg = copy.deepcopy(_BASE)
    for _ in range(draw(st.integers(1, 3))):
        node = cfg
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(["replace", "delete", "add"]))
            if action == "replace":
                node[key] = draw(json_values)
            elif action == "delete":
                del node[key]
            elif isinstance(node, dict):
                node[draw(st.text(max_size=8))] = draw(json_values)
            else:
                node.append(draw(json_values))
            break
    return cfg


class TestConfigValidation:
    def test_base_config_is_valid(self):
        validate_config(copy.deepcopy(_BASE))

    @PROPERTY
    @given(edited_configs())
    def test_edited_config_passes_or_fails_with_macqp_error(self, cfg):
        try:
            validate_config(cfg)
        except MacqpError:
            pass

    @PROPERTY
    @given(st.dictionaries(st.sampled_from(sorted(_BASE) + ["extra"]), json_values))
    def test_random_config_passes_or_fails_with_macqp_error(self, cfg):
        try:
            validate_config(cfg)
        except MacqpError:
            pass


# ---------------------------------------------------------------------------
# Damaged files


def _valid_files():
    """One valid file per format a run loads: {name: (bytes, loader)}."""
    ds = Dataset(np.linspace(0.0, 1.0, 12).reshape(4, 3), np.linspace(-1.0, 1.0, 8).reshape(4, 2))
    net = init_weights([LayerSpec(LayerKind.SIGMOID_DENSE, 3, 2),
                        LayerSpec(LayerKind.GAUSSIAN_RBF, 2, 3, rbf_width=1.0),
                        LayerSpec(LayerKind.LINEAR_DENSE, 3, 3, ridge=0.5)], 1, placement=[1])
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, save in (("macn", lambda p: save_model(net, p)),
                           ("macd", lambda p: save_dataset_f64bin(ds, p)),
                           ("csv", lambda p: save_dataset_csv(ds, p))):
            path = os.path.join(tmp, name)
            save(path)
            with open(path, "rb") as fh:
                files[name] = fh.read()
    files["config"] = json.dumps(_BASE, indent=1).encode()
    loaders = {"macn": load_model, "macd": lambda p: load_dataset(p, "f64bin"),
               "csv": lambda p: load_dataset(p, "csv"), "config": load_config}
    return {name: (raw, loaders[name]) for name, raw in files.items()}


VALID_FILES = _valid_files()


@st.composite
def damaged(draw, raw):
    """``raw`` after 1 to 3 edits: a byte flipped, the tail cut off, or
    bytes inserted."""
    out = bytearray(raw)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["flip", "truncate", "insert"]))
        if edit == "flip" and out:
            out[draw(st.integers(0, len(out) - 1))] ^= draw(st.integers(1, 255))
        elif edit == "truncate":
            del out[draw(st.integers(0, len(out))):]
        else:
            at = draw(st.integers(0, len(out)))
            out[at:at] = draw(st.binary(min_size=1, max_size=8))
    return bytes(out)


class TestDamagedFiles:
    @pytest.mark.parametrize("name", sorted(VALID_FILES))
    def test_valid_file_loads(self, name, tmp_path):
        raw, load = VALID_FILES[name]
        path = tmp_path / name
        path.write_bytes(raw)
        load(str(path))

    @pytest.mark.parametrize("name", sorted(VALID_FILES))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_damaged_file_loads_or_fails_with_macqp_error(self, name, data):
        raw, load = VALID_FILES[name]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, name)
            with open(path, "wb") as fh:
                fh.write(data.draw(damaged(raw)))
            try:
                load(path)
            except MacqpError:
                pass

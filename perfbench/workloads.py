"""The benchmark's workloads: a macqp experiment config, the inputs made
from the benchmark seed, and the quality targets for time-to-target.

Each workload fixes its problem (data, architecture, init seed, schedule).
The benchmark seed only reorders the inputs, in a way the method's result
does not depend on except through rounding:

- ``rows``: the training points are permuted.  The Z-step is separable
  over points, so only summation order in the W-step changes.
- ``val_rows``: only the validation points are permuted.  The nested
  error is an exactly rounded sum over points, so the run is bit for bit
  the same.  Used for ``desk``, whose postprocess refit amplifies the
  rounding of a reordered training sum into a different final E1 (see
  README).
- ``columns``: the feature columns are permuted.  Used for the RBF
  workload, whose k-means picks its starting centres by row index, so a
  row permutation there is a different optimisation path (see README).
"""

import copy
import math

import numpy as np


def _sigmoid(i, o):
    return {"kind": "sigmoid_dense", "in_dim": i, "out_dim": o}


def _linear(i, o, **kw):
    return {"kind": "linear_dense", "in_dim": i, "out_dim": o, **kw}


def _rbf(i, o):
    return {"kind": "gaussian_rbf", "in_dim": i, "out_dim": o, "rbf_width": 2.0}


WORKLOADS = {
    # ROADMAP desk problem: 64-32-8-32-64 sigmoid autoencoder, one worker.
    "desk": {
        "permute": "val_rows",
        "check_stage_ends": False,
        "e1_target": 2.6,
        "viol_target": 2e-3,
        "config": {
            "method": "mac",
            "seed": 11,
            "dataset": {"synth": {"n": 500, "ambient_dim": 64, "intrinsic_dim": 1,
                                  "noise": 0.01, "seed": 7, "n_val": 200}},
            "architecture": {
                "layers": [_sigmoid(64, 32), _sigmoid(32, 8), _sigmoid(8, 32),
                           _linear(32, 64)],
                "placement": "all",
            },
            "schedule": {"max_stages": 3, "max_iters_per_stage": 3,
                         "stage_tolerance": 1e-6},
            "parallel": {"workers": 1},
        },
    },
    # Realizable penalty-path problem, mu 1 -> 1e4.  One worker: with two,
    # on a 2-CPU machine shared with other tenants, train_s spread by a
    # third between runs (README, finding 3), wider than any bound.
    "path": {
        "permute": "rows",
        "check_stage_ends": True,
        "e1_target": 0.06,
        "viol_target": 2e-4,
        "config": {
            "method": "mac",
            "seed": 5,
            "dataset": {"synth": {"n": 120, "ambient_dim": 4, "intrinsic_dim": 1,
                                  "noise": 0.0, "seed": 3, "n_val": 0}},
            "architecture": {
                "layers": [_sigmoid(4, 24), _sigmoid(24, 2), _sigmoid(2, 24),
                           _linear(24, 4)],
                "placement": "all",
            },
            "schedule": {"max_stages": 5, "max_iters_per_stage": 3,
                         "stage_tolerance": 1e-13},
            "parallel": {"workers": 1},
        },
    },
    # RBF autoencoder with per-block size selection every 2 iterations.
    "rbf_select": {
        "permute": "columns",
        "check_stage_ends": False,
        "e1_target": 0.265,
        "viol_target": 1e-4,
        "config": {
            "method": "mac_select",
            "seed": 3,
            "dataset": {"synth": {"n": 500, "ambient_dim": 16, "intrinsic_dim": 1,
                                  "noise": 0.01, "seed": 7, "n_val": 0}},
            "architecture": {
                "layers": [_rbf(16, 40), _linear(40, 2, ridge=1e-6, bias=False),
                           _rbf(2, 40), _linear(40, 16, ridge=1e-6, bias=False)],
                "placement": "coding",
            },
            "selection": {"candidates_per_block": [[10, 20, 30, 40, 50]] * 2,
                          "epsilon_sq": 1e-4, "cadence": 2},
            "schedule": {"max_stages": 5, "max_iters_per_stage": 6,
                         "stage_tolerance": 1e-8},
            "parallel": {"workers": 1},
        },
    },
}


def get(name, smoke=False):
    """A deep copy of the workload; ``smoke`` shrinks it to seconds-or-less
    (tiny N, one stage) and makes the quality targets always reachable."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    wl = copy.deepcopy(WORKLOADS[name])
    if smoke:
        cfg = wl["config"]
        synth = cfg["dataset"]["synth"]
        synth["n"] = 40
        synth["n_val"] = min(synth["n_val"], 20)
        cfg["schedule"].update(max_stages=1, max_iters_per_stage=2)
        if "selection" in cfg:
            cfg["selection"]["candidates_per_block"] = [[10, 20]] * 2
        wl["e1_target"] = wl["viol_target"] = math.inf
    return wl


def make_inputs(wl, seed, synth_fn, dataset_cls):
    """The workload's dataset, reordered by ``seed`` (see module docstring).

    ``synth_fn`` is ``macqp.data.synth_manifold_dataset``, passed in so
    that a traced run times it through its module attribute.
    """
    s = wl["config"]["dataset"]["synth"]
    ds = synth_fn(s["n"], s["ambient_dim"], s["intrinsic_dim"], s["noise"], s["seed"],
                  n_val=s["n_val"])
    rng = np.random.default_rng(seed)
    if wl["permute"] == "columns":
        c = rng.permutation(ds.X.shape[1])
        val = (ds.val_X[:, c], ds.val_Y[:, c]) if ds.val_X is not None else (None, None)
        return dataset_cls(ds.X[:, c], ds.Y[:, c], *val)
    if wl["permute"] == "val_rows":
        q = rng.permutation(ds.val_X.shape[0])
        return dataset_cls(ds.X, ds.Y, ds.val_X[q], ds.val_Y[q])
    p = rng.permutation(ds.n)
    return dataset_cls(ds.X[p], ds.Y[p])

"""Experiment orchestration: JSON configs, dataset wiring, artifact output.

A config fully describes one training run (method, architecture, data,
optimizer settings).  Unknown keys anywhere in the config are rejected
outright.  ``run_experiment`` builds the net, applies the shared warmup
step, runs the chosen optimizer and writes trace.csv, model.macn and any
requested reconstruction images into the output directory.
"""

import json
import math
import os
import time

import numpy as np

from . import data as data_mod
from .baselines import CgConfig, SgdConfig, alt_opt_rbf_train, cg_train, sgd_train
from .checkpoint import save_model
from .mac import (
    AuxState,
    PenaltySchedule,
    StepConfig,
    TrainTrace,
    lift_to_feasible,
    mac_train,
    postprocess,
)
from .model import (
    LayerKind,
    LayerSpec,
    MacqpError,
    bias_warmup_step,
    forward_all,
    init_weights,
    nested_objective,
)
from .parallel import resolve_workers, worker_count
from .selection import SelectionConfig, mac_train_with_selection

METHODS = ("mac", "mac_select", "sgd", "cg", "altopt")

_TOP_KEYS = {
    "method", "seed", "output_dir", "dataset", "architecture", "schedule",
    "step", "selection", "parallel", "sgd", "cg", "altopt", "warmup_step",
    "recon_indices", "recon_shape", "time_budget",
}
_DATASET_KEYS = {"path", "format", "synth"}
_SYNTH_KEYS = {"n", "ambient_dim", "intrinsic_dim", "noise", "seed", "n_val"}
_ARCH_KEYS = {"layers", "placement"}
_LAYER_KEYS = {"kind", "in_dim", "out_dim", "rbf_width", "ridge", "bias"}
_SCHEDULE_KEYS = {
    "mu0", "growth", "stage_tolerance", "max_stages", "reg_drop_threshold",
    "transient_reg", "max_iters_per_stage",
}
_STEP_KEYS = {"w_gn_iters", "z_gn_iters", "backtrack_factor", "max_backtracks", "gn_damping"}
_SELECTION_KEYS = {"candidates_per_block", "epsilon_sq", "cadence"}
_PARALLEL_KEYS = {"workers"}
_SGD_KEYS = {"minibatch", "learning_rate", "epochs", "seed", "trace_every"}
_CG_KEYS = {"max_iters", "restart_every", "line_search", "gtol", "trace_every"}
_ALTOPT_KEYS = {"iters", "cg_steps"}

# Sections built into these config types; a value a type rejects fails
# the config at load time.
_SECTION_TYPES = {
    "schedule": PenaltySchedule,
    "step": StepConfig,
    "selection": SelectionConfig,
    "sgd": SgdConfig,
    "cg": CgConfig,
}

_KIND_NAMES = {
    "sigmoid_dense": LayerKind.SIGMOID_DENSE,
    "linear_dense": LayerKind.LINEAR_DENSE,
    "gaussian_rbf": LayerKind.GAUSSIAN_RBF,
}


def _check_keys(d, allowed, context):
    unknown = set(d) - allowed
    if unknown:
        raise MacqpError(f"unknown config keys in {context}: {sorted(unknown)}")


def load_config(path_or_dict):
    if isinstance(path_or_dict, dict):
        cfg = path_or_dict
    else:
        with open(path_or_dict) as fh:
            cfg = json.load(fh)
    validate_config(cfg)
    return cfg


def validate_config(cfg):
    _check_keys(cfg, _TOP_KEYS, "config")
    method = cfg.get("method")
    if method not in METHODS:
        raise MacqpError(f"method must be one of {METHODS}, got {method!r}")
    if "dataset" not in cfg or "architecture" not in cfg:
        raise MacqpError("config requires 'dataset' and 'architecture'")
    ds = cfg["dataset"]
    _check_keys(ds, _DATASET_KEYS, "dataset")
    if "synth" in ds:
        _check_keys(ds["synth"], _SYNTH_KEYS, "dataset.synth")
    else:
        if "path" not in ds or "format" not in ds:
            raise MacqpError("dataset needs either 'synth' or 'path' + 'format'")
        if not os.path.exists(ds["path"]):
            raise MacqpError(f"dataset file not found: {ds['path']}")
    arch = cfg["architecture"]
    _check_keys(arch, _ARCH_KEYS, "architecture")
    for i, layer in enumerate(arch.get("layers", [])):
        _check_keys(layer, _LAYER_KEYS, f"architecture.layers[{i}]")
        if layer.get("kind") not in _KIND_NAMES:
            raise MacqpError(f"unknown layer kind {layer.get('kind')!r}")
    for key, allowed in (
        ("schedule", _SCHEDULE_KEYS),
        ("step", _STEP_KEYS),
        ("selection", _SELECTION_KEYS),
        ("parallel", _PARALLEL_KEYS),
        ("sgd", _SGD_KEYS),
        ("cg", _CG_KEYS),
        ("altopt", _ALTOPT_KEYS),
    ):
        if key in cfg:
            if not isinstance(cfg[key], dict):
                raise MacqpError(f"config section {key} must be an object")
            _check_keys(cfg[key], allowed, key)
    for key, section_type in _SECTION_TYPES.items():
        if key in cfg:
            try:
                section_type(**cfg[key])
            except (TypeError, ValueError) as exc:
                raise MacqpError(f"invalid {key} section: {exc}") from None
    if "workers" in cfg.get("parallel", {}):
        worker_count(cfg["parallel"]["workers"], "parallel.workers")


def override_workers(cfg, workers):
    cfg = dict(cfg)
    par = dict(cfg.get("parallel", {}))
    par["workers"] = workers
    cfg["parallel"] = par
    return cfg


def build_dataset(cfg):
    ds = cfg["dataset"]
    if "synth" in ds:
        s = ds["synth"]
        return data_mod.synth_manifold_dataset(
            s["n"], s["ambient_dim"], s["intrinsic_dim"],
            s.get("noise", 0.0), s.get("seed", 0), n_val=s.get("n_val", 0),
        )
    return data_mod.load_dataset(ds["path"], ds["format"])


def build_architecture(cfg):
    arch = cfg["architecture"]
    specs = [
        LayerSpec(
            _KIND_NAMES[l["kind"]], l["in_dim"], l["out_dim"],
            rbf_width=l.get("rbf_width", 0.0), ridge=l.get("ridge", 0.0),
            bias=l.get("bias", True),
        )
        for l in arch["layers"]
    ]
    placement = arch.get("placement", "all")
    if placement == "all":
        placement = list(range(1, len(specs)))
    elif placement == "coding":
        placement = [_coding_boundary(specs)]
    return specs, list(placement)


def _coding_boundary(specs):
    widths = [s.out_dim for s in specs[:-1]]
    return int(np.argmin(widths)) + 1


def _initial_aux_state(net, X):
    """Coordinates from the forward pass, or a PCA projection when only
    the coding boundary is placed."""
    if len(net.placement) == 1:
        width = net.layers[net.placement[0] - 1].spec.out_dim
        if width <= X.shape[1]:
            return AuxState([data_mod.pca_embed(X, width)])
    return lift_to_feasible(net, X)


def _check_recon_settings(cfg, n, out_dim):
    """Reconstruction indices must name training rows and the image shape
    must hold exactly one output vector; checked before training starts."""
    for idx in cfg.get("recon_indices", []):
        if type(idx) is not int or not 0 <= idx < n:
            raise MacqpError(f"recon_indices entry {idx!r} is not a row index in 0..{n - 1}")
    shape = cfg.get("recon_shape")
    if shape is not None and not (
        isinstance(shape, list) and len(shape) in (1, 2)
        and all(type(s) is int and s > 0 for s in shape)
        and math.prod(shape) == out_dim
    ):
        raise MacqpError(
            f"recon_shape {shape!r} must be one or two positive integers "
            f"whose product is the output width {out_dim}"
        )


def run_experiment(cfg):
    """Run one configured experiment; returns paths and final errors."""
    cfg = load_config(cfg)
    out_dir = cfg.get("output_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    dataset = build_dataset(cfg)
    specs, placement = build_architecture(cfg)
    _check_recon_settings(cfg, dataset.n, specs[-1].out_dim)
    workers = resolve_workers(cfg.get("parallel", {}).get("workers", 1))
    time_budget = cfg.get("time_budget")

    net = init_weights(specs, cfg.get("seed", 0), placement=placement)
    net = bias_warmup_step(net, dataset, cfg.get("warmup_step", 1.0))

    method = cfg["method"]
    trace = TrainTrace()
    if method in ("mac", "mac_select"):
        schedule = PenaltySchedule(**cfg.get("schedule", {}))
        step_cfg = StepConfig(**cfg.get("step", {}))
        z0 = _initial_aux_state(net, dataset.X)
        if method == "mac":
            net, Z, trace = mac_train(
                net, dataset, schedule, step_cfg, workers=workers,
                time_budget=time_budget, z_init=z0,
            )
        else:
            if "selection" not in cfg:
                raise MacqpError("mac_select requires a 'selection' section")
            sel_cfg = SelectionConfig(**cfg["selection"])
            net, Z, trace = mac_train_with_selection(
                net, dataset, schedule, step_cfg, sel_cfg, workers=workers,
                time_budget=time_budget, z_init=z0,
            )
        t0 = time.perf_counter()
        net = postprocess(net, Z, dataset, cfg=step_cfg, workers=workers)
        post_s = time.perf_counter() - t0
        e1 = nested_objective(net, dataset)
        last_it = trace.rows[-1].iteration if trace.rows else 0
        last_s = trace.rows[-1].seconds if trace.rows else 0.0
        trace.add(last_it + 1, last_s + post_s, trace.rows[-1].mu if trace.rows else 0.0,
                  e1, nested_objective(net, dataset.eval_split()), e1, 0.0, "postprocess")
    elif method == "sgd":
        net, trace = sgd_train(net, dataset, SgdConfig(**cfg.get("sgd", {})),
                               time_budget=time_budget)
    elif method == "cg":
        net, trace = cg_train(net, dataset, CgConfig(**cfg.get("cg", {})),
                              time_budget=time_budget)
    elif method == "altopt":
        alt = cfg.get("altopt", {})
        net, trace = alt_opt_rbf_train(
            net, dataset, alt.get("iters", 10), cg_steps=alt.get("cg_steps", 10),
            seed=cfg.get("seed", 0), time_budget=time_budget,
        )

    trace_path = os.path.join(out_dir, "trace.csv")
    model_path = os.path.join(out_dir, "model.macn")
    trace.to_csv(trace_path)
    save_model(net, model_path)

    recon_paths = []
    shape = cfg.get("recon_shape")
    for idx in cfg.get("recon_indices", []):
        recon = forward_all(net, dataset.X[idx][None, :])[-1][0]
        img = recon.reshape(shape) if shape else recon[None, :]
        p = os.path.join(out_dir, f"recon_{idx}.pgm")
        data_mod.write_pgm(p, img)
        recon_paths.append(p)

    return {
        "model_path": model_path,
        "trace_path": trace_path,
        "recon_paths": recon_paths,
        "e1_train": nested_objective(net, dataset),
        "e1_val": nested_objective(net, dataset.eval_split()),
        "net": net,
        "trace": trace,
    }


def eval_model(model_path, data_path, fmt):
    """Nested error of a stored model on a stored dataset."""
    from .checkpoint import load_model

    net = load_model(model_path)
    ds = data_mod.load_dataset(data_path, fmt)
    e1 = nested_objective(net, ds)
    per_sample = e1 / ds.n
    return {"e1": e1, "per_sample": per_sample, "n": ds.n}

"""Experiment orchestration: JSON configs, dataset wiring, artifact output.

A config fully describes one training run (method, architecture, data,
optimizer settings).  Unknown keys anywhere in the config are rejected
outright.  ``run_experiment`` builds the net, applies the shared warmup
step, runs the chosen optimizer and writes trace.csv, model.macn and any
requested reconstruction images into the output directory.
"""

import dataclasses
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
    lift_to_feasible,
    mac_train,
    postprocess,
)
from .model import (
    Layer,
    LayerKind,
    LayerSpec,
    LayerWeights,
    MacqpError,
    NestedNet,
    TrainTrace,
    bias_warmup_step,
    check_count,
    check_real,
    forward_all,
    init_weights,
    nested_objective,
)
from .parallel import resolve_workers
from .selection import SelectionConfig, mac_train_with_selection, selectable_blocks

METHODS = ("mac", "mac_select", "sgd", "cg", "altopt")

_TOP_KEYS = {
    "method", "seed", "output_dir", "dataset", "architecture", "schedule",
    "selection", "parallel", "sgd", "cg", "altopt", "warmup_step",
    "recon_indices", "recon_shape", "time_budget",
}
_DATASET_KEYS = {"path", "format", "synth"}
_SYNTH_KEYS = {"n", "ambient_dim", "intrinsic_dim", "noise", "seed", "n_val"}
_ARCH_KEYS = {"layers", "placement"}
_LAYER_KEYS = {"kind", "in_dim", "out_dim", "rbf_width", "ridge", "bias"}
_PARALLEL_KEYS = {"workers"}
_ALTOPT_KEYS = {"iters", "cg_steps"}

# Sections built into these config types: their keys are the type's
# fields, and a value the type rejects fails the config at load time.
_SECTION_TYPES = {
    "schedule": PenaltySchedule,
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
            try:
                cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise MacqpError(f"{path_or_dict}: invalid JSON at line {exc.lineno} "
                                 f"column {exc.colno}: {exc.msg}") from None
    validate_config(cfg)
    return cfg


def _check_section(value, key):
    if not isinstance(value, dict):
        raise MacqpError(f"config section {key} must be an object, got {value!r}")


def validate_config(cfg):
    """Raise MacqpError, naming the key, unless cfg describes a runnable
    experiment: keys, value types and ranges, the layer specs, how they
    chain and the placement are all checked here, before any data is
    loaded or generated."""
    _check_section(cfg, "config")
    _check_keys(cfg, _TOP_KEYS, "config")
    method = cfg.get("method")
    if method not in METHODS:
        raise MacqpError(f"method must be one of {METHODS}, got {method!r}")
    if "dataset" not in cfg or "architecture" not in cfg:
        raise MacqpError("config requires 'dataset' and 'architecture'")
    ds = cfg["dataset"]
    _check_section(ds, "dataset")
    _check_keys(ds, _DATASET_KEYS, "dataset")
    if "synth" in ds:
        _synth_args(ds["synth"])
    else:
        if "path" not in ds or "format" not in ds:
            raise MacqpError("dataset needs either 'synth' or 'path' + 'format'")
        if not isinstance(ds["path"], str) or not os.path.exists(ds["path"]):
            raise MacqpError(f"dataset file not found: {ds['path']!r}")
    specs, placement = build_architecture(cfg)
    if method == "mac_select" and "selection" not in cfg:
        raise MacqpError("mac_select requires a 'selection' section")
    for key, allowed in (("parallel", _PARALLEL_KEYS), ("altopt", _ALTOPT_KEYS)):
        if key in cfg:
            _check_section(cfg[key], key)
            _check_keys(cfg[key], allowed, key)
    for key, section_type in _SECTION_TYPES.items():
        if key in cfg:
            _check_section(cfg[key], key)
            _check_keys(cfg[key], {f.name for f in dataclasses.fields(section_type)}, key)
            try:
                section_type(**cfg[key])
            except (TypeError, ValueError) as exc:
                raise MacqpError(f"invalid {key} section: {exc}") from None
    if method == "mac_select":
        _check_candidate_lists(cfg["selection"]["candidates_per_block"], specs, placement)
    if "workers" in cfg.get("parallel", {}):
        check_count(cfg["parallel"]["workers"], "parallel.workers", 1)
    for key in ("iters", "cg_steps"):
        if key in cfg.get("altopt", {}):
            check_count(cfg["altopt"][key], f"altopt.{key}", 0)
    if "seed" in cfg:
        check_count(cfg["seed"], "seed", 0)
    if cfg.get("time_budget") is not None:
        check_real(cfg["time_budget"], "time_budget", 0)
    if "warmup_step" in cfg:
        check_real(cfg["warmup_step"], "warmup_step", 0)
    if not isinstance(cfg.get("output_dir", "."), str):
        raise MacqpError(f"output_dir must be a string, got {cfg['output_dir']!r}")
    # their entries are checked against the dataset once it is loaded
    if not isinstance(cfg.get("recon_indices", []), list):
        raise MacqpError(f"recon_indices must be a list, got {cfg['recon_indices']!r}")


def _check_candidate_lists(cands, specs, placement):
    """One candidate list per block that selection can resize."""
    # the rule reads the specs and placement only; zero weights make the net
    net = NestedNet([Layer(s, LayerWeights(np.zeros(s.weight_shape))) for s in specs],
                    placement)
    count = len(selectable_blocks(net))
    if len(cands) != count:
        raise MacqpError(
            f"selection.candidates_per_block has {len(cands)} lists, but the architecture "
            f"has {count} selectable (gaussian_rbf + linear_dense) blocks"
        )


def override_workers(cfg, workers):
    cfg = dict(cfg)
    par = dict(cfg.get("parallel", {}))
    par["workers"] = workers
    cfg["parallel"] = par
    return cfg


def _synth_args(s, name="dataset.synth.{}".format):
    """synth_manifold_dataset's keyword arguments from a dataset.synth section.

    ``name`` gives the name an error uses for each key.
    """
    _check_section(s, "dataset.synth")
    _check_keys(s, _SYNTH_KEYS, "dataset.synth")
    for key in ("n", "ambient_dim", "intrinsic_dim"):
        if key not in s:
            raise MacqpError(f"dataset.synth requires '{key}'")
        check_count(s[key], name(key), 1)
    if s["intrinsic_dim"] >= s["ambient_dim"]:
        raise MacqpError(f"{name('intrinsic_dim')} must be below {name('ambient_dim')}, got "
                         f"{s['intrinsic_dim']} and {s['ambient_dim']}")
    noise, seed, n_val = s.get("noise", 0.0), s.get("seed", 0), s.get("n_val", 0)
    check_real(noise, name("noise"), 0)
    check_count(seed, name("seed"), 0)
    check_count(n_val, name("n_val"), 0)
    return {"n": s["n"], "ambient_dim": s["ambient_dim"], "intrinsic_dim": s["intrinsic_dim"],
            "noise": noise, "seed": seed, "n_val": n_val}


def build_dataset(cfg):
    ds = cfg["dataset"]
    if "synth" in ds:
        return data_mod.synth_manifold_dataset(**_synth_args(ds["synth"]))
    return data_mod.load_dataset(ds["path"], ds["format"])


def _layer_spec(layer, key):
    """The LayerSpec of one architecture.layers entry."""
    _check_section(layer, key)
    _check_keys(layer, _LAYER_KEYS, key)
    if layer.get("kind") not in _KIND_NAMES:
        raise MacqpError(f"{key}: unknown layer kind {layer.get('kind')!r}")
    for dim in ("in_dim", "out_dim"):
        if dim not in layer:
            raise MacqpError(f"{key} requires '{dim}'")
        check_count(layer[dim], f"{key}.{dim}", 1)
    for name in ("rbf_width", "ridge"):
        if name in layer:
            check_real(layer[name], f"{key}.{name}", 0)
    if not isinstance(layer.get("bias", True), bool):
        raise MacqpError(f"{key}.bias must be true or false, got {layer['bias']!r}")
    try:
        return LayerSpec(
            _KIND_NAMES[layer["kind"]], layer["in_dim"], layer["out_dim"],
            rbf_width=layer.get("rbf_width", 0.0), ridge=layer.get("ridge", 0.0),
            bias=layer.get("bias", True),
        )
    except ValueError as exc:
        raise MacqpError(f"invalid {key}: {exc}") from None


def build_architecture(cfg):
    """Layer specs and placement of the architecture section; MacqpError
    names the key of the first entry that is not valid."""
    arch = cfg["architecture"]
    _check_section(arch, "architecture")
    _check_keys(arch, _ARCH_KEYS, "architecture")
    layers = arch.get("layers")
    if not isinstance(layers, list) or not layers:
        raise MacqpError(f"architecture.layers must be a nonempty list, got {layers!r}")
    specs = [_layer_spec(l, f"architecture.layers[{i}]") for i, l in enumerate(layers)]
    for i, (a, b) in enumerate(zip(specs, specs[1:]), start=1):
        if a.out_dim != b.in_dim:
            raise MacqpError(f"architecture.layers[{i}].in_dim is {b.in_dim}, but the "
                             f"layer before it has out_dim {a.out_dim}")
    placement = arch.get("placement", "all")
    if placement == "all":
        placement = list(range(1, len(specs)))
    elif placement == "coding" and len(specs) > 1:
        placement = [_coding_boundary(specs)]
    elif not (
        isinstance(placement, list)
        and all(type(p) is int and 1 <= p < len(specs) for p in placement)
        and all(a < b for a, b in zip(placement, placement[1:]))
    ):
        raise MacqpError(
            "architecture.placement must be 'all', 'coding' (with two or more "
            "layers) or increasing layer boundaries in 1.."
            f"{len(specs) - 1}, got {placement!r}"
        )
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
        z0 = _initial_aux_state(net, dataset.X)
        if method == "mac":
            net, Z, trace = mac_train(
                net, dataset, schedule, workers=workers,
                time_budget=time_budget, z_init=z0,
            )
        else:
            sel_cfg = SelectionConfig(**cfg["selection"])
            net, Z, trace = mac_train_with_selection(
                net, dataset, schedule, sel_cfg, workers=workers,
                time_budget=time_budget, z_init=z0,
            )
        t0 = time.perf_counter()
        net = postprocess(net, Z, dataset)
        post_s = time.perf_counter() - t0
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

    e1_train = nested_objective(net, dataset)
    e1_val = e1_train if dataset.val_X is None else nested_objective(net, dataset.eval_split())
    if method in ("mac", "mac_select"):
        last_it = trace.rows[-1].iteration if trace.rows else 0
        last_s = trace.rows[-1].seconds if trace.rows else 0.0
        trace.add(last_it + 1, last_s + post_s, trace.rows[-1].mu if trace.rows else 0.0,
                  e1_train, e1_val, e1_train, 0.0, "postprocess")

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
        "e1_train": e1_train,
        "e1_val": e1_val,
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

"""One repetition of a workload, in a fresh process.

Runs ``macqp.harness.run_experiment`` on the workload, checks its outputs
and prints one JSON line: end-to-end metrics, check counts, the
environment and, with ``--traced``, the per-layer metrics of a span trace.

    python3 perfbench/rep.py --workload desk --seed 1 --spawn-time <monotonic s>

Started by ``run.py``; ``--spawn-time`` is the parent's ``time.monotonic()``
just before the process was created (the clock is system-wide on Linux),
so ``setup_s`` covers interpreter start and imports.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib.util
import json
import math
import platform
import resource
import sys
import time
import traceback

from tracer import Tracer, patched

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Targets wrapped in a traced run: (module, attribute, span name, hook name).
# Each public function is wrapped at every attribute macqp calls it through.
TRACE_POINTS = [
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "mac_train", "mac.mac_train", None),
    ("harness", "mac_train_with_selection", "selection.mac_train_with_selection", None),
    ("harness", "postprocess", "mac.postprocess", "postprocess"),
    ("harness", "bias_warmup_step", "model.bias_warmup_step", None),
    ("harness", "lift_to_feasible", "mac.lift_to_feasible", None),
    ("harness", "init_weights", "model.init_weights", None),
    ("harness", "nested_objective", "model.nested_objective", None),
    ("harness", "save_model", "checkpoint.save_model", "save_model"),
    ("mac", "z_step", "mac.z_step", "z_step"),
    ("mac", "w_step", "mac.w_step", "w_step"),
    ("mac", "qp_objective", "mac.qp_objective", None),
    ("mac", "constraint_residuals", "mac.constraint_residuals", None),
    ("mac", "nested_objective", "model.nested_objective", None),
    ("mac", "lift_to_feasible", "mac.lift_to_feasible", None),
    ("mac", "layer_apply", "model.layer_apply", None),
    ("mac", "layer_jacobians", "model.layer_jacobians", None),
    ("mac", "sigmoid", "kernels.sigmoid", "sigmoid"),
    ("mac", "ridge_lsq", "baselines.ridge_lsq", None),
    ("mac", "fit_rbf_linear_pair", "baselines.fit_rbf_linear_pair", None),
    ("mac", "parallel_map", "parallel.parallel_map", None),
    ("model", "layer_apply", "model.layer_apply", None),
    ("model", "nested_objective", "model.nested_objective", None),
    ("model", "sigmoid", "kernels.sigmoid", "sigmoid"),
    ("model", "rbf_design", "kernels.rbf_design", "rbf_design"),
    ("kernels", "sigmoid", "kernels.sigmoid", "sigmoid"),
    ("kernels", "rbf_design", "kernels.rbf_design", "rbf_design"),
    ("baselines", "kmeans", "baselines.kmeans", None),
    ("baselines", "ridge_lsq", "baselines.ridge_lsq", None),
    ("baselines", "rbf_design", "kernels.rbf_design", "rbf_design"),
    ("selection", "mac_train", "mac.mac_train", None),
    ("selection", "selection_step", "selection.selection_step", "selection_step"),
    ("selection", "fit_rbf_linear_pair", "baselines.fit_rbf_linear_pair", None),
    ("data", "synth_manifold_dataset", "data.synth_manifold_dataset", None),
    ("data", "pca_embed", "data.pca_embed", None),
]
MODULES = ("mac", "model", "kernels", "baselines", "selection", "parallel", "data",
           "harness", "checkpoint")


def _environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _hooks(macqp):
    """Counters taken from the inputs and outputs of public calls."""
    import numpy as np

    nested = macqp.model.nested_objective
    block_slices = macqp.mac.block_slices
    selectable = macqp.selection.selectable_blocks

    def changed(a, b, sl):
        return any(
            not np.array_equal(a.layers[i].weights.matrix, b.layers[i].weights.matrix)
            for i in range(sl[0], sl[1])
        )

    def z_step(count, args, kw, out):
        Z = args[1]
        moved = np.zeros(Z.n, dtype=bool)
        for old, new in zip(Z.coords, out.coords):
            moved |= np.any(old != new, axis=1)
        count("z.points", Z.n)
        count("z.moved", int(moved.sum()))

    def w_step(count, args, kw, out):
        slices = block_slices(args[0])
        count("w.blocks", len(slices))
        count("w.changed", sum(changed(args[0], out, s) for s in slices))

    def selection_step(count, args, kw, out):
        net, slices = args[0], block_slices(args[0])
        blocks = selectable(net)
        count("sel.blocks", len(blocks))
        count("sel.resized", sum(
            out.layers[slices[j][0]].spec.out_dim != net.layers[slices[j][0]].spec.out_dim
            for j in blocks
        ))

    def postprocess(count, args, kw, out):
        net, data = args[0], args[2]
        count("post.calls")
        count("post.accepted", int(changed(net, out, block_slices(net)[-1])))
        count("post.e1_raised", int(nested(out, data) > nested(net, data) + 1e-10))

    def sigmoid(count, args, kw, out):
        count("sigmoid.elems", int(np.size(args[0])))

    def rbf_design(count, args, kw, out):
        X, C = np.atleast_2d(args[0]), np.atleast_2d(args[1])
        n, d, m = X.shape[0], X.shape[1], C.shape[0]
        # cross term 2nmd, squared norms 2(n+m)d, combine/clamp/scale/exp 5nm
        count("rbf.flops", 2 * n * m * d + 2 * (n + m) * d + 5 * n * m)

    def save_model(count, args, kw, out):
        count("save.bytes", os.path.getsize(args[1]))

    return dict(z_step=z_step, w_step=w_step, selection_step=selection_step,
                postprocess=postprocess, sigmoid=sigmoid, rbf_design=rbf_design,
                save_model=save_model)


def _layer_metrics(summary, train_s):
    pn, c = summary["per_name"], summary["counters"]

    def g(name, key="s"):
        return pn.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("mac.z_step", "mac.w_step"):
        m[f"{name}.s"] = g(name)
        m[f"{name}.calls"] = g(name, "calls")
        m[f"{name}.share"] = ratio(g(name), train_s)
    m["mac.z_step.points"] = c.get("z.points", 0)
    m["mac.z_step.points_per_s"] = ratio(c.get("z.points", 0), g("mac.z_step"))
    m["mac.z_step.moved_frac"] = ratio(c.get("z.moved", 0), c.get("z.points", 0))
    m["mac.w_step.blocks"] = c.get("w.blocks", 0)
    m["mac.w_step.accept_frac"] = ratio(c.get("w.changed", 0), c.get("w.blocks", 0))
    m["mac.bookkeeping.s"] = summary["bookkeeping_s"]
    m["mac.bookkeeping.share"] = ratio(summary["bookkeeping_s"], train_s)
    m["mac.postprocess.s"] = g("mac.postprocess")
    m["mac.postprocess.calls"] = g("mac.postprocess", "calls")
    m["mac.postprocess.accepted"] = c.get("post.accepted", 0)
    m["mac.lift_to_feasible.s"] = g("mac.lift_to_feasible")
    for name in ("model.layer_jacobians", "model.layer_apply", "model.nested_objective",
                 "kernels.sigmoid", "kernels.rbf_design", "baselines.kmeans",
                 "baselines.ridge_lsq", "selection.selection_step",
                 "parallel.parallel_map"):
        m[f"{name}.calls"] = g(name, "calls")
        m[f"{name}.s"] = g(name)
    m["model.bias_warmup_step.s"] = g("model.bias_warmup_step")
    m["kernels.sigmoid.elems"] = c.get("sigmoid.elems", 0)
    m["kernels.sigmoid.bytes_computed"] = 16 * c.get("sigmoid.elems", 0)
    m["kernels.rbf_design.flops_computed"] = c.get("rbf.flops", 0)
    m["baselines.fit_rbf_linear_pair.s"] = g("baselines.fit_rbf_linear_pair")
    m["selection.blocks_scored"] = c.get("sel.blocks", 0)
    m["selection.resized_blocks"] = c.get("sel.resized", 0)
    m["parallel.parallel_map.tasks"] = c.get("parallel.tasks", 0)
    m["parallel.busy_s"] = summary["task_s"]
    m["parallel.util"] = ratio(summary["task_s"], c.get("parallel.worker_s", 0))
    m["data.synth_manifold_dataset.s"] = g("data.synth_manifold_dataset")
    m["data.pca_embed.s"] = g("data.pca_embed")
    m["harness.run_experiment.s"] = g("harness.run_experiment")
    m["harness.trace_csv.s"] = g("harness.trace_csv")
    m["checkpoint.save_model.s"] = g("checkpoint.save_model")
    m["checkpoint.save_model.bytes"] = c.get("save.bytes", 0)
    for mod in MODULES:
        m[f"self.{mod}.s"] = summary["per_module_self_s"].get(mod, 0.0)
    m["traced.train_s"] = train_s
    m["traced.spans"] = summary["spans"]
    m["mac.coverage"] = ratio(
        g("mac.z_step") + g("mac.w_step") + summary["bookkeeping_s"]
        + g("selection.selection_step"),
        train_s,
    )
    return m


def _time_to_target(rows, key, target):
    """Index of the training row from which every later row has ``key`` at
    or below ``target`` (the violation starts near 0 at lifted coordinates
    and oscillates between W- and Z-step rows, so the first crossing is not
    it); None if the last row is above it."""
    i = None
    for k, r in enumerate(rows):
        if getattr(r, key) > target:
            i = None
        elif i is None:
            i = k
    return i


def _checks(wl, rows, e1_train, reload_e1):
    """Per-run correctness checks: name -> [attempted, failed]."""
    checks = {}

    def check(name, ok):
        a = checks.setdefault(name, [0, 0])
        a[0] += 1
        a[1] += 0 if ok else 1

    for prev, cur in zip(rows, rows[1:]):
        if cur.event in ("wstep", "zstep") and prev.mu == cur.mu:
            check("eq_nonincreasing", cur.eq <= prev.eq * (1.0 + 1e-10))
    if wl["check_stage_ends"]:
        ends = [r.constraint_viol for r in rows if r.event == "mu_increase"]
        ends.append([r for r in rows if r.event == "zstep"][-1].constraint_viol)
        for a, b in zip(ends, ends[1:]):
            check("stage_end_residuals_nonincreasing", b <= a)
    check("e1_finite", math.isfinite(e1_train))
    check("checkpoint_reproduces_e1", reload_e1 == e1_train)
    return checks


def run(workload, seed, spawn_time, traced=False, smoke=False):
    sys.path.insert(0, SRC)
    import macqp
    import macqp.baselines
    import macqp.checkpoint
    import macqp.data
    import macqp.harness
    import macqp.kernels
    import macqp.mac
    import macqp.model
    import macqp.selection

    if os.path.dirname(os.path.abspath(macqp.__file__)) != os.path.join(SRC, "macqp"):
        raise RuntimeError(f"imported macqp from {macqp.__file__}, not from {SRC}")

    import workloads

    wl = workloads.get(workload, smoke=smoke)
    out_dir = os.path.join(OUT, workload + ("-smoke" if smoke else ""))
    os.makedirs(out_dir, exist_ok=True)
    cfg = dict(wl["config"], output_dir=os.path.join(out_dir, "run"))

    inputs = {}

    def build_dataset(_cfg):
        # the benchmark makes the inputs; the config's synth section names them
        inputs["data"] = workloads.make_inputs(
            wl, seed, macqp.data.synth_manifold_dataset, macqp.model.Dataset
        )
        return inputs["data"]

    times = {}

    def timed(fn):
        def call(*args, **kwargs):
            times["enter"] = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                times["exit"] = time.monotonic()
        return call

    H = macqp.harness
    restored = []
    tracer = None
    with contextlib.ExitStack() as stack:
        if traced:
            hooks = _hooks(macqp)
            points = [
                (getattr(macqp, mod), attr, name, hooks.get(hook))
                for mod, attr, name, hook in TRACE_POINTS
            ]
            points.append((macqp.mac.TrainTrace, "to_csv", "harness.trace_csv", None))
            tracer = Tracer(points)
            stack.enter_context(patched(tracer.patches(), restored))
        # the timers wrap the traced functions, so they are set second
        stack.enter_context(patched([
            (H, "build_dataset", build_dataset),
            (H, "mac_train", timed(H.mac_train)),
            (H, "mac_train_with_selection", timed(H.mac_train_with_selection)),
        ], restored))
        t0 = time.monotonic()
        result = H.run_experiment(cfg)
        t1 = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    data, rows = inputs["data"], result["trace"].rows
    train_s = times["exit"] - times["enter"]
    train_rows = [r for r in rows if r.event != "postprocess"]
    pairs = sum(r.event == "zstep" for r in rows)
    i_e1 = _time_to_target(train_rows, "e1_train", wl["e1_target"])
    i_viol = _time_to_target(train_rows, "constraint_viol", wl["viol_target"])
    reload_e1 = macqp.model.nested_objective(
        macqp.checkpoint.load_model(result["model_path"]), data
    )
    checks = _checks(wl, rows, result["e1_train"], reload_e1)
    checks["e1_target_reached"] = [1, int(i_e1 is None)]
    checks["viol_target_reached"] = [1, int(i_viol is None)]
    checks["wrappers_restored"] = [1, int(not all(restored))]
    metrics = {
        "setup_s": times["enter"] - spawn_time,
        "train_s": train_s,
        "total_s": t1 - t0,
        "point_iters_per_s": data.n * pairs / train_s,
        "t_e1_target_s": None if i_e1 is None else train_rows[i_e1].seconds,
        "t_viol_target_s": None if i_viol is None else train_rows[i_viol].seconds,
        "e1_train": result["e1_train"],
        "e1_val": result["e1_val"],
        "constraint_viol": train_rows[-1].constraint_viol,
        "peak_rss_mb": rss_mb,
    }
    steps = {"seconds": [r.seconds for r in train_rows], "i_e1": i_e1, "i_viol": i_viol,
             "point_iters": data.n * pairs}
    out = {"metrics": metrics, "steps": steps, "checks": checks, "env": _environment()}
    if tracer is not None:
        summary = tracer.summary()
        c = summary["counters"]
        checks["postprocess_keeps_e1"] = [c.get("post.calls", 0), c.get("post.e1_raised", 0)]
        out["layers"] = _layer_metrics(summary, train_s)
        tracer.write(os.path.join(out_dir, "spans.npz"))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawn-time", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.spawn_time, traced=args.traced,
                  smoke=args.smoke)
    except Exception as exc:  # reported to run.py as a failed run
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance gate.

Each test checks one numbered release criterion at its stated tolerance
and prints a single PASS/FAIL line.  Shared training runs (the desk-scale
sigmoid autoencoder and the penalty-path study) execute once per session.
Run with ``pytest tests/test_acceptance.py -v`` (a few minutes; two of
the criteria hold a 60-second wall-clock budget per optimizer).
"""

import hashlib
import itertools
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import macqp.mac
from conftest import (
    fd_gradient,
    kmeans_objective,
    random_dataset,
    random_mixed_net,
    rbf_autoencoder,
    sigmoid_autoencoder,
)
from macqp.baselines import (
    CgConfig,
    SgdConfig,
    cg_train,
    fit_rbf_linear_pair,
    kmeans,
    sgd_train,
)
from macqp.data import synth_manifold_dataset
from macqp.harness import override_workers, run_experiment
from macqp.kernels import rbf_design
from macqp.mac import (
    AuxState,
    PenaltySchedule,
    _block_inputs,
    block_slices,
    constraint_residual_vectors,
    lift_to_feasible,
    mac_train,
    multiplier_estimates,
    postprocess,
    qp_objective,
)
from macqp.model import (
    Dataset,
    Layer,
    LayerKind,
    LayerSpec,
    LayerWeights,
    NestedNet,
    add_bias_col,
    backprop_gradient,
    bias_warmup_step,
    init_weights,
    nested_objective,
)
from macqp.selection import SelectionConfig, aic_cost, selection_step


@contextmanager
def criterion(capsys, num, desc):
    """Print one PASS/FAIL line per criterion, visible under capture."""
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"\ncriterion {num:2d} FAIL  {desc}")
        raise
    with capsys.disabled():
        print(f"\ncriterion {num:2d} PASS  {desc}")


# ---------------------------------------------------------------------------
# Shared runs


@pytest.fixture(scope="module")
def desk_data():
    return synth_manifold_dataset(500, 64, 1, 0.01, seed=7, n_val=200)


@pytest.fixture(scope="module")
def desk_net(desk_data):
    net = sigmoid_autoencoder((64, 32, 8, 32, 64), seed=11)
    return bias_warmup_step(net, desk_data)


@pytest.fixture(scope="module")
def desk_run(desk_net, desk_data):
    """Full penalty-path run on the 64-32-8-32-64 autoencoder, with
    (net, coordinates) snapshots collected after every iteration."""
    snapshots = []
    schedule = PenaltySchedule(
        max_stages=5, stage_tolerance=1e-6, max_iters_per_stage=10
    )
    z_step = macqp.mac.z_step

    def snapshot_z_step(net, *args, **kwargs):
        Z = z_step(net, *args, **kwargs)
        snapshots.append((net.copy(), Z.copy()))
        return Z

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(macqp.mac, "z_step", snapshot_z_step)
        net, Z, trace = mac_train(desk_net, desk_data, schedule)
    return net, Z, trace, snapshots


@pytest.fixture(scope="module")
def path_run():
    """Penalty-path study on a realizable problem: a noise-free curve the
    net has enough capacity to fit, so the limiting constrained solution
    carries small multipliers and the 1/mu residual decay is visible."""
    data = synth_manifold_dataset(120, 4, 1, 0.0, seed=3)
    net = bias_warmup_step(sigmoid_autoencoder((4, 24, 2, 24, 4), seed=5), data)
    schedule = PenaltySchedule(
        max_stages=5, stage_tolerance=1e-13, max_iters_per_stage=60
    )
    out, Z, trace = mac_train(net, data, schedule)
    return data, out, Z, trace


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_1_gradient_oracle(capsys):
    with criterion(capsys, 1, "backprop matches finite differences to 1e-6"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        nets = [random_mixed_net(rng) for _ in range(20)]
        # two nets near the 1e3-weight scale
        for seed in (1, 2):
            specs = [
                LayerSpec(LayerKind.SIGMOID_DENSE, 10, 20),
                LayerSpec(LayerKind.GAUSSIAN_RBF, 20, 25, rbf_width=1.5),
                LayerSpec(LayerKind.LINEAR_DENSE, 25, 8),
            ]
            nets.append(init_weights(specs, seed))
        worst = 0.0
        for net in nets:
            assert net.num_params() <= 1000
            data = random_dataset(rng, net)
            got = np.concatenate(
                [g.ravel() for g in backprop_gradient(net, data)]
            )
            want = fd_gradient(net, data)
            err = np.max(np.abs(got - want)) / (1.0 + np.max(np.abs(want)))
            worst = max(worst, err)
            assert err <= 1e-6
        elapsed = time.perf_counter() - t0
        assert len(nets) >= 20
        assert elapsed <= 10.0


def test_criterion_2_feasible_equivalence(capsys):
    with criterion(capsys, 2, "E_Q at feasible coordinates equals E1 (100 pairs)"):
        rng = np.random.default_rng(77)
        for _ in range(100):
            net = random_mixed_net(rng, ridge=float(rng.uniform(0, 1e-2)))
            data = random_dataset(rng, net)
            mu = float(10.0 ** rng.uniform(-2, 6))
            Z = lift_to_feasible(net, data.X)
            e1 = nested_objective(net, data)
            eq = qp_objective(net, Z, data, mu)
            assert abs(eq - e1) <= 1e-12 * (1.0 + e1)


def test_criterion_3_monotone_descent(capsys, desk_run):
    with criterion(capsys, 3, "every W-step and Z-step decreases E_Q (desk run)"):
        _, _, trace, _ = desk_run
        checked = violations = 0
        for prev, cur in zip(trace.rows, trace.rows[1:]):
            if cur.event in ("wstep", "zstep") and prev.mu == cur.mu:
                checked += 1
                if not cur.eq <= prev.eq * (1.0 + 1e-10):
                    violations += 1
        assert checked >= 80
        assert violations == 0


def test_criterion_4_penalty_path(capsys, path_run):
    data, net, Z, trace = path_run
    ends = [r.constraint_viol for r in trace.rows if r.event == "mu_increase"]
    ends.append([r for r in trace.rows if r.event == "zstep"][-1].constraint_viol)
    desc = (
        "stage-end residuals nonincreasing, final/initial = "
        f"{ends[-1] / ends[0]:.1e} (<= 1e-3); multiplier identity exact"
    )
    with criterion(capsys, 4, desc):
        mus = sorted({r.mu for r in trace.rows})
        assert mus == [1.0, 10.0, 100.0, 1000.0, 10000.0]
        assert len(ends) == 5
        assert all(b <= a for a, b in zip(ends, ends[1:]))
        assert ends[-1] <= 1e-3 * ends[0]
        # multiplier estimates are exactly -mu times the residual vectors
        for mu in (1.0, 1e2, 1e4):
            R = constraint_residual_vectors(net, Z, data.X)
            np.testing.assert_array_equal(
                multiplier_estimates(net, Z, data.X, mu), -mu * R
            )


def test_criterion_5_postprocessing(capsys, desk_run, desk_data):
    with criterion(capsys, 5, "postprocess never increases E1 (50 snapshots)"):
        _, _, _, snapshots = desk_run
        assert len(snapshots) >= 50
        for net, Z in snapshots[:50]:
            e1_forward = nested_objective(net, desk_data)
            post = postprocess(net, Z, desk_data)
            assert nested_objective(post, desk_data) <= e1_forward + 1e-10


def _rbf_ae_net(d, m1, code, m3):
    specs = [
        LayerSpec(LayerKind.GAUSSIAN_RBF, d, m1, rbf_width=2.0),
        LayerSpec(LayerKind.LINEAR_DENSE, m1, code, bias=False),
        LayerSpec(LayerKind.GAUSSIAN_RBF, code, m3, rbf_width=2.0),
        LayerSpec(LayerKind.LINEAR_DENSE, m3, d, bias=False),
    ]
    return NestedNet(
        [Layer(s, LayerWeights(np.zeros(s.weight_shape))) for s in specs], [2]
    )


def test_criterion_6_aic_arithmetic(capsys):
    with criterion(capsys, 6, "parameter counts 2,807,136 and 1,557,468 exact"):
        full = _rbf_ae_net(1024, 1368, 2, 1368)
        assert full.num_params() == 2_807_136
        selected = _rbf_ae_net(1024, 1368, 2, 150)
        assert selected.num_params() == 1_557_468
        assert aic_cost(selected, 0.05) == pytest.approx(
            2 * 0.05 * 1_557_468, rel=1e-14
        )


def _pair_score(rbf_layer, lin_layer, A_in, T, weight, eps_sq):
    phi = rbf_design(A_in, rbf_layer.weights.matrix, rbf_layer.spec.rbf_width)
    if lin_layer.spec.bias:
        phi = add_bias_col(phi)
    val = 0.5 * weight * float(np.sum((T - phi @ lin_layer.weights.matrix.T) ** 2))
    val += lin_layer.spec.ridge * float(np.sum(lin_layer.weights.matrix**2))
    n_params = rbf_layer.weights.matrix.size + lin_layer.weights.matrix.size
    return val + 2.0 * eps_sq * n_params


def _grid_best_sizes(net, Z, data, mu, cands, eps_sq):
    """Best (encoder, decoder) sizes by exhaustive joint enumeration.

    Each block's options are its current weights plus a fresh refit at
    every candidate size; ties keep the current size (options listed
    current-first, strict improvement required).
    """
    slices = block_slices(net)
    ins = _block_inputs(net, Z, data.X)
    targets = list(Z.coords) + [data.Y]
    weights = [mu if j < len(slices) - 1 else 1.0 for j in range(len(slices))]

    def block_options(j):
        rbf_cur = net.layers[slices[j][0]]
        lin_cur = net.layers[slices[j][0] + 1]
        opts = [(
            rbf_cur.spec.out_dim,
            _pair_score(rbf_cur, lin_cur, ins[j], targets[j], weights[j], eps_sq),
        )]
        for m in cands[j]:
            rbf_s = replace(rbf_cur.spec, out_dim=m)
            lin_s = replace(lin_cur.spec, in_dim=m)
            fr, fl = fit_rbf_linear_pair(
                Layer(rbf_s, LayerWeights(np.zeros(rbf_s.weight_shape))),
                Layer(lin_s, LayerWeights(np.zeros(lin_s.weight_shape))),
                ins[j], targets[j], weights[j],
            )
            opts.append(
                (m, _pair_score(fr, fl, ins[j], targets[j], weights[j], eps_sq))
            )
        return opts

    best, best_sizes = None, None
    for (m1, s1), (m3, s3) in itertools.product(block_options(0), block_options(1)):
        total = s1 + s3
        if best is None or total < best:
            best, best_sizes = total, (m1, m3)
    return best_sizes


def test_criterion_7_selection(capsys):
    with criterion(
        capsys, 7, "selection: E_Q + C nonincreasing; matches grid brute force"
    ):
        # brute-force oracle on a 5x5 candidate grid
        rng = np.random.default_rng(9)
        net = rbf_autoencoder(5, 6, 2, 7, ridge=0.0, seed=3)
        X = rng.uniform(size=(30, 5))
        data = Dataset(X, X)
        Z = AuxState([rng.normal(size=(30, 2))])
        cands = [[2, 3, 4, 5, 6], [2, 4, 6, 8, 10]]
        eps_sq, mu = 0.02, 2.0
        picked = selection_step(
            net, Z, data, mu, SelectionConfig(cands, epsilon_sq=eps_sq)
        )
        got = (picked.layers[0].spec.out_dim, picked.layers[2].spec.out_dim)
        assert got == _grid_best_sizes(net, Z, data, mu, cands, eps_sq)

        # full desk-scale RBF-autoencoder run: fit + cost never increases
        run_data = synth_manifold_dataset(300, 16, 1, 0.01, seed=7)
        run_net = rbf_autoencoder(16, 40, 2, 40, seed=3)
        sel_cfg = SelectionConfig(
            candidates_per_block=[[10, 20, 30, 40, 50], [10, 20, 30, 40, 50]],
            epsilon_sq=1e-4, cadence=2,
        )
        schedule = PenaltySchedule(
            max_stages=3, stage_tolerance=1e-8, max_iters_per_stage=6
        )
        _, _, trace = mac_train(
            run_net, run_data, schedule, sel_cfg=sel_cfg
        )
        assert len(trace.selection_events) >= 5
        for ev in trace.selection_events:
            assert ev["after"] <= ev["before"] * (1.0 + 1e-12)


@pytest.mark.slow
def test_criterion_8_budget_comparison(capsys, desk_net, desk_data):
    budget = 60.0
    schedule = PenaltySchedule(
        max_stages=9, stage_tolerance=1e-4, max_iters_per_stage=5
    )
    mac_net, _, mac_trace = mac_train(
        desk_net, desk_data, schedule, time_budget=budget
    )
    mac_e1 = nested_objective(mac_net, desk_data)
    cg_net, _ = cg_train(
        desk_net, desk_data,
        CgConfig(max_iters=10**9, line_search="cubic", trace_every=5),
        time_budget=budget,
    )
    cg_e1 = nested_objective(cg_net, desk_data)
    sgd_net, _ = sgd_train(
        desk_net, desk_data,
        SgdConfig(minibatch=20, learning_rate=3e-3, epochs=10**9, trace_every=10**9),
        time_budget=budget,
    )
    sgd_e1 = nested_objective(sgd_net, desk_data)
    desc = (
        f"60 s budget: MAC E1 {mac_e1:.3f} <= min(SGD {sgd_e1:.3f}, "
        f"CG {cg_e1:.3f}); near-final inside first third"
    )
    with criterion(capsys, 8, desc):
        assert mac_e1 <= min(sgd_e1, cg_e1)
        final = mac_trace.rows[-1].e1_train
        first_third = min(
            r.e1_train for r in mac_trace.rows if r.seconds <= budget / 3
        )
        assert first_third <= 1.1 * final


def test_criterion_9_parallel_determinism(capsys):
    base = {
        "method": "mac",
        "seed": 11,
        "dataset": {
            "synth": {
                "n": 500, "ambient_dim": 64, "intrinsic_dim": 1,
                "noise": 0.01, "seed": 7, "n_val": 200,
            }
        },
        "architecture": {
            "layers": [
                {"kind": "sigmoid_dense", "in_dim": 64, "out_dim": 32},
                {"kind": "sigmoid_dense", "in_dim": 32, "out_dim": 8},
                {"kind": "sigmoid_dense", "in_dim": 8, "out_dim": 32},
                {"kind": "linear_dense", "in_dim": 32, "out_dim": 64},
            ],
            "placement": "all",
        },
        "schedule": {
            "max_stages": 3, "stage_tolerance": 1e-6, "max_iters_per_stage": 5,
        },
    }
    digests, walls = {}, {}
    for workers in (1, 2, 4):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = override_workers(dict(base, output_dir=tmp), workers)
            t0 = time.perf_counter()
            result = run_experiment(cfg)
            walls[workers] = time.perf_counter() - t0
            with open(result["model_path"], "rb") as fh:
                digests[workers] = hashlib.sha256(fh.read()).hexdigest()
    desc = (
        "1/2/4-worker checkpoints bit-identical; speedup "
        f"2w {walls[1] / walls[2]:.2f}x, 4w {walls[1] / walls[4]:.2f}x"
    )
    with criterion(capsys, 9, desc):
        assert digests[1] == digests[2] == digests[4]


def test_criterion_10_baseline_kernels(capsys):
    with criterion(
        capsys, 10, "CG solves linear LSQ to 1e-8; k-means identity + monotone"
    ):
        rng = np.random.default_rng(5)
        d_in, d_out, n = 6, 3, 40
        net = init_weights(
            [LayerSpec(LayerKind.LINEAR_DENSE, d_in, d_out)], 4, placement=[]
        )
        X = rng.normal(size=(n, d_in))
        Y = rng.normal(size=(n, d_out))
        data = Dataset(X, Y)
        out, _ = cg_train(
            net, data,
            CgConfig(max_iters=d_out * (d_in + 1), gtol=1e-10, line_search="cubic"),
        )
        grad = np.concatenate([g.ravel() for g in backprop_gradient(out, data)])
        assert np.linalg.norm(grad) <= 1e-8
        phi = add_bias_col(X)
        solved = np.linalg.solve(phi.T @ phi, phi.T @ Y).T
        np.testing.assert_allclose(
            out.layers[0].weights.matrix, solved, rtol=1e-6, atol=1e-8
        )

        pts = rng.normal(size=(12, 3))
        np.testing.assert_array_equal(kmeans(pts, 12), pts)
        vals = [
            kmeans_objective(pts, kmeans(pts, 4, seed=2, iters=t)) for t in range(8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

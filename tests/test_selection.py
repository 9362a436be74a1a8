"""Parameter-count cost and per-block refit-and-score size selection."""

from dataclasses import replace

import numpy as np
import pytest

import macqp.baselines
import macqp.mac
import macqp.model
import macqp.selection
from conftest import rbf_autoencoder, sigmoid_autoencoder
from macqp.baselines import fit_rbf_linear_pair, kmeans, ridge_lsq
from macqp.data import pca_embed, synth_manifold_dataset
from macqp.kernels import rbf_design
from macqp.mac import (
    AuxState,
    PenaltySchedule,
    _block_objective,
    _block_output,
    block_outputs,
    lift_to_feasible,
    mac_train,
    qp_blocks,
    qp_objective,
    w_step,
)
from macqp.model import (
    Dataset,
    Layer,
    LayerKind,
    LayerSpec,
    LayerWeights,
    NestedNet,
    init_weights,
)
from macqp.selection import (
    SelectionConfig,
    aic_cost,
    mac_train_with_selection,
    selectable_blocks,
    selection_step,
)


def _zeros_net(specs, placement):
    return NestedNet(
        [Layer(s, LayerWeights(np.zeros(s.weight_shape))) for s in specs], placement
    )


def _rbf_ae_specs(d, m1, code, m3):
    return [
        LayerSpec(LayerKind.GAUSSIAN_RBF, d, m1, rbf_width=2.0),
        LayerSpec(LayerKind.LINEAR_DENSE, m1, code, bias=False),
        LayerSpec(LayerKind.GAUSSIAN_RBF, code, m3, rbf_width=2.0),
        LayerSpec(LayerKind.LINEAR_DENSE, m3, d, bias=False),
    ]


class TestAicCost:
    def test_large_autoencoder_parameter_count(self):
        net = _zeros_net(_rbf_ae_specs(1024, 1368, 2, 1368), [2])
        assert net.num_params() == 2_807_136
        assert net.num_params() == (1024 + 2) * (1368 + 1368)

    def test_selected_autoencoder_parameter_count(self):
        net = _zeros_net(_rbf_ae_specs(1024, 1368, 2, 150), [2])
        assert net.num_params() == 1_557_468
        assert aic_cost(net, 0.05) == pytest.approx(155_746.8, rel=1e-12)

    def test_zero_epsilon_gives_zero_cost(self):
        net = _zeros_net(_rbf_ae_specs(8, 5, 2, 5), [2])
        assert aic_cost(net, 0.0) == 0.0

    def test_additive_over_layers(self):
        specs = _rbf_ae_specs(8, 5, 2, 7)
        net = _zeros_net(specs, [2])
        per_layer = sum(
            aic_cost(_zeros_net([s], []), 0.3) for s in specs
        )
        assert aic_cost(net, 0.3) == pytest.approx(per_layer, rel=1e-14)


def _pair_score(rbf_layer, lin_layer, A_in, T, weight, eps_sq):
    """Independent scoring: weighted fit error + ridge + parameter cost."""
    phi = rbf_design(A_in, rbf_layer.weights.matrix, rbf_layer.spec.rbf_width)
    out = phi @ lin_layer.weights.matrix.T
    val = 0.5 * weight * float(np.sum((T - out) ** 2))
    val += lin_layer.spec.ridge * float(np.sum(lin_layer.weights.matrix**2))
    n_params = rbf_layer.weights.matrix.size + lin_layer.weights.matrix.size
    return val + 2.0 * eps_sq * n_params


def _refit_score(net, block_first_layer, A_in, T, weight, m, eps_sq):
    """Score of refitting one RBF+linear block at size m."""
    from dataclasses import replace

    rbf_cur = net.layers[block_first_layer]
    lin_cur = net.layers[block_first_layer + 1]
    rbf_s = replace(rbf_cur.spec, out_dim=m)
    lin_s = replace(lin_cur.spec, in_dim=m)
    (fr, fl), _ = fit_rbf_linear_pair(rbf_s, lin_s, A_in, T, weight)
    return _pair_score(fr, fl, A_in, T, weight, eps_sq)


def _brute_force_block(net, block_first_layer, A_in, T, weight, cands, eps_sq):
    """Best size for one RBF+linear block by explicit enumeration."""
    rbf_cur = net.layers[block_first_layer]
    lin_cur = net.layers[block_first_layer + 1]
    best_m = rbf_cur.spec.out_dim
    best = _pair_score(rbf_cur, lin_cur, A_in, T, weight, eps_sq)
    for m in cands:
        score = _refit_score(net, block_first_layer, A_in, T, weight, m, eps_sq)
        if score < best:
            best, best_m = score, m
    return best_m, best


def _hand_selection(net, Z, data, mu, cfg, transient_reg=0.0, tables=None):
    """A selection step scored by hand: every candidate size of every
    selectable block is fitted, on copies of ``tables``, and scored as its
    part of E_Q plus 2 * epsilon_sq * (its weight count).  Returns the
    sizes whose cost alone is below the block's best score so far, as
    (block, size) in the order a step fits them, and each selectable
    block's layers of the lowest score, kept unless a size scores
    strictly lower than the current block."""
    sel = selectable_blocks(net)
    cheap, layers = [], list(net.layers)
    for j, ((a, b), A, T, weight) in enumerate(qp_blocks(net, Z, data, mu)):
        if j not in sel:
            continue
        table = None if tables is None else dict(tables[j])

        def score(pair, out):
            cost = 2.0 * cfg.epsilon_sq * sum(l.weights.matrix.size for l in pair)
            return _block_objective(pair, A, T, weight, transient_reg, out) + cost, cost

        best = score(net.layers[a:b], _block_output(net.layers[a:b], A))[0]
        for m in cfg.candidates_per_block[sel.index(j)]:
            pair, out = fit_rbf_linear_pair(
                replace(net.layers[a].spec, out_dim=m), replace(net.layers[a + 1].spec, in_dim=m),
                A, T, weight, transient_reg=transient_reg, centers_by_size=table)
            value, cost = score(pair, out)
            if cost < best:
                cheap.append((j, m))
            if value < best:
                best, layers[a:b] = value, pair
    return cheap, layers


class TestSelectionStep:
    def _setup(self, rng, m1=6, m3=7):
        net = rbf_autoencoder(5, m1, 2, m3, ridge=0.0, seed=3)
        X = rng.uniform(size=(30, 5))
        data = Dataset(X, X)
        Z = AuxState([rng.normal(size=(30, 2))])
        return net, data, Z

    def test_matches_brute_force_grid(self, rng):
        net, data, Z = self._setup(rng)
        cands = [[2, 3, 4, 5, 6], [2, 4, 6, 8, 10]]
        cfg = SelectionConfig(cands, epsilon_sq=0.02)
        mu = 2.0
        out = selection_step(net, Z, data, mu, cfg)
        sel = selectable_blocks(net)
        assert sel == [0, 1]

        m_enc, s_enc = _brute_force_block(net, 0, data.X, Z.coords[0], mu,
                                          cands[0], cfg.epsilon_sq)
        m_dec, s_dec = _brute_force_block(net, 2, Z.coords[0], data.Y, 1.0,
                                          cands[1], cfg.epsilon_sq)
        assert out.layers[0].spec.out_dim == m_enc
        assert out.layers[2].spec.out_dim == m_dec

        # joint enumeration over the full grid agrees because the two
        # block scores are additive
        def block_score(first_layer, A_in, T, weight, m):
            if m == net.layers[first_layer].spec.out_dim:
                return _pair_score(net.layers[first_layer],
                                   net.layers[first_layer + 1],
                                   A_in, T, weight, cfg.epsilon_sq)
            return _refit_score(net, first_layer, A_in, T, weight, m,
                                cfg.epsilon_sq)

        joint = {}
        for ma in [net.layers[0].spec.out_dim] + cands[0]:
            for mb in [net.layers[2].spec.out_dim] + cands[1]:
                joint[(ma, mb)] = (
                    block_score(0, data.X, Z.coords[0], mu, ma)
                    + block_score(2, Z.coords[0], data.Y, 1.0, mb)
                )
        best_joint = min(joint, key=joint.get)
        assert best_joint == (m_enc, m_dec)

    def test_total_objective_never_increases(self, rng):
        for trial in range(5):
            net, data, Z = self._setup(rng)
            cfg = SelectionConfig([[2, 4, 6], [3, 5, 7]],
                                  epsilon_sq=float(rng.uniform(0.001, 0.1)))
            mu = float(rng.uniform(0.5, 10.0))
            before = qp_objective(net, Z, data, mu) + aic_cost(net, cfg.epsilon_sq)
            out = selection_step(net, Z, data, mu, cfg)
            after = qp_objective(out, Z, data, mu) + aic_cost(out, cfg.epsilon_sq)
            assert after <= before * (1 + 1e-10)

    @pytest.mark.parametrize("mu", [1.0, 100.0])
    def test_rbf_ridge_counts_in_the_score(self, mu):
        # larger candidates fit better but carry more centres, whose ridge
        # term E_Q includes; a score without it picks them and E_Q + C rises
        data = synth_manifold_dataset(60, 6, 1, 0.01, seed=2)
        net, Z, _ = mac_train(
            rbf_autoencoder(6, 4, 2, 4, seed=1), data,
            PenaltySchedule(max_stages=2, max_iters_per_stage=2),
        )
        net = NestedNet(
            [Layer(replace(l.spec, ridge=0.1), l.weights)
             if l.spec.kind == LayerKind.GAUSSIAN_RBF else l for l in net.layers],
            net.placement,
        )
        cfg = SelectionConfig([[4, 8, 16, 32]] * 2, epsilon_sq=1e-5)
        before = qp_objective(net, Z, data, mu) + aic_cost(net, cfg.epsilon_sq)
        out = selection_step(net, Z, data, mu, cfg)
        after = qp_objective(out, Z, data, mu) + aic_cost(out, cfg.epsilon_sq)
        assert after <= before

    def test_keeps_the_current_block_on_a_tie(self, rng):
        # each block is already the refit at its own size, so the one
        # candidate scores exactly as the current block and must not
        # replace it (nor its entry of ``outs``)
        net, data, Z = self._setup(rng)
        layers = list(net.layers)
        for (a, _), A, T, weight in qp_blocks(net, Z, data, 2.0):
            layers[a:a + 2] = fit_rbf_linear_pair(layers[a].spec, layers[a + 1].spec,
                                                  A, T, weight)[0]
        net = NestedNet(layers, net.placement)
        outs = block_outputs(net, Z, data.X)
        kept = list(outs)
        cfg = SelectionConfig([[6], [7]], epsilon_sq=0.02)
        out = selection_step(net, Z, data, 2.0, cfg, outs=outs)
        assert all(o is k for o, k in zip(outs, kept))
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)

    @pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("select", [False, True], ids=["w_step", "selection_step"])
    def test_rejects_mu_that_is_not_positive_and_finite(self, rng, mu, select):
        # as z_step does, before any fit divides by mu or solves with it
        net, data, Z = self._setup(rng)
        with pytest.raises(ValueError, match="^mu must be positive and finite, got "):
            if select:
                selection_step(net, Z, data, mu, SelectionConfig([[6], [7]], epsilon_sq=0.02))
            else:
                w_step(net, Z, data, mu)

    def test_huge_epsilon_picks_smallest_candidates(self, rng):
        net, data, Z = self._setup(rng)
        cfg = SelectionConfig([[2, 4, 6], [2, 5, 7]], epsilon_sq=1e6)
        out = selection_step(net, Z, data, 1.0, cfg)
        assert out.layers[0].spec.out_dim == 2
        assert out.layers[2].spec.out_dim == 2

    def test_single_current_size_candidate_keeps_sizes(self, rng):
        net, data, Z = self._setup(rng, m1=6, m3=7)
        cfg = SelectionConfig([[6], [7]], epsilon_sq=0.01)
        out = selection_step(net, Z, data, 1.0, cfg)
        assert [l.spec.out_dim for l in out.layers] == [
            l.spec.out_dim for l in net.layers
        ]

    def test_candidate_readout_includes_transient_term(self, rng):
        net = rbf_autoencoder(5, 6, 2, 7, ridge=1e-3, seed=3)
        X = rng.uniform(size=(30, 5))
        data = Dataset(X, X)
        Z = AuxState([rng.normal(size=(30, 2))])
        mu, transient = 2.0, 0.05
        cfg = SelectionConfig([[4], [5]], epsilon_sq=1e-12)
        out = selection_step(net, Z, data, mu, cfg, transient_reg=transient)
        assert [out.layers[0].spec.out_dim, out.layers[2].spec.out_dim] == [4, 5]
        for first, A_in, T, weight, m in ((0, X, Z.coords[0], mu, 4),
                                          (2, Z.coords[0], X, 1.0, 5)):
            centers = kmeans(A_in, m)[0]
            phi = rbf_design(A_in, centers, net.layers[first].spec.rbf_width)
            want = ridge_lsq(phi, T, 2.0 * (1e-3 + transient) / weight).T
            np.testing.assert_array_equal(out.layers[first].weights.matrix, centers)
            np.testing.assert_allclose(out.layers[first + 1].weights.matrix, want,
                                       rtol=1e-12)

    def test_refits_other_blocks_as_a_w_step(self, rng):
        # a selection step is a W-step: the sigmoid block, which has no
        # size to choose, gets w_step's refit bit for bit
        specs = [
            LayerSpec(LayerKind.SIGMOID_DENSE, 5, 2, ridge=1e-3),
            LayerSpec(LayerKind.GAUSSIAN_RBF, 2, 6, rbf_width=2.0),
            LayerSpec(LayerKind.LINEAR_DENSE, 6, 5, bias=False),
        ]
        net = init_weights(specs, 4, placement=[1])
        X = rng.uniform(size=(30, 5))
        data = Dataset(X, X)
        Z = AuxState([rng.uniform(0.2, 0.8, size=(30, 2))])
        assert selectable_blocks(net) == [1]
        cfg = SelectionConfig([[3, 4]], epsilon_sq=1e-3)
        outs, plain_outs = block_outputs(net, Z, X), block_outputs(net, Z, X)
        out = selection_step(net, Z, data, 3.0, cfg, transient_reg=1e-4, outs=outs)
        plain = w_step(net, Z, data, 3.0, transient_reg=1e-4, outs=plain_outs)
        assert not np.array_equal(plain.layers[0].weights.matrix, net.layers[0].weights.matrix)
        np.testing.assert_array_equal(out.layers[0].weights.matrix,
                                      plain.layers[0].weights.matrix)
        np.testing.assert_array_equal(outs[0], plain_outs[0])
        assert out.layers[1].spec.out_dim in (3, 4, 6)

    def test_candidate_list_count_must_match(self, rng):
        net, data, Z = self._setup(rng)
        from macqp.model import MacqpError

        message = (r"^selection\.candidates_per_block has 1 lists, but the architecture has 2 "
                   r"selectable \(gaussian_rbf \+ linear_dense\) blocks$")
        with pytest.raises(MacqpError, match=message):
            selection_step(net, Z, data, 1.0, SelectionConfig([[3]], epsilon_sq=0.1))


class TestMacTrainWithSelection:
    def test_large_cadence_equals_plain_mac(self, rng):
        net = rbf_autoencoder(5, 8, 2, 8, seed=2)
        X = rng.uniform(size=(25, 5))
        data = Dataset(X, X)
        schedule = PenaltySchedule(max_stages=2, max_iters_per_stage=3)
        z0 = lift_to_feasible(net, X)
        sel_cfg = SelectionConfig([[4, 8], [4, 8]], epsilon_sq=0.05, cadence=10_000)
        a, _, _ = mac_train(net, data, schedule, z_init=z0)
        b, _, _ = mac_train_with_selection(
            net, data, schedule, sel_cfg, z_init=z0
        )
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights.matrix, lb.weights.matrix)

    def test_selection_events_record_monotone_totals(self, rng):
        net = rbf_autoencoder(6, 20, 2, 20, seed=5)
        X = rng.uniform(size=(40, 6))
        data = Dataset(X, X)
        schedule = PenaltySchedule(max_stages=3, max_iters_per_stage=4,
                                   stage_tolerance=1e-6)
        sel_cfg = SelectionConfig([[5, 10, 20], [5, 10, 20]],
                                  epsilon_sq=0.01, cadence=2)
        _, _, trace = mac_train_with_selection(
            net, data, schedule, sel_cfg,
            z_init=lift_to_feasible(net, X),
        )
        assert trace.selection_events
        for ev in trace.selection_events:
            assert ev["after"] <= ev["before"] * (1 + 1e-10)


def _same_kmeans_starts(monkeypatch, starts, record):
    """Spy on k-means so that two runs start it alike.

    A recording run keeps each call's start in ``starts``, keyed by its
    points and size, with the number of Z-steps run before it.  A replaying
    run starts each call from the start the recording run used last on the
    same points and size, as of the same number of Z-steps.  A run that
    recomputes cached centers then clusters from the start the cached run
    used, warm or seeded, also when a restore brings back coordinates that
    were clustered before.
    """
    kmeans_fn, z_step_fn = macqp.baselines.kmeans, macqp.mac.z_step
    z_steps = [0]

    def counted_z_step(*args, **kwargs):
        z_steps[0] += 1
        return z_step_fn(*args, **kwargs)

    def call(points, k, *args, init=None, **kwargs):
        key = (np.asarray(points).tobytes(), k)
        if record:
            kept = starts.setdefault(key, [])
            assert not kept or kept[-1][0] < z_steps[0]
            kept.append((z_steps[0], None if init is None else init.copy()))
        else:
            init = [start for n, start in starts[key] if n <= z_steps[0]][-1]
        return kmeans_fn(points, k, *args, init=init, **kwargs)

    monkeypatch.setattr(macqp.mac, "z_step", counted_z_step)
    monkeypatch.setattr(macqp.baselines, "kmeans", call)


class TestFirstBlockCenterTable:
    """mac_train clusters the first block's inputs, data.X, once per size."""

    def _run(self, monkeypatch, recompute, starts):
        data = synth_manifold_dataset(120, 16, 1, 0.01, seed=7)
        specs = [
            LayerSpec(LayerKind.GAUSSIAN_RBF, 16, 40, rbf_width=2.0),
            LayerSpec(LayerKind.LINEAR_DENSE, 40, 2, ridge=1e-6, bias=False),
            LayerSpec(LayerKind.GAUSSIAN_RBF, 2, 40, rbf_width=2.0),
            LayerSpec(LayerKind.LINEAR_DENSE, 40, 16, ridge=1e-6, bias=False),
        ]
        net = init_weights(specs, 3, placement=[2])
        sel_cfg = SelectionConfig([[10, 20, 30, 40, 50]] * 2, epsilon_sq=1e-4, cadence=2)
        schedule = PenaltySchedule(max_stages=3, max_iters_per_stage=4,
                                   stage_tolerance=1e-8)
        on_x, fits_on_x = [], []  # sizes of the k-means runs and the fits on data.X
        _same_kmeans_starts(monkeypatch, starts, record=not recompute)
        kmeans_fn = macqp.baselines.kmeans

        def counted(points, k, *args, **kwargs):
            if points is data.X:
                on_x.append(k)
            return kmeans_fn(points, k, *args, **kwargs)

        monkeypatch.setattr(macqp.baselines, "kmeans", counted)
        pair_fn = macqp.baselines.fit_rbf_linear_pair

        def fit(rbf_spec, lin_spec, A_in, *args, **kwargs):
            if A_in is data.X:
                fits_on_x.append(rbf_spec.out_dim)
            if recompute:
                kwargs["centers_by_size"] = None
            return pair_fn(rbf_spec, lin_spec, A_in, *args, **kwargs)

        monkeypatch.setattr(macqp.mac, "fit_rbf_linear_pair", fit)
        out, Z, trace = mac_train(net, data, schedule, sel_cfg=sel_cfg,
                                  z_init=AuxState([pca_embed(data.X, 2)]))
        monkeypatch.undo()
        return out, Z, trace, on_x, fits_on_x

    def test_equals_recomputing_the_centers(self, monkeypatch):
        # every size fitted on data.X is clustered there once; a selection
        # step fits only the sizes that can win, so not every candidate is
        starts = {}
        out, Z, trace, on_x, fits_on_x = self._run(monkeypatch, False, starts)
        ref, ref_Z, ref_trace, ref_on_x, ref_fits = self._run(monkeypatch, True, starts)
        assert sorted(on_x) == sorted(set(fits_on_x)) == [10, 20, 30, 40]
        assert len(fits_on_x) > 2 * len(on_x)
        assert ref_on_x == ref_fits == fits_on_x
        for a, b in zip(out.layers, ref.layers):
            assert a.spec == b.spec
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)
        np.testing.assert_array_equal(Z.coords[0], ref_Z.coords[0])
        assert len(trace.rows) == len(ref_trace.rows)
        for a, b in zip(trace.rows, ref_trace.rows):
            assert replace(a, seconds=0.0) == replace(b, seconds=0.0)


@pytest.mark.parametrize("bias", [False, True])
def test_table_entry_reproduces_the_fit_bitwise(rng, bias):
    # the entry's design and Gram matrices, the latter with the readout's
    # bias column, stand in for computing them afresh
    rbf = LayerSpec(LayerKind.GAUSSIAN_RBF, 3, 8, rbf_width=1.5)
    lin = LayerSpec(LayerKind.LINEAR_DENSE, 8, 2, ridge=1e-3, bias=bias)
    A, T = rng.normal(size=(60, 3)), rng.normal(size=(60, 2))
    table = {}
    fits = [fit_rbf_linear_pair(rbf, lin, A, T, 2.0, transient_reg=1e-4,
                                centers_by_size=t)[0] for t in (None, table, table)]
    assert list(table) == [8]
    for fit in fits[1:]:
        for a, b in zip(fits[0], fit):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)


def test_ridge_free_fit_stores_no_gram_matrix(rng):
    # a ridge-free readout is solved by SVD, which reads no Gram matrix; a
    # later ridge fit meeting the entry forms it as a fit without a table does
    rbf = LayerSpec(LayerKind.GAUSSIAN_RBF, 3, 8, rbf_width=1.5)
    lin = LayerSpec(LayerKind.LINEAR_DENSE, 8, 2, bias=True)
    A, T = rng.normal(size=(60, 3)), rng.normal(size=(60, 2))
    table = {}
    fit_rbf_linear_pair(rbf, lin, A, T, 2.0, centers_by_size=table)
    assert table[8][2] is not None and table[8][3] is None
    ridged = fit_rbf_linear_pair(rbf, lin, A, T, 2.0, transient_reg=1e-4,
                                 centers_by_size=table)[0]
    fresh = fit_rbf_linear_pair(rbf, lin, A, T, 2.0, transient_reg=1e-4)[0]
    for a, b in zip(ridged, fresh):
        np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)


def test_fit_returns_its_block_output_from_any_entry(rng, monkeypatch):
    # a fit's output is its layers' output at its inputs, bit for bit,
    # whether it makes its size's entry, reuses the entry made at these
    # inputs or at an equal copy of them, or meets an entry made at other
    # inputs, whose centers then start k-means
    rbf = LayerSpec(LayerKind.GAUSSIAN_RBF, 3, 8, rbf_width=1.5)
    lin = LayerSpec(LayerKind.LINEAR_DENSE, 8, 2, ridge=1e-3, bias=True)
    A, T = rng.normal(size=(60, 3)), rng.normal(size=(60, 2))
    moved = A + 0.05 * rng.normal(size=A.shape)
    calls = []  # (name, k-means start) of each k-means and rbf_design call: the
    # design is made from the k-means distances, so rbf_design is never called
    for name in ("kmeans", "rbf_design"):
        def spied(*args, _fn=getattr(macqp.baselines, name), _name=name, **kw):
            calls.append((_name, kw.get("init")))
            return _fn(*args, **kw)

        monkeypatch.setattr(macqp.baselines, name, spied)
    table, last = {}, None
    for inputs, reused in ((A, False), (A, True), (A.copy(), True), (moved, False)):
        calls.clear()
        entry = table.get(8)
        layers, out = fit_rbf_linear_pair(rbf, lin, inputs, T, 2.0, centers_by_size=table)
        np.testing.assert_array_equal(out, macqp.mac._block_output(layers, inputs))
        if reused:
            assert calls == [] and table[8] is entry
        else:
            assert [name for name, _ in calls] == ["kmeans"]
            if last is None:
                assert calls[0][1] is None
            else:
                np.testing.assert_array_equal(calls[0][1], last)
        last = layers[0].weights.matrix


@pytest.mark.parametrize("case", ["fortran", "permuted_columns", "iteration_cap", "k_is_n"])
def test_fit_output_from_k_means_distances_is_its_block_output(rng, monkeypatch, case):
    # the design matrix made from k-means' distances is rbf_design's, bit for
    # bit, whatever the layout of the inputs and however k-means stops
    # (at 16 columns a product with F-ordered inputs rounds unlike a C-ordered one)
    m = 60 if case == "k_is_n" else 8
    rbf = LayerSpec(LayerKind.GAUSSIAN_RBF, 16, m, rbf_width=4.0)
    lin = LayerSpec(LayerKind.LINEAR_DENSE, m, 2, ridge=1e-3, bias=True)
    A, T = rng.normal(size=(60, 16)), rng.normal(size=(60, 2))
    if case == "fortran":
        A = np.asfortranarray(A)
    elif case == "permuted_columns":
        A = A[:, rng.permutation(16)]
    elif case == "iteration_cap":
        kmeans_fn = macqp.baselines.kmeans
        monkeypatch.setattr(macqp.baselines, "kmeans",
                            lambda *args, **kw: kmeans_fn(*args, **dict(kw, iters=1)))
        assert not np.array_equal(kmeans(A, m, iters=1)[0], kmeans(A, m, iters=2)[0])
    assert A.flags.c_contiguous == (case in ("iteration_cap", "k_is_n"))
    layers, out = fit_rbf_linear_pair(rbf, lin, A, T, 2.0)
    np.testing.assert_array_equal(out, macqp.mac._block_output(layers, A))
    np.testing.assert_array_equal(layers[0].weights.matrix, macqp.baselines.kmeans(A, m)[0])


def _rbf_select_problem(seed=7, n_val=0):
    """An rbf_select-shaped problem: RBF autoencoder, coding placement,
    selection over five sizes per block every two iterations."""
    data = synth_manifold_dataset(120, 16, 1, 0.01, seed=seed, n_val=n_val)
    specs = [
        LayerSpec(LayerKind.GAUSSIAN_RBF, 16, 40, rbf_width=2.0),
        LayerSpec(LayerKind.LINEAR_DENSE, 40, 2, ridge=1e-6, bias=False),
        LayerSpec(LayerKind.GAUSSIAN_RBF, 2, 40, rbf_width=2.0),
        LayerSpec(LayerKind.LINEAR_DENSE, 40, 16, ridge=1e-6, bias=False),
    ]
    net = init_weights(specs, 3, placement=[2])
    sel_cfg = SelectionConfig([[10, 20, 30, 40, 50]] * 2, epsilon_sq=1e-4, cadence=2)
    schedule = PenaltySchedule(max_stages=3, max_iters_per_stage=4, stage_tolerance=1e-8)
    kwargs = dict(sel_cfg=sel_cfg, z_init=AuxState([pca_embed(data.X, 2)]))
    return net, data, schedule, kwargs


def _without(fn, *names):
    """fn with the keyword arguments ``names`` dropped from every call."""
    def call(*args, **kwargs):
        return fn(*args, **{k: v for k, v in kwargs.items() if k not in names})
    return call


def _restored(trace):
    """Whether some stage restored an iterate other than its last one: the
    row after the restore has a lower validation error than the row before."""
    rows = trace.rows
    return any(cur.event == "mu_increase" and cur.e1_val < prev.e1_val
               for prev, cur in zip(rows, rows[1:]))


class TestSharedBlockEvaluations:
    """mac_train shares each block's output and RBF design matrices between
    steps; the results equal evaluating every block afresh from the same
    k-means starts, bit for bit."""

    def _run(self, monkeypatch, net, data, schedule, recompute, starts, **kwargs):
        _same_kmeans_starts(monkeypatch, starts, record=not recompute)
        if recompute:
            for module, name, dropped in (
                (macqp.mac, "w_step", ("outs", "tables")),
                (macqp.mac, "z_step", ("outs",)),
                (macqp.selection, "selection_step", ("outs", "tables")),
                (macqp.mac, "nested_objective", ("prefix",)),
                (macqp.mac, "qp_objective", ("outs",)),
                (macqp.mac, "constraint_residuals", ("outs",)),
            ):
                monkeypatch.setattr(module, name, _without(getattr(module, name), *dropped))
        out = mac_train(net, data, schedule, **kwargs)
        monkeypatch.undo()
        return out

    def _assert_same_runs(self, monkeypatch, net, data, schedule, **kwargs):
        starts = {}
        out, Z, trace = self._run(monkeypatch, net, data, schedule, False, starts, **kwargs)
        ref, ref_Z, ref_trace = self._run(monkeypatch, net, data, schedule, True, starts,
                                          **kwargs)
        for a, b in zip(out.layers, ref.layers, strict=True):
            assert a.spec == b.spec
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)
        for a, b in zip(Z.coords, ref_Z.coords, strict=True):
            np.testing.assert_array_equal(a, b)
        assert [replace(r, seconds=0.0) for r in trace.rows] == [
            replace(r, seconds=0.0) for r in ref_trace.rows]
        assert trace.selection_events == ref_trace.selection_events
        return trace

    def test_rbf_select_net(self, monkeypatch):
        net, data, schedule, kwargs = _rbf_select_problem()
        trace = self._assert_same_runs(monkeypatch, net, data, schedule, **kwargs)
        assert trace.selection_events

    def test_rbf_select_net_with_validation_split(self, monkeypatch):
        # a restore moves the coordinates back: the coded block's entries
        # keep only their centers, as after a Z-step
        net, data, schedule, kwargs = _rbf_select_problem(seed=2, n_val=30)
        trace = self._assert_same_runs(monkeypatch, net, data, schedule, **kwargs)
        assert _restored(trace)

    def test_sigmoid_net_with_validation_split(self, monkeypatch):
        data = synth_manifold_dataset(60, 8, 1, 0.05, seed=4, n_val=30)
        net = sigmoid_autoencoder((8, 5, 2, 5, 8), seed=6)
        schedule = PenaltySchedule(max_stages=4, max_iters_per_stage=5,
                                   stage_tolerance=1e-6)
        trace = self._assert_same_runs(monkeypatch, net, data, schedule)
        assert _restored(trace)

    def test_path_shaped_net(self, monkeypatch):
        data = synth_manifold_dataset(40, 4, 1, 0.0, seed=3)
        net = sigmoid_autoencoder((4, 24, 2, 24, 4), seed=5)
        schedule = PenaltySchedule(max_stages=5, max_iters_per_stage=3,
                                   stage_tolerance=1e-13)
        trace = self._assert_same_runs(monkeypatch, net, data, schedule)
        assert {r.mu for r in trace.rows} == {1.0, 10.0, 100.0, 1000.0, 1e4}

    def test_each_first_block_design_made_once(self, monkeypatch):
        # the first block's inputs are data.X for the whole run, so its
        # output at given centers is computed once: by rbf_design for the
        # initial centers, then from the distances of the one k-means run
        # of each size fitted there; every k-means run's distances make
        # one design matrix, and no fit calls rbf_design
        net, data, schedule, kwargs = _rbf_select_problem()
        centers_on_x, sizes_on_x = [], []
        runs = []  # [distances, designs made of them] per k-means run
        for module in (macqp.model, macqp.baselines):
            design = getattr(module, "rbf_design")

            def counted(X, C, *args, _design=design, **kw):
                if X is data.X:
                    centers_on_x.append(np.asarray(C).tobytes())
                return _design(X, C, *args, **kw)

            monkeypatch.setattr(module, "rbf_design", counted)
        kmeans_fn, from_sq_dist = macqp.baselines.kmeans, macqp.baselines.rbf_from_sq_dist

        def clustered(points, k, *args, **kw):
            if points is data.X:
                sizes_on_x.append(k)
            centers, d2 = kmeans_fn(points, k, *args, **kw)
            runs.append([d2, 0])
            return centers, d2

        def design_from(d2, width):
            assert d2 is runs[-1][0]
            runs[-1][1] += 1
            return from_sq_dist(d2, width)

        monkeypatch.setattr(macqp.baselines, "kmeans", clustered)
        monkeypatch.setattr(macqp.baselines, "rbf_from_sq_dist", design_from)
        mac_train(net, data, schedule, **kwargs)
        assert centers_on_x == [net.layers[0].weights.matrix.tobytes()]
        assert sorted(sizes_on_x) == [10, 20, 30, 40]
        assert [n for _, n in runs] == [1] * len(runs)

    def test_each_first_block_gram_made_once(self, monkeypatch):
        # the first block's readout solves at one size share one Gram matrix
        net, data, schedule, kwargs = _rbf_select_problem()
        grams = []  # (size, Gram matrix) of each first-block readout solve
        fitted = set()  # sizes fitted on data.X
        ridge, pair_fn = macqp.baselines.ridge_lsq, macqp.mac.fit_rbf_linear_pair

        def counted(features, targets, lam, gram=None):
            if targets.shape[1] == 2:  # fitted to the 2-wide codes: block 0
                grams.append((features.shape[1], gram))
            return ridge(features, targets, lam, gram=gram)

        def fit(rbf_spec, lin_spec, A_in, *args, **kw):
            if A_in is data.X:
                fitted.add(rbf_spec.out_dim)
            return pair_fn(rbf_spec, lin_spec, A_in, *args, **kw)

        monkeypatch.setattr(macqp.baselines, "ridge_lsq", counted)
        monkeypatch.setattr(macqp.mac, "fit_rbf_linear_pair", fit)
        mac_train(net, data, schedule, **kwargs)
        sizes = {m for m, _ in grams}
        assert sizes == fitted == {10, 20, 30, 40}
        assert len(grams) > 2 * len(sizes)
        assert all(g is not None for _, g in grams)
        assert len({id(g) for _, g in grams}) == len(sizes)

    def test_selection_is_the_w_step_of_its_iteration(self, monkeypatch):
        # a selection step fits each selectable block once per candidate
        # size that can win (see _hand_selection), and the step after it is
        # a Z-step: no W-step refits the blocks it chose at the same
        # coordinates
        net, data, schedule, kwargs = _rbf_select_problem()
        calls = []  # [step, [(block, size) of each fit inside it]]
        cheap = []  # the fits _hand_selection expects of each selection step
        pair_fn = macqp.mac.fit_rbf_linear_pair
        select_fn = macqp.selection.selection_step

        def select(net, Z, data, mu, cfg, transient_reg, outs, tables):
            cheap.append(_hand_selection(net, Z, data, mu, cfg, transient_reg, tables)[0])
            return select_fn(net, Z, data, mu, cfg, transient_reg=transient_reg, outs=outs,
                             tables=tables)

        def fit(rbf_spec, lin_spec, A_in, *args, **kw):
            calls[-1][1].append((0 if A_in is data.X else 1, rbf_spec.out_dim))
            return pair_fn(rbf_spec, lin_spec, A_in, *args, **kw)

        def step(name, fn):
            def call(*args, **kw):
                calls.append([name, []])
                return fn(*args, **kw)
            return call

        monkeypatch.setattr(macqp.mac, "fit_rbf_linear_pair", fit)
        monkeypatch.setattr(macqp.mac, "w_step", step("w", macqp.mac.w_step))
        monkeypatch.setattr(macqp.mac, "z_step", step("z", macqp.mac.z_step))
        monkeypatch.setattr(macqp.selection, "selection_step", step("select", select))
        trace = mac_train(net, data, schedule, **kwargs)[2]
        sizes = kwargs["sel_cfg"].candidates_per_block
        every = [(j, m) for j, cands in enumerate(sizes) for m in cands]
        selects = [fits for name, fits in calls if name == "select"]
        assert len(selects) == len(trace.selection_events) > 1
        assert selects == cheap
        assert all(len(fits) < len(every) for fits in selects)  # each skips some size
        names = [name for name, _ in calls]
        assert all(b == "z" for a, b in zip(names, names[1:]) if a == "select")
        events = [r.event for r in trace.rows]
        assert events.count("model_select") == len(selects)
        assert all(b == "zstep" for a, b in zip(events, events[1:]) if a == "model_select")


@pytest.mark.parametrize("problem", [{}, {"seed": 2, "n_val": 30}],
                         ids=["no_split", "validation_split"])
def test_selection_step_fits_only_the_sizes_that_can_win(monkeypatch, problem):
    # at every selection step of an rbf_select-shaped run, the step fits
    # exactly the sizes whose cost alone is below the block's best score so
    # far, and keeps the layers that scoring every candidate by hand, on
    # copies of the tables, finds best
    net, data, schedule, kwargs = _rbf_select_problem(**problem)
    fits, steps = [], 0
    pair_fn, select_fn = macqp.mac.fit_rbf_linear_pair, macqp.selection.selection_step

    def fit(rbf_spec, lin_spec, A_in, *args, **kw):
        fits.append((0 if A_in is data.X else 1, rbf_spec.out_dim))
        return pair_fn(rbf_spec, lin_spec, A_in, *args, **kw)

    def select(net, Z, data, mu, cfg, transient_reg, outs, tables):
        nonlocal steps
        cheap, layers = _hand_selection(net, Z, data, mu, cfg, transient_reg, tables)
        fits.clear()
        out = select_fn(net, Z, data, mu, cfg, transient_reg=transient_reg, outs=outs,
                        tables=tables)
        assert fits == cheap
        for a, b in zip(out.layers, layers, strict=True):
            assert a.spec == b.spec
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)
        steps += 1
        return out

    monkeypatch.setattr(macqp.mac, "fit_rbf_linear_pair", fit)
    monkeypatch.setattr(macqp.selection, "selection_step", select)
    trace = mac_train(net, data, schedule, **kwargs)[2]
    assert steps == len(trace.selection_events) > 1


@pytest.mark.parametrize("problem,coded_sizes",
                         [({}, [10, 20, 30, 40, 50]),
                          ({"seed": 2, "n_val": 30}, [10, 20, 30, 40])],
                         ids=["no_split", "validation_split"])
def test_k_means_after_a_z_step_starts_from_the_centers_before_it(monkeypatch, problem,
                                                                  coded_sizes):
    # each coordinate-fed fit at size m starts from the centers of m's last
    # fit, made on the coordinates before a Z-step moved them; a restore
    # brings back the fits made at the restored coordinates, so no size is
    # clustered twice on the same points, stage ends included.  A size's
    # first fit and every fit on data.X start from the seed.  The
    # coordinate-fed block fits ``coded_sizes``: with the split, size 50's
    # cost alone is never below that block's best score
    net, data, schedule, kwargs = _rbf_select_problem(**problem)
    # ("w", points) per W-step, selection steps included (a selecting
    # W-step can be the first step after a restore); (on data.X, points,
    # size, start, centers) per k-means run
    events = []
    kmeans_fn = macqp.baselines.kmeans

    def spied(points, k, *args, init=None, **kw):
        centers, d2 = kmeans_fn(points, k, *args, init=init, **kw)
        events.append((points is data.X, points.tobytes(), k,
                       None if init is None else init.copy(), centers.copy()))
        return centers, d2

    def spied_step(step_fn):
        def call(net, Z, *args, **kw):
            events.append(("w", Z.coords[0].tobytes()))
            return step_fn(net, Z, *args, **kw)
        return call

    monkeypatch.setattr(macqp.baselines, "kmeans", spied)
    monkeypatch.setattr(macqp.mac, "w_step", spied_step(macqp.mac.w_step))
    monkeypatch.setattr(macqp.selection, "selection_step",
                        spied_step(macqp.selection.selection_step))
    trace = mac_train(net, data, schedule, **kwargs)[2]
    last = {}  # size -> centers its next fit on the coordinates starts from
    fitted = {}  # (points, size) -> centers
    warm = restored = 0
    for event in events:
        if event[0] == "w":  # after a restore, the restored fits' centers are back
            back = {k: centers for (points, k), centers in fitted.items() if points == event[1]}
            restored += bool(back)
            last.update(back)
            continue
        on_x, points, k, init, centers = event
        assert (points, k) not in fitted
        fitted[points, k] = centers
        if on_x or k not in last:
            assert init is None
        else:
            np.testing.assert_array_equal(init, last[k])
            warm += 1
        if not on_x:
            last[k] = centers
    assert sorted(last) == coded_sizes
    assert warm > 2 * len(last)
    assert (restored > 0) == _restored(trace) == bool(problem)

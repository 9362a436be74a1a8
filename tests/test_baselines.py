"""SGD, nonlinear CG, alternating RBF-autoencoder training, k-means, ridge."""

import dataclasses

import numpy as np
import pytest

from conftest import kmeans_objective, rbf_autoencoder, sigmoid_autoencoder, slow_kmeans
from macqp.baselines import (
    CgConfig,
    SgdConfig,
    alt_opt_rbf_train,
    cg_train,
    kmeans,
    ridge_lsq,
    sgd_train,
)
from macqp.kernels import rbf_design, sq_dist
from macqp.mac import AuxState, w_step
from macqp.model import (
    Dataset,
    LayerKind,
    LayerSpec,
    MacqpError,
    add_bias_col,
    backprop_gradient,
    forward_all,
    init_weights,
    nested_objective,
    net_axpy,
)


def _uniform_autoencoder_data(rng, n, d):
    X = rng.uniform(size=(n, d))
    return Dataset(X, X)


class TestSgd:
    def test_zero_learning_rate_is_identity(self, rng):
        net = sigmoid_autoencoder((6, 3, 6), seed=0)
        data = _uniform_autoencoder_data(rng, 30, 6)
        out, trace = sgd_train(net, data, SgdConfig(learning_rate=0.0, epochs=5))
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)
        e1s = {r.e1_train for r in trace.rows}
        assert len(e1s) == 1

    def test_full_batch_equals_gradient_descent(self, rng):
        net = sigmoid_autoencoder((5, 3, 5), seed=1)
        data = _uniform_autoencoder_data(rng, 12, 5)
        lr = 1e-3
        out, _ = sgd_train(
            net, data, SgdConfig(minibatch=12, learning_rate=lr, epochs=1)
        )
        want = net_axpy(net, backprop_gradient(net, data), lr)
        for a, b in zip(want.layers, out.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)

    def test_fixed_seed_reproducible(self, rng):
        net = sigmoid_autoencoder((5, 3, 5), seed=2)
        data = _uniform_autoencoder_data(rng, 24, 5)
        cfg = SgdConfig(minibatch=6, learning_rate=1e-2, epochs=40, seed=9)
        out1, tr1 = sgd_train(net, data, cfg)
        out2, tr2 = sgd_train(net, data, cfg)
        for a, b in zip(out1.layers, out2.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)
        assert [r.e1_train for r in tr1.rows] == [r.e1_train for r in tr2.rows]

    def test_minibatch_larger_than_dataset_rejected(self, rng):
        net = sigmoid_autoencoder((5, 3, 5), seed=2)
        data = _uniform_autoencoder_data(rng, 10, 5)
        with pytest.raises(MacqpError):
            sgd_train(net, data, SgdConfig(minibatch=11))


class TestCg:
    def test_config_has_two_fields(self):
        names = [f.name for f in dataclasses.fields(CgConfig)]
        assert names == ["max_iters", "trace_every"]

    def test_quadratic_matches_normal_equations(self, rng):
        d_in, d_out, n = 6, 3, 40
        net = init_weights([LayerSpec(LayerKind.LINEAR_DENSE, d_in, d_out)], 4,
                           placement=[])
        X = rng.normal(size=(n, d_in))
        Y = rng.normal(size=(n, d_out))
        data = Dataset(X, Y)
        budget = d_out * (d_in + 1)
        out, _ = cg_train(net, data, CgConfig(max_iters=budget))
        g = np.concatenate([m.ravel() for m in backprop_gradient(out, data)])
        assert np.linalg.norm(g) <= 1e-8
        phi = add_bias_col(X)
        want = np.linalg.solve(phi.T @ phi, phi.T @ Y).T
        np.testing.assert_allclose(out.layers[0].weights.matrix, want,
                                   rtol=1e-6, atol=1e-8)

    def test_stationary_start_exits_immediately(self, rng):
        net = sigmoid_autoencoder((5, 3, 5), seed=7)
        X = rng.uniform(size=(10, 5))
        data = Dataset(X, forward_all(net, X)[-1])
        out, trace = cg_train(net, data, CgConfig(max_iters=50))
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)
        assert len(trace.rows) == 1

    def test_e1_nonincreasing(self, rng):
        net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=3)
        data = _uniform_autoencoder_data(rng, 30, 6)
        cfg = CgConfig(max_iters=60, trace_every=1)
        _, trace = cg_train(net, data, cfg)
        vals = [r.e1_train for r in trace.rows]
        assert len(vals) > 5
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestAltOpt:
    def test_zero_iters_is_identity(self, rng):
        net = rbf_autoencoder(5, 12, 2, 12)
        data = _uniform_autoencoder_data(rng, 30, 5)
        out, trace = alt_opt_rbf_train(net, data, iters=0)
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)
        assert len(trace.rows) == 1

    def test_requires_rbf_autoencoder_shape(self, rng):
        net = sigmoid_autoencoder((6, 3, 6), seed=0)
        data = _uniform_autoencoder_data(rng, 10, 6)
        with pytest.raises(MacqpError):
            alt_opt_rbf_train(net, data, iters=1)

    def test_decoder_step_equals_w_step_decoder_block(self, rng):
        net = rbf_autoencoder(5, 10, 2, 10, seed=6)
        data = _uniform_autoencoder_data(rng, 40, 5)
        codes = forward_all(net, data.X)[1]

        after_alt, _ = alt_opt_rbf_train(net.copy(), data, iters=1, cg_steps=1)
        after_mac = w_step(net, AuxState([codes]), data, 1.0)
        # only the decoder pair (layers 3 and 4) is refit the same way; the
        # alternation's later encoder update does not touch it
        for i in (2, 3):
            np.testing.assert_allclose(
                after_alt.layers[i].weights.matrix,
                after_mac.layers[i].weights.matrix,
                rtol=1e-12,
            )

    def test_e1_nonincreasing_per_alternation(self, rng):
        net = rbf_autoencoder(6, 15, 2, 15, seed=1)
        data = _uniform_autoencoder_data(rng, 35, 6)
        _, trace = alt_opt_rbf_train(net, data, iters=4)
        vals = [r.e1_train for r in trace.rows]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(vals, vals[1:]))


class TestKmeans:
    def test_k_equals_point_count_returns_points(self, rng):
        pts = rng.normal(size=(8, 3))
        np.testing.assert_array_equal(kmeans(pts, 8)[0], pts)

    def test_two_blobs_recovers_means(self, rng):
        a = rng.normal(loc=0.0, scale=0.01, size=(50, 2))
        b = rng.normal(loc=10.0, scale=0.01, size=(50, 2))
        pts = np.vstack([a, b])
        centers = kmeans(pts, 2, seed=1, iters=50)[0]
        want = np.array([a.mean(axis=0), b.mean(axis=0)])
        got = centers[np.argsort(centers[:, 0])]
        want = want[np.argsort(want[:, 0])]
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_zero_iters_returns_seeds(self, rng):
        pts = rng.normal(size=(20, 3))
        seeds = kmeans(pts, 5, seed=3, iters=0)[0]
        # the seeds are data points
        for c in seeds:
            assert any(np.array_equal(c, p) for p in pts)

    def test_objective_nonincreasing_per_iteration(self, rng):
        pts = rng.normal(size=(60, 4))
        vals = [
            kmeans_objective(pts, kmeans(pts, 6, seed=2, iters=t)[0])
            for t in range(8)
        ]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_distances_are_those_of_the_returned_centers(self, rng, order):
        # after either convergence test, the iteration cap, no iteration, and
        # with k equal to the point count: bit for bit sq_dist of a C copy (at
        # 16 columns, F-ordered points round unlike C-ordered ones)
        pts = np.asarray(rng.normal(size=(200, 16)), order=order)
        converged = kmeans(pts, 10, seed=1, iters=200)[0]
        for k, kw in ((10, dict(seed=1, iters=200)), (10, dict(init=converged)),
                      (10, dict(seed=1, iters=3)), (10, dict(seed=1, iters=0)),
                      (200, {})):
            centers, d2 = kmeans(pts, k, **kw)
            np.testing.assert_array_equal(d2, sq_dist(np.ascontiguousarray(pts), centers))

    def test_too_many_clusters_rejected(self, rng):
        with pytest.raises(MacqpError):
            kmeans(rng.normal(size=(4, 2)), 5)[0]

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_matches_per_cluster_loop_bitwise(self, rng, d):
        # the flat bincount adds each cluster's rows in order, as the
        # axis-0 mean of a (c, d >= 2) block does
        for m, k in ((40, 1), (40, 3), (97, 8), (200, 25)):
            pts = rng.normal(size=(m, d)) * rng.uniform(0.1, 10.0)
            for seed in (0, 1, 7):
                for iters in (0, 1, 2, 20):
                    np.testing.assert_array_equal(
                        kmeans(pts, k, seed=seed, iters=iters)[0],
                        slow_kmeans(pts, k, seed=seed, iters=iters),
                    )

    def test_matches_per_cluster_loop_one_dimensional(self, rng):
        # a 1-D mean sums pairwise, so only the last bits may differ
        for m, k in ((40, 1), (40, 3), (97, 8), (200, 25)):
            pts = rng.normal(size=(m, 1))
            for seed in (0, 1, 7):
                for iters in (0, 1, 2, 20):
                    np.testing.assert_allclose(
                        kmeans(pts, k, seed=seed, iters=iters)[0],
                        slow_kmeans(pts, k, seed=seed, iters=iters),
                        rtol=1e-12,
                    )

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_duplicate_points_force_empty_clusters(self, rng, d):
        distinct = rng.normal(size=(6, d))
        pts = np.repeat(distinct, 8, axis=0)
        empty_seen = False
        for seed in range(12):
            seeds = kmeans(pts, 9, seed=seed, iters=0)[0]
            # equal seeds tie in the argmin, leaving all but the first empty
            empty_seen |= len(np.unique(seeds, axis=0)) < 9
            for iters in (1, 2, 20):
                np.testing.assert_array_equal(
                    kmeans(pts, 9, seed=seed, iters=iters)[0],
                    slow_kmeans(pts, 9, seed=seed, iters=iters),
                )
        assert empty_seen

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [2, 5])
    def test_matches_per_cluster_loop_in_first_iterations(self, rng, d, order):
        # one and two Lloyd steps, on points with and without duplicates:
        # with six distinct points and nine clusters, three or more
        # clusters are empty in every iteration
        for pts in (rng.normal(size=(30, d)), np.repeat(rng.normal(size=(6, d)), 5, axis=0)):
            pts = np.asarray(pts, order=order)
            for k in (3, 9):
                for seed in range(6):
                    for iters in (1, 2):
                        np.testing.assert_array_equal(
                            kmeans(pts, k, seed=seed, iters=iters)[0],
                            slow_kmeans(pts, k, seed=seed, iters=iters),
                        )

    @staticmethod
    def _codes_on_a_curve(rng, m):
        s = np.sort(rng.uniform(0.0, 1.0, m))
        return np.column_stack([np.cos(3.0 * s), np.sin(5.0 * s)])

    @pytest.mark.parametrize("k", [10, 20, 30, 40, 50])
    def test_matches_per_cluster_loop_on_codes_on_a_curve(self, rng, k):
        # 500 2-D codes, clustered as selection clusters them: no iteration
        # leaves a cluster empty, so every step divides without a mask
        pts = self._codes_on_a_curve(rng, 500) + rng.normal(scale=0.01, size=(500, 2))
        for seed in (0, 1, 2):
            for iters in range(20):
                centers = kmeans(pts, k, seed=seed, iters=iters)[0]
                assign = np.argmin(sq_dist(pts, centers), axis=1)
                assert np.bincount(assign, minlength=k).all()
            np.testing.assert_array_equal(
                kmeans(pts, k, seed=seed, iters=20)[0],
                slow_kmeans(pts, k, seed=seed, iters=20),
            )
            assert not np.array_equal(
                kmeans(pts, k, seed=seed, iters=20)[0], kmeans(pts, k, seed=seed, iters=1)[0]
            )

    @pytest.mark.parametrize("k", [20, 40, 50])
    def test_matches_per_cluster_loop_on_duplicated_codes(self, rng, k):
        # 500 codes at 30 distinct points: k = 40 and 50 leave clusters
        # empty in every iteration, so each one re-seeds
        distinct = self._codes_on_a_curve(rng, 30)
        pts = distinct[rng.integers(0, 30, size=500)]
        for seed in range(4):
            for iters in (1, 2, 20):
                np.testing.assert_array_equal(
                    kmeans(pts, k, seed=seed, iters=iters)[0],
                    slow_kmeans(pts, k, seed=seed, iters=iters),
                )

    def test_empty_clusters_reseeded_farthest_first_in_order(self):
        pts = np.zeros((40, 2))
        pts[-2] = [5.0, 0.0]
        pts[-1] = [-7.0, 0.0]
        seed = next(
            s for s in range(200) if not np.any(kmeans(pts, 3, seed=s, iters=0)[0])
        )
        # all three seeds sit at the origin, so clusters 1 and 2 start empty:
        # cluster 1 takes the farthest point, cluster 2 the next farthest
        np.testing.assert_array_equal(
            kmeans(pts, 3, seed=seed, iters=1)[0],
            [[-2.0 / 40, 0.0], [-7.0, 0.0], [5.0, 0.0]],
        )

    def test_started_from_its_result_returns_it_after_one_pass(self, rng, monkeypatch):
        import macqp.baselines

        pts = self._codes_on_a_curve(rng, 500) + rng.normal(scale=0.01, size=(500, 2))
        for k in (10, 50):
            converged = kmeans(pts, k, seed=1, iters=200)[0]
            np.testing.assert_array_equal(converged, kmeans(pts, k, seed=1, iters=201)[0])
            passes = []

            def counted(*args, **kwargs):
                passes.append(1)
                return sq_dist(*args, **kwargs)

            monkeypatch.setattr(macqp.baselines, "sq_dist", counted)
            np.testing.assert_array_equal(kmeans(pts, k, init=converged)[0], converged)
            monkeypatch.undo()
            assert len(passes) == 1

    @pytest.mark.parametrize("d", [2, 3])
    def test_start_at_the_seeds_equals_the_seeded_run(self, rng, d):
        # duplicate points give duplicate starting centers, whose clusters
        # are left empty and re-seeded as in a seeded run
        pts = np.repeat(rng.normal(size=(6, d)), 8, axis=0)
        empty_seen = False
        for seed in range(12):
            seeds = kmeans(pts, 9, seed=seed, iters=0)[0]
            empty_seen |= len(np.unique(seeds, axis=0)) < 9
            for iters in (1, 2, 20):
                np.testing.assert_array_equal(
                    kmeans(pts, 9, iters=iters, init=seeds)[0],
                    kmeans(pts, 9, seed=seed, iters=iters)[0],
                )
        assert empty_seen

    def test_duplicate_starting_centers_are_reseeded_farthest_first(self):
        pts = np.zeros((40, 2))
        pts[-2] = [5.0, 0.0]
        pts[-1] = [-7.0, 0.0]
        init = np.array([[0.5, 0.0], [0.5, 0.0], [0.5, 0.0]])
        np.testing.assert_array_equal(
            kmeans(pts, 3, iters=1, init=init)[0],
            [[-2.0 / 40, 0.0], [-7.0, 0.0], [5.0, 0.0]],
        )
        np.testing.assert_array_equal(init, [[0.5, 0.0]] * 3)

    def test_start_is_left_unchanged(self, rng):
        pts = rng.normal(size=(60, 3))
        init = rng.normal(size=(5, 3))
        kept = init.copy()
        centers = kmeans(pts, 5, init=init)[0]
        assert not np.array_equal(centers, kept)
        np.testing.assert_array_equal(init, kept)

    @pytest.mark.parametrize("shape", [(4, 3), (6, 3), (5, 2), (15,), (1, 5, 3)])
    def test_start_of_the_wrong_shape_rejected(self, rng, shape):
        init = rng.normal(size=shape)
        kept = init.copy()
        with pytest.raises(MacqpError, match=rf"start of shape \({shape[0]},"):
            kmeans(rng.normal(size=(20, 3)), 5, init=init)[0]
        np.testing.assert_array_equal(init, kept)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_rejected(self, rng, bad):
        init = rng.normal(size=(5, 3))
        init[2, 1] = bad
        kept = init.copy()
        with pytest.raises(MacqpError, match=r"start of shape \(5, 3\)"):
            kmeans(rng.normal(size=(20, 3)), 5, init=init)[0]
        np.testing.assert_array_equal(init, kept)


class TestRidgeLsq:
    def test_identity_features_zero_ridge(self, rng):
        T = rng.normal(size=(6, 4))
        np.testing.assert_allclose(ridge_lsq(np.eye(6), T, 0.0), T, rtol=1e-12)

    def test_huge_ridge_shrinks(self, rng):
        phi = rng.normal(size=(30, 5))
        T = rng.normal(size=(30, 2))
        W = ridge_lsq(phi, T, 1e12)
        assert np.linalg.norm(W) <= np.linalg.norm(phi.T @ T) / 1e12 * (1 + 1e-9)

    def test_normal_equation_residual(self, rng):
        phi = rng.normal(size=(40, 7))
        T = rng.normal(size=(40, 3))
        lam = 0.3
        W = ridge_lsq(phi, T, lam)
        lhs = phi.T @ phi @ W + lam * W
        rhs = phi.T @ T
        assert np.linalg.norm(lhs - rhs) <= 1e-8 * np.linalg.norm(rhs)

    def test_negative_ridge_rejected(self, rng):
        with pytest.raises(ValueError):
            ridge_lsq(np.eye(3), np.eye(3), -1.0)

    @pytest.mark.parametrize("lam", [0.0, 1e-6, 0.3, 50.0])
    def test_matches_augmented_lstsq(self, rng, lam):
        phi = rng.normal(size=(40, 7))
        T = rng.normal(size=(40, 3))
        aug = np.vstack([phi, np.sqrt(lam) * np.eye(7)])
        want = np.linalg.lstsq(aug, np.vstack([T, np.zeros((7, 3))]), rcond=None)[0]
        np.testing.assert_allclose(ridge_lsq(phi, T, lam), want, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(ridge_lsq(phi, T[:, 0], lam), want[:, 0], rtol=1e-10,
                                   atol=1e-12)

    @pytest.mark.parametrize("lam", [1e-6, 1e-3, 0.3])
    def test_rbf_readout_with_gram_matches_augmented_lstsq(self, rng, lam):
        # a readout as an RBF fit solves it: a design with a bias column and
        # its Gram matrix given
        pts = rng.uniform(-1.0, 1.0, size=(120, 2))
        phi = np.hstack([rbf_design(pts, pts[:10], 0.8), np.ones((120, 1))])
        T = rng.normal(size=(120, 3))
        aug = np.vstack([phi, np.sqrt(lam) * np.eye(11)])
        want = np.linalg.lstsq(aug, np.vstack([T, np.zeros((11, 3))]), rcond=None)[0]
        got = ridge_lsq(phi, T, lam, gram=phi.T @ phi)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_given_gram_matrix_is_used_and_kept(self, rng, lam):
        phi = rng.normal(size=(40, 7))
        T = rng.normal(size=(40, 3))
        gram = phi.T @ phi
        kept = gram.copy()
        np.testing.assert_array_equal(ridge_lsq(phi, T, lam, gram=gram),
                                      ridge_lsq(phi, T, lam))
        np.testing.assert_array_equal(gram, kept)
        got = ridge_lsq(phi, T, lam, gram=2.0 * gram)
        if lam > 0:
            # the solve reads the Gram matrix it is given, not the features
            want = np.linalg.solve(2.0 * gram + lam * np.eye(7), phi.T @ T)
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)
        else:
            # the zero-ridge solve reads the features only
            np.testing.assert_array_equal(got, np.linalg.lstsq(phi, T, rcond=None)[0])

    def test_singular_ridge_system_raises(self):
        # entries 2^42 and a rank-one Gram matrix: adding 1e-6 to the
        # diagonal is lost in rounding, so the factorization fails
        phi = np.full((4, 2), 2.0**20)
        with pytest.raises(MacqpError, match="ridge system is singular"):
            ridge_lsq(phi, np.ones((4, 1)), 1e-6)

    @pytest.mark.parametrize("case", ["full_rank", "rank_one_2^20", "rank_one", "one_target"])
    def test_zero_ridge_is_minimum_norm_lstsq(self, rng, case):
        # bit for bit np.linalg.lstsq, with or without a Gram matrix, also
        # where phi^T phi is singular
        phi = {"full_rank": rng.normal(size=(40, 7)),
               "rank_one_2^20": np.full((4, 2), 2.0**20),
               "rank_one": np.ones((4, 2)),
               "one_target": rng.normal(size=(40, 7))}[case]
        T = rng.normal(size=(phi.shape[0],) if case == "one_target" else (phi.shape[0], 3))
        want = np.linalg.lstsq(phi, T, rcond=None)[0]
        for gram in (None, phi.T @ phi):
            np.testing.assert_array_equal(ridge_lsq(phi, T, 0.0, gram=gram), want)

"""Penalized objective, alternating W/Z steps and the penalty-path driver."""

import dataclasses

import numpy as np
import pytest

import macqp.mac
from conftest import (
    rbf_autoencoder,
    random_dataset,
    random_mixed_net,
    sigmoid_autoencoder,
    slow_fit_sigmoid_layer,
    slow_forward,
    slow_w_step,
    slow_z_step,
)
from macqp.mac import (
    MU0,
    MU_GROWTH,
    REG_DROP_MU,
    TRANSIENT_REG,
    AuxState,
    PenaltySchedule,
    _block_objective,
    _block_output,
    block_outputs,
    block_slices,
    constraint_residual_vectors,
    constraint_residuals,
    lift_to_feasible,
    mac_train,
    multiplier_estimates,
    postprocess,
    qp_objective,
    w_step,
    z_step,
)
from macqp.baselines import kmeans, ridge_lsq
from macqp.data import synth_manifold_dataset
from macqp.kernels import rbf_design
from macqp.model import (
    Dataset,
    DimensionMismatchError,
    Layer,
    LayerKind,
    LayerSpec,
    LayerWeights,
    NestedNet,
    add_bias_col,
    forward_all,
    init_weights,
    layer_apply,
    nested_objective,
)


def _slow_qp(net, Z, data, mu):
    """Scalar-loop evaluation of the penalized objective."""
    bounds = [0] + list(net.placement) + [len(net.layers)]
    total = 0.0
    for n in range(data.n):
        cur = data.X[n]
        for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            out = cur
            for i in range(a, b):
                out = slow_forward(NestedNet([net.layers[i]]), out)
            if j < len(bounds) - 2:
                z = Z.coords[j][n]
                total += 0.5 * mu * float(np.sum((z - out) ** 2))
                cur = z
            else:
                total += 0.5 * float(np.sum((data.Y[n] - out) ** 2))
    for layer in net.layers:
        total += layer.spec.ridge * float(np.sum(layer.weights.matrix**2))
    return total


def _identity_linear_layer(d):
    spec = LayerSpec(LayerKind.LINEAR_DENSE, d, d, bias=False)
    return Layer(spec, LayerWeights(np.eye(d)))


class TestLiftAndQp:
    def test_lifted_residuals_are_zero(self, rng):
        net = random_mixed_net(rng)
        X = rng.normal(size=(9, net.in_dim))
        Z = lift_to_feasible(net, X)
        np.testing.assert_array_equal(constraint_residuals(net, Z, X), np.zeros(9))

    def test_qp_at_lifted_state_equals_nested(self, rng):
        for mu in (0.5, 1.0, 37.0, 1e6):
            net = random_mixed_net(rng, ridge=1e-3)
            data = random_dataset(rng, net)
            Z = lift_to_feasible(net, data.X)
            e1 = nested_objective(net, data)
            assert abs(qp_objective(net, Z, data, mu) - e1) <= 1e-12 * (1.0 + e1)

    def test_single_placement_lift_is_coding_activations(self, rng):
        net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=1, placement=[2])
        X = rng.normal(size=(5, 6))
        Z = lift_to_feasible(net, X)
        want = np.vstack([
            slow_forward(NestedNet(net.layers[:2]), x) for x in X
        ])
        np.testing.assert_allclose(Z.coords[0], want, rtol=1e-12)

    def test_mu_zero_is_last_block_loss_only(self, rng):
        net = random_mixed_net(rng)
        data = random_dataset(rng, net)
        Z = AuxState([rng.normal(size=c.shape) for c in lift_to_feasible(net, data.X).coords])
        slices = block_slices(net)
        feats = Z.coords[-1]
        for i in range(slices[-1][0], slices[-1][1]):
            feats = forward_all(NestedNet([net.layers[i]]), feats)[-1]
        want = 0.5 * float(np.sum((data.Y - feats) ** 2))
        np.testing.assert_allclose(qp_objective(net, Z, data, 0.0), want, rtol=1e-12)

    def test_qp_matches_scalar_loop(self, rng):
        for _ in range(10):
            net = random_mixed_net(rng, ridge=1e-3)
            data = random_dataset(rng, net, n=7)
            lifted = lift_to_feasible(net, data.X)
            Z = AuxState([c + rng.normal(size=c.shape) for c in lifted.coords])
            mu = float(rng.uniform(0.1, 100.0))
            np.testing.assert_allclose(
                qp_objective(net, Z, data, mu), _slow_qp(net, Z, data, mu), rtol=1e-11
            )

    @pytest.mark.parametrize("kind", ["sigmoid", "rbf"])
    def test_qp_is_the_block_order_sum_of_block_objectives(self, rng, kind):
        if kind == "sigmoid":
            net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=2, ridge=1e-3)
        else:
            net = rbf_autoencoder(6, 9, 2, 9, seed=2)
        data = random_dataset(rng, net, n=11)
        lifted = lift_to_feasible(net, data.X)
        Z = AuxState([c + 0.1 * rng.normal(size=c.shape) for c in lifted.coords])
        mu, transient = 3.7, 1e-4
        bounds = [0] + list(net.placement) + [len(net.layers)]
        ins, targets = [data.X] + Z.coords, Z.coords + [data.Y]
        want = 0.0
        for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
            weight = mu if j < len(Z.coords) else 1.0
            want += _block_objective(net.layers[a:b], ins[j], targets[j], weight, transient,
                                     _block_output(net.layers[a:b], ins[j]))
        assert qp_objective(net, Z, data, mu, transient) == want

    @pytest.mark.parametrize("mu", [-1.0, np.nan])
    def test_rejects_negative_or_nan_mu(self, rng, mu):
        net = random_mixed_net(rng)
        data = random_dataset(rng, net)
        Z = lift_to_feasible(net, data.X)
        with pytest.raises(ValueError, match="mu must be nonnegative"):
            qp_objective(net, Z, data, mu)


class TestWStep:
    def test_linear_block_matches_normal_equations(self, rng):
        specs = [
            LayerSpec(LayerKind.LINEAR_DENSE, 4, 3, ridge=0.01),
            LayerSpec(LayerKind.LINEAR_DENSE, 3, 2, ridge=0.001),
        ]
        net = init_weights(specs, 5, placement=[1])
        data = Dataset(rng.normal(size=(20, 4)), rng.normal(size=(20, 2)))
        Z = AuxState([rng.normal(size=(20, 3))])
        mu = 3.0
        out = w_step(net, Z, data, mu)

        # block 0: weight mu, ridge 0.01; block 1: weight 1, ridge 0.001
        for (phi_raw, T, weight, lam, idx) in (
            (data.X, Z.coords[0], mu, 0.01, 0),
            (Z.coords[0], data.Y, 1.0, 0.001, 1),
        ):
            phi = add_bias_col(phi_raw)
            A = phi.T @ phi + (2.0 * lam / weight) * np.eye(phi.shape[1])
            want = np.linalg.solve(A, phi.T @ T).T
            np.testing.assert_allclose(out.layers[idx].weights.matrix, want, rtol=1e-9)

    def test_stationary_sigmoid_block_unchanged(self, rng):
        spec = LayerSpec(LayerKind.SIGMOID_DENSE, 3, 4)
        net = init_weights([spec, LayerSpec(LayerKind.LINEAR_DENSE, 4, 2)], 2,
                           placement=[1])
        X = rng.normal(size=(15, 3))
        targets = forward_all(NestedNet([net.layers[0]]), X)[-1]
        Z = AuxState([targets])
        data = Dataset(X, rng.normal(size=(15, 2)))
        out = w_step(net, Z, data, 2.0)
        np.testing.assert_allclose(
            out.layers[0].weights.matrix, net.layers[0].weights.matrix,
            rtol=0, atol=1e-9,
        )

    def test_rbf_block_with_all_centers_uses_inputs(self, rng):
        n = 10
        specs = [
            LayerSpec(LayerKind.GAUSSIAN_RBF, 3, n, rbf_width=1.5),
            LayerSpec(LayerKind.LINEAR_DENSE, n, 2, ridge=1e-8, bias=False),
        ]
        net = init_weights(specs, 0, placement=[])
        data = Dataset(rng.normal(size=(n, 3)), rng.normal(size=(n, 2)))
        Z = AuxState([])
        out = w_step(net, Z, data, 1.0)
        np.testing.assert_array_equal(out.layers[0].weights.matrix, data.X)

    def test_rbf_readout_refit_includes_transient_term(self, rng):
        # with the centres unchanged, the refit's readout must be the exact
        # minimiser of the objective the acceptance test scores, which
        # charges transient_reg on the linear layer
        net = rbf_autoencoder(3, 6, 2, 5, ridge=1e-3, seed=4)
        data = Dataset(rng.uniform(size=(40, 3)), rng.uniform(size=(40, 3)))
        Z = AuxState([rng.normal(size=(40, 2))])
        mu, transient = 2.0, 0.05
        rbf, lin = net.layers[0], net.layers[1]
        centers = kmeans(data.X, 6)[0]
        phi = rbf_design(data.X, centers, rbf.spec.rbf_width)

        def readout(lam):
            return ridge_lsq(phi, Z.coords[0], lam).T

        # start from the readout that leaves the transient term out
        net.layers[0] = Layer(rbf.spec, LayerWeights(centers))
        net.layers[1] = Layer(lin.spec, LayerWeights(readout(2.0 * 1e-3 / mu)))
        out = w_step(net, Z, data, mu, transient_reg=transient)

        np.testing.assert_array_equal(out.layers[0].weights.matrix, centers)
        want = readout(2.0 * (1e-3 + transient) / mu)
        np.testing.assert_allclose(out.layers[1].weights.matrix, want, rtol=1e-12)
        assert not np.allclose(want, net.layers[1].weights.matrix, rtol=1e-6)
        args = (data.X, Z.coords[0], mu, transient)
        assert (_block_objective(out.layers[:2], *args, _block_output(out.layers[:2], data.X))
                < _block_objective(net.layers[:2], *args, _block_output(net.layers[:2], data.X)))

    def test_never_increases_qp(self, rng):
        for _ in range(5):
            net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=int(rng.integers(1000)))
            data = Dataset(rng.uniform(size=(25, 6)), rng.uniform(size=(25, 6)))
            Z = AuxState(
                [c + 0.1 * rng.normal(size=c.shape)
                 for c in lift_to_feasible(net, data.X).coords]
            )
            mu = float(rng.uniform(0.5, 20.0))
            before = qp_objective(net, Z, data, mu)
            after = qp_objective(w_step(net, Z, data, mu), Z, data, mu)
            assert after <= before * (1 + 1e-10)


class TestZStep:
    def test_identity_last_block_closed_form(self, rng):
        d, m = 4, 3
        specs = [LayerSpec(LayerKind.LINEAR_DENSE, d, m)]
        first = init_weights(specs, 3).layers[0]
        net = NestedNet([first, _identity_linear_layer(m)], [1])
        X = rng.normal(size=(12, d))
        Y = rng.normal(size=(12, m))
        data = Dataset(X, Y)
        C = forward_all(NestedNet([first]), X)[-1]
        Z = AuxState([rng.normal(size=(12, m))])
        for mu in (0.1, 1.0, 50.0):
            out = z_step(net, Z, data, mu)
            want = (Y + mu * C) / (1.0 + mu)
            np.testing.assert_allclose(out.coords[0], want, rtol=0, atol=1e-8)

    def test_huge_mu_keeps_feasible_point(self, rng):
        net = sigmoid_autoencoder((5, 4, 3, 5), seed=9)
        data = Dataset(rng.uniform(size=(10, 5)), rng.uniform(size=(10, 5)))
        Z = lift_to_feasible(net, data.X)
        out = z_step(net, Z, data, 1e12)
        for z0, z1 in zip(Z.coords, out.coords):
            assert np.linalg.norm(z1 - z0) <= 1e-6 * max(np.linalg.norm(z0), 1e-30)

    def test_point_order_independence(self, rng):
        net = sigmoid_autoencoder((5, 3, 5), seed=4)
        data = Dataset(rng.uniform(size=(11, 5)), rng.uniform(size=(11, 5)))
        Z = AuxState([rng.normal(size=(11, 3))])
        out = z_step(net, Z, data, 2.0)
        perm = rng.permutation(11)
        out_p = z_step(
            net, AuxState([Z.coords[0][perm]]),
            Dataset(data.X[perm], data.Y[perm]), 2.0,
        )
        np.testing.assert_array_equal(out_p.coords[0], out.coords[0][perm])

    def test_never_increases_qp(self, rng):
        net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=11)
        data = Dataset(rng.uniform(size=(20, 6)), rng.uniform(size=(20, 6)))
        Z = AuxState(
            [c + 0.2 * rng.normal(size=c.shape)
             for c in lift_to_feasible(net, data.X).coords]
        )
        for mu in (0.3, 3.0, 300.0):
            before = qp_objective(net, Z, data, mu)
            after = qp_objective(net, z_step(net, Z, data, mu), data, mu)
            assert after <= before * (1 + 1e-10)


def _backtrack_steps(monkeypatch, count, factor=0.5):
    """Make line searches try the ``count`` steps 1, factor, factor^2, ..."""
    steps = np.cumprod([1.0] + [factor] * (count - 1))
    monkeypatch.setattr(macqp.mac, "BACKTRACK_STEPS", steps)


def _z_steps(net, Z, data, mu, times):
    """The coordinates after ``times`` Z-steps at fixed weights, and the
    point-by-point reference's after as many."""
    got, ref = Z, Z
    for _ in range(times):
        got = z_step(net, got, data, mu)
        ref = AuxState(slow_z_step(net, ref, data, mu))
    return got.coords, ref.coords


# The tile that the tiled Z-step tests force: these nets would otherwise
# solve every test's points in one tile.
TILE = 64


def _point_elems(net):
    """One point's elements of stacked Jacobians and chain covariances in a
    Z-step tile: per block fed by coordinates of width w, w^2 plus w times
    each of its layers' out_dim."""
    elems = 0
    for a, b in block_slices(net)[1:]:
        width = net.layers[a].spec.in_dim
        elems += width * width + sum(width * net.layers[i].spec.out_dim for i in range(a, b))
    return elems


def _force_tile(monkeypatch, net, points=TILE):
    """Set the Z-step's element budget so that net's tiles hold ``points``."""
    monkeypatch.setattr(macqp.mac, "Z_TILE_ELEMS", points * _point_elems(net))
    assert macqp.mac._z_tile(net) == points


def _z_problem(rng, kind, n):
    """A net, data and coordinates moved off the lifted state."""
    if kind == "sigmoid":
        net = sigmoid_autoencoder((6, 5, 2, 5, 6), seed=21)
    elif kind == "path":
        # the path workload's widths: three coordinate blocks, output 4
        net = sigmoid_autoencoder((4, 24, 2, 24, 4), seed=21)
    elif kind == "rbf":
        net = rbf_autoencoder(5, 8, 2, 8, width1=1.0, width3=1.0, seed=5)
    elif kind == "wide":
        # one coordinate block, wider than the output
        specs = [LayerSpec(LayerKind.SIGMOID_DENSE, 6, 8), LayerSpec(LayerKind.LINEAR_DENSE, 8, 4)]
        net = init_weights(specs, 8, placement=[1])
    else:
        # unequal coordinate widths, and a middle block of two layer kinds
        specs = [
            LayerSpec(LayerKind.SIGMOID_DENSE, 5, 6),
            LayerSpec(LayerKind.SIGMOID_DENSE, 6, 3),
            LayerSpec(LayerKind.GAUSSIAN_RBF, 3, 7, rbf_width=1.5),
            LayerSpec(LayerKind.LINEAR_DENSE, 7, 5),
        ]
        net = init_weights(specs, 8, placement=[1, 3])
    X = rng.uniform(size=(n, net.in_dim))
    data = Dataset(X, rng.uniform(size=(n, net.out_dim)))
    Z = AuxState(
        [c + 0.3 * rng.normal(size=c.shape) for c in lift_to_feasible(net, X).coords]
    )
    return net, data, Z


class TestBatchedZStep:
    """The tiled chain-solve Z-step against the point-by-point reference."""

    # one point, parts of one tile, a nearly full tile, two tiles and a short
    # one, at tiles of TILE points
    @pytest.mark.parametrize("n", [1, 13, 37, TILE - 3, 2 * TILE + 5])
    @pytest.mark.parametrize("kind", ["sigmoid", "rbf", "mixed", "path", "wide"])
    def test_matches_point_by_point_reference(self, rng, monkeypatch, kind, n):
        net, data, Z = _z_problem(rng, kind, n)
        _force_tile(monkeypatch, net)
        for mu in (0.5, 50.0) + ((1e4,) if kind == "path" else ()):
            got, ref = _z_steps(net, Z, data, mu, 2)
            assert max(np.max(np.abs(a - b)) for a, b in zip(got, ref)) <= 1e-12

    def test_point_without_descent_direction_keeps_its_coordinates(self, rng):
        # Linear nets with dyadic weights, and point 3 placed exactly at its
        # optimum: its gradient is exactly zero, so its chain step is exactly
        # zero and no descent direction, with one coordinate block and with
        # two.  It takes no step, while its tile-mates move.
        lin = LayerKind.LINEAR_DENSE
        layers = [
            Layer(LayerSpec(lin, 2, 2),
                  LayerWeights([[1.0, -0.5, 0.25], [0.5, 2.0, -1.0]])),
            Layer(LayerSpec(lin, 2, 3),
                  LayerWeights([[0.75, 1.0, 0.0], [-2.0, 0.5, 1.0], [1.0, 1.0, -0.5]])),
            Layer(LayerSpec(lin, 3, 2),
                  LayerWeights([[0.5, -1.0, 0.25, 2.0], [1.0, 0.5, -0.75, 0.0]])),
        ]
        for net in (NestedNet(layers[:2], [1]), NestedNet(layers, [1, 2])):
            X = rng.normal(size=(10, 2))
            X[3] = [0.5, -1.25]
            Y = rng.normal(size=(10, net.out_dim))
            Y[3] = forward_all(net, X[3:4])[-1][0]
            data = Dataset(X, Y)
            coords = []
            for lifted in lift_to_feasible(net, X).coords:
                noise = rng.normal(size=lifted.shape)
                noise[3] = 0.0
                coords.append(lifted + noise)
            Z = AuxState(coords)
            got = z_step(net, Z, data, 2.0).coords
            for g_, z in zip(got, Z.coords):
                np.testing.assert_array_equal(g_[3], z[3])
            others = np.arange(10) != 3
            assert np.all(np.any(np.hstack(got)[others] != np.hstack(Z.coords)[others], axis=1))
            ref = slow_z_step(net, Z, data, 2.0)
            assert max(np.max(np.abs(a - b)) for a, b in zip(got, ref)) <= 1e-12

    @pytest.mark.parametrize("kind", ["sigmoid", "rbf", "mixed", "path", "wide"])
    def test_chain_step_is_a_finite_descent_direction(self, rng, kind):
        # Each point's Gauss-Newton matrix is at least mu I, so its chain
        # step is finite and, its gradient being nonzero, a descent
        # direction at any mu > 0: the Z-step has no use for damping.  The
        # reference's normal equations lose digits at small mu (9e-8 at
        # mu = 1e-8), so it is compared at the large mu only.
        net, data, Z = _z_problem(rng, kind, 40)
        slices = block_slices(net)
        f1 = _block_output(net.layers[slice(*slices[0])], data.X)
        for mu in (1e-6, 1e12):
            jacs, res, g, _ = macqp.mac._z_gn_system(net, slices, f1, data.Y, Z.coords, mu)
            d = macqp.mac._z_chain_solve(jacs, res, mu)
            assert all(np.all(np.isfinite(dj)) for dj in d)
            assert np.all(macqp.mac._is_descent(g, d))
            got = z_step(net, Z, data, mu)
            assert qp_objective(net, got, data, mu) <= qp_objective(net, Z, data, mu)
            if mu >= 1e-3:
                ref = slow_z_step(net, Z, data, mu)
                assert max(np.max(np.abs(a - b)) for a, b in zip(got.coords, ref)) <= 1e-12

    # coordinate widths w_0..w_{K-1} for K = 1, 2, 3, and output widths
    # below, at and above the last one
    @pytest.mark.parametrize("widths", [[3], [4, 3], [5, 2, 4]])
    @pytest.mark.parametrize("out_vs_last", [-1, 0, 2])
    @pytest.mark.parametrize("mu", [1e-3, 1.0, 1e4])
    def test_chain_solve_matches_dense_normal_equations(self, rng, widths, out_vs_last, mu):
        # Random Jacobians and residuals, and for each point the normal
        # equations of its linearised subproblem, built densely and solved
        # on their own: the residual rows res[j] + d_j - jacs[j-1] d_{j-1}
        # of each coordinate block, weighted by mu, then the output rows
        # res[K] - jacs[K-1] d_{K-1}, weighted by 1.
        n, K, out = 6, len(widths), widths[-1] + out_vs_last
        jacs = [rng.normal(size=(n, o, i)) / np.sqrt(i)
                for i, o in zip(widths, widths[1:] + [out])]
        res = [rng.normal(size=(n, w)) for w in widths + [out]]
        d = macqp.mac._z_chain_solve(jacs, res, mu)
        offs = np.cumsum([0] + widths)
        for p in range(n):
            J = np.zeros((offs[-1] + out, offs[-1]))
            for j in range(K):
                J[offs[j] : offs[j + 1], offs[j] : offs[j + 1]] = np.eye(widths[j])
                if j > 0:
                    J[offs[j] : offs[j + 1], offs[j - 1] : offs[j]] = -jacs[j - 1][p]
            J[offs[-1] :, offs[-2] :] = -jacs[-1][p]
            r0 = np.concatenate([r[p] for r in res])
            weight = np.concatenate([np.full(offs[-1], mu), np.ones(out)])
            ref = np.linalg.solve(J.T @ (weight[:, None] * J), -J.T @ (weight * r0))
            got = np.concatenate([dj[p] for dj in d])
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    @pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_mu_that_is_not_positive_and_finite(self, rng, mu):
        net, data, Z = _z_problem(rng, "sigmoid", 5)
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            z_step(net, Z, data, mu)

    def test_points_without_accepted_step_leave_the_others_unaffected(self, rng,
                                                                      monkeypatch):
        # narrow RBF widths and a single step length: on this problem some
        # full Gauss-Newton steps overshoot, so those points keep their
        # coordinates, while the others move on over three Z-steps
        net = rbf_autoencoder(4, 6, 2, 6, width1=0.3, width3=0.3, seed=2)
        X = rng.uniform(size=(TILE + 4, 4))
        data = Dataset(X, X)
        Z = AuxState(
            [c + 0.5 * rng.normal(size=c.shape) for c in lift_to_feasible(net, X).coords]
        )
        _backtrack_steps(monkeypatch, 1)
        (got,), (ref,) = _z_steps(net, Z, data, 1.0, 3)
        moved = np.any(got != Z.coords[0], axis=1)
        assert 0 < moved.sum() < data.n
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("max_backtracks", [1, 3, 20])
    def test_several_halvings_match_reference(self, rng, monkeypatch, max_backtracks):
        # At mu = 0.1 with narrow RBF widths many full Gauss-Newton steps
        # overshoot, and some points reject 1, b and b^2: their next steps
        # are tested four at a time, yet each point takes the step the
        # point-by-point search takes
        net = rbf_autoencoder(4, 6, 2, 6, width1=0.3, width3=0.3, seed=2)
        X = rng.uniform(size=(30, 4))
        data = Dataset(X, X)
        Z = AuxState(
            [c + 0.5 * rng.normal(size=c.shape) for c in lift_to_feasible(net, X).coords]
        )
        rounds = []
        objective = macqp.mac._z_objective

        def counting(*args):
            rounds.append(args[2].shape[0])
            return objective(*args)

        monkeypatch.setattr(macqp.mac, "_z_objective", counting)
        _backtrack_steps(monkeypatch, max_backtracks)
        got = z_step(net, Z, data, 0.1).coords
        if max_backtracks == 20:
            assert len(rounds) >= 3
        ref = slow_z_step(net, Z, data, 0.1)
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, ref)) <= 1e-12

    def test_singular_point_leaves_its_tile_mates_unaffected(self, rng):
        # Point 4's code is so far from every decoder centre that its RBF
        # responses underflow to zero: its Jacobian is exactly zero.  Its
        # Gauss-Newton matrix is still mu I, so its step pulls the code back
        # to the encoder's output, and its tile-mates take the steps they
        # take without it.
        net = rbf_autoencoder(5, 8, 2, 8, width1=1.0, width3=1.0, seed=5)
        X = rng.uniform(size=(7, 5))
        data = Dataset(X, X)
        code = lift_to_feasible(net, X).coords[0]
        code[4] = [1e3, -1e3]
        Z = AuxState([code])
        slices = block_slices(net)
        f1 = _block_output(net.layers[slice(*slices[0])], X)
        jacs, *_ = macqp.mac._z_gn_system(net, slices, f1, X, [code], 1.0)
        assert not np.any(jacs[0][4])
        got = z_step(net, Z, data, 1.0).coords[0]
        assert np.all(np.any(got != code, axis=1))
        others = np.arange(7) != 4
        rest = z_step(net, AuxState([code[others]]), Dataset(X[others], X[others]), 1.0).coords[0]
        assert np.max(np.abs(got[others] - rest)) <= 1e-12
        ref = slow_z_step(net, Z, data, 1.0)[0]
        assert np.max(np.abs(got - ref)) <= 1e-12

    @pytest.mark.parametrize("kind", ["sigmoid", "rbf", "mixed"])
    def test_gn_system_objective_equals_z_objective_bitwise(self, rng, kind):
        # each line search starts from the objective the Gauss-Newton system
        # builds from its residuals, not from a second forward pass; the
        # outputs handed back with the objective are the blocks' own
        net, data, Z = _z_problem(rng, kind, TILE + 5)
        slices = block_slices(net)
        f1 = _block_output(net.layers[slice(*slices[0])], data.X)
        for mu in (0.0, 1.0, 1e3):
            *_, f = macqp.mac._z_gn_system(net, slices, f1, data.Y, Z.coords, mu)
            want, *outs = macqp.mac._z_objective(net, slices, f1, data.Y, Z.coords, mu)
            np.testing.assert_array_equal(f, want)
            assert len(outs) == len(Z.coords)
            for (a, b), z, out in zip(slices[1:], Z.coords, outs, strict=True):
                np.testing.assert_array_equal(out, _block_output(net.layers[a:b], z))

    def test_first_block_evaluated_once_per_z_step(self, rng, monkeypatch):
        # the first block's output does not depend on the coordinates
        net, data, Z = _z_problem(rng, "mixed", 2 * TILE + 5)
        _force_tile(monkeypatch, net)  # three tiles
        first = block_slices(net)[0]
        calls = []

        def counting(layers, A_in, start=None):
            calls.append((start, start + len(layers)))
            return _block_output(layers, A_in, start)

        monkeypatch.setattr(macqp.mac, "_block_output", counting)
        z_step(net, Z, data, 2.0)
        assert calls.count(first) == 1
        assert len(calls) > 1

    @pytest.mark.parametrize("tiles", [1, 3])
    @pytest.mark.parametrize("kind", ["sigmoid", "rbf", "mixed", "path"])
    def test_hands_back_the_block_outputs_at_the_new_coordinates(self, rng, monkeypatch,
                                                                 kind, tiles):
        # one tile evaluates its points' outputs in the batch that
        # block_outputs evaluates; three tiles of TILE points round by tile
        net, data, Z = _z_problem(rng, kind, TILE - 4 if tiles == 1 else 2 * TILE + 5)
        _force_tile(monkeypatch, net)
        for mu in (0.5, 50.0):
            outs = block_outputs(net, Z, data.X)
            first = outs[0]
            got = z_step(net, Z, data, mu, outs=outs)
            assert outs[0] is first
            np.testing.assert_array_equal(first, block_outputs(net, Z, data.X)[0])
            for a, b in zip(got.coords, z_step(net, Z, data, mu).coords, strict=True):
                np.testing.assert_array_equal(a, b)
            want = block_outputs(net, got, data.X)
            assert len(outs) == len(want)
            for out, ref in zip(outs[1:], want[1:]):
                if tiles == 1:
                    np.testing.assert_array_equal(out, ref)
                else:
                    np.testing.assert_allclose(out, ref, rtol=1e-14, atol=0)
            Z = got

    def test_given_outputs_are_not_written_into(self, rng):
        # mac_train's outputs may be arrays that a k-means table also holds
        net, data, Z = _z_problem(rng, "mixed", 30)
        outs = block_outputs(net, Z, data.X)
        given = list(outs)
        kept = [o.copy() for o in outs]
        z_step(net, Z, data, 2.0, outs=outs)
        assert all(o is not g for o, g in zip(outs[1:], given[1:]))
        for g, k in zip(given, kept):
            np.testing.assert_array_equal(g, k)

    @pytest.mark.parametrize("kind", ["sigmoid", "rbf", "mixed", "path"])
    def test_block_forward_from_its_own_output_bitwise(self, rng, kind, monkeypatch):
        # given the block's output, the block forward pass applies every
        # layer but the last and returns the same output and Jacobian
        net, data, Z = _z_problem(rng, kind, 37)
        for sl, z in zip(block_slices(net)[1:], Z.coords):
            out, jac = macqp.mac._block_forward(net, sl, z)
            applied = []
            layer_apply = macqp.mac.layer_apply

            def counting(layer, Z_in, index=None):
                applied.append(index)
                return layer_apply(layer, Z_in, index=index)

            monkeypatch.setattr(macqp.mac, "layer_apply", counting)
            got, got_jac = macqp.mac._block_forward(net, sl, z, out=out)
            monkeypatch.undo()
            assert got is out
            assert applied == list(range(sl[0] + 1, sl[1]))
            np.testing.assert_array_equal(got_jac, jac)

    def test_block_errors_name_the_layer_by_its_place_in_the_net(self, rng):
        # the second block starts at the net's third layer
        net = sigmoid_autoencoder((5, 4, 3, 4, 5), seed=1, placement=[2])
        X = rng.uniform(size=(6, 5))
        Z = AuxState([rng.uniform(size=(6, 7))])
        with pytest.raises(DimensionMismatchError, match="layer 3 expects width 3, got 7"):
            block_outputs(net, Z, X)


class TestZTile:
    """The Z-step tile: as many points as fit Z_TILE_ELEMS elements of
    stacked Jacobians and chain covariances, at least one."""

    def test_path_net_solves_its_points_in_one_tile(self, rng, monkeypatch):
        # 4-24-2-24-4, all boundaries: one Z-step is one task for N = 120
        net = sigmoid_autoencoder((4, 24, 2, 24, 4))
        assert _point_elems(net) == 1348
        assert macqp.mac._z_tile(net) == macqp.mac.Z_TILE_ELEMS // 1348 >= 120
        X = rng.uniform(size=(120, 4))
        tasks, parallel_map = [], macqp.mac.parallel_map

        def counting(fns, workers):
            tasks.append(len(fns))
            return parallel_map(fns, workers)

        monkeypatch.setattr(macqp.mac, "parallel_map", counting)
        z_step(net, lift_to_feasible(net, X), Dataset(X, X), 1.0)
        assert tasks == [1]

    def test_desk_net_tile(self):
        # 64-32-8-32-64, all boundaries: several tiles for N = 500
        net = sigmoid_autoencoder((64, 32, 8, 32, 64))
        assert _point_elems(net) == 4672
        assert macqp.mac._z_tile(net) == macqp.mac.Z_TILE_ELEMS // 4672 < 500

    def test_rbf_select_net_solves_its_points_in_one_tile(self):
        # 2-wide codes: each point holds 2 x (40 + 16) Jacobian and 2 x 2
        # covariance elements
        net = rbf_autoencoder(16, 40, 2, 40)
        assert macqp.mac._z_tile(net) == macqp.mac.Z_TILE_ELEMS // 116 >= 500

    def test_tile_counts_every_layer_of_a_block(self):
        # block 1 is the sigmoid 6 -> 3 and the RBF 3 -> 7 fed by 6-wide
        # coordinates, block 2 the linear 7 -> 5 fed by 7-wide ones
        net, _, _ = _z_problem(np.random.default_rng(0), "mixed", 1)
        per_point = 6 * (3 + 7) + 7 * 5 + 6**2 + 7**2
        assert _point_elems(net) == per_point
        assert macqp.mac._z_tile(net) == macqp.mac.Z_TILE_ELEMS // per_point

    def test_point_larger_than_the_budget_makes_one_point_tiles(self, rng, monkeypatch):
        net, data, Z = _z_problem(rng, "mixed", 7)
        whole = z_step(net, Z, data, 2.0).coords
        monkeypatch.setattr(macqp.mac, "Z_TILE_ELEMS", _point_elems(net) - 1)
        assert macqp.mac._z_tile(net) == 1
        single = z_step(net, Z, data, 2.0).coords
        ref = slow_z_step(net, Z, data, 2.0)
        for a, b, r in zip(single, whole, ref, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-12
            assert np.max(np.abs(a - r)) <= 1e-12

    @pytest.mark.parametrize("kind", ["rbf", "mixed"])
    def test_tiles_of_64_points_agree_with_one_tile(self, rng, monkeypatch, kind):
        net, data, Z = _z_problem(rng, kind, 300)
        assert macqp.mac._z_tile(net) >= data.n
        for mu in (0.5, 50.0):
            whole = z_step(net, z_step(net, Z, data, mu), data, mu).coords
            _force_tile(monkeypatch, net)
            tiled = z_step(net, z_step(net, Z, data, mu), data, mu).coords
            monkeypatch.undo()
            assert max(np.max(np.abs(a - b)) for a, b in zip(whole, tiled)) <= 1e-12


class TestBacktrack:
    """The line search's batches on stacked quadratics 0.5 |x - t|^2 per row."""

    @staticmethod
    def _search(x, d, t, found=None):
        calls = []

        def evaluate(rows, cand):
            calls.append(np.array(rows))
            return [0.5 * np.sum((cand[0] - t[rows]) ** 2, axis=1)]

        vals = [0.5 * np.sum((x - t) ** 2, axis=1)]
        found = np.ones(x.shape[0], dtype=bool) if found is None else found
        macqp.mac._backtrack(evaluate, [x], [d], vals, found)
        return vals[0], calls

    def test_every_row_taking_its_full_step_is_one_batch_of_all_rows(self, rng):
        x, t = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
        d = t - x
        want = x + d
        f, calls = self._search(x, d, t)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.arange(9))
        np.testing.assert_array_equal(x, want)
        np.testing.assert_array_equal(f, 0.5 * np.sum((want - t) ** 2, axis=1))

    def test_one_row_rejecting_its_full_step_costs_the_usual_batches(self, rng):
        # row 4's full step overshoots t by twice its distance, raising its
        # objective 4-fold; its next batch tries the steps 1/2 and 1/4, and
        # takes 1/2, which lowers it 4-fold
        x, t = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
        d = t - x
        d[4] *= 3.0
        start = x.copy()
        _, calls = self._search(x, d, t)
        assert [c.tolist() for c in calls] == [list(range(9)), [4, 4]]
        np.testing.assert_array_equal(np.delete(x, 4, 0), np.delete(start + d, 4, 0))
        np.testing.assert_array_equal(x[4], start[4] + 0.5 * d[4])

    def test_a_row_without_direction_keeps_the_gathered_batch(self, rng):
        x, t = rng.normal(size=(9, 3)), rng.normal(size=(9, 3))
        d = t - x
        found = np.arange(9) != 2
        start = x.copy()
        _, calls = self._search(x, d, t, found)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], np.flatnonzero(found))
        np.testing.assert_array_equal(x[found], start[found] + d[found])
        np.testing.assert_array_equal(x[2], start[2])


def _sigmoid_layer_problem(rng, n, d_in, units):
    """A sigmoid layer, inputs in [0, 1] and targets in (0, 1) from a noisy
    sigmoid teacher."""
    layer = init_weights([LayerSpec(LayerKind.SIGMOID_DENSE, d_in, units)], 3).layers[0]
    A = rng.uniform(size=(n, d_in))
    teacher = rng.normal(size=(d_in, units)) / np.sqrt(d_in)
    T = 1.0 / (1.0 + np.exp(-(A @ teacher + 0.3 * rng.normal(size=(n, units)))))
    return layer, A, T


def _unit_objectives(layer, W, A, T, weight, lam):
    """Each unit's part of a sigmoid layer's W-step objective at weights W."""
    phi = add_bias_col(A) if layer.spec.bias else A
    R = T - 1.0 / (1.0 + np.exp(-(phi @ W.T)))
    return 0.5 * weight * np.sum(R**2, axis=0) + lam * np.sum(W**2, axis=1)


def _assert_matches_reference(layer, got, ref, A, T, weight, lam):
    """Each unit's weights in ``got`` equal the unit-by-unit reference's to
    1e-10.  A unit that has converged may stand before a last step of
    rounding size, which one run accepts and the other rejects: there both
    runs reach the same objective."""
    diff = np.max(np.abs(got - ref), axis=1)
    f = [_unit_objectives(layer, w, A, T, weight, lam) for w in (got, ref)]
    tie = (diff <= 1e-6) & (np.abs(f[0] - f[1]) <= 1e-13 * f[1])
    assert np.all((diff <= 1e-10) | tie)


def _fixed_point(layer, A, T, weight, lam):
    """The layer refitted until a fit returns its weights unchanged."""
    for _ in range(20):
        new, _ = macqp.mac._fit_sigmoid_layer(layer, A, T, weight, lam)
        if np.array_equal(new.weights.matrix, layer.weights.matrix):
            return layer
        layer = new
    raise AssertionError("the fit did not reach a fixed point in 20 refits")


def _count_sigmoid_calls(monkeypatch):
    """Record the argument shape of every sigmoid call the W-step makes."""
    calls = []
    sigmoid = macqp.mac.sigmoid

    def counting(t):
        calls.append(t.shape)
        return sigmoid(t)

    monkeypatch.setattr(macqp.mac, "sigmoid", counting)
    return calls


def _saturated_unit_problem(rng):
    """A layer of 4 units whose unit 1 has pre-activations of 20 to 27, so
    outputs within 2e-9 of 1, at targets of 1/2."""
    layer, A, T = _sigmoid_layer_problem(rng, 60, 4, 4)
    W = layer.weights.matrix.copy()
    W[1] = [1.0, 1.0, 1.0, 1.0, 20.0]
    T[:, 1] = 0.5
    return Layer(layer.spec, LayerWeights(W)), A, T


def _backtracking_layer_problem(rng):
    """A sigmoid layer whose units start saturated, with pre-activations
    of up to about +-20, at targets spread over (0, 1): their Gauss-Newton
    steps overshoot, so at lam = 1e-3 units take from 0 to 17 halvings at
    factor 0.9 (up to 3 at 0.5)."""
    layer, A, _ = _sigmoid_layer_problem(rng, 60, 4, 8)
    W = layer.weights.matrix.copy()
    W[:, :-1] *= 3.0
    W[:, -1] = rng.uniform(4.0, 12.0, size=8) * rng.choice([-1.0, 1.0], size=8)
    T = rng.uniform(0.05, 0.95, size=(60, 8))
    return Layer(layer.spec, LayerWeights(W)), A, T


def _singular_unit_problem(rng):
    """A layer of 6 units whose unit 3 has a singular Gauss-Newton matrix,
    and the units' matrices at weight 1 and no ridge.  Input columns 0 and
    1 agree on the first half of the points, and unit 3 saturates to
    exactly 1 on the second half (column 2 is 1 there), so its matrix has
    two equal rows."""
    n = 50
    A = rng.uniform(size=(n, 3))
    A[: n // 2, 1] = A[: n // 2, 0]
    A[: n // 2, 2] = 0.0
    A[n // 2 :, 2] = 1.0
    layer, _, T = _sigmoid_layer_problem(rng, n, 3, 6)
    W = layer.weights.matrix.copy()
    W[3] = [0.5, -0.5, 100.0, 0.25]
    S = macqp.mac.sigmoid(W @ add_bias_col(A).T)
    S *= 1.0 - S
    H = macqp.mac._sigmoid_gn_matrices(add_bias_col(A), S, 1.0, 0.0)
    return Layer(layer.spec, LayerWeights(W)), A, T, H


def _without_unit(layer, T, k):
    """The layer and targets with unit k left out."""
    spec = LayerSpec(LayerKind.SIGMOID_DENSE, layer.spec.in_dim, layer.spec.out_dim - 1,
                     bias=layer.spec.bias)
    W = np.delete(layer.weights.matrix, k, axis=0)
    return Layer(spec, LayerWeights(W)), np.delete(T, k, axis=1)


class TestBatchedWStep:
    """The stacked sigmoid-layer fit against the unit-by-unit reference."""

    # the path (N = 120) and desk (N = 500) sigmoid layer shapes
    @pytest.mark.parametrize("n, d_in, units", [
        (120, 4, 24), (120, 2, 24), (120, 24, 2),
        (500, 64, 32), (500, 32, 8), (500, 8, 32),
    ])
    @pytest.mark.parametrize("weight", [1.0, 1e2, 1e4])
    def test_matches_unit_by_unit_reference(self, rng, n, d_in, units, weight):
        layer, A, T = _sigmoid_layer_problem(rng, n, d_in, units)
        for lam in (1e-4, 1e-2):
            got, _ = macqp.mac._fit_sigmoid_layer(layer, A, T, weight, lam)
            ref = slow_fit_sigmoid_layer(layer, A, T, weight, lam)
            assert np.max(np.abs(got.weights.matrix - ref)) <= 1e-10

    @pytest.mark.parametrize("widths", [(4, 24, 2, 24, 4), (64, 32, 8, 32, 64)])
    def test_w_step_matches_reference(self, rng, widths):
        net = sigmoid_autoencoder(widths, seed=4, ridge=1e-4)
        X = rng.uniform(size=(150, widths[0]))
        data = Dataset(X, X)
        Z = AuxState(
            [c + 0.05 * rng.normal(size=c.shape) for c in lift_to_feasible(net, X).coords]
        )
        ins = [X] + Z.coords
        targets = Z.coords + [X]
        for mu in (1.0, 1e2, 1e4):
            got = w_step(net, Z, data, mu, transient_reg=1e-4)
            ref = slow_w_step(net, Z, data, mu, transient_reg=1e-4)
            for j, (layer, W) in enumerate(zip(got.layers, ref)):
                if layer.spec.kind != LayerKind.SIGMOID_DENSE:
                    assert np.max(np.abs(layer.weights.matrix - W)) <= 1e-10
                    continue
                weight = 1.0 if j == len(ref) - 1 else mu
                _assert_matches_reference(layer, layer.weights.matrix, W, ins[j], targets[j],
                                          weight, 2e-4)

    @pytest.mark.parametrize("max_backtracks", [1, 2, 3, 7, 20, 33])
    @pytest.mark.parametrize("factor", [0.5, 0.3, 0.9])
    def test_backtracking_matches_reference(self, rng, monkeypatch, max_backtracks, factor):
        # the trial steps are tested in batches of 1, 2, 4, ... per unit;
        # each unit still takes the first step the sequential search takes,
        # or none within max_backtracks
        _backtrack_steps(monkeypatch, max_backtracks, factor)
        for _ in range(3):
            layer, A, T = _backtracking_layer_problem(rng)
            got = macqp.mac._fit_sigmoid_layer(layer, A, T, 1.0, 1e-3)[0].weights.matrix
            ref = slow_fit_sigmoid_layer(layer, A, T, 1.0, 1e-3)
            _assert_matches_reference(layer, got, ref, A, T, 1.0, 1e-3)

    def _check_odd_unit(self, layer, A, T, weight, lam, k):
        """Unit k may not move; no unit's objective rises; the other units
        end exactly where a batch without unit k leaves them."""
        got = macqp.mac._fit_sigmoid_layer(layer, A, T, weight, lam)[0].weights.matrix
        W0 = layer.weights.matrix
        before = _unit_objectives(layer, W0, A, T, weight, lam)
        after = _unit_objectives(layer, got, A, T, weight, lam)
        assert np.all(after <= before)
        rest_layer, rest_T = _without_unit(layer, T, k)
        rest, _ = macqp.mac._fit_sigmoid_layer(rest_layer, A, rest_T, weight, lam)
        np.testing.assert_array_equal(np.delete(got, k, axis=0), rest.weights.matrix)
        return got

    def test_realizable_unit_takes_no_step(self, rng):
        # Dyadic inputs and weights make unit 2's pre-activations exact, so
        # its targets are exactly its outputs: zero residual and, without a
        # ridge, zero gradient, so no damping level gives a descent step.
        layer, _, T = _sigmoid_layer_problem(rng, 40, 3, 5)
        A = rng.integers(-4, 5, size=(40, 3)) / 4.0
        W = layer.weights.matrix.copy()
        W[2] = [0.5, -0.25, 1.125, -0.375]
        layer = Layer(layer.spec, LayerWeights(W))
        T[:, 2] = macqp.mac.sigmoid(add_bias_col(A) @ W[2])
        got = self._check_odd_unit(layer, A, T, 1e2, 0.0, 2)
        np.testing.assert_array_equal(got[2], W[2])
        assert np.all(np.any(np.delete(got, 2, axis=0) != np.delete(W, 2, axis=0), axis=1))

    def test_saturated_unit_never_accepts_a_step(self, rng):
        # Unit 1's Gauss-Newton step is so long that every backtracked step
        # still saturates the other way, and none of them lowers the
        # objective, so the unit stops where it started.
        layer, A, T = _saturated_unit_problem(rng)
        got = self._check_odd_unit(layer, A, T, 1.0, 0.0, 1)
        np.testing.assert_array_equal(got[1], layer.weights.matrix[1])

    @pytest.mark.parametrize("max_backtracks", [1, 3, 7, 20])
    def test_unit_that_never_accepts_costs_log_rounds(self, rng, monkeypatch, max_backtracks):
        # the saturated unit of the test above tries every step length in
        # ceil(log2(max_backtracks + 1)) rounds, one sigmoid call each
        layer, A, T = _saturated_unit_problem(rng)
        calls = _count_sigmoid_calls(monkeypatch)
        _backtrack_steps(monkeypatch, max_backtracks)
        out = layer_apply(layer, A)
        got = macqp.mac._fit_sigmoid_layer(layer, A, T, 1.0, 0.0, out)[0].weights.matrix
        np.testing.assert_array_equal(got[1], layer.weights.matrix[1])
        rounds = int(np.ceil(np.log2(max_backtracks + 1)))
        assert len(calls) <= rounds

    # the path (N = 120) and desk (N = 500) sigmoid layer shapes
    @pytest.mark.parametrize("n, d_in, units", [(120, 4, 24), (120, 24, 2), (500, 8, 32)])
    @pytest.mark.parametrize("weight", [1.0, 1e4])
    @pytest.mark.parametrize("lam", [1e-4, 0.0])
    def test_refit_at_a_fixed_point_runs_no_line_search(self, rng, monkeypatch, n, d_in,
                                                        units, weight, lam):
        # at a fixed point of the fit every unit's predicted decrease is
        # below the rounding of its objective: given the layer's output,
        # the refit evaluates no sigmoid and returns its weights and output
        layer, A, T = _sigmoid_layer_problem(rng, n, d_in, units)
        layer = _fixed_point(layer, A, T, weight, lam)
        out = layer_apply(layer, A)
        calls = _count_sigmoid_calls(monkeypatch)
        again, again_out = macqp.mac._fit_sigmoid_layer(layer, A, T, weight, lam, out)
        assert len(calls) == 0
        np.testing.assert_array_equal(again.weights.matrix, layer.weights.matrix)
        np.testing.assert_array_equal(again_out, out)

    @pytest.mark.parametrize("problem", ["plain", "backtracking"])
    def test_unit_objectives_computed_once_per_batch(self, rng, monkeypatch, problem):
        # once at the starting weights, then once per line-search batch:
        # a unit's objective at its accepted step comes from its batch
        if problem == "plain":
            layer, A, T = _sigmoid_layer_problem(rng, 120, 4, 24)
        else:
            layer, A, T = _backtracking_layer_problem(rng)
        objectives, batches = [], []
        unit_objectives, backtrack = (macqp.mac._sigmoid_unit_objectives,
                                      macqp.mac._backtrack)

        def counting_objectives(*args):
            objectives.append(args[0].shape[0])
            return unit_objectives(*args)

        def counting_backtrack(evaluate, *args):
            def counted(rows, cand):
                batches.append(len(rows))
                return evaluate(rows, cand)
            return backtrack(counted, *args)

        monkeypatch.setattr(macqp.mac, "_sigmoid_unit_objectives", counting_objectives)
        monkeypatch.setattr(macqp.mac, "_backtrack", counting_backtrack)
        got = macqp.mac._fit_sigmoid_layer(layer, A, T, 1.0, 1e-3)[0].weights.matrix
        monkeypatch.undo()
        # the first batch is every unit's full step; the backtracking
        # problem's units that reject it need more
        assert batches[0] == layer.spec.out_dim
        assert len(batches) >= 1 + (problem == "backtracking")
        assert objectives == [layer.spec.out_dim] + batches
        ref = macqp.mac._fit_sigmoid_layer(layer, A, T, 1.0, 1e-3)[0].weights.matrix
        np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("problem", ["plain", "backtracking", "saturated"])
    def test_one_gauss_newton_step_per_fit(self, rng, monkeypatch, problem):
        # a fit solves every unit's Gauss-Newton system once, as one stack,
        # also when units take line searches or keep their weights
        if problem == "plain":
            layer, A, T = _sigmoid_layer_problem(rng, 120, 4, 24)
        elif problem == "backtracking":
            layer, A, T = _backtracking_layer_problem(rng)
        else:
            layer, A, T = _saturated_unit_problem(rng)
        solves, gn_solve = [], macqp.mac._gn_solve

        def counting(H, g):
            solves.append(g.shape[0])
            return gn_solve(H, g)

        monkeypatch.setattr(macqp.mac, "_gn_solve", counting)
        got = macqp.mac._fit_sigmoid_layer(layer, A, T, 1.0, 1e-3)[0].weights.matrix
        assert solves == [layer.spec.out_dim]
        assert np.any(got != layer.weights.matrix)

    def test_unit_at_its_fixed_point_leaves_the_others_unaffected(self, rng):
        # Unit 4 starts at its fixed point, the others where they began: its
        # damped step is a descent direction whose predicted decrease is
        # below the rounding of its objective, so it stops without a line
        # search while the others take their steps.
        weight, lam, k = 1e2, 1e-4, 4
        layer, A, T = _sigmoid_layer_problem(rng, 120, 4, 8)
        W = layer.weights.matrix.copy()
        W[k] = _fixed_point(layer, A, T, weight, lam).weights.matrix[k]
        layer = Layer(layer.spec, LayerWeights(W))
        phi = add_bias_col(A)
        p = macqp.mac.sigmoid(phi @ W[k])
        s = p * (1.0 - p)
        g = -weight * ((s * (T[:, k] - p)) @ phi) + 2.0 * lam * W[k]
        H = macqp.mac._sigmoid_gn_matrices(phi, s[None], weight, lam)
        d, found = macqp.mac._gn_solve(H, g[None])
        f = _unit_objectives(layer, W, A, T, weight, lam)[k]
        assert found[0] and 0 < -(g @ d[0]) <= 2.0 * 120 * np.finfo(np.float64).eps * f
        got = self._check_odd_unit(layer, A, T, weight, lam, k)
        np.testing.assert_array_equal(got[k], W[k])
        assert np.all(np.any(np.delete(got, k, axis=0) != np.delete(W, k, axis=0), axis=1))

    def test_singular_unit_leaves_the_others_unaffected(self, rng):
        # Unit 3's undamped Gauss-Newton matrix has two equal rows: the
        # stacked solve fails, the units are solved one by one, and unit 3
        # takes its minimum-norm step while the others take theirs.
        layer, A, T, H = _singular_unit_problem(rng)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H[3], np.ones(4))
        for i in (0, 1, 2, 4, 5):
            np.linalg.solve(H[i], np.ones(4))
        got = self._check_odd_unit(layer, A, T, 1.0, 0.0, 3)
        assert np.all(np.any(got != layer.weights.matrix, axis=1))

    def test_singular_unit_takes_the_minimum_norm_step(self, rng):
        layer, A, T, H = _singular_unit_problem(rng)
        phi = add_bias_col(A)
        P = macqp.mac.sigmoid(layer.weights.matrix @ phi.T)
        g = -((P * (1.0 - P) * (T.T - P)) @ phi)  # weight 1, no ridge
        d, found = macqp.mac._gn_solve(H, g)
        assert found.all() and g[3] @ d[3] < 0
        np.testing.assert_allclose(d[3], -np.linalg.pinv(H[3], hermitian=True) @ g[3],
                                   rtol=1e-12, atol=0)

    def test_gn_solve_leaves_its_systems_unchanged(self, rng):
        _, _, _, H = _singular_unit_problem(rng)
        g = rng.normal(size=H.shape[:2])
        before = [H.copy(), g.copy()]
        _, found = macqp.mac._gn_solve(H, g)
        assert found.all()
        for a, b in zip((H, g), before):
            np.testing.assert_array_equal(a, b)

    def test_gn_solve_inverts_only_systems_without_a_descent_step(self, rng, monkeypatch):
        # every system descends: one stacked solve, returned as it is; a
        # zero-gradient system adds one pseudo-inverse, of that system only,
        # and finds no step; a singular system makes the solve go one by one
        _, _, _, H = _singular_unit_problem(rng)
        g = rng.normal(size=H.shape[:2])
        calls = []  # (function, systems per call)
        solve, pinv = np.linalg.solve, np.linalg.pinv

        def counted(name, fn):
            def call(A, *args, **kwargs):
                calls.append((name, A.shape[0] if A.ndim == 3 else 1))
                return fn(A, *args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
        monkeypatch.setattr(np.linalg, "pinv", counted("pinv", pinv))
        ok = [0, 1, 2, 4, 5]
        d, found = macqp.mac._gn_solve(H[ok], g[ok])
        assert calls == [("solve", 5)] and found.all()
        np.testing.assert_array_equal(d, solve(H[ok], -g[ok, :, None])[:, :, 0])
        calls.clear()
        g0 = g[ok].copy()
        g0[2] = 0.0
        d, found = macqp.mac._gn_solve(H[ok], g0)
        assert calls == [("solve", 5), ("pinv", 1)]
        np.testing.assert_array_equal(found, [True, True, False, True, True])
        np.testing.assert_array_equal(d[2], 0.0)
        calls.clear()
        _, found = macqp.mac._gn_solve(H, g)
        assert calls == [("solve", 6)] + [("solve", 1)] * 6 + [("pinv", 1)] and found.all()

    def test_one_point(self, rng):
        # N = 1: each unit's Gauss-Newton matrix is rank one plus the ridge
        layer, A, T = _sigmoid_layer_problem(rng, 1, 4, 6)
        for weight, lam in ((1.0, 1e-4), (1e4, 1e-2)):
            got, _ = macqp.mac._fit_sigmoid_layer(layer, A, T, weight, lam)
            W0 = layer.weights.matrix
            before = _unit_objectives(layer, W0, A, T, weight, lam)
            after = _unit_objectives(layer, got.weights.matrix, A, T, weight, lam)
            assert np.all(after < before)
            ref = slow_fit_sigmoid_layer(layer, A, T, weight, lam)
            assert np.max(np.abs(got.weights.matrix - ref)) <= 1e-10

    def test_unit_groups_do_not_change_the_result(self, rng, monkeypatch):
        layer, A, T = _sigmoid_layer_problem(rng, 500, 64, 32)
        whole, _ = macqp.mac._fit_sigmoid_layer(layer, A, T, 1e2, 1e-4)
        for group_elems in (1, 5 * 65 * 500):
            monkeypatch.setattr(macqp.mac, "W_GROUP_ELEMS", group_elems)
            grouped, _ = macqp.mac._fit_sigmoid_layer(layer, A, T, 1e2, 1e-4)
            np.testing.assert_array_equal(grouped.weights.matrix, whole.weights.matrix)

    @pytest.mark.parametrize("problem", ["path", "desk", "backtracking"])
    def test_fit_block_returns_layer_apply_of_its_fit(self, rng, monkeypatch, problem):
        # the line search evaluates candidates as layer_apply does: when
        # every unit accepts its full step, in one batch, the returned
        # output is layer_apply's bit for bit; units that backtrack are
        # evaluated in smaller batches, which BLAS may round otherwise.
        # On the desk shape, with OpenBLAS on one thread, W @ [A, 1]^T rounds
        # unlike A @ W[:, :in]^T + b.
        if problem == "path":
            layer, A, T = _sigmoid_layer_problem(rng, 120, 4, 24)
        elif problem == "desk":
            layer, A, T = _sigmoid_layer_problem(rng, 500, 64, 32)
        else:
            layer, A, T = _backtracking_layer_problem(rng)
        batches, backtrack = [], macqp.mac._backtrack

        def counting_backtrack(evaluate, *args):
            def counted(rows, cand):
                batches.append(len(rows))
                return evaluate(rows, cand)
            return backtrack(counted, *args)

        monkeypatch.setattr(macqp.mac, "_backtrack", counting_backtrack)
        net = NestedNet([layer])
        out = layer_apply(layer, A)
        before = out.copy()
        (new,), got = macqp.mac.fit_block(net, (0, 1), A, T, 1.0, 1e-3, out=out)
        np.testing.assert_array_equal(out, before)
        assert got.flags.c_contiguous and got is not out
        want = layer_apply(new, A)
        if problem != "backtracking":
            assert batches == [layer.spec.out_dim]
            np.testing.assert_array_equal(got, want)
        else:
            assert len(batches) > 1
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)
        # without the current output the fit computes it, and the layout of
        # a given one changes no bit (einsum and matmul round by layout)
        for given in (None, np.asfortranarray(out)):
            (again,), again_out = macqp.mac.fit_block(net, (0, 1), A, T, 1.0, 1e-3, out=given)
            np.testing.assert_array_equal(again.weights.matrix, new.weights.matrix)
            np.testing.assert_array_equal(again_out, got)
            assert again_out.flags.c_contiguous

    @pytest.mark.parametrize("given", [True, False])
    @pytest.mark.parametrize("widths", [(4, 24, 2, 24, 4), (64, 32, 8, 32, 64)])
    def test_w_step_evaluates_sigmoid_blocks_only_in_line_searches(self, rng, monkeypatch,
                                                                   widths, given):
        # a block's current output is given or evaluated once; a sigmoid
        # fit starts from it and returns the output its line search
        # computed, so every other sigmoid call is one line-search batch
        net = sigmoid_autoencoder(widths, seed=4, ridge=1e-4)
        X = rng.uniform(size=(150, widths[0]))
        data = Dataset(X, X)
        Z = AuxState(
            [c + 0.05 * rng.normal(size=c.shape) for c in lift_to_feasible(net, X).coords]
        )
        outs = block_outputs(net, Z, data.X) if given else None
        searching, calls, batches = [False], [], []
        backtrack = macqp.mac._backtrack

        def in_search(evaluate, *args):
            def counted(rows, cand):
                batches.append(len(rows))
                return evaluate(rows, cand)
            searching[0] = True
            try:
                return backtrack(counted, *args)
            finally:
                searching[0] = False

        def spy(sigmoid):
            def call(t):
                calls.append(searching[0])
                return sigmoid(t)
            return call

        monkeypatch.setattr(macqp.mac, "_backtrack", in_search)
        for module in (macqp.mac, macqp.model):
            monkeypatch.setattr(module, "sigmoid", spy(module.sigmoid))
        w_step(net, Z, data, 10.0, transient_reg=1e-4, outs=outs)
        sigmoid_blocks = sum(l.spec.kind == LayerKind.SIGMOID_DENSE for l in net.layers)
        assert calls.count(False) == (0 if given else sigmoid_blocks)
        assert calls.count(True) == len(batches) >= sigmoid_blocks

    @pytest.mark.parametrize("kind", ["sigmoid", "rbf", "path"])
    def test_w_step_does_not_write_into_given_outputs(self, rng, kind):
        # mac_train's outputs may be arrays that a k-means table also holds;
        # an accepted fit's output replaces its entry in the list
        net, data, Z = _z_problem(rng, kind, 40)
        outs = block_outputs(net, Z, data.X)
        given = list(outs)
        kept = [o.copy() for o in outs]
        new = w_step(net, Z, data, 2.0, transient_reg=1e-4, outs=outs)
        for g, k in zip(given, kept, strict=True):
            np.testing.assert_array_equal(g, k)
        replaced = 0
        for (a, b), out, g, want in zip(block_slices(net), outs, given,
                                        block_outputs(new, Z, data.X), strict=True):
            if any(l is not m for l, m in zip(new.layers[a:b], net.layers[a:b])):
                assert out is not g
                replaced += 1
            np.testing.assert_allclose(out, want, rtol=1e-14, atol=0)
        assert replaced > 0


class TestPenaltySchedule:
    @pytest.mark.parametrize("bad", [
        {"max_iters_per_stage": 0}, {"max_iters_per_stage": 2.0},
        {"stage_tolerance": float("nan")}, {"stage_tolerance": 0.0}, {"max_stages": -1},
    ])
    def test_invalid_values_rejected(self, bad):
        # the message names the key
        with pytest.raises(ValueError, match=next(iter(bad))):
            PenaltySchedule(**bad)

    def test_three_fields(self):
        names = [f.name for f in dataclasses.fields(PenaltySchedule)]
        assert names == ["stage_tolerance", "max_stages", "max_iters_per_stage"]

    def test_path_constants(self):
        assert (MU0, MU_GROWTH, REG_DROP_MU, TRANSIENT_REG) == (1.0, 10.0, 1e4, 1e-4)

    def test_transient_ridge_held_while_mu_at_most_reg_drop_mu(self, rng, monkeypatch):
        seen = []
        w_step_fn = macqp.mac.w_step

        def spy(net, Z, data, mu, transient_reg=0.0, **kwargs):
            seen.append((mu, transient_reg))
            return w_step_fn(net, Z, data, mu, transient_reg=transient_reg, **kwargs)

        monkeypatch.setattr(macqp.mac, "w_step", spy)
        net = sigmoid_autoencoder((5, 3, 5), seed=1)
        X = rng.uniform(size=(12, 5))
        mac_train(net, Dataset(X, X), PenaltySchedule(max_stages=6, max_iters_per_stage=1))
        assert sorted(set(seen)) == [(1.0, 1e-4), (10.0, 1e-4), (100.0, 1e-4),
                                     (1e3, 1e-4), (1e4, 1e-4), (1e5, 0.0)]


class TestResidualsAndMultipliers:
    def test_single_coordinate_perturbation(self, rng):
        net = sigmoid_autoencoder((5, 3, 5), seed=2)
        X = rng.uniform(size=(8, 5))
        Z = lift_to_feasible(net, X)
        delta = 0.37
        Z.coords[0][4, 1] += delta
        res = constraint_residuals(net, Z, X)
        assert res[4] == pytest.approx(delta, rel=1e-12)
        assert np.all(res[np.arange(8) != 4] == 0.0)

    def test_residuals_match_scalar_loop(self, rng):
        net = random_mixed_net(rng)
        data = random_dataset(rng, net, n=6)
        Z = AuxState(
            [c + rng.normal(size=c.shape)
             for c in lift_to_feasible(net, data.X).coords]
        )
        bounds = [0] + list(net.placement)
        got = constraint_residuals(net, Z, data.X)
        for n in range(6):
            acc = 0.0
            cur = data.X[n]
            for j, a in enumerate(bounds[:-1]):
                out = cur
                for i in range(a, bounds[j + 1]):
                    out = slow_forward(NestedNet([net.layers[i]]), out)
                acc += float(np.sum((Z.coords[j][n] - out) ** 2))
                cur = Z.coords[j][n]
            np.testing.assert_allclose(got[n], np.sqrt(acc), rtol=1e-11)

    def test_shared_block_outputs_match_separate_calls_bitwise(self, rng):
        net = random_mixed_net(rng, ridge=1e-3)
        data = random_dataset(rng, net, n=9)
        Z = AuxState(
            [c + rng.normal(size=c.shape)
             for c in lift_to_feasible(net, data.X).coords]
        )
        outs = block_outputs(net, Z, data.X)
        for mu in (0.0, 3.0):
            assert (qp_objective(net, Z, data, mu, 1e-4, outs=outs)
                    == qp_objective(net, Z, data, mu, 1e-4))
        np.testing.assert_array_equal(constraint_residuals(net, Z, data.X, outs=outs),
                                      constraint_residuals(net, Z, data.X))
        # and both equal the per-block evaluation, block by block
        ins = [data.X] + Z.coords
        parts = [Z.coords[j] - _block_output(net.layers[slice(*sl)], ins[j])
                 for j, sl in enumerate(block_slices(net)[:-1])]
        np.testing.assert_array_equal(constraint_residuals(net, Z, data.X, outs=outs),
                                      np.linalg.norm(np.hstack(parts), axis=1))

    def test_multiplier_identity_and_linearity(self, rng):
        net = random_mixed_net(rng)
        X = rng.normal(size=(7, net.in_dim))
        Z = AuxState(
            [c + rng.normal(size=c.shape) for c in lift_to_feasible(net, X).coords]
        )
        res = constraint_residual_vectors(net, Z, X)
        np.testing.assert_array_equal(multiplier_estimates(net, Z, X, 5.0), -5.0 * res)
        np.testing.assert_allclose(
            multiplier_estimates(net, Z, X, 15.0),
            3.0 * multiplier_estimates(net, Z, X, 5.0),
            rtol=1e-15,
        )
        feas = lift_to_feasible(net, X)
        assert np.all(multiplier_estimates(net, feas, X, 1e8) == 0.0)


class TestMacTrain:
    def test_zero_stages_returns_inputs(self, rng):
        net = sigmoid_autoencoder((5, 3, 5), seed=1)
        data = Dataset(rng.uniform(size=(10, 5)), rng.uniform(size=(10, 5)))
        out, Z, trace = mac_train(
            net, data, PenaltySchedule(max_stages=0)
        )
        assert trace.rows == []
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)

    def test_default_schedule_mu_markers(self, rng):
        net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=3)
        X = rng.uniform(size=(40, 6))
        data = Dataset(X, X)
        schedule = PenaltySchedule(max_stages=4, max_iters_per_stage=2)
        _, _, trace = mac_train(net, data, schedule)
        mus = sorted({r.mu for r in trace.rows})
        assert mus == [1.0, 10.0, 100.0, 1000.0]

    def test_stage_end_residual_nonincreasing_and_descent(self, rng):
        net = sigmoid_autoencoder((8, 5, 2, 5, 8), seed=6)
        X = rng.uniform(size=(50, 8))
        data = Dataset(X, X)
        schedule = PenaltySchedule(max_stages=5, max_iters_per_stage=8)
        _, _, trace = mac_train(net, data, schedule)

        ends = [r.constraint_viol for r in trace.rows if r.event == "mu_increase"]
        assert len(ends) == 4
        assert all(b <= a * (1 + 1e-9) for a, b in zip(ends, ends[1:]))

        # within a stage, every accepted step leaves the penalized objective
        # no higher than the previous trace row's value
        for prev, cur in zip(trace.rows, trace.rows[1:]):
            if cur.event in ("wstep", "zstep") and prev.mu == cur.mu:
                assert cur.eq <= prev.eq * (1 + 1e-10)

    @pytest.mark.parametrize("kind", ["sigmoid", "rbf_select"])
    def test_wstep_rows_never_raise_eq(self, kind):
        # a W-step row sums the block values the W-step's acceptance test
        # compared, so it is no higher than the row before, with no tolerance
        data = synth_manifold_dataset(40, 6, 1, 0.05, seed=4, n_val=20)
        kwargs = {}
        if kind == "sigmoid":
            net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=6)
        else:
            from macqp.selection import SelectionConfig

            net = rbf_autoencoder(6, 9, 2, 9, seed=3)
            kwargs["sel_cfg"] = SelectionConfig([[3, 6, 9], [3, 6, 9]], 1e-4, cadence=2)
        # 8 stages: on the RBF net, a selecting W-step's row is no wstep row
        schedule = PenaltySchedule(max_stages=8, max_iters_per_stage=4)
        _, _, trace = mac_train(net, data, schedule, **kwargs)
        pairs = [(p, c) for p, c in zip(trace.rows, trace.rows[1:]) if c.event == "wstep"]
        assert len(pairs) >= 5
        assert all(c.eq <= p.eq for p, c in pairs)

    @staticmethod
    def _count_calls(monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            fn = getattr(macqp.mac, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(macqp.mac, name, counted)
        return calls

    def test_each_trace_value_computed_once_per_row(self, rng, monkeypatch):
        calls = self._count_calls(monkeypatch, "nested_objective", "qp_objective")
        net = sigmoid_autoencoder((5, 3, 5), seed=1)
        X = rng.uniform(size=(12, 5))
        schedule = PenaltySchedule(max_stages=3, max_iters_per_stage=2)
        _, _, trace = mac_train(net, Dataset(X, X), schedule)
        # E1 once per weight change, here once per W-step: a zstep or
        # mu_increase row repeats the row before's E1; E_Q once per row
        # plus once for the first stage
        events = [r.event for r in trace.rows]
        assert calls["nested_objective"] == events.count("wstep") < len(events)
        assert calls["qp_objective"] == len(trace.rows) + 1
        for prev, cur in zip(trace.rows, trace.rows[1:]):
            if cur.event != "wstep":
                assert (cur.e1_train, cur.e1_val) == (prev.e1_train, prev.e1_val)

    def test_e1_computed_once_per_weight_change_with_validation_split(
            self, rng, monkeypatch):
        calls = self._count_calls(monkeypatch, "nested_objective")
        data = synth_manifold_dataset(40, 6, 1, 0.05, seed=4, n_val=20)
        net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=6)
        schedule = PenaltySchedule(max_stages=3, max_iters_per_stage=3,
                                   stage_tolerance=1e-6)
        fresh = []
        z_step = macqp.mac.z_step

        def logged_z_step(net_, *args, **kwargs):
            fresh.append((nested_objective(net_, data),
                          nested_objective(net_, data.eval_split())))
            return z_step(net_, *args, **kwargs)

        monkeypatch.setattr(macqp.mac, "z_step", logged_z_step)
        _, _, trace = mac_train(net, data, schedule)
        # training and validation E1 after every W-step and every restore
        # (each mu_increase row follows one), and the first stage's start
        events = [r.event for r in trace.rows]
        changes = events.count("wstep") + events.count("mu_increase")
        assert calls["nested_objective"] == 2 * changes + 1
        # a zstep row's repeated E1 is that of its weights, bit for bit
        zrows = [r for r in trace.rows if r.event == "zstep"]
        assert [(r.e1_train, r.e1_val) for r in zrows] == fresh

    @pytest.mark.parametrize("kind", ["sigmoid", "rbf"])
    def test_no_block_evaluated_between_a_z_step_and_its_row(self, monkeypatch, kind):
        # the Z-step hands back the outputs of the blocks fed by coordinates
        if kind == "sigmoid":
            net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=6)
        else:
            net = rbf_autoencoder(6, 9, 2, 9, width1=1.0, width3=1.0, seed=2)
        data = synth_manifold_dataset(40, 6, 1, 0.05, seed=4, n_val=20)
        log = []
        z_step_fn, block_output, add = (macqp.mac.z_step, macqp.mac._block_output,
                                        macqp.mac.TrainTrace.add)

        def logged_z_step(*args, **kwargs):
            out = z_step_fn(*args, **kwargs)
            log.append("z_step")
            return out

        def logged_block_output(*args, **kwargs):
            log.append("block")
            return block_output(*args, **kwargs)

        def logged_add(trace, *args):
            log.append(args[-1])
            return add(trace, *args)

        monkeypatch.setattr(macqp.mac, "z_step", logged_z_step)
        monkeypatch.setattr(macqp.mac, "_block_output", logged_block_output)
        monkeypatch.setattr(macqp.mac.TrainTrace, "add", logged_add)
        schedule = PenaltySchedule(max_stages=3, max_iters_per_stage=3, stage_tolerance=1e-6)
        mac_train(net, data, schedule)
        after = [b for a, b in zip(log, log[1:]) if a == "z_step"]
        assert len(after) >= 5 and set(after) == {"zstep"}
        assert "block" in log

    def test_reduces_nested_error(self, rng):
        net = sigmoid_autoencoder((8, 5, 2, 5, 8), seed=6)
        data = synth_manifold_dataset(50, 8, 1, 0.01, seed=4)
        out, Z, trace = mac_train(
            net, data, PenaltySchedule(max_stages=6, stage_tolerance=1e-4)
        )
        assert nested_objective(out, data) < 0.2 * nested_objective(net, data)


class TestPostprocess:
    def test_linear_last_block_matches_ridge_oracle(self, rng):
        net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=8, ridge=1e-3)
        X = rng.uniform(size=(30, 6))
        data = Dataset(X, X)
        Z = lift_to_feasible(net, X)
        out = postprocess(net, Z, data)
        feats = forward_all(net, X)[-2]
        phi = add_bias_col(feats)
        A = phi.T @ phi + 2e-3 * np.eye(phi.shape[1])
        want = np.linalg.solve(A, phi.T @ X).T
        np.testing.assert_allclose(out.layers[-1].weights.matrix, want, rtol=1e-8)

    def test_saturated_features_fit_to_rounding(self, rng):
        # at bias 12 the hidden units vary by ~1e-5 around 1, so the
        # readout's normal equations have condition number ~1e15; the
        # targets are nearly linear in the features, and a least-squares
        # refit reaches E1 ~1e-12 where Cholesky on phi^T phi left ~1e-5
        net = sigmoid_autoencoder((2, 3, 2), seed=2)
        W = net.layers[0].weights.matrix.copy()
        W[:, 2] = 12.0
        net.layers[0] = Layer(net.layers[0].spec, LayerWeights(W))
        X = rng.uniform(size=(40, 2))
        data = Dataset(X, np.exp(-X @ W[:2, :2].T))
        out = postprocess(net, lift_to_feasible(net, X), data)
        assert nested_objective(out, data) < 1e-9

    def test_already_optimal_is_unchanged(self, rng):
        net = sigmoid_autoencoder((6, 3, 6), seed=5)
        X = rng.uniform(size=(25, 6))
        data = Dataset(X, X)
        Z = lift_to_feasible(net, X)
        once = postprocess(net, Z, data)
        twice = postprocess(once, lift_to_feasible(once, X), data)
        np.testing.assert_array_equal(
            once.layers[-1].weights.matrix, twice.layers[-1].weights.matrix
        )

    def test_never_increases_e1(self, rng):
        for _ in range(10):
            net = sigmoid_autoencoder((6, 4, 2, 4, 6), seed=int(rng.integers(1000)))
            X = rng.uniform(size=(20, 6))
            data = Dataset(X, X)
            Z = AuxState(
                [c + 0.3 * rng.normal(size=c.shape)
                 for c in lift_to_feasible(net, X).coords]
            )
            assert nested_objective(postprocess(net, Z, data), data) <= (
                nested_objective(net, data) + 1e-10
            )

"""Forward maps, objectives, exact derivatives and initialization."""

import numpy as np
import pytest

from conftest import (
    broadcast_layer_jacobians,
    fd_gradient,
    random_dataset,
    random_mixed_net,
    slow_forward,
    slow_layer_map,
)
from macqp.model import (
    ConfigError,
    Dataset,
    DimensionMismatchError,
    Layer,
    LayerKind,
    LayerSpec,
    LayerWeights,
    MacqpError,
    NestedNet,
    NonFiniteError,
    TrainTrace,
    backprop_gradient,
    bias_warmup_step,
    check_count,
    check_real,
    forward,
    forward_all,
    init_weights,
    layer_apply,
    layer_jacobians,
    nested_objective,
)


def _linear_identity_net(d):
    spec = LayerSpec(LayerKind.LINEAR_DENSE, d, d)
    W = np.hstack([np.eye(d), np.zeros((d, 1))])
    return Layer(spec, LayerWeights(W))


class TestValueChecks:
    @pytest.mark.parametrize("value", [-1, float("nan"), float("inf"), 10**400, True, "1"])
    def test_check_real_rejects(self, value):
        with pytest.raises(ConfigError, match="^k must be a finite number >= 0, got ") as exc:
            check_real(value, "k", 0)
        assert isinstance(exc.value, MacqpError) and isinstance(exc.value, ValueError)

    @pytest.mark.parametrize("value", [0, 1.0, True, "2"])
    def test_check_count_rejects(self, value):
        with pytest.raises(ConfigError, match="^k must be an integer >= 1, got "):
            check_count(value, "k", 1)

    def test_valid_values_accepted(self):
        check_real(10**300, "k", 0)
        check_real(np.float64(0.5), "k", 0)
        check_count(10**400, "k", 1)

    @pytest.mark.parametrize("name, value", [
        ("rbf_width", float("inf")), ("rbf_width", float("nan")), ("ridge", float("nan")),
        ("ridge", float("inf")), ("ridge", 10**400), ("ridge", -1e-3),
    ])
    @pytest.mark.parametrize("kind", [LayerKind.GAUSSIAN_RBF, LayerKind.SIGMOID_DENSE])
    def test_layer_spec_rejects_non_finite_or_negative_values(self, kind, name, value):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number >= 0, got "):
            LayerSpec(kind, 2, 3, **{"rbf_width": 1.0, name: value})


class TestTrainTrace:
    @pytest.mark.parametrize("n_val", [0, 4])
    def test_add_nested_row(self, rng, n_val):
        net = random_mixed_net(rng)
        data = random_dataset(rng, net, n=12)
        if n_val:
            val = random_dataset(rng, net, n=n_val)
            data = Dataset(data.X, data.Y, val.X, val.Y)
        trace = TrainTrace()
        e1 = trace.add_nested(0.5, net, data, "sgd_epoch")
        trace.add_nested(0.25, net, data, "cg_iter", e1_train=7.0)
        e1_val = nested_objective(net, data.eval_split())
        assert e1 == nested_objective(net, data)
        assert [(r.iteration, r.seconds, r.mu, r.e1_train, r.e1_val, r.eq,
                 r.constraint_viol, r.event) for r in trace.rows] == [
            (1, 0.5, 0.0, e1, e1_val, e1, 0.0, "sgd_epoch"),
            (2, 0.5, 0.0, 7.0, e1_val if n_val else 7.0, 7.0, 0.0, "cg_iter"),
        ]


class TestForward:
    def test_sigmoid_zero_weights_gives_half(self, rng):
        spec = LayerSpec(LayerKind.SIGMOID_DENSE, 4, 3)
        net = NestedNet([Layer(spec, LayerWeights(np.zeros(spec.weight_shape)))])
        out = forward(net, rng.normal(size=4))[-1]
        np.testing.assert_array_equal(out, 0.5 * np.ones(3))

    def test_rbf_center_at_input_gives_one(self, rng):
        x = rng.normal(size=3)
        spec = LayerSpec(LayerKind.GAUSSIAN_RBF, 3, 2, rbf_width=0.7)
        layer = Layer(spec, LayerWeights(np.vstack([x, x + 1.0])))
        net = NestedNet([layer])
        out = forward(net, x)[-1]
        assert out[0] == 1.0

    def test_matches_slow_per_layer_oracle(self, rng):
        for _ in range(100):
            net = random_mixed_net(rng)
            x = rng.normal(size=net.in_dim)
            got = forward(net, x)[-1]
            np.testing.assert_allclose(got, slow_forward(net, x), rtol=1e-12, atol=1e-14)

    def test_per_layer_activations_chain(self, rng):
        net = random_mixed_net(rng)
        x = rng.normal(size=net.in_dim)
        acts = forward(net, x)
        cur = x
        for layer, a in zip(net.layers, acts):
            cur = slow_layer_map(layer, cur)
            np.testing.assert_allclose(a, cur, rtol=1e-12, atol=1e-14)

    def test_dimension_mismatch_is_an_error(self, rng):
        net = random_mixed_net(rng)
        with pytest.raises(DimensionMismatchError):
            forward(net, np.zeros(net.in_dim + 1))

    def test_target_width_mismatch_is_an_error(self, rng):
        # the objective and its gradient reject targets of the wrong width alike
        net = random_mixed_net(rng)
        data = Dataset(rng.normal(size=(5, net.in_dim)), rng.normal(size=(5, net.out_dim + 1)))
        for fn in (nested_objective, backprop_gradient):
            with pytest.raises(DimensionMismatchError, match="target width"):
                fn(net, data)

    def test_nonfinite_activation_names_the_layer(self):
        spec = LayerSpec(LayerKind.LINEAR_DENSE, 2, 2)
        layer = Layer(spec, LayerWeights(np.full(spec.weight_shape, 1e308)))
        net = NestedNet([layer])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="layer 1"):
            forward_all(net, np.full((1, 2), 1e308))


class TestNestedObjective:
    def test_exact_map_gives_zero(self):
        d = 3
        net = NestedNet([_linear_identity_net(d)])
        X = np.random.default_rng(0).normal(size=(10, d))
        assert nested_objective(net, Dataset(X, X)) == 0.0

    def test_zero_weights_gives_half_frobenius(self, rng):
        spec = LayerSpec(LayerKind.LINEAR_DENSE, 3, 2)
        net = NestedNet([Layer(spec, LayerWeights(np.zeros(spec.weight_shape)))])
        Y = rng.normal(size=(7, 2))
        data = Dataset(rng.normal(size=(7, 3)), Y)
        np.testing.assert_allclose(
            nested_objective(net, data), 0.5 * np.sum(Y**2), rtol=1e-13
        )

    def test_matches_scalar_loop_oracle(self, rng):
        for _ in range(20):
            net = random_mixed_net(rng, ridge=1e-3)
            data = random_dataset(rng, net)
            acc = 0.0
            for x, y in zip(data.X, data.Y):
                r = y - slow_forward(net, x)
                acc += 0.5 * float(np.dot(r, r))
            for layer in net.layers:
                acc += layer.spec.ridge * float(np.sum(layer.weights.matrix**2))
            np.testing.assert_allclose(nested_objective(net, data), acc, rtol=1e-11)

    def test_row_permutation_invariance_bitwise(self, rng):
        net = random_mixed_net(rng)
        data = random_dataset(rng, net, n=64)
        base = nested_objective(net, data)
        for _ in range(5):
            perm = rng.permutation(data.n)
            assert nested_objective(net, Dataset(data.X[perm], data.Y[perm])) == base


class TestBackpropGradient:
    def test_zero_residual_gives_zero_gradient(self, rng):
        net = random_mixed_net(rng)
        X = rng.normal(size=(8, net.in_dim))
        data = Dataset(X, forward_all(net, X)[-1])
        for g in backprop_gradient(net, data):
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_matches_finite_differences(self, rng):
        for _ in range(5):
            net = random_mixed_net(rng, ridge=1e-3)
            data = random_dataset(rng, net)
            got = np.concatenate([g.ravel() for g in backprop_gradient(net, data)])
            want = fd_gradient(net, data)
            denom = np.maximum(np.abs(want), 1e-4)
            assert np.max(np.abs(got - want) / denom) <= 1e-6

    def test_duplicated_dataset_doubles_gradient(self, rng):
        net = random_mixed_net(rng)
        data = random_dataset(rng, net)
        doubled = Dataset(
            np.vstack([data.X, data.X]), np.vstack([data.Y, data.Y])
        )
        for g1, g2 in zip(backprop_gradient(net, data), backprop_gradient(net, doubled)):
            np.testing.assert_allclose(g2, 2.0 * g1, rtol=1e-12, atol=1e-15)


class TestLayerJacobians:
    def test_linear_input_jacobian_is_weight_matrix(self, rng):
        spec = LayerSpec(LayerKind.LINEAR_DENSE, 4, 3)
        W = rng.normal(size=spec.weight_shape)
        j_in = layer_jacobians(Layer(spec, LayerWeights(W)), rng.normal(size=4))
        np.testing.assert_array_equal(j_in, W[:, :4])

    def test_sigmoid_at_zero_weights(self, rng):
        spec = LayerSpec(LayerKind.SIGMOID_DENSE, 3, 2)
        layer = Layer(spec, LayerWeights(np.zeros(spec.weight_shape)))
        j_in = layer_jacobians(layer, rng.normal(size=3))
        np.testing.assert_array_equal(j_in, np.zeros((2, 3)))

    @pytest.mark.parametrize("kind", list(LayerKind))
    def test_matches_finite_differences(self, rng, kind):
        in_dim, out_dim = 4, 3
        spec = LayerSpec(
            kind, in_dim, out_dim,
            rbf_width=1.3 if kind == LayerKind.GAUSSIAN_RBF else 0.0,
        )
        W = rng.normal(size=spec.weight_shape)
        layer = Layer(spec, LayerWeights(W))
        z = rng.normal(size=in_dim)
        j_in = layer_jacobians(layer, z)
        assert j_in.shape == (out_dim, in_dim)
        h = 1e-6
        for k in range(in_dim):
            zp, zm = z.copy(), z.copy()
            zp[k] += h
            zm[k] -= h
            col = (slow_layer_map(layer, zp) - slow_layer_map(layer, zm)) / (2 * h)
            np.testing.assert_allclose(j_in[:, k], col, rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("kind", list(LayerKind))
    def test_given_activations_give_the_same_jacobian(self, rng, kind):
        # the Z-step passes the output layer_apply has just computed
        spec = LayerSpec(
            kind, 4, 3, rbf_width=1.3 if kind == LayerKind.GAUSSIAN_RBF else 0.0,
        )
        layer = Layer(spec, LayerWeights(rng.normal(size=spec.weight_shape)))
        Zb = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(
            layer_jacobians(layer, Zb, out=layer_apply(layer, Zb)),
            layer_jacobians(layer, Zb),
        )

    @pytest.mark.parametrize("kind", list(LayerKind))
    def test_batch_matches_finite_differences(self, rng, kind):
        in_dim, out_dim, n = 4, 3, 5
        spec = LayerSpec(
            kind, in_dim, out_dim,
            rbf_width=1.3 if kind == LayerKind.GAUSSIAN_RBF else 0.0,
        )
        layer = Layer(spec, LayerWeights(rng.normal(size=spec.weight_shape)))
        Zb = rng.normal(size=(n, in_dim))
        j_in = layer_jacobians(layer, Zb)
        assert j_in.shape == (n, out_dim, in_dim)
        h = 1e-6
        for p in range(n):
            for k in range(in_dim):
                zp, zm = Zb[p].copy(), Zb[p].copy()
                zp[k] += h
                zm[k] -= h
                col = (slow_layer_map(layer, zp) - slow_layer_map(layer, zm)) / (2 * h)
                np.testing.assert_allclose(j_in[p, :, k], col, rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(
                j_in[p], layer_jacobians(layer, Zb[p]), rtol=1e-13, atol=1e-15
            )

    @pytest.mark.parametrize(
        "n, out_dim, in_dim",
        [(500, 40, 2), (64, 24, 2), (64, 2, 24), (64, 32, 8), (7, 5, 1), (3, 4, 16)],
    )
    @pytest.mark.parametrize("kind", [LayerKind.GAUSSIAN_RBF, LayerKind.SIGMOID_DENSE])
    def test_bit_for_bit_the_broadcast_formulas(self, rng, kind, n, out_dim, in_dim):
        # matmul rounds by operand layout, so the Z-step needs these exact
        # bits in a C-ordered (n, out, in) array
        spec = LayerSpec(
            kind, in_dim, out_dim,
            rbf_width=np.sqrt(in_dim) if kind == LayerKind.GAUSSIAN_RBF else 0.0,
        )
        layer = Layer(spec, LayerWeights(rng.normal(size=spec.weight_shape)))
        Zb = rng.normal(size=(n, in_dim))
        if kind == LayerKind.GAUSSIAN_RBF:
            Zb[0] = layer.weights.matrix[0]  # on a centre: the entries are -0.0
        a = layer_apply(layer, Zb)
        expected = broadcast_layer_jacobians(layer, Zb, a)
        for j_in in (layer_jacobians(layer, Zb), layer_jacobians(layer, Zb, out=a)):
            assert j_in.shape == (n, out_dim, in_dim) and j_in.flags.c_contiguous
            np.testing.assert_array_equal(j_in, expected)
            np.testing.assert_array_equal(np.signbit(j_in), np.signbit(expected))
        if kind == LayerKind.GAUSSIAN_RBF:
            assert np.all(np.signbit(expected[0, 0])) and not np.any(expected[0, 0])
        for z in (Zb[0], Zb[-1]):
            # one vector's activations may round apart from the batch's
            a_z = layer_apply(layer, z)
            expected = broadcast_layer_jacobians(layer, z[None], a_z)[0]
            for j_z in (layer_jacobians(layer, z), layer_jacobians(layer, z, out=a_z[0])):
                assert j_z.shape == (out_dim, in_dim)
                np.testing.assert_array_equal(j_z, expected)
                np.testing.assert_array_equal(np.signbit(j_z), np.signbit(expected))


class TestInitWeights:
    def test_fan_in_100_bounds(self):
        spec = LayerSpec(LayerKind.SIGMOID_DENSE, 100, 50)
        net = init_weights([spec], 7)
        W = net.layers[0].weights.matrix
        assert np.all(np.abs(W) <= 0.1)

    def test_same_seed_is_deterministic(self):
        specs = [LayerSpec(LayerKind.SIGMOID_DENSE, 5, 4)]
        a = init_weights(specs, 42).layers[0].weights.matrix
        b = init_weights(specs, 42).layers[0].weights.matrix
        np.testing.assert_array_equal(a, b)

    def test_uniform_moments(self):
        # fan_in 4: half-width 0.5, variance (2*0.5)^2 / 12
        spec = LayerSpec(LayerKind.LINEAR_DENSE, 4, 25_000, bias=False)
        W = init_weights([spec], 3).layers[0].weights.matrix.ravel()
        n = W.size
        assert n >= 100_000
        sigma = np.sqrt((2 * 0.5) ** 2 / 12.0)
        assert abs(W.mean()) <= 3.0 * sigma / np.sqrt(n)


class TestBiasWarmup:
    def test_zero_step_is_identity(self, rng):
        net = random_mixed_net(rng)
        data = random_dataset(rng, net)
        out = bias_warmup_step(net, data, step=0.0)
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)

    def test_zero_gradient_is_identity(self, rng):
        net = random_mixed_net(rng)
        X = rng.normal(size=(6, net.in_dim))
        data = Dataset(X, forward_all(net, X)[-1])
        out = bias_warmup_step(net, data)
        for a, b in zip(net.layers, out.layers):
            np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)

    def test_decreases_objective(self, rng):
        for _ in range(5):
            net = random_mixed_net(rng)
            data = random_dataset(rng, net)
            out = bias_warmup_step(net, data)
            assert nested_objective(out, data) < nested_objective(net, data)

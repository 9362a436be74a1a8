"""Shared fixtures and independent oracles used across the test suite.

The oracles deliberately avoid the package's own vectorized code paths:
gradients come from central finite differences, layer maps from scalar
loops, and least-squares fits from dense numpy solves.
"""

import math
import os

# OpenBLAS rounds some products by its thread count: the tests run on one
# thread, as the benchmark does (perfbench/run.py), so that their bit-level
# checks hold for its runs.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest

import macqp.mac
from macqp.kernels import sq_dist
from macqp.model import (
    Dataset,
    LayerKind,
    LayerSpec,
    flatten_weights,
    init_weights,
    nested_objective,
    unflatten_weights,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def fd_gradient(net, data, h_scale=1e-5):
    """Central finite differences of nested_objective, entry by entry."""
    w0 = flatten_weights(net)
    grad = np.empty_like(w0)
    for i in range(w0.size):
        h = h_scale * (1.0 + abs(w0[i]))
        wp = w0.copy()
        wp[i] += h
        wm = w0.copy()
        wm[i] -= h
        fp = nested_objective(unflatten_weights(net, wp), data)
        fm = nested_objective(unflatten_weights(net, wm), data)
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def slow_layer_map(layer, x):
    """One layer's output at a single input, computed with scalar loops."""
    spec = layer.spec
    W = layer.weights.matrix
    out = np.zeros(spec.out_dim)
    if spec.kind == LayerKind.GAUSSIAN_RBF:
        for h in range(spec.out_dim):
            s = sum((x[k] - W[h, k]) ** 2 for k in range(spec.in_dim))
            out[h] = math.exp(-s / spec.rbf_width**2)
        return out
    for h in range(spec.out_dim):
        t = sum(W[h, k] * x[k] for k in range(spec.in_dim))
        if spec.bias:
            t += W[h, spec.in_dim]
        out[h] = 1.0 / (1.0 + math.exp(-t)) if spec.kind == LayerKind.SIGMOID_DENSE else t
    return out


def slow_forward(net, x):
    cur = np.asarray(x, dtype=np.float64)
    for layer in net.layers:
        cur = slow_layer_map(layer, cur)
    return cur


def slow_layer_jacobian(layer, x):
    """One layer's input Jacobian at a single input, computed with scalar loops."""
    spec = layer.spec
    W = layer.weights.matrix
    a = slow_layer_map(layer, x)
    J = np.zeros((spec.out_dim, spec.in_dim))
    for h in range(spec.out_dim):
        for k in range(spec.in_dim):
            if spec.kind == LayerKind.GAUSSIAN_RBF:
                J[h, k] = -2.0 * a[h] * (x[k] - W[h, k]) / spec.rbf_width**2
            elif spec.kind == LayerKind.LINEAR_DENSE:
                J[h, k] = W[h, k]
            else:
                J[h, k] = a[h] * (1.0 - a[h]) * W[h, k]
    return J


def broadcast_layer_jacobians(layer, Z, a):
    """RBF or sigmoid input Jacobians of a batch Z, shape (n, out, in), by 3-D broadcasts.

    ``a`` is the layer's output at Z. This is the bit-level specification of
    ``model.layer_jacobians``, which must equal it bit for bit, signed zeros
    included.
    """
    spec = layer.spec
    W = layer.weights.matrix
    if spec.kind == LayerKind.GAUSSIAN_RBF:
        diff = Z[:, None, :] - W[None, :, :]
        coef = (2.0 / spec.rbf_width**2) * a
        return -(coef[:, :, None] * diff)
    s = a * (1.0 - a)
    return s[:, :, None] * W[None, :, : spec.in_dim]


def _slow_gn_solve(H, g):
    """Solve H d = -g; if that fails or gives no descent step, d = -pinv(H) g.
    Returns None unless d is a descent step."""
    try:
        d = np.linalg.solve(H, -g)
    except np.linalg.LinAlgError:
        d = None
    if d is None or not np.all(np.isfinite(d)) or float(np.dot(g, d)) >= 0:
        d = -np.linalg.pinv(H, hermitian=True) @ g
    return d if float(np.dot(g, d)) < 0 else None


def slow_fit_sigmoid_layer(layer, A_in, T, weight, lam):
    """A sigmoid layer's W-step fit solved unit by unit: one Gauss-Newton
    step on each unit's weighted least-squares problem plus lam * |w|^2,
    backtracking over BACKTRACK_STEPS.  A unit keeps its weights when its
    step's predicted decrease is below the rounding of its objective.
    Returns the new weight matrix."""
    phi = np.hstack([A_in, np.ones((A_in.shape[0], 1))]) if layer.spec.bias else A_in

    def sig(t):
        return 0.5 * (1.0 + np.tanh(0.5 * t))

    def obj(t, w):
        r = t - sig(phi @ w)
        return 0.5 * weight * float(np.dot(r, r)) + lam * float(np.dot(w, w))

    rows = []
    for t, w in zip(T.T, layer.weights.matrix):
        f_cur = obj(t, w)
        p = sig(phi @ w)
        jac = (p * (1.0 - p))[:, None] * phi
        g = -weight * (jac.T @ (t - p)) + 2.0 * lam * w
        H = weight * (jac.T @ jac) + 2.0 * lam * np.eye(w.shape[0])
        d = _slow_gn_solve(H, g)
        # a predicted decrease -g.d/2 below the rounding of f_cur, a sum
        # over the points, cannot show
        rounding = 2.0 * phi.shape[0] * np.finfo(np.float64).eps * f_cur
        if d is not None and -float(np.dot(g, d)) > rounding:
            for step in macqp.mac.BACKTRACK_STEPS:
                if obj(t, w + step * d) < f_cur:
                    w = w + step * d
                    break
        rows.append(w)
    return np.vstack(rows)


def slow_w_step(net, Z, data, mu, transient_reg=0.0):
    """W-step with every sigmoid layer fitted unit by unit; the other block
    kinds and the acceptance test are the package's own.  Returns the new
    weight matrices, one per layer."""
    from macqp.mac import _block_objective, _block_output, fit_block
    from macqp.model import Layer, LayerWeights

    bounds = [0] + list(net.placement) + [len(net.layers)]
    ins = [data.X] + list(Z.coords)
    targets = list(Z.coords) + [data.Y]
    out = [l.weights.matrix for l in net.layers]
    for j, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        weight = 1.0 if b == len(net.layers) else mu
        layers = net.layers[a:b]
        if [l.spec.kind for l in layers] == [LayerKind.SIGMOID_DENSE]:
            lam = layers[0].spec.ridge + transient_reg
            W = slow_fit_sigmoid_layer(layers[0], ins[j], targets[j], weight, lam)
            fitted = [Layer(layers[0].spec, LayerWeights(W))]
        else:
            fitted = fit_block(net, (a, b), ins[j], targets[j], weight,
                               transient_reg=transient_reg)[0]
        args = (ins[j], targets[j], weight, transient_reg)
        if (_block_objective(fitted, *args, _block_output(fitted, ins[j]))
                <= _block_objective(layers, *args, _block_output(layers, ins[j]))):
            out[a:b] = [l.weights.matrix for l in fitted]
    return out


def slow_z_step(net, Z, data, mu):
    """Z-step solved point by point: one Gauss-Newton step on a dense
    stacked residual (output rows, then sqrt(mu)-weighted constraint rows)
    and its Jacobian, backtracking over BACKTRACK_STEPS.  Returns the new
    coordinate matrices."""
    bounds = [0] + list(net.placement) + [len(net.layers)]
    blocks = [net.layers[a:b] for a, b in zip(bounds[:-1], bounds[1:])]
    widths = [c.shape[1] for c in Z.coords]
    offs = np.cumsum([0] + widths)
    K, sqrt_mu = len(widths), math.sqrt(mu)

    def block_map(j, v):
        jac = np.eye(v.shape[0])
        for layer in blocks[j]:
            jac = slow_layer_jacobian(layer, v) @ jac
            v = slow_layer_map(layer, v)
        return v, jac

    def split(flat):
        return [flat[offs[j] : offs[j + 1]] for j in range(K)]

    def objective(x, y, flat):
        zs = split(flat)
        ins = [x] + zs
        val = 0.0
        for j in range(K):
            val += 0.5 * mu * float(np.sum((zs[j] - block_map(j, ins[j])[0]) ** 2))
        return val + 0.5 * float(np.sum((y - block_map(K, zs[-1])[0]) ** 2))

    def residual_and_jacobian(x, y, flat):
        zs = split(flat)
        ins = [x] + zs
        d_out = y.shape[0]
        r = np.empty(d_out + offs[-1])
        J = np.zeros((d_out + offs[-1], offs[-1]))
        out, jac = block_map(K, zs[-1])
        r[:d_out] = y - out
        J[:d_out, offs[-2] :] = -jac
        for j in range(K):
            rows = slice(d_out + offs[j], d_out + offs[j + 1])
            out, jac = block_map(j, ins[j])
            r[rows] = sqrt_mu * (zs[j] - out)
            J[rows, offs[j] : offs[j + 1]] = sqrt_mu * np.eye(widths[j])
            if j > 0:
                J[rows, offs[j - 1] : offs[j]] = -sqrt_mu * jac
        return r, J

    coords = [c.copy() for c in Z.coords]
    for n in range(data.n):
        x, y = data.X[n], data.Y[n]
        flat = np.concatenate([c[n] for c in Z.coords])
        f_cur = objective(x, y, flat)
        r, J = residual_and_jacobian(x, y, flat)
        d = _slow_gn_solve(J.T @ J, J.T @ r)
        if d is not None:
            for step in macqp.mac.BACKTRACK_STEPS:
                cand = flat + step * d
                if objective(x, y, cand) < f_cur:
                    flat = cand
                    break
        for c, z in zip(coords, split(flat)):
            c[n] = z
    return coords


def slow_sigmoid(t):
    """Logistic sigmoid with one masked gather and scatter per branch:
    1/(1+exp(-t)) where t >= 0, exp(t)/(1+exp(t)) elsewhere (NaN included)."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def kmeans_objective(points, centers):
    """The k-means objective: each point's squared distance to its nearest
    center, summed."""
    return float(np.sum(np.min(sq_dist(points, centers), axis=1)))


def slow_kmeans(points, k, seed=0, iters=20):
    """Lloyd's algorithm recomputing one center at a time with a masked mean.

    Seeds, the k == m shortcut, empty-cluster re-seeding from the farthest
    point and the stopping test follow macqp.baselines.kmeans."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    m = points.shape[0]
    if k == m:
        return points.copy()
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(m, size=k, replace=False)].copy()
    for _ in range(iters):
        d2 = (
            np.sum(points**2, axis=1)[:, None]
            - 2.0 * points @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        assign = np.argmin(d2, axis=1)
        closest = d2[np.arange(m), assign]
        new_centers = centers.copy()
        for j in range(k):
            mask = assign == j
            if not np.any(mask):
                far = int(np.argmax(closest))
                new_centers[j] = points[far]
                closest[far] = 0.0
            else:
                new_centers[j] = points[mask].mean(axis=0)
        if np.array_equal(new_centers, centers):
            break
        centers = new_centers
    return centers


def random_mixed_net(rng, ridge=0.0):
    """Small random net exercising all three layer kinds."""
    d_in = int(rng.integers(2, 5))
    d_mid = int(rng.integers(2, 5))
    m = int(rng.integers(2, 6))
    d_out = int(rng.integers(1, 4))
    specs = [
        LayerSpec(LayerKind.SIGMOID_DENSE, d_in, d_mid, ridge=ridge),
        LayerSpec(LayerKind.GAUSSIAN_RBF, d_mid, m, rbf_width=1.0 + rng.uniform()),
        LayerSpec(LayerKind.LINEAR_DENSE, m, d_out, ridge=ridge),
    ]
    net = init_weights(specs, int(rng.integers(1 << 30)))
    return net


def random_dataset(rng, net, n=12):
    X = rng.normal(size=(n, net.in_dim))
    Y = rng.normal(size=(n, net.out_dim))
    return Dataset(X, Y)


def sigmoid_autoencoder(widths, seed=0, ridge=0.0, placement=None):
    """Sigmoid hidden layers with a linear readout, e.g. widths (16, 8, 3, 8, 16)."""
    specs = []
    for a, b in zip(widths[:-2], widths[1:-1]):
        specs.append(LayerSpec(LayerKind.SIGMOID_DENSE, a, b, ridge=ridge))
    specs.append(LayerSpec(LayerKind.LINEAR_DENSE, widths[-2], widths[-1], ridge=ridge))
    return init_weights(specs, seed, placement=placement)


def rbf_autoencoder(d, m1, code, m3, width1=2.0, width3=2.0, ridge=1e-6, seed=0):
    """RBF encoder + linear code + RBF decoder + linear output, coding placement."""
    specs = [
        LayerSpec(LayerKind.GAUSSIAN_RBF, d, m1, rbf_width=width1),
        LayerSpec(LayerKind.LINEAR_DENSE, m1, code, ridge=ridge, bias=False),
        LayerSpec(LayerKind.GAUSSIAN_RBF, code, m3, rbf_width=width3),
        LayerSpec(LayerKind.LINEAR_DENSE, m3, d, ridge=ridge, bias=False),
    ]
    return init_weights(specs, seed, placement=[2])

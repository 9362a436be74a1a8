"""Reference optimizers and shared fitting kernels.

Minibatch SGD and Polak-Ribiere nonlinear conjugate gradients minimize
the nested objective directly through backprop; the alternating scheme
for RBF autoencoders retrains encoder and decoder in turn.  k-means and
ridge least squares are the building blocks reused by the auxiliary-
coordinate weight updates.
"""

import time
from dataclasses import dataclass

import numpy as np

# rbf_design is not called here; perfbench/rep.py's tracer wraps it at this name
from .kernels import rbf_design, rbf_from_sq_dist, row_sq_norms, sq_dist
from .model import (
    Dataset,
    Layer,
    LayerKind,
    LayerWeights,
    MacqpError,
    NestedNet,
    NonFiniteError,
    TrainTrace,
    add_bias_col,
    backprop_gradient,
    check_count,
    check_real,
    flatten_weights,
    forward_all,
    layer_apply,
    nested_objective,
    net_axpy,
    unflatten_weights,
)


@dataclass
class SgdConfig:
    minibatch: int = 20
    learning_rate: float = 1e-6
    epochs: int = 100
    seed: int = 0
    trace_every: int = 20

    def __post_init__(self):
        for name in ("minibatch", "epochs", "trace_every"):
            check_count(getattr(self, name), name, 1)
        check_count(self.seed, "seed", 0)
        check_real(self.learning_rate, "learning_rate", 0)


@dataclass
class CgConfig:
    """cg_train's settings: at most ``max_iters`` iterations, and a trace
    row every ``trace_every`` of them."""

    max_iters: int = 200
    trace_every: int = 10

    def __post_init__(self):
        for name in ("max_iters", "trace_every"):
            check_count(getattr(self, name), name, 1)


# Polak-Ribiere CG restarts along steepest descent every this many iterations.
CG_RESTART_EVERY = 100


def kmeans(points, k, seed=0, iters=20, init=None):
    """Lloyd's algorithm from ``init``, or else from k distinct seeded points.

    Returns the centers and the points' squared distances to them,
    sq_dist(points, centers), of shape (N, k); the points are clustered as
    a C-contiguous float64 array, as rbf_design takes them, so
    rbf_design(points, centers, width) is the Gaussian response of these
    distances bit for bit.  A run that converges has the distances of its
    last assignment; they are computed once more only after ``iters``
    passes, or when k equals the number of points.

    ``init``, if given, is a finite (k, d) array of starting centers; it
    is left unchanged.  Started from a converged result, a run returns it
    after one pass over the distances.  When k equals the number of
    points the centers are the points themselves.  An empty cluster is
    re-seeded from the point farthest from its assigned center, empty
    clusters taken in ascending order.
    """
    points = np.ascontiguousarray(np.atleast_2d(points), dtype=np.float64)
    m, d = points.shape
    if k > m:
        raise MacqpError(f"k-means with k={k} > {m} points")
    if init is not None:
        init = np.asarray(init, dtype=np.float64)
        if init.shape != (k, d) or not np.all(np.isfinite(init)):
            raise MacqpError(f"k-means start of shape {init.shape} is not a finite "
                             f"({k}, {d}) array")
    if k == m:
        centers = points.copy()
        return centers, sq_dist(points, centers)
    if init is None:
        rng = np.random.default_rng(seed)
        centers = points[rng.choice(m, size=k, replace=False)].copy()
    else:
        centers = init.copy()
    # each dimension's values in point order, contiguous for bincount
    cols = points.T.copy()
    x_sq = row_sq_norms(points)
    prev_assign = None
    for _ in range(iters):
        d2 = sq_dist(points, centers, x_sq)
        assign = np.argmin(d2, axis=1)
        counts = np.bincount(assign, minlength=k)
        full = counts.all()
        # the assignment that gave the centers, with no cluster empty: its
        # means are the centers again
        if full and np.array_equal(assign, prev_assign):
            break
        # bincount adds each cluster's rows in point order, as an axis-0
        # mean over a (c, d >= 2) block does, so the centers match it bit for bit
        new_centers = np.empty_like(centers)
        for j in range(d):
            new_centers[:, j] = np.bincount(assign, weights=cols[j], minlength=k)
        if full:
            new_centers /= counts[:, None]
        else:
            filled = counts > 0
            new_centers[filled] /= counts[filled, None]
            closest = d2[np.arange(m), assign]
            for j in np.flatnonzero(~filled):
                far = int(np.argmax(closest))
                new_centers[j] = points[far]
                closest[far] = 0.0
        if np.array_equal(new_centers, centers):
            break
        centers, prev_assign = new_centers, assign
    else:  # no convergence test passed (or iters = 0): d2 is of earlier centers, if any
        d2 = sq_dist(points, centers, x_sq)
    return centers, d2


def ridge_lsq(features, targets, lam, gram=None):
    """Solve (Phi^T Phi + lam I) W = Phi^T T.

    With lam > 0 the ridge matrix is tested positive definite by a
    Cholesky factorization and then solved once by LU; ``gram``, if given,
    is Phi^T Phi, which is then not formed again; it is left unchanged.
    With lam = 0 W is the minimum-norm least-squares solution, by SVD of
    Phi (``gram`` is not read): Phi^T Phi can be singular, or singular to
    rounding, as for saturated units or coincident RBF centers.
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    targets = np.asarray(targets, dtype=np.float64)
    squeeze = targets.ndim == 1
    targets = np.atleast_2d(targets.T).T if squeeze else targets
    if lam < 0:
        raise ValueError("ridge lambda must be nonnegative")
    if lam == 0:
        W = np.linalg.lstsq(features, targets, rcond=None)[0]
        return W[:, 0] if squeeze else W
    A = features.T @ features if gram is None else gram.copy()
    A[np.diag_indices(A.shape[0])] += lam
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise MacqpError("ridge system is singular") from None
    W = np.linalg.solve(A, features.T @ targets)
    return W[:, 0] if squeeze else W


def sgd_train(net, data, cfg, time_budget=None):
    """Minibatch stochastic gradient descent on the nested objective."""
    if cfg.minibatch > data.n:
        raise MacqpError("minibatch larger than the dataset")
    rng = np.random.default_rng(cfg.seed)
    trace = TrainTrace()
    t0 = time.perf_counter()
    net = net.copy()
    e1_0 = nested_objective(net, data)

    def record(event):
        return trace.add_nested(time.perf_counter() - t0, net, data, event)

    record("sgd_epoch")
    last_recorded = 0
    epoch = 0
    for epoch in range(1, cfg.epochs + 1):
        # a full-batch "minibatch" needs no shuffle and then matches one
        # plain gradient-descent step bit for bit
        perm = rng.permutation(data.n) if cfg.minibatch < data.n else np.arange(data.n)
        for start in range(0, data.n, cfg.minibatch):
            idx = perm[start : start + cfg.minibatch]
            batch = Dataset(data.X[idx], data.Y[idx])
            grads = backprop_gradient(net, batch)
            net = net_axpy(net, grads, cfg.learning_rate)
        if epoch % cfg.trace_every == 0 or epoch == cfg.epochs:
            e1 = record("sgd_epoch")
            last_recorded = epoch
            if e1 > 1e3 * max(e1_0, 1e-300):
                trace.rows[-1].event = "sgd_diverged"
                return net, trace
        if time_budget is not None and time.perf_counter() - t0 > time_budget:
            break
    if last_recorded != epoch:
        record("sgd_epoch")
    return net, trace


def _cubic_search(f, x, fx, d, g, max_steps=20):
    """Interpolating line search; steps may exceed 1.

    Each trial fits the parabola through (0, fx) with the known slope and
    the last sample, and jumps to its minimizer; on a quadratic objective
    that is the exact line minimizer after one probe.
    """
    slope = float(np.dot(g, d))
    if slope >= 0:
        return None
    t = 1.0
    f_t = f(x + t * d)
    for _ in range(max_steps):
        denom = f_t - fx - slope * t
        if denom > 0:
            t_new = -0.5 * slope * t * t / denom
        else:
            t_new = 2.0 * t  # still below the linear model: expand
        if not np.isfinite(t_new) or t_new <= 0 or t_new > 2**10:
            t_new = 0.5 * t
        f_new = f(x + t_new * d)
        if f_new <= fx + 1e-4 * t_new * slope and f_new <= f_t:
            return x + t_new * d, f_new
        if f_t <= fx + 1e-4 * t * slope and f_t < f_new:
            return x + t * d, f_t
        t, f_t = t_new, f_new
    if f_t < fx:
        return x + t * d, f_t
    return None


def _cg_minimize(value, grad, x0, max_iters, gtol, callback=None, time_budget=None):
    """Polak-Ribiere nonlinear CG from x0, with _cubic_search's line search,
    which enforces descent; it stops once the gradient norm is <= gtol.
    Returns (x, value(x), grad(x))."""
    x = x0.copy()
    fx = value(x)
    g = grad(x)
    d = -g
    failures = 0
    t0 = time.perf_counter()
    for it in range(1, max_iters + 1):
        if np.linalg.norm(g) <= gtol:
            break
        res = _cubic_search(value, x, fx, d, g)
        if res is None:
            if np.array_equal(d, -g):
                break  # cannot descend along steepest descent either
            d = -g
            failures += 1
            if failures > 2:
                break
            continue
        x_new, f_new = res
        g_new = grad(x_new)
        beta = float(np.dot(g_new, g_new - g)) / max(float(np.dot(g, g)), 1e-300)
        if beta < 0 or it % CG_RESTART_EVERY == 0:
            beta = 0.0
        d = -g_new + beta * d
        x, fx, g = x_new, f_new, g_new
        failures = 0
        if callback is not None:
            callback(it, x, fx, g)
        if time_budget is not None and time.perf_counter() - t0 > time_budget:
            break
    return x, fx, g


def cg_train(net, data, cfg, time_budget=None):
    """Full-batch Polak-Ribiere conjugate-gradient training."""
    trace = TrainTrace()
    t0 = time.perf_counter()
    template = net.copy()

    def value(w):
        return nested_objective(unflatten_weights(template, w), data)

    def grad(w):
        gs = backprop_gradient(unflatten_weights(template, w), data)
        return np.concatenate([g.ravel() for g in gs])

    def callback(it, w, fx, g):
        if it % cfg.trace_every == 0:
            trace.add_nested(time.perf_counter() - t0, unflatten_weights(template, w), data,
                             "cg_iter", e1_train=fx)

    w0 = flatten_weights(net)
    w, fx, _ = _cg_minimize(value, grad, w0, cfg.max_iters, 1e-10, callback=callback,
                            time_budget=time_budget)
    out = unflatten_weights(template, w)
    trace.add_nested(time.perf_counter() - t0, out, data, "cg_iter", e1_train=fx)
    return out, trace


def _check_rbf_autoencoder(net):
    """MacqpError naming the architecture unless net is an RBF autoencoder
    with coordinates at its coding layer only."""
    kinds = [l.spec.kind for l in net.layers]
    if kinds != [
        LayerKind.GAUSSIAN_RBF,
        LayerKind.LINEAR_DENSE,
        LayerKind.GAUSSIAN_RBF,
        LayerKind.LINEAR_DENSE,
    ]:
        raise MacqpError("alternating optimization expects an RBF autoencoder architecture "
                         "(gaussian_rbf, linear_dense, gaussian_rbf, linear_dense), got "
                         f"{[k.value for k in kinds]}")
    if list(net.placement) != [2]:
        raise MacqpError("an RBF autoencoder architecture must place coordinates at the "
                         f"coding layer only (placement [2]), got {list(net.placement)}")


def fit_rbf_linear_pair(rbf_spec, lin_spec, A_in, T, weight, seed=0, transient_reg=0.0,
                        centers_by_size=None):
    """Two-stage fit of a Gaussian-RBF layer plus its linear readout, of
    the layer specs ``rbf_spec`` and ``lin_spec``; returns the two layers
    and their output at A_in.

    Centers come from k-means on the inputs (the inputs themselves when
    the center count matches), the design matrix from the distances k-means
    returns with them (rbf_design's, bit for bit), the readout from ridge
    least squares:
    it minimizes weight/2 * |T - readout|^2 + (ridge + transient_reg) *
    |readout weights|^2.  ``centers_by_size`` is an optional {center
    count: (inputs, centers, design matrix, Gram matrix)} table of earlier
    fits with this seed, width and readout bias; an entry holds its inputs
    by reference, so they must not change in place.  An entry made at A_in
    (the same array or an equal one) skips k-means, the design matrix (the RBF layer's output)
    and the Gram matrix of the readout's features (the design matrix,
    with a bias column if the readout has one); any other entry starts
    k-means at its size from its centers, and the fit replaces it.  A
    ridge-free readout (lam = 0) reads no Gram matrix, so its entry stores
    None there; a later ridge fit meeting it has ridge_lsq form it.
    """
    m = rbf_spec.out_dim
    bias = lin_spec.bias
    lam = 2.0 * (lin_spec.ridge + transient_reg) / weight if weight > 0 else 0.0
    entry = None if centers_by_size is None else centers_by_size.get(m)
    if entry is None or not (entry[0] is A_in or np.array_equal(entry[0], A_in)):
        init = None if entry is None else entry[1]
        centers, d2 = kmeans(A_in, m, seed=seed, init=init)
        Layer(rbf_spec, LayerWeights(centers))  # raises unless A_in has the layer's width
        phi = rbf_from_sq_dist(d2, rbf_spec.rbf_width)  # rbf_design(A_in, centers, width)
        if not np.all(np.isfinite(phi)):
            raise NonFiniteError("non-finite RBF design matrix")
        phi_full = add_bias_col(phi) if bias else phi
        entry = (A_in, centers, phi, phi_full.T @ phi_full if lam > 0 else None)
        if centers_by_size is not None:
            centers_by_size[m] = entry
    else:
        phi_full = add_bias_col(entry[2]) if bias else entry[2]
    _, centers, phi, gram = entry
    lin = Layer(lin_spec, LayerWeights(ridge_lsq(phi_full, T, lam, gram=gram).T))
    # a copy, so that no layer shares its matrix with a table entry
    return [Layer(rbf_spec, LayerWeights(centers.copy())), lin], layer_apply(lin, phi)


def alt_opt_rbf_train(net, data, iters, cg_steps=10, seed=0, time_budget=None):
    """Alternating encoder/decoder retraining for an RBF autoencoder.

    Each iteration refits the decoder (k-means + linear solve at the
    current codes) and then the encoder (k-means centers, readout by
    nonlinear CG through the frozen decoder).
    """
    _check_rbf_autoencoder(net)
    net = net.copy()
    trace = TrainTrace()
    t0 = time.perf_counter()

    def record(event):
        trace.add_nested(time.perf_counter() - t0, net, data, event)

    record("altopt_iter")
    for _ in range(iters):
        codes = forward_all(net, data.X)[1]
        (dec_rbf, dec_lin), _ = fit_rbf_linear_pair(
            net.layers[2].spec, net.layers[3].spec, codes, data.Y, weight=1.0, seed=seed
        )
        net = NestedNet([net.layers[0], net.layers[1], dec_rbf, dec_lin], [2])

        centers = kmeans(data.X, net.layers[0].spec.out_dim, seed=seed)[0]
        net.layers[0] = Layer(net.layers[0].spec, LayerWeights(centers))
        net = _refit_encoder_readout(net, data, cg_steps)
        record("altopt_iter")
        if time_budget is not None and time.perf_counter() - t0 > time_budget:
            break
    return net, trace


def _refit_encoder_readout(net, data, cg_steps):
    """CG over the encoder readout weights with the rest of the net frozen."""
    phi1 = forward_all(net, data.X)[0]
    sub = NestedNet([net.layers[1], net.layers[2], net.layers[3]], [])
    sub_data = Dataset(phi1, data.Y)
    shape = sub.layers[0].weights.matrix.shape
    size = sub.layers[0].weights.matrix.size

    def assemble(w):
        cand = sub.copy()
        cand.layers[0] = Layer(
            cand.layers[0].spec, LayerWeights(w.reshape(shape).copy())
        )
        return cand

    def value(w):
        return nested_objective(assemble(w), sub_data)

    def grad(w):
        return backprop_gradient(assemble(w), sub_data)[0].ravel()

    w0 = sub.layers[0].weights.matrix.ravel()
    w, _, _ = _cg_minimize(value, grad, w0, cg_steps, 1e-12)
    out = net.copy()
    out.layers[1] = Layer(out.layers[1].spec, LayerWeights(w.reshape(shape).copy()))
    return out

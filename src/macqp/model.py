"""Layers, nested networks, forward propagation and exact derivatives.

A network is an ordered stack of layers (sigmoid-dense, linear-dense or
Gaussian-RBF), composed left to right.  Dense layers carry an implicit
bias, implemented as a trailing weight column applied to a constant-1
input component; RBF center layers have no bias.  All operations here are
pure: they never mutate a net, and updated nets are returned as new
values.
"""

import csv
import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .kernels import rbf_design, sigmoid


class MacqpError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(MacqpError, ValueError):
    """A setting of the wrong type or out of range."""


def check_count(value, key, least):
    """ConfigError naming ``key`` unless ``value`` is an integer >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")


def check_real(value, key, least):
    """ConfigError naming ``key`` unless ``value`` is a finite number >=
    least.  An integer too large for a float is not finite."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value) and value >= least)
    except OverflowError:
        ok = False
    if not ok:
        raise ConfigError(f"{key} must be a finite number >= {least}, got {value!r}")


class DimensionMismatchError(MacqpError):
    pass


class NonFiniteError(MacqpError):
    pass


class LayerKind(str, Enum):
    SIGMOID_DENSE = "sigmoid_dense"
    LINEAR_DENSE = "linear_dense"
    GAUSSIAN_RBF = "gaussian_rbf"


@dataclass(frozen=True)
class LayerSpec:
    """Static description of one processing stage.

    ``rbf_width`` is the Gaussian width (only for GAUSSIAN_RBF, where
    ``out_dim`` is the number of centers).  ``ridge`` is the coefficient
    of a quadratic weight penalty added to the objective.  ``bias``
    controls the constant-1 input component of dense layers.
    """

    kind: LayerKind
    in_dim: int
    out_dim: int
    rbf_width: float = 0.0
    ridge: float = 0.0
    bias: bool = True

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise DimensionMismatchError(
                f"layer dims must be >= 1, got {self.in_dim}x{self.out_dim}"
            )
        check_real(self.rbf_width, "rbf_width", 0)
        check_real(self.ridge, "ridge", 0)
        if self.kind == LayerKind.GAUSSIAN_RBF:
            if self.rbf_width <= 0:
                raise ValueError("rbf_width must be positive for RBF layers")
            object.__setattr__(self, "bias", False)

    @property
    def weight_cols(self):
        if self.kind == LayerKind.GAUSSIAN_RBF or not self.bias:
            return self.in_dim
        return self.in_dim + 1

    @property
    def weight_shape(self):
        return (self.out_dim, self.weight_cols)


@dataclass
class LayerWeights:
    """Weight matrix of a layer; row h is the parameter vector of unit h.

    For RBF layers the rows are the basis-function centers.
    """

    matrix: np.ndarray

    def __post_init__(self):
        # C order: matmul rounding depends on the layout, and a checkpoint
        # reloads C-ordered matrices
        self.matrix = np.ascontiguousarray(self.matrix, dtype=np.float64)
        if not np.all(np.isfinite(self.matrix)):
            raise NonFiniteError("layer weights contain non-finite entries")


@dataclass
class Layer:
    spec: LayerSpec
    weights: LayerWeights

    def __post_init__(self):
        if self.weights.matrix.shape != self.spec.weight_shape:
            raise DimensionMismatchError(
                f"weight shape {self.weights.matrix.shape} does not match "
                f"spec {self.spec.weight_shape}"
            )


@dataclass
class NestedNet:
    """Ordered layer stack plus auxiliary-coordinate placement.

    ``placement`` lists the layer boundaries (1-based, boundary k sits
    after layer k) that carry auxiliary coordinates.
    """

    layers: list
    placement: list = field(default_factory=list)

    def __post_init__(self):
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if a.spec.out_dim != b.spec.in_dim:
                raise DimensionMismatchError(
                    f"layer widths do not chain: {a.spec.out_dim} -> {b.spec.in_dim}"
                )
        k_max = len(self.layers) - 1
        prev = 0
        for p in self.placement:
            if not (1 <= p <= k_max):
                raise DimensionMismatchError(
                    f"placement index {p} outside 1..{k_max}"
                )
            if p <= prev:
                raise DimensionMismatchError("placement must be strictly increasing")
            prev = p

    @property
    def in_dim(self):
        return self.layers[0].spec.in_dim

    @property
    def out_dim(self):
        return self.layers[-1].spec.out_dim

    def copy(self):
        return NestedNet(
            [Layer(l.spec, LayerWeights(l.weights.matrix.copy())) for l in self.layers],
            list(self.placement),
        )

    def num_params(self):
        return sum(l.weights.matrix.size for l in self.layers)


@dataclass
class Dataset:
    """Inputs X (N x D) and targets Y (N x D'), with an optional validation split."""

    X: np.ndarray
    Y: np.ndarray
    val_X: np.ndarray = None
    val_Y: np.ndarray = None

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=np.float64))
        self.Y = np.atleast_2d(np.asarray(self.Y, dtype=np.float64))
        if self.X.shape[0] != self.Y.shape[0]:
            raise DimensionMismatchError("X and Y row counts differ")
        if self.X.shape[0] < 1:
            raise DimensionMismatchError("dataset must have at least one row")
        for name, arr in (("X", self.X), ("Y", self.Y)):
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError(f"dataset {name} contains non-finite entries")
        if self.val_X is not None:
            self.val_X = np.atleast_2d(np.asarray(self.val_X, dtype=np.float64))
            self.val_Y = np.atleast_2d(np.asarray(self.val_Y, dtype=np.float64))
            if self.val_X.shape[1] != self.X.shape[1] or self.val_Y.shape[1] != self.Y.shape[1]:
                raise DimensionMismatchError("validation widths differ from training")

    @property
    def n(self):
        return self.X.shape[0]

    def eval_split(self):
        """The validation split as a Dataset, or this dataset if there is none."""
        if self.val_X is None:
            return self
        return Dataset(self.val_X, self.val_Y)


def add_bias_col(Z):
    return np.hstack([Z, np.ones((Z.shape[0], 1))])


def layer_apply(layer, Z_in, index=None):
    """Map a batch of inputs (N x in_dim) through one layer."""
    spec = layer.spec
    Z_in = np.atleast_2d(Z_in)
    if Z_in.shape[1] != spec.in_dim:
        raise DimensionMismatchError(
            f"layer {index if index is not None else '?'} expects width "
            f"{spec.in_dim}, got {Z_in.shape[1]}"
        )
    W = layer.weights.matrix
    if spec.kind == LayerKind.GAUSSIAN_RBF:
        out = rbf_design(Z_in, W, spec.rbf_width)
    else:
        pre = Z_in @ W[:, : spec.in_dim].T
        if spec.bias:
            pre += W[:, spec.in_dim]
        out = sigmoid(pre) if spec.kind == LayerKind.SIGMOID_DENSE else pre
    if not np.all(np.isfinite(out)):
        raise NonFiniteError(
            f"non-finite activation in layer {index} ({spec.kind.value})"
        )
    return out


def forward_all(net, X):
    """Per-layer activation matrices [A_1, ..., A_{K+1}] for a batch X."""
    acts = []
    cur = np.atleast_2d(X)
    for i, layer in enumerate(net.layers):
        cur = layer_apply(layer, cur, index=i + 1)
        acts.append(cur)
    return acts


def forward(net, x):
    """Per-layer activation vectors for a single input; last entry is f(x; W)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise DimensionMismatchError("forward expects a single input vector")
    return [a[0] for a in forward_all(net, x[None, :])]


def ridge_penalty(net):
    return sum(
        l.spec.ridge * float(np.sum(l.weights.matrix**2))
        for l in net.layers
        if l.spec.ridge > 0
    )


def nested_objective(net, data, prefix=None):
    """Squared-error loss over the dataset plus the quadratic weight penalties.

    Per-point contributions are combined with an exactly rounded sum, so
    the value is invariant to row permutations bit for bit.  ``prefix`` is
    an optional pair (k, A), where A is the output of the net's first k
    layers on data.X as forward_all computes it; the forward pass then
    continues from A.
    """
    X, Y = data.X, data.Y
    if Y.shape[1] != net.out_dim:
        raise DimensionMismatchError("target width does not match net output")
    k, F = (0, np.atleast_2d(X)) if prefix is None else prefix
    for i in range(k, len(net.layers)):
        F = layer_apply(net.layers[i], F, index=i + 1)
    per_point = np.sum((Y - F) ** 2, axis=1)
    val = 0.5 * math.fsum(per_point) + ridge_penalty(net)
    if not np.isfinite(val):
        raise NonFiniteError("nested objective is non-finite")
    return val


TRACE_HEADER = "iter,seconds,mu,e1_train,e1_val,eq,constraint_viol,event"


@dataclass
class TraceRow:
    iteration: int
    seconds: float
    mu: float
    e1_train: float
    e1_val: float
    eq: float
    constraint_viol: float
    event: str


@dataclass
class TrainTrace:
    rows: list = field(default_factory=list)
    selection_events: list = field(default_factory=list)

    def add(self, iteration, seconds, mu, e1_train, e1_val, eq, viol, event):
        if self.rows:
            if iteration <= self.rows[-1].iteration:
                raise MacqpError("trace iteration indices must increase")
            seconds = max(seconds, self.rows[-1].seconds)
        self.rows.append(
            TraceRow(iteration, seconds, mu, e1_train, e1_val, eq, viol, event)
        )

    def add_nested(self, seconds, net, data, event, e1_train=None):
        """Append the next row of an optimizer without coordinates: mu 0,
        E_Q = E1 and violation 0.  E1 is computed unless given; without a
        validation split it is also E1_val.  Returns E1."""
        if e1_train is None:
            e1_train = nested_objective(net, data)
        e1_val = e1_train if data.val_X is None else nested_objective(net, data.eval_split())
        self.add(len(self.rows) + 1, seconds, 0.0, e1_train, e1_val, e1_train, 0.0, event)
        return e1_train

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_HEADER.split(","))
            for r in self.rows:
                writer.writerow(
                    [
                        r.iteration,
                        repr(r.seconds),
                        repr(r.mu),
                        repr(r.e1_train),
                        repr(r.e1_val),
                        repr(r.eq),
                        repr(r.constraint_viol),
                        r.event,
                    ]
                )


def layer_jacobians(layer, z_in, out=None):
    """Exact Jacobian of one layer map w.r.t. its input at z_in.

    ``z_in`` is one input (in_dim,), giving an out_dim x in_dim matrix,
    or a batch (n, in_dim), giving one per point, shape (n, out_dim, in_dim).
    ``out``, the layer's output at z_in as ``layer_apply`` computes it,
    saves computing the activations again; without it they are computed
    here the same way.

    A batch's Jacobians are one C-ordered (n, out_dim, in_dim) array. The
    Z-step multiplies them with matmul, whose rounding follows the layout
    of its operands, so another layout would change the Z-step's bits.
    """
    spec = layer.spec
    z_in = np.asarray(z_in, dtype=np.float64)
    if z_in.ndim not in (1, 2) or z_in.shape[-1] != spec.in_dim:
        raise DimensionMismatchError("layer_jacobians input width mismatch")
    Z = np.atleast_2d(z_in)
    W = layer.weights.matrix
    if spec.kind == LayerKind.LINEAR_DENSE:
        shape = (Z.shape[0], spec.out_dim, spec.in_dim)
        j_in = np.broadcast_to(W[:, : spec.in_dim], shape).copy()
    else:
        a = layer_apply(layer, Z) if out is None else np.atleast_2d(out)
        if spec.kind == LayerKind.GAUSSIAN_RBF:
            # -(c * d) as (-c) * d: the same bits, -0.0 at a centre included
            # (numpy 2.4.6's np.negative misreads 64-byte-strided columns)
            coef = (-2.0 / spec.rbf_width**2) * a
            j_in = np.empty((Z.shape[0], spec.out_dim, spec.in_dim))
            for k in range(spec.in_dim):
                col = j_in[:, :, k]
                np.subtract(Z[:, k, None], W[:, k], out=col)
                col *= coef
        else:
            j_in = np.einsum("no,oi->noi", a * (1.0 - a), W[:, : spec.in_dim], order="C")
    return j_in[0] if z_in.ndim == 1 else j_in


def _backward_through_layer(layer, A_in, A_out, G):
    """Given dE/dA_out = G, return (dE/dW, dE/dA_in) for one layer."""
    spec = layer.spec
    W = layer.weights.matrix
    if spec.kind == LayerKind.GAUSSIAN_RBF:
        coef = 2.0 / spec.rbf_width**2
        B = G * A_out
        grad_w = coef * (B.T @ A_in - np.sum(B, axis=0)[:, None] * W)
        g_in = -coef * (A_in * np.sum(B, axis=1)[:, None] - B @ W)
        return grad_w, g_in
    if spec.kind == LayerKind.SIGMOID_DENSE:
        G = G * A_out * (1.0 - A_out)
    At = add_bias_col(A_in) if spec.bias else A_in
    grad_w = G.T @ At
    g_in = G @ W[:, : spec.in_dim]
    return grad_w, g_in


def backprop_gradient(net, data):
    """Gradient of nested_objective w.r.t. every weight entry, per layer."""
    X, Y = data.X, data.Y
    if Y.shape[1] != net.out_dim:
        raise DimensionMismatchError("target width does not match net output")
    acts = forward_all(net, X)
    G = acts[-1] - Y
    grads = [None] * len(net.layers)
    for i in range(len(net.layers) - 1, -1, -1):
        A_in = acts[i - 1] if i > 0 else X
        grad_w, G = _backward_through_layer(net.layers[i], A_in, acts[i], G)
        spec = net.layers[i].spec
        if spec.ridge > 0:
            grad_w = grad_w + 2.0 * spec.ridge * net.layers[i].weights.matrix
        grads[i] = grad_w
    return grads


def init_weights(specs, seed, placement=None):
    """Random net with each entry of layer k uniform on +-1/sqrt(fan_in)."""
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        scale = 1.0 / np.sqrt(spec.in_dim)
        mat = rng.uniform(-scale, scale, size=spec.weight_shape)
        layers.append(Layer(spec, LayerWeights(mat)))
    if placement is None:
        placement = list(range(1, len(specs)))
    return NestedNet(layers, placement)


def net_axpy(net, grads, step):
    """New net with W <- W - step * grad, layer by layer."""
    layers = [
        Layer(l.spec, LayerWeights(l.weights.matrix - step * g))
        for l, g in zip(net.layers, grads)
    ]
    return NestedNet(layers, list(net.placement))


def bias_warmup_step(net, data, step=1.0):
    """One gradient-descent step shared by all optimizers as a common start.

    The step size is halved (up to 30 times) until the nested objective
    decreases; if it never does, the net is returned unchanged.
    """
    grads = backprop_gradient(net, data)
    gnorm2 = sum(float(np.sum(g**2)) for g in grads)
    if not np.isfinite(gnorm2):
        raise NonFiniteError("non-finite gradient in warmup step")
    if step == 0.0 or gnorm2 == 0.0:
        return net.copy()
    e0 = nested_objective(net, data)
    t = step
    for _ in range(31):
        cand = net_axpy(net, grads, t)
        if nested_objective(cand, data) < e0:
            return cand
        t *= 0.5
    return net.copy()


def flatten_weights(net):
    return np.concatenate([l.weights.matrix.ravel() for l in net.layers])


def unflatten_weights(net, vec):
    layers = []
    off = 0
    for l in net.layers:
        size = l.weights.matrix.size
        mat = vec[off : off + size].reshape(l.weights.matrix.shape)
        layers.append(Layer(l.spec, LayerWeights(mat.copy())))
        off += size
    return NestedNet(layers, list(net.placement))

"""Auxiliary-coordinate training with a quadratic penalty.

The nested problem is rewritten over (weights, per-point coordinates at
the placed boundaries) with equality constraints tying each coordinate
block to its forward-propagated value.  Constraints are enforced by a
growing quadratic penalty mu while alternating exact/Gauss-Newton weight
updates (decoupled per unit or per block) with per-point coordinate
updates.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .baselines import fit_rbf_linear_pair, ridge_lsq
from .kernels import sigmoid
# TRACE_HEADER, TraceRow and TrainTrace are also imported from this module
from .model import (
    TRACE_HEADER,
    Layer,
    LayerKind,
    LayerWeights,
    MacqpError,
    NestedNet,
    NonFiniteError,
    TraceRow,
    TrainTrace,
    add_bias_col,
    check_count,
    check_real,
    forward_all,
    layer_apply,
    layer_jacobians,
    nested_objective,
)
from .parallel import parallel_map


@dataclass
class AuxState:
    """Auxiliary coordinates: one (N x width) matrix per placed boundary."""

    coords: list

    def __post_init__(self):
        self.coords = [np.atleast_2d(np.asarray(c, dtype=np.float64)) for c in self.coords]
        for c in self.coords:
            if not np.all(np.isfinite(c)):
                raise NonFiniteError("auxiliary coordinates contain non-finite entries")

    def copy(self):
        return AuxState([c.copy() for c in self.coords])

    @property
    def n(self):
        return self.coords[0].shape[0] if self.coords else 0


# The penalty path: mu starts at MU0 and is multiplied by MU_GROWTH at each
# stage.  While mu <= REG_DROP_MU, non-RBF layers carry the extra ridge
# TRANSIENT_REG; after that it is 0.
MU0 = 1.0
MU_GROWTH = 10.0
REG_DROP_MU = 1e4
TRANSIENT_REG = 1e-4


@dataclass
class PenaltySchedule:
    """When a mu stage ends: once its signal changes by less than
    ``stage_tolerance`` (relative) or after ``max_iters_per_stage`` W/Z
    iterations; the path runs at most ``max_stages`` stages."""

    stage_tolerance: float = 1e-2
    max_stages: int = 9
    max_iters_per_stage: int = 50

    def __post_init__(self):
        check_real(self.stage_tolerance, "stage_tolerance", 0)
        # written so that NaN fails
        if not self.stage_tolerance > 0:
            raise ValueError("stage_tolerance must be positive")
        check_count(self.max_stages, "max_stages", 0)
        check_count(self.max_iters_per_stage, "max_iters_per_stage", 1)


def block_slices(net):
    """Layer index ranges [(start, end), ...] delimited by the placement."""
    bounds = [0] + list(net.placement) + [len(net.layers)]
    return [(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def lift_to_feasible(net, X):
    """Coordinates set by forward propagation; constraint residuals are zero."""
    acts = forward_all(net, X)
    return AuxState([acts[p - 1].copy() for p in net.placement])


def qp_blocks(net, Z, data, mu):
    """The split of E_Q at fixed coordinates into one part per block: for
    each block, (its layer slice, inputs, targets, weight).  Block j fits
    coordinate block j with weight mu; the last block fits Y with weight 1."""
    slices = block_slices(net)
    weights = [mu] * (len(slices) - 1) + [1.0]
    return list(zip(slices, [data.X] + list(Z.coords), list(Z.coords) + [data.Y], weights))


def block_outputs(net, Z, X):
    """Every block's output at its inputs: X for the first block, then the
    coordinates.  qp_objective, constraint_residuals, w_step and
    selection_step take this list, and z_step its first entry, to share
    one evaluation of the blocks."""
    return [_block_output(net.layers[a:b], A, start=a)
            for (a, b), A in zip(block_slices(net), [X] + list(Z.coords))]


def _block_output(layers, A_in, start=None):
    """The output of a block's layers at inputs A_in.  ``start``, the
    net's index of the first layer, numbers the layers in error messages."""
    out = A_in
    for i, layer in enumerate(layers):
        out = layer_apply(layer, out, index=None if start is None else start + i + 1)
    return out


def qp_objective(net, Z, data, mu, transient_reg=0.0, outs=None):
    """Penalized objective: last-block loss + (mu/2) constraint violations
    + weight penalties, summed over the blocks of qp_blocks in order.

    ``outs`` is block_outputs(net, Z, data.X), computed here if not given.
    """
    if not mu >= 0:  # written so that NaN fails
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if len(Z.coords) != len(block_slices(net)) - 1:
        raise MacqpError("auxiliary state does not match net placement")
    if outs is None:
        outs = block_outputs(net, Z, data.X)
    total = sum(_block_objective(net.layers[a:b], A, T, weight, transient_reg, out=out)
                for ((a, b), A, T, weight), out in zip(qp_blocks(net, Z, data, mu), outs))
    if not np.isfinite(total):
        raise NonFiniteError("penalized objective is non-finite")
    return total


def constraint_residual_vectors(net, Z, X, outs=None):
    """Per-point stacked constraint residuals z_j - g_j(z_{j-1}), shape (N, sum widths).

    ``outs`` is block_outputs(net, Z, X), computed here if not given.
    """
    if not Z.coords:
        return np.zeros((np.atleast_2d(X).shape[0], 0))
    if outs is None:
        outs = block_outputs(net, Z, X)
    return np.hstack([z - out for z, out in zip(Z.coords, outs)])


def constraint_residuals(net, Z, X, outs=None):
    """Euclidean norm of each point's stacked constraint residual."""
    return np.linalg.norm(constraint_residual_vectors(net, Z, X, outs), axis=1)


def multiplier_estimates(net, Z, X, mu):
    """Lagrange multiplier estimates -mu * (z_n - F(z_n, W; x_n))."""
    return -mu * constraint_residual_vectors(net, Z, X)


# ---------------------------------------------------------------------------
# Descent test and backtracking, shared by the W- and Z-steps


def _is_descent(g, d):
    """Which stacked steps d (blocks (n, w_j)) are finite and descent
    directions of the gradients g."""
    finite = np.isfinite(d[0]).all(axis=1)
    for dj in d[1:]:
        finite &= np.isfinite(dj).all(axis=1)
    gd = sum(np.einsum("ij,ij->i", gj, dj) for gj, dj in zip(g, d))
    return finite & (gd < 0)


# The trial step lengths of a line search, in the order tried: 1, 1/2,
# 1/4, ..., 2^-19.
BACKTRACK_STEPS = np.cumprod([1.0] + [0.5] * 19)


def _backtrack(evaluate, x, d, vals, found):
    """Backtracking line search on stacked independent problems.

    Row i of the blocks ``x`` is one problem's value and row i of ``d`` its
    direction; ``found`` masks the rows with a direction.  Each row moves
    to the first of the steps BACKTRACK_STEPS that lowers its objective,
    where its rows of ``x`` and ``vals`` are overwritten.
    ``evaluate(rows, cand)`` returns arrays like ``vals``, the objective
    first, for problems ``rows`` at candidate blocks ``cand``.  Each batch
    tries the next step for the rows still pending.  When every row has a
    direction, the first batch is x + d, without gathers, and if every row
    accepts it, it is written back whole.

    A row's last bits can depend on the rows that share its batch: BLAS
    rounds a one-row product unlike a multi-row one, and at N = 500 also
    by the row count.
    """
    pending = np.flatnonzero(found)
    for i, step in enumerate(BACKTRACK_STEPS):
        if not pending.size:
            return
        every = i == 0 and pending.size == found.size  # full steps of all rows
        cand = [xj + dj if every else xj[pending] + step * dj[pending] for xj, dj in zip(x, d)]
        new = evaluate(pending, cand)
        hit = new[0] < vals[0][pending]
        rows, pick = (Ellipsis, Ellipsis) if every and hit.all() else (pending[hit], hit)
        for old, c in zip(x + vals, cand + new):
            old[rows] = c[pick]
        pending = pending[~hit]


# ---------------------------------------------------------------------------
# W-step


# Elements of the (units, inputs, N) temporary from which one group of a
# sigmoid layer's Gauss-Newton matrices is built: the W-step builds them
# in groups of at most this many elements, so its peak memory stays
# bounded on wide layers.  Each unit's matrix is one matrix product of its
# own, so results do not depend on the grouping.
W_GROUP_ELEMS = 1 << 18


def _gn_solve(H, g):
    """Gauss-Newton steps d = -H^-1 g of stacked symmetric positive
    semidefinite systems, H (n, m, m) and g (n, m).

    One singular matrix fails a stacked solve as a whole, so then the
    systems are solved one at a time.  A system whose step is not finite
    and a descent direction (H singular) takes the minimum-norm step
    -pinv(H) g instead.  For a sigmoid unit, H = c J^T J + 2 lam I and
    g = -c J^T r + 2 lam w, that is a descent direction whenever g is
    nonzero: with lam > 0, H is nonsingular, and with lam = 0, g lies in
    the range of H.  Returns the steps and a mask of the descent
    directions.
    """
    B = -g[:, :, None]
    try:
        d = np.linalg.solve(H, B)[:, :, 0]
    except np.linalg.LinAlgError:
        d = np.full_like(g, np.nan)
        for i in range(g.shape[0]):
            try:
                d[i] = np.linalg.solve(H[i], B[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
    found = _is_descent([g], [d])
    if not found.all():
        idx = np.flatnonzero(~found)
        d[idx] = (np.linalg.pinv(H[idx], hermitian=True) @ B[idx])[:, :, 0]
        found[idx] = _is_descent([g[idx]], [d[idx]])
    return d, found


def _sigmoid_gn_matrices(phi, S, weight, lam):
    """Each unit's Gauss-Newton matrix weight * J^T J + 2 lam I, where the
    rows of unit u's Jacobian J are S[u, n] * phi[n]; shape (units, m, m)."""
    units, (N, m) = S.shape[0], phi.shape
    H = np.empty((units, m, m))
    Sw = weight * (S * S)
    group = max(1, W_GROUP_ELEMS // (m * N))
    for lo in range(0, units, group):
        np.matmul(phi.T[None] * Sw[lo : lo + group, None, :], phi, out=H[lo : lo + group])
    diag = np.arange(m)
    H[:, diag, diag] += 2.0 * lam
    return H


def _sigmoid_unit_objectives(R, W, weight, lam):
    """Each unit's 0.5 * weight * |residual|^2 + lam * |weights|^2."""
    return 0.5 * weight * np.einsum("ij,ij->i", R, R) + lam * np.einsum("ij,ij->i", W, W)


def _fit_sigmoid_layer(layer, A_in, T, weight, lam, out=None):
    """One Gauss-Newton step on every unit's least-squares subproblem at
    once, as a Z-step is one Gauss-Newton step.  Returns the new layer and
    its output at A_in, as its line search evaluated it; ``out``, the
    current output (layer_apply), is computed if not given, and not written.

    The units' problems are independent.  They are solved as one stack,
    but every unit follows its own step length, as if solved alone up to
    rounding (see _backtrack).  A unit whose Gauss-Newton matrix is
    singular takes the minimum-norm step (see _gn_solve).  A unit keeps
    its weights if it finds no descent direction (its gradient is zero),
    if its step's predicted decrease is below the rounding of its
    objective, or if no step length lowers its objective.  The
    Gauss-Newton model predicts a decrease of -g.d/2, and N eps f bounds
    the rounding of an objective f summed over N points, so a unit
    searches along its step only if -g.d > 2 N eps f.
    """
    out = layer_apply(layer, A_in) if out is None else out
    phi = add_bias_col(A_in) if layer.spec.bias else A_in
    W = layer.weights.matrix.copy()
    P = out.T  # (units, N); einsum and matmul round by layout, so R, S are C
    R = np.subtract(T.T, P, order="C")
    S = np.multiply(P, 1.0 - P, order="C")
    F = _sigmoid_unit_objectives(R, W, weight, lam)
    g = -weight * ((S * R) @ phi) + 2.0 * lam * W
    d, found = _gn_solve(_sigmoid_gn_matrices(phi, S, weight, lam), g)
    rounding = 2.0 * phi.shape[0] * np.finfo(np.float64).eps * F
    found &= -np.einsum("ij,ij->i", g, d) > rounding

    def evaluate(rows, cand):
        pre = A_in @ cand[0][:, : layer.spec.in_dim].T
        if layer.spec.bias:
            pre += cand[0][:, -1]
        P = sigmoid(pre).T
        R = np.subtract(T.T[rows], P, order="C")
        return [_sigmoid_unit_objectives(R, cand[0], weight, lam), P]

    out = out.copy()  # the line search writes each unit's accepted column
    _backtrack(evaluate, [W], [d], [F, out.T], found)
    return Layer(layer.spec, LayerWeights(W)), out


def _block_objective(layers, A_in, T, weight, transient_reg, out):
    """One block's part of E_Q: the weighted misfit to T of ``out``, its
    layers' output at inputs A_in, plus their ridge and transient weight
    penalties."""
    val = 0.5 * weight * float(np.sum((T - out) ** 2))
    for layer in layers:
        lam = layer.spec.ridge
        if layer.spec.kind != LayerKind.GAUSSIAN_RBF:
            lam += transient_reg
        if lam > 0:
            val += lam * float(np.sum(layer.weights.matrix**2))
    return val


def check_block(net, sl):
    """MacqpError unless fit_block has a solver for the block of net's
    layers sl: one sigmoid_dense or linear_dense layer, or a gaussian_rbf
    layer and its linear_dense readout."""
    kinds = [l.spec.kind.value for l in net.layers[sl[0] : sl[1]]]
    if kinds not in (["sigmoid_dense"], ["linear_dense"], ["gaussian_rbf", "linear_dense"]):
        raise MacqpError(f"architecture.placement {list(net.placement)} makes layers "
                         f"{sl[0] + 1}..{sl[1]} one block, of layer structure {kinds}, which "
                         "has no block solver: a block is one sigmoid_dense or linear_dense "
                         "layer, or gaussian_rbf followed by linear_dense")


def fit_block(net, sl, A_in, T, weight, transient_reg=0.0, centers_by_size=None, out=None):
    """Refit one inter-boundary block to targets T at fixed inputs.

    Returns the replacement layers and their output at A_in; the caller
    is responsible for rejecting a refit that increases its part of the
    objective (possible only for the k-means-based RBF path).
    ``centers_by_size`` is an RBF block's table of fits (see
    fit_rbf_linear_pair), whose entries hold A_in by reference: it must
    not change in place.  ``out`` is the block's output at A_in, if known.
    """
    check_block(net, sl)
    layers = net.layers[sl[0] : sl[1]]
    first = layers[0]
    if first.spec.kind == LayerKind.GAUSSIAN_RBF:
        return fit_rbf_linear_pair(first.spec, layers[1].spec, A_in, T, weight,
                                   transient_reg=transient_reg, centers_by_size=centers_by_size)
    lam = first.spec.ridge + transient_reg
    if first.spec.kind == LayerKind.SIGMOID_DENSE:
        layer, out = _fit_sigmoid_layer(first, A_in, T, weight, lam, out)
        return [layer], out
    phi = add_bias_col(A_in) if first.spec.bias else A_in
    layer = Layer(first.spec, LayerWeights(ridge_lsq(phi, T, 2.0 * lam / weight).T))
    return [layer], layer_apply(layer, A_in, index=sl[0] + 1)


def w_step(net, Z, data, mu, transient_reg=0.0, outs=None, tables=None, candidates=None,
           epsilon_sq=0.0):
    """Independent refit of every block at fixed coordinates; never
    increases E_Q plus the AIC cost of the blocks in ``candidates``.

    A block is refitted by fit_block and takes the refit unless that
    raises its part of E_Q.  ``candidates``, if given, maps RBF + linear
    blocks to candidate sizes: such a block is fitted at each size, a fit
    that fails is skipped, and it keeps its weights unless a fit scores
    strictly lower on its part of E_Q plus 2 * epsilon_sq * (its parameter
    count).  The step thus also chooses their sizes, as selection_step.
    Each fit is scored from the output it returns, as it is made.  Part of
    E_Q is never negative, so a size whose cost alone is at or above the
    block's best score so far cannot win and is not fitted; its entry in
    the block's table (below) is then left as it was.

    ``outs``, block_outputs(net, Z, data.X), is computed if not given; it
    scores the current blocks and starts sigmoid fits, and each accepted
    fit's output replaces its block's entry.  ``tables``, if given, holds
    each block's table of RBF fits (see fit_rbf_linear_pair), whose entries
    hold the block's inputs by reference: they must not change in place.
    mu must be positive and finite.
    """
    if not 0 < mu < np.inf:  # written so that NaN fails
        raise ValueError(f"mu must be positive and finite, got {mu}")
    candidates = candidates or {}
    new_layers = list(net.layers)
    outs = block_outputs(net, Z, data.X) if outs is None else outs
    for j, (sl, A, T, weight) in enumerate(qp_blocks(net, Z, data, mu)):
        table = None if tables is None else tables[j]
        sizes = candidates.get(j)
        eps = 0.0 if sizes is None else epsilon_sq

        def cost(specs):
            return 2.0 * eps * sum(math.prod(s.weight_shape) for s in specs)

        def score(layers, out):
            return (_block_objective(layers, A, T, weight, transient_reg, out=out)
                    + cost([l.spec for l in layers]))

        best = score(net.layers[sl[0] : sl[1]], outs[j])
        kept = None
        for m in [None] if sizes is None else sizes:
            if m is None:
                fit = fit_block(net, sl, A, T, weight, transient_reg=transient_reg,
                                centers_by_size=table, out=outs[j])
            else:
                sized = (replace(net.layers[sl[0]].spec, out_dim=m),
                         replace(net.layers[sl[0] + 1].spec, in_dim=m))
                if cost(sized) >= best:
                    continue
                try:
                    fit = fit_rbf_linear_pair(*sized, A, T, weight, transient_reg=transient_reg,
                                              centers_by_size=table)
                except MacqpError:
                    continue
            value = score(*fit)
            # a refit at the block's own size wins a tie; a sized fit must score lower
            if value < best or (m is None and value == best):
                best, kept = value, fit
        if kept is not None:
            new_layers[sl[0] : sl[1]] = kept[0]
            outs[j] = kept[1]
    return NestedNet(new_layers, list(net.placement))


# ---------------------------------------------------------------------------
# Z-step

# Elements of stacked Jacobians and chain covariances a Z-step tile may
# hold: 2 MiB of float64, one core's L2 cache.  Larger tiles pay numpy's
# per-call overhead over more points; 2^19 made desk's tiles slower.
Z_TILE_ELEMS = 1 << 18


def _z_tile(net):
    """Points per Z-step tile: as many as fit Z_TILE_ELEMS, at least one.
    It depends on the net, not the worker count, so neither do results.

    One point holds, for each block fed by coordinates, its layers' input
    Jacobians (out_dim x input width) and a width^2 covariance: counted for
    every net, though only the last-block space of _z_chain_solve forms it.
    """
    per_point = 0
    for a, b in block_slices(net)[1:]:
        width = net.layers[a].spec.in_dim
        per_point += width * (width + sum(net.layers[i].spec.out_dim for i in range(a, b)))
    return max(1, Z_TILE_ELEMS // per_point)


def _block_forward(net, sl, Z_in, out=None):
    """Block outputs and input Jacobians (n, out, in) for a batch of inputs;
    given the output as ``out``, the last layer is not applied again."""
    cur = Z_in
    jac = None
    for i in range(sl[0], sl[1]):
        layer = net.layers[i]
        nxt = out if out is not None and i == sl[1] - 1 else layer_apply(layer, cur, index=i + 1)
        if jac is not None and layer.spec.kind == LayerKind.LINEAR_DENSE:
            jac = layer.weights.matrix[:, : layer.spec.in_dim] @ jac
        else:
            j_layer = layer_jacobians(layer, cur, out=nxt)
            jac = j_layer if jac is None else j_layer @ jac
        cur = nxt
    return cur, jac


def _z_objective(net, slices, f1, y, zs, mu):
    """Each point's part of E_Q at coordinates zs, shape (n,), followed by
    the outputs of the blocks fed by the coordinates, as one list.

    ``f1`` is the first block's output at the points' inputs, which the
    coordinates do not change.
    """
    outs = [_block_output(net.layers[a:b], z, start=a) for (a, b), z in zip(slices[1:], zs)]
    res = [t - o for t, o in zip(list(zs) + [y], [f1] + outs)]
    return [_z_objective_from_residuals(res, mu)] + outs


def _z_objective_from_residuals(res, mu):
    """Per-point E_Q from the constraint residuals and the output residual."""
    val = np.zeros(res[0].shape[0])
    for r in res[:-1]:
        val += 0.5 * mu * np.sum(r**2, axis=1)
    return val + 0.5 * np.sum(res[-1] ** 2, axis=1)


def _z_gn_system(net, slices, f1, y, zs, mu, outs=None):
    """Each point's linearised subproblem, with a leading point axis.

    Returns the Jacobians, the residuals, the gradient blocks and each
    point's objective, _z_objective's first entry at zs.  jacs[j] is the
    Jacobian of block j+1 w.r.t. coordinate block j at zs[j]; res[0..K-1]
    are the constraint residuals and res[K] the output residual.  ``f1``
    is the first block's output at the points' inputs; ``outs``, if given,
    holds the outputs of blocks 1..K at zs, which are then not recomputed.
    """
    K = len(zs)
    res = [zs[0] - f1]
    jacs = []
    for j in range(1, K + 1):
        out, A = _block_forward(net, slices[j], zs[j - 1], None if outs is None else outs[j - 1])
        res.append((zs[j] if j < K else y) - out)
        jacs.append(A)
    g = []
    for j, A in enumerate(jacs):
        weight = mu if j + 1 < K else 1.0
        g.append(mu * res[j] - weight * (A.transpose(0, 2, 1) @ res[j + 1][:, :, None])[:, :, 0])
    return jacs, res, g, _z_objective_from_residuals(res, mu)


def _z_chain_solve(jacs, res, mu):
    """Each point's Gauss-Newton step by one pass forward and one back
    over its coordinate blocks; mu > 0.

    ``jacs`` and ``res`` are as _z_gn_system returns them.  A point's
    linearised subproblem is a linear-Gaussian chain observed only at its
    end: block 0's step d_0 has prior mean -res[0] and covariance I/mu,
    each d_j is jacs[j-1] d_{j-1} - res[j] plus noise of covariance I/mu,
    and the output residual res[K] is B d_{K-1} plus unit noise, B =
    jacs[K-1].  The step is the posterior mean of the d_j: the prior means
    m_j plus one solve per point for v = res[K] - B m_{K-1}, in the smaller
    space.  Output space (out <= w_K): with G_{K-1} = B, G_j = G_{j+1}
    jacs[j], u = (I + sum_j G_j G_j^T / mu)^-1 v and d_j - m_j = jacs[j-1]
    (d_{j-1} - m_{j-1}) + G_j^T u / mu; no covariance is formed.  Last
    block's space: covariances P_j (P_0 = I/mu, a scalar) pass forward,
    P_{K-1} c = (P_{K-1} B^T B + I)^-1 P_{K-1} B^T v, and d_j = m_j + P_j c_j
    with c_j = jacs[j]^T c_{j+1}, as in the Rauch-Tung-Striebel smoother.
    """
    inv_mu = 1.0 / mu
    m = [-res[0]]
    for A, r in zip(jacs[:-1], res[1:-1]):
        m.append((A @ m[-1][:, :, None])[:, :, 0] - r)
    B = jacs[-1]
    v = (res[-1] - (B @ m[-1][:, :, None])[:, :, 0])[:, :, None]
    out, width = B.shape[1:]
    if out <= width:
        G = [B]
        for A in jacs[-2::-1]:
            G.insert(0, G[0] @ A)
        S = sum(g @ g.transpose(0, 2, 1) for g in G) * inv_mu
        S[:, np.arange(out), np.arange(out)] += 1.0
        u = np.linalg.solve(S, v)
        d, delta = [], 0.0
        for j, (g, mj) in enumerate(zip(G, m)):
            delta = (jacs[j - 1] @ delta if j else 0.0) + (g.transpose(0, 2, 1) @ u) * inv_mu
            d.append(mj + delta[:, :, 0])
        return d

    def times(X, Y):  # X @ Y, where P_0 = I/mu is the scalar 1/mu
        return np.multiply(X, Y, order="C") if np.isscalar(X) or np.isscalar(Y) else X @ Y

    P = [inv_mu]
    for A in jacs[:-1]:
        P.append(times(A, P[-1]) @ A.transpose(0, 2, 1))
        P[-1][:, np.arange(A.shape[1]), np.arange(A.shape[1])] += inv_mu
    PBt = times(P[-1], B.transpose(0, 2, 1))
    M = PBt @ B
    M[:, np.arange(width), np.arange(width)] += 1.0
    Pc = np.linalg.solve(M, PBt @ v)
    d = [m[-1] + Pc[:, :, 0]]
    if len(jacs) > 1:
        c = B.transpose(0, 2, 1) @ (v - B @ Pc)
        for A, mj, Pj in zip(jacs[-2::-1], m[-2::-1], P[-2::-1]):
            c = A.transpose(0, 2, 1) @ c
            d.insert(0, mj + times(Pj, c)[:, :, 0])
    return d


def _z_tile_update(net, slices, outs, y, zs, mu):
    """One Gauss-Newton step with backtracking on one tile of points.

    ``outs`` holds the tile's block outputs (block_outputs) at its inputs
    and coordinates ``zs``.  Every point follows its own step length, as if
    solved alone up to rounding (see _backtrack): a point whose step is no
    descent direction (its gradient is zero) or that finds no decreasing
    step keeps its coordinates.  ``zs`` and ``outs[1:]`` are updated in
    place to the accepted coordinates and their block outputs.
    """
    jacs, res, g, f = _z_gn_system(net, slices, outs[0], y, zs, mu, outs[1:])
    d = _z_chain_solve(jacs, res, mu)

    def evaluate(rows, cand):
        return _z_objective(net, slices, outs[0][rows], y[rows], cand, mu)

    _backtrack(evaluate, zs, d, [f] + outs[1:], _is_descent(g, d))


def z_step(net, Z, data, mu, workers=1, outs=None):
    """Per-point coordinate update by one Gauss-Newton step; never
    increases E_Q.  To take more steps at fixed weights, call it again.

    mu must be positive and finite.  The points are solved in fixed tiles of
    _z_tile(net) points (all of them, if they fit one), each tile as one batch;
    workers take whole tiles.  Each point's step takes one small solve
    (_z_chain_solve) in the smaller of the output space and the last coordinate
    block's, for any number of coordinate blocks.  Its Gauss-Newton matrix is
    at least mu I, so its systems are nonsingular and the step is a descent
    direction wherever the gradient is nonzero.  The step starts from ``outs``,
    block_outputs(net, Z, data.X), computed here if not given.  Its entries
    1.. are replaced in place by the outputs at the new coordinates, as the
    line search computed them; the rows of points that took no step are kept.
    """
    if not 0 < mu < np.inf:  # written so that NaN fails
        raise ValueError(f"mu must be positive and finite, got {mu}")
    slices = block_slices(net)
    if len(slices) < 2:
        return Z.copy()
    outs = block_outputs(net, Z, data.X) if outs is None else outs
    coords = [c.copy() for c in Z.coords]
    outs[1:] = [o.copy() for o in outs[1:]]  # written below; the given ones may be shared

    def tile_task(r):
        _z_tile_update(net, slices, [o[r] for o in outs], data.Y[r], [c[r] for c in coords], mu)

    tile = _z_tile(net)
    parallel_map([lambda r=slice(lo, lo + tile): tile_task(r)
                  for lo in range(0, data.n, tile)], workers)
    return AuxState(coords)


# ---------------------------------------------------------------------------
# Driver


def postprocess(net, Z, data):
    """Forward-substitute the coordinates and refit the last block.

    Keeps every block but the last; the refit is rejected if a solver
    failure would increase the nested error.
    """
    slices = block_slices(net)
    feats = data.X
    for a, b in slices[:-1]:
        feats = _block_output(net.layers[a:b], feats, start=a)
    # the layers before the last block are kept: the net's forward pass
    # continues from feats, and the refit's from its output
    e1_before = nested_objective(net, data, prefix=(slices[-1][0], feats))
    try:
        fitted, out = fit_block(net, slices[-1], feats, data.Y, 1.0)
    except MacqpError:
        return net.copy()
    cand = net.copy()
    cand.layers[slices[-1][0] : slices[-1][1]] = fitted
    if nested_objective(cand, data, prefix=(len(cand.layers), out)) <= e1_before:
        return cand
    return net.copy()


def mac_train(net, data, schedule, workers=1, time_budget=None, z_init=None,
              sel_cfg=None):
    """Alternating W/Z optimization along the growing-penalty path.

    mu runs MU0, MU0 * MU_GROWTH, ... over at most ``schedule.max_stages``
    stages, and the transient ridge TRANSIENT_REG holds while mu <=
    REG_DROP_MU.  With a validation split, iterations within each mu
    stage run until the validation nested error increases or changes by
    less than the stage tolerance, and the best iterate seen in the stage
    is kept.  Without one, each stage runs until the penalty objective
    stalls; the nested error is expected to rise transiently while
    feasibility is enforced, so it is not used as an exit signal.  With ``sel_cfg``
    given, W-step k (counted from 0 across stages) is a selection step
    when k > 0 and k % ``sel_cfg.cadence`` == 0: a W-step that also
    chooses the size of each selectable block (selection_step).  Its row's
    event is model_select, since it may raise E_Q to lower the AIC cost.

    Each block is evaluated once per change.  The call keeps every block's
    current output (block_outputs) and refreshes only the blocks a step
    changed: the accepted fits of a W-step, from the outputs the fits
    return (a sigmoid fit's comes from its line search), and every block
    when the best iterate is restored.  The Z-step starts from these
    outputs and hands back those of the blocks fed by coordinates at its
    accepted points.  The trace rows and the W-step (the current blocks'
    objective) read them too.  A row computes E1 only after the weights
    changed (a W-step or a restore); a zstep or mu_increase row repeats
    the last values.

    Each block also has a table of RBF fits (see fit_rbf_linear_pair),
    shared by the W-steps, whose entries hold their inputs by reference;
    no step changes coordinates in place.  A size is clustered once per
    inputs, from seed 0 the first time and then from its last centers
    (warm start), as the coordinates move little from one step to the
    next.  A restore goes back at most one iteration, so the tables still
    hold the fits made at the restored coordinates.
    """
    net = net.copy()
    Z = z_init.copy() if z_init is not None else lift_to_feasible(net, data.X)
    trace = TrainTrace()
    if schedule.max_stages == 0:
        return net, Z, trace

    if sel_cfg is not None:
        from .selection import aic_cost, selection_step

    t0 = time.perf_counter()
    mu = MU0
    transient = TRANSIENT_REG
    wsteps = 0  # W-steps taken, across stages
    stop = False
    slices = block_slices(net)
    outs = block_outputs(net, Z, data.X)
    tables = [{} for _ in slices]

    track_val = data.val_X is not None
    val_data = data.eval_split()

    # (e1_train, e1_val) at the current weights; None once a W-step or a
    # restore changes them, until the next row
    e1 = None

    def record(event):
        nonlocal e1
        if e1 is None:
            e1_train = nested_objective(net, data, prefix=(slices[0][1], outs[0]))
            e1 = (e1_train, nested_objective(net, val_data) if track_val else e1_train)
        trace.add(
            time.perf_counter() - t0,
            mu,
            *e1,
            qp_objective(net, Z, data, mu, transient, outs=outs),
            float(np.max(constraint_residuals(net, Z, data.X, outs=outs))),
            event,
        )
        return trace.rows[-1]

    def stage_signal(row):
        """What a stage watches: validation E1 with a split, E_Q without."""
        return row.e1_val if track_val else row.eq

    row = None
    for stage in range(schedule.max_stages):
        if row is not None:
            prev = stage_signal(row)
        elif track_val:
            prev = nested_objective(net, val_data)
        else:
            prev = qp_objective(net, Z, data, mu, transient, outs=outs)
        if track_val:
            best = (net.copy(), Z.copy(), prev)
        for _ in range(schedule.max_iters_per_stage):
            select = sel_cfg is not None and wsteps > 0 and wsteps % sel_cfg.cadence == 0
            if select:
                before_total = row.eq + aic_cost(net, sel_cfg.epsilon_sq)
                net = selection_step(net, Z, data, mu, sel_cfg, transient_reg=transient,
                                     outs=outs, tables=tables)
            else:
                net = w_step(net, Z, data, mu, transient_reg=transient, outs=outs, tables=tables)
            wsteps += 1
            e1 = None
            row = record("model_select" if select else "wstep")
            if select:
                trace.selection_events.append(
                    {
                        "iteration": row.iteration - 1,
                        "before": before_total,
                        "after": row.eq + aic_cost(net, sel_cfg.epsilon_sq),
                        "sizes": [l.spec.out_dim for l in net.layers],
                    }
                )
            Z = z_step(net, Z, data, mu, workers=workers, outs=outs)
            row = record("zstep")

            cur = stage_signal(row)
            if track_val and cur < best[2]:
                best = (net.copy(), Z.copy(), cur)
            if time_budget is not None and time.perf_counter() - t0 > time_budget:
                stop = True
                break
            if track_val and cur > prev:
                break
            if abs(cur - prev) / max(1.0, abs(cur)) < schedule.stage_tolerance:
                break
            prev = cur
        if track_val:
            # a stage ends at its first iteration that does not lower the best
            # signal, so best is the last iterate or the one before it: no fit
            # has replaced a table entry made at its coordinates since
            net, Z = best[0], best[1]
            e1 = None
            outs[:] = block_outputs(net, Z, data.X)
        if stop or stage == schedule.max_stages - 1:
            break
        mu *= MU_GROWTH
        if mu > REG_DROP_MU:
            transient = 0.0
        row = record("mu_increase")
        if time_budget is not None and time.perf_counter() - t0 > time_budget:
            break
    return net, Z, trace

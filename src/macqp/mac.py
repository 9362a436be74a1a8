"""Auxiliary-coordinate training with a quadratic penalty.

The nested problem is rewritten over (weights, per-point coordinates at
the placed boundaries) with equality constraints tying each coordinate
block to its forward-propagated value.  Constraints are enforced by a
growing quadratic penalty mu while alternating exact/Gauss-Newton weight
updates (decoupled per unit or per block) with per-point coordinate
updates.
"""

import time
from dataclasses import dataclass

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


@dataclass
class PenaltySchedule:
    mu0: float = 1.0
    growth: float = 10.0
    stage_tolerance: float = 1e-2
    max_stages: int = 9
    reg_drop_threshold: float = 1e4
    transient_reg: float = 1e-4
    max_iters_per_stage: int = 50

    def __post_init__(self):
        for name in ("mu0", "growth", "stage_tolerance", "reg_drop_threshold", "transient_reg"):
            check_real(getattr(self, name), name, 0)
        # written so that NaN fails every test
        if not (self.mu0 > 0 and self.stage_tolerance > 0):
            raise ValueError("mu0 and stage_tolerance must be positive")
        if not self.growth > 1:
            raise ValueError("growth must exceed 1")
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


def _block_inputs(net, Z, X):
    return [X] + list(Z.coords)


def qp_blocks(net, Z, data, mu):
    """The split of E_Q at fixed coordinates into one part per block: for
    each block, (its layer slice, inputs, targets, weight).  Block j fits
    coordinate block j with weight mu; the last block fits Y with weight 1."""
    slices = block_slices(net)
    weights = [mu] * (len(slices) - 1) + [1.0]
    return list(zip(slices, _block_inputs(net, Z, data.X), list(Z.coords) + [data.Y], weights))


def block_outputs(net, Z, X):
    """Every block's output at its inputs: X for the first block, then the
    coordinates.  qp_objective, constraint_residuals, w_step and
    selection_step take this list, and z_step its first entry, to share
    one evaluation of the blocks."""
    return [_block_output(net.layers[a:b], A, start=a)
            for (a, b), A in zip(block_slices(net), _block_inputs(net, Z, X))]


def _block_output(layers, A_in, table=None, start=None):
    """The output of a block's layers at inputs A_in.

    ``table`` is the block's {size: (centers, design matrix, Gram
    matrix)} table of RBF fits (see fit_rbf_linear_pair).  If the first
    layer is an RBF layer whose centers are its size's entry there, and
    the entry was made at A_in (it has a design matrix), that design
    matrix is its output.  ``start``, the net's index of the first layer,
    numbers the layers in error messages.
    """
    out, skip = A_in, 0
    first = layers[0]
    if table and first.spec.kind == LayerKind.GAUSSIAN_RBF:
        entry = table.get(first.spec.out_dim)
        if (entry is not None and entry[1] is not None
                and np.array_equal(entry[0], first.weights.matrix)):
            out, skip = entry[1], 1
    for i in range(skip, len(layers)):
        out = layer_apply(layers[i], out, index=None if start is None else start + i + 1)
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
    first, for problems ``rows`` at candidate blocks ``cand``.  The pending
    rows test their next 1, 2, 4, ... steps in one batch: a row's objective
    is fixed until it accepts, so this picks the same step, and a row that
    accepts none costs ceil(log2(len(BACKTRACK_STEPS) + 1)) batches.  When
    every row has a direction, the first batch is x + d, without gathers,
    and if every row accepts it, it is written back whole.
    Returns the rows that moved.

    A row's last bits can depend on the rows that share its batch: BLAS
    rounds a one-row product unlike a multi-row one, and at N = 500 also
    by the row count.
    """
    steps = BACKTRACK_STEPS
    accepted = np.zeros(found.shape, dtype=bool)
    pending, tried = np.flatnonzero(found), 0
    while pending.size and tried < steps.size:
        s = min(tried + 1, steps.size - tried)  # 1, 2, 4, ... steps
        every = tried == 0 and pending.size == found.size  # full steps of all rows
        idx = pending if every else np.repeat(pending, s)  # row-major (row, step) order
        step = steps[tried : tried + s, None]
        cand = [xj + dj if every else
                (xj[pending, None] + step * dj[pending, None]).reshape(idx.size, -1)
                for xj, dj in zip(x, d)]
        new = evaluate(idx, cand)
        better = new[0].reshape(pending.size, s) < vals[0][pending, None]
        hit = better.any(axis=1)
        if every and hit.all():  # no gather or scatter
            rows = pick = Ellipsis
        else:
            pick, rows = np.flatnonzero(hit) * s + better.argmax(axis=1)[hit], pending[hit]
        for old, c in zip(x + vals, cand + new):
            old[rows] = c[pick]
        accepted[rows] = True
        pending, tried = pending[~hit], tried + s
    return accepted


# ---------------------------------------------------------------------------
# W-step


# Elements of the (units, inputs, N) temporary from which one group of a
# sigmoid layer's Gauss-Newton matrices is built: the W-step builds them
# in groups of at most this many elements, so its peak memory stays
# bounded on wide layers.  Each unit's matrix is one matrix product of its
# own, so results do not depend on the grouping.
W_GROUP_ELEMS = 1 << 18


# Gauss-Newton iterations of a sigmoid layer's fit in one W-step.
W_GN_ITERS = 3


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


def _fit_sigmoid_layer(layer, A_in, T, weight, lam):
    """Gauss-Newton on every unit's least-squares subproblem at once.

    The units' problems are independent.  They are solved as one stack,
    but every unit follows its own step length and stopping, as if solved
    alone up to rounding (see _backtrack).  A unit whose Gauss-Newton
    matrix is singular takes the minimum-norm step (see _gn_solve).  A
    unit that finds no descent direction (its gradient is zero), or whose
    step's predicted decrease is below the rounding of its objective, or
    that finds no decreasing step keeps its weights and leaves the
    iteration.  The Gauss-Newton model predicts a decrease of -g.d/2, and
    N eps f bounds the rounding of an objective f summed over N points, so
    a unit steps only if -g.d > 2 N eps f.  A unit's predictions and
    objective then come from its line search.
    """
    phi = add_bias_col(A_in) if layer.spec.bias else A_in
    W = layer.weights.matrix.copy()
    Tt = T.T
    P = sigmoid(W @ phi.T)  # (units, N); P and F kept at the current weights
    F = _sigmoid_unit_objectives(Tt - P, W, weight, lam)
    live = np.arange(W.shape[0])
    for _ in range(W_GN_ITERS):
        if live.size == 0:
            break
        W_l, P_l, T_l, f_l = W[live], P[live], Tt[live], F[live]
        R = T_l - P_l
        S = P_l * (1.0 - P_l)
        g = -weight * ((S * R) @ phi) + 2.0 * lam * W_l
        d, found = _gn_solve(_sigmoid_gn_matrices(phi, S, weight, lam), g)
        rounding = 2.0 * phi.shape[0] * np.finfo(np.float64).eps * f_l
        found &= -np.einsum("ij,ij->i", g, d) > rounding

        def evaluate(rows, cand):
            P_c = sigmoid(cand[0] @ phi.T)
            return [_sigmoid_unit_objectives(T_l[rows] - P_c, cand[0], weight, lam), P_c]

        accepted = _backtrack(evaluate, [W_l], [d], [f_l, P_l], found)
        live = live[accepted]
        W[live], P[live], F[live] = W_l[accepted], P_l[accepted], f_l[accepted]
    return Layer(layer.spec, LayerWeights(W))


def _fit_linear_layer(layer, A_in, T, weight, lam):
    phi = add_bias_col(A_in) if layer.spec.bias else A_in
    return Layer(layer.spec, LayerWeights(ridge_lsq(phi, T, 2.0 * lam / weight).T))


def _block_objective(layers, A_in, T, weight, transient_reg, out=None):
    """One block's part of E_Q: the weighted misfit of its layers' output
    to T at inputs A_in, plus their ridge and transient weight penalties.

    ``out`` is the layers' output at A_in, computed here if not given.
    """
    if out is None:
        out = _block_output(layers, A_in)
    val = 0.5 * weight * float(np.sum((T - out) ** 2))
    for layer in layers:
        lam = layer.spec.ridge
        if layer.spec.kind != LayerKind.GAUSSIAN_RBF:
            lam += transient_reg
        if lam > 0:
            val += lam * float(np.sum(layer.weights.matrix**2))
    return val


def fit_block(net, sl, A_in, T, weight, transient_reg=0.0, centers_by_size=None):
    """Refit one inter-boundary block to targets T at fixed inputs.

    Returns replacement layers; the caller is responsible for rejecting a
    refit that increases its part of the objective (possible only for the
    k-means-based RBF path).  ``centers_by_size`` is the {size: (centers,
    design matrix, Gram matrix)} table of an RBF block (see
    fit_rbf_linear_pair).
    """
    layers = net.layers[sl[0] : sl[1]]
    kinds = [l.spec.kind for l in layers]
    if kinds == [LayerKind.SIGMOID_DENSE]:
        lam = layers[0].spec.ridge + transient_reg
        return [_fit_sigmoid_layer(layers[0], A_in, T, weight, lam)]
    if kinds == [LayerKind.LINEAR_DENSE]:
        lam = layers[0].spec.ridge + transient_reg
        return [_fit_linear_layer(layers[0], A_in, T, weight, lam)]
    if kinds == [LayerKind.GAUSSIAN_RBF, LayerKind.LINEAR_DENSE]:
        return list(
            fit_rbf_linear_pair(layers[0], layers[1], A_in, T, weight,
                                transient_reg=transient_reg, centers_by_size=centers_by_size)
        )
    raise MacqpError(
        f"no block solver for layer structure {[k.value for k in kinds]}"
    )


def w_step(net, Z, data, mu, transient_reg=0.0, outs=None, tables=None):
    """Independent refit of every block at fixed coordinates; never increases E_Q.

    ``outs``, if given, is block_outputs(net, Z, data.X): the current
    blocks are scored from it, and each accepted refit's output replaces
    its block's entry in place.  ``tables``, if given, holds one {size:
    (centers, design matrix, Gram matrix)} table per block of RBF fits
    (see fit_rbf_linear_pair).  A fit or output at a size whose entry was
    made at the block's current inputs reuses it; a fit at any other size
    makes its entry, starting k-means from a centers-only entry's centers.
    """
    new_layers = list(net.layers)
    for j, (sl, A, T, weight) in enumerate(qp_blocks(net, Z, data, mu)):
        table = None if tables is None else tables[j]
        fitted = fit_block(net, sl, A, T, weight, transient_reg=transient_reg,
                           centers_by_size=table)
        before = _block_objective(net.layers[sl[0] : sl[1]], A, T, weight, transient_reg,
                                  out=None if outs is None else outs[j])
        out = _block_output(fitted, A, table, start=sl[0])
        if _block_objective(fitted, A, T, weight, transient_reg, out=out) <= before:
            new_layers[sl[0] : sl[1]] = fitted
            if outs is not None:
                outs[j] = out
    return NestedNet(new_layers, list(net.placement))


# ---------------------------------------------------------------------------
# Z-step

# The fewest points per Z-step tile.  The tiles, not the worker count, fix
# which points are batched together, so results are the same for any number
# of workers.  Larger tiles pay numpy's per-call overhead over more points
# but hold larger stacked Jacobians; 64 was measured against 16, 32 and 128.
Z_TILE = 64

# Elements of stacked Jacobians and chain covariances a Z-step tile may
# hold: a net with narrow coordinate blocks, whose points cost
# little each, gets tiles of more than Z_TILE points (see _z_tile).
Z_TILE_ELEMS = 1 << 16


def _z_tile(net):
    """Points per Z-step tile for this net; it depends on the net only.

    One point holds, for each block fed by coordinates, the input Jacobian
    of each of its layers (out_dim x the block's input width), and one
    width^2 matrix per coordinate block (its covariance in _z_chain_solve).
    """
    per_point = 0
    for a, b in block_slices(net)[1:]:
        width = net.layers[a].spec.in_dim
        per_point += width * (width + sum(net.layers[i].spec.out_dim for i in range(a, b)))
    return max(Z_TILE, Z_TILE_ELEMS // per_point)


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
    and the output residual res[K] is jacs[K-1] d_{K-1} plus unit noise.
    The Gauss-Newton step is the posterior mean of the d_j.  The forward
    pass carries each block's prior mean m_j and covariance P_j.  The
    observation then costs one solve of size min(out, w_K) per point, and
    the backward pass spreads its correction c_j to every block as
    d_j = m_j + P_j c_j, as in the Rauch-Tung-Striebel smoother.
    """
    inv_mu = 1.0 / mu
    m = [-res[0]]
    P = [np.eye(res[0].shape[1]) * inv_mu]
    for A, r in zip(jacs[:-1], res[1:-1]):
        m.append((A @ m[-1][:, :, None])[:, :, 0] - r)
        Pj = A @ P[-1] @ A.transpose(0, 2, 1)
        diag = np.arange(Pj.shape[1])
        Pj[:, diag, diag] += inv_mu
        P.append(Pj)
    B = jacs[-1]
    Bt = B.transpose(0, 2, 1)
    v = (res[-1] - (B @ m[-1][:, :, None])[:, :, 0])[:, :, None]
    PBt = P[-1] @ Bt
    out, width = B.shape[1:]
    if out <= width:
        # c = B^T S^-1 v with S = B P B^T + I
        S = B @ PBt
        diag = np.arange(out)
        S[:, diag, diag] += 1.0
        c = Bt @ np.linalg.solve(S, v)
    else:
        # the same c by the push-through identity, with a width-sized solve
        M = PBt @ B
        diag = np.arange(width)
        M[:, diag, diag] += 1.0
        c = Bt @ (v - B @ np.linalg.solve(M, PBt @ v))
    d = [m[-1] + (P[-1] @ c)[:, :, 0]]
    for A, mj, Pj in zip(jacs[-2::-1], m[-2::-1], P[-2::-1]):
        c = A.transpose(0, 2, 1) @ c
        d.insert(0, mj + (Pj @ c)[:, :, 0])
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

    mu must be positive and finite.  The points are solved in fixed tiles
    of _z_tile(net) points, each tile as one batch; workers take whole
    tiles.  Each point's step takes one small solve (_z_chain_solve), for
    any number of coordinate blocks.  Its Gauss-Newton matrix is at least
    mu I, so its systems are nonsingular and the step is a descent
    direction wherever the gradient is nonzero.  The step starts
    from ``outs``, block_outputs(net, Z, data.X), computed here if not
    given.  Its entries 1.. are replaced in place by the outputs at the new
    coordinates, as the line search computed them; the rows of points that
    took no step are kept.
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
    # the layers before the last block are kept, so both nets' forward
    # passes continue from feats
    prefix = (slices[-1][0], feats)
    e1_before = nested_objective(net, data, prefix=prefix)
    try:
        fitted = fit_block(net, slices[-1], feats, data.Y, 1.0)
    except MacqpError:
        return net.copy()
    cand = net.copy()
    cand.layers[slices[-1][0] : slices[-1][1]] = fitted
    if nested_objective(cand, data, prefix=prefix) <= e1_before:
        return cand
    return net.copy()


def mac_train(net, data, schedule, workers=1, time_budget=None, z_init=None,
              sel_cfg=None):
    """Alternating W/Z optimization along the growing-penalty path.

    With a validation split, iterations within each mu stage run until
    the validation nested error increases or changes by less than the
    stage tolerance, and the best iterate seen in the stage is kept.
    Without one, each stage runs until the penalty objective stalls;
    the nested error is expected to rise transiently while feasibility
    is enforced, so it is not used as an exit signal.  With ``sel_cfg``
    given, a per-block architecture-selection step runs every
    ``sel_cfg.cadence`` iterations.

    Each block is evaluated once per change.  The call keeps every block's
    current output (block_outputs) and refreshes only the blocks a step
    changed: the accepted refits of a W-step, the resized blocks of a
    selection step, and every block when the best iterate is restored.
    The Z-step starts from these outputs and hands back those of the
    blocks fed by coordinates at its accepted points.  The trace rows and
    the W- and selection steps (the current blocks' objective) read them
    too.  A row computes E1 only after the weights changed (a W-step, a
    selection step or a restore); a zstep or mu_increase row repeats the
    last values.  Each block also has a {size: (centers, design matrix,
    Gram matrix)} table of RBF fits at its inputs, shared by the W- and
    selection steps, so a size is clustered once per inputs.  The first
    block's inputs are data.X, so its table lasts the whole call, and its
    k-means runs start from seed 0.  When a Z-step or a restore changes
    the inputs of a block fed by coordinates, its table keeps only each
    size's centers: the next k-means at that size starts from them (warm
    start), as the coordinates move little from one step to the next.  A
    restore then puts back the entries made at the restored coordinates,
    so no size is clustered twice on the same inputs.  A size fitted for
    the first time starts from seed 0.
    """
    net = net.copy()
    Z = z_init.copy() if z_init is not None else lift_to_feasible(net, data.X)
    trace = TrainTrace()
    if schedule.max_stages == 0:
        return net, Z, trace

    if sel_cfg is not None:
        from .selection import aic_cost, selection_step

    t0 = time.perf_counter()
    mu = schedule.mu0
    transient = schedule.transient_reg
    it = 0
    iters_since_selection = 0
    stop = False
    slices = block_slices(net)
    outs = block_outputs(net, Z, data.X)
    tables = [{} for _ in slices]

    track_val = data.val_X is not None
    val_data = data.eval_split()

    def moved_since(before):
        """The blocks fed by coordinates that differ from ``before``'s; their
        tables keep only each size's centers, as k-means starts."""
        moved = [j for j in range(1, len(slices))
                 if not np.array_equal(Z.coords[j - 1], before.coords[j - 1])]
        for j in moved:
            for m, entry in tables[j].items():
                tables[j][m] = (entry[0], None, None)
        return moved

    # (e1_train, e1_val) at the current weights; None once a W-step, a
    # selection step or a restore changes them, until the next row
    e1 = None

    def record(event):
        nonlocal e1
        if e1 is None:
            e1_train = nested_objective(net, data, prefix=(slices[0][1], outs[0]))
            e1 = (e1_train, nested_objective(net, val_data) if track_val else e1_train)
        trace.add(
            it,
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
            best_fits = None
        for _ in range(schedule.max_iters_per_stage):
            net = w_step(net, Z, data, mu, transient_reg=transient, outs=outs, tables=tables)
            e1 = None
            it += 1
            record("wstep")
            if track_val and best_fits is None:
                # best's tables, before a Z-step moves its coordinates; entries
                # are replaced, never changed in place, so shallow copies keep them
                best_fits = [dict(t) for t in tables]
            Z_before = Z
            Z = z_step(net, Z, data, mu, workers=workers, outs=outs)
            moved_since(Z_before)
            it += 1
            row = record("zstep")

            if sel_cfg is not None:
                iters_since_selection += 1
                if iters_since_selection >= sel_cfg.cadence:
                    iters_since_selection = 0
                    before_total = row.eq + aic_cost(net, sel_cfg.epsilon_sq)
                    net = selection_step(net, Z, data, mu, sel_cfg, transient_reg=transient,
                                         outs=outs, tables=tables)
                    e1 = None
                    it += 1
                    row = record("model_select")
                    trace.selection_events.append(
                        {
                            "iteration": it - 1,
                            "before": before_total,
                            "after": row.eq + aic_cost(net, sel_cfg.epsilon_sq),
                            "sizes": [l.spec.out_dim for l in net.layers],
                        }
                    )

            cur = stage_signal(row)
            if track_val and cur < best[2]:
                best = (net.copy(), Z.copy(), cur)
                best_fits = None
            if time_budget is not None and time.perf_counter() - t0 > time_budget:
                stop = True
                break
            if track_val and cur > prev:
                break
            if abs(cur - prev) / max(1.0, abs(cur)) < schedule.stage_tolerance:
                prev = cur
                break
            prev = cur
        if track_val:
            Z_before = Z
            net, Z = best[0], best[1]
            e1 = None
            for j in moved_since(Z_before):
                # the fits made at the restored coordinates hold again
                tables[j].update((m, e) for m, e in best_fits[j].items() if e[1] is not None)
            outs[:] = [_block_output(net.layers[a:b], A, t, start=a) for (a, b), A, t
                       in zip(slices, _block_inputs(net, Z, data.X), tables)]
        if stop or stage == schedule.max_stages - 1:
            break
        mu *= schedule.growth
        if mu > schedule.reg_drop_threshold:
            transient = 0.0
        it += 1
        row = record("mu_increase")
        if time_budget is not None and time.perf_counter() - t0 > time_budget:
            break
    return net, Z, trace

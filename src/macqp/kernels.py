"""Hot numeric kernels: the logistic sigmoid and Gaussian basis responses."""

import numpy as np

__all__ = ["sigmoid", "rbf_design", "row_sq_norms", "sq_dist"]


def sigmoid(t):
    """Logistic sigmoid, overflow-safe: 1/(1+e^-t) for t >= 0, e^t/(1+e^t) below.

    Both branches share e = exp(-|t|), so no element is gathered or
    scattered by a mask; each rounds exactly as its formula does.  -|t| is
    taken as min(t, -t), which passes a NaN on with its sign, as exp(t) did.
    """
    t = np.ascontiguousarray(t, dtype=np.float64)
    e = np.negative(t)
    np.minimum(t, e, out=e)
    np.exp(e, out=e)
    out = np.where(t >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def row_sq_norms(X):
    """Each row's squared norm |x_n|^2 as a column, shape (N, 1)."""
    return np.sum(X * X, axis=1)[:, None]


def sq_dist(X, C, x_sq=None):
    """Squared distances ||x_n - c_m||^2, shape (N, M).

    Expanded as (|x|^2 - 2 x.c) + |c|^2, so entries may round slightly
    below zero; callers that need them nonnegative clamp.  ``x_sq`` is
    row_sq_norms(X), for a caller that measures many C against one X.
    """
    # in place, in the order of the expansion: a + (-2 b) rounds as a - 2 b;
    # scaling C by -2 scales every product and partial sum exactly, so
    # X (-2 C)^T is -2 (X C^T) bit for bit outside the subnormal range
    d2 = X @ (-2.0 * C).T
    d2 += row_sq_norms(X) if x_sq is None else x_sq
    d2 += np.sum(C * C, axis=1)[None, :]
    return d2


def rbf_design(X, C, width):
    """Gaussian basis responses exp(-||x_n - c_m||^2 / width^2), shape (N, M)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    width = float(width)
    out = sq_dist(X, C)
    np.maximum(out, 0.0, out=out)
    np.negative(out, out=out)
    out /= width * width
    return np.exp(out, out=out)

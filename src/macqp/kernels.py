"""Hot numeric kernels: the logistic sigmoid and Gaussian basis responses."""

import numpy as np

__all__ = ["sigmoid", "rbf_design", "row_sq_norms", "sq_dist"]


def sigmoid(t):
    """Logistic sigmoid, evaluated with the overflow-safe branch for t<0."""
    t = np.ascontiguousarray(t, dtype=np.float64)
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
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
    # in place, in the order of the expansion: a + (-2 b) rounds as a - 2 b
    d2 = X @ C.T
    d2 *= -2.0
    d2 += row_sq_norms(X) if x_sq is None else x_sq
    d2 += np.sum(C * C, axis=1)[None, :]
    return d2


def rbf_design(X, C, width):
    """Gaussian basis responses exp(-||x_n - c_m||^2 / width^2), shape (N, M)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    width = float(width)
    sq = sq_dist(X, C)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (width * width))

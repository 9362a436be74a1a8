"""Hot numeric kernels, with numba-jitted and pure-numpy implementations.

The jitted path is the default.  Set ``MACQP_DISABLE_NUMBA=1`` in the
environment (before import) to force the numpy path, e.g. to avoid JIT
warm-up cost in short-lived processes or to benchmark the two against
each other (``macqp bench-kernels``).
"""

import os

import numpy as np

__all__ = ["sigmoid", "rbf_design", "sq_dist", "backend_name", "NUMBA_ENABLED"]


def _sigmoid_np(t):
    """Logistic sigmoid, evaluated with the overflow-safe branch for t<0."""
    out = np.empty_like(t, dtype=np.float64)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    et = np.exp(t[~pos])
    out[~pos] = et / (1.0 + et)
    return out


def sq_dist(X, C):
    """Squared distances ||x_n - c_m||^2, shape (N, M).

    Expanded as |x|^2 - 2 x.c + |c|^2, so entries may round slightly
    below zero; callers that need them nonnegative clamp.
    """
    return (
        np.sum(X * X, axis=1)[:, None]
        - 2.0 * (X @ C.T)
        + np.sum(C * C, axis=1)[None, :]
    )


def _rbf_design_np(X, C, width):
    """Gaussian basis responses exp(-||x_n - c_m||^2 / width^2), shape (N, M)."""
    sq = sq_dist(X, C)
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-sq / (width * width))


_want_numba = os.environ.get("MACQP_DISABLE_NUMBA", "0") != "1"
NUMBA_ENABLED = False

if _want_numba:
    try:
        from numba import njit

        @njit(cache=True, nogil=True)
        def _sigmoid_nb(t):
            flat = t.ravel()
            out = np.empty(flat.shape[0], dtype=np.float64)
            for i in range(flat.shape[0]):
                v = flat[i]
                if v >= 0.0:
                    out[i] = 1.0 / (1.0 + np.exp(-v))
                else:
                    e = np.exp(v)
                    out[i] = e / (1.0 + e)
            return out.reshape(t.shape)

        @njit(cache=True, nogil=True)
        def _rbf_design_nb(X, C, width):
            n, d = X.shape
            m = C.shape[0]
            inv_w2 = 1.0 / (width * width)
            out = np.empty((n, m), dtype=np.float64)
            for i in range(n):
                for j in range(m):
                    s = 0.0
                    for k in range(d):
                        diff = X[i, k] - C[j, k]
                        s += diff * diff
                    out[i, j] = np.exp(-s * inv_w2)
            return out

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False


def sigmoid(t):
    t = np.ascontiguousarray(t, dtype=np.float64)
    if NUMBA_ENABLED:
        return _sigmoid_nb(t)
    return _sigmoid_np(t)


def rbf_design(X, C, width):
    X = np.ascontiguousarray(X, dtype=np.float64)
    C = np.ascontiguousarray(C, dtype=np.float64)
    if NUMBA_ENABLED:
        return _rbf_design_nb(X, C, float(width))
    return _rbf_design_np(X, C, float(width))


def backend_name():
    return "numba" if NUMBA_ENABLED else "numpy"

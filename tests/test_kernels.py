"""The kernels against scalar formulas; the package's import footprint."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import macqp
from conftest import slow_sigmoid
from macqp import kernels


def _bits(a):
    """float64 bit patterns, so that NaNs compare by sign and payload too."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _unfolded_sq_dist(X, C):
    """(|x|^2 + (-2) x.c) + |c|^2, with the product scaled after the matmul."""
    x_sq = np.sum(X * X, axis=1)[:, None]
    c_sq = np.sum(C * C, axis=1)[None, :]
    return (x_sq + (-2.0) * (X @ C.T)) + c_sq


class TestSigmoid:
    def test_matches_scalar_formula(self, rng):
        t = rng.normal(scale=3.0, size=(20, 7))
        got = kernels.sigmoid(t)
        want = np.vectorize(lambda v: 1.0 / (1.0 + math.exp(-v)))(t)
        np.testing.assert_allclose(got, want, rtol=1e-15)

    def test_extreme_arguments_are_stable(self):
        t = np.array([-1e4, -750.0, 0.0, 750.0, 1e4])
        out = kernels.sigmoid(t)
        assert np.all(np.isfinite(out))
        assert out[0] == 0.0 and out[-1] == 1.0
        assert out[2] == 0.5

    def _check_bitwise(self, t):
        t = np.asarray(t)
        before = t.copy()
        got = kernels.sigmoid(t)
        np.testing.assert_array_equal(_bits(got), _bits(slow_sigmoid(t)))
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == t.shape
        np.testing.assert_array_equal(t, before)

    @pytest.mark.parametrize("shape", [(257,), (24, 120), (3, 5, 7)])
    def test_matches_masked_branches_bitwise(self, rng, shape):
        for scale in (1.0, 40.0, 800.0):
            self._check_bitwise(rng.uniform(-scale, scale, size=shape))

    def test_layouts_and_integers_match_masked_branches_bitwise(self, rng):
        base = rng.uniform(-800.0, 800.0, size=(30, 20))
        for t in (np.asfortranarray(base), base[::2, ::3], base.T,
                  rng.integers(-800, 800, size=(6, 9))):
            self._check_bitwise(t)

    def test_special_values_match_masked_branches_bitwise(self):
        self._check_bitwise([
            0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.8, -709.8,
            745.2, -745.2, 1e-300, -1e-300,
        ])


class TestSqDist:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_matches_unfolded_expansion_bitwise(self, rng, d, order):
        X = np.asarray(rng.normal(size=(97, d)) * 3.0, order=order)
        C = np.asarray(rng.normal(size=(13, d)), order=order)
        # centres equal to points, as k-means seeds them; copies, as there:
        # numpy computes X @ X.T of one buffer by a symmetric rank-k update
        for centers in (C, X[:40].copy(order=order), X.copy(order=order)):
            want = _unfolded_sq_dist(X, centers)
            np.testing.assert_array_equal(kernels.sq_dist(X, centers), want)
            np.testing.assert_array_equal(
                kernels.sq_dist(X, centers, kernels.row_sq_norms(X)), want
            )


class TestRbfDesign:
    def test_matches_scalar_formula(self, rng):
        X = rng.normal(size=(9, 4))
        C = rng.normal(size=(5, 4))
        width = 1.7
        got = kernels.rbf_design(X, C, width)
        for i in range(9):
            for j in range(5):
                want = math.exp(-float(np.sum((X[i] - C[j]) ** 2)) / width**2)
                assert got[i, j] == pytest.approx(want, rel=1e-12)

    def test_center_at_point_gives_one(self, rng):
        X = rng.normal(size=(3, 5))
        out = kernels.rbf_design(X, X, 2.0)
        np.testing.assert_allclose(np.diag(out), np.ones(3), rtol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_matches_clamped_unfolded_formula_bitwise(self, rng, d):
        X = rng.normal(size=(60, d))
        for C in (rng.normal(size=(11, d)), X[:25]):
            for width in (0.3, 1.7, 2.0):
                want = np.exp(-np.maximum(_unfolded_sq_dist(X, C), 0.0) / (width * width))
                got = kernels.rbf_design(X, C, width)
                np.testing.assert_array_equal(got, want)
                assert got.flags.c_contiguous


def test_import_loads_no_third_party_module_but_numpy():
    # scipy is a test-only dependency, and no compiled-kernel backend remains
    src = os.path.dirname(os.path.dirname(os.path.abspath(macqp.__file__)))
    code = (
        "import sys; before = set(sys.modules); import macqp; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(sorted(new - set(sys.stdlib_module_names)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "['macqp', 'numpy']"

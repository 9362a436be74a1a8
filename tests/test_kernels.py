"""The kernels against scalar formulas; the package's import footprint."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import macqp
from macqp import kernels


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

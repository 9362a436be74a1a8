"""Deterministic parallel execution of independent subproblems."""

import sys
import threading

import numpy as np
import pytest

import macqp.mac
from conftest import sigmoid_autoencoder
from macqp.harness import run_experiment
from macqp.mac import AuxState, _z_tile, lift_to_feasible, w_step, z_step
from macqp.model import Dataset, MacqpError
from macqp.parallel import parallel_map, speedup_bench


class TestParallelMap:
    def test_results_in_index_order(self):
        tasks = [lambda i=i: i * i for i in range(17)]
        assert parallel_map(tasks, 4) == [i * i for i in range(17)]
        assert parallel_map(tasks, 1) == [i * i for i in range(17)]

    def test_fewer_tasks_than_workers(self):
        assert parallel_map([lambda: "a", lambda: "b"], 8) == ["a", "b"]

    def test_failing_task_names_its_index(self):
        def boom():
            raise ValueError("broken")

        tasks = [lambda: 1, boom, lambda: 3]
        with pytest.raises(MacqpError, match="task 1"):
            parallel_map(tasks, 2)
        with pytest.raises(MacqpError, match="task 1"):
            parallel_map(tasks, 1)

    def test_empty_task_list(self):
        assert parallel_map([], 4) == []

    def test_one_pool_per_worker_count(self):
        names = set()

        def task():
            names.add(threading.current_thread().name)

        for _ in range(20):
            parallel_map([task] * 6, 3)
        assert 1 <= len(names) <= 3

    def test_concurrent_callers(self):
        # more callers and workers than cores, first calls racing to create
        # the pool: each caller gets its own results, and one pool serves all
        workers, names, results = 5, set(), {}

        def caller(c):
            for r in range(30):
                tasks = [
                    lambda i=i: names.add(threading.current_thread().name) or (c, r, i)
                    for i in range(7)
                ]
                results[c, r] = parallel_map(tasks, workers)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(c,)) for c in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert results == {
            (c, r): [(c, r, i) for i in range(7)] for c in range(6) for r in range(30)
        }
        assert len(names) <= workers


def _spy_z_step_workers(monkeypatch):
    """The ``workers`` argument of each mac.z_step call, in call order."""
    seen = []
    z_step_fn = macqp.mac.z_step

    def spy(*args, workers=1, **kwargs):
        seen.append(workers)
        return z_step_fn(*args, workers=workers, **kwargs)

    monkeypatch.setattr(macqp.mac, "z_step", spy)
    return seen


def _small_mac_config(**extra):
    return dict({
        "method": "mac",
        "dataset": {"synth": {"n": 40, "ambient_dim": 8, "intrinsic_dim": 1}},
        "architecture": {"layers": [
            {"kind": "sigmoid_dense", "in_dim": 8, "out_dim": 2},
            {"kind": "linear_dense", "in_dim": 2, "out_dim": 8},
        ]},
        "schedule": {"max_stages": 1, "max_iters_per_stage": 2},
    }, **extra)


class TestWorkerCount:
    # the environment does not set the worker count: MAC_WORKERS, once an
    # override, is not read, whatever it holds
    @pytest.mark.parametrize("env", ["1", "0", "four"])
    def test_run_uses_configured_workers(self, tmp_path, monkeypatch, env):
        monkeypatch.setenv("MAC_WORKERS", env)
        seen = _spy_z_step_workers(monkeypatch)
        run_experiment(_small_mac_config(output_dir=str(tmp_path), parallel={"workers": 2}))
        assert seen and set(seen) == {2}


class TestSpeedupBench:
    def test_runs_each_requested_worker_count(self, tmp_path, monkeypatch):
        # the environment does not set the worker count: MAC_WORKERS is not read
        monkeypatch.setenv("MAC_WORKERS", "1")
        seen = _spy_z_step_workers(monkeypatch)
        rows = speedup_bench(_small_mac_config(), [1, 2, 3], base_output_dir=str(tmp_path))
        assert [r[0] for r in rows] == [1, 2, 3]
        per_run = len(seen) // 3
        assert per_run > 0 and seen == [w for w in (1, 2, 3) for _ in range(per_run)]


class TestStepDeterminism:
    def _problem(self, rng):
        net = sigmoid_autoencoder((8, 5, 3, 5, 8), seed=13)
        # three Z-step tiles, the last one short
        X = rng.uniform(size=(2 * _z_tile(net) + 5, 8))
        data = Dataset(X, X)
        Z = AuxState(
            [c + 0.1 * rng.normal(size=c.shape)
             for c in lift_to_feasible(net, X).coords]
        )
        return net, data, Z

    def test_w_step_bit_identical_across_unit_groups(self, rng, monkeypatch):
        # the W-step runs no tasks; its one batching choice, the size of
        # the unit groups its Gauss-Newton matrices are built in, must not
        # change its rounding: one unit per group, groups of three units
        # (the last one short) and every unit in one group
        net, data, Z = self._problem(rng)
        whole = w_step(net, Z, data, 2.0)
        elems = 9 * data.n  # one 8 -> 5 unit: 8 inputs and a bias, N points
        for group_elems in (1, 3 * elems):
            monkeypatch.setattr(macqp.mac, "W_GROUP_ELEMS", group_elems)
            grouped = w_step(net, Z, data, 2.0)
            for a, b in zip(whole.layers, grouped.layers):
                np.testing.assert_array_equal(a.weights.matrix, b.weights.matrix)

    def test_z_step_bit_identical_across_workers(self, rng):
        net, data, Z = self._problem(rng)
        serial = z_step(net, Z, data, 2.0, workers=1)
        for w in (2, 4, 7):
            par = z_step(net, Z, data, 2.0, workers=w)
            for a, b in zip(serial.coords, par.coords):
                np.testing.assert_array_equal(a, b)

"""Tests of the benchmark itself, on its smoke mode (tiny N, one stage).

    python3 -m pytest -q perfbench
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import rep  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(["--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if not line.startswith("#")}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert printed[m["name"]] == m["unit"], m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_puts_back_every_wrapped_function(workload):
    import macqp

    for mod in {mod for mod, _, _, _ in rep.TRACE_POINTS}:
        importlib.import_module(f"macqp.{mod}")
    before = {
        (mod, attr): getattr(getattr(macqp, mod), attr) for mod, attr, _, _ in rep.TRACE_POINTS
    }
    before[("mac.TrainTrace", "to_csv")] = macqp.mac.TrainTrace.to_csv
    harness_before = {a: getattr(macqp.harness, a)
                      for a in ("build_dataset", "mac_train", "mac_train_with_selection")}
    out = rep.run(workload, 1, time.monotonic(), traced=True, smoke=True)
    assert out["checks"]["wrappers_restored"] == [1, 0]
    for (mod, attr), fn in before.items():
        if mod == "mac.TrainTrace":
            assert macqp.mac.TrainTrace.to_csv is fn
        else:
            assert getattr(getattr(macqp, mod), attr) is fn, (mod, attr)
    for attr, fn in harness_before.items():
        assert getattr(macqp.harness, attr) is fn, attr


def test_composed_times_sum_each_steps_fastest_repetition():
    import run

    def rep(seconds, train, total):
        return {"steps": {"seconds": seconds, "i_e1": 1, "i_viol": 2, "point_iters": 60},
                "metrics": {"train_s": train, "total_s": total}}

    # step durations 1, 2, 3 and 2, 1, 4: fastest 1, 1, 3; outside the rows 0.5 and 0.25
    got = run._composed([rep([1.0, 3.0, 6.0], 6.5, 7.0), rep([2.0, 3.0, 7.0], 7.25, 7.5)])
    assert got == pytest.approx({"train_s": 5.25, "total_s": 5.5, "point_iters_per_s": 60 / 5.25,
                                 "t_e1_target_s": 2.0, "t_viol_target_s": 5.0})
    assert run._composed([rep([1.0, 3.0, 6.0], 6.5, 7.0), rep([1.0, 3.0], 3.5, 4.0)]) is None


def test_same_seed_same_inputs_and_seeds_differ():
    import numpy as np
    import workloads
    from macqp.data import synth_manifold_dataset
    from macqp.model import Dataset

    for name in WORKLOADS:
        wl = workloads.get(name, smoke=True)
        a, b, c = (workloads.make_inputs(wl, s, synth_manifold_dataset, Dataset)
                   for s in (1, 1, 2))
        np.testing.assert_array_equal(a.X, b.X)
        pair = (a.val_X, c.val_X) if wl["permute"] == "val_rows" else (a.X, c.X)
        assert not np.array_equal(*pair), name


def test_fails_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout

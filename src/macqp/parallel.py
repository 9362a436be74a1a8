"""Deterministic data-parallel execution of independent subproblems.

Phases (weight updates, coordinate updates, candidate fits) are barriers;
within a phase every task is a pure function writing a disjoint slot.
Results are merged in task-index order, so the outcome is bit-identical
for any worker count.
"""

import hashlib
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

from .model import MacqpError, check_count

# One executor per worker count, kept for the life of the process: a
# training run calls parallel_map once per W- and Z-step.
_POOLS = {}
_POOLS_LOCK = threading.Lock()


def parse_worker_count(text, name):
    """A worker count written as text; a ConfigError names ``name`` unless
    it is an integer >= 1."""
    text = text.strip()
    value = int(text) if text.isdecimal() else text
    check_count(value, name, 1)
    return value


def parallel_map(tasks, workers):
    """Run zero-argument tasks and return their results in index order.

    With one worker this is a plain serial loop.  A failing task aborts
    the whole phase with an error naming its index.
    """
    tasks = list(tasks)
    if workers <= 1 or len(tasks) <= 1:
        out = []
        for i, t in enumerate(tasks):
            try:
                out.append(t())
            except MacqpError:
                raise
            except Exception as exc:
                raise MacqpError(f"task {i} failed: {exc}") from exc
        return out
    pool = _pool(workers)
    futures = [pool.submit(t) for t in tasks]
    try:
        out = []
        for i, fut in enumerate(futures):
            try:
                out.append(fut.result())
            except MacqpError:
                raise
            except Exception as exc:
                raise MacqpError(f"task {i} failed: {exc}") from exc
        return out
    finally:
        # a failed phase leaves no task of it running into the next one
        for fut in futures:
            fut.cancel()
        wait(futures)


def _pool(workers):
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(max_workers=workers)
        return pool


def speedup_bench(config, worker_counts, base_output_dir=None):
    """Run the identical experiment per worker count and time it.

    Returns rows of (workers, seconds, speedup-vs-first).  The
    correctness gate is checkpoint equality across worker counts, checked
    here by hash; a mismatch is an error.
    """
    from . import harness  # deferred: harness imports mac, which imports this module

    rows = []
    digests = set()
    for w in worker_counts:
        cfg = harness.override_workers(config, w)
        if base_output_dir is not None:
            cfg["output_dir"] = os.path.join(base_output_dir, f"workers_{w}")
        t0 = time.perf_counter()
        result = harness.run_experiment(cfg)
        seconds = time.perf_counter() - t0
        with open(result["model_path"], "rb") as fh:
            digests.add(hashlib.sha256(fh.read()).hexdigest())
        speedup = rows[0][1] / seconds if rows else 1.0
        rows.append((w, seconds, speedup))
    if len(digests) > 1:
        raise MacqpError("checkpoints differ across worker counts")
    return rows

"""Deterministic data-parallel execution of independent subproblems.

Phases (weight updates, coordinate updates, candidate fits) are barriers;
within a phase every task is a pure function writing a disjoint slot.
Results are merged in task-index order, so the outcome is bit-identical
for any worker count.
"""

import threading

from .model import MacqpError

# One executor per worker count, kept for the life of the process: a
# training run calls parallel_map once per W- and Z-step.  concurrent.futures
# (and the logging it loads) is imported only when a pool is made.
_POOLS = {}
_POOLS_LOCK = threading.Lock()


def parallel_map(tasks, workers):
    """Run zero-argument tasks and return their results in index order.

    With one worker this is a plain serial loop.  A failing task aborts
    the whole phase with an error naming its index.
    """
    tasks, futures = list(tasks), []
    if workers > 1 and len(tasks) > 1:
        pool = _pool(workers)
        futures = [pool.submit(t) for t in tasks]
        tasks = [fut.result for fut in futures]
    try:
        out = []
        for i, t in enumerate(tasks):
            try:
                out.append(t())
            except MacqpError:
                raise
            except Exception as exc:
                raise MacqpError(f"task {i} failed: {exc}") from exc
        return out
    finally:
        if futures:  # a failed phase leaves no task of it running into the next one
            from concurrent.futures import wait

            for fut in futures:
                fut.cancel()
            wait(futures)


def _pool(workers):
    from concurrent.futures import ThreadPoolExecutor

    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ThreadPoolExecutor(max_workers=workers)
        return pool

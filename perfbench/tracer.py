"""Span tracing of macqp from outside the package.

A ``Tracer`` replaces public functions at the module attributes through
which macqp calls them (``macqp.mac.z_step``, ``macqp.model.sigmoid``,
...) with wrappers that record one span per call: its id, name, parent
span id, start and end.  Spans are kept in per-thread arrays in memory and
analysed and written to disk when the traced run ends.  ``patched`` sets
the wrappers for the duration of a ``with`` block, puts every original
back and records whether it did.

Thread pools: the ``parallel_map`` wrapper wraps each task so that spans
recorded in a worker thread name the ``parallel_map`` span as their
ancestor, and records one ``<module>.task`` span per task (busy time),
named after the module that defined the task, whose code it runs.
"""

import contextlib
import functools
import itertools
import threading
import time
from array import array

import numpy as np

# Span names whose calls, made directly from mac_train, are the training loop's
# own bookkeeping (trace rows and stage-exit tests).
BOOKKEEPING = ("mac.qp_objective", "mac.constraint_residuals", "model.nested_objective")
TASK_SUFFIX = ".task"


class _Buffer:
    """Spans and counters of one thread."""

    def __init__(self, parent):
        self.ids = array("q")
        self.names = array("q")
        self.parents = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [parent]
        self.counters = {}

    def record(self, sid, name_id, parent, t0, t1):
        self.ids.append(sid)
        self.names.append(name_id)
        self.parents.append(parent)
        self.t0.append(t0)
        self.t1.append(t1)

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n


@contextlib.contextmanager
def patched(patches, restored):
    """Set ``(module, attr, value)`` attributes; put the originals back after,
    appending to ``restored`` whether every one is back."""
    saved = [(m, a, getattr(m, a)) for m, a, _ in patches]
    for m, a, v in patches:
        setattr(m, a, v)
    try:
        yield
    finally:
        for m, a, o in reversed(saved):
            setattr(m, a, o)
        restored.append(all(getattr(m, a) is o for m, a, o in saved))


class Tracer:
    """Span recorder for the functions at ``targets``.

    ``targets`` is a list of ``(module, attribute, span_name, hook)``;
    ``hook(count, args, kwargs, result)``, if given, runs after the call,
    outside its span; ``count(key, n)`` adds to a per-thread counter.
    """

    def __init__(self, targets):
        self._targets = list(targets)
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self.names = []
        self._name_ids = {}

    # -- recording ---------------------------------------------------------

    def _buffer(self, parent=-1):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = _Buffer(parent)
            self._local.buf = buf
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, hook):
        name_id = self._name_id(name)
        ids, buffer, clock = self._ids, self._buffer, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = buffer()
            sid = next(ids)
            stack = buf.stack
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.record(sid, name_id, parent, t0, t1)
            if hook is not None:
                hook(buf.count, args, kwargs, out)
            return out

        return wrapper

    def _wrap_parallel_map(self, fn, name, hook):
        name_id = self._name_id(name)
        ids, buffer, clock, local = self._ids, self._buffer, time.perf_counter, self._local

        def traced_task(task, parent):
            module = getattr(task, "__module__", None) or "unknown"
            task_id = self._name_id(module.rsplit(".", 1)[-1] + TASK_SUFFIX)

            def run():
                buf = getattr(local, "buf", None) or buffer(parent)
                sid = next(ids)
                buf.stack.append(sid)
                t0 = clock()
                try:
                    return task()
                finally:
                    t1 = clock()
                    buf.stack.pop()
                    buf.record(sid, task_id, parent, t0, t1)
            return run

        @functools.wraps(fn)
        def wrapper(tasks, workers, *args, **kwargs):
            tasks = list(tasks)
            buf = buffer()
            sid = next(ids)
            parent = buf.stack[-1]
            buf.stack.append(sid)
            t0 = clock()
            try:
                out = fn([traced_task(t, sid) for t in tasks], workers, *args, **kwargs)
            finally:
                t1 = clock()
                buf.stack.pop()
                buf.record(sid, name_id, parent, t0, t1)
            buf.count("parallel.tasks", len(tasks))
            buf.count("parallel.worker_s", (t1 - t0) * max(1, min(workers, len(tasks))))
            return out

        return wrapper

    def patches(self):
        """``(module, attr, wrapper)`` for every target, for ``patched``."""
        out = []
        for module, attr, name, hook in self._targets:
            wrap = self._wrap_parallel_map if name == "parallel.parallel_map" else self._wrap
            out.append((module, attr, wrap(getattr(module, attr), name, hook)))
        return out

    # -- analysis ----------------------------------------------------------

    def spans(self):
        """All spans as numpy arrays, indexed by span id."""
        bufs = list(self._buffers)
        cat = lambda key, dt: np.concatenate(
            [np.frombuffer(getattr(b, key), dtype=dt) for b in bufs]
            or [np.empty(0, dtype=dt)]
        )
        ids = cat("ids", np.int64)
        order = np.argsort(ids, kind="stable")
        ids = ids[order]
        if len(ids) and not np.array_equal(ids, np.arange(len(ids))):
            raise RuntimeError("span ids are not dense: a span never ended")
        return {
            "name": cat("names", np.int64)[order],
            "parent": cat("parents", np.int64)[order],
            "t0": cat("t0", np.float64)[order],
            "t1": cat("t1", np.float64)[order],
        }

    def counters(self):
        total = {}
        for b in list(self._buffers):
            for k, v in b.counters.items():
                total[k] = total.get(k, 0) + v
        return total

    def write(self, path):
        """Write the spans as a .npz file with the name table."""
        sp = self.spans()
        np.savez(path, names=np.array(self.names), **sp)

    def summary(self):
        """Per-name calls, inclusive and self seconds; per-module self seconds."""
        sp = self.spans()
        n = len(sp["t0"])
        dur = sp["t1"] - sp["t0"]
        parent = sp["parent"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        task_ids = [i for i, name in enumerate(self.names) if name.endswith(TASK_SUFFIX)]
        if task_ids:
            # tasks of one parallel_map may overlap in time: use their union
            tasks = np.flatnonzero(np.isin(sp["name"], task_ids))
            by_parent = {}
            for i in tasks:
                by_parent.setdefault(int(parent[i]), []).append((sp["t0"][i], sp["t1"][i]))
            for p, ivals in by_parent.items():
                covered[p] = _union_length(ivals)
        self_s = dur - covered
        k = len(self.names)
        calls = np.bincount(sp["name"], minlength=k)
        incl = np.bincount(sp["name"], weights=dur, minlength=k)
        excl = np.bincount(sp["name"], weights=self_s, minlength=k)
        per_name = {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.names)
        }
        per_module = {}
        for name, row in per_name.items():
            mod = name.split(".")[0]
            per_module[mod] = per_module.get(mod, 0.0) + row["self_s"]
        train_id = self._name_ids.get("mac.mac_train")
        book = 0.0
        if train_id is not None and n:
            from_train = has_parent & (sp["name"][np.maximum(parent, 0)] == train_id)
            for name in BOOKKEEPING:
                if name in self._name_ids:
                    sel = from_train & (sp["name"] == self._name_ids[name])
                    book += float(dur[sel].sum())
        return {
            "spans": n,
            "per_name": per_name,
            "per_module_self_s": per_module,
            "bookkeeping_s": book,
            "task_s": float(sum(incl[i] for i in task_ids)),
            "counters": self.counters(),
        }


def _union_length(intervals):
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total

"""The functions the benchmark's tracer wraps still exist on the package.

A traced benchmark run looks up every ``(module, attribute)`` pair of
``perfbench/rep.py``'s ``TRACE_POINTS`` on ``macqp`` and fails if one is
gone, so renaming or removing such a function must update the benchmark.
"""

import ast
import importlib
import os

REP = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "perfbench", "rep.py")


def _trace_points():
    # read, not imported: rep.py sets BLAS thread variables in os.environ
    with open(REP) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [
            "TRACE_POINTS"
        ]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACE_POINTS in {REP}")


def test_every_traced_attribute_exists():
    points = _trace_points()
    assert points
    missing = [
        (mod, attr) for mod, attr, _, _ in points
        if not callable(getattr(importlib.import_module(f"macqp.{mod}"), attr, None))
    ]
    assert missing == []

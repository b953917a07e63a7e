"""The map that enumeration runs its per-break work through.

It is serial: the work is pure Python, so threads under the GIL bought no
speed.  The module stays as the one named seam around that work, which the
benchmark's tracer (`benchmark/spans.py`, imported by `benchmark/worker.py`)
wraps to time and size it.
"""


def parallel_map(fn, items):
    """[fn(x) for x in items], in input order."""
    return [fn(x) for x in items]

"""A serial map, kept as a named seam for the benchmark.

No ftk code calls it since the census verbs stream one generator.  The
benchmark's tracer (`benchmark/spans.py`, imported by `benchmark/worker.py`)
still wraps it by name, so it stays until the benchmark drops that span.
"""


def parallel_map(fn, items):
    """[fn(x) for x in items], in input order."""
    return [fn(x) for x in items]

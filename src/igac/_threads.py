"""Order-preserving map for the wave-packet sweeps, run on the caller's
thread.  It stays a named function because the benchmark tracer binds
``parallel_map`` here and in ``scenarios``."""


def parallel_map(fn, items):
    """``[fn(x) for x in items]``."""
    return [fn(x) for x in items]

"""The tracemalloc peak of one call, for the tests' memory bounds."""

import tracemalloc


def traced_peak(fn, *args, **kwargs):
    """Peak bytes that tracemalloc sees while fn(*args, **kwargs) runs.

    Tracing starts and stops around the call alone, so what the caller
    built before it, such as a warm cache, does not count.
    """
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

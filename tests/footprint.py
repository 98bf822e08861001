"""Memory measurement shared by the test modules."""

import tracemalloc


def traced_peak(fn):
    """Run ``fn()`` under ``tracemalloc``; returns (the peak in bytes of what
    Python's allocators and numpy held during the call, ``fn``'s result)."""
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()

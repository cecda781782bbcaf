"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(run):
    """The peak of the memory tracemalloc traces while run() runs, in bytes.
    Lazy set-up that should stay out of the count is the caller's to run
    first."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

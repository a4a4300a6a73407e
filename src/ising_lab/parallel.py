"""Thread-pool helpers honoring the ISING_LAB_THREADS cap."""
import os

_ENV = "ISING_LAB_THREADS"


def thread_count() -> int:
    """Effective worker count: ISING_LAB_THREADS, with 0 or unset = auto."""
    raw = os.environ.get(_ENV, "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n


def parallel_map(fn, items):
    """Order-preserving map over a thread pool.

    Falls back to a plain loop for a single worker or a single item, so
    results (and any raised exception) are identical either way.  All the
    heavy callees release the GIL inside BLAS and numpy reductions.
    """
    items = list(items)
    workers = min(thread_count(), len(items)) if items else 0
    if workers <= 1:
        return [fn(it) for it in items]
    # imported here: a single-worker run never loads the pool machinery
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))

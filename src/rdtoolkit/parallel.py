"""Deterministic fan-out for embarrassingly parallel replication loops."""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

T = TypeVar("T")


def run_indexed(task: Callable[[int], T], count: int,
                threads: int = 1) -> Sequence[T]:
    """Evaluate ``task(0..count-1)``, returning results in index order.

    Each task must be a pure function of its index (replications derive
    their RNG from per-index substreams), so the output is identical for
    any worker count; callers combine the ordered results with exact
    summation to keep the reduction associativity-free.  The thread pool
    is imported only when one runs, so a serial call loads no
    ``concurrent.futures``.
    """
    if threads <= 1 or count <= 1:
        return [task(i) for i in range(count)]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=min(threads, count)) as pool:
        return list(pool.map(task, range(count)))

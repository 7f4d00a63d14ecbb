"""One ordered process map, shared by the sweeps and the pricing bench."""

from __future__ import annotations

import os


def _usable_cores() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn, tasks: list, jobs: int) -> list:
    """fn of every task, in task order, on min(jobs, len(tasks), usable
    cores) worker processes, or in this process when that is one.

    The pool forks all its workers up front, so the cap keeps a large
    jobs from starting workers with no task or no core to run on.  The
    tasks go out in about four chunks per worker, so many short tasks
    do not each cost a round trip.  Results come back in task order,
    so when each task carries its own seed the worker count never
    changes them.
    """
    workers = min(jobs, len(tasks), _usable_cores())
    if workers <= 1:
        return [fn(task) for task in tasks]
    # Imported here: most runs never start a pool.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=-(-len(tasks) // (4 * workers))))

"""The ordered process map: worker count capped by the work and the cores."""

import concurrent.futures

import pytest

from spintrng import parallel
from spintrng.sweeps import Axis, run_sweep, spec_for_axis
from spintrng.system import default_backends, speedup_report


@pytest.fixture
def pools(monkeypatch):
    """max_workers of every pool started, with four usable cores; the
    pools run their tasks serially in this process."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(parallel, "_usable_cores", lambda: 4)
    return started


@pytest.mark.parametrize(
    "jobs, n_tasks, workers",
    [(1, 10, None), (2, 10, 2), (10**6, 3, 3), (10**6, 10, 4), (3, 1, None), (5, 0, None)],
)
def test_workers_are_capped_by_tasks_and_cores(pools, jobs, n_tasks, workers):
    tasks = list(range(-n_tasks, 0))
    assert parallel.ordered_map(abs, tasks, jobs) == [abs(t) for t in tasks]
    assert pools == ([] if workers is None else [workers])


def test_bench_starts_one_worker_per_cell_at_most(pools):
    n_cells = len(default_backends())
    report = speedup_report(n_paths_grid=(100,), seed=5, jobs=10**6)
    assert pools == [min(n_cells, 4)]
    assert report == speedup_report(n_paths_grid=(100,), seed=5, jobs=1)


def test_sweep_starts_no_more_workers_than_cores(pools):
    spec = spec_for_axis(Axis.VOLTAGE, bits_per_point=10_000, seed=2)
    report = run_sweep(spec, jobs=10**6)
    assert pools == [4]
    assert report == run_sweep(spec, jobs=1)

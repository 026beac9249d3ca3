"""Test helpers for training runs: read a run's records back from its
metrics file, and map a run over seeds in worker processes."""

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from unittest import mock


def read_records(path: Path) -> list[dict]:
    """Every record of a metrics stream, in the order it was written."""
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()]


# a worker has one CPU: BLAS threads of its own would spin against the other workers for it
ONE_BLAS_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def map_seeds(run, seeds) -> list:
    """``[run(seed) for seed in seeds]``, with one worker process per seed
    up to the CPUs this process may run on, and in this process when that
    is one. Workers are spawned, not forked (this process may hold BLAS
    threads), so `run` must be a module-level function that builds its own
    inputs, and what it returns must pickle. Each worker starts with one
    BLAS thread."""
    workers = min(len(seeds), len(os.sched_getaffinity(0)))
    if workers == 1:
        return [run(seed) for seed in seeds]
    context = multiprocessing.get_context("spawn")
    # the workers are spawned inside map, so they inherit this environment
    with mock.patch.dict(os.environ, ONE_BLAS_THREAD), \
            ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(run, seeds))

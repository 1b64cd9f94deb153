"""Parallel sweep runner: fan independent simulation cells across cores.

Every figure sweep in this repo is a grid of *cells* — independent
(workload × size × config) simulations that share no state and build
their own kernels from explicit seeds.  This module runs such grids
either serially (``workers=1``, bit-identical to the historical loops)
or across a :class:`~concurrent.futures.ProcessPoolExecutor`.

Determinism contract
--------------------
Results are returned in cell order (``ProcessPoolExecutor.map``
preserves input order), every cell derives its RNG streams from the
explicit seed in its payload, and the serial path executes the exact
same cell function in-process — so ``workers=N`` reproduces
``workers=1`` exactly.  ``cell_seed`` derives stable per-cell seeds
from a base seed and the cell's coordinates (never from Python's
randomized ``hash``).

Observability
-------------
When tracing is enabled in the parent (``repro.cli --trace``), each
pool worker traces its cell afresh and ships the cell's ``spans``
payload back with the result; :func:`run_cells` folds every payload
into the parent's collected tracers, so the trace export of a fanned-out
sweep reports the same span names and counts as the serial one.
"""

from __future__ import annotations

import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.obs import (
    absorb,
    active_tracers,
    enable_tracing,
    reset_tracing,
    spans_payload,
    tracing_enabled,
)


def default_workers() -> int:
    """The default fan-out: one worker per core."""
    return os.cpu_count() or 1


def cell_seed(base_seed: int, *coords: Any) -> int:
    """Derive a deterministic per-cell seed from stable coordinates.

    Uses CRC32 over the repr of the coordinates, mixed with the base
    seed — stable across processes and Python runs (unlike ``hash``).
    """
    payload = repr(coords).encode("utf-8")
    return (base_seed * 1_000_003 + zlib.crc32(payload)) % (2**31 - 1)


@dataclass
class CellOutcome:
    """One cell's result plus bookkeeping the runner adds."""

    cell: Any
    result: Any
    #: The cell's ``spans`` payload, when a traced pool worker ran it.
    obs: Optional[dict] = None


def _run_cell(payload) -> CellOutcome:
    """Worker entry point; must stay module-level (pickled by the pool).

    ``traced`` is set only for pool workers: a worker process outlives
    its cell, so it drops the previous cell's tracers before tracing
    this one (the serial path records straight into the parent's)."""
    fn, cell, traced = payload
    if traced:
        reset_tracing()
        enable_tracing()
    result = fn(cell)
    obs = spans_payload(active_tracers()) if traced else None
    return CellOutcome(cell=cell, result=result, obs=obs)


def run_cells(
    fn: Callable[[Any], Any],
    cells: Sequence[Any],
    workers: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
) -> List[CellOutcome]:
    """Run ``fn(cell)`` for every cell; results come back in cell order.

    ``fn`` and each cell must be picklable (module-level function,
    plain-data payload).  ``workers=None`` uses one worker per core;
    ``workers=1`` runs serially in-process (no executor, no overhead).

    ``initializer``/``initargs`` run once per worker process before any
    cell (the hook the warm-model cache uses to preload pretrained
    models — see :mod:`repro.bench.model_cache`).  The serial path
    calls it once in-process so ``workers=1`` stays equivalent.
    """
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(cells) <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [_run_cell((fn, cell, False)) for cell in cells]
    traced = tracing_enabled()
    with ProcessPoolExecutor(
        max_workers=min(workers, len(cells)),
        initializer=initializer,
        initargs=initargs,
    ) as ex:
        outcomes = list(
            ex.map(_run_cell, [(fn, cell, traced) for cell in cells])
        )
    for outcome in outcomes:
        if outcome.obs is not None:
            absorb(outcome.obs)
    return outcomes


def run_grid(
    fn: Callable[[Any], Any],
    cells: Sequence[Any],
    workers: Optional[int] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: tuple = (),
) -> List[Any]:
    """Like :func:`run_cells` but returns just the raw results."""
    return [
        outcome.result
        for outcome in run_cells(
            fn, cells, workers, initializer=initializer, initargs=initargs
        )
    ]

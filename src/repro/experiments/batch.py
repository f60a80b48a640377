"""Batched sweep execution over the SoA engine (S25).

:func:`sweep` evaluates a (scenario × policy) grid through
:class:`repro.engine.batch.BatchRunner`: all cache-miss cells that share
one clock discipline (interval, horizon, tick) are stacked into a single
structure-of-arrays engine and advanced together, one vectorized tick
for the whole grid.  Rows are bit-identical to the serial
:func:`repro.experiments.runner.sweep` loop (test-enforced), so batching
composes transparently with the result cache:

* cache **hits** are served per cell by
  :func:`repro.experiments.cache.serve_lookup`, exactly as the serial
  loop serves them — the batch only computes the misses,
* every finished batch column is written back through
  :func:`repro.experiments.cache.store_result` as a normal per-cell
  entry, so later serial sweeps hit on batch-produced rows and vice
  versa.

Cells the batch engine cannot take are routed through the ordinary
serial path (:func:`repro.experiments.cache.run_cell`):

* scenarios using any reliability machinery — failure injection, spot
  revocation, checkpointing (the drivers are foreign kernel processes
  and the batch step has no checkpoint sweep),
* every cell when run-invariant validation is on (``REPRO_VALIDATE=1``):
  the validation hooks are a serial-engine feature, so the batch
  defers entirely rather than skip the checks — and since
  ``cache.run_cell`` also bypasses the cache under validation, no
  unvalidated batch row is ever stored,
* incompatible clock grids (mixed interval/period/tick) simply form
  separate batches.

Enable with ``REPRO_BATCH=1`` (or the CLI ``--batch`` flag); the default
is the serial path.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional, Sequence

from ..engine.batch import BatchRunner
from ..util import perf
from ..validate import invariants as _validate
from . import cache
from .runner import SweepRow
from .scenarios import Scenario
from .scenarios import build_manager as _build_manager

__all__ = ["enable", "disable", "enabled", "sweep"]

_enabled: bool = os.environ.get("REPRO_BATCH", "") in ("1", "true")


def enable() -> None:
    """Turn batched sweep execution on for this process."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn batched sweep execution off (the default)."""
    global _enabled
    _enabled = False


def enabled() -> bool:
    """Whether sweeps route through the batch engine."""
    return _enabled


def sweep(
    scenarios: Iterable[Scenario],
    policies: Sequence[str],
) -> list[SweepRow]:
    """Run every policy on every scenario through the batch engine.

    Returns rows in the serial order (scenario-major, policy-minor),
    each bit-identical to its serial counterpart.
    """
    cells = [
        (scenario, policy) for scenario in scenarios for policy in policies
    ]
    perf.add("sweep.cells", len(cells))
    rows: list[Optional[SweepRow]] = [None] * len(cells)

    if _validate.enabled():
        # Validation hooks only exist on the serial engine; defer the
        # whole grid so every cell is actually checked.  ``run_cell``
        # bypasses the cache under validation, so nothing unvalidated
        # (and nothing unchecked) is stored.
        return [cache.run_cell(s, p) for s, p in cells]

    batchable: list[int] = []
    for i, (scenario, policy) in enumerate(cells):
        if scenario.uses_reliability:
            # Failure injection, spot revocation and checkpointing are
            # serial-engine features (the drivers are foreign kernel
            # processes and the batch step has no checkpoint sweep).
            rows[i] = cache.run_cell(scenario, policy)
            continue
        warm = cache.serve_lookup(scenario, policy)
        if warm is not None:
            rows[i] = warm[0]
            continue
        batchable.append(i)

    # Group compatible cells: the batch engine requires one shared
    # clock discipline per batch.  Group on the built managers' actual
    # spec (not the scenario fields) so subclass overrides group right.
    managers = {i: _build_manager(*cells[i]) for i in batchable}
    groups: dict[tuple, list[int]] = {}
    for i in batchable:
        m = managers[i]
        compat = (m.spec.interval, m.spec.n_intervals, m.tick)
        groups.setdefault(compat, []).append(i)

    for members in groups.values():
        # Cells sharing a scenario object promise bitwise-identical
        # input rates, so the batch samples each profile once per tick.
        runner = BatchRunner(
            [managers[i] for i in members],
            rate_keys=[id(cells[i][0]) for i in members],
        )
        perf.add("batch.cells", len(members))
        results = runner.run()
        for i, result in zip(members, results):
            rows[i] = cache.store_result(*cells[i], result)
    perf.add("batch.groups", len(groups))

    assert all(r is not None for r in rows)
    return rows  # type: ignore[return-value]

"""Span recorder that wraps the program's public layer entry points.

The benchmark measures end-to-end numbers with tracing off and takes
per-layer numbers from a separate traced run.  :class:`Tracer` patches
the public functions listed in :data:`TARGETS` (class methods and
module-level functions, at every module that looks them up by name)
with thin wrappers that record one span per call:

    (span id, parent span id, name, start, end, op id)

Spans nest per thread.  A span's *self* time is its duration minus the
part its children cover; it is accumulated on the fly, so the totals
stay exact even when the stored span list hits :data:`MAX_SPANS`.  The
``op`` id ties together every span of one cell, fleet or request; work
submitted to the serve worker pool carries the submitting request's op
id and parent span into the worker thread.

Counters that turn spans into ratios (plans returned, reports that
changed the fleet, denials, cache tiers) are taken from the wrapped
calls' return values, where the work happens.

Nothing here edits the program's files: :meth:`Tracer.install` swaps
attributes in memory and :meth:`Tracer.uninstall` puts them back.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Optional

#: Spans kept for the written trace; aggregates are exact past the cap.
MAX_SPANS = 200_000

#: (module, attribute path, span name).  ``apply_plan`` and the serve
#: protocol helpers are imported by name into their callers, so each
#: lookup site is patched.
TARGETS = (
    ("repro.sim.kernel", "Environment.run", "sim.kernel.run"),
    ("repro.engine.executor", "FluidExecutor.step", "engine.executor.step"),
    ("repro.engine.batch", "BatchRunner.run", "engine.batch.run"),
    ("repro.engine.manager", "RunManager.run", "engine.manager.run"),
    ("repro.engine.monitor", "Monitor.snapshot", "engine.monitor.snapshot"),
    ("repro.core.policies", "Policy.initial_plan",
     "core.deployment.initial_plan"),
    ("repro.core.policies", "Policy.adapt", "core.adaptation.adapt"),
    ("repro.engine.manager", "apply_plan", "engine.reconcile.apply"),
    ("repro.engine.batch", "apply_plan", "engine.reconcile.apply"),
    ("repro.cloud.provider", "CloudProvider.try_provision",
     "cloud.provider.try_provision"),
    ("repro.cloud.provider", "CloudProvider.can_provision",
     "cloud.provider.can_provision"),
    ("repro.cloud.provider", "CloudProvider.denials",
     "cloud.provider.denials"),
    ("repro.engine.tenants", "FairShare.review", "engine.tenants.review"),
    ("repro.cloud.billing", "BillingMeter.cost_at", "cloud.billing.cost_at"),
    ("repro.experiments.cache", "run_cell", "experiments.runner.cell"),
    ("repro.experiments.cache", "serve_lookup",
     "experiments.cache.serve_lookup"),
    ("repro.experiments.cache", "delta_lookup",
     "experiments.cache.delta_lookup"),
    ("repro.experiments.cache", "store", "experiments.cache.store"),
    ("repro.experiments.cache", "code_fingerprint",
     "experiments.cache.fingerprint"),
    ("repro.serve.server", "parse_run_request", "serve.protocol.parse"),
    ("repro.serve.server", "row_payload", "serve.protocol.encode"),
    ("repro.serve.scheduler", "WorkerPool.submit", "serve.scheduler.submit"),
)

#: Layer of each span name, for the per-layer table.  Layers are the
#: program's modules; ``experiments.runner`` is the cell entry (scenario
#: → policy/provider/manager construction) outside the engine.
LAYER_OF = {
    "sim.kernel.run": "sim.kernel",
    "engine.executor.step": "engine.executor",
    "engine.batch.run": "engine.batch",
    "engine.manager.run": "engine.manager",
    "engine.monitor.snapshot": "engine.monitor",
    "core.deployment.initial_plan": "core.deployment",
    "core.adaptation.adapt": "core.adaptation",
    "engine.reconcile.apply": "engine.reconcile",
    "cloud.provider.try_provision": "cloud.provider",
    "cloud.provider.can_provision": "cloud.provider",
    "cloud.provider.denials": "cloud.provider",
    "engine.tenants.review": "engine.tenants",
    "cloud.billing.cost_at": "cloud.billing",
    "experiments.runner.cell": "experiments.runner",
    "experiments.cache.serve_lookup": "experiments.cache",
    "experiments.cache.delta_lookup": "experiments.cache",
    "experiments.cache.store": "experiments.cache",
    "experiments.cache.fingerprint": "experiments.cache",
    "serve.protocol.parse": "serve.protocol",
    "serve.protocol.encode": "serve.protocol",
    "serve.scheduler.submit": "serve.scheduler",
}


def _resolve(module: str, path: str) -> tuple[Any, str]:
    import importlib

    owner: Any = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[list] = []  # [span id, child seconds]
        self.op: Optional[int] = None
        self.root_parent: Optional[int] = None
        self.executors: list = []
        self.sink: Optional["_Sink"] = None


class _Sink:
    """One thread's aggregates and spans (merged when reading)."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self.spans: list[tuple] = []


class Tracer:
    """Records spans at the layer boundaries listed in :data:`TARGETS`."""

    def __init__(self) -> None:
        self._tls = _ThreadState()
        self._sinks: list[_Sink] = []
        self._sinks_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._kept = 0
        self.dropped = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------------

    def _sink(self) -> _Sink:
        sink = self._tls.sink
        if sink is None:
            sink = self._tls.sink = _Sink()
            with self._sinks_lock:
                self._sinks.append(sink)
        return sink

    def new_op(self) -> int:
        """Start a new op (cell, fleet or request) on this thread."""
        op = next(self._ops)
        self._tls.op = op
        return op

    def count(self, name: str, n: int = 1) -> None:
        self._sink().counts[name] += n

    def sample(self, name: str, value: float) -> None:
        self._sink().samples[name].append(value)

    def _wrap(
        self,
        fn: Callable,
        name: str,
        before: Optional[Callable],
        after: Optional[Callable],
    ):
        tls = self._tls
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer)
            stack = tls.stack
            sid = next(ids)
            parent = stack[-1][0] if stack else tls.root_parent
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                sink = tls.sink or tracer._sink()
                sink.calls[name] += 1
                sink.total[name] += dur
                sink.self_s[name] += dur - frame[1]
                if tracer._kept < MAX_SPANS:
                    tracer._kept += 1
                    sink.spans.append((sid, parent, name, t0, t1, tls.op))
                else:
                    tracer.dropped += 1
            if after is not None:
                after(tracer, result, args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Patch every target (idempotent)."""
        if self._saved:
            return
        from repro.engine.executor import FluidExecutor
        from repro.serve.scheduler import WorkerPool

        for module, path, name in TARGETS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(
                original, name, _BEFORE.get(name), _AFTER.get(name)
            ))

        # Executors are harvested for tick/macro-jump counts when the
        # run that built them returns (see harvest_executors).
        init = FluidExecutor.__init__
        tls = self._tls

        def executor_init(ex, *args, **kwargs):
            init(ex, *args, **kwargs)
            tls.executors.append(ex)

        self._saved.append((FluidExecutor, "__init__", init))
        FluidExecutor.__init__ = executor_init

        # Work handed to the pool keeps its request's op id and parent
        # span, and the submit-to-start wait is sampled.
        wrapped_submit = WorkerPool.submit

        def submit(pool, fn):
            op = tls.op
            parent = tls.stack[-1][0] if tls.stack else None
            queued = time.perf_counter()

            def job():
                self.sample(
                    "serve.scheduler.queue_wait_ms",
                    (time.perf_counter() - queued) * 1e3,
                )
                tls.op, tls.root_parent = op, parent
                try:
                    return fn()
                finally:
                    tls.op = tls.root_parent = None

            return wrapped_submit(pool, job)

        self._saved.append((WorkerPool, "submit", wrapped_submit))
        WorkerPool.submit = submit

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        # WorkerPool.submit is patched twice; restoring in reverse order
        # ends on its original.
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def harvest_executors(self) -> None:
        """Fold this thread's finished executors into the tick counters."""
        tls = self._tls
        for ex in tls.executors:
            self.count("engine.executor.ticks_executed", ex.ticks_executed)
            self.count("engine.executor.ticks_skipped", ex.macro_ticks_skipped)
        tls.executors.clear()

    # -- reading --------------------------------------------------------------

    def totals(self) -> dict:
        """Merged aggregates: calls/total/self per span, counts, samples."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, int] = defaultdict(int)
        samples: dict[str, list] = defaultdict(list)
        with self._sinks_lock:
            sinks = list(self._sinks)
        for s in sinks:
            for k, v in list(s.calls.items()):
                calls[k] += v
            for k, v in list(s.total.items()):
                total[k] += v
            for k, v in list(s.self_s.items()):
                self_s[k] += v
            for k, v in list(s.counts.items()):
                counts[k] += v
            for k, v in list(s.samples.items()):
                samples[k].extend(v)
        return {
            "calls": dict(calls),
            "total": dict(total),
            "self": dict(self_s),
            "counts": dict(counts),
            "samples": dict(samples),
            "dropped": self.dropped,
        }

    def write_spans(self, path) -> int:
        """Write kept spans as gzip'd JSON lines; returns the count."""
        with self._sinks_lock:
            sinks = list(self._sinks)
        n = 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for s in sinks:
                for sid, parent, name, t0, t1, op in s.spans:
                    f.write(json.dumps(
                        {"id": sid, "parent": parent, "name": name,
                         "start": t0, "end": t1, "op": op}
                    ))
                    f.write("\n")
                    n += 1
        return n


# -- counters taken from return values ------------------------------------------


def _after_run_manager(tracer: Tracer, result, args) -> None:
    tracer.harvest_executors()


def _after_batch(tracer: Tracer, result, args) -> None:
    runner = args[0]
    tracer.count("engine.batch.ticks", runner.ticks_executed)
    tracer.count("engine.batch.macro_ticks_skipped", runner.macro_ticks_skipped)
    tracer.harvest_executors()


def _after_adapt(tracer: Tracer, result, args) -> None:
    if result is not None:
        tracer.count("core.adaptation.plans")


def _after_apply(tracer: Tracer, result, args) -> None:
    if result.changed:
        tracer.count("engine.reconcile.changed")


def _after_try_provision(tracer: Tracer, result, args) -> None:
    from repro.cloud.provider import ProvisionDenied

    if isinstance(result, ProvisionDenied):
        tracer.count("cloud.provider.denied")


def _after_serve_lookup(tracer: Tracer, result, args) -> None:
    if result is not None:
        tracer.count("experiments.cache.hits")
        tracer.count(f"experiments.cache.tier.{result[1]}")


def _after_delta_lookup(tracer: Tracer, result, args) -> None:
    if result is not None:
        tracer.count("experiments.cache.delta_hits")


_AFTER: dict[str, Callable] = {
    "engine.manager.run": _after_run_manager,
    "engine.batch.run": _after_batch,
    "core.adaptation.adapt": _after_adapt,
    "engine.reconcile.apply": _after_apply,
    "cloud.provider.try_provision": _after_try_provision,
    "experiments.cache.serve_lookup": _after_serve_lookup,
    "experiments.cache.delta_lookup": _after_delta_lookup,
}

def _before_cell(tracer: Tracer) -> None:
    # A top-level cell (a sweep's) opens its own op; a cell run for a
    # serve request keeps the request's op.
    if not tracer._tls.stack and tracer._tls.root_parent is None:
        tracer.new_op()


#: parse_run_request is the first layer call of every /run request, so
#: it opens the request's op.
_BEFORE: dict[str, Callable] = {
    "serve.protocol.parse": Tracer.new_op,
    "experiments.runner.cell": _before_cell,
}

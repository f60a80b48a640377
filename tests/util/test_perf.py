"""Perf instrumentation: counters, timers, enable/disable semantics."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.util import perf


@pytest.fixture(autouse=True)
def clean_perf():
    was = perf.enabled()
    perf.reset()
    yield
    perf.reset()
    if was:
        perf.enable()
    else:
        perf.disable()


class TestCounters:
    def test_disabled_is_a_noop(self):
        perf.disable()
        perf.add("x")
        assert perf.snapshot()["counters"] == {}

    def test_enabled_accumulates(self):
        perf.enable()
        perf.add("x")
        perf.add("x", 2.5)
        assert perf.snapshot()["counters"]["x"] == 3.5


class TestThreads:
    def test_concurrent_adds_sum_exactly(self):
        # repro serve records from worker threads: no increment may be
        # lost to an interleaved read-modify-write.  A tiny switch
        # interval makes the interpreter preempt threads mid-update.
        perf.enable()
        n_threads, n_adds = 8, 10_000
        start = threading.Barrier(n_threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def work():
            start.wait()
            for _ in range(n_adds):
                perf.add("x")
                with perf.timer("t"):
                    pass

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        snap = perf.snapshot()
        assert snap["counters"]["x"] == n_threads * n_adds
        assert snap["timers"]["t"]["count"] == n_threads * n_adds


class TestTimers:
    def test_disabled_returns_shared_noop(self):
        perf.disable()
        with perf.timer("t"):
            pass
        assert perf.snapshot()["timers"] == {}

    def test_enabled_records_total_and_count(self):
        perf.enable()
        for _ in range(3):
            with perf.timer("t"):
                pass
        snap = perf.snapshot()["timers"]["t"]
        assert snap["count"] == 3
        assert snap["total_s"] >= 0.0

    def test_collecting_scopes_enablement(self):
        perf.disable()
        with perf.collecting():
            perf.add("scoped")
            assert perf.enabled()
        assert not perf.enabled()
        assert perf.snapshot()["counters"]["scoped"] == 1.0


class TestEngineIntegration:
    def test_engine_ticks_counted_when_enabled(self):
        from repro.cloud import (
            CloudProvider,
            ConstantPerformance,
            aws_2013_catalog,
        )
        from repro.engine import FluidExecutor
        from repro.experiments import fig1_dataflow
        from repro.sim import Environment
        from repro.workloads import ConstantRate

        env = Environment()
        provider = CloudProvider(
            aws_2013_catalog(), performance=ConstantPerformance()
        )
        df = fig1_dataflow()
        vm = provider.provision("m1.xlarge", now=0.0)
        for pe in df.pe_names:
            vm.allocate(pe, 1)
        ex = FluidExecutor(
            env, df, provider, {"E1": ConstantRate(1.0)},
            selection=df.default_selection(),
        )
        ex.sync()
        ex.start()
        with perf.collecting():
            env.run(until=10.0)
        snap = perf.snapshot()
        # Ticks at t = 0..10 inclusive (the kernel fires events due at the
        # horizon).  Macro-stepping may replace executed steps with
        # replayed ones, but the tick counter always covers the full grid;
        # the step timer samples only the steps that physically ran.
        ticks = snap["counters"]["engine.ticks"]
        assert ticks == 11
        skipped = snap["counters"].get("engine.macro_ticks_skipped", 0)
        assert snap["timers"]["engine.step"]["count"] == ticks - skipped
        if ex.macro_enabled:
            assert skipped > 0  # the constant-rate steady state jumps

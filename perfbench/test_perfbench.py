"""The benchmark's own tests: metric smoke pass and count steadiness.

Run from the checkout root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import threading
import time

import pytest

import common

common.prepare()

import fleet_contended  # noqa: E402
import run  # noqa: E402
import sweep_cold  # noqa: E402
import whatif_serve  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    out = run.run(workload, seed=3, seconds=0.0, trace=trace, size="tiny",
                  max_units=2)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], out["notes"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _traced_counts(module, seed):
    tracer = Tracer()
    pins = run.load_pins().get(module.__name__.replace("_", "-"), {})
    out = module.measure(seed, 0.0, tracer=tracer, size="tiny", max_units=2,
                         pins=pins)
    assert out["failed"] == 0, out["notes"]
    totals = tracer.totals()
    return totals["calls"], totals["counts"]


@pytest.mark.parametrize("module", [sweep_cold, fleet_contended])
def test_per_layer_counts_repeat_exactly(module):
    first = _traced_counts(module, seed=5)
    assert first[0], "no spans recorded"
    assert first == _traced_counts(module, seed=5)


def test_serve_tier_counts_repeat_exactly():
    def tiers():
        out = whatif_serve.measure(5, 0.0, size="tiny")
        assert out["failed"] == 0, out["notes"]
        _, summary = out["phases"]["untraced"]
        return summary["tiers"]

    first = tiers()
    assert first["cold"] and first["delta"] and first["lru"]
    assert first == tiers()


def test_gate_holds_slices_off_requests_and_moves_the_deadline():
    gate = whatif_serve._Gate(time.perf_counter() + 60.0)
    deadline = gate.deadline
    assert gate.enter()  # one request in flight
    during = []
    holder = threading.Thread(
        target=lambda: gate.hold(lambda: during.append(gate.busy)))
    holder.start()
    time.sleep(0.05)
    assert not during, "the slice ran while a request was in flight"
    gate.leave()
    holder.join()
    assert during == [0]
    assert gate.deadline >= deadline + 0.05
    assert gate.enter()  # open again


def test_sweep_grids_rotate_through_the_catalog():
    pinned = set(json.loads(
        (common.BENCH_DIR / "pins.json").read_text())["sweep-cold"])
    catalog = {cid for cid, _, _ in sweep_cold.catalog()}
    assert catalog == pinned
    for seed in range(4):
        seen = set()
        for unit in range(4):
            for kw in sweep_cold.grid(seed, unit):
                cid = sweep_cold.cell_id(kw["rate_kind"], kw["variability"],
                                         kw["rate"], kw["seed"], "global")
                assert cid in catalog
                quartile = sweep_cold.RATES.index(kw["rate"]) // 2
                seen.add((kw["rate_kind"], kw["variability"], quartile))
        assert len(seen) == 16  # every (shape, quartile) once per 4 units

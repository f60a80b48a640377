"""Workload ``sweep-cold``: seeded grids of the paper's dynamic scenarios,
swept cold through ``repro.experiments.sweep`` with default dispatch.

Why: the fluid tick dominates host time here and the result cache only
writes, which is what a cold ``repro figures`` / ``repro compare`` pays.
Constant rates without variability are left out on purpose: macro-
stepping skips the tick on those cells, so they would hide it.

Every cell of every grid comes from a fixed catalog (rates 2–50 msg/s,
wave/random-walk rates, ``infra``/``both`` variability, two scenario
seeds, three policies, 30-minute horizons), whose rows are pinned in
``pins.json``.  Each measured unit is one grid of four scenarios, one
per (rate kind, variability) pair.  Unit ``i`` deals the four rate
quartiles to those pairs in rotation, from an offset the workload seed
picks, so every four consecutive grids cover every (pair, quartile)
combination once and the work per run hardly depends on the seed; the
seed also draws each scenario's seed.  Each unit runs against its own
empty cache directory.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import time
from typing import Optional

import common

POLICIES = ("static-local", "local", "global")
#: Log-spaced mean input rates over the paper's 2–50 msg/s range.
RATES = (2.0, 3.2, 5.0, 7.9, 12.5, 19.8, 31.3, 50.0)
SHAPES = (("wave", "infra"), ("wave", "both"), ("walk", "infra"),
          ("walk", "both"))
SCENARIO_SEEDS = (11, 23)
PERIOD_S = 1800.0


def cell_id(kind: str, variability: str, rate: float, seed: int,
            policy: str) -> str:
    return f"{kind}/{variability}/r{rate}/s{seed}/{policy}"


def catalog() -> list[tuple[str, dict, str]]:
    """Every (cell id, Scenario kwargs, policy) a grid can contain."""
    cells = []
    for kind, variability in SHAPES:
        for rate in RATES:
            for seed in SCENARIO_SEEDS:
                kwargs = dict(rate=rate, rate_kind=kind,
                              variability=variability, seed=seed,
                              period=PERIOD_S)
                for policy in POLICIES:
                    cells.append((cell_id(kind, variability, rate, seed,
                                          policy), kwargs, policy))
    return cells


def grid(seed: int, unit: int, size: str = "full") -> list[dict]:
    """Scenario kwargs of unit ``unit``'s grid for workload seed ``seed``."""
    j = unit + random.Random(f"sweep-cold:{seed}").randrange(len(RATES))
    rng = random.Random(f"sweep-cold:{seed}:{unit}")
    scenarios = []
    for k, (kind, variability) in enumerate(SHAPES):
        quartile = (k + j) % len(SHAPES)
        rate = RATES[2 * quartile + (j // len(SHAPES) + k) % 2]
        scenarios.append(dict(rate=rate, rate_kind=kind,
                              variability=variability,
                              seed=rng.choice(SCENARIO_SEEDS),
                              period=PERIOD_S))
    return scenarios[:1] if size == "tiny" else scenarios


def prepare_inputs(seed: int, size: str = "full"):
    """Import the program's entry points and build the first grid."""
    from repro.experiments import sweep
    from repro.experiments.scenarios import Scenario

    return sweep, [Scenario(**kw) for kw in grid(seed, 0, size)]


def row_digest(row) -> str:
    return common.digest(dataclasses.asdict(row))


def measure(seed: int, seconds: float, tracer=None, size: str = "full",
            max_units: Optional[int] = None, pins: Optional[dict] = None,
            speed=None):
    """Sweep cold grids until ``seconds`` pass (or ``max_units`` ran).

    With a tracer, units come in pairs that sweep the same grid, once
    traced and once untraced, in alternating order, so the tracing
    overhead is measured on the same grids within one run.  With
    ``speed``, a host-speed slice is timed before each unit and after
    the last.
    """
    sweep, _ = prepare_inputs(seed, size)
    from repro.experiments.scenarios import Scenario

    units = []
    failed = 0
    attempted = 0
    start = time.perf_counter()
    i = 0
    while True:
        g = i if tracer is None else i // 2
        specs = grid(seed, g, size)
        scenarios = [Scenario(**kw) for kw in specs]
        traced = tracer is not None and i % 2 != g % 2
        if speed is not None:
            speed.sample()
        # Free the previous grid's garbage here, not inside the next
        # timed sweep.
        gc.collect()
        with common.fresh_cache_dir():
            if traced:
                tracer.install()
            try:
                t0 = time.perf_counter()
                rows = sweep(scenarios, POLICIES)
                dt = time.perf_counter() - t0
            finally:
                if traced:
                    tracer.uninstall()
        expected = [(kw, p) for kw in specs for p in POLICIES]
        attempted += len(expected)
        if len(rows) != len(expected):
            failed += len(expected)
        else:
            for (kw, policy), row in zip(expected, rows):
                pin = (pins or {}).get(cell_id(kw["rate_kind"],
                                               kw["variability"], kw["rate"],
                                               kw["seed"], policy))
                # Every catalog cell is pinned: a missing pin fails too.
                ok = (row.policy == policy and row.rate == kw["rate"]
                      and row.seed == kw["seed"]
                      and pin is not None and row_digest(row) == pin)
                failed += not ok
        units.append({"wall_s": dt, "ops": len(rows), "traced": traced})
        i += 1
        if tracer is not None and i % 2:
            continue  # finish the pair
        if max_units is not None:
            if i >= max_units:
                break
        elif not common.keep_going(start, seconds,
                                   [u["wall_s"] for u in units],
                                   least=1 if tracer is None else 2):
            break
    if speed is not None:
        speed.sample()
    return {
        "units": units,
        "attempted": attempted,
        "failed": failed,
        "notes": [f"sweep-cold: {i} cold sweeps, {attempted} cells checked "
                  "against their pinned row digests"],
    }

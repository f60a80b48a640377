"""Workload ``fleet-contended``: one ``run_fleet`` of 200 tenants sharing
a tight cloud under fair-share admission.

Why: the decision plane dominates here.  A cProfile of 400 tenants put
``adapt`` at 12.5 s, ``apply_plan`` at 9.4 s and ``FairShare.review``
at 5.7 s against 4.3 s in the SoA tick, out of 28.5 s.  This is where an
incremental control plane shows; ``sweep-cold`` has no admission at
all, so it is the bypass case for that mechanism.

The fleet is ``multi_tenant_scenario`` with ``admission="fair-share"``
and the default ``capacity_tightness=0.5``.  The workload seed deals a
fixed mix of fair-share weights to the tenants and moves the ends of the
2–8 msg/s rate band by under 1%: each seed yields other rows for about
the same work.  (Jittering the band by ±0.5 msg/s changed the work per
fleet by a third between seeds.)  Every measured unit reruns the same
fleet; each must reproduce the first one's rows, and for the seeds
pinned in ``pins.json`` the pinned digest.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import time
from typing import Optional

import common

N_TENANTS = 200
TINY_TENANTS = 24
#: Fair-share weights, dealt to the tenants by a seeded shuffle: every
#: seed contends with the same weight mix, so the work per fleet hardly
#: depends on the seed.
WEIGHTS = (0.5, 1.0, 1.5, 2.0)


def scenario_kwargs(seed: int, size: str = "full") -> dict:
    """``multi_tenant_scenario`` arguments for workload seed ``seed``."""
    n = TINY_TENANTS if size == "tiny" else N_TENANTS
    rng = random.Random(f"fleet-contended:{seed}")
    weights = [WEIGHTS[k % len(WEIGHTS)] for k in range(n)]
    rng.shuffle(weights)
    return dict(n_tenants=n, admission="fair-share", seed=seed,
                rate_lo=round(2.0 + rng.uniform(0.0, 0.02), 4),
                rate_hi=round(8.0 - rng.uniform(0.0, 0.02), 4),
                weights=tuple(weights))


def prepare_inputs(seed: int, size: str = "full"):
    """Import the program's entry points and build the fleet scenario."""
    from repro.experiments import multi_tenant_scenario, run_fleet

    return run_fleet, multi_tenant_scenario(**scenario_kwargs(seed, size))


def fleet_digest(fleet) -> str:
    """Digest of every tenant row (Θ/Ω/Γ/μ, denials) and the fleet tally."""
    return common.digest({
        "rows": [dataclasses.asdict(r) for r in fleet.rows],
        "fleet_mu": fleet.fleet_mu,
        "denied": fleet.utilization["denied"],
        "denied_by_reason": fleet.utilization["denied_by_reason"],
    })


def check(fleet, n_tenants: int) -> list[str]:
    """Invariants any correct fleet satisfies, pinned or not."""
    problems = []
    if fleet.mode != "soa":
        problems.append(f"fleet ran {fleet.mode}, expected the SoA kernel")
    if fleet.n_tenants != n_tenants:
        problems.append(f"{fleet.n_tenants} rows for {n_tenants} tenants")
    mu = 0.0
    for row in sorted(fleet.rows, key=lambda r: r.tenant):
        mu += row.mu
    if mu != fleet.fleet_mu:
        problems.append(f"fleet mu {fleet.fleet_mu!r} != tenant sum {mu!r}")
    if fleet.denied_total != fleet.utilization["denied"]:
        problems.append(
            f"tenant denials {fleet.denied_total} != provider ledger "
            f"{fleet.utilization['denied']}"
        )
    return problems


def measure(seed: int, seconds: float, tracer=None, size: str = "full",
            max_units: Optional[int] = None, pins: Optional[dict] = None,
            speed=None):
    """Run the seed's fleet until ``seconds`` pass (or ``max_units`` ran).

    With a tracer, odd units run traced and even units untraced.  With
    ``speed``, a host-speed slice is timed before each unit and after
    the last.
    """
    run_fleet, mt = prepare_inputs(seed, size)
    intervals = int(round(mt.period / mt.interval))
    pin = (pins or {}).get(str(seed)) if size == "full" else None
    units = []
    attempted = failed = 0
    problems: list[str] = []
    first_digest = None
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if speed is not None:
            speed.sample()
        # Free the previous fleet's garbage here, not inside the next
        # timed run_fleet.
        gc.collect()
        if traced:
            tracer.install()
            tracer.new_op()
        try:
            t0 = time.perf_counter()
            fleet = run_fleet(mt)
            dt = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        found = check(fleet, mt.n_tenants)
        d = fleet_digest(fleet)
        first_digest = first_digest or d
        if d != first_digest:
            found.append("rows differ from the run's first fleet")
        if pin is not None and d != pin:
            found.append("rows differ from the pinned digest")
        # Operations are tenants; a fleet-level mismatch fails them all.
        attempted += mt.n_tenants
        failed += mt.n_tenants if found else 0
        problems += found
        units.append({"wall_s": dt, "ops": mt.n_tenants * intervals,
                      "traced": traced})
        del fleet
        i += 1
        if max_units is not None:
            if i >= max_units:
                break
        elif not common.keep_going(start, seconds,
                                   [u["wall_s"] for u in units],
                                   least=1 if tracer is None else 2):
            break
    if speed is not None:
        speed.sample()
    notes = [f"fleet-contended: {i} fleets of {mt.n_tenants} tenants x "
             f"{intervals} intervals; digest "
             + ("pinned" if pin is not None else "not pinned for this seed, "
                "checked for repeatability")]
    notes += [f"  problem: {p}" for p in problems[:5]]
    return {"units": units, "attempted": attempted, "failed": failed, "notes": notes,
            "digest": first_digest}

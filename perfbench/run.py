"""The repository benchmark: three workloads, one command.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 36 --trace 0

Workloads (see ``README.md`` in this directory for why each exists):

``sweep-cold``       cold grids through ``repro.experiments.sweep``
``fleet-contended``  ``run_fleet`` of 200 tenants under fair-share admission
``whatif-serve``     ``python -m repro serve`` under a closed loop of 2 clients

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off, and scales their times to nominal host speed (see
``hostspeed.py``).  With ``--trace 1`` it wraps each layer's public
entry points (see ``tracing.py``) on alternate units, prints a
per-layer table, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each run also writes a record with the host fingerprint to
``.perfbench-out/`` in the checkout; ``compare.py`` compares records and
refuses to compare records from different hosts.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from typing import Optional

import common
from hostspeed import NOMINAL_S, HostSpeed

WORKLOADS = ("sweep-cold", "fleet-contended", "whatif-serve")

#: End-to-end metrics, measured with tracing off, emitted by every
#: workload, with their times scaled to nominal host speed (see
#: ``hostspeed.py``).  An "op" is a grid cell (sweep-cold), a
#: tenant-interval (fleet-contended) or an answered request
#: (whatif-serve); "op_p50_ms" is the median time a caller waits for one
#: answer: one cold grid, one fleet, one request.
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
}

#: Per-layer metrics from the traced run.  "_s" metrics of a call are
#: inclusive of its children; "self_s" excludes them.
LAYER_UNITS = {
    "sim.kernel.self_s": "s",
    "engine.executor.ticks": "count",
    "engine.executor.step_s": "s",
    "engine.executor.us_per_tick": "us",
    "engine.executor.macro_jump_ratio": "ratio",
    "engine.batch.ticks": "count",
    "engine.batch.self_s": "s",
    "engine.batch.us_per_tick": "us",
    "engine.batch.macro_ticks_skipped": "count",
    "engine.monitor.snapshot_calls": "count",
    "engine.monitor.snapshot_s": "s",
    "core.deployment.initial_plan_calls": "count",
    "core.deployment.initial_plan_s": "s",
    "core.adaptation.adapt_calls": "count",
    "core.adaptation.adapt_s": "s",
    "core.adaptation.plan_ratio": "ratio",
    "engine.reconcile.apply_calls": "count",
    "engine.reconcile.apply_s": "s",
    "engine.reconcile.changed_ratio": "ratio",
    "cloud.provider.provision_attempts": "count",
    "cloud.provider.denied": "count",
    "cloud.provider.admit_ratio": "ratio",
    "cloud.provider.can_provision_calls": "count",
    "cloud.provider.provision_s": "s",
    "engine.tenants.review_calls": "count",
    "engine.tenants.review_s": "s",
    "cloud.billing.cost_at_calls": "count",
    "cloud.billing.cost_at_s": "s",
    "experiments.cache.lookup_calls": "count",
    "experiments.cache.lookup_s": "s",
    "experiments.cache.delta_lookup_s": "s",
    "experiments.cache.hit_ratio": "ratio",
    "experiments.cache.delta_hit_ratio": "ratio",
    "experiments.cache.fingerprint_s": "s",
    "experiments.cache.store_calls": "count",
    "experiments.cache.store_s": "s",
    "serve.protocol.parse_s": "s",
    "serve.protocol.encode_s": "s",
    "serve.scheduler.jobs": "count",
    "serve.scheduler.queue_wait_ms": "ms",
    "serve.scheduler.rejected": "count",
    "serve.server.elapsed_p50_ms": "ms",
    "serve.http_p50_ms": "ms",
    "trace.overhead_pct": "%",
}

SETUP_PROBES = 5


def _module(workload: str):
    if workload == "sweep-cold":
        import sweep_cold as module
    elif workload == "fleet-contended":
        import fleet_contended as module
    else:
        import whatif_serve as module
    return module


def load_pins() -> dict:
    path = common.BENCH_DIR / "pins.json"
    return json.loads(path.read_text()) if path.exists() else {}


# -- set-up -----------------------------------------------------------------------


def probe_setup(workload: str, seed: int, speed: HostSpeed) -> float:
    """Median time, over fresh interpreters, from process start to the
    first timed operation.  A host-speed slice is timed before each
    and after the last."""
    times = []
    if workload == "whatif-serve":
        import whatif_serve

        # Boot to /healthz; base seeding is added by the workload.
        for _ in range(SETUP_PROBES):
            speed.sample()
            daemon = whatif_serve.Daemon()
            times.append(daemon.boot_s)
            daemon.stop()
        speed.sample()
        return common.median(times)
    for _ in range(SETUP_PROBES):
        speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "setup_probe.py"),
             workload, str(seed)],
            cwd=common.ROOT, env=common.hermetic_env(),
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}")
    speed.sample()
    return common.median(times)


# -- metrics ------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_rates(units: list, traced: bool) -> list[float]:
    return [u["ops"] / u["wall_s"] for u in units if u["traced"] == traced]


def pooled_rate(units: list, traced: bool) -> float:
    """Ops over wall time of the (un)traced units.  Grids differ between
    sweep units, so this is steadier than a median of unit rates."""
    chosen = [u for u in units if u["traced"] == traced]
    return sum(u["ops"] for u in chosen) / sum(u["wall_s"] for u in chosen)


def e2e_from_units(units: list) -> dict:
    plain = [u for u in units if not u["traced"]]
    return {
        "ops_per_s": pooled_rate(units, False),
        "op_p50_ms": common.median([u["wall_s"] for u in plain]) * 1e3,
        "peak_rss_mb": common.self_peak_rss_mb(),
    }


def layer_metrics(totals: dict, client: Optional[dict] = None) -> dict:
    """Per-layer metrics from tracer totals (plus, for the serve
    workload, the client-side split of the traced phase)."""
    calls, total, self_s = totals["calls"], totals["total"], totals["self"]
    counts, samples = totals["counts"], totals["samples"]
    c = lambda k: calls.get(k, 0)  # noqa: E731
    t = lambda k: total.get(k, 0.0)  # noqa: E731
    n = lambda k: counts.get(k, 0)  # noqa: E731
    executed = n("engine.executor.ticks_executed")
    skipped = n("engine.executor.ticks_skipped")
    batch_ticks = n("engine.batch.ticks")
    attempts = c("cloud.provider.try_provision")
    lookups = c("experiments.cache.serve_lookup")
    waits = samples.get("serve.scheduler.queue_wait_ms", [])
    client = client or {}
    return {
        "sim.kernel.self_s": self_s.get("sim.kernel.run", 0.0),
        "engine.executor.ticks": executed,
        "engine.executor.step_s": t("engine.executor.step"),
        "engine.executor.us_per_tick":
            _ratio(t("engine.executor.step"), c("engine.executor.step")) * 1e6,
        "engine.executor.macro_jump_ratio": _ratio(skipped, executed + skipped),
        "engine.batch.ticks": batch_ticks,
        "engine.batch.self_s": self_s.get("engine.batch.run", 0.0),
        "engine.batch.us_per_tick":
            _ratio(self_s.get("engine.batch.run", 0.0), batch_ticks) * 1e6,
        "engine.batch.macro_ticks_skipped":
            n("engine.batch.macro_ticks_skipped"),
        "engine.monitor.snapshot_calls": c("engine.monitor.snapshot"),
        "engine.monitor.snapshot_s": t("engine.monitor.snapshot"),
        "core.deployment.initial_plan_calls":
            c("core.deployment.initial_plan"),
        "core.deployment.initial_plan_s": t("core.deployment.initial_plan"),
        "core.adaptation.adapt_calls": c("core.adaptation.adapt"),
        "core.adaptation.adapt_s": t("core.adaptation.adapt"),
        "core.adaptation.plan_ratio":
            _ratio(n("core.adaptation.plans"), c("core.adaptation.adapt")),
        "engine.reconcile.apply_calls": c("engine.reconcile.apply"),
        "engine.reconcile.apply_s": t("engine.reconcile.apply"),
        "engine.reconcile.changed_ratio":
            _ratio(n("engine.reconcile.changed"), c("engine.reconcile.apply")),
        "cloud.provider.provision_attempts": attempts,
        "cloud.provider.denied": n("cloud.provider.denied"),
        "cloud.provider.admit_ratio":
            _ratio(attempts - n("cloud.provider.denied"), attempts),
        "cloud.provider.can_provision_calls":
            c("cloud.provider.can_provision"),
        "cloud.provider.provision_s": t("cloud.provider.try_provision")
            + t("cloud.provider.can_provision") + t("cloud.provider.denials"),
        "engine.tenants.review_calls": c("engine.tenants.review"),
        "engine.tenants.review_s": t("engine.tenants.review"),
        "cloud.billing.cost_at_calls": c("cloud.billing.cost_at"),
        "cloud.billing.cost_at_s": t("cloud.billing.cost_at"),
        "experiments.cache.lookup_calls": lookups,
        "experiments.cache.lookup_s": t("experiments.cache.serve_lookup"),
        "experiments.cache.delta_lookup_s":
            t("experiments.cache.delta_lookup"),
        "experiments.cache.hit_ratio":
            _ratio(n("experiments.cache.hits"), lookups),
        "experiments.cache.delta_hit_ratio":
            _ratio(n("experiments.cache.delta_hits"),
                   c("experiments.cache.delta_lookup")),
        "experiments.cache.fingerprint_s":
            t("experiments.cache.fingerprint"),
        "experiments.cache.store_calls": c("experiments.cache.store"),
        "experiments.cache.store_s": t("experiments.cache.store"),
        "serve.protocol.parse_s": t("serve.protocol.parse"),
        "serve.protocol.encode_s": t("serve.protocol.encode"),
        "serve.scheduler.jobs": c("serve.scheduler.submit"),
        "serve.scheduler.queue_wait_ms":
            common.median(waits) if waits else 0.0,
        "serve.scheduler.rejected": client.get("rejected", 0),
        "serve.server.elapsed_p50_ms": client.get("elapsed_p50_ms", 0.0),
        "serve.http_p50_ms": client.get("http_p50_ms", 0.0),
    }


def layer_table(totals: dict, wall_s: float) -> list[str]:
    """Calls, total, self and share of wall time per layer span."""
    from tracing import LAYER_OF

    order = list(dict.fromkeys(LAYER_OF.values()))
    rows = sorted(totals["calls"], key=lambda s: (order.index(LAYER_OF[s]), s))
    lines = [f"{'layer':<20} {'span':<32} {'calls':>9} {'total_s':>9} "
             f"{'self_s':>9} {'share':>7}"]
    covered = 0.0
    for span in rows:
        self_s = totals["self"][span]
        covered += self_s
        lines.append(
            f"{LAYER_OF[span]:<20} {span:<32} {totals['calls'][span]:>9} "
            f"{totals['total'][span]:>9.3f} {self_s:>9.3f} "
            f"{self_s / wall_s:>7.1%}")
    outside = wall_s - covered
    label = "(outside spans)" if outside >= 0 else "(threads overlap)"
    lines.append(f"{label:<20} {'':<32} {'':>9} {'':>9} "
                 f"{outside:>9.3f} {outside / wall_s:>7.1%}")
    by_layer: dict[str, float] = {}
    for span in rows:
        by_layer[LAYER_OF[span]] = (by_layer.get(LAYER_OF[span], 0.0)
                                    + totals["self"][span])
    lines.append("self share by layer: " + ", ".join(
        f"{layer} {v / wall_s:.1%}" for layer, v in by_layer.items()))
    lines.append(f"traced wall {wall_s:.3f}s; {totals['dropped']} spans "
                 "past the kept-span cap (aggregates stay exact)")
    return lines


def layer_self_share(totals: dict, wall_s: float, layers: tuple) -> float:
    from tracing import LAYER_OF

    return sum(v for k, v in totals["self"].items()
               if LAYER_OF[k] in layers) / wall_s


def scale_to_nominal(metrics: dict, setup_speed: HostSpeed,
                     speed: HostSpeed) -> str:
    """Scale the end-to-end times in place to nominal host speed: set-up
    by the slices around the set-up probes, the rest by the slices of
    the measured phase.  Returns a note with both factors and the
    unscaled values."""
    setup_factor, factor = setup_speed.factor(), speed.factor()
    raw = dict(metrics)
    metrics["setup_s"] = raw["setup_s"] / setup_factor
    metrics["op_p50_ms"] = raw["op_p50_ms"] / factor
    metrics["ops_per_s"] = raw["ops_per_s"] * factor
    return (f"host speed: set-up factor {setup_factor:.4f} "
            f"({len(setup_speed.samples)} slices), run factor {factor:.4f} "
            f"({len(speed.samples)} slices), nominal slice "
            f"{NOMINAL_S * 1e3:.0f} ms; unscaled "
            + ", ".join(f"{k} {raw[k]:.4f}"
                        for k in ("setup_s", "ops_per_s", "op_p50_ms")))


# -- one run ------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", max_units: Optional[int] = None) -> dict:
    """Measure one workload; returns the result line plus report data."""
    module = _module(workload)
    pins = load_pins().get(workload, {})
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    setup_speed, speed = HostSpeed(), HostSpeed()
    setup_s = None
    if not trace:
        setup_s = probe_setup(workload, seed, setup_speed)
    out = module.measure(seed, seconds, tracer=tracer, size=size,
                         max_units=max_units, pins=pins, speed=speed)
    notes = list(out["notes"])
    metrics: dict[str, float] = {}
    totals = None
    if workload == "whatif-serve":
        ph, s = out["phases"]["untraced"]
        if trace:
            tph, ts = out["phases"]["traced"]
            totals = tph["totals"]
            wall = tph["wall_s"]
            client = dict(ts, rejected=tph["book"].rejected)
            metrics.update(layer_metrics(totals, client))
            metrics["trace.overhead_pct"] = (
                s["ops_per_s"] / ts["ops_per_s"] - 1.0) * 100.0
            notes.append(
                f"stress check: warm replies spend {ts['http_p50_ms']:.2f} ms "
                f"(p50) outside the server's {ts['elapsed_p50_ms']:.2f} ms: "
                + ("PASS" if ts["http_p50_ms"] > ts["elapsed_p50_ms"]
                   else "FAIL"))
        else:
            metrics["setup_s"] = (setup_s + ph["plan_s"] + ph["seed_s"])
            metrics["peak_rss_mb"] = ph["peak_rss_mb"]
            metrics["ops_per_s"] = s["ops_per_s"]
            metrics["op_p50_ms"] = s["op_p50_ms"]
        notes.append(
            f"whatif: {s['ops']} requests, {s['ops_per_s']:.1f} req/s, "
            f"p50 {s['op_p50_ms']:.2f} ms, p99 {s['p99_ms']:.2f} ms; warm p50 "
            f"{s['warm_p50_ms']:.2f} ms (n={s['warm_n']}), delta p50 "
            f"{s['delta_p50_ms']:.2f} ms (n={s['delta_n']}), cold p50 "
            f"{s['cold_p50_ms']:.2f} ms (n={s['cold_n']}); share of client "
            "time " + ", ".join(f"{k} {v:.1%}"
                                for k, v in s["time_share"].items()))
        if s["ops"] < 1000 and size == "full" and not trace:
            notes.append("warning: fewer than 1000 requests, so p99 has "
                         "fewer than ten samples beyond it")
    else:
        units = out["units"]
        if trace:
            totals = tracer.totals()
            wall = sum(u["wall_s"] for u in units if u["traced"])
            metrics.update(layer_metrics(totals))
            metrics["trace.overhead_pct"] = (
                pooled_rate(units, False) / pooled_rate(units, True)
                - 1.0) * 100.0
            if workload == "sweep-cold":
                share = layer_self_share(totals, wall,
                                         ("engine.executor", "sim.kernel"))
                notes.append(f"stress check: engine.executor + sim.kernel "
                             f"self time is {share:.1%} of wall: "
                             + ("PASS" if share >= 0.5 else "FAIL"))
            else:
                share = layer_self_share(
                    totals, wall, ("core.adaptation", "engine.reconcile",
                                   "engine.tenants", "cloud.provider"))
                notes.append(f"stress check: adaptation + reconcile + "
                             f"tenants + provider self time is {share:.1%} "
                             "of wall: " + ("PASS" if share >= 0.5
                                            else "FAIL"))
        else:
            metrics.update(e2e_from_units(units))
            metrics["setup_s"] = setup_s
        rates = unit_rates(units, False)
        notes.append(f"{workload}: {len(units)} units, untraced ops/s "
                     + ", ".join(f"{r:.2f}" for r in rates))
    if not trace:
        notes.append(scale_to_nominal(metrics, setup_speed, speed))
    if totals is not None:
        notes += layer_table(totals, wall)
    units_of = LAYER_UNITS if trace else E2E_UNITS
    failed = out["failed"]
    attempted = out["attempted"]
    notes.append(f"failed_ratio: {failed}/{attempted} = "
                 f"{failed / max(attempted, 1):.4f}")
    finite = all(math.isfinite(metrics[k]) for k in units_of)
    result = {
        # A metric that could not be measured makes the run incorrect
        # and is reported as 0 (JSON has no NaN).
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k] if math.isfinite(metrics[k])
                        else 0.0, "unit": u}
                    for k, u in units_of.items()},
    }
    return {"result": result, "notes": notes, "tracer": tracer,
            "host_slices_s": {"setup": setup_speed.samples,
                              "run": speed.samples}}


def write_record(args, outcome: dict) -> None:
    common.OUT_DIR.mkdir(exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{time.time_ns() % 10**9}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": common.host_fingerprint(),
        "notes": outcome["notes"],
        "host_slices_s": outcome["host_slices_s"],
        "result": outcome["result"],
    }
    (common.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if outcome["tracer"] is not None:
        outcome["tracer"].write_spans(common.OUT_DIR / f"{stem}.spans.jsonl.gz")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.prepare()
    except common.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"host: {json.dumps(common.host_fingerprint(), sort_keys=True)}")
    for line in outcome["notes"]:
        print(line)
    write_record(args, outcome)
    print(json.dumps(outcome["result"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

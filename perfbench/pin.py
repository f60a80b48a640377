"""Regenerate ``pins.json``: digests of the rows this commit produces.

* ``sweep-cold``: one digest per catalog cell (every cell any grid can
  draw), so every seed's grids are checked.
* ``fleet-contended``: one digest per workload seed in ``FLEET_SEEDS``;
  other seeds are checked for repeatability and invariants only.

Run it after a change that is meant to alter simulated rows, and say so
in the change::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json

import common

FLEET_SEEDS = range(32)


def main() -> int:
    common.prepare()
    import fleet_contended
    import sweep_cold
    from repro.experiments import cache, run_fleet, sweep
    from repro.experiments.scenarios import Scenario

    cache.disable()
    cells = {}
    for cid, kwargs, policy in sweep_cold.catalog():
        (row,) = sweep([Scenario(**kwargs)], [policy])
        cells[cid] = sweep_cold.row_digest(row)
    fleets = {}
    for seed in FLEET_SEEDS:
        _, mt = fleet_contended.prepare_inputs(seed)
        fleets[str(seed)] = fleet_contended.fleet_digest(run_fleet(mt))
        print(f"fleet seed {seed} pinned", flush=True)
    pins = {"sweep-cold": cells, "fleet-contended": fleets}
    path = common.BENCH_DIR / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}: {len(cells)} cells, {len(fleets)} fleets")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

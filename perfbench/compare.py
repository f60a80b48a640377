"""Compare two sets of benchmark records, refusing mixed hosts.

Each ``run.py`` invocation writes a record (host fingerprint, workload,
seed, metrics) to ``.perfbench-out/``.  Given a baseline set and a
candidate set of records, this prints, per workload and metric, each
side's median and quartile spread, the change, and whether it stays
within the metric's bound in ``BENCHMARK.json``::

    python3 perfbench/compare.py base/*.json -- cand/*.json

Records from different hosts (CPU count, Python, numpy, platform) are
not comparable: the script refuses and exits with status 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import common


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    base, cand = load(argv[:cut]), load(argv[cut + 1:])
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + cand}
    if len(hosts) != 1:
        print("refusing to compare records from different hosts:",
              *sorted(hosts), sep="\n  ", file=sys.stderr)
        return 2
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"host: {hosts.pop()}")
    print(f"{'workload':<16} {'metric':<12} {'base':>10} {'cand':>10} "
          f"{'change':>8} {'spread':>13}  verdict")
    for workload in sorted({r["workload"] for r in base + cand}):
        for name, m in bounds.items():
            def values(records):
                return [r["result"]["metrics"][name]["value"]
                        for r in records
                        if r["workload"] == workload and not r["trace"]]
            b, c = values(base), values(cand)
            if not b or not c:
                continue
            mb, mc = statistics.median(b), statistics.median(c)
            worse = (mc - mb) / mb if m["better"] == "lower" \
                else (mb - mc) / mb
            width = max(spread(b), spread(c))
            if width > m["bound"]:
                verdict = "unresolved (spread above bound)"
            elif worse > m["bound"]:
                verdict = "REGRESSION"
            else:
                verdict = "ok"
            print(f"{workload:<16} {name:<12} {mb:>10.4g} {mc:>10.4g} "
                  f"{-worse:>+8.1%} {spread(b):>6.1%}/{spread(c):>5.1%}  "
                  f"{verdict}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

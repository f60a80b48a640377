"""Start the serve daemon with the benchmark's span wrappers installed.

The traced twin of ``python -m repro serve --port 0``: it installs the
wrappers before it constructs ``ServeDaemon``, prints the same
``listening on <url>`` line, serves until ``POST /shutdown``, and then
writes the aggregated spans to ``--out`` (JSON) and the kept spans next
to it (``<out>.spans.jsonl.gz``).  The benchmark starts it for the
traced phase of ``whatif-serve``; run it by hand the same way::

    python3 perfbench/serve_launcher.py --cache-dir DIR --out spans.json
"""

from __future__ import annotations

import argparse
import json
import os

import common
from tracing import Tracer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    common.prepare()
    os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    tracer = Tracer()
    tracer.install()
    from repro.serve import ServeDaemon

    daemon = ServeDaemon(port=0)
    print(f"repro serve (traced): listening on {daemon.url}", flush=True)
    try:
        daemon.serve_forever()
    finally:
        tracer.write_spans(args.out + ".spans.jsonl.gz")
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(tracer.totals(), f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

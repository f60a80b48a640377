"""One set-up of an in-process workload, timed by the caller.

Imports the program's entry points and builds the workload's inputs the
way a run does, then prints ``ready``; ``run.py`` times several of these
fresh interpreters from spawn to ``ready`` and reports the median as
``setup_s``::

    python3 perfbench/setup_probe.py sweep-cold 7
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    common.prepare()
    if workload == "sweep-cold":
        import sweep_cold as module
    else:
        import fleet_contended as module
    module.prepare_inputs(seed)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

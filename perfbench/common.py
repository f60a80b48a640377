"""Shared plumbing: hermetic environment, host fingerprint, statistics.

Every run is hermetic: all ``REPRO_*`` switches are cleared before the
program is imported (so no ambient setting can pick another dispatcher
or engine), the program is imported from ``src/`` of the checkout the
benchmark sits in, and every cache directory is a fresh temporary
directory under ``.perfbench-tmp/`` in that checkout, never the
repo-local ``.repro-cache``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Iterator, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"
OUT_DIR = ROOT / ".perfbench-out"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (e.g. no program source)."""


def hermetic_env() -> dict:
    """The process environment minus every ``REPRO_*`` switch, with the
    checkout's ``src/`` as the only program on ``PYTHONPATH``."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def prepare() -> None:
    """Make this process hermetic and importable from ``src/``.

    Raises :class:`SetupError` when the checkout holds no program
    source, so a benchmark directory copied on its own fails fast
    instead of measuring some other installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source under {SRC}")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"imported repro from {origin}, not {SRC}")


@contextlib.contextmanager
def fresh_cache_dir() -> Iterator[Path]:
    """A new empty ``REPRO_CACHE_DIR`` for the block, removed after."""
    TMP_ROOT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="cache-", dir=TMP_ROOT))
    previous = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    try:
        yield path
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # only when no other run is using it


def host_fingerprint() -> dict:
    """What a result depends on besides the code: compare only equals."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def digest(obj) -> str:
    """SHA-256 of canonical JSON (floats via repr, so bit-exact)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def keep_going(start: float, seconds: float, walls: Sequence[float],
               least: int) -> bool:
    """Whether to start another unit: at least ``least`` units, then
    only while the next one would end less than half a unit late."""
    if len(walls) < least:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + statistics.fmean(walls) / 2 < seconds


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (1..99), inclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size of another live process, from /proc."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")

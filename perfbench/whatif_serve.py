"""Workload ``whatif-serve``: ``python -m repro serve`` in its own process,
on an empty cache with default workers, driven by a closed loop of two
clients.

Why: this is the only workload where cache reads, the wire protocol,
HTTP and the worker pool sit on the blocking path, and its cold share
catches an engine change that speeds sweeps but slows single runs.  It
reads the same cache layer that ``sweep-cold`` only writes.

Callers of a what-if service wait for the answer, so a closed loop
models them: each client sends its next request when the previous one
is answered.  (An open loop at 40 req/s over two connections built an
unbounded backlog, because each cold request holds a connection.)

Every 1.5 s the clients are held between requests while the benchmark
times a host-speed slice (``hostspeed.py``); held time is not load
time, so it counts in neither the request rate nor any latency.

The request sequence is fixed in advance from the workload seed and
split between the clients so that no cell is requested cold by both.
Its mix is the one the repo's load test ``benchmarks/bench_serve.py``
answers after seeding its pool: 1320 warm repeats (its warm and mixed
phases), 32 one-knob billing variants (delta phase) and 4 never-seen
cells (mixed phase), out of 1356.  Per client, in a fixed pattern:

* 97.3% warm repeats of a base set seeded during set-up (tier lru/disk);
* 2.4% one-knob billing variants of ``static-local`` bases, each asked
  once, answered by the delta index (tier ``delta``).  The first 18
  change the billing model (ledger replay); the rest change a knob the
  on-demand model does not read (served verbatim).  ``static-local``
  because a ``global`` variant is pricing-sensitive, misses the delta
  index and runs cold;
* 0.3% never-seen short cells, answered cold by a single-cell engine
  run.  A cold cell takes about a hundred warm replies' time, so this
  share still holds about a fifth of the clients' time; every run
  prints each tier's share.

After timing stops, a seeded sample of the distinct answered cells is
rerun in isolation (cache off) and must match bit for bit.  Every reply
must also pass the leak checks of ``benchmarks/bench_serve.py`` (a
cell's content hash is stable across repeats and distinct between
cells, and the row echoes the request), come from the tier its kind
expects, and repeat the row of the cell's first reply.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
import threading
import time
import urllib.error
from pathlib import Path
from typing import Iterator, Optional

import common
from sweep_cold import POLICIES, RATES, SHAPES

BASE_PERIOD_S = 600.0
COLD_PERIOD_S = 900.0
#: Base set: static-local bases (the delta variants' bases), then
#: alternating local/global ones.
STATIC_BASES = 6
ADAPTIVE_BASES = 6
REPLAY_MODELS = ("per_second", "reserved", "sustained_use")
CLIENTS = 2
#: Request pattern per client, from the bench_serve.py mix above:
#: position i is cold when i % COLD_EVERY == COLD_EVERY // 2, else a
#: delta variant when i % DELTA_EVERY == DELTA_EVERY // 2, else a warm
#: repeat.
COLD_EVERY = 339  # 1356 / 4
DELTA_EVERY = 42  # 1356 / 32
#: The tiny size packs every tier into a few requests.
TINY_REQUESTS = 40
TINY_COLD_EVERY = 20
TINY_DELTA_EVERY = 10
#: Distinct answered cells rerun in isolation, per tier.
RECHECK = {"cold": 6, "delta": 6, "base": 4}
#: Seconds of load between host-speed slices (see ``hostspeed.py``).
SLICE_EVERY_S = 1.5


def bases(seed: int, size: str = "full") -> list[tuple[dict, str]]:
    """The base set: (Scenario kwargs, policy) seeded during set-up.

    Every seed gets the same multiset of rates, dealt by a seeded
    shuffle, and its own scenario seeds.
    """
    rng = random.Random(f"whatif-serve:bases:{seed}")
    n_static = 2 if size == "tiny" else STATIC_BASES
    n_adaptive = 2 if size == "tiny" else ADAPTIVE_BASES
    n = n_static + n_adaptive
    rates = [RATES[j % len(RATES)] for j in range(n)]
    rng.shuffle(rates)
    out = []
    for j, rate in enumerate(rates):
        kind, variability = SHAPES[j % len(SHAPES)]
        policy = ("static-local" if j < n_static
                  else POLICIES[1 + (j - n_static) % 2])
        out.append((dict(rate=rate, rate_kind=kind, variability=variability,
                         seed=rng.randrange(1, 10_000),
                         period=BASE_PERIOD_S), policy))
    return out


def _variant(base_set: list, g: int) -> tuple[dict, str]:
    """Variant ``g`` (a global index, unique per client by parity)."""
    statics = [b for b in base_set if b[1] == "static-local"]
    scenario, policy = statics[g % len(statics)]
    n_replay = len(statics) * len(REPLAY_MODELS)
    if g < n_replay:
        change = {"billing_model": REPLAY_MODELS[g // len(statics)]}
    elif g % 2:
        change = {"billing_discount": round(0.05 + g * 1e-4, 6)}
    else:
        change = {"billing_upfront_fraction": round(0.05 + g * 1e-4, 6)}
    return dict(scenario, **change), policy


def _cold(seed: int, client: int, k: int) -> tuple[dict, str]:
    """Client ``client``'s ``k``-th never-seen cell.

    Rate, shape and policy cycle with ``k`` (from a seeded rate offset),
    so every seed's cold share holds the same mix of light and heavy
    cells; only the scenario seeds are new.
    """
    offset = random.Random(f"whatif-serve:cold:{seed}").randrange(len(RATES))
    kind, variability = SHAPES[k % len(SHAPES)]
    return (dict(rate=RATES[(k + offset + client) % len(RATES)],
                 rate_kind=kind, variability=variability,
                 # Base seeds are < 10_000; clients own disjoint seeds.
                 seed=10_000 + 100_000 * (seed % 10_000) + CLIENTS * k
                 + client,
                 period=COLD_PERIOD_S),
            POLICIES[k % len(POLICIES)])


def requests(seed: int, client: int, base_set: list,
             size: str = "full") -> Iterator[tuple[str, dict, str]]:
    """Client ``client``'s endless request sequence: (kind, scenario,
    policy) with kind ``warm`` / ``delta`` / ``cold``."""
    cold_every, delta_every = ((TINY_COLD_EVERY, TINY_DELTA_EVERY)
                               if size == "tiny"
                               else (COLD_EVERY, DELTA_EVERY))
    rng = random.Random(f"whatif-serve:warm:{seed}:{client}")
    n_delta = n_cold = 0
    i = 0
    while True:
        if i % cold_every == cold_every // 2:
            yield ("cold", *_cold(seed, client, n_cold))
            n_cold += 1
        elif i % delta_every == delta_every // 2:
            yield ("delta", *_variant(base_set, CLIENTS * n_delta + client))
            n_delta += 1
        else:
            yield ("warm", *base_set[rng.randrange(len(base_set))])
        i += 1


EXPECTED_TIERS = {"base": ("cold",), "warm": ("lru", "disk"),
                  "delta": ("delta",), "cold": ("cold",)}


def _leak_checker():
    """A ``LeakChecker`` of ``benchmarks/bench_serve.py``, so the leak
    rules live in one place."""
    bench = str(common.ROOT / "benchmarks")
    if bench not in sys.path:
        sys.path.append(bench)
    from bench_serve import LeakChecker

    return LeakChecker()


class _Book:
    """Replies of one phase: latencies, tiers, leak checks, failures."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.leaks = _leak_checker()
        self.records: list[tuple[str, str, float, float]] = []
        self.cells: dict[str, tuple[str, dict, str, dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        with self.lock:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(problem)

    def answer(self, kind: str, scenario: dict, policy: str, resp: dict,
               wall_ms: float) -> None:
        results = resp.get("results") or []
        if len(results) != 1:
            self.fail(f"{len(results)} results for one policy")
            return
        result = results[0]
        row = result["row"]
        tier = result["tier"]
        ident = json.dumps([scenario, policy], sort_keys=True)
        problem = None
        try:
            self.leaks.check(scenario, resp)
        except AssertionError as exc:
            problem = f"leak check: {exc}"
        if problem is None and tier not in EXPECTED_TIERS[kind]:
            problem = f"{kind} request answered from tier {tier}"
        with self.lock:
            if problem is None:
                if ident not in self.cells:
                    self.cells[ident] = (kind, scenario, policy, row)
                elif self.cells[ident][3] != row:
                    problem = "row changed across repeats"
            if problem is None:
                self.records.append((kind, tier, wall_ms,
                                     float(resp["elapsed_ms"])))
                return
        self.fail(problem)


class _Gate:
    """Lets the clients through one request at a time each, and holds
    them between requests while the main thread times a host-speed
    slice, so no slice overlaps a request.  Held time does not count
    as load time: the deadline moves by it."""

    def __init__(self, deadline: float) -> None:
        self.cond = threading.Condition()
        self.deadline = deadline
        self.closed = False
        self.busy = 0

    def enter(self) -> bool:
        """Wait until open; False once the deadline has passed."""
        with self.cond:
            while self.closed:
                self.cond.wait()
            if time.perf_counter() >= self.deadline:
                return False
            self.busy += 1
            return True

    def leave(self) -> None:
        with self.cond:
            self.busy -= 1
            self.cond.notify_all()

    def hold(self, work) -> float:
        """Run ``work`` with no request in flight; returns the held time."""
        t0 = time.perf_counter()
        with self.cond:
            self.closed = True
            while self.busy:
                self.cond.wait()
        try:
            work()
        finally:
            with self.cond:
                held = time.perf_counter() - t0
                self.deadline += held
                self.closed = False
                self.cond.notify_all()
        return held


def _drive(url: str, stream, book: _Book, gate: _Gate,
           budget: Optional[int]) -> None:
    from repro.serve import ServeClient, ServerBusy

    client = ServeClient(url, timeout=120.0)
    sent = 0
    for kind, scenario, policy in stream:
        if budget is not None and sent >= budget:
            break
        if not gate.enter():
            break
        try:
            sent += 1
            with book.lock:
                book.attempted += 1
            t0 = time.perf_counter()
            try:
                resp = client.run(scenario, [policy])
            except ServerBusy:
                with book.lock:
                    book.rejected += 1
                book.fail("429 from the worker queue")
                continue
            except Exception as exc:  # noqa: BLE001 — any error is a failure
                book.fail(f"{type(exc).__name__}: {exc}")
                continue
            book.answer(kind, scenario, policy, resp,
                        (time.perf_counter() - t0) * 1e3)
        finally:
            gate.leave()


def _run_clients(url: str, streams: list, book: _Book, seconds: float,
                 budget: Optional[int], speed=None) -> float:
    """Drive the daemon with one thread per stream; returns the load
    time: wall time minus the time the clients were held for host-speed
    slices.  With ``speed``, a slice is timed before the clients start,
    every :data:`SLICE_EVERY_S` while they run, and after they end."""
    if speed is not None:
        speed.sample()
    # A request budget replaces the deadline.
    gate = _Gate(time.perf_counter() + seconds if budget is None
                 else float("inf"))
    threads = [threading.Thread(target=_drive,
                                args=(url, s, book, gate, budget))
               for s in streams]
    t0 = time.perf_counter()
    held = 0.0
    for t in threads:
        t.start()
    while speed is not None and any(t.is_alive() for t in threads):
        until = time.perf_counter() + SLICE_EVERY_S
        for t in threads:
            t.join(max(0.0, until - time.perf_counter()))
        if any(t.is_alive() for t in threads):
            held += gate.hold(speed.sample)
    for t in threads:
        t.join()
    load_s = time.perf_counter() - t0 - held
    if speed is not None:
        speed.sample()
    return load_s


# -- the daemon ----------------------------------------------------------------


class Daemon:
    """One serve daemon process on an empty cache directory.

    Untraced it is ``python -m repro serve``; traced it is
    ``serve_launcher.py``, which installs the span wrappers before it
    constructs ``ServeDaemon`` and writes the spans out on shutdown.
    """

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        self._cache = common.fresh_cache_dir()
        self.cache_dir = self._cache.__enter__()
        # The launcher keeps its spans next to the totals, in OUT_DIR.
        common.OUT_DIR.mkdir(exist_ok=True)
        self.totals_path = common.OUT_DIR / (
            f"whatif-serve-daemon-{time.strftime('%Y%m%dT%H%M%S')}-"
            f"{time.time_ns() % 10**9}.json")
        env = common.hermetic_env()
        env["REPRO_CACHE_DIR"] = str(self.cache_dir)
        if traced:
            cmd = [sys.executable, str(common.BENCH_DIR / "serve_launcher.py"),
                   "--cache-dir", str(self.cache_dir),
                   "--out", str(self.totals_path)]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        self._stderr = open(self.cache_dir.parent / (
            self.cache_dir.name + "-stderr.txt"), "w+", encoding="utf-8")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=common.ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        try:
            self.url = self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - t0

    def _await_ready(self) -> str:
        from repro.serve import ServeClient

        line = self.proc.stdout.readline()
        marker = "listening on "
        if marker not in line:
            self._stderr.seek(0)
            raise RuntimeError(
                f"daemon did not start: {line!r} {self._stderr.read()[-2000:]}")
        url = line.split(marker, 1)[1].split()[0]
        client = ServeClient(url, timeout=5.0)
        for _ in range(300):
            try:
                if client.health().get("ok"):
                    return url
            except (urllib.error.URLError, ConnectionError, OSError):
                pass
            time.sleep(0.02)
        raise RuntimeError("daemon never answered /healthz")

    def peak_rss_mb(self) -> float:
        return common.proc_peak_rss_mb(self.proc.pid)

    def stop(self) -> Optional[dict]:
        """Shut down, wait for exit, clean up; returns traced totals."""
        from repro.serve import ServeClient

        totals = None
        try:
            if self.proc.poll() is None and getattr(self, "url", None):
                try:
                    ServeClient(self.url, timeout=10.0).shutdown()
                except Exception:  # noqa: BLE001 — killed below if needed
                    pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            if self.traced and self.totals_path.exists():
                totals = json.loads(self.totals_path.read_text())
        finally:
            self._stderr.close()
            for path in (self.totals_path,
                         Path(self._stderr.name)):
                path.unlink(missing_ok=True)
            self._cache.__exit__(None, None, None)
        return totals


# -- one measured phase --------------------------------------------------------


def _phase(seed: int, seconds: float, size: str, traced: bool,
           speed=None) -> dict:
    budget = TINY_REQUESTS if size == "tiny" else None
    t0 = time.perf_counter()
    base_set = bases(seed, size)
    streams = [requests(seed, c, base_set, size) for c in range(CLIENTS)]
    plan_s = time.perf_counter() - t0
    daemon = Daemon(traced=traced)
    totals = None
    try:
        book = _Book()
        # Seed the base set cold, split between the clients.
        seeding = [iter([("base", s, p) for s, p in base_set[c::CLIENTS]])
                   for c in range(CLIENTS)]
        seed_s = _run_clients(daemon.url, seeding, book, 1e9, None, speed)
        seeded = len(book.records)
        wall = _run_clients(daemon.url, streams, book, seconds, budget,
                            speed)
        peak = daemon.peak_rss_mb()
    finally:
        totals = daemon.stop()
    return {
        "book": book, "seeded": seeded, "wall_s": wall, "peak_rss_mb": peak,
        "boot_s": daemon.boot_s, "seed_s": seed_s, "plan_s": plan_s,
        "totals": totals,
    }


def _recheck(seed: int, book: _Book) -> tuple[int, int]:
    """Rerun a seeded sample of answered cells in isolation; returns
    (mismatches, cells rerun)."""
    from repro.experiments import cache
    from repro.experiments.runner import SweepRow
    from repro.experiments.scenarios import Scenario, run_policy

    rng = random.Random(f"whatif-serve:recheck:{seed}")
    by_kind: dict[str, list] = {}
    for ident in sorted(book.cells):
        kind, scenario, policy, row = book.cells[ident]
        by_kind.setdefault(kind, []).append((scenario, policy, row))
    sample = []
    for kind, n in RECHECK.items():
        cells = by_kind.get(kind, [])
        sample += rng.sample(cells, min(n, len(cells)))
    was = cache.enabled()
    cache.disable()
    bad = 0
    try:
        for scenario, policy, row in sample:
            sc = Scenario(**scenario)
            fresh = SweepRow.from_result(sc, run_policy(sc, policy))
            if common.digest(dataclasses.asdict(fresh)) != common.digest(row):
                bad += 1
    finally:
        if was:
            cache.enable()
    return bad, len(sample)


def _summary(phase: dict) -> dict:
    book = phase["book"]
    timed = book.records[phase["seeded"]:]
    lat = [r[2] for r in timed]
    out = {
        "ops": len(timed),
        "wall_s": phase["wall_s"],
        "ops_per_s": len(timed) / phase["wall_s"],
        "op_p50_ms": common.median(lat) if lat else float("nan"),
        "p99_ms": common.percentile(lat, 99) if lat else float("nan"),
    }
    for name, tiers in (("warm", ("lru", "disk")), ("delta", ("delta",)),
                        ("cold", ("cold",))):
        xs = [r[2] for r in timed if r[1] in tiers]
        out[f"{name}_n"] = len(xs)
        out[f"{name}_p50_ms"] = common.median(xs) if xs else float("nan")
    warm = [r for r in timed if r[1] in ("lru", "disk")]
    out["elapsed_p50_ms"] = (common.median([r[3] for r in warm])
                             if warm else float("nan"))
    out["http_p50_ms"] = (common.median([r[2] - r[3] for r in warm])
                          if warm else float("nan"))
    out["tiers"] = {t: sum(1 for r in timed if r[1] == t)
                    for t in ("lru", "disk", "delta", "cold")}
    # Each client waits on one request at a time, so a tier's share of
    # the summed latencies is its share of the clients' time.
    waited = sum(lat)
    out["time_share"] = {
        name: (sum(r[2] for r in timed if r[1] in tiers) / waited
               if waited else float("nan"))
        for name, tiers in (("warm", ("lru", "disk")), ("delta", ("delta",)),
                            ("cold", ("cold",)))}
    return out


def measure(seed: int, seconds: float, tracer=None, size: str = "full",
            max_units: Optional[int] = None, pins: Optional[dict] = None,
            speed=None):
    """Drive the daemon for ``seconds`` (tiny: a fixed request budget).

    With ``tracer`` set, an untraced phase and a traced phase of
    ``seconds / 2`` each run on fresh daemons with the same sequence.
    ``tracer`` itself stays unused here: the spans live in the traced
    daemon process and come back through its totals file.  With
    ``speed``, host-speed slices are timed while the clients are held.
    """
    phases = ([("untraced", False, seconds / 2), ("traced", True, seconds / 2)]
              if tracer is not None else [("untraced", False, seconds)])
    results = {}
    attempted = failed = 0
    notes = []
    for name, traced, secs in phases:
        ph = _phase(seed, secs, size, traced, speed)
        book = ph["book"]
        bad, checked = _recheck(seed, book)
        attempted += book.attempted
        failed += book.failed + bad
        results[name] = (ph, _summary(ph))
        s = results[name][1]
        notes.append(
            f"whatif-serve ({name}): {s['ops']} requests in {s['wall_s']:.1f}s "
            f"after seeding {ph['seeded']} bases; tiers {s['tiers']}; "
            f"{checked} cells rerun in isolation, {bad} mismatches; "
            f"{book.failed} failed replies")
        notes += [f"  problem: {p}" for p in book.problems]
    return {"attempted": attempted, "failed": failed, "notes": notes,
            "phases": results}

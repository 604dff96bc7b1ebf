"""The benchmark's three workloads.

Every workload draws its statement stream from the seed, sets up its
database several times (``setup_s`` is the median), computes expected answers
before any timing starts, warms up, and then measures a closed loop
for the requested seconds.  Answers are checked after each timed call
returns, with the clock stopped.  See ``perfbench/README.md`` for why
each workload exists and which layer metric should move which
end-to-end metric.

With ``trace=1`` a workload measures half its seconds untraced, then
repeats exactly the same operations with the span recorder installed;
the per-layer numbers come from the second half, the tracing overhead
is the difference of the two halves, and the simulated costs of the
two halves must be identical operation by operation.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import math
import os
import random
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import GhostDB
from repro.errors import GhostDBError
from repro.flash.constants import PAGE_SIZE
from repro.service.client import AsyncGhostClient
from repro.service.loadgen import TEMPLATE_FIG10, TEMPLATE_FIG12
from repro.service.protocol import FrameError
from repro.service.server import GhostServer, plan_ram_claim
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

from hostclock import HostClock
from measure import Outcome, median, run_header
from spans import Tracer

SCALE_READS = 0.01
SCALE_CHURN = 0.005
#: the data set is the same for every seed (the synthetic generator's
#: default seed); ``--seed`` draws the statement stream.  Plan choices
#: that sit near a tie flip with the data's foreign-key draws, which
#: would make the simulated clock differ from seed to seed by far more
#: than any bound.
DATA_SEED = 42
CHURN_SHARDS = 2
#: set-ups per run; ``setup_s`` reports their median
SETUPS = 3
#: restores per run; ``restore_s`` reports their median
RESTORES = 21
#: closed-loop client connections on ``point-service`` (nproc = 2)
CLIENTS = 2
#: reads per ``point-service`` chunk (~0.2 s; see ``_service_phase``)
CHUNK = 24

_FROM = ("FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
         "AND T1.v1 < ? AND T12.h2 = ?")

#: the read shapes, by kind
TEMPLATES: Dict[str, str] = {
    "q": TEMPLATE_FIG10,
    "qh": TEMPLATE_FIG12,
    "q3h": TEMPLATE_FIG10 + " AND T1.h1 = ? AND T0.h3 = ?",
    "ord": ("SELECT T0.id, T1.id, T1.v1 " + _FROM
            + " ORDER BY T1.v1 DESC, T0.id LIMIT 50"),
    "grp": "SELECT T1.h1, COUNT(*) " + _FROM + " GROUP BY T1.h1",
}

#: one oracle statement whose rows answer every read above by an exact
#: filter and projection: T0.id, T1.id, T12.id, T1.v1, T1.h1, T0.h3, T12.h2
SUPERSET = ("SELECT T0.id, T1.id, T12.id, T1.v1, T1.h1, T0.h3, T12.h2 "
            "FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id "
            "AND T1.v1 < {k}")

#: per-layer metrics every traced run reports (0 where a layer does
#: not run on the workload), in BENCHMARK.json order
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("service.overhead_ms", "ms"), ("service.codec_ms", "ms"),
    ("service.wait_ms", "ms"), ("service.retries", "count"),
    ("sql.parse_ms", "ms"), ("sql.bind_ms", "ms"),
    ("planner.plan_ms", "ms"), ("planner.plans", "count"),
    ("planner.cache_hit_rate", "ratio"), ("planner.cache_lookups", "count"),
    ("untrusted.vis_ms", "ms"), ("untrusted.comm_bytes", "B"),
    ("executor.self_ms", "ms"), ("merge.self_ms", "ms"),
    ("bloom.self_ms", "ms"), ("bloom.items", "count"),
    ("project.self_ms", "ms"), ("sort.self_ms", "ms"),
    ("flash.read_calls", "count"), ("flash.read_page_ms", "ms"),
    ("flash.cache_hit_rate", "ratio"), ("flash.cache_lookups", "count"),
    ("flash.pages_read", "count"), ("flash.files_leaked", "count"),
    ("sim.Vis", "sim_s"), ("sim.CI", "sim_s"), ("sim.Merge", "sim_s"),
    ("sim.SJoin", "sim_s"), ("sim.Bloom", "sim_s"), ("sim.Store", "sim_s"),
    ("sim.Project", "sim_s"), ("sim.Sort", "sim_s"),
    ("dml.insert_ms", "ms"), ("dml.delete_ms", "ms"),
    ("climbing.lookup_ms", "ms"), ("climbing.lookups", "count"),
    ("compaction.steps", "count"), ("compaction.restarts", "count"),
    ("compaction.pages_rewritten", "count"),
    ("compaction.useful_step_ratio", "ratio"),
    ("compaction.steps_run", "count"),
    ("flash.pages_written", "count"), ("flash.write_amp", "ratio"),
    ("flash.user_bytes", "B"),
    ("shard.gather_ms", "ms"), ("shard.fanout", "count"),
    ("persist.snapshot_s", "s"), ("persist.image_bytes", "B"),
    ("persist.first_read_ms", "ms"),
    ("ram.peak_bytes", "B"), ("ram.estimate_bound_ratio", "ratio"),
    ("ram.estimate_checks", "count"),
    ("write_p50_ms", "ms"), ("write_tail_ms", "ms"),
    ("compact_slice_ms", "ms"), ("error_rate", "ratio"),
    ("trace.overhead_ms", "ms"), ("trace.spans", "count"),
)

SIM_LABELS = ("Vis", "CI", "Merge", "SJoin", "Bloom", "Store", "Project",
              "Sort")


# ----------------------------------------------------------------------
# expected answers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Read:
    kind: str
    params: Tuple[int, ...]

    @property
    def sql(self) -> str:
        return TEMPLATES[self.kind]


def expected(read: Read, superset: Sequence[Tuple]) -> List[Tuple]:
    """The answer to ``read``, derived from the oracle's superset rows."""
    k, h2 = read.params[:2]
    rows = [r for r in superset if r[3] < k and r[6] == h2]
    if read.kind == "q3h":
        h1, h3 = read.params[2:]
        rows = [r for r in rows if r[4] == h1 and r[5] == h3]
    if read.kind in ("q", "q3h"):
        return sorted(r[:4] for r in rows)
    if read.kind == "qh":
        return sorted(r[:5] for r in rows)
    if read.kind == "ord":
        return sorted(((r[0], r[1], r[3]) for r in rows),
                      key=lambda t: (-t[2], t[0]))[:50]
    return sorted(Counter(r[4] for r in rows).items())


def answer(read: Read, rows: Sequence[Tuple]) -> List[Tuple]:
    """The engine's rows in the form :func:`expected` returns."""
    rows = [tuple(r) for r in rows]
    return rows if read.kind == "ord" else sorted(rows)


# ----------------------------------------------------------------------
# what one measured phase saw
# ----------------------------------------------------------------------
@dataclass
class Phase:
    #: read-phase time and latencies in reference-host seconds
    #: (``hostclock``); ``read_wall`` keeps the latencies as measured
    wall_s: float = 0.0
    rounds: int = 0
    read_s: List[float] = field(default_factory=list)
    read_wall: List[float] = field(default_factory=list)
    read_sim: List[float] = field(default_factory=list)
    sim_by_op: Counter = field(default_factory=Counter)
    comm_bytes: int = 0
    pages_read: int = 0
    ram_peak: int = 0
    ram_ok: int = 0
    ram_checks: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    plan_hits: int = 0
    plan_lookups: int = 0
    retries: int = 0
    insert_s: List[float] = field(default_factory=list)
    delete_s: List[float] = field(default_factory=list)
    slices: List[Tuple[float, int, int]] = field(default_factory=list)
    useful_steps: int = 0
    steps_run: int = 0
    restarts: int = 0
    pages_written: int = 0
    user_bytes: int = 0
    files_leaked: int = 0
    admission_wait_s: float = 0.0
    #: simulated seconds of every operation, in order (trace check)
    sim_trail: List[float] = field(default_factory=list)

    def read_timed(self, clock: HostClock, wall_s: float) -> None:
        self.read_wall.append(wall_s)
        self.read_s.append(clock.scale(wall_s))

    def read_result(self, result, db) -> None:
        """Fold one embedded ``QueryResult`` in (clock stopped)."""
        stats = result.stats
        self.read_sim.append(_ns(stats.total_s))
        self.sim_trail.append(stats.total_s)
        self.sim_by_op.update({k: _ns(v)
                               for k, v in stats.by_operator.items()})
        self.comm_bytes += stats.bytes_to_secure + stats.bytes_to_untrusted
        self.pages_read += stats.counters.get("pages_read", 0)
        self.ram_peak = max(self.ram_peak, stats.ram_peak)
        self.ram_checks += 1
        self.ram_ok += _within_estimate(result, db)


def _ns(sim_s: float) -> int:
    """Simulated seconds as whole nanoseconds.  The ledger hands out
    per-operation costs as differences of running float sums, which
    differ in the last bits with the operation's position in the run;
    rounding makes a seed's simulated metrics repeat exactly."""
    return round(sim_s * 1e9)


def _same_sim(a: Sequence[float], b: Sequence[float]) -> bool:
    """Equal simulated costs, operation by operation, up to the float
    summation order of the ledger."""
    return len(a) == len(b) and all(
        math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-12)
        for x, y in zip(a, b))


def _within_estimate(result, db) -> bool:
    """Measured secure-RAM peak within the planner's estimate, as the
    service pledges it (``plan_ram_claim``), per token."""
    plan = result.plan
    subplans = getattr(plan, "subplans", None)
    if subplans is None:
        return result.stats.ram_peak <= plan_ram_claim(plan, db.token.ram)
    return all(s.ram_peak <= plan_ram_claim(sub, ram)
               for (sub, ram), s in zip(subplans(), result.shard_stats))


def _files(db) -> int:
    return sum(t.store.n_files for t in _tokens(db))


def _tokens(db) -> list:
    return [s.token for s in getattr(db, "shards", [db])]


def _cache(db) -> Tuple[int, int]:
    hits = lookups = 0
    for token in _tokens(db):
        stats = token.store.cache_stats()
        hits += stats["hits"]
        lookups += stats["hits"] + stats["misses"]
    return hits, lookups


def _ledger(db) -> Tuple[Counter, Counter]:
    """(simulated seconds per label, counters) summed over tokens."""
    by_op: Counter = Counter()
    counters: Counter = Counter()
    for token in _tokens(db):
        by_op.update(token.ledger.by_label_s())
        counters.update(token.ledger.counters)
    return by_op, counters


def flash_bytes_per_row(db) -> Tuple[float, int]:
    """Mapped flash bytes (pages held by live files) per live row,
    rows counted once (the fleet replicates non-root tables)."""
    shards = getattr(db, "shards", [db])
    mapped = sum(t.store.pages_used() * t.page_size for t in _tokens(db))
    stats = [s.statistics() for s in shards]
    schema = shards[0].schema
    rows = 0
    for table in schema.tables:
        live = [next(iter(st[table].values()))["n"] for st in stats]
        rows += sum(live) if table == schema.root else live[0]
    return mapped / rows, rows


def _setups(outcome: Outcome, build: Callable, keep: int = 1,
            release: Optional[Callable] = None) -> list:
    """Run ``build`` :data:`SETUPS` times; keep the last ``keep``
    results (``release`` is called, untimed, on each dropped one).
    Each build is probed just before and after, and rescaled by the
    latest probes."""
    clock = outcome.clock
    kept, walls, times = [], [], []
    for _ in range(SETUPS):
        if len(kept) >= keep:
            dropped = kept.pop(0)
            if release is not None:
                release(dropped)
            del dropped
        gc.collect()
        clock.probe()
        t0 = time.perf_counter()
        kept.append(build())
        walls.append(time.perf_counter() - t0)
        clock.probe()
        times.append(clock.scale(walls[-1]))
    outcome.add("setup_s", median(times), "s", len(times))
    outcome.add("wall.setup_s", median(walls), "s", len(walls))
    return kept


def _restores(outcome: Outcome, db, tmp: str,
              probe: Callable) -> None:
    """Snapshot once, restore :data:`RESTORES` times, then ``probe``
    the last restored database (its first call is timed: it pays the
    lazy page materialization)."""
    path = os.path.join(tmp, "image")
    t0 = time.perf_counter()
    summary = db.snapshot(path)
    outcome.add("persist.snapshot_s", time.perf_counter() - t0, "s", 1)
    outcome.add("persist.image_bytes", summary["bytes"], "B", 1)
    clock = outcome.clock
    walls, times, restored = [], [], None
    for _ in range(RESTORES):
        restored = None
        gc.collect()
        clock.probe()
        t0 = time.perf_counter()
        restored = GhostDB.restore(path)
        walls.append(time.perf_counter() - t0)
        times.append(clock.scale(walls[-1]))
    outcome.add("restore_s", median(times), "s", len(times))
    outcome.add("wall.restore_s", median(walls), "s", len(walls))
    outcome.add("persist.first_read_ms", probe(restored) * 1e3, "ms", 1)


# ----------------------------------------------------------------------
# the read workloads
# ----------------------------------------------------------------------
def _oracle(db, reads: Sequence[Read]) -> List[List]:
    """Expected answers of ``reads`` from one untimed oracle call."""
    k_max = max(r.params[0] for r in reads)
    superset = db.reference_query(SUPERSET.format(k=k_max))[1]
    return [expected(r, superset) for r in reads]


def _probe_reads(outcome: Outcome, reads, wants) -> Callable:
    """Probe for a restored database: the first reads must answer as
    before the snapshot."""
    def probe(db) -> float:
        session = db.session()
        first = None
        for read, want in list(zip(reads, wants))[:3]:
            t0 = time.perf_counter()
            result = session.prepare(read.sql).execute(read.params)
            first = first if first is not None else time.perf_counter() - t0
            outcome.check(f"restored {read}", answer(read, result.rows),
                          want)
        return first
    return probe


def point_reads(rng: random.Random) -> List[Read]:
    """Query Q, Q with a hidden projection and a three-hidden-predicate
    Q at every visible selectivity 0.001..0.01 (``v1 < 1..10``) and
    every ``T12.h2`` value, after one fixed planning read per shape.
    Query Q's cost follows its result size, so covering every ``h2``
    keeps the simulated cost of a round the same for every seed; the
    seed draws the other two hidden values and the order."""
    reads = [Read("q", (5, 2)), Read("qh", (5, 2)),
             Read("q3h", (5, 2, 0, 0))]
    for k in range(1, 11):
        for h2 in range(10):
            reads.append(Read("q", (k, h2)))
            reads.append(Read("qh", (k, h2)))
            reads.append(Read("q3h", (k, h2, rng.randrange(10),
                                      rng.randrange(10))))
    return reads


def scan_reads(rng: random.Random) -> List[Read]:
    """Four shapes at visible selectivity 0.1..0.5 after one fixed
    planning read per shape.  The bounds step evenly through the range
    (each jittered by up to 0.01, so every seed runs its own
    statements) and the shapes take turns, so latencies spread evenly
    instead of bunching per selectivity, which would leave the median
    in a gap between bunches."""
    kinds = ("q", "qh", "ord", "grp")
    reads = [Read(kind, (300, 2)) for kind in kinds]
    for i in range(20):
        k = 100 + 20 * i + rng.randrange(-10, 11)
        reads.append(Read(kinds[i % 4], (k, rng.randrange(10))))
    return reads


def _schedule(rng: Optional[random.Random],
              n: int) -> Callable[[], List[int]]:
    """A fresh seeded order of the ``n`` reads for every round (two
    calls with equal seeds give equal sequences); list order without
    ``rng``, so the planning reads come first.

    A prepared statement is planned at its first execution and the
    plan serves every later parameter set, so which parameters come
    first decides the plan for the whole run."""
    def next_round() -> List[int]:
        order = list(range(n))
        if rng is not None:
            rng.shuffle(order)
        return order
    return next_round


def scan_embedded(seed: int, seconds: int, trace: int) -> Outcome:
    outcome = Outcome(run_header("scan-embedded", seed, seconds, trace,
                                 SCALE_READS, 1))
    rng = random.Random(seed)
    cfg = SyntheticConfig(scale=SCALE_READS, seed=DATA_SEED)
    (db,) = _setups(outcome, lambda: build_synthetic(cfg))
    reads = scan_reads(rng)
    wants = _oracle(db, reads)
    session = db.session()
    stmts = {kind: session.prepare(sql) for kind, sql in TEMPLATES.items()}

    clock = outcome.clock

    def phase(order_seed: Optional[int], seconds: Optional[float],
              rounds: Optional[int], tracer: Optional[Tracer]) -> Phase:
        ph = Phase()
        next_round = _schedule(
            None if order_seed is None else random.Random(order_seed),
            len(reads))
        hits0, lookups0 = _cache(db)
        files0 = _files(db)
        plan0 = (session.plan_cache.hits, session.plan_cache.misses)
        t_end = time.perf_counter() + (seconds or 0)
        while (ph.rounds < rounds) if rounds is not None \
                else time.perf_counter() < t_end:
            for i in next_round():
                read = reads[i]
                outcome.attempted += 1
                clock.tick()
                try:
                    with _root(tracer, "op.read", i):
                        t0 = time.perf_counter()
                        result = stmts[read.kind].execute(read.params)
                        ph.read_timed(clock, time.perf_counter() - t0)
                except GhostDBError as exc:
                    outcome.fail(type(exc).__name__)
                    continue
                ph.read_result(result, db)
                outcome.check(f"{read}", answer(read, result.rows),
                              wants[i])
            ph.rounds += 1
        ph.wall_s = sum(ph.read_s)
        hits1, lookups1 = _cache(db)
        ph.cache_hits, ph.cache_lookups = hits1 - hits0, lookups1 - lookups0
        ph.plan_hits = session.plan_cache.hits - plan0[0]
        ph.plan_lookups = ph.plan_hits + session.plan_cache.misses - plan0[1]
        ph.files_leaked = _files(db) - files0
        return ph

    phase(None, None, 1, None)            # warm-up: plans, caches
    _flash(outcome, db)
    _run_phases(outcome, phase, seed, seconds, trace)
    with tempfile.TemporaryDirectory(dir=_tmp_root()) as tmp:
        _restores(outcome, db, tmp, _probe_reads(outcome, reads, wants))
    return outcome


def point_service(seed: int, seconds: int, trace: int) -> Outcome:
    outcome = Outcome(run_header("point-service", seed, seconds, trace,
                                 SCALE_READS, 1))
    with asyncio.Runner() as runner:
        _point_service(outcome, runner, seed, seconds, trace)
    return outcome


def _point_service(outcome: Outcome, runner: asyncio.Runner, seed: int,
                   seconds: int, trace: int) -> None:
    rng = random.Random(seed)
    cfg = SyntheticConfig(scale=SCALE_READS, seed=DATA_SEED)

    def build() -> Tuple:
        db = build_synthetic(cfg)
        server = GhostServer(db)
        runner.run(server.start())
        return db, server

    ((db, server),) = _setups(outcome, build,
                              release=lambda kept: runner.run(kept[1].stop()))
    reads = point_reads(rng)
    wants = _oracle(db, reads)
    clients = [runner.run(AsyncGhostClient.connect(
        server.host, server.port, timeout_s=30.0, retries=2))
        for _ in range(CLIENTS)]
    try:
        stmt_ids = [{kind: runner.run(c.prepare(sql))
                     for kind, sql in TEMPLATES.items()} for c in clients]
        # every connection plans each shape at its fixed planning read
        for client, ids in zip(clients, stmt_ids):
            for i, read in enumerate(reads[:len({r.kind for r in reads})]):
                outcome.attempted += 1
                res = runner.run(client.exec_stmt(ids[read.kind],
                                                  read.params))
                outcome.check(f"planning {read}", answer(read, res.rows),
                              wants[i])

        def phase(order_seed: int, seconds: Optional[float],
                  rounds: Optional[int], tracer: Optional[Tracer]) -> Phase:
            return runner.run(_service_phase(
                outcome, db, server, clients, stmt_ids, reads, wants,
                order_seed, seconds, rounds, tracer))

        phase(seed, None, 1, None)            # warm-up: caches
        _flash(outcome, db)
        _run_phases(outcome, phase, seed, seconds, trace,
                    lambda tracer: tracer.wrap_lock(server, "_exec_lock"))
        for c in clients:
            outcome.observed["TimeoutObserved"] += c.timeouts_total
            outcome.observed["Retried"] += c.retries_total
    finally:
        for c in clients:
            runner.run(c.close())
        runner.run(server.stop())
    with tempfile.TemporaryDirectory(dir=_tmp_root()) as tmp:
        _restores(outcome, db, tmp, _probe_reads(outcome, reads, wants))


async def _service_phase(outcome: Outcome, db, server, clients, stmt_ids,
                         reads: Sequence[Read], wants, order_seed: int,
                         seconds: Optional[float], rounds: Optional[int],
                         tracer: Optional[Tracer]) -> Phase:
    """Rounds of ``reads`` over every connection, each connection a
    closed loop.  A response is checked as soon as its clock stops (a
    ~0.1 ms pause of the loop) and then dropped, so the benchmark's
    heap does not grow and call the cyclic GC into the timed loop.

    A round runs in chunks of :data:`CHUNK` reads with the host probed
    between chunks, while both connections are idle; a chunk's wall
    time and latencies are rescaled by the speed probed before it."""
    clock = outcome.clock
    ph = Phase()
    next_round = _schedule(random.Random(order_seed), len(reads))
    hits0, lookups0 = _cache(db)
    files0 = _files(db)
    by_op0, counters0 = _ledger(db)
    plan0 = await _plan_cache(clients)
    retries0 = _client_retries(clients) + server.snapshot_retries
    wait0 = server.admission.describe()["wait_s_total"]
    underruns0 = server.claim_underruns

    async def worker(c: int, queue: List[int]) -> None:
        client, ids = clients[c], stmt_ids[c]
        while queue:
            i = queue.pop()
            read = reads[i]
            outcome.attempted += 1
            try:
                with _root(tracer, "op.read", f"cli{c}-{i}"):
                    t0 = time.perf_counter()
                    res = await client.exec_stmt(ids[read.kind],
                                                 read.params)
                    ph.read_timed(clock, time.perf_counter() - t0)
            except (GhostDBError, FrameError, OSError) as exc:
                outcome.fail(getattr(exc, "error_type", "")
                             or type(exc).__name__)
                continue
            stats = res.stats
            ph.read_sim.append(_ns(stats["total_s"]))
            ph.sim_trail.append(stats["total_s"])
            ph.comm_bytes += (stats["bytes_to_secure"]
                              + stats["bytes_to_untrusted"])
            ph.ram_peak = max(ph.ram_peak, stats["ram_peak"])
            outcome.check(f"{read}", answer(read, res.rows), wants[i])

    t_end = time.perf_counter() + (seconds or 0)
    while (ph.rounds < rounds) if rounds is not None \
            else time.perf_counter() < t_end:
        order = next_round()
        for start in range(0, len(order), CHUNK):
            clock.tick()
            queue = order[start:start + CHUNK]
            t0 = time.perf_counter()
            await asyncio.gather(*(worker(c, queue)
                                   for c in range(len(clients))))
            ph.wall_s += clock.scale(time.perf_counter() - t0)
        ph.rounds += 1
    # the two connections interleave differently from run to run
    ph.sim_trail.sort()
    hits1, lookups1 = _cache(db)
    ph.cache_hits, ph.cache_lookups = hits1 - hits0, lookups1 - lookups0
    by_op1, counters1 = _ledger(db)
    ph.sim_by_op = Counter({k: _ns(by_op1[k] - by_op0[k]) for k in by_op1})
    ph.pages_read = counters1["pages_read"] - counters0["pages_read"]
    plan1 = await _plan_cache(clients)
    ph.plan_hits = plan1[0] - plan0[0]
    ph.plan_lookups = plan1[1] - plan0[1]
    ph.retries = (_client_retries(clients) + server.snapshot_retries
                  - retries0)
    ph.files_leaked = _files(db) - files0
    ph.admission_wait_s = server.admission.describe()["wait_s_total"] - wait0
    ph.ram_checks = len(ph.read_s)
    ph.ram_ok = ph.ram_checks - (server.claim_underruns - underruns0)
    return ph


async def _plan_cache(clients) -> Tuple[int, int]:
    """(hits, lookups) over every connection's session plan cache."""
    hits = lookups = 0
    for c in clients:
        cache = (await c.server_stats())["plan_cache"]
        hits += cache["hits"]
        lookups += cache["hits"] + cache["misses"]
    return hits, lookups


def _client_retries(clients) -> int:
    return sum(c.retries_total + c.timeouts_total for c in clients)


# ----------------------------------------------------------------------
# churn-fleet
# ----------------------------------------------------------------------
#: rows per T0 stripe at SCALE_CHURN, so inserts replace what a stripe
#: delete removes and the table keeps its size
INSERTS_PER_BATCH = 50
READS_PER_BATCH = 36
SLICE_STEPS = 4
#: stripes (T0.v1 values) deleted come from here; inserts use the rest
STRIPES = range(0, 500)
INSERT_V1 = range(500, 1000)
#: T0 data bytes one INSERT carries (five 4-byte columns)
ROW_BYTES = 20

CHURN_STATE = ("SELECT T0.id, T0.v1, T0.v2, T1.id, T1.v1, T12.id, T12.h2 "
               "FROM T0, T1, T12 WHERE T0.fk1 = T1.id AND T1.fk12 = T12.id")
LIVE_ROWS = "SELECT T0.id, T0.v1, T0.v2, T1.id FROM T0, T1 WHERE T0.fk1 = T1.id"
INSERT = "INSERT INTO T0 VALUES (?, ?, ?, ?, ?)"
DELETE = "DELETE FROM T0 WHERE T0.v1 = ?"


class ChurnModel:
    """The benchmark's own record of acknowledged writes to T0.

    Seeded from one oracle query; afterwards it applies each
    acknowledged write, renumbers ids as compaction does (survivors
    by rank), and answers Query Q without touching the database.
    """

    def __init__(self, db):
        rows = sorted(db.reference_query(CHURN_STATE)[1])
        if [r[0] for r in rows] != list(range(len(rows))):
            raise AssertionError("oracle T0 ids are not dense")
        #: per T0 id: [v1, v2, T1 id, alive]
        self.t0 = [[r[1], r[2], r[3], True] for r in rows]
        #: per T1 id: (T1.v1, T12.id, T12.h2)
        self.t1 = {r[3]: (r[4], r[5], r[6]) for r in rows}

    def copy(self) -> "ChurnModel":
        twin = object.__new__(ChurnModel)
        twin.t0 = [list(r) for r in self.t0]
        twin.t1 = self.t1
        return twin

    def delete(self, v1: int) -> int:
        n = 0
        for row in self.t0:
            if row[3] and row[0] == v1:
                row[3] = False
                n += 1
        return n

    def insert(self, v1: int, v2: int, t1: int) -> None:
        self.t0.append([v1, v2, t1, True])

    def compacted(self) -> None:
        self.t0 = [row for row in self.t0 if row[3]]

    def query_q(self, k: int, h2: int) -> List[Tuple]:
        out = []
        for t0_id, (_, _, t1, alive) in enumerate(self.t0):
            v1, t12, h = self.t1[t1]
            if alive and v1 < k and h == h2:
                out.append((t0_id, t1, t12, v1))
        return sorted(out)

    def live_rows(self) -> List[Tuple]:
        return sorted((i, r[0], r[1], r[2])
                      for i, r in enumerate(self.t0) if r[3])


def churn_fleet(seed: int, seconds: int, trace: int) -> Outcome:
    outcome = Outcome(run_header("churn-fleet", seed, seconds, trace,
                                 SCALE_CHURN, CHURN_SHARDS))
    cfg = SyntheticConfig(scale=SCALE_CHURN, seed=DATA_SEED)
    fleets = _setups(outcome,
                     lambda: build_synthetic(cfg, shards=CHURN_SHARDS),
                     keep=2 if trace else 1)
    base_model = ChurnModel(fleets[-1])
    n_t2 = cfg.cardinality("T2")
    state = {"fleet": 0}
    clock = outcome.clock

    def phase(order_seed: int, seconds: Optional[float],
              rounds: Optional[int], tracer: Optional[Tracer]) -> Phase:
        db = fleets[state["fleet"]]
        state["fleet"] += 1
        model = base_model.copy()
        state["model"], state["db"] = model, db
        rng = random.Random(order_seed)
        stripes = list(STRIPES)
        rng.shuffle(stripes)
        t1_ids = sorted(model.t1)
        session = db.session()
        read_stmt = session.prepare(TEMPLATE_FIG10)
        ph = Phase()
        hits0, lookups0 = _cache(db)
        files0 = _files(db)
        _, counters0 = _ledger(db)
        pending = 0
        t_end = time.perf_counter() + (seconds or 0)
        while (ph.rounds < rounds) if rounds is not None \
                else time.perf_counter() < t_end:
            b = ph.rounds
            outcome.attempted += 1
            stripe = stripes[b]
            clock.tick()
            try:
                with _root(tracer, "op.delete", b):
                    t0 = time.perf_counter()
                    res = db.execute(DELETE, params=(stripe,))
                    ph.delete_s.append(clock.scale(time.perf_counter() - t0))
                outcome.check(f"delete stripe {stripe}", res.rows_affected,
                              model.delete(stripe))
                ph.sim_trail.append(res.stats.total_s)
            except GhostDBError as exc:
                outcome.fail(type(exc).__name__)
            for j in range(INSERTS_PER_BATCH):
                row = (rng.choice(t1_ids), rng.randrange(n_t2),
                       rng.choice(INSERT_V1), rng.randrange(1000),
                       rng.randrange(10))
                outcome.attempted += 1
                clock.tick()
                try:
                    with _root(tracer, "op.insert", f"{b}-{j}"):
                        t0 = time.perf_counter()
                        res = db.execute(INSERT, params=row)
                        ph.insert_s.append(
                            clock.scale(time.perf_counter() - t0))
                except GhostDBError as exc:
                    outcome.fail(type(exc).__name__)
                    continue
                model.insert(row[2], row[3], row[0])
                ph.user_bytes += ROW_BYTES
                ph.sim_trail.append(res.stats.total_s)
            for j in range(READS_PER_BATCH):
                # DML invalidated the cached plan: the batch's first read
                # replans it, always with the same parameters
                params = (30, 2) if j == 0 else (rng.randrange(10, 51),
                                                 rng.randrange(10))
                outcome.attempted += 1
                clock.tick()
                try:
                    with _root(tracer, "op.read", f"{b}-{j}"):
                        t0 = time.perf_counter()
                        result = read_stmt.execute(params)
                        ph.read_timed(clock, time.perf_counter() - t0)
                except GhostDBError as exc:
                    outcome.fail(type(exc).__name__)
                    continue
                ph.read_result(result, db)
                outcome.check(f"churn read {params}", sorted(result.rows),
                              model.query_q(*params))
            outcome.attempted += 1
            before = _ledger(db)[0]["Compact"]
            clock.tick()
            try:
                with _root(tracer, "op.compact", b):
                    t0 = time.perf_counter()
                    prog = db.compact("T0", max_steps=SLICE_STEPS)
                    slice_s = clock.scale(time.perf_counter() - t0)
            except GhostDBError as exc:
                outcome.fail(type(exc).__name__)
            else:
                ph.slices.append((slice_s, prog.steps_run,
                                  prog.pages_rewritten))
                ph.sim_trail.append(_ledger(db)[0]["Compact"] - before)
                ph.steps_run += prog.steps_run
                pending += prog.steps_run
                if prog.restarts > ph.restarts:
                    pending = prog.steps_run    # earlier steps were lost
                    ph.restarts = prog.restarts
                if prog.state == "done":
                    model.compacted()
                    ph.useful_steps += pending
                    pending = 0
            ph.rounds += 1
        ph.wall_s = sum(ph.read_s)
        hits1, lookups1 = _cache(db)
        ph.cache_hits, ph.cache_lookups = hits1 - hits0, lookups1 - lookups0
        _, counters1 = _ledger(db)
        ph.pages_written = counters1["pages_written"] \
            - counters0["pages_written"]
        ph.plan_hits = session.plan_cache.hits
        ph.plan_lookups = ph.plan_hits + session.plan_cache.misses
        ph.files_leaked = _files(db) - files0
        return ph

    _run_phases(outcome, phase, seed, seconds, trace)
    model, db = state["model"], state["db"]

    def probe(restored) -> float:
        """Every acknowledged insert is readable and every deleted
        stripe is gone after restore; the model agrees with the
        oracle on the restored fleet."""
        t0 = time.perf_counter()
        rows = restored.execute(LIVE_ROWS).rows
        first = time.perf_counter() - t0
        want = model.live_rows()
        outcome.check("restored live rows", sorted(rows), want)
        outcome.check("restored oracle",
                      sorted(restored.reference_query(LIVE_ROWS)[1]), want)
        return first

    with tempfile.TemporaryDirectory(dir=_tmp_root()) as tmp:
        _restores(outcome, db, tmp, probe)
    _flash(outcome, db)
    return outcome


# ----------------------------------------------------------------------
# phases, end-to-end and per-layer metrics
# ----------------------------------------------------------------------
def _root(tracer: Optional[Tracer], name: str, request):
    """An operation's root span when tracing, else nothing."""
    return tracer.span(name, request) if tracer else contextlib.nullcontext()


def _run_phases(outcome: Outcome, phase: Callable, seed: int,
                seconds: int, trace: int,
                on_install: Optional[Callable] = None) -> None:
    """The measured phase; traced, an untraced half then the same
    operations again under a :class:`Tracer`."""
    if not trace:
        _end_to_end(outcome, phase(seed + 1, seconds, None, None))
        return
    plain = phase(seed + 1, seconds / 2, None, None)
    tracer = Tracer()
    tracer.install()
    if on_install is not None:
        on_install(tracer)
    try:
        traced = phase(seed + 1, None, plain.rounds, tracer)
    finally:
        tracer.uninstall()
    _traced(outcome, plain, traced, tracer)


def _end_to_end(outcome: Outcome, ph: Phase) -> None:
    n = len(ph.read_s)
    outcome.add("read_qps", n / ph.wall_s, "1/s", n)
    outcome.latency("read", ph.read_s)
    outcome.add("wall.read_p50_ms", median(ph.read_wall) * 1e3, "ms", n,
                "as measured, not rescaled")
    clock = outcome.clock
    outcome.add("host.speed", clock.speed, "ratio", len(clock.probes),
                "median probe speed / reference host's")
    outcome.add("sim_read_s", sum(ph.read_sim) / len(ph.read_sim) / 1e9,
                "sim_s", len(ph.read_sim))
    writes = ph.insert_s + ph.delete_s
    if writes:
        outcome.latency("write", writes)
    if ph.slices:
        outcome.add("compact_slice_ms",
                    median([s[0] for s in ph.slices]) * 1e3, "ms",
                    len(ph.slices))
    outcome.ratio("flash.cache_hit_rate", ph.cache_hits, ph.cache_lookups,
                  "flash.cache_lookups")
    outcome.ratio("ram.estimate_bound_ratio", ph.ram_ok, ph.ram_checks,
                  "ram.estimate_checks")
    outcome.add("ram.peak_bytes", ph.ram_peak, "B", ph.ram_checks)


def _traced(outcome: Outcome, plain: Phase, ph: Phase,
            tracer: Tracer) -> None:
    """Per-layer metrics from the traced phase ``ph``."""
    _end_to_end(outcome, ph)
    outcome.check("simulated costs traced vs untraced",
                  _same_sim(ph.sim_trail, plain.sim_trail), True)
    reads = max(1, len(ph.read_s))
    roots = tracer.by_root()
    read_roots = [roots.get("op.read", {}), roots.get("server", {})]

    def total(name: str, key: str = "ns", where=None) -> float:
        return sum(r.get(name, {}).get(key, 0)
                   for r in (read_roots if where is None else where))

    def per_read_ms(name: str, key: str = "ns") -> float:
        return total(name, key) / 1e6 / reads

    add = outcome.add
    mean_latency_ms = sum(ph.read_wall) / reads * 1e3
    if "service.execute_pinned" in roots.get("server", {}):
        add("service.overhead_ms", mean_latency_ms
            - per_read_ms("service.execute_pinned"), "ms", reads)
    add("service.codec_ms", per_read_ms("service.codec"), "ms", reads)
    add("service.wait_ms", ph.admission_wait_s * 1e3 / reads
        + per_read_ms("service.lock"), "ms", reads)
    add("service.retries", ph.retries, "count", reads)
    add("sql.parse_ms", per_read_ms("sql.parse"), "ms", reads)
    add("sql.bind_ms", per_read_ms("sql.bind", "self_ns"), "ms", reads)
    add("planner.plan_ms", per_read_ms("planner.plan", "self_ns"), "ms",
        reads)
    add("planner.plans", total("planner.plan", "count") / reads, "count",
        reads)
    outcome.ratio("planner.cache_hit_rate", ph.plan_hits, ph.plan_lookups,
                  "planner.cache_lookups")
    add("untrusted.vis_ms", per_read_ms("untrusted.vis", "self_ns"), "ms",
        reads)
    add("untrusted.comm_bytes", ph.comm_bytes / reads, "B", reads)
    for layer in ("executor", "merge", "bloom", "project", "sort"):
        add(f"{layer}.self_ms", per_read_ms(layer, "self_ns"), "ms", reads)
    add("bloom.items", tracer.items["bloom"] / reads, "count", reads)
    add("flash.read_calls", total("flash.read", "count") / reads, "count",
        reads)
    add("flash.read_page_ms", per_read_ms("flash.read"), "ms", reads)
    add("flash.pages_read", ph.pages_read / reads, "count", reads)
    add("flash.files_leaked", ph.files_leaked / reads, "count", reads)
    for label in SIM_LABELS:
        add(f"sim.{label}", ph.sim_by_op[label] / 1e9 / reads, "sim_s",
            reads)
    for op, name in (("op.insert", "dml.insert"), ("op.delete",
                                                   "dml.delete")):
        spans = roots.get(op, {})
        n = max(1, spans.get(op, {}).get("count", 0))
        add(f"{name}_ms", spans.get(name, {}).get("ns", 0) / 1e6 / n,
            "ms", n)
    add("climbing.lookup_ms", per_read_ms("climbing.lookup"), "ms", reads)
    add("climbing.lookups", total("climbing.lookup", "count") / reads,
        "count", reads)
    slices = max(1, len(ph.slices))
    add("compaction.steps", sum(s[1] for s in ph.slices) / slices, "count",
        slices)
    add("compaction.restarts", ph.restarts, "count", slices)
    add("compaction.pages_rewritten", sum(s[2] for s in ph.slices) / slices,
        "count", slices)
    outcome.ratio("compaction.useful_step_ratio", ph.useful_steps,
                  ph.steps_run, "compaction.steps_run")
    writes = max(1, len(ph.insert_s) + len(ph.delete_s))
    add("flash.pages_written", ph.pages_written / writes, "count", writes)
    outcome.ratio("flash.write_amp", ph.pages_written * PAGE_SIZE,
                  ph.user_bytes, "flash.user_bytes", "B")
    add("shard.gather_ms", per_read_ms("shard.gather"), "ms", reads)
    add("shard.fanout", total("shard.fragment", "count") / reads, "count",
        reads)
    add("trace.overhead_ms", outcome.metrics["read_p50_ms"].value
        - median(plain.read_s) * 1e3, "ms", reads)
    add("trace.spans", len(tracer.spans), "count", 1)
    outcome.tracer = tracer


def _flash(outcome: Outcome, db) -> None:
    per_row, rows = flash_bytes_per_row(db)
    outcome.add("flash_bytes_per_row", per_row, "B/row", rows)


def _tmp_root() -> str:
    """Scratch space for images, inside the benchmark's directory."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_tmp")
    os.makedirs(path, exist_ok=True)
    return path


WORKLOADS: Dict[str, Callable[[int, int, int], Outcome]] = {
    "point-service": point_service,
    "scan-embedded": scan_embedded,
    "churn-fleet": churn_fleet,
}

"""The benchmark's three workloads: ``hard_parse``, ``cached_mix`` and
``server_rw``.

Each workload builds its database in :meth:`setup` (the timed set-up),
runs closed-loop phases with :meth:`run`, and checks every read against
``Database.reference_execute`` in :meth:`verify`, after the timed
phases.  The database is the synthetic applications schema of the
paper-figure benches with its fixed data seed (7); the run seed drives
the statement streams, their order, and the written rows.
"""

from __future__ import annotations

import gc
import http.client
import json
import random
import shutil
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro import Database
from repro.durability import DurabilityConfig
from repro.server import ReproServer, ServerConfig
from repro.server.http import make_http_server
from repro.service import QueryService
from repro.sql import parse_query
from repro.workload import (
    AppsSchemaBuilder,
    MixWeights,
    QueryGenerator,
    register_workload_functions,
)

from hostspeed import Pacer
from spans import SpanRecorder

#: data seed of the applications schema (the paper-figure benches' fixture)
SCHEMA_SEED = 7
#: generator seed of the standard-mix slice the cached sets are cut from
#: (the Fig. 2 bench's slice), and of the ``hard_parse`` warm-up.  The
#: set is fixed so that its skewed cost (one statement can take a third
#: of a pass) does not swing the figures between seeds; the run seed
#: permutes the order instead.
CACHED_SET_SEED = 101

#: the class-enriched mix of the Fig. 2-4 benches (most statements carry
#: a construct a transformation applies to)
ENRICHED_MIX = MixWeights(
    spj=0.10, exists=0.14, not_exists=0.08, in_multi=0.10, not_in=0.06,
    agg_subquery=0.16, groupby_view=0.12, distinct_view=0.08, gbp=0.08,
    union_all=0.03, setop=0.02, or_pred=0.02, rownum_pullup=0.01,
)
#: the paper's standard mix (92% select-project-join)
STANDARD_MIX = MixWeights()
#: statements per block of a :class:`StatementStream`: the smallest block
#: in which every class of the mix has a whole number of statements
ENRICHED_BLOCK = 100
STANDARD_BLOCK = 500


@dataclass(frozen=True)
class Sizes:
    """Rows per master / detail / history table (before the builder's
    per-table 0.4x-2x spread)."""

    master: int
    detail: int
    history: int

    def describe(self) -> str:
        return f"{self.master}/{self.detail}/{self.history}"


SMALL = Sizes(50, 200, 600)
DEFAULT = Sizes(50, 2000, 6000)
TINY = Sizes(20, 60, 150)


def build_apps(sizes: Sizes, data_dir: Optional[str] = None,
               durability: Optional[DurabilityConfig] = None):
    db = Database(data_dir=data_dir, durability=durability)
    schema = AppsSchemaBuilder(
        seed=SCHEMA_SEED,
        master_rows=sizes.master,
        detail_rows=sizes.detail,
        history_rows=sizes.history,
    ).build(db)
    register_workload_functions(db)
    return db, schema


class StatementStream:
    """A seeded stream of distinct generated statements (none of them in
    *exclude*).

    Classes are drawn in shuffled blocks of *block* statements whose
    counts match the mix weights exactly, so the class mix of a run does
    not drift with the seed or the run's length; only the statements
    within each class do."""

    def __init__(self, schema, seed: int, weights: MixWeights, block: int,
                 exclude: tuple[str, ...] = ()):
        self._generator = QueryGenerator(schema, seed=seed, weights=weights)
        self._rng = random.Random(seed)
        self._block = [
            name
            for name, weight in weights.items()
            for _ in range(round(weight * block))
        ]
        self._queue: list[str] = []
        self._seen: set[str] = set(exclude)
        self._lock = threading.Lock()

    def next(self) -> str:
        with self._lock:
            while True:
                if not self._queue:
                    self._queue = list(self._block)
                    self._rng.shuffle(self._queue)
                sql = self._generator.generate_class(self._queue.pop()).sql
                if sql not in self._seen:
                    self._seen.add(sql)
                    return sql


def cached_set(schema, count: int) -> list[str]:
    """The first *count* distinct statements of the fixed standard-mix
    slice."""
    out: list[str] = []
    for query in QueryGenerator(schema, seed=CACHED_SET_SEED).generate(4 * count):
        if query.sql not in out:
            out.append(query.sql)
        if len(out) == count:
            break
    return out


def _canon(value):
    return float(f"{value:.10g}") if isinstance(value, float) else value


def digest(rows, ordered: bool) -> tuple:
    """Order-sensitive or multiset digest of result rows (floats compared
    to 10 significant digits)."""
    canon = [tuple(_canon(v) for v in row) for row in rows]
    if ordered:
        return len(canon), hash(tuple(canon))
    return len(canon), sum(map(hash, canon)) & 0xFFFFFFFFFFFFFFFF


def has_order_by(sql: str) -> bool:
    return bool(getattr(parse_query(sql), "order_by", None))


@dataclass
class Phase:
    """What one closed-loop phase measured."""

    reads: list[float] = field(default_factory=list)      # seconds
    writes: list[float] = field(default_factory=list)     # seconds
    busy: float = 0.0      # summed statement latency (in-process loops)
    #: in-process loops: the reads scaled to the reference host speed
    #: (see ``hostspeed.py``), their sum, and the probe times
    scaled_reads: list[float] = field(default_factory=list)
    scaled_busy: float = 0.0
    probes: list[float] = field(default_factory=list)
    elapsed: float = 0.0   # wall clock of the phase
    errors: list[str] = field(default_factory=list)
    #: sql -> Counter of result digests observed for it
    observed: dict = field(default_factory=dict)

    @property
    def statements(self) -> int:
        return len(self.reads) + len(self.writes)

    def observe(self, sql: str, rows, ordered: bool) -> None:
        self.observed.setdefault(sql, Counter())[digest(rows, ordered)] += 1


class Workload:
    name = ""
    clients = 1
    #: whether the timings are scaled to the reference host speed
    host_scaled = True

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.db: Optional[Database] = None
        self._ordered: dict[str, bool] = {}
        #: sql -> reference digest, filled by :meth:`expect`
        self._expected: dict[str, tuple] = {}

    # -- lifecycle ------------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, phase: Phase, seconds: float,
            recorder: Optional[SpanRecorder] = None) -> None:
        """Measure for *seconds* more, adding to *phase*."""
        raise NotImplementedError

    def close(self) -> None:
        self.db = None
        gc.collect()

    def describe(self) -> dict:
        raise NotImplementedError

    def throughput(self, phase: Phase) -> float:
        """Statements per second of scaled statement time (one
        closed-loop client, so the loop's own bookkeeping is left out)."""
        return phase.statements / phase.scaled_busy

    def latencies(self, phase: Phase) -> list[float]:
        """The read latencies the end-to-end figures are taken from."""
        return phase.scaled_reads

    # -- checking -------------------------------------------------------

    def ordered(self, sql: str) -> bool:
        flag = self._ordered.get(sql)
        if flag is None:
            flag = self._ordered[sql] = has_order_by(sql)
        return flag

    def expect(self, statements) -> None:
        """Evaluate the reference rows of the *statements* not evaluated
        yet (untimed; may run between slices of a phase)."""
        for sql in statements:
            if sql not in self._expected:
                self._expected[sql] = digest(
                    self.db.reference_execute(sql), self.ordered(sql)
                )

    def verify(self, phases: list[Phase]) -> list[str]:
        """Compare every observed result with the reference evaluator;
        returns one message per mismatching execution."""
        observed: dict[str, Counter] = {}
        for phase in phases:
            for sql, digests in phase.observed.items():
                observed.setdefault(sql, Counter()).update(digests)
        self.expect(observed)
        failures = []
        for sql, digests in observed.items():
            want = self._expected[sql]
            for got, count in digests.items():
                if got != want:
                    failures.extend(
                        [f"wrong rows ({got[0]} vs {want[0]} expected) "
                         f"for: {sql}"] * count
                    )
        return failures


class _ServiceLoop(Workload):
    """Shared closed loop for the in-process workloads."""

    def _loop(self, phase: Phase, statements, recorder) -> None:
        """Execute *statements* (an iterable that stops when time is up)
        under a :class:`Pacer`, then scale each latency by the speed
        factor of its window."""
        timed: list[tuple[float, int]] = []
        started = time.perf_counter()
        with Pacer() as pacer:
            for sql in statements:
                window = pacer.tick()
                self._stmt += 1
                timed.append((self._execute(phase, sql, recorder), window))
        phase.elapsed += time.perf_counter() - started
        phase.probes.extend(pacer.probes)
        for latency, window in timed:
            scaled = latency * pacer.factors[window]
            phase.scaled_reads.append(scaled)
            phase.scaled_busy += scaled

    def _execute(self, phase: Phase, sql: str,
                 recorder: Optional[SpanRecorder]) -> float:
        service = self.service
        span = recorder.open("statement", stmt=self._stmt) if recorder else None
        started = time.perf_counter()
        result = None
        try:
            result = service.execute(sql)
        except Exception as exc:  # every statement must succeed: record it
            phase.errors.append(f"{type(exc).__name__}: {exc} for: {sql}")
        finally:
            latency = time.perf_counter() - started
            if span is not None:
                recorder.close(span)
        phase.reads.append(latency)
        phase.busy += latency
        if result is not None:
            phase.observe(sql, result.rows, self.ordered(sql))
        return latency


class HardParse(_ServiceLoop):
    name = "hard_parse"
    WARM_STATEMENTS = 10

    def setup(self) -> None:
        self.sizes = TINY if self.tiny else SMALL
        self.db, schema = build_apps(self.sizes)
        self.service = QueryService(self.db)
        # the warm-up statements are fixed, so set-up time does not vary
        # with the statements a seed draws
        warm = StatementStream(
            schema, CACHED_SET_SEED, ENRICHED_MIX, ENRICHED_BLOCK
        )
        warm_sql = tuple(warm.next() for _ in range(self.WARM_STATEMENTS))
        for sql in warm_sql:
            self.service.execute(sql)
        self.stream = StatementStream(
            schema, self.seed, ENRICHED_MIX, ENRICHED_BLOCK, exclude=warm_sql
        )
        self._stmt = 0

    def run(self, phase, seconds, recorder=None):
        deadline = time.perf_counter() + seconds

        def statements():
            while time.perf_counter() < deadline:
                yield self.stream.next()

        self._loop(phase, statements(), recorder)

    def describe(self):
        return {
            "rows_master_detail_history": self.sizes.describe(),
            "mix": "class-enriched (Fig. 2-4 benches), distinct statements",
            "plan_cache_capacity": self.service.cache.capacity,
        }


class CachedMix(_ServiceLoop):
    name = "cached_mix"

    def setup(self) -> None:
        self.sizes = TINY if self.tiny else DEFAULT
        self.db, schema = build_apps(self.sizes)
        self.service = QueryService(self.db)
        self.statements = cached_set(schema, 12 if self.tiny else 120)
        for sql in self.statements:
            self.service.explain(sql)  # hard parse into the plan cache
        self._rng = random.Random(self.seed)
        self._stmt = 0

    def run(self, phase, seconds, recorder=None):
        """Whole passes over the set (each in a fresh seeded order) until
        *seconds* have passed, so every statement weighs the same."""
        deadline = time.perf_counter() + seconds

        def statements():
            while True:
                order = list(self.statements)
                self._rng.shuffle(order)
                yield from order
                if time.perf_counter() >= deadline:
                    return

        self._loop(phase, statements(), recorder)

    def describe(self):
        return {
            "rows_master_detail_history": self.sizes.describe(),
            "mix": "standard (92% SPJ), fixed set, seeded order",
            "distinct_statements": len(self.statements),
        }


class _HttpClient:
    """One keep-alive connection to the benchmark's server."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=120)

    def call(self, method: str, path: str, body=None) -> tuple[int, dict]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self._conn.request(method, path, body=data, headers=headers)
        response = self._conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self._conn.close()


class ServerRW(Workload):
    name = "server_rw"
    clients = 2
    #: a read waits about 40 ms on the transport (see README), which does
    #: not follow the host's speed: scaling it would add the host's drift
    host_scaled = False
    WORKERS = 2
    FSYNC = "batch"
    FSYNC_BATCH = 8
    WRITE_ROWS = 8
    ANALYZE_EVERY = 10
    #: per ten statements: seven cached reads, two hard parses, one write
    CYCLE = ("cached",) * 7 + ("hard",) * 2 + ("write",)

    def setup(self) -> None:
        self.sizes = TINY if self.tiny else SMALL
        self.analyze_every = 2 if self.tiny else self.ANALYZE_EVERY
        self.data_dir = f"{self.workdir}/server_rw-{id(self):x}"
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.db, schema = build_apps(
            self.sizes, self.data_dir,
            DurabilityConfig(fsync=self.FSYNC, batch_records=self.FSYNC_BATCH),
        )
        self.db.execute_ddl(
            "CREATE TABLE bench_writes (id INT PRIMARY KEY, client INT, "
            "grp INT, val INT)"
        )
        self.statements = cached_set(schema, 8 if self.tiny else 40)
        self.stream = StatementStream(
            schema, self.seed, STANDARD_MIX, STANDARD_BLOCK,
            exclude=tuple(self.statements),
        )
        self.app = ReproServer(
            database=self.db, config=ServerConfig(workers=self.WORKERS)
        )
        self.httpd = make_http_server(self.app, host="127.0.0.1", port=0)
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="perfbench-http"
        )
        self._thread.start()
        self.address = self.httpd.server_address[:2]
        warm = _HttpClient(*self.address)
        try:
            _status, session = warm.call("POST", "/sessions", {})
            sid = session["session_id"]
            for sql in self.statements:
                warm.call("POST", f"/sessions/{sid}/execute", {"sql": sql})
            warm.call("DELETE", f"/sessions/{sid}")
        finally:
            warm.close()
        self.acked: list[tuple] = []
        self._acked_lock = threading.Lock()
        self._client_rngs = [
            random.Random(self.seed * 1000 + n) for n in range(self.clients)
        ]
        self._writes_done = [0] * self.clients
        self._requests = [0] * self.clients

    def close(self) -> None:
        if getattr(self, "httpd", None) is not None:
            self.httpd.shutdown()
            self.httpd.server_close()
            self._thread.join()
            self.app.close()
            self.httpd = None
        if self.db is not None:
            self.db.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        super().close()

    def run(self, phase, seconds, recorder=None):
        lock = threading.Lock()
        barrier = threading.Barrier(self.clients + 1)
        box: dict[str, float] = {}
        threads = [
            threading.Thread(
                target=self._client, name=f"perfbench-client{n}",
                args=(n, phase, lock, barrier, box, recorder),
            )
            for n in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        box["deadline"] = time.perf_counter() + seconds
        barrier.wait()
        started = time.perf_counter()
        for thread in threads:
            thread.join()
        phase.elapsed += time.perf_counter() - started

    def throughput(self, phase: Phase) -> float:
        """Statements per second of wall time, both clients together."""
        return phase.statements / phase.elapsed

    def latencies(self, phase: Phase) -> list[float]:
        return phase.reads

    def _client(self, n: int, phase: Phase, lock: threading.Lock,
                barrier: threading.Barrier, box: dict,
                recorder: Optional[SpanRecorder]) -> None:
        rng = self._client_rngs[n]
        client = _HttpClient(*self.address)
        try:
            _status, session = client.call("POST", "/sessions", {})
            sid = session["session_id"]
            barrier.wait()
            deadline = box["deadline"]
            cursor = rng.randrange(len(self.statements))
            cycle: list[str] = []
            while time.perf_counter() < deadline:
                if not cycle:
                    cycle = list(self.CYCLE)
                    rng.shuffle(cycle)
                kind = cycle.pop()
                self._requests[n] += 1
                stmt = f"c{n}-{self._requests[n]}"
                if kind == "write":
                    self._write(n, rng, client, sid, stmt, phase, lock, recorder)
                    continue
                if kind == "cached":
                    cursor = (cursor + 1) % len(self.statements)
                    sql = self.statements[cursor]
                else:
                    sql = self.stream.next()
                status, payload, latency = self._timed(
                    client, recorder, sid, stmt,
                    [("POST", f"/sessions/{sid}/execute", {"sql": sql})],
                )
                with lock:
                    phase.reads.append(latency)
                    if status != 200:
                        phase.errors.append(f"HTTP {status} {payload} for: {sql}")
                        continue
                    phase.observe(sql, payload["rows"], self.ordered(sql))
            client.call("DELETE", f"/sessions/{sid}")
        except (OSError, http.client.HTTPException, ValueError) as exc:
            with lock:
                phase.errors.append(f"client {n} stopped: {exc!r}")
        finally:
            client.close()

    def _write(self, n, rng, client, sid, stmt, phase, lock, recorder) -> None:
        self._writes_done[n] += 1
        done = self._writes_done[n]
        base = (n + 1) * 10_000_000 + done * self.WRITE_ROWS
        rows = [
            {"id": base + j, "client": n, "grp": rng.randint(1, 50),
             "val": rng.randint(1, 1000)}
            for j in range(self.WRITE_ROWS)
        ]
        calls = [("POST", f"/sessions/{sid}/insert",
                  {"table": "bench_writes", "rows": rows})]
        if done % self.analyze_every == 0:
            calls.append(("POST", f"/sessions/{sid}/analyze",
                          {"table": "bench_writes"}))
        status, payload, latency = self._timed(client, recorder, sid, stmt, calls)
        with lock:
            phase.writes.append(latency)
            if status != 200:
                phase.errors.append(f"HTTP {status} {payload} for a write")
                return
        with self._acked_lock:
            self.acked.extend(
                (r["id"], r["client"], r["grp"], r["val"]) for r in rows
            )

    @staticmethod
    def _timed(client: _HttpClient, recorder: Optional[SpanRecorder],
               sid: str, stmt: str, calls: list) -> tuple[int, dict, float]:
        """Send *calls* in order as one statement; stops at the first
        failure.  Returns the last status, payload and total latency."""
        span = None
        if recorder is not None:
            span = recorder.open("request", stmt=stmt)
            recorder.pending[sid] = span
        started = time.perf_counter()
        try:
            for method, path, body in calls:
                status, payload = client.call(method, path, body)
                if status != 200:
                    break
        finally:
            latency = time.perf_counter() - started
            if span is not None:
                recorder.close(span)
        return status, payload, latency

    def verify(self, phases):
        failures = super().verify(phases)
        stored = Counter(self.db.reference_execute(
            "SELECT id, client, grp, val FROM bench_writes"
        ))
        acked = Counter(self.acked)
        if stored != acked:
            missing = sum((acked - stored).values())
            extra = sum((stored - acked).values())
            failures.extend(
                [f"bench_writes lost {missing} and gained {extra} rows"]
                * max(missing + extra, 1)
            )
        return failures

    def describe(self):
        return {
            "rows_master_detail_history": self.sizes.describe(),
            "fsync_policy": f"{self.FSYNC} ({self.FSYNC_BATCH} records per fsync)",
            "clients": self.clients,
            "workers": self.WORKERS,
            "mix": "70% cached reads / 20% fresh hard-parse reads / 10% writes",
            "write_batch_rows": self.WRITE_ROWS,
            "analyze_every_writes": self.analyze_every,
            "cached_statements": len(self.statements),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (HardParse, CachedMix, ServerRW)
}

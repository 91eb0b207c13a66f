"""The benchmark's workloads.

``BENCHMARK.json`` lists three of them: ``adhoc_match``, ``spill_scan``
and ``server_mixed``, which between them load every layer. On a shared
VM whose CPU speed drifts by a fifth or more over tens of seconds to
minutes, the longest runs are the steadiest, and the total time all
listed runs may take leaves room for three workloads at that length. ``summary_read`` and ``base_scan``
stay runnable by name, unlisted: ``server_mixed`` also loads their
front end (parse, bind, decision-cache replay) and ``spill_scan`` their
executor.

Every workload is a closed loop: each caller sends its next statement
only after the previous one returned. Statements come from a
``random.Random(seed)`` stream and the program only ever receives their
SQL text. The data sets are the repository's fixed generator outputs,
so runs with different seeds differ only in statement order, literals
and inserted rows. Streams go in rounds: each round is a shuffled
permutation of the statement kinds, so every run has the same mix.
Each workload records why it exists, which layer it is meant
to load and which it bypasses, so a later change can name the workload
that exercises its mechanism and the one that should show no change.

Answers are checked outside the timed window; a wrong answer fails the
run, it is never just counted as slow.
"""

from __future__ import annotations

import dataclasses
import datetime
import os
import random
import shutil
import threading
import time
from pathlib import Path

from repro.bench import figures
from repro.engine.table import tables_equal
from repro.errors import ReproError
from repro.governor import scope as governor_scope
from repro.qgm.build import build_graph
from repro.qgm.fingerprint import fingerprint
from repro.replication import WriteAheadLog
from repro.server.client import ReproClient
from repro.server.server import QueryServer
from repro.sql.statements import parse_statement
from repro.workloads import datagen, tpcd, webmetrics

#: data sizes: TPC-D orders (~3 lineitems each), webmetrics page views,
#: and the credit-card generator's scale (1.0 is ~57k transactions)
TPCD_ORDERS = 1000
WEB_VIEWS = 10000
CREDIT_SCALE = 0.1
#: spill_scan's per-query memory budget (bytes). At the sizes above it
#: makes most hash joins and cuboids spill to at least two runs; q5 and
#: q6 fit in memory and totals_2000 spills one run.
SPILL_BUDGET = 256 * 1024
#: WAL checkpoints every timed server_mixed loop must cross, at the
#: shipped default ``checkpoint_every``; the loop runs past --seconds
#: for them, to at most STRETCH times --seconds (the whole run must end
#: within run.RUN_LIMIT)
MIN_CHECKPOINTS = 2
STRETCH = 3


@dataclasses.dataclass
class Workload:
    name: str
    why: str
    loads: str
    bypasses: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "summary_read",
            "TPC-D and webmetrics queries all answered from their four "
            "summary tables; 10 shapes, so the decision cache replays",
            loads="sql parse, qgm bind, rewrite decision-cache replay",
            bypasses="matching navigator (after warm-up), base-table scans",
        ),
        Workload(
            "adhoc_match",
            "paper figure queries Q1-Q12 and Table 1 negatives with seeded "
            "literals against all eight paper ASTs; mostly cold matches",
            loads="matching navigator with competing ASTs, compensation",
            bypasses="decision-cache replay, server, journal",
        ),
        Workload(
            "base_scan",
            "the TPC-D and webmetrics suites with no summary tables, as "
            "before a DBA built them",
            loads="engine scan, join and aggregate",
            bypasses="rewrite and matching (no ASTs), spill path",
        ),
        Workload(
            "spill_scan",
            "base_scan's statements under a 256 KiB per-query memory "
            "budget, so joins and cuboids take the Grace spill path",
            loads="resources spill runs, engine partitioned operators",
            bypasses="rewrite and matching (no ASTs)",
        ),
        Workload(
            "server_mixed",
            "two loopback clients against a journaled server (fsync) with "
            "the result cache on; 25% unique Lineitem INSERTs",
            loads="server, result cache, sql parse, qgm bind, rewrite "
            "decision-cache replay, replication WAL, asts maintenance",
            bypasses="spill path, matching navigator (after warm-up)",
        ),
    )
}


# ----------------------------------------------------------------------
# statement streams

SUITES = [("tpcd", name, sql) for name, sql in tpcd.QUERIES.items()] + [
    ("web", name, sql) for name, sql in webmetrics.QUERIES.items()
]

_COUNTRIES = datagen.COUNTRIES
_GROUPS = datagen.PRODUCT_GROUPS

#: the paper's figure queries with their literals drawn from ``rng``
#: (Q10 and Q11_3 are Table 1's and Figure 13's negative cases)
ADHOC_TEMPLATES = {
    "Q1": lambda r: (
        "select faid, state, year(date) as year, count(*) as cnt "
        "from Trans, Loc where flid = lid and country = "
        f"'{r.choice(_COUNTRIES)}' group by faid, state, year(date) "
        f"having count(*) > {r.randint(0, 1000)}"
    ),
    "Q2": lambda r: (
        "select aid, status, qty * price * (1 - disc) as amt "
        "from Trans, PGroup, Acct where pgid = fpgid and faid = aid "
        f"and price > {r.randint(50, 800)} "
        f"and disc > {r.choice(['0.1', '0.15', '0.2'])} "
        f"and pgname = '{r.choice(_GROUPS)}'"
    ),
    "Q4": lambda r: (
        "select year(date) as year, sum(qty * price) as value from Trans "
        f"where month(date) <= {r.randint(1, 12)} group by year(date) "
        f"having sum(qty * price) > {r.randint(0, 4_000_000)}"
    ),
    "Q6": lambda r: (
        "select year(date) % 100 as yr, sum(qty * price) as value "
        f"from Trans where month(date) >= {r.randint(1, 12)} "
        f"and year(date) <= {r.randint(1990, 1992)} "
        "group by year(date) % 100 "
        f"having sum(qty * price) > {r.randint(0, 4_000_000)}"
    ),
    "Q7": lambda r: (
        "select lid, year(date) as year, count(*) as cnt from Trans, Loc "
        f"where flid = lid and country = '{r.choice(_COUNTRIES)}' "
        f"and year(date) >= {r.randint(1989, 1992)} group by lid, year(date) "
        f"having count(*) > {r.randint(0, 400)}"
    ),
    "Q8": lambda r: (
        "select tcnt, count(*) as ycnt from (select year(date) as year, "
        "count(*) as tcnt from Trans "
        f"where year(date) >= {r.randint(1989, 1992)} group by year(date) "
        f"having count(*) > {r.randint(0, 3000)}) "
        f"group by tcnt having count(*) >= {r.randint(0, 2)}"
    ),
    "Q10": lambda r: (
        "select flid, count(*) / (select count(*) from Trans) as cntpct "
        "from Trans, Loc where flid = lid and country = "
        f"'{r.choice(_COUNTRIES)}' group by flid "
        f"having count(*) > {r.randint(0, 300)}"
    ),
    "Q11_1": lambda r: (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        f"where year(date) > {r.randint(1985, 1991)} "
        f"and flid <= {r.randint(1, 60)} group by flid, year(date) "
        f"having count(*) > {r.randint(0, 100)}"
    ),
    "Q11_2": lambda r: (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        f"where month(date) >= {r.randint(1, 12)} "
        f"and flid <= {r.randint(1, 60)} group by flid, year(date) "
        f"having count(*) > {r.randint(0, 100)}"
    ),
    "Q11_3": lambda r: (
        "select flid, year(date) as year, month(date) as month, "
        "count(distinct faid) as custcnt from Trans "
        f"where year(date) >= {r.randint(1989, 1992)} "
        f"and flid <= {r.randint(1, 60)} "
        "group by flid, year(date), month(date) "
        f"having count(distinct faid) > {r.randint(0, 20)}"
    ),
    "Q12_1": lambda r: (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        f"where year(date) > {r.randint(1985, 1991)} "
        "group by grouping sets ((flid, year(date)), (year(date))) "
        f"having count(*) > {r.randint(0, 500)}"
    ),
    "Q12_2": lambda r: (
        "select flid, year(date) as year, count(*) as cnt from Trans "
        f"where year(date) > {r.randint(1985, 1991)} "
        f"and flid <= {r.randint(1, 60)} "
        "group by grouping sets ((flid), (year(date))) "
        f"having count(*) > {r.randint(0, 500)}"
    ),
}

PAPER_ASTS = [
    ("AST1", figures.AST1), ("AST2", figures.AST2), ("AST4", figures.AST4),
    ("AST7", figures.AST7), ("AST8", figures.AST8), ("AST10", figures.AST10),
    ("AST11", figures.AST11), ("AST12", figures.AST12),
]


def rounds(rng: random.Random, kinds: list):
    """Endless shuffled permutations of ``kinds``."""
    kinds = list(kinds)
    while True:
        rng.shuffle(kinds)
        yield from kinds


def _adhoc_stream(rng: random.Random):
    for name in rounds(rng, sorted(ADHOC_TEMPLATES)):
        yield "credit", name, ADHOC_TEMPLATES[name](rng)


# ----------------------------------------------------------------------
# library workloads (one caller, in process)

class LibraryRun:
    """One set-up library workload: its databases, statement stream and
    expected answers."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.dbs: dict = {}
        self.max_mem = SPILL_BUDGET if name == "spill_scan" else None
        self._expected: dict = {}
        if name == "adhoc_match":
            self.dbs["credit"] = figures.make_database(
                datagen.bench_config(CREDIT_SCALE)
            )
            for ast_name, sql in PAPER_ASTS:
                self.dbs["credit"].create_summary_table(ast_name, sql)
            warm = [("credit", "", sql) for sql in (
                figures.Q1, figures.Q2, figures.Q4, figures.Q6, figures.Q7,
                figures.Q8, figures.Q10, figures.Q11_1, figures.Q11_2,
                figures.Q11_3, figures.Q12_1, figures.Q12_2,
            )]
        else:
            self.dbs["tpcd"] = tpcd.build_tpcd_db(TPCD_ORDERS)
            self.dbs["web"] = webmetrics.build_web_db(WEB_VIEWS)
            if name == "summary_read":
                tpcd.install_asts(self.dbs["tpcd"])
                webmetrics.install_web_asts(self.dbs["web"])
            warm = SUITES
        # lazy imports, first-run allocation and the decision cache fill
        # here, not in the timed loop
        self.warm = [(db_key, sql) for db_key, _, sql in warm]
        for db_key, sql in self.warm:
            self.execute(db_key, sql)
        rng = random.Random(seed)
        if name == "adhoc_match":
            self.stream, self.round_len = _adhoc_stream(rng), len(ADHOC_TEMPLATES)
        else:
            self.stream, self.round_len = rounds(rng, SUITES), len(SUITES)
        self.ops = 0

    def execute(self, db_key: str, sql: str):
        """The untraced operation: the program's own entry point."""
        db = self.dbs[db_key]
        if self.max_mem is not None:
            return db.execute(sql, use_summary_tables=False,
                              max_mem=self.max_mem)
        return db.run_sql(sql)

    def execute_traced(self, db_key: str, sql: str, rec, op: int):
        """The same operation, split into calls to each layer's public
        function with a span around each. Returns ``(result, answered
        from a summary, rewrite error or None)``."""
        db = self.dbs[db_key]
        answered, error = False, None
        with rec.span("op", op=op):
            with rec.span("sql.parse"):
                statement = parse_statement(sql)
            with rec.span("qgm.bind"):
                graph = build_graph(statement, db.catalog)
            if self.max_mem is None and db.summary_tables:
                try:
                    with rec.span("rewrite"):
                        rewritten = db.rewrite_graph(graph)
                except Exception as exc:  # noqa: BLE001 - mirrors run_sql's rewrite sandbox
                    error = f"{type(exc).__name__}: {exc}"
                    with rec.span("qgm.bind"):
                        graph = build_graph(statement, db.catalog)
                else:
                    if rewritten is not None:
                        graph, answered = rewritten, True
            budget = None
            if self.max_mem is not None:
                budget = db.governor.open_scope(max_mem=self.max_mem)
            try:
                with governor_scope.activate(budget), rec.span("engine.execute"):
                    result = db.execute_graph(graph)
            finally:
                if budget is not None and budget.reservation is not None:
                    budget.reservation.close()
        return result, answered, error

    def check(self, db_key: str, sql: str, result) -> bool:
        """Compare ``result`` with the statement's expected answer,
        computed once per statement text outside the timed window."""
        key = (db_key, sql)
        if key not in self._expected:
            if len(self._expected) >= 256:
                # adhoc_match rarely repeats a text: bound the memo
                self._expected.clear()
            self._expected[key] = _expected_answer(self, db_key, sql, result)
        expected = self._expected[key]
        if self.name in ("base_scan", "spill_scan"):
            # bit-identical: the spill path's contract, and base-table
            # answers repeat exactly
            return (result.columns == expected.columns
                    and result.rows == expected.rows)
        return tables_equal(result, expected)

    def final_check(self) -> list[str]:
        """base_scan, after the timed loop: its answers must equal the
        answers of the same statements planned over summary tables."""
        if self.name != "base_scan":
            return []
        tpcd.install_asts(self.dbs["tpcd"])
        webmetrics.install_web_asts(self.dbs["web"])
        return [
            "base-table answer differs from the summary-table answer: "
            + " ".join(sql.split())[:60]
            for (db_key, sql), expected in self._expected.items()
            if not tables_equal(expected, self.dbs[db_key].run_sql(sql))
        ]

    def counters(self) -> dict:
        return _counters(self.dbs.values())

    def close(self) -> None:
        for db in self.dbs.values():
            db.close()


def _expected_answer(run: LibraryRun, db_key: str, sql: str, first):
    """summary_read / adhoc_match: the base-table answer; spill_scan: the
    in-memory answer; base_scan: its first answer, which
    :meth:`LibraryRun.final_check` compares with a summary-table plan."""
    db = run.dbs[db_key]
    if run.name == "base_scan":
        return first
    if run.name == "spill_scan":
        return db.execute(sql, use_summary_tables=False)
    return db.run_sql(sql, use_summary_tables=False)


_EXECUTOR_COUNTERS = (
    "executor_runs", "executor_batch_count", "executor_batch_rows",
    "executor_spill_count", "executor_spill_runs", "executor_spill_bytes",
    "cache.invalidations",
)


def _counters(dbs) -> dict:
    out: dict = {}
    for db in dbs:
        for key, value in db.rewrite_stats().items():
            out["rw." + key] = out.get("rw." + key, 0) + value
        for name in _EXECUTOR_COUNTERS:
            metric = db.metrics.get(name)
            if metric is not None:
                out[name] = out.get(name, 0) + metric.value
        rows = db.metrics.get("executor_rows")
        if rows is not None:
            out["executor_rows_sum"] = (
                out.get("executor_rows_sum", 0) + rows.describe()["sum"]
            )
    return out


def delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def repeat_share(run: LibraryRun, executed: list) -> float:
    """Share of executed statements whose QGM fingerprint was already
    seen earlier in the run (warm-up included): the input property the
    rewrite decision cache depends on."""
    seen: set = set()
    by_text: dict = {}

    def key(db_key, sql):
        if (db_key, sql) not in by_text:
            graph = build_graph(parse_statement(sql), run.dbs[db_key].catalog)
            by_text[(db_key, sql)] = fingerprint(graph).key
        return by_text[(db_key, sql)]

    for db_key, sql in run.warm:
        seen.add(key(db_key, sql))
    repeats = 0
    for db_key, sql in executed:
        fp = key(db_key, sql)
        repeats += fp in seen
        seen.add(fp)
    return ratio(repeats, len(executed))


def run_library(run: LibraryRun, seconds: float, rec=None) -> dict:
    """One timed closed-loop block of ``seconds`` wall time; ``rec``
    switches to the traced pipeline. The statement stream continues
    across blocks. Answer checks run inside the block, between
    operations, and their time is left out of every measurement: on a
    shared VM whose speed drifts over tens of seconds, a run is as
    steady as the wall span it samples is long, so a workload with
    costly checks measures fewer operations rather than running longer."""
    latencies, names, done, cpu, check_s = [], [], [], [], 0.0
    executed, wrong = [], []
    answered, errors, first_error = 0, 0, None
    failed = ops = 0
    before = run.counters()
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        db_key, name, sql = next(run.stream)
        run.ops += 1
        ops += 1
        names.append(name)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if rec is None:
                result = run.execute(db_key, sql)
            else:
                result, hit, error = run.execute_traced(db_key, sql, rec, run.ops)
                answered += hit
                if error is not None:
                    errors += 1
                    first_error = first_error or f"{name}: {error}"
        except ReproError as exc:
            # a failed statement counts as over any latency limit
            cpu.append(time.process_time() - c0)
            latencies.append(float("inf"))
            done.append(time.perf_counter() - start - check_s)
            failed += 1
            wrong.append(f"{name}: failed with {type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        cpu.append(time.process_time() - c0)
        latencies.append((t1 - t0) * 1e3)
        done.append(t1 - start - check_s)
        executed.append((db_key, sql))
        if not run.check(db_key, sql, result):
            wrong.append(f"{name}: answer differs from the expected answer")
        check_s += time.perf_counter() - t1
    return {
        "read_ms": latencies,
        "read_done": done,
        "cpu_s": cpu,
        "write_ms": [],
        "write_done": [],
        "names": names,
        "ops": ops,
        "failed": failed,
        "wall_s": time.perf_counter() - start - check_s,
        "wrong": wrong,
        "counters": delta(run.counters(), before),
        "executed": executed,
        "answered": answered,
        "rewrite_errors": errors,
        "first_rewrite_error": first_error,
    }


def merge(outs: list[dict]) -> dict:
    """One result from consecutive blocks of the same kind."""
    merged: dict = {"counters": {}, "first_rewrite_error": None}
    for out in outs:
        for key, value in out.items():
            if key == "counters":
                for name, count in value.items():
                    merged["counters"][name] = merged["counters"].get(name, 0) + count
            elif key == "first_rewrite_error":
                merged[key] = merged[key] or value
            elif isinstance(value, (list, int, float)):
                merged[key] = merged.get(key, type(value)()) + value
    return merged


# ----------------------------------------------------------------------
# server_mixed

_READS = list(tpcd.QUERIES.values())
#: one round of a server_mixed client: each read three times and five
#: journaled INSERTs (``None``), so 25% of requests are writes
_ROUND = _READS * 3 + [None] * 5


class ServerRun:
    """A journaled in-process QueryServer over the TPC-D database."""

    def __init__(self, seed: int, workdir: Path, rep: int):
        self.wal_dir = workdir / f"wal-{os.getpid()}-{rep}"
        shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.db = tpcd.build_tpcd_db(TPCD_ORDERS)
        tpcd.install_asts(self.db)
        self.initial_lineitems = len(self.db.table("Lineitem"))
        # sync=fsync and the default checkpoint_every: `repro serve --wal`
        self.wal = WriteAheadLog(self.wal_dir, sync="fsync")
        self.wal.begin(self.db)
        self.server = QueryServer(self.db, wal=self.wal)
        self.address = self.server.start_in_thread()
        self._stopped = False
        #: per-client statement streams, continued across timed blocks
        self.rngs = [random.Random(seed * 1009 + i) for i in range(2)]
        self.streams = [rounds(rng, _ROUND) for rng in self.rngs]
        self.inserts = [0, 0]
        with ReproClient(*self.address) as client:
            for sql in _READS:
                client.query(sql)

    def counters(self) -> dict:
        out = _counters([self.db])
        out["checkpoints"] = self.wal.checkpoints
        out["wchar"] = _wchar()
        return out

    def stop(self) -> None:
        if not self._stopped:
            self._stopped = True
            self.server.stop()
            self.wal.close()

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.wal_dir, ignore_errors=True)


def _wchar() -> int:
    """Bytes this process passed to write() so far (``/proc/self/io``)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _insert_sql(rng: random.Random, client_id: int, n: int) -> str:
    day = datetime.date(1995, 1, 1) + datetime.timedelta(days=rng.randint(0, 1400))
    return (
        "INSERT INTO Lineitem VALUES ("
        f"{rng.randint(1, TPCD_ORDERS)}, {1000 + client_id * 10_000_000 + n}, "
        f"{rng.randint(1, 50)}, {round(rng.uniform(100.0, 50000.0), 2)}, "
        f"{rng.choice([0.0, 0.02, 0.04, 0.06])}, {rng.choice([0.0, 0.02, 0.04])}, "
        f"'{rng.choice(tpcd.RETURN_FLAGS)}', '{rng.choice(tpcd.LINE_STATUSES)}', "
        f"DATE '{day.isoformat()}')"
    )


def run_server(run: ServerRun, seconds: float,
               min_checkpoints: int = MIN_CHECKPOINTS) -> dict:
    """Two closed-loop clients; the block lasts ``seconds`` and at least
    ``min_checkpoints`` WAL checkpoints (capped at STRETCH x ``seconds``).
    Answers are checked afterwards by :func:`check_server`."""
    stop = threading.Event()
    lock = threading.Lock()
    out = {"read_ms": [], "read_done": [], "write_ms": [], "write_done": [],
           "failed": 0, "acked": 0, "hits": 0, "server_ms": [],
           "wire_ms": [], "wrong": []}

    def client_loop(client_id: int) -> None:
        rng = run.rngs[client_id]
        reads, writes, server_ms, wire_ms, errors = [], [], [], [], []
        read_done, write_done = [], []
        failed = acked = hits = 0
        with ReproClient(*run.address) as client:
            while not stop.is_set():
                kind = next(run.streams[client_id])
                is_write = kind is None
                if is_write:
                    run.inserts[client_id] += 1
                    sql = _insert_sql(rng, client_id, run.inserts[client_id])
                else:
                    sql = kind
                t0 = time.perf_counter()
                try:
                    reply = client.query(sql)
                except ReproError as exc:
                    # a failed request counts as over any latency limit
                    failed += 1
                    errors.append(f"request failed: {type(exc).__name__}: {exc}")
                    (writes if is_write else reads).append(float("inf"))
                    (write_done if is_write else read_done).append(
                        time.perf_counter() - start)
                    continue
                t1 = time.perf_counter()
                ms = (t1 - t0) * 1e3
                server_ms.append(reply.elapsed_ms)
                wire_ms.append(ms - reply.elapsed_ms)
                if is_write:
                    writes.append(ms)
                    write_done.append(t1 - start)
                    acked += 1
                else:
                    reads.append(ms)
                    read_done.append(t1 - start)
                    hits += reply.cache in ("hit", "stale-hit")
        with lock:
            out["read_ms"] += reads
            out["read_done"] += read_done
            out["write_ms"] += writes
            out["write_done"] += write_done
            out["server_ms"] += server_ms
            out["wire_ms"] += wire_ms
            out["failed"] += failed
            out["acked"] += acked
            out["hits"] += hits
            out["wrong"] += errors

    before = run.counters()
    cpu0 = time.process_time()
    start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    #: (elapsed, process CPU) samples, to split CPU time into windows
    cpu_marks = []
    while True:
        time.sleep(0.01)
        elapsed = time.perf_counter() - start
        cpu_marks.append((elapsed, time.process_time() - cpu0))
        crossed = run.wal.checkpoints - before["checkpoints"]
        if elapsed >= STRETCH * seconds or (elapsed >= seconds and crossed >= min_checkpoints):
            break
    stop.set()
    for thread in threads:
        thread.join(timeout=120)
    out["wrong"] += ["a client thread did not stop" for t in threads if t.is_alive()]
    out.update(
        ops=len(out["read_ms"]) + len(out["write_ms"]),
        names=["read"] * len(out["read_ms"]) + ["write"] * len(out["write_ms"]),
        wall_s=time.perf_counter() - start,
        cpu_marks=cpu_marks,
        counters=delta(run.counters(), before),
    )
    return out


def check_server(run: ServerRun, acked: int) -> list[str]:
    """After the timed loop: server reads match a quiesced library pass,
    Lineitem holds exactly the ACKed inserts, and WAL recovery rebuilds
    the same count."""
    wrong = []
    with ReproClient(*run.address) as client:
        for name, sql in tpcd.QUERIES.items():
            served = client.query(sql).table
            local = run.db.run_sql(sql, use_summary_tables=False)
            if not tables_equal(served, local):
                wrong.append(f"{name}: server answer differs from the library")
    expected = run.initial_lineitems + acked
    count = len(run.db.table("Lineitem"))
    if count != expected:
        wrong.append(f"Lineitem has {count} rows, expected {expected}")
    run.stop()
    wal = WriteAheadLog(run.wal_dir, sync="fsync")
    try:
        recovered = len(wal.recover().database.table("Lineitem"))
    finally:
        wal.close()
    if recovered != expected:
        wrong.append(f"WAL recovery rebuilt {recovered} Lineitem rows, expected {expected}")
    return wrong

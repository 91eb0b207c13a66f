"""The `Database` facade — the library's main entry point.

Ties together the catalog, the table store, the executor, summary-table
management, and (lazily, to keep layering clean) the matcher/rewriter::

    db = Database(credit_card_catalog())
    db.load("Trans", rows)
    db.create_summary_table("AST1", "SELECT faid, flid, ... GROUP BY ...")
    result = db.execute(my_query)                 # rewritten automatically
    raw = db.execute(my_query, use_summary_tables=False)

Rewriting runs through a three-layer *matching fast path* (see
docs/ALGORITHM.md, "The matching fast path"): an AST signature index
prunes implausible candidates before any navigation, a bounded LRU of
rewrite decisions keyed by the query graph's structural fingerprint
replays known outcomes without matching at all, and expression
normalization/hashing is memoized. ``rewrite_stats()`` exposes the
counters; ``configure_fast_path()`` disables layers for ablation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterable

from repro.catalog.schema import Catalog, Column, TableSchema
from repro.catalog.types import DataType, infer_literal_type
from repro.engine.executor import Executor
from repro.engine.table import Row, Table
from repro.errors import (
    CatalogError,
    MatchBudgetExceeded,
    QueryCancelled,
    ReproError,
)
from repro.governor import QueryGovernor
from repro.governor import scope as governor_scope
from repro.governor.governor import UNSET as _GOV_UNSET
from repro.obs import events as _events
from repro.obs import spans as _spans
from repro.obs import trace as _trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceBuffer
from repro.qgm.boxes import QueryGraph
from repro.qgm.build import build_graph
from repro.qgm.fingerprint import fingerprint

#: default slow-query log threshold, milliseconds (see docs/OBSERVABILITY.md;
#: override per session with ``SET SLOW QUERY <ms>`` or ``SET SLOW QUERY OFF``)
DEFAULT_SLOW_QUERY_MS = 100.0


class Database:
    """An in-memory database with automatic summary tables.

    ``rewrite_cache_size`` bounds the rewrite decision cache (LRU
    entries); 0 disables decision caching entirely.
    """

    def __init__(self, catalog: Catalog | None = None, rewrite_cache_size: int = 256):
        self.catalog = catalog or Catalog()
        self.tables: dict[str, Table] = {}
        self.summary_tables: dict[str, "SummaryTable"] = {}
        # Lazily imported (like the matcher/rewriter) to avoid an import
        # cycle through repro.rewrite → repro.asts → repro.engine.
        from repro.refresh.log import DeltaLog
        from repro.refresh.policy import RefreshAge
        from repro.refresh.scheduler import RefreshScheduler
        from repro.rewrite.cache import RewriteCache, RewriteStats
        from repro.rewrite.index import SummaryIndex

        for schema in self.catalog.tables.values():
            self.tables[schema.name.lower()] = Table.from_schema(schema)
        #: the unified metrics registry — fast-path counters (via
        #: RewriteStats), scheduler counters, phase timers, slow-query
        #: counts all land here; dump with \metrics / to_prometheus()
        self.metrics = MetricsRegistry()
        self._summary_index = SummaryIndex()
        self._rewrite_cache = RewriteCache(rewrite_cache_size)
        self._rewrite_stats = RewriteStats(registry=self.metrics)
        self._rewrite_epoch = 0
        self._fast_path_index = True
        self._fast_path_cache = True
        # Deferred maintenance: staged base-table deltas, the background
        # refresh worker, and the session's freshness tolerance
        # (SET REFRESH AGE; 0 = only fully fresh summaries match).
        self._delta_log = DeltaLog()
        self._scheduler = RefreshScheduler(self, registry=self.metrics)
        self._maintenance_lock = threading.RLock()
        # Coarse catalog lock: serializes DDL (CREATE/DROP TABLE and
        # SUMMARY TABLE, full refreshes) against each other. Queries do
        # NOT take it — the rewrite fast path stays lock-free and is
        # kept safe by (a) capturing the decision-cache epoch before
        # matching and bumping it only after a mutation completes, and
        # (b) executing against a per-query snapshot of the table store
        # plus the matched summaries' table objects (see execute_graph).
        # Lock order where both are held: _catalog_lock, then
        # _maintenance_lock.
        self._catalog_lock = threading.RLock()
        self.refresh_age = RefreshAge.CURRENT
        #: last sandboxed rewrite failure (diagnostics; see
        #: :meth:`_rewrite_for_execution`)
        self.last_rewrite_error: str | None = None
        # Observability: per-query match tracing (\trace on|off|last) and
        # the slow-query log (SET SLOW QUERY <ms>|OFF).
        self._tracing = False
        self._trace_buffer = TraceBuffer()
        self.slow_query_ms: float | None = DEFAULT_SLOW_QUERY_MS
        self.slow_queries: deque[dict] = deque(maxlen=64)
        # Query governor: SET QUERY TIMEOUT/MAXROWS limits, admission
        # control, and the per-shape circuit breaker (see
        # docs/ROBUSTNESS.md, "Query governor & load shedding"). Fully
        # disarmed by default — open_scope() returns None and every
        # instrumentation site short-circuits.
        self.governor = QueryGovernor(metrics=self.metrics)
        #: last governor intervention (degradation/breaker skip), for
        #: diagnostics and the CLI's \governor command
        self.last_governor_event: str | None = None
        # Morsel-driven executor parallelism (SET EXECUTOR PARALLEL
        # <n>|OFF, docs/EXECUTOR.md): the session owns one worker pool so
        # per-query runs don't pay thread start-up. Off by default.
        self._executor_parallel: int | None = None
        self._executor_pool = None
        #: batch/parallelism counters of the most recent executor run
        #: (EXPLAIN ANALYZE's ``-- executor --`` section)
        self.last_executor_stats = None

    # ------------------------------------------------------------------
    # Data definition / loading
    # ------------------------------------------------------------------
    def add_table(self, schema: TableSchema) -> None:
        """Register a new base table (empty until loaded)."""
        with self._catalog_lock:
            self.catalog.add_table(schema)
            self.tables[schema.name.lower()] = Table.from_schema(schema)

    def load(self, table_name: str, rows: Iterable[Row]) -> int:
        """Append validated rows to a base table; returns the new count.

        Loading does *not* refresh summary tables — call
        :meth:`refresh_summary_tables` or use
        :func:`repro.asts.maintenance.apply_insert` for incremental
        maintenance.
        """
        schema = self.catalog.table(table_name)
        table = self.tables[schema.name.lower()]
        table.extend_checked(rows, schema)
        return len(table)

    def table(self, name: str) -> Table:
        key = name.lower()
        if key not in self.tables:
            raise CatalogError(f"no table named {name!r}")
        return self.tables[key]

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def bind(self, sql: str, label: str = "Q") -> QueryGraph:
        """Parse + bind SQL against this database's catalog."""
        return build_graph(sql, self.catalog, label=label)

    def execute(
        self, sql: str, use_summary_tables: bool = True, tolerance=None,
        token=None, timeout_ms=_GOV_UNSET, max_rows=_GOV_UNSET,
        max_mem=_GOV_UNSET, executor_parallel=_GOV_UNSET,
        client: str | None = None,
    ) -> Table:
        """Run a query, rewriting it over summary tables when possible.

        ``tolerance`` is a per-query freshness override (a
        :class:`repro.refresh.policy.RefreshAge`); by default the
        session's ``refresh_age`` decides how stale a REFRESH DEFERRED
        summary may be and still serve this query. ``token`` is an
        optional :class:`repro.governor.CancellationToken` another
        thread may trigger to stop this query cooperatively.

        ``timeout_ms`` / ``max_rows`` / ``executor_parallel`` override
        the database-level governor and executor settings for this one
        query — the query server passes each connection's ``SET`` state
        through them, so per-client knobs never mutate shared state.
        ``client`` tags slow-query-log entries with the submitting
        connection's id.
        """
        return self._execute_select(
            sql, sql, use_summary_tables, tolerance=tolerance, token=token,
            timeout_ms=timeout_ms, max_rows=max_rows, max_mem=max_mem,
            executor_parallel=executor_parallel, client=client,
        )

    def execute_statement(
        self, statement, sql_text: str | None = None,
        use_summary_tables: bool = True, tolerance=None, token=None,
        timeout_ms=_GOV_UNSET, max_rows=_GOV_UNSET, max_mem=_GOV_UNSET,
        executor_parallel=_GOV_UNSET, client: str | None = None,
    ) -> Table:
        """:meth:`execute` for an already-parsed SELECT statement (the
        query server parses once to fingerprint the query for its result
        cache, then executes the same parse tree here)."""
        return self._execute_select(
            statement, sql_text, use_summary_tables, tolerance=tolerance,
            token=token, timeout_ms=timeout_ms, max_rows=max_rows,
            max_mem=max_mem, executor_parallel=executor_parallel,
            client=client,
        )

    def _execute_select(
        self, source, sql_text: str | None, use_summary_tables: bool,
        tolerance=None, token=None, timeout_ms=_GOV_UNSET,
        max_rows=_GOV_UNSET, max_mem=_GOV_UNSET,
        executor_parallel=_GOV_UNSET, client: str | None = None,
    ) -> Table:
        """Bind → rewrite → run, with phase timers (bind/match/execute,
        milliseconds) in the metrics registry, optional match tracing
        (``set_tracing``), and the slow-query log. ``source`` is SQL text
        or an already-parsed statement; ``sql_text`` is the original text
        for the trace/slow log.

        Governed end to end: admission control may shed the query
        (:class:`~repro.errors.QueryRejected`) before any work happens,
        and the governor scope — when any limit or ``token`` is set —
        stays active across bind, match, and execute."""
        admit_pc = time.perf_counter()
        with self.governor.admission.admit():
            _spans.record("admission.wait", admit_pc)
            budget = self.governor.open_scope(
                token, timeout_ms=timeout_ms, max_rows=max_rows,
                max_mem=max_mem,
            )
            try:
                with governor_scope.activate(budget):
                    return self._execute_governed(
                        source, sql_text, use_summary_tables, tolerance,
                        executor_parallel=executor_parallel, client=client,
                    )
            finally:
                # Return the query's reserved bytes to the broker even
                # when it failed or was cancelled mid-operator.
                if budget is not None and budget.reservation is not None:
                    budget.reservation.close()

    def _execute_governed(
        self, source, sql_text: str | None, use_summary_tables: bool,
        tolerance=None, executor_parallel=_GOV_UNSET,
        client: str | None = None,
    ) -> Table:
        metrics = self.metrics
        total_start = time.perf_counter()
        trace = _trace.start(sql_text) if self._tracing else None
        try:
            started = time.perf_counter()
            graph = build_graph(source, self.catalog)
            bind_ms = metrics.observe_ms("phase_bind_ms", started)
            _spans.record("db.bind", started)
            match_ms = None
            overlay = None
            if use_summary_tables and self.summary_tables:
                started = time.perf_counter()
                graph, overlay = self._rewrite_for_execution(
                    source, graph, tolerance=tolerance
                )
                match_ms = metrics.observe_ms("phase_match_ms", started)
                if _spans.TRACER is not None:
                    rewrite_attrs = {"rewritten": overlay is not None}
                    if trace is not None:
                        # join the request span to the match tracer's
                        # per-query record (\trace N)
                        rewrite_attrs["match_trace"] = trace.trace_id
                    _spans.record("db.rewrite", started, **rewrite_attrs)
            started = time.perf_counter()
            result = self.execute_graph(
                graph, overlay=overlay, parallel=executor_parallel
            )
            execute_ms = metrics.observe_ms("phase_execute_ms", started)
            _spans.record("db.execute", started)
        finally:
            if trace is not None:
                _trace.finish()
        total_ms = metrics.observe_ms("query_total_ms", total_start)
        if trace is not None:
            trace.set_phase("bind", bind_ms)
            if match_ms is not None:
                # apply_match recorded "compensate" inside the match window
                trace.set_phase(
                    "match", match_ms - trace.phases.get("compensate", 0.0)
                )
            trace.set_phase("execute", execute_ms)
            self._trace_buffer.append(trace)
        self._note_slow_query(sql_text, total_ms, client=client)
        return result

    def _note_slow_query(
        self, sql_text: str | None, total_ms: float, client: str | None = None
    ) -> None:
        threshold = self.slow_query_ms
        if threshold is None or total_ms < threshold:
            return
        self.metrics.counter(
            "slow_queries_total", "queries over the SET SLOW QUERY threshold"
        ).inc()
        entry = {
            "sql": sql_text if sql_text is not None else "(bound graph)",
            "ms": round(total_ms, 3),
            "threshold_ms": threshold,
            "at": time.time(),
        }
        if client is not None:
            entry["client"] = client
        trace_id = _spans.current_trace_id()
        if trace_id is not None:
            # join key into the span ring and the server session
            entry["trace_id"] = trace_id
        self.slow_queries.append(entry)

    def execute_graph(
        self, graph: QueryGraph, overlay: dict | None = None,
        parallel=_GOV_UNSET,
    ) -> Table:
        """Run a bound (possibly rewritten) graph.

        The executor receives a *snapshot* of the table store, optionally
        patched with ``overlay`` (the table objects of the summaries a
        rewrite matched). Concurrent DDL — a ``DROP SUMMARY TABLE``
        racing this query — therefore cannot yank a table out from under
        the run: the query finishes against the objects it planned with.
        ``parallel`` overrides the session's morsel-worker count for
        this one run (the query server passes per-connection ``SET
        EXECUTOR PARALLEL`` state through it).
        """
        tables = dict(self.tables)
        if overlay:
            tables.update(overlay)
        if parallel is _GOV_UNSET:
            workers, pool = self._executor_parallel, self._executor_pool
        else:
            # Per-query override: never borrow the shared pool — its
            # size matches the database-level setting, not this one.
            workers, pool = parallel, None
        executor = Executor(
            tables,
            metrics=self.metrics,
            parallel=workers,
            pool=pool,
        )
        result = executor.run(graph)
        self.last_executor_stats = executor.stats
        return result

    @property
    def executor_parallel(self) -> int | None:
        """Configured morsel-parallel worker count (``None`` ⇒ serial)."""
        return self._executor_parallel

    def set_executor_parallel(self, workers: int | None) -> None:
        """Enable/disable morsel-driven parallel execution.

        ``workers`` is the thread-pool size (``None`` or ``0`` turns the
        pool off). Every query — including summary-table recomputes run
        by the refresh scheduler — executes its scans, hash-join probes
        and per-cuboid group-bys across the pool; partial aggregates are
        merged with the derivation rules (a)–(g).
        """
        if workers is not None and workers < 1:
            workers = None
        old_pool = self._executor_pool
        self._executor_pool = None
        self._executor_parallel = workers
        if old_pool is not None:
            old_pool.shutdown(wait=True)
        if workers:
            from concurrent.futures import ThreadPoolExecutor

            self._executor_pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-exec"
            )

    def run_sql(self, sql: str, use_summary_tables: bool = True):
        """Execute one statement of any supported kind (SELECT, CREATE
        TABLE, CREATE SUMMARY TABLE, DROP SUMMARY TABLE, INSERT, DELETE,
        EXPLAIN). Returns a :class:`~repro.engine.table.Table` for
        SELECT/EXPLAIN, otherwise a status string."""
        from repro.sql.statements import parse_statement

        started = time.perf_counter()
        statement = parse_statement(sql)
        self.metrics.observe_ms("phase_parse_ms", started)
        return self.run_statement(statement, sql, use_summary_tables)

    def run_statement(
        self, statement, sql: str, use_summary_tables: bool = True
    ):
        """Execute one already-parsed statement (see :meth:`run_sql`).

        The query server parses each statement once — to classify it and
        to fingerprint SELECTs for the result cache — and hands the same
        tree here, so the parse cost is paid exactly once per request.
        """
        from repro.sql.ast import SelectStatement, UnionAll
        from repro.sql.statements import (
            CreateSummaryTable,
            CreateTable,
            DeleteValues,
            DropSummaryTable,
            Explain,
            InsertValues,
            RefreshSummaryTables,
            SetExecutorParallel,
            SetQueryMaxMem,
            SetQueryMaxRows,
            SetQueryTimeout,
            SetRefreshAge,
            SetSlowQuery,
            SetTraceSample,
        )

        if isinstance(statement, (SelectStatement, UnionAll)):
            return self._execute_select(statement, sql, use_summary_tables)
        if isinstance(statement, Explain):
            if statement.analyze:
                return self._explain_analyze(statement.sql)
            return self._explain(statement.sql)
        if isinstance(statement, CreateTable):
            self._apply_create_table(statement)
            return f"table {statement.name} created"
        if isinstance(statement, CreateSummaryTable):
            summary = self.create_summary_table(
                statement.name, statement.sql, refresh_mode=statement.refresh_mode
            )
            mode_note = (
                ", refresh deferred" if summary.refresh.is_deferred else ""
            )
            return (
                f"summary table {summary.name} created "
                f"({summary.row_count} rows{mode_note})"
            )
        if isinstance(statement, DropSummaryTable):
            self.drop_summary_table(statement.name)
            return f"summary table {statement.name} dropped"
        if isinstance(statement, InsertValues):
            report = self.insert_rows(statement.table, statement.rows)
            return _maintenance_status(
                f"{len(statement.rows)} row(s) inserted into {statement.table}",
                report,
            )
        if isinstance(statement, DeleteValues):
            report = self.delete_rows(statement.table, statement.rows)
            return _maintenance_status(
                f"{len(statement.rows)} row(s) deleted from {statement.table}",
                report,
            )
        if isinstance(statement, SetRefreshAge):
            from repro.refresh.policy import RefreshAge

            self.refresh_age = RefreshAge(statement.max_pending)
            return f"refresh age set to {self.refresh_age.describe()}"
        if isinstance(statement, SetSlowQuery):
            self.slow_query_ms = statement.threshold_ms
            if statement.threshold_ms is None:
                return "slow query log disabled"
            return f"slow query threshold set to {statement.threshold_ms:g} ms"
        if isinstance(statement, SetQueryTimeout):
            self.governor.timeout_ms = statement.timeout_ms
            if statement.timeout_ms is None:
                return "query timeout disabled"
            return f"query timeout set to {statement.timeout_ms:g} ms"
        if isinstance(statement, SetQueryMaxRows):
            self.governor.max_rows = statement.max_rows
            if statement.max_rows is None:
                return "query maxrows disabled"
            return f"query maxrows set to {statement.max_rows}"
        if isinstance(statement, SetQueryMaxMem):
            self.governor.max_mem = statement.max_mem
            if statement.max_mem is None:
                return "query maxmem disabled"
            return f"query maxmem set to {statement.max_mem} byte(s)"
        if isinstance(statement, SetExecutorParallel):
            self.set_executor_parallel(statement.workers)
            if statement.workers is None:
                return "executor parallelism disabled"
            return f"executor parallelism set to {statement.workers} worker(s)"
        if isinstance(statement, SetTraceSample):
            _spans.set_sample_rate(statement.rate)
            if statement.rate is None:
                return "request tracing disabled"
            return f"trace sample rate set to {statement.rate:g}"
        if isinstance(statement, RefreshSummaryTables):
            names = statement.names or None
            self.refresh_summary_tables(names)
            refreshed = statement.names or tuple(
                summary.name for summary in self.summary_tables.values()
            )
            return f"refreshed: {', '.join(refreshed) or '(no summary tables)'}"
        raise ReproError(f"unsupported statement {statement!r}")

    def run_script(self, script: str) -> list:
        """Run a ';'-separated script; returns one result per statement."""
        from repro.sql.statements import split_statements

        return [self.run_sql(statement) for statement in split_statements(script)]

    def _apply_create_table(self, statement) -> None:
        from repro.catalog.schema import (
            Column,
            ForeignKeyConstraint,
            TableSchema,
            UniqueKey,
        )

        schema = TableSchema(
            statement.name,
            [Column(c.name, c.dtype, c.nullable) for c in statement.columns],
            keys=[UniqueKey(k.columns, k.is_primary) for k in statement.keys],
        )
        self.add_table(schema)
        try:
            for fk in statement.foreign_keys:
                self.catalog.add_foreign_key(
                    ForeignKeyConstraint(
                        statement.name, fk.columns, fk.parent_table, fk.parent_columns
                    )
                )
        except Exception:
            self.catalog.drop_table(statement.name)
            del self.tables[statement.name.lower()]
            raise

    def explain(self, sql: str, tolerance=None) -> str:
        """EXPLAIN output: the QGM graph, the matching decision, and the
        rewritten SQL/graph when a summary table applies. ``tolerance``
        is a per-call freshness override (the query server passes the
        connection's ``SET REFRESH AGE`` so remote EXPLAIN sees the same
        staleness gate the session's queries would)."""
        return self._explain(sql, tolerance=tolerance)

    def _explain(self, sql: str, tolerance=None):
        """EXPLAIN output: the QGM graph, the rewrite decision, and the
        matching fast-path counters for this statement. The SQL is bound
        exactly once: the graph is rendered first, then the same graph is
        handed to the rewriter (which mutates it in place on success)."""
        from repro.qgm.display import render_graph

        graph = self.bind(sql)
        lines = ["-- query graph --", render_graph(graph)]
        before = self._rewrite_stats.snapshot()
        try:
            result = self.rewrite(graph, tolerance=tolerance)
        except Exception as error:
            # Same sandbox contract as execution: a broken rewrite path
            # downgrades to "no rewrite", it never fails the EXPLAIN.
            self._rewrite_stats.rewrite_errors += 1
            self.last_rewrite_error = f"{type(error).__name__}: {error}"
            result = None
            lines.append(
                f"-- rewrite failed ({self.last_rewrite_error}); "
                "query would run on base tables --"
            )
        if result is None:
            lines.append("-- no summary-table rewrite applies --")
        else:
            lines.append("-- rewrite --")
            lines.append(result.explain())
            lines.append("-- rewritten SQL --")
            lines.append(result.sql)
            lines.append("-- rewritten graph --")
            lines.append(render_graph(result.graph))
        lines.append("-- matching fast path --")
        lines.append(_describe_fast_path(self._rewrite_stats.delta(before)))
        return "\n".join(lines)

    def explain_analyze(self, sql: str) -> str:
        """``EXPLAIN ANALYZE``: execute the query under a forced match
        trace and render the timed phase breakdown (parse/bind/match/
        compensate/execute, milliseconds) plus the per-AST match verdict
        table — for every enabled summary table, either the matched
        pattern section or the named reject reason (see
        ``docs/OBSERVABILITY.md``)."""
        return self._explain_analyze(sql)

    def _explain_analyze(self, sql: str) -> str:
        with self.governor.admission.admit():
            budget = self.governor.open_scope()
            with governor_scope.activate(budget):
                return self._explain_analyze_governed(sql, budget)

    def _explain_analyze_governed(self, sql: str, budget) -> str:
        from repro.sql.parser import parse

        metrics = self.metrics
        before = self._rewrite_stats.snapshot()
        total_start = time.perf_counter()
        started = total_start
        statement = parse(sql)
        parse_ms = metrics.observe_ms("phase_parse_ms", started)
        # Force a trace for this statement regardless of the session flag.
        trace = _trace.start(sql)
        error_note = None
        governor_note = None
        result = None
        try:
            started = time.perf_counter()
            graph = build_graph(statement, self.catalog)
            bind_ms = metrics.observe_ms("phase_bind_ms", started)
            match_ms = 0.0
            if self.summary_tables:
                started = time.perf_counter()
                try:
                    result = self._rewrite_bound(graph)
                except QueryCancelled:
                    raise
                except MatchBudgetExceeded as error:
                    # Graceful degradation, same ladder as execution:
                    # abandon matching, disarm the deadline, run base.
                    self._note_degradation(error)
                    governor_note = str(error)
                    graph = build_graph(statement, self.catalog)
                except Exception as error:
                    # Same sandbox contract as execution: rebind pristine.
                    self._rewrite_stats.rewrite_errors += 1
                    self.last_rewrite_error = f"{type(error).__name__}: {error}"
                    error_note = self.last_rewrite_error
                    graph = build_graph(statement, self.catalog)
                match_ms = metrics.observe_ms("phase_match_ms", started)
            exec_graph = result.graph if result is not None else graph
            overlay = _summary_overlay(result) if result is not None else None
            started = time.perf_counter()
            data = self.execute_graph(exec_graph, overlay=overlay)
            execute_ms = metrics.observe_ms("phase_execute_ms", started)
        finally:
            _trace.finish()
        total_ms = metrics.observe_ms("query_total_ms", total_start)
        compensate_ms = trace.phases.get("compensate", 0.0)
        trace.set_phase("parse", parse_ms)
        trace.set_phase("bind", bind_ms)
        trace.set_phase("match", max(0.0, match_ms - compensate_ms))
        trace.set_phase("execute", execute_ms)
        self._trace_buffer.append(trace)
        self._note_slow_query(sql, total_ms)

        span_trace = _spans.current_trace_id()
        lines = [
            f"-- EXPLAIN ANALYZE (trace #{trace.trace_id}"
            + (f", trace_id {span_trace}" if span_trace is not None else "")
            + ") --"
        ]
        lines.append("-- phases --")
        phase_rows = [
            ("parse", parse_ms),
            ("bind", bind_ms),
            ("match", max(0.0, match_ms - compensate_ms)),
            ("compensate", compensate_ms),
            ("execute", execute_ms),
            ("total", total_ms),
        ]
        for name, ms in phase_rows:
            lines.append(f"  {name:<11}{ms:>10.3f} ms")
        lines.append("-- match verdicts --")
        rows = trace.verdict_rows()
        if not rows:
            lines.append(
                "  (no summary tables registered)"
                if not self.summary_tables
                else "  (no candidates admissible for this query)"
            )
        else:
            name_w = max(len("summary"), max(len(r[0]) for r in rows))
            verdict_w = max(len("verdict"), max(len(r[1]) for r in rows))
            lines.append(f"  {'summary':<{name_w}}  {'verdict':<{verdict_w}}  detail")
            for name, verdict, detail in rows:
                lines.append(f"  {name:<{name_w}}  {verdict:<{verdict_w}}  {detail}")
        if error_note is not None:
            lines.append(
                f"-- rewrite failed ({error_note}); query ran on base tables --"
            )
        if governor_note is not None:
            lines.append(
                f"-- governor degraded the query ({governor_note}); "
                "ran on base tables --"
            )
        executor_stats = self.last_executor_stats
        if executor_stats is not None:
            lines.append("-- executor --")
            lines.extend(executor_stats.describe_lines())
        if budget is not None:
            lines.append("-- governor --")
            lines.extend(budget.describe_lines())
        if result is not None:
            lines.append("-- rewrite --")
            lines.append(result.explain())
            lines.append("-- rewritten SQL --")
            lines.append(result.sql)
        lines.append(f"-- result: {len(data)} row(s) --")
        lines.append("-- matching fast path --")
        lines.append(_describe_fast_path(self._rewrite_stats.delta(before)))
        return "\n".join(lines)

    def _rewrite_for_execution(self, source, graph: QueryGraph, tolerance=None):
        """The rewrite *sandbox*: ``(graph, overlay)`` to execute for
        ``source`` — ``overlay`` maps the matched summaries' table names
        to their :class:`~repro.engine.table.Table` objects, pinning
        them for the executor even if a concurrent ``DROP SUMMARY
        TABLE`` removes them from the store before execution starts.

        Rewriting is an optimization — it may improve a query plan but
        must never fail or corrupt a query answer (the paper's engine
        has the same contract). Any exception the rewrite path raises is
        caught here, counted as ``rewrite_errors``, and the query falls
        back to base-table execution. Because a failed rewrite can leave
        the in-place-mutated ``graph`` partially rewritten, the fallback
        re-binds a pristine graph from ``source`` (SQL text or a parsed
        statement) rather than trusting the possibly-dirty one.

        Two governor errors get special treatment: a cancellation is the
        caller's explicit request to stop, so it propagates rather than
        degrades; a match budget running out is the governor's graceful
        degradation — matching is abandoned (recorded as a
        ``budget-exhausted`` verdict, never an error), the deadline is
        disarmed so the base-table plan can finish, and the circuit
        breaker remembers the shape.
        """
        try:
            result = self._rewrite_bound(graph, tolerance=tolerance)
        except QueryCancelled:
            raise
        except MatchBudgetExceeded as error:
            self._note_degradation(error)
            from repro.qgm.build import build_graph

            return build_graph(source, self.catalog), None
        except Exception as error:
            self._rewrite_stats.rewrite_errors += 1
            self.last_rewrite_error = f"{type(error).__name__}: {error}"
            from repro.qgm.build import build_graph

            return build_graph(source, self.catalog), None
        if result is None:
            return graph, None
        return result.graph, _summary_overlay(result)

    def _note_degradation(self, error: MatchBudgetExceeded) -> None:
        """Record one match-phase budget exhaustion: mark the scope
        degraded (disarming its deadline so execution completes), feed
        the circuit breaker, bump the metrics counter, and fill the
        active trace's verdicts so EXPLAIN ANALYZE shows
        ``budget-exhausted`` instead of an empty match table."""
        detail = str(error)
        budget = governor_scope.current()
        if budget is not None:
            budget.mark_degraded(detail)
            if budget.fingerprint is not None:
                self.governor.breaker.record_timeout(budget.fingerprint)
        self.governor.note_degradation()
        self.last_governor_event = f"degraded to base tables: {detail}"
        t = _trace.ACTIVE
        if t is not None:
            # The attempt the budget interrupted has neither a pattern
            # nor a reject reason; later summaries were never begun.
            seen = set()
            for attempt in t.summaries:
                seen.add(attempt.name.lower())
                if (
                    attempt.reason is None
                    and attempt.pattern is None
                    and not attempt.applied
                ):
                    attempt.reason = "budget-exhausted"
                    attempt.detail = detail
            for summary in self.enabled_summary_tables():
                if summary.name.lower() not in seen:
                    t.verdict(summary.name, "budget-exhausted", detail)

    def rewrite(
        self,
        sql: str | QueryGraph,
        options: dict | None = None,
        tolerance=None,
    ):
        """Attempt a summary-table rewrite; returns a
        :class:`repro.rewrite.rewriter.RewriteResult` or None.

        Accepts either SQL text or an already-bound :class:`QueryGraph`
        (which is then rewritten *in place* on success — bind a fresh
        graph per call). ``options`` tunes the matcher (see
        :data:`repro.matching.framework.DEFAULT_OPTIONS`); ``tolerance``
        overrides the session's ``refresh_age`` for this query.
        """
        graph = self.bind(sql) if isinstance(sql, str) else sql
        return self._rewrite_bound(graph, options=options, tolerance=tolerance)

    def rewrite_graph(self, graph: QueryGraph, tolerance=None) -> QueryGraph | None:
        """The rewritten graph for ``graph``, or None when nothing matches."""
        result = self._rewrite_bound(graph, tolerance=tolerance)
        return result.graph if result is not None else None

    def _rewrite_bound(
        self, graph: QueryGraph, options: dict | None = None, tolerance=None
    ):
        """The matching fast path: staleness gate + index pruning +
        decision cache around :func:`repro.rewrite.rewriter.rewrite_query`."""
        from repro.rewrite.cache import CachedStep, CacheEntry, options_key
        from repro.rewrite.index import filter_fresh
        from repro.rewrite.rewriter import rewrite_query

        if tolerance is None:
            tolerance = self.refresh_age
        # Match-phase gate: a deadline that already expired (during
        # parse/bind) or a triggered token stops matching before the
        # navigator starts work it cannot afford. Raises
        # MatchBudgetExceeded, which the sandbox turns into base-table
        # execution — never an error.
        budget = governor_scope.current()
        if budget is not None:
            budget.enter_match()
        stats = self._rewrite_stats
        stats.queries += 1
        # Capture the decision-cache epoch BEFORE matching. Any catalog
        # mutation that lands while this decision is in flight bumps the
        # counter, so the entry stored below carries a stale epoch and is
        # invalidated on its first lookup instead of replaying a rewrite
        # against a dropped (or freshly altered) summary set.
        epoch = self._rewrite_epoch
        summaries = filter_fresh(
            self.enabled_summary_tables(), tolerance, stats=stats,
            log=self._delta_log,
        )
        admissible = frozenset(s.name.lower() for s in summaries)
        use_cache = self._fast_path_cache and self._rewrite_cache.maxsize > 0
        key = None
        if use_cache:
            key = (fingerprint(graph), options_key(options), tolerance.key)
            entry = self._rewrite_cache.lookup(
                key, epoch, admissible, stats=stats
            )
            if entry is not None:
                if entry.steps is None:
                    stats.cache_negative_hits += 1
                    t = _trace.ACTIVE
                    if t is not None:
                        self._trace_cache_hit(t, admissible, steps=None)
                    return None
                replayed = self._replay_rewrite(graph, entry, admissible)
                if replayed is not None:
                    stats.cache_hits += 1
                    t = _trace.ACTIVE
                    if t is not None:
                        self._trace_cache_hit(t, admissible, steps=entry.steps)
                    return replayed
                stats.cache_replay_failures += 1
            stats.cache_misses += 1
        # Circuit breaker: a shape that repeatedly timed out during
        # matching skips the navigator for a cool-down. The fingerprint
        # must be taken *before* rewrite_query mutates the graph in
        # place; reuse the cache key's when available, and skip the
        # extra hash entirely on the ungoverned, breaker-idle path.
        breaker = self.governor.breaker
        shape = key[0] if key is not None else None
        if shape is None and (budget is not None or breaker.active):
            shape = fingerprint(graph)
        if budget is not None:
            budget.fingerprint = shape
        if breaker.active and breaker.should_skip(shape):
            self.governor.note_breaker_skip()
            self.last_governor_event = (
                "circuit breaker open: match skipped for this query shape"
            )
            t = _trace.ACTIVE
            if t is not None:
                for summary in summaries:
                    t.verdict(
                        summary.name, "circuit-open",
                        "match skipped during breaker cool-down",
                    )
            return None
        result = rewrite_query(
            graph,
            summaries,
            options=options,
            stats=stats,
            prune=self._fast_path_index,
        )
        if shape is not None:
            # The match phase completed: this shape is healthy.
            breaker.record_success(shape)
        if use_cache:
            steps = None
            if result is not None:
                steps = tuple(
                    CachedStep(
                        summary_name=step.summary.name.lower(),
                        subsumee_index=step.subsumee_index,
                        chain=tuple(step.match.chain),
                        column_map=tuple(sorted(step.match.column_map.items())),
                        pattern=step.match.pattern,
                    )
                    for step in result.applied
                )
            self._rewrite_cache.store(
                key, CacheEntry(epoch, admissible, steps)
            )
            stats.cache_stores += 1
        return result

    def _trace_cache_hit(self, t, admissible: frozenset[str], steps) -> None:
        """Record per-summary ``cache-hit`` verdicts so warm queries never
        show an empty match table (the navigator did not run, but the
        cached decision still names each admissible summary's outcome)."""
        replayed = {step.summary_name: step for step in steps} if steps else {}
        for key in sorted(admissible):
            summary = self.summary_tables.get(key)
            name = summary.name if summary is not None else key
            step = replayed.get(key)
            if step is not None:
                t.verdict(
                    name, "cache-hit",
                    "decision cache replayed the prior match",
                    applied=True, pattern=step.pattern,
                )
            elif steps is None:
                t.verdict(
                    name, "cache-hit",
                    "cached decision: no rewrite applies to this query shape",
                )
            else:
                t.verdict(
                    name, "cache-hit",
                    "cached decision chose another summary",
                )

    def _replay_rewrite(
        self, graph: QueryGraph, entry: CacheEntry, admissible: frozenset[str]
    ):
        """Re-apply a cached positive decision to a freshly bound graph.

        The fingerprint match guarantees ``graph`` enumerates its boxes
        exactly as the cold-path graph did, so each step's recorded box
        index addresses the same (structurally identical) subsumee; the
        cached compensation chains are templates that ``apply_match``
        clones, never mutates. Any inconsistency falls back to the cold
        path by returning None.
        """
        from repro.matching.framework import MatchResult
        from repro.rewrite.rewriter import (
            AppliedRewrite,
            RewriteResult,
            apply_match,
        )

        applied = []
        try:
            for step in entry.steps:
                summary = self.summary_tables.get(step.summary_name)
                if (
                    summary is None
                    or not summary.enabled
                    or step.summary_name not in admissible
                ):
                    return None
                boxes = graph.boxes()
                if not 0 <= step.subsumee_index < len(boxes):
                    return None
                match = MatchResult(
                    subsumee=boxes[step.subsumee_index],
                    subsumer=summary.graph.root,
                    chain=list(step.chain),
                    column_map=dict(step.column_map),
                    pattern=step.pattern,
                )
                apply_match(graph, match, summary)
                applied.append(AppliedRewrite(summary, match, step.subsumee_index))
            graph.validate()
        except ReproError:
            return None
        return RewriteResult(graph, applied)

    # ------------------------------------------------------------------
    # Observability: match tracing and the slow-query log
    # ------------------------------------------------------------------
    def set_tracing(self, enabled: bool) -> None:
        """Toggle per-query match tracing (the CLI's ``\\trace on|off``).

        While enabled, every executed SELECT records a
        :class:`repro.obs.trace.MatchTrace` into a bounded ring buffer
        (:attr:`trace_buffer`); when disabled (the default) the tracing
        hooks are a single ``is not None`` test — no allocation."""
        self._tracing = bool(enabled)

    @property
    def tracing(self) -> bool:
        return self._tracing

    @property
    def trace_buffer(self) -> TraceBuffer:
        """The ring buffer of recently finished traces (newest last)."""
        return self._trace_buffer

    @property
    def last_trace(self):
        """The most recent finished trace, or None."""
        return self._trace_buffer.last

    def set_slow_query_threshold(self, threshold_ms: float | None) -> None:
        """``SET SLOW QUERY <ms>`` / ``OFF`` as a library call."""
        self.slow_query_ms = threshold_ms

    # ------------------------------------------------------------------
    # Fast-path introspection and control
    # ------------------------------------------------------------------
    def rewrite_stats(self) -> dict[str, int]:
        """Cumulative matching fast-path counters (see
        :class:`repro.rewrite.cache.RewriteStats`) merged with the
        deferred-refresh subsystem's counters: ``pending_deltas`` (a
        gauge — staged delta batches summed over deferred summaries),
        ``refreshes_applied``, ``fallback_recomputes``."""
        stats = self._rewrite_stats.as_dict()
        stats["pending_deltas"] = sum(
            summary.refresh.pending_deltas
            for summary in self.summary_tables.values()
        )
        stats["refreshes_applied"] = self._scheduler.refreshes_applied
        stats["fallback_recomputes"] = self._scheduler.fallback_recomputes
        stats["refresh_retries"] = self._scheduler.retries_scheduled
        stats["refresh_quarantines"] = self._scheduler.quarantines
        stats["quarantined_summaries"] = sum(
            1
            for summary in self.summary_tables.values()
            if summary.refresh.quarantined
        )
        return stats

    def reset_rewrite_stats(self) -> None:
        self._rewrite_stats.reset()
        self._scheduler.refreshes_applied = 0
        self._scheduler.fallback_recomputes = 0
        self._scheduler.batches_applied = 0

    def configure_fast_path(
        self, index: bool | None = None, cache: bool | None = None
    ) -> None:
        """Enable/disable fast-path layers (for benchmarks and ablation).

        ``index`` toggles AST signature pruning (falling back to the bare
        base-table-overlap check); ``cache`` toggles the rewrite decision
        cache (the cache is cleared when disabled).
        """
        if index is not None:
            self._fast_path_index = index
        if cache is not None:
            self._fast_path_cache = cache
            if not cache:
                self._rewrite_cache.clear()

    # ------------------------------------------------------------------
    # Summary tables
    # ------------------------------------------------------------------
    def create_summary_table(
        self,
        name: str,
        sql: str,
        use_summary_tables: bool = False,
        refresh_mode: str = "immediate",
    ) -> "SummaryTable":
        """Define and materialize an AST from its defining query.

        With ``use_summary_tables=True`` the materialization itself is
        rewritten over existing (fresh) summary tables — building a
        coarse rollup from a fine one instead of from the fact table.
        ``refresh_mode`` is ``"immediate"`` (maintained synchronously
        with every base-table change) or ``"deferred"`` (changes are
        staged in the delta log and applied by the refresh scheduler).
        """
        from repro.asts.definition import SummaryTable
        from repro.refresh.policy import RefreshState

        with self._catalog_lock:
            if self.catalog.has_table(name):
                raise CatalogError(f"name {name!r} is already a table")
            graph = self.bind(sql, label="A")
            execution_graph = graph
            if use_summary_tables and self.summary_tables:
                # Rewrite the bound graph in place; only when a rewrite
                # actually applied does the pristine definition graph need
                # to be re-bound (the common no-match path binds exactly
                # once). Sandboxed like query execution: a rewrite failure
                # falls back to materializing from the base tables.
                try:
                    rewritten = self.rewrite_graph(graph)
                except Exception as error:
                    self._rewrite_stats.rewrite_errors += 1
                    self.last_rewrite_error = f"{type(error).__name__}: {error}"
                    rewritten = None
                    graph = self.bind(sql, label="A")
                    execution_graph = graph
                if rewritten is not None:
                    execution_graph = rewritten
                    graph = self.bind(sql, label="A")
            data = self.execute_graph(execution_graph)
            schema = _schema_from_result(name, graph, data)
            summary = SummaryTable(
                name=name,
                sql=sql,
                graph=graph,
                schema=schema,
                table=Table(data.columns, data.rows),
                refresh=RefreshState(
                    mode=refresh_mode, last_refresh_lsn=self._delta_log.lsn
                ),
            )
            summary.stats["rows"] = float(len(data))
            summary.stats["base_rows"] = float(
                sum(
                    len(self.tables[t])
                    for t in graph.base_tables()
                    if t in self.tables
                )
            )
            self.catalog.add_table(schema)
            self.tables[name.lower()] = summary.table
            self._register_summary(summary)
            return summary

    def _register_summary(self, summary: "SummaryTable") -> None:
        """Register a materialized summary for matching: store it, index
        its signature, and invalidate cached rewrite decisions. Used by
        :meth:`create_summary_table` and by persistence reload."""
        self.summary_tables[summary.name.lower()] = summary
        self._summary_index.register(summary)
        self._bump_rewrite_epoch()

    def drop_summary_table(self, name: str) -> None:
        # The epoch bump happens strictly AFTER the structures change
        # (and the decision path captures its epoch strictly BEFORE
        # matching), so a concurrent query either sees the old epoch —
        # and its cached decision is invalidated on the next lookup — or
        # the new one with the summary already gone. Its executor runs
        # against the pinned table objects either way (execute_graph's
        # snapshot + overlay).
        with self._catalog_lock:
            key = name.lower()
            if key not in self.summary_tables:
                raise CatalogError(f"no summary table named {name!r}")
            del self.summary_tables[key]
            del self.tables[key]
            self.catalog.drop_table(name)
            self._summary_index.unregister(name)
            self._prune_delta_log()
            self._bump_rewrite_epoch()

    def refresh_summary_tables(self, names: Iterable[str] | None = None) -> None:
        """Recompute summary tables from the base data.

        ``names`` restricts the refresh to the given summary tables (so
        one stale AST can be refreshed without recomputing them all);
        ``None`` keeps the historical refresh-everything behavior.
        Refreshed deferred summaries become fully fresh: their staleness
        record is cleared and consumed delta-log batches are pruned.
        """
        # Preempt a background refresh of the same summaries: a manual
        # REFRESH must never block behind a stuck worker pass — the
        # worker yields at its next cooperative tick, flags the summary
        # for recompute, and this full recompute then satisfies it.
        if names is not None:
            names = list(names)
        self._scheduler.interrupt(names)
        with self._catalog_lock, self._maintenance_lock:
            if names is None:
                targets = list(self.summary_tables.values())
            else:
                targets = []
                for name in names:
                    key = name.lower()
                    if key not in self.summary_tables:
                        raise CatalogError(f"no summary table named {name!r}")
                    targets.append(self.summary_tables[key])
            for summary in targets:
                data = self.execute_graph(summary.graph)
                summary.table.rows[:] = data.rows
                summary.stats["rows"] = float(len(data))
                summary.refresh.pending_deltas = 0
                summary.refresh.last_refresh_lsn = self._delta_log.lsn
                # A successful full refresh re-admits a quarantined
                # summary: its contents are trustworthy again, and its
                # failure history restarts from zero.
                if summary.refresh.quarantined:
                    summary.refresh.release_quarantine()
                    _events.emit("summary.readmit", summary=summary.name)
                self._scheduler.reset_attempts(summary.name)
            self._prune_delta_log()
            self._bump_rewrite_epoch()

    def set_summary_table_enabled(self, name: str, enabled: bool = True) -> None:
        """Toggle a summary table's availability for matching.

        (Assigning ``summary.enabled`` directly also works — the decision
        cache validates the enabled set per query — but this entry point
        additionally bumps the epoch, keeping the invalidation explicit.)
        """
        with self._catalog_lock:
            key = name.lower()
            if key not in self.summary_tables:
                raise CatalogError(f"no summary table named {name!r}")
            self.summary_tables[key].enabled = enabled
            self._bump_rewrite_epoch()

    def quarantine_summary(self, name: str, reason: str) -> None:
        """Exclude a summary table from rewrite routing entirely.

        Called by the refresh scheduler after its retry budget is
        exhausted and by :func:`repro.engine.persist.verify_database`
        when a snapshot cannot be rebuilt. The epoch bump (plus the
        admissible-set check) invalidates any cached decision that used
        the summary; a successful :meth:`refresh_summary_tables` on the
        name re-admits it. Unknown names are ignored — the summary may
        have been dropped while its failure was in flight.
        """
        with self._maintenance_lock:
            summary = self.summary_tables.get(name.lower())
            if summary is None:
                return
            summary.refresh.quarantine(reason)
            _events.emit("summary.quarantine", summary=summary.name,
                         reason=reason)
            # Batches staged only for this summary are now dead weight —
            # re-admission recomputes from base tables.
            self._prune_delta_log()
            self._bump_rewrite_epoch()

    def quarantined_summary_tables(self) -> list["SummaryTable"]:
        return [
            s for s in self.summary_tables.values() if s.refresh.quarantined
        ]

    def _bump_rewrite_epoch(self) -> None:
        self._rewrite_epoch += 1

    @property
    def rewrite_epoch(self) -> int:
        """Monotonic counter bumped by every catalog mutation; anything
        derived from binding against the catalog (rewrite decisions,
        fingerprints) is valid only while this value is unchanged."""
        return self._rewrite_epoch

    def enabled_summary_tables(self) -> list["SummaryTable"]:
        return [s for s in self.summary_tables.values() if s.enabled]

    def deferred_summary_tables(self) -> list["SummaryTable"]:
        return [
            s for s in self.summary_tables.values() if s.refresh.is_deferred
        ]

    # ------------------------------------------------------------------
    # Ingest with deferred maintenance
    # ------------------------------------------------------------------
    def insert_rows(self, table_name: str, rows: Iterable[Row]):
        """Insert rows, maintaining REFRESH IMMEDIATE summaries inline
        and staging the change for REFRESH DEFERRED ones.

        The base table is always updated synchronously — only summary
        maintenance is deferred, which is what decouples ingest latency
        from the number of registered summaries. Returns the
        :class:`repro.asts.maintenance.MaintenanceReport`.
        """
        return self._ingest(table_name, rows, sign=+1)

    def delete_rows(self, table_name: str, rows: Iterable[Row]):
        """Exact-row delete with the same immediate/deferred split as
        :meth:`insert_rows`."""
        return self._ingest(table_name, rows, sign=-1)

    def _ingest(self, table_name: str, rows: Iterable[Row], sign: int):
        from repro.asts.maintenance import maintain_delete, maintain_insert

        rows = [tuple(row) for row in rows]
        maintain = maintain_insert if sign > 0 else maintain_delete
        with self._maintenance_lock:
            immediate = [
                s
                for s in self.summary_tables.values()
                if not s.refresh.is_deferred
            ]
            report = maintain(self, table_name, rows, summaries=immediate)
            stale = self._stage_deferred(table_name, rows, sign, report)
        # Notify outside the maintenance lock: the worker needs the lock
        # to drain a full queue, so notifying under it could deadlock.
        if stale:
            self._scheduler.notify(stale)
        return report

    def _stage_deferred(
        self, table_name: str, rows: list[Row], sign: int, report
    ) -> list[str]:
        """Log the change for affected deferred summaries; returns their
        names (the scheduler's refresh work list).

        Quarantined summaries are skipped: re-admission always goes
        through a full recompute, so staging deltas for them would only
        pin the log. If the delta log itself fails to accept the change,
        ingest degrades to recomputing the affected summaries inline —
        slower, but never silently wrong.
        """
        if not rows:
            return []
        key = self.catalog.table(table_name).name.lower()
        affected = []
        for summary in self.deferred_summary_tables():
            if summary.refresh.quarantined:
                report.unaffected.append(summary.name)
            elif key in summary.base_tables():
                affected.append(summary)
                report.deferred.append(summary.name)
            else:
                report.unaffected.append(summary.name)
        if not affected:
            # No batch to stage, but the change must still advance the
            # table's high-water LSN: the staleness gate and the query
            # server's result cache key their freshness checks on it.
            self._delta_log.note_write(key)
            return []
        try:
            self._delta_log.append(key, rows, sign)
        except Exception as error:
            report.deferred.clear()
            for summary in affected:
                data = self.execute_graph(summary.graph)
                summary.table.rows[:] = data.rows
                summary.stats["rows"] = float(len(data))
                summary.refresh.pending_deltas = 0
                summary.refresh.last_refresh_lsn = self._delta_log.lsn
                report.recomputed[summary.name] = "delta log append failed"
            self._scheduler.errors.append(
                f"delta log append failed ({error}); "
                f"recomputed {', '.join(s.name for s in affected)} inline"
            )
            self._bump_rewrite_epoch()
            return []
        for summary in affected:
            summary.refresh.pending_deltas += 1
        # No epoch bump: cached decisions made under a tolerance that the
        # new staleness violates are invalidated by the admissible-set
        # check; decisions under looser tolerances stay valid.
        return [summary.name for summary in affected]

    # ------------------------------------------------------------------
    # Deferred-refresh introspection and control
    # ------------------------------------------------------------------
    @property
    def delta_log(self):
        """The staged-change log (see :class:`repro.refresh.log.DeltaLog`)."""
        return self._delta_log

    @property
    def refresh_scheduler(self):
        """The background refresh worker
        (:class:`repro.refresh.scheduler.RefreshScheduler`)."""
        return self._scheduler

    def set_refresh_age(self, max_pending: int | None) -> None:
        """Session-level ``SET REFRESH AGE`` (None = ANY)."""
        from repro.refresh.policy import RefreshAge

        self.refresh_age = RefreshAge(max_pending)

    def drain_refresh(self) -> None:
        """Apply every staged delta and block until all deferred
        summaries are fully fresh (deterministic test/benchmark hook)."""
        stale = [
            summary.name
            for summary in self.deferred_summary_tables()
            if summary.refresh.is_stale
        ]
        if stale:
            self._scheduler.notify(stale)
        self._scheduler.drain()

    def close(self, force: bool = False) -> None:
        """Stop the background refresh worker and the executor pool.

        By default queued work is finished first; ``force=True`` cancels
        the in-flight refresh cooperatively (its summary is flagged for
        a full recompute on the next refresh) so ``close`` never blocks
        behind a stuck query.
        """
        self._scheduler.stop(cancel_inflight=force)
        pool = self._executor_pool
        self._executor_pool = None
        self._executor_parallel = None
        if pool is not None:
            pool.shutdown(wait=True)

    def refresh_status(self) -> list[dict]:
        """Per-summary refresh mode and staleness, for the CLI and tests."""
        status = []
        for summary in self.summary_tables.values():
            state = summary.refresh
            entry = {
                "name": summary.name,
                "mode": state.mode,
                "pending_deltas": state.pending_deltas,
                "last_refresh_lsn": state.last_refresh_lsn,
            }
            if state.quarantined:
                entry["quarantined"] = True
                entry["quarantine_reason"] = state.quarantine_reason
            reason = self._scheduler.last_fallbacks.get(summary.name)
            if reason:
                entry["last_fallback"] = reason
            status.append(entry)
        return status

    def _prune_delta_log(self) -> None:
        """Drop delta batches every deferred summary has consumed.

        Quarantined summaries don't pin the log: their re-admission path
        is a full recompute, which needs no staged batches.
        """
        deferred = [
            s
            for s in self.deferred_summary_tables()
            if not s.refresh.quarantined
        ]
        if not deferred:
            self._delta_log.prune(self._delta_log.lsn)
            return
        self._delta_log.prune(
            min(s.refresh.last_refresh_lsn for s in deferred)
        )


def _describe_fast_path(delta: dict[str, int]) -> str:
    """One-line rendering of per-statement fast-path counter deltas."""
    considered = delta["candidates_considered"]
    pruned = delta["candidates_pruned"]
    parts = [f"candidates: {considered} considered, {pruned} pruned by index"]
    if delta["cache_hits"]:
        parts.append("decision cache: hit (rewrite replayed)")
    elif delta["cache_negative_hits"]:
        parts.append("decision cache: hit (no-rewrite)")
    elif delta["cache_misses"]:
        parts.append("decision cache: miss")
    else:
        parts.append("decision cache: off")
    parts.append(f"matches attempted: {delta['matches_attempted']}")
    if delta.get("candidates_dominated"):
        parts.append(
            f"dominated (not navigated): {delta['candidates_dominated']}"
        )
    if delta.get("stale_rejections"):
        parts.append(
            f"stale summaries rejected: {delta['stale_rejections']} "
            "(raise REFRESH AGE or drain the refresh queue)"
        )
    if delta.get("quarantined_rejections"):
        parts.append(
            f"quarantined summaries excluded: {delta['quarantined_rejections']} "
            "(REFRESH SUMMARY TABLE re-admits)"
        )
    if delta.get("rewrite_errors"):
        parts.append(
            f"rewrite errors sandboxed: {delta['rewrite_errors']} "
            "(query fell back to base tables)"
        )
    return "; ".join(parts)


def _summary_overlay(result) -> dict[str, "Table"] | None:
    """``{summary name: table}`` for the summaries a rewrite applied —
    the executor's shield against a concurrent ``DROP SUMMARY TABLE``."""
    if not result.applied:
        return None
    return {
        step.summary.name.lower(): step.summary.table
        for step in result.applied
    }


def _maintenance_status(prefix: str, report) -> str:
    notes = []
    if report.incremental:
        notes.append(f"incremental: {', '.join(report.incremental)}")
    if report.recomputed:
        notes.append(f"recomputed: {', '.join(report.recomputed)}")
    if report.deferred:
        notes.append(f"deferred: {', '.join(report.deferred)}")
    if not notes:
        return prefix
    return f"{prefix} ({'; '.join(notes)})"


def _schema_from_result(name: str, graph: QueryGraph, data: Table) -> TableSchema:
    """Derive a TableSchema for a materialized AST from its root box."""
    columns = []
    for qcl in graph.root.outputs:
        dtype = _infer_column_type(data, qcl.name)
        columns.append(Column(qcl.name, dtype, nullable=qcl.nullable))
    return TableSchema(name, columns)


def _infer_column_type(data: Table, column: str) -> DataType:
    for value in data.column_values(column):
        if value is None:
            continue
        inferred = infer_literal_type(value)
        if inferred is not None:
            return inferred
    # Column is empty or all-NULL; the concrete type does not matter.
    return DataType.FLOAT


try:  # circular-import-free type hints for tooling
    from repro.asts.definition import SummaryTable  # noqa: E402
except ImportError:  # pragma: no cover
    pass

"""Query rewriting: apply a match to reroute a query over an AST.

Given a match between a query box E and an AST's root box, the rewrite
splices the match's compensation chain onto a scan of the materialized
summary table and re-points E's consumers at the chain top. Rewriting is
iterative (Section 7): after a successful rewrite the result is matched
against the remaining ASTs, so one query can combine several summary
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asts.definition import SummaryTable
from repro.expr.nodes import ColumnRef
from repro.matching.framework import MAIN, MatchResult, rebase_chain
from repro.matching.navigator import match_graphs, root_matches
from repro.obs import trace as _trace
from repro.qgm.boxes import BaseTableBox, QCL, QGMBox, QueryGraph, SelectBox, box_heights
from repro.rewrite.index import prune_candidates
from repro.testing import faults


@dataclass
class AppliedRewrite:
    """One accepted match, for explain output and decision-cache replay.

    ``subsumee_index`` is the matched box's position in ``graph.boxes()``
    immediately before this match was applied — enough, together with the
    match's compensation chain, to replay the application on a freshly
    bound structurally identical graph.
    """

    summary: SummaryTable
    match: MatchResult
    subsumee_index: int = -1

    def describe(self) -> str:
        return f"{self.summary.name}: {self.match.describe()}"


@dataclass
class RewriteResult:
    """The outcome of :func:`rewrite_query`."""

    graph: QueryGraph
    applied: list[AppliedRewrite] = field(default_factory=list)

    @property
    def summary_tables(self) -> list[SummaryTable]:
        return [entry.summary for entry in self.applied]

    @property
    def sql(self) -> str:
        """The rewritten query rendered back to SQL."""
        from repro.qgm.unparse import to_sql

        return to_sql(self.graph)

    def explain(self) -> str:
        lines = [entry.describe() for entry in self.applied]
        return "\n".join(lines) if lines else "(no rewrite applied)"


def rewrite_query(
    graph: QueryGraph,
    summaries: list[SummaryTable],
    accept=None,
    options: dict | None = None,
    stats=None,
    prune: bool = True,
) -> RewriteResult | None:
    """Reroute ``graph`` over the given summary tables.

    ``accept`` is an optional callback ``(summary, match) -> bool`` — the
    related problem (b) hook; :mod:`repro.rewrite.planner` provides a
    cost-based implementation. ``options`` are matcher knobs (see
    :data:`repro.matching.framework.DEFAULT_OPTIONS`). ``stats`` is an
    optional :class:`repro.rewrite.cache.RewriteStats` counter sink.
    ``prune`` routes candidates through the AST signature index
    (:func:`repro.rewrite.index.prune_candidates`) before any navigation;
    disabling it (the pre-index behaviour, kept for the ablation
    benchmarks) falls back to the bare base-table-overlap check. Returns
    None when nothing matched.
    """
    applied: list[AppliedRewrite] = []
    remaining = list(summaries)
    while remaining:
        # Cheap signature pruning first — re-run per iteration because an
        # applied rewrite changes the graph's base tables.
        if prune:
            pool = prune_candidates(graph, remaining, stats=stats)
        else:
            query_tables = graph.base_tables()
            pool = [s for s in remaining if s.base_tables() & query_tables]
            if stats is not None:
                stats.candidates_considered += len(remaining)
                stats.candidates_pruned += len(remaining) - len(pool)
        chosen = _choose(graph, pool, accept, options, stats, remaining)
        if chosen is None:
            break
        summary, match = chosen
        subsumee_index = _box_position(graph, match.subsumee)
        apply_match(graph, match, summary)
        applied.append(AppliedRewrite(summary, match, subsumee_index))
        if stats is not None:
            stats.rewrites_applied += 1
        t = _trace.ACTIVE
        if t is not None:
            t.mark_applied(summary.name)
        remaining.remove(summary)
    if not applied:
        return None
    graph.validate()
    return RewriteResult(graph, applied)


def _choose(graph, pool, accept, options, stats, remaining):
    """The accepted ``(summary, match)`` of one §7 iteration, or None.

    The choice rule is the highest query box replaced, then the smallest
    summary table (a lightweight instance of related problem (b)), then
    pool order. The root box is strictly the highest, so visiting the
    pool in ascending ``row_count`` (stable, keeping pool order for ties)
    lets the first accepted match *at the root* end the search: every
    later candidate could at best tie on height and loses on size. Those
    are skipped unnavigated and counted as ``candidates_dominated``.
    Lower-level matches are collected on the way and, when no root match
    is accepted, ranked exactly as an exhaustive search would rank them.
    Candidates ``accept`` rejects are dropped from ``remaining``.
    """
    heights = box_heights(graph)
    ordered = sorted(pool, key=lambda summary: summary.row_count)
    lower = []
    for position, summary in enumerate(ordered):
        if stats is not None:
            stats.matches_attempted += 1
        match = _best_match(graph, summary, options, heights)
        if match is None:
            continue
        if match.subsumee is not graph.root:
            lower.append((-heights[id(match.subsumee)], summary, match))
            continue
        if accept is not None and not accept(summary, match):
            remaining.remove(summary)
            continue
        dominated = ordered[position + 1:]
        if dominated:
            if stats is not None:
                stats.candidates_dominated += len(dominated)
            t = _trace.ACTIVE
            if t is not None:
                for loser in dominated:
                    t.verdict(
                        loser.name, "dominated",
                        f"{summary.name} matches the query root with "
                        f"{summary.row_count} rows (this one has "
                        f"{loser.row_count})",
                    )
        return summary, match
    # ``lower`` is already in (row_count, pool) order; a stable sort on
    # height alone completes the (-height, row_count, pool) ranking.
    lower.sort(key=lambda item: item[0])
    for _, summary, match in lower:
        if accept is None or accept(summary, match):
            return summary, match
        remaining.remove(summary)
    return None


def _box_position(graph: QueryGraph, target: QGMBox) -> int:
    for position, box in enumerate(graph.boxes()):
        if box is target:
            return position
    return -1


def _best_match(
    graph: QueryGraph, summary: SummaryTable, options: dict | None,
    heights: dict[int, int],
) -> MatchResult | None:
    faults.fire("rewrite.match")
    t = _trace.ACTIVE
    if t is None:
        ctx = match_graphs(graph, summary.graph, options=options)
        candidates = root_matches(graph, summary.graph, ctx, heights)
        return candidates[0] if candidates else None
    t.begin_summary(summary.name, summary.graph.root)
    match = None
    try:
        ctx = match_graphs(graph, summary.graph, options=options)
        candidates = root_matches(graph, summary.graph, ctx, heights)
        match = candidates[0] if candidates else None
    finally:
        t.end_summary(match)
    return match


def apply_match(
    graph: QueryGraph, match: MatchResult, summary: SummaryTable
) -> QGMBox:
    """Destructively replace ``match.subsumee`` in ``graph`` with the
    compensation applied to a scan of the summary table. Returns the new
    box standing in for the subsumee."""
    t = _trace.ACTIVE
    started = t.clock() if t is not None else 0.0
    scan = BaseTableBox(f"Scan[{summary.name}]", summary.schema)
    counter = [0]

    def fresh(box: QGMBox) -> str:
        counter[0] += 1
        return f"{box.name}@{counter[0]}"

    if match.exact:
        # Footnote 5: exact up to extra subsumer columns / names; a thin
        # projection restores the subsumee's exact output signature.
        replacement: QGMBox = _projection(match, scan)
    else:
        rebased = rebase_chain(match.chain, scan, fresh)
        replacement = rebased[-1]

    parents = graph.parents_of(match.subsumee)
    for _, quantifier in parents:
        quantifier.box = replacement
    if graph.root is match.subsumee:
        graph.root = replacement
    if t is not None:
        t.add_phase("compensate", started)
    return replacement


def _projection(match: MatchResult, scan: BaseTableBox) -> SelectBox:
    projection = SelectBox(f"Project[{match.subsumee.name}]")
    projection.add_quantifier(MAIN, scan)
    for qcl in match.subsumee.outputs:
        projection.add_output(
            QCL(
                qcl.name,
                ColumnRef(MAIN, match.column_map[qcl.name]),
                qcl.nullable,
            )
        )
    return projection

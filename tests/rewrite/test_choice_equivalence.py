"""The ordered §7 candidate search chooses exactly what an exhaustive
search chooses.

:func:`repro.rewrite.rewriter.rewrite_query` visits the pruned pool in
ascending ``row_count`` and stops at the first accepted match at the
query root. The reference below is the exhaustive loop it replaced: it
navigates every surviving candidate and ranks the matches by
``(-height, row_count)`` in pool order. Both must apply the same
summaries, render the same SQL, and put the same questions to an
``accept`` hook in the same order.
"""

from __future__ import annotations

import contextlib

import pytest

from benchmarks.bench_many_asts import DECOY_TEMPLATES
from benchmarks.bench_many_asts import build_database as build_decoy_database
from repro.bench import figures
from repro.matching.navigator import match_graphs, root_matches
from repro.qgm.boxes import box_heights
from repro.qgm.unparse import to_sql
from repro.rewrite.cache import RewriteStats
from repro.rewrite.index import prune_candidates
from repro.rewrite.planner import CostPlanner
from repro.rewrite.rewriter import apply_match, rewrite_query
from repro.workloads import tpcd, webmetrics

#: small summaries that match only below the root of NESTED_QUERIES
LOWER_ASTS = [
    ("YearCnt", "select year(date) as year, count(*) as cnt from Trans "
                "group by year(date)"),
    ("CountryCnt", "select country, count(*) as cnt from Loc group by country"),
]

#: no summary matches these at the root; AST8 matches a taller subtree
#: than the (smaller) LOWER_ASTS do
NESTED_QUERIES = [
    "select a.tcnt, a.ycnt, l.m from "
    "(select tcnt, count(*) as ycnt from (select year(date) as year, "
    "count(*) as tcnt from Trans where year(date) >= 1990 "
    "group by year(date)) group by tcnt) as a, "
    "(select country, count(*) as m from Loc group by country) as l",
]

#: the accept-hook thresholds: everything, a selective cut, nothing
MIN_SPEEDUPS = (1.0, 20.0, 1e12)


def exhaustive_rewrite(graph, summaries, accept=None):
    """Navigate every candidate, rank by (-height, row_count), apply."""
    applied = []
    remaining = list(summaries)
    while remaining:
        pool = prune_candidates(graph, remaining)
        heights = box_heights(graph)
        candidates = []
        for summary in pool:
            ctx = match_graphs(graph, summary.graph)
            found = root_matches(graph, summary.graph, ctx)
            if found:
                match = found[0]
                candidates.append(
                    (-heights[id(match.subsumee)], summary.row_count,
                     summary, match)
                )
        candidates.sort(key=lambda item: (item[0], item[1]))
        chosen = None
        for _, _, summary, match in candidates:
            if accept is None or accept(summary, match):
                chosen = (summary, match)
                break
            remaining.remove(summary)
        if chosen is None:
            break
        summary, match = chosen
        apply_match(graph, match, summary)
        applied.append(summary.name)
        remaining.remove(summary)
    return applied, (to_sql(graph) if applied else None)


def ordered_rewrite(graph, summaries, accept=None, stats=None):
    result = rewrite_query(graph, summaries, accept=accept, stats=stats)
    if result is None:
        return [], None
    return [entry.summary.name for entry in result.applied], result.sql


def assert_same_choices(db, queries):
    """Compare both searches on every query, with and without a cost
    hook; returns the ordered search's counters."""
    summaries = db.enabled_summary_tables()
    stats = RewriteStats()
    for sql in queries:
        expected = exhaustive_rewrite(db.bind(sql), summaries)
        got = ordered_rewrite(db.bind(sql), summaries, stats=stats)
        assert got == expected, sql
        for min_speedup in MIN_SPEEDUPS:
            reference = CostPlanner(db, min_speedup=min_speedup)
            planner = CostPlanner(db, min_speedup=min_speedup)
            expected = exhaustive_rewrite(
                db.bind(sql), summaries, accept=reference.accept)
            got = ordered_rewrite(
                db.bind(sql), summaries, accept=planner.accept, stats=stats)
            assert got == expected, (min_speedup, sql)
            assert planner.decisions == reference.decisions, (min_speedup, sql)
    return stats


@contextlib.contextmanager
def extra_summaries(db, definitions):
    for name, sql in definitions:
        db.create_summary_table(name, sql)
    try:
        yield
    finally:
        for name, _ in definitions:
            db.drop_summary_table(name)


class TestChoiceEquivalence:
    def test_paper_figure_queries_against_all_eight_asts(self, paper_db):
        stats = assert_same_choices(paper_db, figures.PAPER_QUERIES)
        # the early exit really ran: some candidates were never navigated
        assert stats.candidates_dominated > 0

    def test_equal_row_counts_keep_pool_order(self, paper_db):
        """Copies of an AST tie on row_count; the one registered first
        must win in both searches."""
        copies = [(f"{name}_COPY", sql)
                  for name, sql in (("AST7", figures.AST7), ("AST1", figures.AST1))]
        with extra_summaries(paper_db, copies):
            assert_same_choices(paper_db, figures.PAPER_QUERIES)

    def test_smaller_summaries_below_the_root_lose(self, paper_db):
        """A summary smaller than the root match but matching a lower box
        (Q8's inner grouping) must not be chosen first; without a root
        match, the taller lower-level match goes first."""
        with extra_summaries(paper_db, LOWER_ASTS):
            assert_same_choices(paper_db, figures.PAPER_QUERIES + NESTED_QUERIES)
            applied, _ = ordered_rewrite(
                paper_db.bind(NESTED_QUERIES[0]),
                paper_db.enabled_summary_tables())
            assert applied == ["AST8", "CountryCnt"]

    def test_tpcd_suite(self):
        db = tpcd.build_tpcd_db(orders=200)
        tpcd.install_asts(db)
        assert_same_choices(db, list(tpcd.QUERIES.values()))

    def test_webmetrics_suite(self):
        db = webmetrics.build_web_db(views=2000)
        webmetrics.install_web_asts(db)
        assert_same_choices(db, list(webmetrics.QUERIES.values()))

    @pytest.mark.parametrize("ast_count", [1, 8, 2 * len(DECOY_TEMPLATES) + 1])
    def test_many_ast_decoy_sets(self, ast_count):
        db = build_decoy_database(ast_count)
        assert_same_choices(db, [figures.Q1, figures.Q7, figures.Q11_1])

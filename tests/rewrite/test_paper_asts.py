"""All eight paper ASTs installed at once: Q10's second §7 iteration,
and the verdict every AST gets when the ordered search stops early."""

from __future__ import annotations

import io
import random

from repro.bench import figures
from repro.cli import Shell
from repro.engine.table import tables_equal
from repro.obs import REASONS
from repro.workloads.datagen import COUNTRIES


def q10_variant(rng: random.Random) -> str:
    return (
        "select flid, count(*) / (select count(*) from Trans) as cntpct "
        "from Trans, Loc where flid = lid and country = "
        f"'{rng.choice(COUNTRIES)}' group by flid "
        f"having count(*) > {rng.randint(0, 30)}"
    )


def cold_cache(db):
    """Drop cached rewrite decisions so the next query navigates."""
    db.configure_fast_path(cache=False)
    db.configure_fast_path(cache=True)


class TestQ10RejoinCollision:
    """After AST7 replaces Q10's grouping, the compensation box that
    remains ranges over the summary scan under the reserved quantifier
    name ``_in``. Matching it again used to raise ``duplicate quantifier
    '_in'``, which threw away the rewrites already applied."""

    def test_q10_and_seeded_variants_rewrite_without_errors(self, paper_db):
        rng = random.Random(10)
        queries = [figures.Q10] + [q10_variant(rng) for _ in range(6)]
        paper_db.reset_rewrite_stats()
        for sql in queries:
            result = paper_db.rewrite(sql)
            assert result is not None, sql
            assert len(result.applied) >= 2, result.explain()
            rewritten = paper_db.execute(sql)
            base = paper_db.execute(sql, use_summary_tables=False)
            assert tables_equal(rewritten, base), sql
        assert paper_db.rewrite_stats()["rewrite_errors"] == 0
        assert paper_db.last_rewrite_error is None

    def test_collision_is_a_traced_reject(self, paper_db):
        cold_cache(paper_db)
        paper_db.explain_analyze(figures.Q10)
        trace = paper_db.last_trace
        details = [
            reject.detail or ""
            for attempt in trace.summaries
            for pair in attempt.pairs
            for reject in pair.rejects
        ]
        assert any("collides with the compensation" in d for d in details)


class TestDominatedVerdicts:
    """Every installed AST keeps a verdict when the search stops at the
    first (smallest) root match; the skipped ones name the winner."""

    def test_explain_analyze_names_the_winner(self, paper_db):
        cold_cache(paper_db)
        out = paper_db.explain_analyze(figures.Q7)
        rows = paper_db.last_trace.verdict_rows()
        assert {name for name, _, _ in rows} == {
            name for name, _ in figures.PAPER_ASTS}
        for _, verdict, _ in rows:
            assert (verdict.startswith("rewritten via")
                    or verdict.startswith("matched")
                    or verdict in REASONS), verdict
        winners = [name for name, verdict, _ in rows
                   if verdict.startswith("rewritten via")]
        assert winners == ["AST7"]
        dominated = [(name, detail) for name, verdict, detail in rows
                     if verdict == "dominated"]
        assert dominated, out
        for name, detail in dominated:
            assert detail.startswith("AST7 matches the query root"), detail
            summary = paper_db.summary_tables[name.lower()]
            assert summary.row_count >= paper_db.summary_tables["ast7"].row_count
        assert "dominated (not navigated)" in out

    def test_shell_trace_lists_dominated(self, paper_db):
        cold_cache(paper_db)
        out = io.StringIO()
        shell = Shell(paper_db, out=out)
        script = f"\\trace on\n{' '.join(figures.Q7.split())};\n\\trace last\n\\trace off\n"
        shell.run(io.StringIO(script), interactive=False)
        text = out.getvalue()
        for name, _ in figures.PAPER_ASTS:
            assert f"[{name}]" in text, text
        assert "] dominated" in text
        assert "detail: AST7 matches the query root" in text

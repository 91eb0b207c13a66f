"""The navigator (Section 3).

Scans the query and AST graphs bottom-up, invoking the match function on
candidate (subsumee, subsumer) pairs. Both graphs are small (a handful of
boxes), so rather than maintaining the paper's explicit worklist of
candidate pairs we simply enumerate all pairs in topological
(children-first) order, which gives the same guarantee the paper needs:
when a pair is attempted, every pair of their children has already been
attempted and recorded in the context.
"""

from __future__ import annotations

from repro.matching.framework import MatchContext, MatchResult
from repro.governor import scope as governor_scope
from repro.matching.matchfn import match_boxes
from repro.obs import trace as _trace
from repro.qgm.boxes import QueryGraph, box_heights


def match_graphs(
    query: QueryGraph, ast: QueryGraph, options: dict | None = None
) -> MatchContext:
    """Run the matching algorithm; the returned context holds every match
    found between query boxes (subsumees) and AST boxes (subsumers)."""
    ctx = MatchContext(query.catalog, options=options)
    # Governor scope, read once per navigation: match_boxes ticks the
    # budget per box-pairing through ctx.governor (every pairing is a
    # checkpoint — a single pairing can recurse arbitrarily deep, so
    # this is the cancellation granularity the ISSUE's "never hangs"
    # contract rests on).
    ctx.governor = governor_scope.current()
    ast_boxes = ast.boxes()  # children before parents
    tracer = _trace.ACTIVE
    if tracer is not None:
        for subsumee in query.boxes():
            for subsumer in ast_boxes:
                result = match_boxes(subsumee, subsumer, ctx)
                tracer.pair(subsumee, subsumer, result)
                if result is not None:
                    ctx.record(result)
        return ctx
    for subsumee in query.boxes():
        for subsumer in ast_boxes:
            result = match_boxes(subsumee, subsumer, ctx)
            if result is not None:
                ctx.record(result)
    return ctx


def root_matches(
    query: QueryGraph, ast: QueryGraph, ctx: MatchContext,
    heights: dict[int, int] | None = None,
) -> list[MatchResult]:
    """Matches whose subsumer is the AST's root box — the ones a rewrite
    can use — ordered so the most profitable (highest query box, i.e. the
    one replacing the most work) comes first. ``heights`` is
    ``box_heights(query)`` when the caller already has it."""
    if heights is None:
        heights = box_heights(query)
    found = [
        result
        for (subsumee_id, subsumer_id), result in ctx.results.items()
        if subsumer_id == id(ast.root)
    ]
    found.sort(key=lambda r: heights.get(id(r.subsumee), 0), reverse=True)
    return found

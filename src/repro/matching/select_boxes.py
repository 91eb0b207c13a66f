"""SELECT/SELECT matching — patterns 4.1.1, 4.2.3 and 4.2.4.

One unified routine handles exact and SELECT-only child compensations
(4.1.1 / 4.2.3): subsumee predicates and output expressions are translated
into the subsumer's QNC context (inlining through child compensations) and
then derived from the subsumer's output columns; unmatched subsumee
children become rejoins and unmatched subsumer children must be provably
lossless via catalog RI constraints.

Pattern 4.2.4 (a child compensation that *contains grouping*) is handled
by pulling the grouping chain up — re-deriving its bottom box against the
subsumer's outputs, threading any columns the other (single-row) children
contribute through the chain as extra grouping columns (this is why the
paper's NewQ10 groups by ``totcnt``), and stacking a final SELECT that
applies the subsumee's own predicates against the chain top.
"""

from __future__ import annotations

from repro.expr.equivalence import EquivalenceClasses, canonical, equivalent
from repro.expr.nodes import (
    TRUE,
    BinaryOp,
    ColumnRef,
    Expr,
)
from repro.expr.normalize import normalize
from repro.expr.subsume import subsumes
from repro.matching.derivation import DerivationScope, derive_scalar
from repro.matching.framework import (
    MAIN,
    MatchContext,
    MatchResult,
    SubsumerRef,
    chain_has_grouping,
    chain_predicates,
    chain_rejoin_quantifiers,
    clone_chain_box,
    inline_through_chain,
)
from repro.matching.translation import ChildTranslator, MatchedChildPair
from repro.obs import trace as _trace
from repro.qgm.unparse import render_expr
from repro.qgm.boxes import (
    BaseTableBox,
    GroupByBox,
    QCL,
    Quantifier,
    SelectBox,
    expr_nullable,
)


#: backstop for the pairing backtracking under heavy self-joins
_MAX_PAIRINGS = 16


def match_select_boxes(
    subsumee: SelectBox, subsumer: SelectBox, ctx: MatchContext
) -> MatchResult | None:
    if subsumer.distinct and not subsumee.distinct:
        # the AST dropped duplicates the query needs
        t = _trace.ACTIVE
        if t is not None:
            t.reject(
                "regroupability", "4.1.1",
                "subsumer is DISTINCT but the query keeps duplicates",
            )
        return None
    # Self-joins make the child assignment ambiguous (footnote 3); try
    # alternative injective pairings, greedy-preferred first.
    for pairs, rejoins, extras in _enumerate_pairings(subsumee, subsumer, ctx):
        result = _match_with_pairing(
            subsumee, subsumer, ctx, pairs, rejoins, extras
        )
        if result is not None:
            return result
    return None


def _match_with_pairing(
    subsumee: SelectBox,
    subsumer: SelectBox,
    ctx: MatchContext,
    pairs: list[MatchedChildPair],
    rejoins: list[Quantifier],
    extras: list[Quantifier],
) -> MatchResult | None:
    grouping_pairs = [p for p in pairs if chain_has_grouping(p.match.chain)]
    if len(grouping_pairs) > 1:
        t = _trace.ACTIVE
        if t is not None:
            t.reject(
                "regroupability", "4.2.4",
                f"{len(grouping_pairs)} children need grouping "
                "compensations; only one can be pulled up",
            )
        return None
    if any(q.name == MAIN for q in rejoins):
        # The subsumee is a compensation box left by an earlier §7
        # rewrite: its unmatched summary scan ranges under MAIN, the
        # name the new compensation reserves for the subsumer.
        t = _trace.ACTIVE
        if t is not None:
            t.reject(
                "regroupability", "4.2.3",
                f"rejoin quantifier {MAIN!r} collides with the "
                "compensation's subsumer quantifier",
            )
        return None
    extra_join_preds = _lossless_extras(subsumee, subsumer, pairs, extras, ctx)
    if extra_join_preds is None:
        # condition 1 of 4.1.1 violated
        t = _trace.ACTIVE
        if t is not None:
            t.reject(
                "lossless-extras", "4.2.3",
                "extra subsumer child(ren) "
                + ", ".join(q.name for q in extras)
                + " not provably lossless via RI joins",
            )
        return None

    if grouping_pairs:
        return _match_with_grouping_child(
            subsumee, subsumer, ctx, pairs, rejoins, extra_join_preds,
            grouping_pairs[0],
        )
    return _match_select_only(
        subsumee, subsumer, ctx, pairs, rejoins, extra_join_preds
    )


def _enumerate_pairings(
    subsumee: SelectBox, subsumer: SelectBox, ctx: MatchContext
):
    """Yield up to :data:`_MAX_PAIRINGS` injective child assignments.

    Children with no matching counterpart are rejoins; children with
    candidates must be paired. The first assignment yielded is the greedy
    exact-first one, so non-self-join queries behave exactly as before.
    """
    subsumer_qs = subsumer.quantifiers()
    entries: list[tuple[Quantifier, list[tuple[Quantifier, MatchResult]]]] = []
    rejoins: list[Quantifier] = []
    for eq in subsumee.quantifiers():
        candidates = []
        for rq in subsumer_qs:
            match = ctx.get(eq.box, rq.box)
            if match is not None:
                candidates.append((rq, match))
        if not candidates:
            rejoins.append(eq)
            continue
        candidates.sort(key=lambda item: (not item[1].exact, len(item[1].chain)))
        entries.append((eq, candidates))
    if not entries:
        # common condition 1: some child must match
        t = _trace.ACTIVE
        if t is not None:
            t.reject("child-match", detail="no subsumee child matched any subsumer child")
        return

    yielded = 0

    def assign(index: int, taken: set[str], acc: list[MatchedChildPair]):
        nonlocal yielded
        if yielded >= _MAX_PAIRINGS:
            return
        if index == len(entries):
            pairs = list(acc)
            used = {pair.subsumer_q.name for pair in pairs}
            extras = [rq for rq in subsumer_qs if rq.name not in used]
            yielded += 1
            yield pairs, list(rejoins), extras
            return
        eq, candidates = entries[index]
        for rq, match in candidates:
            if rq.name in taken:
                continue
            acc.append(MatchedChildPair(eq, rq, match))
            taken.add(rq.name)
            yield from assign(index + 1, taken, acc)
            taken.discard(rq.name)
            acc.pop()

    yield from assign(0, set(), [])


# ----------------------------------------------------------------------
# Extra children (condition 1 of 4.1.1)
# ----------------------------------------------------------------------
def _lossless_extras(
    subsumee: SelectBox,
    subsumer: SelectBox,
    pairs: list[MatchedChildPair],
    extras: list[Quantifier],
    ctx: MatchContext,
) -> list[Expr] | None:
    """Prove every extra subsumer child joins losslessly; returns the set
    of extra-join predicates (to exempt from condition 2), or None."""
    if not extras:
        return []
    extra_join_preds: list[Expr] = []
    kept: dict[str, Quantifier] = {p.subsumer_q.name: p.subsumer_q for p in pairs}
    pending = list(extras)
    # Peel extra children one at a time; each must hang off the kept set
    # by an RI-backed join (handles snowflake chains like Acct -> Cust).
    while pending:
        progressed = False
        for extra in list(pending):
            pending_names = {q.name for q in pending if q is not extra}
            result = _check_one_extra(subsumer, extra, kept, pending_names, ctx)
            if result is None:
                continue
            extra_join_preds.extend(result)
            kept[extra.name] = extra
            pending.remove(extra)
            progressed = True
        if not progressed:
            return None
    return extra_join_preds


def _check_one_extra(
    subsumer: SelectBox,
    extra: Quantifier,
    kept: dict[str, Quantifier],
    pending_names: set[str],
    ctx: MatchContext,
) -> list[Expr] | None:
    if not isinstance(extra.box, BaseTableBox):
        return None
    catalog = ctx.catalog
    # Collect this child's predicates: equality joins to a single kept
    # child are candidates for the RI proof; anything else is lossy.
    join_pairs: dict[str, set[tuple[str, str]]] = {}
    join_preds: list[Expr] = []
    for predicate in subsumer.predicates:
        qualifiers = {ref.qualifier for ref in predicate.column_refs()}
        if extra.name not in qualifiers:
            continue
        others = qualifiers - {extra.name}
        if others and others <= pending_names:
            continue  # validated when the other pending extra is peeled
        if not others:
            return None  # a local filter on the extra child is lossy
        if len(others) != 1 or not (
            isinstance(predicate, BinaryOp)
            and predicate.op == "="
            and isinstance(predicate.left, ColumnRef)
            and isinstance(predicate.right, ColumnRef)
        ):
            return None
        other = next(iter(others))
        if other not in kept:
            return None
        left, right = predicate.left, predicate.right
        if left.qualifier == extra.name:
            extra_ref, kept_ref = left, right
        else:
            extra_ref, kept_ref = right, left
        if not isinstance(kept[other].box, BaseTableBox):
            return None
        join_pairs.setdefault(other, set()).add((kept_ref.name, extra_ref.name))
        join_preds.append(predicate)
    for other, pairs_set in join_pairs.items():
        child_table = kept[other].box.table_name
        parent_table = extra.box.table_name
        if catalog.ri_join_is_lossless(
            child_table,
            {pair[0] for pair in pairs_set},
            parent_table,
            {pair[1] for pair in pairs_set},
            pairs_set,
        ):
            return join_preds
    return None


# ----------------------------------------------------------------------
# Unified 4.1.1 / 4.2.3
# ----------------------------------------------------------------------
def _match_select_only(
    subsumee: SelectBox,
    subsumer: SelectBox,
    ctx: MatchContext,
    pairs: list[MatchedChildPair],
    rejoins: list[Quantifier],
    extra_join_preds: list[Expr],
) -> MatchResult | None:
    rejoin_names = {q.name for q in rejoins}
    chain_rejoins: list[Quantifier] = []
    for pair in pairs:
        for quantifier in chain_rejoin_quantifiers(pair.match.chain):
            if quantifier.name in rejoin_names or any(
                q.name == quantifier.name for q in chain_rejoins
            ):
                # name collision across levels; bail out
                t = _trace.ACTIVE
                if t is not None:
                    t.reject(
                        "regroupability", "4.2.3",
                        f"rejoin quantifier name {quantifier.name!r} "
                        "collides across chain levels",
                    )
                return None
            chain_rejoins.append(quantifier)
    all_rejoin_names = rejoin_names | {q.name for q in chain_rejoins}

    translator = ChildTranslator(pairs, all_rejoin_names)
    pool: list[Expr] = []
    for predicate in subsumee.predicates:
        pool.append(translator.translate(predicate))
    for pair in pairs:
        for index, predicate in chain_predicates(pair.match.chain):
            pool.append(
                inline_through_chain(
                    predicate, pair.match.chain, index, pair.subsumer_q.name
                )
            )
    if any(p.contains_aggregate() for p in pool):
        # would need a grouping pattern
        t = _trace.ACTIVE
        if t is not None:
            t.reject(
                "regroupability", "4.2.4",
                "translated predicate contains an aggregate; a SELECT-only "
                "compensation cannot re-apply it",
            )
        return None

    if not _subsumer_predicates_covered(subsumer, pool, extra_join_preds):
        t = _trace.ACTIVE
        if t is not None:
            t.reject(
                "predicate-subsumption", "4.1.1 cond 2",
                _uncovered_predicate(subsumer, pool, extra_join_preds),
            )
        return None

    classes_r = _subsumer_classes(subsumer, ctx)
    scope = DerivationScope(
        {qcl.name: qcl.expr for qcl in subsumer.outputs},
        classes=classes_r,
        rejoin_names=all_rejoin_names,
    )
    compensation_preds = []
    for predicate in pool:
        if _matched_by_subsumer(predicate, subsumer, classes_r):
            continue
        derived = derive_scalar(predicate, scope)
        if derived is None:
            # condition 3 fails
            t = _trace.ACTIVE
            if t is not None:
                t.reject(
                    "predicate-subsumption", "4.1.1 cond 3",
                    "compensation predicate not derivable: "
                    + render_expr(predicate),
                )
            return None
        compensation_preds.append(derived)

    derived_outputs: list[tuple[str, Expr]] = []
    for qcl in subsumee.outputs:
        derived = derive_scalar(translator.translate(qcl.expr), scope)
        if derived is None:
            # condition 4 fails
            t = _trace.ACTIVE
            if t is not None:
                t.reject(
                    "qcl-derivation", "4.1.1 cond 4",
                    f"output {qcl.name!r} not derivable: "
                    + render_expr(qcl.expr),
                )
            return None
        derived_outputs.append((qcl.name, derived))

    all_rejoins = rejoins + chain_rejoins
    pattern = "4.2.3" if any(pair.match.chain for pair in pairs) else "4.1.1"
    exact = (
        not compensation_preds
        and not all_rejoins
        and subsumee.distinct == subsumer.distinct
        and all(
            isinstance(expr, ColumnRef) and expr.qualifier == MAIN
            for _, expr in derived_outputs
        )
        and len({expr.name for _, expr in derived_outputs}) == len(derived_outputs)
    )
    if exact:
        column_map = {name: expr.name for name, expr in derived_outputs}
        return MatchResult(subsumee, subsumer, [], column_map, pattern=pattern)

    comp = SelectBox(ctx.fresh_name("Sel"))
    comp.add_quantifier(MAIN, SubsumerRef(subsumer))
    for quantifier in all_rejoins:
        comp.add_quantifier(quantifier.name, quantifier.box)
    comp.predicates = compensation_preds
    comp.distinct = subsumee.distinct
    for name, expr in derived_outputs:
        comp.add_output(QCL(name, expr, expr_nullable(expr, _nullable_in(comp))))
    return MatchResult(subsumee, subsumer, [comp], pattern=pattern)


def _subsumer_classes(subsumer: SelectBox, ctx: MatchContext) -> EquivalenceClasses:
    """The subsumer's column equivalences, unless the ablation knob turns
    them off (quantifying Figure 5's aid-from-faid derivation)."""
    if ctx.option("column_equivalence"):
        return subsumer.equivalence_classes()
    return EquivalenceClasses()


def _subsumer_predicates_covered(
    subsumer: SelectBox, pool: list[Expr], extra_join_preds: list[Expr]
) -> bool:
    """Condition 2: every subsumer predicate (except extra joins) matches
    or subsumes a predicate the subsumee applies."""
    classes_e = EquivalenceClasses()
    for predicate in pool:
        classes_e.add_predicate(normalize(predicate))
    exempt = {normalize(p) for p in extra_join_preds}
    for r_pred in subsumer.predicates:
        if normalize(r_pred) in exempt:
            continue
        if canonical(r_pred, classes_e) == TRUE:
            continue  # implied by the subsumee's equality predicates
        if any(
            equivalent(p, r_pred, classes_e) or subsumes(r_pred, p, classes_e)
            for p in pool
        ):
            continue
        return False
    return True


def _uncovered_predicate(
    subsumer: SelectBox, pool: list[Expr], extra_join_preds: list[Expr]
) -> str:
    """Name the first subsumer predicate that condition 2 could not cover
    (trace detail only — mirrors :func:`_subsumer_predicates_covered`)."""
    classes_e = EquivalenceClasses()
    for predicate in pool:
        classes_e.add_predicate(normalize(predicate))
    exempt = {normalize(p) for p in extra_join_preds}
    for r_pred in subsumer.predicates:
        if normalize(r_pred) in exempt:
            continue
        if canonical(r_pred, classes_e) == TRUE:
            continue
        if any(
            equivalent(p, r_pred, classes_e) or subsumes(r_pred, p, classes_e)
            for p in pool
        ):
            continue
        return "subsumer predicate not implied by query: " + render_expr(r_pred)
    return "subsumer predicates not covered"


def _matched_by_subsumer(
    predicate: Expr, subsumer: SelectBox, classes_r: EquivalenceClasses
) -> bool:
    """A subsumee predicate already enforced by the subsumer needs no
    compensation (condition 3's 'matches' arm)."""
    if canonical(predicate, classes_r) == TRUE:
        return True  # e.g. the subsumee's join predicate is a subsumer join
    return any(equivalent(predicate, r_pred, classes_r) for r_pred in subsumer.predicates)


def _nullable_in(box: SelectBox):
    quantifiers = {q.name: q for q in box.quantifiers()}

    def resolve(ref: ColumnRef) -> bool:
        quantifier = quantifiers.get(ref.qualifier)
        if quantifier is None:
            return True
        return quantifier.box.output(ref.name).nullable

    return resolve


# ----------------------------------------------------------------------
# 4.2.4: a grouping child compensation under SELECT boxes
# ----------------------------------------------------------------------
def _match_with_grouping_child(
    subsumee: SelectBox,
    subsumer: SelectBox,
    ctx: MatchContext,
    pairs: list[MatchedChildPair],
    rejoins: list[Quantifier],
    extra_join_preds: list[Expr],
    grouping_pair: MatchedChildPair,
) -> MatchResult | None:
    other_pairs = [p for p in pairs if p is not grouping_pair]
    # The paper's pattern requires no joins between the matched children;
    # the non-grouping children must be single-row (scalar subqueries), so
    # threading their columns through the regrouping is sound.
    t = _trace.ACTIVE
    if any(not p.match.exact for p in other_pairs):
        if t is not None:
            t.reject(
                "regroupability", "4.2.4",
                "a sibling of the grouping child needs its own compensation",
            )
        return None
    if any(not _single_row_box(p.subsumee_q.box) for p in other_pairs):
        if t is not None:
            t.reject(
                "regroupability", "4.2.4",
                "a sibling of the grouping child is not provably single-row",
            )
        return None
    if _has_cross_child_predicates(subsumee, pairs) or _has_cross_child_predicates(
        subsumer, pairs
    ):
        if t is not None:
            t.reject(
                "regroupability", "4.2.4",
                "matched children are joined to each other",
            )
        return None
    if subsumee.distinct or subsumer.distinct:
        if t is not None:
            t.reject(
                "regroupability", "4.2.4",
                "DISTINCT cannot cross a pulled-up grouping compensation",
            )
        return None

    rejoin_names = {q.name for q in rejoins}
    all_rejoin_names = rejoin_names | {
        q.name for q in chain_rejoin_quantifiers(grouping_pair.match.chain)
    }
    translator = ChildTranslator(pairs, all_rejoin_names)

    # Condition 2 (the Table 1 check): the subsumer's own predicates must
    # be implied by the subsumee's — verified in the fully-inlined context,
    # where crossing the grouping compensation introduces aggregates that
    # can never match a plain predicate.
    pool = [translator.translate(p) for p in subsumee.predicates]
    if not _subsumer_predicates_covered(subsumer, pool, extra_join_preds):
        if t is not None:
            t.reject(
                "predicate-subsumption", "4.2.4",
                _uncovered_predicate(subsumer, pool, extra_join_preds),
            )
        return None

    classes_r = _subsumer_classes(subsumer, ctx)
    scope = DerivationScope(
        {qcl.name: qcl.expr for qcl in subsumer.outputs},
        classes=classes_r,
        rejoin_names=all_rejoin_names,
    )

    # ---- pull the grouping chain up: re-derive its bottom box ----
    rebuilt = _rebase_grouping_chain(
        grouping_pair, scope, ctx, subsumer
    )
    if rebuilt is None:
        if t is not None:
            t.reject(
                "qcl-derivation", "4.2.4",
                "grouping chain bottom box not re-derivable from the "
                "subsumer's outputs (pull-up failed)",
            )
        return None
    chain, thread = rebuilt

    # ---- columns of the other (single-row) children, threaded through ----
    for pair in other_pairs:
        for column in _columns_used_from(subsumee, pair.subsumee_q.name):
            r_ref = ColumnRef(pair.subsumer_q.name, pair.match.column_map[column])
            derived = derive_scalar(r_ref, scope)
            if derived is None:
                if t is not None:
                    t.reject(
                        "qcl-derivation", "4.2.4",
                        f"threaded column {column!r} not derivable",
                    )
                return None
            thread.carry(pair.subsumee_q.name, column, derived, chain)

    # ---- top SELECT: the subsumee's own predicates and outputs ----
    top = SelectBox(ctx.fresh_name("Sel"))
    top.add_quantifier(MAIN, chain[-1])
    for quantifier in rejoins:
        top.add_quantifier(quantifier.name, quantifier.box)

    def to_top(expr: Expr) -> Expr | None:
        def visit(node: Expr) -> Expr | None:
            if not isinstance(node, ColumnRef):
                return None
            if node.qualifier in rejoin_names:
                return node
            if node.qualifier == grouping_pair.subsumee_q.name:
                return ColumnRef(MAIN, node.name)
            threaded = thread.lookup(node.qualifier, node.name)
            if threaded is not None:
                return ColumnRef(MAIN, threaded)
            return node  # unreachable if threading covered everything

        return expr.transform(visit)

    for predicate in subsumee.predicates:
        mapped = to_top(predicate)
        if mapped is None:
            return None
        top.add_predicate(mapped)
    for qcl in subsumee.outputs:
        mapped = to_top(qcl.expr)
        if mapped is None:
            return None
        top.add_output(QCL(qcl.name, mapped, qcl.nullable))
    chain.append(top)
    return MatchResult(subsumee, subsumer, chain, pattern="4.2.4")


class _ThreadedColumns:
    """Tracks extra columns threaded through a pulled-up grouping chain."""

    def __init__(self, ctx: MatchContext):
        self._ctx = ctx
        self._by_source: dict[tuple[str, str], str] = {}
        self._counter = 0

    def carry(
        self,
        qualifier: str,
        column: str,
        bottom_expr: Expr,
        chain: list,
    ) -> str:
        key = (qualifier, column)
        if key in self._by_source:
            return self._by_source[key]
        self._counter += 1
        name = column
        while any(box.has_output(name) for box in chain):
            name = f"{column}_{self._counter}"
            self._counter += 1
        bottom = chain[0]
        bottom.add_output(QCL(name, bottom_expr, nullable=True))
        for box in chain[1:]:
            if isinstance(box, GroupByBox):
                box.grouping_items = box.grouping_items + (name,)
                box.grouping_sets = tuple(
                    grouping_set + (name,) for grouping_set in box.grouping_sets
                )
                box.add_output(QCL(name, ColumnRef(MAIN, name), nullable=True))
            else:
                box.add_output(QCL(name, ColumnRef(MAIN, name), nullable=True))
        self._by_source[key] = name
        return name

    def lookup(self, qualifier: str, column: str) -> str | None:
        return self._by_source.get((qualifier, column))


def _rebase_grouping_chain(
    pair: MatchedChildPair,
    scope: DerivationScope,
    ctx: MatchContext,
    subsumer: SelectBox,
):
    """Copy the grouping chain onto the subsumer, re-deriving the bottom
    box's expressions from the subsumer's outputs (pull-up conditions of
    4.2.4). Returns (chain boxes, thread tracker) or None."""
    source = pair.match.chain
    rq_name = pair.subsumer_q.name

    def in_subsumer_qnc(expr: Expr) -> Expr:
        def visit(node: Expr) -> Expr | None:
            if isinstance(node, ColumnRef) and node.qualifier == MAIN:
                return ColumnRef(rq_name, node.name)
            return None

        return expr.transform(visit)

    chain: list = []
    thread = _ThreadedColumns(ctx)
    below = SubsumerRef(subsumer)
    for index, box in enumerate(source):
        if index == 0:
            if isinstance(box, GroupByBox):
                # Chain starts directly with a GROUP-BY: synthesize the
                # bottom SELECT that re-derives its inputs.
                bottom = SelectBox(ctx.fresh_name("Sel"))
                bottom.add_quantifier(MAIN, below)
                for name in box.child_quantifier.box.output_names:
                    derived = derive_scalar(
                        ColumnRef(rq_name, name), scope
                    )
                    if derived is None:
                        return None
                    bottom.add_output(QCL(name, derived, nullable=True))
                chain.append(bottom)
                below = bottom
                clone = clone_chain_box(box, below, ctx.fresh_name("GB"))
                chain.append(clone)
                below = clone
                continue
            rebuilt = _rederive_bottom_select(box, scope, in_subsumer_qnc, ctx, below)
            if rebuilt is None:
                return None
            chain.append(rebuilt)
            below = rebuilt
            continue
        clone = clone_chain_box(
            box, below, ctx.fresh_name("GB" if isinstance(box, GroupByBox) else "Sel")
        )
        chain.append(clone)
        below = clone
    return chain, thread


def _rederive_bottom_select(
    box: SelectBox,
    scope: DerivationScope,
    in_subsumer_qnc,
    ctx: MatchContext,
    leaf,
) -> SelectBox | None:
    rebuilt = SelectBox(ctx.fresh_name("Sel"))
    rebuilt.add_quantifier(MAIN, leaf)
    for quantifier in box.quantifiers():
        if quantifier.name != MAIN:
            rebuilt.add_quantifier(quantifier.name, quantifier.box)
    for predicate in box.predicates:
        derived = derive_scalar(in_subsumer_qnc(predicate), scope)
        if derived is None:
            return None
        rebuilt.add_predicate(derived)
    for qcl in box.outputs:
        derived = derive_scalar(in_subsumer_qnc(qcl.expr), scope)
        if derived is None:
            return None
        rebuilt.add_output(QCL(qcl.name, derived, qcl.nullable))
    return rebuilt


def _single_row_box(box) -> bool:
    """True when the box provably produces exactly one row (a scalar
    aggregate: SELECT over a grand-total GROUP-BY)."""
    current = box
    while isinstance(current, SelectBox) and len(current.quantifiers()) == 1:
        if current.predicates:
            return False
        current = current.quantifiers()[0].box
    return isinstance(current, GroupByBox) and current.grouping_sets == ((),)


def _has_cross_child_predicates(
    box: SelectBox, pairs: list[MatchedChildPair]
) -> bool:
    """Does the box join its matched children to each other?"""
    names = set()
    for pair in pairs:
        for quantifier in box.quantifiers():
            if quantifier.box is pair.subsumee_q.box or quantifier.box is pair.subsumer_q.box:
                names.add(quantifier.name)
    for predicate in box.predicates:
        qualifiers = {ref.qualifier for ref in predicate.column_refs()}
        if len(qualifiers & names) > 1:
            return True
    return False


def _columns_used_from(box: SelectBox, qualifier: str) -> list[str]:
    used: list[str] = []
    exprs: list[Expr] = list(box.predicates)
    exprs.extend(qcl.expr for qcl in box.outputs)
    for expr in exprs:
        for ref in expr.column_refs():
            if ref.qualifier == qualifier and ref.name not in used:
                used.append(ref.name)
    return used

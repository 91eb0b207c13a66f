"""Column-equivalence classes (how aid derives from faid in Figure 5)."""

from repro.expr import (
    BinaryOp,
    ColumnRef,
    EquivalenceClasses,
    FuncCall,
    Literal,
    NaryOp,
    canonical,
    equivalent,
)

FAID = ColumnRef("Trans", "faid")
AID = ColumnRef("Acct", "aid")
LID = ColumnRef("Loc", "lid")
FLID = ColumnRef("Trans", "flid")


def classes_with(*pairs):
    classes = EquivalenceClasses()
    for left, right in pairs:
        classes.add_equality(left, right)
    return classes


class TestUnionFind:
    def test_symmetric_and_transitive(self):
        other = ColumnRef("X", "c")
        classes = classes_with((FAID, AID), (AID, other))
        assert classes.same_class(FAID, other)
        assert classes.same_class(other, FAID)

    def test_representative_deterministic(self):
        a = classes_with((FAID, AID))
        b = classes_with((AID, FAID))
        assert a.representative(FAID) == b.representative(FAID)

    def test_members(self):
        classes = classes_with((FAID, AID))
        assert classes.members(FAID) == {FAID, AID}
        assert classes.members(LID) == {LID}

    def test_disjoint_classes(self):
        classes = classes_with((FAID, AID), (FLID, LID))
        assert not classes.same_class(FAID, LID)
        assert len(classes.classes()) == 2

    def test_add_predicate_filters_non_equalities(self):
        classes = EquivalenceClasses()
        assert classes.add_predicate(BinaryOp("=", FAID, AID))
        assert not classes.add_predicate(BinaryOp(">", FAID, Literal(1)))
        assert not classes.add_predicate(BinaryOp("=", FAID, Literal(1)))


class TestRewriteAndEquivalence:
    def test_rewrite_to_representative(self):
        classes = classes_with((FAID, AID))
        rep = classes.representative(FAID)
        expr = NaryOp("+", (AID, Literal(1)))
        assert classes.rewrite(expr) == NaryOp("+", (rep, Literal(1)))

    def test_equivalent_modulo_classes(self):
        classes = classes_with((FAID, AID))
        assert equivalent(FAID, AID, classes)
        assert equivalent(
            FuncCall("year", (FAID,)), FuncCall("year", (AID,)), classes
        )
        assert not equivalent(FAID, LID, classes)

    def test_equivalent_without_classes_is_syntactic(self):
        assert equivalent(NaryOp("+", (FAID, AID)), NaryOp("+", (AID, FAID)))
        assert not equivalent(FAID, AID)

    def test_join_predicate_collapses_to_true(self):
        classes = classes_with((FAID, AID))
        assert canonical(BinaryOp("=", FAID, AID), classes) == Literal(True)


class TestCanonicalMemo:
    """canonical() is memoized on the classes' content, not identity."""

    def test_merge_after_a_lookup_is_seen(self):
        classes = classes_with((FAID, AID))
        predicate = BinaryOp("=", FLID, LID)
        before = canonical(predicate, classes)
        assert before != Literal(True)
        classes.add_equality(FLID, LID)
        assert canonical(predicate, classes) == Literal(True)

    def test_equal_content_shares_an_entry(self):
        expr = FuncCall("year", (AID,))
        first = canonical(expr, classes_with((FAID, AID)))
        second = canonical(expr, classes_with((AID, FAID)))
        assert first is second

    def test_different_content_differs(self):
        expr = NaryOp("+", (FAID, FLID))
        assert canonical(expr, classes_with((FAID, AID))) != canonical(
            expr, classes_with((FLID, LID))
        )

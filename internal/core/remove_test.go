package core

import (
	"testing"

	"repro/internal/figures"
	"repro/internal/schema"
)

func mergeFig5(t *testing.T) *MergedScheme {
	t.Helper()
	m, err := Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// E6 — Figure 6: removing O.C.NR, T.C.NR, and A.C.NR from COURSE”.
func TestFig6RemoveAll(t *testing.T) {
	m := mergeFig5(t)

	// All three key copies are removable in COURSE''.
	for _, mb := range []string{"OFFER", "TEACH", "ASSIST"} {
		if err := m.IsRemovable(mb); err != nil {
			t.Fatalf("%s key copy should be removable: %v", mb, err)
		}
	}
	if err := m.IsRemovable("COURSE"); err == nil {
		t.Fatal("the key-relation's key is never removable")
	}

	removed := m.RemoveAll()
	if len(removed) != 3 {
		t.Fatalf("RemoveAll removed %v, want all three copies", removed)
	}

	rm := m.Schema.Scheme("COURSE''")
	if !schema.EqualAttrLists(rm.AttrNames(), []string{"C.NR", "O.D.NAME", "T.F.SSN", "A.S.SSN"}) {
		t.Errorf("figure 6 scheme = %v", rm.AttrNames())
	}
	// Inclusion dependencies are unchanged by Remove (figure 6).
	wantExactly(t, "fig6 INDs", indKeys(m.Schema), []string{
		schema.NewIND("FACULTY", []string{"F.SSN"}, "PERSON", []string{"P.SSN"}).Key(),
		schema.NewIND("STUDENT", []string{"S.SSN"}, "PERSON", []string{"P.SSN"}).Key(),
		schema.NewIND("COURSE''", []string{"O.D.NAME"}, "DEPARTMENT", []string{"D.NAME"}).Key(),
		schema.NewIND("COURSE''", []string{"T.F.SSN"}, "FACULTY", []string{"F.SSN"}).Key(),
		schema.NewIND("COURSE''", []string{"A.S.SSN"}, "STUDENT", []string{"S.SSN"}).Key(),
	})
	// Figure 6's exact null constraints for COURSE''.
	wantExactly(t, "fig6 nulls", nullKeys(m.Schema, "COURSE''"), []string{
		schema.NNA("COURSE''", "C.NR").Key(),
		schema.NewNullExistence("COURSE''", []string{"T.F.SSN"}, []string{"O.D.NAME"}).Key(),
		schema.NewNullExistence("COURSE''", []string{"A.S.SSN"}, []string{"O.D.NAME"}).Key(),
	})
	if !AllBCNF(m.Schema) {
		t.Error("figure 6's schema should be in BCNF")
	}
}

// Definition 4.2's context-sensitivity: O.C.NR is removable in COURSE” but
// NOT in COURSE' (figure 4), because ASSIST still references it there.
func TestRemovabilityDependsOnMergeSet(t *testing.T) {
	m4, err := Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	if err != nil {
		t.Fatal(err)
	}
	if err := m4.IsRemovable("OFFER"); err == nil {
		t.Error("O.C.NR must not be removable in COURSE' (condition 2)")
	}
	// T.C.NR is removable in COURSE' though.
	if err := m4.IsRemovable("TEACH"); err != nil {
		t.Errorf("T.C.NR should be removable in COURSE': %v", err)
	}
	m5 := mergeFig5(t)
	if err := m5.IsRemovable("OFFER"); err != nil {
		t.Errorf("O.C.NR should be removable in COURSE'': %v", err)
	}
}

func TestRemoveCondition1SingleAttributeMember(t *testing.T) {
	// Merging PERSON and FACULTY: FACULTY has only its key, so removing
	// F.SSN would leave nothing to record a faculty's existence.
	s := figures.Fig3()
	m, err := Merge(s, []string{"PERSON", "FACULTY"}, "PERSON'")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.IsRemovable("FACULTY"); err == nil {
		t.Error("condition (1) should block removing a single-attribute member's key")
	}
	if got := m.RemovableMembers(); len(got) != 0 {
		t.Errorf("RemovableMembers = %v, want none", got)
	}
}

func TestRemoveCondition3ForeignKeyCounterpart(t *testing.T) {
	// OFFER's key copy is a foreign key to an external scheme; without the
	// Km counterpart the removal must be blocked, with it allowed.
	s := figures.Fig2(true)
	// External target for the key: CATALOG(CAT.CN).
	s.AddScheme(schema.NewScheme("CATALOG",
		[]schema.Attribute{{Name: "CAT.CN", Domain: figures.DomCourseNr}},
		[]string{"CAT.CN"}))
	s.Nulls = append(s.Nulls, schema.NNA("CATALOG", "CAT.CN"))
	s.INDs = append(s.INDs, schema.NewIND("TEACH", []string{"T.CN"}, "CATALOG", []string{"CAT.CN"}))

	m, err := Merge(s, []string{"OFFER", "TEACH"}, "ASSIGN")
	if err != nil {
		t.Fatal(err)
	}
	// ASSIGN[T.CN] ⊆ CATALOG[CAT.CN] exists but ASSIGN[O.CN] ⊆ CATALOG does
	// not: condition (3) fails.
	if err := m.IsRemovable("TEACH"); err == nil {
		t.Fatal("condition (3) should block removal without a Km counterpart")
	}

	// Now with the counterpart (the Prop. 5.2(4) proviso shape).
	s2 := figures.Fig2(true)
	s2.AddScheme(schema.NewScheme("CATALOG",
		[]schema.Attribute{{Name: "CAT.CN", Domain: figures.DomCourseNr}},
		[]string{"CAT.CN"}))
	s2.Nulls = append(s2.Nulls, schema.NNA("CATALOG", "CAT.CN"))
	s2.INDs = append(s2.INDs,
		schema.NewIND("TEACH", []string{"T.CN"}, "CATALOG", []string{"CAT.CN"}),
		schema.NewIND("OFFER", []string{"O.CN"}, "CATALOG", []string{"CAT.CN"}))
	m2, err := Merge(s2, []string{"OFFER", "TEACH"}, "ASSIGN")
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Remove("TEACH"); err != nil {
		t.Fatalf("removal with Km counterpart should succeed: %v", err)
	}
	// The rewritten dependency deduplicates onto ASSIGN[O.CN] ⊆ CATALOG.
	count := 0
	for _, ind := range m2.Schema.INDsFrom("ASSIGN") {
		if ind.Right == "CATALOG" {
			count++
			if !schema.EqualAttrSets(ind.LeftAttrs, []string{"O.CN"}) {
				t.Errorf("rewritten dependency = %v", ind)
			}
		}
	}
	if count != 1 {
		t.Errorf("want exactly one ASSIGN→CATALOG dependency, got %d", count)
	}
}

func TestRemoveErrors(t *testing.T) {
	m := mergeFig5(t)
	if err := m.Remove("NOPE"); err == nil {
		t.Error("unknown member")
	}
	if err := m.Remove("COURSE"); err == nil {
		t.Error("key-relation")
	}
	if err := m.Remove("OFFER"); err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("OFFER"); err == nil {
		t.Error("double removal should fail")
	}
	// The mapping records the one removal: OFFER's key copy O.C.NR is
	// restored from Km.
	mp := m.Mapping()
	if len(mp.Removed) != 1 || m.Members[mp.Removed[0]].Name != "OFFER" {
		t.Fatalf("Removed = %v", mp.Removed)
	}
	if part := mp.Parts[mp.Removed[0]]; part.At[part.Key[0]] != mp.Km[0] {
		t.Errorf("O.C.NR restored from position %d, want Km's %d", part.At[part.Key[0]], mp.Km[0])
	}
}

func TestRemoveSyntheticKeyShrinksPartNull(t *testing.T) {
	s := figures.Fig2(false)
	m, err := Merge(s, []string{"OFFER", "TEACH"}, "ASSIGN")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Remove("OFFER"); err != nil {
		t.Fatalf("O.CN should be removable under a synthetic key: %v", err)
	}
	// The part-null constraint now reads PN({O.DN}, {T.CN, T.FN}).
	found := false
	for _, nc := range m.Schema.NullsOf("ASSIGN") {
		if pn, ok := nc.(schema.PartNull); ok {
			found = true
			if len(pn.Sets) != 2 {
				t.Errorf("PN sets = %v", pn.Sets)
			}
			for _, set := range pn.Sets {
				if schema.ContainsAttr(set, "O.CN") {
					t.Errorf("O.CN should be gone from PN: %v", pn)
				}
			}
		}
	}
	if !found {
		t.Error("part-null constraint should survive (no empty member set)")
	}
}

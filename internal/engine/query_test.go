package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
)

func TestFetchWithReferences(t *testing.T) {
	db := openFig3(t)
	db.InsertCtx(context.Background(), "COURSE", tup("c1"))
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	db.InsertCtx(context.Background(), "PERSON", tup("p1"))
	db.InsertCtx(context.Background(), "FACULTY", tup("p1"))
	db.InsertCtx(context.Background(), "OFFER", tup("c1", "math"))
	db.InsertCtx(context.Background(), "TEACH", tup("c1", "p1"))

	tuple, related, err := db.FetchWithReferences("TEACH", tup("c1"))
	if err != nil {
		t.Fatal(err)
	}
	if !tuple.Identical(tup("c1", "p1")) {
		t.Errorf("tuple = %v", tuple)
	}
	if len(related) != 2 {
		t.Fatalf("related = %v", related)
	}
	byTarget := map[string]Related{}
	for _, r := range related {
		byTarget[r.To] = r
	}
	if r := byTarget["OFFER"]; r.Tuple == nil || !r.Tuple.Identical(tup("c1", "math")) {
		t.Errorf("OFFER hop = %+v", r)
	}
	if r := byTarget["FACULTY"]; r.Tuple == nil || !r.Tuple.Identical(tup("p1")) {
		t.Errorf("FACULTY hop = %+v", r)
	}
}

func TestFetchWithReferencesNullFK(t *testing.T) {
	// The figure 4 merged schema: a course with no OFFER part has null
	// foreign keys, reported as null hops.
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	if err != nil {
		t.Fatal(err)
	}
	db := MustOpen(m.Schema)
	if err := db.InsertCtx(context.Background(), "COURSE'", tup("c2", nil, nil, nil, nil)); err != nil {
		t.Fatal(err)
	}
	_, related, err := db.FetchWithReferences("COURSE'", tup("c2"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range related {
		if !r.IsNull {
			t.Errorf("hop %+v should be null", r)
		}
	}
}

func TestFetchWithReferencesNonKeyBased(t *testing.T) {
	// ASSIST → COURSE'[O.C.NR] is non-key-based: the chase goes through the
	// secondary index.
	m, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH"}, "COURSE'")
	if err != nil {
		t.Fatal(err)
	}
	db := MustOpen(m.Schema)
	db.InsertCtx(context.Background(), "DEPARTMENT", tup("math"))
	db.InsertCtx(context.Background(), "PERSON", tup("p2"))
	db.InsertCtx(context.Background(), "STUDENT", tup("p2"))
	db.InsertCtx(context.Background(), "COURSE'", tup("c1", "c1", "math", nil, nil))
	db.InsertCtx(context.Background(), "ASSIST", tup("c1", "p2"))

	_, related, err := db.FetchWithReferences("ASSIST", tup("c1"))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range related {
		if r.To == "COURSE'" && r.Tuple != nil {
			found = true
		}
	}
	if !found {
		t.Errorf("non-key-based hop missing: %+v", related)
	}
}

func TestFetchWithReferencesErrors(t *testing.T) {
	db := openFig3(t)
	if _, _, err := db.FetchWithReferences("NOPE", tup("x")); err == nil {
		t.Error("unknown relation")
	}
	if _, _, err := db.FetchWithReferences("COURSE", tup("missing")); err == nil {
		t.Error("missing key")
	}
}

package core

import (
	"math/rand"
	"testing"

	"repro/internal/eer"
	"repro/internal/figures"
	"repro/internal/nullcon"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/translate"
)

// weakSchema builds an EER schema with a weak entity-set (composite key) and
// two attribute-less many-to-one relationship-sets hanging off it — the
// composite-key analogue of figure 8(iv).
func weakSchema(t *testing.T) *schema.Schema {
	t.Helper()
	es := eer.New()
	es.Entities = []*eer.EntitySet{
		{
			Name: "BUILDING", Prefix: "B",
			OwnAttrs:  []eer.Attr{{Name: "B.NAME", Domain: "bname"}},
			ID:        []string{"B.NAME"},
			CopyBases: []string{"NAME"},
		},
		{
			Name: "ROOM", Prefix: "R",
			Weak: true, Owner: "BUILDING",
			OwnAttrs:      []eer.Attr{{Name: "R.NR", Domain: "roomnr"}},
			Discriminator: []string{"R.NR"},
		},
		{
			Name: "JANITOR", Prefix: "J",
			OwnAttrs: []eer.Attr{{Name: "J.ID", Domain: "jid"}},
			ID:       []string{"J.ID"},
		},
		{
			Name: "KEYHOLDER", Prefix: "K",
			OwnAttrs: []eer.Attr{{Name: "K.ID", Domain: "kid"}},
			ID:       []string{"K.ID"},
		},
	}
	es.Relationships = []*eer.RelationshipSet{
		{
			Name: "CLEANS", Prefix: "CL",
			Parts: []eer.Participant{
				{Object: "ROOM", Card: eer.Many},
				{Object: "JANITOR", Card: eer.One},
			},
		},
		{
			Name: "OPENS", Prefix: "OP",
			Parts: []eer.Participant{
				{Object: "ROOM", Card: eer.Many},
				{Object: "KEYHOLDER", Card: eer.One},
			},
		},
	}
	rs, err := translate.MS(es)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// Composite-key merging: ROOM (key R.NAME, R.NR) is the key-relation of
// {ROOM, CLEANS, OPENS}; the key copies are two-attribute sets and still
// removable.
func TestCompositeKeyMerge(t *testing.T) {
	s := weakSchema(t)
	room := s.Scheme("ROOM")
	if len(room.PrimaryKey) != 2 {
		t.Fatalf("ROOM key = %v, want composite", room.PrimaryKey)
	}
	names := []string{"ROOM", "CLEANS", "OPENS"}
	if rk, ok := Prop52(s, names); !ok || rk != "ROOM" {
		t.Fatalf("Prop52 = %q, %v", rk, ok)
	}
	m, err := Merge(s, names, "ROOM'")
	if err != nil {
		t.Fatal(err)
	}
	if m.KeyRelation != "ROOM" {
		t.Fatalf("key-relation = %q", m.KeyRelation)
	}
	// Total-equality constraints pair the composite keys position-wise.
	teCount := 0
	for _, nc := range m.Schema.NullsOf("ROOM'") {
		if te, ok := nc.(schema.TotalEquality); ok {
			teCount++
			if len(te.Y) != 2 || len(te.Z) != 2 {
				t.Errorf("composite TE should have 2 pairs: %v", te)
			}
		}
	}
	if teCount != 2 {
		t.Errorf("TE constraints = %d, want 2", teCount)
	}

	removed := m.RemoveAll()
	if len(removed) != 2 {
		t.Fatalf("removals = %v", removed)
	}
	if !nullcon.OnlyNNA(m.Schema.NullsOf("ROOM'")) {
		t.Errorf("composite Prop. 5.2 merge should be only-NNA: %v", m.Schema.NullsOf("ROOM'"))
	}
	want := []string{"R.NAME", "R.NR", "CL.J.ID", "OP.K.ID"}
	if !schema.EqualAttrLists(m.Schema.Scheme("ROOM'").AttrNames(), want) {
		t.Errorf("ROOM' = %v, want %v", m.Schema.Scheme("ROOM'").AttrNames(), want)
	}
}

// Round trip with composite keys, including the Remove reconstructions.
func TestCompositeKeyRoundTrip(t *testing.T) {
	s := weakSchema(t)
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		m, err := Merge(s, []string{"ROOM", "CLEANS", "OPENS"}, "ROOM'")
		if err != nil {
			t.Fatal(err)
		}
		m.RemoveAll()
		db := state.MustGenerate(s, rng, state.GenOptions{
			Rows:    6,
			RowsPer: map[string]int{"CLEANS": 3, "OPENS": 4},
		})
		if !m.RoundTrip(db) {
			t.Fatalf("trial %d: composite-key round trip failed", trial)
		}
		if err := state.Consistent(m.Schema, m.MapState(db)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestMergeWithExplicitKeyRelation(t *testing.T) {
	s := figures.Fig3()
	// COURSE qualifies; explicitly selecting it works.
	m, err := MergeSet(s, []string{"COURSE", "OFFER", "TEACH"},
		WithName("COURSE'"), WithKeyRelation("COURSE"))
	if err != nil || m.KeyRelation != "COURSE" {
		t.Fatalf("explicit key-relation: %v / %q", err, m.KeyRelation)
	}
	// OFFER does not qualify for this set.
	if _, err := MergeSet(s, []string{"COURSE", "OFFER", "TEACH"},
		WithName("X"), WithKeyRelation("OFFER")); err == nil {
		t.Error("non-qualifying key-relation must be rejected")
	}
	// Conflicting options.
	if _, err := MergeSet(s, []string{"COURSE", "OFFER"},
		WithName("X"), WithKeyRelation("COURSE"), WithSyntheticKey()); err == nil {
		t.Error("conflicting options must be rejected")
	}
}

func TestMergeWithForceSynthetic(t *testing.T) {
	s := figures.Fig2(true) // OFFER qualifies, but we force a synthetic key
	m, err := MergeSet(s, []string{"OFFER", "TEACH"},
		WithName("ASSIGN"), WithSyntheticKey())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Synthetic || m.KeyRelation != "" {
		t.Fatal("expected a synthetic key-relation")
	}
	// The part-null constraint appears, and the round trip still holds.
	hasPN := false
	for _, nc := range m.Schema.NullsOf("ASSIGN") {
		if _, ok := nc.(schema.PartNull); ok {
			hasPN = true
		}
	}
	if !hasPN {
		t.Error("forced synthetic merge should carry a part-null constraint")
	}
	rng := rand.New(rand.NewSource(3))
	db := state.MustGenerate(s, rng, state.GenOptions{Rows: 5, RowsPer: map[string]int{"TEACH": 3}})
	if !m.RoundTrip(db) {
		t.Error("forced synthetic round trip failed")
	}
}

package translate

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/eer"
	"repro/internal/engine"
	"repro/internal/state"
)

// randomEER builds a random valid EER schema: root entities (some with
// multi-valued or nullable attributes), specializations, and binary
// many-to-one relationship-sets whose Many side may be an entity or an
// earlier relationship-set.
func randomEER(rng *rand.Rand) *eer.Schema {
	s := eer.New()
	nEnt := 2 + rng.Intn(3)
	for i := 0; i < nEnt; i++ {
		name := fmt.Sprintf("E%d", i)
		e := &eer.EntitySet{
			Name: name, Prefix: name,
			OwnAttrs: []eer.Attr{{Name: name + ".ID", Domain: fmt.Sprintf("d%d", i)}},
			ID:       []string{name + ".ID"},
		}
		for j := 0; j < rng.Intn(3); j++ {
			a := eer.Attr{
				Name:   fmt.Sprintf("%s.A%d", name, j),
				Domain: fmt.Sprintf("ad%d_%d", i, j),
			}
			switch rng.Intn(4) {
			case 0:
				a.Nullable = true
			case 1:
				a.MultiValued = true
			}
			e.OwnAttrs = append(e.OwnAttrs, a)
		}
		s.Entities = append(s.Entities, e)
	}
	// Specializations of root entities.
	for i := 0; i < rng.Intn(3); i++ {
		parent := s.Entities[rng.Intn(nEnt)].Name
		name := fmt.Sprintf("S%d", i)
		sp := &eer.EntitySet{Name: name, Prefix: name}
		if rng.Intn(2) == 0 {
			sp.OwnAttrs = []eer.Attr{{Name: name + ".X", Domain: fmt.Sprintf("sx%d", i)}}
		}
		s.Entities = append(s.Entities, sp)
		s.ISAs = append(s.ISAs, eer.ISA{Child: name, Parent: parent})
	}
	// Relationship-sets; Many side may be any prior object-set, One side a
	// root entity.
	objects := []string{}
	for _, e := range s.Entities {
		objects = append(objects, e.Name)
	}
	for i := 0; i < rng.Intn(4); i++ {
		name := fmt.Sprintf("R%d", i)
		many := objects[rng.Intn(len(objects))]
		one := s.Entities[rng.Intn(nEnt)].Name
		if many == one {
			continue
		}
		r := &eer.RelationshipSet{
			Name: name, Prefix: name,
			Parts: []eer.Participant{
				{Object: many, Card: eer.Many},
				{Object: one, Card: eer.One},
			},
		}
		if rng.Intn(3) == 0 {
			r.OwnAttrs = []eer.Attr{{Name: name + ".W", Domain: fmt.Sprintf("rw%d", i)}}
		}
		s.Relationships = append(s.Relationships, r)
		objects = append(objects, name)
	}
	return s
}

// The translation pipeline is total on random valid EER schemas: MS produces
// a valid relational schema whose generated states are consistent and load
// into the engine; Teorey likewise.
func TestTranslateRandomizedEER(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	tested := 0
	for trial := 0; trial < 150; trial++ {
		es := randomEER(rng)
		if es.Validate() != nil {
			continue // duplicate-ish structure; skip
		}
		rs, err := MS(es)
		if err != nil {
			// Generated prefixes/bases may collide (e.g. a relationship's
			// one-side copy colliding with an inherited key copy name); the
			// library must reject such schemas with a clean error, never
			// emit an invalid schema.
			if !strings.Contains(err.Error(), "duplicate attribute") {
				t.Fatalf("trial %d: MS failed unexpectedly: %v", trial, err)
			}
			continue
		}
		if err := rs.Validate(); err != nil {
			t.Fatalf("trial %d: invalid schema: %v", trial, err)
		}
		tr, err := Teorey(es)
		if err != nil {
			if !strings.Contains(err.Error(), "duplicate attribute") {
				t.Fatalf("trial %d: Teorey failed unexpectedly: %v", trial, err)
			}
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("trial %d: invalid Teorey schema: %v", trial, err)
		}
		// Generated data is consistent and engine-loadable.
		db, err := state.Generate(rs, rng, state.GenOptions{Rows: 4, NullProb: 0.3})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		eng, err := engine.Open(rs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := eng.LoadCtx(context.Background(), db); err != nil {
			t.Fatalf("trial %d: load: %v\nschema:\n%s\nstate:\n%s", trial, err, rs, db)
		}
		tested++
	}
	if tested < 100 {
		t.Fatalf("only %d random schemas exercised", tested)
	}
}

// The Teorey baseline never has MORE consistent-state-restricting null
// constraints than MS on the same EER schema (it drops restrictions; that is
// the criticized defect).
func TestTeoreyNeverMoreConstrained(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for trial := 0; trial < 80; trial++ {
		es := randomEER(rng)
		if es.Validate() != nil {
			continue
		}
		ms, err := MS(es)
		if err != nil {
			continue // naming collision; rejected by both translators
		}
		tr, err := Teorey(es)
		if err != nil {
			continue
		}
		msCover, trCover := nnaCount(ms), nnaCount(tr)
		if trCover > msCover {
			t.Fatalf("trial %d: Teorey covers %d NNA attrs vs MS %d", trial, trCover, msCover)
		}
	}
}

func nnaCount(s interface {
	NNAAttrs(string) map[string]bool
	SchemeNames() []string
}) int {
	n := 0
	for _, name := range s.SchemeNames() {
		n += len(s.NNAAttrs(name))
	}
	return n
}

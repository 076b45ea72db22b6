package state_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/schema"
	"repro/internal/state"
	"repro/internal/translate"
	"repro/internal/workload"
)

// generateDigest hashes what Generate draws for s under seed: every relation
// in name order, its rows in the order they were drawn.
func generateDigest(t *testing.T, s *schema.Schema, seed int64, nullProb float64) string {
	t.Helper()
	db, err := state.Generate(s, rand.New(rand.NewSource(seed)), state.GenOptions{Rows: 30, NullProb: nullProb})
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(db.Relations))
	for name := range db.Relations {
		names = append(names, name)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		fmt.Fprintf(h, "%s\n", name)
		for _, tup := range db.Relations[name].Tuples() {
			fmt.Fprintf(h, "%s\n", tup.EncodeKey())
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pinnedDesigns are the designs whose generated states are pinned.
func pinnedDesigns(t *testing.T) map[string]*schema.Schema {
	t.Helper()
	merged, err := core.Merge(figures.Fig3(), []string{"COURSE", "OFFER", "TEACH", "ASSIST"}, "COURSE''")
	if err != nil {
		t.Fatal(err)
	}
	merged.RemoveAll()
	star, err := translate.MS(workload.StarEER(8))
	if err != nil {
		t.Fatal(err)
	}
	chain, err := translate.MS(workload.ChainEER(6))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*schema.Schema{
		"fig3":        figures.Fig3(),
		"fig3-merged": merged.Schema,
		"fig1-prime":  figures.Fig1RSPrime(),
		"star8":       star,
		"chain6":      chain,
	}
}

// TestGenerateDigestsPinned: Generate draws exactly the states it drew
// before its per-candidate checks became the compiled per-tuple check — the
// digests were recorded by this same function on the earlier generator.
func TestGenerateDigestsPinned(t *testing.T) {
	want := map[string]string{
		"chain6/p0.0/seed1":      "c623a2a69d808e1e",
		"chain6/p0.0/seed2":      "107e289d35aa9290",
		"chain6/p0.0/seed3":      "fceb8f9775fa0b9b",
		"chain6/p0.3/seed1":      "c623a2a69d808e1e",
		"chain6/p0.3/seed2":      "107e289d35aa9290",
		"chain6/p0.3/seed3":      "fceb8f9775fa0b9b",
		"fig1-prime/p0.0/seed1":  "0301dd9f73f05f92",
		"fig1-prime/p0.0/seed2":  "c54c6bf86183c9cb",
		"fig1-prime/p0.0/seed3":  "9a082778ad348dc2",
		"fig1-prime/p0.3/seed1":  "e6622f571c5bdf27",
		"fig1-prime/p0.3/seed2":  "cd5331da0c1843be",
		"fig1-prime/p0.3/seed3":  "90a42a87c906977b",
		"fig3/p0.0/seed1":        "b1c217c93be1a0c7",
		"fig3/p0.0/seed2":        "4f4dfa147d4e087a",
		"fig3/p0.0/seed3":        "c9af9a2c8fd11cfe",
		"fig3/p0.3/seed1":        "b1c217c93be1a0c7",
		"fig3/p0.3/seed2":        "4f4dfa147d4e087a",
		"fig3/p0.3/seed3":        "c9af9a2c8fd11cfe",
		"fig3-merged/p0.0/seed1": "8dc23c1b9f76a877",
		"fig3-merged/p0.0/seed2": "90f0c057fcd12ff4",
		"fig3-merged/p0.0/seed3": "f4c664ca940672d2",
		"fig3-merged/p0.3/seed1": "8dc23c1b9f76a877",
		"fig3-merged/p0.3/seed2": "90f0c057fcd12ff4",
		"fig3-merged/p0.3/seed3": "f4c664ca940672d2",
		"star8/p0.0/seed1":       "8e373ff9dcea7b3b",
		"star8/p0.0/seed2":       "e802005ad951578f",
		"star8/p0.0/seed3":       "7938c7efdb3b35c2",
		"star8/p0.3/seed1":       "8e373ff9dcea7b3b",
		"star8/p0.3/seed2":       "e802005ad951578f",
		"star8/p0.3/seed3":       "7938c7efdb3b35c2",
	}
	designs := pinnedDesigns(t)
	names := make([]string, 0, len(designs))
	for name := range designs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, nullProb := range []float64{0, 0.3} {
			for seed := int64(1); seed <= 3; seed++ {
				id := fmt.Sprintf("%s/p%.1f/seed%d", name, nullProb, seed)
				if got := generateDigest(t, designs[name], seed, nullProb); got != want[id] {
					t.Errorf("%q: %q,", id, got)
				}
			}
		}
	}
}

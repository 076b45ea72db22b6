// Quickstart: the paper's figure 2 in a few lines — merge two
// relation-schemes with compatible primary keys into one, see the null
// constraints the merge generates, round-trip a database state through the
// η/η′ mappings to confirm nothing is lost, and serve the merged design
// through the Session API (the same interface relmerge.Open returns for a
// relmerged server).
//
// Everything comes from the public pkg/relmerge facade; no internal imports.
package main

import (
	"context"
	"fmt"

	"repro/pkg/relmerge"
)

func main() {
	// Build the figure 2 schema by hand: OFFER(O.CN*, O.DN) and
	// TEACH(T.CN*, T.FN), with every TEACH course also an OFFER course.
	s := relmerge.NewSchema()
	s.AddScheme(relmerge.NewScheme("OFFER",
		[]relmerge.Attribute{
			{Name: "O.CN", Domain: "course_nr"},
			{Name: "O.DN", Domain: "dept_name"},
		}, []string{"O.CN"}))
	s.AddScheme(relmerge.NewScheme("TEACH",
		[]relmerge.Attribute{
			{Name: "T.CN", Domain: "course_nr"},
			{Name: "T.FN", Domain: "faculty_name"},
		}, []string{"T.CN"}))
	s.INDs = append(s.INDs, relmerge.NewIND("TEACH", []string{"T.CN"}, "OFFER", []string{"O.CN"}))
	s.Nulls = append(s.Nulls,
		relmerge.NNA("OFFER", "O.CN", "O.DN"),
		relmerge.NNA("TEACH", "T.CN", "T.FN"))

	fmt.Println("before merging:")
	fmt.Print(indent(s.String()))

	// Merge. OFFER qualifies as the key-relation (Prop. 3.1), so no
	// synthetic key is needed.
	m, err := relmerge.Merge(s, []string{"OFFER", "TEACH"}, relmerge.WithName("ASSIGN"))
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nafter Merge (key-relation %s):\n", m.KeyRelation)
	fmt.Print(indent(m.Schema.String()))

	// T.CN duplicates O.CN (total-equality constraint) and is removable.
	if err := m.Remove("TEACH"); err != nil {
		panic(err)
	}
	fmt.Println("\nafter Remove(T.CN):")
	fmt.Print(indent(m.Schema.String()))

	// Round-trip a state: two offered courses, one of them taught.
	db := relmerge.NewState(s)
	add := func(rel string, vals ...string) {
		t := make(relmerge.Tuple, len(vals))
		for i, v := range vals {
			t[i] = relmerge.NewString(v)
		}
		db.Relation(rel).Add(t)
	}
	add("OFFER", "cs101", "cs")
	add("OFFER", "ma201", "math")
	add("TEACH", "cs101", "knuth")

	merged := m.MapState(db)
	fmt.Println("\nmerged relation (note the null for the untaught course):")
	fmt.Print(indent(merged.Relation("ASSIGN").String()) + "\n")

	back := m.UnmapState(merged)
	fmt.Printf("\nround trip restored the original state: %v\n", back.Equal(db))

	// Serve the merged design through the Session API. Open is the one
	// constructor for every backend — change Config.Backend to Remote (plus
	// an Addr) to run this same code against a relmerged server, or to
	// Sharded (plus a shard count) to hash-partition it across engines.
	sess, err := relmerge.Open(relmerge.Config{Schema: m.Schema})
	if err != nil {
		panic(err)
	}
	defer sess.Close()
	ctx := context.Background()
	if err := sess.InsertBatchCtx(ctx, "ASSIGN", merged.Relation("ASSIGN").Tuples()); err != nil {
		panic(err)
	}
	tup, found, err := sess.FetchCtx(ctx, "ASSIGN", relmerge.Tuple{relmerge.NewString("cs101")})
	if err != nil || !found {
		panic(fmt.Sprintf("fetch cs101: found=%v err=%v", found, err))
	}
	fmt.Printf("\nsession fetch by key on the merged design: %v\n", tup)
}

func indent(s string) string {
	out := ""
	line := ""
	for _, r := range s {
		if r == '\n' {
			out += "  " + line + "\n"
			line = ""
		} else {
			line += string(r)
		}
	}
	if line != "" {
		out += "  " + line + "\n"
	}
	return out
}

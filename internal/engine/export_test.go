package engine

import (
	"fmt"

	"repro/internal/relation"
)

// IndexCounts recounts every secondary index of the current published
// version from its table's pk map and reports the first slot whose stored
// counts differ from the recount, or that stores a zero count. It also
// returns the largest count stored.
func IndexCounts(db *DB) (largest uint32, err error) {
	snap := db.current.Load()
	for _, t := range snap.bind.ordered {
		tv := snap.tables[t.ord]
		for slot, pos := range t.sec {
			want := make(map[string]uint32)
			tv.pk.Range(func(_ string, tup relation.Tuple) bool {
				if tup.TotalAt(pos) {
					want[string(tup.AppendKeyAt(nil, pos))]++
				}
				return true
			})
			tv.sec[slot].Range(func(val string, n uint32) bool {
				largest = max(largest, n)
				switch {
				case n == 0:
					err = fmt.Errorf("%s slot %d stores a zero count for %q", t.name, slot, val)
				case n != want[val]:
					err = fmt.Errorf("%s slot %d counts %d rows carrying %q, its pk map holds %d", t.name, slot, n, val, want[val])
				}
				return err == nil
			})
			if err != nil {
				return 0, err
			}
			if got := tv.sec[slot].Len(); got != len(want) {
				return 0, fmt.Errorf("%s slot %d holds %d values, its pk map carries %d", t.name, slot, got, len(want))
			}
		}
	}
	return largest, nil
}

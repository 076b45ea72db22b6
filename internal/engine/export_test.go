package engine

import (
	"fmt"

	"repro/internal/relation"
)

// IndexCounts recounts every table's secondary index of the current
// published version from its pk map, slot by slot, and reports the first
// slot whose stored counts differ from the recount, or that stores a zero
// count. It also returns the largest count stored.
func IndexCounts(db *DB) (largest uint32, err error) {
	snap := db.current.Load()
	for _, t := range snap.bind.ordered {
		tv := snap.tables[t.ord]
		want := make(map[string]uint32)
		for slot, pos := range t.sec {
			tv.pk.Range(func(_ string, tup relation.Tuple) bool {
				if tup.TotalAt(pos) {
					want[string(tup.AppendKeyAt([]byte{byte(slot)}, pos))]++
				}
				return true
			})
		}
		tv.sec.Range(func(key string, n uint32) bool {
			largest = max(largest, n)
			slot, val := key[0], key[1:]
			switch {
			case int(slot) >= len(t.sec):
				err = fmt.Errorf("%s has no slot %d, its index counts %q under it", t.name, slot, val)
			case n == 0:
				err = fmt.Errorf("%s slot %d stores a zero count for %q", t.name, slot, val)
			case n != want[key]:
				err = fmt.Errorf("%s slot %d counts %d rows carrying %q, its pk map holds %d", t.name, slot, n, val, want[key])
			}
			return err == nil
		})
		if err != nil {
			return 0, err
		}
		if got := tv.sec.Len(); got != len(want) {
			return 0, fmt.Errorf("%s holds %d slot values, its pk map carries %d", t.name, got, len(want))
		}
	}
	return largest, nil
}

// encodeOpRecord renders one operation's effects as a fresh op record
// (appendOpRecord).
func encodeOpRecord(eff effects, inTxn bool) []byte {
	return appendOpRecord(nil, eff, inTxn)
}

// CheckpointPayload encodes the current published version as a checkpoint
// payload, without writing it.
func CheckpointPayload(db *DB) []byte { return encodeCheckpoint(db.current.Load()) }

package core

import "repro/internal/schema"

// Spec fixes one merge: Def. 4.1 determines the merged scheme, and with it
// η, once the cluster R̄, the merged name and the key-relation are given. A
// live migration is named by its Spec alone; whoever applies it derives the
// merge on the design it holds at that moment.
type Spec struct {
	Cluster     []string
	Name        string
	KeyRelation string
}

// Derive merges the spec's cluster on s and removes every removable key copy
// (MergeSet + RemoveAll): the design a migration installs, and its η.
func (sp Spec) Derive(s *schema.Schema) (*MergedScheme, error) {
	m, err := MergeSet(s, sp.Cluster, WithName(sp.Name), WithKeyRelation(sp.KeyRelation))
	if err != nil {
		return nil, err
	}
	m.RemoveAll()
	return m, nil
}

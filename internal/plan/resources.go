package plan

import (
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// resourceTable is a DAG's per-(node, rank) overlap-resource
// classification, precomputed once per walk.
// OpResource depends on the rank only through its grid column
// (rank % RA, for KSpMM's column-group allgather); the table stores one
// resource per column for those nodes and a single resource for every
// other kind. This turns OpResource's per-call group construction —
// O(P) slice builds that the pricing loops would otherwise repeat
// O(nodes × P × epochs) times, quadratic in P at scale — into an array
// lookup, without changing a single classification.
type resourceTable struct {
	ra   int
	rows [][]hw.Resource
}

// resources precomputes OpResource for every node of the DAG under a
// topology (nil = flat).
func (d *DAG) resources(tp *topo.Topology) *resourceTable {
	s := d.Sched
	t := &resourceTable{ra: s.RA, rows: make([][]hw.Resource, len(d.Nodes))}
	for i := range d.Nodes {
		op := d.Nodes[i].Op
		if op.Kind == KSpMM {
			row := make([]hw.Resource, s.RA)
			for j := range row {
				row[j] = s.OpResource(op, j, tp)
			}
			t.rows[i] = row
		} else {
			t.rows[i] = []hw.Resource{s.OpResource(op, 0, tp)}
		}
	}
	return t
}

// at returns node's resource on rank — OpResource(node's op, rank).
func (t *resourceTable) at(node, rank int) hw.Resource {
	row := t.rows[node]
	if len(row) == 1 {
		return row[0]
	}
	return row[rank%t.ra]
}

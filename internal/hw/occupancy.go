package hw

// Resource identifies one of a simulated device's independent occupancy
// timelines for overlapped execution (the DAG executor of internal/plan
// and internal/core): a compute engine plus one virtual link engine per
// interconnect tier. Ops bound to different resources of the same device
// may overlap in simulated time; ops on the same resource serialize —
// a device can run a GEMM while its NIC drains an all-reduce bucket,
// but two collectives on the same link tier queue behind each other.
type Resource uint8

const (
	// ResCompute is the device's kernel engine (gemm/spmm/mem charges).
	ResCompute Resource = iota
	// ResLinkIntra is the intra-node (tier-0) link engine.
	ResLinkIntra
	// ResLinkInter is the inter-node (tier-1) link engine.
	ResLinkInter
	// NumResources sizes per-resource arrays.
	NumResources
)

func (r Resource) String() string {
	switch r {
	case ResCompute:
		return "compute"
	case ResLinkIntra:
		return "link:intra"
	case ResLinkInter:
		return "link:inter"
	}
	return "unknown"
}

// Occupancy tracks one device's per-resource busy-until cursors during
// the charge walk (plan.DAG.Replay, behind plan.PriceDAGOn and the sim
// backend): each resource is a serial timeline, so an op starts at
// max(its resource's cursor, its dependencies' finish times) and
// advances only its own resource.
type Occupancy struct {
	busy [NumResources]float64
}

// Free returns when the resource is next available.
func (o *Occupancy) Free(r Resource) float64 { return o.busy[r] }

// Advance moves the resource's cursor to t if t is later.
func (o *Occupancy) Advance(r Resource, t float64) {
	if t > o.busy[r] {
		o.busy[r] = t
	}
}

// Makespan returns the latest cursor across all resources — the device's
// overlapped finish time.
func (o *Occupancy) Makespan() float64 {
	m := o.busy[0]
	for _, t := range o.busy[1:] {
		if t > m {
			m = t
		}
	}
	return m
}

// Join sets every resource's cursor to the makespan, modelling a
// synchronization point (an epoch boundary) where the device's engines
// rejoin a single timeline.
func (o *Occupancy) Join() {
	m := o.Makespan()
	for r := range o.busy {
		o.busy[r] = m
	}
}

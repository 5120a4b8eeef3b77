package plan

import (
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// This file prices a dependency DAG by exact per-device simulation:
// every device gets one occupancy cursor per resource (hw.Occupancy),
// every op replays the interpreter's charge sequence — the same kernel
// charges, in the same order, with each rank's own tile shapes — and
// every collective synchronizes its group to max(member deposits) +
// the fabric's own cost formula for the same group and byte census.
// Because both the charges and the rendezvous rule are copied from the
// executor rather than approximated, the resulting clocks equal the
// live fabric's device clocks exactly: overlapped clocks when each op
// starts at max(resource free, dependency finishes), sequential clocks
// when ops run back to back on a single timeline. verify pins both
// equalities (CheckOverlapEquivalence).

// Census carries the per-rank quantities pricing cannot derive from
// the schedule alone: the adjacency row-panel stored-entry counts the
// engine charges its SpMMs with, and optional straggler multipliers.
type Census struct {
	// NNZFwd and NNZBwd are each rank's forward (Aᵀ) and backward (A)
	// panel NNZ. Length P.
	NNZFwd, NNZBwd []int64
	// Slow optionally multiplies rank r's kernel charges (straggler
	// model, comm.Device.SetComputeSlowdown); nil or values <= 1 mean
	// no slowdown.
	Slow []float64
	// ABCPairs and NNZABC carry the KSpMMABC structural census: result
	// rows shipped r→q and each rank's partial-aggregation stored-entry
	// work. ApproxCensus fills them analytically when R_A == P (the
	// op's validity precondition) and the schedule holds a KSpMMABC op;
	// schedules without ABC ops ignore them.
	ABCPairs [][]int64
	NNZABC   []int64
}

// ApproxCensus estimates a census from a global stored-entry count by
// distributing nnz proportionally to each rank's panel rows, rounded
// up — the same formula the aggregate pricer (PriceOn) uses for its
// busiest-device panel. Use the engine's real panel counts
// (core.PanelCensus) when exact clock equality matters.
func (s *Schedule) ApproxCensus(nnz int64) Census {
	c := Census{NNZFwd: make([]int64, s.P), NNZBwd: make([]int64, s.P)}
	for r := 0; r < s.P; r++ {
		rlo, rhi := dist.RowRange(s.GridL, s.P, r, s.N)
		prows := rhi - rlo
		panel := (nnz*int64(prows) + int64(s.N) - 1) / int64(s.N)
		c.NNZFwd[r] = panel
		c.NNZBwd[r] = panel
	}
	if s.RA == s.P && s.CountKind(KSpMMABC) > 0 {
		c.ABCPairs, c.NNZABC = s.ApproxABCPairs(nnz)
	}
	return c
}

// DAGCost is the result of pricing a DAG on a topology: per-device
// overlapped and sequential finish times for the priced run, with
// their maxima. Charges depend on shapes, not values, so every epoch
// replays the same sequence — but ranks do not barrier at epoch
// boundaries, so an E-epoch run is not exactly E times one epoch;
// PriceDAGEpochs carries per-device clocks across boundaries the same
// way the live fabric does.
type DAGCost struct {
	PerDevice    []float64 // overlapped finish per rank
	Makespan     float64   // max over PerDevice
	PerDeviceSeq []float64
	SeqTime      float64
}

// Efficiency returns the overlap win as 1 - critical-path/sequential
// (0 = no op pair overlapped, larger = more comm hidden).
func (c DAGCost) Efficiency() float64 {
	if c.SeqTime <= 0 {
		return 0
	}
	return 1 - c.Makespan/c.SeqTime
}

// PriceDAG prices on the flat interconnect (nil topology).
func (d *DAG) PriceDAG(cen Census, h *hw.Model) DAGCost {
	return d.PriceDAGOn(cen, h, nil)
}

// PriceDAGOn prices the DAG's critical path on an interconnect
// topology (nil = flat, exactly the pre-topology fabric formulas) and,
// in the same pass structure, the sequential schedule, so callers can
// compare like for like. Collectives are priced under the fabric's
// default Auto algorithm selection.
func (d *DAG) PriceDAGOn(cen Census, h *hw.Model, tp *topo.Topology) DAGCost {
	return d.PriceDAGEpochs(cen, h, tp, 1)
}

// PriceDAGEpochs prices an E-epoch run: the schedule replays E times
// with per-device clocks carried across epoch boundaries (the overlap
// executor rejoins its resource lanes at each boundary — an occupancy
// Join — but ranks never barrier, so later epochs start from skewed
// clocks exactly as the live fabric does). The result equals the live
// device clocks after E epochs, overlapped and sequential.
func (d *DAG) PriceDAGEpochs(cen Census, h *hw.Model, tp *topo.Topology, epochs int) DAGCost {
	return d.PriceDAGEpochsCached(cen, h, tp, epochs, nil)
}

// PriceDAGEpochsCached is PriceDAGEpochs sharing a PriceCache across
// calls (nil prices with a private cache): a sweep that prices many
// schedules on one (P, hardware, topology) context — or differentially
// checks the sim engine against this pricer — computes each regrid's
// quadratic byte census and topology routing once. Cached and uncached
// pricing are bit-identical.
func (d *DAG) PriceDAGEpochsCached(cen Census, h *hw.Model, tp *topo.Topology, epochs int, pc *PriceCache) DAGCost {
	if pc == nil {
		pc = NewPriceCache()
	}
	over := d.simulate(cen, h, tp, true, epochs, pc)
	seq := d.simulate(cen, h, tp, false, epochs, pc)
	c := DAGCost{PerDevice: over, PerDeviceSeq: seq}
	for r := range over {
		c.Makespan = max(c.Makespan, over[r])
		c.SeqTime = max(c.SeqTime, seq[r])
	}
	return c
}

// regShape tracks a register's global shape and layout during the walk
// (the pricer's mirror of the executor's live matrices).
type regShape struct {
	layout     dist.Layout
	rows, cols int
}

// simulate replays the schedule's charge sequence on every device,
// epochs times. With overlap=true each op starts at max(its resource's
// cursor, its DAG dependencies' finishes) and advances only its
// resource, with all resources joined at each epoch boundary (the
// executor's lane merge); with overlap=false ops run in schedule order
// on a single joined timeline per device (resource cursors all advance
// together), reproducing the sequential interpreter.
func (d *DAG) simulate(cen Census, h *hw.Model, tp *topo.Topology, overlap bool, epochs int, pc *PriceCache) []float64 {
	s := d.Sched
	p := s.P
	pc.Bind(p, h, tp)
	occ := make([]hw.Occupancy, p)
	finish := make([][]float64, len(d.Nodes))
	regs := make(map[Reg]regShape, s.NumRegs)
	clk := make([]float64, p)
	world := s.world()
	var resTab *ResourceTable
	if overlap {
		resTab = d.Resources(tp)
	}

	kernel := func(r int, t float64) {
		if cen.Slow != nil && r < len(cen.Slow) && cen.Slow[r] > 1 {
			t *= cen.Slow[r]
		}
		clk[r] += t
	}
	mem := func(r int, bytes int64) { kernel(r, h.MemTime(bytes)) }
	// rendezvous synchronizes the group at max(deposits) + t, the
	// fabric's collective completion rule. Groups of one device
	// short-circuit before any charge.
	rendezvous := func(group []int, t float64) {
		if len(group) < 2 {
			return
		}
		var m float64
		for _, r := range group {
			m = max(m, clk[r])
		}
		for _, r := range group {
			clk[r] = m + t
		}
	}
	tile := func(l dist.Layout, r, rows, cols int) int64 {
		tr, tc := dist.TileShape(l, p, r, rows, cols)
		return int64(tr) * int64(tc) * 4
	}
	// The per-rank census of a from->to regrid — what rank r packs for
	// others (divide) and unpacks from others (merge), self excluded,
	// plus the busiest injector for the flat time formula — comes from
	// the PriceCache, which runs dist.TileOverlap's arithmetic over
	// precomputed range tables (bit-identical, memoized per shape).
	alltoallTime := func(from, to dist.Layout, rows, cols int, packed bool, maxInj int64) float64 {
		if p < 2 {
			return 0
		}
		if tp != nil {
			return pc.AllToAllCost(from, to, rows, cols, packed).Time
		}
		return h.CollectiveTime(hw.OpAllToAll, p, maxInj)
	}
	// regrid replays dist.regrid's charge order on every rank: divide
	// memcpy, all-to-all rendezvous, merge memcpy. The memcpy charges
	// are unconditional (ChargeMem(0) still costs a kernel launch).
	regrid := func(from, to dist.Layout, rows, cols int, packed bool) {
		x := pc.Exchange(from, to, rows, cols, packed)
		for _, r := range world {
			mem(r, x.Div[r])
		}
		rendezvous(world, alltoallTime(from, to, rows, cols, packed, x.MaxInj))
		for _, r := range world {
			mem(r, x.Mer[r])
		}
	}
	// sparseRounds replays one two-round sparse exchange's charge order
	// (dist.RedistributeSparse / the KSpMMABC result exchange): metadata
	// divide memcpy, metadata rendezvous, metadata merge, payload
	// divide, payload rendezvous, payload merge. timeOf prices one
	// round's collective under the topology (or the flat closed form
	// over the round's busiest injector).
	sparseRounds := func(x *SparseExchangeCensus, metaTime, payTime func() float64) {
		for _, r := range world {
			mem(r, x.MetaDiv[r])
		}
		rendezvous(world, metaTime())
		for _, r := range world {
			mem(r, x.MetaMer[r])
		}
		for _, r := range world {
			mem(r, x.PayDiv[r])
		}
		rendezvous(world, payTime())
		for _, r := range world {
			mem(r, x.PayMer[r])
		}
	}
	sparseRegrid := func(from, to dist.Layout, rows, cols int) {
		x := pc.SparseExchange(s, from, to, rows, cols)
		metaTime := func() float64 {
			if tp != nil {
				return pc.SparseAllToAllCost(s, from, to, rows, cols, true).Time
			}
			return h.CollectiveTime(hw.OpAllToAll, p, x.MetaMaxInj)
		}
		payTime := func() float64 {
			if tp != nil {
				return pc.SparseAllToAllCost(s, from, to, rows, cols, false).Time
			}
			return h.CollectiveTime(hw.OpAllToAll, p, x.PayMaxInj)
		}
		sparseRounds(x, metaTime, payTime)
	}
	allgatherTime := func(group []int, chunks []int64) float64 {
		if len(group) < 2 {
			return 0
		}
		if tp != nil {
			_, cst := tp.AllGather(h, topo.Auto, group, chunks)
			return cst.Time
		}
		var total int64
		for _, b := range chunks {
			total += b
		}
		return h.CollectiveTime(hw.OpAllGather, len(group), total)
	}
	allreduceTime := func(group []int, bytes int64) float64 {
		if len(group) < 2 {
			return 0
		}
		if tp != nil {
			_, cst := tp.AllReduce(h, topo.Auto, group, bytes)
			return cst.Time
		}
		return h.CollectiveTime(hw.OpAllReduce, len(group), bytes)
	}

	var wBytes int64
	for l := 1; l < len(s.Dims); l++ {
		wBytes += int64(s.Dims[l-1]) * int64(s.Dims[l]) * 4
	}
	if s.SAGE {
		wBytes *= 2
	}

	for ep := 0; ep < epochs; ep++ {
		for i := range d.Nodes {
			n := &d.Nodes[i]
			op := n.Op
			// Position each rank's clock where the op starts on it.
			if overlap {
				for r := 0; r < p; r++ {
					res := resTab.At(i, r)
					start := occ[r].Free(res)
					for _, m := range n.Deps {
						start = max(start, finish[m][r])
					}
					clk[r] = start
				}
			} else {
				for r := 0; r < p; r++ {
					clk[r] = occ[r].Free(hw.ResCompute)
				}
			}

			switch op.Kind {
			case KInput:
				regs[op.Dst] = regShape{op.Layout.Normalize(p), op.Rows, op.Cols}
			case KRedist:
				a := regs[op.A]
				from, to := a.layout, op.To.Normalize(p)
				switch {
				case from == to:
					// Pointer alias, free.
				case to == dist.R:
					// replicate: world allgather of ragged source tiles,
					// then the full-matrix assembly memcpy.
					chunks := make([]int64, p)
					for r := 0; r < p; r++ {
						chunks[r] = tile(from, r, a.rows, a.cols)
					}
					rendezvous(world, allgatherTime(world, chunks))
					for _, r := range world {
						mem(r, int64(a.rows)*int64(a.cols)*4)
					}
				case from == dist.R:
					// Distribute from a replicated local copy: free.
				default:
					if op.Sparse && s.SparseEligible(from, to) {
						sparseRegrid(from, to, a.rows, a.cols)
					} else {
						regrid(from, to, a.rows, a.cols, false)
					}
				}
				regs[op.Dst] = regShape{to, op.Rows, op.Cols}
			case KSpMM:
				a := regs[op.A]
				group := p / s.RA
				if group > 1 {
					// Each column group allgathers its ragged feature
					// slice concurrently; rank r participates in its own
					// group only.
					for j := 0; j < s.RA; j++ {
						grp := s.colGroup(j)
						chunks := make([]int64, len(grp))
						for k, r := range grp {
							chunks[k] = tile(s.GridL, r, a.rows, a.cols)
						}
						rendezvous(grp, allgatherTime(grp, chunks))
					}
					for r := 0; r < p; r++ {
						_, pcols := dist.TileShape(s.GridL, p, r, a.rows, a.cols)
						mem(r, int64(a.rows)*int64(pcols)*4)
					}
				}
				for r := 0; r < p; r++ {
					_, pcols := dist.TileShape(s.GridL, p, r, a.rows, a.cols)
					nnz := int64(0)
					src := cen.NNZBwd
					if op.Forward {
						src = cen.NNZFwd
					}
					if r < len(src) {
						nnz = src[r]
					}
					kernel(r, h.SpMMTime(nnz, pcols))
				}
				regs[op.Dst] = regShape{s.GridL, op.Rows, op.Cols}
			case KSpMMABC:
				a := regs[op.A]
				pairs, nnzABC := cen.ABCPairs, cen.NNZABC
				if pairs == nil {
					// Census built without the ABC fill (hand-rolled): fall
					// back to the analytic estimate over the panel total.
					var total int64
					for _, v := range cen.NNZFwd {
						total += v
					}
					pairs, nnzABC = s.ApproxABCPairs(total)
				}
				for r := 0; r < p; r++ {
					nnz := int64(0)
					if r < len(nnzABC) {
						nnz = nnzABC[r]
					}
					kernel(r, h.SpMMTime(nnz, a.cols))
				}
				meta, pay := abcFns(pairs, a.cols)
				x := buildSparseCensus(p, meta, pay)
				abcTime := func(fn func(i, j int) int64, maxInj int64) func() float64 {
					return func() float64 {
						if tp != nil {
							_, cst := tp.AllToAll(h, topo.Auto, world, fn)
							return cst.Time
						}
						return h.CollectiveTime(hw.OpAllToAll, p, maxInj)
					}
				}
				sparseRounds(x, abcTime(meta, x.MetaMaxInj), abcTime(pay, x.PayMaxInj))
				regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
			case KGEMM:
				a := regs[op.A]
				for r := 0; r < p; r++ {
					arows, _ := dist.TileShape(dist.H, p, r, a.rows, a.cols)
					kernel(r, h.GemmTime(arows, a.cols, op.Cols))
				}
				regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
			case KGradGEMM:
				a, bb := regs[op.A], regs[op.B]
				for r := 0; r < p; r++ {
					arows, _ := dist.TileShape(dist.H, p, r, a.rows, a.cols)
					kernel(r, h.GemmTime(a.cols, arows, bb.cols))
				}
				regs[op.Dst] = regShape{dist.R, op.Rows, op.Cols}
			case KAllReduceGrad:
				rendezvous(world, allreduceTime(world, int64(op.Rows)*int64(op.Cols)*4))
			case KReLU:
				a := regs[op.A]
				for r := 0; r < p; r++ {
					mem(r, tile(a.layout, r, a.rows, a.cols))
				}
			case KReLUGrad:
				u, src := regs[op.A], regs[op.B]
				if src.layout != u.layout {
					for r := 0; r < p; r++ {
						mem(r, tile(src.layout, r, src.rows, src.cols))
					}
					regrid(src.layout, u.layout, src.rows, src.cols, true)
				}
				for r := 0; r < p; r++ {
					mem(r, tile(u.layout, r, u.rows, u.cols))
				}
			case KAdd:
				a := regs[op.A]
				for r := 0; r < p; r++ {
					mem(r, tile(a.layout, r, a.rows, a.cols))
				}
			case KMemoize, KReuse:
				regs[op.Dst] = regs[op.A]
			case KLoss:
				a := regs[op.A]
				for r := 0; r < p; r++ {
					mem(r, 2*tile(dist.H, r, a.rows, a.cols))
				}
				rendezvous(world, allreduceTime(world, 8))
				regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
			case KMemWrite:
				a := regs[op.A]
				for r := 0; r < p; r++ {
					mem(r, tile(a.layout, r, a.rows, a.cols))
				}
			case KUpdate:
				for r := 0; r < p; r++ {
					mem(r, 4*wBytes)
				}
			}

			fin := make([]float64, p)
			copy(fin, clk)
			finish[i] = fin
			if overlap {
				for r := 0; r < p; r++ {
					occ[r].Advance(resTab.At(i, r), clk[r])
				}
			} else {
				for r := 0; r < p; r++ {
					occ[r].Advance(hw.ResCompute, clk[r])
					occ[r].Join()
				}
			}
		}
		if overlap {
			// Epoch boundary: the executor merges its lanes back into the
			// base device (clock = max over lanes) before the next fork.
			for r := 0; r < p; r++ {
				occ[r].Join()
			}
		}
	}
	out := make([]float64, p)
	for r := 0; r < p; r++ {
		out[r] = occ[r].Makespan()
	}
	return out
}

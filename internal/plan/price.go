package plan

import (
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// This file prices a compiled schedule: exact per-op fabric byte
// volumes (the planner-side source of truth the verifier reconciles
// against the simulator's meters byte-for-byte) plus an α–β/roofline
// time estimate driving the per-layer ordering chooser. The byte
// formulas reproduce the fabric's metering rules: an all-to-all counts
// every cross-pair chunk once, an allgather counts the group's total
// buffer (groupSize-1) times, an allreduce counts 2·bytes·(groupSize-1),
// and groups of one device short-circuit to zero.

// OpCost is the priced cost of one schedule step.
type OpCost struct {
	Step int
	Kind Kind
	// AllToAll, AllGather and AllReduce are the op's fabric byte volumes
	// by collective class, matching the simulator's meters exactly.
	AllToAll, AllGather, AllReduce int64
	// Side is byte-packed mask traffic on the fabric's side channel
	// (excluded from the primary meters, as the paper's model omits it).
	Side int64
	// Tier and SideTier split the primary and side volumes by link tier
	// (intra-node, inter-node). Only populated by PriceOn with a
	// topology; under flat pricing everything is tier 0.
	Tier     [topo.NumTiers]int64
	SideTier [topo.NumTiers]int64
	// Time estimates the op's duration on the busiest device.
	Time float64
}

// Cost is a priced schedule: the per-op breakdown plus totals.
type Cost struct {
	PerOp                          []OpCost
	AllToAll, AllGather, AllReduce int64
	Side                           int64
	Tier                           [topo.NumTiers]int64
	SideTier                       [topo.NumTiers]int64
	Time                           float64
}

// RDMBytes returns the volume the §IV cost model counts — all-to-all
// redistributions plus column-group allgathers — directly comparable to
// costmodel.EvaluateEngine's CommVolumeBytes and to the fabric's
// Volume(OpAllToAll) + Volume(OpAllGather).
func (c Cost) RDMBytes() int64 { return c.AllToAll + c.AllGather }

// Price walks the schedule once and prices every op. nnz is the global
// stored-entry count of the propagation operator (for SpMM kernel
// time); h is the hardware model time estimates are drawn from.
func (s *Schedule) Price(nnz int64, h *hw.Model) Cost {
	return s.PriceOn(nnz, h, nil)
}

// PriceOn prices the schedule on an interconnect topology. With tp ==
// nil it is exactly Price: the pre-topology flat formulas, bit-for-bit.
// With a topology, every collective is priced through internal/topo
// under the fabric's default Auto algorithm selection, so the op byte
// volumes — split per link tier — and the collective time terms equal
// the live fabric's meters and clocks for the same topology exactly.
func (s *Schedule) PriceOn(nnz int64, h *hw.Model, tp *topo.Topology) Cost {
	type rinfo struct {
		layout     dist.Layout
		rows, cols int
	}
	regs := make(map[Reg]rinfo, s.NumRegs)
	def := func(r Reg, l dist.Layout, rows, cols int) {
		regs[r] = rinfo{l.Normalize(s.P), rows, cols}
	}
	var world []int
	if tp != nil {
		world = make([]int, s.P)
		for i := range world {
			world[i] = i
		}
	}
	var c Cost
	for i := range s.Sections {
		for j := range s.Sections[i].Ops {
			op := &s.Sections[i].Ops[j]
			oc := OpCost{Step: op.Step, Kind: op.Kind}
			switch op.Kind {
			case KInput:
				def(op.Dst, op.Layout, op.Rows, op.Cols)
			case KRedist:
				if op.Sparse && s.SparseEligible(op.From, op.To) {
					// Two-round sparse exchange: metadata adverts on the
					// side channel, then the variable-volume payload. Each
					// round is its own fused rendezvous, so the time model
					// charges pack/collective/merge twice — mirroring
					// dist.RedistributeSparse's charge sequence.
					live := s.LiveSet()
					x := s.sparseExchange(op.From, op.To, op.Rows, op.Cols, live)
					if tp != nil {
						_, mc := tp.AllToAll(h, topo.Auto, world, s.sparsePairFn(op.From, op.To, op.Rows, op.Cols, live, true))
						_, pc := tp.AllToAll(h, topo.Auto, world, s.sparsePairFn(op.From, op.To, op.Rows, op.Cols, live, false))
						oc.Side, oc.SideTier = mc.Bytes(), mc.Tier
						oc.AllToAll, oc.Tier = pc.Bytes(), pc.Tier
						oc.Time = h.MemTime(x.MetaMaxInj) + mc.Time + h.MemTime(x.MetaMaxEj) +
							h.MemTime(x.PayMaxInj) + pc.Time + h.MemTime(x.PayMaxEj)
					} else {
						oc.Side = x.MetaTotal
						oc.AllToAll = x.PayTotal
						oc.Time = h.MemTime(x.MetaMaxInj) + h.CollectiveTime(hw.OpAllToAll, s.P, x.MetaMaxInj) + h.MemTime(x.MetaMaxEj) +
							h.MemTime(x.PayMaxInj) + h.CollectiveTime(hw.OpAllToAll, s.P, x.PayMaxInj) + h.MemTime(x.PayMaxEj)
					}
					def(op.Dst, op.To, op.Rows, op.Cols)
					break
				}
				vol, inj, ej := s.exchange(op.From, op.To, op.Rows, op.Cols, false)
				if tp != nil {
					_, cst := tp.AllToAll(h, topo.Auto, world, s.pairFn(op.From, op.To, op.Rows, op.Cols, false))
					oc.AllToAll = cst.Bytes()
					oc.Tier = cst.Tier
					oc.Time = h.MemTime(inj) + cst.Time + h.MemTime(ej)
				} else {
					oc.AllToAll = vol
					oc.Time = h.MemTime(inj) + h.CollectiveTime(hw.OpAllToAll, s.P, inj) + h.MemTime(ej)
				}
				def(op.Dst, op.To, op.Rows, op.Cols)
			case KSpMM:
				group := s.P / s.RA
				prows, pcols := dist.TileShape(s.GridL, s.P, 0, op.Rows, op.Cols)
				slice := int64(op.Rows) * int64(pcols) * 4
				if group > 1 && tp != nil {
					// R_A concurrent column-group allgathers, one per grid
					// column; each member contributes its live tile, so the
					// chunk census matches the fabric's ragged allgather
					// exactly. The op runs at the slowest group's pace.
					var worst float64
					for j := 0; j < s.RA; j++ {
						grp := make([]int, 0, group)
						chunks := make([]int64, 0, group)
						var total int64
						for r := j; r < s.P; r += s.RA {
							gr, gc := dist.TileShape(s.GridL, s.P, r, op.Rows, op.Cols)
							grp = append(grp, r)
							b := int64(gr) * int64(gc) * 4
							chunks = append(chunks, b)
							total += b
						}
						_, cst := tp.AllGather(h, topo.Auto, grp, chunks)
						oc.AllGather += cst.Bytes()
						for t := range cst.Tier {
							oc.Tier[t] += cst.Tier[t]
						}
						if t := cst.Time + h.MemTime(total); t > worst {
							worst = t
						}
					}
					oc.Time += worst
				} else if group > 1 {
					oc.AllGather = int64(group-1) * int64(op.Rows) * int64(op.Cols) * 4
					oc.Time += h.CollectiveTime(hw.OpAllGather, group, slice) + h.MemTime(slice)
				}
				panelNNZ := (nnz*int64(prows) + int64(op.Rows) - 1) / int64(op.Rows)
				oc.Time += h.SpMMTime(panelNNZ, pcols)
				def(op.Dst, s.GridL, op.Rows, op.Cols)
			case KSpMMABC:
				// Aggregate-before-communicate: each rank partial-aggregates
				// its own live rows against its full adjacency replica
				// (R_A == P), then the ranks run a two-round exchange of the
				// structurally-touched result rows, summed on arrival. The
				// structural census is the shared Erdős–Rényi estimate, so
				// this pricer and the charge walk agree on the same
				// integers.
				pairs, nnzABC := s.ApproxABCPairs(nnz)
				x, meta, pay := abcCensus(s.P, pairs, op.Cols)
				var worst float64
				for r := 0; r < s.P; r++ {
					if t := h.SpMMTime(nnzABC[r], op.Cols); t > worst {
						worst = t
					}
				}
				oc.Time = worst
				if tp != nil {
					_, mc := tp.AllToAll(h, topo.Auto, world, meta)
					_, pc := tp.AllToAll(h, topo.Auto, world, pay)
					oc.Side, oc.SideTier = mc.Bytes(), mc.Tier
					oc.AllToAll, oc.Tier = pc.Bytes(), pc.Tier
					oc.Time += h.MemTime(x.MetaMaxInj) + mc.Time + h.MemTime(x.MetaMaxEj) +
						h.MemTime(x.PayMaxInj) + pc.Time + h.MemTime(x.PayMaxEj)
				} else {
					oc.Side = x.MetaTotal
					oc.AllToAll = x.PayTotal
					oc.Time += h.MemTime(x.MetaMaxInj) + h.CollectiveTime(hw.OpAllToAll, s.P, x.MetaMaxInj) + h.MemTime(x.MetaMaxEj) +
						h.MemTime(x.PayMaxInj) + h.CollectiveTime(hw.OpAllToAll, s.P, x.PayMaxInj) + h.MemTime(x.PayMaxEj)
				}
				def(op.Dst, dist.H, op.Rows, op.Cols)
			case KGEMM:
				a := regs[op.A]
				m0, _ := dist.TileShape(dist.H, s.P, 0, op.Rows, op.Cols)
				oc.Time = h.GemmTime(m0, a.cols, op.Cols)
				def(op.Dst, dist.H, op.Rows, op.Cols)
			case KGradGEMM:
				a := regs[op.A]
				m0, _ := dist.TileShape(dist.H, s.P, 0, a.rows, a.cols)
				oc.Time = h.GemmTime(op.Rows, m0, op.Cols)
				def(op.Dst, dist.R, op.Rows, op.Cols)
			case KAllReduceGrad:
				buf := int64(op.Rows) * int64(op.Cols) * 4
				if tp != nil {
					_, cst := tp.AllReduce(h, topo.Auto, world, buf)
					oc.AllReduce = cst.Bytes()
					oc.Tier = cst.Tier
					oc.Time = cst.Time
				} else {
					if s.P > 1 {
						oc.AllReduce = 2 * buf * int64(s.P-1)
					}
					oc.Time = h.CollectiveTime(hw.OpAllReduce, s.P, buf)
				}
			case KReLU, KAdd:
				oc.Time = h.MemTime(tileBytes0(op.Layout, s.P, op.Rows, op.Cols))
			case KReLUGrad:
				apply := h.MemTime(tileBytes0(op.To, s.P, op.Rows, op.Cols))
				if op.From.Normalize(s.P) == op.To.Normalize(s.P) {
					oc.Time = apply
					break
				}
				vol, inj, ej := s.exchange(op.From, op.To, op.Rows, op.Cols, true)
				mask := h.MemTime(tileBytes0(op.From, s.P, op.Rows, op.Cols))
				if tp != nil {
					_, cst := tp.AllToAll(h, topo.Auto, world, s.pairFn(op.From, op.To, op.Rows, op.Cols, true))
					oc.Side = cst.Bytes()
					oc.SideTier = cst.Tier
					oc.Time = mask + h.MemTime(inj) + cst.Time + h.MemTime(ej) + apply
				} else {
					oc.Side = vol
					oc.Time = mask +
						h.MemTime(inj) + h.CollectiveTime(hw.OpAllToAll, s.P, inj) + h.MemTime(ej) +
						apply
				}
			case KMemoize, KReuse:
				a := regs[op.A]
				def(op.Dst, a.layout, op.Rows, op.Cols)
			case KLoss:
				tile := tileBytes0(dist.H, s.P, op.Rows, op.Cols)
				if tp != nil {
					_, cst := tp.AllReduce(h, topo.Auto, world, 8)
					oc.AllReduce = cst.Bytes()
					oc.Tier = cst.Tier
					oc.Time = h.MemTime(2*tile) + cst.Time
				} else {
					if s.P > 1 {
						oc.AllReduce = 2 * 8 * int64(s.P-1)
					}
					oc.Time = h.MemTime(2*tile) + h.CollectiveTime(hw.OpAllReduce, s.P, 8)
				}
				def(op.Dst, dist.H, op.Rows, op.Cols)
			case KMemWrite:
				a := regs[op.A]
				oc.Time = h.MemTime(tileBytes0(a.layout, s.P, a.rows, a.cols))
			case KUpdate:
				var wBytes int64
				for l := 1; l < len(s.Dims); l++ {
					wBytes += int64(s.Dims[l-1]) * int64(s.Dims[l]) * 4
				}
				if s.SAGE {
					wBytes *= 2
				}
				oc.Time = h.MemTime(4 * wBytes)
			}
			c.PerOp = append(c.PerOp, oc)
			c.AllToAll += oc.AllToAll
			c.AllGather += oc.AllGather
			c.AllReduce += oc.AllReduce
			c.Side += oc.Side
			for t := range oc.Tier {
				c.Tier[t] += oc.Tier[t]
				c.SideTier[t] += oc.SideTier[t]
			}
			c.Time += oc.Time
		}
	}
	return c
}

// PredictTime estimates one epoch's duration under the schedule — the
// planner-side analogue of costmodel.PredictEpochTime, computed per op
// rather than per closed-form term.
func (s *Schedule) PredictTime(nnz int64, h *hw.Model) float64 {
	return s.Price(nnz, h).Time
}

// exchange computes the exact all-to-all economics of a from->to
// redistribution of a rows x cols matrix: the metered volume (every
// cross-pair chunk counted once), the busiest device's injected bytes,
// and the busiest device's received bytes. With packed=true chunks are
// byte-packed masks (four elements per transmitted float32).
func (s *Schedule) exchange(from, to dist.Layout, rows, cols int, packed bool) (vol, maxInj, maxEj int64) {
	p := s.P
	from, to = from.Normalize(p), to.Normalize(p)
	inj := make([]int64, p)
	ej := make([]int64, p)
	for r := 0; r < p; r++ {
		for q := 0; q < p; q++ {
			if q == r {
				continue
			}
			n := dist.TileOverlap(from, r, to, q, p, rows, cols)
			if n == 0 {
				continue
			}
			b := 4 * int64(n)
			if packed {
				b = 4 * int64((n+3)/4)
			}
			vol += b
			inj[r] += b
			ej[q] += b
		}
	}
	for r := 0; r < p; r++ {
		maxInj = max(maxInj, inj[r])
		maxEj = max(maxEj, ej[r])
	}
	return vol, maxInj, maxEj
}

// pairFn returns the per-pair byte function of a from->to
// redistribution — the same census exchange() sums — in the shape
// internal/topo's all-to-all costers consume. With packed=true chunks
// are byte-packed masks.
func (s *Schedule) pairFn(from, to dist.Layout, rows, cols int, packed bool) func(i, j int) int64 {
	p := s.P
	from, to = from.Normalize(p), to.Normalize(p)
	return func(i, j int) int64 {
		n := dist.TileOverlap(from, i, to, j, p, rows, cols)
		if packed {
			return 4 * int64((n+3)/4)
		}
		return 4 * int64(n)
	}
}

// tileBytes0 returns device 0's tile size in bytes under a layout
// (device 0 always holds a largest tile: ragged splits give the first
// chunks the extra rows/columns).
func tileBytes0(l dist.Layout, p, rows, cols int) int64 {
	r, c := dist.TileShape(l, p, 0, rows, cols)
	return int64(r) * int64(c) * 4
}

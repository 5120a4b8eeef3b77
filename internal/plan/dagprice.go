package plan

import (
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// This file prices a dependency DAG by exact per-device simulation:
// PriceDAGEpochs runs the charge walk (replay.go) twice, overlapped and
// sequential, and returns its device clocks. Because the walk copies
// the executor's charges and rendezvous rule rather than approximating
// them, the priced clocks equal the live fabric's device clocks
// exactly; verify pins both equalities (CheckOverlapEquivalence).

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
// schedules on one (P, hardware, topology) context — and replays them
// on the sim backend — computes each regrid's quadratic byte census and
// topology routing once. Cached and uncached
// pricing are bit-identical.
func (d *DAG) PriceDAGEpochsCached(cen Census, h *hw.Model, tp *topo.Topology, epochs int, pc *PriceCache) DAGCost {
	if pc == nil {
		pc = NewPriceCache()
	}
	over := d.Replay(cen, h, tp, epochs, true, 0, nil, pc).Clocks
	seq := d.Replay(cen, h, tp, epochs, false, 0, nil, pc).Clocks
	c := DAGCost{PerDevice: over, PerDeviceSeq: seq}
	for r := range over {
		c.Makespan = max(c.Makespan, over[r])
		c.SeqTime = max(c.SeqTime, seq[r])
	}
	return c
}

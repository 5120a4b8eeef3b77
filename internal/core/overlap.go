package core

import (
	"sync"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/tensor"
)

// This file is the dependency-DAG executor behind Options.Overlap: the
// epoch's ops dispatch over per-resource device lanes (compute, intra
// link, inter link — hw.Resource) instead of one serial loop, so a GEMM
// can run while the NIC drains an all-reduce bucket. One goroutine per
// lane walks that lane's ops in schedule order, waiting on each op's
// DAG dependencies and advancing the lane clock to the dependencies'
// finish times before executing — exactly the occupancy model of the
// charge walk behind plan.PriceDAGOn and the sim backend
// (plan.DAG.Replay), which is why the live clocks equal the priced
// critical path. Numerics are untouched: each op runs the very same
// execOp code, collectives keep their group-position reduction order,
// and the DAG's write-after-read edges serialize every in-place mutation.
//
// Lane order is deadlock-free by construction: a collective's resource
// is a function of its group (plan.OpResource), so all members enter it
// from the same lane index, and every lane executes its ops in global
// schedule order — per-group rendezvous order is therefore identical on
// all ranks. Under injected faults the first panic (the fault.Killed on
// the crashed rank, a *comm.FaultError on survivors) re-raises on the
// device goroutine immediately, without waiting for blocked sibling
// lanes: those are woken by the fabric's markDead broadcast, observe
// ErrPeerDead, and self-terminate, so the run degrades exactly like the
// sequential interpreter (typed error, no deadlock, no goroutine leak).

// dag returns the schedule's dependency DAG, built once.
func (e *Engine) dagLazy() *plan.DAG {
	if e.dag == nil {
		e.dag = plan.MustBuildDAG(e.sched)
	}
	return e.dag
}

// DAG exposes the schedule's dependency DAG (built on first use), for
// pricing and verification.
func (e *Engine) DAG() *plan.DAG { return e.dagLazy() }

// PanelCensus computes the per-rank adjacency panel stored-entry counts
// of a problem under (P, RA) partitioning — the exact census the DAG
// pricer needs to reproduce the engine's SpMM charges (Engine
// extractPanels slices the same panels). ra = 0 means full replication
// (RA = P), mirroring Options.
func PanelCensus(prob *Problem, p, ra int) plan.Census {
	if ra == 0 {
		ra = p
	}
	gridL := dist.G(ra).Normalize(p)
	cen := plan.Census{NNZFwd: make([]int64, p), NNZBwd: make([]int64, p)}
	for r := 0; r < p; r++ {
		rlo, rhi := dist.RowRange(gridL, p, r, prob.N())
		cen.NNZBwd[r] = prob.A.RowPanel(rlo, rhi).NNZ()
		if prob.ATranspose != nil {
			cen.NNZFwd[r] = prob.ATranspose.RowPanel(rlo, rhi).NNZ()
		} else {
			cen.NNZFwd[r] = cen.NNZBwd[r]
		}
	}
	return cen
}

// runOverlap executes one epoch's schedule as a dependency DAG over the
// device's resource lanes. regs and grads are the epoch's register file
// and gradient slots, same as the sequential path.
func (e *Engine) runOverlap(regs []*dist.Mat, grads []*tensor.Dense) {
	d := e.dagLazy()
	nodes := d.Nodes
	// Partition nodes by the resource they occupy on this rank. Each
	// list stays in ascending node-index (schedule) order.
	var perRes [hw.NumResources][]int
	for i := range nodes {
		res := e.sched.OpResource(nodes[i].Op, e.dev.Rank, e.opts.Topology)
		perRes[res] = append(perRes[res], i)
	}
	// Lanes: compute ops run on the base device itself; link ops on
	// forked lanes starting at the base clock with their own trace
	// track. Scope tags must be set here, before the workers fork, so
	// the tracer materializes each track from a single goroutine.
	cfg := e.opts.Config.String()
	epoch := e.epoch - 1 // Epoch() tagged the base with its pre-increment value
	var lanes [hw.NumResources]*comm.Device
	lanes[hw.ResCompute] = e.dev
	for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
		if len(perRes[res]) == 0 {
			continue
		}
		l := e.dev.Lane(int(res))
		l.TraceSetConfig(cfg)
		l.TraceSetEpoch(epoch)
		lanes[res] = l
	}

	done := make([]chan struct{}, len(nodes))
	for i := range done {
		done[i] = make(chan struct{})
	}
	finish := make([]float64, len(nodes)) // written before close(done[i])
	abort := make(chan struct{})
	failed := make(chan struct{})
	var failMu sync.Mutex
	var firstPanic any
	var abortOnce sync.Once
	var wg sync.WaitGroup

	worker := func(lane *comm.Device, list []int) {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				failMu.Lock()
				if firstPanic == nil {
					firstPanic = p
					close(failed)
				}
				failMu.Unlock()
				abortOnce.Do(func() { close(abort) })
			}
		}()
		for _, i := range list {
			n := &nodes[i]
			for _, dep := range n.Deps {
				select {
				case <-done[dep]:
				case <-abort:
					return
				}
			}
			select {
			case <-abort:
				return
			default:
			}
			for _, dep := range n.Deps {
				lane.AdvanceClock(finish[dep])
			}
			lane.TraceSetStep(n.Op.Step)
			e.execOp(lane, n.Op, regs, grads)
			lane.TraceSetStep(0)
			finish[i] = lane.Clock()
			close(done[i])
		}
	}
	for res := hw.Resource(0); res < hw.NumResources; res++ {
		if lanes[res] == nil || len(perRes[res]) == 0 {
			continue
		}
		wg.Add(1)
		go worker(lanes[res], perRes[res])
	}
	allDone := make(chan struct{})
	go func() { wg.Wait(); close(allDone) }()

	select {
	case <-allDone:
		// Clean epoch: rejoin the link lanes into the base timeline
		// (clock = max, meters summed) — the occupancy Join of the
		// pricer's epoch boundary.
		for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
			if lanes[res] != nil {
				e.dev.MergeLane(lanes[res])
			}
		}
	case <-failed:
		// Re-raise the first worker panic on the device goroutine NOW —
		// waiting for the full wg would deadlock: sibling lanes blocked
		// inside a dead rank's collective round only wake once the
		// fabric marks this rank dead, which needs this goroutine to
		// exit. The stragglers then observe ErrPeerDead and return.
		failMu.Lock()
		p := firstPanic
		failMu.Unlock()
		panic(p)
	}
}

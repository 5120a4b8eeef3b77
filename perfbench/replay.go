package main

// Shape-exact replays: each layer call a workload makes is repeated on
// its own, at the workload's exact shapes, to give host seconds per call.
// Counts (how many such calls an op makes) come from the tracer and the
// fabric meters; a replay only prices them.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/tensor"
	"gnnrdm/internal/topo"
)

// replayBudget bounds the time spent timing one call shape.
const replayBudget = 300 * time.Millisecond

// perCall times fn after one warm-up call, at least three times and until
// the budget is spent, and returns the median seconds per call.
func perCall(fn func()) float64 {
	fn()
	var ts []float64
	start := time.Now()
	for len(ts) < 3 || (time.Since(start) < replayBudget && len(ts) < 1000) {
		t := time.Now()
		fn()
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts)
}

// collective times reps back-to-back calls of fn on every device of a
// fresh p-device fabric, in batches, and returns the median seconds per
// call, the metered bytes per call and the heap allocations per call.
func collective(p, reps int, setup func(d *comm.Device) func()) (secs, bytesPerCall, allocs float64) {
	fab := comm.NewFabric(p, hw.A6000())
	calls := make([]func(), p)
	fab.Run(func(d *comm.Device) { calls[d.Rank] = setup(d) })
	batch := func() {
		fab.Run(func(d *comm.Device) {
			for i := 0; i < reps; i++ {
				calls[d.Rank]()
			}
		})
	}
	batch() // warm-up
	var vol0 int64
	for k := hw.CollectiveKind(0); k < hw.NumCollectiveKinds; k++ {
		vol0 += fab.Volume(k)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ts []float64
	start := time.Now()
	for len(ts) < 3 || (time.Since(start) < replayBudget && len(ts) < 100) {
		t := time.Now()
		batch()
		ts = append(ts, time.Since(t).Seconds()/float64(reps))
	}
	runtime.ReadMemStats(&ms1)
	n := float64(len(ts) * reps)
	var vol1 int64
	for k := hw.CollectiveKind(0); k < hw.NumCollectiveKinds; k++ {
		vol1 += fab.Volume(k)
	}
	return median(ts), float64(vol1-vol0) / n, float64(ms1.Mallocs-ms0.Mallocs) / n
}

func randDense(rng *rand.Rand, r, c int) *tensor.Dense {
	d := tensor.NewDense(r, c)
	d.Randomize(rng, 1)
	return d
}

// kernelShape is one dense kernel call: kind is "gemm" (MatMul), "ta"
// (MatMulTA) or "tb" (MatMulTB); the product has m·k·n multiply-adds.
type kernelShape struct {
	kind    string
	m, k, n int
}

func (s kernelShape) fma() int64 { return int64(s.m) * int64(s.k) * int64(s.n) }

// time replays the kernel at its shape, p calls at once as the p device
// goroutines of an epoch make them, and returns host seconds per call.
func (s kernelShape) time(rng *rand.Rand, p int) float64 {
	var call func()
	switch s.kind {
	case "gemm":
		a, b := randDense(rng, s.m, s.k), randDense(rng, s.k, s.n)
		call = func() { tensor.MatMul(a, b) }
	case "ta":
		// MatMulTA(a m'×k', b m'×n') has k'·m'·n' multiply-adds; the
		// shape stores the reduced dimension as k.
		a, b := randDense(rng, s.k, s.m), randDense(rng, s.k, s.n)
		call = func() { tensor.MatMulTA(a, b) }
	case "tb":
		a, b := randDense(rng, s.m, s.k), randDense(rng, s.n, s.k)
		call = func() { tensor.MatMulTB(a, b) }
	default:
		panic("perfbench: unknown kernel kind " + s.kind)
	}
	return perCall(func() { concurrently(p, call) }) / float64(p)
}

// concurrently runs fn on p goroutines and waits for all of them.
func concurrently(p int, fn func()) {
	var wg sync.WaitGroup
	wg.Add(p)
	for i := 0; i < p; i++ {
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	wg.Wait()
}

// trainReplay holds the train-live replays.
type trainReplay struct {
	gemmGF, taGF, tbGF, spmmGF float64
	// tensorBusy and sparseBusy are host seconds per epoch summed over
	// every device's calls. Kernel replays run the P devices' calls at
	// once, as an epoch does, so GFLOP/s is the host rate under that load.
	tensorBusy, sparseBusy float64
	// gemmFMA/spmmFMA and the call counts are per epoch over all devices,
	// derived from the schedule for cross-checking the tracer.
	gemmFMA, spmmFMA     int64
	gemmCalls, spmmCalls int64
	nsPerByte, allocs    float64
	redistS              float64
}

// replayTrain derives every kernel call of one epoch from the compiled
// schedule, times each distinct shape, and times the H→V regrid and its
// all-to-all at the training shape.
func replayTrain(ts *trainSetup, s *plan.Schedule, sl *spanLog) *trainReplay {
	root := sl.open("replay", "replay", 0, -1)
	defer sl.close(root)
	rng := rand.New(rand.NewSource(1))
	rp := &trainReplay{}
	p, n := s.P, s.N
	a := ts.prob.A
	kcache := map[kernelShape]float64{}
	best := map[string]kernelShape{}
	type spmmShape struct{ r0, r1, cols int }
	scache := map[spmmShape]float64{}
	var bestSpMM spmmShape
	var bestSpMMFMA int64
	for si := range s.Sections {
		for oi := range s.Sections[si].Ops {
			op := &s.Sections[si].Ops[oi]
			for r := 0; r < p; r++ {
				lo, hi := dist.RowRange(dist.H, p, r, n)
				m := hi - lo
				var ks kernelShape
				switch op.Kind {
				case plan.KGEMM:
					in, out := s.Dims[op.Weight], s.Dims[op.Weight+1]
					ks = kernelShape{"gemm", m, in, out}
					if op.TransW {
						ks = kernelShape{"tb", m, out, in}
					}
				case plan.KGradGEMM:
					ks = kernelShape{"ta", op.Rows, m, op.Cols}
				case plan.KSpMM:
					r0, r1 := dist.RowRange(s.GridL, p, r, n)
					_, tc := dist.TileShape(s.GridL, p, r, n, op.Cols)
					sh := spmmShape{r0, r1, tc}
					fma := (a.RowPtr[r1] - a.RowPtr[r0]) * int64(tc)
					t, ok := scache[sh]
					if !ok {
						panel := a.RowPanel(r0, r1)
						in := randDense(rng, n, tc)
						id := sl.open("sparse.spmm", fmt.Sprintf("rows %d-%d width %d", r0, r1, tc), root, -1)
						t = perCall(func() { concurrently(p, func() { panel.SpMM(in) }) }) / float64(p)
						sl.close(id)
						scache[sh] = t
					}
					rp.spmmCalls++
					rp.spmmFMA += fma
					rp.sparseBusy += t
					if fma > bestSpMMFMA {
						bestSpMM, bestSpMMFMA = sh, fma
					}
					continue
				default:
					continue
				}
				t, ok := kcache[ks]
				if !ok {
					id := sl.open("tensor."+ks.kind, fmt.Sprintf("%dx%dx%d", ks.m, ks.k, ks.n), root, -1)
					t = ks.time(rng, p)
					sl.close(id)
					kcache[ks] = t
				}
				rp.gemmCalls++
				rp.gemmFMA += ks.fma()
				rp.tensorBusy += t
				if ks.fma() > best[ks.kind].fma() {
					best[ks.kind] = ks
				}
			}
		}
	}
	gf := func(ks kernelShape) float64 {
		if ks.kind == "" {
			return 0
		}
		return 2 * float64(ks.fma()) / kcache[ks] / 1e9
	}
	rp.gemmGF, rp.taGF, rp.tbGF = gf(best["gemm"]), gf(best["ta"]), gf(best["tb"])
	if bestSpMMFMA > 0 {
		rp.spmmGF = 2 * float64(bestSpMMFMA) / scache[bestSpMM] / 1e9
	}

	// The regrid every training redistribution performs: H→V of an n×f
	// matrix, and the all-to-all under it with the same part sizes.
	f := s.Dims[1]
	x := randDense(rng, n, f)
	id := sl.open("dist.redistribute", fmt.Sprintf("H->V %dx%d", n, f), root, -1)
	rp.redistS, _, _ = collective(p, 4, func(d *comm.Device) func() {
		m := dist.Distribute(d, dist.H, x)
		return func() { m.Redistribute(dist.V) }
	})
	sl.close(id)
	id = sl.open("comm.alltoall", fmt.Sprintf("P=%d regrid parts", p), root, -1)
	secs, bytes, allocs := collective(p, 4, func(d *comm.Device) func() {
		lo, hi := dist.RowRange(dist.H, p, d.Rank, n)
		parts := make([][]float32, p)
		for j := range parts {
			clo, chi := dist.ColRange(dist.V, p, j, f)
			parts[j] = make([]float32, (hi-lo)*(chi-clo))
		}
		return func() { d.AllToAll(d.World(), parts) }
	})
	sl.close(id)
	rp.nsPerByte = secs * 1e9 / bytes
	rp.allocs = allocs
	return rp
}

// checkAgainst compares the schedule-derived kernel census with what the
// tracer recorded over epochs traced epochs.
func (rp *trainReplay) checkAgainst(ev eventCounts, epochs int) error {
	e := int64(epochs)
	got := [4]int64{ev.gemmCalls, ev.gemmFMA, ev.spmmCalls, ev.spmmFMA}
	want := [4]int64{rp.gemmCalls * e, rp.gemmFMA * e, rp.spmmCalls * e, rp.spmmFMA * e}
	if got != want {
		return fmt.Errorf("train-live: traced gemm calls/FMA, spmm calls/FMA %v, schedule gives %v", got, want)
	}
	return nil
}

// smallGather times the serving path's per-microbatch exchange: a
// GatherRows of rows from an n×w vertex-sliced matrix to rank 0, and the
// bare all-to-all under it (every owner sends its rows to the root).
func smallGather(p, n, w int, rows []int32) (gatherUS, a2aUS, allocs float64) {
	rng := rand.New(rand.NewSource(1))
	x := randDense(rng, n, w)
	secs, _, _ := collective(p, 500, func(d *comm.Device) func() {
		m := dist.Distribute(d, dist.H, x)
		return func() { m.GatherRows(0, rows) }
	})
	gatherUS = secs * 1e6
	secs, _, allocs = collective(p, 500, func(d *comm.Device) func() {
		lo, hi := dist.RowRange(dist.H, p, d.Rank, n)
		var mine []float32
		for _, r := range rows {
			if int(r) >= lo && int(r) < hi {
				mine = append(mine, x.Row(int(r))...)
			}
		}
		parts := make([][]float32, p)
		parts[0] = mine
		return func() { d.AllToAll(d.World(), parts) }
	})
	return gatherUS, secs * 1e6, allocs
}

// topoAllToAll times Topology.AllToAll under the Auto policy at the
// sweep's regrid shape (H→V of an n×f matrix over p ranks).
func topoAllToAll(tp *topo.Topology, p, n, f int) float64 {
	world := make([]int, p)
	for i := range world {
		world[i] = i
	}
	pair := func(i, j int) int64 {
		if i == j {
			return 0
		}
		lo, hi := dist.RowRange(dist.H, p, i, n)
		clo, chi := dist.ColRange(dist.V, p, j, f)
		return 4 * int64(hi-lo) * int64(chi-clo)
	}
	h := hw.A6000()
	return perCall(func() { tp.AllToAll(h, topo.Auto, world, pair) })
}

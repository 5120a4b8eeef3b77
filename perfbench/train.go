package main

// train-live: live-fabric GCN training at the rdmtrain baseline shape —
// a planted-partition graph with n=32768 and nnz≈8n, f=128, hidden=128,
// 8 classes, L=2, P=8 flat, planner-chosen ordering, memoize on. One
// core.Engine per device runs inside comm.Fabric.Run, with Engine.Epoch
// and a world barrier per epoch, exactly as core.TrainResumable drives
// it. The P=8 devices are the program's own goroutines.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/core"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/trace"
)

const (
	trainN       = 32768
	trainShortN  = 2048
	trainF       = 128
	trainHidden  = 128
	trainClasses = 8
	trainP       = 8
	// trainSetupReps is how many times a run builds the set-up; setup_s
	// is the median.
	trainSetupReps = 3
	// trainMinEpochs is the least number of timed epochs a phase runs,
	// however short -seconds is.
	trainMinEpochs = 3
	// trainTraceBlock is how many epochs a traced run trains on one build
	// before switching to the other.
	trainTraceBlock = 2
)

// trainGoldenJSON holds the default seed's losses of epochs 1, 2, ...
// (epoch 0 is the untimed warm-up) as exactly round-tripping numbers.
//
//go:embed testdata/train_loss_seed1.json
var trainGoldenJSON []byte

// kinds are the collective kinds training and serving use.
var kinds = []hw.CollectiveKind{hw.OpAllGather, hw.OpAllReduce, hw.OpAllToAll}

// trainSetup is one built training job.
type trainSetup struct {
	prob    *core.Problem
	opts    core.Options
	fab     *comm.Fabric
	engines []*core.Engine
	// Phase seconds of the build.
	generate, normalize, choose, newEngine, total float64
}

// buildTrain generates the graph, normalizes it, lets the planner choose
// the ordering and constructs one engine per device.
func buildTrain(n int, seed int64, sl *spanLog) *trainSetup {
	ts := &trainSetup{}
	root := sl.open("setup", "setup", 0, -1)
	t0 := time.Now()

	id := sl.open("graph.generate", "setup", root, -1)
	rng := rand.New(rand.NewSource(seed))
	adj, labels := graph.PlantedPartition(rng, n, int64(8*n), trainClasses, 0.8)
	x := graph.SynthesizeFeatures(rng, labels, trainClasses, trainF, 0.8)
	sl.close(id)
	t1 := time.Now()

	id = sl.open("sparse.normalize", "setup", root, -1)
	ts.prob = &core.Problem{A: sparse.GCNNormalize(adj), X: x, Labels: labels}
	sl.close(id)
	t2 := time.Now()

	id = sl.open("plan.choose_ordering", "setup", root, -1)
	dims := []int{trainF, trainHidden, trainClasses}
	cfg := plan.ChooseOrdering(plan.Spec{N: n, Dims: dims, P: trainP, RA: trainP, Memoize: true},
		ts.prob.A.NNZ(), hw.A6000())
	sl.close(id)
	t3 := time.Now()

	id = sl.open("core.new_engine", "setup", root, -1)
	ts.opts = core.Options{Dims: dims, Config: cfg, Memoize: true, LR: 0.01, Seed: seed}
	ts.fab = comm.NewFabric(trainP, hw.A6000())
	ts.engines = make([]*core.Engine, trainP)
	ts.fab.Run(func(d *comm.Device) {
		ts.engines[d.Rank] = core.NewEngine(d, ts.prob, ts.opts)
	})
	sl.close(id)
	t4 := time.Now()
	sl.close(root)

	ts.generate, ts.normalize = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	ts.choose, ts.newEngine = t3.Sub(t2).Seconds(), t4.Sub(t3).Seconds()
	ts.total = t4.Sub(t0).Seconds()
	return ts
}

// trainEpoch is one epoch as the host saw it.
type trainEpoch struct {
	wall  float64 // host seconds, barrier release to barrier release
	wait  float64 // mean over ranks of host seconds parked at the barrier
	sim   float64 // simulated makespan of the epoch
	loss  float64
	calls [hw.NumCollectiveKinds]int64
	bytes [hw.NumCollectiveKinds]int64
	side  int64
}

// runEpochs trains until at least min epochs ran and seconds elapsed,
// returning one record per epoch. warm epochs run first and are not
// returned.
func runEpochs(ts *trainSetup, seconds float64, min, warm int, sl *spanLog, first int) []trainEpoch {
	fab := ts.fab
	var (
		stop     atomic.Bool
		recs     []trainEpoch
		rankEnd  [trainP]time.Time
		rankSim  [trainP]float64
		prevSim  [trainP]float64
		prevVol  [hw.NumCollectiveKinds]int64
		prevCall [hw.NumCollectiveKinds]int64
		prevSide int64
	)
	for _, k := range kinds {
		prevVol[k], prevCall[k] = fab.Volume(k), fab.Calls(k)
	}
	prevSide = fab.TotalSideVolume()
	for r := 0; r < trainP; r++ {
		prevSim[r] = fab.Device(r).Clock()
	}
	var measureStart time.Time
	epoch := 0
	epochStart := time.Now()
	epochSpan := sl.open("train.epoch", fmt.Sprintf("epoch %d", first), 0, -1)
	fab.Run(func(d *comm.Device) {
		eng := ts.engines[d.Rank]
		for {
			grp := fmt.Sprintf("epoch %d", first+epoch)
			id := sl.open("core.epoch", grp, epochSpan, d.Rank)
			loss := eng.Epoch()
			sl.close(id)
			rankEnd[d.Rank] = time.Now()
			id = sl.open("comm.barrier", grp, epochSpan, d.Rank)
			d.Barrier(d.World())
			sl.close(id)
			rankSim[d.Rank] = d.Clock()
			if d.Rank == 0 {
				// Every device is parked between the two barriers, so the
				// meters and the per-rank slots are stable here.
				now := time.Now()
				sl.close(epochSpan)
				rec := trainEpoch{wall: now.Sub(epochStart).Seconds(), loss: loss}
				for _, t := range rankEnd {
					rec.wait += now.Sub(t).Seconds() / trainP
				}
				for _, k := range kinds {
					v, c := fab.Volume(k), fab.Calls(k)
					rec.bytes[k], rec.calls[k] = v-prevVol[k], c-prevCall[k]
					prevVol[k], prevCall[k] = v, c
				}
				side := fab.TotalSideVolume()
				rec.side, prevSide = side-prevSide, side
				epoch++
				if epoch > warm {
					recs = append(recs, rec)
					if epoch == warm+1 {
						measureStart = epochStart
					}
				}
				if len(recs) >= min && now.Sub(measureStart).Seconds() >= seconds {
					stop.Store(true)
				} else {
					epochSpan = sl.open("train.epoch", fmt.Sprintf("epoch %d", first+epoch), 0, -1)
				}
			}
			d.Barrier(d.World())
			if d.Rank == 0 {
				// rankSim is written by each device before the second
				// barrier and read only here, after it.
				i := len(recs) - 1
				var m float64
				for r := range rankSim {
					m = math.Max(m, rankSim[r]-prevSim[r])
					prevSim[r] = rankSim[r]
				}
				if epoch > warm {
					recs[i].sim = m
				}
				epochStart = time.Now()
			}
			if stop.Load() {
				return
			}
		}
	})
	return recs
}

func runTrain(o options, c *checks, sl *spanLog) (*report, error) {
	n := trainN
	if o.short {
		n = trainShortN
	}
	rep := &report{}

	// Set-up, several times. The last build is trained; a traced run also
	// keeps the one before, trains it with the tracer attached, and
	// alternates blocks of epochs between the two so host drift hits both
	// alike.
	var ts, tts *trainSetup
	var totals, gens, norms, chooses, engs []float64
	for i := 0; i < trainSetupReps; i++ {
		if o.trace {
			tts = ts
		}
		ts = nil
		runtime.GC()
		ts = buildTrain(n, o.seed, sl)
		totals = append(totals, ts.total)
		gens = append(gens, ts.generate)
		norms = append(norms, ts.normalize)
		chooses = append(chooses, ts.choose)
		engs = append(engs, ts.newEngine)
	}
	runtime.GC()
	rssSetup := maxRSSMB()
	rep.inputs = fingerprint(ts.prob.A.RowPtr, ts.prob.A.ColIdx, ts.prob.X.Data, ts.prob.Labels)
	sched := ts.engines[0].Schedule()
	rep.note("train-live: n=%d nnz=%d dims=%v P=%d ordering cfg %d (%v)",
		n, ts.prob.A.NNZ(), ts.opts.Dims, trainP, ts.opts.Config.ID(), ts.opts.Config)

	var recs, traced []trainEpoch
	var tr *trace.Tracer
	var allocs, gcs uint64
	measured := func(fn func()) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		fn()
		runtime.ReadMemStats(&ms1)
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
	}
	if !o.trace {
		measured(func() { recs = runEpochs(ts, o.seconds, trainMinEpochs, 1, nil, 0) })
	} else {
		tr = trace.NewTracer(0)
		tts.fab.SetTracer(tr, "train-live")
		start := time.Now()
		for warm := 1; len(traced) < trainMinEpochs || time.Since(start).Seconds() < o.seconds; warm = 0 {
			measured(func() { recs = append(recs, runEpochs(ts, 0, trainTraceBlock, warm, nil, 0)...) })
			traced = append(traced, runEpochs(tts, 0, trainTraceBlock, warm, sl, len(traced)+1)...)
		}
	}

	walls := epochWalls(recs)
	p50 := median(walls)
	rep.set("ops_per_s", 1/p50)
	rep.set("setup_s", median(totals))
	rep.set("max_rss_mb", maxRSSMB())
	rep.note("train-live: %d timed epochs, epoch p50 %.4fs, epochs_per_s %.4f, setup_s %.4f, peak rss %.1f MB after set-up",
		len(recs), p50, 1/p50, median(totals), rssSetup)

	// Checks: every epoch's fabric bytes equal the schedule's price, and
	// the losses follow the golden (both builds train the same model).
	price := sched.Price(ts.prob.A.NNZ(), hw.A6000())
	for _, seq := range [][]trainEpoch{recs, traced} {
		if len(seq) == 0 {
			continue
		}
		losses := make([]float64, len(seq))
		for i, r := range seq {
			c.op(1, checkEpochBytes(i, r, price))
			losses[i] = r.loss
		}
		lb, _ := json.Marshal(losses)
		rep.note("train-live losses of epochs 1..%d: %s", len(seq), lb)
		c.op(int64(len(seq)), checkLosses(o, seq))
	}
	if !o.trace {
		return rep, nil
	}

	// Per-layer numbers, per epoch.
	rep.set("graph.generate_s", median(gens))
	rep.set("sparse.normalize_s", median(norms))
	rep.set("plan.choose_ordering_s", median(chooses))
	rep.set("core.new_engine_s", median(engs))
	rep.set("core.epoch_s_p50", p50)
	tv, tp := tail(walls)
	rep.set("core.epoch_s_tail", tv)
	rep.set("core.epoch_tail_pct", tp)
	rep.set("core.epoch_samples", float64(len(walls)))
	var waits, hostPerSim []float64
	for _, r := range recs {
		waits = append(waits, r.wait)
		hostPerSim = append(hostPerSim, r.wall/r.sim)
	}
	rep.set("core.barrier_wait_s", median(waits))
	rep.set("core.host_per_sim", median(hostPerSim))
	// The untraced blocks ran one warm-up epoch beyond recs.
	rep.set("go.alloc_bytes_per_op", float64(allocs)/float64(len(recs)+1))
	rep.set("go.gc_cycles", float64(gcs)/float64(len(recs)+1))
	setComm(rep, recs[0])
	before := plan.Compile(plan.Spec{N: n, Dims: ts.opts.Dims, Config: ts.opts.Config,
		P: trainP, RA: trainP, Memoize: true})
	rep.set("plan.ops_kept_ratio", float64(sched.Ops())/float64(before.Ops()))

	// Kernel counts from the tracer's event stream. The traced build's
	// warm-up epochs are traced too.
	ev := countEvents(tr)
	if ev.dropped > 0 {
		c.op(1, fmt.Errorf("train-live: tracer dropped %d events", ev.dropped))
	}
	tracedEpochs := len(traced) + 1
	rep.set("tensor.gemm.calls", float64(ev.gemmCalls)/float64(tracedEpochs))
	rep.set("tensor.gemm.flops", 2*float64(ev.gemmFMA)/float64(tracedEpochs))
	rep.set("sparse.spmm.calls", float64(ev.spmmCalls)/float64(tracedEpochs))
	rep.set("sparse.spmm.flops", 2*float64(ev.spmmFMA)/float64(tracedEpochs))
	rep.set("dist.redistribute.calls", float64(ev.redist)/float64(tracedEpochs))

	// Host seconds per call from shape-exact replays.
	rp := replayTrain(ts, sched, sl)
	c.op(1, rp.checkAgainst(ev, tracedEpochs))
	rep.set("tensor.gemm.gflops", rp.gemmGF)
	rep.set("tensor.matmul_ta.gflops", rp.taGF)
	rep.set("tensor.matmul_tb.gflops", rp.tbGF)
	rep.set("tensor.busy_s", rp.tensorBusy)
	rep.set("sparse.spmm.gflops", rp.spmmGF)
	rep.set("sparse.busy_s", rp.sparseBusy)
	rep.set("comm.alltoall.ns_per_byte", rp.nsPerByte)
	rep.set("comm.allocs_per_op", rp.allocs)
	rep.set("dist.redistribute.s", rp.redistS)
	var epochBytes, a2aBytes int64
	for _, k := range kinds {
		epochBytes += recs[0].bytes[k]
	}
	a2aBytes = recs[0].bytes[hw.OpAllToAll]
	nsB := rp.nsPerByte * 1e-9
	rep.set("comm.busy_s", float64(epochBytes)*nsB)
	// Regrids carry all the all-to-all bytes; the replayed regrid time
	// covers their pack, exchange and unpack.
	redist := float64(ev.redist) / float64(tracedEpochs) * rp.redistS
	children := rp.tensorBusy + rp.sparseBusy + redist + float64(epochBytes-a2aBytes)*nsB
	rep.set("core.self_s", p50-children)

	tw := median(epochWalls(traced))
	rep.set("trace.overhead", tw/p50-1)
	rep.note("train-live traced: %d epochs alternating with untraced ones, epoch p50 %.4fs untraced vs %.4fs traced (overhead %+.1f%%)",
		len(traced), p50, tw, 100*(tw/p50-1))
	rep.note("train-live epoch split: tensor %.4fs, sparse %.4fs, dist regrids %.4fs, other comm %.4fs, core self %.4fs",
		rp.tensorBusy, rp.sparseBusy, redist, float64(epochBytes-a2aBytes)*nsB, p50-children)
	return rep, nil
}

func epochWalls(recs []trainEpoch) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.wall
	}
	return out
}

// setComm reports one epoch's exact collective counts and bytes.
func setComm(rep *report, r trainEpoch) {
	for _, k := range kinds {
		rep.set("comm.calls."+k.String(), float64(r.calls[k]))
		rep.set("comm.bytes."+k.String(), float64(r.bytes[k]))
	}
}

// checkEpochBytes compares one epoch's metered bytes with the compiled
// schedule's price, per collective kind.
func checkEpochBytes(i int, r trainEpoch, price plan.Cost) error {
	got := [3]int64{r.bytes[hw.OpAllToAll], r.bytes[hw.OpAllGather], r.bytes[hw.OpAllReduce]}
	want := [3]int64{price.AllToAll, price.AllGather, price.AllReduce}
	if got != want || r.side != price.Side {
		return fmt.Errorf("train-live epoch %d: metered a2a/ag/ar/side %v/%d, schedule prices %v/%d",
			i, got, r.side, want, price.Side)
	}
	return nil
}

// checkLosses compares the losses with the golden for the default seed;
// for any other seed the last loss must be below the first.
func checkLosses(o options, recs []trainEpoch) error {
	// The warm-up epoch is not in recs; losses[0] is epoch 1.
	if o.seed == defaultSeed && !o.short {
		var golden []float64
		if err := json.Unmarshal(trainGoldenJSON, &golden); err != nil {
			return fmt.Errorf("train-live golden: %v", err)
		}
		for i, r := range recs {
			if i < len(golden) && r.loss != golden[i] {
				return fmt.Errorf("train-live epoch %d loss %.17g, golden %.17g", i+1, r.loss, golden[i])
			}
		}
		return nil
	}
	if first, last := recs[0].loss, recs[len(recs)-1].loss; !(last < first) {
		return fmt.Errorf("train-live: loss did not fall (%.6g -> %.6g)", first, last)
	}
	return nil
}

// eventCounts are totals over a tracer's events. Kernels are counted on
// every device; regrids and collectives, which span the world in both
// workloads that trace, once per occurrence (on rank 0).
type eventCounts struct {
	gemmCalls, gemmFMA int64
	spmmCalls, spmmFMA int64
	redist             int64
	coll               map[string]int64
	dropped            uint64
}

func countEvents(tr *trace.Tracer) eventCounts {
	ec := eventCounts{coll: map[string]int64{}}
	for _, s := range tr.Sessions() {
		for r := 0; r < s.P; r++ {
			ec.dropped += s.Dropped(r)
			for _, e := range s.Events(r) {
				switch {
				case e.Class == trace.ClassKernel && e.Op == "gemm":
					ec.gemmCalls++
					ec.gemmFMA += e.Flops
				case e.Class == trace.ClassKernel && e.Op == "spmm":
					ec.spmmCalls++
					ec.spmmFMA += e.Flops
				case r != 0:
				case e.Class == trace.ClassPhase && e.Op == "redistribute":
					ec.redist++
				case e.Class == trace.ClassCollective:
					ec.coll[e.Op]++
				}
			}
		}
	}
	return ec
}

package main

// sweep-p1024: the rdmbench scale cell at P=1024 on the flat fabric and
// on 128x8:nvlink,ib. Every pass prices all 16 Table IV orderings per
// topology with plan.Compile → Optimize → BuildDAG → ApproxCensus →
// PriceDAGEpochsCached → sim.Run (sequential and overlap), sharing one
// PriceCache per topology, exactly as internal/bench's RunScale does. It
// runs only the planner, the topo pricers and the sim engine: no kernels
// and no payload bytes.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

// The scale cell's shape, as in BENCH_scale.json.
const (
	sweepN      = 1 << 18
	sweepP      = 1024
	sweepEpochs = 2
	// The short (smoke-test) cell.
	sweepShortN = 1 << 14
	sweepShortP = 64
	// Building the topologies takes about a microsecond, so set-up is
	// timed in blocks of sweepSetupBlock builds: sweepSetupReps blocks
	// before the first pass and one after every priced config, so the
	// samples span the run. setup_s is the median seconds per build.
	sweepSetupReps  = 21
	sweepSetupBlock = 200
)

var sweepDims = []int{64, 128, 32}

// sweepHW is the one device model of every pass: a PriceCache binds to
// the model it first prices with.
var sweepHW = hw.A6000()

//go:embed testdata/scale_p1024.json
var scaleGoldenJSON []byte

// scaleRow and scaleCell mirror internal/bench's ScaleRow and ScaleCell
// fields that are simulated (no wall-clock fields).
type scaleRow struct {
	P               int     `json:"p"`
	Topology        string  `json:"topology"`
	Config          int     `json:"config"`
	SeqEpochSec     float64 `json:"seq_epoch_sec"`
	OverlapEpochSec float64 `json:"overlap_epoch_sec"`
	CommSec         float64 `json:"comm_sec"`
	ComputeSec      float64 `json:"compute_sec"`
	IntraBytes      int64   `json:"intra_bytes"`
	InterBytes      int64   `json:"inter_bytes"`
}

type scaleCell struct {
	P            int     `json:"p"`
	Topology     string  `json:"topology"`
	BestConfig   int     `json:"best_config"`
	BestEpochSec float64 `json:"best_epoch_sec"`
	SeqBest      int     `json:"seq_best_config"`
	CommFrac     float64 `json:"comm_frac"`
	OverlapGain  float64 `json:"overlap_gain"`
}

type scaleGolden struct {
	Rows  []scaleRow  `json:"rows"`
	Cells []scaleCell `json:"cells"`
}

// sweepTopo is one interconnect of the cell; tp is nil for "flat", as in
// RunScale.
type sweepTopo struct {
	name string
	tp   *topo.Topology
}

// stage names, in call order; their sum is one config's host time.
var sweepStages = []string{"plan.compile", "plan.optimize", "plan.build_dag", "plan.census", "plan.price", "sim.run"}

// configTiming is one priced config's host seconds per stage.
type configTiming struct {
	stage [6]float64
	steps int64
}

func (t configTiming) total() float64 {
	var s float64
	for _, v := range t.stage {
		s += v
	}
	return s
}

func buildSweepTopos(p int) ([]sweepTopo, error) {
	sp, err := topo.ParseSpec(fmt.Sprintf("%dx8:nvlink,ib", p/8))
	if err != nil {
		return nil, err
	}
	tp, err := sp.Topology(p)
	if err != nil {
		return nil, err
	}
	return []sweepTopo{{"flat", nil}, {sp.String(), tp}}, nil
}

// priceConfig runs one config through the whole pricing pipeline and
// returns its simulated row, its host timing, its op counts before and
// after Optimize, and an error if a sim clock differs from the pricer.
func priceConfig(p, n int, st sweepTopo, id int, pc *plan.PriceCache, sl *spanLog, parent int, grp string) (scaleRow, configTiming, [2]int, error) {
	var t configTiming
	var ops [2]int
	layers := len(sweepDims) - 1
	nnz := int64(8 * n)
	stage := func(i int, fn func()) {
		sid := sl.open(sweepStages[i], grp, parent, -1)
		t0 := time.Now()
		fn()
		t.stage[i] += time.Since(t0).Seconds()
		sl.close(sid)
	}
	var s *plan.Schedule
	var d *plan.DAG
	var cen plan.Census
	var cost plan.DAGCost
	var err error
	stage(0, func() {
		s = plan.Compile(plan.Spec{N: n, Dims: sweepDims, Config: costmodel.ConfigFromID(id, layers),
			P: p, RA: p, Memoize: true})
	})
	ops[0] = s.Ops()
	stage(1, func() { s = s.Optimize() })
	ops[1] = s.Ops()
	stage(2, func() { d, err = plan.BuildDAG(s) })
	if err != nil {
		return scaleRow{}, t, ops, err
	}
	stage(3, func() { cen = s.ApproxCensus(nnz) })
	stage(4, func() { cost = d.PriceDAGEpochsCached(cen, sweepHW, st.tp, sweepEpochs, pc) })
	row := scaleRow{P: p, Topology: st.name, Config: id}
	for _, overlap := range []bool{false, true} {
		var sr *sim.Result
		stage(5, func() {
			sr, err = sim.Run(sim.Config{DAG: d, Census: cen, HW: sweepHW, Topology: st.tp,
				Epochs: sweepEpochs, Overlap: overlap, Cache: pc})
		})
		if err != nil {
			return row, t, ops, err
		}
		t.steps += int64(len(d.Nodes)) * int64(p) * sweepEpochs
		want := cost.PerDeviceSeq
		if overlap {
			want = cost.PerDevice
		}
		for r := range want {
			if sr.Clocks[r] != want[r] {
				return row, t, ops, fmt.Errorf("sweep %s cfg %d overlap=%v: sim clock[%d]=%.17g != PriceDAGEpochs %.17g",
					st.name, id, overlap, r, sr.Clocks[r], want[r])
			}
		}
		if overlap {
			row.OverlapEpochSec = sr.MaxClock() / sweepEpochs
			continue
		}
		row.SeqEpochSec = sr.MaxClock() / sweepEpochs
		var comm, comp float64
		for r := 0; r < p; r++ {
			comm = max(comm, sr.CommTime[r])
			comp = max(comp, sr.ComputeTime[r])
		}
		row.CommSec, row.ComputeSec = comm/sweepEpochs, comp/sweepEpochs
		for k := 0; k < int(hw.NumCollectiveKinds); k++ {
			row.IntraBytes += sr.Meters.TierVolume[topo.TierIntra][k] + sr.Meters.SideTierVolume[topo.TierIntra][k]
			row.InterBytes += sr.Meters.TierVolume[topo.TierInter][k] + sr.Meters.SideTierVolume[topo.TierInter][k]
		}
	}
	return row, t, ops, nil
}

// summarizeCell picks the winners of one topology's 16 rows, in config
// order, as RunScale does.
func summarizeCell(rows []scaleRow) scaleCell {
	c := scaleCell{P: rows[0].P, Topology: rows[0].Topology, BestConfig: -1, SeqBest: -1}
	var bestSeq, bestCommFrac, bestSeqEpoch float64
	for _, row := range rows {
		if c.BestConfig < 0 || row.OverlapEpochSec < c.BestEpochSec {
			c.BestConfig, c.BestEpochSec = row.Config, row.OverlapEpochSec
			bestCommFrac = row.CommSec / (row.CommSec + row.ComputeSec)
			bestSeqEpoch = row.SeqEpochSec
		}
		if c.SeqBest < 0 || row.SeqEpochSec < bestSeq {
			c.SeqBest, bestSeq = row.Config, row.SeqEpochSec
		}
	}
	c.CommFrac = bestCommFrac
	if c.BestEpochSec > 0 {
		c.OverlapGain = bestSeqEpoch / c.BestEpochSec
	}
	return c
}

// sweepPass prices every (topology, config) pair once, in an order drawn
// from rng, calling between after each, and returns the rows in
// (topology, config) order with the per-config timings keyed the same
// way.
func sweepPass(p, n int, topos []sweepTopo, rng *rand.Rand, sl *spanLog, pass int, fp *uint64, between func()) ([]scaleRow, []configTiming, [2]int, error) {
	nc := costmodel.NumConfigs(len(sweepDims) - 1)
	rows := make([]scaleRow, len(topos)*nc)
	times := make([]configTiming, len(topos)*nc)
	pcs := make([]*plan.PriceCache, len(topos))
	for i := range pcs {
		pcs[i] = plan.NewPriceCache()
	}
	var ops [2]int
	order := rng.Perm(len(rows))
	if pass == 0 {
		*fp = fingerprint(toInt32(order))
	}
	for _, job := range order {
		ti, id := job/nc, job%nc
		grp := fmt.Sprintf("pass %d %s cfg %d", pass, topos[ti].name, id)
		cid := sl.open("sweep.config", grp, 0, -1)
		row, t, o, err := priceConfig(p, n, topos[ti], id, pcs[ti], sl, cid, grp)
		sl.close(cid)
		if err != nil {
			return nil, nil, ops, err
		}
		rows[job], times[job] = row, t
		ops[0] += o[0]
		ops[1] += o[1]
		between()
	}
	return rows, times, ops, nil
}

func toInt32(xs []int) []int32 {
	out := make([]int32, len(xs))
	for i, x := range xs {
		out[i] = int32(x)
	}
	return out
}

// checkSweep compares one pass's rows and cells with the committed
// BENCH_scale.json P=1024 figures, bit for bit.
func checkSweep(rows []scaleRow, nc int) error {
	var g scaleGolden
	if err := json.Unmarshal(scaleGoldenJSON, &g); err != nil {
		return fmt.Errorf("sweep golden: %v", err)
	}
	if len(g.Rows) != len(rows) {
		return fmt.Errorf("sweep: %d rows, golden has %d", len(rows), len(g.Rows))
	}
	for i := range rows {
		if rows[i] != g.Rows[i] {
			return fmt.Errorf("sweep row %d: %+v, golden %+v", i, rows[i], g.Rows[i])
		}
	}
	for ci := range g.Cells {
		if got := summarizeCell(rows[ci*nc : (ci+1)*nc]); got != g.Cells[ci] {
			return fmt.Errorf("sweep cell %s: %+v, golden %+v", g.Cells[ci].Topology, got, g.Cells[ci])
		}
	}
	return nil
}

func runSweep(o options, c *checks, sl *spanLog) (*report, error) {
	p, n := sweepP, sweepN
	if o.short {
		p, n = sweepShortP, sweepShortN
	}
	rep := &report{}
	nc := costmodel.NumConfigs(len(sweepDims) - 1)

	// Set-up: the topologies every pass prices on. Timed blocks rebuild
	// them and discard the result; the build checked above cannot fail
	// differently.
	topos, err := buildSweepTopos(p)
	if err != nil {
		return nil, err
	}
	var setups []float64
	setupBlock := func() {
		t0 := time.Now()
		for j := 0; j < sweepSetupBlock; j++ {
			buildSweepTopos(p)
		}
		setups = append(setups, time.Since(t0).Seconds()/sweepSetupBlock)
	}
	for i := 0; i < sweepSetupReps; i++ {
		setupBlock()
	}

	rng := rand.New(rand.NewSource(o.seed))
	var ops [2]int
	passNo := 0
	// pass prices and checks every config once.
	pass := func(sl *spanLog) ([]configTiming, error) {
		rows, times, o2, err := sweepPass(p, n, topos, rng, sl, passNo, &rep.inputs, setupBlock)
		passNo++
		if err != nil {
			return nil, err
		}
		ops = o2
		if o.short {
			c.op(int64(len(rows)), nil)
		} else {
			c.op(int64(len(rows)), checkSweep(rows, nc))
		}
		return times, nil
	}

	// Untraced passes give the end-to-end numbers. A traced run
	// alternates them with traced passes so host drift hits both alike.
	var timed, tracedTimed [][]configTiming
	var ms0, ms1 runtime.MemStats
	var allocs, gcs uint64
	start, cpu0 := time.Now(), cpuSeconds()
	for len(timed) == 0 || time.Since(start).Seconds() < o.seconds {
		runtime.ReadMemStats(&ms0)
		times, err := pass(nil)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			c.op(1, err)
			return rep, nil
		}
		allocs += ms1.TotalAlloc - ms0.TotalAlloc
		gcs += uint64(ms1.NumGC - ms0.NumGC)
		timed = append(timed, times)
		if o.trace {
			if times, err = pass(sl); err != nil {
				c.op(1, err)
				return rep, nil
			}
			tracedTimed = append(tracedTimed, times)
		}
	}
	wall := time.Since(start).Seconds()
	perConfig := configMedians(timed)
	passSecs := passTimes(timed)
	rep.set("ops_per_s", float64(len(perConfig))/median(passSecs))
	rep.set("setup_s", median(setups))
	rep.set("max_rss_mb", maxRSSMB())
	tv, tp := tail(passSecs)
	rep.note("sweep-p1024: n=%d P=%d topologies %s, %s; %d untraced passes of %d configs, pass p50 %.3fs, p%g %.3fs, min %.3fs; configs_per_s %.4f; process cpu %.2fs over %.2fs wall",
		n, p, topos[0].name, topos[1].name, len(timed), len(perConfig), median(passSecs), tp, tv, quantile(passSecs, 0),
		float64(len(perConfig))/median(passSecs), cpuSeconds()-cpu0, wall)

	if !o.trace {
		return rep, nil
	}
	nConf := float64(len(perConfig))
	var stage [6]float64
	var steps int64
	for _, t := range perConfig {
		for i := range stage {
			stage[i] += t.stage[i] / nConf
		}
		steps += t.steps
	}
	for i, name := range sweepStages[:5] {
		rep.set(name+"_s", stage[i])
	}
	rep.set("sim.run_s", stage[5])
	rep.set("sim.steps", float64(steps)/nConf)
	rep.set("sim.steps_per_s", float64(steps)/nConf/stage[5])
	rep.set("plan.ops_kept_ratio", float64(ops[1])/float64(ops[0]))
	nPriced := float64(len(timed) * len(perConfig))
	rep.set("go.alloc_bytes_per_op", float64(allocs)/nPriced)
	rep.set("go.gc_cycles", float64(gcs)/nPriced)

	root := sl.open("replay", "replay", 0, -1)
	id := sl.open("topo.alltoall", "flat", root, -1)
	rep.set("topo.alltoall.flat_us", 1e6*topoAllToAll(topo.Flat(p, sweepHW), p, n, sweepDims[1]))
	sl.close(id)
	id = sl.open("topo.alltoall", topos[1].name, root, -1)
	rep.set("topo.alltoall.hier_us", 1e6*topoAllToAll(topos[1].tp, p, n, sweepDims[1]))
	sl.close(id)
	sl.close(root)

	untraced, traced := median(passSecs), median(passTimes(tracedTimed))
	rep.set("trace.overhead", traced/untraced-1)
	rep.note("sweep-p1024 traced: %d passes, pass p50 %.3fs untraced vs %.3fs traced (overhead %+.1f%%)",
		len(tracedTimed), untraced, traced, 100*(traced/untraced-1))
	return rep, nil
}

// passTimes returns each pass's host seconds: the sum of its configs'.
func passTimes(passes [][]configTiming) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		for _, t := range p {
			out[i] += t.total()
		}
	}
	return out
}

// configMedians returns, per (topology, config), the stage-wise median
// over passes.
func configMedians(passes [][]configTiming) []configTiming {
	out := make([]configTiming, len(passes[0]))
	for j := range out {
		out[j].steps = passes[0][j].steps
		for s := range out[j].stage {
			var xs []float64
			for _, p := range passes {
				xs = append(xs, p[j].stage[s])
			}
			out[j].stage[s] = median(xs)
		}
	}
	return out
}

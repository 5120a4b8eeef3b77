package main

// serve-stream: a frozen-model serve.Session at P=8 flat on the
// OGB-Arxiv recipe at 1/64 scale (n=2645). Traffic is Zipf 1.1 over
// Poisson arrivals at 2000 q/s, with microbatches of at most 8 queries
// or 2 ms, an LRU cache of 64 vertices, staleness 0 and Table IV config
// 0. The stream is open-loop in simulated time; the host replays it as
// fast as it can. One forward, then ~40k microbatches of small
// GatherRows all-to-alls and cache lookups.

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"time"

	"gnnrdm/internal/core"
	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/graph"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/serve"
	"gnnrdm/internal/sparse"
	"gnnrdm/internal/trace"
	"gnnrdm/internal/verify"
)

const (
	serveDataset = "OGB-Arxiv"
	serveScale   = 64
	serveP       = 8
	serveQueries = 200_000
	// servePrefix is the stream prefix a traced run serves: long enough
	// for steady per-batch counts, short enough that the tracer's
	// per-device ring never wraps.
	servePrefix = 25_000
	// The short (smoke-test) stream.
	serveShortScale   = 512
	serveShortQueries = 5_000
	// serveSetupReps is how many times a run builds the workload;
	// setup_s is the median.
	serveSetupReps = 7
	// serveSample is how many distinct served vertices are compared with
	// the single-device reference.
	serveSample = 64
)

//go:embed testdata/serve_seed1.json
var serveGoldenJSON []byte

// serveGolden pins the default seed's simulated outcome.
type serveGolden struct {
	Batches    int     `json:"batches"`
	Misses     int     `json:"misses"`
	P50Latency float64 `json:"p50_latency"`
	P99Latency float64 `json:"p99_latency"`
}

type serveSetup struct {
	prob    *core.Problem
	cfg     serve.Config
	queries []serve.Query
	// Phase seconds of the build.
	generate, normalize, total float64
}

func buildServe(scale, nq int, seed int64, sl *spanLog) (*serveSetup, error) {
	ss := &serveSetup{}
	root := sl.open("setup", "setup", 0, -1)
	defer sl.close(root)
	t0 := time.Now()
	recipe, err := graph.RecipeByName(serveDataset)
	if err != nil {
		return nil, err
	}
	recipe = recipe.Scaled(scale)
	id := sl.open("graph.generate", "setup", root, -1)
	g := recipe.Build()
	sl.close(id)
	t1 := time.Now()
	id = sl.open("sparse.normalize", "setup", root, -1)
	ss.prob = &core.Problem{A: sparse.GCNNormalize(g.Adj), X: g.Features, Labels: g.Labels, TrainMask: g.TrainMask}
	sl.close(id)
	t2 := time.Now()
	id = sl.open("serve.traffic", "setup", root, -1)
	ts := serve.TrafficSpec{Queries: nq, Users: 1_000_000, Skew: 1.1, Rate: 2000, Seed: seed}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	ss.queries = ts.Generate(ss.prob.N())
	sl.close(id)
	ss.cfg = serve.Config{
		Dims:     []int{recipe.FeatureDim, 128, recipe.Labels},
		ConfigID: 0, Seed: 11,
		MaxBatch: 8, Deadline: 2e-3,
		CacheCap: 64, Staleness: 0,
	}
	t3 := time.Now()
	ss.generate, ss.normalize = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	ss.total = t3.Sub(t0).Seconds()
	return ss, nil
}

// serveStream serves one stream on a fresh session and returns it with
// the host seconds Serve took.
func serveStream(ss *serveSetup, queries []serve.Query, tr *trace.Tracer, sl *spanLog, grp string) (*serve.Session, float64) {
	cfg := ss.cfg
	cfg.Tracer = tr
	s := serve.NewSession(ss.prob, cfg)
	id := sl.open("serve.session", grp, 0, -1)
	t0 := time.Now()
	s.Serve(serveP, queries)
	dt := time.Since(t0).Seconds()
	sl.close(id)
	return s, dt
}

// checkStream checks one session: meter equals model, the report equals
// the first stream's, sampled answers match the reference.
func checkStream(s *serve.Session, first *serve.Report, ref map[int32][]float32) error {
	m, pr := s.Metered(), s.Predicted()
	if m.AllToAll != pr.AllToAll || m.AllGather != pr.AllGather || m.Tier != pr.Tier ||
		m.AllReduce != 0 || m.Other != 0 || m.Side != 0 {
		return fmt.Errorf("serve-stream: metered %+v, model %+v", m, pr)
	}
	if first != nil {
		if r := s.Report(); r != *first {
			return fmt.Errorf("serve-stream: report %+v differs from the first stream's %+v", r, *first)
		}
	}
	for v, want := range ref {
		got := s.Answer(v)
		if len(got) != len(want) {
			return fmt.Errorf("serve-stream: vertex %d answer has %d columns, reference %d", v, len(got), len(want))
		}
		for j := range got {
			if d := math.Abs(float64(got[j]) - float64(want[j])); d > verify.LogitsTol {
				return fmt.Errorf("serve-stream: vertex %d col %d: served %v, reference %v", v, j, got[j], want[j])
			}
		}
	}
	return nil
}

// sampleVertices returns up to k distinct queried vertices, spread over
// the stream.
func sampleVertices(qs []serve.Query, k int) []int32 {
	seen := map[int32]bool{}
	var out []int32
	step := max(1, len(qs)/(4*k))
	for i := 0; i < len(qs) && len(out) < k; i += step {
		if v := qs[i].Vertex; !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func runServe(o options, c *checks, sl *spanLog) (*report, error) {
	scale, nq := serveScale, serveQueries
	if o.short {
		scale, nq = serveShortScale, serveShortQueries
	}
	rep := &report{}
	var ss *serveSetup
	var totals, gens, norms []float64
	for i := 0; i < serveSetupReps; i++ {
		ss = nil
		runtime.GC()
		var err error
		if ss, err = buildServe(scale, nq, o.seed, sl); err != nil {
			return nil, err
		}
		totals = append(totals, ss.total)
		gens = append(gens, ss.generate)
		norms = append(norms, ss.normalize)
	}
	runtime.GC()
	rep.inputs = fingerprint(ss.queries)
	ref := serve.Reference(ss.prob, ss.cfg, sampleVertices(ss.queries, serveSample))
	rep.note("serve-stream: %s 1/%d n=%d dims=%v P=%d, %d queries per stream, zipf 1.1, 2000 q/s",
		serveDataset, scale, ss.prob.N(), ss.cfg.Dims, serveP, len(ss.queries))

	untracedSecs := o.seconds
	if o.trace {
		untracedSecs = o.seconds / 2
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var walls []float64
	var first *serve.Report
	start := time.Now()
	for len(walls) < 2 || time.Since(start).Seconds() < untracedSecs {
		s, dt := serveStream(ss, ss.queries, nil, nil, "")
		walls = append(walls, dt)
		c.op(int64(len(ss.queries)), checkStream(s, first, ref))
		if first == nil {
			r := s.Report()
			first = &r
		}
	}
	runtime.ReadMemStats(&ms1)
	c.op(int64(len(ss.queries)), checkServeGolden(o, first))
	qps := float64(len(ss.queries)) / median(walls)
	rep.set("ops_per_s", qps)
	rep.set("setup_s", median(totals))
	rep.set("max_rss_mb", maxRSSMB())
	tv, tp := tail(walls)
	rep.note("serve-stream: %d streams, stream p50 %.4fs, p%g %.4fs, min %.4fs; queries_per_s %.1f, hit rate %.4f, batches %d, misses %d, sim p50 %.6gs p99 %.6gs",
		len(walls), median(walls), tp, tv, quantile(walls, 0), qps, first.HitRate, first.Batches, first.Misses, first.P50Latency, first.P99Latency)
	if !o.trace {
		return rep, nil
	}

	nQ := float64(len(walls) * len(ss.queries))
	rep.set("serve.session_s", median(walls))
	rep.set("serve.cache.hit_rate", first.HitRate)
	rep.set("serve.batches", float64(first.Batches))
	rep.set("serve.misses", float64(first.Misses))
	rep.set("graph.generate_s", median(gens))
	rep.set("sparse.normalize_s", median(norms))
	rep.set("go.alloc_bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc)/nQ)
	rep.set("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC)/nQ)
	rep.set("comm.bytes.alltoall", float64(first.BytesAllToAll)/float64(first.Batches))
	rep.set("comm.bytes.allgather", float64(first.BytesAllGather)/float64(first.Batches))
	L := len(ss.cfg.Dims) - 1
	sp := plan.Spec{N: ss.prob.N(), Dims: ss.cfg.Dims, Config: costmodel.ConfigFromID(ss.cfg.ConfigID, L), P: serveP, RA: serveP}
	before := plan.CompileInference(sp)
	rep.set("plan.ops_kept_ratio", float64(before.Optimize().Ops())/float64(before.Ops()))

	// Replays at the serving shapes.
	root := sl.open("replay", "replay", 0, -1)
	id := sl.open("serve.coalesce", "replay", root, -1)
	rep.set("serve.coalesce_s", perCall(func() { serve.Coalesce(ss.queries, ss.cfg.MaxBatch, ss.cfg.Deadline) }))
	sl.close(id)
	id = sl.open("serve.cache", "replay", root, -1)
	rep.set("serve.cache.op_ns", cacheOpNS(ss.queries, ss.cfg.CacheCap, ss.cfg.MaxBatch))
	sl.close(id)
	id = sl.open("dist.gather_rows", "replay", root, -1)
	rows := sampleVertices(ss.queries, ss.cfg.MaxBatch)
	gus, aus, allocs := smallGather(serveP, ss.prob.N(), ss.cfg.Dims[L], rows)
	sl.close(id)
	sl.close(root)
	rep.set("dist.gather_rows.us", gus)
	rep.set("comm.alltoall.small_us", aus)
	rep.set("comm.allocs_per_op", allocs)

	// Traced phase: a stream prefix served alternately without and with
	// the tracer, so the overhead compares like with like.
	prefix := ss.queries[:min(servePrefix, len(ss.queries))]
	var plain, traced []float64
	var ev eventCounts
	var batches int
	start = time.Now()
	for len(traced) < 2 || time.Since(start).Seconds() < o.seconds/2 {
		s, dt := serveStream(ss, prefix, nil, nil, "")
		plain = append(plain, dt)
		c.op(int64(len(prefix)), checkStream(s, nil, nil))
		tr := trace.NewTracer(0)
		s, dt = serveStream(ss, prefix, tr, sl, fmt.Sprintf("stream %d", len(traced)))
		traced = append(traced, dt)
		c.op(int64(len(prefix)), checkStream(s, nil, nil))
		ev = countEvents(tr)
		batches = s.Report().Batches
	}
	if ev.dropped > 0 {
		c.op(1, fmt.Errorf("serve-stream: tracer dropped %d events", ev.dropped))
	}
	// Per microbatch of the traced prefix; the one forward per stream is
	// the only kernel work.
	nb := float64(batches)
	for _, k := range kinds {
		rep.set("comm.calls."+k.String(), float64(ev.coll[k.String()])/nb)
	}
	rep.set("tensor.gemm.calls", float64(ev.gemmCalls)/nb)
	rep.set("tensor.gemm.flops", 2*float64(ev.gemmFMA)/nb)
	rep.set("sparse.spmm.calls", float64(ev.spmmCalls)/nb)
	rep.set("sparse.spmm.flops", 2*float64(ev.spmmFMA)/nb)
	overhead := median(traced)/median(plain) - 1
	rep.set("trace.overhead", overhead)
	rep.note("serve-stream traced: %d-query prefix, %.4fs untraced vs %.4fs traced (overhead %+.1f%%)",
		len(prefix), median(plain), median(traced), 100*overhead)
	return rep, nil
}

// cacheOpNS replays the stream's cache traffic (a lookup per query, an
// insert per miss, batch index advancing every maxBatch queries) on a
// fresh cache and returns host ns per cache call.
func cacheOpNS(qs []serve.Query, capacity, maxBatch int) float64 {
	var ops int
	sec := perCall(func() {
		c := serve.NewCache(capacity)
		ops = 0
		for i, q := range qs {
			b := i / maxBatch
			ops++
			if !c.Lookup(q.Vertex, b, 0) {
				c.Insert(q.Vertex, b)
				ops++
			}
		}
	})
	return sec * 1e9 / float64(ops)
}

// checkServeGolden pins the default seed's batches, misses and simulated
// p50/p99 latency.
func checkServeGolden(o options, r *serve.Report) error {
	if o.seed != defaultSeed || o.short {
		return nil
	}
	var g serveGolden
	if err := json.Unmarshal(serveGoldenJSON, &g); err != nil {
		return fmt.Errorf("serve golden: %v", err)
	}
	got := serveGolden{Batches: r.Batches, Misses: r.Misses, P50Latency: r.P50Latency, P99Latency: r.P99Latency}
	if got != g {
		return fmt.Errorf("serve-stream: %+v, golden %+v", got, g)
	}
	return nil
}

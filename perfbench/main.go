// Command perfbench is the repository's host-clock benchmark. It runs one
// workload per process on a given seed, times calls into the gnnrdm
// layers from outside (tensor, sparse, comm, dist, core, plan, topo, sim,
// serve, graph), checks the outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set; with -trace 1 the run
// measures an untraced phase and a traced phase, records spans around
// every layer call, replays the layers' calls at the workload's exact
// shapes, and reports the per-layer set. Any failed check makes the
// command exit 1. See README.md for the workloads and how to read them.
//
// Usage:
//
//	go run . -workload train-live -seed 1 -seconds 20 -trace 0
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed goldens were recorded with.
const defaultSeed = 1

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics of an untraced run: what a user of the
// program sees. One op is an epoch (train-live), a priced config
// (sweep-p1024) or a query (serve-stream).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run. Every workload reports all of
// them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"tensor.gemm.calls", "count"},
	{"tensor.gemm.flops", "count"},
	{"tensor.gemm.gflops", "GFLOP/s"},
	{"tensor.matmul_ta.gflops", "GFLOP/s"},
	{"tensor.matmul_tb.gflops", "GFLOP/s"},
	{"tensor.busy_s", "s"},
	{"sparse.spmm.calls", "count"},
	{"sparse.spmm.flops", "count"},
	{"sparse.spmm.gflops", "GFLOP/s"},
	{"sparse.busy_s", "s"},
	{"sparse.normalize_s", "s"},
	{"comm.calls.allgather", "count"},
	{"comm.calls.allreduce", "count"},
	{"comm.calls.alltoall", "count"},
	{"comm.bytes.allgather", "B"},
	{"comm.bytes.allreduce", "B"},
	{"comm.bytes.alltoall", "B"},
	{"comm.alltoall.ns_per_byte", "ns/B"},
	{"comm.alltoall.small_us", "us"},
	{"comm.allocs_per_op", "count"},
	{"comm.busy_s", "s"},
	{"dist.redistribute.calls", "count"},
	{"dist.redistribute.s", "s"},
	{"dist.gather_rows.us", "us"},
	{"core.epoch_s_p50", "s"},
	{"core.epoch_s_tail", "s"},
	{"core.epoch_tail_pct", "%"},
	{"core.epoch_samples", "count"},
	{"core.barrier_wait_s", "s"},
	{"core.self_s", "s"},
	{"core.new_engine_s", "s"},
	{"core.host_per_sim", "s/s"},
	{"plan.choose_ordering_s", "s"},
	{"plan.compile_s", "s"},
	{"plan.optimize_s", "s"},
	{"plan.build_dag_s", "s"},
	{"plan.census_s", "s"},
	{"plan.price_s", "s"},
	{"plan.ops_kept_ratio", "ratio"},
	{"topo.alltoall.flat_us", "us"},
	{"topo.alltoall.hier_us", "us"},
	{"sim.run_s", "s"},
	{"sim.steps", "count"},
	{"sim.steps_per_s", "1/s"},
	{"serve.session_s", "s"},
	{"serve.coalesce_s", "s"},
	{"serve.cache.op_ns", "ns"},
	{"serve.cache.hit_rate", "ratio"},
	{"serve.batches", "count"},
	{"serve.misses", "count"},
	{"graph.generate_s", "s"},
	{"go.alloc_bytes_per_op", "B"},
	{"go.gc_cycles", "count"},
	{"trace.overhead", "ratio"},
	{"error_rate", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	outDir   string
}

// checks tallies output checks: attempted ops and the ops a failed check
// covers. Every failure is also printed.
type checks struct {
	w                 io.Writer
	attempted, failed int64
}

// op records n ops checked together; err non-nil marks all n failed.
func (c *checks) op(n int64, err error) {
	c.attempted += n
	if err != nil {
		c.failed += n
		fmt.Fprintln(c.w, "CHECK FAILED:", err)
	}
}

// report is what a workload hands back: its metric values, notes, and
// a fingerprint of the inputs it generated from the seed.
type report struct {
	values map[string]float64
	lines  []string
	inputs uint64
}

func (r *report) set(name string, v float64) {
	if r.values == nil {
		r.values = map[string]float64{}
	}
	r.values[name] = v
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workload is one benchmark input set.
type workload struct {
	name string
	run  func(o options, c *checks, sl *spanLog) (*report, error)
}

var workloads = []workload{
	{"train-live", runTrain},
	{"sweep-p1024", runSweep},
	{"serve-stream", runServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: train-live, sweep-p1024 or serve-stream")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "seconds to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "small inputs for smoke tests (goldens are not checked)")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for the span file of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	o.trace = traceFlag == 1
	if !(o.seconds > 0) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be positive")
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	}

	h := hostInfo(o.seed, o.workload)
	hb, _ := json.Marshal(h)
	fmt.Fprintf(stdout, "host %s\n", hb)

	var sl *spanLog
	if o.trace {
		sl = newSpanLog()
	}
	c := &checks{w: stdout}
	rep, err := wl.run(o, c, sl)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "inputs %016x\n", rep.inputs)
	if c.attempted > 0 {
		rep.set("error_rate", float64(c.failed)/float64(c.attempted))
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
		path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := sl.write(path, h); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		sl.printSummary(stdout)
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	metrics := map[string]metricOut{}
	fmt.Fprintf(stdout, "%-28s %16s  %s\n", "metric", "value", "unit")
	for _, d := range defs {
		v := rep.values[d.Name]
		metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%-28s %16.6g  %s\n", d.Name, v, d.Unit)
	}
	if c.attempted == 0 {
		fmt.Fprintln(stdout, "CHECK FAILED: no op was checked")
		return 1
	}
	if c.failed > 0 {
		// A failed check exits non-zero without a result line.
		return 1
	}
	b, err := json.Marshal(result{Correct: true, Attempted: c.attempted, Failed: 0, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// host is the block that says which machine and build a result came from.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Revision   string `json:"revision"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

func hostInfo(seed int64, wl string) host {
	return host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(),
		CPUModel:  cpuModel(),
		Revision:  revision(),
		Workload:  wl, Seed: seed,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the source revision: PERFBENCH_REVISION when the caller
// knows it (run.py sets it from git), else "unknown".
func revision() string {
	if r := os.Getenv("PERFBENCH_REVISION"); r != "" {
		return r
	}
	return "unknown"
}

// fingerprint hashes fixed-size values and slices of them (FNV-1a).
func fingerprint(parts ...any) uint64 {
	h := fnv.New64a()
	for _, p := range parts {
		if err := binary.Write(h, binary.LittleEndian, p); err != nil {
			panic(err) // only a bug passes a value binary cannot encode
		}
	}
	return h.Sum64()
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// maxRSSMB is the process's peak resident set in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tail returns the highest percentile of xs that has at least ten
// samples beyond it, as (value, percentile). With fewer than 20 samples
// it falls back to the maximum (percentile 100).
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	if n < 20 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		if n == 0 {
			return 0, 100
		}
		return s[n-1], 100
	}
	// Step down from p99.9 until ≥10 samples lie above the cut.
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(n)*(1-p/100) >= 10 {
			return quantile(xs, p/100), p
		}
	}
	return median(xs), 50
}

// secs is a duration in seconds.
func secs(d time.Duration) float64 { return d.Seconds() }

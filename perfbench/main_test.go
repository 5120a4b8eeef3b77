package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// command must agree with.
type benchmarkJSON struct {
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	Workloads []struct{ Name, Why string }  `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runBench runs the command in-process in short mode and returns the
// parsed result line and the whole output.
func runBench(t *testing.T, args ...string) (result, string) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"-short", "-out", t.TempDir()}, args...)
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("perfbench %v exited %d\nstdout:\n%s\nstderr:\n%s", args, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// TestSchema checks that BENCHMARK.json names exactly the metrics the
// command emits, with the same units, and every workload it runs.
func TestSchema(t *testing.T) {
	bj := readBenchmarkJSON(t)
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command emits %d", what, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s [%s], the command emits %s [%s]",
					what, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, command %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestSmoke runs every workload in both modes and checks the result line
// carries exactly the mode's metrics, each with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, mode := range []struct {
			flag string
			defs []metricDef
		}{{"0", endToEnd}, {"1", perLayer}} {
			t.Run(w.name+"/trace"+mode.flag, func(t *testing.T) {
				res, out := runBench(t, "-workload", w.name, "-seed", "2", "-seconds", "0.5", "-trace", mode.flag)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out)
				}
				if len(res.Metrics) != len(mode.defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(mode.defs))
				}
				for _, d := range mode.defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
					}
				}
				if mode.flag == "0" {
					for _, d := range endToEnd {
						if v := res.Metrics[d.Name].Value; !(v > 0) {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, v)
						}
					}
				}
				if !strings.Contains(out, `"gomaxprocs"`) || !strings.Contains(out, `"cpu_model"`) {
					t.Errorf("no host block in output:\n%s", out)
				}
			})
		}
	}
}

// deterministicCounts are the per-layer metrics that depend only on the
// seed, never on host speed or run length.
var deterministicCounts = []string{
	"tensor.gemm.calls", "tensor.gemm.flops", "sparse.spmm.calls", "sparse.spmm.flops",
	"comm.calls.allgather", "comm.calls.allreduce", "comm.calls.alltoall",
	"comm.bytes.allgather", "comm.bytes.allreduce", "comm.bytes.alltoall",
	"dist.redistribute.calls", "plan.ops_kept_ratio", "sim.steps",
	"serve.cache.hit_rate", "serve.batches", "serve.misses",
}

// inputsLine returns the "inputs <fingerprint>" line of a run's output.
func inputsLine(t *testing.T, out string) string {
	t.Helper()
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "inputs ") {
			return l
		}
	}
	t.Fatalf("no inputs line in output:\n%s", out)
	return ""
}

// TestSeed checks that one seed gives identical inputs and counts on
// every run, and another seed gives different inputs.
func TestSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			args := []string{"-workload", w.name, "-seconds", "0.3", "-trace", "1"}
			a, outA := runBench(t, append(args, "-seed", "5")...)
			b, outB := runBench(t, append(args, "-seed", "5")...)
			_, outC := runBench(t, append(args, "-seed", "6")...)
			for _, name := range deterministicCounts {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %v then %v on the same seed", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
			if ia, ib := inputsLine(t, outA), inputsLine(t, outB); ia != ib {
				t.Errorf("same seed, different inputs: %q vs %q", ia, ib)
			}
			if ia, ic := inputsLine(t, outA), inputsLine(t, outC); ia == ic {
				t.Errorf("seeds 5 and 6 gave the same inputs %q", ia)
			}
		})
	}
}

// TestChecks checks the op tally and that bad flags exit non-zero.
func TestChecks(t *testing.T) {
	var out, errb bytes.Buffer
	c := &checks{w: &out}
	c.op(3, nil)
	c.op(2, os.ErrInvalid)
	if c.attempted != 5 || c.failed != 2 || !strings.Contains(out.String(), "CHECK FAILED") {
		t.Fatalf("attempted/failed %d/%d, output %q", c.attempted, c.failed, out.String())
	}
	for _, args := range [][]string{
		{"-workload", "no-such-workload"},
		{"-workload", "train-live", "-trace", "2"},
		{"-workload", "train-live", "-seconds", "0"},
	} {
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v exited 0", args)
		}
	}
}

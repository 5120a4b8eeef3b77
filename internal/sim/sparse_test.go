package sim_test

import (
	"fmt"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/topo"
)

func sparseSchedFor(n int, dims []int, cfg, p, live int, abc bool) *plan.Schedule {
	s := plan.Compile(plan.Spec{
		N: n, Dims: dims, Config: costmodel.ConfigFromID(cfg, len(dims)-1),
		P: p, RA: p, Memoize: true, InputGrad: true,
		Live: live, SparseSeed: 3,
	}).Optimize()
	if abc {
		s = s.ABC()
	}
	return s
}

// TestSimClocksEqualPricerSparse extends the walk-vs-PriceOn byte
// census pin to sparse schedules (two-round exchanges) and
// ABC-rewritten ones (KSpMMABC): both executors, flat and hierarchical.
func TestSimClocksEqualPricerSparse(t *testing.T) {
	h := hw.A6000()
	dims := []int{16, 12, 8}
	const n, epochs, nnz = 256, 2, 4 * 256
	for _, spec := range []string{"", "8x4:nvlink,ib"} {
		for _, abc := range []bool{false, true} {
			p := 8
			var tp *topo.Topology
			name := fmt.Sprintf("flat/abc=%v", abc)
			if spec != "" {
				ts, err := topo.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				tp = ts.MustTopology(p)
				name = fmt.Sprintf("%s/abc=%v", spec, abc)
			}
			pc := plan.NewPriceCache()
			t.Run(name, func(t *testing.T) {
				abcOps := 0
				for _, cfg := range []int{2, 3, 10, 15} { // DenseFirst forward layers
					s := sparseSchedFor(n, dims, cfg, p, 32, abc)
					abcOps += s.CountKind(plan.KSpMMABC)
					checkMetersMatchPriceOn(t, fmt.Sprintf("cfg %d", cfg), s, nnz, h, tp, epochs, pc)
				}
				if abc && abcOps == 0 {
					t.Fatal("precondition: no ABC-rewritten schedule holds a KSpMMABC op")
				}
			})
		}
	}
}

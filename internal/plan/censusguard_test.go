package plan_test

import (
	"fmt"
	"math"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

// TestApproxCensusSkipsABCWithoutABCOps shows the census guard does not
// change behaviour: for every Table IV ordering at R_A == P, dense and
// sparse, with no KSpMMABC op, ApproxCensus leaves the ABC census empty,
// and PriceDAGEpochs and sim.Run clocks (both executors, flat and
// hierarchical) are bit-equal to those priced with an ABC-filled
// census.
func TestApproxCensusSkipsABCWithoutABCOps(t *testing.T) {
	h := hw.A6000()
	dims := []int{16, 12, 8}
	const n, p, epochs = 256, 8, 2
	const nnz = 4 * n
	for _, tp := range []*topo.Topology{nil, topo.MustParseSpec("2x4:nvlink,ib").MustTopology(p)} {
		for _, live := range []int{0, n / 4} {
			for cfg := 0; cfg < costmodel.NumConfigs(len(dims)-1); cfg++ {
				name := fmt.Sprintf("topo=%v live=%d cfg=%d", tp != nil, live, cfg)
				s := plan.Compile(plan.Spec{
					N: n, Dims: dims, Config: costmodel.ConfigFromID(cfg, len(dims)-1),
					P: p, RA: p, Memoize: true, InputGrad: true, Live: live, SparseSeed: 3,
				}).Optimize()
				if s.CountKind(plan.KSpMMABC) != 0 {
					t.Fatalf("%s: precondition: schedule holds an ABC op", name)
				}
				cen := s.ApproxCensus(nnz)
				if cen.ABCPairs != nil || cen.NNZABC != nil {
					t.Fatalf("%s: ApproxCensus filled the ABC census without an ABC op", name)
				}
				filled := cen
				filled.ABCPairs, filled.NNZABC = s.ApproxABCPairs(nnz)

				d := plan.MustBuildDAG(s)
				got := d.PriceDAGEpochs(cen, h, tp, epochs)
				want := d.PriceDAGEpochs(filled, h, tp, epochs)
				sameClocks(t, name+" PriceDAGEpochs overlap", got.PerDevice, want.PerDevice)
				sameClocks(t, name+" PriceDAGEpochs seq", got.PerDeviceSeq, want.PerDeviceSeq)
				for _, overlap := range []bool{false, true} {
					run := func(c plan.Census) []float64 {
						return sim.MustRun(sim.Config{DAG: d, Census: c, HW: h, Topology: tp,
							Epochs: epochs, Overlap: overlap}).Clocks
					}
					sameClocks(t, fmt.Sprintf("%s sim overlap=%v", name, overlap), run(cen), run(filled))
				}
			}
		}
	}
}

func sameClocks(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d clocks, want %d", what, len(got), len(want))
	}
	for r := range got {
		if math.Float64bits(got[r]) != math.Float64bits(want[r]) {
			t.Fatalf("%s: rank %d clock %.17g, ABC-filled census %.17g", what, r, got[r], want[r])
		}
	}
}

package plan

import (
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// TestPriceDAGAllocsIndependentOfEpochs pins the walk's allocation
// discipline: on a warmed PriceCache every buffer of a price is sized
// up front, so pricing four epochs allocates no more often than pricing
// one — dense, sparse and ABC-rewritten schedules, flat and
// hierarchical.
func TestPriceDAGAllocsIndependentOfEpochs(t *testing.T) {
	h := hw.A6000()
	const p, n = 64, 2048
	dims := []int{16, 12, 8}
	hier := topo.MustParseSpec("8x8:nvlink,ib").MustTopology(p)
	for _, tc := range []struct {
		name string
		cfg  int
		live int
		abc  bool
	}{
		{"dense", 0, 0, false},
		{"sparse", 3, n / 8, false},
		{"abc", 3, n / 8, true},
	} {
		s := Compile(Spec{
			N: n, Dims: dims, Config: costmodel.ConfigFromID(tc.cfg, len(dims)-1),
			P: p, RA: p, Memoize: true, InputGrad: true, Live: tc.live, SparseSeed: 3,
		}).Optimize()
		if tc.abc {
			s = s.ABC()
			if s.CountKind(KSpMMABC) == 0 {
				t.Fatalf("%s: precondition: no KSpMMABC op", tc.name)
			}
		}
		d := MustBuildDAG(s)
		cen := s.ApproxCensus(8 * n)
		for _, tp := range []*topo.Topology{nil, hier} {
			pc := NewPriceCache()
			d.PriceDAGEpochsCached(cen, h, tp, 1, pc)
			allocs := func(epochs int) float64 {
				return testing.AllocsPerRun(3, func() { d.PriceDAGEpochsCached(cen, h, tp, epochs, pc) })
			}
			if one, four := allocs(1), allocs(4); four > one {
				t.Errorf("%s topo=%v: 4 epochs allocate %v times, 1 epoch %v", tc.name, tp != nil, four, one)
			}
		}
	}
}

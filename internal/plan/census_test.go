package plan

import (
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
)

// TestApproxABCPairsMatchesDirect pins the size-deduplicated ABC census
// against a direct per-pair evaluation of abcPairRows, on sparse live
// sets with N not divisible by P so the block row ranges take two
// sizes.
func TestApproxABCPairsMatchesDirect(t *testing.T) {
	for _, p := range []int{4, 7, 64, 1000} {
		n := 37*p + p/2 + 1
		s := &Schedule{P: p, N: n, Live: n / 5, SparseSeed: int64(p)}
		nnz := int64(6 * n)
		pairs, nnzABC := s.ApproxABCPairs(nnz)

		live := s.LiveSet()
		edgeP := float64(nnz) / (float64(n) * float64(n))
		sizes := map[int]bool{}
		for r := 0; r < p; r++ {
			rlo, rhi := dist.RowRange(dist.H, p, r, n)
			sizes[rhi-rlo] = true
			liveR := dist.CountInRange(live, rlo, rhi)
			if want := nnz * int64(liveR) / int64(n); nnzABC[r] != want {
				t.Fatalf("P=%d rank %d: NNZABC %d, direct %d", p, r, nnzABC[r], want)
			}
			for q := 0; q < p; q++ {
				qlo, qhi := dist.RowRange(dist.H, p, q, n)
				if want := abcPairRows(qhi-qlo, liveR, edgeP); pairs[r][q] != want {
					t.Fatalf("P=%d pair (%d,%d): %d, direct %d", p, r, q, pairs[r][q], want)
				}
			}
		}
		if len(sizes) != 2 {
			t.Fatalf("P=%d N=%d: %d distinct block sizes, want 2", p, n, len(sizes))
		}
	}
}

// BenchmarkApproxCensus times ApproxCensus at the sweep's P=1024 shape
// for a dense schedule (no ABC op: panels only) and an ABC-rewritten
// sparse one (panels plus the P×P structural census).
func BenchmarkApproxCensus(b *testing.B) {
	const n, p = 1 << 18, 1024
	dims := []int{64, 128, 32}
	spec := func(cfg, live int) Spec {
		return Spec{N: n, Dims: dims, Config: costmodel.ConfigFromID(cfg, len(dims)-1),
			P: p, RA: p, Memoize: true, Live: live, SparseSeed: 3}
	}
	dense := Compile(spec(0, 0)).Optimize()
	var abc *Schedule
	for cfg := 0; cfg < costmodel.NumConfigs(len(dims)-1) && abc == nil; cfg++ {
		if s := Compile(spec(cfg, n/8)).Optimize().ABC(); s.CountKind(KSpMMABC) > 0 {
			abc = s
		}
	}
	if abc == nil {
		b.Fatal("no Table IV config admits the ABC rewrite")
	}
	for _, c := range []struct {
		name string
		s    *Schedule
	}{{"P=1024/dense", dense}, {"P=1024/abc", abc}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.s.ApproxCensus(8 * n)
			}
		})
	}
}

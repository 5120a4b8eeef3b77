package plan

import (
	"strings"
	"testing"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

func sparseSpec2(n, cfg, p, ra, live int) Spec {
	sp := spec2(n, cfg, p, ra, true)
	sp.Live, sp.SparseSeed = live, 3
	return sp
}

func countKind(s *Schedule, k Kind, sparse bool) int {
	n := 0
	for i := range s.Sections {
		for _, op := range s.Sections[i].Ops {
			if op.Kind == k && (!sparse || op.Sparse) {
				n++
			}
		}
	}
	return n
}

// TestSparseHeaderRoundTrip pins the serialized sparse header: Live and
// SparseSeed survive String → Parse → String as a fixed point, dense
// schedules emit no sparse tokens, and old dense dumps keep parsing.
func TestSparseHeaderRoundTrip(t *testing.T) {
	for _, sp := range []Spec{
		sparseSpec2(64, 2, 4, 4, 16),
		sparseSpec2(64, 15, 8, 8, 7),
		sparseSpec2(7, 3, 2, 2, 2),
	} {
		s := Compile(sp).Optimize()
		if s.Live != sp.Live || s.SparseSeed != sp.SparseSeed {
			t.Fatalf("compile dropped sparse identity: live=%d sseed=%d", s.Live, s.SparseSeed)
		}
		d1 := s.String()
		if !strings.Contains(d1, " live=") {
			t.Fatalf("sparse schedule header missing live token:\n%s", d1)
		}
		parsed, err := Parse(d1)
		if err != nil {
			t.Fatalf("parse sparse dump: %v\n%s", err, d1)
		}
		if parsed.Live != sp.Live || parsed.SparseSeed != sp.SparseSeed {
			t.Fatalf("parse lost sparse identity: live=%d sseed=%d", parsed.Live, parsed.SparseSeed)
		}
		if d2 := parsed.String(); d2 != d1 {
			t.Fatalf("sparse dump not a fixed point:\n%s\n---\n%s", d1, d2)
		}
	}
	if d := Compile(spec2(64, 0, 4, 4, true)).String(); strings.Contains(d, "live=") {
		t.Fatalf("dense schedule leaked a sparse header:\n%s", d)
	}
}

// TestSparsePropagation pins where redist.sp ops come from: only
// conversions of values inheriting X's row support are sparse. An
// all-SpMM-first forward never redistributes a sparse value (X is free
// in both layouts and aggregation densifies), while a DenseFirst first
// layer redistributes the row-sparse XW product.
func TestSparsePropagation(t *testing.T) {
	if n := countKind(Compile(sparseSpec2(64, 0, 4, 4, 16)).Optimize(), KRedist, true); n != 0 {
		t.Fatalf("all-SpMM-first schedule has %d sparse redists, want 0", n)
	}
	// cfg bit 2 = forward layer 1 DenseFirst.
	s := Compile(sparseSpec2(64, 2, 4, 4, 16)).Optimize()
	if n := countKind(s, KRedist, true); n == 0 {
		t.Fatalf("DenseFirst-layer-1 schedule has no sparse redists:\n%s", s)
	}
	// A dense spec must never produce sparse ops.
	if n := countKind(Compile(spec2(64, 2, 4, 4, true)).Optimize(), KRedist, true); n != 0 {
		t.Fatalf("dense schedule has %d sparse redists", n)
	}
	// Live >= N normalizes to dense: bit-identical schedule text.
	full := sparseSpec2(64, 2, 4, 4, 64)
	if d, f := Compile(spec2(64, 2, 4, 4, true)).Optimize().String(), Compile(full).Optimize().String(); d != f {
		t.Fatalf("Live=N schedule differs from dense:\n%s\n---\n%s", d, f)
	}
}

// TestSparsePriceMatchesClosedForm reconciles the planner's sparse
// redistribution prices (flat) against costmodel.SparseExchangeBytes,
// and checks the payload volume shrinks strictly with the live count.
func TestSparsePriceMatchesClosedForm(t *testing.T) {
	h := hw.A6000()
	var prevPay int64 = -1
	for _, live := range []int{32, 16, 4} {
		s := Compile(sparseSpec2(64, 2, 4, 4, live)).Optimize()
		c := s.PriceOn(100, h, nil)
		lset := s.LiveSet()
		idx, pay := 0, int64(0)
		for i := range s.Sections {
			for j := range s.Sections[i].Ops {
				op := &s.Sections[i].Ops[j]
				oc := c.PerOp[idx]
				idx++
				if op.Kind != KRedist || !op.Sparse || !s.SparseEligible(op.From, op.To) {
					continue
				}
				m, p := costmodel.SparseExchangeBytes(s.P, op.Rows, op.Cols, op.From, op.To, lset)
				if oc.Side != m || oc.AllToAll != p {
					t.Fatalf("live=%d step %d: priced meta=%d pay=%d, closed form meta=%d pay=%d",
						live, op.Step, oc.Side, oc.AllToAll, m, p)
				}
				pay += p
			}
		}
		if pay <= 0 {
			t.Fatalf("live=%d: no sparse payload priced", live)
		}
		if prevPay >= 0 && pay >= prevPay {
			t.Fatalf("payload not strictly decreasing: live=%d pays %d, previous %d", live, pay, prevPay)
		}
		prevPay = pay
	}
}

// TestABCRewrite pins the aggregate-before-communicate pass: on a
// DenseFirst layer whose [redist.sp; spmm; redist-back] chain has
// single-use intermediates it fuses a KSpMMABC op, the result
// validates, round-trips through String/Parse, builds a DAG, and at
// low density prices strictly less exchanged payload than the original
// chain. Schedules outside the pass's domain come back unchanged.
func TestABCRewrite(t *testing.T) {
	h := hw.A6000()
	const n, nnz = 64, 4 * 64
	// L=1, forward DenseFirst (cfg bit 0 for L=1), RA=P, 4 live rows.
	sp := Spec{
		N: n, Dims: []int{16, 8},
		Config: costmodel.ConfigFromID(1, 1),
		P:      4, RA: 4, Memoize: true, InputGrad: true,
		Live: 4, SparseSeed: 3,
	}
	s := Compile(sp).Optimize()
	if countKind(s, KRedist, true) == 0 {
		t.Fatalf("precondition: no sparse redist to fuse:\n%s", s)
	}
	abc := s.ABC()
	if got := countKind(abc, KSpMMABC, false); got != 1 {
		t.Fatalf("ABC() fused %d ops, want 1:\n%s", got, abc)
	}
	if err := abc.Validate(); err != nil {
		t.Fatalf("ABC schedule invalid: %v", err)
	}
	d1 := abc.String()
	parsed, err := Parse(d1)
	if err != nil {
		t.Fatalf("parse ABC dump: %v\n%s", err, d1)
	}
	if d2 := parsed.String(); d2 != d1 {
		t.Fatalf("ABC dump not a fixed point:\n%s\n---\n%s", d1, d2)
	}
	MustBuildDAG(abc)

	before := s.PriceOn(nnz, h, nil)
	after := abc.PriceOn(nnz, h, nil)
	if after.AllToAll >= before.AllToAll {
		t.Fatalf("ABC did not reduce exchanged payload: %d >= %d", after.AllToAll, before.AllToAll)
	}

	// Out-of-domain inputs: dense schedule and partial replication come
	// back without ABC ops.
	if got := countKind(Compile(spec2(64, 2, 4, 4, true)).Optimize().ABC(), KSpMMABC, false); got != 0 {
		t.Fatalf("ABC() rewrote a dense schedule (%d ops)", got)
	}
	if got := countKind(Compile(sparseSpec2(64, 2, 4, 2, 16)).Optimize().ABC(), KSpMMABC, false); got != 0 {
		t.Fatalf("ABC() rewrote an RA<P schedule (%d ops)", got)
	}
}

// TestABCPriceConsistency pins the three ABC pricers against each
// other: PriceOn's analytic exchange totals equal the census the DAG
// simulator replays (same ApproxABCPairs), flat and topo-routed.
func TestABCPriceConsistency(t *testing.T) {
	h := hw.A6000()
	const n, nnz = 64, 4 * 64
	sp := Spec{
		N: n, Dims: []int{16, 8},
		Config: costmodel.ConfigFromID(1, 1),
		P:      4, RA: 4, Memoize: true, InputGrad: true,
		Live: 8, SparseSeed: 3,
	}
	abc := Compile(sp).Optimize().ABC()
	if countKind(abc, KSpMMABC, false) == 0 {
		t.Fatalf("no ABC op to price:\n%s", abc)
	}
	pairs, nnzABC := abc.ApproxABCPairs(nnz)
	cen := abc.ApproxCensus(nnz)
	if cen.ABCPairs == nil || cen.NNZABC == nil {
		t.Fatalf("ApproxCensus did not fill the ABC census at RA=P")
	}
	for r := range pairs {
		if cen.NNZABC[r] != nnzABC[r] {
			t.Fatalf("rank %d: census NNZABC %d != ApproxABCPairs %d", r, cen.NNZABC[r], nnzABC[r])
		}
		for q := range pairs[r] {
			if cen.ABCPairs[r][q] != pairs[r][q] {
				t.Fatalf("pair (%d,%d): census %d != ApproxABCPairs %d", r, q, cen.ABCPairs[r][q], pairs[r][q])
			}
		}
	}
	// The priced exchange bytes equal the shared census's totals.
	var wantMeta, wantPay int64
	for i := range abc.Sections {
		for _, op := range abc.Sections[i].Ops {
			if op.Kind != KSpMMABC {
				continue
			}
			x, _, _ := abcCensus(abc.P, pairs, op.Cols)
			wantMeta += x.MetaTotal
			wantPay += x.PayTotal
		}
	}
	c := abc.PriceOn(nnz, h, nil)
	var gotMeta, gotPay int64
	for _, oc := range c.PerOp {
		if oc.Kind == KSpMMABC {
			gotMeta += oc.Side
			gotPay += oc.AllToAll
		}
	}
	if gotMeta != wantMeta || gotPay != wantPay {
		t.Fatalf("PriceOn ABC bytes meta=%d pay=%d, census totals meta=%d pay=%d",
			gotMeta, gotPay, wantMeta, wantPay)
	}
	// The DAG pricer accepts the same schedule on both interconnects.
	ts, err := topo.ParseSpec("2x2:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*topo.Topology{nil, ts.MustTopology(4)} {
		cost := MustBuildDAG(abc).PriceDAGEpochs(cen, h, tp, 2)
		if cost.Makespan <= 0 || cost.SeqTime < cost.Makespan {
			t.Fatalf("degenerate ABC DAG cost: %+v", cost)
		}
	}
}

// TestSparseExchangeCensusMatchesDist pins the planner's pair census
// against dist's wire format arithmetic: per-pair metadata is the
// 2-word header plus one word per live row in the pair's dense row
// window, payload those rows' column slices — summed over active pairs
// only, self excluded.
func TestSparseExchangeCensusMatchesDist(t *testing.T) {
	const p, rows, cols = 4, 64, 12
	live := dist.GenRows(3, rows, 10)
	s := &Schedule{P: p, N: rows, Live: 10, SparseSeed: 3}
	x := s.sparseExchange(dist.H, dist.V, rows, cols, live)
	var meta, pay int64
	for r := 0; r < p; r++ {
		rlo, rhi := dist.RowRange(dist.H, p, r, rows)
		for q := 0; q < p; q++ {
			if q == r {
				continue
			}
			clo, chi := dist.ColRange(dist.V, p, q, cols)
			cnt := int64(dist.CountInRange(live, rlo, rhi))
			meta += 4 * (2 + cnt)
			pay += 4 * cnt * int64(chi-clo)
		}
	}
	if x.MetaTotal != meta || x.PayTotal != pay {
		t.Fatalf("census meta=%d pay=%d, hand sum meta=%d pay=%d", x.MetaTotal, x.PayTotal, meta, pay)
	}
	cm, cp := costmodel.SparseExchangeBytes(p, rows, cols, dist.H, dist.V, live)
	if cm != meta || cp != pay {
		t.Fatalf("costmodel meta=%d pay=%d, hand sum meta=%d pay=%d", cm, cp, meta, pay)
	}
}

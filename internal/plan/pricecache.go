package plan

import (
	"fmt"

	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// PriceCache memoizes the quadratic work of exact DAG pricing so that
// repeated pricing of the same problem shape — every epoch of a
// multi-epoch price, both executors of PriceDAGEpochs, all sixteen
// Table IV orderings of a sweep, and the discrete-event backend
// (internal/sim) replaying the same schedule — computes each
// redistribution's P×P byte census and its topology-routed all-to-all
// cost exactly once. At P=4096 this is the difference between a sweep
// in seconds and one in hours: a single regrid census touches 16.7M
// tile pairs, and the topology autotuner reads each of the P² pair
// volumes once per coster (ring, Bruck, hierarchical), with Bruck
// scattering each into the O(log P) rounds its offset selects.
//
// A cache binds to one (P, hardware model, topology) context on first
// use and panics if reused under a different one — memoized costs are
// only valid within the context they were computed in. Layout-range
// tables are precomputed per (layout, shape) so the census loop runs
// the same min/max arithmetic as dist.TileOverlap over array lookups,
// producing bit-identical integers (and therefore bit-identical float
// costs) to the uncached path.
type PriceCache struct {
	p     int
	h     *hw.Model
	tp    *topo.Topology
	bound bool

	ranges map[rangeKey]*rangeSet
	exch   map[exchKey]*exchangeCensus
	a2a    map[exchKey]topo.Cost

	// Sparse-exchange memoization (sparse.go). Keys carry the live-set
	// identity (N, Live, SparseSeed) — one cache serves sweeps that mix
	// densities.
	liveSets map[liveSetKey][]int32
	sx       map[sparseExchKey]*sparseExchangeCensus
	sa2a     map[sparseA2AKey]topo.Cost
}

// NewPriceCache returns an empty cache. Share one across every pricing
// and simulation call of a sweep that fixes (P, hardware, topology).
func NewPriceCache() *PriceCache {
	return &PriceCache{
		ranges:   make(map[rangeKey]*rangeSet),
		exch:     make(map[exchKey]*exchangeCensus),
		a2a:      make(map[exchKey]topo.Cost),
		liveSets: make(map[liveSetKey][]int32),
		sx:       make(map[sparseExchKey]*sparseExchangeCensus),
		sa2a:     make(map[sparseA2AKey]topo.Cost),
	}
}

// exchangeCensus is the per-rank byte census of one from→to regrid:
// what each rank packs for others (Div) and unpacks from others (Mer),
// self excluded; the busiest injector (MaxInj, the flat time model's
// argument); and the summed cross-pair bytes (Total, the flat metered
// volume). Callers must treat the slices as read-only — they are
// shared by every cache hit.
type exchangeCensus struct {
	Div, Mer []int64
	MaxInj   int64
	Total    int64
}

type rangeKey struct {
	l          dist.Layout
	rows, cols int
}

// rangeSet holds each rank's tile row/column ranges under one layout
// and global shape — dist.RowRange/ColRange precomputed per rank.
type rangeSet struct {
	rlo, rhi, clo, chi []int
}

type exchKey struct {
	from, to   dist.Layout
	rows, cols int
	packed     bool
}

// bind fixes the cache's pricing context. The first call binds; later
// calls with an identical context are no-ops, and a different context
// panics (memoized entries would be silently wrong). Every walk binds
// its cache on entry.
func (c *PriceCache) bind(p int, h *hw.Model, tp *topo.Topology) {
	if !c.bound {
		c.p, c.h, c.tp, c.bound = p, h, tp, true
		return
	}
	if c.p != p || c.h != h || c.tp != tp {
		panic(fmt.Sprintf("plan: PriceCache bound to (P=%d, hw=%p, topo=%p) reused with (P=%d, hw=%p, topo=%p)",
			c.p, c.h, c.tp, p, h, tp))
	}
}

func (c *PriceCache) rangesFor(l dist.Layout, rows, cols int) *rangeSet {
	k := rangeKey{l, rows, cols}
	if rs, ok := c.ranges[k]; ok {
		return rs
	}
	p := c.p
	rs := &rangeSet{
		rlo: make([]int, p), rhi: make([]int, p),
		clo: make([]int, p), chi: make([]int, p),
	}
	for r := 0; r < p; r++ {
		rs.rlo[r], rs.rhi[r] = dist.RowRange(l, p, r, rows)
		rs.clo[r], rs.chi[r] = dist.ColRange(l, p, r, cols)
	}
	c.ranges[k] = rs
	return rs
}

// exchange returns the memoized byte census of a from→to regrid of a
// rows×cols matrix. Layouts must be normalized for the bound P (the
// charge walk only holds normalized layouts). With
// packed=true chunks are byte-packed masks (four elements per
// transmitted float32), matching Schedule.exchange.
func (c *PriceCache) exchange(from, to dist.Layout, rows, cols int, packed bool) *exchangeCensus {
	c.mustBind()
	k := exchKey{from, to, rows, cols, packed}
	if e, ok := c.exch[k]; ok {
		return e
	}
	p := c.p
	fr := c.rangesFor(from, rows, cols)
	tr := c.rangesFor(to, rows, cols)
	e := &exchangeCensus{Div: make([]int64, p), Mer: make([]int64, p)}
	for r := 0; r < p; r++ {
		arlo, arhi, aclo, achi := fr.rlo[r], fr.rhi[r], fr.clo[r], fr.chi[r]
		for q := 0; q < p; q++ {
			if q == r {
				continue
			}
			// The same intersection arithmetic as dist.TileOverlap,
			// over the precomputed ranges.
			rr := min(arhi, tr.rhi[q]) - max(arlo, tr.rlo[q])
			if rr <= 0 {
				continue
			}
			cc := min(achi, tr.chi[q]) - max(aclo, tr.clo[q])
			if cc <= 0 {
				continue
			}
			n := rr * cc
			b := 4 * int64(n)
			if packed {
				b = 4 * int64((n+3)/4)
			}
			e.Div[r] += b
			e.Mer[q] += b
		}
	}
	for r := 0; r < p; r++ {
		e.MaxInj = max(e.MaxInj, e.Div[r])
		e.Total += e.Div[r]
	}
	c.exch[k] = e
	return e
}

// pairFn returns the per-pair byte function of a from→to regrid over
// the cached range tables — the same census Schedule.pairFn computes
// via dist.TileOverlap, without the per-call range recomputation the
// topology costers would otherwise repeat for every pair they read.
func (c *PriceCache) pairFn(from, to dist.Layout, rows, cols int, packed bool) func(i, j int) int64 {
	fr := c.rangesFor(from, rows, cols)
	tr := c.rangesFor(to, rows, cols)
	return func(i, j int) int64 {
		rr := min(fr.rhi[i], tr.rhi[j]) - max(fr.rlo[i], tr.rlo[j])
		cc := min(fr.chi[i], tr.chi[j]) - max(fr.clo[i], tr.clo[j])
		n := 0
		if rr > 0 && cc > 0 {
			n = rr * cc
		}
		if packed {
			return 4 * int64((n+3)/4)
		}
		return 4 * int64(n)
	}
}

// allToAllCost returns the memoized topology cost of a world all-to-all
// carrying a from→to regrid's pair volumes, under the fabric's default
// algorithm policy (topo.Auto). Panics when the cache is bound to the
// flat interconnect — flat all-to-all costs come from the closed form
// over exchange().MaxInj and need no memoization.
func (c *PriceCache) allToAllCost(from, to dist.Layout, rows, cols int, packed bool) topo.Cost {
	c.mustBind()
	if c.tp == nil {
		panic("plan: allToAllCost on a flat-bound PriceCache")
	}
	k := exchKey{from, to, rows, cols, packed}
	if cst, ok := c.a2a[k]; ok {
		return cst
	}
	world := make([]int, c.p)
	for i := range world {
		world[i] = i
	}
	_, cst := c.tp.AllToAll(c.h, topo.Auto, world, c.pairFn(from, to, rows, cols, packed))
	c.a2a[k] = cst
	return cst
}

func (c *PriceCache) mustBind() {
	if !c.bound {
		panic("plan: PriceCache used before bind")
	}
}

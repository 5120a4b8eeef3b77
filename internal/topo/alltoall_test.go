package topo

import (
	"fmt"
	"math"
	"testing"

	"gnnrdm/internal/hw"
)

// Reference all-to-all costers: the direct per-round Bruck sweep (every
// pair re-read once per round), the three-sweep hierarchical census and
// the Tier-per-pair ring. The production costers read each pair once
// per coster; these oracles pin them bit for bit.

func (t *Topology) refRingAllToAll(h *hw.Model, group []int, pair func(i, j int) int64) Cost {
	p := len(group)
	var c Cost
	var maxInj int64
	for i := 0; i < p; i++ {
		var inj int64
		for j := 0; j < p; j++ {
			if j == i {
				continue
			}
			b := pair(i, j)
			if b <= 0 {
				continue
			}
			c.Tier[t.Tier(group[i], group[j])] += b
			inj += b
		}
		if inj > maxInj {
			maxInj = inj
		}
	}
	c.Time = t.ringTime(h, hw.OpAllToAll, group, maxInj)
	return c
}

func (t *Topology) refBruckAllToAll(h *hw.Model, group []int, pair func(i, j int) int64) Cost {
	p := len(group)
	var c Cost
	any := false
	for d := 1; d < p; d *= 2 {
		inj := make([]int64, p)
		var tb [NumTiers]int64
		wt := TierIntra
		for s := 0; s < p; s++ {
			for dst := 0; dst < p; dst++ {
				if dst == s {
					continue
				}
				o := (dst - s + p) % p
				if o&d == 0 {
					continue
				}
				b := pair(s, dst)
				if b <= 0 {
					continue
				}
				v := (s + o&(d-1)) % p
				w := (v + d) % p
				tier := t.Tier(group[v], group[w])
				tb[tier] += b
				if tier > wt {
					wt = tier
				}
				inj[v] += b
			}
		}
		link := t.model(h, wt)
		c.Time += link.LinkLatency + float64(maxOf(inj))/link.LinkBandwidth
		c.addTier(tb)
		any = any || tb[TierIntra]+tb[TierInter] > 0
	}
	if !any {
		return Cost{Time: h.KernelLaunch}
	}
	return c
}

func (t *Topology) refHierAllToAll(h *hw.Model, group []int, pair func(i, j int) int64) Cost {
	nodes, ok := t.nodeGroups(group)
	if !ok {
		return t.refRingAllToAll(h, group, pair)
	}
	g := len(nodes[0])
	m := len(nodes)
	pos := func(j, a int) int { return j*g + a }
	crossOut := make([][]int64, m)
	crossIn := make([][]int64, m)
	nodePair := make([][]int64, m)
	for j := 0; j < m; j++ {
		crossOut[j] = make([]int64, g)
		crossIn[j] = make([]int64, g)
		nodePair[j] = make([]int64, m)
		for a := 0; a < g; a++ {
			for q := 0; q < m*g; q++ {
				if q/g == j {
					continue
				}
				crossOut[j][a] += pair(pos(j, a), q)
				crossIn[j][a] += pair(q, pos(j, a))
			}
		}
		for jj := 0; jj < m; jj++ {
			if jj == j {
				continue
			}
			for a := 0; a < g; a++ {
				for b := 0; b < g; b++ {
					nodePair[j][jj] += pair(pos(j, a), pos(jj, b))
				}
			}
		}
	}
	var c Cost
	st := 0.0
	for j, nd := range nodes {
		jj := j
		s := t.refRingAllToAll(h, nd, func(a, b int) int64 {
			v := pair(pos(jj, a), pos(jj, b))
			if b == 0 && a != 0 {
				v += crossOut[jj][a]
			}
			return v
		})
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	leaders := make([]int, m)
	for j, nd := range nodes {
		leaders[j] = nd[0]
	}
	s := t.refRingAllToAll(h, leaders, func(a, b int) int64 { return nodePair[a][b] })
	c.addTier(s.Tier)
	c.Time += s.Time
	st = 0.0
	for j, nd := range nodes {
		jj := j
		s := t.refRingAllToAll(h, nd, func(a, b int) int64 {
			if a == 0 && b != 0 {
				return crossIn[jj][b]
			}
			return 0
		})
		c.addTier(s.Tier)
		st = math.Max(st, s.Time)
	}
	c.Time += st
	return c
}

// refAllToAll is Topology.AllToAll's algorithm resolution over the
// reference costers.
func (t *Topology) refAllToAll(h *hw.Model, alg Algorithm, group []int, pair func(i, j int) int64) (Algorithm, Cost) {
	switch alg {
	case Ring:
		return Ring, t.refRingAllToAll(h, group, pair)
	case RHD:
		if len(group) > 1 {
			return RHD, t.refBruckAllToAll(h, group, pair)
		}
		return Ring, t.refRingAllToAll(h, group, pair)
	case Hier:
		if _, ok := t.nodeGroups(group); ok {
			return Hier, t.refHierAllToAll(h, group, pair)
		}
		return Ring, t.refRingAllToAll(h, group, pair)
	}
	best := t.refRingAllToAll(h, group, pair)
	bestAlg := Ring
	if t.worstTier(group) == TierIntra {
		return bestAlg, best
	}
	if c := t.refBruckAllToAll(h, group, pair); c.Time < best.Time {
		best, bestAlg = c, RHD
	}
	if _, ok := t.nodeGroups(group); ok {
		if c := t.refHierAllToAll(h, group, pair); c.Time < best.Time {
			best, bestAlg = c, Hier
		}
	}
	return bestAlg, best
}

// a2aTopos are the differential suite's interconnects: flat, the
// reference 8x4 machine and the sweep's 128x8 machine.
func a2aTopos(h *hw.Model) []*Topology {
	return []*Topology{
		Flat(128, h),
		MustParseSpec("8x4:nvlink,ib").MustTopology(32),
		MustParseSpec("128x8:nvlink,ib").MustTopology(1024),
	}
}

// a2aPairKinds names the pair functions a2aPair builds.
var a2aPairKinds = []string{"dense", "sparse", "signed", "regrid"}

// a2aPair returns a deterministic pair function over p positions:
// dense (every pair positive), sparse (about one pair in seven
// positive, the rest zero), signed (zero, negative and positive
// volumes, which the costers skip or sum as the algorithm dictates),
// or regrid (row blocks of a ragged n×f matrix sent to column blocks).
func a2aPair(kind int, seed uint64, p int) func(i, j int) int64 {
	mix := func(i, j int) uint64 {
		x := seed ^ uint64(i)*0x9e3779b97f4a7c15 ^ uint64(j)*0xc2b2ae3d27d4eb4f
		x ^= x >> 31
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 29
		return x
	}
	switch kind {
	case 0:
		return func(i, j int) int64 { return int64(1 + mix(i, j)%4096) }
	case 1:
		return func(i, j int) int64 {
			x := mix(i, j)
			if x%7 != 0 {
				return 0
			}
			return 4 * int64(1+(x>>8)%512)
		}
	case 2:
		return func(i, j int) int64 { return int64(mix(i, j)%2049) - 1024 }
	}
	n, f := 1000+int(seed%97), 64+int(seed%13)
	block := func(k, total int) int { return (k+1)*total/p - k*total/p }
	return func(i, j int) int64 {
		if i == j {
			return 0
		}
		return 4 * int64(block(i, n)) * int64(block(j, f))
	}
}

// a2aGroup builds a sorted group of up to n ranks of tp starting at
// off with the given stride, or — when uniform — the first n%PerNode+1
// members of each of n/PerNode+1 consecutive nodes from node off, the
// node-uniform shape the hierarchical coster applies to. Ranks past
// tp.P are dropped; the group is never empty.
func a2aGroup(tp *Topology, n, off, stride int, uniform bool) []int {
	var g []int
	if uniform {
		per, nodes := n%tp.PerNode+1, n/tp.PerNode+1
		first := off % (tp.P / tp.PerNode)
		for nd := first; nd < first+nodes && (nd+1)*tp.PerNode <= tp.P; nd++ {
			for a := 0; a < per; a++ {
				g = append(g, nd*tp.PerNode+a)
			}
		}
		return g
	}
	for r := off % tp.P; len(g) < n && r < tp.P; r += stride {
		g = append(g, r)
	}
	return g
}

// checkAllToAll compares AllToAll with the reference for every
// algorithm request, bit for bit.
func checkAllToAll(t *testing.T, tp *Topology, h *hw.Model, group []int, kind int, seed uint64) {
	t.Helper()
	pair := a2aPair(kind, seed, len(group))
	for _, alg := range []Algorithm{Auto, Ring, RHD, Hier} {
		ga, got := tp.AllToAll(h, alg, group, pair)
		wa, want := tp.refAllToAll(h, alg, group, pair)
		if ga != wa || math.Float64bits(got.Time) != math.Float64bits(want.Time) || got.Tier != want.Tier {
			t.Fatalf("%s %s group %v pair %s seed %d: got %s %+v (time %x), reference %s %+v (time %x)",
				tp.Name, alg, group, a2aPairKinds[kind], seed, ga, got, math.Float64bits(got.Time),
				wa, want, math.Float64bits(want.Time))
		}
	}
}

// TestAllToAllMatchesReference pins the single-pass all-to-all costers
// (Ring, Bruck, Hier and the Auto choice among them) against the
// reference sweeps: group sizes 1–70, prefix, offset, strided and
// node-uniform subgroups, on flat, 8x4 and 128x8 machines, under dense,
// sparse, signed and regrid pair volumes.
func TestAllToAllMatchesReference(t *testing.T) {
	h := hw.A6000()
	for _, tp := range a2aTopos(h) {
		for n := 1; n <= 70; n++ {
			for kind := range a2aPairKinds {
				seed := uint64(n*len(a2aPairKinds) + kind)
				checkAllToAll(t, tp, h, a2aGroup(tp, n, 0, 1, false), kind, seed)
				if n%3 == 0 {
					checkAllToAll(t, tp, h, a2aGroup(tp, n, 5, 1, false), kind, seed)
					checkAllToAll(t, tp, h, a2aGroup(tp, n, 3, 1+n%5, false), kind, seed)
				}
				if n <= 40 {
					checkAllToAll(t, tp, h, a2aGroup(tp, n, 1, 0, true), kind, seed)
				}
			}
		}
	}
}

// FuzzAllToAllCost drives the same oracle contract over fuzzed
// machines, groups, pair kinds and seeds.
func FuzzAllToAllCost(f *testing.F) {
	f.Add(uint8(0), uint8(13), uint8(0), uint8(0), uint8(0), uint8(1))
	f.Add(uint8(1), uint8(32), uint8(0), uint8(0), uint8(3), uint8(2))
	f.Add(uint8(2), uint8(23), uint8(4), uint8(0x80), uint8(1), uint8(3))
	f.Add(uint8(2), uint8(70), uint8(9), uint8(2), uint8(2), uint8(4))
	f.Add(uint8(1), uint8(1), uint8(7), uint8(3), uint8(0), uint8(5))
	topos := a2aTopos(hw.A6000())
	f.Fuzz(func(t *testing.T, specSel, nB, offB, strideB, kindB, seedB uint8) {
		h := hw.A6000()
		tp := topos[int(specSel)%len(topos)]
		n := 1 + int(nB)%70
		uniform := strideB&0x80 != 0
		group := a2aGroup(tp, n, int(offB), 1+int(strideB&0x7f)%9, uniform)
		if len(group) == 0 {
			t.Fatalf("empty group for %s n=%d off=%d stride=%#x", tp.Name, n, offB, strideB)
		}
		checkAllToAll(t, tp, h, group, int(kindB)%len(a2aPairKinds), uint64(seedB))
	})
}

// BenchmarkAllToAllAuto times one world all-to-all under the Auto
// policy at P=1024 with a regrid pair function, the planner sweep's
// dominant topology call.
func BenchmarkAllToAllAuto(b *testing.B) {
	h := hw.A6000()
	const p = 1024
	world := make([]int, p)
	for i := range world {
		world[i] = i
	}
	pair := a2aPair(3, 0, p)
	for _, tp := range []*Topology{Flat(p, h), MustParseSpec("128x8:nvlink,ib").MustTopology(p)} {
		b.Run(fmt.Sprintf("P=%d/%s", p, tp.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tp.AllToAll(h, Auto, world, pair)
			}
		})
	}
}

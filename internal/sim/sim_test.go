package sim_test

import (
	"fmt"
	"testing"
	"time"

	"gnnrdm/internal/costmodel"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/plan"
	"gnnrdm/internal/sim"
	"gnnrdm/internal/topo"
)

func schedFor(n int, dims []int, cfg, p, ra int, sage bool) *plan.Schedule {
	return plan.Compile(plan.Spec{
		N: n, Dims: dims, Config: costmodel.ConfigFromID(cfg, len(dims)-1),
		P: p, RA: ra, SAGE: sage, Memoize: true, InputGrad: true,
	}).Optimize()
}

// priceOnMeters is the byte census Schedule.PriceOn predicts for an
// epochs-epoch run, in the meters' shape: each op's primary bytes
// under its collective kind, its side bytes (ReLU masks and sparse
// metadata, all all-to-alls) on the side channel, and both split per
// link tier — all on the intra-node tier for the flat interconnect,
// which PriceOn leaves unsplit.
func priceOnMeters(c plan.Cost, epochs int64, flat bool) plan.Meters {
	var m plan.Meters
	for _, oc := range c.PerOp {
		var prim [hw.NumCollectiveKinds]int64
		prim[hw.OpAllToAll], prim[hw.OpAllGather], prim[hw.OpAllReduce] = oc.AllToAll, oc.AllGather, oc.AllReduce
		for k, b := range prim {
			if b == 0 {
				continue
			}
			tier := oc.Tier
			if flat {
				tier = [topo.NumTiers]int64{topo.TierIntra: b}
			}
			m.Volume[k] += epochs * b
			for t := range tier {
				m.TierVolume[t][k] += epochs * tier[t]
			}
		}
		if oc.Side != 0 {
			tier := oc.SideTier
			if flat {
				tier = [topo.NumTiers]int64{topo.TierIntra: oc.Side}
			}
			m.SideVolume[hw.OpAllToAll] += epochs * oc.Side
			for t := range tier {
				m.SideTierVolume[t][hw.OpAllToAll] += epochs * tier[t]
			}
		}
	}
	return m
}

// checkMetersMatchPriceOn runs both executors of a schedule and checks
// their meters' primary, side and per-tier volume by collective kind
// against epochs × Schedule.PriceOn's byte census, exactly.
func checkMetersMatchPriceOn(t *testing.T, what string, s *plan.Schedule, nnz int64, h *hw.Model, tp *topo.Topology, epochs int, pc *plan.PriceCache) {
	t.Helper()
	d := plan.MustBuildDAG(s)
	cen := s.ApproxCensus(nnz)
	want := priceOnMeters(s.PriceOn(nnz, h, tp), int64(epochs), tp == nil)
	for _, overlap := range []bool{false, true} {
		got := sim.MustRun(sim.Config{
			DAG: d, Census: cen, HW: h, Topology: tp,
			Epochs: epochs, Overlap: overlap, Cache: pc,
		}).Meters
		if got.Volume != want.Volume || got.SideVolume != want.SideVolume {
			t.Fatalf("%s overlap=%v: volume %v side %v, PriceOn %v side %v",
				what, overlap, got.Volume, got.SideVolume, want.Volume, want.SideVolume)
		}
		if got.TierVolume != want.TierVolume || got.SideTierVolume != want.SideTierVolume {
			t.Fatalf("%s overlap=%v: tier volume %v side %v, PriceOn %v side %v",
				what, overlap, got.TierVolume, got.SideTierVolume, want.TierVolume, want.SideTierVolume)
		}
	}
}

// TestSimClocksEqualPricer pins the charge walk's byte census against
// the independent closed-form pricer, Schedule.PriceOn, for every
// Table IV ordering, flat and hierarchical, both executors, sharing one
// PriceCache per (P, topo) context across all 16 configs the way a
// sweep would. The walk's clocks are plan.PriceDAGEpochs' by
// construction; verify.CheckSimMatchesFabric pins them to the live
// fabric.
func TestSimClocksEqualPricer(t *testing.T) {
	h := hw.A6000()
	dims := []int{16, 12, 8}
	const n, epochs = 256, 3
	for _, spec := range []string{"", "8x4:nvlink,ib"} {
		for _, p := range []int{8, 32} {
			var tp *topo.Topology
			name := fmt.Sprintf("flat/P%d", p)
			if spec != "" {
				ts, err := topo.ParseSpec(spec)
				if err != nil {
					t.Fatal(err)
				}
				tp = ts.MustTopology(p)
				name = fmt.Sprintf("%s/P%d", spec, p)
			}
			pc := plan.NewPriceCache()
			t.Run(name, func(t *testing.T) {
				for cfg := 0; cfg < costmodel.NumConfigs(len(dims)-1); cfg++ {
					s := schedFor(n, dims, cfg, p, p, false)
					checkMetersMatchPriceOn(t, fmt.Sprintf("cfg %d", cfg), s, 4*n, h, tp, epochs, pc)
				}
			})
		}
	}
}

// TestSimClocksEqualPricerSAGE covers the column-group allgather path
// (RA < P) and the two-weight SAGE schedule.
func TestSimClocksEqualPricerSAGE(t *testing.T) {
	s := schedFor(256, []int{16, 12, 8}, 5, 8, 2, true)
	checkMetersMatchPriceOn(t, "sage", s, 1024, hw.A6000(), nil, 2, nil)
}

// TestSimBarriersExtendClocks checks the TrainResumable protocol
// (EpochBarriers=2): barrier latency accrues to clocks and comm time,
// snapshots are monotone, and a P=1 run is barrier-free.
func TestSimBarriersExtendClocks(t *testing.T) {
	h := hw.A6000()
	s := schedFor(128, []int{8, 6, 4}, 0, 4, 4, false)
	cen := s.ApproxCensus(512)
	bare := sim.MustRun(sim.Config{Sched: s, Census: cen, HW: h, Epochs: 2})
	barr := sim.MustRun(sim.Config{Sched: s, Census: cen, HW: h, Epochs: 2, EpochBarriers: 2})
	if barr.MaxClock() <= bare.MaxClock() {
		t.Fatalf("barriers did not extend clocks: %v <= %v", barr.MaxClock(), bare.MaxClock())
	}
	for ep := 1; ep < 2; ep++ {
		for r := 0; r < 4; r++ {
			if barr.EpochClock[ep][r] < barr.EpochClock[ep-1][r] {
				t.Fatalf("epoch clock snapshot not monotone at rank %d", r)
			}
		}
	}
	s1 := schedFor(128, []int{8, 6, 4}, 0, 1, 1, false)
	cen1 := s1.ApproxCensus(512)
	one := sim.MustRun(sim.Config{Sched: s1, Census: cen1, HW: h, Epochs: 2, EpochBarriers: 2})
	oneBare := sim.MustRun(sim.Config{Sched: s1, Census: cen1, HW: h, Epochs: 2})
	if one.MaxClock() != oneBare.MaxClock() {
		t.Fatalf("P=1 barriers changed clocks: %v != %v", one.MaxClock(), oneBare.MaxClock())
	}
}

// TestSimScaleSmoke runs one config at P=4096 on a hierarchical
// interconnect and asserts it completes in interactive time — the
// scale regime rdmbench sweeps. The cache is shared across both
// executors, as in a real sweep.
func TestSimScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("P=4096 smoke skipped in -short")
	}
	if raceEnabled {
		t.Skip("P=4096 smoke asserts wall-clock interactivity; meaningless instrumented")
	}
	h := hw.A6000()
	const p = 4096
	ts, err := topo.ParseSpec("512x8:nvlink,ib")
	if err != nil {
		t.Fatal(err)
	}
	tp := ts.MustTopology(p)
	s := schedFor(1<<16, []int{32, 16, 8}, 0, p, p, false)
	cen := s.ApproxCensus(1 << 20)
	pc := plan.NewPriceCache()
	start := time.Now()
	for _, overlap := range []bool{false, true} {
		res := sim.MustRun(sim.Config{
			Sched: s, Census: cen, HW: h, Topology: tp,
			Epochs: 2, Overlap: overlap, Cache: pc,
		})
		if res.MaxClock() <= 0 {
			t.Fatal("degenerate clock")
		}
		if res.Meters.TotalVolume() <= 0 {
			t.Fatal("no metered traffic at P=4096")
		}
	}
	if el := time.Since(start); el > 60*time.Second {
		t.Fatalf("P=4096 sim took %v, want interactive time", el)
	} else {
		t.Logf("P=4096 both executors priced in %v", el)
	}
}

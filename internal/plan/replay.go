package plan

// This file is the one per-device charge walk: it replays a compiled
// schedule's dependency DAG over per-device occupancy lanes
// (hw.Occupancy, one serial timeline per compute/link resource) and
// produces everything the live fabric would measure — per-device
// clocks, per-rank communication and compute time, the full per-kind /
// per-tier byte census, and optional trace events — without ever
// materializing a payload buffer.
//
// The walk is an extraction, not an approximation: the charge sequence
// is the interpreter's own (internal/core execOp, charge for charge,
// in order, with each rank's own tile shapes), the rendezvous rule is
// the fabric's (all member clocks synchronize to max(deposits) + the
// metering seam's time for the same group and byte census, via
// comm.Meter), and the overlap lane model is the DAG executor's (ops
// start at max(resource free, dependency finishes), advance only their
// resource, and rejoin at epoch boundaries in the same merge order).
// The DAG pricer (PriceDAGEpochs) and the discrete-event backend
// (internal/sim) are both this walk; verify.CheckSimMatchesFabric and
// CheckOverlapEquivalence pin its clocks, time accumulators and meters
// bit-identical to live fabric runs for both executors.

import (
	"strconv"

	"gnnrdm/internal/comm"
	"gnnrdm/internal/dist"
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
	"gnnrdm/internal/trace"
)

// Meters is the walk's byte census, field-for-field the live fabric's
// accounting (comm.Fabric addVolume): primary and side-channel volume,
// call counts, and per-link-tier splits, all by collective kind.
type Meters struct {
	Volume         [hw.NumCollectiveKinds]int64
	SideVolume     [hw.NumCollectiveKinds]int64
	Calls          [hw.NumCollectiveKinds]int64
	TierVolume     [topo.NumTiers][hw.NumCollectiveKinds]int64
	SideTierVolume [topo.NumTiers][hw.NumCollectiveKinds]int64
}

// add replicates Fabric.addVolume: primary or side routing, intra/inter
// tier split, and the per-kind call counter.
func (m *Meters) add(kind hw.CollectiveKind, vol comm.Volume, side bool) {
	if side {
		m.SideVolume[kind] += vol.Bytes
		m.SideTierVolume[topo.TierIntra][kind] += vol.Bytes - vol.Tier1
		m.SideTierVolume[topo.TierInter][kind] += vol.Tier1
	} else {
		m.Volume[kind] += vol.Bytes
		m.TierVolume[topo.TierIntra][kind] += vol.Bytes - vol.Tier1
		m.TierVolume[topo.TierInter][kind] += vol.Tier1
	}
	m.Calls[kind]++
}

// TotalVolume returns all bytes moved including side-channel traffic,
// matching Fabric.TotalVolume.
func (m *Meters) TotalVolume() int64 {
	var s int64
	for k := range m.Volume {
		s += m.Volume[k] + m.SideVolume[k]
	}
	return s
}

// TotalSideVolume returns the side-channel bytes across all kinds.
func (m *Meters) TotalSideVolume() int64 {
	var s int64
	for k := range m.SideVolume {
		s += m.SideVolume[k]
	}
	return s
}

// Walk is everything one replay measured.
type Walk struct {
	// Clocks is each device's final simulated clock (the occupancy
	// makespan), equal to Device.Clock after the same live run.
	Clocks []float64
	// CommTime and ComputeTime are the per-rank accumulators, equal to
	// Device.CommTime / Device.ComputeTime after the same live run
	// (including the overlap executor's lane-merge accumulation order).
	CommTime    []float64
	ComputeTime []float64
	// Meters is the final byte census.
	Meters Meters
	// EpochClock/EpochComm/EpochCompute are cumulative per-rank
	// snapshots at each epoch's snapshot point ([epoch][rank]);
	// EpochBytes is the cumulative total metered volume (including
	// side-channel) there. Deltas between consecutive epochs reproduce
	// core.EpochStats exactly when barriers is 2.
	EpochClock   [][]float64
	EpochComm    [][]float64
	EpochCompute [][]float64
	EpochBytes   []int64
}

// Replay walks the DAG's charge sequence on every device, epochs
// times, on an interconnect topology (nil = flat) under the fabric's
// default Auto algorithm selection. With overlap each op starts at
// max(its resource's cursor, its dependencies' finishes) and advances
// only its resource, lanes joining at each epoch boundary; without it
// ops run in schedule order on one joined timeline per device, the
// sequential interpreter. barriers is the number of world barriers
// after each epoch: 0 reproduces a bare Engine.Epoch loop, 2
// core.TrainResumable's barrier/snapshot protocol, with the per-epoch
// snapshot after the first barrier (or at the epoch join when 0). A
// non-nil tracer receives the synthesized timeline in its current
// session. pc shares redistribution censuses across walks of one (P,
// hardware, topology) context.
func (d *DAG) Replay(cen Census, h *hw.Model, tp *topo.Topology, epochs int, overlap bool, barriers int, tr *trace.Tracer, pc *PriceCache) *Walk {
	w := newWalker(d, cen, h, tp, max(epochs, 0), overlap, barriers, tr, pc)
	w.run()
	return w.result()
}

// walker is one replay's state: per-device occupancy cursors, the
// clock scratch the rendezvous rule operates on, per-resource time
// accumulators (index 0 is the base device; 1 and 2 are the overlap
// executor's link lanes, folded into the base at each epoch join in
// the executor's merge order), the byte meters, and per-group round
// counters for trace attribution. Everything is allocated once in
// newWalker; with tracing off, later epochs allocate nothing.
type walker struct {
	d   *DAG
	s   *Schedule
	cen Census
	h   *hw.Model
	tp  *topo.Topology
	pc  *PriceCache

	p       int
	epochs  int
	overlap bool
	nbarr   int

	meter  comm.Meter
	occ    []hw.Occupancy
	clk    []float64
	finish [][]float64 // [node][rank] finish times, rewritten each epoch
	regs   map[Reg]regShape

	// comm/compute accumulators per resource lane. Seq mode charges
	// everything to lane 0; overlap mode charges each op to its
	// resource's lane and folds lanes 1..N-1 into 0 at the epoch join,
	// replicating Device.MergeLane's accumulation order bit-for-bit.
	comm    [hw.NumResources][]float64
	compute [hw.NumResources][]float64
	resCur  []hw.Resource // current op's resource per rank (ResCompute in seq mode)
	resTab  *resourceTable

	meters Meters

	world     []int
	colGroups [][]int
	chunkBuf  []int64
	wBytes    int64

	// Charges depend on shapes, not values, so every epoch replays the
	// same collective rounds: rounds memoizes each priced allgather and
	// allreduce by its census, and abc each KSpMMABC result width's
	// priced exchange (the walk's structural census is fixed).
	rounds map[roundKey]round
	abc    map[int]*abcExchange

	// Per-group rendezvous round counters (the fabric's groupComm.gen):
	// index 0 is the world group, 1+j is column group j.
	gens []uint64

	// Trace state (nil tracer disables all of it).
	tr                               *trace.Tracer
	cfgStr                           string
	grpKeys                          []string // group keys by gen index, built only when tracing
	epoch                            int
	snapClock, snapComm, snapCompute [][]float64
	snapBytes                        []int64
}

// regShape mirrors the executor's live matrix shapes during the walk.
type regShape struct {
	layout     dist.Layout
	rows, cols int
}

// round is one priced collective round: its rendezvous time and
// metered volume.
type round struct {
	t   float64
	vol comm.Volume
}

// roundKey identifies a memoized allgather (group gen index, source
// layout and global shape) or world allreduce (buffer bytes).
type roundKey struct {
	kind       hw.CollectiveKind
	gid        int
	layout     dist.Layout
	rows, cols int
	bytes      int64
}

// abcExchange is one KSpMMABC result exchange: its two-round byte
// census and both rounds priced.
type abcExchange struct {
	x         *sparseExchangeCensus
	meta, pay round
}

// Gen-counter indices: world is 0, column group j is 1+j.
const gidWorld = 0

func gidCol(j int) int { return 1 + j }

// slab returns n×p zeroed rows cut from one backing array.
func slab(n, p int) [][]float64 {
	buf := make([]float64, n*p)
	out := make([][]float64, n)
	for i := range out {
		out[i] = buf[i*p : (i+1)*p]
	}
	return out
}

func newWalker(d *DAG, cen Census, h *hw.Model, tp *topo.Topology, epochs int, overlap bool, barriers int, tr *trace.Tracer, pc *PriceCache) *walker {
	s := d.Sched
	p := s.P
	pc.bind(p, h, tp)
	e := &walker{
		d: d, s: s, cen: cen, h: h, tp: tp, pc: pc,
		p: p, epochs: epochs, overlap: overlap, nbarr: barriers,
		meter:       comm.Meter{HW: h, Topo: tp},
		occ:         make([]hw.Occupancy, p),
		clk:         make([]float64, p),
		finish:      slab(len(d.Nodes), p),
		regs:        make(map[Reg]regShape, s.NumRegs),
		rounds:      make(map[roundKey]round),
		abc:         make(map[int]*abcExchange),
		resCur:      make([]hw.Resource, p),
		world:       s.world(),
		gens:        make([]uint64, 1+s.RA),
		tr:          tr,
		snapClock:   slab(epochs, p),
		snapComm:    slab(epochs, p),
		snapCompute: slab(epochs, p),
		snapBytes:   make([]int64, epochs),
	}
	for res := range e.comm {
		e.comm[res] = make([]float64, p)
		e.compute[res] = make([]float64, p)
	}
	e.colGroups = make([][]int, s.RA)
	for j := 0; j < s.RA; j++ {
		e.colGroups[j] = s.colGroup(j)
	}
	e.chunkBuf = make([]int64, p)
	if e.overlap {
		e.resTab = d.resources(e.tp)
	}
	for l := 1; l < len(s.Dims); l++ {
		e.wBytes += int64(s.Dims[l-1]) * int64(s.Dims[l]) * 4
	}
	if s.SAGE {
		e.wBytes *= 2
	}
	if e.tr != nil {
		e.cfgStr = s.Config.String()
		e.grpKeys = make([]string, 1+s.RA)
		e.grpKeys[gidWorld] = groupKey(e.world)
		for j := 0; j < s.RA; j++ {
			e.grpKeys[gidCol(j)] = groupKey(e.colGroups[j])
		}
	}
	return e
}

// groupKey renders a sorted rank list the way the fabric names its
// rendezvous groups ("0,2,4"), so (Group, Seq) pairs in virtual traces
// line up with live ones.
func groupKey(ranks []int) string {
	b := make([]byte, 0, 4*len(ranks))
	for i, r := range ranks {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	return string(b)
}

func (e *walker) run() {
	for ep := 0; ep < e.epochs; ep++ {
		e.epoch = ep
		if e.tr != nil {
			for r := 0; r < e.p; r++ {
				e.tr.SetEpochAt(r, 0, ep)
				e.tr.BeginPhaseAt(r, 0, "epoch", e.occ[r].Makespan())
			}
		}
		for i := range e.d.Nodes {
			n := &e.d.Nodes[i]
			e.position(n, i)
			e.execNode(n)
			copy(e.finish[i], e.clk)
			if e.overlap {
				for r := 0; r < e.p; r++ {
					e.occ[r].Advance(e.resCur[r], e.clk[r])
				}
			} else {
				for r := 0; r < e.p; r++ {
					e.occ[r].Advance(hw.ResCompute, e.clk[r])
					e.occ[r].Join()
				}
			}
		}
		if e.overlap {
			// Epoch boundary: the executor merges its lanes back into the
			// base device (occupancy Join; clock = max over lanes) and
			// adds each lane's accumulated comm/compute time onto the
			// base's, link lanes in resource order.
			for r := 0; r < e.p; r++ {
				e.occ[r].Join()
			}
			for res := hw.ResCompute + 1; res < hw.NumResources; res++ {
				bc, bk := e.comm[hw.ResCompute], e.compute[hw.ResCompute]
				lc, lk := e.comm[res], e.compute[res]
				for r := 0; r < e.p; r++ {
					bc[r] += lc[r]
					bk[r] += lk[r]
					lc[r], lk[r] = 0, 0
				}
			}
		}
		// TrainResumable's protocol: barrier, stats snapshot, barrier.
		// With no barriers (a bare Epoch loop) the snapshot lands at the
		// epoch join.
		if e.nbarr == 0 {
			e.snapshot(ep)
		}
		for b := 0; b < e.nbarr; b++ {
			e.barrier()
			if b == 0 {
				e.snapshot(ep)
			}
		}
		if e.tr != nil {
			for r := 0; r < e.p; r++ {
				e.tr.EndPhaseAt(r, 0, e.occ[r].Makespan())
			}
		}
	}
}

// position places each rank's clock where the op starts on it and
// records the op's resource per rank: overlapped ops start at max(their
// resource's cursor, their DAG dependencies' finishes); sequential ops
// run back to back on the joined compute timeline.
func (e *walker) position(n *DAGNode, i int) {
	if !e.overlap {
		for r := 0; r < e.p; r++ {
			e.clk[r] = e.occ[r].Free(hw.ResCompute)
		}
		return
	}
	for r := 0; r < e.p; r++ {
		res := e.resTab.at(i, r)
		e.resCur[r] = res
		start := e.occ[r].Free(res)
		for _, m := range n.Deps {
			start = max(start, e.finish[m][r])
		}
		e.clk[r] = start
	}
}

func (e *walker) result() *Walk {
	w := &Walk{
		Clocks:       make([]float64, e.p),
		CommTime:     e.comm[hw.ResCompute],
		ComputeTime:  e.compute[hw.ResCompute],
		Meters:       e.meters,
		EpochClock:   e.snapClock,
		EpochComm:    e.snapComm,
		EpochCompute: e.snapCompute,
		EpochBytes:   e.snapBytes,
	}
	for r := 0; r < e.p; r++ {
		w.Clocks[r] = e.occ[r].Makespan()
	}
	return w
}

func (e *walker) snapshot(ep int) {
	for r := 0; r < e.p; r++ {
		e.snapClock[ep][r] = e.occ[r].Makespan()
	}
	copy(e.snapComm[ep], e.comm[hw.ResCompute])
	copy(e.snapCompute[ep], e.compute[hw.ResCompute])
	e.snapBytes[ep] = e.meters.TotalVolume()
}

// setScope stamps the (rank, track) timeline's scope tags the way the
// live engine's Trace* setters would before this op's events.
func (e *walker) setScope(r, track int, n *DAGNode) {
	layer, step := 0, 0
	dir := ""
	if n != nil {
		step = n.Op.Step
		switch n.Phase {
		case "init", "loss":
			dir = "fwd"
		case "fwd":
			dir, layer = "fwd", n.Layer
		case "bwd":
			dir, layer = "bwd", n.Layer
		}
	}
	e.tr.SetEpochAt(r, track, e.epoch)
	e.tr.SetLayerAt(r, track, layer)
	e.tr.SetDirAt(r, track, dir)
	e.tr.SetStepAt(r, track, step)
	e.tr.SetConfigAt(r, track, e.cfgStr)
}

// kernel charges one compute kernel on rank r: clock and the current
// lane's compute accumulator advance by t (straggler-multiplied),
// exactly Device.chargeKernel.
func (e *walker) kernel(n *DAGNode, r int, opName string, t float64, bytes, flops int64) {
	if e.cen.Slow != nil && r < len(e.cen.Slow) && e.cen.Slow[r] > 1 {
		t *= e.cen.Slow[r]
	}
	start := e.clk[r]
	e.clk[r] += t
	res := e.resCur[r]
	e.compute[res][r] += t
	if e.tr != nil {
		e.setScope(r, int(res), n)
		e.tr.Emit(r, trace.Event{
			Class: trace.ClassKernel, Op: opName,
			Bytes: bytes, Flops: flops,
			Start: start, End: e.clk[r], Track: int(res),
		})
	}
}

func (e *walker) mem(n *DAGNode, r int, bytes int64) {
	e.kernel(n, r, "mem", e.h.MemTime(bytes), bytes, 0)
}

// collective synchronizes the group at max(member clocks) + t — the
// fabric's rendezvous rule — charging each member's comm accumulator
// with its own skew-inclusive delta and metering the round once.
// Callers guarantee len(group) >= 2 (smaller groups never reach the
// live fabric either).
func (e *walker) collective(n *DAGNode, group []int, gid int, opName string, kind hw.CollectiveKind, t float64, vol comm.Volume, metered, side bool) {
	var m float64
	for _, r := range group {
		m = max(m, e.clk[r])
	}
	nc := m + t
	e.gens[gid]++
	seq := e.gens[gid]
	for _, r := range group {
		before := e.clk[r]
		res := e.resCur[r]
		e.comm[res][r] += nc - before
		if e.tr != nil {
			e.setScope(r, int(res), n)
			e.tr.Emit(r, trace.Event{
				Class: trace.ClassCollective, Op: opName,
				Group: e.grpKeys[gid], Seq: seq, GroupSize: len(group),
				Bytes: vol.Bytes, Tier1: vol.Tier1,
				Start: before, End: nc, Track: int(res),
			})
		}
		e.clk[r] = nc
	}
	if metered {
		e.meters.add(kind, vol, side)
	}
}

// barrier replays one world Barrier on the base timeline: latency-only,
// never metered, but it does consume a world rendezvous round and its
// skew lands in comm time, exactly as live.
func (e *walker) barrier() {
	if e.p < 2 {
		return
	}
	for r := 0; r < e.p; r++ {
		e.clk[r] = e.occ[r].Free(hw.ResCompute)
		e.resCur[r] = hw.ResCompute
	}
	t := e.meter.Barrier(e.world)
	e.collective(nil, e.world, gidWorld, "barrier", hw.OpSendRecv, t, comm.Volume{}, false, false)
	for r := 0; r < e.p; r++ {
		e.occ[r].Advance(hw.ResCompute, e.clk[r])
		e.occ[r].Join()
	}
}

// regrid replays dist.regrid's charge order on every rank — divide
// memcpy, metered world all-to-all, merge memcpy — from the cached
// byte census. The memcpy charges are unconditional (ChargeMem(0)
// still costs a kernel launch). side routes the round to the
// side-channel meters (the byte-packed ReLU masks of
// RedistributeMask).
func (e *walker) regrid(n *DAGNode, from, to dist.Layout, rows, cols int, packed, side bool) {
	x := e.pc.exchange(from, to, rows, cols, packed)
	for _, r := range e.world {
		e.mem(n, r, x.Div[r])
	}
	if e.p >= 2 {
		var t float64
		var vol comm.Volume
		if e.tp != nil {
			cst := e.pc.allToAllCost(from, to, rows, cols, packed)
			t = cst.Time
			vol = comm.Volume{Bytes: cst.Bytes(), Tier1: cst.Tier[topo.TierInter]}
		} else {
			t = e.h.CollectiveTime(hw.OpAllToAll, e.p, x.MaxInj)
			vol = comm.Volume{Bytes: x.Total}
		}
		e.collective(n, e.world, gidWorld, "alltoall", hw.OpAllToAll, t, vol, true, side)
	}
	for _, r := range e.world {
		e.mem(n, r, x.Mer[r])
	}
}

// allGather prices group gid's allgather of its members' ragged tiles
// of a rows×cols matrix under layout l.
func (e *walker) allGather(gid int, group []int, l dist.Layout, rows, cols int) round {
	k := roundKey{kind: hw.OpAllGather, gid: gid, layout: l, rows: rows, cols: cols}
	if rd, ok := e.rounds[k]; ok {
		return rd
	}
	chunks := e.chunkBuf[:len(group)]
	for i, r := range group {
		chunks[i] = e.tile(l, r, rows, cols)
	}
	var rd round
	rd.t, rd.vol = e.meter.AllGather(group, chunks)
	e.rounds[k] = rd
	return rd
}

// allReduce prices a world allreduce of a bytes-sized buffer.
func (e *walker) allReduce(bytes int64) round {
	k := roundKey{kind: hw.OpAllReduce, bytes: bytes}
	if rd, ok := e.rounds[k]; ok {
		return rd
	}
	var rd round
	rd.t, rd.vol = e.meter.AllReduce(e.world, bytes)
	e.rounds[k] = rd
	return rd
}

// sparseRounds replays one two-round sparse exchange's charge order —
// dist.RedistributeSparse's metadata advert round on the side channel
// followed by the variable-volume payload round, or the KSpMMABC
// result exchange — metering each round like the live fabric's
// AllToAllV. Each round function returns the collective's rendezvous
// time and metered volume.
func (e *walker) sparseRounds(n *DAGNode, x *sparseExchangeCensus, metaRound, payRound func() (float64, comm.Volume)) {
	for _, r := range e.world {
		e.mem(n, r, x.MetaDiv[r])
	}
	if e.p >= 2 {
		t, vol := metaRound()
		e.collective(n, e.world, gidWorld, "alltoall", hw.OpAllToAll, t, vol, true, true)
	}
	for _, r := range e.world {
		e.mem(n, r, x.MetaMer[r])
	}
	for _, r := range e.world {
		e.mem(n, r, x.PayDiv[r])
	}
	if e.p >= 2 {
		t, vol := payRound()
		e.collective(n, e.world, gidWorld, "alltoall", hw.OpAllToAll, t, vol, true, false)
	}
	for _, r := range e.world {
		e.mem(n, r, x.PayMer[r])
	}
}

// sparseRegrid replays one sparse from→to redistribution from the
// cached two-round census.
func (e *walker) sparseRegrid(n *DAGNode, from, to dist.Layout, rows, cols int) {
	x := e.pc.sparseExchange(e.s, from, to, rows, cols)
	priced := func(metaRound bool, maxInj, total int64) func() (float64, comm.Volume) {
		return func() (float64, comm.Volume) {
			if e.tp != nil {
				cst := e.pc.sparseAllToAllCost(e.s, from, to, rows, cols, metaRound)
				return cst.Time, comm.Volume{Bytes: cst.Bytes(), Tier1: cst.Tier[topo.TierInter]}
			}
			return e.h.CollectiveTime(hw.OpAllToAll, e.p, maxInj), comm.Volume{Bytes: total}
		}
	}
	e.sparseRounds(n, x,
		priced(true, x.MetaMaxInj, x.MetaTotal),
		priced(false, x.PayMaxInj, x.PayTotal))
}

// abcExchangeFor returns the priced KSpMMABC exchange for result width
// cols, building it on first use from the census's structural pairs.
func (e *walker) abcExchangeFor(cols int) *abcExchange {
	if ax, ok := e.abc[cols]; ok {
		return ax
	}
	if e.cen.ABCPairs == nil {
		// Census built without the ABC fill (hand-rolled): fall back to
		// the analytic estimate over the panel total.
		var total int64
		for _, v := range e.cen.NNZFwd {
			total += v
		}
		e.cen.ABCPairs, e.cen.NNZABC = e.s.ApproxABCPairs(total)
	}
	x, meta, pay := abcCensus(e.p, e.cen.ABCPairs, cols)
	ax := &abcExchange{x: x}
	if e.p >= 2 {
		ax.meta.t, ax.meta.vol = e.meter.AllToAll(e.world, meta, x.MetaMaxInj, x.MetaTotal)
		ax.pay.t, ax.pay.vol = e.meter.AllToAll(e.world, pay, x.PayMaxInj, x.PayTotal)
	}
	e.abc[cols] = ax
	return ax
}

// tile returns rank r's tile bytes under a layout, the executor's
// Local.Bytes().
func (e *walker) tile(l dist.Layout, r, rows, cols int) int64 {
	tr, tc := dist.TileShape(l, e.p, r, rows, cols)
	return int64(tr) * int64(tc) * 4
}

// execNode replays one op's exact charge sequence on every rank.
func (e *walker) execNode(n *DAGNode) {
	op := n.Op
	s, p := e.s, e.p
	switch op.Kind {
	case KInput:
		e.regs[op.Dst] = regShape{op.Layout.Normalize(p), op.Rows, op.Cols}
	case KRedist:
		a := e.regs[op.A]
		from, to := a.layout, op.To.Normalize(p)
		switch {
		case from == to:
			// Pointer alias, free.
		case to == dist.R:
			// replicate: world allgather of ragged source tiles, then
			// the full-matrix assembly memcpy.
			if p >= 2 {
				rd := e.allGather(gidWorld, e.world, from, a.rows, a.cols)
				e.collective(n, e.world, gidWorld, "allgather", hw.OpAllGather, rd.t, rd.vol, true, false)
			}
			for _, r := range e.world {
				e.mem(n, r, int64(a.rows)*int64(a.cols)*4)
			}
		case from == dist.R:
			// Distribute from a replicated local copy: free.
		default:
			if op.Sparse && s.SparseEligible(from, to) {
				e.sparseRegrid(n, from, to, a.rows, a.cols)
			} else {
				e.regrid(n, from, to, a.rows, a.cols, false, false)
			}
		}
		e.regs[op.Dst] = regShape{to, op.Rows, op.Cols}
	case KSpMM:
		a := e.regs[op.A]
		if p/s.RA > 1 {
			// Each column group allgathers its ragged feature slice
			// concurrently; rank r participates in its own group only.
			for j := 0; j < s.RA; j++ {
				grp := e.colGroups[j]
				rd := e.allGather(gidCol(j), grp, s.GridL, a.rows, a.cols)
				e.collective(n, grp, gidCol(j), "allgather", hw.OpAllGather, rd.t, rd.vol, true, false)
			}
			for r := 0; r < p; r++ {
				_, pcols := dist.TileShape(s.GridL, p, r, a.rows, a.cols)
				e.mem(n, r, int64(a.rows)*int64(pcols)*4)
			}
		}
		for r := 0; r < p; r++ {
			_, pcols := dist.TileShape(s.GridL, p, r, a.rows, a.cols)
			nnz := int64(0)
			src := e.cen.NNZBwd
			if op.Forward {
				src = e.cen.NNZFwd
			}
			if r < len(src) {
				nnz = src[r]
			}
			e.kernel(n, r, "spmm", e.h.SpMMTime(nnz, pcols), 0, nnz*int64(pcols))
		}
		e.regs[op.Dst] = regShape{s.GridL, op.Rows, op.Cols}
	case KSpMMABC:
		a := e.regs[op.A]
		ax := e.abcExchangeFor(a.cols)
		for r := 0; r < p; r++ {
			nnz := int64(0)
			if r < len(e.cen.NNZABC) {
				nnz = e.cen.NNZABC[r]
			}
			e.kernel(n, r, "spmm", e.h.SpMMTime(nnz, a.cols), 0, nnz*int64(a.cols))
		}
		e.sparseRounds(n, ax.x,
			func() (float64, comm.Volume) { return ax.meta.t, ax.meta.vol },
			func() (float64, comm.Volume) { return ax.pay.t, ax.pay.vol })
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KGEMM:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			arows, _ := dist.TileShape(dist.H, p, r, a.rows, a.cols)
			e.kernel(n, r, "gemm", e.h.GemmTime(arows, a.cols, op.Cols),
				0, int64(arows)*int64(a.cols)*int64(op.Cols))
		}
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KGradGEMM:
		a, bb := e.regs[op.A], e.regs[op.B]
		for r := 0; r < p; r++ {
			arows, _ := dist.TileShape(dist.H, p, r, a.rows, a.cols)
			e.kernel(n, r, "gemm", e.h.GemmTime(a.cols, arows, bb.cols),
				0, int64(a.cols)*int64(arows)*int64(bb.cols))
		}
		e.regs[op.Dst] = regShape{dist.R, op.Rows, op.Cols}
	case KAllReduceGrad:
		if p >= 2 {
			rd := e.allReduce(int64(op.Rows) * int64(op.Cols) * 4)
			e.collective(n, e.world, gidWorld, "allreduce", hw.OpAllReduce, rd.t, rd.vol, true, false)
		}
	case KReLU:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			e.mem(n, r, e.tile(a.layout, r, a.rows, a.cols))
		}
	case KReLUGrad:
		u, src := e.regs[op.A], e.regs[op.B]
		if src.layout != u.layout {
			for r := 0; r < p; r++ {
				e.mem(n, r, e.tile(src.layout, r, src.rows, src.cols))
			}
			e.regrid(n, src.layout, u.layout, src.rows, src.cols, true, true)
		}
		for r := 0; r < p; r++ {
			e.mem(n, r, e.tile(u.layout, r, u.rows, u.cols))
		}
	case KAdd:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			e.mem(n, r, e.tile(a.layout, r, a.rows, a.cols))
		}
	case KMemoize, KReuse:
		e.regs[op.Dst] = e.regs[op.A]
	case KLoss:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			e.mem(n, r, 2*e.tile(dist.H, r, a.rows, a.cols))
		}
		if p >= 2 {
			rd := e.allReduce(8)
			e.collective(n, e.world, gidWorld, "allreduce", hw.OpAllReduce, rd.t, rd.vol, true, false)
		}
		e.regs[op.Dst] = regShape{dist.H, op.Rows, op.Cols}
	case KMemWrite:
		a := e.regs[op.A]
		for r := 0; r < p; r++ {
			e.mem(n, r, e.tile(a.layout, r, a.rows, a.cols))
		}
	case KUpdate:
		for r := 0; r < p; r++ {
			e.mem(n, r, 4*e.wBytes)
		}
	}
}

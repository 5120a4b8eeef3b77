// The metering/topology-routing seam. A Meter computes the modelled
// time and the metered Volume of one collective round from its byte
// census alone — the exact code the live fabric's rendezvous
// finalizers run, extracted so the payload-free charge walk
// (plan.DAG.Replay) prices and meters rounds identically without
// materializing buffers.
//
// Routing: a Meter either carries a topology (collectives price and
// split bytes per link tier through internal/topo's algorithm library)
// or a flat hardware model (the pre-topology closed forms). The fabric
// builds one per round via MeterFor, which folds in per-rank link
// fault degradation; the charge walk builds one per run from its clean
// model and topology.
package comm

import (
	"gnnrdm/internal/hw"
	"gnnrdm/internal/topo"
)

// Meter prices and meters collective rounds for one routing context.
// Exactly one of the two routes is active: Topo != nil routes through
// the topology-aware algorithm library with HW as the base link model;
// Topo == nil uses HW's flat CollectiveTime formulas (metering every
// byte on tier 0, i.e. Volume.Tier1 == 0).
type Meter struct {
	HW   *hw.Model
	Topo *topo.Topology
	// Algs is the per-kind algorithm selection (zero value = topo.Auto,
	// the autotuner). Only consulted when Topo is attached.
	Algs [hw.NumCollectiveKinds]topo.Algorithm
}

// MeterFor returns the meter a collective over group runs under: the
// fabric's topology (degraded by the participants' worst link-fault
// multipliers) when one is attached, else the flat link model for the
// group (same degradation rule). This is the routing decision every
// rendezvous finalizer makes, exposed as a value.
func (f *Fabric) MeterFor(group []int) Meter {
	if tp := f.topoFor(group); tp != nil {
		return Meter{HW: f.HW, Topo: tp, Algs: f.algs}
	}
	return Meter{HW: f.linkModel(group)}
}

// Broadcast prices root sending bytes to every member. rootIdx is the
// root's group position.
func (m Meter) Broadcast(group []int, rootIdx int, bytes int64) (float64, Volume) {
	if m.Topo != nil {
		c := m.Topo.Broadcast(m.HW, group, rootIdx, bytes)
		return c.Time, volumeOf(c)
	}
	t := m.HW.CollectiveTime(hw.OpBroadcast, len(group), bytes)
	return t, Volume{Bytes: bytes * int64(len(group)-1)}
}

// AllGather prices gathering per-position chunks (chunks[i] bytes from
// group position i) onto every member.
func (m Meter) AllGather(group []int, chunks []int64) (float64, Volume) {
	if m.Topo != nil {
		_, c := m.Topo.AllGather(m.HW, m.Algs[hw.OpAllGather], group, chunks)
		return c.Time, volumeOf(c)
	}
	var total int64
	for _, b := range chunks {
		total += b
	}
	t := m.HW.CollectiveTime(hw.OpAllGather, len(group), total)
	return t, Volume{Bytes: total * int64(len(group)-1)}
}

// AllReduce prices an element-wise sum of bytes-sized buffers onto
// every member.
func (m Meter) AllReduce(group []int, bytes int64) (float64, Volume) {
	if m.Topo != nil {
		_, c := m.Topo.AllReduce(m.HW, m.Algs[hw.OpAllReduce], group, bytes)
		return c.Time, volumeOf(c)
	}
	t := m.HW.CollectiveTime(hw.OpAllReduce, len(group), bytes)
	return t, Volume{Bytes: 2 * bytes * int64(len(group)-1)}
}

// AllToAll prices a personalized exchange. pair(i, j) is the bytes
// group position i sends to position j (consulted only on the topology
// route); maxInject and total are the busiest injector's and the
// summed cross-pair bytes (self-pairs excluded), which the flat route
// prices and meters from.
func (m Meter) AllToAll(group []int, pair func(i, j int) int64, maxInject, total int64) (float64, Volume) {
	if m.Topo != nil {
		_, c := m.Topo.AllToAll(m.HW, m.Algs[hw.OpAllToAll], group, pair)
		return c.Time, volumeOf(c)
	}
	t := m.HW.CollectiveTime(hw.OpAllToAll, len(group), maxInject)
	return t, Volume{Bytes: total}
}

// ReduceScatter prices a sum + scatter leaving chunkBytes[i] bytes on
// group position i; totalBytes is the full buffer size (the sum of
// chunkBytes).
func (m Meter) ReduceScatter(group []int, chunkBytes []int64, totalBytes int64) (float64, Volume) {
	if m.Topo != nil {
		_, c := m.Topo.ReduceScatter(m.HW, m.Algs[hw.OpReduceScatter], group, chunkBytes)
		return c.Time, volumeOf(c)
	}
	t := m.HW.CollectiveTime(hw.OpReduceScatter, len(group), totalBytes)
	return t, Volume{Bytes: totalBytes * int64(len(group)-1)}
}

// Barrier prices a latency-only group synchronization (never metered).
func (m Meter) Barrier(group []int) float64 {
	if m.Topo != nil {
		return m.Topo.Barrier(m.HW, group)
	}
	return m.HW.LinkLatency
}

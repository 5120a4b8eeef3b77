package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is the id of the enclosing span (0 = none); Group ties
// the spans of one epoch, config or stream together.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Group  string  `json:"group"`
	Rank   int     `json:"rank"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is a
// disabled log: every method is a no-op, so untraced runs pay one nil
// check per call site.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// open starts a span and returns its id.
func (l *spanLog) open(name, group string, parent, rank int) int {
	if l == nil {
		return 0
	}
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Group: group, Rank: rank, Start: now, End: -1})
	return id
}

// close ends span id.
func (l *spanLog) close(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// layerStat totals the spans of one name.
type layerStat struct {
	Name  string  `json:"name"`
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

// stats returns per-name totals and self times. A span's self time is its
// duration minus the part of it covered by the union of its children.
func (l *spanLog) stats() []layerStat {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	children := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*layerStat{}
	for _, s := range l.spans {
		if s.End < 0 {
			continue
		}
		st := by[s.Name]
		if st == nil {
			st = &layerStat{Name: s.Name}
			by[s.Name] = st
		}
		d := s.End - s.Start
		st.Count++
		st.Total += d
		st.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerStat, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(p span, kids []span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, k := range kids {
		if k.End < 0 {
			continue
		}
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, curA, curB float64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			sum += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		sum += curB - curA
	}
	return sum
}

// printSummary writes the per-name table: count, total and self seconds.
func (l *spanLog) printSummary(w io.Writer) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, st := range l.stats() {
		fmt.Fprintf(w, "%-24s %8d %12.6f %12.6f\n", st.Name, st.Count, st.Total, st.Self)
	}
}

// write saves the host block, the per-name table and every span as JSON.
func (l *spanLog) write(path string, h host) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	st := l.stats()
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Host   host        `json:"host"`
		Layers []layerStat `json:"layers"`
		Spans  []span      `json:"spans"`
	}{h, st, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

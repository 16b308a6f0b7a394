package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"emp/internal/obs"
)

// tracer records the benchmark's own spans around each public call it
// makes, into an in-memory sink that the solver's and server's spans share.
// Spans stay in memory during the run and are written out at the end.
type tracer struct {
	reg *obs.Registry
	mem *obs.MemorySink
}

func newTracer() *tracer {
	t := &tracer{reg: obs.New(), mem: &obs.MemorySink{}}
	t.reg.SetSink(t.mem)
	t.reg.SetEnabled(true)
	return t
}

// span opens a benchmark span named after the call it wraps; on a nil
// tracer it only measures.
func (t *tracer) span(ctx context.Context, name string) (obs.Span, context.Context) {
	if t == nil {
		return (*obs.Timer)(nil).StartCtx(ctx)
	}
	return t.reg.Timer(name, "").StartCtx(ctx)
}

// spanRec is one closed span with absolute start and end (Unix ns).
type spanRec struct {
	id, parent, name string
	start, end       int64
}

// spansOf keeps the identity-carrying span events.
func spansOf(events []obs.Event) []spanRec {
	var out []spanRec
	for _, e := range events {
		if e.Kind != "span" || e.SpanID == "" {
			continue
		}
		out = append(out, spanRec{id: e.SpanID, parent: e.ParentID, name: e.Name,
			start: e.TimeUnixNano - e.DurationNs, end: e.TimeUnixNano})
	}
	return out
}

// layerOf names the repository module a span's time belongs to.
func layerOf(name string) string {
	switch {
	case name == "bench.run":
		return "unattributed"
	case strings.HasPrefix(name, "bench.census."):
		return "census"
	case name == "bench.prep.New":
		return "prep"
	case name == "bench.prep.CutPlan", name == `emp_solve_phase_duration{phase="cut"}`:
		return "shard"
	case name == "bench.fact.Analyze", name == `emp_solve_phase_duration{phase="feasibility"}`:
		return "fact.feasibility"
	case name == `emp_solve_phase_duration{phase="construction"}`:
		return "fact.construction"
	case name == `emp_solve_phase_duration{phase="local_search"}`, name == "emp_tabu_improve_duration",
		name == "bench.tabu.Improve":
		return "tabu"
	case name == `emp_solve_phase_duration{phase="seam_repair"}`:
		return "fact.seam_repair"
	case name == `emp_solve_phase_duration{phase="shard"}`, name == "emp_shard_duration",
		name == "emp_shard_solve_duration":
		return "fact.shards"
	case name == "emp_solve_duration", strings.HasPrefix(name, "bench.fact."):
		return "fact"
	case strings.HasPrefix(name, "emp_request_duration"):
		return "server"
	case strings.HasPrefix(name, "bench.http."):
		return "loadgen"
	case name == "bench.certify":
		return "certify"
	}
	return name
}

// breakdown attributes every instant of the root span's wall time to the
// innermost spans active at that instant (split evenly between concurrent
// ones, e.g. shard sub-solves running in parallel), so the per-layer self
// times add up to the root's wall time exactly. Time when only the root is
// active is the unattributed rest. Spans whose parent was not recorded
// (solves on a fresh trace, such as async jobs) hang off the root.
func breakdown(spans []spanRec, rootID string) (self map[string]float64, wall float64, err error) {
	byID := map[string]*spanRec{}
	for i := range spans {
		byID[spans[i].id] = &spans[i]
	}
	root, ok := byID[rootID]
	if !ok {
		return nil, 0, fmt.Errorf("trace: root span %s not recorded", rootID)
	}
	type edge struct {
		t     int64
		open  bool
		index int
	}
	var edges []edge
	var kept []spanRec
	for _, s := range spans {
		if s.id != rootID {
			if _, ok := byID[s.parent]; !ok {
				s.parent = rootID
			}
		}
		s.start = max(s.start, root.start)
		s.end = min(s.end, root.end)
		if s.end <= s.start {
			continue
		}
		kept = append(kept, s)
		edges = append(edges, edge{s.start, true, len(kept) - 1}, edge{s.end, false, len(kept) - 1})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return !edges[i].open && edges[j].open // close before open at ties
	})
	self = map[string]float64{}
	active := map[int]bool{}
	activeByID := map[string]int{}
	var prev int64
	for _, e := range edges {
		if dt := e.t - prev; dt > 0 && len(active) > 0 {
			// Leaves: active spans with no active child.
			hasChild := map[string]bool{}
			for i := range active {
				if _, ok := activeByID[kept[i].parent]; ok {
					hasChild[kept[i].parent] = true
				}
			}
			var leaves []int
			for i := range active {
				if !hasChild[kept[i].id] {
					leaves = append(leaves, i)
				}
			}
			share := float64(dt) / 1e9 / float64(len(leaves))
			for _, i := range leaves {
				self[layerOf(kept[i].name)] += share
			}
		}
		prev = e.t
		if e.open {
			active[e.index] = true
			activeByID[kept[e.index].id] = e.index
		} else {
			delete(active, e.index)
			delete(activeByID, kept[e.index].id)
		}
	}
	return self, float64(root.end-root.start) / 1e9, nil
}

// printBreakdown prints the per-layer self times, largest first, with the
// unattributed rest and the total, which equals the wall time.
func printBreakdown(w io.Writer, title string, self map[string]float64, wall float64) {
	type row struct {
		layer string
		s     float64
	}
	var rows []row
	var total float64
	for l, s := range self {
		if l != "unattributed" {
			rows = append(rows, row{l, s})
		}
		total += s
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].s > rows[j].s })
	rows = append(rows, row{"unattributed", self["unattributed"]})
	fmt.Fprintf(w, "trace breakdown: %s (self time per layer; rows add up to the wall time)\n", title)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %10.4f s %6.1f%%\n", r.layer, r.s, 100*r.s/wall)
	}
	fmt.Fprintf(w, "  %-22s %10.4f s (wall %.4f s)\n", "total", total, wall)
}

// writeSpans writes every recorded event as JSON lines under dir.
func writeSpans(dir, name string, events []obs.Event) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	sink := obs.NewJSONLSink(f)
	for _, e := range events {
		sink.Emit(e)
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return path, nil
}

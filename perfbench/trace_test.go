package main

import (
	"math"
	"testing"
)

func TestBreakdownAddsUpToWallTime(t *testing.T) {
	const s = int64(1e9) // 1 s in ns
	spans := []spanRec{
		{id: "root", name: "bench.run", start: 0, end: 100 * s},
		{id: "a", parent: "root", name: "bench.fact.SolveCtx", start: 10 * s, end: 50 * s},
		{id: "b", parent: "a", name: "emp_tabu_improve_duration", start: 20 * s, end: 30 * s},
		// Two concurrent children split the overlap evenly.
		{id: "c", parent: "root", name: "bench.census.NamedSeeded", start: 60 * s, end: 80 * s},
		{id: "d", parent: "root", name: "bench.prep.New", start: 70 * s, end: 90 * s},
		// A span on another trace hangs off the root.
		{id: "e", parent: "elsewhere", name: `emp_solve_phase_duration{phase="construction"}`, start: 95 * s, end: 97 * s},
	}
	self, wall, err := breakdown(spans, "root")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"unattributed": 28, "fact": 30, "tabu": 10, "census": 15, "prep": 15, "fact.construction": 2,
	}
	var total float64
	for layer, v := range self {
		total += v
		if math.Abs(v-want[layer]) > 1e-9 {
			t.Errorf("%s: %.3f s, want %.3f s", layer, v, want[layer])
		}
	}
	if wall != 100 || math.Abs(total-wall) > 1e-9 {
		t.Fatalf("self times add up to %.3f s, wall is %.3f s", total, wall)
	}
}

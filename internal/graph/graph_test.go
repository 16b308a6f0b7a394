package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// pathGraph returns 0-1-2-...-n-1.
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// gridGraph returns a cols x rows rook lattice.
func gridGraph(cols, rows int) *Graph {
	g := New(cols * rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			i := r*cols + c
			if c+1 < cols {
				g.AddEdge(i, i+1)
			}
			if r+1 < rows {
				g.AddEdge(i, i+cols)
			}
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, reversed
	g.AddEdge(1, 1) // self loop ignored
	g.AddEdge(0, 9) // out of range ignored
	g.AddEdge(-1, 0)
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
	if g.HasEdge(-5, 0) || g.HasEdge(17, 0) {
		t.Error("HasEdge out of range should be false")
	}
	if g.Degree(0) != 1 || g.Degree(2) != 0 {
		t.Error("degrees wrong")
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateCatchesBadLists(t *testing.T) {
	tests := []struct {
		name string
		adj  [][]int
	}{
		{"asymmetric", [][]int{{1}, {}}},
		{"self loop", [][]int{{0}}},
		{"out of range", [][]int{{5}}},
		{"duplicate", [][]int{{1, 1}, {0, 0}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := FromAdjacency(tc.adj).Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestComponents(t *testing.T) {
	tests := []struct {
		name      string
		build     func() *Graph
		wantCount int
	}{
		{"empty", func() *Graph { return New(0) }, 0},
		{"isolated", func() *Graph { return New(4) }, 4},
		{"path", func() *Graph { return pathGraph(5) }, 1},
		{"two paths", func() *Graph {
			g := New(6)
			g.AddEdge(0, 1)
			g.AddEdge(1, 2)
			g.AddEdge(3, 4)
			g.AddEdge(4, 5)
			return g
		}, 2},
		{"grid", func() *Graph { return gridGraph(4, 4) }, 1},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.build()
			comp, count := g.Components()
			if count != tc.wantCount {
				t.Fatalf("count = %d, want %d", count, tc.wantCount)
			}
			// Every edge joins same-component vertices.
			for u := 0; u < g.N(); u++ {
				for _, v := range g.Neighbors(u) {
					if comp[u] != comp[int(v)] {
						t.Errorf("edge (%d,%d) crosses components", u, v)
					}
				}
			}
			members := g.ComponentMembers()
			if len(members) != count {
				t.Errorf("ComponentMembers len = %d, want %d", len(members), count)
			}
			total := 0
			for _, m := range members {
				total += len(m)
			}
			if total != g.N() {
				t.Errorf("members cover %d vertices, want %d", total, g.N())
			}
		})
	}
}

func TestComponentIDsDense(t *testing.T) {
	g := New(5)
	g.AddEdge(3, 4)
	comp, count := g.Components()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	// ids assigned by lowest member: 0->0, 1->1, 2->2, {3,4}->3
	want := []int{0, 1, 2, 3, 3}
	for i, c := range comp {
		if c != want[i] {
			t.Errorf("comp[%d] = %d, want %d", i, c, want[i])
		}
	}
}

func TestConnectedSubset(t *testing.T) {
	g := gridGraph(3, 3)
	tests := []struct {
		name    string
		members []int
		want    bool
	}{
		{"empty", nil, true},
		{"single", []int{4}, true},
		{"row", []int{0, 1, 2}, true},
		{"L-shape", []int{0, 3, 6, 7}, true},
		{"diagonal only", []int{0, 4}, false},
		{"two corners", []int{0, 8}, false},
		{"whole grid", []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := g.ConnectedSubset(tc.members); got != tc.want {
				t.Errorf("ConnectedSubset(%v) = %v, want %v", tc.members, got, tc.want)
			}
		})
	}
}

// without returns members minus removed: the subset whose connectivity
// ConnectedSubsetExcludingScratch answers.
func without(members []int, removed int) []int {
	out := make([]int, 0, len(members))
	for _, v := range members {
		if v != removed {
			out = append(out, v)
		}
	}
	return out
}

func TestConnectedSubsetExcluding(t *testing.T) {
	g := pathGraph(5)
	sc := g.NewScratch()
	all := []int{0, 1, 2, 3, 4}
	for _, c := range []struct {
		members []int
		removed int
		want    bool
		why     string
	}{
		{all, 0, true, "removing endpoint 0 should stay connected"},
		{all, 4, true, "removing endpoint 4 should stay connected"},
		{all, 2, false, "removing middle 2 should disconnect"},
		{[]int{1, 2}, 1, true, "singleton remainder is connected"},
		{[]int{1}, 1, true, "empty remainder is vacuously connected"},
	} {
		if got := g.ConnectedSubsetExcludingScratch(sc, c.members, c.removed); got != c.want {
			t.Error(c.why)
		}
		if got := g.ConnectedSubset(without(c.members, c.removed)); got != c.want {
			t.Errorf("oracle: %s", c.why)
		}
	}
}

func TestArticulationPointsPath(t *testing.T) {
	g := pathGraph(5)
	art := g.ArticulationPoints()
	want := []bool{false, true, true, true, false}
	for i := range want {
		if art[i] != want[i] {
			t.Errorf("art[%d] = %v, want %v", i, art[i], want[i])
		}
	}
}

func TestArticulationPointsCycleHasNone(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 0)
	for i, a := range g.ArticulationPoints() {
		if a {
			t.Errorf("cycle vertex %d flagged as articulation point", i)
		}
	}
}

func TestArticulationPointsBridgeVertex(t *testing.T) {
	// Two triangles joined at vertex 2: 2 is the only articulation point.
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	art := g.ArticulationPoints()
	for i, a := range art {
		want := i == 2
		if a != want {
			t.Errorf("art[%d] = %v, want %v", i, a, want)
		}
	}
}

// Property: v is an articulation point of its component iff removing v
// disconnects that component (cross-check against ConnectedSubset).
func TestArticulationMatchesRemovalCheck(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(8)
		g := New(n)
		// random connected-ish graph: random tree plus extra edges
		for v := 1; v < n; v++ {
			g.AddEdge(v, rng.Intn(v))
		}
		extra := rng.Intn(n)
		for e := 0; e < extra; e++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		art := g.ArticulationPoints()
		members := make([]int, n)
		for i := range members {
			members[i] = i
		}
		for v := 0; v < n; v++ {
			stillConnected := g.ConnectedSubset(without(members, v))
			if art[v] == stillConnected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBFSOrder(t *testing.T) {
	g := pathGraph(4)
	order := g.BFSOrder(0, nil)
	if len(order) != 4 || order[0] != 0 {
		t.Errorf("BFSOrder = %v", order)
	}
	within := map[int]bool{0: true, 1: true}
	order = g.BFSOrder(0, within)
	if len(order) != 2 {
		t.Errorf("restricted BFSOrder = %v, want 2 vertices", order)
	}
	if got := g.BFSOrder(3, within); got != nil {
		t.Errorf("BFSOrder from excluded start = %v, want nil", got)
	}
}

func TestGridEdgeCount(t *testing.T) {
	g := gridGraph(4, 3)
	// horizontal: 3 per row * 3 rows = 9; vertical: 4 per col-gap * 2 = 8
	if g.NumEdges() != 17 {
		t.Errorf("NumEdges = %d, want 17", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

package main

import (
	"strings"
	"testing"

	"emp/internal/constraint"
	"emp/internal/data"
)

// grid builds a 2×3 rook-contiguity grid:
//
//	0 1 2
//	3 4 5
//
// with TOTALPOP 10 per area and HOUSEHOLDS 1..6 as the H attribute.
func grid(t *testing.T) *data.Dataset {
	t.Helper()
	ds := data.New("grid", 6)
	ds.Adjacency = [][]int{{1, 3}, {0, 2, 4}, {1, 5}, {0, 4}, {1, 3, 5}, {2, 4}}
	if err := ds.AddColumn("TOTALPOP", []float64{10, 10, 10, 10, 10, 10}); err != nil {
		t.Fatal(err)
	}
	if err := ds.AddColumn("HOUSEHOLDS", []float64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "HOUSEHOLDS"
	return ds
}

func TestCertifyAcceptsValidPartitions(t *testing.T) {
	ds := grid(t)
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "TOTALPOP", 30)}
	// Rows: H = (1+2+1) + (1+2+1) = 8.
	if err := certify(ds, set, answer{regions: [][]int{{0, 1, 2}, {3, 4, 5}}, p: 2, h: 8}); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	// The same partition as a dense label vector, with area 5 in U0 under
	// a looser constraint: H = 4 + 1.
	loose := constraint.Set{constraint.AtLeast(constraint.Sum, "TOTALPOP", 20)}
	a := answerFromAssignment([]int{0, 0, 0, 1, 1, -1}, 2, 5)
	if err := certify(ds, loose, a); err != nil {
		t.Fatalf("valid partition with U0 rejected: %v", err)
	}
}

func TestCertifyRejectsBrokenPartitions(t *testing.T) {
	ds := grid(t)
	set := constraint.Set{constraint.AtLeast(constraint.Sum, "TOTALPOP", 30)}
	cases := []struct {
		name string
		a    answer
		want string
	}{
		{"split region", answer{regions: [][]int{{0, 2, 4}, {1, 3, 5}}, p: 2, h: 8}, "not contiguous"},
		{"violated SUM", answer{regions: [][]int{{0, 1}, {2, 5}, {3, 4}}, p: 3, h: 3}, "violates SUM(TOTALPOP) >= 30"},
		{"wrong H", answer{regions: [][]int{{0, 1, 2}, {3, 4, 5}}, p: 2, h: 9}, "naive recomputation"},
		{"area assigned twice", answer{regions: [][]int{{0, 1, 2}, {2, 3, 4, 5}}, p: 2, h: 8}, "more than once"},
		{"area in a region and U0", answer{regions: [][]int{{0, 1, 2}, {3, 4, 5}}, unassigned: []int{4}, p: 2, h: 8}, "both assigned and in U0"},
		{"area missing", answer{regions: [][]int{{0, 1, 2}, {3, 4}}, p: 2, h: 5}, "neither assigned nor in U0"},
		{"wrong p", answer{regions: [][]int{{0, 1, 2}, {3, 4, 5}}, p: 3, h: 8}, "reported p=3"},
	}
	for _, c := range cases {
		err := certify(ds, set, c.a)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

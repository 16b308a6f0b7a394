package main

import (
	"fmt"
	"math"

	"emp/internal/constraint"
	"emp/internal/data"
)

// answer is a partition in the plain form the certificate checks: region
// member lists, the unassigned set U0, and the values the producer reported.
// It deliberately shares no code with internal/region, so a bug there cannot
// hide from the check.
type answer struct {
	regions    [][]int
	unassigned []int
	p          int     // reported region count
	h          float64 // reported heterogeneity H(P)
}

// answerFromAssignment builds an answer from a dense label vector (area →
// region label, -1 for U0), the form the HTTP service returns.
func answerFromAssignment(assign []int, p int, h float64) answer {
	a := answer{p: p, h: h}
	labels := map[int]int{}
	for area, lab := range assign {
		if lab < 0 {
			a.unassigned = append(a.unassigned, area)
			continue
		}
		i, ok := labels[lab]
		if !ok {
			i = len(a.regions)
			labels[lab] = i
			a.regions = append(a.regions, nil)
		}
		a.regions[i] = append(a.regions[i], area)
	}
	return a
}

// relTol absorbs summation-order rounding between the solver's incremental
// aggregates and the naive recomputation here.
const relTol = 1e-9

// certify checks the answer against the dataset and constraint set from
// first principles:
//   - every area is in exactly one region or in U0, and the reported p and
//     |U0| match the lists;
//   - every region is contiguous (a fresh BFS over the raw adjacency);
//   - every constraint holds, recomputed from the raw attribute columns;
//   - H recomputed naively (all member pairs) matches the reported H.
func certify(ds *data.Dataset, set constraint.Set, a answer) error {
	n := ds.N()
	owner := make([]int, n) // region index + 1; -1 for U0; 0 unseen
	for ri, members := range a.regions {
		if len(members) == 0 {
			return fmt.Errorf("region %d is empty", ri)
		}
		for _, area := range members {
			if area < 0 || area >= n {
				return fmt.Errorf("region %d holds area %d outside [0,%d)", ri, area, n)
			}
			if owner[area] != 0 {
				return fmt.Errorf("area %d is assigned more than once", area)
			}
			owner[area] = ri + 1
		}
	}
	for _, area := range a.unassigned {
		if area < 0 || area >= n {
			return fmt.Errorf("U0 holds area %d outside [0,%d)", area, n)
		}
		if owner[area] != 0 {
			return fmt.Errorf("area %d is both assigned and in U0, or in U0 twice", area)
		}
		owner[area] = -1
	}
	for area, o := range owner {
		if o == 0 {
			return fmt.Errorf("area %d is neither assigned nor in U0", area)
		}
	}
	if a.p != len(a.regions) {
		return fmt.Errorf("reported p=%d but the answer has %d regions", a.p, len(a.regions))
	}

	// Contiguity: BFS from the first member, staying inside the region.
	seen := make([]bool, n)
	queue := make([]int, 0, 64)
	for ri, members := range a.regions {
		queue = append(queue[:0], members[0])
		seen[members[0]] = true
		reached := 0
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			reached++
			for _, u := range ds.Adjacency[v] {
				if owner[u] == ri+1 && !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		if reached != len(members) {
			return fmt.Errorf("region %d is not contiguous: BFS reached %d of %d areas", ri, reached, len(members))
		}
	}

	// Constraints, from the raw columns.
	for ci, c := range set {
		var col []float64
		if c.Agg != constraint.Count {
			if col = ds.Column(c.Attr); col == nil {
				return fmt.Errorf("constraint %d: attribute %q missing from the dataset", ci, c.Attr)
			}
		}
		for ri, members := range a.regions {
			v := aggregate(c.Agg, col, members)
			if !within(v, c.Lower, c.Upper) {
				return fmt.Errorf("region %d violates %s: value %g", ri, c, v)
			}
		}
	}

	// Heterogeneity, naively over all member pairs.
	rows, err := ds.DissimilarityMatrix()
	if err != nil {
		return err
	}
	var h float64
	for _, members := range a.regions {
		for _, row := range rows {
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					h += math.Abs(row[members[i]] - row[members[j]])
				}
			}
		}
	}
	if math.Abs(h-a.h) > relTol*math.Max(1, math.Abs(h)) {
		return fmt.Errorf("reported H=%.6f but the naive recomputation gives %.6f", a.h, h)
	}
	return nil
}

// aggregate evaluates one SQL-style aggregate over the members' values.
func aggregate(agg constraint.Aggregate, col []float64, members []int) float64 {
	switch agg {
	case constraint.Count:
		return float64(len(members))
	case constraint.Min:
		v := math.Inf(1)
		for _, m := range members {
			v = math.Min(v, col[m])
		}
		return v
	case constraint.Max:
		v := math.Inf(-1)
		for _, m := range members {
			v = math.Max(v, col[m])
		}
		return v
	}
	var sum float64
	for _, m := range members {
		sum += col[m]
	}
	if agg == constraint.Avg {
		return sum / float64(len(members))
	}
	return sum
}

// within reports lower <= v <= upper up to relTol.
func within(v, lower, upper float64) bool {
	slack := func(b float64) float64 { return relTol * math.Max(1, math.Abs(b)) }
	if !math.IsInf(lower, -1) && v < lower-slack(lower) {
		return false
	}
	if !math.IsInf(upper, 1) && v > upper+slack(upper) {
		return false
	}
	return true
}

package region

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
)

// The naive oracles below scan the whole id-indexed region table, dead slots
// included — the walks the live-region list replaced.

func naiveHeterogeneity(p *Partition) float64 {
	var h float64
	for _, r := range p.regs {
		if r != nil {
			h += r.Hetero
		}
	}
	return h
}

func naiveRegionIDs(p *Partition) []int {
	ids := make([]int, 0, p.numRegions)
	for id, r := range p.regs {
		if r != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

func naiveDenseAssignment(p *Partition) []int {
	idx := make(map[int]int, p.numRegions)
	n := 0
	for id, r := range p.regs {
		if r != nil {
			idx[id] = n
			n++
		}
	}
	out := make([]int, len(p.assign))
	for a, id := range p.assign {
		if id == Unassigned {
			out[a] = -1
		} else {
			out[a] = idx[id]
		}
	}
	return out
}

func naiveNeighborRegions(p *Partition, regionID int) []int {
	seen := make(map[int]bool)
	for _, a := range p.regs[regionID].Members {
		for _, nb := range p.g.Neighbors(a) {
			if id := p.assign[nb]; id != Unassigned && id != regionID {
				seen[id] = true
			}
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// latticeShared builds a cols x rows rook lattice with a random float
// dissimilarity column (so the order of the H(P) sum matters bitwise) and
// its Shared state and an empty constraint evaluator.
func latticeShared(t testing.TB, cols, rows int, seed int64) (*Shared, *constraint.Evaluator) {
	t.Helper()
	polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
	ds := data.FromPolygons("live", polys, geom.Rook)
	rng := rand.New(rand.NewSource(seed))
	d := make([]float64, cols*rows)
	for i := range d {
		d[i] = rng.Float64() * 1000
	}
	if err := ds.AddColumn("D", d); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	ev, err := constraint.NewEvaluator(constraint.Set{}, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := NewShared(ds)
	if err != nil {
		t.Fatal(err)
	}
	return sh, ev
}

// checkLiveList compares every live-list walk against its full-table oracle.
func checkLiveList(t *testing.T, p *Partition, step int, op string) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("step %d (%s): %v", step, op, err)
	}
	if got, want := p.Heterogeneity(), naiveHeterogeneity(p); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("step %d (%s): Heterogeneity %v, oracle %v", step, op, got, want)
	}
	ids := p.RegionIDs()
	if want := naiveRegionIDs(p); !slices.Equal(ids, want) {
		t.Fatalf("step %d (%s): RegionIDs %v, oracle %v", step, op, ids, want)
	}
	if got, want := p.DenseAssignment(), naiveDenseAssignment(p); !slices.Equal(got, want) {
		t.Fatalf("step %d (%s): DenseAssignment %v, oracle %v", step, op, got, want)
	}
	for _, id := range ids {
		if got, want := p.NeighborRegions(id), naiveNeighborRegions(p, id); !slices.Equal(got, want) {
			t.Fatalf("step %d (%s): NeighborRegions(%d) %v, oracle %v", step, op, id, got, want)
		}
	}
}

// memberLists returns the live regions' member lists in ascending-id order.
func memberLists(p *Partition) [][]int {
	var out [][]int
	for _, id := range p.RegionIDs() {
		out = append(out, append([]int(nil), p.Region(id).Members...))
	}
	return out
}

// TestLiveListDifferential drives seeded random sequences of every
// partition mutation and asserts after each step that the live-region list
// answers exactly what the full-table scans answer.
func TestLiveListDifferential(t *testing.T) {
	const cols, rows = 8, 7
	for seed := int64(1); seed <= 12; seed++ {
		sh, ev := latticeShared(t, cols, rows, seed)
		p := NewPartitionShared(sh, ev)
		rng := rand.New(rand.NewSource(seed))
		pick := func(ids []int) int { return ids[rng.Intn(len(ids))] }
		for step := 0; step < 300; step++ {
			ids := p.RegionIDs()
			free := p.UnassignedAreas()
			var op string
			switch k := rng.Intn(10); {
			case k <= 1 && len(free) > 0: // NewRegion from a free area and a free neighbor
				op = "NewRegion"
				a := free[rng.Intn(len(free))]
				areas := []int{a}
				for _, nb := range p.g.Neighbors(a) {
					if p.Assignment(int(nb)) == Unassigned {
						areas = append(areas, int(nb))
						break
					}
				}
				p.NewRegion(areas...)
			case k == 2 && len(ids) > 0: // AddArea: grow a region by a free neighbor
				op = "AddArea"
				id := pick(ids)
				for _, a := range p.Region(id).Members {
					grown := false
					for _, nb := range p.g.Neighbors(a) {
						if p.Assignment(int(nb)) == Unassigned {
							p.AddArea(id, int(nb))
							grown = true
							break
						}
					}
					if grown {
						break
					}
				}
			case k == 3 && len(ids) > 0: // RemoveArea, deleting single-member regions
				op = "RemoveArea"
				r := p.Region(pick(ids))
				a := r.Members[rng.Intn(len(r.Members))]
				if p.CanRemove(a) {
					p.RemoveArea(a)
				}
			case k == 4 && len(ids) > 1: // MoveArea across a shared border
				op = "MoveArea"
				from := pick(ids)
				if nbs := p.NeighborRegions(from); len(nbs) > 0 {
					to := nbs[rng.Intn(len(nbs))]
					border := p.BorderAreasBetween(from, to)
					a := border[rng.Intn(len(border))]
					if p.Region(from).Size() > 1 && p.CanRemove(a) {
						p.MoveArea(a, to)
					}
				}
			case k == 5 && len(ids) > 1: // MergeRegions with a neighbor
				op = "MergeRegions"
				id := pick(ids)
				if nbs := p.NeighborRegions(id); len(nbs) > 0 {
					p.MergeRegions(id, nbs[rng.Intn(len(nbs))])
				}
			case k == 6 && len(ids) > 0:
				op = "DissolveRegion"
				p.DissolveRegion(pick(ids))
			case k == 7:
				op = "Clone"
				c := p.Clone()
				p.Recycle()
				p = c
			case k == 8:
				op = "PartitionFromRegions"
				np, err := PartitionFromRegions(sh.Dataset(), ev, memberLists(p))
				if err != nil {
					t.Fatal(err)
				}
				checkLiveList(t, np, step, op)
				// Continue on shared state so Recycle stays exercised.
				op = "PartitionFromRegionsShared+Recycle"
				np2, err := PartitionFromRegionsShared(sh, ev, memberLists(p))
				if err != nil {
					t.Fatal(err)
				}
				p.Recycle()
				p = np2
			default:
				op = "noop"
			}
			checkLiveList(t, p, step, op)
		}
	}
}

// sparsePartition issues n region ids on a 4x5 lattice and leaves only the
// last 10 alive, each a horizontal pair {2i, 2i+1}. It returns the
// partition and the ascending-order sum of the live pairs' heterogeneity.
func sparsePartition(tb testing.TB, n int) (*Partition, float64) {
	tb.Helper()
	sh, ev := latticeShared(tb, 4, 5, 1)
	p := NewPartitionShared(sh, ev)
	for i := 0; i < n-10; i++ {
		p.DissolveRegion(p.NewRegion(0, 1).ID)
	}
	var want float64
	for i := 0; i < 10; i++ {
		p.NewRegion(2*i, 2*i+1)
		want += p.PairDissimilarity(2*i, 2*i+1)
	}
	return p, want
}

// TestHeterogeneitySparseIDs pins the live-list cost: after 50k issued ids
// with only 10 regions alive, H(P) allocates nothing and sums exactly the
// live regions.
func TestHeterogeneitySparseIDs(t *testing.T) {
	p, want := sparsePartition(t, 50_000)
	if p.RegionIDBound() <= 50_000 || p.NumRegions() != 10 {
		t.Fatalf("bound %d, p %d; want > 50000 ids issued and 10 live", p.RegionIDBound(), p.NumRegions())
	}
	var got float64
	if allocs := testing.AllocsPerRun(100, func() { got = p.Heterogeneity() }); allocs != 0 {
		t.Errorf("Heterogeneity allocates %v times per call, want 0", allocs)
	}
	if got != want {
		t.Errorf("Heterogeneity = %v, want %v", got, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

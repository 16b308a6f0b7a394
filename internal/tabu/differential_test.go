package tabu

import (
	"math"
	"math/rand"
	"testing"

	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/geom"
	"emp/internal/region"
)

// randomGridPartition builds a random-grid bi-partition like the property
// test uses; returns nil when the BFS split is discontiguous.
func randomGridPartition(t *testing.T, rng *rand.Rand) *region.Partition {
	t.Helper()
	cols, rows := 4+rng.Intn(4), 4+rng.Intn(4)
	n := cols * rows
	polys := geom.Lattice(geom.LatticeOptions{Cols: cols, Rows: rows})
	ds := data.FromPolygons("d", polys, geom.Rook)
	dis := make([]float64, n)
	for i := range dis {
		dis[i] = float64(rng.Intn(100))
	}
	if err := ds.AddColumn("D", dis); err != nil {
		t.Fatal(err)
	}
	ds.Dissimilarity = "D"
	set := constraint.Set{constraint.AtLeast(constraint.Count, "", 1)}
	ev, err := constraint.NewEvaluator(set, ds.Column)
	if err != nil {
		t.Fatal(err)
	}
	p, err := region.NewPartition(ds, ev)
	if err != nil {
		t.Fatal(err)
	}
	order := ds.Graph().BFSOrder(0, nil)
	k := 2 + rng.Intn(2)
	cut := make([]int, 0, k+1)
	cut = append(cut, 0)
	for i := 1; i < k; i++ {
		cut = append(cut, i*len(order)/k)
	}
	cut = append(cut, len(order))
	for i := 0; i < k; i++ {
		p.NewRegion(order[cut[i]:cut[i+1]]...)
	}
	if p.Validate() != nil {
		return nil // a BFS slice beyond the first may be discontiguous
	}
	return p
}

// TestImproveKernelDifferential is the acceptance differential: Tabu search
// with the incremental kernel must replay the exact move sequence of the
// naive fallback and land on the same solution, across >= 20 random
// instances and seeds.
func TestImproveKernelDifferential(t *testing.T) {
	instances := 0
	for seed := int64(0); instances < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomGridPartition(t, rng)
		if p == nil {
			continue
		}
		instances++
		cfg := Config{
			Tenure:       1 + rng.Intn(5),
			MaxNoImprove: 10 + rng.Intn(30),
			RecordMoves:  true,
		}

		fast := p.Clone()
		slow := p.Clone()
		slow.SetHeteroKernel(false)
		if !fast.HeteroKernelEnabled() || slow.HeteroKernelEnabled() {
			t.Fatal("kernel flags not set up as expected")
		}
		old := p.Clone()
		old.SetHeteroKernel(false)

		fs := Improve(fast, cfg)
		ss := Improve(slow, cfg)
		os := improveFallback(old, cfg)

		if len(fs.MoveLog) != len(ss.MoveLog) || len(fs.MoveLog) != len(os.MoveLog) {
			t.Fatalf("seed %d: kernel made %d moves, naive %d, fallback %d",
				seed, len(fs.MoveLog), len(ss.MoveLog), len(os.MoveLog))
		}
		for i := range fs.MoveLog {
			if fs.MoveLog[i] != ss.MoveLog[i] {
				t.Fatalf("seed %d: move %d differs: kernel %+v naive %+v",
					seed, i, fs.MoveLog[i], ss.MoveLog[i])
			}
			if fs.MoveLog[i] != os.MoveLog[i] {
				t.Fatalf("seed %d: move %d differs: kernel %+v fallback %+v",
					seed, i, fs.MoveLog[i], os.MoveLog[i])
			}
		}
		if err := old.Validate(); err != nil {
			t.Fatalf("seed %d: fallback partition invalid: %v", seed, err)
		}
		hf, hs := fast.Heterogeneity(), slow.Heterogeneity()
		if math.Abs(hf-hs) > 1e-6*(1+math.Abs(hs)) {
			t.Fatalf("seed %d: final H differs: kernel %g naive %g", seed, hf, hs)
		}
		for a := 0; a < p.Dataset().N(); a++ {
			if fast.Assignment(a) != slow.Assignment(a) {
				t.Fatalf("seed %d: area %d assigned to %d (kernel) vs %d (naive)",
					seed, a, fast.Assignment(a), slow.Assignment(a))
			}
		}
		if err := fast.Validate(); err != nil {
			t.Fatalf("seed %d: kernel partition invalid: %v", seed, err)
		}
		if err := slow.Validate(); err != nil {
			t.Fatalf("seed %d: naive partition invalid: %v", seed, err)
		}

		// Determinism per seed: a re-run reproduces the same sequence.
		again := p.Clone()
		as := Improve(again, cfg)
		if len(as.MoveLog) != len(fs.MoveLog) {
			t.Fatalf("seed %d: rerun made %d moves, first run %d", seed, len(as.MoveLog), len(fs.MoveLog))
		}
		for i := range as.MoveLog {
			if as.MoveLog[i] != fs.MoveLog[i] {
				t.Fatalf("seed %d: rerun move %d differs", seed, i)
			}
		}
	}
}

// referenceImprove is a deliberately slow re-implementation of the search
// semantics: candidates are rebuilt from scratch every iteration and
// selection scans them all. It pins down what the incremental searcher
// (heap + refreshAround + removability cache) must be equivalent to.
func referenceImprove(p *region.Partition, cfg Config) []Move {
	obj := cfg.Objective
	if obj == nil {
		obj = Heterogeneity{}
	}
	if cfg.Tenure <= 0 {
		cfg.Tenure = 10
	}
	tabu := make(map[moveKey]int)
	cur := obj.Total(p)
	best := cur
	var log []Move
	noImprove := 0
	for iter := 1; noImprove < cfg.MaxNoImprove; iter++ {
		// Enumerate every valid candidate from scratch.
		type cand struct {
			key   moveKey
			delta float64
		}
		var cands []cand
		for a := 0; a < p.Dataset().N(); a++ {
			from := p.Assignment(a)
			if from == region.Unassigned {
				continue
			}
			r := p.Region(from)
			if r.Size() <= 1 || !p.CanRemove(a) || !r.Tracker.SatisfiedAllAfterRemove(a, r.Members) {
				continue
			}
			seen := map[int]bool{from: true}
			for _, nb := range p.Graph().Neighbors(a) {
				to := p.Assignment(int(nb))
				if to == region.Unassigned || seen[to] {
					continue
				}
				seen[to] = true
				if !p.Region(to).Tracker.SatisfiedAllAfterAdd(a) {
					continue
				}
				cands = append(cands, cand{moveKey{a, to}, obj.DeltaMove(p, a, to)})
			}
		}
		eligible := func(c cand) bool {
			if exp, isTabu := tabu[c.key]; isTabu && iter < exp {
				return cur+c.delta < best-1e-9
			}
			return true
		}
		// Pass 1: smallest eligible delta. Pass 2: lowest key in the tie
		// window around it.
		dmin, found := math.Inf(1), false
		for _, c := range cands {
			if eligible(c) && c.delta < dmin {
				dmin, found = c.delta, true
			}
		}
		if !found {
			break
		}
		limit := dmin + tieEps(dmin)
		var chosen cand
		chosenSet := false
		for _, c := range cands {
			if !eligible(c) || c.delta > limit {
				continue
			}
			if !chosenSet || less(c.key, chosen.key) {
				chosen, chosenSet = c, true
			}
		}
		from := p.Assignment(chosen.key.area)
		p.MoveArea(chosen.key.area, chosen.key.to)
		cur += chosen.delta
		log = append(log, Move{Area: chosen.key.area, From: from, To: chosen.key.to})
		tabu[moveKey{area: chosen.key.area, to: from}] = iter + cfg.Tenure
		if cur < best-1e-9 {
			cur = obj.Total(p)
			if cur < best-1e-9 {
				best = cur
				noImprove = 0
				continue
			}
		}
		noImprove++
	}
	return log
}

// TestImproveMatchesReference checks the incremental searcher against the
// from-scratch reference on random instances: same move sequence, so the
// heap ordering, candidate refresh and removability cache introduce no
// semantic drift.
func TestImproveMatchesReference(t *testing.T) {
	instances := 0
	for seed := int64(100); instances < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomGridPartition(t, rng)
		if p == nil {
			continue
		}
		instances++
		cfg := Config{
			Tenure:       1 + rng.Intn(4),
			MaxNoImprove: 8 + rng.Intn(20),
			RecordMoves:  true,
		}
		got := Improve(p.Clone(), cfg)
		ref := p.Clone()
		refLog := referenceImprove(ref, cfg)
		if len(got.MoveLog) != len(refLog) {
			t.Fatalf("seed %d: searcher made %d moves, reference %d\nsearcher: %v\nreference: %v",
				seed, len(got.MoveLog), len(refLog), got.MoveLog, refLog)
		}
		for i := range refLog {
			if got.MoveLog[i] != refLog[i] {
				t.Fatalf("seed %d: move %d differs: searcher %+v reference %+v",
					seed, i, got.MoveLog[i], refLog[i])
			}
		}
	}
}

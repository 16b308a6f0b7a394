package region

import "testing"

// benchPartition builds a cols x rows lattice split into two vertical-half
// regions, optionally with the heterogeneity kernel disabled.
func benchPartition(b *testing.B, cols, rows int, kernel bool) (*Partition, int, int, int) {
	b.Helper()
	n := cols * rows
	sh, ev := latticeShared(b, cols, rows, 1)
	p := NewPartitionShared(sh, ev)
	p.SetHeteroKernel(kernel)
	var left, right []int
	for i := 0; i < n; i++ {
		if i%cols < cols/2 {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	r1 := p.NewRegion(left...)
	r2 := p.NewRegion(right...)
	// A border area of r1 adjacent to r2.
	area := p.BorderAreasBetween(r1.ID, r2.ID)[0]
	return p, area, r1.ID, r2.ID
}

// BenchmarkHeteroDeltaMove measures the candidate-delta evaluation that
// dominates the Tabu hot path: O(attrs·log n) with the Fenwick kernel vs the
// naive O(|from| + |to|) member scan.
func BenchmarkHeteroDeltaMove(b *testing.B) {
	for _, mode := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"naive", false}} {
		b.Run(mode.name, func(b *testing.B) {
			p, area, _, to := benchPartition(b, 64, 64, mode.kernel)
			b.ResetTimer()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += p.HeteroDeltaMove(area, to)
			}
			_ = sink
		})
	}
}

// BenchmarkAddRemoveArea measures the incremental heterogeneity bookkeeping
// of one move (remove + re-add).
func BenchmarkAddRemoveArea(b *testing.B) {
	for _, mode := range []struct {
		name   string
		kernel bool
	}{{"kernel", true}, {"naive", false}} {
		b.Run(mode.name, func(b *testing.B) {
			p, area, from, to := benchPartition(b, 64, 64, mode.kernel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.MoveArea(area, to)
				p.MoveArea(area, from)
			}
		})
	}
}

// BenchmarkRemovableMembers measures the per-epoch articulation pass that
// replaces one BFS per candidate.
func BenchmarkRemovableMembers(b *testing.B) {
	p, _, from, _ := benchPartition(b, 64, 64, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rem := p.RemovableMembers(from); len(rem) == 0 {
			b.Fatal("no members")
		}
	}
}

// BenchmarkHeterogeneitySparseIDs measures H(P) on a partition that issued
// 50k region ids but keeps only 10 alive — the shape a long construction
// leaves behind. The walk visits live regions only.
func BenchmarkHeterogeneitySparseIDs(b *testing.B) {
	p, _ := sparsePartition(b, 50_000)
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += p.Heterogeneity()
	}
	_ = sink
}

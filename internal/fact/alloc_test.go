package fact

import (
	"runtime"
	"testing"

	"emp/internal/census"
	"emp/internal/constraint"
)

// TestConstructionAllocs guards the allocation volume of the construction
// phase. Step 3's donor and shed checks run one contiguity question per
// candidate area; answered from the partition's reusable scratch they cost
// nothing, while a map-allocating BFS per candidate costs tens of MiB on
// this instance and taxes every cold solve. The sweeps' neighbor-region and
// border-area lists come from reusable partition buffers too, which the
// malloc bound guards: allocating them per query makes ~150k mallocs here.
func TestConstructionAllocs(t *testing.T) {
	ds, err := census.Named("8k")
	if err != nil {
		t.Fatal(err)
	}
	set, err := constraint.ParseSet("SUM(TOTALPOP) >= 100000")
	if err != nil {
		t.Fatal(err)
	}
	const (
		limitMiB     = 15
		limitMallocs = 100_000
	)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Solve(ds, set, Config{Seed: 1, SkipLocalSearch: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.P == 0 {
		t.Fatal("construction built no regions")
	}
	mib := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("construction-only solve: p=%d, %.1f MiB, %d mallocs", res.P, mib, mallocs)
	if mib > limitMiB {
		t.Errorf("construction-only solve allocated %.1f MiB, want < %d MiB", mib, limitMiB)
	}
	if mallocs > limitMallocs {
		t.Errorf("construction-only solve made %d mallocs, want < %d", mallocs, limitMallocs)
	}
}

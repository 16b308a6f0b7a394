package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/fact"
	"emp/internal/flight"
	"emp/internal/obs"
	"emp/internal/obswire"
	"emp/internal/prep"
	"emp/internal/region"
	"emp/internal/tabu"
)

// tableIIMix is the paper's Table II default constraint mix.
const tableIIMix = "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 20000"

// solveSpec is one library-solve workload.
type solveSpec struct {
	dataset     string
	constraints string
	cutShards   int
}

var solveSpecs = map[string]solveSpec{
	// Paper-scale single component: construction and tabu split ~40/60.
	"solve-50k1-sum": {"50k1", "SUM(TOTALPOP) >= 100000", 0},
	// Five components, component-sharded; all three construction steps.
	"solve-50k-mas": {"50k", tableIIMix, 0},
	// The only workload through the cut partitioner and seam repair.
	"solve-50k1-cut": {"50k1", "SUM(TOTALPOP) >= 100000", 16},
}

// instanceSeed fixes the solve workloads' dataset and solver seed to the
// paper's named instances (census.Named uses seed 1). Varying either moves
// p by up to 25% and H by up to 2x between seeds, far past any regression
// bound, so the run seed does not enter these inputs; p and H then repeat
// exactly across runs and gate quality directly.
const instanceSeed = 1

// setupReps is how many times a run sets up, so setup_s is a median.
const setupReps = 11

// instance is a prepared solve input.
type instance struct {
	ds  *data.Dataset
	art *prep.Artifact
	set constraint.Set
	cfg fact.Config
}

// setupTimes are the layer times of one set-up.
type setupTimes struct {
	generate, prep, cut, total time.Duration
}

// setup generates the dataset and prepares its artifact (plus the cut plan
// on the cut workload), the work a library user does before solving.
func setup(ctx context.Context, spec solveSpec, tr *tracer) (*instance, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	call := func(name string, fn func() error) (time.Duration, error) {
		sp, _ := tr.span(ctx, name)
		t := time.Now()
		err := fn()
		d := time.Since(t)
		sp.End()
		return d, err
	}
	inst := &instance{cfg: fact.Config{Seed: instanceSeed, CutShards: spec.cutShards}}
	var err error
	if inst.set, err = constraint.ParseSet(spec.constraints); err != nil {
		return nil, st, err
	}
	if st.generate, err = call("bench.census.NamedSeeded", func() (err error) {
		inst.ds, err = census.NamedSeeded(spec.dataset, instanceSeed)
		return err
	}); err != nil {
		return nil, st, err
	}
	if st.prep, err = call("bench.prep.New", func() (err error) {
		inst.art, err = prep.New(inst.ds)
		return err
	}); err != nil {
		return nil, st, err
	}
	if spec.cutShards > 1 {
		if st.cut, err = call("bench.prep.CutPlan", func() error {
			_, _, err := inst.art.CutPlan(spec.cutShards)
			return err
		}); err != nil {
			return nil, st, err
		}
	}
	inst.cfg.Prepared = inst.art
	st.total = time.Since(t0)
	return inst, st, nil
}

// solveSample is one timed fact.SolveCtx call.
type solveSample struct {
	wall     time.Duration
	allocMiB float64
	res      *fact.Result
}

// timedSolve runs one full solve with a flight recorder attached, as the
// server does, and times the call from outside.
func timedSolve(ctx context.Context, inst *instance) (solveSample, error) {
	t0 := time.Now()
	r0 := readRuntime()
	res, err := fact.SolveCtx(flight.NewContext(ctx, flight.NewRecorder(0)), inst.ds, inst.set, inst.cfg)
	wall := time.Since(t0)
	alloc, _, _ := readRuntime().since(r0)
	if err != nil {
		return solveSample{}, err
	}
	if res.Degraded {
		return solveSample{}, fmt.Errorf("solve degraded: %v", res.Warnings)
	}
	return solveSample{wall: wall, allocMiB: alloc, res: res}, nil
}

// answerFromPartition extracts the member lists and U0 of a library result.
func answerFromPartition(p *region.Partition, reportedP int, h float64) answer {
	a := answer{p: reportedP, h: h, unassigned: p.UnassignedAreas()}
	for _, id := range p.RegionIDs() {
		a.regions = append(a.regions, append([]int(nil), p.Region(id).Members...))
	}
	return a
}

// outcome is the part of a result that must repeat exactly.
type outcome struct {
	p     int
	h     float64
	moves int
}

func outcomeOf(res *fact.Result) outcome { return outcome{res.P, res.HeteroAfter, res.TabuMoves} }

func runSolve(cfg runConfig) (*report, error) {
	spec := solveSpecs[cfg.workload]
	if cfg.trace {
		return traceSolve(cfg, spec)
	}
	ctx := context.Background()
	rep := newReport()

	// Set-ups are spread over the run, one after each timed solve, so their
	// median samples the whole run rather than its first second. Each
	// set-up and each solve starts from a collected heap.
	var setups []float64
	setupOnce := func() (*instance, error) {
		runtime.GC()
		inst, t, err := setup(ctx, spec, nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, t.total.Seconds())
		return inst, nil
	}
	inst, err := setupOnce()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	warm, err := timedSolve(ctx, inst)
	if err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	ref := outcomeOf(warm.res)
	answers := []answer{answerFromPartition(warm.res.Partition, warm.res.P, warm.res.HeteroAfter)}
	warm.res = nil

	var walls, allocs []float64
	start := time.Now()
	// At least three solves; then start another only while it should end
	// inside the window.
	for rep.attempted < 3 || (len(walls) > 0 && time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= cfg.window) {
		rep.attempted++
		runtime.GC()
		s, err := timedSolve(ctx, inst)
		if err != nil {
			rep.failed++
			fmt.Printf("solve %d failed: %v\n", rep.attempted, err)
			continue
		}
		walls = append(walls, s.wall.Seconds())
		allocs = append(allocs, s.allocMiB)
		if got := outcomeOf(s.res); got != ref {
			rep.failed++
			rep.problem("solve %d is not deterministic: p/H/moves %v, warm-up gave %v", rep.attempted, got, ref)
		}
		answers = append(answers, answerFromPartition(s.res.Partition, s.res.P, s.res.HeteroAfter))
		fmt.Printf("solve %d: %.3f s, p=%d H=%.0f moves=%d\n",
			rep.attempted, s.wall.Seconds(), s.res.P, s.res.HeteroAfter, s.res.TabuMoves)
		s.res = nil
		if len(setups) < setupReps {
			if _, err := setupOnce(); err != nil {
				return nil, err
			}
		}
	}
	for len(setups) < setupReps {
		if _, err := setupOnce(); err != nil {
			return nil, err
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every timed solve failed")
	}

	// Certificates after the timed window; the warm-up answer is index 0.
	for i, a := range answers {
		if err := certify(inst.ds, inst.set, a); err != nil {
			if i > 0 {
				rep.failed++
			}
			rep.problem("solve answer %d fails its certificate: %v", i, err)
		}
	}

	solveS := median(walls)
	rep.set("setup_s", median(setups), "s")
	rep.set("solve_s", solveS, "s")
	rep.set("p", float64(ref.p), "count")
	rep.set("heterogeneity", ref.h, "households")
	rep.set("alloc_mb", median(allocs), "MiB")
	rep.set("max_rss_mb", maxRSSMiB(), "MiB")
	rep.set("ok_share", float64(rep.attempted-rep.failed)/float64(rep.attempted), "share")
	// A library caller in a closed loop on one input gets its first and
	// final answer when SolveCtx returns, and restarts by setting up again:
	// these metrics are the solve and set-up medians themselves (see
	// README.md, "Mirrored metrics").
	rep.set("latency_p50_ms", solveS*1000, "ms")
	rep.set("latency_p95_ms", solveS*1000, "ms")
	rep.set("job_first_incumbent_p50_ms", solveS*1000, "ms")
	rep.set("job_done_p50_ms", solveS*1000, "ms")
	rep.set("restart_ready_s", median(setups), "s")
	fmt.Printf("%s: %d timed solves, solve_s median %.4f s, setup_s median %.4f s, gomaxprocs %d\n",
		cfg.workload, len(walls), solveS, median(setups), gomaxprocs())
	return rep, nil
}

// traceSolve is the traced run of a solve workload: an untraced leg for the
// overhead baseline, then a traced leg that calls each layer separately
// from outside under the benchmark's own spans, with the solver's phase
// spans enabled underneath.
func traceSolve(cfg runConfig, spec solveSpec) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	leg := cfg.window / 2

	inst, _, err := setup(ctx, spec, nil)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	if _, err := timedSolve(ctx, inst); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	var untraced []float64
	for t0 := time.Now(); len(untraced) < 2 || time.Since(t0) < leg; {
		s, err := timedSolve(ctx, inst)
		if err != nil {
			return nil, fmt.Errorf("untraced solve: %w", err)
		}
		untraced = append(untraced, s.wall.Seconds())
	}

	tr := newTracer()
	obswire.Enable(tr.reg)
	defer obswire.Enable(nil)
	root, rctx := tr.span(ctx, "bench.run")
	r0 := readRuntime()

	var gens, preps, cuts []float64
	for i := 0; i < 3; i++ {
		var t setupTimes
		if inst, t, err = setup(rctx, spec, tr); err != nil {
			return nil, fmt.Errorf("traced setup: %w", err)
		}
		gens = append(gens, t.generate.Seconds())
		preps = append(preps, t.prep.Seconds())
		cuts = append(cuts, t.cut.Seconds())
	}
	var probes []layerSample
	for t0 := time.Now(); len(probes) < 2 || time.Since(t0) < leg; {
		ls, err := probeLayers(rctx, tr, inst, rep)
		if err != nil {
			return nil, err
		}
		probes = append(probes, ls)
	}
	root.End()
	_, gcShare, gcCycles := readRuntime().since(r0)
	obswire.Enable(nil)

	if err := printTrace(cfg, tr, root); err != nil {
		return nil, err
	}
	rep.set("census.generate_s", median(gens), "s")
	rep.set("prep.build_s", median(preps), "s")
	rep.set("shard.cut_plan_s", median(cuts), "s")
	setLayerMetrics(rep, probes)
	rep.set("runtime.gc_cpu_share", gcShare, "share")
	rep.set("runtime.gc_cycles", gcCycles, "count")
	rep.set("loadgen.attempted", float64(rep.attempted), "count")
	traced := column(probes, func(l layerSample) float64 { return l.solveS })
	rep.set("obs.trace_overhead_pct", 100*(median(traced)-median(untraced))/median(untraced), "%")
	return rep, nil
}

// layerSample is one pass over the solver layers on one instance.
type layerSample struct {
	feasMs, consS, consAlloc, searchS, nsPerMove, tabuAlloc float64
	busyS, eff, seamS, solveS                               float64
	tabu                                                    tabu.Stats
	res                                                     *fact.Result
}

func column(ls []layerSample, f func(layerSample) float64) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = f(l)
	}
	return out
}

// probeLayers calls each solver layer separately from outside, each under a
// benchmark span: feasibility (fact.Analyze), a construction-only solve,
// tabu.Improve on the construction partition, then the full solve. On a
// whole-graph instance the split run must reproduce the full solve's p, H
// and move count (the layer differential): otherwise the layer timings
// would not measure the program the end-to-end metrics measure. Both
// answers are certified. One attempted operation is recorded in rep.
func probeLayers(ctx context.Context, tr *tracer, inst *instance, rep *report) (layerSample, error) {
	var ls layerSample
	rep.attempted++
	ev, err := constraint.NewEvaluator(inst.set, inst.ds.Column)
	if err != nil {
		return ls, err
	}
	sp, _ := tr.span(ctx, "bench.fact.Analyze")
	t := time.Now()
	if _, err := fact.Analyze(inst.ds, ev); err != nil {
		return ls, err
	}
	ls.feasMs = ms(time.Since(t))
	sp.End()

	consCfg := inst.cfg
	consCfg.SkipLocalSearch = true
	sp, cctx := tr.span(ctx, "bench.fact.SolveCtx.construct")
	ra := readRuntime()
	t = time.Now()
	cres, err := fact.SolveCtx(cctx, inst.ds, inst.set, consCfg)
	consWall := time.Since(t)
	ls.consAlloc, _, _ = readRuntime().since(ra)
	sp.End()
	if err != nil {
		return ls, fmt.Errorf("construction-only solve: %w", err)
	}
	ls.consS = (consWall - cres.FeasibilityTime).Seconds()

	sp, tctx := tr.span(ctx, "bench.tabu.Improve")
	ra = readRuntime()
	t = time.Now()
	ls.tabu = tabu.Improve(cres.Partition, tabu.Config{Tenure: 10, MaxNoImprove: inst.ds.N(), Seed: inst.cfg.Seed, Ctx: tctx})
	tabuWall := time.Since(t)
	ls.tabuAlloc, _, _ = readRuntime().since(ra)
	sp.End()
	ls.searchS = tabuWall.Seconds()
	if ls.tabu.Moves > 0 {
		ls.nsPerMove = float64(tabuWall.Nanoseconds()) / float64(ls.tabu.Moves)
	}

	sp, fctx := tr.span(ctx, "bench.fact.SolveCtx")
	s, err := timedSolve(fctx, inst)
	sp.End()
	if err != nil {
		return ls, fmt.Errorf("full solve: %w", err)
	}
	ls.res = s.res
	ls.solveS = s.wall.Seconds()
	ls.busyS = (s.res.ConstructionTime + s.res.LocalSearchTime - s.res.SeamRepairTime).Seconds()
	ls.eff = ls.busyS / (ls.solveS * float64(min(max(s.res.Shards, 1), gomaxprocs())))
	ls.seamS = s.res.SeamRepairTime.Seconds()

	wrong := false
	split := outcome{cres.Partition.NumRegions(), cres.Partition.Heterogeneity(), ls.tabu.Moves}
	if inst.cfg.CutShards == 0 && inst.ds.Components() == 1 {
		if split != outcomeOf(s.res) {
			wrong = true
			rep.problem("layer differential: construction+tabu gave p/H/moves %v, the full solve %v", split, outcomeOf(s.res))
		} else {
			fmt.Printf("layer differential ok: construction+tabu reproduce the full solve's p=%d H=%.0f moves=%d\n",
				split.p, split.h, split.moves)
		}
	}
	sp, _ = tr.span(ctx, "bench.certify")
	if err := certify(inst.ds, inst.set, answerFromPartition(s.res.Partition, s.res.P, s.res.HeteroAfter)); err != nil {
		wrong = true
		rep.problem("full solve answer fails its certificate: %v", err)
	}
	if err := certify(inst.ds, inst.set, answerFromPartition(cres.Partition, split.p, split.h)); err != nil {
		wrong = true
		rep.problem("construction+tabu answer fails its certificate: %v", err)
	}
	sp.End()
	if wrong {
		rep.failed++
	}
	return ls, nil
}

// setLayerMetrics reports the solver-layer medians of the probes.
func setLayerMetrics(rep *report, probes []layerSample) {
	med := func(f func(layerSample) float64) float64 { return median(column(probes, f)) }
	last := probes[len(probes)-1]
	rep.set("fact.feasibility_ms", med(func(l layerSample) float64 { return l.feasMs }), "ms")
	rep.set("fact.construction_s", med(func(l layerSample) float64 { return l.consS }), "s")
	rep.set("fact.construction_alloc_mb", med(func(l layerSample) float64 { return l.consAlloc }), "MiB")
	rep.set("tabu.search_s", med(func(l layerSample) float64 { return l.searchS }), "s")
	rep.set("tabu.moves", med(func(l layerSample) float64 { return float64(l.tabu.Moves) }), "count")
	rep.set("tabu.ns_per_move", med(func(l layerSample) float64 { return l.nsPerMove }), "ns")
	rep.set("tabu.candidate_evals", med(func(l layerSample) float64 { return float64(l.tabu.Counters.CandidateEvals) }), "count")
	rep.set("tabu.removability_passes", med(func(l layerSample) float64 { return float64(l.tabu.Counters.RemovabilityPasses) }), "count")
	rep.set("tabu.alloc_mb", med(func(l layerSample) float64 { return l.tabuAlloc }), "MiB")
	rep.set("fact.shard_busy_s", med(func(l layerSample) float64 { return l.busyS }), "s")
	rep.set("fact.shard_parallel_eff", med(func(l layerSample) float64 { return l.eff }), "share")
	rep.set("fact.seam_repair_s", med(func(l layerSample) float64 { return l.seamS }), "s")
	rep.set("fact.seam_moves", float64(last.res.SeamMoves), "count")
}

// printTrace prints the traced breakdown and writes the spans out.
func printTrace(cfg runConfig, tr *tracer, root obs.Span) error {
	events := tr.mem.Events()
	self, wall, err := breakdown(spansOf(events), root.Context().Span.String())
	if err != nil {
		return err
	}
	printBreakdown(os.Stdout, cfg.workload, self, wall)
	path, err := writeSpans(filepath.Join(cfg.out, "trace"), fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed), events)
	if err != nil {
		return err
	}
	fmt.Printf("%d span events written to %s\n", len(events), path)
	return nil
}

// Command empquery runs an EMP regionalization query against a dataset.
//
// Usage:
//
//	empquery -data 2k.json \
//	  -q "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 20000"
//
//	empquery -name 2k -scale 0.25 -q "SUM(TOTALPOP) >= 20000" -assign out.csv
//
// The query is a semicolon-separated list of SQL-ish constraints over the
// dataset's attribute columns. The command prints the feasibility report,
// the number of regions p, the unassigned count, heterogeneity before and
// after local search, and phase timings; -assign writes the final
// area-to-region assignment as CSV.
//
// The trace subcommand renders a solve's span tree and convergence summary,
// either live from a running empserve or offline from a captured JSONL
// stream:
//
//	empquery trace -addr http://localhost:8080 <trace_id>
//	empquery trace .bench_build/trace/serve-mixed-seed1.jsonl
//
// The jobs subcommand drives a running empserve's async job API
// (docs/JOBS.md): submit a solve without holding the connection, poll or
// stream its progress, cancel it:
//
//	empquery jobs submit -name 2k -scale 0.25 -q "SUM(TOTALPOP) >= 20000" -watch
//	empquery jobs status <job_id>
//	empquery jobs watch <job_id>
//	empquery jobs cancel <job_id>
//	empquery jobs list
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"emp"
	"emp/internal/census"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("empquery: ")
	// Subcommand dispatch happens before flag.Parse so `empquery trace ...`
	// and `empquery jobs ...` keep their own flag sets; the flag-based query
	// interface is unchanged.
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "jobs" {
		runJobs(os.Args[2:])
		return
	}
	var (
		dataPath   = flag.String("data", "", "dataset JSON path")
		shpBase    = flag.String("shp", "", "ESRI shapefile base path (reads <base>.shp/<base>.dbf)")
		dissim     = flag.String("dissim", "HOUSEHOLDS", "dissimilarity attribute for -shp datasets")
		name       = flag.String("name", "", "named synthetic dataset (alternative to -data)")
		scale      = flag.Float64("scale", 1, "scale for -name datasets")
		seed       = flag.Int64("seed", 1, "random seed")
		query      = flag.String("q", "", "semicolon-separated constraints (required)")
		iterations = flag.Int("iterations", 1, "construction iterations (best p kept)")
		mergeLimit = flag.Int("mergelimit", 3, "AVG merge limit")
		noTabu     = flag.Bool("notabu", false, "skip the local-search phase")
		assignOut  = flag.String("assign", "", "write area,region assignment CSV here")
		svgOut     = flag.String("svg", "", "render the solution as an SVG image here")
		gjOut      = flag.String("geojson", "", "write the solution as a GeoJSON FeatureCollection here")
		showReport = flag.Bool("report", false, "print the per-region statistics table")
		reportCSV  = flag.String("reportcsv", "", "write the per-region statistics as CSV here")
	)
	flag.Parse()
	if *query == "" {
		log.Fatal("-q is required")
	}

	ds, err := loadDataset(*dataPath, *shpBase, *dissim, *name, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}
	set, err := emp.ParseConstraints(*query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %s (%d areas, %d components)\n", ds.Name, ds.N(), ds.Components())
	fmt.Printf("query:   %s\n", set)

	sol, err := emp.Solve(ds, set, emp.Options{
		Iterations:      *iterations,
		MergeLimit:      *mergeLimit,
		SkipLocalSearch: *noTabu,
		Seed:            *seed,
	})
	if sol != nil && sol.Feasibility() != nil {
		for _, w := range sol.Feasibility().Warnings {
			fmt.Printf("warning: %s\n", w)
		}
		fmt.Printf("filtered invalid areas: %d; seed areas: %d (upper bound on p)\n",
			sol.Feasibility().InvalidCount, sol.Feasibility().SeedCount)
	}
	if err != nil {
		if errors.Is(err, emp.ErrInfeasible) {
			fmt.Println("INFEASIBLE:")
			for _, r := range sol.Feasibility().Reasons {
				fmt.Printf("  - %s\n", r)
			}
			os.Exit(2)
		}
		log.Fatal(err)
	}

	st := sol.Stats()
	fmt.Printf("p = %d regions; unassigned |U0| = %d (%.1f%%)\n",
		sol.P, st.Unassigned, 100*float64(st.Unassigned)/float64(ds.N()))
	fmt.Printf("heterogeneity: %.4g -> %.4g (%.1f%% improvement)\n",
		sol.HeterogeneityBeforeLocalSearch(), sol.Heterogeneity(), 100*sol.HeteroImprovement())
	fmt.Printf("construction: %.3fs (%d iterations); local search: %.3fs (%d moves)\n",
		st.ConstructionSeconds, st.Iterations, st.LocalSearchSeconds, st.TabuMoves)

	if *showReport {
		if err := sol.Report().Render(os.Stdout, 25); err != nil {
			log.Fatal(err)
		}
	}
	if *reportCSV != "" {
		if err := writeFileWith(*reportCSV, func(f *os.File) error {
			return sol.Report().WriteCSV(f)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("region report written to %s\n", *reportCSV)
	}
	if *assignOut != "" {
		if err := writeAssignment(*assignOut, sol.Assignment()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("assignment written to %s\n", *assignOut)
	}
	if *svgOut != "" {
		if err := writeFileWith(*svgOut, func(f *os.File) error {
			return emp.RenderSVG(f, ds, sol.Assignment(), emp.RenderSVGOptions{})
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SVG written to %s\n", *svgOut)
	}
	if *gjOut != "" {
		if err := writeFileWith(*gjOut, func(f *os.File) error {
			return emp.WriteGeoJSON(f, ds, sol.Assignment())
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("GeoJSON written to %s\n", *gjOut)
	}
}

func writeFileWith(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	return f.Close()
}

func loadDataset(path, shpBase, dissim, name string, scale float64, seed int64) (*emp.Dataset, error) {
	switch {
	case path != "":
		return emp.LoadDataset(path)
	case shpBase != "":
		return emp.LoadShapefile(shpBase, emp.ShapefileOptions{Dissimilarity: dissim})
	case name != "" && scale < 1:
		return census.Scaled(name, scale, seed)
	case name != "":
		return census.NamedSeeded(name, seed)
	default:
		return nil, fmt.Errorf("one of -data, -shp or -name is required")
	}
}

func writeAssignment(path string, assign []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintln(f, "area,region"); err != nil {
		return err
	}
	for a, r := range assign {
		if _, err := fmt.Fprintf(f, "%d,%d\n", a, r); err != nil {
			return err
		}
	}
	return f.Close()
}

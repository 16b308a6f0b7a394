// Command perfbench is the repository's benchmark: paper-scale FaCT solves
// driven through the library, and an open-loop serving mix driven through
// the HTTP service. It prints every metric by name with its unit, certifies
// every answer with its own checker, and ends its standard output with one
// JSON result line. See README.md in this directory for the workloads, the
// metric map and how to read the traced breakdown.
//
// Usage (from the repository root, via run.sh which builds it):
//
//	bash perfbench/run.sh --workload solve-50k1-sum --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives from the command line.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	out      string // directory for state dirs and span files
}

// report collects one run's outcome. Problems are wrong answers (certificate
// or determinism failures); they make the run incorrect and are printed.
type report struct {
	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: WRONG ANSWER:", msg)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig) (*report, error){
	"solve-50k1-sum": runSolve,
	"solve-50k-mas":  runSolve,
	"solve-50k1-cut": runSolve,
	"serve-mixed":    runServe,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		cfg     runConfig
		seconds float64
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&seconds, "seconds", 20, "measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer breakdown instead of the end-to-end metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for run state and span files")
	flag.Parse()
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg.window = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	out, err := filepath.Abs(cfg.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.out = out
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	st := newStamp(cfg)
	rep, err := runner(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st.finish()
	st.print(os.Stdout)

	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	if cfg.trace {
		rep.set("host.steal_share", st.StealShare, "share")
	}
	names := endToEnd
	if cfg.trace {
		names = perLayer
	}
	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	for _, d := range names {
		m, ok := rep.metrics[d.name]
		if !ok {
			// A layer the workload does not exercise reads 0 (see README.md).
			m = metric{Unit: d.unit}
		}
		if m.Unit != d.unit {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has unit %s, declared %s\n", d.name, m.Unit, d.unit)
			return 1
		}
		res.Metrics[d.name] = m
	}
	printMetrics(os.Stdout, names, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// printMetrics prints the human-readable metric table (name, value, unit).
func printMetrics(w io.Writer, names []metricDef, ms map[string]metric) {
	for _, d := range names {
		m := ms[d.name]
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, m.Value, m.Unit)
	}
}

// gomaxprocs is the parallelism the run records; every workload runs with
// GOMAXPROCS equal to the CPUs available to the process.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// stamp identifies the host and build a run measured on, so a run on a
// noisy host can be told apart afterwards.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	CPUModel   string  `json:"cpu_model"`
	StateFS    string  `json:"state_dir_fs"`
	StealShare float64 `json:"host_steal_share"`
	WallS      float64 `json:"wall_s"`

	t0     time.Time
	steal0 cpuTimes
}

func newStamp(cfg runConfig) *stamp {
	return &stamp{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		GOMAXPROCS: gomaxprocs(),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     buildCommit(),
		CPUModel:   cpuModel(),
		StateFS:    fsType(cfg.out),
		t0:         time.Now(),
		steal0:     readCPUTimes(),
	}
}

// finish records the host steal share and wall time over the whole run.
func (s *stamp) finish() {
	s.StealShare = readCPUTimes().stealShareSince(s.steal0)
	s.WallS = time.Since(s.t0).Seconds()
}

func (s *stamp) print(w io.Writer) {
	b, _ := json.Marshal(s) // plain fields always encode
	fmt.Fprintf(w, "stamp %s\n", b)
}

// buildCommit reads the VCS revision the binary was built from; a checkout
// without git metadata reports "unknown".
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir from its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x794c7630: "overlayfs",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// cpuTimes is the aggregate line of /proc/stat, in clock ticks.
type cpuTimes struct {
	total, steal uint64
}

func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		// Fields 9 and 10 (guest, guest_nice) are already counted in user
		// and nice.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func (t cpuTimes) stealShareSince(t0 cpuTimes) float64 {
	if t.total <= t0.total {
		return 0
	}
	return float64(t.steal-t0.steal) / float64(t.total-t0.total)
}

// maxRSSMiB is the peak resident set of this process.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample reads the runtime counters the benchmark differences over a
// timed window.
type rtSample struct {
	allocBytes, gcCPU, totalCPU, gcCycles float64
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2), gcCycles: val(3)}
}

// since returns the window's allocated MiB, GC CPU share and GC cycles.
func (s rtSample) since(s0 rtSample) (allocMiB, gcShare, cycles float64) {
	allocMiB = (s.allocBytes - s0.allocBytes) / (1 << 20)
	if cpu := s.totalCPU - s0.totalCPU; cpu > 0 {
		gcShare = (s.gcCPU - s0.gcCPU) / cpu
	}
	return allocMiB, gcShare, s.gcCycles - s0.gcCycles
}

// quantile is the linearly interpolated q-quantile of xs (xs is not
// modified); NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

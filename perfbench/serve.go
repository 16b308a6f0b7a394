package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"emp/internal/census"
	"emp/internal/constraint"
	"emp/internal/data"
	"emp/internal/obs"
	"emp/internal/obswire"
	"emp/internal/prep"
	"emp/internal/server"
)

// The serve-mixed workload: an open loop at serveRate requests/s with
// Poisson arrivals from one client of at most nproc connections, against
// server.New(cfg).Handler() on a loopback listener with a state dir.
const (
	serveRate      = 16.0
	serveSetupReps = 5
	restartReps    = 11
	syncLimit      = time.Second     // ok_share limit for /v1/solve
	jobLimit       = 2 * time.Second // ok_share limit for job done
	layerProbes    = 8               // cold datasets probed layer by layer in the traced run
	requestTimeout = 30 * time.Second
)

// hotRequests are the pre-warmed fingerprints: the Table II mix and
// variants of it on the paper's 2k, 4k and 8k datasets.
var hotRequests = []struct{ named, constraints string }{
	{"2k", tableIIMix},
	{"2k", "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 30000"},
	{"2k", "AVG(EMPLOYED) in [2000,4000]; SUM(TOTALPOP) >= 20000"},
	{"4k", tableIIMix},
	{"4k", "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 30000"},
	{"4k", "MIN(POP16UP) <= 2500; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= 20000"},
	{"8k", tableIIMix},
	{"8k", "AVG(EMPLOYED) in [2000,4000]; SUM(TOTALPOP) >= 20000"},
}

// jobConstraints is the job class's constraint set: the Table II mix with a
// fresh SUM threshold per job, on one fixed 4k dataset.
func jobConstraints(threshold int) string {
	return "MIN(POP16UP) <= 3000; AVG(EMPLOYED) in [1500,3500]; SUM(TOTALPOP) >= " + strconv.Itoa(threshold)
}

type solveBody struct {
	Named       string `json:"named"`
	Constraints string `json:"constraints"`
	Options     struct {
		Seed int64 `json:"seed"`
	} `json:"options"`
}

func body(named, constraints string, seed int64) []byte {
	var b solveBody
	b.Named, b.Constraints, b.Options.Seed = named, constraints, seed
	out, _ := json.Marshal(b) // strings and an integer always encode
	return out
}

// liveServer is one booted Service on a loopback listener.
type liveServer struct {
	svc   *server.Service
	srv   *http.Server
	reg   *obs.Registry
	url   string
	state string
	done  chan struct{}
}

func boot(stateDir string) (*liveServer, error) {
	reg := obs.New()
	svc := server.New(server.Config{Registry: reg, StateDir: stateDir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close() // the listen error is the one to report
		return nil, err
	}
	ls := &liveServer{svc: svc, srv: &http.Server{Handler: svc.Handler()}, reg: reg,
		url: "http://" + ln.Addr().String(), state: stateDir, done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return ls, nil
}

// stop drains jobs, shuts the listener down and closes the Service, which
// writes the final cache snapshot.
func (ls *liveServer) stop() error {
	ls.svc.SetDraining(true)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	ls.svc.DrainJobs(ctx)
	err := ls.srv.Shutdown(ctx)
	<-ls.done
	if cerr := ls.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// serveBench is the client side of one serve-mixed run.
type serveBench struct {
	cfg     runConfig
	client  *http.Client
	live    *liveServer
	coldSeq int // cold dataset seeds and job thresholds stay fresh per run
	jobSeq  int
	tr      *tracer // non-nil while the traced window runs
	rctx    context.Context
	dsCache map[string]*data.Dataset
	genTime []float64 // local regeneration times of cold datasets
}

func (b *serveBench) waitReady() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := b.client.Get(b.live.url + "/v1/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("server not ready within 60 s")
}

// postHot sends every hot request once and checks each answers 200.
func (b *serveBench) postHot() error {
	for _, h := range hotRequests {
		resp, err := b.client.Post(b.live.url+"/v1/solve", "application/json", bytes.NewReader(body(h.named, h.constraints, instanceSeed)))
		if err != nil {
			return err
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("hot request %s %q: status %d", h.named, h.constraints, resp.StatusCode)
		}
	}
	return nil
}

// scrape reads the server's /metrics as series → value.
func (b *serveBench) scrape() (map[string]float64, error) {
	resp, err := b.client.Get(b.live.url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// outcome of one scheduled request.
type reqOutcome struct {
	status   int
	err      error
	call     time.Duration // the HTTP call itself, by class
	body     []byte        // sync answers, decoded after the window
	named    string
	cons     string
	seed     int64
	jobID    string
	firstInc time.Time
	doneAt   time.Time
	events   int
	state    string
}

// prepare fixes the request an arrival sends: dataset, seed and
// constraints.
func (b *serveBench) prepare(a arrival) reqOutcome {
	var o reqOutcome
	switch a.class {
	case classHot:
		h := hotRequests[a.pick]
		o.named, o.cons, o.seed = h.named, h.constraints, instanceSeed
	case classCold:
		b.coldSeq++
		o.named, o.cons, o.seed = "4k", tableIIMix, coldSeed(b.coldSeq)
	case classJob:
		b.jobSeq++
		o.named, o.cons, o.seed = "4k", jobConstraints(jobThreshold(b.jobSeq)), instanceSeed
	}
	return o
}

// coldSeed is the dataset seed of the k-th cold request of a run: distinct
// per request and never the hot datasets' seed. It does not depend on the
// run seed: every run solves the same fresh datasets, in its own arrival
// order, so the cold work does not vary between seeds (4k datasets differ
// in solve time and p/H from seed to seed).
func coldSeed(k int) int64 { return 1000 + int64(k) }

// jobThreshold is the SUM(TOTALPOP) lower bound of the k-th job of a run,
// distinct per job and away from the hot set's thresholds, the same in
// every run for the same reason as coldSeed.
func jobThreshold(k int) int { return 16000 + 10*k }

// send performs the HTTP side of a prepared request. Sync answers are kept
// raw and decoded after the window, so the client's own decoding stays out
// of the measured load.
func (b *serveBench) send(a arrival, o *reqOutcome) {
	ctx := context.Background()
	var sp obs.Span
	if b.tr != nil {
		sp, ctx = b.tr.span(b.rctx, "bench.http."+a.class.String())
		defer sp.End()
	}
	// No answer takes this long unless the server hangs; the run then fails
	// this request instead of waiting forever.
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	post := func(path string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.live.url+path, bytes.NewReader(body(o.named, o.cons, o.seed)))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if sc := sp.Context(); sc.IsValid() {
			req.Header.Set("traceparent", sc.Traceparent())
		}
		return b.client.Do(req)
	}
	t := time.Now()
	if a.class != classJob {
		resp, err := post("/v1/solve")
		if err != nil {
			o.err = err
			return
		}
		o.body, o.err = io.ReadAll(resp.Body)
		resp.Body.Close()
		o.status = resp.StatusCode
		o.call = time.Since(t)
		return
	}
	resp, err := post("/v1/jobs")
	if err != nil {
		o.err = err
		return
	}
	var js server.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	o.call = time.Since(t)
	o.status = resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusAccepted {
		o.err = fmt.Errorf("job submit: status %d: %v", resp.StatusCode, err)
		return
	}
	o.jobID = js.ID
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.live.url+"/v1/jobs/"+js.ID+"/events", nil)
	if err != nil {
		o.err = err
		return
	}
	resp, err = b.client.Do(req)
	if err != nil {
		o.err = err
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	firstElapsed := -1.0
	for sc.Scan() {
		var ev struct {
			Type      string  `json:"type"`
			State     string  `json:"state"`
			ElapsedMs float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			o.err = err
			return
		}
		now := time.Now()
		o.events++
		if ev.Type == "incumbent" && firstElapsed < 0 {
			o.firstInc, firstElapsed = now, ev.ElapsedMs
		}
		if ev.Type == "done" {
			o.doneAt, o.state = now, ev.State
			// A short job can finish before the stream opens, and then
			// replays all its events at once. The incumbent existed
			// earlier than it was read: place it before done by the gap
			// the stream's own elapsed stamps show.
			if firstElapsed >= 0 {
				if at := now.Add(-time.Duration((ev.ElapsedMs - firstElapsed) * float64(time.Millisecond))); at.Before(o.firstInc) {
					o.firstInc = at
				}
			}
			return
		}
	}
	o.err = fmt.Errorf("job %s: event stream ended without a done event: %v", js.ID, sc.Err())
}

// windowResult is one measured window.
type windowResult struct {
	recs          []sent
	outs          []reqOutcome
	before, after map[string]float64
	allocMiB      float64
}

// window runs one open-loop window of length d with schedule seed seed.
func (b *serveBench) window(seed int64, d time.Duration) (*windowResult, error) {
	sched := schedule(seed, serveRate, d, len(hotRequests))
	w := &windowResult{outs: make([]reqOutcome, len(sched))}
	// Request parameters are fixed before the window, in schedule order,
	// so they do not depend on worker interleaving.
	for i, a := range sched {
		w.outs[i] = b.prepare(a)
	}
	var err error
	if w.before, err = b.scrape(); err != nil {
		return nil, err
	}
	r0 := readRuntime()
	w.recs = openLoop(time.Now(), sched, gomaxprocs(), func(i int, a arrival) { b.send(a, &w.outs[i]) })
	w.allocMiB, _, _ = readRuntime().since(r0)
	if w.after, err = b.scrape(); err != nil {
		return nil, err
	}
	return w, nil
}

// dataset regenerates (and memoizes) a dataset the server was asked for,
// for the certificate check.
func (b *serveBench) dataset(named string, seed int64) (*data.Dataset, error) {
	key := fmt.Sprintf("%s/%d", named, seed)
	if ds, ok := b.dsCache[key]; ok {
		return ds, nil
	}
	sp, _ := b.tr.span(b.rctx, "bench.census.NamedSeeded")
	t := time.Now()
	ds, err := census.NamedSeeded(named, seed)
	d := time.Since(t)
	sp.End()
	if err != nil {
		return nil, err
	}
	if seed != instanceSeed {
		b.genTime = append(b.genTime, d.Seconds())
	}
	b.dsCache[key] = ds
	return ds, nil
}

// judged is the verdict on one window request after the window.
type judged struct {
	ok      bool
	latency time.Duration // sync: answer; job: done
	resp    *server.SolveResponse
}

// judge certifies one answer and applies the latency limit. A refused,
// failed, degraded, late or wrong answer is a miss; a wrong one is also
// reported as a problem.
func (b *serveBench) judge(rep *report, r sent, o reqOutcome) judged {
	j := judged{latency: r.latency()}
	if o.err != nil || (r.class != classJob && o.status != http.StatusOK) {
		fmt.Printf("%s request failed: status %d: %v\n", r.class, o.status, o.err)
		return j
	}
	if r.class == classJob {
		j.latency = o.doneAt.Sub(r.due)
		if o.state != "done" {
			fmt.Printf("job %s ended %q\n", o.jobID, o.state)
			return j
		}
		resp, err := b.client.Get(b.live.url + "/v1/jobs/" + o.jobID)
		if err != nil {
			fmt.Printf("job %s: fetching the result: %v\n", o.jobID, err)
			return j
		}
		var js server.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&js)
		resp.Body.Close()
		if err != nil || js.Result == nil {
			fmt.Printf("job %s: no result: %v\n", o.jobID, err)
			return j
		}
		j.resp = js.Result
	} else {
		j.resp = new(server.SolveResponse)
		if err := json.Unmarshal(o.body, j.resp); err != nil {
			rep.problem("%s answer is not a solve response: %v", r.class, err)
			return j
		}
	}
	ds, err := b.dataset(o.named, o.seed)
	if err != nil {
		rep.problem("regenerating %s seed %d: %v", o.named, o.seed, err)
		return j
	}
	set, err := constraint.ParseSet(o.cons)
	if err != nil {
		rep.problem("parsing %q: %v", o.cons, err)
		return j
	}
	sp, _ := b.tr.span(b.rctx, "bench.certify")
	err = certify(ds, set, answerFromAssignment(j.resp.Assignment, j.resp.P, j.resp.HeteroAfter))
	sp.End()
	if err != nil {
		rep.problem("%s answer (%s seed %d, %s) fails its certificate: %v", r.class, o.named, o.seed, o.cons, err)
		return j
	}
	limit := syncLimit
	if r.class == classJob {
		limit = jobLimit
	}
	j.ok = !j.resp.Degraded && j.latency <= limit
	return j
}

// restart drains and closes the live Service, boots a new one on the same
// state dir, and returns the time until /readyz is 200 and every hot
// request is answered; it then checks they came from the restored snapshot.
func (b *serveBench) restart() (time.Duration, error) {
	t0 := time.Now()
	if err := b.live.stop(); err != nil {
		return 0, fmt.Errorf("stopping: %w", err)
	}
	live, err := boot(b.live.state)
	if err != nil {
		return 0, err
	}
	b.live = live
	if err := b.waitReady(); err != nil {
		return 0, err
	}
	if err := b.postHot(); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	m, err := b.scrape()
	if err != nil {
		return 0, err
	}
	if hits := m["emp_result_cache_hits_total"]; hits != float64(len(hotRequests)) {
		return 0, fmt.Errorf("after restart %d of %d hot requests were result-cache hits", int(hits), len(hotRequests))
	}
	return d, nil
}

func delta(w *windowResult, series string) float64 { return w.after[series] - w.before[series] }

func runServe(cfg runConfig) (*report, error) {
	rep := newReport()
	conns := gomaxprocs()
	b := &serveBench{
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		}},
		rctx:    context.Background(),
		dsCache: map[string]*data.Dataset{},
	}
	defer b.client.CloseIdleConnections()
	base, err := os.MkdirTemp(cfg.out, "serve-state-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	// Set-up: boot and pre-warm the hot set until /readyz is 200, several
	// times on fresh state dirs; the last server stays up.
	var setups []float64
	for i := 0; i < serveSetupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if b.live, err = boot(filepath.Join(base, fmt.Sprintf("boot%d", i))); err != nil {
			return nil, err
		}
		if err := b.waitReady(); err != nil {
			return nil, err
		}
		if err := b.postHot(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetupReps-1 {
			if err := b.live.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if err := b.live.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping the server:", err)
		}
	}()

	// Warm-up, untimed: one cold request and one job, so the first job of
	// the window finds a warm seed like every later one.
	warm := schedule(cfg.seed, serveRate, time.Second, len(hotRequests))
	for _, a := range warm {
		if a.class == classHot {
			continue
		}
		o := b.prepare(a)
		b.send(a, &o)
		if o.err != nil {
			return nil, fmt.Errorf("warm-up %s request: %w", a.class, o.err)
		}
	}

	var wins []*windowResult
	var untracedP50 float64
	if !cfg.trace {
		w, err := b.window(cfg.seed, cfg.window)
		if err != nil {
			return nil, err
		}
		wins = append(wins, w)
	} else {
		// Untraced half, then the same load traced: the solver packages and
		// a memory sink are bound to the server's registry only between
		// windows, when no solve is running.
		w, err := b.window(cfg.seed, cfg.window/2)
		if err != nil {
			return nil, err
		}
		untracedP50 = syncLatencyP50(w)
		b.tr = newTracer()
		b.live.reg.SetSink(obswire.NewFanout(b.live.reg.Sink(), b.tr.mem))
		obswire.Enable(b.live.reg)
		root, rctx := b.tr.span(context.Background(), "bench.run")
		b.rctx = rctx
		r0 := readRuntime()
		tw, err := b.window(cfg.seed+1, cfg.window/2)
		if err != nil {
			return nil, err
		}
		root.End()
		_, gcShare, gcCycles := readRuntime().since(r0)
		wins = append(wins, w, tw)
		// The layer calls run after the traced window, outside the root
		// span, so the breakdown shows the served load alone.
		probes, err := b.probeColdLayers(rep, tw)
		if err != nil {
			return nil, err
		}
		obswire.Enable(nil)
		if err := printTrace(cfg, b.tr, root); err != nil {
			return nil, err
		}
		b.tr = nil
		setLayerMetrics(rep, probes)
		rep.set("runtime.gc_cpu_share", gcShare, "share")
		rep.set("runtime.gc_cycles", gcCycles, "count")
		rep.set("obs.trace_overhead_pct", 100*(syncLatencyP50(tw)-untracedP50)/untracedP50, "%")
	}

	// After the windows: certify every answer and apply the limits.
	var (
		syncLat, hotCall, coldCall, submit, firstInc, done, lag []float64
		coldSolve, coldP, coldH                                 []float64
		events, jobs                                            int
		allocMiB                                                float64
		attempted                                               int
	)
	for _, w := range wins {
		allocMiB += w.allocMiB
		for i, r := range w.recs {
			o := w.outs[i]
			rep.attempted++
			attempted++
			lag = append(lag, ms(r.lag()))
			j := b.judge(rep, r, o)
			if !j.ok {
				rep.failed++
			}
			switch r.class {
			case classHot:
				syncLat = append(syncLat, ms(j.latency))
				hotCall = append(hotCall, ms(o.call))
			case classCold:
				syncLat = append(syncLat, ms(j.latency))
				coldCall = append(coldCall, ms(o.call))
				if j.resp != nil {
					coldSolve = append(coldSolve, (j.resp.Solver.FeasibilityMillis+j.resp.ConstructionMillis+j.resp.LocalSearchMillis)/1000)
					coldP = append(coldP, float64(j.resp.P))
					coldH = append(coldH, j.resp.HeteroAfter)
				}
			case classJob:
				jobs++
				events += o.events
				submit = append(submit, ms(o.call))
				if !o.firstInc.IsZero() {
					firstInc = append(firstInc, ms(o.firstInc.Sub(r.due)))
				}
				if !o.doneAt.IsZero() {
					done = append(done, ms(o.doneAt.Sub(r.due)))
				}
			}
		}
	}

	// Restarts on the same state dir, after the measured load.
	reps := restartReps
	if cfg.trace {
		reps = 2
	}
	var restarts []float64
	for i := 0; i < reps; i++ {
		rep.attempted++
		runtime.GC()
		d, err := b.restart()
		if err != nil {
			rep.failed++
			fmt.Printf("restart %d: %v\n", i, err)
			continue
		}
		restarts = append(restarts, d.Seconds())
	}

	if !cfg.trace {
		rep.set("setup_s", median(setups), "s")
		rep.set("solve_s", median(coldSolve), "s")
		rep.set("p", median(coldP), "count")
		rep.set("heterogeneity", median(coldH), "households")
		rep.set("alloc_mb", allocMiB/float64(attempted), "MiB")
		rep.set("max_rss_mb", maxRSSMiB(), "MiB")
		rep.set("ok_share", float64(rep.attempted-rep.failed)/float64(rep.attempted), "share")
		rep.set("latency_p50_ms", quantile(syncLat, 0.5), "ms")
		rep.set("latency_p95_ms", quantile(syncLat, 0.95), "ms")
		rep.set("job_first_incumbent_p50_ms", median(firstInc), "ms")
		rep.set("job_done_p50_ms", median(done), "ms")
		rep.set("restart_ready_s", median(restarts), "s")
		fmt.Printf("serve-mixed: %d requests (%d sync, %d jobs), %d restarts, gomaxprocs %d, %d connections\n",
			attempted, len(syncLat), jobs, len(restarts), gomaxprocs(), conns)
		return rep, nil
	}

	var snapMiB float64
	if fi, err := os.Stat(filepath.Join(b.live.state, "cache.snapshot")); err == nil {
		snapMiB = float64(fi.Size()) / (1 << 20)
	}
	restored, err := b.restoredEntries()
	if err != nil {
		return nil, err
	}
	sum := func(series string) float64 {
		var s float64
		for _, w := range wins {
			s += delta(w, series)
		}
		return s
	}
	ratio := func(hits, misses string) float64 {
		h, m := sum(hits), sum(misses)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	rep.set("census.generate_s", median(b.genTime), "s")
	rep.set("server.hit_p50_ms", median(hotCall), "ms")
	rep.set("server.cold_p50_ms", median(coldCall), "ms")
	rep.set("server.cold_p95_ms", quantile(coldCall, 0.95), "ms")
	rep.set("solvecache.result_hit_ratio", ratio("emp_result_cache_hits_total", "emp_result_cache_misses_total"), "share")
	rep.set("solvecache.dataset_hit_ratio", ratio("emp_dataset_cache_hits_total", "emp_dataset_cache_misses_total"), "share")
	rep.set("solvecache.queue_wait_p95_ms", 1000*histQuantile(wins, "emp_solve_queue_wait_seconds", 0.95, len(coldCall)+jobs), "ms")
	rep.set("solvecache.rejected", sum("emp_solve_queue_rejected_total"), "count")
	rep.set("jobs.submit_p50_ms", median(submit), "ms")
	rep.set("jobs.warmstart_ratio", sum("emp_jobs_warmstart_total")/float64(jobs), "share")
	rep.set("jobs.events_per_job", float64(events)/float64(jobs), "count")
	rep.set("durable.checkpoints_written", sum("emp_durable_checkpoints_written_total"), "count")
	rep.set("durable.snapshot_mb", snapMiB, "MiB")
	rep.set("durable.restored_entries", restored, "count")
	rep.set("loadgen.attempted", float64(attempted), "count")
	rep.set("loadgen.lag_p95_ms", quantile(lag, 0.95), "ms")
	return rep, nil
}

func syncLatencyP50(w *windowResult) float64 {
	var lat []float64
	for _, r := range w.recs {
		if r.class != classJob {
			lat = append(lat, ms(r.latency()))
		}
	}
	return median(lat)
}

// histQuantile estimates a quantile of a server histogram's observations
// during the windows, interpolating linearly inside the bucket. The
// histogram only sees waits that queued; the other total-count operations
// took a free slot at once and count as zero.
func histQuantile(wins []*windowResult, family string, q float64, total int) float64 {
	type bucket struct{ le, n float64 }
	var buckets []bucket
	prefix := family + `_bucket{le="`
	for series := range wins[0].after {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(series[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		var n float64
		for _, w := range wins {
			n += delta(w, series)
		}
		buckets = append(buckets, bucket{le, n})
	}
	var queued float64
	for _, w := range wins {
		queued += delta(w, family+"_count")
	}
	zeros := float64(total) - queued
	rank := q * float64(total)
	if queued == 0 || rank <= zeros {
		return 0
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
	rank -= zeros
	prevLe, prevN := 0.0, 0.0
	for _, bk := range buckets {
		if bk.n >= rank {
			if bk.n == prevN {
				return bk.le
			}
			return prevLe + (bk.le-prevLe)*(rank-prevN)/(bk.n-prevN)
		}
		prevLe, prevN = bk.le, bk.n
	}
	return buckets[len(buckets)-1].le
}

// restoredEntries reads the result cache size of the freshly restarted
// server: every entry came from the snapshot plus the hot set's hits.
func (b *serveBench) restoredEntries() (float64, error) {
	resp, err := b.client.Get(b.live.url + "/v1/debug/cache")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct {
		ResultCache struct {
			Entries int `json:"entries"`
		} `json:"result_cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, err
	}
	return float64(out.ResultCache.Entries), nil
}

// probeColdLayers regenerates and prepares the first cold datasets of the
// traced window locally and calls each solver layer on them, as the solve
// workloads' traced run does.
func (b *serveBench) probeColdLayers(rep *report, w *windowResult) ([]layerSample, error) {
	var probes []layerSample
	var preps []float64
	set, err := constraint.ParseSet(tableIIMix)
	if err != nil {
		return nil, err
	}
	for i, r := range w.recs {
		if r.class != classCold || len(probes) == layerProbes {
			continue
		}
		ds, err := b.dataset("4k", w.outs[i].seed)
		if err != nil {
			return nil, err
		}
		sp, _ := b.tr.span(b.rctx, "bench.prep.New")
		t := time.Now()
		art, err := prep.New(ds)
		preps = append(preps, time.Since(t).Seconds())
		sp.End()
		if err != nil {
			return nil, err
		}
		inst := &instance{ds: ds, art: art, set: set}
		inst.cfg.Seed = w.outs[i].seed
		inst.cfg.Prepared = art
		ls, err := probeLayers(b.rctx, b.tr, inst, rep)
		if err != nil {
			return nil, err
		}
		probes = append(probes, ls)
	}
	if len(probes) == 0 {
		return nil, errors.New("no cold request in the traced window")
	}
	rep.set("prep.build_s", median(preps), "s")
	return probes, nil
}

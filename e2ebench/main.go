// Command e2ebench is the repository's end-to-end benchmark. It drives a real
// wsn-serve process (default flags apart from the listen address) over
// loopback with a closed loop of two clients, each on its own keep-alive
// connection, and reports what a user of the service sees: throughput,
// latency, server CPU per query, peak RSS and set-up time. With -trace 1 it
// reports the per-layer split instead: /metrics counts per query from the
// same loopback run, and spans from an in-process replay of the same
// generated requests through the calls handleQuery makes.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	bash e2ebench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 20 --trace 1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// measured metric by name with its unit. See README.md for the workloads,
// the metrics and which layer metric should move which end-to-end metric.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Seeds: the default seed, and a held-out seed that was not used while the
// benchmark or any change measured by it was tuned; confirm a claimed gain on
// it (choosing-metrics §6.3).
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

const (
	clients        = 2   // closed-loop clients, one connection each
	setupLaunches  = 9   // server launches per run; setup_s is their median
	maxCompared    = 12  // sampled v2 responses byte-compared per run
	sampleOneIn    = 32  // one request index in this many is sampled for it
	generatorSlack = 1.5 // pre-generated requests per expected request

	warmMin   = 2 * time.Second
	warmMax   = 60 * time.Second
	warmFirst = 1 << 21 // first warm-up request index: disjoint from the window's
)

// expectedQPS sizes the pre-generated request list per workload; requests
// past it are generated on demand inside the window, so a low guess costs
// client CPU, never correctness.
var expectedQPS = map[string]float64{"sweep": 600, "simulate": 600}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run's result.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e, layer        map[string]metric
}

// environment identifies where and on what a result was measured.
type environment struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	HeldOutSeed int64  `json:"held_out_seed"`
	Seconds     int    `json:"seconds"`
	Trace       int    `json:"trace"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	ServerGo    string `json:"server_go_version"`
	Commit      string `json:"commit"`
}

func main() {
	workload := flag.String("workload", "sweep", "workload: "+strings.Join(workloads, ", ")+" or all")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("request seed (default %d; held-out seed for confirming claims: %d)", defaultSeed, heldOutSeed))
	seconds := flag.Int("seconds", 20, "measured window per run, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (adds an in-process traced replay)")
	serverBin := flag.String("server", ".bench_build/bin/wsn-serve", "wsn-serve binary under test")
	outDir := flag.String("out", ".bench_build", "directory for server logs, spans and result files")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *serverBin, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds, trace int, serverBin, outDir string) error {
	names := []string{workload}
	if workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q (want one of %v or all)", workload, workloads)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	for _, d := range []string{"logs", "results", "traces"} {
		if err := os.MkdirAll(filepath.Join(outDir, d), 0o755); err != nil {
			return err
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	commit, err := sourceDigest(".")
	if err != nil {
		return err
	}
	var attempted, failed int
	metrics := map[string]metric{}
	for _, name := range names {
		env := environment{
			Workload: name, Seed: seed, HeldOutSeed: heldOutSeed, Seconds: seconds, Trace: trace,
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Commit: commit,
		}
		o, err := runWorkload(ctx, name, seed, time.Duration(seconds)*time.Second, trace == 1, serverBin, outDir, &env)
		if err != nil {
			return fmt.Errorf("workload %s: %w", name, err)
		}
		report(name, &env, o)
		if err := writeResult(outDir, &env, o); err != nil {
			return err
		}
		attempted += o.attempted
		failed += o.failed
		pick := o.e2e
		if trace == 1 {
			pick = o.layer
		}
		for k, v := range pick {
			if len(names) > 1 {
				k = name + "." + k
			}
			metrics[k] = v
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload measures one workload: set-up, fill, the timed closed loop with
// a /metrics scrape on either side, the byte comparison of sampled responses
// and, when traced, the in-process replay.
func runWorkload(ctx context.Context, name string, seed int64, window time.Duration, traced bool, serverBin, outDir string, env *environment) (*outcome, error) {
	gen, err := newGenerator(name, seed)
	if err != nil {
		return nil, err
	}
	reqs, err := pregenerate(gen, int(expectedQPS[name]*window.Seconds()*generatorSlack))
	if err != nil {
		return nil, err
	}

	tag := fmt.Sprintf("%s-seed%d", name, seed)
	var srv *server
	var setups []float64
	for k := 0; k < setupLaunches; k++ {
		s, d, err := startServer(serverBin, filepath.Join(outDir, "logs", fmt.Sprintf("%s-launch%d.log", tag, k)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if k < setupLaunches-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()

	hc := newClient()
	defer hc.CloseIdleConnections()
	for i := range gen.fill {
		if err := fillOne(ctx, hc, srv.base, &gen.fill[i]); err != nil {
			return nil, err
		}
	}

	if err := warmUp(ctx, srv, gen, fillUntilEvicted[name]); err != nil {
		return nil, err
	}
	before, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	env.ServerGo = before.build["goversion"]
	if rev := before.build["revision"]; rev != "" {
		env.Commit = rev
	}
	// The peak RSS is the window's own: set-up, fill and warm-up transients
	// are forgotten here.
	if err := srv.resetPeakRSS(); err != nil {
		return nil, err
	}
	keep := func(r *Request) bool { return !r.V1 && sampled(seed, r.Index) }
	start := time.Now()
	deadline := start.Add(window)
	cpu := sampleCPU(srv, start, window/subWindows)
	lr, err := closedLoop(ctx, srv.base, gen, reqs, 0, func() bool { return !time.Now().Before(deadline) }, keep)
	if err != nil {
		return nil, err
	}
	cpuAt, err := cpu()
	if err != nil {
		return nil, err
	}
	rss, err := srv.peakRSS()
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	o := &outcome{attempted: lr.attempted, failed: lr.failed, failures: lr.failures}
	compared, mismatches, err := compareSamples(ctx, gen, reqs, lr.samples)
	if err != nil {
		return nil, err
	}
	o.failed += len(mismatches)
	o.failures = append(o.failures, mismatches...)
	if compared == 0 {
		return nil, errors.New("no v2 response was sampled for the byte comparison")
	}

	completed := float64(len(lr.latencies))
	sub := subWindowMedians(lr, start.Sub(lr.start), window/subWindows, cpuAt)
	o.e2e = map[string]metric{
		"throughput_qps":          {sub.qps, "1/s"},
		"latency_p50_ms":          {sub.p50, "ms"},
		"latency_p99_ms":          {sub.p99, "ms"},
		"server_cpu_ms_per_query": {sub.cpuMS, "ms"},
		"server_rss_peak_mb":      {rss / (1 << 20), "MiB"},
		"setup_s":                 {quantile(setups, 0.5), "s"},
	}
	if !traced {
		return o, nil
	}

	perQuery := func(key string, scale float64) float64 { return delta(before, after, key) * scale / completed }
	ratio := func(hitKey, missKey string) float64 {
		h, m := delta(before, after, hitKey), delta(before, after, missKey)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	ff, sim := delta(before, after, "wsn_lifetime_fast_forward_seconds_total"), delta(before, after, "wsn_lifetime_simulated_seconds_total")
	ffShare := 0.0
	if ff+sim > 0 {
		ffShare = ff / (ff + sim)
	}
	largeShare := 0.0
	if lr.bytes > 0 {
		largeShare = float64(lr.largeBytes) / float64(lr.bytes)
	}
	o.layer = map[string]metric{
		"service.worker_wait_ms":         {perQuery("wsn_worker_wait_seconds_sum", 1e3), "ms/query"},
		"engine.task_busy_ms":            {perQuery("wsn_engine_task_seconds_sum", 1e3), "ms/query"},
		"engine.task_wait_ms":            {perQuery("wsn_engine_task_wait_seconds_sum", 1e3), "ms/query"},
		"query.tasks":                    {perQuery("wsn_query_tasks_total", 1), "count/query"},
		"store.hit_ratio":                {ratio("wsn_store_hits_total", "wsn_store_misses_total"), "ratio"},
		"store.puts":                     {perQuery("wsn_store_puts_total", 1), "count/query"},
		"store.evictions":                {perQuery("wsn_store_evictions_total", 1), "count/query"},
		"contention.mc_runs":             {perQuery("wsn_contention_cache_misses_total", 1), "count/query"},
		"contention.cache_hit_ratio":     {ratio("wsn_contention_cache_hits_total", "wsn_contention_cache_misses_total"), "ratio"},
		"netsim.events":                  {perQuery("wsn_netsim_events_total", 1), "count/query"},
		"netsim.heap_depth_max":          {after.values["wsn_netsim_heap_depth_max"], "count"},
		"lifetime.epochs":                {perQuery("wsn_lifetime_epochs_total", 1), "count/query"},
		"lifetime.fast_forward_share":    {ffShare, "ratio"},
		"workload.large_body_byte_share": {largeShare, "ratio"},
	}

	rp, err := newReplay()
	if err != nil {
		return nil, err
	}
	if err := rp.warm(ctx, gen.fill); err != nil {
		return nil, err
	}
	if err := rp.run(ctx, gen, reqs, lr.attempted, window/2); err != nil {
		return nil, err
	}
	if err := rp.writeSpans(filepath.Join(outDir, "traces", tag+".spans.jsonl")); err != nil {
		return nil, err
	}
	med, share, reqUS := rp.layerStats()
	for _, l := range layers {
		o.layer[l+"_us"] = metric{med[l], "us"}
		o.layer[l+"_share"] = metric{share[l], "ratio"}
	}
	o.layer["service.request_us"] = metric{reqUS, "us"}
	o.layer["store.result_hit_ratio"] = metric{float64(rp.hits) / float64(max(rp.requests, 1)), "ratio"}
	return o, nil
}

// fillUntilEvicted names, per workload, the eviction counter of the bounded
// cache the workload fills: sweep fills the 256 MiB result store, simulate
// the 4096-entry contention cache. A long-running server's caches are full,
// and a cache filling up during the window would make memory and
// garbage-collection cost drift across it.
var fillUntilEvicted = map[string]string{
	"sweep":    "wsn_store_evictions_total",
	"simulate": "wsn_contention_cache_evictions_total",
}

// warmUp runs the closed loop untimed on requests past any index the timed
// window reaches, for warmMin, so the server's heap and the load generator
// reach their steady state before timing. With an evictions counter it goes
// on until that counter has moved (at most warmMax).
func warmUp(ctx context.Context, srv *server, gen *generator, evictions string) error {
	start := time.Now()
	var full atomic.Bool
	if evictions == "" {
		full.Store(true)
	}
	pollCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !full.Load() {
			select {
			case <-pollCtx.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
			if sc, err := srv.scrape(pollCtx); err == nil && sc.values[evictions] > 0 {
				full.Store(true)
			}
		}
	}()
	done := func() bool {
		d := time.Since(start)
		return d >= warmMax || (d >= warmMin && full.Load())
	}
	lr, err := closedLoop(ctx, srv.base, gen, nil, warmFirst, done, func(*Request) bool { return false })
	cancel()
	wg.Wait()
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if lr.failed > 0 {
		return fmt.Errorf("warm-up: %d failed checks: %s", lr.failed, strings.Join(lr.failures, "; "))
	}
	if !full.Load() {
		return fmt.Errorf("warm-up: %s still 0 after %v", evictions, warmMax)
	}
	return nil
}

// subWindows splits the window into equal parts measured separately; a run
// reports each timing's median across them, so a burst of outside load on
// the shared host moves one part, not the result. Each part of a 20 s window
// still holds ≥ 10 samples beyond its p99 in every workload.
const subWindows = 3

// sampleCPU reads the server's CPU time at start and at every sub-window
// boundary after it; the returned function waits for the samples.
func sampleCPU(srv *server, start time.Time, part time.Duration) func() ([]time.Duration, error) {
	out := make([]time.Duration, 0, subWindows+1)
	errc := make(chan error, 1)
	go func() {
		for k := 0; k <= subWindows; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * part)))
			c, err := srv.cpuTime()
			if err != nil {
				errc <- err
				return
			}
			out = append(out, c)
		}
		errc <- nil
	}()
	return func() ([]time.Duration, error) { return out, <-errc }
}

// subWindowStats are the medians across sub-windows.
type subWindowStats struct{ qps, p50, p99, cpuMS float64 }

// subWindowMedians assigns each completed request to the sub-window it
// completed in (requests completing after the deadline join the last one
// for latency, but not for throughput) and takes, per timing, the median of
// the sub-windows' values. offset is the CPU sampler's start relative to the
// loop start; cpuAt[k] is the server CPU time at boundary k.
func subWindowMedians(lr *loopResult, offset, part time.Duration, cpuAt []time.Duration) subWindowStats {
	lat := make([][]float64, subWindows)
	done := make([]float64, subWindows)
	for i, e := range lr.ends {
		k := int((e - offset) / part)
		if k < 0 {
			k = 0
		}
		if k < subWindows {
			done[k]++
		}
		k = min(k, subWindows-1)
		lat[k] = append(lat[k], float64(lr.latencies[i])/1e6)
	}
	var qps, p50, p99, cpuMS []float64
	for k := 0; k < subWindows; k++ {
		qps = append(qps, done[k]/part.Seconds())
		p50 = append(p50, quantile(lat[k], 0.5))
		p99 = append(p99, quantile(lat[k], 0.99))
		cpuMS = append(cpuMS, float64(cpuAt[k+1]-cpuAt[k])/1e6/max(done[k], 1))
	}
	return subWindowStats{quantile(qps, 0.5), quantile(p50, 0.5), quantile(p99, 0.5), quantile(cpuMS, 0.5)}
}

// pregenerate builds requests 0..n-1 before anything is timed.
func pregenerate(gen *generator, n int) ([]Request, error) {
	reqs := make([]Request, n)
	for i := range reqs {
		var err error
		if reqs[i], err = gen.at(i); err != nil {
			return nil, err
		}
	}
	return reqs, nil
}

// fillOne stores one working-set query in the server before timing.
func fillOne(ctx context.Context, hc *http.Client, base string, req *Request) error {
	var buf bytes.Buffer
	status, err := post(ctx, hc, base+req.Route, req.Body, &buf)
	if err == nil {
		err = checkResponse(req, status, buf.Bytes())
	}
	if err != nil {
		return fmt.Errorf("fill request %d: %w", req.Index, err)
	}
	return nil
}

// sampled is the fixed, seed-chosen subset of requests whose v2 responses
// are byte-compared after the window.
func sampled(seed int64, i int) bool {
	h := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h%sampleOneIn == 0
}

// compareSamples recomputes the lowest-indexed kept responses in process and
// byte-compares them; each mismatch is one failed check.
func compareSamples(ctx context.Context, gen *generator, reqs []Request, samples map[int][]byte) (int, []string, error) {
	idx := make([]int, 0, len(samples))
	for i := range samples {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if len(idx) > maxCompared {
		idx = idx[:maxCompared]
	}
	var mismatches []string
	for _, i := range idx {
		req, err := requestAt(gen, reqs, i)
		if err != nil {
			return 0, nil, err
		}
		want, err := expectedBody(ctx, &req)
		if err != nil {
			return 0, nil, fmt.Errorf("in-process request %d: %w", i, err)
		}
		if got := samples[i]; string(got) != string(want) {
			mismatches = append(mismatches, fmt.Sprintf("request %d %s %s: served %d bytes differ from in-process %d bytes", i, req.Route, req.Kind, len(got), len(want)))
		}
	}
	return len(idx), mismatches, nil
}

// report prints every metric of one workload run by name with its unit.
func report(name string, env *environment, o *outcome) {
	fmt.Printf("# workload %s seed %d: nproc=%d GOMAXPROCS=%d go=%s server_go=%s commit=%s\n",
		name, env.Seed, env.NProc, env.GOMAXPROCS, env.GoVersion, env.ServerGo, env.Commit)
	errRate := float64(o.failed) / float64(max(o.attempted, 1))
	fmt.Printf("%-12s %-34s %14.6g %s\n", name, "error_rate", errRate, "ratio")
	for _, set := range []map[string]metric{o.e2e, o.layer} {
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("%-12s %-34s %14.6g %s\n", name, k, set[k].Value, set[k].Unit)
		}
	}
	for _, f := range o.failures {
		fmt.Printf("# failed: %s\n", f)
	}
}

// writeResult stores one run's metrics with its environment.
func writeResult(outDir string, env *environment, o *outcome) error {
	b, err := json.MarshalIndent(struct {
		Env       *environment      `json:"env"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Failures  []string          `json:"failures,omitempty"`
		EndToEnd  map[string]metric `json:"end_to_end"`
		PerLayer  map[string]metric `json:"per_layer,omitempty"`
	}{env, o.attempted, o.failed, o.failures, o.e2e, o.layer}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", env.Workload, env.Seed, env.Trace)
	return os.WriteFile(filepath.Join(outDir, "results", name), append(b, '\n'), 0o644)
}

// sourceDigest identifies the code under test when the checkout carries no
// VCS stamp: a SHA-256 over the module's go.mod and .go files (paths and
// contents), skipping dot-directories such as the build directory.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return "source-sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}

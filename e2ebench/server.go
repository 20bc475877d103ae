package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dense802154/internal/telemetry"
)

// server is one wsn-serve process under test, started with its default
// flags apart from the listen address.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan error
}

// freeAddr picks a loopback port the kernel reports free.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches bin and waits until GET /readyz answers 200. The
// returned duration runs from process launch to that answer.
func startServer(bin, logPath string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://" + addr, log: logf, done: make(chan error, 1)}
	s.cmd = exec.Command(bin, "-addr", addr)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	probe := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { s.done <- s.cmd.Wait() }()
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		select {
		case werr := <-s.done:
			s.done <- werr
			s.stop()
			return nil, 0, fmt.Errorf("wsn-serve exited before ready (%v); log in %s", werr, logPath)
		case <-time.After(500 * time.Microsecond):
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("wsn-serve not ready after 30s; log in %s", logPath)
		}
	}
}

// stop sends SIGTERM (the server drains and exits), escalates to SIGKILL
// after the drain window, and waits for the process to end.
func (s *server) stop() {
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpuTime reads the server's utime+stime from /proc (USER_HZ is 100 on
// Linux).
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.pid()) + "/stat")
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, utime
	// and stime are fields 14 and 15.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// resetPeakRSS restarts the server's VmHWM from its current RSS (Linux
// clear_refs value 5).
func (s *server) resetPeakRSS() error {
	return os.WriteFile("/proc/"+strconv.Itoa(s.pid())+"/clear_refs", []byte("5"), 0)
}

// peakRSS reads the server's VmHWM in bytes.
func (s *server) peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(s.pid()) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// requiredFamilies are the /metrics families the per-layer counts read. A
// scrape missing any of them fails the run: a renamed family must never be
// read as zero.
var requiredFamilies = []string{
	"wsn_worker_wait_seconds",
	"wsn_engine_task_seconds",
	"wsn_engine_task_wait_seconds",
	"wsn_query_tasks_total",
	"wsn_store_hits_total",
	"wsn_store_misses_total",
	"wsn_store_puts_total",
	"wsn_store_evictions_total",
	"wsn_contention_cache_hits_total",
	"wsn_contention_cache_misses_total",
	"wsn_contention_cache_evictions_total",
	"wsn_netsim_events_total",
	"wsn_netsim_heap_depth_max",
	"wsn_lifetime_epochs_total",
	"wsn_lifetime_simulated_seconds_total",
	"wsn_lifetime_fast_forward_seconds_total",
	"wsn_build_info",
}

// scrape is one parsed /metrics snapshot: every sample summed over its
// labels, keyed by family name plus sample suffix (histograms expose
// name_sum and name_count), and the build_info labels.
type scrape struct {
	values map[string]float64
	build  map[string]string
}

func (s *server) scrape(ctx context.Context) (scrape, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/metrics", nil)
	if err != nil {
		return scrape{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return scrape{}, fmt.Errorf("GET /metrics: %w", err)
	}
	return parseScrape(fams)
}

func parseScrape(fams []telemetry.Family) (scrape, error) {
	sc := scrape{values: map[string]float64{}, build: map[string]string{}}
	seen := map[string]bool{}
	for _, f := range fams {
		seen[f.Name] = true
		for _, smp := range f.Samples {
			sc.values[f.Name+smp.Suffix] += smp.Value
			if f.Name == "wsn_build_info" {
				for _, l := range smp.Labels {
					sc.build[l.Name] = l.Value
				}
			}
		}
	}
	var missing []string
	for _, name := range requiredFamilies {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return scrape{}, fmt.Errorf("/metrics lacks required families %s", strings.Join(missing, ", "))
	}
	return sc, nil
}

// delta returns after − before of one key.
func delta(before, after scrape, key string) float64 {
	return after.values[key] - before.values[key]
}

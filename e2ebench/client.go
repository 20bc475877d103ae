package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loopResult is what one closed-loop run observed.
type loopResult struct {
	start      time.Time
	latencies  []time.Duration // send → last byte read, one per completed request
	ends       []time.Duration // completion times from start, in latencies' order
	attempted  int
	failed     int
	bytes      int64 // response body bytes
	largeBytes int64 // bytes of response bodies over largeBody
	failures   []string
	samples    map[int][]byte // kept bodies of sampled requests, by index
}

// largeBody is the size above which a response body counts as large in the
// workload.large_body_byte_share property.
const largeBody = 64 << 10

// maxFailureNotes bounds the failure messages kept for the report.
const maxFailureNotes = 8

// newClient returns an HTTP client pinned to one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// closedLoop runs clients goroutines, each with its own connection, that
// send request after request until done reports true: a client sends its
// next request only after reading the whole previous response. Requests are
// handed out in index order from one counter starting at first; request i
// is reqs[i] when pre-generated, else generated on demand. keep selects
// requests whose bodies are kept for the byte comparison after the window.
func closedLoop(ctx context.Context, base string, gen *generator, reqs []Request, first int, done func() bool, keep func(*Request) bool) (*loopResult, error) {
	var next atomic.Int64
	next.Store(int64(first))
	var mu sync.Mutex
	start := time.Now()
	res := &loopResult{start: start, samples: map[int][]byte{}}
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			var buf bytes.Buffer
			var lat, ends []time.Duration
			var bytesRead, large int64
			for !done() && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				req, err := requestAt(gen, reqs, i)
				if err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
					return
				}
				t0 := time.Now()
				status, err := post(ctx, hc, base+req.Route, req.Body, &buf)
				d := time.Since(t0)
				if err == nil {
					err = checkResponse(&req, status, buf.Bytes())
				}
				lat = append(lat, d)
				ends = append(ends, time.Since(start))
				bytesRead += int64(buf.Len())
				if buf.Len() > largeBody {
					large += int64(buf.Len())
				}
				mu.Lock()
				res.attempted++
				if err != nil {
					res.failed++
					if len(res.failures) < maxFailureNotes {
						res.failures = append(res.failures, fmt.Sprintf("request %d %s %s: %v", i, req.Route, req.Kind, err))
					}
				} else if keep(&req) {
					res.samples[i] = bytes.Clone(buf.Bytes())
				}
				mu.Unlock()
			}
			mu.Lock()
			res.latencies = append(res.latencies, lat...)
			res.ends = append(res.ends, ends...)
			res.bytes += bytesRead
			res.largeBytes += large
			mu.Unlock()
		}()
	}
	wg.Wait()
	return res, firstErr
}

func requestAt(gen *generator, reqs []Request, i int) (Request, error) {
	if i < len(reqs) {
		return reqs[i], nil
	}
	return gen.at(i)
}

// post sends one request and reads the whole response body into buf.
func post(ctx context.Context, hc *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	buf.Reset()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

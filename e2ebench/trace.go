package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dense802154/internal/engine"
	"dense802154/internal/query"
	"dense802154/internal/store"
)

// Span is one traced interval: a layer call inside one request, or the
// request itself (Parent -1). Times are nanoseconds from the replay start.
type Span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// The traced layers, in the order handleQuery calls them.
var layers = []string{"service.decode", "query.compile", "store.lookup", "query.execute", "query.encode", "store.put"}

// tracer keeps spans in memory; they are written out after the run.
type tracer struct {
	origin time.Time
	spans  []Span
}

// span runs f as a child of parent and records it.
func (t *tracer) span(name string, parent, request int, f func() error) error {
	s := Span{Name: name, Start: int64(time.Since(t.origin)), Parent: parent, Request: request}
	err := f()
	s.End = int64(time.Since(t.origin))
	t.spans = append(t.spans, s)
	return err
}

// replay is the traced, in-process twin of the loopback run: the v2 body of
// each request goes through the public calls handleQuery makes, in its
// order — strict decode, query.Compile, store.KeyFor + Store.GetResult,
// Plan.Execute with Store.Tasks attached, ResultSet.Encode, Store.PutResult
// — against a fresh default-sized store, one request at a time with the
// whole worker budget (what a lone request is granted). v1 and stream
// requests replay as their /v2/query equivalent.
type replay struct {
	st       *store.Store
	tr       tracer
	requests int
	hits     int // whole-query store hits
	workers  int
}

func newReplay() (*replay, error) {
	st, err := store.New(store.Config{MaxBytes: store.DefaultMaxBytes})
	if err != nil {
		return nil, err
	}
	return &replay{st: st, tr: tracer{origin: time.Now()}, workers: engine.ResolveWorkers(0)}, nil
}

// warm stores each request's answer untraced, as the loopback fill does.
func (rp *replay) warm(ctx context.Context, reqs []Request) error {
	for i := range reqs {
		if _, err := rp.serve(ctx, &reqs[i], nil); err != nil {
			return err
		}
	}
	return nil
}

// serve answers one request the way handleQuery does; with a tracer each
// call is recorded as a child span of one request span.
func (rp *replay) serve(ctx context.Context, req *Request, tr *tracer) ([]byte, error) {
	root := -1
	run := func(name string, f func() error) error {
		if tr == nil {
			return f()
		}
		return tr.span(name, root, req.Index, f)
	}
	var reqStart int64
	if tr != nil {
		reqStart = int64(time.Since(tr.origin))
		tr.spans = append(tr.spans, Span{Name: "request", Start: reqStart, Parent: -1, Request: req.Index})
		root = len(tr.spans) - 1
	}
	var q query.Query
	var plan *query.Plan
	var key store.Key
	var body []byte
	var hit bool
	err := run("service.decode", func() error { return decodeStrict(req.V2, &q) })
	if err == nil {
		err = run("query.compile", func() error {
			var err error
			plan, err = query.Compile(q)
			return err
		})
	}
	if err == nil {
		err = run("store.lookup", func() error {
			var ok bool
			if key, ok = store.KeyFor(q); !ok {
				return errors.New("query has no store key")
			}
			body, hit = rp.st.GetResult(key)
			return nil
		})
	}
	if err == nil && !hit {
		var rs *query.ResultSet
		err = run("query.execute", func() error {
			plan.Store = rp.st.Tasks(q)
			var err error
			rs, err = plan.Execute(ctx, rp.workers, nil)
			return err
		})
		if err == nil {
			err = run("query.encode", func() error {
				var err error
				body, err = rs.Encode()
				return err
			})
		}
		if err == nil {
			_ = run("store.put", func() error { rp.st.PutResult(key, body); return nil })
		}
	}
	if tr != nil {
		tr.spans[root].End = int64(time.Since(tr.origin))
		rp.requests++
		if hit {
			rp.hits++
		}
	}
	if err != nil {
		return nil, fmt.Errorf("replay request %d (%s): %w", req.Index, req.Kind, err)
	}
	return body, nil
}

// decodeStrict is decodeJSON's strict decode: unknown fields and trailing
// data are errors.
func decodeStrict(b []byte, dst *query.Query) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// run replays requests 0, 1, … from gen traced until n are done or the
// budget is spent.
func (rp *replay) run(ctx context.Context, gen *generator, reqs []Request, n int, budget time.Duration) error {
	start := time.Now()
	for i := 0; i < n && time.Since(start) < budget; i++ {
		req, err := requestAt(gen, reqs, i)
		if err != nil {
			return err
		}
		if _, err := rp.serve(ctx, &req, &rp.tr); err != nil {
			return err
		}
	}
	return nil
}

// layerStats reduces the spans to each layer's median µs over the requests
// that called it (execute, encode and put run only on store misses) and its
// share of the summed request time.
func (rp *replay) layerStats() (median map[string]float64, share map[string]float64, requestUS float64) {
	perReq := map[int]map[string]float64{}
	var total float64
	var reqDur []float64
	for _, s := range rp.tr.spans {
		d := float64(s.End-s.Start) / 1e3
		if s.Parent < 0 {
			total += d
			reqDur = append(reqDur, d)
			continue
		}
		if perReq[s.Request] == nil {
			perReq[s.Request] = map[string]float64{}
		}
		perReq[s.Request][s.Name] += d
	}
	median, share = map[string]float64{}, map[string]float64{}
	for _, l := range layers {
		var vals []float64
		sum := 0.0
		for _, m := range perReq {
			if d, ok := m[l]; ok {
				vals = append(vals, d)
				sum += d
			}
		}
		median[l] = quantile(vals, 0.5)
		if total > 0 {
			share[l] = sum / total
		}
	}
	return median, share, quantile(reqDur, 0.5)
}

// writeSpans writes the spans as JSON lines.
func (rp *replay) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range rp.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation (0 when
// empty); xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

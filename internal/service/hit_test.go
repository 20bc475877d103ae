package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dense802154/internal/query"
	"dense802154/internal/store"
)

// replayKindBodies is one small query per WireExact kind: the kinds whose
// stored answers replay as a stream.
var replayKindBodies = map[query.Kind]string{
	query.KindEvaluate:      `{"kind":"evaluate","params":{"contention":{"source":"approx"}}}`,
	query.KindBatch:         `{"kind":"batch","batch":[{"contention":{"source":"approx"}},{"payload_bytes":20,"contention":{"source":"approx"}}]}`,
	query.KindCaseStudy:     `{"kind":"casestudy","params":{"contention":{"source":"approx"}},"config":{"loss_grid_points":7}}`,
	query.KindPathLossSweep: `{"kind":"pathloss-sweep","params":{"contention":{"source":"approx"}},"losses":{"values":[55,70,85]}}`,
	query.KindThresholds:    `{"kind":"thresholds","params":{"contention":{"source":"approx"}},"losses":{"from":50,"to":95,"points":10}}`,
	query.KindPayloadSweep:  `{"kind":"payload-sweep","params":{"contention":{"source":"approx"}},"payloads":{"values":[20,60,120]}}`,
	query.KindSimulate:      `{"kind":"simulate","sim":{"nodes":8,"superframes":2}}`,
	query.KindReplicas:      `{"kind":"replicas","sim":{"nodes":8,"superframes":2},"replicas":3}`,
	query.KindLifetime:      lifetimeQueryBody,
	query.KindGrid:          storeGridBody,
}

// TestStreamReplayAllKinds: for every WireExact kind, a stream answered
// from a stored whole-query body — from the memory tier, and after a
// restart from the disk tier, whose spans are recovered by a scan — is byte
// for byte the stream a storeless server computes, replica and lifetime
// summaries included.
func TestStreamReplayAllKinds(t *testing.T) {
	for _, kind := range query.Kinds() {
		if _, ok := replayKindBodies[kind]; !ok && kind.WireExact() {
			t.Fatalf("no replay query for WireExact kind %s", kind)
		}
	}
	plain := newTestServer(t, Config{Workers: 2})
	dir := t.TempDir()
	newDiskServer := func() *httptest.Server {
		st, err := store.New(store.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		return newTestServer(t, Config{Workers: 2, Store: st})
	}
	first := newDiskServer()
	for kind, body := range replayKindBodies {
		_, want := postJSON(t, plain.URL+"/v2/query/stream", body)
		if status, b := postJSON(t, first.URL+"/v2/query", body); status != http.StatusOK {
			t.Fatalf("%s: %d %s", kind, status, b)
		}
		hits0 := store.HitsTotal.Value()
		if _, got := postJSON(t, first.URL+"/v2/query/stream", body); !bytes.Equal(got, want) {
			t.Fatalf("%s: memory-tier replay deviates\n got %s\nwant %s", kind, got, want)
		}
		if store.HitsTotal.Value() == hits0 {
			t.Fatalf("%s: the stream was not answered from the store", kind)
		}
		disk0 := store.DiskHitsTotal.Value()
		if _, got := postJSON(t, newDiskServer().URL+"/v2/query/stream", body); !bytes.Equal(got, want) {
			t.Fatalf("%s: disk-tier replay deviates\n got %s\nwant %s", kind, got, want)
		}
		if store.DiskHitsTotal.Value() == disk0 {
			t.Fatalf("%s: the restarted server did not read the disk tier", kind)
		}
	}
}

// TestQueryHitCounts: a whole-query store hit moves wsn_query_total{kind}
// and wsn_query_tasks_total exactly as the compiled miss before it did, on
// both v2 routes.
func TestQueryHitCounts(t *testing.T) {
	ts, _ := newStoreServer(t, Config{Workers: 2})
	body := replayKindBodies[query.KindReplicas]
	for i, route := range []string{"/v2/query", "/v2/query", "/v2/query/stream"} {
		kinds0 := queryKindCount(t, ts.URL, query.KindReplicas)
		tasks0 := metricValue(t, ts.URL, "wsn_query_tasks_total")
		hits0 := store.HitsTotal.Value()
		if status, b := postJSON(t, ts.URL+route, body); status != http.StatusOK {
			t.Fatalf("request %d: %d %s", i, status, b)
		}
		if hit := store.HitsTotal.Value() > hits0; hit != (i > 0) {
			t.Fatalf("request %d on %s: store hit %v", i, route, hit)
		}
		if d := queryKindCount(t, ts.URL, query.KindReplicas) - kinds0; d != 1 {
			t.Errorf("request %d on %s moved wsn_query_total{kind=replicas} by %v, want 1", i, route, d)
		}
		if d := metricValue(t, ts.URL, "wsn_query_tasks_total") - tasks0; d != 3 {
			t.Errorf("request %d on %s moved wsn_query_tasks_total by %v, want 3", i, route, d)
		}
	}
}

// TestQueryHitValidatesUnkeyedFields: what the store key leaves out is
// still validated when the key hits — an invalid version, a negative
// timeout_ms or a present but empty batch is the 400 Compile answers —
// while valid values of them are served the stored bytes.
func TestQueryHitValidatesUnkeyedFields(t *testing.T) {
	ts, _ := newStoreServer(t, Config{Workers: 2})
	_, want := postJSON(t, ts.URL+"/v2/query", storeGridBody)
	_, wantStream := postJSON(t, ts.URL+"/v2/query/stream", storeGridBody)
	with := func(fields string) string { return strings.Replace(storeGridBody, `{`, `{`+fields+`,`, 1) }
	for _, route := range []string{"/v2/query", "/v2/query/stream"} {
		for fields, field := range map[string]string{`"version":1`: "version", `"timeout_ms":-1`: "timeout_ms", `"batch":[]`: "batch"} {
			status, body := postJSON(t, ts.URL+route, with(fields))
			var eb errorBody
			if status != http.StatusBadRequest || json.Unmarshal(body, &eb) != nil || eb.Error.Field != field {
				t.Errorf("%s with %s: %d %s, want a 400 on field %s", route, fields, status, body, field)
			}
		}
		status, body := postJSON(t, ts.URL+route, with(`"version":2,"timeout_ms":60000,"workers":3`))
		if status != http.StatusOK || !bytes.Equal(body, map[bool][]byte{true: wantStream, false: want}[strings.HasSuffix(route, "stream")]) {
			t.Errorf("%s with valid unkeyed fields: %d, bytes differ from the stored answer", route, status)
		}
	}
}

// hitWriter is a reusable ResponseWriter that keeps nothing, so an
// in-process ServeHTTP loop over it counts the server's own allocations.
type hitWriter struct {
	header http.Header
	n      int
}

func (w *hitWriter) Header() http.Header { return w.header }
func (w *hitWriter) WriteHeader(int)     {}
func (w *hitWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// rewindBody is a request body served again on every run.
type rewindBody struct{ *bytes.Reader }

func (rewindBody) Close() error { return nil }

// TestQueryHitAllocs gates the allocations of an in-process whole-query
// store hit through ServeHTTP, on /v2/query and /v2/query/stream: body read
// and decode, key, lookup and write, plus the server's request accounting.
// Measured at 20 (plain) and 21 (stream) allocations; with the reflective
// decoder, the json.Encoder key, a compile before the lookup and a decoded
// stream replay the same hits cost 70 and 91.
func TestQueryHitAllocs(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Workers: 2, Store: st})
	const bound = 40
	for _, route := range []string{"/v2/query", "/v2/query/stream"} {
		w := &hitWriter{header: http.Header{}}
		rd := bytes.NewReader(nil)
		body := rewindBody{rd}
		r := httptest.NewRequest(http.MethodPost, route, nil)
		serve := func() {
			rd.Reset([]byte(storeGridBody))
			r.Body = body
			clear(w.header)
			srv.ServeHTTP(w, r)
		}
		serve() // miss: computes and stores
		n := w.n
		serve()
		if w.n != 2*n {
			t.Fatalf("%s: the warm response differs in size from the cold one", route)
		}
		if allocs := testing.AllocsPerRun(200, serve); allocs > bound {
			t.Errorf("%s: a store hit costs %.0f allocs, want ≤ %d", route, allocs, bound)
		}
	}
}

// fillWire sets every wire field reachable from v to a non-zero value that
// varies with *seed: pointers are allocated, slices get two elements, and
// strings carry characters the encoders must escape (or must not).
func fillWire(v reflect.Value, seed *int) {
	*seed++
	switch v.Kind() {
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillWire(v.Elem(), seed)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
				fillWire(v.Field(i), seed)
			}
		}
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		fillWire(s.Index(0), seed)
		fillWire(s.Index(1), seed)
		v.Set(s)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d <&>\u2028\"é\"\t\x01\xff", *seed))
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*seed) * -7919)
	case reflect.Uint8:
		v.SetUint(uint64(*seed % 256))
	case reflect.Float64:
		v.SetFloat([]float64{float64(*seed) + 0.1, 1e-300, -2.5e300}[*seed%3])
	case reflect.Bool:
		v.SetBool(true)
	}
}

// TestCanonicalMatchesReference: for one generated query per kind, with
// every wire field set, Query.Canonical equals the encoding/json reference
// form, and DecodeQuery reads the query's encoding/json bytes back to the
// value encoding/json does.
func TestCanonicalMatchesReference(t *testing.T) {
	for i, kind := range query.Kinds() {
		var q query.Query
		seed := i * 1000
		fillWire(reflect.ValueOf(&q).Elem(), &seed)
		q.Kind = kind
		can, ok := q.Canonical()
		if !ok {
			t.Fatalf("%s: no canonical form", kind)
		}
		if ref := referenceCanonical(q); !bytes.Equal(can, ref) {
			t.Fatalf("%s: canonical form deviates from encoding/json\n got %s\nwant %s", kind, can, ref)
		}
		data, err := json.Marshal(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := query.DecodeQuery(data)
		want, werr := referenceDecodeQuery(data)
		if err != nil || werr != nil {
			t.Fatalf("%s: DecodeQuery %v, encoding/json %v", kind, err, werr)
		}
		if !sameValue(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("%s: DecodeQuery(%s) = %#v", kind, data, got)
		}
	}
}

// TestOversizedBodyIs413: a body past Config.MaxBodyBytes is a 413 on the
// reflective v1 decode and on both v2 routes, also when the JSON value ends
// inside the cap and only whitespace runs past it.
func TestOversizedBodyIs413(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	long := `{"kind":"evaluate","params":{"radio":"` + strings.Repeat("x", 100) + `"}}`
	padded := `{"kind":"evaluate"}` + strings.Repeat(" ", 100)
	for _, tc := range []struct{ path, body string }{
		{"/v1/evaluate", `{"params":{"radio":"` + strings.Repeat("x", 100) + `"}}`},
		{"/v1/evaluate", `{}` + strings.Repeat(" ", 100)},
		{"/v2/query", long},
		{"/v2/query", padded},
		{"/v2/query/stream", long},
	} {
		if status, body := postJSON(t, ts.URL+tc.path, tc.body); status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: %d %s, want 413", tc.path, len(tc.body), status, body)
		}
	}
}

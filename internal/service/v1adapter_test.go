package service

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dense802154/internal/query"
	"dense802154/internal/store"
	"dense802154/internal/telemetry"
)

// queryKindCount scrapes /metrics and returns wsn_query_total{kind}.
func queryKindCount(t *testing.T, url string, kind query.Kind) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fams {
		if f.Name != "wsn_query_total" {
			continue
		}
		for _, s := range f.Samples {
			if len(s.Labels) == 1 && s.Labels[0].Value == string(kind) {
				return s.Value
			}
		}
	}
	return 0
}

// TestV1AndV2ShareOnePath: a v1 sweep and its v2 twin are one query to the
// server — both count under the same kind, the v2 twin reuses the task the
// v1 request stored, and its bytes equal a fresh server's.
func TestV1AndV2ShareOnePath(t *testing.T) {
	const params = `{"contention":{"superframes":8,"seed":11}}`
	v1Body := `{"params":` + params + `,"losses":[58,66,74,82]}`
	v2Body := `{"kind":"pathloss-sweep","params":` + params + `,"losses":{"values":[58,66,74,82]}}`

	plain := newTestServer(t, Config{Workers: 2})
	_, want := postJSON(t, plain.URL+"/v2/query", v2Body)

	ts, _ := newStoreServer(t, Config{Workers: 2})
	if status, body := postJSON(t, ts.URL+"/v1/sweep/pathloss", v1Body); status != http.StatusOK {
		t.Fatalf("v1: %d: %s", status, body)
	}
	hits0 := metricValue(t, ts.URL, "wsn_store_hits_total")
	status, got := postJSON(t, ts.URL+"/v2/query", v2Body)
	if status != http.StatusOK {
		t.Fatalf("v2: %d: %s", status, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v2 twin after v1 deviates from a fresh server:\n got %s\nwant %s", got, want)
	}
	if n := queryKindCount(t, ts.URL, query.KindPathLossSweep); n != 2 {
		t.Errorf("wsn_query_total{kind=pathloss-sweep} = %v, want 2", n)
	}
	if d := metricValue(t, ts.URL, "wsn_store_hits_total") - hits0; d < 1 {
		t.Errorf("the v2 twin did not reuse the v1 task entry (store hits moved by %v)", d)
	}
}

// countingDistributor runs plans locally and counts them, standing in for
// a coordinator.
type countingDistributor struct{ n atomic.Int64 }

func (d *countingDistributor) Distribute(ctx context.Context, q query.Query, plan *query.Plan, workers int, yield func(query.TaskResult) error) (*query.ResultSet, error) {
	d.n.Add(1)
	return plan.Execute(ctx, workers, yield)
}

// TestV1GoldensOnEveryExecutionPath replays the v1 goldens on servers whose
// execution differs — a result store (cold, then warm from its own task
// entries) and a Distributor — and demands the committed bytes each time.
func TestV1GoldensOnEveryExecutionPath(t *testing.T) {
	st, err := store.New(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	dist := &countingDistributor{}
	servers := []struct {
		name string
		srv  *Server
	}{
		{"store", NewServer(Config{Workers: 2, Store: st})},
		{"store-warm", NewServer(Config{Workers: 2, Store: st})},
		{"distributor", NewServer(Config{Workers: 2, Distributor: dist})},
	}
	ran := 0
	for _, sv := range servers {
		for _, tc := range v1GoldenCases {
			want, err := os.ReadFile(v1GoldenPath(tc.name))
			if err != nil {
				t.Fatal(err)
			}
			if got := v1Response(sv.srv, tc.path, tc.body); !bytes.Equal(got, want) {
				t.Errorf("%s: %s deviates from its golden:\n got %.400s\nwant %.400s", sv.name, tc.name, got, want)
			}
			if sv.name == "distributor" && bytes.HasPrefix(want, []byte("200 ")) {
				ran++
			}
		}
	}
	if got := dist.n.Load(); got != int64(ran) {
		t.Errorf("Distributor ran %d plans for %d successful v1 requests", got, ran)
	}

	// An empty threshold list is omitted from the stored task line; the
	// warm v1 answer must still be a list.
	body := `{"params":{"contention":{"source":"approx"}},"losses":[70]}`
	cold := v1Response(servers[0].srv, "/v1/sweep/thresholds", body)
	warm := v1Response(servers[1].srv, "/v1/sweep/thresholds", body)
	if !bytes.Equal(warm, cold) || !strings.Contains(string(cold), `{"thresholds":[]}`) {
		t.Errorf("empty thresholds: cold %q, warm %q", cold, warm)
	}
}

// TestV1QueryTimeoutIs503: Config.QueryTimeout bounds v1 requests too, and
// v1 answers its expiry 503 like every other context failure (v2: 504).
func TestV1QueryTimeoutIs503(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 1, QueryTimeout: time.Nanosecond})
	const params = `{"contention":{"source":"approx"}}`
	status, body := postJSON(t, ts.URL+"/v1/casestudy", `{"params":`+params+`,"config":{"loss_grid_points":10001}}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("v1: status %d (%s), want 503", status, body)
	}
	status, body = postJSON(t, ts.URL+"/v2/query", `{"kind":"casestudy","params":`+params+`,"config":{"loss_grid_points":10001}}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("v2: status %d (%s), want 504", status, body)
	}
}

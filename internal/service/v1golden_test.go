package service

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateV1 regenerates the committed v1 response goldens from the current
// code:
//
//	go test ./internal/service -run TestV1ResponseGoldens -update
//
// Review the diff before committing — the v1 routes are frozen, so a golden
// change IS a wire break.
var updateV1 = flag.Bool("update", false, "rewrite testdata/v1/*.golden from this run")

// v1GoldenCases is one fixed request per v1 compute route plus one error
// body per route. The names are the golden file stems.
var v1GoldenCases = []struct {
	name, path, body string
}{
	{"evaluate", "/v1/evaluate", `{"params":{"payload_bytes":60,"contention":{"superframes":8,"seed":3}}}`},
	{"evaluate-400", "/v1/evaluate", `{"params":{"payload_bytes":0}}`},
	{"batch", "/v1/batch", `{"params":[{"contention":{"superframes":8,"seed":3}},{"payload_bytes":60,"load":0.2,"contention":{"source":"approx"}}]}`},
	{"batch-400", "/v1/batch", `{"params":[{},{"load":2.5}]}`},
	{"batch-stream", "/v1/batch?stream=1", `{"params":[{"contention":{"superframes":8,"seed":3}},{"payload_bytes":60,"load":0.2,"contention":{"source":"approx"}}]}`},
	{"batch-stream-400", "/v1/batch?stream=maybe", `{"params":[{}]}`},
	{"casestudy", "/v1/casestudy", `{"params":{"contention":{"superframes":8,"seed":3}},"config":{"loss_grid_points":11}}`},
	{"casestudy-400", "/v1/casestudy", `{"config":{"loss_grid_points":1}}`},
	{"sweep-pathloss", "/v1/sweep/pathloss", `{"params":{"contention":{"superframes":8,"seed":3}},"losses":[60,75,90]}`},
	{"sweep-pathloss-400", "/v1/sweep/pathloss", `{"params":{"radio":"nrf24"}}`},
	{"sweep-thresholds", "/v1/sweep/thresholds", `{"params":{"contention":{"superframes":8,"seed":3}},"losses":[60,62,64,66,68,70,72,74,76,78,80]}`},
	{"sweep-thresholds-400", "/v1/sweep/thresholds", `{"params":{"superframe":{"bo":2,"so":9}}}`},
	{"sweep-payload", "/v1/sweep/payload", `{"params":{"contention":{"superframes":8,"seed":3}},"sizes":[20,60,120]}`},
	{"sweep-payload-400", "/v1/sweep/payload", `{"params":{"load":-1}}`},
	{"simulate", "/v1/simulate", `{"config":{"nodes":10,"superframes":4,"seed":7}}`},
	{"simulate-replicas", "/v1/simulate", `{"config":{"nodes":10,"superframes":4,"seed":7},"replicas":3}`},
	{"simulate-400", "/v1/simulate", `{"config":{"transmit_prob":1.5}}`},
	{"experiment-fig8", "/v1/experiments/fig8", `{"quick":true}`},
	{"experiment-400", "/v1/experiments/fig8", `{"quik":true}`},
	{"experiment-404", "/v1/experiments/fig99", `{}`},
	{"scenario-sparse-idle", "/v1/scenarios/sparse-idle", `{"diff":true}`},
	{"scenario-400", "/v1/scenarios/sparse-idle", `{"workers":`},
	{"scenario-404", "/v1/scenarios/nope", `{}`},
}

// TestV1ResponseGoldens pins the exact bytes of the frozen v1 routes: the
// status line, content type and body of every case must match the
// committed golden. The other v1 tests compare decoded values; this one
// catches a reordered field, a changed float rendering or a moved error
// message.
func TestV1ResponseGoldens(t *testing.T) {
	srv := NewServer(Config{Workers: 1})
	for _, tc := range v1GoldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got := v1Response(srv, tc.path, tc.body)
			path := v1GoldenPath(tc.name)
			if *updateV1 {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s %s deviates from its golden:\n got %.400s\nwant %.400s", tc.path, tc.body, got, want)
			}
		})
	}
}

// v1GoldenPath is the committed golden file of one v1GoldenCases entry.
func v1GoldenPath(name string) string {
	return filepath.Join("testdata", "v1", name+".golden")
}

// v1Response serves one POST in process and renders it in golden form: a
// "status content-type" line, then the body bytes.
func v1Response(srv http.Handler, path, body string) []byte {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return append([]byte(fmt.Sprintf("%d %s\n", rec.Code, rec.Header().Get("Content-Type"))), rec.Body.Bytes()...)
}

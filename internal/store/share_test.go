package store_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"dense802154/internal/query"
	"dense802154/internal/service"
	"dense802154/internal/store"
)

// TestServedQueriesShareBytes: once /v2/query or /v2/query/stream has
// answered a computed query, each of its in-memory task entries points
// inside the whole entry's backing array and decodes to the same
// TaskResult as the body's element — the answer is held once.
func TestServedQueriesShareBytes(t *testing.T) {
	cases := []struct{ route, body string }{
		{"/v2/query", `{"kind":"grid","params":{"contention":{"superframes":8,"seed":3}},"losses":{"values":[55,70,85]},"payloads":{"values":[20,100]}}`},
		{"/v2/query/stream", `{"kind":"batch","batch":[{"payload_bytes":20,"contention":{"source":"approx"}},{"payload_bytes":60,"contention":{"source":"approx"}},{"payload_bytes":120,"contention":{"source":"approx"}}]}`},
	}
	for _, tc := range cases {
		st, err := store.New(store.Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv := service.NewServer(service.Config{Workers: 2, Store: st})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.route, strings.NewReader(tc.body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.route, rec.Code, rec.Body.Bytes())
		}
		var q query.Query
		if err := json.Unmarshal([]byte(tc.body), &q); err != nil {
			t.Fatal(err)
		}
		key, ok := store.KeyFor(q)
		if !ok {
			t.Fatalf("%s: query not keyable", tc.route)
		}
		whole, ok := st.MemBytes(key, -1)
		if !ok {
			t.Fatalf("%s: no whole-query entry", tc.route)
		}
		var body struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(whole, &body); err != nil {
			t.Fatal(err)
		}
		if len(body.Results) < 2 {
			t.Fatalf("%s: %d results, want several", tc.route, len(body.Results))
		}
		for i, elem := range body.Results {
			task, ok := st.MemBytes(key, i)
			if !ok {
				t.Fatalf("%s: task %d not in memory", tc.route, i)
			}
			at := bytes.Index(whole, elem)
			if len(task) == 0 || at < 0 || &task[0] != &whole[at] || len(task) != len(elem) {
				t.Errorf("%s: task %d does not share the whole entry's bytes", tc.route, i)
			}
			got, err := query.DecodeTaskResult(task)
			if err != nil {
				t.Fatalf("%s: task %d: %v", tc.route, i, err)
			}
			want, err := query.DecodeTaskResult(elem)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: task %d decodes to %+v, element to %+v", tc.route, i, got, want)
			}
			if hit, ok := st.GetTask(key, i); !ok || !bytes.Equal(hit, task) {
				t.Errorf("%s: GetTask(%d) does not serve the shared bytes", tc.route, i)
			}
		}
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"dense802154/internal/query"
)

// checkResponse validates one response cheaply enough to run inside the
// timed window (byte scans, no JSON decode, so the load generator does not
// steal CPU from the server it shares the machine with): status 200, the
// kind of the request, a task count equal to Plan.NumTasks, and for streams
// a final done:true line with the right count.
func checkResponse(req *Request, status int, body []byte) error {
	if status != 200 {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	switch {
	case req.Stream:
		return checkStream(req, body)
	case req.V1:
		return checkV1(req, body)
	}
	prefix := `{"version":2,"kind":"` + string(req.Kind) + `","results":[`
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return fmt.Errorf("body does not open with %s", prefix)
	}
	if n := bytes.Count(body, []byte(`{"index":`)); n != req.Tasks {
		return fmt.Errorf("%d task results, plan has %d", n, req.Tasks)
	}
	return nil
}

// checkStream validates an NDJSON stream: one line per task in plan order,
// each labelled as a task of the request's kind, then
// {"done":true,"count":n,...}.
func checkStream(req *Request, body []byte) error {
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != req.Tasks+1 {
		return fmt.Errorf("%d stream lines, want %d tasks + done", len(lines), req.Tasks)
	}
	label := labelPrefix(req.Kind)
	for i, l := range lines[:req.Tasks] {
		if !bytes.HasPrefix(l, []byte(`{"index":`+strconv.Itoa(i)+`,"label":"`+label)) {
			return fmt.Errorf("stream line %d is not a %s task %d", i, req.Kind, i)
		}
	}
	done := `{"done":true,"count":` + strconv.Itoa(req.Tasks)
	if last := lines[req.Tasks]; !bytes.HasPrefix(last, []byte(done)) || (len(last) > len(done) && last[len(done)] != ',' && last[len(done)] != '}') {
		return fmt.Errorf("stream does not end with %s", done)
	}
	return nil
}

// labelPrefix is how the plan labels a task of kind k.
func labelPrefix(k query.Kind) string {
	switch k {
	case query.KindBatch, query.KindGrid, query.KindLifetime:
		return string(k) + "["
	case query.KindReplicas:
		return "replica["
	}
	return string(k) + `"`
}

// checkV1 validates the v1 response shape of the request's kind and its
// element count.
func checkV1(req *Request, body []byte) error {
	var prefix, elem string
	want := 1
	switch req.Kind {
	case query.KindEvaluate:
		prefix, elem = `{"metrics":{"tx_level_index":`, `"tx_level_index":`
	case query.KindBatch:
		prefix, elem, want = `{"metrics":[{"tx_level_index":`, `{"tx_level_index":`, req.Tasks
	case query.KindPathLossSweep:
		prefix, elem, want = `{"curves":[`, `{"level_index":`, -1
	case query.KindThresholds:
		prefix, elem, want = `{"thresholds":`, "", -1
	case query.KindPayloadSweep:
		prefix, elem, want = `{"sizes_bytes":[`, "", -1
	case query.KindReplicas:
		prefix, elem, want = `{"replicas":`+strconv.Itoa(req.Tasks)+`,`, `{"seed":`, req.Tasks
	default:
		return fmt.Errorf("kind %s has no v1 check", req.Kind)
	}
	if !bytes.HasPrefix(body, []byte(prefix)) {
		return fmt.Errorf("v1 %s body does not open with %s", req.Kind, prefix)
	}
	if want > 0 {
		if n := bytes.Count(body, []byte(elem)); n != want {
			return fmt.Errorf("v1 %s body has %d elements, want %d", req.Kind, n, want)
		}
	}
	return nil
}

// streamDone mirrors the done line of /v2/query/stream field for field, so
// an expected stream can be rendered from an in-process ResultSet.
type streamDone struct {
	Done            bool                       `json:"done"`
	Count           int                        `json:"count"`
	Summary         *query.ReplicaSummaryWire  `json:"summary,omitempty"`
	LifetimeSummary *query.LifetimeSummaryWire `json:"lifetime_summary,omitempty"`
}

// expectedBody computes, in process, the exact bytes a v2 request must be
// answered with: query.Run(...).Encode() for /v2/query, and for the stream
// route each TaskResult line followed by the done line.
func expectedBody(ctx context.Context, req *Request) ([]byte, error) {
	rs, err := query.Run(ctx, req.Query)
	if err != nil {
		return nil, err
	}
	if !req.Stream {
		return rs.Encode()
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for i := range rs.Results {
		if err := enc.Encode(rs.Results[i]); err != nil {
			return nil, err
		}
	}
	err = enc.Encode(streamDone{Done: true, Count: len(rs.Results), Summary: rs.Summary, LifetimeSummary: rs.LifetimeSummary})
	return buf.Bytes(), err
}

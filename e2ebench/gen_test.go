package main

import (
	"bytes"
	"context"
	"testing"

	"dense802154/internal/core"
	"dense802154/internal/query"
)

// Work bounds: no generated request exceeds any of them, so one request
// cannot dominate a run. TestWorkBounds and TestStoreHitsAndSizes check
// every generator against them.
const (
	maxAnalyticEvals = 10000 // model evaluations of one analytic request
	maxMCSuperframes = 400   // Monte-Carlo superframes over all characterizations of one request
	maxNodeFrames    = 16000 // simulated nodes × superframes × replicas (× epochs for lifetime)
	maxResponseBytes = 256 << 10
)

// Work is a request's size along the three bounded axes.
type Work struct {
	AnalyticEvals int
	MCSuperframes int
	NodeFrames    int
}

// workOf sizes q. Model evaluations count every transmit level a sweep point
// scans (at most 8); Monte-Carlo superframes count one characterization per
// distinct payload × load point.
func workOf(q query.Query, tasks int) Work {
	const levels = 8
	var w Work
	switch q.Kind {
	case query.KindPathLossSweep, query.KindThresholds:
		w.AnalyticEvals = levels * axisLen(q.Losses)
	case query.KindPayloadSweep:
		w.AnalyticEvals = len(q.Payloads.Values)
	case query.KindCaseStudy:
		w.AnalyticEvals = core.DefaultCaseStudy().LossGridPoints
	default:
		w.AnalyticEvals = tasks
	}
	if q.Params != nil && q.Params.Contention != nil && q.Params.Contention.Source != "approx" {
		points := 1
		switch q.Kind {
		case query.KindPayloadSweep:
			points = len(q.Payloads.Values)
		case query.KindGrid:
			points = tasks
		}
		w.MCSuperframes = points * q.Params.Contention.Superframes
	}
	if q.Sim != nil {
		frames := 20
		if q.Sim.Superframes != nil {
			frames = *q.Sim.Superframes
		}
		if q.Lifetime != nil {
			frames = *q.Lifetime.EpochSuperframes * *q.Lifetime.MaxEpochs
		}
		w.NodeFrames = *q.Sim.Nodes * frames * tasks
	}
	return w
}

// oneLadder covers every kind slot at every ladder rung.
const oneLadder = 20 * ladderSteps

func requests(t *testing.T, name string, seed int64, n int) []Request {
	t.Helper()
	gen, err := newGenerator(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := pregenerate(gen, n)
	if err != nil {
		t.Fatal(err)
	}
	return append(gen.fill, reqs...)
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range workloads {
		a, b := requests(t, name, 1, 200), requests(t, name, 1, 200)
		other := requests(t, name, 2, 200)
		differ := false
		for i := range a {
			if a[i].Route != b[i].Route || !bytes.Equal(a[i].Body, b[i].Body) {
				t.Fatalf("%s request %d: same seed, different bytes", name, i)
			}
			differ = differ || !bytes.Equal(a[i].Body, other[i].Body)
		}
		if !differ {
			t.Errorf("%s: seeds 1 and 2 generate identical requests", name)
		}
	}
}

// TestEveryRequestCompiles decodes each request's v2 bytes the way the
// server does and compiles them.
func TestEveryRequestCompiles(t *testing.T) {
	for _, name := range workloads {
		for _, req := range requests(t, name, 1, 2*oneLadder) {
			var q query.Query
			if err := decodeStrict(req.V2, &q); err != nil {
				t.Fatalf("%s request %d: decode: %v", name, req.Index, err)
			}
			plan, err := query.Compile(q)
			if err != nil {
				t.Fatalf("%s request %d: compile: %v", name, req.Index, err)
			}
			if plan.NumTasks() != req.Tasks {
				t.Fatalf("%s request %d: %d tasks, generator recorded %d", name, req.Index, plan.NumTasks(), req.Tasks)
			}
		}
	}
}

// TestWorkBounds checks every request against the stated work bounds.
func TestWorkBounds(t *testing.T) {
	for _, name := range workloads {
		for _, req := range requests(t, name, 1, 4*oneLadder) {
			w := workOf(req.Query, req.Tasks)
			if w.AnalyticEvals > maxAnalyticEvals || w.MCSuperframes > maxMCSuperframes || w.NodeFrames > maxNodeFrames {
				t.Fatalf("%s request %d (%s) exceeds the work bounds: %+v", name, req.Index, req.Kind, w)
			}
		}
	}
}

// TestStoreHitsAndSizes serves one full ladder of each workload in process
// through the handleQuery call sequence. sweep and simulate must never hit
// the whole-query store, repeat must hit at least 90% of the time, and no
// response may exceed its workload's size bound.
func TestStoreHitsAndSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("executes a full ladder of every workload")
	}
	maxBytes := map[string]int{"sweep": maxResponseBytes, "simulate": 32 << 10, "repeat": 16 << 10}
	for _, name := range workloads {
		gen, err := newGenerator(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := newReplay()
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := rp.warm(ctx, gen.fill); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < oneLadder; i++ {
			req, err := gen.at(i)
			if err != nil {
				t.Fatal(err)
			}
			body, err := rp.serve(ctx, &req, &rp.tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(body) > maxBytes[name] {
				t.Errorf("%s request %d (%s): %d-byte response over the %d-byte bound", name, i, req.Kind, len(body), maxBytes[name])
			}
		}
		ratio := float64(rp.hits) / float64(rp.requests)
		t.Logf("%s: whole-query store hit ratio %.3f over %d requests", name, ratio, rp.requests)
		switch {
		case name == "repeat" && ratio < 0.9:
			t.Errorf("repeat: hit ratio %.3f < 0.9", ratio)
		case name != "repeat" && rp.hits != 0:
			t.Errorf("%s: %d whole-query store hits, want 0", name, rp.hits)
		}
	}
}

// TestChecksRejectWrongAnswers feeds the response checks answers of the
// wrong kind, wrong task count and a truncated stream.
func TestChecksRejectWrongAnswers(t *testing.T) {
	reqs := requests(t, "sweep", 1, 40)
	ctx := context.Background()
	for _, req := range reqs {
		if req.V1 {
			continue
		}
		good, err := expectedBody(ctx, &req)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkResponse(&req, 200, good); err != nil {
			t.Fatalf("request %d: correct answer rejected: %v", req.Index, err)
		}
		if checkResponse(&req, 500, good) == nil {
			t.Errorf("request %d: status 500 accepted", req.Index)
		}
		wrongKind := req
		wrongKind.Kind = query.KindSimulate
		if checkResponse(&wrongKind, 200, good) == nil {
			t.Errorf("request %d: wrong kind accepted", req.Index)
		}
		moreTasks := req
		moreTasks.Tasks++
		if checkResponse(&moreTasks, 200, good) == nil {
			t.Errorf("request %d: wrong task count accepted", req.Index)
		}
		if req.Stream {
			cut := good[:bytes.LastIndexByte(good[:len(good)-1], '\n')+1]
			if checkResponse(&req, 200, cut) == nil {
				t.Errorf("request %d: stream without its done line accepted", req.Index)
			}
		}
	}
}

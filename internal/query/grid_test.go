package query

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"dense802154/internal/core"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
)

func TestGridMatchesEvaluate(t *testing.T) {
	// Every grid point must agree byte for byte with a lone evaluate at the
	// same parameter point — the grid is a product of evaluations, nothing
	// more.
	q := Query{
		Kind:     KindGrid,
		Params:   quickParams(),
		Losses:   &Axis{Values: []Float{60, 80}},
		Payloads: &IntAxis{Values: []int{30, 90}},
		Workers:  2,
	}
	rs, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Results) != 4 {
		t.Fatalf("grid produced %d tasks, want 4", len(rs.Results))
	}
	base, aerr := quickParams().Params()
	if aerr != nil {
		t.Fatal(aerr)
	}
	i := 0
	for _, loss := range []float64{60, 80} {
		for _, payload := range []int{30, 90} {
			p := base
			p.PathLossDB = loss
			p.PayloadBytes = payload
			want, err := core.Evaluate(p)
			if err != nil {
				t.Fatal(err)
			}
			if *rs.Results[i].Metrics != WireMetrics(want) {
				t.Fatalf("grid point %d deviates from core.Evaluate", i)
			}
			if !strings.Contains(rs.Results[i].Label, "loss=") || !strings.Contains(rs.Results[i].Label, "payload=") {
				t.Fatalf("label %q missing axis coordinates", rs.Results[i].Label)
			}
			i++
		}
	}
}

func TestGridNodesAxisSetsChannelLoad(t *testing.T) {
	// The nodes axis must drive Load through the same §5 rule the case
	// study uses: ChannelLoad(n, PaperPacketDuration(payload)).
	q := Query{
		Kind:    KindGrid,
		Params:  quickParams(),
		Nodes:   &IntAxis{Values: []int{5, 20}},
		Workers: 1,
	}
	rs, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	base, aerr := quickParams().Params()
	if aerr != nil {
		t.Fatal(aerr)
	}
	for i, n := range []int{5, 20} {
		p := base
		p.Load = p.Superframe.ChannelLoad(n, frame.PaperPacketDuration(p.PayloadBytes))
		want, err := core.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if *rs.Results[i].Metrics != WireMetrics(want) {
			t.Fatalf("nodes=%d deviates from ChannelLoad-derived evaluation", n)
		}
		if !strings.Contains(rs.Results[i].Label, "n=") {
			t.Fatalf("label %q missing node count", rs.Results[i].Label)
		}
	}
}

func TestGridBOAxis(t *testing.T) {
	q := Query{
		Kind:    KindGrid,
		Params:  quickParams(),
		BOs:     &IntAxis{Values: []int{6, 9}},
		Workers: 1,
	}
	rs, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	base, aerr := quickParams().Params()
	if aerr != nil {
		t.Fatal(aerr)
	}
	for i, bo := range []int{6, 9} {
		sf, err := mac.NewSuperframe(uint8(bo), base.Superframe.SO)
		if err != nil {
			t.Fatal(err)
		}
		p := base
		p.Superframe = sf
		want, err := core.Evaluate(p)
		if err != nil {
			t.Fatal(err)
		}
		if *rs.Results[i].Metrics != WireMetrics(want) {
			t.Fatalf("bo=%d deviates from direct evaluation", bo)
		}
	}
}

func TestGridRejections(t *testing.T) {
	for name, q := range map[string]Query{
		"too large": {Kind: KindGrid, Params: quickParams(),
			Losses:   &Axis{Values: manyFloats(200)},
			Payloads: &IntAxis{Values: manyInts(51, 20, 1)}},
		"bad bo":        {Kind: KindGrid, Params: quickParams(), BOs: &IntAxis{Values: []int{15}}},
		"bad nodes":     {Kind: KindGrid, Params: quickParams(), Nodes: &IntAxis{Values: []int{0}}},
		"foreign field": {Kind: KindGrid, Params: quickParams(), Replicas: 3},
	} {
		if _, err := Compile(q); err == nil {
			t.Fatalf("%s: compiled", name)
		}
	}
}

func TestGridShardable(t *testing.T) {
	grid, err := Compile(Query{Kind: KindGrid, Params: quickParams(), Losses: &Axis{Values: []Float{60, 70}}})
	if err != nil {
		t.Fatal(err)
	}
	if !grid.Shardable() {
		t.Fatal("multi-point grid must be shardable")
	}
	single, err := Compile(Query{Kind: KindGrid, Params: quickParams()})
	if err != nil {
		t.Fatal(err)
	}
	if single.NumTasks() != 1 || single.Shardable() {
		t.Fatalf("axis-less grid: tasks=%d shardable=%v, want 1/false", single.NumTasks(), single.Shardable())
	}
	scen, err := Compile(Query{Kind: KindEvaluate, Params: quickParams()})
	if err != nil {
		t.Fatal(err)
	}
	if scen.Shardable() {
		t.Fatal("evaluate must not be shardable")
	}
}

func TestNegativeTimeoutRejected(t *testing.T) {
	_, err := Compile(Query{Kind: KindEvaluate, Params: quickParams(), TimeoutMS: -1})
	if err == nil {
		t.Fatal("negative timeout_ms compiled")
	}
}

func TestHugeTimeoutClampedNotOverflowed(t *testing.T) {
	// timeout_ms beyond the Duration range must clamp to "effectively
	// none", not wrap into a garbage (possibly instantly-expired) deadline.
	plan, err := Compile(Query{Kind: KindEvaluate, Params: quickParams(), TimeoutMS: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Timeout <= 0 {
		t.Fatalf("plan.Timeout = %v, overflowed", plan.Timeout)
	}
}

func TestTimeoutBoundsExecution(t *testing.T) {
	// A 1 ms budget cannot cover a 40-replica simulation: the plan must
	// fail with DeadlineExceeded instead of running to completion.
	q := Query{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(40), Superframes: intPtr(50)},
		Replicas: 40, TimeoutMS: 1}
	_, err := Run(context.Background(), q)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestExecuteRangeAssembleBitIdentity is the foundation the distribution
// layer stands on: computing a plan in arbitrary index slices (the worker
// path) and merging the slices with Assemble must reproduce Execute's
// ResultSet byte for byte — including the replicas summary, which Assemble
// recomputes from wire payloads alone.
func TestExecuteRangeAssembleBitIdentity(t *testing.T) {
	queries := map[string]Query{
		"grid": {Kind: KindGrid, Params: quickParams(),
			Losses: &Axis{Values: []Float{55, 70, 85}}, Payloads: &IntAxis{Values: []int{20, 100}}},
		"replicas": {Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)}, Replicas: 5},
		"batch":    {Kind: KindBatch, Batch: []ParamsWire{*quickParams(), {PayloadBytes: intPtr(40)}, {PayloadBytes: intPtr(110)}}},
		"lifetime": lifetimeTestQuery(),
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			plan, err := Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plan.Execute(context.Background(), 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			wantBytes, err := want.Encode()
			if err != nil {
				t.Fatal(err)
			}

			// Compute the plan in three uneven slices, as three independent
			// workers would, round-tripping every result through its JSON
			// wire form (what the coordinator actually receives).
			n := plan.NumTasks()
			cuts := []int{0, 1, n - 1, n}
			results := make([]TaskResult, n)
			for c := 0; c+1 < len(cuts); c++ {
				from, to := cuts[c], cuts[c+1]
				if from >= to {
					continue
				}
				err := plan.ExecuteRange(context.Background(), 2, from, to, func(tr TaskResult, wallMS float64) error {
					if wallMS < 0 {
						t.Errorf("task %d: negative wall time", tr.Index)
					}
					rt, err := roundTrip(tr)
					if err != nil {
						return err
					}
					results[tr.Index] = rt
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := plan.Assemble(results)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := got.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("sharded+assembled bytes deviate from Execute:\n got %s\nwant %s", gotBytes, wantBytes)
			}
		})
	}
}

func TestExecuteRangeRejectsBadRange(t *testing.T) {
	plan, err := Compile(Query{Kind: KindGrid, Params: quickParams(), Losses: &Axis{Values: []Float{55, 70}}})
	if err != nil {
		t.Fatal(err)
	}
	noop := func(TaskResult, float64) error { return nil }
	for _, r := range [][2]int{{-1, 1}, {0, 3}, {1, 1}, {2, 1}} {
		if err := plan.ExecuteRange(context.Background(), 1, r[0], r[1], noop); err == nil {
			t.Fatalf("range %v accepted", r)
		}
	}
}

func TestAssembleRejectsWrongShape(t *testing.T) {
	plan, err := Compile(Query{Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(8), Superframes: intPtr(3)}, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Assemble(make([]TaskResult, 2)); err == nil {
		t.Fatal("short result list assembled")
	}
	// Right length but a missing sim payload must fail the replica merge.
	if _, err := plan.Assemble(make([]TaskResult, 3)); err == nil {
		t.Fatal("payload-less results assembled")
	}
}

// roundTrip pushes a TaskResult through its JSON encoding, as the NDJSON
// worker protocol does.
func roundTrip(tr TaskResult) (TaskResult, error) {
	b, err := json.Marshal(tr)
	if err != nil {
		return TaskResult{}, err
	}
	var out TaskResult
	if err := json.Unmarshal(b, &out); err != nil {
		return TaskResult{}, err
	}
	return out, nil
}

func manyFloats(n int) []Float {
	out := make([]Float, n)
	for i := range out {
		out[i] = Float(40 + i)
	}
	return out
}

func manyInts(n, base, step int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = base + i*step
	}
	return out
}

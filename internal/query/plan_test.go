package query

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"dense802154/internal/contention"
	"dense802154/internal/core"
)

// allocBatchQuery is a 250-element batch on the closed-form contention
// source, so an Execute allocates for the plan and its results alone.
func allocBatchQuery() Query {
	batch := make([]ParamsWire, 250)
	for i := range batch {
		pb := 20 + i%100
		batch[i] = ParamsWire{Contention: &ContentionWire{Source: "approx"}, PayloadBytes: &pb}
	}
	return Query{Kind: KindBatch, Batch: batch}
}

// allocGridQuery is a 270-point (10 losses × 27 payloads) approx grid.
func allocGridQuery() Query {
	return Query{
		Kind:     KindGrid,
		Params:   &ParamsWire{Contention: &ContentionWire{Source: "approx"}},
		Losses:   &Axis{Values: manyFloats(10)},
		Payloads: &IntAxis{Values: manyInts(27, 20, 3)},
	}
}

// TestExecuteAllocs gates the per-Execute allocations of a compiled plan:
// compiling materializes the tasks once, so executing builds no task list
// and resolves no parameters again. The bounds sit well above the measured
// counts (batch ≈ 510, grid ≈ 550 at one worker) and well below what a
// plan that rebuilds its tasks on every Execute allocates (≈ 3150 and
// ≈ 1380).
func TestExecuteAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		q     Query
		bound float64
	}{
		{"batch", allocBatchQuery(), 1000},
		{"grid", allocGridQuery(), 900},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Compile(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := plan.Execute(context.Background(), 1, nil); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s: %.0f allocs per Execute", tc.name, allocs)
			if allocs > tc.bound {
				t.Fatalf("%s: %.0f allocs per Execute, want ≤ %.0f", tc.name, allocs, tc.bound)
			}
		})
	}
}

// encodeOrFail renders rs for a byte comparison.
func encodeOrFail(t *testing.T, rs *ResultSet, err error) []byte {
	t.Helper()
	if err != nil {
		t.Error(err)
		return nil
	}
	b, err := rs.Encode()
	if err != nil {
		t.Error(err)
	}
	return b
}

// TestPlanReentrant runs every entry point of one compiled Plan at once —
// Execute at grants 1 and 3, two ExecuteRange halves, and Assemble of those
// halves — as the service and the distributed coordinator do on a shared
// plan. Each output must match Run byte for byte; -race checks that no run
// mutates what the compiled tasks share.
func TestPlanReentrant(t *testing.T) {
	queries := map[string]Query{
		"batch": {Kind: KindBatch, Batch: []ParamsWire{*quickParams(), {PayloadBytes: intPtr(40)}, {PayloadBytes: intPtr(110)}}},
		"grid": {Kind: KindGrid, Params: quickParams(),
			Losses: &Axis{Values: []Float{55, 70, 85}}, Payloads: &IntAxis{Values: []int{20, 100}}},
		"replicas":  {Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(10), Superframes: intPtr(4)}, Replicas: 5},
		"lifetime":  lifetimeTestQuery(),
		"evaluate":  {Kind: KindEvaluate, Params: quickParams()},
		"casestudy": {Kind: KindCaseStudy, Params: quickParams(), Config: &CaseStudyConfigWire{LossGridPoints: intPtr(7)}},
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			ref, err := Run(context.Background(), q)
			want := encodeOrFail(t, ref, err)
			plan, err := Compile(q)
			if err != nil {
				t.Fatal(err)
			}
			check := func(what string, got []byte) {
				if !bytes.Equal(got, want) {
					t.Errorf("%s deviates from Run:\n got %s\nwant %s", what, got, want)
				}
			}

			var wg sync.WaitGroup
			for _, w := range []int{1, 3} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rs, err := plan.Execute(context.Background(), w, nil)
					check(fmt.Sprintf("Execute at %d workers", w), encodeOrFail(t, rs, err))
				}()
			}
			n := plan.NumTasks()
			results := make([]TaskResult, n)
			var halves sync.WaitGroup
			for _, r := range [][2]int{{0, n / 2}, {n / 2, n}} {
				if r[0] == r[1] {
					continue
				}
				halves.Add(1)
				go func() {
					defer halves.Done()
					err := plan.ExecuteRange(context.Background(), 2, r[0], r[1], func(tr TaskResult, _ float64) error {
						rt, err := roundTrip(tr)
						results[tr.Index] = rt
						return err
					})
					if err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				halves.Wait()
				rs, err := plan.Assemble(results)
				check("Assemble of two ExecuteRange halves", encodeOrFail(t, rs, err))
			}()
			wg.Wait()
		})
	}
}

// TestGrantAppliedAtRunTime pins where a run's worker grant lands: a lone
// evaluation hands it to its Monte-Carlo characterization, a sweep to
// Params.Workers with its characterization kept at one worker, and batch
// and grid elements keep the one-worker characterization they compile with.
// The compiled base is shared by every run, so a grant never outlives the
// run that applied it, and Direct params stay as the caller built them.
func TestGrantAppliedAtRunTime(t *testing.T) {
	mcWorkers := func(p core.Params) int {
		t.Helper()
		mc, ok := p.Contention.(*contention.MCSource)
		if !ok {
			t.Fatalf("contention source is %T, want *MCSource", p.Contention)
		}
		return mc.Base.Workers
	}
	// compile sets the single task of kind with a computation that records
	// the parameters it receives in got; run runs it at a grant.
	var got core.Params
	record := func(_ context.Context, bp core.Params) (TaskResult, error) {
		got = bp
		return TaskResult{}, nil
	}
	compile := func(kind Kind, q Query) *Plan {
		t.Helper()
		p := &Plan{Kind: kind}
		if aerr := q.paramsTask(p, record); aerr != nil {
			t.Fatal(aerr)
		}
		return p
	}
	run := func(p *Plan, grant int) {
		t.Helper()
		if _, err := p.tasks[0].run(context.Background(), grant); err != nil {
			t.Fatal(err)
		}
	}

	eval := compile(KindEvaluate, Query{Params: quickParams()})
	for _, grant := range []int{3, 1} {
		run(eval, grant)
		if w := mcWorkers(got); w != grant {
			t.Fatalf("evaluate at grant %d: MC workers = %d", grant, w)
		}
	}

	sweep := compile(KindPathLossSweep, Query{Params: quickParams()})
	for _, grant := range []int{3, 1} {
		run(sweep, grant)
		if got.Workers != grant || mcWorkers(got) != 1 {
			t.Fatalf("sweep at grant %d: Params.Workers = %d, MC workers = %d; want %d and 1",
				grant, got.Workers, mcWorkers(got), grant)
		}
	}

	direct, aerr := quickParams().Params()
	if aerr != nil {
		t.Fatal(aerr)
	}
	direct.Workers = 5
	direct.Contention = contention.NewMCSource(contention.Config{Superframes: 8, Seed: 3, Workers: 7})
	for _, kind := range []Kind{KindEvaluate, KindCaseStudy} {
		run(compile(kind, Query{Direct: &Direct{Params: &direct}}), 3)
		if got.Workers != 5 || got.Contention != direct.Contention {
			t.Fatalf("%s: Direct params changed by the grant", kind)
		}
	}

	// Batch and grid elements are resolved by ParamsWire.Params alone and
	// their tasks take no grant, so their characterizations stay at the
	// one worker they compile with.
	for _, pw := range []*ParamsWire{quickParams(), {}} {
		bp, aerr := pw.Params()
		if aerr != nil {
			t.Fatal(aerr)
		}
		if w := mcWorkers(bp); w != 1 {
			t.Fatalf("wire-built MC source compiles at %d workers, want 1", w)
		}
	}
}

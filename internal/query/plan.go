package query

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"dense802154/internal/contention"
	"dense802154/internal/core"
	"dense802154/internal/engine"
	"dense802154/internal/experiments"
	"dense802154/internal/frame"
	"dense802154/internal/mac"
	"dense802154/internal/netsim"
	"dense802154/internal/scenario"
)

// TaskResult is one unit of a ResultSet: the outcome of one plan task,
// tagged by index in plan order. Exactly one payload field is set,
// according to the query kind. The streaming surfaces emit TaskResults one
// per line; the non-streaming ResultSet carries the same values in its
// Results slice, so the two transports are bit-identical element by
// element.
type TaskResult struct {
	Index int    `json:"index"`
	Label string `json:"label,omitempty"`

	Metrics    *MetricsWire          `json:"metrics,omitempty"`
	CaseStudy  *CaseStudyResultWire  `json:"casestudy,omitempty"`
	Curves     []EnergyCurveWire     `json:"curves,omitempty"`
	Thresholds []ThresholdWire       `json:"thresholds,omitempty"`
	Payload    *PayloadSeriesWire    `json:"payload,omitempty"`
	Sim        *SimResultWire        `json:"sim,omitempty"`
	Lifetime   *LifetimeResultWire   `json:"lifetime,omitempty"`
	Scenario   *ScenarioReportWire   `json:"scenario,omitempty"`
	Experiment *ExperimentReportWire `json:"experiment,omitempty"`

	// value is the in-process model result the facade wrappers unwrap;
	// it does not travel on the wire.
	value any
	// encoded is the canonical NDJSON line (trailing newline included) a
	// store-attached plan encoded in the worker goroutine that produced
	// the result; ResultSet.Encode splices it and the stream writes it.
	encoded []byte
}

// Value returns the in-process result behind the wire payload: core.Metrics
// (evaluate, batch), core.CaseStudyResult, []core.EnergyCurve,
// []core.Threshold, stats.Series, netsim.Result (simulate, replicas),
// lifetime.Result (lifetime), *scenario.Result or []*stats.Table, per the
// query kind. It is nil on a TaskResult decoded from the wire.
func (t *TaskResult) Value() any { return t.value }

// ReplicaSummaryWire is the across-replica statistics block of a replicas
// query (the same merged statistics netsim.RunReplicas reports).
type ReplicaSummaryWire struct {
	Replicas int     `json:"replicas"`
	Seeds    []int64 `json:"seeds"`

	AvgPowerUW    ReplicaStatWire `json:"avg_power_uw"`
	DeliveryRatio ReplicaStatWire `json:"delivery_ratio"`
	PrFail        ReplicaStatWire `json:"pr_fail"`
	PrCF          ReplicaStatWire `json:"pr_cf"`
	PrCol         ReplicaStatWire `json:"pr_col"`
	NCCA          ReplicaStatWire `json:"ncca"`
	TcontMS       ReplicaStatWire `json:"tcont_ms"`
	MeanDelayMS   ReplicaStatWire `json:"mean_delay_ms"`
}

// WireReplicaSummary converts a merged ReplicaSet's statistics to the wire
// form.
func WireReplicaSummary(rs netsim.ReplicaSet) ReplicaSummaryWire {
	return ReplicaSummaryWire{
		Replicas:      rs.Replicas,
		Seeds:         rs.Seeds,
		AvgPowerUW:    WireReplicaStat(rs.AvgPowerUW),
		DeliveryRatio: WireReplicaStat(rs.DeliveryRatio),
		PrFail:        WireReplicaStat(rs.PrFail),
		PrCF:          WireReplicaStat(rs.PrCF),
		PrCol:         WireReplicaStat(rs.PrCol),
		NCCA:          WireReplicaStat(rs.NCCA),
		TcontMS:       WireReplicaStat(rs.TcontMS),
		MeanDelayMS:   WireReplicaStat(rs.MeanDelayMS),
	}
}

// TaskSpanWire is one task's timing inside a plan trace: its plan index and
// label, the seed it ran under where the plan assigns per-task seeds
// (replica tasks), and its wall time. Wall times are measured, not
// computed — two identical queries produce different spans — so traces are
// never part of the byte-identity contract.
type TaskSpanWire struct {
	Index  int    `json:"index"`
	Label  string `json:"label"`
	Seed   *int64 `json:"seed,omitempty"`
	WallMS Float  `json:"wall_ms"`
}

// PlanTraceWire is the opt-in execution trace of one query (Query.Trace):
// the plan shape, the worker grant it ran under, the end-to-end wall time
// and one TaskSpanWire per task in plan order.
type PlanTraceWire struct {
	Kind    Kind           `json:"kind"`
	Workers int            `json:"workers"`
	Tasks   int            `json:"tasks"`
	WallMS  Float          `json:"wall_ms"`
	Spans   []TaskSpanWire `json:"spans"`
}

// ResultSet is the tagged outcome of one Query: the per-task results in
// plan order plus, for replica plans, the across-replica summary.
type ResultSet struct {
	Version int                 `json:"version"`
	Kind    Kind                `json:"kind"`
	Results []TaskResult        `json:"results"`
	Summary *ReplicaSummaryWire `json:"summary,omitempty"`
	// LifetimeSummary is the across-replica statistics block of a lifetime
	// query (the lifetime analogue of Summary).
	LifetimeSummary *LifetimeSummaryWire `json:"lifetime_summary,omitempty"`
	Trace           *PlanTraceWire       `json:"trace,omitempty"`

	// value is the merged in-process result where one exists (a
	// netsim.ReplicaSet for kind replicas, a lifetime.ReplicaSet for kind
	// lifetime); see TaskResult.Value for the per-task payloads.
	value any
}

// Value returns the merged in-process result (netsim.ReplicaSet for kind
// replicas, lifetime.ReplicaSet for kind lifetime, nil otherwise).
func (rs *ResultSet) Value() any { return rs.value }

// Encode renders the byte-stable JSON form: compact, HTML escaping off,
// trailing newline — exactly what encoding/json produces for the struct,
// written by the append encoders in encode.go. Field order is fixed, floats
// travel as internal/wire.Float and no maps are involved, so the same
// ResultSet always encodes to the same bytes — the property that makes the
// HTTP v2 body, the streamed NDJSON lines and an in-process Run comparable
// with bytes.Equal. Tasks a store-attached plan already encoded are spliced
// in, not encoded again.
func (rs *ResultSet) Encode() ([]byte, error) {
	return appendResultSet(make([]byte, 0, rs.encodedSizeHint()), rs, nil)
}

// TaskSpan locates one task element inside an encoded ResultSet body:
// body[Start:End] is the element's canonical bytes, which are the task's
// NDJSON line without its trailing newline. Index is the task's plan index.
type TaskSpan struct {
	Index, Start, End int
}

// EncodeSpans is Encode that also records each task element's span in the
// body, in Results order — what lets the result store keep one copy of the
// bytes for the whole-query entry and every task entry (store.PutResult).
func (rs *ResultSet) EncodeSpans() ([]byte, []TaskSpan, error) {
	spans := make([]TaskSpan, 0, len(rs.Results))
	b, err := appendResultSet(make([]byte, 0, rs.encodedSizeHint()), rs, &spans)
	if err != nil {
		return nil, nil, err
	}
	return b, spans, nil
}

// encodedSizeHint estimates the encoded size of rs, so one allocation
// usually holds the whole body.
func (rs *ResultSet) encodedSizeHint() int {
	n := 256
	for i := range rs.Results {
		if e := rs.Results[i].encoded; e != nil {
			n += len(e)
		} else {
			n += sizeHint(&rs.Results[i])
		}
	}
	if rs.Trace != nil {
		n += 96 * len(rs.Trace.Spans)
	}
	return n
}

// task is one schedulable unit of a compiled plan. run computes it under the
// worker grant of the run that schedules it; a compiled Plan is shared by
// every caller, so run never mutates what it captured.
type task struct {
	label string
	seed  *int64 // per-task seed, set where the plan derives one (replicas)
	run   func(ctx context.Context, workers int) (TaskResult, error)
}

// Plan is a compiled Query: a validated, deterministic list of engine
// tasks. Compile lowers the query to its tasks once; every run of the plan
// — Execute, ExecuteRange, concurrent ones included — schedules those same
// tasks on the shared engine pool through one ordered runner and hands
// each task the run's worker grant (worker counts never change computed
// bytes, only how fast they arrive). Execute and Assemble finish through
// one per-kind assembly step.
type Plan struct {
	// Kind echoes the query kind.
	Kind Kind
	// Trace carries the query's tracing opt-in; Execute attaches a
	// PlanTraceWire to the ResultSet when set.
	Trace bool
	// Timeout is the per-query execution deadline (Query.TimeoutMS;
	// 0 = none). Execute and ExecuteRange bound their context with it.
	Timeout time.Duration
	// Store, when set, is the per-task result cache of this plan's query
	// (store.Store.Tasks keys one to the query's content hash): Execute and
	// ExecuteRange consult it before computing a task and store what they
	// compute. Stored results carry wire payloads only, so the assembly step
	// reads those tasks from the wire — bit-identical to their in-process
	// values by the exact-round-trip float contract. Attach it between
	// Compile and Execute; it never changes result bytes, only whether they
	// are recomputed.
	Store TaskStore

	tasks []task
	// assemble is the kind's optional assembly step, deriving the merged
	// summary from the per-task results. It reads each task's in-process
	// value where it has one and its wire payload otherwise (a store hit,
	// or a shard that crossed a machine boundary), so one step serves
	// Execute and Assemble alike.
	assemble func(rs *ResultSet) *Error
}

// NumTasks reports how many tasks the plan schedules (batch elements,
// simulation replicas, or 1 for single-result kinds).
func (p *Plan) NumTasks() int { return len(p.tasks) }

// Labels lists the task labels in plan order.
func (p *Plan) Labels() []string {
	out := make([]string, len(p.tasks))
	for i, t := range p.tasks {
		out[i] = t.label
	}
	return out
}

// builders lowers each query kind onto a plan: it validates the kind's
// fields and sets the plan's tasks and assembly step.
var builders = map[Kind]func(*Query, *Plan) *Error{
	KindEvaluate:      (*Query).buildEvaluate,
	KindBatch:         (*Query).buildBatch,
	KindCaseStudy:     (*Query).buildCaseStudy,
	KindPathLossSweep: (*Query).buildPathLossSweep,
	KindThresholds:    (*Query).buildThresholds,
	KindPayloadSweep:  (*Query).buildPayloadSweep,
	KindSimulate:      (*Query).buildSimulate,
	KindReplicas:      (*Query).buildReplicas,
	KindLifetime:      (*Query).buildLifetime,
	KindScenario:      (*Query).buildScenario,
	KindExperiment:    (*Query).buildExperiment,
	KindGrid:          (*Query).buildGrid,
}

// Compile validates q and lowers it to an execution plan, building every
// task up front so each validation error surfaces before any work is
// scheduled. Validation failures return a field-scoped *Error suitable for
// a structured 400.
func Compile(q Query) (*Plan, error) {
	if aerr := q.ValidateShape(); aerr != nil {
		return nil, aerr
	}
	// A timeout_ms past ~292 years would overflow the Duration multiply;
	// clamp to the maximum representable deadline (operationally: none).
	timeout := time.Duration(q.TimeoutMS) * time.Millisecond
	if q.TimeoutMS > math.MaxInt64/int64(time.Millisecond) {
		timeout = math.MaxInt64
	}
	p := &Plan{Kind: q.Kind, Trace: q.Trace, Timeout: timeout}
	if aerr := builders[q.Kind](&q, p); aerr != nil {
		return nil, aerr
	}
	return p, nil
}

// Execute runs the compiled tasks on workers goroutines (≤ 0 ⇒ NumCPU),
// handing each task that grant (see granted), and returns the assembled
// ResultSet. When yield is non-nil it receives every
// TaskResult in plan order as soon as it and all its predecessors have
// completed — tasks still run concurrently, the emission order is just
// pinned to the plan — and a yield error cancels the remaining tasks and is
// returned. A canceled ctx stops the plan promptly with ctx.Err().
func (p *Plan) Execute(ctx context.Context, workers int, yield func(TaskResult) error) (*ResultSet, error) {
	workers = engine.ResolveWorkers(workers)
	start := time.Now()
	var emit func(TaskResult, float64) error
	if yield != nil {
		emit = func(tr TaskResult, _ float64) error { return yield(tr) }
	}
	results, walls, err := p.run(ctx, workers, 0, len(p.tasks), emit)
	if err != nil {
		return nil, err
	}
	rs, err := p.Assemble(results)
	if err != nil {
		return nil, err
	}
	rs.Trace = p.NewTrace(workers, start, walls)
	return rs, nil
}

// ExecuteRange runs only the tasks [from,to) of the plan on workers
// goroutines and yields each TaskResult in plan order as soon as it and all
// its range predecessors have completed, together with its measured wall
// time in milliseconds. It is the worker half of distributed execution: a
// shard of any compiled plan is a pure function of (query, range), so any
// machine that can compile the query can compute any shard, and the
// emission order lets a coordinator resume a partially-streamed shard from
// the first missing index. No assembly step runs — the coordinator merges
// shards with Assemble. A yield error cancels the remaining tasks.
func (p *Plan) ExecuteRange(ctx context.Context, workers, from, to int, yield func(tr TaskResult, wallMS float64) error) error {
	if from < 0 || to > len(p.tasks) || from >= to {
		return errf("range", "task range [%d,%d) outside plan of %d tasks", from, to, len(p.tasks))
	}
	_, _, err := p.run(ctx, engine.ResolveWorkers(workers), from, to, yield)
	return err
}

// Assemble wraps a complete, plan-ordered result vector in its ResultSet and
// runs the kind's assembly step — the last step of Execute, and the merge of
// already-computed results (e.g. collected from distributed ExecuteRange
// shards) into the same ResultSet Execute produces, byte for byte: the
// assembly step (the replicas summary) reads each task's wire payload where
// it carries no in-process value, and the exact-round-trip floats make the
// merged statistics bit-identical to a local run. Every task of the plan
// must be present with its payload set.
func (p *Plan) Assemble(results []TaskResult) (*ResultSet, error) {
	if len(results) != len(p.tasks) {
		return nil, errf("results", "%d results for a plan of %d tasks", len(results), len(p.tasks))
	}
	rs := &ResultSet{Version: Version, Kind: p.Kind, Results: results}
	if p.assemble != nil {
		if aerr := p.assemble(rs); aerr != nil {
			return nil, aerr
		}
	}
	return rs, nil
}

// run is the one ordered runner behind Execute and ExecuteRange. It runs
// tasks [from,to) on workers goroutines under the plan deadline — each task
// a store lookup or a compute under the worker grant, then its per-task
// encode — and returns the results and, when an emit or the trace reads
// them, their wall times (ms, store lookup and compute), both indexed from
// from. When emit is non-nil it receives every result in plan order as soon
// as it and all its range predecessors have completed, and an emit error
// cancels the remaining tasks and is returned. A nil emit keeps the fan-out
// free of any per-task handoff. On error the results are incomplete and
// must be dropped.
func (p *Plan) run(ctx context.Context, workers, from, to int, emit func(TaskResult, float64) error) ([]TaskResult, []float64, error) {
	// One derived context carries both the plan deadline and the cancel an
	// emit error needs; the no-deadline, no-emit path derives none.
	cancel := context.CancelFunc(func() {})
	switch {
	case p.Timeout > 0:
		ctx, cancel = context.WithTimeout(ctx, p.Timeout)
	case emit != nil:
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	n := to - from
	results := make([]TaskResult, n)
	var walls []float64 // only an emit or a trace reads wall times
	var done chan int
	if emit != nil || p.Trace {
		walls = make([]float64, n)
	}
	if emit != nil {
		done = make(chan int, n)
	}
	fanOut := func() error {
		return engine.Map(ctx, workers, n, func(i int) error {
			idx := from + i
			var start time.Time
			if walls != nil {
				start = time.Now()
			}
			r, hit := p.taskFromStore(idx)
			if !hit {
				var err error
				if r, err = p.tasks[idx].run(ctx, workers); err != nil {
					return err
				}
			}
			if walls != nil {
				walls[i] = time.Since(start).Seconds() * 1e3
			}
			r.Index = idx
			r.Label = p.tasks[idx].label
			p.encodeTask(&r, hit)
			results[i] = r
			if done == nil {
				return nil
			}
			select {
			case done <- i:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}
	if emit == nil {
		return results, walls, fanOut()
	}

	var mapErr error
	go func() {
		defer close(done)
		mapErr = fanOut()
	}()
	var emitErr error
	ready := make([]bool, n)
	next := 0
	for i := range done {
		ready[i] = true
		for next < n && ready[next] {
			if emitErr == nil {
				if err := emit(results[next], walls[next]); err != nil {
					emitErr = err
					cancel()
				}
			}
			next++
		}
	}
	if emitErr != nil {
		return nil, nil, emitErr
	}
	return results, walls, mapErr
}

// taskValues collects every task's in-process value for an assembly step:
// the value itself where the task carries one, fromWire's decoding of its
// wire payload otherwise (store hits and remote shards carry no value).
// all reports whether every task carried its value — only then may the
// merged in-process result be exposed through ResultSet.Value.
func taskValues[T any](rs *ResultSet, payload string, fromWire func(*TaskResult) (T, bool)) (vals []T, all bool, aerr *Error) {
	vals = make([]T, len(rs.Results))
	all = true
	for i := range rs.Results {
		tr := &rs.Results[i]
		if v, ok := tr.value.(T); ok {
			vals[i] = v
			continue
		}
		v, ok := fromWire(tr)
		if !ok {
			return nil, false, errf("results", "task %d carries no %s payload", i, payload)
		}
		vals[i] = v
		all = false
	}
	return vals, all, nil
}

// NewTrace builds the plan's execution trace — one span per task with its
// label, its seed where the plan derives one, and its wall time from walls
// (ms, plan order) — under the given worker grant, timed end to end from
// start. It returns nil when the query did not opt into tracing. Execute
// and the distributed coordinator share it, so their traces have one shape.
func (p *Plan) NewTrace(workers int, start time.Time, walls []float64) *PlanTraceWire {
	if !p.Trace {
		return nil
	}
	spans := make([]TaskSpanWire, len(p.tasks))
	for i, t := range p.tasks {
		spans[i] = TaskSpanWire{Index: i, Label: t.label, Seed: t.seed, WallMS: Float(walls[i])}
	}
	return &PlanTraceWire{
		Kind:    p.Kind,
		Workers: engine.ResolveWorkers(workers),
		Tasks:   len(p.tasks),
		WallMS:  Float(time.Since(start).Seconds() * 1e3),
		Spans:   spans,
	}
}

// Shardable reports whether the plan benefits from distributed execution:
// its kind fans out into per-task wire payloads that round-trip exactly
// (batch elements, simulation replicas, grid points) and it has more than
// one task. Single-task plans and the catalog/driver kinds always run where
// they were compiled.
func (p *Plan) Shardable() bool {
	switch p.Kind {
	case KindBatch, KindReplicas, KindLifetime, KindGrid:
		return len(p.tasks) > 1
	}
	return false
}

// Run compiles and executes q in one step with q.Workers goroutines.
func Run(ctx context.Context, q Query) (*ResultSet, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx, q.Workers, nil)
}

// RunStream is Run with per-task streaming; see Plan.Execute.
func RunStream(ctx context.Context, q Query, yield func(TaskResult) error) (*ResultSet, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return p.Execute(ctx, q.Workers, yield)
}

// ---- per-kind builders ----

// baseParams materializes the shared analytic base point: the Direct value
// verbatim when present, the declarative spec (defaulting to the paper's §5
// configuration) otherwise.
func (q *Query) baseParams() (core.Params, *Error) {
	if q.Direct != nil && q.Direct.Params != nil {
		return *q.Direct.Params, nil
	}
	w := q.Params
	if w == nil {
		w = &ParamsWire{}
	}
	return w.Params()
}

// paramsTask sets the plan's one task for a kind computed from the base
// point: compute receives the base parameters under the run's worker grant
// (granted) — or, for Direct params, exactly as the caller built them.
func (q *Query) paramsTask(p *Plan, compute func(ctx context.Context, bp core.Params) (TaskResult, error)) *Error {
	base, aerr := q.baseParams()
	if aerr != nil {
		return aerr
	}
	kind, direct := p.Kind, q.Direct != nil && q.Direct.Params != nil
	p.tasks = []task{{label: string(kind), run: func(ctx context.Context, workers int) (TaskResult, error) {
		if direct {
			return compute(ctx, base)
		}
		return compute(ctx, granted(kind, base, workers))
	}}}
	return nil
}

// granted applies a run's worker grant to the wire-built parameters p of a
// single-task kind. A task can parallelize at two nesting levels — the
// model sweep over p.Workers and, under every sweep goroutine, a
// Monte-Carlo contention characterization — so the whole grant goes to
// exactly one of them and total concurrency stays within it. A lone
// evaluation has no sweep level, so its characterization takes the grant;
// the case study and the three sweeps take it on the sweep, their
// characterizations staying at the one worker ParamsWire.Params builds
// them with. Of the other kinds, scenario and experiment hand the grant to
// their runners, and batch, grid, simulate, replicas and lifetime spread
// it across their tasks, each of which ignores it. The grant never changes
// computed bytes.
func granted(kind Kind, p core.Params, workers int) core.Params {
	if kind != KindEvaluate {
		p.Workers = workers
		return p
	}
	if mc, ok := p.Contention.(*contention.MCSource); ok {
		base := mc.Base
		base.Workers = workers
		p.Contention = contention.NewMCSource(base)
	}
	return p
}

func (q *Query) buildEvaluate(p *Plan) *Error {
	return q.paramsTask(p, func(_ context.Context, bp core.Params) (TaskResult, error) { return evaluate(bp) })
}

// evaluate is one analytic evaluation of p: the task of evaluate, of every
// batch element and of every grid point.
func evaluate(p core.Params) (TaskResult, error) {
	m, err := core.Evaluate(p)
	if err != nil {
		return TaskResult{}, err
	}
	mw := WireMetrics(m)
	return TaskResult{Metrics: &mw, value: m}, nil
}

// evaluateTask is the task of one batch element or grid point.
func evaluateTask(label string, p core.Params) task {
	return task{label: label, run: func(context.Context, int) (TaskResult, error) { return evaluate(p) }}
}

func (q *Query) buildBatch(p *Plan) *Error {
	var ps []core.Params
	if q.Direct != nil {
		// Direct batches arrive pre-validated from the in-process facade;
		// an empty one is a legal no-op (as core.EvaluateBatch treats it).
		ps = q.Direct.Batch
	} else {
		if len(q.Batch) == 0 {
			return errf("batch", "empty batch: need at least one element")
		}
		if len(q.Batch) > MaxBatch {
			return errf("batch", "batch too large (%d elements, max %d)", len(q.Batch), MaxBatch)
		}
		ps = make([]core.Params, len(q.Batch))
		for i, pw := range q.Batch {
			bp, aerr := pw.Params()
			if aerr != nil {
				aerr.Field = "batch[" + strconv.Itoa(i) + "]." + aerr.Field
				return aerr
			}
			ps[i] = bp
		}
	}
	p.tasks = make([]task, len(ps))
	for i, bp := range ps {
		p.tasks[i] = evaluateTask("batch["+strconv.Itoa(i)+"]", bp)
	}
	return nil
}

func (q *Query) buildCaseStudy(p *Plan) *Error {
	var cfg core.CaseStudyConfig
	if q.Direct != nil && q.Direct.CaseStudy != nil {
		cfg = *q.Direct.CaseStudy
	} else {
		var aerr *Error
		cfg, aerr = q.Config.Config()
		if aerr != nil {
			return aerr
		}
	}
	return q.paramsTask(p, func(ctx context.Context, bp core.Params) (TaskResult, error) {
		res, err := core.RunCaseStudyCtx(ctx, bp, cfg)
		if err != nil {
			return TaskResult{}, err
		}
		rw := WireCaseStudyResult(res)
		return TaskResult{CaseStudy: &rw, value: res}, nil
	})
}

// lossGrid resolves the loss axis: Direct grid, declarative axis, or the
// case-study population default.
func (q *Query) lossGrid() ([]float64, *Error) {
	if q.Direct != nil && q.Direct.Losses != nil {
		return q.Direct.Losses, nil
	}
	return q.Losses.Grid("losses", DefaultLossGrid)
}

func (q *Query) buildPathLossSweep(p *Plan) *Error {
	losses, aerr := q.lossGrid()
	if aerr != nil {
		return aerr
	}
	return q.paramsTask(p, func(ctx context.Context, bp core.Params) (TaskResult, error) {
		curves, err := core.EnergyVsPathLossCtx(ctx, bp, losses)
		if err != nil {
			return TaskResult{}, err
		}
		out := make([]EnergyCurveWire, len(curves))
		for i, c := range curves {
			out[i] = WireEnergyCurve(c)
		}
		return TaskResult{Curves: out, value: curves}, nil
	})
}

func (q *Query) buildThresholds(p *Plan) *Error {
	losses, aerr := q.lossGrid()
	if aerr != nil {
		return aerr
	}
	return q.paramsTask(p, func(ctx context.Context, bp core.Params) (TaskResult, error) {
		ths, err := core.ThresholdsCtx(ctx, bp, losses)
		if err != nil {
			return TaskResult{}, err
		}
		out := make([]ThresholdWire, len(ths))
		for i, t := range ths {
			out[i] = WireThreshold(t)
		}
		return TaskResult{Thresholds: out, value: ths}, nil
	})
}

func (q *Query) buildPayloadSweep(p *Plan) *Error {
	var sizes []int
	if q.Direct != nil && q.Direct.Payloads != nil {
		sizes = q.Direct.Payloads
	} else {
		var aerr *Error
		sizes, aerr = q.Payloads.Grid("payloads", DefaultPayloadSizes)
		if aerr != nil {
			return aerr
		}
	}
	return q.paramsTask(p, func(ctx context.Context, bp core.Params) (TaskResult, error) {
		series, err := core.EnergyVsPayloadCtx(ctx, bp, sizes)
		if err != nil {
			return TaskResult{}, err
		}
		pw := WirePayloadSeries(sizes, series)
		return TaskResult{Payload: &pw, value: series}, nil
	})
}

// simConfig materializes the simulator configuration.
func (q *Query) simConfig() (netsim.Config, *Error) {
	if q.Direct != nil && q.Direct.Sim != nil {
		return *q.Direct.Sim, nil
	}
	return q.Sim.Config()
}

func (q *Query) buildSimulate(p *Plan) *Error {
	cfg, aerr := q.simConfig()
	if aerr != nil {
		return aerr
	}
	p.tasks = []task{{label: string(KindSimulate), run: func(context.Context, int) (TaskResult, error) {
		r := netsim.Run(cfg)
		rw := WireSimResult(cfg.Seed, r)
		return TaskResult{Sim: &rw, value: r}, nil
	}}}
	return nil
}

func (q *Query) buildReplicas(p *Plan) *Error {
	cfg, aerr := q.simConfig()
	if aerr != nil {
		return aerr
	}
	// The replica bound protects the wire surface; in-process facade
	// callers (Direct) keep the unbounded legacy semantics.
	if q.Direct == nil && (q.Replicas < 0 || q.Replicas > MaxReplicas) {
		return errf("replicas", "%d outside 0..%d", q.Replicas, MaxReplicas)
	}
	n := q.Replicas
	if n < 1 {
		n = 1
	}
	seeds := netsim.ReplicaSeeds(cfg.Seed, n)
	p.tasks = make([]task, n)
	for i := range p.tasks {
		seed := seeds[i]
		p.tasks[i] = task{label: "replica[" + strconv.Itoa(i) + "]", seed: &seed, run: func(context.Context, int) (TaskResult, error) {
			c := cfg
			c.Seed = seed
			r := netsim.Run(c)
			rw := WireSimResult(seed, r)
			return TaskResult{Sim: &rw, value: r}, nil
		}}
	}
	p.assemble = func(rs *ResultSet) *Error {
		// The wire replica payloads round-trip the exact floats the merge
		// folds, so values and wire payloads merge bit-identically.
		results, all, aerr := taskValues(rs, "sim", func(tr *TaskResult) (netsim.Result, bool) {
			if tr.Sim == nil {
				return netsim.Result{}, false
			}
			return tr.Sim.Result(), true
		})
		if aerr != nil {
			return aerr
		}
		set := netsim.Merge(cfg, seeds, results)
		summary := WireReplicaSummary(set)
		rs.Summary = &summary
		if all {
			rs.value = set
		}
		return nil
	}
	return nil
}

func (q *Query) buildScenario(p *Plan) *Error {
	var sc scenario.Scenario
	if q.Direct != nil && q.Direct.Scenario != nil {
		sc = *q.Direct.Scenario
	} else {
		if q.Scenario == "" {
			return errf("scenario", "missing scenario name")
		}
		var ok bool
		sc, ok = scenario.ByName(q.Scenario)
		if !ok {
			return errf("scenario", "unknown scenario %q", q.Scenario)
		}
	}
	diff := q.Diff
	p.tasks = []task{{label: string(KindScenario), run: func(ctx context.Context, workers int) (TaskResult, error) {
		res, err := scenario.Run(ctx, sc, workers)
		if err != nil {
			return TaskResult{}, err
		}
		report := ScenarioReportWire{Result: res}
		if diff {
			rep, err := scenario.Diff(res)
			if err != nil {
				return TaskResult{}, err
			}
			report.Diff = &rep
		}
		return TaskResult{Scenario: &report, value: res}, nil
	}}}
	return nil
}

func (q *Query) buildExperiment(p *Plan) *Error {
	if q.Experiment == "" {
		return errf("experiment", "missing experiment name")
	}
	e, ok := experiments.ByName(q.Experiment)
	if !ok {
		return errf("experiment", "unknown experiment %q", q.Experiment)
	}
	var opt experiments.Options
	direct := q.Direct != nil && q.Direct.ExperimentOpts != nil
	if direct {
		opt = *q.Direct.ExperimentOpts
	} else {
		opt = experiments.DefaultOptions()
		opt.Quick = q.Quick
		if q.Seed != nil {
			opt.Seed = *q.Seed
		}
	}
	name := q.Experiment
	p.tasks = []task{{label: string(KindExperiment) + ":" + name, run: func(ctx context.Context, workers int) (TaskResult, error) {
		o := opt
		if !direct {
			o.Context = ctx
			o.Workers = workers
		}
		tables, err := e.Run(o)
		if err != nil {
			return TaskResult{}, err
		}
		return TaskResult{Experiment: &ExperimentReportWire{Name: name, Tables: tables}, value: tables}, nil
	}}}
	return nil
}

// buildGrid materializes the joint product sweep — losses × payloads × BOs
// × node counts, one analytical evaluation per point — the paper-scale
// Fig. 6 surface generator. Axis order is fixed (nodes fastest, losses
// slowest), so task index i maps to a unique point and any shard of the
// plan is recomputable anywhere from (query, index range) alone. Omitted
// axes collapse to the base point: a grid over losses only is the batch of
// evaluations a client would otherwise page by hand.
func (q *Query) buildGrid(p *Plan) *Error {
	base, aerr := q.baseParams()
	if aerr != nil {
		return aerr
	}
	losses, aerr := q.Losses.Grid("losses", func() []float64 { return []float64{base.PathLossDB} })
	if aerr != nil {
		return aerr
	}
	payloads, aerr := q.Payloads.Grid("payloads", func() []int { return []int{base.PayloadBytes} })
	if aerr != nil {
		return aerr
	}
	bos, aerr := q.BOs.Grid("bos", func() []int { return []int{int(base.Superframe.BO)} })
	if aerr != nil {
		return aerr
	}
	nodes, aerr := q.Nodes.Grid("nodes", func() []int { return nil })
	if aerr != nil {
		return aerr
	}
	// nil means "keep the base load"; materialize as one sentinel point.
	loadFromNodes := nodes != nil
	if !loadFromNodes {
		nodes = []int{0}
	}

	total := 1
	for _, l := range []int{len(losses), len(payloads), len(bos), len(nodes)} {
		total *= l
		if total > MaxGridTasks {
			return errf("grid", "grid too large (> %d points); page across several queries", MaxGridTasks)
		}
	}
	if total < 1 {
		return errf("grid", "empty grid")
	}

	// Pre-validate each point's parameter set so every error surfaces at
	// compile time, before any work is scheduled, and build the task list
	// in the fixed row-major order.
	tasks := make([]task, 0, total)
	for _, loss := range losses {
		for _, payload := range payloads {
			for _, bo := range bos {
				if bo < 0 || bo > int(mac.MaxBeaconOrder) {
					return errf("bos", "beacon order %d outside 0..%d", bo, mac.MaxBeaconOrder)
				}
				sf, err := mac.NewSuperframe(uint8(bo), base.Superframe.SO)
				if err != nil {
					return errf("bos", "bo=%d with base so=%d: %v", bo, base.Superframe.SO, err)
				}
				for _, n := range nodes {
					pt := base
					pt.PathLossDB = loss
					pt.PayloadBytes = payload
					pt.Superframe = sf
					label := fmt.Sprintf("grid[%d]:loss=%g,payload=%d,bo=%d", len(tasks), loss, payload, bo)
					if loadFromNodes {
						if n < 1 {
							return errf("nodes", "population %d < 1", n)
						}
						pt.Load = sf.ChannelLoad(n, frame.PaperPacketDuration(payload))
						label += fmt.Sprintf(",n=%d", n)
					}
					if err := pt.Validate(); err != nil {
						return errf("grid", "%s: %v", label, err)
					}
					tasks = append(tasks, evaluateTask(label, pt))
				}
			}
		}
	}
	p.tasks = tasks
	return nil
}

// String implements fmt.Stringer with a one-line plan summary.
func (p *Plan) String() string {
	return fmt.Sprintf("query plan: kind=%s tasks=%d", p.Kind, len(p.tasks))
}

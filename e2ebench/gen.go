package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"

	"dense802154/internal/channel"
	"dense802154/internal/query"
)

// Request is one generated benchmark request: the bytes sent to one route,
// plus the v2 query it is equivalent to (a v1 request is the projection of
// that query onto its v1 route, per the mapping in internal/service/codec.go).
type Request struct {
	Index  int
	Route  string // URL path the body is posted to
	Body   []byte // request bytes on Route
	V2     []byte // the equivalent /v2/query body (== Body on v2 routes)
	Query  query.Query
	Kind   query.Kind
	Tasks  int  // Plan.NumTasks of Query
	Stream bool // Route is /v2/query/stream
	V1     bool // Route is a v1 route
}

// Routes.
const (
	routeQuery  = "/v2/query"
	routeStream = "/v2/query/stream"
)

// workloads names the benchmark's traffic mixes in run order.
var workloads = []string{"sweep", "simulate", "repeat"}

// generator produces a workload's request sequence. Request i is a pure
// function of (seed, i), so the same seed gives the same bytes whatever the
// client interleaving. fill is sent once before timing starts.
type generator struct {
	fill []Request
	at   func(i int) (Request, error)
}

func newGenerator(name string, seed int64) (*generator, error) {
	switch name {
	case "sweep":
		return &generator{at: func(i int) (Request, error) { return sweepRequest(seed, i) }}, nil
	case "simulate":
		return &generator{at: func(i int) (Request, error) { return simulateRequest(seed, i) }}, nil
	case "repeat":
		set, err := repeatSet(seed)
		if err != nil {
			return nil, err
		}
		return &generator{fill: set, at: func(i int) (Request, error) { return repeatRequest(set, seed, i) }}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// rngFor derives request i's random stream; salt separates generators.
func rngFor(seed int64, i int, salt uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), uint64(i)<<8|salt))
}

// uniqueLoss maps index i to a distinct base path loss in [55, 95) dB: it
// makes every request of a run a distinct store key by construction.
func uniqueLoss(i int) *query.Float {
	const span = 1 << 22
	v := query.Float(55 + 40*(float64(i%span)+0.5)/span)
	return &v
}

// uniqueSeed maps (seed, i) to a distinct contention or simulator seed.
func uniqueSeed(seed int64, i int) *int64 {
	v := seed<<32 ^ int64(i)
	return &v
}

func ptr[T any](v T) *T { return &v }

// ladderSteps is the number of rungs of every size ladder.
const ladderSteps = 16

// ladder returns rung step (mod ladderSteps) of a log-spaced ladder from lo
// to hi, so a mix has many small requests and a tail of large ones. Sizes
// come from the request index, not the seed: a seed changes the values a
// request carries, never how much work it is, which keeps runs at different
// seeds comparable.
func ladder(lo, hi, step int) int {
	f := float64(step%ladderSteps) / (ladderSteps - 1)
	return int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), f)))
}

// rung is the ladder step of request i: it advances once per 20-slot kind
// cycle and is offset per slot, so large requests do not arrive together.
func rung(i int) int { return i/20 + 7*(i%20) }

var (
	radios = []string{"cc2420", "cc2420-fast", "cc2420-scalable", "cc2420-improved"}
	bers   = []string{"eq1", "awgn"}
)

// analyticParams draws a base operating point; contention is the given
// source wire config.
func analyticParams(r *rand.Rand, c *query.ContentionWire) *query.ParamsWire {
	bo := 3 + r.IntN(8)
	so := bo - r.IntN(3)
	return &query.ParamsWire{
		Radio:        radios[r.IntN(len(radios))],
		BER:          bers[r.IntN(len(bers))],
		Contention:   c,
		Superframe:   &query.SuperframeWire{BO: uint8(bo), SO: uint8(so)},
		PayloadBytes: ptr(10 + r.IntN(114)),
		Load:         ptr(query.Float(0.05 + 0.6*r.Float64())),
	}
}

func approx() *query.ContentionWire { return &query.ContentionWire{Source: "approx"} }

// payloadValues draws k distinct payload sizes in ascending order.
func payloadValues(r *rand.Rand, k int) []int {
	perm := r.Perm(123)[:k]
	out := make([]int, 0, k)
	for s := 1; s <= 123; s++ {
		for _, p := range perm {
			if p+1 == s {
				out = append(out, s)
			}
		}
	}
	return out
}

// lossAxis draws a loss grid of the given size, as a range or, when explicit
// is set (v1 routes take lists), as the same points listed.
func lossAxis(r *rand.Rand, points int, explicit bool) *query.Axis {
	from := 50 + 10*r.Float64()
	to := from + 20 + 30*r.Float64()
	if !explicit {
		return &query.Axis{From: ptr(query.Float(from)), To: ptr(query.Float(to)), Points: ptr(points)}
	}
	return &query.Axis{Values: floats(channel.LossGrid(from, to, points))}
}

func floats(xs []float64) []query.Float {
	out := make([]query.Float, len(xs))
	for i, x := range xs {
		out[i] = query.Float(x)
	}
	return out
}

// route selects how a request travels. A workload's kind pattern fixes the
// kind; the route cycles independently of it, so every kind sees every
// route at fixed shares.
type route int

const (
	viaQuery route = iota
	viaStream
	viaV1
)

// sweepKinds is the fixed 20-slot kind pattern of the sweep workload.
var sweepKinds = [20]query.Kind{
	query.KindGrid, query.KindPathLossSweep, query.KindBatch, query.KindGrid, query.KindEvaluate,
	query.KindPayloadSweep, query.KindGrid, query.KindThresholds, query.KindPathLossSweep, query.KindBatch,
	query.KindGrid, query.KindEvaluate, query.KindPayloadSweep, query.KindPathLossSweep, query.KindGrid,
	query.KindBatch, query.KindThresholds, query.KindEvaluate, query.KindPayloadSweep, query.KindPathLossSweep,
}

// sweepRoutes is the route cycle: 3/5 /v2/query, 1/5 stream, 1/5 v1 (kinds
// without a v1 route — grid — take /v2/query instead).
var sweepRoutes = [5]route{viaQuery, viaStream, viaQuery, viaV1, viaQuery}

// sweepRequest generates request i of the sweep workload: a unique analytic
// design-space query over the closed-form (approx) contention baseline.
func sweepRequest(seed int64, i int) (Request, error) {
	r := rngFor(seed, i, 1)
	kind := sweepKinds[i%20]
	via := sweepRoutes[(i/20+i)%5]
	if via == viaV1 && kind == query.KindGrid {
		via = viaQuery
	}
	q := query.Query{Kind: kind}
	p := analyticParams(r, approx())
	p.PathLossDB = uniqueLoss(i)
	explicit := via == viaV1
	switch kind {
	case query.KindGrid:
		q.Params = p
		tasks := ladder(2, 270, rung(i))
		k := max(min(1+rung(i)%6, tasks/2), 1)
		q.Payloads = &query.IntAxis{Values: payloadValues(r, k)}
		q.Losses = lossAxis(r, max(tasks/k, 2), false)
	case query.KindPathLossSweep:
		q.Params = p
		q.Losses = lossAxis(r, ladder(5, 700, rung(i)), explicit)
	case query.KindThresholds:
		q.Params = p
		q.Losses = lossAxis(r, ladder(20, 420, rung(i)), explicit)
	case query.KindPayloadSweep:
		q.Params = p
		q.Payloads = &query.IntAxis{Values: payloadValues(r, ladder(5, 123, rung(i)))}
	case query.KindBatch:
		n := ladder(2, 250, rung(i))
		q.Batch = make([]query.ParamsWire, n)
		for j := range q.Batch {
			q.Batch[j] = *analyticParams(r, approx())
		}
		q.Batch[0].PathLossDB = p.PathLossDB
	case query.KindEvaluate:
		q.Params = p
	}
	return newRequest(i, q, via)
}

// simulateKinds is the fixed 20-slot kind pattern of the simulate workload.
var simulateKinds = [20]query.Kind{
	query.KindReplicas, query.KindEvaluate, query.KindPayloadSweep, query.KindLifetime, query.KindReplicas,
	query.KindGrid, query.KindEvaluate, query.KindCaseStudy, query.KindReplicas, query.KindPayloadSweep,
	query.KindLifetime, query.KindGrid, query.KindReplicas, query.KindEvaluate, query.KindCaseStudy,
	query.KindReplicas, query.KindPayloadSweep, query.KindLifetime, query.KindEvaluate, query.KindGrid,
}

// mc returns a Monte-Carlo contention source at a fresh seed, so the
// process-wide characterization cache misses.
func mc(seed int64, i int, superframes int) *query.ContentionWire {
	return &query.ContentionWire{Superframes: superframes, Seed: uniqueSeed(seed, i)}
}

// simulateRequest generates request i of the simulate workload: cold
// simulation queries (fresh contention and simulator seeds) with small
// responses. Every other replicas query goes through /v1/simulate.
func simulateRequest(seed int64, i int) (Request, error) {
	r := rngFor(seed, i, 2)
	kind := simulateKinds[i%20]
	via := viaQuery
	q := query.Query{Kind: kind}
	switch kind {
	case query.KindEvaluate:
		q.Params = analyticParams(r, mc(seed, i, ladder(20, 60, rung(i))))
	case query.KindCaseStudy:
		q.Params = analyticParams(r, mc(seed, i, ladder(10, 30, rung(i))))
		q.Params.Load = nil
		q.Params.Superframe = longSuperframe(r)
	case query.KindPayloadSweep:
		q.Params = analyticParams(r, mc(seed, i, ladder(10, 30, rung(i))))
		q.Payloads = &query.IntAxis{Values: payloadValues(r, 2+rung(i)%4)}
	case query.KindGrid:
		q.Params = analyticParams(r, mc(seed, i, ladder(10, 30, rung(i))))
		q.Params.Load = nil
		q.Params.Superframe = longSuperframe(r)
		q.Payloads = &query.IntAxis{Values: payloadValues(r, 1+rung(i)%2)}
		q.Nodes = &query.IntAxis{Values: []int{10 + r.IntN(30), 40 + r.IntN(41)}[:1+rung(i)/2%2]}
	case query.KindReplicas:
		q.Sim = simConfig(r, seed, i, ladder(20, 100, rung(i)), 2+rung(i)%7)
		q.Replicas = ladder(2, 16, rung(i)+5)
		if (i/20+i)%2 == 0 {
			via = viaV1
		}
	case query.KindLifetime:
		q.Sim = simConfig(r, seed, i, ladder(6, 16, rung(i)), 0)
		q.Replicas = 1 + rung(i)%2
		q.Lifetime = &query.LifetimeWire{
			Supply:           []string{"cr2032", "aa"}[rung(i)/2%2],
			EpochSuperframes: ptr(4 + rung(i)%9),
			MaxEpochs:        ptr(ladder(8, 32, rung(i)+3)),
		}
	}
	return newRequest(i, q, via)
}

// longSuperframe draws BO 6..8, long enough that a population-derived load
// (casestudy, grid nodes axis) stays within [0, 1].
func longSuperframe(r *rand.Rand) *query.SuperframeWire {
	bo := 6 + r.IntN(3)
	return &query.SuperframeWire{BO: uint8(bo), SO: uint8(bo - r.IntN(3))}
}

func simConfig(r *rand.Rand, seed int64, i, nodes, superframes int) *query.SimConfigWire {
	bo := 4 + r.IntN(4)
	w := &query.SimConfigWire{
		Nodes:        ptr(nodes),
		PayloadBytes: ptr(20 + r.IntN(104)),
		Superframe:   &query.SuperframeWire{BO: uint8(bo), SO: uint8(bo)},
		Radio:        radios[r.IntN(len(radios))],
		Seed:         uniqueSeed(seed, i),
	}
	if superframes > 0 {
		w.Superframes = ptr(superframes)
	}
	return w
}

// repeatSetSize is the repeat workload's working set: distinct queries, all
// stored before timing starts. Small enough to stay resident in the default
// store, large enough that Zipf popularity spreads over many keys.
const repeatSetSize = 48

// repeatMaxBytes keeps the working set to small answers, so the fixed
// per-request cost dominates a hit rather than response size.
const repeatMaxBytes = 8 << 10

// repeatSet draws the working set alternately from the sweep and simulate
// generators (at indexes no timed sweep/simulate run starts from), keeping
// queries with small expected answers. Every member travels /v2/query.
func repeatSet(seed int64) ([]Request, error) {
	var set []Request
	for j := 0; len(set) < repeatSetSize; j++ {
		var req Request
		var err error
		if j%2 == 0 {
			req, err = sweepRequest(seed, 1<<21+j)
		} else {
			req, err = simulateRequest(seed, 1<<21+j)
		}
		if err != nil {
			return nil, err
		}
		if estimateBytes(req.Query, req.Tasks) > repeatMaxBytes {
			continue
		}
		if req, err = newRequest(len(set), req.Query, viaQuery); err != nil {
			return nil, err
		}
		set = append(set, req)
	}
	return set, nil
}

// repeatMissOneIn is the repeat workload's share of fresh queries: one
// request in this many is a small analytic evaluate no earlier request
// asked, so the miss path (execute, encode, put) stays measured while
// whole-query hits stay above 90%.
const repeatMissOneIn = 200

// repeatRequest returns request i of the repeat workload: a working-set
// member picked by Zipf popularity (one in five on the stream route, whose
// hit path replays the stored body as NDJSON), or a fresh evaluate.
func repeatRequest(set []Request, seed int64, i int) (Request, error) {
	r := rngFor(seed, i, 3)
	if i%repeatMissOneIn == repeatMissOneIn-1 {
		p := analyticParams(r, approx())
		p.PathLossDB = uniqueLoss(i)
		return newRequest(i, query.Query{Kind: query.KindEvaluate, Params: p}, viaQuery)
	}
	z := rand.NewZipf(r, 1.2, 1, uint64(len(set)-1))
	req := set[z.Uint64()]
	req.Index = i
	if i%5 == 4 {
		req.Route, req.Stream = routeStream, true
	}
	return req, nil
}

// estimateBytes approximates a query's response size from its shape (about
// 0.95 KB per model evaluation, 0.2 KB per path-loss point, 0.6 KB per
// simulator replica); it only sorts queries into small and large.
func estimateBytes(q query.Query, tasks int) int {
	switch q.Kind {
	case query.KindPathLossSweep:
		return 200 * axisLen(q.Losses)
	case query.KindPayloadSweep:
		return 60 * len(q.Payloads.Values)
	case query.KindThresholds:
		return 1000
	case query.KindCaseStudy:
		return 4500
	case query.KindReplicas:
		return 600 * tasks
	case query.KindLifetime:
		return 1200 * tasks
	}
	return 950 * tasks
}

func axisLen(a *query.Axis) int {
	if a == nil {
		return 0
	}
	if a.Points != nil {
		return *a.Points
	}
	return len(a.Values)
}

// newRequest renders q onto its route and compiles it for the task count.
func newRequest(i int, q query.Query, via route) (Request, error) {
	v2, err := json.Marshal(q)
	if err != nil {
		return Request{}, err
	}
	plan, err := query.Compile(q)
	if err != nil {
		return Request{}, fmt.Errorf("request %d (%s): %w", i, q.Kind, err)
	}
	req := Request{Index: i, Route: routeQuery, Body: v2, V2: v2, Query: q, Kind: q.Kind, Tasks: plan.NumTasks()}
	switch via {
	case viaStream:
		req.Route, req.Stream = routeStream, true
	case viaV1:
		req.Route, req.Body, err = v1Body(q)
		req.V1 = true
	}
	return req, err
}

// v1Body projects q onto its v1 route (internal/service/codec.go mapping).
func v1Body(q query.Query) (string, []byte, error) {
	var path string
	var body any
	switch q.Kind {
	case query.KindEvaluate:
		path, body = "/v1/evaluate", map[string]any{"params": q.Params}
	case query.KindBatch:
		path, body = "/v1/batch", map[string]any{"params": q.Batch}
	case query.KindPathLossSweep:
		path, body = "/v1/sweep/pathloss", map[string]any{"params": q.Params, "losses": q.Losses.Values}
	case query.KindThresholds:
		path, body = "/v1/sweep/thresholds", map[string]any{"params": q.Params, "losses": q.Losses.Values}
	case query.KindPayloadSweep:
		path, body = "/v1/sweep/payload", map[string]any{"params": q.Params, "sizes": q.Payloads.Values}
	case query.KindReplicas:
		path, body = "/v1/simulate", map[string]any{"config": q.Sim, "replicas": q.Replicas}
	default:
		return "", nil, fmt.Errorf("kind %s has no v1 route", q.Kind)
	}
	b, err := json.Marshal(body)
	return path, b, err
}

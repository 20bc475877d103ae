package service

import (
	"dense802154/internal/core"
	"dense802154/internal/netsim"
	"dense802154/internal/query"
	"dense802154/internal/wire"
)

// The request/response codecs live in internal/query — the unified query
// layer and this HTTP front-end share one wire vocabulary, so the v1
// endpoints and the v2 /query surface cannot drift apart. The aliases below
// keep the v1 wire names this package has always exported.
//
// # v1 → v2 wire mapping
//
// Every v1 compute route is an adapter that builds this v2 Query, runs it
// on the path /v2/query uses and projects the ResultSet back into the v1
// response; the request fields carry over verbatim (same JSON names, same
// defaults, same validation bounds):
//
//	POST /v1/evaluate   {"params":P}            → {"kind":"evaluate","params":P}
//	POST /v1/batch      {"params":[P...]}       → {"kind":"batch","batch":[P...]}
//	POST /v1/casestudy  {"params":P,"config":C} → {"kind":"casestudy","params":P,"config":C}
//	POST /v1/sweep/pathloss   {"params":P,"losses":[..]}  → {"kind":"pathloss-sweep","params":P,"losses":{"values":[..]}}
//	POST /v1/sweep/thresholds {"params":P,"losses":[..]}  → {"kind":"thresholds","params":P,"losses":{"values":[..]}}
//	POST /v1/sweep/payload    {"params":P,"sizes":[..]}   → {"kind":"payload-sweep","params":P,"payloads":{"values":[..]}}
//	POST /v1/simulate   {"config":S}              → {"kind":"replicas","sim":S,"replicas":1}
//	POST /v1/simulate   {"config":S,"replicas":n} → {"kind":"replicas","sim":S,"replicas":n}
//	POST /v1/scenarios/{name} {"diff":d}          → {"kind":"scenario","scenario":name,"diff":d}
//	POST /v1/experiments/{name} {"quick":q,"seed":s} → {"kind":"experiment","experiment":name,"quick":q,"seed":s}
//
// /v1/simulate always answers the replica shape, hence kind replicas even
// for one run. An empty v1 losses or sizes list selects the default grid
// (the v2 axis is then omitted). Validation errors keep their v1 field
// names: params[i] for batch[i], losses and sizes for the axis fields.
//
// v2 additionally expresses grid axes as ranges ({"from":55,"to":95,
// "points":81} or {"from":5,"to":123,"step":2}), not just explicit lists.
// Responses change shape: v2 wraps every outcome in one tagged ResultSet
// ({"version":2,"kind":...,"results":[...]}) whose per-task payloads are
// the v1 response structs, and /v2/query/stream emits exactly those
// TaskResults as NDJSON lines followed by a summary line. The v1 endpoints
// are maintained but frozen: new axes land as Query fields, not new
// routes.
type (
	// Error is a structured request-validation failure rendered as a 400.
	Error = query.Error
	// SuperframeWire selects the beacon structure.
	SuperframeWire = query.SuperframeWire
	// ContentionWire selects and parameterizes the contention source.
	ContentionWire = query.ContentionWire
	// ParamsWire is the JSON form of core.Params.
	ParamsWire = query.ParamsWire
	// ContStatsWire is the JSON form of contention.Stats.
	ContStatsWire = query.ContStatsWire
	// BreakdownWire is the JSON form of core.Breakdown.
	BreakdownWire = query.BreakdownWire
	// StateTimesWire is the JSON form of core.StateTimes.
	StateTimesWire = query.StateTimesWire
	// MetricsWire is the JSON form of core.Metrics.
	MetricsWire = query.MetricsWire
	// CaseStudyConfigWire is the JSON form of core.CaseStudyConfig.
	CaseStudyConfigWire = query.CaseStudyConfigWire
	// CaseStudyResultWire is the JSON form of core.CaseStudyResult.
	CaseStudyResultWire = query.CaseStudyResultWire
	// SimConfigWire is the JSON form of netsim.Config.
	SimConfigWire = query.SimConfigWire
	// SimResultWire is the JSON headline of one netsim.Result replica.
	SimResultWire = query.SimResultWire
	// ReplicaStatWire is the JSON form of netsim.ReplicaStat.
	ReplicaStatWire = query.ReplicaStatWire
)

// Float is the exact-round-trip JSON float shared with the scenario golden
// files; see internal/wire for the encoding contract.
type Float = wire.Float

// The model-to-wire converters the service tests build expectations with.
func metricsWire(m core.Metrics) MetricsWire { return query.WireMetrics(m) }
func caseStudyResultWire(r core.CaseStudyResult) CaseStudyResultWire {
	return query.WireCaseStudyResult(r)
}
func simResultWire(seed int64, r netsim.Result) SimResultWire { return query.WireSimResult(seed, r) }

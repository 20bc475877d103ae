package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"

	"dense802154/internal/experiments"
	"dense802154/internal/query"
)

// ---- v1 adapters ----
//
// Every v1 compute route is a request/response adapter over the v2 query
// plan: it decodes the v1 body, builds the query.Query the mapping in
// codec.go names, runs it through execute — the execution path /v2/query
// uses — and projects the ResultSet into the frozen v1 response shape. The
// helpers below keep the v1 error contract: validation errors carry the v1
// field names, every context failure is a 503.

// compileV1 compiles the query a v1 request maps to and counts it. A
// validation failure is answered as a 400 whose field rename spells the v1
// way (nil keeps the v2 name).
func (s *Server) compileV1(w http.ResponseWriter, q query.Query, rename func(field string) string) (*query.Plan, bool) {
	plan, err := query.Compile(q)
	if err != nil {
		var aerr *Error
		if rename != nil && errors.As(err, &aerr) {
			aerr.Field = rename(aerr.Field)
		}
		writeCompileError(w, err)
		return nil, false
	}
	s.countQuery(plan.Kind, plan.NumTasks())
	return plan, true
}

// execV1 runs a compiled v1 plan. A context failure is answered 503, any
// other failure with status failure (400 for the model routes, 500 for the
// experiment and scenario drivers).
func (s *Server) execV1(w http.ResponseWriter, r *http.Request, q query.Query, plan *query.Plan, failure int) (*query.ResultSet, bool) {
	rs, ok, err := s.execute(w, r, q, plan, s.taskStore(s.queryKey(q)), nil, nil)
	if !ok {
		return nil, false
	}
	if err != nil {
		switch cerr := r.Context().Err(); {
		case cerr != nil:
			writeCtxError(w, cerr)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeCtxError(w, err)
		default:
			writeError(w, failure, err.Error(), "")
		}
		return nil, false
	}
	return rs, true
}

// runV1 is compileV1 then execV1.
func (s *Server) runV1(w http.ResponseWriter, r *http.Request, q query.Query, rename func(string) string, failure int) (*query.ResultSet, bool) {
	plan, ok := s.compileV1(w, q, rename)
	if !ok {
		return nil, false
	}
	return s.execV1(w, r, q, plan, failure)
}

// ---- POST /v1/evaluate ----

type evaluateRequest struct {
	Params ParamsWire `json:"params"`
}

type evaluateResponse struct {
	Metrics MetricsWire `json:"metrics"`
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req evaluateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	q := query.Query{Kind: query.KindEvaluate, Params: &req.Params, Workers: req.Params.Workers}
	if rs, ok := s.runV1(w, r, q, nil, http.StatusBadRequest); ok {
		writeJSON(w, http.StatusOK, evaluateResponse{Metrics: *rs.Results[0].Metrics})
	}
}

// ---- POST /v1/batch ----

type batchRequest struct {
	Params []ParamsWire `json:"params"`
	// Stream switches the response to NDJSON, one line per result in
	// index order (also selectable with the ?stream=1 query parameter).
	Stream bool `json:"stream,omitempty"`
}

type batchResponse struct {
	Metrics []MetricsWire `json:"metrics"`
}

// batchLine is one NDJSON streaming record. Result lines carry index (the
// Params element) plus metrics, in index order; the final summary line
// carries done=true and the count, with no index. Error is never set since
// every element is validated before the stream starts; it stays for wire
// compatibility.
type batchLine struct {
	Index   *int         `json:"index,omitempty"`
	Metrics *MetricsWire `json:"metrics,omitempty"`
	Error   string       `json:"error,omitempty"`
	Done    bool         `json:"done,omitempty"`
	Count   int          `json:"count,omitempty"`
}

// batchField spells a v2 batch validation field the v1 way: batch[1].params
// is params[1].params.
func batchField(field string) string {
	if rest, ok := strings.CutPrefix(field, "batch"); ok {
		return "params" + rest
	}
	return field
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	q := query.Query{Kind: query.KindBatch, Batch: req.Params}
	for _, pw := range req.Params {
		q.Workers = max(q.Workers, pw.Workers)
	}
	plan, ok := s.compileV1(w, q, batchField)
	if !ok {
		return
	}
	stream := req.Stream
	if v := r.URL.Query().Get("stream"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, "stream must be a boolean", "stream")
			return
		}
		stream = b
	}
	if !stream {
		rs, ok := s.execV1(w, r, q, plan, http.StatusBadRequest)
		if !ok {
			return
		}
		out := make([]MetricsWire, len(rs.Results))
		for i := range rs.Results {
			out[i] = *rs.Results[i].Metrics
		}
		writeJSON(w, http.StatusOK, batchResponse{Metrics: out})
		return
	}

	// The stream commits its headers once worker tokens are held and
	// flushes every line; a failure after that ends it without the done
	// line.
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	count := 0
	_, ok, err := s.execute(w, r, q, plan, s.taskStore(s.queryKey(q)), func() { startStream(w) }, func(tr query.TaskResult) error {
		if err := enc.Encode(batchLine{Index: &tr.Index, Metrics: tr.Metrics}); err != nil {
			return err // client went away; execution cancels the rest
		}
		count++
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if ok && err == nil {
		_ = enc.Encode(batchLine{Done: true, Count: count})
	}
}

// ---- POST /v1/casestudy ----

type caseStudyRequest struct {
	Params ParamsWire           `json:"params"`
	Config *CaseStudyConfigWire `json:"config,omitempty"`
}

type caseStudyResponse struct {
	Result CaseStudyResultWire `json:"result"`
}

func (s *Server) handleCaseStudy(w http.ResponseWriter, r *http.Request) {
	var req caseStudyRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	q := query.Query{Kind: query.KindCaseStudy, Params: &req.Params, Config: req.Config, Workers: req.Params.Workers}
	if rs, ok := s.runV1(w, r, q, nil, http.StatusBadRequest); ok {
		writeJSON(w, http.StatusOK, caseStudyResponse{Result: *rs.Results[0].CaseStudy})
	}
}

// ---- POST /v1/sweep/{pathloss,thresholds,payload} ----

type pathLossSweepRequest struct {
	Params ParamsWire `json:"params"`
	// Losses is the path-loss grid in dB (default: 55..95 in 0.5 dB
	// steps, the case-study population).
	Losses []Float `json:"losses,omitempty"`
}

type pathLossSweepResponse struct {
	Curves []query.EnergyCurveWire `json:"curves"`
}

type thresholdsResponse struct {
	Thresholds []query.ThresholdWire `json:"thresholds"`
}

type payloadSweepRequest struct {
	Params ParamsWire `json:"params"`
	// Sizes is the payload grid in bytes (default: the Fig. 8 grid,
	// 5..123).
	Sizes []int `json:"sizes,omitempty"`
}

// axisField returns the rename that reports every error on the v2 grid
// axis (losses.values, payloads.values) under the v1 list field.
func axisField(axis, list string) func(string) string {
	return func(field string) string {
		if strings.HasPrefix(field, axis) {
			return list
		}
		return field
	}
}

// sweepQuery maps a v1 sweep request onto its v2 query. An empty v1 list
// selects the default grid, which in v2 is a nil axis (an axis with no
// values is a 400).
func sweepQuery(kind query.Kind, params *ParamsWire, losses []Float, sizes []int) query.Query {
	q := query.Query{Kind: kind, Params: params, Workers: params.Workers}
	if len(losses) > 0 {
		q.Losses = &query.Axis{Values: losses}
	}
	if len(sizes) > 0 {
		q.Payloads = &query.IntAxis{Values: sizes}
	}
	return q
}

func (s *Server) handleSweepPathLoss(w http.ResponseWriter, r *http.Request) {
	var req pathLossSweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	q := sweepQuery(query.KindPathLossSweep, &req.Params, req.Losses, nil)
	if rs, ok := s.runV1(w, r, q, axisField("losses", "losses"), http.StatusBadRequest); ok {
		writeJSON(w, http.StatusOK, pathLossSweepResponse{Curves: rs.Results[0].Curves})
	}
}

func (s *Server) handleSweepThresholds(w http.ResponseWriter, r *http.Request) {
	var req pathLossSweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	q := sweepQuery(query.KindThresholds, &req.Params, req.Losses, nil)
	rs, ok := s.runV1(w, r, q, axisField("losses", "losses"), http.StatusBadRequest)
	if !ok {
		return
	}
	// An empty list is omitted from the task line, so a stored result
	// decodes it as nil; v1 always answers a list.
	ths := rs.Results[0].Thresholds
	if ths == nil {
		ths = []query.ThresholdWire{}
	}
	writeJSON(w, http.StatusOK, thresholdsResponse{Thresholds: ths})
}

func (s *Server) handleSweepPayload(w http.ResponseWriter, r *http.Request) {
	var req payloadSweepRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	q := sweepQuery(query.KindPayloadSweep, &req.Params, nil, req.Sizes)
	if rs, ok := s.runV1(w, r, q, axisField("payloads", "sizes"), http.StatusBadRequest); ok {
		writeJSON(w, http.StatusOK, rs.Results[0].Payload)
	}
}

// ---- POST /v1/simulate ----

type simulateRequest struct {
	Config *SimConfigWire `json:"config,omitempty"`
	// Replicas is the number of independent replications merged into the
	// confidence statistics (default 1).
	Replicas int `json:"replicas,omitempty"`
	// Workers is the requested parallelism (clamped to the server pool).
	Workers int `json:"workers,omitempty"`
}

type simulateResponse struct {
	Replicas int             `json:"replicas"`
	Seeds    []int64         `json:"seeds"`
	Results  []SimResultWire `json:"results"`

	AvgPowerUW    ReplicaStatWire `json:"avg_power_uw"`
	DeliveryRatio ReplicaStatWire `json:"delivery_ratio"`
	PrFail        ReplicaStatWire `json:"pr_fail"`
	PrCF          ReplicaStatWire `json:"pr_cf"`
	PrCol         ReplicaStatWire `json:"pr_col"`
	NCCA          ReplicaStatWire `json:"ncca"`
	TcontMS       ReplicaStatWire `json:"tcont_ms"`
	MeanDelayMS   ReplicaStatWire `json:"mean_delay_ms"`
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req simulateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	// v1 always answers the replica shape, so a lone run is one replica.
	q := query.Query{Kind: query.KindReplicas, Sim: req.Config, Replicas: req.Replicas, Workers: req.Workers}
	if q.Replicas == 0 {
		q.Replicas = 1
	}
	rs, ok := s.runV1(w, r, q, nil, http.StatusBadRequest)
	if !ok {
		return
	}
	sum := rs.Summary
	resp := simulateResponse{
		Replicas:      sum.Replicas,
		Seeds:         sum.Seeds,
		Results:       make([]SimResultWire, len(rs.Results)),
		AvgPowerUW:    sum.AvgPowerUW,
		DeliveryRatio: sum.DeliveryRatio,
		PrFail:        sum.PrFail,
		PrCF:          sum.PrCF,
		PrCol:         sum.PrCol,
		NCCA:          sum.NCCA,
		TcontMS:       sum.TcontMS,
		MeanDelayMS:   sum.MeanDelayMS,
	}
	for i := range rs.Results {
		resp.Results[i] = *rs.Results[i].Sim
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- GET /v1/experiments, POST /v1/experiments/{name} ----

type experimentInfo struct {
	Name        string `json:"name"`
	Title       string `json:"title"`
	Description string `json:"description"`
}

type experimentListResponse struct {
	Experiments []experimentInfo `json:"experiments"`
}

type experimentRunRequest struct {
	// Quick shrinks grids and Monte-Carlo runs as in ExperimentOpts.
	Quick bool `json:"quick,omitempty"`
	// Seed drives all randomized components (default 2005).
	Seed *int64 `json:"seed,omitempty"`
	// Workers is the requested parallelism (clamped to the server pool).
	Workers int `json:"workers,omitempty"`
}

// experimentRunResponse is the experiment task payload as it is.
type experimentRunResponse = query.ExperimentReportWire

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	all := experiments.All()
	resp := experimentListResponse{Experiments: make([]experimentInfo, len(all))}
	for i, e := range all {
		resp.Experiments[i] = experimentInfo{Name: e.Name, Title: e.Title, Description: e.Description}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExperimentRun(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := experiments.ByName(name); !ok {
		writeError(w, http.StatusNotFound, "unknown experiment "+name, "name")
		return
	}
	var req experimentRunRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	q := query.Query{Kind: query.KindExperiment, Experiment: name, Quick: req.Quick, Seed: req.Seed, Workers: req.Workers}
	if rs, ok := s.runV1(w, r, q, nil, http.StatusInternalServerError); ok {
		writeJSON(w, http.StatusOK, rs.Results[0].Experiment)
	}
}

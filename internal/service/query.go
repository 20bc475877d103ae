package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"dense802154/internal/query"
	"dense802154/internal/store"
)

// ---- POST /v2/query, POST /v2/query/stream ----
//
// The versioned unified-query surface: one declarative request type
// (internal/query.Query) covers everything the per-endpoint v1 routes do.
// The non-streaming form answers with the byte-stable ResultSet encoding;
// the streaming form emits NDJSON — one TaskResult per line in plan order,
// then one summary line — with every line flushed as it completes.
// Backpressure is the worker-token limiter every route shares: a query
// acquires tokens before computing, so any number of clients shares the
// server budget.

// decodeQuery parses and compiles the request body; errors are rendered as
// structured 400s.
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (query.Query, *query.Plan, bool) {
	var q query.Query
	if !decodeJSON(w, r, &q) {
		return query.Query{}, nil, false
	}
	plan, err := query.Compile(q)
	if err != nil {
		writeCompileError(w, err)
		return query.Query{}, nil, false
	}
	return q, plan, true
}

// writeCompileError renders a query.Compile failure as a structured 400.
func writeCompileError(w http.ResponseWriter, err error) {
	var aerr *Error
	if errors.As(err, &aerr) {
		writeValidationError(w, aerr)
	} else {
		writeError(w, http.StatusBadRequest, err.Error(), "")
	}
}

// countQuery records an accepted (compiled) query — v1 or v2 — in the
// per-kind and task-volume counters.
func (s *Server) countQuery(plan *query.Plan) {
	s.queryKinds.With(string(plan.Kind)).Inc()
	s.queryTasks.Add(uint64(plan.NumTasks()))
}

// queryContext applies the server's per-query deadline (Config.QueryTimeout)
// to a query execution; a v2 query's own timeout_ms, when tighter, is
// applied underneath by the plan itself.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	}
	return context.WithCancel(r.Context())
}

// resultKey returns the whole-query store key of q when its response bytes
// are cacheable: a store is configured, the query has a canonical wire form
// (no Direct inputs) and tracing is off — traces carry measured wall times,
// which are never part of result bytes, so a traced query bypasses the
// whole-query cache entirely (its per-task results still flow through the
// plan-level store, which holds no trace data). Whole entries are put with
// their task spans (ResultSet.EncodeSpans), so in memory a query's whole
// entry and its task entries share one copy of the bytes.
func (s *Server) resultKey(q query.Query) (store.Key, bool) {
	if s.cfg.Store == nil || q.Trace {
		return store.Key{}, false
	}
	return store.KeyFor(q)
}

// attachStore wires the per-task result store into a compiled plan so
// execution reuses stored tasks and persists computed ones. Tasks does its
// own cacheability gating (nil for Direct queries).
func (s *Server) attachStore(q query.Query, plan *query.Plan) {
	if s.cfg.Store != nil {
		plan.Store = s.cfg.Store.Tasks(q)
	}
}

// execQuery runs a compiled plan through the configured Distributor when one
// exists (coordinator mode), locally otherwise.
func (s *Server) execQuery(ctx context.Context, q query.Query, plan *query.Plan, workers int, yield func(query.TaskResult) error) (*query.ResultSet, error) {
	if s.cfg.Distributor != nil {
		return s.cfg.Distributor.Distribute(ctx, q, plan, workers, yield)
	}
	return plan.Execute(ctx, workers, yield)
}

// acquireWorkers is the request prologue: block (under the request context)
// for a share of the server worker pool.
func (s *Server) acquireWorkers(w http.ResponseWriter, r *http.Request, want int) (int, func(), bool) {
	got, release, err := s.pool.acquire(r.Context(), want)
	if err != nil {
		writeCtxError(w, err)
		return 0, nil, false
	}
	return got, release, true
}

// execute is the one execution path of every compute route, v1 and v2: it
// attaches the per-task result store, takes worker tokens under the request
// context, applies Config.QueryTimeout and runs the plan through execQuery.
// started, when non-nil, runs once the tokens are held and before any task,
// so a stream can commit its headers. ok is false when the token
// acquisition failed; that 503 is already written.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, q query.Query, plan *query.Plan, started func(), yield func(query.TaskResult) error) (rs *query.ResultSet, ok bool, err error) {
	s.attachStore(q, plan)
	got, release, ok := s.acquireWorkers(w, r, q.Workers)
	if !ok {
		return nil, false, nil
	}
	defer release()
	if started != nil {
		started()
	}
	ctx, cancel := s.queryContext(r)
	defer cancel()
	rs, err = s.execQuery(ctx, q, plan, got, yield)
	return rs, true, err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, plan, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	s.countQuery(plan)
	// A whole-query store hit is served before any worker token is taken:
	// the stored bytes are the exact bytes a previous identical query
	// answered with, so the hit path is O(1) and executes nothing.
	key, cacheable := s.resultKey(q)
	if cacheable {
		if body, ok := s.cfg.Store.GetResult(key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			return
		}
	}
	rs, ok, err := s.execute(w, r, q, plan, nil, nil)
	if !ok {
		return
	}
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	body, spans, err := rs.EncodeSpans()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error(), "")
		return
	}
	if cacheable {
		s.cfg.Store.PutResult(key, body, spans...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeStreamFromResult replays a stored ResultSet body as the NDJSON stream
// a fresh execution would produce: one line per task in plan order, then the
// done line (query.AppendStreamDone). A ResultSet's elements are exactly the
// task lines without their newline, so the stored element bytes are written
// as they are. Returns false — without having written anything — when the
// stored bytes do not decode, so the caller falls through to a fresh
// computation.
func (s *Server) writeStreamFromResult(w http.ResponseWriter, body []byte) bool {
	var stored struct {
		Results         []json.RawMessage          `json:"results"`
		Summary         *query.ReplicaSummaryWire  `json:"summary"`
		LifetimeSummary *query.LifetimeSummaryWire `json:"lifetime_summary"`
	}
	if err := json.Unmarshal(body, &stored); err != nil {
		return false
	}
	startStream(w)
	flusher, _ := w.(http.Flusher)
	var buf []byte
	for _, line := range stored.Results {
		buf = append(append(buf[:0], line...), '\n')
		if _, err := w.Write(buf); err != nil {
			return true // client went away mid-replay
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	done := &query.ResultSet{Summary: stored.Summary, LifetimeSummary: stored.LifetimeSummary}
	_, _ = w.Write(query.AppendStreamDone(nil, len(stored.Results), done))
	return true
}

func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	q, plan, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	s.countQuery(plan)
	// A stored whole-query body replays as the stream without executing
	// anything — gated on kinds whose elements re-encode byte-identically.
	key, cacheable := s.resultKey(q)
	if cacheable && q.Kind.WireExact() {
		if body, ok := s.cfg.Store.GetResult(key); ok && s.writeStreamFromResult(w, body) {
			return
		}
	}
	// The per-task store execute attaches is also what makes interrupted
	// streams resumable: every task computed before a disconnect was
	// persisted, so the retried stream reuses them and recomputes only the
	// remainder.
	flusher, _ := w.(http.Flusher)
	count := 0
	var encodeErr error
	rs, ok, err := s.execute(w, r, q, plan, func() { startStream(w) }, func(tr query.TaskResult) error {
		// The line is the one the plan's worker already encoded for the
		// task store; EncodeTaskResult only encodes when there is none.
		line, err := query.EncodeTaskResult(tr)
		if err == nil {
			_, err = w.Write(line)
		}
		if err != nil {
			encodeErr = err
			return err // client went away; execution cancels the rest
		}
		count++
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if !ok {
		return
	}
	if err != nil {
		// Headers are gone; a structured terminal error line (done stays
		// false) tells the client why the stream ended early, and its
		// absence — a hard truncation — still signals failure. A dead
		// client connection gets nothing, which is fine: nobody is reading.
		if encodeErr == nil {
			enc := json.NewEncoder(w)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(queryStreamErrorLine{Error: queryErrorDetail(r, err)})
			if flusher != nil {
				flusher.Flush()
			}
		}
		return
	}
	if cacheable {
		if body, spans, err := rs.EncodeSpans(); err == nil {
			s.cfg.Store.PutResult(key, body, spans...)
		}
	}
	_, _ = w.Write(query.AppendStreamDone(nil, count, rs))
}

// startStream commits the 200 headers of an NDJSON response.
func startStream(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
}

// queryStreamErrorLine is the terminal NDJSON record of a failed stream:
// done=false plus the same structured error detail the non-streaming route
// would have answered with.
type queryStreamErrorLine struct {
	Done  bool        `json:"done"`
	Error errorDetail `json:"error"`
}

// queryErrorDetail maps a v2 execution failure to its structured error: an
// exceeded query deadline is a 504 (the inputs were fine, the time budget
// was not), other context failures are 503s, validation errors keep their
// field, and anything else is a 400 (the model rejected the inputs).
func queryErrorDetail(r *http.Request, err error) errorDetail {
	if errors.Is(err, context.DeadlineExceeded) {
		return errorDetail{Status: http.StatusGatewayTimeout, Message: "query deadline exceeded"}
	}
	if cerr := r.Context().Err(); cerr != nil {
		return errorDetail{Status: http.StatusServiceUnavailable, Message: cerr.Error()}
	}
	var aerr *Error
	if errors.As(err, &aerr) {
		return errorDetail{Status: http.StatusBadRequest, Message: aerr.Message, Field: aerr.Field}
	}
	return errorDetail{Status: http.StatusBadRequest, Message: err.Error()}
}

// writeQueryError renders a v2 execution failure (see queryErrorDetail for
// the status mapping).
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	d := queryErrorDetail(r, err)
	writeError(w, d.Status, d.Message, d.Field)
}

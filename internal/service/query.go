package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"

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

// decodeQuery reads the request body and decodes it with the lean Query
// decoder (query.DecodeQuery), then runs the shape check of Compile
// (query.Query.ValidateShape) — the part of Compile's validation a
// whole-query store hit cannot stand in for. Failures are answered as
// structured 400s (413 for an oversized body).
func (s *Server) decodeQuery(w http.ResponseWriter, r *http.Request) (query.Query, bool) {
	buf := bodyBuffers.Get().(*bytes.Buffer)
	defer putBodyBuffer(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		writeBodyError(w, err)
		return query.Query{}, false
	}
	q, err := query.DecodeQuery(buf.Bytes())
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed request: "+err.Error(), "")
		return query.Query{}, false
	}
	if aerr := q.ValidateShape(); aerr != nil {
		writeValidationError(w, aerr)
		return query.Query{}, false
	}
	return q, true
}

// bodyBuffers recycles request-body buffers across /v2/query requests;
// the decoded Query copies what it keeps.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// putBodyBuffer returns buf to the pool unless an outsized body grew it.
func putBodyBuffer(buf *bytes.Buffer) {
	if buf.Cap() <= 64<<10 {
		bodyBuffers.Put(buf)
	}
}

// compile compiles a decoded query; a failure is answered as a structured
// 400.
func compile(w http.ResponseWriter, q query.Query) (*query.Plan, bool) {
	plan, err := query.Compile(q)
	if err != nil {
		writeCompileError(w, err)
		return nil, false
	}
	return plan, true
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

// countQuery records an accepted query — v1 or v2, computed or answered
// from the store — in the per-kind and task-volume counters.
func (s *Server) countQuery(kind query.Kind, tasks int) {
	s.queryKinds.With(string(kind)).Inc()
	s.queryTasks.Add(uint64(tasks))
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

// queryKey derives q's store key, once per request: the whole-query entry
// and the per-task view both use it. keyed is false without a store or for
// a query with no canonical form (Direct inputs).
func (s *Server) queryKey(q query.Query) (store.Key, bool) {
	if s.cfg.Store == nil {
		return store.Key{}, false
	}
	return store.KeyFor(q)
}

// taskStore is the per-task store view of a keyed query, attached to its
// plan so execution reuses stored tasks and persists computed ones (nil
// when keyed is false).
func (s *Server) taskStore(key store.Key, keyed bool) query.TaskStore {
	if !keyed {
		return nil
	}
	return s.cfg.Store.TasksByKey(key)
}

// storedResult looks up the whole-query store entry of a decoded query,
// before anything compiles it. A traced query bypasses the whole-query
// store — traces carry measured wall times, which are never part of result
// bytes — though its per-task results still flow through the plan-level
// store. Only a compiled query is ever stored, and decodeQuery has run the
// shape check, which covers what the key leaves out, so a hit answers the
// query as Compile and Execute would. Its spans give the task count the
// query is counted with.
func (s *Server) storedResult(q query.Query, key store.Key, keyed bool) ([]byte, []query.TaskSpan, bool) {
	if !keyed || q.Trace {
		return nil, nil, false
	}
	body, spans, ok := s.cfg.Store.GetResultSpans(key)
	if !ok || len(spans) == 0 {
		return nil, nil, false
	}
	return body, spans, true
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
// attaches the per-task result store view tasks, takes worker tokens under
// the request context, applies Config.QueryTimeout and runs the plan
// through execQuery. started, when non-nil, runs once the tokens are held
// and before any task, so a stream can commit its headers. ok is false
// when the token acquisition failed; that 503 is already written.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, q query.Query, plan *query.Plan, tasks query.TaskStore, started func(), yield func(query.TaskResult) error) (rs *query.ResultSet, ok bool, err error) {
	plan.Store = tasks
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
	q, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	// A whole-query store hit is served before anything compiles and before
	// any worker token is taken: the stored bytes are the exact bytes a
	// previous identical query answered with, so the hit path executes
	// nothing.
	key, keyed := s.queryKey(q)
	if body, spans, ok := s.storedResult(q, key, keyed); ok {
		s.countQuery(q.Kind, len(spans))
		writeBody(w, "application/json", body)
		return
	}
	plan, ok := compile(w, q)
	if !ok {
		return
	}
	s.countQuery(plan.Kind, plan.NumTasks())
	rs, ok, err := s.execute(w, r, q, plan, s.taskStore(key, keyed), nil, nil)
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
	if keyed && !q.Trace {
		s.cfg.Store.PutResult(key, body, spans...)
	}
	writeBody(w, "application/json", body)
}

func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	q, ok := s.decodeQuery(w, r)
	if !ok {
		return
	}
	// A stored whole-query body replays as the stream without compiling or
	// executing anything, in one write: its task elements are the stream's
	// lines, and its summaries close the done line. Gated on kinds whose
	// elements re-encode byte-identically.
	key, keyed := s.queryKey(q)
	if q.Kind.WireExact() {
		if body, spans, ok := s.storedResult(q, key, keyed); ok {
			buf := bodyBuffers.Get().(*bytes.Buffer)
			defer putBodyBuffer(buf)
			buf.Reset()
			buf.Grow(len(body) + 64) // the stream is the body's bytes, re-punctuated
			if stream, ok := query.AppendStreamReplay(buf.AvailableBuffer(), body, spans); ok {
				s.countQuery(q.Kind, len(spans))
				writeBody(w, "application/x-ndjson", stream)
				return
			}
		}
	}
	plan, ok := compile(w, q)
	if !ok {
		return
	}
	s.countQuery(plan.Kind, plan.NumTasks())
	// The per-task store execute attaches is also what makes interrupted
	// streams resumable: every task computed before a disconnect was
	// persisted, so the retried stream reuses them and recomputes only the
	// remainder.
	flusher, _ := w.(http.Flusher)
	count := 0
	var encodeErr error
	rs, ok, err := s.execute(w, r, q, plan, s.taskStore(key, keyed), func() { startStream(w) }, func(tr query.TaskResult) error {
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
	if keyed && !q.Trace {
		if body, spans, err := rs.EncodeSpans(); err == nil {
			s.cfg.Store.PutResult(key, body, spans...)
		}
	}
	_, _ = w.Write(query.AppendStreamDone(nil, count, rs))
}

// writeBody answers 200 with a complete body in one write. The length
// goes in the headers, so the body is not chunked.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
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

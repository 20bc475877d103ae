package query

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// This file is the query side of the content-addressed result store seam
// (internal/store). The query package defines the canonical encoding and the
// narrow TaskStore interface the plan consults; the store package owns
// hashing, tiering and eviction. The dependency points one way only — store
// imports query, never the reverse.

// TaskStore is the per-task result cache a Plan consults during execution:
// already keyed to one query's content hash, indexed by plan task index.
// GetTask returns the canonical encoded TaskResult bytes of a stored task
// (the trailing newline of the task line may be absent: a store may share
// the element inside a stored ResultSet body); PutTask stores freshly
// computed ones. Implementations must be safe for concurrent use; the
// returned bytes must not be mutated by either side.
// store.Store.Tasks produces one.
type TaskStore interface {
	GetTask(index int) ([]byte, bool)
	PutTask(index int, encoded []byte)
}

// Canonical returns the canonical byte encoding of the query — the exact
// bytes a content-addressed cache key hashes. Two queries with equal
// canonical bytes compute byte-identical results, because every field that
// can change result bytes is encoded and every field that cannot is
// normalized away:
//
//   - workers, params.workers and batch[i].workers are parallelism: results
//     are bit-identical at any worker count (the standing invariant), so
//     they are left out.
//   - trace is observability: traces carry measured wall times and are
//     excluded from byte-identity, so it is left out (traced queries must
//     not be served whole from a byte cache — the caller checks, see
//     internal/service).
//   - timeout_ms is scheduling: a query either completes with its full
//     deterministic result or fails, so it is left out.
//   - version 0 means "current": it is written as Version, which also keys
//     every entry to the wire version that produced it — a future version
//     bump invalidates the whole store instead of serving bytes across an
//     encoding change.
//
// The encoding is what encoding/json writes for the query with those fields
// zeroed (compact, HTML escaping off, struct field order, omitempty,
// wire.Float floats, trailing newline), written by append functions over
// encode.go's primitives. The second return is false when the query is not
// cacheable: a Direct query carries in-process inputs (interface-valued BER
// models, custom deployments) that have no wire form and therefore no
// canonical bytes.
func (q Query) Canonical() ([]byte, bool) {
	return q.AppendCanonical(nil)
}

// AppendCanonical appends the canonical encoding of q (see Canonical) to
// dst, so a caller hashing it can keep the bytes in a buffer of its own.
func (q *Query) AppendCanonical(dst []byte) ([]byte, bool) {
	if q.Direct != nil {
		return dst, false
	}
	b := appendInt(dst, `{"version":`, Version)
	b = appendString(append(b, `,"kind":`...), string(q.Kind))
	if q.Params != nil {
		b = appendParamsWire(append(b, `,"params":`...), q.Params)
	}
	if len(q.Batch) > 0 {
		b = append(b, `,"batch":[`...)
		for i := range q.Batch {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendParamsWire(b, &q.Batch[i])
		}
		b = append(b, ']')
	}
	if c := q.Config; c != nil {
		o := len(b)
		b = append(b, `,"config":{`...)
		b = appendOptInt(b, `,"nodes":`, c.Nodes)
		b = appendOptInt(b, `,"channels":`, c.Channels)
		b = appendOptFloat(b, `,"data_bytes_per_second":`, c.DataBytesPerSecond)
		b = appendOptFloat(b, `,"min_loss_db":`, c.MinLossDB)
		b = appendOptFloat(b, `,"max_loss_db":`, c.MaxLossDB)
		b = appendOptInt(b, `,"loss_grid_points":`, c.LossGridPoints)
		b = closeObject(b, o)
	}
	if s := q.Sim; s != nil {
		o := len(b)
		b = append(b, `,"sim":{`...)
		b = appendOptInt(b, `,"nodes":`, s.Nodes)
		b = appendOptInt(b, `,"payload_bytes":`, s.PayloadBytes)
		b = appendSuperframe(b, s.Superframe)
		b = appendOptString(b, `,"radio":`, s.Radio)
		b = appendOptFloat(b, `,"min_loss_db":`, s.MinLossDB)
		b = appendOptFloat(b, `,"max_loss_db":`, s.MaxLossDB)
		b = appendOptFloat(b, `,"target_prx_dbm":`, s.TargetPRxDBm)
		b = appendOptInt(b, `,"n_max":`, s.NMax)
		b = appendOptFloat(b, `,"transmit_prob":`, s.TransmitProb)
		b = appendOptInt(b, `,"superframes":`, s.Superframes)
		b = appendOptInt(b, `,"beacon_bytes":`, s.BeaconBytes)
		b = appendOptInt(b, `,"max_packet_superframes":`, s.MaxPacketSuperframes)
		b = appendOptBool(b, `,"low_power_listen":`, s.LowPowerListen)
		b = appendOptInt(b, `,"seed":`, s.Seed)
		b = closeObject(b, o)
	}
	if l := q.Lifetime; l != nil {
		o := len(b)
		b = append(b, `,"lifetime":{`...)
		b = appendOptString(b, `,"supply":`, l.Supply)
		b = appendOptFloat(b, `,"capacity_j":`, l.CapacityJ)
		b = appendOptFloat(b, `,"self_discharge_per_year":`, l.SelfDischargePerYear)
		b = appendOptFloat(b, `,"harvest_uw":`, l.HarvestUW)
		b = appendOptFloat(b, `,"threshold_j":`, l.ThresholdJ)
		b = appendOptFloat(b, `,"partition_frac":`, l.PartitionFrac)
		b = appendOptInt(b, `,"epoch_superframes":`, l.EpochSuperframes)
		b = appendOptInt(b, `,"max_epochs":`, l.MaxEpochs)
		b = appendOptFloat(b, `,"horizon_hours":`, l.HorizonHours)
		b = closeObject(b, o)
	}
	if a := q.Losses; a != nil {
		o := len(b)
		b = append(b, `,"losses":{`...)
		if len(a.Values) > 0 {
			b = appendFloats(b, `,"values":`, a.Values)
		}
		b = appendOptFloat(b, `,"from":`, a.From)
		b = appendOptFloat(b, `,"to":`, a.To)
		b = appendOptInt(b, `,"points":`, a.Points)
		b = appendOptFloat(b, `,"step":`, a.Step)
		b = closeObject(b, o)
	}
	b = appendIntAxis(b, `,"payloads":{`, q.Payloads)
	b = appendIntAxis(b, `,"bos":{`, q.BOs)
	b = appendIntAxis(b, `,"nodes":{`, q.Nodes)
	if q.Replicas != 0 {
		b = appendInt(b, `,"replicas":`, int64(q.Replicas))
	}
	b = appendOptString(b, `,"scenario":`, q.Scenario)
	if q.Diff {
		b = append(b, `,"diff":true`...)
	}
	b = appendOptString(b, `,"experiment":`, q.Experiment)
	if q.Quick {
		b = append(b, `,"quick":true`...)
	}
	b = appendOptInt(b, `,"seed":`, q.Seed)
	return append(b, "}\n"...), true
}

// appendParamsWire appends p without its workers field (see Canonical).
func appendParamsWire(b []byte, p *ParamsWire) []byte {
	o := len(b)
	b = append(b, '{')
	b = appendOptString(b, `,"radio":`, p.Radio)
	b = appendOptString(b, `,"ber":`, p.BER)
	if c := p.Contention; c != nil {
		oc := len(b)
		b = append(b, `,"contention":{`...)
		b = appendOptString(b, `,"source":`, c.Source)
		if c.Superframes != 0 {
			b = appendInt(b, `,"superframes":`, int64(c.Superframes))
		}
		b = appendOptInt(b, `,"seed":`, c.Seed)
		b = appendOptString(b, `,"arrival":`, c.Arrival)
		b = closeObject(b, oc)
	}
	b = appendSuperframe(b, p.Superframe)
	b = appendOptInt(b, `,"payload_bytes":`, p.PayloadBytes)
	b = appendOptFloat(b, `,"load":`, p.Load)
	b = appendOptFloat(b, `,"path_loss_db":`, p.PathLossDB)
	b = appendOptInt(b, `,"tx_level":`, p.TXLevel)
	b = appendOptInt(b, `,"n_max":`, p.NMax)
	b = appendOptInt(b, `,"beacon_bytes":`, p.BeaconBytes)
	b = appendOptInt(b, `,"wakeup_lead_ns":`, p.WakeupLead)
	b = appendOptInt(b, `,"cca_listen_ns":`, p.CCAListen)
	b = appendOptBool(b, `,"paper_ack_accounting":`, p.PaperAckAccounting)
	b = appendOptBool(b, `,"include_ifs":`, p.IncludeIFS)
	b = appendOptBool(b, `,"include_shutdown_leakage":`, p.IncludeShutdownLeakage)
	return closeObject(b, o)
}

func appendSuperframe(b []byte, s *SuperframeWire) []byte {
	if s == nil {
		return b
	}
	b = appendInt(b, `,"superframe":{"bo":`, int64(s.BO))
	return append(appendInt(b, `,"so":`, int64(s.SO)), '}')
}

func appendIntAxis(b []byte, key string, a *IntAxis) []byte {
	if a == nil {
		return b
	}
	o := len(b)
	b = append(b, key...)
	if len(a.Values) > 0 {
		b = appendInts(append(b, `,"values":`...), a.Values)
	}
	b = appendOptInt(b, `,"from":`, a.From)
	b = appendOptInt(b, `,"to":`, a.To)
	b = appendOptInt(b, `,"step":`, a.Step)
	return closeObject(b, o)
}

// closeObject closes the object whose members were appended from b[o:],
// each with a leading comma: the comma of its first member is dropped.
// b[o] is either the object's '{' or the comma of the member holding it.
func closeObject(b []byte, o int) []byte {
	open := o + bytes.IndexByte(b[o:], '{') + 1
	if open < len(b) && b[open] == ',' {
		b = append(b[:open], b[open+1:]...)
	}
	return append(b, '}')
}

func appendOptString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

func appendOptInt[T int | int64](b []byte, key string, v *T) []byte {
	if v == nil {
		return b
	}
	return appendInt(b, key, int64(*v))
}

func appendOptFloat(b []byte, key string, v *Float) []byte {
	if v == nil {
		return b
	}
	return appendFloat(b, key, *v)
}

func appendOptBool(b []byte, key string, v *bool) []byte {
	if v == nil {
		return b
	}
	return strconv.AppendBool(append(b, key...), *v)
}

// WireExact reports whether the kind's per-task wire payloads decode and
// re-encode byte-identically — the property that lets a stored TaskResult
// stand in for a freshly computed one anywhere (the same property
// Plan.Assemble leans on to merge distributed shards). The numeric payload
// kinds hold it by construction (wire.Float round-trips exactly); scenario
// and experiment embed foreign report types whose round-trip is not pinned,
// so their per-task results are never cached — only their whole-query
// response bytes are (which store the served bytes verbatim).
func (k Kind) WireExact() bool {
	switch k {
	case KindScenario, KindExperiment:
		return false
	}
	return true
}

// EncodeTaskResult renders one TaskResult in the canonical byte form stored
// by a TaskStore: the same compact, HTML-escaping-off encoding (with
// trailing newline) the streaming surfaces emit, so stored bytes are
// directly comparable to stream lines. A result from a store-attached plan
// returns the bytes its worker already encoded.
func EncodeTaskResult(tr TaskResult) ([]byte, error) {
	return tr.encodeLine()
}

// DecodeTaskResult parses canonical TaskResult bytes back. The decoded
// result carries wire payloads only (Value() is nil), which is why the
// assembly step reads a stored task from its wire payload.
func DecodeTaskResult(b []byte) (TaskResult, error) {
	var tr TaskResult
	if err := json.Unmarshal(b, &tr); err != nil {
		return TaskResult{}, err
	}
	return tr, nil
}

// storeEnabled reports whether task-level store consultation is on for this
// plan: a store is attached and the kind's payloads round-trip exactly.
func (p *Plan) storeEnabled() bool {
	return p.Store != nil && p.Kind.WireExact()
}

// taskFromStore fetches task index from the attached store. Undecodable
// entries are treated as misses — the store may hold truncated or corrupt
// bytes (crash mid-write on the disk tier); a wrong byte must never surface,
// so anything suspect is recomputed.
func (p *Plan) taskFromStore(index int) (TaskResult, bool) {
	if !p.storeEnabled() {
		return TaskResult{}, false
	}
	b, ok := p.Store.GetTask(index)
	if !ok {
		return TaskResult{}, false
	}
	tr, err := DecodeTaskResult(b)
	if err != nil {
		return TaskResult{}, false
	}
	return tr, true
}

// encodeTask encodes a finished task once, in the worker goroutine that
// produced it, when the plan has a store attached (the server paths, which
// always answer with bytes): the line is kept on the result for
// ResultSet.Encode and the stream, and a computed (not hit) result of a
// WireExact kind is stored. A stored result is re-encoded rather than
// trusted, so a served byte is always the encoder's. Encoding failures just
// leave the result unencoded: Encode then reports them, and caching is an
// optimization, never a correctness dependency.
func (p *Plan) encodeTask(tr *TaskResult, hit bool) {
	if p.Store == nil {
		return
	}
	b, err := tr.encodeLine()
	if err != nil {
		return
	}
	tr.encoded = b
	if !hit && p.storeEnabled() {
		p.Store.PutTask(tr.Index, b)
	}
}

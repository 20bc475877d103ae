package query

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"dense802154/internal/wire"
)

// This file is the result encoder: hand-written append functions that emit
// exactly the bytes encoding/json would (compact, HTML escaping off, struct
// field order, omitempty, nil slices as null, wire.Float through
// wire.AppendFloat), without reflection. Every result type of the package is
// encoded here; the one exception is the scenario and experiment payloads,
// which embed foreign report types and go through appendForeign. The
// byte-identity tests in encode_test.go compare every function against a
// reflective reference.

// appendTaskResult appends the canonical encoding of tr to dst, without the
// trailing newline. Only the foreign scenario/experiment payloads can fail.
func appendTaskResult(dst []byte, tr *TaskResult) ([]byte, error) {
	b := strconv.AppendInt(append(dst, `{"index":`...), int64(tr.Index), 10)
	if tr.Label != "" {
		b = appendString(append(b, `,"label":`...), tr.Label)
	}
	if tr.Metrics != nil {
		b = appendMetrics(append(b, `,"metrics":`...), tr.Metrics)
	}
	if tr.CaseStudy != nil {
		b = appendCaseStudy(append(b, `,"casestudy":`...), tr.CaseStudy)
	}
	if len(tr.Curves) > 0 {
		b = append(b, `,"curves":[`...)
		for i := range tr.Curves {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendEnergyCurve(b, &tr.Curves[i])
		}
		b = append(b, ']')
	}
	if len(tr.Thresholds) > 0 {
		b = append(b, `,"thresholds":[`...)
		for i := range tr.Thresholds {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendThreshold(b, &tr.Thresholds[i])
		}
		b = append(b, ']')
	}
	if tr.Payload != nil {
		b = appendInts(append(b, `,"payload":{"sizes_bytes":`...), tr.Payload.SizesBytes)
		b = append(appendFloats(b, `,"energy_j_per_bit":`, tr.Payload.EnergyJ), '}')
	}
	if tr.Sim != nil {
		b = appendSimResult(append(b, `,"sim":`...), tr.Sim)
	}
	if tr.Lifetime != nil {
		b = appendLifetimeResult(append(b, `,"lifetime":`...), tr.Lifetime)
	}
	var err error
	if tr.Scenario != nil {
		if b, err = appendForeign(append(b, `,"scenario":`...), tr.Scenario); err != nil {
			return dst, err
		}
	}
	if tr.Experiment != nil {
		if b, err = appendForeign(append(b, `,"experiment":`...), tr.Experiment); err != nil {
			return dst, err
		}
	}
	return append(b, '}'), nil
}

// encodeLine returns the canonical NDJSON line of tr (trailing newline
// included): the bytes its plan already encoded when there are any, a fresh
// encoding otherwise.
func (tr *TaskResult) encodeLine() ([]byte, error) {
	if tr.encoded != nil {
		return tr.encoded, nil
	}
	b, err := appendTaskResult(make([]byte, 0, sizeHint(tr)), tr)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// appendResultSet appends the canonical encoding of rs (trailing newline
// included), splicing the per-task bytes the plan already encoded. A non-nil
// spans collects where each task element landed in the output.
func appendResultSet(b []byte, rs *ResultSet, spans *[]TaskSpan) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"version":`...), int64(rs.Version), 10)
	b = appendString(append(b, `,"kind":`...), string(rs.Kind))
	if rs.Results == nil {
		b = append(b, `,"results":null`...)
	} else {
		b = append(b, `,"results":[`...)
		for i := range rs.Results {
			if i > 0 {
				b = append(b, ',')
			}
			tr := &rs.Results[i]
			start := len(b)
			if tr.encoded != nil {
				b = append(b, tr.encoded[:len(tr.encoded)-1]...)
			} else {
				var err error
				if b, err = appendTaskResult(b, tr); err != nil {
					return nil, err
				}
			}
			if spans != nil {
				*spans = append(*spans, TaskSpan{Index: tr.Index, Start: start, End: len(b)})
			}
		}
		b = append(b, ']')
	}
	return append(appendSummaries(b, rs), "}\n"...), nil
}

// AppendStreamDone appends the final NDJSON line of a streamed query (done,
// the streamed task count, the replica or lifetime summary and the trace of
// rs, trailing newline included).
func AppendStreamDone(b []byte, count int, rs *ResultSet) []byte {
	b = strconv.AppendInt(append(b, `{"done":true,"count":`...), int64(count), 10)
	return append(appendSummaries(b, rs), "}\n"...)
}

// AppendStreamReplay appends the NDJSON stream of a stored ResultSet body,
// byte for byte what /v2/query/stream writes for a fresh execution of its
// query: each task element spans locates (ResultSet.EncodeSpans,
// ResultSpans) as a line, then the done line — whose count is the number of
// elements, and whose summaries are the body's own bytes after the results
// array (appendSummaries wrote both). ok is false when spans do not end at
// the close of a results array.
func AppendStreamReplay(dst, body []byte, spans []TaskSpan) ([]byte, bool) {
	n := len(spans)
	if n == 0 || !bytes.HasSuffix(body, []byte("}\n")) {
		return dst, false
	}
	tail := spans[n-1].End
	if tail < 0 || tail >= len(body)-2 || body[tail] != ']' {
		return dst, false
	}
	for _, sp := range spans {
		if sp.Start < 0 || sp.Start > sp.End || sp.End > tail {
			return dst, false
		}
		dst = append(append(dst, body[sp.Start:sp.End]...), '\n')
	}
	dst = strconv.AppendInt(append(dst, `{"done":true,"count":`...), int64(n), 10)
	return append(dst, body[tail+1:]...), true
}

// appendSummaries appends the optional summary, lifetime_summary and trace
// members shared by the ResultSet and the stream done line.
func appendSummaries(b []byte, rs *ResultSet) []byte {
	if s := rs.Summary; s != nil {
		b = appendSeeds(append(b, `,"summary":{"replicas":`...), s.Replicas, s.Seeds)
		b = appendReplicaStat(b, `,"avg_power_uw":`, &s.AvgPowerUW)
		b = appendReplicaStat(b, `,"delivery_ratio":`, &s.DeliveryRatio)
		b = appendReplicaStat(b, `,"pr_fail":`, &s.PrFail)
		b = appendReplicaStat(b, `,"pr_cf":`, &s.PrCF)
		b = appendReplicaStat(b, `,"pr_col":`, &s.PrCol)
		b = appendReplicaStat(b, `,"ncca":`, &s.NCCA)
		b = appendReplicaStat(b, `,"tcont_ms":`, &s.TcontMS)
		b = append(appendReplicaStat(b, `,"mean_delay_ms":`, &s.MeanDelayMS), '}')
	}
	if s := rs.LifetimeSummary; s != nil {
		b = appendSeeds(append(b, `,"lifetime_summary":{"replicas":`...), s.Replicas, s.Seeds)
		b = appendReplicaStat(b, `,"first_death_hours":`, &s.FirstDeathHours)
		b = appendReplicaStat(b, `,"partition_hours":`, &s.PartitionHours)
		b = appendReplicaStat(b, `,"last_death_hours":`, &s.LastDeathHours)
		b = append(appendReplicaStat(b, `,"alive_frac_at_end":`, &s.AliveFracAtEnd), '}')
	}
	if t := rs.Trace; t != nil {
		b = appendString(append(b, `,"trace":{"kind":`...), string(t.Kind))
		b = appendInt(b, `,"workers":`, int64(t.Workers))
		b = appendInt(b, `,"tasks":`, int64(t.Tasks))
		b = appendFloat(b, `,"wall_ms":`, t.WallMS)
		if t.Spans == nil {
			b = append(b, `,"spans":null}`...)
		} else {
			b = append(b, `,"spans":[`...)
			for i := range t.Spans {
				sp := &t.Spans[i]
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(append(b, `{"index":`...), int64(sp.Index), 10)
				b = appendString(append(b, `,"label":`...), sp.Label)
				if sp.Seed != nil {
					b = appendInt(b, `,"seed":`, *sp.Seed)
				}
				b = append(appendFloat(b, `,"wall_ms":`, sp.WallMS), '}')
			}
			b = append(b, "]}"...)
		}
	}
	return b
}

// appendSeeds appends the replicas count and seeds list that open both
// summary blocks.
func appendSeeds(b []byte, replicas int, seeds []int64) []byte {
	b = strconv.AppendInt(b, int64(replicas), 10)
	b = append(b, `,"seeds":`...)
	if seeds == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range seeds {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, s, 10)
	}
	return append(b, ']')
}

func appendReplicaStat(b []byte, key string, s *ReplicaStatWire) []byte {
	b = appendFloat(append(b, key...), `{"mean":`, s.Mean)
	b = appendFloat(b, `,"ci95":`, s.CI95)
	b = appendFloat(b, `,"min":`, s.Min)
	return append(appendFloat(b, `,"max":`, s.Max), '}')
}

func appendMetrics(b []byte, m *MetricsWire) []byte {
	b = appendInt(b, `{"tx_level_index":`, int64(m.TXLevelIndex))
	b = appendFloat(b, `,"tx_power_dbm":`, m.TXPowerDBm)
	b = appendFloat(b, `,"prx_dbm":`, m.PRxDBm)
	b = appendInt(b, `,"tpacket_ns":`, m.TpacketNS)
	b = appendContStats(append(b, `,"contention":`...), &m.Cont)
	b = appendFloat(b, `,"pr_bit":`, m.PrBit)
	b = appendFloat(b, `,"pr_e":`, m.PrE)
	b = appendFloat(b, `,"pr_tf":`, m.PrTF)
	b = appendFloat(b, `,"pr_cf":`, m.PrCF)
	b = appendFloat(b, `,"expected_tx":`, m.ExpectedTx)
	b = appendInt(b, `,"tidle_ns":`, m.TidleNS)
	b = appendInt(b, `,"ttx_ns":`, m.TTxNS)
	b = appendInt(b, `,"trx_ns":`, m.TRxNS)
	b = appendStateTimes(append(b, `,"states":`...), &m.States)
	b = appendFloat(b, `,"avg_power_w":`, m.AvgPowerW)
	b = appendFloat(b, `,"energy_per_frame_j":`, m.EnergyPerFrameJ)
	b = appendFloat(b, `,"pr_fail":`, m.PrFail)
	b = appendInt(b, `,"delay_ns":`, m.DelayNS)
	b = appendFloat(b, `,"energy_per_bit_j":`, m.EnergyPerBitJ)
	return append(appendBreakdown(append(b, `,"breakdown":`...), &m.Breakdown), '}')
}

func appendContStats(b []byte, c *ContStatsWire) []byte {
	b = appendInt(b, `{"tcont_ns":`, c.TcontNS)
	b = appendFloat(b, `,"ncca":`, c.NCCA)
	b = appendFloat(b, `,"pr_cf":`, c.PrCF)
	return append(appendFloat(b, `,"pr_col":`, c.PrCol), '}')
}

func appendStateTimes(b []byte, s *StateTimesWire) []byte {
	b = appendInt(b, `{"shutdown_ns":`, s.ShutdownNS)
	b = appendInt(b, `,"idle_ns":`, s.IdleNS)
	b = appendInt(b, `,"rx_ns":`, s.RXNS)
	return append(appendInt(b, `,"tx_ns":`, s.TXNS), '}')
}

func appendBreakdown(b []byte, d *BreakdownWire) []byte {
	b = appendFloat(b, `{"beacon_j":`, d.BeaconJ)
	b = appendFloat(b, `,"contention_j":`, d.ContentionJ)
	b = appendFloat(b, `,"transmit_j":`, d.TransmitJ)
	b = appendFloat(b, `,"ack_j":`, d.AckJ)
	b = appendFloat(b, `,"ifs_j":`, d.IFSJ)
	return append(appendFloat(b, `,"sleep_j":`, d.SleepJ), '}')
}

func appendCaseStudy(b []byte, r *CaseStudyResultWire) []byte {
	b = appendFloat(b, `{"load":`, r.Load)
	b = appendFloat(b, `,"avg_power_w":`, r.AvgPowerW)
	b = appendFloat(b, `,"mean_pr_fail":`, r.MeanPrFail)
	b = appendFloat(b, `,"coverage":`, r.Coverage)
	b = appendInt(b, `,"mean_delay_ns":`, r.MeanDelayNS)
	b = appendInt(b, `,"median_delay_ns":`, r.MedianDelay)
	b = appendInt(b, `,"nominal_delay_ns":`, r.NominalDelay)
	b = appendFloat(b, `,"mean_energy_j_per_bit":`, r.MeanEnergyJ)
	b = appendBreakdown(append(b, `,"breakdown":`...), &r.Breakdown)
	b = appendStateTimes(append(b, `,"states":`...), &r.States)
	b = appendFloats(b, `,"loss_grid_db":`, r.LossGrid)
	b = appendFloats(b, `,"power_uw":`, r.PowerUW)
	b = appendFloats(b, `,"pr_fail":`, r.PrFail)
	return append(appendInts(append(b, `,"level_used":`...), r.LevelUsed), '}')
}

func appendEnergyCurve(b []byte, c *EnergyCurveWire) []byte {
	b = appendInt(b, `{"level_index":`, int64(c.LevelIndex))
	b = appendFloat(b, `,"level_dbm":`, c.LevelDBm)
	b = appendFloats(b, `,"loss_db":`, c.LossDB)
	return append(appendFloats(b, `,"energy_j_per_bit":`, c.EnergyJ), '}')
}

func appendThreshold(b []byte, t *ThresholdWire) []byte {
	b = appendInt(b, `{"from_level":`, int64(t.FromLevel))
	b = appendInt(b, `,"to_level":`, int64(t.ToLevel))
	b = appendFloat(b, `,"from_dbm":`, t.FromDBm)
	b = appendFloat(b, `,"to_dbm":`, t.ToDBm)
	return append(appendFloat(b, `,"loss_db":`, t.LossDB), '}')
}

func appendSimResult(b []byte, r *SimResultWire) []byte {
	b = appendInt(b, `{"seed":`, r.Seed)
	b = appendFloat(b, `,"avg_power_w":`, r.AvgPowerW)
	b = appendFloat(b, `,"delivery_ratio":`, r.DeliveryRatio)
	b = appendFloat(b, `,"pr_fail_per_attempt":`, r.PrFailPerAttempt)
	b = appendInt(b, `,"packets_offered":`, int64(r.PacketsOffered))
	b = appendInt(b, `,"packets_delivered":`, int64(r.PacketsDelivered))
	b = appendInt(b, `,"packets_dropped":`, int64(r.PacketsDropped))
	b = appendInt(b, `,"packets_expired":`, int64(r.PacketsExpired))
	b = appendInt(b, `,"transmissions":`, int64(r.Transmissions))
	b = appendInt(b, `,"collisions":`, int64(r.Collisions))
	b = appendInt(b, `,"access_failures":`, int64(r.AccessFailures))
	b = appendInt(b, `,"corrupted_frames":`, int64(r.CorruptedFrames))
	b = appendInt(b, `,"mean_delay_ns":`, r.MeanDelayNS)
	b = appendInt(b, `,"p95_delay_ns":`, r.P95DelayNS)
	return append(appendContStats(append(b, `,"contention":`...), &r.Contention), '}')
}

func appendLifetimeResult(b []byte, r *LifetimeResultWire) []byte {
	b = appendInt(b, `{"seed":`, r.Seed)
	b = appendInt(b, `,"nodes":`, int64(r.Nodes))
	b = appendFloat(b, `,"first_death_s":`, r.FirstDeathS)
	b = appendFloat(b, `,"partition_s":`, r.PartitionS)
	b = appendFloat(b, `,"last_death_s":`, r.LastDeathS)
	b = appendInt(b, `,"alive_at_end":`, int64(r.AliveAtEnd))
	b = appendFloat(b, `,"alive_frac_at_end":`, r.AliveFracAtEnd)
	b = appendInt(b, `,"deaths":`, int64(r.Deaths))
	b = appendFloat(b, `,"simulated_s":`, r.SimulatedS)
	b = appendFloat(b, `,"fast_forward_s":`, r.FastForwardS)
	b = appendInt(b, `,"epochs":`, int64(r.Epochs))
	b = strconv.AppendBool(append(b, `,"sustainable":`...), r.Sustainable)
	if r.Curve == nil {
		return append(b, `,"curve":null}`...)
	}
	b = append(b, `,"curve":[`...)
	for i, p := range r.Curve {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, `{"time_s":`, p.TimeS)
		b = append(appendInt(b, `,"alive":`, int64(p.Alive)), '}')
	}
	return append(b, "]}"...)
}

// appendForeign encodes a payload embedding foreign report types the way
// encoding/json would inside the enclosing object: HTML escaping off, the
// encoder's trailing newline dropped.
func appendForeign(b []byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return append(b, bytes.TrimSuffix(buf.Bytes(), []byte("\n"))...), nil
}

func appendFloat(b []byte, key string, v Float) []byte {
	return wire.AppendFloat(append(b, key...), float64(v))
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendFloats appends key and xs as a JSON array (null when nil).
func appendFloats(b []byte, key string, xs []Float) []byte {
	b = append(b, key...)
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = wire.AppendFloat(b, float64(x))
	}
	return append(b, ']')
}

// appendInts appends xs as a JSON array (null when nil).
func appendInts(b []byte, xs []int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json does with
// HTML escaping off: `"` and `\` and control bytes escaped (\b \f \n \r \t
// by name, the rest as \u00XX), U+2028/U+2029 escaped, and every invalid
// UTF-8 byte replaced by the escape \ufffd.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// sizeHint bounds the encoded size of the numeric payloads of tr, so one
// allocation usually holds the whole line (25 bytes covers any float or
// int64 plus its separator).
func sizeHint(tr *TaskResult) int {
	n := 64 + len(tr.Label)
	if tr.Metrics != nil {
		n += 1024
	}
	if r := tr.CaseStudy; r != nil {
		n += 768 + 25*(len(r.LossGrid)+len(r.PowerUW)+len(r.PrFail)) + 4*len(r.LevelUsed)
	}
	for i := range tr.Curves {
		n += 96 + 25*(len(tr.Curves[i].LossDB)+len(tr.Curves[i].EnergyJ))
	}
	n += 128 * len(tr.Thresholds)
	if p := tr.Payload; p != nil {
		n += 64 + 8*len(p.SizesBytes) + 25*len(p.EnergyJ)
	}
	if tr.Sim != nil {
		n += 640
	}
	if l := tr.Lifetime; l != nil {
		n += 448 + 48*len(l.Curve)
	}
	return n
}

package query

import (
	"bytes"
	"errors"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"

	"dense802154/internal/radio"
	"dense802154/internal/wire"
)

// This file is the request decoder, the twin of encode.go: a hand-written
// strict decoder of the Query wire form. It accepts exactly the bodies
// encoding/json accepts into a Query with unknown fields disallowed and
// nothing but whitespace after the value, and builds the same value,
// without reflection. The encoding/json rules it reproduces:
//
//   - A field name matches exactly, else case-insensitively as
//     bytes.EqualFold does; a name matching no field is an error.
//   - A repeated field decodes into the value already there: a second
//     object merges into the first, and a second array decodes into the
//     first array's elements (reusing its backing array) before it is cut
//     to the new length. An empty array is a non-nil empty slice.
//   - null sets a pointer or slice to nil and leaves any other value
//     unchanged, except a wire.Float, which does not take null.
//   - Integer fields reject fractions, exponents and overflow; uint8
//     fields also reject a sign.
//   - wire.Float fields take a number or a string, both read by
//     wire.ParseFloat.
//   - Strings decode their escapes (an unpaired surrogate becomes U+FFFD),
//     and every invalid UTF-8 byte becomes U+FFFD.
//
// Its only caller on the server is the /v2/query pair of routes;
// FuzzQueryDecode (internal/service) runs it against encoding/json on every
// input. ResultSpans reuses its scanner to locate the task elements of a
// stored ResultSet body.

// maxDepth bounds the nesting a skip-value scan follows (encoding/json's
// limit). The typed decoder nests at most four levels by construction.
const maxDepth = 10000

// errTrailing is the error of a body with data after its value.
var errTrailing = errors.New("trailing data after JSON body")

// decoder is a cursor over one JSON document. The first error stops every
// later step: each method returns at once while err is set.
type decoder struct {
	data  []byte
	off   int
	err   error
	field string // the member being decoded, for error messages
	depth int    // skip-value nesting
	buf   []byte // unquoted bytes of a string with escapes or bad UTF-8
}

// DecodeQuery decodes a /v2/query request body. An empty or whitespace-only
// body is the zero Query. See the file comment for the accepted set.
func DecodeQuery(data []byte) (Query, error) {
	var q Query
	d := decoder{data: data}
	if d.ws(); d.off == len(data) {
		return q, nil
	}
	decQuery(&d, &q)
	d.end()
	return q, d.err
}

// ResultSpans locates the task elements of an encoded ResultSet body: the
// spans ResultSet.EncodeSpans records while writing it, recovered by a
// skip-value scan. A span's Index is the element's position, which is its
// task's plan index (results are in plan order). It is how a body read back
// without its spans (the store's disk tier) is replayed as a stream. The
// slice is non-nil on success.
func ResultSpans(body []byte) ([]TaskSpan, error) {
	d := decoder{data: body}
	spans := []TaskSpan{}
	d.object(func(key []byte) bool {
		switch string(key) {
		case "version", "kind", "summary", "lifetime_summary", "trace":
			d.skip()
			return true
		case "results":
		default:
			return false
		}
		if d.null() || !d.open('[', "an array") || d.closes(']') {
			return true
		}
		for d.err == nil {
			start := d.off
			d.skip()
			spans = append(spans, TaskSpan{Index: len(spans), Start: start, End: d.off})
			if !d.next(']') {
				break
			}
		}
		return true
	})
	d.end()
	if d.err != nil {
		return nil, d.err
	}
	return spans, nil
}

// member decodes the JSON member name of a T. Each decoded type has one
// table of them, in struct order; TestDecodeFieldTables pins every table to
// its struct's json tags, so a new wire field cannot be left out.
type member[T any] struct {
	name string
	dec  func(*decoder, *T)
}

var queryMembers = []member[Query]{
	{"version", func(d *decoder, q *Query) { decInt(d, &q.Version) }},
	{"kind", func(d *decoder, q *Query) { decString(d, (*string)(&q.Kind)) }},
	{"params", func(d *decoder, q *Query) { decPtr(d, &q.Params, decParams) }},
	{"batch", func(d *decoder, q *Query) { decSlice(d, &q.Batch, decParams) }},
	{"config", func(d *decoder, q *Query) { decPtr(d, &q.Config, decCaseStudyConfig) }},
	{"sim", func(d *decoder, q *Query) { decPtr(d, &q.Sim, decSimConfig) }},
	{"lifetime", func(d *decoder, q *Query) { decPtr(d, &q.Lifetime, decLifetime) }},
	{"losses", func(d *decoder, q *Query) { decPtr(d, &q.Losses, decAxis) }},
	{"payloads", func(d *decoder, q *Query) { decPtr(d, &q.Payloads, decIntAxis) }},
	{"bos", func(d *decoder, q *Query) { decPtr(d, &q.BOs, decIntAxis) }},
	{"nodes", func(d *decoder, q *Query) { decPtr(d, &q.Nodes, decIntAxis) }},
	{"replicas", func(d *decoder, q *Query) { decInt(d, &q.Replicas) }},
	{"scenario", func(d *decoder, q *Query) { decString(d, &q.Scenario) }},
	{"diff", func(d *decoder, q *Query) { decBool(d, &q.Diff) }},
	{"experiment", func(d *decoder, q *Query) { decString(d, &q.Experiment) }},
	{"quick", func(d *decoder, q *Query) { decBool(d, &q.Quick) }},
	{"seed", func(d *decoder, q *Query) { decPtr(d, &q.Seed, decInt[int64]) }},
	{"workers", func(d *decoder, q *Query) { decInt(d, &q.Workers) }},
	{"trace", func(d *decoder, q *Query) { decBool(d, &q.Trace) }},
	{"timeout_ms", func(d *decoder, q *Query) { decInt(d, &q.TimeoutMS) }},
}

var paramsMembers = []member[ParamsWire]{
	{"radio", func(d *decoder, p *ParamsWire) { decString(d, &p.Radio) }},
	{"ber", func(d *decoder, p *ParamsWire) { decString(d, &p.BER) }},
	{"contention", func(d *decoder, p *ParamsWire) { decPtr(d, &p.Contention, decContention) }},
	{"superframe", func(d *decoder, p *ParamsWire) { decPtr(d, &p.Superframe, decSuperframe) }},
	{"payload_bytes", func(d *decoder, p *ParamsWire) { decPtr(d, &p.PayloadBytes, decInt[int]) }},
	{"load", func(d *decoder, p *ParamsWire) { decPtr(d, &p.Load, decFloat) }},
	{"path_loss_db", func(d *decoder, p *ParamsWire) { decPtr(d, &p.PathLossDB, decFloat) }},
	{"tx_level", func(d *decoder, p *ParamsWire) { decPtr(d, &p.TXLevel, decInt[int]) }},
	{"n_max", func(d *decoder, p *ParamsWire) { decPtr(d, &p.NMax, decInt[int]) }},
	{"beacon_bytes", func(d *decoder, p *ParamsWire) { decPtr(d, &p.BeaconBytes, decInt[int]) }},
	{"wakeup_lead_ns", func(d *decoder, p *ParamsWire) { decPtr(d, &p.WakeupLead, decInt[int64]) }},
	{"cca_listen_ns", func(d *decoder, p *ParamsWire) { decPtr(d, &p.CCAListen, decInt[int64]) }},
	{"paper_ack_accounting", func(d *decoder, p *ParamsWire) { decPtr(d, &p.PaperAckAccounting, decBool) }},
	{"include_ifs", func(d *decoder, p *ParamsWire) { decPtr(d, &p.IncludeIFS, decBool) }},
	{"include_shutdown_leakage", func(d *decoder, p *ParamsWire) { decPtr(d, &p.IncludeShutdownLeakage, decBool) }},
	{"workers", func(d *decoder, p *ParamsWire) { decInt(d, &p.Workers) }},
}

var contentionMembers = []member[ContentionWire]{
	{"source", func(d *decoder, c *ContentionWire) { decString(d, &c.Source) }},
	{"superframes", func(d *decoder, c *ContentionWire) { decInt(d, &c.Superframes) }},
	{"seed", func(d *decoder, c *ContentionWire) { decPtr(d, &c.Seed, decInt[int64]) }},
	{"arrival", func(d *decoder, c *ContentionWire) { decString(d, &c.Arrival) }},
}

var superframeMembers = []member[SuperframeWire]{
	{"bo", func(d *decoder, s *SuperframeWire) { decInt(d, &s.BO) }},
	{"so", func(d *decoder, s *SuperframeWire) { decInt(d, &s.SO) }},
}

var caseStudyMembers = []member[CaseStudyConfigWire]{
	{"nodes", func(d *decoder, c *CaseStudyConfigWire) { decPtr(d, &c.Nodes, decInt[int]) }},
	{"channels", func(d *decoder, c *CaseStudyConfigWire) { decPtr(d, &c.Channels, decInt[int]) }},
	{"data_bytes_per_second", func(d *decoder, c *CaseStudyConfigWire) { decPtr(d, &c.DataBytesPerSecond, decFloat) }},
	{"min_loss_db", func(d *decoder, c *CaseStudyConfigWire) { decPtr(d, &c.MinLossDB, decFloat) }},
	{"max_loss_db", func(d *decoder, c *CaseStudyConfigWire) { decPtr(d, &c.MaxLossDB, decFloat) }},
	{"loss_grid_points", func(d *decoder, c *CaseStudyConfigWire) { decPtr(d, &c.LossGridPoints, decInt[int]) }},
}

var simMembers = []member[SimConfigWire]{
	{"nodes", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.Nodes, decInt[int]) }},
	{"payload_bytes", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.PayloadBytes, decInt[int]) }},
	{"superframe", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.Superframe, decSuperframe) }},
	{"radio", func(d *decoder, s *SimConfigWire) { decString(d, &s.Radio) }},
	{"min_loss_db", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.MinLossDB, decFloat) }},
	{"max_loss_db", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.MaxLossDB, decFloat) }},
	{"target_prx_dbm", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.TargetPRxDBm, decFloat) }},
	{"n_max", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.NMax, decInt[int]) }},
	{"transmit_prob", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.TransmitProb, decFloat) }},
	{"superframes", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.Superframes, decInt[int]) }},
	{"beacon_bytes", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.BeaconBytes, decInt[int]) }},
	{"max_packet_superframes", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.MaxPacketSuperframes, decInt[int]) }},
	{"low_power_listen", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.LowPowerListen, decBool) }},
	{"seed", func(d *decoder, s *SimConfigWire) { decPtr(d, &s.Seed, decInt[int64]) }},
}

var lifetimeMembers = []member[LifetimeWire]{
	{"supply", func(d *decoder, l *LifetimeWire) { decString(d, &l.Supply) }},
	{"capacity_j", func(d *decoder, l *LifetimeWire) { decPtr(d, &l.CapacityJ, decFloat) }},
	{"self_discharge_per_year", func(d *decoder, l *LifetimeWire) { decPtr(d, &l.SelfDischargePerYear, decFloat) }},
	{"harvest_uw", func(d *decoder, l *LifetimeWire) { decPtr(d, &l.HarvestUW, decFloat) }},
	{"threshold_j", func(d *decoder, l *LifetimeWire) { decPtr(d, &l.ThresholdJ, decFloat) }},
	{"partition_frac", func(d *decoder, l *LifetimeWire) { decPtr(d, &l.PartitionFrac, decFloat) }},
	{"epoch_superframes", func(d *decoder, l *LifetimeWire) { decPtr(d, &l.EpochSuperframes, decInt[int]) }},
	{"max_epochs", func(d *decoder, l *LifetimeWire) { decPtr(d, &l.MaxEpochs, decInt[int]) }},
	{"horizon_hours", func(d *decoder, l *LifetimeWire) { decPtr(d, &l.HorizonHours, decFloat) }},
}

var axisMembers = []member[Axis]{
	{"values", func(d *decoder, a *Axis) { decSlice(d, &a.Values, decFloat) }},
	{"from", func(d *decoder, a *Axis) { decPtr(d, &a.From, decFloat) }},
	{"to", func(d *decoder, a *Axis) { decPtr(d, &a.To, decFloat) }},
	{"points", func(d *decoder, a *Axis) { decPtr(d, &a.Points, decInt[int]) }},
	{"step", func(d *decoder, a *Axis) { decPtr(d, &a.Step, decFloat) }},
}

var intAxisMembers = []member[IntAxis]{
	{"values", func(d *decoder, a *IntAxis) { decSlice(d, &a.Values, decInt[int]) }},
	{"from", func(d *decoder, a *IntAxis) { decPtr(d, &a.From, decInt[int]) }},
	{"to", func(d *decoder, a *IntAxis) { decPtr(d, &a.To, decInt[int]) }},
	{"step", func(d *decoder, a *IntAxis) { decPtr(d, &a.Step, decInt[int]) }},
}

func decQuery(d *decoder, q *Query)                         { decObject(d, q, queryMembers) }
func decParams(d *decoder, p *ParamsWire)                   { decObject(d, p, paramsMembers) }
func decContention(d *decoder, c *ContentionWire)           { decObject(d, c, contentionMembers) }
func decSuperframe(d *decoder, s *SuperframeWire)           { decObject(d, s, superframeMembers) }
func decCaseStudyConfig(d *decoder, c *CaseStudyConfigWire) { decObject(d, c, caseStudyMembers) }
func decSimConfig(d *decoder, s *SimConfigWire)             { decObject(d, s, simMembers) }
func decLifetime(d *decoder, l *LifetimeWire)               { decObject(d, l, lifetimeMembers) }
func decAxis(d *decoder, a *Axis)                           { decObject(d, a, axisMembers) }
func decIntAxis(d *decoder, a *IntAxis)                     { decObject(d, a, intAxisMembers) }

// decObject decodes a JSON object into v, member by member; null leaves v
// unchanged.
func decObject[T any](d *decoder, v *T, members []member[T]) {
	d.object(func(key []byte) bool {
		m := matchMember(key, members)
		if m == nil {
			return false
		}
		d.field = m.name
		m.dec(d, v)
		return true
	})
}

// matchMember returns the member key selects — an exact name match, else
// a case-insensitive one — or nil.
func matchMember[T any](key []byte, members []member[T]) *member[T] {
	for i := range members {
		if string(key) == members[i].name {
			return &members[i]
		}
	}
	for i := range members {
		if bytes.EqualFold(key, []byte(members[i].name)) {
			return &members[i]
		}
	}
	return nil
}

// decPtr decodes into *p, allocating it on first use; null sets it to nil.
func decPtr[T any](d *decoder, p **T, dec func(*decoder, *T)) {
	if d.null() {
		*p = nil
		return
	}
	if d.err != nil {
		return
	}
	if *p == nil {
		*p = new(T)
	}
	dec(d, *p)
}

// decSlice decodes an array into *s element by element, reusing the
// elements and backing array already there; null sets *s to nil.
func decSlice[T any](d *decoder, s *[]T, dec func(*decoder, *T)) {
	if d.null() {
		*s = nil
		return
	}
	if !d.open('[', "an array") {
		return
	}
	v, i := *s, 0
	if cap(v) == 0 {
		v = make([]T, 0, d.elements())
	}
	if !d.closes(']') {
		for d.err == nil {
			if i == len(v) {
				if i < cap(v) {
					v = v[:i+1]
				} else {
					var zero T
					v = append(v, zero)
				}
			}
			dec(d, &v[i])
			i++
			if !d.next(']') {
				break
			}
		}
	}
	if d.err != nil {
		return
	}
	if i == 0 {
		*s = make([]T, 0)
		return
	}
	*s = v[:i]
}

// decInt decodes an integer field as encoding/json does: strconv.ParseInt,
// or for uint8 ParseUint, which rejects any sign ("-0" too), then the
// type's range. null leaves the field unchanged.
func decInt[T int | int64 | uint8](d *decoder, dst *T) {
	switch c := d.peek(); {
	case d.err != nil:
	case c == 'n':
		d.literal("null")
	case c == '-' || isDigit(c):
		tok := d.number()
		if d.err != nil {
			return
		}
		var zero T
		unsigned := zero-1 > zero
		v, ok := parseInt(tok)
		if !ok || int64(T(v)) != v || unsigned && tok[0] == '-' {
			d.typeErr("number "+string(tok), "an integer in range")
			return
		}
		*dst = T(v)
	default:
		d.typeErr(d.kindAt(), "an integer")
	}
}

// decFloat decodes a wire.Float: a number or a string, read by
// wire.ParseFloat. Unlike the other scalars it takes no null.
func decFloat(d *decoder, dst *Float) {
	var text []byte
	switch c := d.peek(); {
	case d.err != nil:
		return
	case c == '"':
		text = d.str()
	case c == '-' || isDigit(c):
		text = d.number()
	default:
		d.typeErr(d.kindAt(), "a number or a float string")
		return
	}
	if d.err != nil {
		return
	}
	v, err := wire.ParseFloat(string(text))
	if err != nil {
		d.fail(fmt.Errorf("field %q: invalid float %q", d.field, text))
		return
	}
	*dst = Float(v)
}

// decBool decodes a boolean field; null leaves it unchanged.
func decBool(d *decoder, dst *bool) {
	if d.err != nil {
		return
	}
	switch d.peek() {
	case 'n':
		d.literal("null")
	case 't':
		if d.literal("true") {
			*dst = true
		}
	case 'f':
		if d.literal("false") {
			*dst = false
		}
	default:
		d.typeErr(d.kindAt(), "a boolean")
	}
}

// decString decodes a string field; null leaves it unchanged.
func decString(d *decoder, dst *string) {
	if d.err != nil {
		return
	}
	switch d.peek() {
	case 'n':
		d.literal("null")
	case '"':
		if s := d.str(); d.err == nil {
			*dst = intern(s)
		}
	default:
		d.typeErr(d.kindAt(), "a string")
	}
}

// vocabulary holds the names the wire format fixes (kinds, radios, BER
// models, contention sources, arrival models, supplies), so decoding one
// costs no allocation.
var vocabulary = func() map[string]string {
	m := map[string]string{}
	for _, k := range Kinds() {
		m[string(k)] = string(k)
	}
	for _, n := range radio.Names() {
		m[n] = n
	}
	for _, n := range []string{"eq1", "awgn", "montecarlo", "approx", "uniform", "at-beacon", "cr2032", "aa", "harvester"} {
		m[n] = n
	}
	return m
}()

// intern returns b as a string, shared for a vocabulary name.
func intern(b []byte) string {
	if s, ok := vocabulary[string(b)]; ok {
		return s
	}
	return string(b)
}

// object decodes a JSON object: member is called with each member's key
// (unquoted) at its value, which it decodes, or returns false for a key it
// does not know — an error. null is no object and leaves the target
// unchanged.
func (d *decoder) object(member func(key []byte) bool) {
	if d.null() || !d.open('{', "an object") || d.closes('}') {
		return
	}
	for d.err == nil {
		if d.peek() != '"' {
			d.syntax("want a field name")
			return
		}
		key := d.str()
		if d.err != nil {
			return
		}
		if d.peek() != ':' {
			d.syntax("want ':' after a field name")
			return
		}
		d.off++
		if !member(key) {
			d.fail(fmt.Errorf("unknown field %q", key))
			return
		}
		if !d.next('}') {
			return
		}
	}
}

// open consumes the opening delimiter of a value expected to be a
// container; anything else is a type error naming want.
func (d *decoder) open(delim byte, want string) bool {
	if d.err != nil {
		return false
	}
	if d.peek() != delim {
		d.typeErr(d.kindAt(), want)
		return false
	}
	d.off++
	return true
}

// closes consumes close when it is next, which after open means an empty
// container.
func (d *decoder) closes(close byte) bool {
	if d.err == nil && d.peek() == close {
		d.off++
		return true
	}
	return false
}

// next consumes the separator after a member or element: true for a comma
// (another one follows), false for close or an error.
func (d *decoder) next(close byte) bool {
	if d.err != nil {
		return false
	}
	switch d.peek() {
	case ',':
		d.off++
		return true
	case close:
		d.off++
		return false
	}
	d.syntax("want ',' or '" + string(close) + "'")
	return false
}

// elements estimates the element count of the array being decoded (the
// commas before its close, plus one), to size a fresh slice once. Only a
// capacity: it stops short at a nested value and an element may hold a
// comma.
func (d *decoder) elements() int {
	n := 1
	for _, c := range d.data[d.off:] {
		switch c {
		case ',':
			n++
		case ']', '{', '[':
			return n
		}
	}
	return n
}

// skip consumes one value of any type.
func (d *decoder) skip() {
	if d.err != nil {
		return
	}
	switch c := d.peek(); {
	case c == '"':
		d.str()
	case c == '-' || isDigit(c):
		d.number()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '{' || c == '[':
		if d.depth++; d.depth > maxDepth {
			d.syntax("nesting too deep")
			return
		}
		d.off++
		close := byte(']')
		if c == '{' {
			close = '}'
		}
		if !d.closes(close) {
			for d.err == nil {
				if c == '{' {
					if d.peek() != '"' {
						d.syntax("want a field name")
						return
					}
					d.str()
					if d.err == nil && d.peek() != ':' {
						d.syntax("want ':' after a field name")
						return
					}
					d.off++
				}
				d.skip()
				if !d.next(close) {
					break
				}
			}
		}
		d.depth--
	default:
		d.syntax("want a value")
	}
}

// end requires nothing but whitespace after the decoded value.
func (d *decoder) end() {
	if d.err == nil {
		if d.ws(); d.off < len(d.data) {
			d.fail(errTrailing)
		}
	}
}

// null consumes a null literal when one is next.
func (d *decoder) null() bool {
	return d.err == nil && d.peek() == 'n' && d.literal("null")
}

// literal consumes lit, which must be next.
func (d *decoder) literal(lit string) bool {
	if end := d.off + len(lit); end <= len(d.data) && string(d.data[d.off:end]) == lit {
		d.off = end
		return true
	}
	d.syntax("invalid literal")
	return false
}

// number consumes a JSON number token and returns it.
func (d *decoder) number() []byte {
	data, start := d.data, d.off
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i)
	default:
		d.syntax("invalid number")
		return nil
	}
	if i < len(data) && data[i] == '.' {
		if i++; i == len(data) || !isDigit(data[i]) {
			d.syntax("invalid number")
			return nil
		}
		i = digits(data, i)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || !isDigit(data[i]) {
			d.syntax("invalid number")
			return nil
		}
		i = digits(data, i)
	}
	d.off = i
	return data[start:i]
}

func digits(data []byte, i int) int {
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// parseInt reads a JSON number token as strconv.ParseInt(tok, 10, 64)
// does: no fraction, no exponent, within int64.
func parseInt(tok []byte) (int64, bool) {
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var u uint64
	for _, c := range tok {
		if !isDigit(c) || u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}

// str consumes a JSON string and returns its decoded contents. The bytes
// alias the input, or the decoder's scratch buffer when the string has
// escapes or invalid UTF-8, and are valid until the next call.
func (d *decoder) str() []byte {
	data := d.data
	start := d.off + 1
	i := start
	for i < len(data) {
		c := data[i]
		if c == '"' {
			d.off = i + 1
			return data[start:i]
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b := append(d.buf[:0], data[start:i]...)
	for i < len(data) {
		c := data[i]
		switch {
		case c == '"':
			d.off = i + 1
			d.buf = b
			return b
		case c < 0x20:
			d.syntax("control character in string")
			return nil
		case c == '\\':
			if i+1 == len(data) {
				d.syntax("unterminated string")
				return nil
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data[i:])
				if r < 0 {
					d.syntax("invalid \\u escape")
					return nil
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if r2 := utf16.DecodeRune(r, hex4(data[i:])); r2 != utf8.RuneError {
						b = utf8.AppendRune(b, r2)
						i += 6
						continue
					}
					r = utf8.RuneError
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.syntax("invalid escape")
				return nil
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			b = utf8.AppendRune(b, r)
			i += size
		}
	}
	d.syntax("unterminated string")
	return nil
}

// hex4 reads the \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// ws skips whitespace.
func (d *decoder) ws() {
	for d.off < len(d.data) && d.data[d.off] <= ' ' && isSpace(d.data[d.off]) {
		d.off++
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (d *decoder) peek() byte {
	if d.ws(); d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

// kindAt names the JSON type of the value at the offset, for type errors.
func (d *decoder) kindAt() string {
	switch c := d.peek(); {
	case c == '"':
		return "string"
	case c == '{':
		return "object"
	case c == '[':
		return "array"
	case c == 't' || c == 'f':
		return "bool"
	case c == 'n':
		return "null"
	case c == '-' || isDigit(c):
		return "number"
	}
	return "invalid value"
}

func (d *decoder) typeErr(got, want string) {
	if d.field == "" {
		d.fail(fmt.Errorf("cannot decode %s into a query (want an object)", got))
		return
	}
	d.fail(fmt.Errorf("field %q: cannot decode %s (want %s)", d.field, got, want))
}

func (d *decoder) syntax(msg string) {
	d.fail(fmt.Errorf("syntax error at offset %d: %s", d.off, msg))
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

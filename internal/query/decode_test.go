package query

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestDecodeFieldTables pins every member table of the decoder to its
// struct's json tags, in struct order: a wire field added to a struct but
// not to the decoder fails here.
func TestDecodeFieldTables(t *testing.T) {
	for _, tc := range []struct {
		v     any
		names []string
	}{
		{Query{}, memberNames(queryMembers)},
		{ParamsWire{}, memberNames(paramsMembers)},
		{ContentionWire{}, memberNames(contentionMembers)},
		{SuperframeWire{}, memberNames(superframeMembers)},
		{CaseStudyConfigWire{}, memberNames(caseStudyMembers)},
		{SimConfigWire{}, memberNames(simMembers)},
		{LifetimeWire{}, memberNames(lifetimeMembers)},
		{Axis{}, memberNames(axisMembers)},
		{IntAxis{}, memberNames(intAxisMembers)},
	} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if !f.IsExported() || tag == "-" {
				continue
			}
			tags = append(tags, tag)
		}
		if !reflect.DeepEqual(tags, tc.names) {
			t.Errorf("%s: decoder members %v, struct tags %v", typ.Name(), tc.names, tags)
		}
	}
}

func memberNames[T any](members []member[T]) []string {
	var names []string
	for _, m := range members {
		names = append(names, m.name)
	}
	return names
}

// TestResultSpansAndReplay: on a real result of every kind, ResultSpans
// recovers exactly the spans EncodeSpans recorded, and AppendStreamReplay
// of the body is byte for byte the fresh stream — every line, then the done
// line (replicas and lifetime summaries included).
func TestResultSpansAndReplay(t *testing.T) {
	for kind, q := range encodeKindQueries() {
		t.Run(string(kind), func(t *testing.T) {
			var stream []byte
			rs, err := RunStream(context.Background(), q, func(tr TaskResult) error {
				line, err := EncodeTaskResult(tr)
				stream = append(stream, line...)
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
			stream = AppendStreamDone(stream, len(rs.Results), rs)
			rs.Trace = nil // a stored body is never traced
			body, spans, err := rs.EncodeSpans()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ResultSpans(body)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, spans) {
				t.Fatalf("ResultSpans %v, EncodeSpans %v", got, spans)
			}
			replay, ok := AppendStreamReplay(nil, body, got)
			if !ok || !bytes.Equal(replay, stream) {
				t.Fatalf("replay (ok %v) deviates from the fresh stream\n got %s\nwant %s", ok, replay, stream)
			}
		})
	}
}

// TestResultSpansRejects: a body that is not one ResultSet does not scan,
// and spans that do not end at a results array do not replay.
func TestResultSpansRejects(t *testing.T) {
	for _, body := range []string{
		"", "{", `{"results":[{}]`, `{"results":{}}`, `{"version":2,"kind":"evaluate","results":[{"index":0}]}x`,
		`{"bogus":1}`, strings.Repeat("[", maxDepth+2),
	} {
		if spans, err := ResultSpans([]byte(body)); err == nil {
			t.Errorf("ResultSpans(%q) = %v, want an error", body, spans)
		}
	}
	body := []byte(`{"version":2,"kind":"evaluate","results":[{"index":0}]}` + "\n")
	spans, err := ResultSpans(body)
	if err != nil || len(spans) != 1 {
		t.Fatalf("ResultSpans = %v, %v", spans, err)
	}
	for _, bad := range [][]TaskSpan{nil, {{Start: 0, End: 3}}, {{Start: 50, End: 40}}, {{Start: -1, End: -1}}} {
		if _, ok := AppendStreamReplay(nil, body, bad); ok {
			t.Errorf("replayed spans %v", bad)
		}
	}
}

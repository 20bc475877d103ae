package query

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
)

// refEncode is the reflective reference the append encoders must match
// byte for byte: encoding/json with HTML escaping off, trailing newline
// kept.
func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refDoneLine mirrors the /v2/query/stream done line for the reference.
type refDoneLine struct {
	Done            bool                 `json:"done"`
	Count           int                  `json:"count"`
	Summary         *ReplicaSummaryWire  `json:"summary,omitempty"`
	LifetimeSummary *LifetimeSummaryWire `json:"lifetime_summary,omitempty"`
	Trace           *PlanTraceWire       `json:"trace,omitempty"`
}

func refDone(t testing.TB, count int, rs *ResultSet) []byte {
	return refEncode(t, refDoneLine{Done: true, Count: count, Summary: rs.Summary, LifetimeSummary: rs.LifetimeSummary, Trace: rs.Trace})
}

// encodeKindQueries holds one small query of every kind.
func encodeKindQueries() map[Kind]Query {
	qp := quickParams
	big := qp()
	big.PayloadBytes = intPtr(100)
	lt := lifetimeTestQuery()
	lt.Replicas = 2
	return map[Kind]Query{
		KindEvaluate:      {Kind: KindEvaluate, Params: qp()},
		KindBatch:         {Kind: KindBatch, Batch: []ParamsWire{*qp(), *big}},
		KindCaseStudy:     {Kind: KindCaseStudy, Params: qp(), Config: &CaseStudyConfigWire{LossGridPoints: intPtr(7)}},
		KindPathLossSweep: {Kind: KindPathLossSweep, Params: qp(), Losses: &Axis{Values: []Float{55, 70, 85}}},
		KindThresholds:    {Kind: KindThresholds, Params: qp(), Losses: &Axis{From: floatPtr(50), To: floatPtr(95), Points: intPtr(10)}},
		KindPayloadSweep:  {Kind: KindPayloadSweep, Params: qp(), Payloads: &IntAxis{Values: []int{20, 60, 120}}},
		KindSimulate:      {Kind: KindSimulate, Sim: &SimConfigWire{Nodes: intPtr(8), Superframes: intPtr(2)}},
		KindReplicas:      {Kind: KindReplicas, Sim: &SimConfigWire{Nodes: intPtr(8), Superframes: intPtr(2)}, Replicas: 3},
		KindLifetime:      lt,
		KindScenario:      {Kind: KindScenario, Scenario: "sparse-idle"},
		KindExperiment:    {Kind: KindExperiment, Experiment: "fig8", Quick: true},
		KindGrid:          storeGridQuery(),
	}
}

// TestEncodeByteIdentityAllKinds pins the append encoders to encoding/json
// on a real result of every kind: the plain ResultSet, every stream line
// and the done line, a store-spliced body (cold and warm) and a traced
// ResultSet.
func TestEncodeByteIdentityAllKinds(t *testing.T) {
	queries := encodeKindQueries()
	if len(queries) != len(Kinds()) {
		t.Fatalf("%d kinds covered, want %d", len(queries), len(Kinds()))
	}
	for _, kind := range Kinds() {
		q := queries[kind]
		t.Run(string(kind), func(t *testing.T) {
			ctx := context.Background()
			rs, err := Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := rs.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if want := refEncode(t, rs); !bytes.Equal(plain, want) {
				t.Fatalf("ResultSet.Encode deviates from encoding/json\n got %s\nwant %s", plain, want)
			}

			var lines [][]byte
			streamed, err := RunStream(ctx, q, func(tr TaskResult) error {
				line, err := EncodeTaskResult(tr)
				if want := refEncode(t, tr); err != nil || !bytes.Equal(line, want) {
					t.Errorf("stream line %d: %v\n got %s\nwant %s", tr.Index, err, line, want)
				}
				lines = append(lines, line)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(lines) != len(rs.Results) {
				t.Fatalf("%d stream lines for %d results", len(lines), len(rs.Results))
			}
			for i, line := range lines {
				elem := refEncode(t, rs.Results[i])
				if !bytes.Equal(line, elem) {
					t.Fatalf("stream line %d differs from ResultSet element", i)
				}
			}
			if got, want := AppendStreamDone(nil, len(lines), streamed), refDone(t, len(lines), streamed); !bytes.Equal(got, want) {
				t.Fatalf("done line\n got %s\nwant %s", got, want)
			}

			st := newMapStore()
			for _, pass := range []string{"cold", "warm"} {
				plan, err := Compile(q)
				if err != nil {
					t.Fatal(err)
				}
				plan.Store = st
				srs, err := plan.Execute(ctx, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range srs.Results {
					if srs.Results[i].encoded == nil {
						t.Fatalf("%s: task %d not encoded by its worker", pass, i)
					}
				}
				spliced, err := srs.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(spliced, plain) {
					t.Fatalf("%s store-spliced body deviates\n got %s\nwant %s", pass, spliced, plain)
				}
			}

			tq := q
			tq.Trace = true
			trs, err := Run(ctx, tq)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := trs.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if trs.Trace == nil {
				t.Fatal("traced query carries no trace")
			}
			if want := refEncode(t, trs); !bytes.Equal(traced, want) {
				t.Fatalf("traced ResultSet deviates\n got %s\nwant %s", traced, want)
			}
			if got, want := AppendStreamDone(nil, len(trs.Results), trs), refDone(t, len(trs.Results), trs); !bytes.Equal(got, want) {
				t.Fatalf("traced done line\n got %s\nwant %s", got, want)
			}
		})
	}
}

// FuzzTaskResultEncode drives every numeric payload, summary and trace
// shape through the append encoders and encoding/json: two floats spread
// over every Float field, a label (also the kind and span label) carrying
// any bytes, an integer for the int fields, and shape bits choosing which
// payloads are present and whether slices are nil, empty or filled. The
// committed seed corpus (testdata/fuzz/FuzzTaskResultEncode) covers ±Inf,
// NaN, -0, subnormals, max-magnitude floats and labels with quotes,
// backslashes, control bytes, U+2028/U+2029 and invalid UTF-8.
func FuzzTaskResultEncode(f *testing.F) {
	f.Add("grid[0]:loss=55,payload=20", 1.5, -2.25e-7, int64(3), uint8(0xff))
	f.Add("\"\\\x00\x1f\u2028\u2029\xff<&>", math.Inf(1), math.Copysign(0, -1), int64(-1), uint8(0x55))
	f.Fuzz(func(t *testing.T, label string, x, y float64, n int64, shape uint8) {
		rs := fuzzResultSet(label, Float(x), Float(y), n, shape)
		for i := range rs.Results {
			tr := &rs.Results[i]
			got, err := appendTaskResult([]byte("prefix"), tr)
			if err != nil {
				t.Fatal(err)
			}
			want := refEncode(t, *tr)
			if !bytes.Equal(got[len("prefix"):], want[:len(want)-1]) {
				t.Fatalf("task result\n got %s\nwant %s", got[len("prefix"):], want)
			}
		}
		want := refEncode(t, rs)
		got, err := rs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("result set\n got %s\nwant %s", got, want)
		}
		// The splice path: results carrying their worker-encoded lines.
		for i := range rs.Results {
			if rs.Results[i].encoded, err = rs.Results[i].encodeLine(); err != nil {
				t.Fatal(err)
			}
		}
		if got, err = rs.Encode(); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("spliced result set: %v\n got %s\nwant %s", err, got, want)
		}
		count := int(n % 1000)
		if got, want := AppendStreamDone(nil, count, rs), refDone(t, count, rs); !bytes.Equal(got, want) {
			t.Fatalf("done line\n got %s\nwant %s", got, want)
		}
	})
}

// fuzzResultSet builds a ResultSet exercising the shapes selected by the
// bits of shape; bit 7 picks nil over empty for every slice left unfilled.
func fuzzResultSet(label string, x, y Float, n int64, shape uint8) *ResultSet {
	on := func(bit uint) bool { return shape&(1<<bit) != 0 }
	nilOrEmpty := on(7)
	floats := func(k int) []Float {
		if k == 0 {
			if nilOrEmpty {
				return nil
			}
			return []Float{}
		}
		out := make([]Float, k)
		for i := range out {
			out[i] = x
			if i%2 == 1 {
				out[i] = y
			}
		}
		return out
	}
	ints := func(k int) []int {
		if k == 0 {
			if nilOrEmpty {
				return nil
			}
			return []int{}
		}
		out := make([]int, k)
		for i := range out {
			out[i] = int(n) + i
		}
		return out
	}
	k := int(n&3) + int(shape&1) // 0..4 elements per filled slice
	cont := ContStatsWire{TcontNS: n, NCCA: x, PrCF: y, PrCol: x}
	states := StateTimesWire{ShutdownNS: n, IdleNS: -n, RXNS: 1, TXNS: 0}
	brk := BreakdownWire{BeaconJ: x, ContentionJ: y, TransmitJ: x, AckJ: y, IFSJ: x, SleepJ: y}
	stat := ReplicaStatWire{Mean: x, CI95: y, Min: x, Max: y}

	tr := TaskResult{Index: int(n), Label: label}
	if on(0) {
		tr.Metrics = &MetricsWire{
			TXLevelIndex: int(n), TXPowerDBm: x, PRxDBm: y, TpacketNS: n, Cont: cont,
			PrBit: x, PrE: y, PrTF: x, PrCF: y, ExpectedTx: x,
			TidleNS: n, TTxNS: n, TRxNS: n, States: states,
			AvgPowerW: y, EnergyPerFrameJ: x, PrFail: y, DelayNS: n, EnergyPerBitJ: x, Breakdown: brk,
		}
	}
	if on(1) {
		tr.CaseStudy = &CaseStudyResultWire{
			Load: x, AvgPowerW: y, MeanPrFail: x, Coverage: y,
			MeanDelayNS: n, MedianDelay: n, NominalDelay: n, MeanEnergyJ: x,
			Breakdown: brk, States: states,
			LossGrid: floats(k), PowerUW: floats(k / 2), PrFail: floats(0), LevelUsed: ints(k),
		}
	}
	if on(2) {
		tr.Curves = []EnergyCurveWire{}
		for i := 0; i < k; i++ {
			tr.Curves = append(tr.Curves, EnergyCurveWire{LevelIndex: i, LevelDBm: y, LossDB: floats(i), EnergyJ: floats(k - i)})
		}
		tr.Payload = &PayloadSeriesWire{SizesBytes: ints(k), EnergyJ: floats(k)}
	}
	if on(3) {
		tr.Thresholds = []ThresholdWire{}
		for i := 0; i < k; i++ {
			tr.Thresholds = append(tr.Thresholds, ThresholdWire{FromLevel: i, ToLevel: -i, FromDBm: x, ToDBm: y, LossDB: x})
		}
	}
	if on(4) {
		tr.Sim = &SimResultWire{
			Seed: n, AvgPowerW: x, DeliveryRatio: y, PrFailPerAttempt: x,
			PacketsOffered: int(n), PacketsDelivered: 1, PacketsDropped: 2, PacketsExpired: 3,
			Transmissions: 4, Collisions: 5, AccessFailures: 6, CorruptedFrames: 7,
			MeanDelayNS: n, P95DelayNS: -n, Contention: cont,
		}
		var curve []LifetimeCurvePointWire
		if !nilOrEmpty {
			curve = []LifetimeCurvePointWire{}
		}
		for i := 0; i < k; i++ {
			curve = append(curve, LifetimeCurvePointWire{TimeS: x, Alive: i})
		}
		tr.Lifetime = &LifetimeResultWire{
			Seed: n, Nodes: int(n), FirstDeathS: x, PartitionS: y, LastDeathS: x,
			AliveAtEnd: 1, AliveFracAtEnd: y, Deaths: 2, SimulatedS: x, FastForwardS: y,
			Epochs: 3, Sustainable: on(5), Curve: curve,
		}
	}

	rs := &ResultSet{Version: int(n), Kind: Kind(label)}
	if !nilOrEmpty || k > 0 {
		rs.Results = []TaskResult{tr, {Index: k, Label: label[:len(label)/2]}}
	}
	if on(5) {
		seeds := []int64{n, -n}[:k/2]
		if k == 0 && nilOrEmpty {
			seeds = nil
		}
		rs.Summary = &ReplicaSummaryWire{Replicas: k, Seeds: seeds,
			AvgPowerUW: stat, DeliveryRatio: stat, PrFail: stat, PrCF: stat,
			PrCol: stat, NCCA: stat, TcontMS: stat, MeanDelayMS: stat}
		rs.LifetimeSummary = &LifetimeSummaryWire{Replicas: -k, Seeds: seeds,
			FirstDeathHours: stat, PartitionHours: stat, LastDeathHours: stat, AliveFracAtEnd: stat}
	}
	if on(6) {
		tr := &PlanTraceWire{Kind: Kind(label), Workers: int(n), Tasks: k, WallMS: x}
		if !nilOrEmpty {
			tr.Spans = []TaskSpanWire{}
		}
		for i := 0; i < k; i++ {
			sp := TaskSpanWire{Index: i, Label: label, WallMS: y}
			if i%2 == 0 {
				seed := n + int64(i)
				sp.Seed = &seed
			}
			tr.Spans = append(tr.Spans, sp)
		}
		rs.Trace = tr
	}
	return rs
}

// TestAppendStringMatchesEncodingJSON sweeps every single byte and the
// special runes through appendString.
func TestAppendStringMatchesEncodingJSON(t *testing.T) {
	var cases []string
	for c := 0; c < 256; c++ {
		cases = append(cases, string([]byte{'a', byte(c), 'z'}))
	}
	cases = append(cases, "", "\u2028\u2029", "é漢字🙂", "\xe2\x80", "\xed\xa0\x80", "<script>&amp;</script>")
	for _, s := range cases {
		got := appendString(nil, s)
		want := refEncode(t, s)
		if !bytes.Equal(got, want[:len(want)-1]) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}

package wire

import (
	"encoding/json"
	"math"
	"testing"
)

// TestFloatRoundTrip proves the bit-exactness contract: marshal → unmarshal
// reproduces the original float64 bits for finite, denormal, negative-zero
// and non-finite values alike.
func TestFloatRoundTrip(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3.0, math.Pi,
		math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		4.2563e-3, 983.04e-3, 1e308, -1e-308,
	}
	for _, v := range cases {
		b, err := json.Marshal(Float(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back Float
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if math.Float64bits(float64(back)) != math.Float64bits(v) {
			t.Errorf("round-trip %v → %s → %v: bits changed", v, b, float64(back))
		}
		// Encoding is byte-stable: marshal twice, same bytes.
		b2, _ := json.Marshal(Float(v))
		if string(b) != string(b2) {
			t.Errorf("marshal %v not byte-stable: %s vs %s", v, b, b2)
		}
	}
}

// TestFloatDecodesStringForms accepts quoted numbers and the named
// non-finite spellings.
func TestFloatDecodesStringForms(t *testing.T) {
	var f Float
	for in, want := range map[string]float64{
		`"1.5"`:  1.5,
		`"Inf"`:  math.Inf(1),
		`"+Inf"`: math.Inf(1),
		`"-Inf"`: math.Inf(-1),
	} {
		if err := json.Unmarshal([]byte(in), &f); err != nil {
			t.Fatalf("unmarshal %s: %v", in, err)
		}
		if float64(f) != want {
			t.Errorf("unmarshal %s = %v, want %v", in, float64(f), want)
		}
	}
	if err := json.Unmarshal([]byte(`"NaN"`), &f); err != nil || !math.IsNaN(float64(f)) {
		t.Errorf(`unmarshal "NaN" = %v, %v`, float64(f), err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Error("unmarshal bogus string succeeded")
	}
	if err := json.Unmarshal([]byte(`{}`), &f); err == nil {
		t.Error("unmarshal object succeeded")
	}
}

// TestSliceHelpers round-trips a slice through both converters.
func TestSliceHelpers(t *testing.T) {
	in := []float64{1, 2.5, math.Inf(1)}
	out := Float64s(Floats(in))
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Errorf("slice round-trip changed element %d: %v → %v", i, in[i], out[i])
		}
	}
}

// TestAppendFloatForms pins the one float formatting rule: shortest 'g'
// for finite values (negative zero and exponents included) and the named
// strings for non-finite ones, appended after whatever dst holds, and
// MarshalJSON producing the same bytes.
func TestAppendFloatForms(t *testing.T) {
	for v, want := range map[float64]string{
		1:                           `1`,
		0.1:                         `0.1`,
		1e21:                        `1e+21`,
		1e-7:                        `1e-07`,
		math.Copysign(0, -1):        `-0`,
		math.MaxFloat64:             `1.7976931348623157e+308`,
		math.SmallestNonzeroFloat64: `5e-324`,
		math.Inf(1):                 `"+Inf"`,
		math.Inf(-1):                `"-Inf"`,
	} {
		if got := string(AppendFloat([]byte("x:"), v)); got != "x:"+want {
			t.Errorf("AppendFloat(%v) = %s, want x:%s", v, got, want)
		}
		if b, _ := Float(v).MarshalJSON(); string(b) != want {
			t.Errorf("MarshalJSON(%v) = %s, want %s", v, b, want)
		}
	}
	if got := string(AppendFloat(nil, math.NaN())); got != `"NaN"` {
		t.Errorf("AppendFloat(NaN) = %s", got)
	}
}

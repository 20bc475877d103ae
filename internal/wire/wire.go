// Package wire holds the JSON primitives shared by every serialized
// surface of the repository — the HTTP service (internal/service), the
// scenario golden files (internal/scenario) and their CLI front-ends. The
// types here guarantee byte-stable, bit-exact round-trips: encoding a value
// and decoding it back reproduces the original float64 bits, and encoding
// the same value twice produces the same bytes, which is what lets golden
// files be compared with bytes.Equal.
//
// AppendFloat is the single float formatting rule: Float.MarshalJSON and
// every hand-written append encoder (internal/query) call it, so a float
// reads the same in every body, stream line, store entry and golden file.
// ParseFloat is the single float parse rule: Float.UnmarshalJSON and the
// hand-written request decoder (internal/query.DecodeQuery) call it, so a
// float field accepts the same numbers and strings on every route.
package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
)

// Float is a float64 that survives JSON round-trips bit-exactly, including
// the non-finite values the model uses for out-of-range nodes (+Inf energy
// per bit), which encoding/json rejects. Finite values are emitted with the
// shortest representation that parses back to the same bits; non-finite
// values are emitted as the strings "+Inf", "-Inf" and "NaN".
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	return AppendFloat(nil, float64(f)), nil
}

// AppendFloat appends the JSON form of v to dst: the shortest 'g'
// representation that parses back to the same bits for finite values, and
// the strings "+Inf", "-Inf" and "NaN" otherwise.
func AppendFloat(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(dst, `"-Inf"`...)
	case math.IsNaN(v):
		return append(dst, `"NaN"`...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// UnmarshalJSON implements json.Unmarshaler: a JSON number, or a JSON
// string, read by ParseFloat.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := ParseFloat(s)
		if err != nil {
			return fmt.Errorf("invalid float %q", s)
		}
		*f = Float(v)
		return nil
	}
	v, err := ParseFloat(string(b))
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// ParseFloat is the one float parse rule of every wire decoder: the text
// of a JSON number, or the contents of a JSON string, as
// strconv.ParseFloat reads it. That covers the non-finite spellings
// AppendFloat writes ("+Inf", "-Inf", "NaN") and their aliases ("Inf",
// "infinity", any case); a value beyond the float64 range is an error.
func ParseFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// Floats converts a float64 slice to the exact-round-trip wire type.
func Floats(xs []float64) []Float {
	out := make([]Float, len(xs))
	for i, x := range xs {
		out[i] = Float(x)
	}
	return out
}

// Float64s converts back.
func Float64s(xs []Float) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

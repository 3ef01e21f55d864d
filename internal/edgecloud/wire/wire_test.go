package wire

import (
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cdl/internal/fixed"
)

func testActivation() Activation {
	return Activation{
		FromStage: 1,
		Pos:       3,
		Shape:     []int{2, 2},
		Data:      []float64{0, 0.5, -0.25, 1},
	}
}

// TestGoldenEncoding pins the wire layout byte-for-byte: a change that
// breaks these constants breaks every deployed edge↔cloud pair and must
// bump the version.
func TestGoldenEncoding(t *testing.T) {
	const goldenFixed = "43444c41" + // magic "CDLA"
		"01" + "01" + "02" + "0d" + // version 1, fixed, Q2.13
		"0100" + "0300" + // fromStage 1, pos 3
		"02" + "02000000" + "02000000" + // rank 2, dims 2×2
		"0000" + "0010" + "00f8" + "0020" // 0, 0.5, -0.25, 1 at scale 2^13
	const goldenF64 = "43444c41" +
		"01" + "00" + "00" + "00" +
		"0100" + "0300" +
		"02" + "02000000" + "02000000" +
		"0000000000000000" + "000000000000e03f" +
		"000000000000d0bf" + "000000000000f03f"

	for _, tc := range []struct {
		name   string
		enc    Encoding
		golden string
	}{
		{"fixed", EncodingFixed, goldenFixed},
		{"float64", EncodingFloat64, goldenF64},
	} {
		b, err := Encode(testActivation(), tc.enc, fixed.Q2x13)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := hex.EncodeToString(b); got != tc.golden {
			t.Errorf("%s encoding drifted:\n got  %s\n want %s", tc.name, got, tc.golden)
		}
		if len(b) != EncodedSize(2, 4, tc.enc) {
			t.Errorf("%s: %d bytes, EncodedSize says %d", tc.name, len(b), EncodedSize(2, 4, tc.enc))
		}
	}
}

// TestGoldenEncodingRouted pins the version-2 layout: a branch handoff
// (Node > 0) inserts the uint16 node after pos, and nothing else moves.
func TestGoldenEncodingRouted(t *testing.T) {
	a := testActivation()
	a.Node = 2
	a.FromStage, a.Pos = 0, 0   // branch-entry handoff
	const golden = "43444c41" + // magic "CDLA"
		"02" + "00" + "00" + "00" + // version 2, float64
		"0000" + "0000" + // fromStage 0, pos 0
		"0200" + // node 2
		"02" + "02000000" + "02000000" + // rank 2, dims 2×2
		"0000000000000000" + "000000000000e03f" +
		"000000000000d0bf" + "000000000000f03f"
	b, err := Encode(a, EncodingFloat64, fixed.Format{})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(b); got != golden {
		t.Errorf("routed encoding drifted:\n got  %s\n want %s", got, golden)
	}
	if len(b) != EncodedSizeAt(2, 2, 4, EncodingFloat64) {
		t.Errorf("%d bytes, EncodedSizeAt says %d", len(b), EncodedSizeAt(2, 2, 4, EncodingFloat64))
	}
	if len(b) != EncodedSize(2, 4, EncodingFloat64)+2 {
		t.Errorf("routed header is %d bytes over linear, want 2", len(b)-EncodedSize(2, 4, EncodingFloat64))
	}
}

// TestRoundTripRouted checks the node field survives both encodings, and
// that trunk handoffs keep emitting version-1 bytes (a linear deployment's
// wire format is unchanged by the routing extension).
func TestRoundTripRouted(t *testing.T) {
	for _, enc := range []Encoding{EncodingFloat64, EncodingFixed} {
		a := testActivation()
		a.Node = 7
		b, err := Encode(a, enc, fixed.Q2x13)
		if err != nil {
			t.Fatal(err)
		}
		if b[4] != versionRouted {
			t.Fatalf("%s: routed activation encoded as version %d", enc, b[4])
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if got.Node != 7 || got.FromStage != a.FromStage || got.Pos != a.Pos {
			t.Fatalf("%s: decoded (node %d, stage %d, pos %d), want (7, %d, %d)",
				enc, got.Node, got.FromStage, got.Pos, a.FromStage, a.Pos)
		}
	}
	trunk, err := Encode(testActivation(), EncodingFloat64, fixed.Format{})
	if err != nil {
		t.Fatal(err)
	}
	if trunk[4] != versionLinear {
		t.Fatalf("trunk activation encoded as version %d, want %d", trunk[4], versionLinear)
	}
	got, err := Decode(trunk)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != 0 {
		t.Fatalf("trunk decode node %d, want 0", got.Node)
	}
	// The node field is range-checked at encode time like the others.
	bad := testActivation()
	bad.Node = math.MaxUint16 + 1
	if _, err := Encode(bad, EncodingFloat64, fixed.Format{}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

// TestRoundTripLossless checks float64 survives exactly, including values a
// fixed format would clip.
func TestRoundTripLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Activation{FromStage: 2, Pos: 6, Shape: []int{3, 2, 2}, Data: make([]float64, 12)}
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64() * 10
	}
	b, err := Encode(a, EncodingFloat64, fixed.Format{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.FromStage != a.FromStage || got.Pos != a.Pos {
		t.Fatalf("metadata %d/%d, want %d/%d", got.FromStage, got.Pos, a.FromStage, a.Pos)
	}
	if len(got.Shape) != 3 || got.Shape[0] != 3 || got.Shape[1] != 2 || got.Shape[2] != 2 {
		t.Fatalf("shape %v", got.Shape)
	}
	for i := range a.Data {
		if got.Data[i] != a.Data[i] {
			t.Fatalf("element %d: %v != %v", i, got.Data[i], a.Data[i])
		}
	}
}

// TestRoundTripFixed checks the quantized payload dequantizes within one
// resolution step and saturates out-of-range values.
func TestRoundTripFixed(t *testing.T) {
	f := fixed.Q2x13
	a := Activation{FromStage: 1, Pos: 3, Shape: []int{5}, Data: []float64{0.1, 0.987, -0.3, 5.5, -7}}
	b, err := Encode(a, EncodingFixed, f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range a.Data[:3] {
		if math.Abs(got.Data[i]-v) > f.Resolution() {
			t.Errorf("element %d: %v off by more than %v from %v", i, got.Data[i], f.Resolution(), v)
		}
	}
	if got.Data[3] != f.MaxValue() {
		t.Errorf("5.5 quantized to %v, want saturation at %v", got.Data[3], f.MaxValue())
	}
	if got.Data[4] != f.MinValue() {
		t.Errorf("-7 quantized to %v, want saturation at %v", got.Data[4], f.MinValue())
	}
}

// TestDecodeRejectsCorruption fuzzes the defensive header checks.
func TestDecodeRejectsCorruption(t *testing.T) {
	good, err := Encode(testActivation(), EncodingFixed, fixed.Q2x13)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := map[string][]byte{
		"empty":           {},
		"short header":    good[:8],
		"bad magic":       corrupt(func(b []byte) { b[0] = 'X' }),
		"bad version":     corrupt(func(b []byte) { b[4] = 99 }),
		"bad encoding":    corrupt(func(b []byte) { b[5] = 7 }),
		"bad format":      corrupt(func(b []byte) { b[6] = 200 }),
		"truncated dims":  good[:headerBase+2],
		"huge dim":        corrupt(func(b []byte) { b[headerBase+3] = 0xFF }),
		"short payload":   good[:len(good)-1],
		"trailing":        append(append([]byte(nil), good...), 0),
		"payload to rank": corrupt(func(b []byte) { b[12] = 1 }),
	}
	for name, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestDecodeRefusesVersion3 pins the retired trace-carrying layout as an
// unknown version: a well-formed version-3 header (node field, then a
// 16-byte trace ID) is refused with an error naming the version once the
// fixed header is there, and never decodes or panics at any length.
func TestDecodeRefusesVersion3(t *testing.T) {
	routed := testActivation()
	routed.Node = 2
	v2, err := Encode(routed, EncodingFloat64, fixed.Format{})
	if err != nil {
		t.Fatal(err)
	}
	v3 := slices.Concat(v2[:headerBaseRouted-1], make([]byte, 16), v2[headerBaseRouted-1:])
	v3[4] = 3
	for n := range len(v3) + 1 {
		_, err := Decode(v3[:n])
		if err == nil {
			t.Fatalf("%d of %d version-3 bytes decoded", n, len(v3))
		}
		if n >= headerBase && !strings.Contains(err.Error(), "version 3") {
			t.Errorf("%d version-3 bytes: error %q does not name the version", n, err)
		}
	}
}

// TestEncodeRejectsBadInput covers the encoder's own validation.
func TestEncodeRejectsBadInput(t *testing.T) {
	a := testActivation()
	if _, err := Encode(a, Encoding(9), fixed.Q2x13); err == nil {
		t.Error("unknown encoding accepted")
	}
	if _, err := Encode(a, EncodingFixed, fixed.Format{IntBits: 20, FracBits: 20}); err == nil {
		t.Error("wide fixed format accepted")
	}
	a.Data = a.Data[:3]
	if _, err := Encode(a, EncodingFloat64, fixed.Format{}); err == nil {
		t.Error("shape/data mismatch accepted")
	}
	b := testActivation()
	b.FromStage = -1
	if _, err := Encode(b, EncodingFloat64, fixed.Format{}); err == nil {
		t.Error("negative fromStage accepted")
	}
}

func TestEncodingString(t *testing.T) {
	if EncodingFloat64.String() != "float64" || EncodingFixed.String() != "fixed" {
		t.Error("encoding names drifted")
	}
	if Encoding(9).String() == "" {
		t.Error("unknown encoding renders empty")
	}
}

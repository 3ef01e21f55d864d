package wire

// fuzz_test.go hardens Decode against hostile network input: whatever the
// bytes, Decode must either return a structurally consistent Activation or
// an error — never panic, never allocate unboundedly (the maxElems decode
// bound), never return an Activation whose Data disagrees with its Shape.
// The same bytes go to ReadFrame, the other thing a peer can send: it too
// errors or returns parts that re-frame to exactly its input. And they go
// to DecodeRecord, alone and as each payload of a frame (the answer
// direction): a record decodes only from exactly its 12 bytes, and
// re-encodes to them.
// CI runs a 30-second `go test -fuzz` smoke on every push; the seeded
// corpus under testdata/fuzz/FuzzDecode pins the interesting regions
// (valid payloads of both encodings, truncations, bad magic/version/
// encoding, hostile dims, answer frames with good, short and long records)
// so even the plain `go test` run replays them.

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cdl/internal/fixed"
)

var updateFuzzCorpus = flag.Bool("update-fuzz-corpus", false, "rewrite testdata/fuzz/FuzzDecode seed files")

// fuzzSeeds returns handcrafted seed inputs spanning the header's decision
// points — both header versions, truncations in both layouts, bad
// magic/version/encoding, hostile dims. It panics on the (impossible)
// encode failures so it can also drive the corpus generator without a
// *testing.F.
func fuzzSeeds() [][]byte {
	must := func(b []byte, err error) []byte {
		if err != nil {
			panic(err)
		}
		return b
	}
	valid := must(Encode(Activation{
		FromStage: 1, Pos: 3,
		Shape: []int{2, 3, 3},
		Data:  make([]float64, 18),
	}, EncodingFloat64, fixed.Format{}))
	fixedEnc := must(Encode(Activation{
		FromStage: 2, Pos: 6,
		Shape: []int{3, 2, 2},
		Data:  []float64{0.5, -0.5, 1.25, -1.25, 0, 3.999, -4, 0.0001220703125, 1, -1, 2, -2},
	}, EncodingFixed, fixed.Q2x13))
	scalarish := must(Encode(Activation{Shape: []int{1}, Data: []float64{math.Pi}}, EncodingFloat64, fixed.Format{}))
	// A branch-entry handoff: Node > 0 forces the version-2 routed header.
	routed := must(Encode(Activation{
		Node: 2, FromStage: 0, Pos: 0,
		Shape: []int{2, 5, 5},
		Data:  make([]float64, 50),
	}, EncodingFloat64, fixed.Format{}))
	routedFixed := must(Encode(Activation{
		Node: 1, FromStage: 0, Pos: 0,
		Shape: []int{4},
		Data:  []float64{0.5, -0.5, 1, -1},
	}, EncodingFixed, fixed.Q2x13))
	// Resume frames: well formed, cut in each region, mislabelled, padded.
	frame := must(AppendFrame(nil, []byte(`{"delta":0.9}`), [][]byte{scalarish, routedFixed}))
	// Answer frames: records under an optional span list.
	rec := must(AppendRecord(nil, Record{Exit: 2, Label: 7, Confidence: 0.875}))
	answer := must(AppendFrame(nil, []byte(`[{"name":"queue","start_unix_ns":1,"duration_ms":0.5}]`),
		[][]byte{rec, must(AppendRecord(nil, Record{Exit: 1, Label: 0, Confidence: math.NaN()}))}))
	return [][]byte{
		valid,
		fixedEnc,
		scalarish,
		valid[:len(valid)-1], // truncated payload
		valid[:headerBase],   // header only, dims missing
		valid[:headerBase-1], // shorter than the fixed header
		{},                   // empty
		[]byte("XDLA\x01\x00\x00\x00\x00\x00\x00\x00\x00"),                                 // bad magic
		[]byte("CDLA\x03\x00\x00\x00\x00\x00\x00\x00\x00"),                                 // unknown version
		[]byte("CDLA\x01\x07\x00\x00\x00\x00\x00\x00\x00"),                                 // unknown encoding
		[]byte("CDLA\x01\x01\x20\x20\x00\x00\x00\x00\x00"),                                 // fixed format too wide
		[]byte("CDLA\x01\x00\x00\x00\x00\x00\x00\x00\x02\xff\xff\xff\xff\xff\xff\xff\xff"), // hostile dims
		routed,
		routedFixed,
		routed[:headerBaseRouted-1], // version-2 byte, header cut before the node field
		routed[:headerBaseRouted],   // routed header only, dims missing
		routed[:len(routed)-1],      // truncated routed payload
		frame,
		must(AppendFrame(nil, []byte("{}"), nil)),
		frame[:framePreamble-1],
		frame[:framePreamble+5],
		frame[:len(frame)-1],
		append(frame[:len(frame):len(frame)], 0),
		append([]byte("CDLF\x02"), frame[5:]...), // unknown frame version
		answer,
		rec,
		must(AppendFrame(nil, nil, [][]byte{rec[:RecordSize-1]})),                     // truncated record
		must(AppendFrame(nil, nil, [][]byte{append(rec[:RecordSize:RecordSize], 0)})), // 13-byte record
		append(answer[:len(answer):len(answer)], 0),                                   // trailing byte
	}
}

// FuzzDecode is the satellite fuzz target: malformed headers, truncated
// payloads and wrong version bytes must error, never panic.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkRecord(t, b)
		if members, payloads, err := ReadFrame(b); err == nil {
			again, err := AppendFrame(nil, members, payloads)
			if err != nil || !bytes.Equal(again, b) {
				t.Fatalf("a %d-byte frame of %d payloads re-frames to %d bytes (%v)", len(b), len(payloads), len(again), err)
			}
			for _, p := range payloads {
				checkRecord(t, p)
			}
		}
		a, err := Decode(b)
		if err != nil {
			return
		}
		// Successful decodes must be structurally consistent.
		if len(a.Data) != a.Numel() {
			t.Fatalf("decoded %d values for shape %v (%d elements)", len(a.Data), a.Shape, a.Numel())
		}
		if a.Numel() > maxElems {
			t.Fatalf("decoded %d elements beyond the %d bound", a.Numel(), maxElems)
		}
		for _, d := range a.Shape {
			if d < 0 || d > maxElems {
				t.Fatalf("decoded dimension %d outside [0,%d]", d, maxElems)
			}
		}
		if a.FromStage < 0 || a.FromStage > math.MaxUint16 {
			t.Fatalf("decoded fromStage %d outside uint16", a.FromStage)
		}
		if a.Pos < 0 || a.Pos > math.MaxUint16 {
			t.Fatalf("decoded pos %d outside uint16", a.Pos)
		}
		if a.Node < 0 || a.Node > math.MaxUint16 {
			t.Fatalf("decoded node %d outside uint16", a.Node)
		}
		if a.Node != 0 && b[4] == versionLinear {
			t.Fatalf("version-1 input decoded to node %d", a.Node)
		}
	})
}

// checkRecord holds DecodeRecord to its layout: b decodes if and only if it
// is exactly RecordSize bytes, and then re-encodes to exactly b.
func checkRecord(t *testing.T, b []byte) {
	t.Helper()
	r, err := DecodeRecord(b)
	if (err == nil) != (len(b) == RecordSize) {
		t.Fatalf("a %d-byte record decoded with error %v", len(b), err)
	}
	if err != nil {
		return
	}
	if again, err := AppendRecord(nil, r); err != nil || !bytes.Equal(again, b) {
		t.Fatalf("record %x re-encodes to %x (%v)", b, again, err)
	}
}

// TestDecodeMalformedSeedsError pins the malformed seeds to hard errors
// (FuzzDecode only demands no-panic; these specific corruptions must also
// be rejected, not misread).
func TestDecodeMalformedSeedsError(t *testing.T) {
	seeds := map[string][]byte{
		"empty":            {},
		"magic-only":       []byte("CDLA"),
		"bad-magic":        []byte("XDLA\x01\x00\x00\x00\x00\x00\x00\x00\x00"),
		"unknown-version":  []byte("CDLA\x03\x00\x00\x00\x00\x00\x00\x00\x00"),
		"unknown-encoding": []byte("CDLA\x01\x07\x00\x00\x00\x00\x00\x00\x00"),
		"hostile-dims":     []byte("CDLA\x01\x00\x00\x00\x00\x00\x00\x00\x02\xff\xff\xff\xff\xff\xff\xff\xff"),
		// A version-2 byte with only the 13-byte linear header: the routed
		// layout needs two more bytes for the node field.
		"routed-header-truncated": []byte("CDLA\x02\x00\x00\x00\x00\x00\x00\x00\x00"),
	}
	for name, s := range seeds {
		if _, err := Decode(s); err == nil {
			t.Errorf("%s: malformed input decoded without error", name)
		}
	}
}

// TestWriteFuzzCorpus materializes the seed corpus under testdata so the
// fuzz engine (and plain `go test`) replays it from disk; run with
// -update-fuzz-corpus to regenerate after a format change.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateFuzzCorpus {
		t.Skip("run with -update-fuzz-corpus to regenerate")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, s := range fuzzSeeds() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(s)))
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

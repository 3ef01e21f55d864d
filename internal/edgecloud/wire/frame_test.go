package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"cdl/internal/fixed"
)

// testFrame is a well-formed frame of two activations under a policy object,
// with the parts it was made of.
func testFrame(t testing.TB) (frame, members []byte, payloads [][]byte) {
	t.Helper()
	for _, a := range []Activation{
		{FromStage: 1, Pos: 3, Shape: []int{2, 3}, Data: []float64{1, 2, 3, 4, 5, 6}},
		{Node: 2, Shape: []int{1}, Data: []float64{-0.5}},
	} {
		p, err := Encode(a, EncodingFloat64, fixed.Format{})
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	members = []byte(`{"policy":{"delta":0.95}}`)
	frame, err := AppendFrame(nil, members, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return frame, members, payloads
}

// TestFrameRoundTrip pins the frame's size (the preamble, the members and a
// four-byte length per payload: what the link is charged on is the payloads
// alone), that AppendFrame sizes its buffer once, and that ReadFrame hands
// back exactly what went in.
func TestFrameRoundTrip(t *testing.T) {
	frame, members, payloads := testFrame(t)
	want := framePreamble + len(members)
	for _, p := range payloads {
		want += 4 + len(p)
	}
	if len(frame) != want {
		t.Errorf("frame is %d bytes, want %d", len(frame), want)
	}
	// Sized once: a buffer of exactly the frame's length is not outgrown.
	dst := make([]byte, 0, want)
	if again, _ := AppendFrame(dst, members, payloads); &again[0] != &dst[:1][0] {
		t.Error("AppendFrame outgrew a buffer of the frame's own size")
	}
	gotMembers, gotPayloads, err := ReadFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotMembers, members) {
		t.Errorf("members %q, want %q", gotMembers, members)
	}
	if len(gotPayloads) != len(payloads) {
		t.Fatalf("%d payloads, want %d", len(gotPayloads), len(payloads))
	}
	for i, p := range gotPayloads {
		if !bytes.Equal(p, payloads[i]) {
			t.Errorf("payload %d differs", i)
		}
		if _, err := Decode(p); err != nil {
			t.Errorf("payload %d: %v", i, err)
		}
	}

	// No payloads and no members is still a frame; the reader leaves the
	// verdict on both to its caller.
	empty, err := AppendFrame([]byte("prefix"), nil, nil)
	if err != nil || len(empty) != len("prefix")+framePreamble {
		t.Fatalf("empty frame: %d bytes, %v", len(empty), err)
	}
	if m, p, err := ReadFrame(empty[len("prefix"):]); err != nil || len(m) != 0 || len(p) != 0 {
		t.Errorf("empty frame read back as (%q, %d payloads, %v)", m, len(p), err)
	}
	if _, err := AppendFrame(nil, nil, make([][]byte, 1<<16)); err == nil {
		t.Error("a count outside uint16 was framed")
	}
}

// TestReadFrameMalformed pins every refusal of the frame reader.
func TestReadFrameMalformed(t *testing.T) {
	frame, members, payloads := testFrame(t)
	mutate := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(frame)) }
	firstLen := framePreamble + len(members)
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"empty", "shorter than the 12-byte preamble", nil},
		{"truncated preamble", "shorter than the 12-byte preamble", frame[:framePreamble-1]},
		{"an activation, not a frame", `bad magic "CDLA"`, payloads[0]},
		{"unknown version", "version 2, want 1", mutate(func(b []byte) []byte { b[4] = 2; return b })},
		{"truncated members", "truncated members", frame[:framePreamble+3]},
		{"members length past the end", "truncated members", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 1<<31)
			return b
		})},
		{"truncated payload length", "payload 0: truncated length", frame[:firstLen+2]},
		{"truncated payload", "payload 1: truncated (", frame[:len(frame)-1]},
		{"payload length past the end", "payload 0: truncated (", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[firstLen:], 1<<31)
			return b
		})},
		{"count above the payloads", "payload 2: truncated length", mutate(func(b []byte) []byte { b[6] = 3; return b })},
		{"count below the payloads", "trailing bytes", mutate(func(b []byte) []byte { b[6] = 1; return b })},
		{"hostile count", "payload 0: truncated length", mutate(func(b []byte) []byte {
			b[6], b[7] = 0xff, 0xff
			return b[:firstLen]
		})},
		{"trailing byte", "1 trailing bytes", append(bytes.Clone(frame), 0)},
	} {
		_, _, err := ReadFrame(tc.b)
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "wire: frame: ") {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestReadFrameAppendCap pins the reader's cap: a frame that declares more
// payloads than max reads back its members and its count with no payload
// and no error, whatever follows the members (a hostile count, a truncated
// payload), and leaves the caller's storage as it was; at the cap it reads
// whole, appending to that storage.
func TestReadFrameAppendCap(t *testing.T) {
	frame, members, payloads := testFrame(t)
	dst := make([][]byte, 1, 8)
	for _, b := range [][]byte{frame, frame[:len(frame)-1]} {
		m, got, count, err := ReadFrameAppend(dst, b, len(payloads)-1)
		if err != nil || !bytes.Equal(m, members) || count != len(payloads) || len(got) != 1 || dst[:2][1] != nil {
			t.Errorf("over the cap: members %q, %d payloads, count %d, %v", m, len(got), count, err)
		}
	}
	m, got, count, err := ReadFrameAppend(dst, frame, len(payloads))
	if err != nil || !bytes.Equal(m, members) || count != len(payloads) || len(got) != 1+len(payloads) || &got[0] != &dst[0] {
		t.Fatalf("at the cap: members %q, %d payloads, count %d, %v", m, len(got), count, err)
	}
	for i, p := range got[1:] {
		if !bytes.Equal(p, payloads[i]) {
			t.Errorf("payload %d differs", i)
		}
	}
}

// TestRecordRoundTrip pins the answer record: 12 bytes, exit and label as
// uint16, the confidence's bits as they were (a NaN's payload and a
// negative zero included), and an answer frame of records reads back
// through ReadFrame and DecodeRecord to what was framed.
func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		{Exit: 0, Label: 0, Confidence: 0},
		{Exit: 2, Label: 9, Confidence: 0.9921875},
		{Exit: math.MaxUint16, Label: math.MaxUint16, Confidence: math.Copysign(0, -1)},
		{Exit: 1, Label: 3, Confidence: math.Float64frombits(0x7ff8000000000123)},
	}
	var payloads [][]byte
	for _, r := range recs {
		b, err := AppendRecord(nil, r)
		if err != nil || len(b) != RecordSize {
			t.Fatalf("%+v: %d bytes, %v", r, len(b), err)
		}
		got, err := DecodeRecord(b)
		if err != nil || got.Exit != r.Exit || got.Label != r.Label || math.Float64bits(got.Confidence) != math.Float64bits(r.Confidence) {
			t.Errorf("%+v reads back as %+v (%v)", r, got, err)
		}
		payloads = append(payloads, b)
	}
	if b, _ := AppendRecord(nil, recs[1]); !bytes.Equal(b, []byte{2, 0, 9, 0, 0, 0, 0, 0, 0, 0xc0, 0xef, 0x3f}) {
		t.Errorf("layout: % x", b)
	}
	answer, err := AppendFrame(nil, nil, payloads)
	if err != nil || len(answer) != framePreamble+len(recs)*(4+RecordSize) {
		t.Fatalf("answer frame: %d bytes, %v", len(answer), err)
	}
	members, got, err := ReadFrame(answer)
	if err != nil || len(members) != 0 || len(got) != len(recs) {
		t.Fatalf("answer frame reads back as (%q, %d payloads, %v)", members, len(got), err)
	}
}

// TestRecordMalformed pins every refusal of the record codec.
func TestRecordMalformed(t *testing.T) {
	good, err := AppendRecord(nil, Record{Exit: 1, Label: 2, Confidence: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		b          []byte
	}{
		{"empty", "0 bytes, want 12", nil},
		{"truncated", "11 bytes, want 12", good[:RecordSize-1]},
		{"13 bytes", "13 bytes, want 12", append(bytes.Clone(good), 0)},
	} {
		if _, err := DecodeRecord(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) || !strings.HasPrefix(err.Error(), "wire: record: ") {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	for _, r := range []Record{{Exit: -1}, {Exit: math.MaxUint16 + 1}, {Label: -1}, {Label: math.MaxUint16 + 1}} {
		if b, err := AppendRecord([]byte("kept"), r); err == nil || string(b) != "kept" {
			t.Errorf("%+v: encoded as %q (%v), want an error and dst unchanged", r, b, err)
		}
	}
}

// Package wire is the versioned binary encoding of intermediate activations
// shipped across the edge–cloud split. An encoded activation carries enough
// metadata for the cloud to resume Algorithm 2 — the cascade stage to resume
// from, the baseline-layer position and shape of the tensor — plus the
// payload in one of two encodings:
//
//   - EncodingFloat64: raw IEEE-754 bits, lossless. The default, because it
//     preserves the tier-split bit-identity guarantee (split results equal
//     monolithic Classify exactly).
//   - EncodingFixed: int16 fixed-point words in a Qm.n format from
//     internal/fixed, modelling the quantized link of an edge deployment
//     (Long et al. 2020 ship 8/16-bit activations to cut radio energy).
//     4× smaller than float64 at Q2.13 resolution (2^-13) per element.
//
// The byte layout (all multi-byte fields little-endian) is:
//
//	offset size  field
//	0      4     magic "CDLA"
//	4      1     version (1 = linear, 2 = routed)
//	5      1     encoding (0 = float64, 1 = fixed)
//	6      1     fixed-point integer bits (0 for float64)
//	7      1     fixed-point fraction bits (0 for float64)
//	8      2     fromStage: first cascade stage the receiver evaluates
//	10     2     pos: number of baseline layers composing the activation
//	12     2     node: routing-graph node to resume in (version 2 only)
//	...    1     rank, then rank × uint32 dims
//	...          payload: numel × 8 bytes (float64) or × 2 bytes (fixed)
//
// Version 2 adds the routing-graph node the receiver must resume in, so a
// split/resume position names a (node, fromStage, pos) triple. Encoders
// emit version 1 whenever the node is the trunk (node 0) — a linear
// deployment's bytes are unchanged, and a routed edge talking only trunk
// handoffs interoperates with a version-1 peer. Decoders accept both
// versions (a version-1 activation resumes in the trunk) and reject unknown
// magic, versions and encodings, so the format can evolve without silently
// misreading old peers. An activation carries no trace ID: the request's
// trace crosses the split beside the payloads (the X-Trace-Id header of a
// resume POST).
//
// Several activations cross the link in one resume frame, the body of a
// POST to a resume route under Content-Type FrameContentType (AppendFrame,
// ReadFrame; little-endian like the activation header):
//
//	offset size  field
//	0      4     magic "CDLF"
//	4      2     version (1)
//	6      2     count: number of payloads
//	8      4     m: length of the members
//	12     m     members: the route's JSON wire struct, payload fields empty
//	...          count × (uint32 length, then that many bytes: one Encode result)
//
// The members carry what is not an activation (exit policy, deadline) in the
// JSON the route's text body uses, so there is one policy decoder. A reader
// refuses trailing bytes, a count that disagrees with the payloads present
// and any length that runs past the end.
//
// A frame is answered with a frame: the request's Content-Type picks both
// directions. The answer has the same layout. Its payloads are records, one
// per request payload in the same order, each 12 bytes (AppendRecord,
// DecodeRecord; little-endian):
//
//	offset size  field
//	0      2     exit: the global exit index the input left the cascade at
//	2      2     label: the predicted class
//	4      8     confidence: the winning score's raw IEEE-754 bits
//
// The exit's node, name and op cost are functions of the exit index on the
// model both tiers hold, so the receiver derives them rather than reading
// them. The answer's members are the request trace's span list (JSON) when
// the sender returns one, and empty otherwise. A refusal is not a frame: it
// keeps its status code and its JSON error body.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"cdl/internal/fixed"
)

// Encoding selects the payload representation.
type Encoding uint8

const (
	// EncodingFloat64 is the lossless raw-bits payload.
	EncodingFloat64 Encoding = 0
	// EncodingFixed is the quantized int16 payload in a fixed.Format.
	EncodingFixed Encoding = 1
)

// String renders the encoding for logs and tables.
func (e Encoding) String() string {
	switch e {
	case EncodingFloat64:
		return "float64"
	case EncodingFixed:
		return "fixed"
	}
	return fmt.Sprintf("encoding(%d)", uint8(e))
}

const (
	magic = "CDLA"
	// versionLinear is the original trunk-only header; versionRouted adds
	// the uint16 routing-graph node.
	versionLinear = 1
	versionRouted = 2
	// headerBase is the fixed part of the version-1 header before the
	// dims; the version-2 header is two bytes longer.
	headerBase       = 13
	headerBaseRouted = 15
	// maxDim bounds each dimension and the total element count a decoder
	// will accept, so a hostile header cannot make it allocate unboundedly.
	maxElems = 1 << 24
)

// Activation is the decoded form of a split-point handoff.
type Activation struct {
	// Node is the routing-graph node the receiving tier resumes in: 0 for
	// the trunk (the only value a linear deployment produces), a branch
	// index when the sender's trunk prefix routed the input (the handoff
	// is then the branch entry: FromStage 0, Pos 0).
	Node int
	// FromStage is the first cascade stage of the node the receiving tier
	// evaluates (the split stage of the sender's prefix).
	FromStage int
	// Pos is the number of leading baseline layers composing Data — the
	// CDLN.SplitPos of FromStage, carried explicitly so the receiver can
	// cross-check it against its own model.
	Pos int
	// Shape is the activation tensor's shape.
	Shape []int
	// Data is the payload in float64 (dequantized when the wire encoding
	// was fixed-point).
	Data []float64
}

// Numel returns the element count implied by Shape.
func (a Activation) Numel() int {
	n := 1
	for _, d := range a.Shape {
		n *= d
	}
	return n
}

// EncodedSize returns the wire size in bytes of a trunk (node 0)
// activation with the given rank and element count under an encoding —
// the quantity the tiered energy model charges at pJ/byte.
func EncodedSize(rank, numel int, enc Encoding) int {
	return EncodedSizeAt(0, rank, numel, enc)
}

// EncodedSizeAt is EncodedSize for a handoff into an arbitrary
// routing-graph node: branch handoffs (node > 0) pay the two extra
// version-2 header bytes.
func EncodedSizeAt(node, rank, numel int, enc Encoding) int {
	per := 8
	if enc == EncodingFixed {
		per = 2
	}
	base := headerBase
	if node != 0 {
		base = headerBaseRouted
	}
	return base + 4*rank + per*numel
}

// Encode serializes the activation: AppendEncode into a buffer of its own.
func Encode(a Activation, enc Encoding, f fixed.Format) ([]byte, error) {
	return AppendEncode(nil, a, enc, f)
}

// AppendEncode appends the serialized activation to dst, grown at most
// once. For EncodingFixed, f must be a valid format of width ≤ 16 (the
// int16 payload word); values are quantized with saturation, so
// out-of-range activations clip rather than wrap. For EncodingFloat64, f
// is ignored. On error dst is returned with its length unchanged.
func AppendEncode(dst []byte, a Activation, enc Encoding, f fixed.Format) ([]byte, error) {
	if len(a.Data) != a.Numel() {
		return dst, fmt.Errorf("wire: %d values for shape %v (%d elements)", len(a.Data), a.Shape, a.Numel())
	}
	if a.Node < 0 || a.Node > math.MaxUint16 {
		return dst, fmt.Errorf("wire: node %d outside uint16", a.Node)
	}
	if a.FromStage < 0 || a.FromStage > math.MaxUint16 {
		return dst, fmt.Errorf("wire: fromStage %d outside uint16", a.FromStage)
	}
	if a.Pos < 0 || a.Pos > math.MaxUint16 {
		return dst, fmt.Errorf("wire: pos %d outside uint16", a.Pos)
	}
	if len(a.Shape) > math.MaxUint8 {
		return dst, fmt.Errorf("wire: rank %d outside uint8", len(a.Shape))
	}
	for _, d := range a.Shape {
		if d < 0 || d > maxElems {
			return dst, fmt.Errorf("wire: dimension %d outside [0,%d]", d, maxElems)
		}
	}
	var intBits, fracBits uint8
	switch enc {
	case EncodingFloat64:
	case EncodingFixed:
		if err := f.Validate(); err != nil {
			return dst, err
		}
		if f.Width() > 16 {
			return dst, fmt.Errorf("wire: fixed format %s width %d exceeds the 16-bit payload word", f, f.Width())
		}
		intBits, fracBits = uint8(f.IntBits), uint8(f.FracBits)
	default:
		return dst, fmt.Errorf("wire: unknown encoding %d", enc)
	}

	// Trunk handoffs stay on the version-1 layout byte for byte; only a
	// routed handoff needs the node field, and hence version 2.
	ver := uint8(versionLinear)
	if a.Node != 0 {
		ver = versionRouted
	}
	b := slices.Grow(dst, EncodedSizeAt(a.Node, len(a.Shape), len(a.Data), enc))
	b = append(b, magic...)
	b = append(b, ver, uint8(enc), intBits, fracBits)
	b = binary.LittleEndian.AppendUint16(b, uint16(a.FromStage))
	b = binary.LittleEndian.AppendUint16(b, uint16(a.Pos))
	if ver == versionRouted {
		b = binary.LittleEndian.AppendUint16(b, uint16(a.Node))
	}
	b = append(b, uint8(len(a.Shape)))
	for _, d := range a.Shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	switch enc {
	case EncodingFloat64:
		for _, v := range a.Data {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	case EncodingFixed:
		for _, v := range a.Data {
			b = binary.LittleEndian.AppendUint16(b, uint16(int16(f.Quantize(v))))
		}
	}
	return b, nil
}

// Decode parses an encoded activation, dequantizing fixed-point payloads
// back to float64, into storage of its own: DecodeAppend(nil, nil, b).
func Decode(b []byte) (Activation, error) {
	_, _, a, err := DecodeAppend(nil, nil, b)
	return a, err
}

// DecodeAppend parses an encoded activation, dequantizing fixed-point
// payloads back to float64, and appends its values to dst and its dims to
// dims, each grown at most once: the returned activation's Data and Shape
// are the appended tails (capped at their lengths), valid while the
// storage of dst and dims is. It validates the header defensively, since
// the input may come off the network; on error dst and dims are returned
// with their lengths unchanged and nothing of them written.
func DecodeAppend(dst []float64, dims []int, b []byte) ([]float64, []int, Activation, error) {
	var a Activation
	if len(b) < headerBase {
		return dst, dims, a, fmt.Errorf("wire: %d bytes, shorter than the %d-byte header", len(b), headerBase)
	}
	if string(b[:4]) != magic {
		return dst, dims, a, fmt.Errorf("wire: bad magic %q", b[:4])
	}
	if b[4] != versionLinear && b[4] != versionRouted {
		return dst, dims, a, fmt.Errorf("wire: version %d, want %d or %d", b[4], versionLinear, versionRouted)
	}
	enc := Encoding(b[5])
	f := fixed.Format{IntBits: int(b[6]), FracBits: int(b[7])}
	switch enc {
	case EncodingFloat64:
	case EncodingFixed:
		if err := f.Validate(); err != nil {
			return dst, dims, a, err
		}
		if f.Width() > 16 {
			return dst, dims, a, fmt.Errorf("wire: fixed format %s width %d exceeds the 16-bit payload word", f, f.Width())
		}
	default:
		return dst, dims, a, fmt.Errorf("wire: unknown encoding %d", enc)
	}
	a.FromStage = int(binary.LittleEndian.Uint16(b[8:10]))
	a.Pos = int(binary.LittleEndian.Uint16(b[10:12]))
	base := headerBase
	if b[4] == versionRouted {
		if len(b) < headerBaseRouted {
			return dst, dims, a, fmt.Errorf("wire: %d bytes, shorter than the %d-byte routed header", len(b), headerBaseRouted)
		}
		a.Node = int(binary.LittleEndian.Uint16(b[12:14]))
		base = headerBaseRouted
	}
	rank := int(b[base-1])
	if len(b) < base+4*rank {
		return dst, dims, a, fmt.Errorf("wire: truncated dims (rank %d, %d bytes)", rank, len(b))
	}
	numel := 1
	for i := 0; i < rank; i++ {
		d := int(binary.LittleEndian.Uint32(b[base+4*i:]))
		if d > maxElems || numel > maxElems/max(d, 1) {
			return dst, dims, a, fmt.Errorf("wire: dimension %d of %d exceeds the %d-element decode bound", d, rank, maxElems)
		}
		numel *= d
	}
	payload, per := b[base+4*rank:], 8
	if enc == EncodingFixed {
		per = 2
	}
	if len(payload) != per*numel {
		return dst, dims, a, fmt.Errorf("wire: %s payload %d bytes, want %d", enc, len(payload), per*numel)
	}
	at := len(dims)
	dims = slices.Grow(dims, rank)[:at+rank]
	a.Shape = dims[at : at+rank : at+rank]
	for i := range a.Shape {
		a.Shape[i] = int(binary.LittleEndian.Uint32(b[base+4*i:]))
	}
	at = len(dst)
	dst = slices.Grow(dst, numel)[:at+numel]
	a.Data = dst[at : at+numel : at+numel]
	switch enc {
	case EncodingFloat64:
		for i := range a.Data {
			a.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
	case EncodingFixed:
		for i := range a.Data {
			raw := int16(binary.LittleEndian.Uint16(payload[2*i:]))
			a.Data[i] = f.Dequantize(int64(raw))
		}
	}
	return dst, dims, a, nil
}

// FrameContentType is the request Content-Type that selects the resume
// frame on a resume route; any other value is a JSON body.
const FrameContentType = "application/x-cdl-wire"

const (
	frameMagic    = "CDLF"
	frameVersion  = 1
	framePreamble = 12
)

// AppendFrame appends to dst, grown once, the resume frame of payloads (each
// an Encode result) under members, the route's JSON wire struct without them.
func AppendFrame(dst, members []byte, payloads [][]byte) ([]byte, error) {
	if len(payloads) > math.MaxUint16 {
		return nil, fmt.Errorf("wire: frame: %d payloads outside uint16", len(payloads))
	}
	size := framePreamble + len(members)
	for _, p := range payloads {
		size += 4 + len(p)
	}
	dst = slices.Grow(dst, size)
	dst = append(dst, frameMagic...)
	dst = binary.LittleEndian.AppendUint16(dst, frameVersion)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(payloads)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(members)))
	dst = append(dst, members...)
	for _, p := range payloads {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
		dst = append(dst, p...)
	}
	return dst, nil
}

// ReadFrame splits a resume frame into its members and payloads. Both alias
// b: decode each payload (Decode and DecodeAppend copy) before b is reused.
// The payload count is the frame's own; the caller holds it to its
// per-request cap, or has ReadFrameAppend do so before any payload is read.
func ReadFrame(b []byte) (members []byte, payloads [][]byte, err error) {
	members, payloads, _, err = ReadFrameAppend(nil, b, math.MaxUint16)
	return members, payloads, err
}

// ReadFrameAppend is ReadFrame appending the payloads to dst, and count is
// the number of payloads the frame declares. A frame that declares more
// than max is read no further than its members: no payload is appended
// and err is nil, so the caller refuses the count by its own rule, after
// its members, without having stored anything per payload.
func ReadFrameAppend(dst [][]byte, b []byte, max int) (members []byte, payloads [][]byte, count int, err error) {
	if len(b) < framePreamble {
		return nil, dst, 0, fmt.Errorf("wire: frame: %d bytes, shorter than the %d-byte preamble", len(b), framePreamble)
	}
	if string(b[:4]) != frameMagic {
		return nil, dst, 0, fmt.Errorf("wire: frame: bad magic %q", b[:4])
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != frameVersion {
		return nil, dst, 0, fmt.Errorf("wire: frame: version %d, want %d", v, frameVersion)
	}
	count = int(binary.LittleEndian.Uint16(b[6:]))
	n, rest := uint64(binary.LittleEndian.Uint32(b[8:])), b[framePreamble:]
	if n > uint64(len(rest)) {
		return nil, dst, 0, fmt.Errorf("wire: frame: truncated members (%d of %d bytes)", len(rest), n)
	}
	members, rest = rest[:n], rest[n:]
	if count > max {
		return members, dst, count, nil
	}
	// Sized by what b can hold, not by what it claims.
	payloads = slices.Grow(dst, min(count, len(rest)/4))
	for i := range count {
		if len(rest) < 4 {
			return nil, dst, 0, fmt.Errorf("wire: frame: payload %d: truncated length", i)
		}
		n, rest = uint64(binary.LittleEndian.Uint32(rest)), rest[4:]
		if n > uint64(len(rest)) {
			return nil, dst, 0, fmt.Errorf("wire: frame: payload %d: truncated (%d of %d bytes)", i, len(rest), n)
		}
		payloads, rest = append(payloads, rest[:n]), rest[n:]
	}
	if len(rest) != 0 {
		return nil, dst, 0, fmt.Errorf("wire: frame: %d trailing bytes", len(rest))
	}
	return members, payloads, count, nil
}

// RecordSize is the length of one answer record.
const RecordSize = 12

// Record is one resumed input's outcome as an answer frame carries it.
type Record struct {
	// Exit is the global exit index (core.ExitRecord.StageIndex).
	Exit int
	// Label is the predicted class.
	Label int
	// Confidence is the winning score at the exit, bit for bit.
	Confidence float64
}

// AppendRecord appends r's RecordSize bytes to dst. On error dst is
// returned unchanged.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	if r.Exit < 0 || r.Exit > math.MaxUint16 {
		return dst, fmt.Errorf("wire: record: exit %d outside uint16", r.Exit)
	}
	if r.Label < 0 || r.Label > math.MaxUint16 {
		return dst, fmt.Errorf("wire: record: label %d outside uint16", r.Label)
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Exit))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(r.Label))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Confidence)), nil
}

// DecodeRecord parses one record, which is exactly RecordSize bytes.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) != RecordSize {
		return Record{}, fmt.Errorf("wire: record: %d bytes, want %d", len(b), RecordSize)
	}
	return Record{
		Exit:       int(binary.LittleEndian.Uint16(b)),
		Label:      int(binary.LittleEndian.Uint16(b[2:])),
		Confidence: math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
	}, nil
}

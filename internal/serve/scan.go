// scan.go is the fast path of decodeJSON for the image routes: one pass
// over the body that parses the pixel arrays itself and leaves every other
// member to encoding/json. It only ever accepts or declines. It accepts
// exactly the shape clients send — one top-level object whose keys are the
// byte-exact, unescaped, distinct field names of the route's wire struct,
// with "image"/"images" holding JSON-grammar number arrays in float64
// range — and on anything else it declines, so the strict decode runs on
// the same bytes and every reject, and every error string, stays
// encoding/json's own.
package serve

import (
	"encoding/binary"
	"strconv"
)

// The members of the two image wire structs the scanner passes through to
// the strict decode (TestScanKnowsTheWireStructs holds them to the tags).
var (
	classifyOthers   = []string{"delta"}
	v2ClassifyOthers = []string{"policy", "timeout_ms"}
)

// bodyScan is a cursor over one request body.
type bodyScan struct {
	data []byte
	i    int
	// arena is the request the pixels are scanned into: its pixel slots
	// and its image list.
	arena *request
	// fallbacks counts the number tokens strconv.ParseFloat converted
	// because decimalToFloat declined them; tests and BenchmarkDecodeBody
	// hold it at zero on what clients send.
	fallbacks int
}

// space skips JSON whitespace and returns the byte the cursor rests on, 0
// at the end of the data (a NUL byte is valid nowhere outside a string, so
// the two need no telling apart).
func (s *bodyScan) space() byte {
	for ; s.i < len(s.data); s.i++ {
		switch c := s.data[s.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c
		}
	}
	return 0
}

// imageBody scans s.data as an image route's request. others names the
// wire struct's members besides "image" and "images"; width and maxImages
// size the pixel storage (one buffer of exactly the model's width per
// image; a body carrying more than maxImages images declines, so what a
// hostile `[[],[],…` can make the scanner take is what a legitimate full
// request occupies). rest is the other members re-framed as one object for
// the strict decode, nil when there are none. Nothing returned aliases
// s.data. The pixels and the image list live in s.arena: they are the
// request's until it gives its arena back, and nobody may read them after
// that.
func (s *bodyScan) imageBody(others []string, width, maxImages int) (image []float64, images [][]float64, rest []byte, ok bool) {
	data := s.data
	if s.space() != '{' {
		return nil, nil, nil, false
	}
	s.i++
	if s.space() == '}' {
		return nil, nil, nil, true
	}
	seen := 0 // bit 0 "image", bit 1 "images", bit 2+k others[k]
	for {
		if s.space() != '"' {
			return nil, nil, nil, false
		}
		// A candidate that equals a field name holds no backslash, so the
		// quote that ends it is the key's own.
		start := s.i + 1
		for s.i = start; s.i < len(data) && data[s.i] != '"'; s.i++ {
		}
		if s.i == len(data) {
			return nil, nil, nil, false
		}
		key := data[start:s.i]
		s.i++
		if s.space() != ':' {
			return nil, nil, nil, false
		}
		s.i++

		field := -1
		switch {
		case string(key) == "image":
			field = 0
		case string(key) == "images":
			field = 1
		default:
			for k, name := range others {
				if string(key) == name {
					field = 2 + k
				}
			}
		}
		if field < 0 || seen&(1<<field) != 0 {
			return nil, nil, nil, false
		}
		seen |= 1 << field

		switch field {
		case 0:
			if image, ok = s.numbers(width); !ok {
				return nil, nil, nil, false
			}
		case 1:
			if images, ok = s.numberArrays(width, maxImages); !ok {
				return nil, nil, nil, false
			}
		default:
			s.space()
			from := s.i
			if !s.skipValue() {
				return nil, nil, nil, false
			}
			if rest == nil {
				rest = append(make([]byte, 0, 128), '{')
			} else {
				rest = append(rest, ',')
			}
			rest = append(rest, '"')
			rest = append(rest, key...)
			rest = append(rest, '"', ':')
			rest = append(rest, data[from:s.i]...)
		}

		switch s.space() {
		case ',':
			s.i++
		case '}':
			// Like the decoder's, the scan ends with the value: what follows
			// the brace is not looked at.
			if rest != nil {
				rest = append(rest, '}')
			}
			return image, images, rest, true
		default:
			return nil, nil, nil, false
		}
	}
}

// numberArrays scans an array of number arrays.
func (s *bodyScan) numberArrays(width, maxImages int) ([][]float64, bool) {
	if s.space() != '[' {
		return nil, false
	}
	s.i++
	out := s.arena.images[:0]
	if out == nil {
		out = [][]float64{} // an empty array is an empty list, not a missing one
	}
	if s.space() == ']' {
		s.i++
		return out, true
	}
	for {
		if len(out) == maxImages {
			return nil, false
		}
		img, ok := s.numbers(width)
		if !ok {
			return nil, false
		}
		out = append(out, img)
		s.arena.images = out // grown, the list stays the arena's
		switch s.space() {
		case ',':
			s.i++
		case ']':
			s.i++
			return out, true
		default:
			return nil, false
		}
	}
}

// numbers scans one array of numbers into a buffer of exactly width
// float64s, a slot of the arena's pixels (an array of more than width
// numbers regrows out of it, as append does). Each
// token is walked once: the loop that checks it against the JSON number
// grammar (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) also
// gathers its significant digits into an integer mantissa and its decimal
// exponent, which decimalToFloat converts. A token that conversion cannot
// prove — more than 19 significant digits, or one of its own declines — goes
// to strconv.ParseFloat, the conversion encoding/json itself applies, so
// either way the bits are the decoder's; a token ParseFloat refuses (out of
// range) declines the body.
func (s *bodyScan) numbers(width int) ([]float64, bool) {
	if s.space() != '[' {
		return nil, false
	}
	s.i++
	out := s.arena.pixelSlot(width)
	if s.space() == ']' {
		s.i++
		return out, true
	}
	// The per-pixel loop is the scanner's whole cost, so the cursor lives
	// in locals and the whitespace skip is written out.
	data, i, n := s.data, s.i, len(s.data)
	for {
		for i < n && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
			i++
		}
		start := i
		neg := i < n && data[i] == '-'
		if neg {
			i++
		}
		// man gathers the digits of the integer and fraction parts as one
		// integer, wrapping around if they overflow it: digits counts the
		// significant ones (from the first that is not zero), and past 19
		// man is not looked at.
		var man uint64
		digits, exp10 := 0, 0
		// The integer part: a lone 0, or digits that do not start with one.
		// (c-'0' <= 9 is the digit test: a byte below '0' wraps past 9.)
		switch {
		case i < n && data[i] == '0':
			i++
		case i < n && data[i]-'1' <= 8:
			first := i
			for ; i < n && data[i]-'0' <= 9; i++ {
				man = man*10 + uint64(data[i]-'0')
			}
			digits = i - first
		default:
			return nil, false
		}
		if i < n && data[i] == '.' {
			frac := i + 1
			i = frac
			if digits == 0 {
				for i < n && data[i] == '0' {
					i++
				}
			}
			first := i
			// Most pixels are 16 or 17 fraction digits: take them eight to
			// a step while they last, the rest one by one.
			for i+8 <= n {
				v, ok := eightDigits(binary.LittleEndian.Uint64(data[i:]))
				if !ok {
					break
				}
				man = man*1e8 + v
				i += 8
			}
			for ; i < n && data[i]-'0' <= 9; i++ {
				man = man*10 + uint64(data[i]-'0')
			}
			if i == frac {
				return nil, false
			}
			digits += i - first
			exp10 = frac - i
		}
		if i < n && data[i]|0x20 == 'e' {
			i++
			eneg := false
			if i < n && (data[i] == '+' || data[i] == '-') {
				eneg = data[i] == '-'
				i++
			}
			first, e := i, 0
			for ; i < n && data[i]-'0' <= 9; i++ {
				if e < 1e4 { // far outside float64 already: stop before it overflows
					e = e*10 + int(data[i]-'0')
				}
			}
			if i == first {
				return nil, false
			}
			if eneg {
				e = -e
			}
			exp10 += e
		}
		f, ok := 0.0, digits <= 19
		if ok {
			f, ok = decimalToFloat(man, exp10, neg)
		}
		if !ok {
			// The conversion does not escape, so a token of up to 32 bytes
			// is converted on the stack.
			var err error
			if f, err = strconv.ParseFloat(string(data[start:i]), 64); err != nil {
				return nil, false
			}
			s.fallbacks++
		}
		out = append(out, f)

		for i < n && (data[i] == ' ' || data[i] == '\t' || data[i] == '\r' || data[i] == '\n') {
			i++
		}
		if i == n {
			return nil, false
		}
		switch data[i] {
		case ',':
			i++
		case ']':
			s.i = i + 1
			return out, true
		default:
			return nil, false
		}
	}
}

// eightDigits converts eight ASCII digits, loaded little-endian so the first
// is the low byte, to the number they spell; ok=false if any of the eight
// bytes is not a digit. (A digit is 0x30–0x39: high nibble 3, and still 3
// after adding 6. Then adjacent digits are combined pairwise — 10a+b in each
// 16-bit lane, 100ab+cd and 10^4·abcd+efgh by the two multiplies — the word
// at a time technique of github.com/fastfloat/fast_float.)
func eightDigits(v uint64) (val uint64, ok bool) {
	if (v&0xF0F0F0F0F0F0F0F0)|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = v*10 + v>>8
	return ((v&0x000000FF000000FF)*(100+1e6<<32) + (v>>16&0x000000FF000000FF)*(1+1e4<<32)) >> 32, true
}

// skipValue moves the cursor past one JSON value without validating it: it
// only has to find where a well-formed value ends, because the bytes it
// spans go through the strict decode, and a span that is not one valid
// value fails there. A scalar ends before the next comma, closing bracket
// or whitespace; a string at its closing quote; an object or array where
// its brackets balance, strings skipped.
func (s *bodyScan) skipValue() bool {
	data := s.data
	for depth := 0; s.i < len(data); s.i++ {
		switch data[s.i] {
		case '"':
			for s.i++; s.i < len(data) && data[s.i] != '"'; s.i++ {
				if data[s.i] == '\\' {
					s.i++
				}
			}
			if s.i >= len(data) {
				return false
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			if depth == 0 {
				return true // the enclosing object's brace ended a scalar
			}
			depth--
		case ',', ' ', '\t', '\r', '\n':
			if depth == 0 {
				return true
			}
			continue
		default:
			continue
		}
		// A string or a bracket has just closed.
		if depth == 0 {
			s.i++
			return true
		}
	}
	return false
}

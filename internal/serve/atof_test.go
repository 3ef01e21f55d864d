package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// jsonNumber is the JSON number grammar, the one bodyScan.numbers checks
// as it accumulates.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// edgeNumbers are the tokens where the conversion's rungs meet: signed
// zeros, both sides of 2^53 (the exact path's mantissa bound), 19 against 20
// significant digits, exponents on and one past the exact path's ±22 and
// both ends of pow10Table, the float64 range's ends, and ties — the
// published Eisel–Lemire halfway cases among them (2^53+1; 1e23; the
// issue 36657 pair; x.5 at 2^52, where the rounded-down power of ten leaves
// the product one short of the boundary). They seed FuzzNumber and, inside
// "image"/"images", FuzzDecodeBody.
var edgeNumbers = []string{
	"0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "0e999", "0.000e-999", "1e0", "1E0", "1e+0", "1e-0", "0.1e0001", "1e00000000000000000000000000001",
	"1", "-1", "7", "10", "0.1", "0.5", "0.30000000000000004", "0.1234567890123456", "0.12345678901234567", "0.012345678901234567",
	"0.99999999999999989", "0.99999999999999994", "0.99999999999999995", "1.0000000000000002", "3e-7", "1.2345678901234567e-7",
	"9007199254740991", "9007199254740992", "9007199254740993", "9007199254740994", "9007199254740995", "-9007199254740993",
	"18014398509481986", "900719925474099.3", "9007199254740993e0", "9007199254740993e-22", "9007199254740991e-22", "9007199254740991e22",
	"9999999999999999999", "1234567890123456789", "12345678901234567890", "18446744073709551615", "18446744073709551616",
	"9223372036854775808", "9223372036854776832", "0.9999999999999999999", "0.99999999999999999999", "0.00000000000000000000000000001234567890123456789",
	"1.5000000000000000000", "1.50000000000000000000", "1000000000000000000000000", "123456789012345678901234567890123456789012345",
	"1e22", "1e-22", "1e23", "1e-23", "8e22", "8e23", "9007199254740991e23", "9007199254740991e-23", "1e21", "1e-21", "89255e-22", "1.7e22",
	"1e-48", "1e-49", "1e-47", "12345678901234567e-48", "12345678901234567e-49", "1.2345678901234567e-32", "1.2345678901234567e-33",
	"12345678901234567e22", "12345678901234567e23", "12345678901234567e21", "1.2345678901234567e38", "1.2345678901234567e39",
	"5e-324", "4.9e-324", "4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324", "1e-324", "1e-400",
	"2.2250738585072011e-308", "2.2250738585072012e-308", "2.2250738585072014e-308", "2.225073858507201e-308",
	"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308", "1e308", "1e309", "-1e309", "1e999", "1e-999", "1e99999999999999999999",
	"1090544144181609348671888949248", "1090544144181609348835077142190",
	"1.00000000000000011102230246251565404236316680908203125", "1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126", "1.00000000000000033306690738754696212708950042724609375",
	"4503599627370496.5", "4503599627370497.5", "4503599627370498.5", "1125899906842624.125", "1125899906842624.375", "2251799813685248.25",
	"6929495644600919.5", "3.7455744005952583e15", "7.2057594037927933e16", "9.5e-5", "5.9604644775390625e-8",
}

// checkNumber holds the scanner's reading of one JSON-grammar token, alone
// in an array, to strconv.ParseFloat: the scanner accepts exactly when
// ParseFloat has no error, and then with ParseFloat's bits. It reports
// whether the token was converted without the fallback.
func checkNumber(t testing.TB, tok string) (fast bool) {
	t.Helper()
	s := bodyScan{data: []byte("[" + tok + "]"), arena: new(request)}
	got, ok := s.numbers(1)
	want, err := strconv.ParseFloat(tok, 64)
	if ok != (err == nil) {
		t.Fatalf("%s: the scanner accepts: %v; ParseFloat says %v", tok, ok, err)
	}
	if !ok {
		return false
	}
	if len(got) != 1 || math.Float64bits(got[0]) != math.Float64bits(want) {
		t.Fatalf("%s: the scanner reads %v (%#x), ParseFloat %v (%#x)", tok, got, math.Float64bits(got[0]), want, math.Float64bits(want))
	}
	return s.fallbacks == 0
}

// TestDecimalToFloatMatchesParseFloat is the differential test of the
// scanner's conversion: the edge table, then over a million seeded tokens
// of every shape a client's encoder or a hostile one produces. Every token
// either converts to ParseFloat's exact bits or falls back to it, and the
// accept/decline verdict is ParseFloat's error verdict.
func TestDecimalToFloatMatchesParseFloat(t *testing.T) {
	for _, tok := range edgeNumbers {
		if !jsonNumber.MatchString(tok) {
			t.Fatalf("edge token %q is not a JSON number", tok)
		}
		checkNumber(t, tok)
	}

	perShape := 150000
	if testing.Short() {
		perShape = 5000
	}
	rng := rand.New(rand.NewSource(24))
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		b[0] = byte('1' + rng.Intn(9))
		return string(b)
	}
	exponent := func() string {
		return fmt.Sprintf("%c%c%d", "eE"[rng.Intn(2)], "+-"[rng.Intn(2)], rng.Intn([]int{5, 30, 60, 400}[rng.Intn(4)]))
	}
	pixel := func() float64 { return rng.Float64() * []float64{1, 1, 255, 1e-3, 1e-9}[rng.Intn(5)] }
	shapes := []struct {
		name string
		gen  func() string
	}{
		{"shortest g", func() string { return strconv.FormatFloat(pixel(), 'g', -1, 64) }},
		{"shortest f", func() string { return strconv.FormatFloat(pixel(), 'f', -1, 64) }},
		{"e with 17-21 digits", func() string { return strconv.FormatFloat(pixel(), 'e', 16+rng.Intn(5), 64) }},
		{"1-25 digits", func() string { return digits(1 + rng.Intn(25)) }},
		{"1-25 digits with an exponent", func() string { return digits(1+rng.Intn(25)) + exponent() }},
		{"digits.digits", func() string {
			tok := "0"
			if rng.Intn(2) == 0 {
				tok = digits(1 + rng.Intn(12))
			}
			tok += "." + strings.Repeat("0", rng.Intn(4)*rng.Intn(4)) + digits(1+rng.Intn(20))
			if rng.Intn(3) == 0 {
				tok += exponent()
			}
			return tok
		}},
		{"random bits", func() string {
			for {
				if f := math.Float64frombits(rng.Uint64() >> 1); !math.IsNaN(f) && !math.IsInf(f, 0) {
					return strconv.FormatFloat(f, 'g', -1, 64)
				}
			}
		}},
	}
	for _, shape := range shapes {
		fast := 0
		for k := 0; k < perShape; k++ {
			tok := shape.gen()
			if rng.Intn(4) == 0 {
				tok = "-" + tok
			}
			if !jsonNumber.MatchString(tok) {
				t.Fatalf("%s: generated %q, not a JSON number", shape.name, tok)
			}
			if checkNumber(t, tok) {
				fast++
			}
		}
		t.Logf("%-30s %d tokens, %.1f%% converted without strconv", shape.name, perShape, 100*float64(fast)/float64(perShape))
	}
}

// TestEightDigits holds the eight-at-a-time step to the digit loop it
// stands in for, on digit strings and on every way one byte can fail to be
// a digit (the neighbours of '0' and '9', and bytes whose low or high
// nibble alone looks like one).
func TestEightDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for k := 0; k < 200000; k++ {
		var b [8]byte
		want, allDigits := uint64(0), true
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
			if rng.Intn(16) == 0 {
				b[i] = []byte{'/', ':', 0, ' ', '.', 'e', '-', 0x3F, 0x29, 0x40, 0xB5, 0xFF, 0xFA}[rng.Intn(13)]
			}
			allDigits = allDigits && b[i]-'0' <= 9
			want = want*10 + uint64(b[i]-'0')
		}
		got, ok := eightDigits(binary.LittleEndian.Uint64(b[:]))
		if ok != allDigits || ok && got != want {
			t.Fatalf("eightDigits(%q) = %d, %v; want %d, %v", b[:], got, ok, want, allDigits)
		}
	}
}

// TestPow10TableAgainstBig recomputes every row of the checked-in table:
// the top 128 bits of 10^e, rounded down, top bit set, at the binary
// exponent decimalToFloat's retExp2 expression implies.
func TestPow10TableAgainstBig(t *testing.T) {
	if len(exactPow10) != pow10Max+1 {
		t.Fatalf("exactPow10 has %d entries, the window ends at 1e%d", len(exactPow10), pow10Max)
	}
	for e := pow10Min; e <= pow10Max; e++ {
		// 10^e = m · 2^(binExp-127) with 2^127 ≤ m < 2^128.
		binExp := 217706 * e >> 16
		num := big.NewInt(1)
		den := big.NewInt(1)
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			num = pow
		} else {
			den = pow
		}
		if e >= 0 {
			if held, acc := new(big.Float).SetFloat64(exactPow10[e]).Int(nil); acc != big.Exact || held.Cmp(pow) != 0 {
				t.Errorf("exactPow10[%d] holds %v, not 10^%d exactly", e, held, e)
			}
		}
		if shift := 127 - binExp; shift >= 0 {
			num.Lsh(num, uint(shift))
		} else {
			den.Lsh(den, uint(-shift))
		}
		m := new(big.Int).Quo(num, den)
		if m.BitLen() != 128 {
			t.Fatalf("1e%d: the implied binary exponent %d leaves a %d-bit mantissa", e, binExp, m.BitLen())
		}
		lo := new(big.Int).And(m, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
		hi := new(big.Int).Rsh(m, 64).Uint64()
		if row := pow10Table[e-pow10Min]; row != [2]uint64{lo, hi} {
			t.Errorf("1e%d: the table has {%#016X, %#016X}, math/big {%#016X, %#016X}", e, row[0], row[1], lo, hi)
		}
	}
}

// TestClientTokensNeverFallBack keeps the fast conversion from rotting into
// its fallback: every number in every golden image request and in the
// bodies the benchmark's workloads post is converted without strconv.
func TestClientTokensNeverFallBack(t *testing.T) {
	check := func(name string, body []byte, others []string, width int) {
		s := bodyScan{data: body, arena: new(request)}
		image, images, _, ok := s.imageBody(others, width, 256)
		if !ok {
			t.Errorf("%s: the scanner declined it", name)
		}
		tokens := len(image)
		for _, img := range images {
			tokens += len(img)
		}
		if tokens == 0 || s.fallbacks != 0 {
			t.Errorf("%s: %d of %d tokens fell back to strconv", name, s.fallbacks, tokens)
		}
	}
	cdln, _ := testCDLN(t, 91)
	for _, g := range goldenRequests(t, cdln) {
		body, err := json.Marshal(g.req)
		if err != nil {
			t.Fatal(err)
		}
		switch g.req.(type) {
		case ClassifyRequest:
			check(g.name, body, classifyOthers, 144)
		case V2ClassifyRequest:
			check(g.name, body, v2ClassifyOthers, 144)
		}
	}
	single, batch, edge := benchShapedBodies(t, 16)
	check("bench single", single, v2ClassifyOthers, 784)
	check("bench batch16", batch, v2ClassifyOthers, 784)
	check("bench edge", edge, classifyOthers, 784)
}

// FuzzNumber is the differential fuzz of the conversion alone: any bytes
// that spell one JSON number go through bodyScan.numbers and must come out
// with strconv.ParseFloat's verdict and bits.
func FuzzNumber(f *testing.F) {
	for _, tok := range edgeNumbers {
		f.Add([]byte(tok))
	}
	f.Fuzz(func(t *testing.T, tok []byte) {
		if jsonNumber.Match(tok) {
			checkNumber(t, string(tok))
		}
	})
}

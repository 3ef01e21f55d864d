package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cdl/internal/mnist"
)

// wireStructs are the data routes' wire structs (the two /v2 routes' and
// the edge front's ClassifyRequest), each allocated fresh.
var wireStructs = []struct {
	name  string
	alloc func() any
}{
	{"ClassifyRequest", func() any { return new(ClassifyRequest) }},
	{"V2ClassifyRequest", func() any { return new(V2ClassifyRequest) }},
	{"V2ResumeRequest", func() any { return new(V2ResumeRequest) }},
}

// pixelsOf returns a wire struct's pixel members (nil for a resume struct).
func pixelsOf(v any) [][]float64 {
	switch q := v.(type) {
	case *ClassifyRequest:
		return append([][]float64{q.Image}, q.Images...)
	case *V2ClassifyRequest:
		return append([][]float64{q.Image}, q.Images...)
	}
	return nil
}

// checkAgainstOracle holds decodeJSON to a plain strict json.Decoder on one
// body, for all three wire structs: the same verdict, the same error text,
// the same value (reflect.DeepEqual, then bit equality on every pixel, so
// -0 counts). It returns, by wire struct name, whether the scanner took the
// body.
func checkAgainstOracle(t *testing.T, body []byte, width, maxImages int) (scanned map[string]bool) {
	t.Helper()
	scanned = make(map[string]bool)
	for _, ws := range wireStructs {
		got, want := ws.alloc(), ws.alloc()
		took, gotErr := decodeJSON(body, got, &request{width: width, maxInputs: maxImages})
		wantErr := strictDecode(body, want)
		scanned[ws.name] = took
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: decodeJSON says %v, encoding/json says %v", ws.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: decodeJSON decoded %+v, encoding/json %+v", ws.name, got, want)
		}
		wantPix := pixelsOf(want)
		for i, img := range pixelsOf(got) {
			for p, v := range img {
				if math.Float64bits(v) != math.Float64bits(wantPix[i][p]) {
					t.Fatalf("%s: slice %d pixel %d is %v, encoding/json has %v", ws.name, i, p, v, wantPix[i][p])
				}
			}
		}
	}
	return scanned
}

// benchShapedBodies renders the three bodies the benchmark's workloads post
// (bench/setup.go: one image, a batch, and the edge front's batch with a
// δ), n images of the 784-pixel synthetic digits.
func benchShapedBodies(t testing.TB, n int) (single, batch, edge []byte) {
	t.Helper()
	imgs, err := mnist.Generate(mnist.GenConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	images := make([][]float64, n)
	for i := range images {
		images[i] = imgs[i].Pixels
	}
	marshal := func(v any) []byte {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	d := 0.95
	return marshal(V2ClassifyRequest{Image: images[0]}), marshal(V2ClassifyRequest{Images: images}),
		marshal(ClassifyRequest{Images: images, Delta: &d})
}

// scanSeeds is FuzzDecodeBody's checked-in corpus beyond the goldens: every
// place the scanner's grammar and encoding/json's could part ways.
func scanSeeds() [][]byte {
	seeds := []string{
		`{"IMAGES":[[1,2]]}`,
		`{"image":[1,2]}`,
		`{"images":[[1]],"images":[[2]]}`,
		`{"images":[[1]],"Images":null}`,
		`{"image":[1],"image":[2],"delta":0.5,"delta":0.6}`,
		`{"image":null}`,
		`{"images":[null]}`,
		`{"images":[[]]}`,
		`{"images":[]}`,
		`{"image":[]}`,
		`{"image":[[1]]}`,
		`{"images":[1]}`,
		`{"images":[[1],[2],[3],[4]]}`,
		`{"image":[1,2,3,4,5,6]}`,
		`{}`,
		`[]`,
		`null`,
		`{"image":[1,2],}`,
		`{"image":[1,2,]}`,
		`{"image":[1 2]}`,
		`{"image" [1]}`,
		`{"image":[1]]`,
		`{image:[1]}`,
		`{"frogs":1,"image":[1]}`,
		`{"image":[1],"delta":"high"}`,
		`{"image":[1],"delta":0.5x}`,
		`{"image":[1],"delta":}`,
		`{"image":[1],"delta":1 2}`,
		`{"image":[1],"policy":{"detail":"tr\"ace}","delta":0.25,"max_exit":1},"timeout_ms":250}`,
		`{"image":[1],"policy":{"frogs":1}}`,
		`{"image":[1],"policy":{]}`,
		`{"image":[1],"policy":[}`,
		`{"image":[1],"policy":"unterminated`,
		`{"image":[1],"timeout_ms":1.5}`,
		`{"payload":"QUJD","payloads":["QUJD"],"delta":0.5}`,
		"\ufeff" + `{"image":[1]}`,
		"{\"image\":[1\x00]}",
		"{\"image\x00\":[1]}",
		" \t\r\n{ \t\r\n\"image\" \t\r\n: \t\r\n[ \t\r\n1 \t\r\n, \t\r\n-2.5e-3 \t\r\n] \t\r\n, \t\r\n\"images\" \t\r\n: \t\r\n[ \t\r\n[ \t\r\n3 \t\r\n] \t\r\n, \t\r\n[ \t\r\n] \t\r\n] \t\r\n, \t\r\n\"delta\" \t\r\n: \t\r\n0.5 \t\r\n} \t\r\n",
		"{\"image\":[1,\v2]}",
		`{"image":[1]} trailing garbage`,
		`{"image":[1]}{"image":[2]}`,
		`{"policy":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		`{"policy":` + strings.Repeat(`{"a":`, 10000) + `1` + strings.Repeat("}", 10000) + `}`,
		`{"image":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	}
	// Tokens on both sides of the number grammar, then the conversion's edge table.
	for _, num := range append([]string{
		"-1e999", "01", "-01", "+1", ".5", "-.5", "1.", "1.e3", "1e", "1e+", "1E-2", "1e+2",
		"-", "--1", "0x10", "NaN", "Infinity", "-Infinity", "1_000", "true", `"1"`,
	}, edgeNumbers...) {
		seeds = append(seeds, `{"image":[`+num+`]}`, `{"images":[[0,`+num+`]],"delta":0.5}`)
	}
	out := make([][]byte, len(seeds))
	for i, s := range seeds {
		out[i] = []byte(s)
	}
	return out
}

// FuzzDecodeBody is the differential fuzz of the request-body scanner
// against its oracle, with no HTTP and no model in the loop: whatever the
// bytes, decodeJSON and a plain strict json.Decoder agree on accept or
// reject, on the decoded value and on the error text, at a pixel-storage
// sizing the body overruns and at one it fits.
func FuzzDecodeBody(f *testing.F) {
	cdln, _ := testCDLN(f, 91)
	for _, g := range goldenRequests(f, cdln) {
		body, err := json.Marshal(g.req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		for k := 1; k < 8; k++ {
			f.Add(body[:len(body)*k/8])
		}
		f.Add(append(body[:len(body):len(body)], " trailing garbage"...))
	}
	for _, s := range scanSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body, 4, 3)
		checkAgainstOracle(t, body, 144, 256)
	})
}

// TestScannerTakesWhatClientsSend keeps the fast path from rotting into its
// fallback: every golden image request and every benchmark-shaped body
// must be taken by the scanner on its own route's wire struct, not declined
// (and, like any body, agree with the oracle; the resume goldens are the
// oracle's by design).
func TestScannerTakesWhatClientsSend(t *testing.T) {
	cdln, _ := testCDLN(t, 91)
	for _, g := range goldenRequests(t, cdln) {
		body, err := json.Marshal(g.req)
		if err != nil {
			t.Fatal(err)
		}
		route := reflect.TypeOf(g.req).Name()
		if took := checkAgainstOracle(t, body, 144, 256)[route]; !took && !strings.Contains(g.name, "resume") {
			t.Errorf("golden %s: the scanner declined it", g.name)
		}
	}
	single, batch, edge := benchShapedBodies(t, 16)
	for _, tc := range []struct {
		name, route string
		body        []byte
	}{{"single", "V2ClassifyRequest", single}, {"batch16", "V2ClassifyRequest", batch}, {"edge", "ClassifyRequest", edge}} {
		if !checkAgainstOracle(t, tc.body, 784, 256)[tc.route] {
			t.Errorf("bench-shaped %s body: the scanner declined it", tc.name)
		}
	}
}

// TestScanKnowsTheWireStructs holds the member names the scanner passes
// through to the json tags of the two image wire structs: a field added to
// one of them must be named here, or the scanner would decline every body
// that carries it.
func TestScanKnowsTheWireStructs(t *testing.T) {
	for _, tc := range []struct {
		v      any
		others []string
	}{{ClassifyRequest{}, classifyOthers}, {V2ClassifyRequest{}, v2ClassifyOthers}} {
		typ := reflect.TypeOf(tc.v)
		var tags []string
		for i := 0; i < typ.NumField(); i++ {
			name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
			tags = append(tags, name)
		}
		if want := append([]string{"image", "images"}, tc.others...); !reflect.DeepEqual(tags, want) {
			t.Errorf("%s has members %q, the scanner knows %q", typ.Name(), tags, want)
		}
	}
}

// TestDecodedRequestDoesNotAliasTheBody pins the pool's contract: a decoded
// request owns its pixels, until it gives them back, and its strings. The
// first request is decoded
// through decodeBody, which returns the buffer to the pool; a second decode
// of a same-sized body then overwrites it, and the first request must still
// read as sent. The same is then shown without relying on the pool handing
// the buffer back: decode from a slice, scribble over it, compare.
func TestDecodedRequestDoesNotAliasTheBody(t *testing.T) {
	delta, capAt := 0.25, 1
	sent := V2ClassifyRequest{
		Image:     []float64{0.125, -0, 3e-7, 0.30000000000000004},
		Images:    [][]float64{{1, 2, 3, 4}, {5.5, 6.5, 7.5, 8.5}},
		Policy:    &PolicyRequest{Delta: &delta, MaxExit: &capAt, Detail: DetailTrace},
		TimeoutMS: 250,
	}
	body, err := json.Marshal(sent)
	if err != nil {
		t.Fatal(err)
	}
	other := bytes.Map(func(r rune) rune {
		if '0' <= r && r <= '8' {
			return r + 1
		}
		return r
	}, body)
	decode := func(body []byte) *V2ClassifyRequest {
		var q V2ClassifyRequest
		r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
		if rerr := decodeBody(httptest.NewRecorder(), r, http.MethodPost, 1<<20, &q, &request{width: 4, maxInputs: 8}); rerr != nil {
			t.Fatal(rerr.msg)
		}
		return &q
	}
	first := decode(body)
	for i := 0; i < 8; i++ {
		decode(other)
	}
	if !reflect.DeepEqual(first, &sent) {
		t.Errorf("after the pool reused its buffer the first request reads %+v, sent %+v", first, sent)
	}

	for _, ws := range wireStructs {
		for _, g := range [][]byte{body, []byte(`{"payload":"QUJD","payloads":["QUJD","REVG"],"policy":{"delta":0.5}}`)} {
			data := bytes.Clone(g)
			got, want := ws.alloc(), ws.alloc()
			if _, err := decodeJSON(data, got, &request{width: 4, maxInputs: 8}); err != nil {
				continue // the other route family's body: unknown fields
			}
			for i := range data {
				data[i] = '9'
			}
			if err := strictDecode(g, want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: overwriting the body changed the decoded request to %+v", ws.name, got)
			}
		}
	}
}

// unreadBody fails the test if the handler reads the body at all.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body was read")
	return 0, io.EOF
}

// TestDecodeBodyBound pins the 413 rule on decodeBody itself: the bound
// decides, not how far a decoder happened to read. A declared length above
// the bound is refused before a byte is read; a body that runs past the
// bound is refused whether it declared its length or not (chunked), and
// whether or not the excess follows a complete value; a body of exactly the
// bound is decoded.
func TestDecodeBodyBound(t *testing.T) {
	const bound = 64
	value := `{"image":[1,2]}`
	pad := func(n int) string { return value + strings.Repeat(" ", n-len(value)) }
	post := func(body io.Reader, declared int64) *requestError {
		r := httptest.NewRequest(http.MethodPost, "/", body)
		r.ContentLength = declared
		var q ClassifyRequest
		return decodeBody(httptest.NewRecorder(), r, http.MethodPost, bound, &q, &request{width: 2, maxInputs: 1})
	}
	for _, tc := range []struct {
		name string
		rerr *requestError
		want int
	}{
		{"exactly the bound", post(strings.NewReader(pad(bound)), bound), http.StatusOK},
		{"exactly the bound, chunked", post(strings.NewReader(pad(bound)), -1), http.StatusOK},
		{"declared over the bound", post(unreadBody{t}, bound+1), http.StatusRequestEntityTooLarge},
		{"a value, then padding over the bound", post(strings.NewReader(pad(bound+1)), -1), http.StatusRequestEntityTooLarge},
		{"an unfinished value over the bound", post(strings.NewReader(`{"image":[`+strings.Repeat("9", bound)), -1), http.StatusRequestEntityTooLarge},
		{"malformed under the bound", post(strings.NewReader(`{nope`), -1), http.StatusBadRequest},
	} {
		got, msg := http.StatusOK, ""
		if tc.rerr != nil {
			got, msg = tc.rerr.status, tc.rerr.msg
		}
		if got != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, got, msg, tc.want)
		}
		if got == http.StatusRequestEntityTooLarge && msg != "bad request body: http: request body too large" {
			t.Errorf("%s: 413 says %q", tc.name, msg)
		}
	}
}

// TestDecodeBodyAllocs guards what the scanner exists to remove: decoding a
// 16-image body into a fresh arena allocates one exactly-sized pixel slice
// per image plus a handful of headers, not encoding/json's doubling slices
// and boxed tokens. The pixel storage is sized from the model's width, so
// the bytes stay within 10 % of the pixels themselves — and once a request
// has given its arena back, a warm decode into it allocates under 2 % of
// them. One arena serves models of any width: each image gets a slot of
// exactly its own, and an image grown past its slot does not write into
// the next.
func TestDecodeBodyAllocs(t *testing.T) {
	const n, width = 16, 784
	_, batch, _ := benchShapedBodies(t, n)
	a := new(request)
	decodeWidth := func(body []byte, width int) *V2ClassifyRequest {
		a.width, a.maxInputs = width, 256
		q := new(V2ClassifyRequest)
		if took, err := decodeJSON(body, q, a); err != nil || !took {
			t.Fatalf("scanned %v, err %v", took, err)
		}
		return q
	}
	narrow := []byte(`{"image":[1,2,3,4],"images":[[5,6,7,8],[9,10,11,12],[13,14]]}`)
	for round := 0; round < 4; round++ {
		decodeWidth(batch, width)
		a.reset()
		q := decodeWidth(narrow, 4)
		for _, img := range append(q.Images, q.Image) {
			if cap(img) != 4 {
				t.Fatalf("round %d: a width-4 decode after a 784-wide one got a cap-%d slice", round, cap(img))
			}
		}
		a.reset()
		for _, img := range decodeWidth(batch, width).Images {
			if cap(img) != width {
				t.Fatalf("round %d: a width-%d decode after a width-4 one got a cap-%d slice", round, width, cap(img))
			}
		}
		a.reset()
	}
	// Six pixels at width 4: the first image regrows out of its slot, and
	// the second, in the slot after it, keeps its own pixels.
	q := decodeWidth([]byte(`{"images":[[1,2,3,4,5,6],[7,8,9,10]]}`), 4)
	if !slices.Equal(q.Images[0], []float64{1, 2, 3, 4, 5, 6}) || !slices.Equal(q.Images[1], []float64{7, 8, 9, 10}) {
		t.Fatalf("a grown image wrote into its neighbour: %v", q.Images)
	}

	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	measure := func(body []byte, decode func([]byte, any)) (allocs, bytesPerRun float64) {
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { decode(body, new(V2ClassifyRequest)) })
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	scanInto := func(body []byte, into any, a *request) {
		if took, err := decodeJSON(body, into, a); err != nil || !took {
			t.Fatalf("scanned %v, err %v", took, err)
		}
	}
	// The bounds below are a decode's into an arena with nothing in it.
	scan := func(body []byte, into any) { scanInto(body, into, &request{width: width, maxInputs: 256}) }
	allocs, size := measure(batch, scan)
	oracleAllocs, oracleSize := measure(batch, func(body []byte, into any) { _ = strictDecode(body, into) })
	t.Logf("16x784 body: scanner %.0f allocs, %.0f B; encoding/json %.0f allocs, %.0f B", allocs, size, oracleAllocs, oracleSize)
	if allocs > n+8 {
		t.Errorf("%.0f allocations per 16-image body, want <= %d", allocs, n+8)
	}
	if limit := 1.1 * 8 * n * width; size > limit {
		t.Errorf("%.0f bytes allocated per 16-image body, want <= %.0f", size, limit)
	}

	// A token of over 19 digits is strconv's: its string(token) stays on
	// the stack up to 32 bytes; a longer one costs one allocation each, and
	// no more.
	long := []byte(`{"images":[[` + strings.TrimSuffix(strings.Repeat("0."+strings.Repeat("3", 38)+",", 8), ",") + `]]}`)
	short := []byte(`{"images":[[` + strings.TrimSuffix(strings.Repeat("0."+strings.Repeat("3", 30)+",", 8), ",") + `]]}`)
	shortAllocs, _ := measure(short, scan)
	longAllocs, _ := measure(long, scan)
	t.Logf("8 tokens of 32 bytes: %.0f allocs; of 40 bytes: %.0f allocs", shortAllocs, longAllocs)
	if longAllocs-shortAllocs > 8 {
		t.Errorf("8 over-long tokens cost %.0f extra allocations, want <= 8", longAllocs-shortAllocs)
	}

	warm := &request{width: width, maxInputs: 256}
	recycle := func(body []byte, into any) {
		scanInto(body, into, warm)
		warm.reset()
	}
	recycle(batch, new(V2ClassifyRequest)) // size the arena
	_, recycled := measure(batch, recycle)
	t.Logf("16x784 body into a reused arena: %.0f B", recycled)
	if limit := 0.02 * 8 * n * width; recycled > limit {
		t.Errorf("%.0f bytes allocated per 16-image decode into a reused arena, want <= %.0f", recycled, limit)
	}
}

var decodeSink any

// BenchmarkDecodeBody is the layer number of the request-body decode: the
// bench-shaped 1- and 16-image bodies of 784-pixel digits through
// decodeJSON (the scanner), each beside the strict encoding/json decode
// the scanner replaced and falls back to. numbers_only is the scanner by
// itself on the 16-image body: what one pixel token costs to check and
// convert, and how many of them strconv converted (none). The _recycled
// cases decode every request into one arena, emptied after each as a
// request gives its arena back, so -benchmem reports the steady state.
func BenchmarkDecodeBody(b *testing.B) {
	single, batch, _ := benchShapedBodies(b, 16)
	b.Run("numbers_only", func(b *testing.B) {
		b.SetBytes(int64(len(batch)))
		b.ReportAllocs()
		fallbacks := 0
		for i := 0; i < b.N; i++ {
			s := bodyScan{data: batch, arena: new(request)}
			_, images, _, ok := s.imageBody(v2ClassifyOthers, 784, 256)
			if !ok {
				b.Fatal("the scanner declined the body")
			}
			fallbacks += s.fallbacks
			decodeSink = images
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*16*784), "ns/token")
		b.ReportMetric(float64(fallbacks)/float64(b.N), "fallbacks/op")
	})
	for _, bc := range []struct {
		name string
		body []byte
	}{{"1x784", single}, {"16x784", batch}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := new(V2ClassifyRequest)
				if took, err := decodeJSON(bc.body, q, &request{width: 784, maxInputs: 256}); err != nil || !took {
					b.Fatalf("scanned %v, err %v", took, err)
				}
				decodeSink = q
			}
		})
		b.Run(bc.name+"_recycled", func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			a := &request{width: 784, maxInputs: 256}
			for i := 0; i < b.N; i++ {
				q := new(V2ClassifyRequest)
				if took, err := decodeJSON(bc.body, q, a); err != nil || !took {
					b.Fatalf("scanned %v, err %v", took, err)
				}
				a.reset()
				decodeSink = q
			}
		})
		b.Run(bc.name+"_encodingjson", func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := new(V2ClassifyRequest)
				if err := strictDecode(bc.body, q); err != nil {
					b.Fatal(err)
				}
				decodeSink = q
			}
		})
	}
}

package serve

import (
	"slices"
	"sync"

	"cdl/internal/core"
	"cdl/internal/tensor"
)

// request is one data request's arena: everything the data path builds for
// a request and drops after answering it. handleInfer takes one from
// requests before the body is decoded and gives it back once the response
// is written, on every status; the next request reuses its storage.
// Nothing in it may be read after the give-back. That holds because
// dispatch waits out every job it submitted (a refused submit queued
// nothing), the walk copies each input into lane scratch, the worker
// copies each record out of its walker, and no sink keeps a job, an input
// or a record.
type request struct {
	// width and maxInputs size an image route's pixel storage (see
	// bodyScan.imageBody) and cap the inputs of every route.
	width, maxInputs int

	// The routes' wire structs, one of which the body decodes into
	// (handleInfer's newBody).
	v2       V2ClassifyRequest
	v2resume V2ResumeRequest
	v1       ClassifyRequest

	// The decoded inputs: pixels holds the images one width-sized slot
	// after another, npix of it handed out (pixelSlot), and images is the
	// "images" list. A resume frame is its members (frame), views of its
	// payloads in the body, and each payload decoded into acts: its values
	// in slab, its dims in dims.
	pixels []float64
	npix   int
	images [][]float64
	frame  frameBody
	views  [][]byte
	acts   []frameAct
	slab   []float64
	dims   []int

	// The jobs, each with its tensor header and record, and the WaitGroup
	// dispatch waits on (newJobs).
	jobs    []job
	ptrs    []*job
	heads   []tensor.T
	records []core.ExitRecord
	wg      sync.WaitGroup

	// The rendered answer: a /v2 response and its results, the edge
	// front's /v1 results, or a frame answer.
	resp      V2ClassifyResponse
	results   []V2Result
	v1Results []ClassifyResult
	answer    answerFrame
}

// requests holds the arenas requests have given back.
var requests = sync.Pool{New: func() any { return new(request) }}

// takeRequest borrows an arena for a request to a model of input width
// width, under a server's per-request cap.
func takeRequest(width, maxInputs int) *request {
	a := requests.Get().(*request)
	a.width, a.maxInputs = width, maxInputs
	return a
}

// release gives the arena back once its request's response is written.
// The jobs' references to the request (its context, trace, policy and
// errors) are dropped first, so a pooled arena does not pin them; an arena
// whose pixel, activation or answer storage grew past maxPooledBody
// is left to the collector, so one large request does not pin its size in
// the pool. A request whose images overflowed the pixel slab leaves a slab
// that holds them all to the next.
func (a *request) release() {
	if 8*a.npix > maxPooledBody || 8*cap(a.slab) > maxPooledBody || cap(a.answer.frame) > maxPooledBody {
		return
	}
	a.reset()
	requests.Put(a)
}

// reset empties the arena for its next request, keeping its storage. Every
// user of a slice re-slices it from empty, so reset only zeroes what the
// request wrote: a reader after the give-back reads zeros, never another
// request's rows.
func (a *request) reset() {
	if a.npix > cap(a.pixels) {
		a.pixels = make([]float64, 0, a.npix)
	}
	a.npix = 0
	clear(a.images)
	clear(a.views)
	clear(a.acts)
	clear(a.jobs)
	clear(a.records)
	clear(a.results)
	clear(a.v1Results)
	clear(a.answer.payloads)
	a.frame = frameBody{}
	a.v2, a.v2resume, a.v1, a.resp = V2ClassifyRequest{}, V2ResumeRequest{}, ClassifyRequest{}, V2ClassifyResponse{}
}

// pixelSlot returns an empty buffer of capacity width for the scanner's
// next image: the next slot of the arena's pixel slab. An image the slab
// has no room for gets a buffer of its own (and release sizes the slab for
// the next request). An image of more than width numbers regrows out of
// its slot, as append does.
func (a *request) pixelSlot(width int) []float64 {
	at := a.npix
	if a.npix += width; a.npix > cap(a.pixels) {
		return make([]float64, 0, width)
	}
	return a.pixels[at:at:a.npix]
}

// newJobs returns n zeroed jobs as the []*job submit takes, job i wired to
// tensor header i, record i and the arena's WaitGroup; the records are
// zeroed too. dispatch builds its jobs through it on every attempt, so a
// hot-swap retry starts from a clean arena.
func (a *request) newJobs(n int) []*job {
	a.jobs = slices.Grow(a.jobs[:0], n)[:n]
	a.records = slices.Grow(a.records[:0], n)[:n]
	a.ptrs = slices.Grow(a.ptrs[:0], n)[:n]
	if len(a.heads) < n {
		a.heads = append(a.heads, make([]tensor.T, n-len(a.heads))...)
	}
	clear(a.jobs)
	clear(a.records)
	for i := range a.jobs {
		j := &a.jobs[i]
		j.x, j.rec, j.wg = &a.heads[i], &a.records[i], &a.wg
		a.ptrs[i] = j
	}
	return a.ptrs
}

// Package fleet is the multi-machine serving tier: an HTTP front door
// (Router) that fans /v2 traffic across N cdlserve backends.
// Routing is model-aware — requests are placed on a consistent-hash ring
// keyed by (model, input hash) so a given input keeps landing on the same
// replica while that replica stays cache- and branch-warm — with
// bounded-load overflow to the next ring node when the preferred backend
// holds more than its share of the router's own in-flight requests (a
// backend that sheds anyway answers 503, and the next node is tried).
// Backends are health-probed (/readyz), and each pages on its own
// /alertz; tail latency is clipped by hedged requests (after a
// per-model p95 deadline the straggler's input is re-sent to a second
// backend and the first answer wins); and PUT /v2/models/{name} at the
// router performs a rolling fleet hot-swap, draining and swapping backend
// by backend on top of the registry's zero-drop per-node swap.
package fleet

import (
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over member indices: each member owns
// `replicas` pseudo-randomly placed virtual points, and a key is served by
// the member owning the first point at or after the key's hash. The two
// properties the fleet relies on are pinned by ring_test.go: stability
// (the same key maps to the same member as long as that member exists) and
// minimal disruption (when a member joins or leaves, the only keys that
// move are the ones the joiner acquires or the leaver owned — everything
// else stays put, so the rest of the fleet keeps its warm working set).
//
// A Ring is immutable after New; membership changes build a new Ring.
type Ring struct {
	replicas int
	members  []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member int
}

// DefaultReplicas is the virtual-node count per member: enough that a
// member's share of the key space concentrates near 1/N (the spread decays
// like 1/sqrt(replicas)) while keeping the ring a few KB.
const DefaultReplicas = 128

// NewRing builds a ring over the member names (backend identities — the
// names, not their loads, determine placement). replicas <= 0 uses
// DefaultReplicas. Member order does not affect placement; duplicate
// members are rejected.
func NewRing(members []string, replicas int) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one member")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(members))
	for _, m := range members {
		if seen[m] {
			return nil, fmt.Errorf("fleet: duplicate ring member %q", m)
		}
		seen[m] = true
	}
	r := &Ring{
		replicas: replicas,
		members:  append([]string(nil), members...),
		points:   make([]ringPoint, 0, len(members)*replicas),
	}
	for mi, m := range r.members {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{hash: HashKey(m + "#" + strconv.Itoa(v)), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		a, b := r.points[i], r.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		// Identical virtual-point hashes (astronomically rare) tie-break
		// on member so the ring is deterministic whatever the input order.
		return a.member < b.member
	})
	return r, nil
}

// Members returns the ring's member names in construction order.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// HashKey is the ring's key hash: FNV-1a 64 through a 64-bit finalizer.
// Cheap, stateless and stable across processes, so a router restart
// re-derives the same placement. The finalizer matters: raw FNV-1a on
// near-identical strings (virtual-node suffixes "#0".."#127", sequential
// request keys) leaves correlated high bits, which clumps vnodes on the
// ring and skews member shares well past the expected 1/sqrt(replicas)
// wobble; full-avalanche mixing restores uniform placement.
func HashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// HashRequest derives a placement key from a request's model name and raw
// body bytes — the (model, input-hash) key that keeps identical inputs on
// the same cache-warm backend. The two are hashed apart, so ("ab","c") and
// ("a","bc") stay distinct. The body's hash is CRC-32C: hardware-assisted,
// some 25 times cheaper than byte-at-a-time FNV-1a on a 10 KB body, and the
// same on every process and architecture.
func HashRequest(model string, body []byte) uint64 {
	return mix64(HashKey(model) ^ uint64(crc32.Checksum(body, castagnoli)))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// mix64 is the splitmix64 finalizer: a bijective full-avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Seq returns all member indices in ring order starting from key's owner:
// Seq(key)[0] is the primary, Seq(key)[1] the first overflow target
// (bounded-load spill, hedge target, failover), and so on. Every member
// appears exactly once.
func (r *Ring) Seq(key uint64) []int { return r.AppendSeq(make([]int, 0, len(r.members)), key) }

// AppendSeq appends Seq(key) to dst and returns the extended slice, so a
// caller with room on its stack allocates nothing.
func (r *Ring) AppendSeq(dst []int, key uint64) []int {
	base := len(dst)
	for i, n := r.search(key), 0; n < len(r.points) && len(dst)-base < len(r.members); i, n = (i+1)%len(r.points), n+1 {
		if m := r.points[i].member; !slices.Contains(dst[base:], m) {
			dst = append(dst, m)
		}
	}
	return dst
}

// search finds the index of the first point at or after key, wrapping.
func (r *Ring) search(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

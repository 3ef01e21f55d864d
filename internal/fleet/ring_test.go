package fleet

// ring_test.go: table-driven consistent-hash ring properties. The two
// contracts the fleet depends on are stability (a key's owner never
// changes while membership holds) and minimal disruption (a join or leave
// moves only the keys the joiner acquires or the leaver owned — for a
// balanced ring, about 1/N of them and never more than a small multiple).

import (
	"fmt"
	"testing"
)

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return out
}

func testKeys(k int) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = HashKey(fmt.Sprintf("key-%d", i))
	}
	return out
}

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty membership accepted")
	}
	if _, err := NewRing([]string{"a", "b", "a"}, 0); err == nil {
		t.Error("duplicate member accepted")
	}
}

// TestRingStability: owners are a pure function of membership — not of
// construction order, not of repeated construction.
func TestRingStability(t *testing.T) {
	members := ringMembers(5)
	r1, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRing(members, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Same membership in reversed order.
	rev := make([]string, len(members))
	for i, m := range members {
		rev[len(members)-1-i] = m
	}
	r3, err := NewRing(rev, 0)
	if err != nil {
		t.Fatal(err)
	}
	n1, n3 := r1.Members(), r3.Members()
	for _, key := range testKeys(2000) {
		if a, b := owner(r1, key), owner(r2, key); a != b {
			t.Fatalf("key %x: owner differs across identical constructions (%d vs %d)", key, a, b)
		}
		if n1[owner(r1, key)] != n3[owner(r3, key)] {
			t.Fatalf("key %x: owner depends on member order", key)
		}
	}
}

// TestRingSeq: the failover sequence is a permutation of all members
// starting at the owner.
func TestRingSeq(t *testing.T) {
	r, err := NewRing(ringMembers(4), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range testKeys(200) {
		seq := r.Seq(key)
		if len(seq) != 4 {
			t.Fatalf("key %x: seq length %d, want 4", key, len(seq))
		}
		if seq[0] != owner(r, key) {
			t.Fatalf("key %x: seq starts at %d, owner is %d", key, seq[0], owner(r, key))
		}
		seen := make(map[int]bool)
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("key %x: member %d appears twice in seq", key, m)
			}
			seen[m] = true
		}
	}
}

// TestRingMinimalDisruption is the join/leave movement table: across fleet
// sizes, a membership change of one node moves only that node's keys, and
// their fraction stays near 1/N.
func TestRingMinimalDisruption(t *testing.T) {
	const keyCount = 4000
	keys := testKeys(keyCount)
	for _, tc := range []struct {
		n int // fleet size before the join
	}{{2}, {3}, {5}, {8}} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			before, err := NewRing(ringMembers(tc.n), 0)
			if err != nil {
				t.Fatal(err)
			}
			after, err := NewRing(ringMembers(tc.n+1), 0) // same members + one
			if err != nil {
				t.Fatal(err)
			}
			bn, an := before.Members(), after.Members()
			joiner := an[tc.n]

			moved := 0
			for _, key := range keys {
				ob, oa := bn[owner(before, key)], an[owner(after, key)]
				if ob == oa {
					continue
				}
				moved++
				// Every moved key must have moved TO the joiner; any other
				// movement is gratuitous disruption.
				if oa != joiner {
					t.Fatalf("key %x moved %s → %s, not to the joiner %s", key, ob, oa, joiner)
				}
			}
			// The joiner's fair share is 1/(n+1). Virtual-node placement
			// wobbles around it; 1.7× fair share with 4000 keys and 128
			// vnodes is far beyond observed variance while still failing any
			// real imbalance (naive mod-N hashing would move ~n/(n+1)).
			fair := float64(keyCount) / float64(tc.n+1)
			if got := float64(moved); got > 1.7*fair {
				t.Errorf("join moved %d keys; fair share is %.0f", moved, fair)
			}
			if moved == 0 {
				t.Error("join moved nothing — the joiner owns no keyspace")
			}

			// Leave is the mirror image: removing the joiner moves exactly
			// the keys it owned, back to survivors.
			for _, key := range keys {
				oa := an[owner(after, key)]
				ob := bn[owner(before, key)]
				if oa == joiner {
					continue // these must move on leave
				}
				if oa != ob {
					t.Fatalf("key %x owned by survivor %s changed owner on leave (%s)", key, oa, ob)
				}
			}
		})
	}
}

// TestRingSpread sanity-checks balance: with 128 vnodes each member's
// share of a large key set stays within a factor of two of fair.
func TestRingSpread(t *testing.T) {
	const n, keyCount = 4, 8000
	r, err := NewRing(ringMembers(n), 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, n)
	for _, key := range testKeys(keyCount) {
		counts[owner(r, key)]++
	}
	fair := keyCount / n
	for m, c := range counts {
		if c < fair/2 || c > fair*2 {
			t.Errorf("member %d owns %d keys; fair share is %d (spread too lumpy)", m, c, fair)
		}
	}
}

// TestHashRequestSpread: request keys spread like the ring's own test
// keys — 10 000 distinct bodies that differ only in a few bytes, as
// near-identical images do, land within TestRingSpread's factor of two of
// fair on rings of 2, 3 and 5 members — and the separator keeps the model
// name and the body apart.
func TestHashRequestSpread(t *testing.T) {
	const keyCount = 10000
	body := []byte(`{"image":[0.00000000,0.50000000,0.25000000]}`)
	keys := make([]uint64, keyCount)
	for i := range keys {
		copy(body[12:], fmt.Sprintf("%08d", i))
		keys[i] = HashRequest("default", body)
	}
	for _, n := range []int{2, 3, 5} {
		r, err := NewRing(ringMembers(n), 0)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int, n)
		for _, key := range keys {
			counts[owner(r, key)]++
		}
		fair := keyCount / n
		for m, c := range counts {
			if c < fair/2 || c > fair*2 {
				t.Errorf("%d members: member %d owns %d keys; fair share is %d", n, m, c, fair)
			}
		}
	}
	if HashRequest("ab", []byte("c")) == HashRequest("a", []byte("bc")) {
		t.Error(`("ab","c") and ("a","bc") share a key`)
	}
}

// BenchmarkHashRequest keys a serve-single-sized body (one 784-pixel image,
// about 10 KB of JSON).
func BenchmarkHashRequest(b *testing.B) {
	body := make([]byte, 10_000)
	for i := range body {
		body[i] = "0123456789.,"[i%12]
	}
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		_ = HashRequest("default", body)
	}
}

func BenchmarkRingSeq(b *testing.B) {
	r, err := NewRing(ringMembers(16), 0)
	if err != nil {
		b.Fatal(err)
	}
	keys := testKeys(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Seq(keys[i%len(keys)])
	}
}

// owner is key's primary placement: the member of the first virtual point
// at or after the key's hash, where Seq starts.
func owner(r *Ring, key uint64) int { return r.points[r.search(key)].member }

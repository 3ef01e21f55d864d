package serve

import (
	"testing"

	"cdl/internal/energy"
)

// TestEdgeLadder pins a split entry's SLO ladder: control.Ladder filtered by
// what the δ-only offload wire carries — the identity plus depth caps
// strictly below the split.
func TestEdgeLadder(t *testing.T) {
	split := func(stage int) *Split { return &Split{Costs: &energy.TierCosts{SplitStage: stage}, Delta: -1} }
	// split 1 on a 2-stage cascade: identity + MaxExit 0.
	l := split(1).ladder(2, 0)
	if len(l) != 2 || l[1].MaxExit != 0 {
		t.Fatalf("ladder(2, split 1) = %+v, want [identity, cap0]", l)
	}
	// split 0 owns nothing: no actuation rungs → the controller must be
	// rejected at construction.
	if l := split(0).ladder(2, 0); len(l) != 1 {
		t.Fatalf("ladder(2, split 0) = %+v, want identity only", l)
	}
}

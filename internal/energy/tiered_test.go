package energy

import (
	"math"
	"testing"

	"cdl/internal/core"
)

// TestTierCostsConserveEnergy is the tier-split conservation law: for every
// split stage and exit point, edge + cloud compute must equal the
// monolithic exit energy exactly — the split moves energy between tiers, it
// never creates or destroys it.
func TestTierCostsConserveEnergy(t *testing.T) {
	cdln, _ := buildSmallCDLN(t)
	ev := NewEvaluator()
	exits := ev.ExitEnergies(cdln)
	for split := 0; split <= len(cdln.Stages); split++ {
		tc, err := ev.GraphTierCosts(core.LinearGraph(cdln), split, DefaultLink())
		if err != nil {
			t.Fatal(err)
		}
		for i := range exits {
			if got := tc.Edge[i] + tc.Cloud[i]; got != exits[i] {
				t.Errorf("split %d exit %d: edge %v + cloud %v != monolithic %v",
					split, i, tc.Edge[i], tc.Cloud[i], exits[i])
			}
			if i < split {
				if tc.Cloud[i] != 0 {
					t.Errorf("split %d: local exit %d charged %v pJ to the cloud", split, i, tc.Cloud[i])
				}
				if tc.Offloaded(i) || tc.Handoff[i] != -1 {
					t.Errorf("split %d: exit %d marked offloaded (handoff %d)", split, i, tc.Handoff[i])
				}
			} else {
				if tc.Edge[i] != tc.PrefixPJ {
					t.Errorf("split %d: offloaded exit %d edge cost %v != prefix %v", split, i, tc.Edge[i], tc.PrefixPJ)
				}
				if !tc.Offloaded(i) || tc.Handoff[i] != 0 {
					t.Errorf("split %d: exit %d not marked offloaded at the trunk (handoff %d)", split, i, tc.Handoff[i])
				}
			}
		}
		if split == 0 && tc.PrefixPJ != 0 {
			t.Errorf("split 0 prefix cost %v, want 0", tc.PrefixPJ)
		}
		if split > 0 && tc.PrefixPJ != exits[split-1] {
			t.Errorf("split %d prefix cost %v, want exit cost %v", split, tc.PrefixPJ, exits[split-1])
		}
	}
}

func TestTierCostsValidation(t *testing.T) {
	cdln, _ := buildSmallCDLN(t)
	ev := NewEvaluator()
	if _, err := ev.GraphTierCosts(core.LinearGraph(cdln), -1, DefaultLink()); err == nil {
		t.Error("negative split accepted")
	}
	if _, err := ev.GraphTierCosts(core.LinearGraph(cdln), len(cdln.Stages)+1, DefaultLink()); err == nil {
		t.Error("too-deep split accepted")
	}
	if _, err := ev.GraphTierCosts(core.LinearGraph(cdln), 0, Link{PJPerByte: -1}); err == nil {
		t.Error("negative link cost accepted")
	}
}

// TestTieredSummary charges a synthetic exit mix by its per-exit counts
// and checks totals, offload accounting and the lossless-link identity:
// total minus link equals what the monolithic accumulator would have
// charged. ExitEnergies prices each exit as edge + link + cloud, the link
// only past the split.
func TestTieredSummary(t *testing.T) {
	cdln, _ := buildSmallCDLN(t)
	ev := NewEvaluator()
	link := Link{PJPerByte: 100, PerOffloadPJ: 1000}
	const split = 1
	tc, err := ev.GraphTierCosts(core.LinearGraph(cdln), split, link)
	if err != nil {
		t.Fatal(err)
	}
	mono, err := ev.NewAccumulator(cdln)
	if err != nil {
		t.Fatal(err)
	}

	const wireBytes = 256
	bytes := make([]int, len(tc.Edge))
	for i := range bytes {
		bytes[i] = wireBytes
	}
	records := []core.ExitRecord{
		{StageIndex: 0, Label: 1}, // local exit
		{StageIndex: 0, Label: 4},
		{StageIndex: len(cdln.Stages), Label: 2}, // FC via cloud
		{StageIndex: split, Label: 0},            // first cloud stage
	}
	counts := make([]int64, len(tc.Edge))
	offloads := 0
	for _, rec := range records {
		counts[rec.StageIndex]++
		if err := mono.Add(rec); err != nil {
			t.Fatal(err)
		}
		if tc.Offloaded(rec.StageIndex) {
			offloads++
		}
	}

	s := tc.Summary(counts, bytes)
	if s.Count != int64(len(records)) || s.Offloaded != int64(offloads) {
		t.Fatalf("count %d/%d, want %d/%d", s.Count, s.Offloaded, len(records), offloads)
	}
	if want := float64(offloads) / float64(len(records)); s.OffloadFraction != want {
		t.Errorf("offload fraction %v, want %v", s.OffloadFraction, want)
	}
	if s.WireBytes != int64(offloads*wireBytes) {
		t.Errorf("wire bytes %d, want %d", s.WireBytes, offloads*wireBytes)
	}
	if want := float64(offloads) * link.TransferPJ(wireBytes); s.LinkPJ != want {
		t.Errorf("link pJ %v, want %v", s.LinkPJ, want)
	}
	if monoPJ := mono.Summary().MeanEnergy * float64(len(records)); math.Abs((s.TotalPJ-s.LinkPJ)-monoPJ) > 1e-6 {
		t.Errorf("tiered compute %v != monolithic %v", s.TotalPJ-s.LinkPJ, monoPJ)
	}
	if s.MeanTotalPJ <= 0 || s.NormalizedTotal <= 0 {
		t.Errorf("summary means not populated: %+v", s)
	}
	if s.TotalPJ != s.EdgePJ+s.LinkPJ+s.CloudPJ {
		t.Errorf("total %v != edge+link+cloud", s.TotalPJ)
	}
	for i, pj := range tc.ExitEnergies(bytes) {
		want := tc.Edge[i]
		if tc.Offloaded(i) {
			want = tc.Edge[i] + link.TransferPJ(wireBytes) + tc.Cloud[i]
		}
		if pj != want {
			t.Errorf("exit %d: %v pJ, want %v", i, pj, want)
		}
	}
}

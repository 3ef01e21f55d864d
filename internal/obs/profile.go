package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one hot-path phase for the opt-in profile: where a
// stage's wall time actually goes (lowering vs GEMM vs the fused segment's
// pool + bias + σ epilogue vs the per-stage linear classifier), and what a
// request pays before any of it (reading and decoding its body).
type Phase int

const (
	PhaseIm2Col Phase = iota
	PhaseGEMM
	PhaseClassifier
	PhaseEpilogue
	PhaseDecode
	numPhases
)

var phaseNames = [numPhases]string{"im2col", "gemm", "classifier", "epilogue", "decode"}

func (p Phase) String() string {
	if p < 0 || p >= numPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// profiling gates the per-phase accounting. Off by default: the hot path
// pays one atomic load per candidate site and nothing else.
var profiling atomic.Bool

// SetProfiling toggles per-phase accounting.
func SetProfiling(on bool) { profiling.Store(on) }

// ProfilingEnabled reports whether per-phase accounting is on. Call sites
// guard their clock reads with it.
func ProfilingEnabled() bool { return profiling.Load() }

// phase counters: total nanoseconds and call counts, accumulated lock-free
// from however many GEMM workers are running.
var (
	phaseNS    [numPhases]atomic.Int64
	phaseCalls [numPhases]atomic.Int64
)

// ProfAdd credits d of wall time to phase p. Callers are expected to have
// checked ProfilingEnabled() before taking the timestamps.
func ProfAdd(p Phase, d time.Duration) {
	if p < 0 || p >= numPhases {
		return
	}
	phaseNS[p].Add(int64(d))
	phaseCalls[p].Add(1)
}

// PhaseStat is one phase's accumulated profile.
type PhaseStat struct {
	Name    string  `json:"name"`
	Calls   int64   `json:"calls"`
	TotalMS float64 `json:"total_ms"`
}

// ProfSnapshot returns the per-phase totals since the last reset.
func ProfSnapshot() []PhaseStat {
	out := make([]PhaseStat, numPhases)
	for i := range out {
		out[i] = PhaseStat{
			Name:    Phase(i).String(),
			Calls:   phaseCalls[i].Load(),
			TotalMS: float64(phaseNS[i].Load()) / 1e6,
		}
	}
	return out
}

// ProfReset zeroes the per-phase totals.
func ProfReset() {
	for i := 0; i < int(numPhases); i++ {
		phaseNS[i].Store(0)
		phaseCalls[i].Store(0)
	}
}

package core

// observe.go is the core layer's timing tap: an optional per-session
// observer that sees one event per executed unit of cascade work — each
// stage forward (baseline layers to the tap + stage classifier + exit
// decisions), each branch-route dispatch, each FC tail and each forced
// exit. The serving layer maps these events onto request trace spans;
// core itself stays free of any observability dependency, and with no
// observer installed the walks pay one nil check per stage and zero clock
// reads.

import "time"

// StageEventKind discriminates the units of work an observer sees.
type StageEventKind uint8

const (
	// StageForward is one conditional stage: baseline layers up to the
	// stage's tap, the stage classifier, and the per-row exit/route
	// decisions.
	StageForward StageEventKind = iota
	// StageRoute is a branch dispatch: rows handed from Node to Branch by
	// a route that fired at Stage. Zero-duration (the decision reads
	// scores the stage already computed).
	StageRoute
	// StageFinal is a node's unconditional FC tail (Stage is the node's
	// stage count).
	StageFinal
	// StageForced is a forced exit at the depth cap: the capped stage's
	// classifier taken unconditionally.
	StageForced
)

// StageEvent is one observed unit of work. Rows holds the affected rows'
// original batch positions and is never nil — every walk is batched, so a
// single input reports []int{0}. Rows aliases walk-internal storage and is
// valid only for the duration of the observer call — copy to retain.
type StageEvent struct {
	Kind   StageEventKind
	Node   int
	Stage  int
	Branch int // target node; StageRoute only
	Rows   []int
	Start  time.Time
	End    time.Time
}

// SetStageObserver installs fn as the session's observer (nil removes
// it). The observer is called on the calling goroutine once the call's
// lanes have joined, with the events in the order a one-lane walk emits
// them — keep it cheap. Like the session itself it is single-goroutine
// state: install before a walk, clear after, never concurrently with one.
func (s *Session) SetStageObserver(fn func(StageEvent)) { s.observer = fn }

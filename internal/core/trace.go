package core

import (
	"sync"

	"mlnclean/internal/plan"
)

// Trace records the decisions of each pipeline phase so the component
// accuracy metrics of §7.3 can be computed against ground truth by
// internal/eval. A Trace is safe for the concurrent block-level writes the
// cleaner performs.
type Trace struct {
	mu sync.Mutex
	// Plan records the selectivity planner's per-rule choices (scan shape,
	// predicate order, and why) for the run's index build.
	Plan []plan.Choice
	// AGP lists every abnormal-group decision.
	AGP []AGPMerge
	// RSC lists every piece rewrite.
	RSC []RSCRepair
	// FSCR lists the fusion outcome per tuple.
	FSCR []FusionOutcome
}

// AGPMerge records one abnormal-group decision: a detected abnormal group
// and where it was merged, or (Promoted) an abnormal group re-classed as
// normal because its block had no normal group at all.
type AGPMerge struct {
	BlockIndex int
	RuleID     string
	// SourceKey is the abnormal group's reason key; SourceTuples its member
	// tuple IDs; SourcePieces its γ count (contributes to #dag).
	SourceKey    string
	SourceTuples []int
	SourcePieces int
	// TargetKey is the reason key of the normal group it merged into.
	// Empty when the group was not merged (no target within the merge cap,
	// or the group itself was promoted).
	TargetKey string
	// Promoted marks the degenerate-block path of §5.1.1: every group was
	// abnormal, and this one (the largest) was promoted to normal so the
	// rest had a merge target. A promotion is not a detection — component
	// metrics (internal/eval) skip these entries.
	Promoted bool
}

// RSCRepair records one losing piece being rewritten to the group winner.
type RSCRepair struct {
	BlockIndex int
	RuleID     string
	GroupKey   string
	// Attrs are the rule's attributes (reason then result).
	Attrs []string
	// Old and New are the piece values before/after; Tuples the affected
	// tuple IDs.
	Old    []string
	New    []string
	Tuples []int
}

// FusionOutcome records FSCR's work on one tuple.
type FusionOutcome struct {
	TupleID int
	// ConflictAttrs lists attributes on which a version conflict was
	// detected during the winning (or any attempted) fusion.
	ConflictAttrs []string
	// Changed lists cell changes applied by stage II relative to the
	// stage-I-repaired values.
	Changed []CellChange
	// Failed is true when every fusion order conflicted out (f-score 0) and
	// the tuple kept its pre-fusion values.
	Failed bool
	// FScore is the fusion score of the applied version.
	FScore float64
}

// CellChange is a single attribute-value update on a tuple.
type CellChange struct {
	Attr string
	Old  string
	New  string
}

// SetPlan records the planner's choices for the run.
func (tr *Trace) SetPlan(cs []plan.Choice) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.Plan = cs
	tr.mu.Unlock()
}

func (tr *Trace) addAGP(m AGPMerge) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.AGP = append(tr.AGP, m)
	tr.mu.Unlock()
}

func (tr *Trace) addRSC(r RSCRepair) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.RSC = append(tr.RSC, r)
	tr.mu.Unlock()
}

func (tr *Trace) addFusion(f FusionOutcome) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.FSCR = append(tr.FSCR, f)
	tr.mu.Unlock()
}

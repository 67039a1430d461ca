package core

import (
	"context"
	"fmt"

	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// Result is the output of a cleaning run.
type Result struct {
	// Clean is the final cleaned dataset (duplicates removed unless
	// Options.KeepDuplicates).
	Clean *dataset.Table
	// Repaired is the cleaned table before duplicate elimination; it has
	// exactly the input's tuple IDs, which evaluation code diffs against
	// ground truth.
	Repaired *dataset.Table
	// Duplicates lists the removed duplicate sets (representative first).
	Duplicates [][]int
	// Index is the MLN index in its post-stage-I state (one piece per
	// group, weights learned); exposed for inspection and the distributed
	// weight-merging path.
	Index *index.Index
	// Stats summarizes the run.
	Stats Stats
}

// Clean runs the full MLNClean pipeline (Alg. 1) on the dirty table:
//
//  1. MLN index construction: one block per rule, one group per distinct
//     reason key (γs with the same reason part share a group).
//  2. Stage I, per block (independent, parallelized): AGP merges abnormal
//     groups into their nearest normal group; MLN weight learning assigns
//     each γ a weight (Eq. 4 prior + diagonal Newton); RSC keeps the γ with
//     the highest reliability score in each group and rewrites the rest.
//  3. Stage II: FSCR fuses each tuple's per-block versions into the
//     assignment with the maximal fusion score (Eq. 5), then duplicate
//     tuples are eliminated.
//
// The input table is not modified.
func Clean(dirty *dataset.Table, rs []*rules.Rule, opts Options) (*Result, error) {
	return CleanContext(context.Background(), dirty, rs, opts)
}

// CleanContext is Clean bounded by a context: the stage pipelines abort
// between blocks once ctx is cancelled and the context's error is returned.
func CleanContext(ctx context.Context, dirty *dataset.Table, rs []*rules.Rule, opts Options) (*Result, error) {
	return CleanEncoded(ctx, dirty, nil, rs, opts)
}

// CleanEncoded is CleanContext for callers that already hold the dirty
// table's dictionary-encoded companion (the streaming CSV ingest encodes
// while parsing): enc must be row-aligned with dirty and is adopted as the
// pipeline's encoding, so the table is never encoded twice. A nil enc
// encodes here.
func CleanEncoded(ctx context.Context, dirty *dataset.Table, enc *dataset.Encoded, rs []*rules.Rule, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if dirty == nil || dirty.Len() == 0 {
		return nil, fmt.Errorf("core: empty input table")
	}
	st := Stats{Tuples: dirty.Len()}
	// Stage I: stream blocks from the iterator through the fused
	// AGP → learn → RSC workers (§5.1), each block cleaned independently.
	ix, err := StreamStageI(ctx, dirty, enc, rs, opts, &st, ThroughRSC)
	if err != nil {
		return nil, err
	}
	// Record why the planner ordered evaluation the way it did; the CLI and
	// /v1/stats surface these lines.
	opts.Trace.SetPlan(ix.Plan().Choices())
	mCleans.Inc()
	mTuples.Add(int64(dirty.Len()))
	st.Blocks = len(ix.Blocks)
	for _, b := range ix.Blocks {
		st.Groups += len(b.Groups)
	}

	// Stage II: fuse versions, then drop duplicates.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	repaired := fscr(dirty, ix, opts, &st)
	res := &Result{Repaired: repaired, Index: ix, Stats: st}
	if opts.KeepDuplicates {
		res.Clean = repaired.Clone()
		return res, nil
	}
	clean, dups := dedup(repaired)
	res.Clean = clean
	res.Duplicates = dups
	for _, d := range dups {
		res.Stats.DuplicatesRemoved += len(d) - 1
	}
	mDuplicatesRemoved.Add(int64(res.Stats.DuplicatesRemoved))
	return res, nil
}

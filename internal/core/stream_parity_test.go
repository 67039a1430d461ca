package core

import (
	"context"
	"testing"

	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// stageIFunc runs stage I over a dirty table, returning the post-stage-I
// index with the stage-I counts accumulated into st.
type stageIFunc func(ctx context.Context, dirty *dataset.Table, rs []*rules.Rule, opts Options, st *Stats) (*index.Index, error)

// stagedStageI is the reference composition: the full index first, then one
// block-parallel pass per phase.
func stagedStageI(ctx context.Context, dirty *dataset.Table, rs []*rules.Rule, opts Options, st *Stats) (*index.Index, error) {
	ix, err := index.BuildConfigured(dirty, rs, index.BuildConfig{})
	if err != nil {
		return nil, err
	}
	for _, stage := range []func(context.Context, *index.Index, Options, *Stats) error{StageAGP, StageLearn, StageRSC} {
		if err := stage(ctx, ix, opts, st); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// learnThenRSC is the distributed worker's shape without the weight
// exchange: StreamStageI stopped after learning, then StageRSC.
func learnThenRSC(ctx context.Context, dirty *dataset.Table, rs []*rules.Rule, opts Options, st *Stats) (*index.Index, error) {
	ix, err := StreamStageI(ctx, dirty, nil, rs, opts, st, ThroughLearn)
	if err != nil {
		return nil, err
	}
	return ix, StageRSC(ctx, ix, opts, st)
}

// runStagedCase cleans one parity configuration with stageI followed by
// the exported stage-II pieces: FusionBlocksFromIndex → RunFSCREncoded →
// Dedup.
func runStagedCase(t *testing.T, cfg parityConfig, stageI stageIFunc) parityGolden {
	t.Helper()
	dirty := parityTable(cfg)
	opts, tr := parityOptions(cfg)
	st := Stats{Tuples: dirty.Len()}
	ix, err := stageI(context.Background(), dirty, parityRules(parityCityPool[0]), opts, &st)
	if err != nil {
		t.Fatalf("%s: stage I: %v", cfg.Name, err)
	}
	st.Blocks = len(ix.Blocks)
	for _, b := range ix.Blocks {
		st.Groups += len(b.Groups)
	}
	repaired := RunFSCREncoded(dirty, ix.Encoded(), FusionBlocksFromIndex(ix), opts, &st)
	clean, dups := Dedup(repaired)
	for _, d := range dups {
		st.DuplicatesRemoved += len(d) - 1
	}
	return parityOutcome(cfg.Name, &Result{Clean: clean, Repaired: repaired, Duplicates: dups, Stats: st}, tr)
}

// TestStreamStagedParity pins Clean, whose stage I is the fused per-block
// StreamStageI, to the staged composition BuildConfigured → StageAGP →
// StageLearn → StageRSC → FusionBlocksFromIndex → RunFSCREncoded → Dedup,
// byte for byte over the full parity matrix: same Stats, rows, clean IDs,
// duplicate sets, and per-phase Trace. StreamStageI stopped after learning
// and followed by StageRSC — the distributed worker's shape — must match
// the same composition. TestParityGolden separately pins Clean to the
// committed goldens.
func TestStreamStagedParity(t *testing.T) {
	for _, cfg := range parityConfigs() {
		t.Run(cfg.Name, func(t *testing.T) {
			staged := runStagedCase(t, cfg, stagedStageI)
			compareParity(t, "Clean vs staged", runParityCase(t, cfg), staged)
			compareParity(t, "ThroughLearn+StageRSC vs staged", runStagedCase(t, cfg, learnThenRSC), staged)
		})
	}
}

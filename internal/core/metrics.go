package core

import (
	"runtime"

	"mlnclean/internal/distance"
	"mlnclean/internal/obs"
)

// Package-level instruments, registered at init so a scrape shows the whole
// core family (zero-valued) before any clean runs. All are process-global:
// concurrent cleans (mlnserve sessions, distributed workers in-process)
// accumulate into the same series, which is what a per-node scrape wants.
var (
	mStageAGP = obs.Default().Histogram("mlnclean_core_stage_seconds",
		"Wall time of one pipeline stage over the whole index.", obs.DefBuckets, obs.L("stage", "agp"))
	mStageLearn = obs.Default().Histogram("mlnclean_core_stage_seconds",
		"", obs.DefBuckets, obs.L("stage", "learn"))
	mStageRSC = obs.Default().Histogram("mlnclean_core_stage_seconds",
		"", obs.DefBuckets, obs.L("stage", "rsc"))
	mStageFSCR = obs.Default().Histogram("mlnclean_core_stage_seconds",
		"", obs.DefBuckets, obs.L("stage", "fscr"))
	mBlockSeconds = obs.Default().Histogram("mlnclean_core_block_seconds",
		"Per-block wall time inside a stage-I phase.", obs.DefBuckets)
	mCleans = obs.Default().Counter("mlnclean_core_cleans_total",
		"Completed end-to-end cleaning runs.")
	mTuples = obs.Default().Counter("mlnclean_core_tuples_total",
		"Tuples cleaned across all runs.")
	mAbnormalGroups = obs.Default().Counter("mlnclean_core_agp_abnormal_groups_total",
		"Abnormal groups detected by AGP.")
	mAGPMerges = obs.Default().Counter("mlnclean_core_agp_merges_total",
		"Abnormal groups merged into a normal group.")
	mAGPPromotions = obs.Default().Counter("mlnclean_core_agp_promotions_total",
		"Abnormal groups promoted to normal (no merge target).")
	mRSCRewrites = obs.Default().Counter("mlnclean_core_rsc_rewrites_total",
		"Pieces rewritten by reliability-score cleaning.")
	mLearnIterations = obs.Default().Counter("mlnclean_core_learn_iterations_total",
		"Newton iterations spent learning MLN weights.")
	mFSCRCellChanges = obs.Default().Counter("mlnclean_core_fscr_cell_changes_total",
		"Cells changed by fusion-score conflict resolution.")
	mFSCRConflicts = obs.Default().Counter("mlnclean_core_fscr_conflicts_total",
		"Tuples whose every fusion order conflicted out.")
	mDuplicatesRemoved = obs.Default().Counter("mlnclean_core_duplicates_removed_total",
		"Duplicate tuples eliminated after fusion.")

	// Delta family: how much work incremental re-cleaning does versus reuses.
	// The dirty/reused and refused/reused pairs partition each Apply's blocks
	// and tuples, so the reuse ratio is readable straight off a scrape.
	mDeltaLoads = obs.Default().Counter("mlnclean_core_delta_loads_total",
		"Full-clean seeds of an incremental delta engine.")
	mDeltaApplies = obs.Default().Counter("mlnclean_core_delta_applies_total",
		"Incremental mutation batches applied.")
	mDeltaDirtyBlocks = obs.Default().Counter("mlnclean_core_delta_dirty_blocks_total",
		"Rule blocks rebuilt and re-cleaned by incremental applies.")
	mDeltaReusedBlocks = obs.Default().Counter("mlnclean_core_delta_reused_blocks_total",
		"Rule blocks served from cache by incremental applies.")
	mDeltaRefusedTuples = obs.Default().Counter("mlnclean_core_delta_refused_tuples_total",
		"Tuples re-fused by incremental applies.")
	mDeltaReusedTuples = obs.Default().Counter("mlnclean_core_delta_reused_tuples_total",
		"Tuples whose cached fusion outcome incremental applies reused.")
	mDeltaRevalidatedTuples = obs.Default().Counter("mlnclean_core_delta_revalidated_tuples_total",
		"Conflicted tuples whose cached fusion outcome incremental applies kept after re-checking their recorded reads.")
	mDeltaSeconds = obs.Default().Histogram("mlnclean_core_delta_apply_seconds",
		"Wall time of one incremental mutation batch, mutation to new result.", obs.DefBuckets)

	// The mlnclean_mem_* family makes the bounded-memory behavior of the
	// streaming pipeline observable live: how many blocks are in flight, how
	// often the evaluator pool recycles, and the process's live heap.
	mPoolHits = obs.Default().Counter("mlnclean_mem_pool_hits_total",
		"Distance-evaluator checkouts served by a recycled evaluator.")
	mPoolMisses = obs.Default().Counter("mlnclean_mem_pool_misses_total",
		"Distance-evaluator checkouts that constructed a fresh evaluator.")
	mBlocksInFlight = obs.Default().Gauge("mlnclean_mem_blocks_inflight",
		"Blocks built by the streaming pipeline but not yet fully cleaned.")
)

func init() {
	obs.Default().GaugeFunc("mlnclean_mem_heap_live_bytes",
		"Live heap bytes (runtime.ReadMemStats HeapAlloc), sampled at scrape time.",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
}

// recordPoolStats folds one evaluator pool's hit/miss counts into the
// process-wide mem family after a stage or streaming run finishes with it.
func recordPoolStats(p *distance.Pool) {
	h, m := p.Stats()
	mPoolHits.Add(h)
	mPoolMisses.Add(m)
}

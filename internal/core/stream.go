package core

import (
	"context"
	"runtime"
	"sync"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// The stage-I pipeline: a serial producer pulls blocks from an
// index.BlockIterator (predicate-pushdown scans, postings released as rules
// complete) while a fixed worker set runs the fused per-block phases on each
// block as soon as it exists. Only a bounded window of blocks is ever in
// flight with its full pre-RSC piece set; blocks the workers have finished
// sit compacted in the growing index.
//
// The overlap is race-free by structure: building a block mutates only the
// dictionary's sequence-key tables (group/piece key minting — the producer
// is the only writer), while the stage phases never mint keys — AGP merges
// by comparing existing key IDs, learning touches only weights, and RSC
// rewrites by discarding losing pieces. Workers read only the dictionary's
// value table, which is append-complete before the first block is built.
//
// Output is byte-identical to the staged composition BuildConfigured →
// StageAGP → StageLearn → StageRSC: blocks are built in rule order exactly
// as BuildConfigured builds them, the per-block phases are
// block-independent, and cross-block evaluator reuse only ever returns
// exact memoized distances (see distance.Pool).

// streamBlocks drains the iterator through a bounded worker set, handing
// each worker a pooled distance evaluator it keeps for its whole lifetime.
// The channel buffer bounds how far the producer runs ahead: at most par
// blocks queued plus par being processed hold their full piece sets. Errors
// are collected per block and the first by block index wins — the same
// reporting order as the Stage* functions.
func streamBlocks(ctx context.Context, it *index.BlockIterator, opts Options, fn func(bi int, b *index.Block, ev *distance.Evaluator) error) error {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par > it.Len() {
		par = it.Len()
	}
	if par < 1 {
		par = 1
	}
	errs := make([]error, it.Len())
	pool := distance.NewPool(opts.Metric, it.Index().Dict())
	defer recordPoolStats(pool)

	type work struct {
		bi int
		b  *index.Block
	}
	blocks := make(chan work, par)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			ev := pool.Get()
			defer pool.Put(ev)
			for wk := range blocks {
				if err := ctx.Err(); err != nil {
					errs[wk.bi] = err
					mBlocksInFlight.Add(-1)
					continue
				}
				t0 := time.Now()
				errs[wk.bi] = fn(wk.bi, wk.b, ev)
				mBlockSeconds.ObserveSince(t0)
				mBlocksInFlight.Add(-1)
			}
		}()
	}
	for ctx.Err() == nil {
		bi, b, ok := it.Next()
		if !ok {
			break
		}
		mBlocksInFlight.Add(1)
		blocks <- work{bi, b}
	}
	close(blocks)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// StageIStop names the last phase StreamStageI runs on each block.
type StageIStop int

const (
	// ThroughRSC runs all of stage I: AGP → weight learning → RSC.
	ThroughRSC StageIStop = iota
	// ThroughLearn stops after weight learning. The distributed workers use
	// it: the Eq. 6 weight merge runs between learning and RSC, so RSC
	// (StageRSC) must wait for the merged weights.
	ThroughLearn
	// ThroughAGP stops after AGP, for a worker whose weights the
	// coordinator already holds (a cached model or a recovery re-lease).
	ThroughAGP
)

// StreamStageI runs stage I block by block: index blocks stream from the
// iterator through fused AGP → weight learning → RSC, stopping after the
// phase stop names, so memory stays bounded by the window of in-flight
// blocks instead of every block's full pre-RSC piece set at once. The index
// and the counts accumulated into st are byte-identical to BuildConfigured
// followed by the same Stage* functions.
func StreamStageI(ctx context.Context, dirty *dataset.Table, enc *dataset.Encoded, rs []*rules.Rule, opts Options, st *Stats, stop StageIStop) (*index.Index, error) {
	opts = opts.withDefaults()
	it, err := index.NewBlockIterator(dirty, rs, index.BuildConfig{Encoded: enc})
	if err != nil {
		return nil, err
	}
	type blockOut struct {
		groups, pieces, promotions int
		learnIters, repairs        int
		agp, learn, rsc            time.Duration
	}
	outs := make([]blockOut, it.Len())
	err = streamBlocks(ctx, it, opts, func(bi int, b *index.Block, ev *distance.Evaluator) error {
		o := &outs[bi]
		t0 := time.Now()
		o.groups, o.pieces, o.promotions = agp(bi, b, opts.Tau, ev, opts.MergeCapRatio, opts.AGPStrategy, nil, opts.Trace)
		o.agp = time.Since(t0)
		if stop == ThroughAGP {
			return nil
		}
		t1 := time.Now()
		n, err := learnBlockWeights(b, opts.Learn)
		if err != nil {
			return err
		}
		o.learnIters = n
		o.learn = time.Since(t1)
		if stop == ThroughLearn {
			return nil
		}
		t2 := time.Now()
		o.repairs = rsc(bi, b, ev, opts.Trace)
		o.rsc = time.Since(t2)
		return nil
	})
	if err != nil {
		return nil, err
	}

	var agpTime, learnTime, rscTime time.Duration
	for bi := range outs {
		o := &outs[bi]
		st.AbnormalGroups += o.groups
		st.AbnormalPieces += o.pieces
		st.AGPPromotions += o.promotions
		st.LearnIterations += o.learnIters
		st.RSCRepairs += o.repairs
		mAbnormalGroups.Add(int64(o.groups))
		mAGPPromotions.Add(int64(o.promotions))
		// Every abnormal group is either merged away or promoted in place.
		mAGPMerges.Add(int64(o.groups - o.promotions))
		mLearnIterations.Add(int64(o.learnIters))
		mRSCRewrites.Add(int64(o.repairs))
		agpTime += o.agp
		learnTime += o.learn
		rscTime += o.rsc
	}
	// One observation per phase run per clean, as the Stage* functions
	// make; here the value is the summed per-block time of that phase.
	mStageAGP.ObserveDuration(agpTime)
	if stop != ThroughAGP {
		mStageLearn.ObserveDuration(learnTime)
	}
	if stop == ThroughRSC {
		mStageRSC.ObserveDuration(rscTime)
	}
	return it.Index(), nil
}

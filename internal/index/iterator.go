// Block iteration: the streaming decomposition of Build. A BlockIterator
// yields one rule's block at a time, applying the planner's per-rule scan
// shapes (posting union, pivot join) as predicate pushdown during the scan
// and releasing each shared per-column posting list as soon as no remaining
// rule needs it. Memory while iterating is bounded by the dictionary, the
// encoded rows, the blocks built so far, and the posting lists still
// pending — never by all blocks' build-time probe maps at once.
package index

import (
	"fmt"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/plan"
	"mlnclean/internal/rules"
)

// BlockIterator builds an index one block at a time, in rule order. Rule
// order is load-bearing: piece and group sequence keys are minted from the
// dictionary during the scan, so building blocks in any other order would
// change key IDs (never block contents). Consumers wanting the planner's
// heaviest-first schedule reorder downstream work, not the build.
//
// A BlockIterator is not safe for concurrent use, but the blocks it has
// already yielded may be processed on other goroutines while Next builds
// the following one: building reads the encoded rows and mutates only the
// dictionary's sequence-key structures, which stage-I/II consumers never
// touch (they only decode values).
type BlockIterator struct {
	ix       *Index
	rs       []*rules.Rule
	post     *postings
	colUses  []int // remaining planned scans touching each column's postings
	next     int
	building time.Duration
}

// NewBlockIterator validates the rules, dictionary-encodes the table (or
// adopts cfg.Encoded), and runs the selectivity planner. No block is built
// yet; the partially populated index is available via Index() immediately
// (its plan, dictionary, and encoded rows are complete; Blocks grows as
// Next is called).
func NewBlockIterator(tb *dataset.Table, rs []*rules.Rule, cfg BuildConfig) (*BlockIterator, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("index: no rules")
	}
	for _, r := range rs {
		if err := r.Validate(tb.Schema); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	enc := cfg.Encoded
	if enc != nil && len(enc.Rows) != len(tb.Tuples) {
		return nil, fmt.Errorf("index: encoded rows (%d) misaligned with table (%d)", len(enc.Rows), len(tb.Tuples))
	}
	if enc == nil {
		enc = dataset.Encode(tb, cfg.Dict)
	}
	ix := &Index{table: tb, enc: enc, plan: plan.New(rs, tb.Schema, enc.Dict), Blocks: make([]*Block, 0, len(rs))}
	it := &BlockIterator{
		ix:      ix,
		rs:      rs,
		post:    &postings{enc: enc, cols: make([]*colPostings, tb.Schema.Len())},
		colUses: make([]int, tb.Schema.Len()),
	}
	for ri := range ix.plan.Rules {
		for _, pos := range it.scanColumns(ri) {
			it.colUses[pos]++
		}
	}
	it.building += time.Since(t0)
	return it, nil
}

// scanColumns lists the columns whose posting lists rule ri's planned scan
// reads (empty for full scans).
func (it *BlockIterator) scanColumns(ri int) []int {
	switch choice := &it.ix.plan.Rules[ri]; choice.Scan {
	case plan.PostingUnion:
		return choice.ConstPos
	case plan.PivotJoin:
		return []int{choice.Pivot}
	}
	return nil
}

// Index returns the index under construction. Plan, dictionary, table, and
// encoded rows are valid immediately; Blocks holds the blocks yielded so
// far. After the final Next the index is exactly BuildConfigured's.
func (it *BlockIterator) Index() *Index { return it.ix }

// Len returns the total number of blocks the iterator will yield.
func (it *BlockIterator) Len() int { return len(it.rs) }

// Next builds and returns the next block (with its block index), or ok=false
// once every rule's block has been yielded. Posting lists no longer needed
// by any remaining rule are released before returning.
func (it *BlockIterator) Next() (bi int, b *Block, ok bool) {
	if it.next >= len(it.rs) {
		return 0, nil, false
	}
	t0 := time.Now()
	ri := it.next
	it.next++
	b = buildBlock(it.ix.table, it.ix.enc, it.ix.enc.Dict, it.rs[ri], &it.ix.plan.Rules[ri], it.post)
	it.ix.Blocks = append(it.ix.Blocks, b)
	for _, pos := range it.scanColumns(ri) {
		if it.colUses[pos]--; it.colUses[pos] <= 0 {
			it.post.cols[pos] = nil
		}
	}
	it.building += time.Since(t0)
	if it.next == len(it.rs) {
		// The iterator owns the build metrics: time actually spent encoding
		// and building (excluding any interleaved consumer work), observed
		// once when the final block is yielded.
		mBuildSeconds.Observe(it.building.Seconds())
		mBuilds.Inc()
	}
	return ri, b, true
}

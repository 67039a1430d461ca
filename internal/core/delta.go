package core

import (
	"fmt"
	"sort"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// The incremental half of the pipeline. A DeltaCleaner holds one table's
// cleaned state — per-rule stage-I blocks, their fusion inputs, and every
// tuple's fused outcome — and re-cleans only what a mutation touches:
//
//   - Dirty-rule detection: a rule's block depends, per row, on whether the
//     rule applies and on the row's projection onto the rule's attributes.
//     A mutation dirties exactly the rules for which either changed; blocks
//     of untouched rules are byte-identical and reused as-is.
//   - Dirty blocks are rebuilt by the fixed-order single-block scan
//     (index.BuildBlockFor — identical content to a full build, per the
//     planner's order invariance) and re-cleaned through the same per-block
//     stage-I primitives the batch pipeline uses (AGP → weight learning →
//     RSC), so per-block results cannot drift from a from-scratch run.
//   - Re-fusion is exact by read set: a tuple re-fuses only when an input
//     its last fusion read has moved. Every fusion reads the tuple's dirty
//     row and its versions' identities (one piece per block it belongs
//     to). A non-conflicted tuple (no two versions disagree) takes the fast
//     path, whose outcome is the union of its versions, and reads nothing
//     else. A conflicted tuple also reads its versions' learned weights,
//     the domain sizes at the positions its versions cover, and the answers
//     of the replacement lookups its search made, which it records. So a
//     tuple re-fuses when it was mutated, joined or left a block, or one
//     of its pieces changed identity; a conflicted one also when a version
//     weight or a covered domain size moved, or when one of its recorded
//     lookups, replayed against a rebuilt block whose candidate list
//     changed, answers differently. Inserts and deletes change a block's
//     support total, which moves every learned weight in it, so they
//     re-fuse every conflicted tuple of the block. A no-op rewrite
//     re-fuses only the rewritten tuple.
//
// The correctness anchor is exact parity: after any mutation sequence,
// Apply's Result is byte-identical to Clean over the same table (the
// randomized suite in delta_test.go asserts it, and the serving layer's
// versioned results are built on it).

// DeltaOp is a mutation kind.
type DeltaOp int

const (
	// DeltaPut inserts a new tuple or replaces an existing tuple's values.
	DeltaPut DeltaOp = iota
	// DeltaDelete removes a tuple.
	DeltaDelete
)

// Mutation is one tuple-level change, addressed by tuple ID.
type Mutation struct {
	Op  DeltaOp
	Row int
	// Values is the tuple's new values in schema order (ignored for delete).
	Values []string
}

// DeltaStats reports how much work one Apply actually did versus reused.
type DeltaStats struct {
	// DirtyBlocks / ReusedBlocks partition the rule blocks: dirty ones were
	// rebuilt and re-cleaned, reused ones served their cached stage-I state.
	DirtyBlocks  int
	ReusedBlocks int
	// RefusedTuples / ReusedTuples partition the surviving tuples: refused
	// ones re-ran fusion, reused ones kept their cached outcome.
	RefusedTuples int
	ReusedTuples  int
	// RevalidatedTuples is the part of ReusedTuples that was conflicted:
	// kept only after the domain sizes it covers and its recorded
	// replacement lookups were re-checked and found unchanged.
	RevalidatedTuples int
	// Wall is the time Apply spent end to end.
	Wall time.Duration
}

// verInfo is a tuple's stage-I version in one block, reduced to the two
// fixed-width facts fusion consumes: the piece's sequence identity (which
// determines its exact value IDs) and its learned weight.
type verInfo struct {
	kid    uint32
	weight float64
}

// deltaBlock caches one rule's cleaned state.
type deltaBlock struct {
	rule  *rules.Rule
	block *index.Block // post AGP + learn + RSC
	// vers maps tuple ID → its version facts, for the cheap pre/post rebuild
	// comparison that bounds re-fusion.
	vers map[int]verInfo
	// summaries is the block's post-stage-I piece summary run (the weight
	// vector fragment used for repair attribution).
	summaries []index.PieceSummary
	frag      blockFrag
	// memo carries AGP nearest-target decisions across rebuilds of this
	// block, so a re-clean only re-scores against the groups that moved.
	memo *agpMemo
}

// blockFrag is one block's contribution to the run Stats, kept so the whole
// Stats can be recomposed without touching clean blocks.
type blockFrag struct {
	groups, abnormal, abnormalPieces, promotions, learnIters, rscRepairs int
}

// tupleState is one tuple's cached fusion outcome, plus what that fusion
// read beyond its versions and dirty row.
type tupleState struct {
	values  []string // fused (repaired) values, schema order
	changes int
	failed  bool
	// conflicted: two of the tuple's versions disagree, so its fusion also
	// read its versions' weights, the domain sizes at the positions they
	// cover, and the replacement lookups recorded in lookups (packed as
	// readLog packs them). A non-conflicted fusion reads none of these.
	conflicted bool
	lookups    []uint32
}

// DeltaCleaner incrementally re-cleans a mutating table. It is not safe for
// concurrent use; callers serialize Load/Apply (the serving session holds
// its own lock).
type DeltaCleaner struct {
	schema *dataset.Schema
	rs     []*rules.Rule
	opts   Options
	dict   *intern.Dict
	pool   *distance.Pool

	// The current dirty table in ascending tuple-ID order, plus its encoded
	// companion. Rows are engine-owned copies; encRows are individually
	// allocated so inserts and deletes never fight a shared backing array.
	tuples  []*dataset.Tuple
	encRows [][]uint32
	rowPos  map[int]int // tuple ID → position in tuples/encRows

	blocks      []*deltaBlock
	posPerBlock [][]int
	// fbs and cands hold each block's fusion inputs, indexed like blocks.
	fbs   []*FusionBlock
	cands []*blockCands
	// valRefs[p] counts the rows holding each value ID at schema position p,
	// for the positions any rule touches (nil elsewhere); domain[p] is its
	// size, the distinct-value count fusion's observation model reads.
	valRefs []map[uint32]int32
	domain  []int
	fused   map[int]*tupleState
	// log is the scratch sink fuseOne hands the fuser.
	log readLog

	// Incremental duplicate detection: each tuple's fused row reduced to an
	// interned ID-sequence key, refreshed only when the tuple re-fuses, so
	// assemble's dedup pass is one map lookup per row instead of re-hashing
	// every cell. The dict only grows (old values stay interned); that creep
	// is bounded by the value universe the table has ever fused to.
	dedupDict  *intern.Dict
	rowKeys    map[int]uint32
	keyScratch []uint32

	loaded bool
}

// NewDeltaCleaner prepares an engine for the schema and rule set. Options
// follow Clean's defaults; Trace is ignored (the engine is its own pipeline
// shape), and fusion runs with the same τ, metric, priors,
// and duplicate handling as the batch run it must stay byte-identical to.
func NewDeltaCleaner(schema *dataset.Schema, rs []*rules.Rule, opts Options) (*DeltaCleaner, error) {
	if schema == nil || schema.Len() == 0 {
		return nil, fmt.Errorf("core: delta: empty schema")
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("core: delta: no rules")
	}
	for _, r := range rs {
		if err := r.Validate(schema); err != nil {
			return nil, err
		}
	}
	opts = opts.withDefaults()
	opts.Trace = nil
	dict := intern.NewDict()
	d := &DeltaCleaner{
		schema:  schema,
		rs:      rs,
		opts:    opts,
		dict:    dict,
		pool:    distance.NewPool(opts.Metric, dict),
		rowPos:  make(map[int]int),
		fused:   make(map[int]*tupleState),
		fbs:     make([]*FusionBlock, len(rs)),
		cands:   make([]*blockCands, len(rs)),
		valRefs: make([]map[uint32]int32, schema.Len()),
		domain:  make([]int, schema.Len()),

		dedupDict: intern.NewDict(),
		rowKeys:   make(map[int]uint32),
	}
	d.posPerBlock = make([][]int, len(rs))
	for ri, r := range rs {
		attrs := r.Attrs()
		pos := make([]int, len(attrs))
		for i, a := range attrs {
			pos[i] = schema.MustIndex(a)
			if d.valRefs[pos[i]] == nil {
				d.valRefs[pos[i]] = make(map[uint32]int32)
			}
		}
		d.posPerBlock[ri] = pos
	}
	return d, nil
}

// Load seeds the engine with a full clean of tb: every block is built and
// cleaned, every tuple fused, and the result returned. Tuple IDs must be
// unique; rows are adopted in ascending-ID order (the engine's canonical
// table order, which Apply preserves across inserts and deletes). tb is not
// retained or modified.
func (d *DeltaCleaner) Load(tb *dataset.Table) (*Result, error) {
	if d.loaded {
		return nil, fmt.Errorf("core: delta: already loaded")
	}
	if tb == nil || tb.Len() == 0 {
		return nil, fmt.Errorf("core: empty input table")
	}
	if tb.Schema.Len() != d.schema.Len() {
		return nil, fmt.Errorf("core: delta: schema width mismatch")
	}
	d.tuples = make([]*dataset.Tuple, 0, tb.Len())
	d.encRows = make([][]uint32, 0, tb.Len())
	for _, t := range tb.Tuples {
		d.tuples = append(d.tuples, t.Clone())
	}
	sort.SliceStable(d.tuples, func(i, j int) bool { return d.tuples[i].ID < d.tuples[j].ID })
	for i, t := range d.tuples {
		if i > 0 && d.tuples[i-1].ID == t.ID {
			return nil, fmt.Errorf("core: delta: duplicate tuple id %d", t.ID)
		}
		d.encRows = append(d.encRows, d.encode(t.Values))
		d.countRow(d.encRows[i], 1)
	}
	d.reindex()

	d.blocks = make([]*deltaBlock, len(d.rs))
	for ri, r := range d.rs {
		db := &deltaBlock{rule: r}
		if err := d.cleanBlock(ri, db); err != nil {
			return nil, err
		}
		d.blocks[ri] = db
	}
	for _, t := range d.tuples {
		d.fuseOne(t.ID)
	}
	d.loaded = true
	mDeltaLoads.Inc()
	return d.assemble(), nil
}

// Apply folds a mutation batch into the table and re-cleans incrementally,
// returning the new full result (byte-identical to a from-scratch Clean of
// the mutated table) plus the delta accounting. On a validation error the
// engine state is unchanged; mutations are validated up front, then applied
// as one batch.
func (d *DeltaCleaner) Apply(muts []Mutation) (*Result, *DeltaStats, error) {
	t0 := time.Now()
	if !d.loaded {
		return nil, nil, fmt.Errorf("core: delta: not loaded")
	}
	if len(muts) == 0 {
		return nil, nil, fmt.Errorf("core: delta: empty mutation batch")
	}
	if err := d.validate(muts); err != nil {
		return nil, nil, err
	}

	// Fold the batch into the table, collecting the dirtied rules and the
	// mutated tuple IDs. Each mutation sees the state its predecessors left.
	oldDomain := append([]int(nil), d.domain...)
	dirty := make([]bool, len(d.rs))
	refuse := make(map[int]struct{})
	for _, m := range muts {
		pos, exists := d.rowPos[m.Row]
		switch m.Op {
		case DeltaPut:
			vals := append([]string(nil), m.Values...)
			if exists {
				old := d.tuples[pos].Values
				for ri, r := range d.rs {
					if d.ruleDirtyOnUpdate(r, ri, old, vals) {
						dirty[ri] = true
					}
				}
				d.tuples[pos].Values = vals
				d.countRow(d.encRows[pos], -1)
				d.encRows[pos] = d.encode(vals)
				d.countRow(d.encRows[pos], 1)
			} else {
				for ri, r := range d.rs {
					if d.appliesVals(r, vals) {
						dirty[ri] = true
					}
				}
				d.insertAt(m.Row, vals)
			}
			refuse[m.Row] = struct{}{}
		case DeltaDelete:
			old := d.tuples[pos].Values
			for ri, r := range d.rs {
				if d.appliesVals(r, old) {
					dirty[ri] = true
				}
			}
			d.countRow(d.encRows[pos], -1)
			d.tuples = append(d.tuples[:pos], d.tuples[pos+1:]...)
			d.encRows = append(d.encRows[:pos], d.encRows[pos+1:]...)
			d.reindex()
			delete(d.fused, m.Row)
			delete(d.rowKeys, m.Row)
		}
	}

	// Rebuild the dirty blocks, mark every tuple whose version facts moved,
	// and note which blocks' candidate lists changed.
	ds := &DeltaStats{}
	candsMoved := make([]bool, len(d.rs))
	for ri, isDirty := range dirty {
		if !isDirty {
			ds.ReusedBlocks++
			continue
		}
		ds.DirtyBlocks++
		db := d.blocks[ri]
		oldVers, oldCands := db.vers, d.cands[ri]
		if err := d.cleanBlock(ri, db); err != nil {
			// Learn errors are a function of the options alone, so a Load that
			// succeeded cannot fail here; surface it anyway rather than serve
			// a half-updated result.
			return nil, nil, err
		}
		candsMoved[ri] = !d.cands[ri].sameAs(oldCands)
		for id, v := range db.vers {
			ov, ok := oldVers[id]
			if !ok || ov.kid != v.kid || ov.weight != v.weight && d.readsWeights(id) {
				refuse[id] = struct{}{}
			}
		}
		for id := range oldVers {
			if _, ok := db.vers[id]; !ok {
				refuse[id] = struct{}{}
			}
		}
	}
	// A conflicted tuple whose versions held still also read domain sizes
	// and replacement lookups: re-fuse it only if one of those moved.
	domMoved := make([]bool, len(d.rs))
	for bi, pos := range d.posPerBlock {
		for _, p := range pos {
			if d.domain[p] != oldDomain[p] {
				domMoved[bi] = true
			}
		}
	}
	scratch := newAssignment(d.schema.Len())
	for id, ts := range d.fused {
		if !ts.conflicted {
			continue
		}
		if _, ok := refuse[id]; ok {
			continue
		}
		if d.readsMoved(id, ts, domMoved, candsMoved, scratch) {
			refuse[id] = struct{}{}
		} else {
			ds.RevalidatedTuples++
		}
	}

	ids := make([]int, 0, len(refuse))
	for id := range refuse {
		if _, live := d.rowPos[id]; live {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		d.fuseOne(id)
	}
	ds.RefusedTuples = len(ids)
	ds.ReusedTuples = len(d.tuples) - len(ids)
	ds.Wall = time.Since(t0)

	mDeltaApplies.Inc()
	mDeltaDirtyBlocks.Add(int64(ds.DirtyBlocks))
	mDeltaReusedBlocks.Add(int64(ds.ReusedBlocks))
	mDeltaRefusedTuples.Add(int64(ds.RefusedTuples))
	mDeltaReusedTuples.Add(int64(ds.ReusedTuples))
	mDeltaRevalidatedTuples.Add(int64(ds.RevalidatedTuples))
	mDeltaSeconds.ObserveDuration(ds.Wall)
	return d.assemble(), ds, nil
}

// validate checks a whole batch against the state each mutation will see,
// without changing anything. Errors name the first offending mutation.
func (d *DeltaCleaner) validate(muts []Mutation) error {
	live := len(d.tuples)
	present := make(map[int]bool)
	for mi, m := range muts {
		if m.Row < 0 {
			return fmt.Errorf("core: delta: mutation %d: negative row %d", mi, m.Row)
		}
		exists, known := present[m.Row]
		if !known {
			_, exists = d.rowPos[m.Row]
		}
		switch m.Op {
		case DeltaPut:
			if len(m.Values) != d.schema.Len() {
				return fmt.Errorf("core: delta: mutation %d: row %d has %d values, schema has %d",
					mi, m.Row, len(m.Values), d.schema.Len())
			}
			if !exists {
				live++
			}
			present[m.Row] = true
		case DeltaDelete:
			if !exists {
				return fmt.Errorf("core: delta: mutation %d: delete of unknown row %d", mi, m.Row)
			}
			live--
			present[m.Row] = false
		default:
			return fmt.Errorf("core: delta: mutation %d: unknown op %d", mi, m.Op)
		}
	}
	if live == 0 {
		return fmt.Errorf("core: delta: batch would empty the table")
	}
	return nil
}

// Len is the current table size.
func (d *DeltaCleaner) Len() int { return len(d.tuples) }

// Has reports whether the tuple ID is live.
func (d *DeltaCleaner) Has(row int) bool {
	_, ok := d.rowPos[row]
	return ok
}

// Table materializes the current dirty table (ascending tuple-ID order, IDs
// preserved). The copy is independent of engine state.
func (d *DeltaCleaner) Table() *dataset.Table {
	tb := dataset.NewTable(d.schema)
	for _, t := range d.tuples {
		tb.Tuples = append(tb.Tuples, t.Clone())
	}
	return tb
}

// Weights returns the current post-stage-I piece summaries, concatenated in
// rule order — the weight vector repair attribution reads. Equal to the
// summaries a from-scratch Clean of the same table exposes on its index.
func (d *DeltaCleaner) Weights() []index.PieceSummary {
	var out []index.PieceSummary
	for _, db := range d.blocks {
		out = append(out, db.summaries...)
	}
	return out
}

// encode interns one row into the engine's dictionary.
func (d *DeltaCleaner) encode(vals []string) []uint32 {
	row := make([]uint32, len(vals))
	for i, v := range vals {
		row[i] = d.dict.Intern(v)
	}
	return row
}

// reindex rebuilds the ID → position map after structural changes.
func (d *DeltaCleaner) reindex() {
	d.rowPos = make(map[int]int, len(d.tuples))
	for i, t := range d.tuples {
		d.rowPos[t.ID] = i
	}
}

// insertAt places a new tuple at its ascending-ID position.
func (d *DeltaCleaner) insertAt(row int, vals []string) {
	at := sort.Search(len(d.tuples), func(i int) bool { return d.tuples[i].ID > row })
	t := &dataset.Tuple{ID: row, Values: vals}
	d.tuples = append(d.tuples, nil)
	copy(d.tuples[at+1:], d.tuples[at:])
	d.tuples[at] = t
	d.encRows = append(d.encRows, nil)
	copy(d.encRows[at+1:], d.encRows[at:])
	d.encRows[at] = d.encode(vals)
	d.countRow(d.encRows[at], 1)
	d.reindex()
}

// view is the engine table as a dataset.Table header (shared tuples, no copy).
func (d *DeltaCleaner) view() *dataset.Table {
	return &dataset.Table{Schema: d.schema, Tuples: d.tuples}
}

// cleanBlock (re)builds rule ri's block over the current table and runs the
// per-block stage-I pipeline on it, refreshing every cache the block feeds.
func (d *DeltaCleaner) cleanBlock(ri int, db *deltaBlock) error {
	enc := &dataset.Encoded{Dict: d.dict, Rows: d.encRows}
	b := index.BuildBlockFor(d.view(), enc, d.rs[ri])
	ev := d.pool.Get()
	if db.memo == nil {
		db.memo = &agpMemo{}
	}
	ab, abp, promos := agp(ri, b, d.opts.Tau, ev, d.opts.MergeCapRatio, d.opts.AGPStrategy, db.memo, nil)
	iters, err := learnBlockWeights(b, d.opts.Learn)
	if err != nil {
		d.pool.Put(ev)
		return err
	}
	repairs := rsc(ri, b, ev, nil)
	d.pool.Put(ev)

	mAbnormalGroups.Add(int64(ab))
	mAGPPromotions.Add(int64(promos))
	mAGPMerges.Add(int64(ab - promos))
	mLearnIterations.Add(int64(iters))
	mRSCRewrites.Add(int64(repairs))

	db.block = b
	db.frag = blockFrag{
		groups: len(b.Groups), abnormal: ab, abnormalPieces: abp,
		promotions: promos, learnIters: iters, rscRepairs: repairs,
	}
	db.summaries = blockSummaries(b)
	fb := &FusionBlock{Rule: b.Rule, Attrs: b.Rule.Attrs(), Versions: make(map[int]*index.Piece)}
	for _, g := range b.Groups {
		for _, p := range g.Pieces {
			fb.Candidates = append(fb.Candidates, p)
			for _, id := range p.TupleIDs {
				fb.Versions[id] = p
			}
		}
	}
	d.fbs[ri] = fb
	d.cands[ri] = buildBlockCands(fb, d.posPerBlock[ri])
	db.vers = make(map[int]verInfo, len(fb.Versions))
	for id, p := range fb.Versions {
		db.vers[id] = verInfo{kid: p.KeyID(), weight: p.Weight}
	}
	return nil
}

// blockSummaries mirrors Index.PieceSummaries for a single block.
func blockSummaries(b *index.Block) []index.PieceSummary {
	var out []index.PieceSummary
	for _, g := range b.Groups {
		for _, p := range g.Pieces {
			vals := p.Values()
			out = append(out, index.PieceSummary{
				RuleID: b.Rule.ID,
				Key:    dataset.JoinKey(vals),
				Values: vals,
				Count:  p.Count(),
				Weight: p.Weight,
			})
		}
	}
	return out
}

// countRow adds (delta 1) or removes (delta -1) one encoded row from the
// per-position value refcounts, keeping domain in step.
func (d *DeltaCleaner) countRow(row []uint32, delta int32) {
	for p, refs := range d.valRefs {
		if refs == nil {
			continue
		}
		if n := refs[row[p]] + delta; n > 0 {
			refs[row[p]] = n
		} else {
			delete(refs, row[p])
		}
		d.domain[p] = len(refs)
	}
}

// fuseOne re-runs fusion for one tuple against the current blocks and caches
// the outcome together with its read set.
func (d *DeltaCleaner) fuseOne(id int) {
	pos := d.rowPos[id]
	t := d.tuples[pos].Clone()
	changes, failed := fuseTuple(t, d.encRows[pos], d.dict, d.schema,
		d.fbs, d.posPerBlock, d.cands, d.domain, d.opts, &d.log)
	ts := &tupleState{
		values:     t.Values,
		changes:    changes,
		failed:     failed,
		conflicted: d.log.conflicted,
	}
	if ts.conflicted {
		var buf []uint32
		if prev := d.fused[id]; prev != nil {
			buf = prev.lookups[:0] // recycle the replaced state's buffer
		}
		ts.lookups = append(buf, d.log.lookups...)
	}
	d.fused[id] = ts
	d.rowKeys[id] = d.rowKey(t.Values)
}

// readsWeights reports whether the tuple's cached outcome depends on its
// versions' weights. A non-conflicted tuple fuses on the fast path to the
// union of its versions' values whatever their weights (the weights only
// form its f-score, which the engine does not keep), so a weight-only move
// cannot change it. A tuple not fused yet reads everything.
func (d *DeltaCleaner) readsWeights(id int) bool {
	ts := d.fused[id]
	return ts == nil || ts.conflicted
}

// readsMoved reports whether a conflicted tuple whose versions are unchanged
// could fuse differently: a domain size at a position its versions cover
// moved (domMoved, per block), or one of its recorded lookups against a
// block whose candidates changed (candsMoved) now answers differently.
func (d *DeltaCleaner) readsMoved(id int, ts *tupleState, domMoved, candsMoved []bool, scratch assignment) bool {
	for bi, fb := range d.fbs {
		if domMoved[bi] {
			if _, ok := fb.Versions[id]; ok {
				return true
			}
		}
	}
	return lookupsStale(ts.lookups, d.cands, candsMoved, scratch)
}

// rowKey interns a fused row into its ID-sequence key. Keys from the
// engine's persistent dict number differently than a fresh Dedup pass's
// would, but equality is all dedup reads — identical rows intern to the
// same key in any dict.
func (d *DeltaCleaner) rowKey(vals []string) uint32 {
	d.keyScratch = d.keyScratch[:0]
	for _, v := range vals {
		d.keyScratch = append(d.keyScratch, d.dedupDict.Intern(v))
	}
	return d.dedupDict.Seq(d.keyScratch)
}

// appliesVals mirrors rulePlan.appliesTo over display values: every rule
// applies except a constant-bearing CFD none of whose constant patterns
// match the row.
func (d *DeltaCleaner) appliesVals(r *rules.Rule, vals []string) bool {
	if r.Kind != rules.CFD {
		return true
	}
	anyConst := false
	for _, p := range r.Reason {
		if p.Const == "" {
			continue
		}
		anyConst = true
		if vals[d.schema.MustIndex(p.Attr)] == p.Const {
			return true
		}
	}
	return !anyConst
}

// ruleDirtyOnUpdate reports whether replacing old with new changes rule r's
// block: membership flipped, or a member's projection onto the rule's
// attributes moved.
func (d *DeltaCleaner) ruleDirtyOnUpdate(r *rules.Rule, ri int, old, new []string) bool {
	oldIn := d.appliesVals(r, old)
	newIn := d.appliesVals(r, new)
	if oldIn != newIn {
		return true
	}
	if !oldIn {
		return false
	}
	for _, p := range d.posPerBlock[ri] {
		if old[p] != new[p] {
			return true
		}
	}
	return false
}

// assemble recomposes the full Result from the per-block and per-tuple
// caches: the repaired table in ascending-ID order, duplicate elimination,
// and the Stats a from-scratch run would report. Result.Index is nil — the
// engine is the index's keeper across mutations.
func (d *DeltaCleaner) assemble() *Result {
	st := Stats{Tuples: len(d.tuples), Blocks: len(d.blocks)}
	for _, db := range d.blocks {
		st.Groups += db.frag.groups
		st.AbnormalGroups += db.frag.abnormal
		st.AbnormalPieces += db.frag.abnormalPieces
		st.AGPPromotions += db.frag.promotions
		st.LearnIterations += db.frag.learnIters
		st.RSCRepairs += db.frag.rscRepairs
	}
	// Result rows alias the fused value slices: a tuple's slice is written
	// once by its fuseOne and replaced wholesale (never edited in place) on
	// re-fuse, so rows handed out here stay stable across later Applies.
	// Callers treat Results as immutable — the serving layer re-serializes
	// them verbatim — so sharing is safe and saves a full table copy per
	// version.
	repaired := dataset.NewTable(d.schema)
	for _, t := range d.tuples {
		ts := d.fused[t.ID]
		st.FSCRCellChanges += ts.changes
		if ts.failed {
			st.FusionFailures++
		}
		repaired.Tuples = append(repaired.Tuples, &dataset.Tuple{ID: t.ID, Values: ts.values})
	}
	res := &Result{Repaired: repaired, Stats: st}
	if d.opts.KeepDuplicates {
		res.Clean = repaired.Clone()
		return res
	}
	// Same algorithm as Dedup, but over the cached per-tuple row keys —
	// identical grouping (keys agree iff the rows agree cell for cell) and
	// identical ordering (repaired is in ascending tuple-ID order, as a
	// from-scratch pass would see it), without re-interning every cell.
	// Clean's representatives alias Repaired's tuples, like the rows above.
	clean := dataset.NewTable(d.schema)
	members := make(map[uint32][]int, len(repaired.Tuples))
	var order []uint32
	for _, t := range repaired.Tuples {
		k := d.rowKeys[t.ID]
		if _, ok := members[k]; !ok {
			order = append(order, k)
			clean.Tuples = append(clean.Tuples, t)
		}
		members[k] = append(members[k], t.ID)
	}
	res.Clean = clean
	for _, k := range order {
		if ids := members[k]; len(ids) > 1 {
			res.Duplicates = append(res.Duplicates, ids)
			res.Stats.DuplicatesRemoved += len(ids) - 1
		}
	}
	return res
}

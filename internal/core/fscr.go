package core

import (
	"encoding/binary"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/rules"
)

// FSCR runs on the dictionary-encoded view of the data: assignments are
// schema-indexed []uint32 slices (one value ID per attribute position, with
// a sentinel for "not pinned"), versions carry their pieces' interned IDs,
// and candidate compatibility checks compare fixed-width integers. Strings
// reappear only when a winning fusion is written back into the repaired
// table and when trace entries are recorded.

// unsetID marks an attribute position the fusion has not pinned yet. Value
// IDs are dense from 0, so the all-ones sentinel can never collide.
const unsetID = ^uint32(0)

// version is one tuple's cleaned piece from one block (a data version).
type version struct {
	blockIdx int
	rule     *rules.Rule
	pos      []int // schema positions of the rule's attrs (reason+result)
	ids      []uint32
	kid      uint32 // the piece's fixed-width identity (replacement exclusion)
	weight   float64
}

// assignment is a partial tuple: one value ID per schema position, unsetID
// where nothing is pinned.
type assignment []uint32

func newAssignment(width int) assignment {
	a := make(assignment, width)
	for i := range a {
		a[i] = unsetID
	}
	return a
}

func (a assignment) clone() assignment {
	out := make(assignment, len(a))
	copy(out, a)
	return out
}

// conflictsWith returns the schema positions on which the assignment
// disagrees with the (pos, ids) piece.
func (a assignment) conflictsWith(pos []int, ids []uint32) []int {
	var out []int
	for i, p := range pos {
		if v := a[p]; v != unsetID && v != ids[i] {
			out = append(out, p)
		}
	}
	return out
}

// absorb merges the piece into the assignment (caller must have resolved
// conflicts first).
func (a assignment) absorb(pos []int, ids []uint32) {
	for i, p := range pos {
		a[p] = ids[i]
	}
}

// FusionBlock is one block's stage-I output as consumed by FSCR: the winner
// piece covering each tuple, plus the block's candidate pieces used for
// conflict replacement. The distributed gather step builds these from the
// union of all workers' blocks to run a global conflict resolution. All
// pieces of all blocks must share one dictionary.
type FusionBlock struct {
	Rule       *rules.Rule
	Attrs      []string
	Versions   map[int]*index.Piece
	Candidates []*index.Piece
}

// fusionBlocksFromIndex extracts stage-I results from a cleaned index.
func fusionBlocksFromIndex(ix *index.Index) []*FusionBlock {
	blocks := make([]*FusionBlock, len(ix.Blocks))
	for bi, b := range ix.Blocks {
		fb := &FusionBlock{Rule: b.Rule, Attrs: b.Rule.Attrs(), Versions: make(map[int]*index.Piece)}
		for _, g := range b.Groups {
			for _, p := range g.Pieces {
				fb.Candidates = append(fb.Candidates, p)
				for _, id := range p.TupleIDs {
					fb.Versions[id] = p
				}
			}
		}
		blocks[bi] = fb
	}
	return blocks
}

// FusionBlocksFromIndex exposes a cleaned index's stage-I output as FSCR
// inputs. Clean composes it internally; the distributed gather and the
// pipeline benchmarks build on it directly.
func FusionBlocksFromIndex(ix *index.Index) []*FusionBlock {
	return fusionBlocksFromIndex(ix)
}

// fusionDict returns the shared dictionary of the blocks' pieces, or nil
// when no block holds any piece.
func fusionDict(blocks []*FusionBlock) *intern.Dict {
	for _, fb := range blocks {
		if len(fb.Candidates) > 0 {
			return fb.Candidates[0].Dict()
		}
	}
	return nil
}

// candEntry caches one replacement candidate: its value IDs, weight, and
// identities, precomputed so conflict checks compare integers only.
type candEntry struct {
	ids    []uint32
	weight float64
	kid    uint32
	key    string // display key; orders equal-weight candidates
}

// blockCands pre-indexes a block's candidates for the replacement search:
// candidates sorted best-first plus per-attribute posting lists, so a
// conflicted merge scans only the candidates matching one pinned value
// instead of the whole block.
type blockCands struct {
	pos []int // schema positions of the block's attrs
	all []candEntry
	// byVal[i][id] lists indices into all (ascending = best first) of
	// candidates whose i-th attribute carries value ID id.
	byVal []map[uint32][]int32
}

func buildBlockCands(fb *FusionBlock, pos []int) *blockCands {
	bc := &blockCands{pos: pos}
	bc.all = make([]candEntry, 0, len(fb.Candidates))
	for _, p := range fb.Candidates {
		bc.all = append(bc.all, candEntry{ids: p.ValueIDs(), weight: p.Weight, kid: p.KeyID(), key: p.Key()})
	}
	sort.Slice(bc.all, func(i, j int) bool {
		if bc.all[i].weight != bc.all[j].weight {
			return bc.all[i].weight > bc.all[j].weight
		}
		return bc.all[i].key < bc.all[j].key
	})
	bc.byVal = make([]map[uint32][]int32, len(bc.pos))
	for i := range bc.pos {
		m := make(map[uint32][]int32)
		for ci, c := range bc.all {
			if i < len(c.ids) {
				m[c.ids[i]] = append(m[c.ids[i]], int32(ci))
			}
		}
		bc.byVal[i] = m
	}
	return bc
}

// find returns the best candidate compatible with merged, excluding the
// candidate identified by excludeKid. Compatibility: the candidate agrees
// with merged on every attribute of this block merged pins.
func (bc *blockCands) find(merged assignment, excludeKid uint32) (candEntry, bool) {
	if i := bc.findIdx(merged, excludeKid); i >= 0 {
		return bc.all[i], true
	}
	return candEntry{}, false
}

// findIdx is find returning the candidate's index in all, or -1. It reads
// merged only at the block's attrs.
func (bc *blockCands) findIdx(merged assignment, excludeKid uint32) int {
	// Choose the shortest posting list among pinned attributes.
	bestList := -1
	var list []int32
	for i, p := range bc.pos {
		v := merged[p]
		if v == unsetID {
			continue
		}
		l := bc.byVal[i][v]
		if bestList == -1 || len(l) < len(list) {
			bestList = i
			list = l
		}
	}
	check := func(c candEntry) bool {
		if c.kid == excludeKid {
			return false
		}
		for i, p := range bc.pos {
			if v := merged[p]; v != unsetID && c.ids[i] != v {
				return false
			}
		}
		return true
	}
	if bestList >= 0 {
		for _, i := range list {
			if check(bc.all[i]) {
				return int(i)
			}
		}
		return -1
	}
	for i, c := range bc.all {
		if check(c) {
			return i
		}
	}
	return -1
}

// readLog is the optional sink a fusion records its reads into. Beyond its
// own versions, its dirty row and the domain sizes at the positions those
// versions cover, a fusion reads only the answers of its replacement
// lookups, and only on the conflict path. The delta engine keeps each
// tuple's lookups and replays them against rebuilt candidate lists to tell
// whether the fusion could come out differently; the batch path passes no
// sink and records nothing.
type readLog struct {
	// conflicted is set when the fusion left the fast path (some pair of
	// versions disagreed), the only path that performs lookups.
	conflicted bool
	// lookups packs one record per distinct lookup into one flat buffer:
	// block index, excluded kid, answer index into the block's candidates
	// plus one (0 = none), answer kid, answer weight as two 32-bit halves,
	// then the value IDs the fusion had pinned on the block's attrs
	// (unsetID where unpinned). A record for block bi is
	// lookupHeader+len(pos of bi) words long.
	lookups []uint32
	// seen maps a record's hash to its offset in lookups, so a lookup the
	// permutation search repeats is answered from its record instead of
	// being searched and recorded again.
	seen map[uint64]int32
}

const lookupHeader = 6

func (l *readLog) reset() {
	l.conflicted = false
	l.lookups = l.lookups[:0]
	if len(l.seen) > 0 {
		clear(l.seen)
	}
}

// find is bc.find for block bi, answered from an earlier identical lookup
// of the same fusion when there is one and recorded otherwise.
func (l *readLog) find(bi int, bc *blockCands, merged assignment, excludeKid uint32) (candEntry, bool) {
	h := (uint64(bi)<<32 | uint64(excludeKid)) * 0x9e3779b97f4a7c15
	for _, p := range bc.pos {
		h = (h ^ uint64(merged[p])) * 0x100000001b3
	}
	if off, ok := l.seen[h]; ok && sameLookup(l.lookups[off:], bi, bc, merged, excludeKid) {
		if ci := l.lookups[off+2]; ci > 0 {
			return bc.all[ci-1], true
		}
		return candEntry{}, false
	}
	ci := bc.findIdx(merged, excludeKid)
	var ans candEntry
	if ci >= 0 {
		ans = bc.all[ci]
	}
	w := math.Float64bits(ans.weight)
	off := len(l.lookups)
	l.lookups = append(l.lookups, uint32(bi), excludeKid, uint32(ci+1), ans.kid, uint32(w), uint32(w>>32))
	for _, p := range bc.pos {
		l.lookups = append(l.lookups, merged[p])
	}
	if l.seen == nil {
		l.seen = make(map[uint64]int32)
	}
	if _, taken := l.seen[h]; !taken {
		l.seen[h] = int32(off)
	}
	return ans, ci >= 0
}

// sameLookup reports whether rec records the lookup (bi, merged on bc's
// attrs, excludeKid) — the guard against hash collisions.
func sameLookup(rec []uint32, bi int, bc *blockCands, merged assignment, excludeKid uint32) bool {
	if rec[0] != uint32(bi) || rec[1] != excludeKid {
		return false
	}
	for i, p := range bc.pos {
		if rec[lookupHeader+i] != merged[p] {
			return false
		}
	}
	return true
}

// lookupsStale replays recorded lookups against the blocks whose candidates
// moved (moved[bi]) and reports whether any would now answer differently
// (found or not, answer kid, answer weight). scratch is an all-unset
// assignment of schema width; it is restored before return.
func lookupsStale(lookups []uint32, cands []*blockCands, moved []bool, scratch assignment) bool {
	for len(lookups) > 0 {
		bi := int(lookups[0])
		bc := cands[bi]
		n := lookupHeader + len(bc.pos)
		rec := lookups[:n]
		lookups = lookups[n:]
		if !moved[bi] {
			continue
		}
		for i, p := range bc.pos {
			scratch[p] = rec[lookupHeader+i]
		}
		ci := bc.findIdx(scratch, rec[1])
		for _, p := range bc.pos {
			scratch[p] = unsetID
		}
		if (ci >= 0) != (rec[2] > 0) {
			return true
		}
		if ci >= 0 {
			c := &bc.all[ci]
			w := math.Float64bits(c.weight)
			if c.kid != rec[3] || uint32(w) != rec[4] || uint32(w>>32) != rec[5] {
				return true
			}
		}
	}
	return false
}

// sameAs reports whether two candidate lists are entry-for-entry identical
// (kid and weight; a kid fixes the value IDs and the display key), in
// which case every lookup against them answers the same.
func (bc *blockCands) sameAs(o *blockCands) bool {
	if len(bc.all) != len(o.all) {
		return false
	}
	for i := range bc.all {
		a, b := &bc.all[i], &o.all[i]
		if a.kid != b.kid || math.Float64bits(a.weight) != math.Float64bits(b.weight) {
			return false
		}
	}
	return true
}

// fscr runs fusion-score conflict resolution (Alg. 2) over the whole table,
// reusing the index's already-encoded rows.
func fscr(dirty *dataset.Table, ix *index.Index, opts Options, st *Stats) *dataset.Table {
	return RunFSCREncoded(dirty, ix.Encoded(), fusionBlocksFromIndex(ix), opts, st)
}

// RunFSCR fuses each tuple's per-block cleaned versions into the single
// assignment with the maximal fusion score (the product of the merged
// pieces' weights, Eq. 5, combined with the minimality/observation prior),
// resolving conflicts by substituting the highest-weight non-conflicting
// piece from the conflicting block. The repaired table (same tuple IDs as
// the input) is returned; st (optional) accumulates cell-change and failure
// counts, and opts.Trace records per-tuple fusion outcomes. Tuples fuse
// independently and run in parallel.
func RunFSCR(dirty *dataset.Table, blocks []*FusionBlock, opts Options, st *Stats) *dataset.Table {
	return RunFSCREncoded(dirty, nil, blocks, opts, st)
}

// RunFSCREncoded is RunFSCR for callers that already hold the dirty table's
// encoded rows in the pieces' dictionary (the stand-alone pipeline reuses
// the index's encoding; the distributed gather reuses the rows interned at
// Submit). A nil or foreign-dictionary enc is re-encoded.
func RunFSCREncoded(dirty *dataset.Table, enc *dataset.Encoded, blocks []*FusionBlock, opts Options, st *Stats) *dataset.Table {
	opts = opts.withDefaults()
	defer mStageFSCR.ObserveSince(time.Now())
	if st == nil {
		st = &Stats{}
	}
	repaired := dirty.Clone()
	dict := fusionDict(blocks)
	if dict == nil {
		return repaired // no pieces anywhere: nothing to fuse
	}
	if enc == nil || enc.Dict != dict || len(enc.Rows) != len(dirty.Tuples) {
		// Encode the observed (dirty) rows into the pieces' dictionary before
		// the parallel loop — the only phase that may grow the dictionary.
		// (The distributed batch path hands the gather an executor whose
		// Submit never ran, so an empty/misaligned encoding re-encodes here.)
		enc = dataset.Encode(dirty, dict)
	}
	schema := repaired.Schema
	width := schema.Len()

	// Distinct-value counts per rule attribute, for the observation model:
	// a replacement error lands on one specific value out of |domain|−1
	// alternatives, so changing a large-domain cell (e.g. Model) explains
	// the observed tuple less well than changing a small-domain cell (e.g.
	// Make) — exactly the asymmetry that disambiguates which side of a
	// version conflict was corrupted. Distinct IDs ≡ distinct values.
	domainSize := make([]int, width)
	posPerBlock := make([][]int, len(blocks))
	needed := make([]bool, width)
	for bi, fb := range blocks {
		pos := make([]int, len(fb.Attrs))
		for i, a := range fb.Attrs {
			pos[i] = schema.MustIndex(a)
			needed[pos[i]] = true
		}
		posPerBlock[bi] = pos
	}
	var seen map[uint32]struct{}
	for p := 0; p < width; p++ {
		if !needed[p] {
			continue
		}
		if seen == nil {
			seen = make(map[uint32]struct{}, len(enc.Rows))
		} else {
			clear(seen)
		}
		for _, row := range enc.Rows {
			seen[row[p]] = struct{}{}
		}
		domainSize[p] = len(seen)
	}

	candidates := make([]*blockCands, len(blocks))
	for bi, fb := range blocks {
		candidates[bi] = buildBlockCands(fb, posPerBlock[bi])
	}

	par := opts.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	if par < 1 {
		par = 1
	}
	var (
		wg          sync.WaitGroup
		statsMu     sync.Mutex
		cellChanges int
		failures    int
	)
	chunk := (len(repaired.Tuples) + par - 1) / par
	if chunk < 1 {
		chunk = 1
	}
	for lo := 0; lo < len(repaired.Tuples); lo += chunk {
		hi := lo + chunk
		if hi > len(repaired.Tuples) {
			hi = len(repaired.Tuples)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			localChanges, localFailures := 0, 0
			for i := lo; i < hi; i++ {
				c, f := fuseTuple(repaired.Tuples[i], enc.Rows[i], dict, schema,
					blocks, posPerBlock, candidates, domainSize, opts, nil)
				localChanges += c
				if f {
					localFailures++
				}
			}
			statsMu.Lock()
			cellChanges += localChanges
			failures += localFailures
			statsMu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	st.FSCRCellChanges += cellChanges
	st.FusionFailures += failures
	mFSCRCellChanges.Add(int64(cellChanges))
	mFSCRConflicts.Add(int64(failures))
	return repaired
}

// fuseTuple runs the fusion for one tuple, applying the winning assignment
// in place. dirtyRow is the tuple's observed values as IDs in the blocks'
// dictionary. Returns the number of changed cells and whether fusion
// failed. A non-nil reads is reset and then records what the fusion read.
func fuseTuple(t *dataset.Tuple, dirtyRow []uint32, dict *intern.Dict, schema *dataset.Schema,
	blocks []*FusionBlock, posPerBlock [][]int, candidates []*blockCands,
	domainSize []int, opts Options, reads *readLog) (int, bool) {
	if reads != nil {
		reads.reset()
	}
	var versions []version
	for bi, fb := range blocks {
		p, ok := fb.Versions[t.ID]
		if !ok {
			continue
		}
		versions = append(versions, version{
			blockIdx: bi,
			rule:     fb.Rule,
			pos:      posPerBlock[bi],
			ids:      p.ValueIDs(),
			kid:      p.KeyID(),
			weight:   p.Weight,
		})
	}
	if len(versions) == 0 {
		return 0, false
	}
	f := newFuser(versions, candidates, opts.MaxFusionStates, schema.Len())
	f.penalty = opts.changePenalty()
	f.domainSize = domainSize
	f.dirtyRow = dirtyRow
	f.dict = dict
	f.schema = schema
	f.reads = reads
	best, fscore, conflictPos := f.run()

	outcome := FusionOutcome{TupleID: t.ID, FScore: fscore}
	for _, p := range conflictPos {
		outcome.ConflictAttrs = append(outcome.ConflictAttrs, schema.Attr(p))
	}
	sort.Strings(outcome.ConflictAttrs)
	if best == nil {
		outcome.Failed = true
		opts.Trace.addFusion(outcome)
		return 0, true
	}
	changes := 0
	for pos, id := range best {
		if id == unsetID || dirtyRow[pos] == id {
			continue
		}
		val := dict.Value(id)
		outcome.Changed = append(outcome.Changed, CellChange{Attr: schema.Attr(pos), Old: t.Values[pos], New: val})
		t.Values[pos] = val
		changes++
	}
	sort.Slice(outcome.Changed, func(i, j int) bool { return outcome.Changed[i].Attr < outcome.Changed[j].Attr })
	opts.Trace.addFusion(outcome)
	return changes, false
}

// fuser performs the memoized permutation search of Alg. 2 for one tuple.
type fuser struct {
	versions   []version
	candidates []*blockCands
	maxStates  int
	// penalty is the per-changed-cell factor ε/(1−ε) of the minimality
	// prior; dirtyRow holds the tuple's observed value IDs per position;
	// domainSize holds distinct-value counts for the observation model.
	penalty    float64
	dirtyRow   []uint32
	domainSize []int
	dict       *intern.Dict
	schema     *dataset.Schema
	// reads, when set, records the conflict path's lookups.
	reads *readLog

	states    int
	visited   map[string]float64 // state key → best f reaching it
	bestF     float64            // penalized score of the best fusion
	bestRaw   float64            // raw Eq. 5 f-score of the best fusion
	best      assignment
	conflicts map[int]struct{}
	// attrOrder is the sorted union of the versions' schema positions, fixed
	// at construction so state keys never re-sort per memo probe.
	attrOrder []int
	width     int
	keyBuf    []byte
}

func newFuser(versions []version, candidates []*blockCands, maxStates, width int) *fuser {
	posSet := make(map[int]struct{})
	for _, v := range versions {
		for _, p := range v.pos {
			posSet[p] = struct{}{}
		}
	}
	attrOrder := make([]int, 0, len(posSet))
	for p := range posSet {
		attrOrder = append(attrOrder, p)
	}
	sort.Ints(attrOrder)
	return &fuser{
		versions:   versions,
		candidates: candidates,
		maxStates:  maxStates,
		penalty:    1,
		visited:    make(map[string]float64),
		conflicts:  make(map[int]struct{}),
		attrOrder:  attrOrder,
		width:      width,
	}
}

// penalized applies the minimality prior: each attribute the fusion would
// change relative to the observed tuple costs a factor of
// ε/(1−ε) · 1/(|domain|−1) — the likelihood that corruption of the fused
// (hypothesized clean) value produced exactly the observed dirty value.
// Constants shared by all fusions of the same tuple cancel, so only changed
// cells contribute.
func (f *fuser) penalized(merged assignment, raw float64) float64 {
	if f.penalty >= 1 {
		return raw
	}
	out := raw
	for _, pos := range f.attrOrder {
		id := merged[pos]
		if id == unsetID || id == f.dirtyRow[pos] {
			continue
		}
		out *= f.penalty
		if n := f.domainSize[pos]; n > 2 {
			out /= float64(n - 1)
		}
	}
	return out
}

// run explores fusion orders and returns the best assignment, its f-score,
// and the set of schema positions on which conflicts were detected. A nil
// assignment means every order failed (fusion score 0).
func (f *fuser) run() (assignment, float64, []int) {
	// Fast path: if no pair of versions conflicts, every order yields the
	// same union with f = Π weights.
	if !f.anyPairConflicts() {
		merged := newAssignment(f.width)
		score := 1.0
		for _, v := range f.versions {
			merged.absorb(v.pos, v.ids)
			score *= v.weight
		}
		return merged, score, nil
	}

	if f.reads != nil {
		f.reads.conflicted = true
	}
	for i := range f.versions {
		v := f.versions[i]
		merged := newAssignment(f.width)
		merged.absorb(v.pos, v.ids)
		f.extend(merged, v.weight, 1<<uint(i))
	}
	var pos []int
	for p := range f.conflicts {
		pos = append(pos, p)
	}
	sort.Ints(pos)
	if f.best == nil {
		return nil, 0, pos
	}
	return f.best, f.bestRaw, pos
}

func (f *fuser) anyPairConflicts() bool {
	for i := 0; i < len(f.versions); i++ {
		for j := i + 1; j < len(f.versions); j++ {
			vi, vj := f.versions[i], f.versions[j]
			for ai, pa := range vi.pos {
				for aj, pb := range vj.pos {
					if pa == pb && vi.ids[ai] != vj.ids[aj] {
						return true
					}
				}
			}
		}
	}
	return false
}

// extend is GetFusionT: merged holds the fusion so far, fscore its score,
// mask the consumed versions.
func (f *fuser) extend(merged assignment, fscore float64, mask int) {
	if mask == (1<<uint(len(f.versions)))-1 {
		if p := f.penalized(merged, fscore); p > f.bestF {
			f.bestF = p
			f.bestRaw = fscore
			f.best = merged.clone()
		}
		return
	}
	if f.states >= f.maxStates {
		return
	}
	buf := f.stateKey(mask, merged)
	if prev, ok := f.visited[string(buf)]; ok && fscore <= prev {
		return // alloc-free probe: the conversion stays inside the index expression
	}
	f.visited[string(buf)] = fscore
	f.states++

	for j := range f.versions {
		if mask&(1<<uint(j)) != 0 {
			continue
		}
		vj := f.versions[j]
		ids, weight := vj.ids, vj.weight
		if conf := merged.conflictsWith(vj.pos, ids); len(conf) > 0 {
			for _, p := range conf {
				f.conflicts[p] = struct{}{}
			}
			// Replacement: highest-weight piece from block Bj that does not
			// conflict with the fusion so far.
			var repl candEntry
			var ok bool
			if bc := f.candidates[vj.blockIdx]; f.reads != nil {
				repl, ok = f.reads.find(vj.blockIdx, bc, merged, vj.kid)
			} else {
				repl, ok = bc.find(merged, vj.kid)
			}
			if !ok {
				// A CFD version is conditional: when the fusion so far
				// contradicts the pattern constants, the rule simply no
				// longer applies to the tuple, so the version is vacuous and
				// may be skipped instead of failing the order. Without this,
				// a value erroneously replaced INTO a CFD pattern (e.g.
				// Make ← "acura") could never be repaired: the CFD block
				// holds no candidates outside its pattern.
				if f.cfdVacuous(vj, merged) {
					f.extend(merged, fscore, mask|1<<uint(j))
				}
				continue // this order fails (f-score 0)
			}
			ids = repl.ids
			weight = repl.weight
		}
		next := merged.clone()
		next.absorb(vj.pos, ids)
		f.extend(next, fscore*weight, mask|1<<uint(j))
	}
}

// cfdVacuous reports whether version v comes from a CFD whose constant
// reason pattern is contradicted by the fusion so far — in that case the
// rule does not apply to the fused tuple and the version carries no
// information.
func (f *fuser) cfdVacuous(v version, merged assignment) bool {
	if v.rule == nil || v.rule.Kind != rules.CFD {
		return false
	}
	anyConst := false
	for _, pat := range v.rule.Reason {
		if pat.Const == "" {
			continue
		}
		anyConst = true
		got := merged[f.schema.MustIndex(pat.Attr)]
		if got == unsetID {
			return false // undetermined → cannot declare vacuous
		}
		if cid, ok := f.dict.Lookup(pat.Const); ok && got == cid {
			return false // still matches a constant → still applicable
		}
	}
	return anyConst
}

// stateKey identifies a search state: the consumed-version mask plus the
// merged assignment rendered over the fuser's fixed attribute order (a
// presence byte per attribute disambiguates absent from any value ID). The
// key is built into a reusable buffer; only map insertion materializes it.
func (f *fuser) stateKey(mask int, merged assignment) []byte {
	need := 8 + len(f.attrOrder)*5
	if cap(f.keyBuf) < need {
		f.keyBuf = make([]byte, 0, need)
	}
	b := f.keyBuf[:0]
	var mb [8]byte
	binary.LittleEndian.PutUint64(mb[:], uint64(mask))
	b = append(b, mb[:]...)
	for _, pos := range f.attrOrder {
		if id := merged[pos]; id != unsetID {
			var ib [4]byte
			binary.LittleEndian.PutUint32(ib[:], id)
			b = append(b, 1)
			b = append(b, ib[:]...)
		} else {
			b = append(b, 0)
		}
	}
	f.keyBuf = b
	return b
}

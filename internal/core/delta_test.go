package core

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/index"
	"mlnclean/internal/rules"
)

// The correctness anchor of incremental re-cleaning: after any mutation
// sequence, the DeltaCleaner's result must be byte-identical to a full
// from-scratch Clean of the same table — tables, duplicates, stats, and the
// piece-weight vector repair attribution reads.

// deltaSeeds mirrors the chaos suites' seed knob so CI's chaos job widens
// the randomized mutation grid with CHAOS_SEEDS; without it the given
// defaults run.
func deltaSeeds(t *testing.T, defaults ...int64) []int64 {
	t.Helper()
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		return defaults
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		n, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, n)
	}
	return seeds
}

// carDirty builds a small seeded dirty CAR table.
func carDirty(t *testing.T, rows int, seed int64) (*dataset.Table, []*rules.Rule) {
	t.Helper()
	truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: rows, Seed: seed})
	if err != nil {
		t.Fatalf("datagen.CAR: %v", err)
	}
	return injectDirty(t, truth, rs, 0.08, seed+1), rs
}

// haiDirty builds a small seeded dirty HAI table: dense (every provider
// reports 14 measures), seven rules including the DC, 10% cell errors.
func haiDirty(t *testing.T, rows int, seed int64) (*dataset.Table, []*rules.Rule) {
	t.Helper()
	const measures = 14
	truth, rs, err := datagen.HAI(datagen.HAIConfig{
		Providers: (rows + measures - 1) / measures, Measures: measures, Rows: rows, Seed: seed,
	})
	if err != nil {
		t.Fatalf("datagen.HAI: %v", err)
	}
	return injectDirty(t, truth, rs, 0.10, seed+1), rs
}

func injectDirty(t *testing.T, truth *dataset.Table, rs []*rules.Rule, rate float64, seed int64) *dataset.Table {
	t.Helper()
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: rate, ReplacementRatio: 0.5, Seed: seed})
	if err != nil {
		t.Fatalf("errgen.Inject: %v", err)
	}
	return inj.Dirty
}

// refTable materializes a reference table from an id → values map in the
// engine's canonical ascending-ID order.
func refTable(schema *dataset.Schema, rows map[int][]string) *dataset.Table {
	ids := make([]int, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ { // insertion sort; tiny n
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	tb := dataset.NewTable(schema)
	for _, id := range ids {
		tb.Tuples = append(tb.Tuples, &dataset.Tuple{
			ID:     id,
			Values: append([]string(nil), rows[id]...),
		})
	}
	return tb
}

func tablesEqual(t *testing.T, label string, got, want *dataset.Table) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: %d tuples, want %d", label, got.Len(), want.Len())
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.ID != w.ID || !reflect.DeepEqual(g.Values, w.Values) {
			t.Fatalf("%s: tuple %d: got ID=%d %v, want ID=%d %v", label, i, g.ID, g.Values, w.ID, w.Values)
		}
	}
}

// weightMap keys summaries by rule and piece identity so ordering (which the
// planner may vary on the full run) is irrelevant.
func weightMap(ss []index.PieceSummary) map[string]string {
	m := make(map[string]string, len(ss))
	for _, s := range ss {
		m[s.RuleID+"\x1f"+s.Key] = fmt.Sprintf("%d/%x", s.Count, s.Weight)
	}
	return m
}

func assertParity(t *testing.T, label string, got *Result, gotW []index.PieceSummary, tb *dataset.Table, rs []*rules.Rule, opts Options) {
	t.Helper()
	want, err := Clean(tb, rs, opts)
	if err != nil {
		t.Fatalf("%s: full clean: %v", label, err)
	}
	tablesEqual(t, label+": repaired", got.Repaired, want.Repaired)
	tablesEqual(t, label+": clean", got.Clean, want.Clean)
	if !reflect.DeepEqual(got.Duplicates, want.Duplicates) {
		t.Fatalf("%s: duplicates: got %v, want %v", label, got.Duplicates, want.Duplicates)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats: got %+v, want %+v", label, got.Stats, want.Stats)
	}
	if gotW != nil {
		gw, ww := weightMap(gotW), weightMap(want.Index.PieceSummaries())
		if !reflect.DeepEqual(gw, ww) {
			t.Fatalf("%s: piece weights diverge:\ngot  %v\nwant %v", label, gw, ww)
		}
	}
}

// TestDeltaLoadParity: seeding the engine is itself a full clean.
func TestDeltaLoadParity(t *testing.T) {
	dirty, rs := carDirty(t, 150, 3)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Load(dirty)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, "load", res, eng.Weights(), dirty, rs, Options{})
}

// assertApply checks one Apply's accounting partitions and its result's
// parity with a full re-clean of the shadow table.
func assertApply(t *testing.T, label string, eng *DeltaCleaner, res *Result, ds *DeltaStats,
	tb *dataset.Table, rs []*rules.Rule, opts Options) {
	t.Helper()
	if ds.DirtyBlocks+ds.ReusedBlocks != len(rs) {
		t.Fatalf("%s: blocks don't partition: %+v", label, ds)
	}
	if ds.RefusedTuples+ds.ReusedTuples != eng.Len() {
		t.Fatalf("%s: tuples don't partition: %+v", label, ds)
	}
	if ds.RevalidatedTuples > ds.ReusedTuples {
		t.Fatalf("%s: more revalidated than reused tuples: %+v", label, ds)
	}
	// The incrementally kept domain sizes match a full scan.
	for p, refs := range eng.valRefs {
		if refs == nil {
			continue
		}
		seen := make(map[uint32]bool)
		for _, row := range eng.encRows {
			seen[row[p]] = true
		}
		if eng.domain[p] != len(seen) {
			t.Fatalf("%s: domain of %s: got %d, want %d", label, eng.schema.Attr(p), eng.domain[p], len(seen))
		}
	}
	assertParity(t, label, res, eng.Weights(), tb, rs, opts)
}

// TestDeltaMutationSequenceParity is the randomized anchor: K seeded
// inserts, updates, and deletes applied incrementally, each checked
// byte-identical against a from-scratch full re-clean of the same table.
// The CAR runs mix random multi-mutation batches over a sparse table; the
// hai runs apply one op at a time to a dense table with many conflicted
// tuples, so re-fusion by read set is exercised op by op.
//
// Among the CAR defaults, seeds 4, 11 and 17 each hold a step where a
// cached fusion goes stale through, in turn, a moved domain size, a
// conflicted tuple's weight move and a changed replacement lookup, so
// dropping any of re-fusion's checks fails the default run.
func TestDeltaMutationSequenceParity(t *testing.T) {
	for _, seed := range deltaSeeds(t, 1, 4, 7, 11, 17) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dirty, rs := carDirty(t, 120, seed)
			schema := dirty.Schema
			eng, err := NewDeltaCleaner(schema, rs, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load(dirty); err != nil {
				t.Fatal(err)
			}

			// Shadow state for the reference full re-clean.
			rows := make(map[int][]string, dirty.Len())
			nextRow := 0
			for _, tp := range dirty.Tuples {
				rows[tp.ID] = append([]string(nil), tp.Values...)
				if tp.ID >= nextRow {
					nextRow = tp.ID + 1
				}
			}
			// Value pool for mutated cells: existing values plus novelties.
			pool := make([]string, 0, 64)
			for _, tp := range dirty.Tuples[:16] {
				pool = append(pool, tp.Values...)
			}

			rng := rand.New(rand.NewSource(seed * 131))
			deleted := []int{}
			// Sorted, so a seed replays the same sequence.
			liveIDs := func() []int {
				ids := make([]int, 0, len(rows))
				for id := range rows {
					ids = append(ids, id)
				}
				slices.Sort(ids)
				return ids
			}
			pick := func(ids []int) int { return ids[rng.Intn(len(ids))] }
			randVals := func(base []string) []string {
				vals := append([]string(nil), base...)
				col := rng.Intn(schema.Len())
				if rng.Intn(4) == 0 {
					vals[col] = fmt.Sprintf("novel-%d", rng.Intn(50))
				} else {
					vals[col] = pool[rng.Intn(len(pool))]
				}
				return vals
			}

			for step := 0; step < 12; step++ {
				// 1–3 mutations per batch, each kind exercised.
				n := 1 + rng.Intn(3)
				muts := make([]Mutation, 0, n)
				for m := 0; m < n; m++ {
					switch k := rng.Intn(4); {
					case k == 0 && len(rows) > n+1: // delete
						id := pick(liveIDs())
						muts = append(muts, Mutation{Op: DeltaDelete, Row: id})
						delete(rows, id)
						deleted = append(deleted, id)
					case k == 1: // insert (sometimes reviving a deleted ID)
						id := nextRow
						if len(deleted) > 0 && rng.Intn(2) == 0 {
							id = deleted[rng.Intn(len(deleted))]
						} else {
							nextRow++
						}
						vals := randVals(rows[pick(liveIDs())])
						muts = append(muts, Mutation{Op: DeltaPut, Row: id, Values: vals})
						rows[id] = append([]string(nil), vals...)
					default: // update
						id := pick(liveIDs())
						vals := randVals(rows[id])
						muts = append(muts, Mutation{Op: DeltaPut, Row: id, Values: vals})
						rows[id] = append([]string(nil), vals...)
					}
				}
				res, ds, err := eng.Apply(muts)
				if err != nil {
					t.Fatalf("step %d: Apply(%v): %v", step, muts, err)
				}
				assertApply(t, fmt.Sprintf("step %d", step), eng, res, ds,
					refTable(schema, rows), rs, Options{})
			}
		})
	}
	t.Run("hai", func(t *testing.T) {
		for _, seed := range deltaSeeds(t, 1, 7) {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { haiMutationSequence(t, seed) })
		}
	})
}

// haiMutationSequence applies single-op batches to ~400 dense HAI rows at
// τ=3: typos that mint new values (moving domain sizes), replacements with
// another row's value, no-op rewrites, inserts and deletes, in a seeded
// order with every kind equally often. Each op is checked against a full
// re-clean.
func haiMutationSequence(t *testing.T, seed int64) {
	dirty, rs := haiDirty(t, 400, seed)
	schema := dirty.Schema
	opts := Options{Tau: 3}
	eng, err := NewDeltaCleaner(schema, rs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(dirty); err != nil {
		t.Fatal(err)
	}
	rows := make(map[int][]string, dirty.Len())
	ids := make([]int, 0, dirty.Len()) // live IDs, any order
	nextRow := 0
	for _, tp := range dirty.Tuples {
		rows[tp.ID] = append([]string(nil), tp.Values...)
		ids = append(ids, tp.ID)
		nextRow = max(nextRow, tp.ID+1)
	}
	var ruleCols []int
	for p := 0; p < schema.Len(); p++ {
		if eng.valRefs[p] != nil {
			ruleCols = append(ruleCols, p)
		}
	}

	const (
		typo = iota
		replace
		rewrite
		insert
		del
		kinds
	)
	rng := rand.New(rand.NewSource(seed * 977))
	order := make([]int, 4*kinds)
	for i := range order {
		order[i] = i % kinds
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

	for step, kind := range order {
		at := rng.Intn(len(ids))
		id := ids[at]
		col := ruleCols[rng.Intn(len(ruleCols))]
		vals := append([]string(nil), rows[id]...)
		m := Mutation{Op: DeltaPut, Row: id, Values: vals}
		switch kind {
		case typo: // drop one letter: a value no row holds yet
			if v := vals[col]; len(v) > 1 {
				i := rng.Intn(len(v))
				vals[col] = v[:i] + v[i+1:]
			} else {
				vals[col] = v + "~"
			}
		case replace:
			vals[col] = rows[ids[rng.Intn(len(ids))]][col]
		case rewrite:
		case insert:
			m.Row = nextRow
			ids = append(ids, nextRow)
			nextRow++
		case del:
			m = Mutation{Op: DeltaDelete, Row: id}
			ids[at] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
		}
		if m.Op == DeltaDelete {
			delete(rows, m.Row)
		} else {
			rows[m.Row] = vals
		}
		res, ds, err := eng.Apply([]Mutation{m})
		if err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		assertApply(t, fmt.Sprintf("step %d (kind %d)", step, kind), eng, res, ds,
			refTable(schema, rows), rs, opts)
	}
}

// TestDeltaReuse pins the point of the tentpole: a single-cell update on an
// attribute only one rule covers rebuilds exactly that rule's block and
// re-fuses only a sliver of the table.
func TestDeltaReuse(t *testing.T) {
	dirty, rs := carDirty(t, 300, 5)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(dirty); err != nil {
		t.Fatal(err)
	}
	// "Model" appears in exactly one CAR rule (FD: Model, Type -> Make).
	modelPos := dirty.Schema.MustIndex("Model")
	vals := append([]string(nil), dirty.Tuples[10].Values...)
	vals[modelPos] = "delta-model"
	_, ds, err := eng.Apply([]Mutation{{Op: DeltaPut, Row: dirty.Tuples[10].ID, Values: vals}})
	if err != nil {
		t.Fatal(err)
	}
	if ds.DirtyBlocks != 1 || ds.ReusedBlocks != len(rs)-1 {
		t.Fatalf("expected exactly one dirty block, got %+v", ds)
	}
	if ds.ReusedTuples == 0 {
		t.Fatalf("expected cached fusion reuse, got %+v", ds)
	}
	if ds.RefusedTuples == 0 {
		t.Fatalf("the mutated tuple itself must re-fuse, got %+v", ds)
	}
}

// TestDeltaRefusionCounts pins how far re-fusion reaches on both fixtures.
// A no-op rewrite rebuilds no block and re-fuses only the rewritten tuple:
// every conflicted tuple is revalidated from its recorded reads. The
// negative control mints a new value in an attribute A, so A's domain size
// moves: every conflicted tuple whose versions cover A must re-fuse, which
// keeps the domain-size check from being skipped silently.
func TestDeltaRefusionCounts(t *testing.T) {
	car, carRules := carDirty(t, 300, 5)
	hai, haiRules := haiDirty(t, 400, 3)
	cases := []struct {
		name  string
		dirty *dataset.Table
		rs    []*rules.Rule
		opts  Options
	}{
		{"car", car, carRules, Options{}},
		{"hai", hai, haiRules, Options{Tau: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := NewDeltaCleaner(tc.dirty.Schema, tc.rs, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Load(tc.dirty); err != nil {
				t.Fatal(err)
			}
			rows := make(map[int][]string, tc.dirty.Len())
			for _, tp := range tc.dirty.Tuples {
				rows[tp.ID] = append([]string(nil), tp.Values...)
			}

			// No-op rewrite of a non-conflicted tuple.
			conflicted := 0
			row := -1
			for _, tp := range tc.dirty.Tuples {
				if eng.fused[tp.ID].conflicted {
					conflicted++
				} else if row < 0 {
					row = tp.ID
				}
			}
			if conflicted == 0 || row < 0 {
				t.Fatalf("fixture needs conflicted and non-conflicted tuples: %d conflicted, clean row %d", conflicted, row)
			}
			res, ds, err := eng.Apply([]Mutation{{Op: DeltaPut, Row: row, Values: rows[row]}})
			if err != nil {
				t.Fatal(err)
			}
			if ds.DirtyBlocks != 0 || ds.RefusedTuples != 1 || ds.RevalidatedTuples != conflicted {
				t.Fatalf("no-op rewrite: got %+v, want 0 dirty blocks, 1 re-fused and %d revalidated tuples",
					ds, conflicted)
			}
			assertApply(t, "rewrite", eng, res, ds, refTable(tc.dirty.Schema, rows), tc.rs, tc.opts)

			// Negative control: A is the rule attribute the most conflicted
			// tuples cover; the typo lands on a row whose A value another row
			// shares, so the new value grows A's domain by one.
			covers := func(id, p int) bool {
				for bi, fb := range eng.fbs {
					if _, ok := fb.Versions[id]; ok && slices.Contains(eng.posPerBlock[bi], p) {
						return true
					}
				}
				return false
			}
			attr, best := -1, 0
			for p, refs := range eng.valRefs {
				if refs == nil {
					continue
				}
				n := 0
				for id, ts := range eng.fused {
					if ts.conflicted && covers(id, p) {
						n++
					}
				}
				if n > best {
					attr, best = p, n
				}
			}
			target := -1
			for _, tp := range tc.dirty.Tuples {
				if eng.valRefs[attr][eng.encRows[eng.rowPos[tp.ID]][attr]] > 1 {
					target = tp.ID
					break
				}
			}
			if attr < 0 || target < 0 {
				t.Fatalf("no attribute with conflicted coverage and a shared value")
			}
			before := make(map[int]*tupleState)
			for id, ts := range eng.fused {
				if ts.conflicted && covers(id, attr) {
					before[id] = ts
				}
			}
			domain := eng.domain[attr]
			vals := append([]string(nil), rows[target]...)
			vals[attr] = "delta-typo-" + vals[attr]
			rows[target] = vals
			res, ds, err = eng.Apply([]Mutation{{Op: DeltaPut, Row: target, Values: vals}})
			if err != nil {
				t.Fatal(err)
			}
			if eng.domain[attr] != domain+1 {
				t.Fatalf("domain of %s: got %d, want %d", tc.dirty.Schema.Attr(attr), eng.domain[attr], domain+1)
			}
			for id, ts := range before {
				if eng.fused[id] == ts {
					t.Fatalf("conflicted tuple %d covers %s but kept its fusion after the domain moved",
						id, tc.dirty.Schema.Attr(attr))
				}
			}
			if ds.RefusedTuples < len(before) {
				t.Fatalf("typo: %d re-fused tuples, want at least the %d covering conflicted ones", ds.RefusedTuples, len(before))
			}
			assertApply(t, "typo", eng, res, ds, refTable(tc.dirty.Schema, rows), tc.rs, tc.opts)
		})
	}
}

// TestDeltaValidation: bad batches are rejected atomically, before any state
// changes.
func TestDeltaValidation(t *testing.T) {
	dirty, rs := carDirty(t, 40, 9)
	eng, err := NewDeltaCleaner(dirty.Schema, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Load(dirty); err != nil {
		t.Fatal(err)
	}
	wide := make([]string, dirty.Schema.Len()+1)
	cases := []struct {
		name string
		muts []Mutation
	}{
		{"empty", nil},
		{"arity", []Mutation{{Op: DeltaPut, Row: 0, Values: wide}}},
		{"negative-row", []Mutation{{Op: DeltaPut, Row: -1, Values: dirty.Tuples[0].Values}}},
		{"delete-unknown", []Mutation{{Op: DeltaDelete, Row: 99999}}},
		{"delete-reinserted-then-unknown", []Mutation{
			{Op: DeltaDelete, Row: dirty.Tuples[0].ID},
			{Op: DeltaDelete, Row: dirty.Tuples[0].ID},
		}},
	}
	for _, tc := range cases {
		if _, _, err := eng.Apply(tc.muts); err == nil {
			t.Errorf("%s: Apply accepted a bad batch", tc.name)
		}
	}
	// Emptying the table is refused even across a mixed batch.
	var all []Mutation
	for _, tp := range dirty.Tuples {
		all = append(all, Mutation{Op: DeltaDelete, Row: tp.ID})
	}
	if _, _, err := eng.Apply(all); err == nil {
		t.Error("Apply drained the table")
	}
	// State unchanged: a no-op-equivalent re-clean still matches.
	if eng.Len() != dirty.Len() {
		t.Fatalf("failed batches mutated state: %d tuples, want %d", eng.Len(), dirty.Len())
	}
}

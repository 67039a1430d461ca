package index

import (
	"testing"

	"mlnclean/internal/dataset"
	"mlnclean/internal/plan"
)

// TestIteratorMatchesBuild: draining a BlockIterator yields byte-for-byte
// the index BuildConfigured produces, and each block it yields equals the
// fixed declared-order scan of its rule.
func TestIteratorMatchesBuild(t *testing.T) {
	rs := plannedRules(t)
	built, err := BuildConfigured(plannedTable(t), rs, BuildConfig{})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tb := plannedTable(t)
	it, err := NewBlockIterator(tb, rs, BuildConfig{})
	if err != nil {
		t.Fatalf("iterator: %v", err)
	}
	if it.Len() != len(rs) {
		t.Fatalf("Len = %d, want %d", it.Len(), len(rs))
	}
	n := 0
	for {
		bi, b, ok := it.Next()
		if !ok {
			break
		}
		if bi != n {
			t.Fatalf("block index %d out of order (want %d)", bi, n)
		}
		if b.Rule.ID != rs[n].ID {
			t.Fatalf("block %d rule %s, want %s", bi, b.Rule.ID, rs[n].ID)
		}
		want := dumpBlocks([]*Block{fixedOrderBlock(tb, rs[bi])})
		if got := dumpBlocks([]*Block{b}); got != want {
			t.Errorf("block %d (%s scan) differs from the fixed-order scan:\n--- fixed ---\n%s--- iterated ---\n%s",
				bi, it.Index().Plan().Rules[bi].Scan, want, got)
		}
		n++
	}
	if n != len(rs) {
		t.Fatalf("iterator yielded %d blocks, want %d", n, len(rs))
	}
	if _, _, ok := it.Next(); ok {
		t.Fatal("Next after exhaustion must report done")
	}
	if di, db := dumpIndex(it.Index()), dumpIndex(built); di != db {
		t.Errorf("iterated index differs from built:\n--- built ---\n%s--- iterated ---\n%s", db, di)
	}
}

// TestIteratorReleasesPostings: once no remaining rule scans a column via
// postings, its list is dropped — the pushdown scan state shrinks as blocks
// are yielded instead of persisting until the last rule.
func TestIteratorReleasesPostings(t *testing.T) {
	rs := plannedRules(t)
	it, err := NewBlockIterator(plannedTable(t), rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := it.Index().Plan()
	// plannedRules plan: rule 0 pivot-joins, rule 1 posting-unions, rule 2
	// full-scans — so after rule 1 every posting list must be gone.
	if p.Rules[0].Scan != plan.PivotJoin || p.Rules[1].Scan != plan.PostingUnion {
		t.Skipf("plan shapes changed (%v, %v); release assertion not applicable",
			p.Rules[0].Scan, p.Rules[1].Scan)
	}
	it.Next() // rule 0: builds + releases the pivot column
	for pos, c := range it.post.cols {
		if c != nil && it.colUses[pos] <= 0 {
			t.Errorf("column %d postings retained with no remaining uses", pos)
		}
	}
	it.Next() // rule 1: releases the constant columns
	for pos, c := range it.post.cols {
		if c != nil {
			t.Errorf("column %d postings retained after the last postings-scanning rule", pos)
		}
	}
	it.Next()
	if _, _, ok := it.Next(); ok {
		t.Fatal("iterator should be exhausted")
	}
}

// TestIteratorAdoptsEncoded: a pre-encoded companion (the streaming ingest
// path) is adopted verbatim — same dictionary, same rows — and a misaligned
// one is rejected.
func TestIteratorAdoptsEncoded(t *testing.T) {
	rs := plannedRules(t)
	tb := plannedTable(t)
	enc := dataset.Encode(tb, nil)
	ix, err := BuildConfigured(tb, rs, BuildConfig{Encoded: enc})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Encoded() != enc || ix.Dict() != enc.Dict {
		t.Fatal("index must adopt the supplied encoding")
	}
	fresh, err := BuildConfigured(tb, rs, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if da, db := dumpIndex(ix), dumpIndex(fresh); da != db {
		t.Errorf("pre-encoded build differs from fresh build:\n%s\nvs\n%s", da, db)
	}

	short := &dataset.Encoded{Dict: enc.Dict, Rows: enc.Rows[:len(enc.Rows)-1]}
	if _, err := BuildConfigured(tb, rs, BuildConfig{Encoded: short}); err == nil {
		t.Fatal("misaligned encoding must be rejected")
	}
}

package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"mlnclean/internal/dataset"
	"mlnclean/internal/plan"
	"mlnclean/internal/rules"
)

// dumpIndex renders an index's observable structure — block, group, and
// piece order, decoded identities, and supporting tuples — so two builds
// can be compared byte-for-byte. The raw hash-consed IDs are deliberately
// omitted: they are minted in first-encounter order and so legitimately
// differ between scan orders, while everything the pipeline's output
// depends on (decoded values, group/piece order, tuple membership) must
// not.
func dumpIndex(ix *Index) string { return dumpBlocks(ix.Blocks) }

// dumpBlocks is dumpIndex over a bare block list.
func dumpBlocks(bs []*Block) string {
	var sb strings.Builder
	for bi, b := range bs {
		fmt.Fprintf(&sb, "block %d rule %s\n", bi, b.Rule.ID)
		for gi, g := range b.Groups {
			fmt.Fprintf(&sb, "  group %d key=%q\n", gi, g.Key)
			for pi, p := range g.Pieces {
				fmt.Fprintf(&sb, "    piece %d key=%q tuples=%v\n", pi, p.Key(), p.TupleIDs)
			}
		}
	}
	return sb.String()
}

// fixedOrderBlock builds rule r's block by the fixed declared-order row scan
// (BuildBlockFor, the scan the delta engine rebuilds dirty blocks with) over
// a fresh encoding of tb: the reference every planned block must equal.
func fixedOrderBlock(tb *dataset.Table, r *rules.Rule) *Block {
	return BuildBlockFor(tb, dataset.Encode(tb, nil), r)
}

// plannedRules exercises all three scan shapes: a multi-attribute FD the
// planner pivots, a CFD with a rare constant it turns into a posting union,
// and a single-attribute FD that stays a full scan.
func plannedRules(t *testing.T) []*rules.Rule {
	t.Helper()
	return rules.MustParseStrings(
		"FD: CT, PN -> ST",
		"CFD: HN=ELIZA, CT -> PN",
		"FD: CT -> ST",
	)
}

// plannedTable generates a table wide enough that the pivot gate engages:
// PN is near-unique, CT has a handful of values, HN=ELIZA is rare.
func plannedTable(t *testing.T) *dataset.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tb := dataset.NewTable(dataset.MustSchema("HN", "CT", "ST", "PN"))
	cities := []string{"DOTHAN", "BOAZ", "MOBILE", "AUBURN"}
	for i := 0; i < 120; i++ {
		hn := "OTHER"
		if i%40 == 0 {
			hn = "ELIZA"
		}
		ct := cities[rng.Intn(len(cities))]
		st := "AL"
		if rng.Intn(10) == 0 {
			st = "AK"
		}
		pn := fmt.Sprintf("33479%05d", rng.Intn(90)) // duplicates exist
		tb.MustAppend(hn, ct, st, pn)
	}
	return tb
}

// TestPlannedBuildEquivalence is the planner's core guarantee: a planned
// build produces byte-for-byte the same index — same block, group, and
// piece order, same identities, same supporting tuples — as the fixed
// declared-order scan of every rule. Selectivity changes how the work is
// done, never its outcome.
func TestPlannedBuildEquivalence(t *testing.T) {
	rs := plannedRules(t)
	tb := plannedTable(t)
	planned, err := BuildConfigured(tb, rs, BuildConfig{})
	if err != nil {
		t.Fatalf("planned build: %v", err)
	}

	p := planned.Plan()
	if p == nil {
		t.Fatal("planned build must carry its plan")
	}
	kinds := make([]string, len(p.Rules))
	for i := range p.Rules {
		kinds[i] = p.Rules[i].Scan.String()
	}
	want := []string{plan.PivotJoin.String(), plan.PostingUnion.String(), plan.FullScan.String()}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("rule %d scan = %s, want %s (%s)", i, kinds[i], want[i], p.Rules[i].Why)
		}
	}

	fixed := make([]*Block, len(rs))
	for i, r := range rs {
		fixed[i] = fixedOrderBlock(tb, r)
	}
	if df, dp := dumpBlocks(fixed), dumpIndex(planned); df != dp {
		t.Errorf("planned index differs from fixed-order blocks:\n--- fixed ---\n%s--- planned ---\n%s", df, dp)
	}
}

// TestBlockOrderIsPlanOrder: stage I schedules an index's blocks in its
// plan's heaviest-first order, a permutation of the blocks.
func TestBlockOrderIsPlanOrder(t *testing.T) {
	planned, err := BuildConfigured(plannedTable(t), plannedRules(t), BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	order := planned.BlockOrder()
	if want := planned.Plan().BlockOrder(); !reflect.DeepEqual(order, want) {
		t.Fatalf("BlockOrder = %v, want the plan's %v", order, want)
	}
	seen := make(map[int]bool)
	for _, bi := range order {
		seen[bi] = true
	}
	if len(order) != len(planned.Blocks) || len(seen) != len(planned.Blocks) {
		t.Fatalf("BlockOrder %v is not a permutation of %d blocks", order, len(planned.Blocks))
	}
}

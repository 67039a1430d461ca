package core

// Randomized parity suite for the dictionary-encoding refactor: the goldens
// in testdata/parity_golden.json were captured from the pre-refactor,
// string-keyed pipeline (PR 3 state) and pin its exact repairs, Stats, and
// Trace on generated tables — including multi-rune/UTF-8 values — across
// metrics, τ values, and AGP strategies. The interned pipeline must stay
// byte-identical. Regenerate with
//
//	go test ./internal/core -run TestParityGolden -update
//
// only when an intentional semantic change is being made, and say so in the
// commit message.

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/rules"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/parity_golden.json from the current pipeline")

// parityValuePool mixes ASCII, accented, and multi-byte scripts so rune
// handling (distance, typo corruption, key encoding) is exercised end to end.
var parityCityPool = []string{
	"birmingham", "boaz", "dothan", "münchen", "köln", "東京都",
	"нижний", "ελλάδα", "saint-étienne", "b'ham city", "ВОАЗ", "naïve-ville",
}

var parityNotePool = []string{
	"ok", "checked", "再確認", "überprüft", "n/a", "—", "pending", "vérifié",
}

type parityConfig struct {
	Name     string
	Seed     int64
	Rows     int
	Rate     float64
	Metric   string
	Tau      int
	Strategy AGPStrategy
}

func parityConfigs() []parityConfig {
	return []parityConfig{
		{Name: "lev-tau1", Seed: 11, Rows: 180, Rate: 0.12, Metric: "levenshtein", Tau: 1},
		{Name: "lev-tau2", Seed: 12, Rows: 220, Rate: 0.18, Metric: "levenshtein", Tau: 2},
		{Name: "lev-biased", Seed: 13, Rows: 200, Rate: 0.15, Metric: "levenshtein", Tau: 2, Strategy: AGPSupportBiased},
		{Name: "cos-tau1", Seed: 14, Rows: 180, Rate: 0.12, Metric: "cosine", Tau: 1},
		{Name: "cos-tau2", Seed: 15, Rows: 240, Rate: 0.20, Metric: "cosine", Tau: 2},
		{Name: "lev-dense", Seed: 16, Rows: 300, Rate: 0.25, Metric: "levenshtein", Tau: 1},
	}
}

// parityRules returns the constraint set over the generated schema: an FD, a
// two-attribute FD, a constant CFD, and a DC.
func parityRules(cfdCity string) []*rules.Rule {
	return []*rules.Rule{
		rules.MustNew("r1", rules.FD,
			[]rules.Pattern{{Attr: "City"}}, []rules.Pattern{{Attr: "State"}}),
		rules.MustNew("r2", rules.FD,
			[]rules.Pattern{{Attr: "City"}, {Attr: "State"}}, []rules.Pattern{{Attr: "Zip"}}),
		rules.MustNew("r3", rules.CFD,
			[]rules.Pattern{{Attr: "City", Const: cfdCity}}, []rules.Pattern{{Attr: "Phone"}}),
		rules.MustNew("r4", rules.DC,
			[]rules.Pattern{{Attr: "Phone", Op: "="}}, []rules.Pattern{{Attr: "Zip", Op: "!="}}),
	}
}

// parityTable generates a dirty table: a functional ground truth over the
// city pool, then cell corruption at the given rate (half typos on a random
// rune, half replacements drawn from the attribute's domain).
func parityTable(cfg parityConfig) *dataset.Table {
	rng := rand.New(rand.NewSource(cfg.Seed))
	schema := dataset.MustSchema("City", "State", "Phone", "Zip", "Note")
	states := []string{"AL", "BY", "île-de", "Αττική", "幸区"}
	stateOf := make(map[string]string)
	zipOf := make(map[string]string)
	phoneOf := make(map[string]string)
	for i, c := range parityCityPool {
		stateOf[c] = states[i%len(states)]
		zipOf[c] = fmt.Sprintf("%05d", 35000+i*7)
		phoneOf[c] = fmt.Sprintf("25676%05d", 88400+i*13)
	}
	tb := dataset.NewTable(schema)
	for i := 0; i < cfg.Rows; i++ {
		city := parityCityPool[rng.Intn(len(parityCityPool))]
		tb.MustAppend(city, stateOf[city], phoneOf[city], zipOf[city],
			parityNotePool[rng.Intn(len(parityNotePool))])
	}
	// Corrupt rule-covered cells only (Note is free text).
	attrs := []string{"City", "State", "Phone", "Zip"}
	domains := make(map[string][]string)
	for _, a := range attrs {
		domains[a] = tb.Domain(a)
	}
	nErr := int(float64(tb.Len()*len(attrs)) * cfg.Rate / float64(len(attrs)))
	for e := 0; e < nErr; e++ {
		t := tb.Tuples[rng.Intn(tb.Len())]
		attr := attrs[rng.Intn(len(attrs))]
		pos := schema.MustIndex(attr)
		if rng.Intn(2) == 0 {
			t.Values[pos] = typo(rng, t.Values[pos])
		} else {
			dom := domains[attr]
			t.Values[pos] = dom[rng.Intn(len(dom))]
		}
	}
	return tb
}

// typo mutates one random rune: substitution, deletion, or duplication.
func typo(rng *rand.Rand, s string) string {
	r := []rune(s)
	if len(r) == 0 {
		return "x"
	}
	i := rng.Intn(len(r))
	switch rng.Intn(3) {
	case 0:
		r[i] = rune('a' + rng.Intn(26))
		return string(r)
	case 1:
		return string(append(r[:i:i], r[i+1:]...))
	default:
		out := append(r[:i+1:i+1], r[i:]...)
		return string(out)
	}
}

// parityGolden is the serialized outcome of one configuration.
type parityGolden struct {
	Name       string
	Repaired   [][]string
	CleanIDs   []int
	Clean      [][]string
	Duplicates [][]int
	Stats      Stats
	AGP        []AGPMerge
	RSC        []RSCRepair
	FSCR       []FusionOutcome
}

// parityOptions returns the pipeline options of one configuration, with a
// fresh Trace attached.
func parityOptions(cfg parityConfig) (Options, *Trace) {
	tr := &Trace{}
	return Options{
		Tau:         cfg.Tau,
		TauSet:      true,
		Metric:      distance.ByName(cfg.Metric),
		AGPStrategy: cfg.Strategy,
		Trace:       tr,
	}, tr
}

// runParityCase executes the pipeline for one configuration and
// canonicalizes its outcome.
func runParityCase(t *testing.T, cfg parityConfig) parityGolden {
	t.Helper()
	opts, tr := parityOptions(cfg)
	res, err := Clean(parityTable(cfg), parityRules(parityCityPool[0]), opts)
	if err != nil {
		t.Fatalf("%s: Clean: %v", cfg.Name, err)
	}
	return parityOutcome(cfg.Name, res, tr)
}

// parityOutcome serializes a run and canonicalizes its trace (block-parallel
// stages append in nondeterministic order; sorting by stable per-phase
// identities restores a canonical view).
func parityOutcome(name string, res *Result, tr *Trace) parityGolden {
	g := parityGolden{Name: name, Stats: res.Stats, Duplicates: res.Duplicates}
	for _, tp := range res.Repaired.Tuples {
		g.Repaired = append(g.Repaired, append([]string(nil), tp.Values...))
	}
	for _, tp := range res.Clean.Tuples {
		g.CleanIDs = append(g.CleanIDs, tp.ID)
		g.Clean = append(g.Clean, append([]string(nil), tp.Values...))
	}
	g.AGP = append(g.AGP, tr.AGP...)
	sort.SliceStable(g.AGP, func(i, j int) bool {
		if g.AGP[i].BlockIndex != g.AGP[j].BlockIndex {
			return g.AGP[i].BlockIndex < g.AGP[j].BlockIndex
		}
		return g.AGP[i].SourceKey < g.AGP[j].SourceKey
	})
	g.RSC = append(g.RSC, tr.RSC...)
	sort.SliceStable(g.RSC, func(i, j int) bool {
		if g.RSC[i].BlockIndex != g.RSC[j].BlockIndex {
			return g.RSC[i].BlockIndex < g.RSC[j].BlockIndex
		}
		return g.RSC[i].GroupKey < g.RSC[j].GroupKey
	})
	g.FSCR = append(g.FSCR, tr.FSCR...)
	sort.SliceStable(g.FSCR, func(i, j int) bool { return g.FSCR[i].TupleID < g.FSCR[j].TupleID })
	return g
}

const parityGoldenPath = "testdata/parity_golden.json"

// TestParityGolden pins the pipeline's exact behavior against the committed
// pre-refactor goldens: repairs, dedup, Stats, and the full per-phase Trace
// must be byte-identical for every configuration.
func TestParityGolden(t *testing.T) {
	var got []parityGolden
	for _, cfg := range parityConfigs() {
		got = append(got, runParityCase(t, cfg))
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(parityGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(parityGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", parityGoldenPath, len(got))
		return
	}
	raw, err := os.ReadFile(parityGoldenPath)
	if err != nil {
		t.Fatalf("missing goldens (run with -update to regenerate): %v", err)
	}
	var want []parityGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d cases, run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Name != got[i].Name {
			t.Fatalf("case %d: name %q vs golden %q", i, got[i].Name, want[i].Name)
		}
		compareParity(t, want[i].Name, got[i], want[i])
	}
}

// compareParity reports every way two serialized runs differ: Stats, rows,
// clean tuple IDs, duplicate sets, and the AGP/RSC/FSCR trace.
func compareParity(t *testing.T, label string, got, want parityGolden) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: Stats diverged:\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	compareRows(t, label+"/Repaired", got.Repaired, want.Repaired)
	compareRows(t, label+"/Clean", got.Clean, want.Clean)
	if !reflect.DeepEqual(want.CleanIDs, got.CleanIDs) {
		t.Errorf("%s: clean tuple IDs diverged", label)
	}
	if !reflect.DeepEqual(want.Duplicates, got.Duplicates) {
		t.Errorf("%s: duplicate sets diverged:\n got %v\nwant %v", label, got.Duplicates, want.Duplicates)
	}
	if !reflect.DeepEqual(want.AGP, got.AGP) {
		t.Errorf("%s: AGP trace diverged:\n got %+v\nwant %+v", label, got.AGP, want.AGP)
	}
	if !reflect.DeepEqual(want.RSC, got.RSC) {
		t.Errorf("%s: RSC trace diverged:\n got %+v\nwant %+v", label, got.RSC, want.RSC)
	}
	if !reflect.DeepEqual(want.FSCR, got.FSCR) {
		t.Errorf("%s: FSCR trace diverged (%d vs %d outcomes)", label, len(got.FSCR), len(want.FSCR))
	}
}

func compareRows(t *testing.T, label string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d rows, want %d", label, len(got), len(want))
		return
	}
	diffs := 0
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			if diffs < 5 {
				t.Errorf("%s: row %d = %v, want %v", label, i, got[i], want[i])
			}
			diffs++
		}
	}
	if diffs > 5 {
		t.Errorf("%s: …and %d more row diffs", label, diffs-5)
	}
}

// Command benchdiff compares two benchrunner -json documents and flags
// experiments whose elapsed time or peak heap regressed beyond a threshold.
// CI runs it against the committed BENCH_PR10.json baseline:
//
//	benchdiff -baseline BENCH_PR10.json -current BENCH_new.json [-fail-over 0.30]
//
// Output is one line per experiment; regressions beyond the threshold print
// as GitHub Actions ::warning:: annotations. Two modes:
//
//   - advisory (default, and what CI uses on pushes): always exit 0 —
//     wall-clock on shared runners is noisy, and the committed baseline is a
//     trajectory record, not a contract.
//   - gating (-fail-over R, what CI uses on pull requests): set the
//     threshold to R and exit non-zero when any experiment regressed beyond
//     it, failing the PR's bench-smoke job. -fail-over 0 disables the gate
//     (the CI override knob — see the README's CI section).
//
// Advisory runs warn beyond a fixed 30%. The memory comparison uses the
// same threshold but its own noise floor (-min-heap): peak heap is far more
// stable than wall-clock, but tiny experiments sit close to the GC floor
// where ratios are meaningless. Baselines written before memory annotation
// (no peak_heap_bytes) simply skip the memory check per experiment.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// doc mirrors cmd/benchrunner's jsonDoc, reading only what the diff needs.
type doc struct {
	Scale   string `json:"scale"`
	Reports []struct {
		Name          string `json:"Name"`
		ElapsedMS     int64  `json:"elapsed_ms"`
		PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	} `json:"reports"`
}

// sample is one experiment's measurements from one document.
type sample struct {
	elapsedMS int64
	peakHeap  uint64 // 0 = pre-memory-annotation baseline, skip the check
}

func load(path string) (map[string]sample, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", err
	}
	var d doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, "", fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]sample, len(d.Reports))
	for _, r := range d.Reports {
		out[r.Name] = sample{elapsedMS: r.ElapsedMS, peakHeap: r.PeakHeapBytes}
	}
	return out, d.Scale, nil
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// advisoryThreshold is the warning ratio when no -fail-over gate is set.
const advisoryThreshold = 0.30

func main() {
	var (
		baseline = flag.String("baseline", "BENCH_PR10.json", "committed baseline document")
		current  = flag.String("current", "", "freshly generated document")
		minMS    = flag.Int64("min-ms", 50, "ignore elapsed-time changes on experiments faster than this in the baseline (noise)")
		minHeap  = flag.Int64("min-heap", 8<<20, "ignore peak-heap changes on experiments below this many bytes in the baseline (GC floor)")
		failOver = flag.Float64("fail-over", 0, "gate mode: exit 1 when any experiment regressed beyond this ratio (0 disables the gate and warns beyond 30%)")
	)
	flag.Parse()
	threshold := advisoryThreshold
	fail := *failOver > 0
	if fail {
		threshold = *failOver
	}
	if *current == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -current is required")
		os.Exit(2)
	}
	base, baseScale, err := load(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, curScale, err := load(*current)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	if baseScale != curScale {
		fmt.Printf("::warning::benchdiff comparing different scales: baseline %q vs current %q\n", baseScale, curScale)
	}
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	regressions := 0
	for _, name := range names {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Printf("::warning::benchdiff: experiment %s missing from current run\n", name)
			continue
		}
		ratio := 0.0
		if b.elapsedMS > 0 {
			ratio = float64(c.elapsedMS-b.elapsedMS) / float64(b.elapsedMS)
		}
		status := "ok"
		if b.elapsedMS >= *minMS && ratio > threshold {
			status = "REGRESSED"
			regressions++
			fmt.Printf("::warning::bench regression: %s %dms → %dms (%+.0f%%, threshold %.0f%%)\n",
				name, b.elapsedMS, c.elapsedMS, ratio*100, threshold*100)
		}
		memCol := "      (no mem baseline)"
		if b.peakHeap > 0 && c.peakHeap > 0 {
			memRatio := float64(int64(c.peakHeap)-int64(b.peakHeap)) / float64(b.peakHeap)
			memStatus := ""
			if b.peakHeap >= uint64(*minHeap) && memRatio > threshold {
				memStatus = "  MEM-REGRESSED"
				regressions++
				fmt.Printf("::warning::bench memory regression: %s %.1fMiB → %.1fMiB peak heap (%+.0f%%, threshold %.0f%%)\n",
					name, mib(b.peakHeap), mib(c.peakHeap), memRatio*100, threshold*100)
			}
			memCol = fmt.Sprintf("%6.1fMiB → %6.1fMiB  %+6.1f%%%s", mib(b.peakHeap), mib(c.peakHeap), memRatio*100, memStatus)
		}
		fmt.Printf("%-24s %6dms → %6dms  %+6.1f%%  %-10s %s\n",
			name, b.elapsedMS, c.elapsedMS, ratio*100, status, memCol)
	}
	var missing []string
	for name := range cur {
		if _, ok := base[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Printf("%-24s new experiment (%dms, %.1fMiB peak), not in baseline\n",
			name, cur[name].elapsedMS, mib(cur[name].peakHeap))
	}
	fmt.Printf("benchdiff: %d regression(s) across %d experiments beyond %.0f%%\n", regressions, len(names), threshold*100)
	if fail && regressions > 0 {
		fmt.Printf("::error::benchdiff gate: %d regression(s) beyond %.0f%%\n", regressions, threshold*100)
		os.Exit(1)
	}
}

// Command mlnclean cleans a CSV dataset against a rule file using the
// MLNClean two-stage pipeline.
//
// Usage:
//
//	mlnclean -input dirty.csv -rules rules.txt -output clean.csv [flags]
//
// With -workers N (N > 1) the distributed executor of §6 cleans the table
// on a concurrent worker pool: the online (streaming) relaxation of
// Algorithm 3 partitioning, per-worker cleaning with the Eq. 6 weight
// merge, and a global gather. -transport selects how coordinator and
// workers exchange messages (chan: in-process channels; gob: every message
// round-trips through its serialized wire form; http: the gob framing over
// a real loopback HTTP listener).
//
// The rule file holds one constraint per line (see internal/rules):
//
//	FD:  ZIPCode -> City
//	CFD: Make=acura, Type -> Doors
//	DC:  not(PhoneNumber(t)=PhoneNumber(t') and State(t)!=State(t'))
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/distributed"
	"mlnclean/internal/rules"
)

// runConfig carries the CLI flags into run.
type runConfig struct {
	input, rulesPath, output string
	tau                      int
	metricName               string
	keepDups                 bool
	verbose                  bool
	workers                  int
	transport                string
	batchSize                int
	seed                     int64
	showPlan                 bool
}

func main() {
	var cfg runConfig
	flag.StringVar(&cfg.input, "input", "", "dirty CSV file (required)")
	flag.StringVar(&cfg.rulesPath, "rules", "", "rule file, one constraint per line (required)")
	flag.StringVar(&cfg.output, "output", "", "cleaned CSV file (default stdout)")
	flag.IntVar(&cfg.tau, "tau", 1, "AGP abnormal-group threshold τ")
	flag.StringVar(&cfg.metricName, "metric", "levenshtein", "distance metric: levenshtein|cosine")
	flag.BoolVar(&cfg.keepDups, "keep-duplicates", false, "skip duplicate elimination")
	flag.BoolVar(&cfg.verbose, "v", false, "print pipeline statistics to stderr")
	flag.IntVar(&cfg.workers, "workers", 1, "worker count; > 1 runs the distributed executor (§6)")
	flag.StringVar(&cfg.transport, "transport", "chan", "distributed transport: chan|gob|http")
	flag.IntVar(&cfg.batchSize, "batch", 1024, "tuples per distributed partition shipment")
	flag.Int64Var(&cfg.seed, "seed", 1, "partition centroid seed (distributed only)")
	flag.BoolVar(&cfg.showPlan, "show-plan", false, "print the rule planner's per-rule scan choices to stderr")
	flag.Parse()
	if cfg.input == "" || cfg.rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mlnclean:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	rf, err := os.Open(cfg.rulesPath)
	if err != nil {
		return err
	}
	rs, err := rules.ParseList(rf)
	rf.Close()
	if err != nil {
		return err
	}
	coreOpts := core.Options{
		Tau:            cfg.tau,
		Metric:         distance.ByName(cfg.metricName),
		KeepDuplicates: cfg.keepDups,
	}
	start := time.Now()
	var (
		clean *dataset.Table
		stats core.Stats
	)
	if cfg.workers > 1 {
		factory, err := distributed.TransportByName(cfg.transport)
		if err != nil {
			return err
		}
		dopts := distributed.Options{
			Workers:   cfg.workers,
			Seed:      cfg.seed,
			Core:      coreOpts,
			Transport: factory,
			BatchSize: cfg.batchSize,
		}
		// Stream the CSV straight into the executor's online partitioner;
		// the raw table is never materialized here.
		stream, err := dataset.StreamCSVFile(cfg.input)
		if err != nil {
			return err
		}
		res, err := distributed.CleanStream(context.Background(), stream, rs, dopts)
		if err != nil {
			return err
		}
		clean = res.Clean
		stats = res.Stats
		printPlan(cfg, res.Plan)
		if cfg.verbose {
			fmt.Fprintf(os.Stderr, "distributed: %d workers (%s transport), parts=%v, wall=%v, modeled cluster=%v\n",
				res.Workers, cfg.transport, res.PartSizes,
				res.WallTime.Round(time.Millisecond), res.ClusterTime().Round(time.Millisecond))
		}
	} else {
		// Chunked CSV→Encode ingest (one pass, values interned while
		// parsing), then the streaming stage-I pipeline.
		stream, err := dataset.StreamCSVFile(cfg.input)
		if err != nil {
			return err
		}
		dirty, enc, err := dataset.EncodeStream(stream, nil)
		if err != nil {
			return err
		}
		res, err := core.CleanEncoded(context.Background(), dirty, enc, rs, coreOpts)
		if err != nil {
			return err
		}
		clean = res.Clean
		stats = res.Stats
		lines := make([]string, 0, len(res.Index.Plan().Choices()))
		for _, c := range res.Index.Plan().Choices() {
			lines = append(lines, c.String())
		}
		printPlan(cfg, lines)
	}
	if cfg.verbose {
		fmt.Fprintf(os.Stderr, "cleaned %d tuples with %d rules in %v\n", stats.Tuples, len(rs), time.Since(start).Round(time.Millisecond))
		fmt.Fprintf(os.Stderr, "blocks=%d groups=%d abnormal=%d rsc-repairs=%d fscr-changes=%d duplicates-removed=%d\n",
			stats.Blocks, stats.Groups, stats.AbnormalGroups,
			stats.RSCRepairs, stats.FSCRCellChanges, stats.DuplicatesRemoved)
	}
	if cfg.output == "" {
		return clean.WriteCSV(os.Stdout)
	}
	return clean.WriteCSVFile(cfg.output)
}

// printPlan dumps the rule planner's per-rule scan choices — why each rule's
// evaluation was ordered the way it was — when asked for.
func printPlan(cfg runConfig, lines []string) {
	if !cfg.showPlan {
		return
	}
	for _, l := range lines {
		fmt.Fprintf(os.Stderr, "plan: %s\n", l)
	}
}

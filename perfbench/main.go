// Command perfbench is the repository's benchmark: one seeded,
// single-process program that runs a workload through the two paths a user
// hits — the streaming batch clean mlnclean runs on a CSV, and an HTTP
// session that streams rows, cleans, and is then mutated tuple by tuple
// while earlier result versions are read back — checks every output, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics
// from a traced run) as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench --workload car --seed 1 --seconds 20 --trace 0
//
// run.sh builds and runs it from a checkout's root. Inputs are generated
// from --seed before any timing starts; the program under test sees only
// CSV bytes, HTTP requests, and the public calls timed in traced mode.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// workloads are the benchmark's inputs. Both run the same two paths over a
// different kind of data, so every metric is measured on each.
var workloads = map[string]workload{
	// CAR is sparse (long-tail models, 3 rules): AGP is about half of a
	// batch clean, and a mutation re-cleans small groups cheaply, so the
	// HTTP, WAL and tuple-store share of a request shows.
	"car": {name: "car", gen: genCAR, batchRows: 20000, serveRows: 5000, tau: 1, mutations: 40},
	// HAI is dense (every provider reports every measure, 7 rules incl. a
	// DC): FSCR is the largest layer of a batch clean, and a mutation
	// re-cleans large groups, so the delta engine dominates a request.
	"hai": {name: "hai", gen: genHAI, batchRows: 6000, serveRows: 1500, tau: 3, mutations: 40},
}

// batchShare is the share of --seconds spent measuring the batch path; the
// session rounds take the rest.
const batchShare = 0.35

// minRounds is the fewest session rounds a run makes, whatever --seconds
// says: three rounds give each kind of mutation at least 27 timed samples.
const minRounds = 3

// minCleans is the fewest timed batch cleans a run makes.
const minCleans = 5

// peakPasses is the number of untimed cleans whose heap high-water mark is
// sampled; peak_heap_mib is the median.
const peakPasses = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err == nil {
		err = run(cfg, os.Stdout)
	}
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func parseFlags(args []string) (*config, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: car | hai")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 20, "measuring time")
	trace := fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	workdir := fl.String("workdir", ".bench_build/work", "directory for server data and trace files")
	if err := fl.Parse(args); err != nil {
		return nil, err
	}
	w, ok := workloads[*name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return nil, fmt.Errorf("bad --seconds or --trace")
	}
	return &config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir}, nil
}

func run(cfg *config, stdout io.Writer) error {
	// The program logs through slog; format every line as it would, but
	// into io.Discard, so formatting cost stays and terminal I/O noise goes.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))

	workdir := filepath.Join(cfg.workdir, fmt.Sprintf("%d", os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(fmt.Sprintf("%s-%d-%d", cfg.workload.name, cfg.seed, os.Getpid()))
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"stamp": stamp(cfg)}); err != nil {
		return err
	}

	// Set-up: inputs from the seed, serialized, and a server started. The
	// batch inputs are made once; every session round sets up again, with a
	// session table of its own, on a fresh server. setup_s is the batch
	// set-up plus the median round set-up.
	t0 := time.Now()
	in, err := makeInputs(cfg.workload, cfg.seed)
	if err != nil {
		return fmt.Errorf("generate inputs: %w", err)
	}
	batchSetup := time.Since(t0)
	var setupS samples
	setup := func(round int) (*roundInputs, *liveServer, error) {
		t0 := time.Now()
		ri, err := makeRound(in, cfg.seed, round)
		if err != nil {
			return nil, nil, fmt.Errorf("generate round %d inputs: %w", round, err)
		}
		ls, err := startServer(filepath.Join(workdir, fmt.Sprintf("round-%d", round)))
		if err != nil {
			return nil, nil, err
		}
		setupS.addDur(time.Since(t0), time.Second)
		return ri, ls, nil
	}
	ri, ls, err := setup(0)
	if err != nil {
		return err
	}
	b, err := newBatch(in)
	if err != nil {
		return errors.Join(err, ls.stop())
	}

	var rounds []*serveRound
	var layers *layerRun
	seconds := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	if cfg.trace {
		// Traced: batch iterations for the batch share of the time, then one
		// session round and the layer twins on the same server.
		for len(b.cleanS) == 0 || time.Since(start) < time.Duration(batchShare*float64(seconds)) {
			b.tracedIteration(tr)
		}
		c := newClient(ls.base)
		r := &serveRound{}
		r.drive(ri, c, tr)
		c.close()
		layers = runLayerTwins(ri, ls, r.v1, filepath.Join(workdir, "wal-twin"), tr)
		if err := ls.stop(); err != nil {
			return err
		}
		rounds = append(rounds, r)
	} else {
		// Batch cleans and session rounds interleave, the batch path taking
		// batchShare of the time, so a slow spell of the host lands on both
		// paths' samples alike rather than on one path's whole block.
		for {
			elapsed := time.Since(start)
			needBatch, needServe := len(b.cleanS) < minCleans, len(rounds) < minRounds
			if elapsed >= seconds && !needBatch && !needServe {
				break
			}
			batchTurn := float64(b.busy) < batchShare*float64(elapsed)
			if needBatch != needServe {
				batchTurn = needBatch
			}
			if batchTurn {
				b.timedClean()
				continue
			}
			if i := len(rounds); i > 0 {
				if ri, ls, err = setup(i); err != nil {
					return err
				}
			}
			r, err := runRound(ri, ls)
			if err != nil {
				return err
			}
			rounds = append(rounds, r)
		}
		for i := 0; i < peakPasses; i++ {
			b.peakPass()
		}
	}

	res := result{Attempted: b.attempted, Failed: b.failed}
	for _, r := range rounds {
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	if layers != nil {
		res.Attempted += layers.attempted
		res.Failed += layers.failed
	}
	var info map[string]any
	if cfg.trace {
		res.Metrics, info = layerMetrics(ri, b, rounds[0], layers, tr)
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", cfg.workload.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return err
		}
		info["trace_file"] = path
	} else {
		res.Metrics, info = endToEndMetrics(ri, batchSetup, setupS, b, rounds)
	}
	res.Correct = res.Failed == 0
	if err := enc.Encode(map[string]any{"samples": info}); err != nil {
		return err
	}
	return enc.Encode(res)
}

func endToEndMetrics(ri *roundInputs, batchSetup time.Duration, setupS samples, b *batchRun, rounds []*serveRound) (map[string]metric, map[string]any) {
	var cleanS, firstMS, heapKiB, f1, result, repairs samples
	var mut [numOpKinds]samples
	for _, r := range rounds {
		f1.add(r.f1)
		cleanS.add(r.cleanS)
		firstMS.add(r.firstMS)
		heapKiB.add(r.heapKiB)
		for k := range mut {
			mut[k] = append(mut[k], r.mutateMS[k]...)
		}
		result = append(result, r.resultMS...)
		repairs = append(repairs, r.repairsMS...)
	}
	m := map[string]metric{
		"setup_s":              {batchSetup.Seconds() + setupS.median(), "s"},
		"clean_tuples_per_s":   {float64(b.tuples) / b.cleanS.median(), "1/s"},
		"peak_heap_mib":        {b.peakMiB.median(), "MiB"},
		"repair_f1":            {b.f1, "ratio"},
		"session_repair_f1":    {f1.median(), "ratio"},
		"session_clean_s":      {cleanS.median(), "s"},
		"first_mutate_ms":      {firstMS.median(), "ms"},
		"read_result_p50_ms":   {result.median(), "ms"},
		"read_repairs_p50_ms":  {repairs.median(), "ms"},
		"heap_per_version_kib": {heapKiB.median(), "KiB"},
	}
	perKind := map[string]int{}
	for k := range mut {
		name := opKind(k).String()
		m["mutate_"+name+"_p50_ms"] = metric{mut[k].median(), "ms"}
		perKind[name] = len(mut[k])
	}
	info := map[string]any{
		"round_setups":       len(setupS),
		"batch_cleans":       len(b.cleanS),
		"batch_tuples":       b.tuples,
		"peak_passes":        len(b.peakMiB),
		"session_rounds":     len(rounds),
		"session_tuples":     ri.serve.dirty.Len(),
		"mutations_per_kind": perKind,
		"reads_per_route":    len(result),
	}
	return m, info
}

func layerMetrics(ri *roundInputs, b *batchRun, r *serveRound, l *layerRun, tr *tracer) (map[string]metric, map[string]any) {
	ls := tr.layers()
	m := map[string]metric{}
	for _, name := range []string{"dataset.ingest", "plan.plan", "index.build", "core.agp", "core.learn", "core.rsc", "core.fscr", "core.dedup"} {
		m[name+"_ms"] = metric{ls[name].selfMS, "ms"}
		m[name+"_alloc_mib"] = metric{ls[name].allocMiB, "MiB"}
	}
	for _, name := range []string{"distributed.clean", "core.delta_load", "tstore.seed", "tstore.put",
		"server.session_mutate_first", "wal.append_sync", "server.read_result", "server.read_repairs",
		"serve.session_clean"} {
		m[name+"_ms"] = metric{ls[name].selfMS, "ms"}
	}
	for _, k := range opKindNames {
		for _, name := range []string{"core.delta_apply", "server.session_mutate", "serve.mutate"} {
			m[name+"_"+k+"_ms"] = metric{ls[name+"_"+k].selfMS, "ms"}
		}
	}
	m["distributed.worker_max_ms"] = metric{l.workerMaxMS, "ms"}
	m["server.response_kib"] = metric{r.responseKiB.median(), "KiB"}

	split := ls["core.agp"].selfMS + ls["core.learn"].selfMS + ls["core.rsc"].selfMS
	m["core.stage1_split_ms"] = metric{split, "ms"}
	m["core.stage1_fused_ms"] = metric{b.fusedMS.median(), "ms"}
	m["batch.clean_ms"] = metric{b.cleanS.median() * 1e3, "ms"}
	m["batch.staged_clean_ms"] = metric{b.stagedMS.median(), "ms"}
	m["trace.overhead_ms"] = metric{b.overheadMS.median(), "ms"}

	st := b.stats
	m["core.groups"] = metric{float64(st.Groups), "count"}
	m["core.abnormal_groups"] = metric{float64(st.AbnormalGroups), "count"}
	m["core.learn_iterations"] = metric{float64(st.LearnIterations), "count"}
	m["core.rsc_repairs"] = metric{float64(st.RSCRepairs), "count"}
	m["core.fscr_cell_changes"] = metric{float64(st.FSCRCellChanges), "count"}
	m["core.fusion_failure_ratio"] = metric{float64(st.FusionFailures) / float64(st.Tuples), "ratio"}
	ds := l.deltaStats
	m["core.delta_reused_block_ratio"] = metric{ratio(ds.ReusedBlocks, ds.DirtyBlocks+ds.ReusedBlocks), "ratio"}
	m["core.delta_refused_tuple_ratio"] = metric{ratio(ds.RefusedTuples, ds.RefusedTuples+ds.ReusedTuples), "ratio"}
	m["server.repairs_v1"] = metric{float64(r.repairsV1), "count"}
	m["server.repairs_per_version"] = metric{r.repairsPerV.median(), "count"}

	info := map[string]any{
		"batch_iterations": len(b.cleanS),
		"mutations":        len(ri.ops),
		"spans":            len(tr.spans),
	}
	return m, info
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// stamp identifies the host and the code measured. The source digest
// covers every Go source and go.mod of the checkout, so runs of identical
// code compare even where no version control metadata exists.
func stamp(cfg *config) map[string]any {
	s := map[string]any{
		"workload":   cfg.workload.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s["commit"] = kv.Value
			case "vcs.modified":
				s["commit_modified"] = kv.Value == "true"
			}
		}
	}
	if d, err := sourceDigest("."); err == nil {
		s["source_sha256"] = d
	}
	return s
}

func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"mlnclean/internal/bench"
	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/eval"
	"mlnclean/internal/index"
	"mlnclean/internal/obs"
	"mlnclean/internal/plan"
	"mlnclean/internal/rules"
)

// cleanCSV is the path mlnclean runs on a CSV file: stream-parse and
// dictionary-encode the bytes, then the default streaming pipeline.
func cleanCSV(csv []byte, rs []*rules.Rule, opts core.Options) (*core.Result, error) {
	stream, err := dataset.StreamCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, err
	}
	dirty, enc, err := dataset.EncodeStream(stream, nil)
	if err != nil {
		return nil, err
	}
	return core.CleanEncoded(context.Background(), dirty, enc, rs, opts)
}

// cleanStaged is the same clean composed call by call from the public
// layer functions, one span per call. Stage I runs as three separate
// block-parallel passes (AGP, learning, RSC) where cleanCSV fuses them per
// block; the outputs are identical.
func cleanStaged(tr *tracer, csv []byte, rs []*rules.Rule, opts core.Options) (*core.Result, error) {
	ctx := context.Background()
	root := tr.start("batch.clean", false)
	defer root.end()

	sp := tr.start("dataset.ingest", true)
	stream, err := dataset.StreamCSV(bytes.NewReader(csv))
	if err != nil {
		return nil, err
	}
	dirty, enc, err := dataset.EncodeStream(stream, nil)
	sp.end()
	if err != nil {
		return nil, err
	}

	// The index build plans internally as well; this span isolates the
	// planner's own cost over the same statistics.
	sp = tr.start("plan.plan", true)
	plan.NewFromStats(rs, dirty.Schema, enc.Dict.Stats(), enc.Dict)
	sp.end()

	sp = tr.start("index.build", true)
	ix, err := index.BuildConfigured(dirty, rs, index.BuildConfig{Encoded: enc})
	sp.end()
	if err != nil {
		return nil, err
	}

	st := core.Stats{Tuples: dirty.Len()}
	for _, stage := range []struct {
		name string
		run  func(context.Context, *index.Index, core.Options, *core.Stats) error
	}{{"core.agp", core.StageAGP}, {"core.learn", core.StageLearn}, {"core.rsc", core.StageRSC}} {
		sp = tr.start(stage.name, true)
		err := stage.run(ctx, ix, opts, &st)
		sp.end()
		if err != nil {
			return nil, err
		}
	}
	st.Blocks = len(ix.Blocks)
	for _, b := range ix.Blocks {
		st.Groups += len(b.Groups)
	}

	sp = tr.start("core.fscr", true)
	repaired := core.RunFSCREncoded(dirty, ix.Encoded(), core.FusionBlocksFromIndex(ix), opts, &st)
	sp.end()

	sp = tr.start("core.dedup", true)
	clean, dups := core.Dedup(repaired)
	sp.end()
	for _, d := range dups {
		st.DuplicatesRemoved += len(d) - 1
	}
	return &core.Result{Clean: clean, Repaired: repaired, Duplicates: dups, Index: ix, Stats: st}, nil
}

// digest fingerprints everything a clean returns to its caller: the
// cleaned and repaired tables (values and tuple ids), the duplicate sets
// and the run statistics.
func digest(res *core.Result) ([32]byte, error) {
	h := sha256.New()
	for _, tb := range []*dataset.Table{res.Clean, res.Repaired} {
		if err := tb.WriteCSV(h); err != nil {
			return [32]byte{}, err
		}
		for _, t := range tb.Tuples {
			fmt.Fprintf(h, "%d,", t.ID)
		}
	}
	fmt.Fprintf(h, "\n%v\n%+v", res.Duplicates, res.Stats)
	var out [32]byte
	h.Sum(out[:0])
	return out, nil
}

// batchRun holds the batch path's reference output and measurements.
type batchRun struct {
	in   *inputs
	opts core.Options
	want [32]byte // digest of the staged composition's output

	cleanS    samples // wall seconds per timed clean
	busy      time.Duration
	peakMiB   samples // HeapAlloc high-water per untimed pass
	f1        float64
	stats     core.Stats
	tuples    int
	attempted int
	failed    int

	// Traced mode only.
	stagedMS   samples // wall ms of the staged clean without spans
	overheadMS samples // per iteration: the staged clean under spans minus without
	fusedMS    samples // fused stage-I time the program's own histograms report
}

// newBatch computes the reference every timed clean must reproduce: the
// staged composition's output, untimed.
func newBatch(in *inputs) (*batchRun, error) {
	b := &batchRun{in: in, opts: core.Options{Tau: in.w.tau}, tuples: in.batch.dirty.Len()}
	ref, err := cleanStaged(nil, in.batchCSV, in.rs, b.opts)
	if err != nil {
		return nil, fmt.Errorf("reference clean: %w", err)
	}
	if b.want, err = digest(ref); err != nil {
		return nil, err
	}
	b.f1 = eval.RepairQuality(in.batch.truth, in.batch.dirty, ref.Repaired).F1
	b.stats = ref.Stats
	return b, nil
}

// check counts one clean as an op: an error or an output that differs from
// the reference fails it.
func (b *batchRun) check(res *core.Result, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		logf("batch clean: %v", err)
		return
	}
	got, err := digest(res)
	if err != nil || got != b.want {
		b.failed++
		logf("batch clean output differs from the staged composition")
	}
}

// timedClean runs one clean of the batch CSV from a settled heap.
func (b *batchRun) timedClean() {
	runtime.GC()
	t0 := time.Now()
	res, err := cleanCSV(b.in.batchCSV, b.in.rs, b.opts)
	d := time.Since(t0)
	b.busy += d
	b.cleanS.addDur(d, time.Second)
	b.check(res, err)
}

// tracedIteration runs one clean of each shape: the default path (with the
// program's own stage-I histograms read around it), then the staged
// composition without and with spans — the difference is what recording
// costs.
func (b *batchRun) tracedIteration(tr *tracer) {
	runtime.GC()
	f0 := fusedStageSeconds()
	t0 := time.Now()
	res, err := cleanCSV(b.in.batchCSV, b.in.rs, b.opts)
	b.cleanS.addDur(time.Since(t0), time.Second)
	b.fusedMS.add((fusedStageSeconds() - f0) * 1e3)
	b.check(res, err)
	// Alternate which of the pair runs first, so whatever running first or
	// second costs cancels out of the median difference.
	pair := []*tracer{nil, tr}
	if len(b.stagedMS)%2 == 1 {
		pair[0], pair[1] = tr, nil
	}
	var took [2]time.Duration
	for _, t := range pair {
		runtime.GC()
		t0 := time.Now()
		res, err := cleanStaged(t, b.in.batchCSV, b.in.rs, b.opts)
		if t == nil {
			took[0] = time.Since(t0)
		} else {
			took[1] = time.Since(t0)
		}
		b.check(res, err)
	}
	b.stagedMS.addDur(took[0], time.Millisecond)
	b.overheadMS.addDur(took[1]-took[0], time.Millisecond)
}

// peakPass runs one untimed clean under bench.MeasureMem's heap sampler,
// whose ReadMemStats calls stop the world, so it never wraps a timed clean.
func (b *batchRun) peakPass() {
	var res *core.Result
	mem, err := bench.MeasureMem(func() error {
		var err error
		res, err = cleanCSV(b.in.batchCSV, b.in.rs, b.opts)
		return err
	})
	b.check(res, err)
	b.peakMiB.add(float64(mem.PeakHeapBytes) / mib)
}

// fusedStageSeconds sums the program's own stage-I histograms (AGP,
// learning, RSC). The streaming pipeline observes each phase as the summed
// per-block time across its workers.
func fusedStageSeconds() float64 {
	var s float64
	for _, snap := range obs.Default().Snapshot() {
		if snap.Name != "mlnclean_core_stage_seconds" {
			continue
		}
		switch snap.Labels {
		case `{stage="agp"}`, `{stage="learn"}`, `{stage="rsc"}`:
			s += snap.Sum
		}
	}
	return s
}

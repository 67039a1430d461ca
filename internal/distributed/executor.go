package distributed

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/obs"
	"mlnclean/internal/plan"
	"mlnclean/internal/rules"
)

// Executor is the concurrent distributed runtime: k logical partitions, each
// leased to a physical worker running the stand-alone stage-I/II pipeline,
// coordinated exclusively through a Transport. The coordinator streams
// partition batches down, reduces the workers' Eq. 6 piece summaries,
// broadcasts the merged weights, and gathers the workers' fusion blocks for
// the global conflict-resolution pass.
//
// Fault tolerance: the coordinator records every shipped batch, so a
// partition is never lost with its worker. While gathering it watches
// per-worker heartbeats (and reply-count gaps, which expose replies lost in
// flight); a partition whose worker goes silent past Options.WorkerTimeout
// is re-leased under a bumped epoch to a fresh worker slot — a respawned
// goroutine for in-process transports, a newly claimable slot for remote
// HTTP workers — and its Init/TupleBatch/StartStageI (and, mid-stage-II,
// MergedWeights) sequence is replayed. Because the per-partition pipeline is
// deterministic and the Eq. 6 merge is a pure reduce over per-partition
// summaries, a recovered run's output is byte-identical to the no-failure
// run; stale-epoch replies from falsely-declared-dead workers are discarded.
//
// Two ingestion paths share the runtime:
//
//   - Clean partitions a whole table with Algorithm 3 (heap-balanced,
//     eviction-based) and ships each part in batches.
//   - Submit streams batches through an online relaxation of Algorithm 3:
//     centroids are drawn from the first k tuples seen, and each tuple goes
//     to the nearest centroid whose partition is under the running capacity
//     ⌈seen/k⌉ — no retrospective eviction, so shipped tuples never move.
type Executor struct {
	ctx    context.Context
	schema *dataset.Schema
	rs     []*rules.Rule
	opts   Options
	k      int
	tr     Transport
	metric distance.Metric
	rng    *rand.Rand

	// gather accumulates every submitted tuple (re-IDed sequentially); the
	// global FSCR fuses from these original dirty values. Partitions are
	// never materialized coordinator-side — batches ship as they arrive.
	// gatherIDs is the dictionary-encoded companion (one ID row per gather
	// tuple): the streaming partitioner computes centroid distances over
	// interned IDs with memoization, and the gather FSCR reuses the same
	// dictionary for the wire pieces.
	gather    *dataset.Table
	gatherIDs [][]uint32
	dict      *intern.Dict
	ev        *distance.Evaluator
	centroids [][]uint32
	loads     []int
	shipped   int // gather tuples already assigned and shipped

	// Fault-tolerance state: one lease per logical partition, the worker
	// bootstrap needed to replay an Init, and the detection budget.
	parts         []*partitionLease
	wtr           Transport // transport locally spawned workers talk through
	spawnLocal    bool
	wopts         core.Options
	attrs         []string
	wireRules     []WireRule
	wireOpts      WireCoreOptions
	hbInterval    time.Duration
	workerTimeout time.Duration
	sendTimeout   time.Duration
	maxRecoveries int
	lost          atomic.Int64 // recoveries so far; also the budget counter

	distTime   time.Duration
	assignTime time.Duration
	createdAt  time.Time

	workerWG sync.WaitGroup
	stop     chan struct{} // closed once the run ends; releases the ctx watcher
	stopOnce sync.Once
	finished bool
	err      error
}

// partitionLease tracks which physical worker slot currently owns a logical
// partition, under which epoch, and everything needed to re-dispatch it:
// the recorded batches, the last sign of life, and how many protocol
// replies the current epoch has delivered. seen records whether the current
// epoch's worker ever showed a sign of life — for remote transports the
// silence clock must not start before a worker has attached at all, or a
// late-starting mlnworker fleet would be declared dead while the original
// slots still hold the only dispatched epochs.
type partitionLease struct {
	slot     int
	epoch    int
	batches  []TupleBatch // recorded shipments, replayed on recovery
	lastSeen time.Time
	seen     bool
	replies  int
}

// noteAlive refreshes the lease's liveness deadline, recording the observed
// gap since the previous sign of life (the distribution a detection-timeout
// choice should be read against).
func (l *partitionLease) noteAlive() {
	now := time.Now()
	if l.seen {
		mHeartbeatGap.ObserveDuration(now.Sub(l.lastSeen))
	}
	l.lastSeen = now
	l.seen = true
}

// NewExecutor starts opts.Workers workers (default 4) for streaming ingest
// via Submit followed by Run. Whole-table runs should use Clean, which adds
// the exact Algorithm 3 partitioning on top of the same runtime.
func NewExecutor(schema *dataset.Schema, rs []*rules.Rule, opts Options) (*Executor, error) {
	return NewExecutorContext(context.Background(), schema, rs, opts)
}

// NewExecutorContext is NewExecutor bound to a context: cancelling ctx tears
// the transport down, unblocking every worker goroutine and failing any
// in-flight Submit/Run, so an abandoned run releases its goroutines without
// an explicit Close.
func NewExecutorContext(ctx context.Context, schema *dataset.Schema, rs []*rules.Rule, opts Options) (*Executor, error) {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	return newExecutor(ctx, schema, rs, opts, opts.Workers)
}

func newExecutor(ctx context.Context, schema *dataset.Schema, rs []*rules.Rule, opts Options, k int) (*Executor, error) {
	if schema == nil {
		return nil, fmt.Errorf("distributed: nil schema")
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("distributed: no rules")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 1024
	}
	metric := opts.Core.Metric
	if metric == nil {
		metric = defaultMetric()
	}
	factory := opts.Transport
	if factory == nil {
		factory = NewChanTransport
	}
	dict := opts.Dict
	if dict == nil {
		dict = intern.NewDict()
	}
	if opts.RunID == "" {
		opts.RunID = obs.NewRunID()
	}
	// The run ID rides inside the core options so it reaches workers through
	// WireCoreOptions without a protocol change.
	opts.Core.RunID = opts.RunID
	ex := &Executor{
		ctx:       ctx,
		schema:    schema,
		rs:        rs,
		opts:      opts,
		k:         k,
		tr:        factory(k),
		metric:    metric,
		rng:       rand.New(rand.NewSource(opts.Seed)),
		gather:    dataset.NewTable(schema),
		dict:      dict,
		ev:        distance.NewEvaluator(metric, dict),
		loads:     make([]int, k),
		stop:      make(chan struct{}),
		createdAt: time.Now(),
	}
	ex.hbInterval = opts.HeartbeatInterval
	if ex.hbInterval == 0 {
		ex.hbInterval = defaultHeartbeatInterval
	}
	if ex.hbInterval < 0 {
		ex.hbInterval = 0
	}
	ex.workerTimeout = opts.WorkerTimeout
	if ex.workerTimeout == 0 {
		ex.workerTimeout = defaultWorkerTimeout
		// Without heartbeats a busy worker sends nothing upward mid-stage,
		// so the default silence timeout would declare every long stage a
		// death. Disabling heartbeats therefore disables detection too,
		// unless the caller explicitly chose a timeout (owning the
		// requirement that it exceed the longest stage).
		if ex.hbInterval == 0 {
			ex.workerTimeout = 0
		}
	}
	if ex.workerTimeout < 0 {
		ex.workerTimeout = 0
	}
	ex.sendTimeout = opts.SendTimeout
	if ex.sendTimeout == 0 {
		ex.sendTimeout = defaultSendTimeout
	}
	if ex.sendTimeout < 0 {
		ex.sendTimeout = 0
	}
	ex.maxRecoveries = opts.MaxRecoveries
	if ex.maxRecoveries <= 0 {
		ex.maxRecoveries = 4 + 2*k
	}
	// The watcher propagates cancellation by closing the transport (the only
	// executor operation that is safe from another goroutine); every blocked
	// transport call then fails and the workers drain out.
	go func() {
		select {
		case <-ctx.Done():
			ex.tr.Close()
		case <-ex.stop:
		}
	}()
	ex.wopts = workerCoreOpts(opts.Core, k)
	// A transport may override where its workers run: chan/gob workers talk
	// to the coordinator value directly, the loopback HTTP transport hands
	// out a client bound to its URL, and a remote coordinator returns nil —
	// its workers attach from other processes.
	ex.wtr = Transport(ex.tr)
	ex.spawnLocal = true
	if d, ok := ex.tr.(workerHoster); ok {
		if wt := d.LocalWorkerTransport(); wt != nil {
			ex.wtr = wt
		} else {
			ex.spawnLocal = false
		}
	}
	if ex.spawnLocal {
		for w := 0; w < k; w++ {
			ex.spawnWorker(w)
		}
	}
	ex.attrs = schema.Attrs()
	ex.wireRules = rulesToWire(rs)
	// Out-of-process workers get τ scaled for partition-local group sizes
	// like local ones, but NOT the local CPU-split Parallelism — that was
	// derived from this host's core count, while a remote worker should
	// default to its own.
	ex.wireOpts = coreOptsToWire(workerTauOpts(opts.Core, k))
	ex.parts = make([]*partitionLease, k)
	for p := range ex.parts {
		ex.parts[p] = &partitionLease{slot: p}
		if err := ex.sendLease(p, ex.initFor(p)); err != nil {
			ex.fail(err)
			return nil, ex.err
		}
	}
	return ex, nil
}

// Fault-tolerance defaults: heartbeats are cheap, so the interval is short
// relative to the timeout (a worker must miss many beacons in a row before
// being declared dead); sends get a generous bound that only trips when a
// peer stops draining its inbox entirely.
const (
	defaultHeartbeatInterval = 1 * time.Second
	defaultWorkerTimeout     = 10 * time.Second
	defaultSendTimeout       = 1 * time.Minute
)

// spawnWorker starts a local worker goroutine serving slot w.
func (ex *Executor) spawnWorker(w int) {
	ex.workerWG.Add(1)
	go func() {
		defer ex.workerWG.Done()
		workerMain(ex.ctx, ex.wtr, w, ex.wopts, false)
	}()
}

// initFor builds partition p's bootstrap message under its current lease.
func (ex *Executor) initFor(p int) Init {
	lease := ex.parts[p]
	return Init{
		Worker:      lease.slot,
		Partition:   p,
		Epoch:       lease.epoch,
		HeartbeatNS: int64(ex.hbInterval),
		SchemaAttrs: ex.attrs,
		Rules:       ex.wireRules,
		Opts:        ex.wireOpts,
		HasOpts:     true,
	}
}

// sendLease stamps m with partition p's current (slot, epoch) lease and
// sends it under the executor's send deadline.
func (ex *Executor) sendLease(p int, m Message) error {
	lease := ex.parts[p]
	switch msg := m.(type) {
	case StartStageI:
		msg.Worker, msg.Epoch = lease.slot, lease.epoch
		m = msg
	case MergedWeights:
		msg.Worker, msg.Epoch = lease.slot, lease.epoch
		m = msg
	}
	return ex.tr.ToWorkerDeadline(lease.slot, m, ex.sendTimeout)
}

// WorkersLost reports how many workers the run has declared dead and
// re-dispatched so far. Safe to call concurrently with a run (the serving
// layer polls it while a session cleans).
func (ex *Executor) WorkersLost() int {
	return int(ex.lost.Load())
}

// workerCoreOpts derives the per-worker pipeline options: τ scaled to
// partition-local group sizes, and the block-level parallelism budget split
// across the k concurrent workers so the pool doesn't oversubscribe the
// host.
func workerCoreOpts(o core.Options, workers int) core.Options {
	o = workerTauOpts(o, workers)
	if o.Parallelism <= 0 {
		par := runtime.NumCPU() / workers
		if par < 1 {
			par = 1
		}
		o.Parallelism = par
	}
	return o
}

// Submit streams one batch of dirty tuples into the executor, assigning each
// tuple to a partition online and shipping the assignments immediately.
// Tuples are re-IDed sequentially across batches. Deterministic given the
// seed and the batch sequence.
func (ex *Executor) Submit(batch *dataset.Table) error {
	if ex.err != nil {
		return ex.err
	}
	if err := ex.ctx.Err(); err != nil {
		ex.fail(err)
		return ex.err
	}
	if ex.finished {
		return fmt.Errorf("distributed: executor already ran")
	}
	if batch == nil || batch.Len() == 0 {
		return nil
	}
	if !batch.Schema.Equal(ex.schema) {
		return fmt.Errorf("distributed: batch schema does not match executor schema")
	}
	ex.drainLiveness()
	st := ex.dict.Stats()
	for _, t := range batch.Tuples {
		vals := make([]string, len(t.Values))
		ids := make([]uint32, len(t.Values))
		for i, v := range t.Values {
			ids[i] = ex.dict.Intern(v)
			// The canonical interned string: identical bytes, shared backing,
			// so the gather copy holds one string per distinct value instead
			// of retaining every submitted batch's allocations.
			vals[i] = ex.dict.Value(ids[i])
		}
		// Observe column statistics at ingest so the coordinator can report
		// the plan its workers derive from the same distribution.
		st.ObserveRow(ids)
		ex.gather.Tuples = append(ex.gather.Tuples, &dataset.Tuple{ID: len(ex.gather.Tuples), Values: vals})
		ex.gatherIDs = append(ex.gatherIDs, ids)
	}
	if ex.centroids == nil && ex.gather.Len() < ex.k {
		return nil // keep buffering until k centroid candidates exist
	}
	return ex.assignAndShip()
}

// assignAndShip assigns every not-yet-shipped gather tuple to a partition
// and ships the new assignments, one TupleBatch per worker.
func (ex *Executor) assignAndShip() error {
	if ex.shipped >= ex.gather.Len() {
		return nil
	}
	if ex.centroids == nil {
		// Draw centroids from the tuples seen so far (the streaming analogue
		// of Algorithm 3's random distinct centroids).
		n := ex.gather.Len()
		kk := ex.k
		if kk > n {
			kk = n
		}
		perm := ex.rng.Perm(n)
		ex.centroids = make([][]uint32, ex.k)
		for i := 0; i < kk; i++ {
			ex.centroids[i] = ex.gatherIDs[perm[i]]
		}
		for i := kk; i < ex.k; i++ {
			ex.centroids[i] = ex.centroids[0] // degenerate: fewer tuples than workers
		}
	}
	batches := make([]TupleBatch, ex.k)
	dists := make([]float64, ex.k)
	for ; ex.shipped < ex.gather.Len(); ex.shipped++ {
		t := ex.gather.Tuples[ex.shipped]
		row := ex.gatherIDs[ex.shipped]
		t0 := time.Now()
		for w := 0; w < ex.k; w++ {
			dists[w] = ex.ev.Values(row, ex.centroids[w])
		}
		ex.distTime += time.Since(t0)
		t0 = time.Now()
		// Running capacity ⌈(assigned+1)/k⌉ keeps partitions balanced; at
		// least one worker is always under it.
		capacity := (ex.shipped + ex.k) / ex.k
		best := -1
		for w := 0; w < ex.k; w++ {
			if ex.loads[w] >= capacity {
				continue
			}
			if best == -1 || dists[w] < dists[best] {
				best = w
			}
		}
		ex.loads[best]++
		batches[best].IDs = append(batches[best].IDs, t.ID)
		batches[best].Rows = append(batches[best].Rows, t.Values)
		ex.assignTime += time.Since(t0)
	}
	for p := range batches {
		if len(batches[p].IDs) == 0 {
			continue
		}
		if err := ex.shipBatched(p, batches[p]); err != nil {
			return err
		}
	}
	return nil
}

// shipBatched records partition p's assignment (for recovery replay) and
// sends it in BatchSize chunks. A send deadline expiring here means the
// worker stopped draining its inbox mid-ingest — with detection enabled
// that is a death, and the partition is re-leased and its full recorded
// history (including b, already recorded) replayed onto the fresh slot.
func (ex *Executor) shipBatched(p int, b TupleBatch) error {
	ex.drainLiveness()
	ex.parts[p].batches = append(ex.parts[p].batches, b)
	err := ex.shipChunks(p, b)
	if err == ErrTimeout && ex.workerTimeout > 0 {
		err = ex.recoverPartition(p, phaseIngest, false, nil)
	}
	if err != nil {
		ex.fail(err)
		return ex.err
	}
	return nil
}

// shipChunks sends one recorded batch to partition p's current lease in
// BatchSize chunks, stamped with the lease's slot and epoch.
func (ex *Executor) shipChunks(p int, b TupleBatch) error {
	size := ex.opts.BatchSize
	lease := ex.parts[p]
	for lo := 0; lo < len(b.IDs); lo += size {
		hi := lo + size
		if hi > len(b.IDs) {
			hi = len(b.IDs)
		}
		msg := TupleBatch{Worker: lease.slot, Epoch: lease.epoch, IDs: b.IDs[lo:hi], Rows: b.Rows[lo:hi]}
		t0 := time.Now()
		if err := ex.tr.ToWorkerDeadline(lease.slot, msg, ex.sendTimeout); err != nil {
			return err
		}
		mBatchSendSeconds.ObserveSince(t0)
	}
	return nil
}

// Run completes a streaming ingest: flushes any buffered tuples, drives the
// workers through both stages, and gathers the result.
func (ex *Executor) Run() (*Result, error) {
	if ex.err != nil {
		return nil, ex.err
	}
	if err := ex.ctx.Err(); err != nil {
		ex.fail(err)
		return nil, ex.err
	}
	if ex.finished {
		return nil, fmt.Errorf("distributed: executor already ran")
	}
	if ex.gather.Len() == 0 {
		ex.fail(fmt.Errorf("distributed: empty input table"))
		return nil, ex.err
	}
	if err := ex.assignAndShip(); err != nil {
		return nil, err
	}
	res := &Result{
		Workers:           ex.k,
		PartitionDistTime: ex.distTime,
		PartitionHeapTime: ex.assignTime,
	}
	return ex.finish(ex.gather, res)
}

// fail records the first error and tears the transport down so every worker
// unblocks and exits. A transport error caused by cancellation is reported
// as the context's error.
func (ex *Executor) fail(err error) {
	if ex.err == nil {
		if ctxErr := ex.ctx.Err(); ctxErr != nil {
			err = ctxErr
		}
		ex.err = err
	}
	ex.finished = true
	ex.stopOnce.Do(func() { close(ex.stop) })
	ex.tr.Close()
	ex.workerWG.Wait()
}

// Close abandons an executor that will not be Run, releasing its worker
// goroutines. Safe to call after Run (a no-op then).
func (ex *Executor) Close() {
	if ex.finished {
		return
	}
	ex.fail(fmt.Errorf("distributed: executor closed"))
}

// gatherPhase names how far the protocol has progressed for a partition,
// because a recovery must replay exactly up to that point: batches only
// (ingest), batches + StartStageI (stage I), or the full history including
// the merged weights (stage II).
type gatherPhase int

const (
	phaseIngest gatherPhase = iota
	phaseStageI
	phaseStageII
)

// finish drives the two-phase protocol to completion: stage I on every
// worker, the Eq. 6 reduce + broadcast, stage II on every worker, then the
// global gather (FSCR over the original dirty tuples + deduplication).
// Both gather loops detect and recover dead workers.
func (ex *Executor) finish(dirty *dataset.Table, res *Result) (*Result, error) {
	ok := false
	defer func() {
		ex.finished = true
		ex.stopOnce.Do(func() { close(ex.stop) })
		ex.tr.Close()
		ex.workerWG.Wait()
		if !ok && ex.err == nil {
			if ctxErr := ex.ctx.Err(); ctxErr != nil {
				ex.err = ctxErr
			} else {
				ex.err = fmt.Errorf("distributed: run aborted")
			}
		}
	}()

	skipLearn := len(ex.opts.PresetWeights) > 0
	for p := range ex.parts {
		err := ex.sendLease(p, StartStageI{SkipLearn: skipLearn})
		if err == ErrTimeout && ex.workerTimeout > 0 {
			// The worker stopped draining its inbox before the stage even
			// started — a death shipBatched happened not to observe.
			err = ex.recoverPartition(p, phaseStageI, skipLearn, nil)
		}
		if err != nil {
			return nil, ex.runErr(err)
		}
	}
	sums := make([]WeightSummaries, ex.k)
	err := ex.gatherReplies(phaseStageI, skipLearn, nil, func(p int, m Message) (bool, error) {
		ws, isWS := m.(WeightSummaries)
		if !isWS {
			return false, fmt.Errorf("distributed: protocol: expected WeightSummaries, got %T", m)
		}
		sums[p] = ws
		return true, nil
	})
	if err != nil {
		// Prefer the context's error when the run was cancelled: a worker
		// losing the same cancellation race reports it as an opaque string.
		return nil, ex.runErr(err)
	}

	// Eq. 6: reduce the workers' piece summaries to support-weighted mean
	// weights — w(γ) = Σ nᵢ·wᵢ / Σ nᵢ — so sparse local evidence borrows
	// support from the other parts. A pure reduce over shipped summaries:
	// no worker index state is touched from the coordinator. With preset
	// weights (the serving model cache) the workers skipped learning and the
	// cached vector is broadcast verbatim.
	t0 := time.Now()
	var merged []index.PieceSummary
	switch {
	case skipLearn:
		merged = ex.opts.PresetWeights
	case !ex.opts.SkipWeightMerge:
		per := make([][]index.PieceSummary, ex.k)
		for w := range sums {
			per[w] = sums[w].Summaries
		}
		merged = reducePieceWeights(per)
	}
	res.MergedWeights = index.CopySummaries(merged)
	res.GatherTime += time.Since(t0)
	for p := range ex.parts {
		err := ex.sendLease(p, MergedWeights{Merged: merged})
		if err == ErrTimeout && ex.workerTimeout > 0 {
			err = ex.recoverPartition(p, phaseStageII, skipLearn, merged)
		}
		if err != nil {
			return nil, ex.runErr(err)
		}
	}

	frs := make([]FusionResult, ex.k)
	err = ex.gatherReplies(phaseStageII, skipLearn, merged, func(p int, m Message) (bool, error) {
		switch msg := m.(type) {
		case WeightSummaries:
			// A partition recovered mid-stage-II re-runs stage I first; its
			// summaries are progress, not a completion. Keep the re-run's
			// measured stage-I time, though: WorkerTimes must describe the
			// lease that produced the final FusionResult, not the dead
			// worker's partial work (the re-run skipped learning, so its
			// Summaries are empty and nothing downstream reads them).
			sums[p] = msg
			return false, nil
		case FusionResult:
			frs[p] = msg
			return true, nil
		default:
			return false, fmt.Errorf("distributed: protocol: expected FusionResult, got %T", m)
		}
	})
	if err != nil {
		return nil, ex.runErr(err)
	}

	res.WorkerTimes = make([]time.Duration, ex.k)
	res.WorkerStageITimes = make([]time.Duration, ex.k)
	res.WorkerStageIITimes = make([]time.Duration, ex.k)
	res.PartSizes = make([]int, ex.k)
	for w := 0; w < ex.k; w++ {
		res.WorkerStageITimes[w] = time.Duration(sums[w].ElapsedNS)
		res.WorkerStageIITimes[w] = time.Duration(frs[w].ElapsedNS)
		res.WorkerTimes[w] = res.WorkerStageITimes[w] + res.WorkerStageIITimes[w]
		res.PartSizes[w] = frs[w].PartSize
		res.Stats.Add(frs[w].Stats)
		mWorkerStageI.ObserveDuration(res.WorkerStageITimes[w])
		mWorkerStageII.ObserveDuration(res.WorkerStageIITimes[w])
	}
	res.WorkersLost = ex.WorkersLost()
	res.RunID = ex.opts.RunID

	// Gather (§6: "conflicts and duplicates are eliminated in the same way
	// to stand-alone MLNClean"): run a global conflict resolution over the
	// union of all workers' blocks and deduplicate. The global FSCR fuses
	// from the ORIGINAL dirty tuples — the union blocks already carry every
	// worker's stage-I repairs, and fusing from the per-part FSCR outputs
	// would move the observation baseline of the minimality prior, letting
	// compounding double-fusions through. The per-part FSCR outputs remain
	// what each worker would ship alone (and what WorkerTimes measures).
	t0 = time.Now()
	blocks := unionWireBlocks(frs, ex.rs, ex.dict)
	var gatherStats core.Stats
	// The gather rows were interned at Submit; hand them to FSCR instead of
	// re-encoding the whole accumulated dataset on the finish path.
	enc := &dataset.Encoded{Dict: ex.dict, Rows: ex.gatherIDs}
	repaired := core.RunFSCREncoded(dirty, enc, blocks, ex.opts.Core, &gatherStats)
	res.Repaired = repaired
	res.Stats.FSCRCellChanges += gatherStats.FSCRCellChanges
	if ex.opts.Core.KeepDuplicates {
		res.Clean = repaired.Clone()
	} else {
		clean, dups := Dedup(repaired)
		res.Clean = clean
		for _, d := range dups {
			res.Stats.DuplicatesRemoved += len(d) - 1
		}
	}
	// Render the plan the run's statistics imply. The gather dictionary has
	// observed every tuple by now (Submit observes at ingest; the batch
	// path's gather FSCR re-encode observes the full table), so this is the
	// whole-dataset view of the per-partition plans the workers derived.
	for _, c := range plan.New(ex.rs, ex.schema, ex.dict).Choices() {
		res.Plan = append(res.Plan, c.String())
	}
	res.GatherTime += time.Since(t0)
	res.WallTime = time.Since(ex.createdAt)
	ok = true
	mRuns.Inc()
	mRunSeconds.ObserveDuration(time.Since(ex.createdAt))
	mGatherSeconds.ObserveDuration(res.GatherTime)
	return res, nil
}

// gatherReplies collects one completing reply per partition, running the
// failure detector while it waits. handle sees every current-epoch protocol
// reply (heartbeats and stale-epoch replies are consumed here) and reports
// whether its partition completed the phase; a reply carrying a worker
// error aborts the run — worker pipelines are deterministic, so an error
// would only recur on a re-dispatch.
func (ex *Executor) gatherReplies(ph gatherPhase, skipLearn bool, merged []index.PieceSummary, handle func(p int, m Message) (bool, error)) error {
	pending := make([]bool, ex.k)
	n := ex.k
	now := time.Now()
	for p := range ex.parts {
		pending[p] = true
		ex.parts[p].lastSeen = now
	}
	detect := ex.workerTimeout > 0
	tick := ex.detectTick()
	for n > 0 {
		// Scan every iteration, not just on receive timeouts: surviving
		// workers' heartbeats keep the receive loop busy, and a dead
		// partition must not hide behind its peers' liveness.
		if detect {
			if err := ex.scanForDead(ph, skipLearn, merged, pending); err != nil {
				return err
			}
		}
		var m Message
		var err error
		if detect {
			m, err = ex.tr.CoordinatorRecvDeadline(tick)
		} else {
			m, err = ex.tr.CoordinatorRecv()
		}
		if err == ErrTimeout {
			continue
		}
		if err != nil {
			return ex.runErr(err)
		}
		if hb, isHB := m.(Heartbeat); isHB {
			if err := ex.noteHeartbeat(hb, ph, skipLearn, merged, pending); err != nil {
				return err
			}
			continue
		}
		if at, isAt := m.(WorkerAttached); isAt {
			// A remote worker claimed this slot: start its silence clock, so
			// a worker that dies before its first beacon is still detected.
			ex.noteAttached(at.Worker)
			continue
		}
		p, epoch, werr, isReply := replyLease(m)
		if !isReply {
			return fmt.Errorf("distributed: protocol: unexpected %T", m)
		}
		if p < 0 || p >= ex.k || epoch != ex.parts[p].epoch {
			continue // stale epoch: a falsely-declared-dead worker's late reply
		}
		if werr != "" {
			return fmt.Errorf("distributed: worker for partition %d: %s", p, werr)
		}
		lease := ex.parts[p]
		lease.noteAlive()
		lease.replies++
		done, err := handle(p, m)
		if err != nil {
			return err
		}
		if done && pending[p] {
			pending[p] = false
			n--
		}
	}
	return nil
}

// drainLiveness consumes buffered upward liveness traffic (heartbeats,
// attach signals) without blocking. The gather loop is the upward queue's
// only steady consumer, so a long ingest would otherwise saturate it —
// blocking worker beacon goroutines and, on remote transports, the /send
// handlers — right when a mid-ingest recovery may need the queue moving.
// Protocol replies cannot legally arrive before StartStageI; anything
// unexpected is dropped here and the gather loop enforces the protocol.
func (ex *Executor) drainLiveness() {
	for {
		m, err := ex.tr.CoordinatorRecvDeadline(time.Nanosecond)
		if err != nil {
			return // empty (ErrTimeout) or closed — real errors surface later
		}
		switch msg := m.(type) {
		case Heartbeat:
			if msg.Partition >= 0 && msg.Partition < ex.k {
				lease := ex.parts[msg.Partition]
				if msg.Epoch == lease.epoch {
					lease.noteAlive()
				}
			}
		case WorkerAttached:
			ex.noteAttached(msg.Worker)
		}
	}
}

// noteAttached starts the silence clock of the lease held by a
// just-claimed slot.
func (ex *Executor) noteAttached(slot int) {
	for _, lease := range ex.parts {
		if lease.slot == slot && !lease.seen {
			lease.lastSeen = time.Now()
			lease.seen = true
		}
	}
}

// detectTick is the failure detector's poll interval: a fraction of the
// worker timeout, clamped so tiny test timeouts still poll sanely and large
// production ones don't spin.
func (ex *Executor) detectTick() time.Duration {
	tick := ex.workerTimeout / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	return tick
}

// noteHeartbeat refreshes a partition's liveness deadline and checks the
// reply-count gap: a worker that has handed more protocol replies to its
// transport than the coordinator has received lost one in flight, and the
// partition is re-dispatched immediately instead of waiting out the full
// silence timeout.
func (ex *Executor) noteHeartbeat(hb Heartbeat, ph gatherPhase, skipLearn bool, merged []index.PieceSummary, pending []bool) error {
	if hb.Partition < 0 || hb.Partition >= ex.k {
		return nil
	}
	lease := ex.parts[hb.Partition]
	if hb.Epoch != lease.epoch {
		return nil
	}
	lease.noteAlive()
	if ex.workerTimeout > 0 && pending[hb.Partition] && hb.Sent > lease.replies {
		return ex.recoverPartition(hb.Partition, ph, skipLearn, merged)
	}
	return nil
}

// scanForDead re-dispatches every pending partition whose worker has been
// silent past the timeout. With remotely attaching workers (nothing spawned
// locally), a lease whose epoch never showed a sign of life is exempt: the
// worker fleet may simply not have attached yet, and re-dispatching would
// strand the only dispatched epoch on the slot a late worker will claim —
// such a run blocks until workers appear, exactly as before the
// fault-tolerance layer.
func (ex *Executor) scanForDead(ph gatherPhase, skipLearn bool, merged []index.PieceSummary, pending []bool) error {
	now := time.Now()
	for p, lease := range ex.parts {
		if !pending[p] || (!lease.seen && !ex.spawnLocal) || now.Sub(lease.lastSeen) <= ex.workerTimeout {
			continue
		}
		if err := ex.recoverPartition(p, ph, skipLearn, merged); err != nil {
			return err
		}
	}
	return nil
}

// recoverPartition re-leases partition p to a fresh worker slot under a
// bumped epoch and replays its protocol history: Init, every recorded
// batch, StartStageI — and, when the failure struck mid-stage-II, the
// merged weights. A stage-II replay skips weight learning: the Eq. 6 merge
// already ran, and every piece of this partition is in the merged vector
// because its original summaries were (unless the run never merged —
// SkipWeightMerge — where the local learning must be reproduced instead).
// The output stays byte-identical to a no-failure run either way.
func (ex *Executor) recoverPartition(p int, ph gatherPhase, skipLearn bool, merged []index.PieceSummary) error {
	if ex.WorkersLost() >= ex.maxRecoveries {
		return fmt.Errorf("distributed: partition %d lost its worker with the recovery budget (%d) spent", p, ex.maxRecoveries)
	}
	slot, err := ex.tr.AddWorker()
	if err != nil {
		return ex.runErr(err)
	}
	ex.lost.Add(1)
	mLeaseReplays.Inc()
	lease := ex.parts[p]
	lease.slot, lease.epoch, lease.replies = slot, lease.epoch+1, 0
	lease.lastSeen, lease.seen = time.Now(), false
	slog.Warn("distributed: worker declared dead, re-leasing partition",
		"run", ex.opts.RunID, "partition", p, "slot", slot, "epoch", lease.epoch,
		"recoveries", ex.WorkersLost(), "budget", ex.maxRecoveries)
	if ex.spawnLocal {
		ex.spawnWorker(slot)
	}
	err = ex.replayPartition(p, ph, skipLearn, merged)
	if errors.Is(err, ErrTimeout) && ex.workerTimeout > 0 {
		// The replacement itself stopped draining mid-replay — another
		// death, which spends more budget on yet another slot (the budget
		// check above bounds the recursion).
		return ex.recoverPartition(p, ph, skipLearn, merged)
	}
	if err != nil {
		return ex.runErr(err)
	}
	// The replay may have blocked long enough (up to SendTimeout waiting
	// for a spare) for the other workers' beacons to pile up unread — the
	// gather loop is the upward queue's consumer and it was here, not
	// there. Give every live lease a fresh window so queued-but-unread
	// liveness is not misread as silence and cascaded into bogus
	// recoveries; a genuinely dead peer just takes one extra timeout to
	// catch.
	now := time.Now()
	for _, l := range ex.parts {
		if l.seen {
			l.lastSeen = now
		}
	}
	return nil
}

// replayPartition re-sends partition p's protocol history to its current
// lease, up to the point phase ph has reached. The replay is bounded by the
// send deadline: a remote recovery slot must be claimed (and drained) by a
// spare within SendTimeout, or the replay fails — blocking indefinitely
// here would stall failure detection for every other partition, so the
// indefinite late-attach grace applies only to never-dispatched epochs.
func (ex *Executor) replayPartition(p int, ph gatherPhase, skipLearn bool, merged []index.PieceSummary) error {
	lease := ex.parts[p]
	slot := lease.slot
	if err := ex.sendLease(p, ex.initFor(p)); err != nil {
		return replayErr(p, slot, err)
	}
	for _, b := range lease.batches {
		if err := ex.shipChunks(p, b); err != nil {
			return replayErr(p, slot, err)
		}
	}
	if ph == phaseIngest {
		return nil // StartStageI has not been reached yet; finish sends it
	}
	replaySkipLearn := skipLearn
	if ph == phaseStageII && !ex.opts.SkipWeightMerge {
		replaySkipLearn = true
	}
	if err := ex.sendLease(p, StartStageI{SkipLearn: replaySkipLearn}); err != nil {
		return replayErr(p, slot, err)
	}
	if ph == phaseStageII {
		if err := ex.sendLease(p, MergedWeights{Merged: merged}); err != nil {
			return replayErr(p, slot, err)
		}
	}
	return nil
}

// replayErr contextualizes a recovery replay failure: the bare transport
// sentinel would otherwise surface as the whole run's error.
func replayErr(p, slot int, err error) error {
	return fmt.Errorf("distributed: replaying partition %d onto worker slot %d: %w", p, slot, err)
}

// replyLease extracts a protocol reply's lease stamp and error string.
func replyLease(m Message) (partition, epoch int, workerErr string, ok bool) {
	switch msg := m.(type) {
	case WeightSummaries:
		return msg.Partition, msg.Epoch, msg.Err, true
	case FusionResult:
		return msg.Partition, msg.Epoch, msg.Err, true
	default:
		return 0, 0, "", false
	}
}

// runErr maps a transport failure observed after cancellation back to the
// context's error; other failures pass through.
func (ex *Executor) runErr(err error) error {
	if ctxErr := ex.ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// workerHoster is implemented by transports that decide where their workers
// live. LocalWorkerTransport returns the transport executor-spawned worker
// goroutines must use (the loopback HTTP transport hands out a client bound
// to its URL so every message really crosses the wire), or nil when the
// workers attach from other processes and the executor must not spawn any.
type workerHoster interface {
	LocalWorkerTransport() Transport
}

// heartbeater emits a worker's liveness beacons while it holds a lease. The
// Sent counter rides along so the coordinator can spot replies lost in
// flight (see Heartbeat): the protocol loop bumps it only after a reply's
// send returned, so a beacon never claims a reply that is still behind it
// in the transport's upward queue.
type heartbeater struct {
	mu   sync.Mutex
	sent int
	quit chan struct{}
}

// start begins beaconing for a lease, replacing any previous beacon loop.
// The loop exits only via stop (the worker loop's lifetime bounds it): a
// failed send is tolerated, because over HTTP a beacon can fail transiently
// while the worker is perfectly healthy, and one lost beacon must not
// silence the worker for the rest of its incarnation — a genuinely dead
// transport (closed, or the fault layer crashed this worker) also fails the
// worker loop's own calls, which stops the beacon.
func (h *heartbeater) start(tr Transport, slot, partition, epoch int, interval time.Duration) {
	h.stop()
	h.mu.Lock()
	h.sent = 0
	h.mu.Unlock()
	if interval <= 0 {
		return
	}
	quit := make(chan struct{})
	h.quit = quit
	go func() {
		// Beacon immediately: the sooner the coordinator sees this lease
		// alive, the narrower the window in which a crash reads as
		// "never attached" rather than "died".
		tr.ToCoordinator(Heartbeat{Worker: slot, Partition: partition, Epoch: epoch})
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				h.mu.Lock()
				sent := h.sent
				h.mu.Unlock()
				tr.ToCoordinator(Heartbeat{Worker: slot, Partition: partition, Epoch: epoch, Sent: sent})
			}
		}
	}()
}

func (h *heartbeater) markSent() {
	h.mu.Lock()
	h.sent++
	h.mu.Unlock()
}

func (h *heartbeater) stop() {
	if h.quit != nil {
		close(h.quit)
		h.quit = nil
	}
}

// workerMain is one worker incarnation's receive loop, driven entirely by
// transport messages: adopt a lease on Init (starting the liveness beacon),
// ingest partition batches through an incremental dictionary encoder, run
// stage I on StartStageI, apply the merged weights and run stage II on
// MergedWeights, then exit. Messages stamped with an epoch other than the
// adopted lease's are discarded — they belong to a lease this incarnation
// does not hold. With optsFromInit (out-of-process workers) the pipeline
// options are reconstructed from the Init message instead of the opts
// argument.
//
// Ingest is bounded: each TupleBatch is interned on arrival (the partition
// table's values alias the dictionary's canonical strings, so the worker
// holds one copy of every distinct value and never the raw batch slices),
// and stage I streams blocks from an iterator. Recovery replays a
// partition's batches in their original order onto a fresh incarnation, so
// the incremental encoding — value IDs minted in row-major first-sight
// order — is byte-identical across re-leases.
func workerMain(ctx context.Context, tr Transport, w int, opts core.Options, optsFromInit bool) {
	var (
		schema    *dataset.Schema
		rs        []*rules.Rule
		senc      *dataset.StreamEncoder
		initErr   error
		ingestErr error
		tb        *dataset.Table
		ix        *index.Index
		stats     core.Stats
		inited    bool
		partition int
		epoch     int
		hb        heartbeater
	)
	defer hb.stop()
	for {
		m, err := tr.WorkerRecv(w)
		if err != nil {
			return // transport closed or this incarnation crashed
		}
		switch msg := m.(type) {
		case Init:
			if inited && msg.Epoch <= epoch {
				continue // stale lease
			}
			inited, partition, epoch = true, msg.Partition, msg.Epoch
			schema, rs, senc, tb, ix, initErr, ingestErr = nil, nil, nil, nil, nil, nil, nil
			stats = core.Stats{}
			if optsFromInit && msg.HasOpts {
				opts = coreOptsFromWire(msg.Opts)
			}
			slog.Debug("distributed: worker adopted lease",
				"run", opts.RunID, "slot", w, "partition", partition, "epoch", epoch)
			if s, err := dataset.NewSchema(msg.SchemaAttrs...); err != nil {
				initErr = err
			} else if r, err := rulesFromWire(msg.Rules); err != nil {
				initErr = err
			} else {
				schema, rs = s, r
				senc = dataset.NewStreamEncoder(schema, nil)
			}
			hb.start(tr, w, partition, epoch, time.Duration(msg.HeartbeatNS))
		case TupleBatch:
			if !inited || msg.Epoch != epoch || senc == nil || ingestErr != nil {
				continue
			}
			for i, row := range msg.Rows {
				if _, err := senc.AppendID(msg.IDs[i], row); err != nil {
					ingestErr = err
					break
				}
			}
		case StartStageI:
			if !inited || msg.Epoch != epoch {
				continue
			}
			t0 := time.Now()
			reply := WeightSummaries{Worker: w, Partition: partition, Epoch: epoch}
			switch {
			case initErr != nil:
				reply.Err = initErr.Error()
			case ingestErr != nil:
				reply.Err = ingestErr.Error()
			case schema == nil:
				reply.Err = "protocol: StartStageI before Init"
			default:
				tb = senc.Table()
				stats.Tuples = tb.Len()
				// Stream blocks from the iterator with AGP and learning fused
				// per block; RSC waits for the merged weights, as the
				// protocol requires.
				stop := core.ThroughLearn
				if msg.SkipLearn {
					stop = core.ThroughAGP
				}
				var err error
				if ix, err = core.StreamStageI(ctx, tb, senc.Encoded(), rs, opts, &stats, stop); err != nil {
					reply.Err = err.Error()
					break
				}
				stats.Blocks = len(ix.Blocks)
				if !msg.SkipLearn {
					reply.Summaries = ix.PieceSummaries()
				}
			}
			reply.ElapsedNS = time.Since(t0).Nanoseconds()
			if tr.ToCoordinator(reply) != nil || reply.Err != "" {
				return
			}
			hb.markSent()
		case MergedWeights:
			if !inited || msg.Epoch != epoch {
				continue
			}
			if ix == nil {
				tr.ToCoordinator(FusionResult{Worker: w, Partition: partition, Epoch: epoch, Err: "protocol: MergedWeights before stage I"})
				return
			}
			t0 := time.Now()
			ix.ApplyPieceWeights(msg.Merged)
			if err := core.StageRSC(ctx, ix, opts, &stats); err != nil {
				tr.ToCoordinator(FusionResult{Worker: w, Partition: partition, Epoch: epoch, Err: err.Error()})
				return
			}
			for _, b := range ix.Blocks {
				stats.Groups += len(b.Groups)
			}
			// The local FSCR output is what this worker would ship alone; the
			// coordinator re-derives the final table globally, so the local
			// pass contributes its (timed) cost, as on the real cluster.
			core.RunFSCREncoded(tb, ix.Encoded(), fusionBlocks(ix), opts, &stats)
			tr.ToCoordinator(FusionResult{
				Worker:    w,
				Partition: partition,
				Epoch:     epoch,
				PartSize:  tb.Len(),
				Blocks:    blocksToWire(ix),
				Stats:     stats,
				ElapsedNS: time.Since(t0).Nanoseconds(),
			})
			return
		}
	}
}

// reducePieceWeights is the coordinator half of Eq. 6: fold every worker's
// piece summaries (in worker order, for deterministic float accumulation)
// into support-weighted mean weights, emitted sorted by (rule, identity).
func reducePieceWeights(perWorker [][]index.PieceSummary) []index.PieceSummary {
	// A single worker's summaries are already the merged vector; returning
	// them verbatim keeps k=1 bit-identical to the stand-alone pipeline
	// ((n·w)/n can differ from w in the last ulp).
	if len(perWorker) == 1 {
		return index.CopySummaries(perWorker[0])
	}
	type agg struct {
		ruleID, key string
		values      []string
		sumNW, sumN float64
	}
	byKey := make(map[string]*agg)
	var order []string
	for _, sums := range perWorker {
		for _, s := range sums {
			k := summaryAggKey(&s)
			a := byKey[k]
			if a == nil {
				a = &agg{ruleID: s.RuleID, key: s.Key, values: s.IdentityValues()}
				byKey[k] = a
				order = append(order, k)
			}
			n := float64(s.Count)
			a.sumNW += n * s.Weight
			a.sumN += n
		}
	}
	sort.Strings(order)
	out := make([]index.PieceSummary, 0, len(order))
	for _, k := range order {
		a := byKey[k]
		if a.sumN <= 0 {
			continue
		}
		out = append(out, index.PieceSummary{
			RuleID: a.ruleID,
			Key:    a.key,
			Values: a.values,
			Count:  int(a.sumN),
			Weight: a.sumNW / a.sumN,
		})
	}
	return out
}

// summaryAggKey renders a summary's (rule, values) identity as a
// collision-free string key: the rule ID and each value are
// length-prefixed, so no component containing separator or digit bytes can
// alias a differently-split identity the way a plain join would.
func summaryAggKey(s *index.PieceSummary) string {
	var b strings.Builder
	vals := s.IdentityValues()
	n := len(s.RuleID) + 8
	for _, v := range vals {
		n += len(v) + 8
	}
	b.Grow(n)
	fmt.Fprintf(&b, "%d:", len(s.RuleID))
	b.WriteString(s.RuleID)
	for _, v := range vals {
		fmt.Fprintf(&b, "\x00%d:", len(v))
		b.WriteString(v)
	}
	return b.String()
}

// unionWireBlocks builds global FSCR inputs from every worker's shipped
// blocks: per rule, the tuple→piece assignments of all workers plus the
// union of their candidate pieces (deduplicated by interned identity,
// keeping the merged weight). Wire pieces arrive as strings (the transports
// are untouched by the dictionary encoding); the coordinator interns them
// locally into dict, the same dictionary the gather FSCR encodes the dirty
// rows into. Workers are folded in index order so candidate order is
// deterministic regardless of message arrival order.
func unionWireBlocks(frs []FusionResult, rs []*rules.Rule, dict *intern.Dict) []*core.FusionBlock {
	blocks := make([]*core.FusionBlock, len(rs))
	seen := make([]map[uint32]struct{}, len(rs))
	for ri, r := range rs {
		blocks[ri] = &core.FusionBlock{Rule: r, Attrs: r.Attrs(), Versions: make(map[int]*index.Piece)}
		seen[ri] = make(map[uint32]struct{})
	}
	for _, fr := range frs {
		for bi := range fr.Blocks {
			if bi >= len(blocks) {
				continue
			}
			fb := blocks[bi]
			for _, wp := range fr.Blocks[bi].Pieces {
				p := index.NewPiece(rs[bi], dict, wp.Reason, wp.Result)
				p.TupleIDs = wp.TupleIDs
				p.Weight = wp.Weight
				if _, dup := seen[bi][p.KeyID()]; !dup {
					seen[bi][p.KeyID()] = struct{}{}
					fb.Candidates = append(fb.Candidates, p)
				}
				for _, id := range wp.TupleIDs {
					fb.Versions[id] = p
				}
			}
		}
	}
	return blocks
}

package server

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distance"
	"mlnclean/internal/distributed"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/obs"
	"mlnclean/internal/tstore"
	"mlnclean/internal/wal"
)

// SessionState is a session's lifecycle position.
type SessionState string

const (
	// StateOpen accepts tuple batches.
	StateOpen SessionState = "open"
	// StateCleaning has a run in flight.
	StateCleaning SessionState = "cleaning"
	// StateDone holds a result.
	StateDone SessionState = "done"
	// StateFailed holds an error.
	StateFailed SessionState = "failed"
)

// ErrBusy is returned by Create when the manager is at MaxSessions; clients
// should back off and retry (the API maps it to 429).
var ErrBusy = fmt.Errorf("server: session limit reached, retry later")

// ErrNotFound is returned for unknown or already-closed session ids.
var ErrNotFound = fmt.Errorf("server: no such session")

// ErrBadInput wraps client-input validation failures (malformed rows), so
// the API can answer 400 instead of the 409 reserved for state conflicts.
var ErrBadInput = fmt.Errorf("server: bad input")

// ErrDurability wraps write-ahead-log failures: the mutation could not be
// made durable, so it was not acknowledged. The log is fail-stop — once it
// breaks, every subsequent durable mutation fails the same way (the API maps
// it to 500).
var ErrDurability = fmt.Errorf("server: durability failure")

// ErrInvalid wraps semantically invalid requests — well-formed JSON whose
// content the session cannot act on (a tuple PUT with the wrong arity, a row
// id outside the addressable range, an unparseable version or cursor). The
// API maps it to 422, distinct from the 400 reserved for undecodable bodies.
var ErrInvalid = fmt.Errorf("server: invalid request")

// CreateRequest are the parameters of a new cleaning session. Unknown JSON
// fields are ignored, as are unknown fields of a logged create record, so
// bodies and logs that still carry retired pipeline switches create the same
// session as before.
type CreateRequest struct {
	// Rules is the constraint set, one per line (internal/rules syntax).
	Rules string `json:"rules"`
	// Attrs is the table schema, in column order.
	Attrs []string `json:"attrs"`
	// Workers is the executor's worker count (default: manager config).
	Workers int `json:"workers,omitempty"`
	// Transport selects the executor transport: chan|gob|http (default chan).
	Transport string `json:"transport,omitempty"`
	// BatchSize is the tuples per partition shipment (default 1024).
	BatchSize int `json:"batch_size,omitempty"`
	// Seed fixes the partition centroid draw (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Tau is the AGP threshold τ (default 1).
	Tau int `json:"tau,omitempty"`
	// Metric names the distance metric: levenshtein|cosine.
	Metric string `json:"metric,omitempty"`
	// KeepDuplicates skips duplicate elimination in the result.
	KeepDuplicates bool `json:"keep_duplicates,omitempty"`
	// FreshWeights opts out of the weight cache: the session relearns from
	// its own tuples even when a cached vector exists. Cached weights are
	// learned from whatever data previous sessions streamed, so clients
	// cleaning a different dataset under the same rules and options set
	// this to trade the learning cost for history independence.
	FreshWeights bool `json:"fresh_weights,omitempty"`
}

// weightsFingerprint identifies the learning configuration a weight vector
// was produced under: anything that changes what the learner sees — τ and
// the metric shape grouping/AGP, worker count and seed shape the partitions,
// batch size shifts the streaming centroid draw. Weights cached under one
// fingerprint are never replayed into a session with another. Every field
// is normalized to its effective default first, so "tau omitted" and
// "tau:1" share a cache slot.
func (r CreateRequest) weightsFingerprint(workers int) string {
	tau := r.Tau
	if tau <= 0 {
		tau = 1 // core.Options default (TauSet is not exposed over the API)
	}
	seed := r.Seed
	if seed == 0 {
		seed = 1
	}
	batch := r.BatchSize
	if batch <= 0 {
		batch = 1024 // distributed.Options default
	}
	return fmt.Sprintf("tau=%d,metric=%s,workers=%d,seed=%d,batch=%d",
		tau, distance.MetricName(metricFor(r.Metric)), workers, seed, batch)
}

// Session is one client's cleaning conversation: a schema, an interned
// model, and a live executor accumulating streamed tuples until Clean.
//
// A session restored from the WAL in StateDone has no executor (ex is nil,
// cancel a no-op): the logged result re-serves as-is and the session accepts
// no further tuples, so nothing needs workers.
type Session struct {
	ID string
	// runID correlates the session's executor run across coordinator- and
	// worker-side log lines (and the /metrics story); generated at create,
	// persisted in the WAL, never an input to the cleaning outcome.
	runID string

	mu        sync.Mutex
	state     SessionState
	model     *Model
	fp        string // weight-cache fingerprint of this session's options
	rulesText string // original rules source, for the weight-vector WAL record
	schema    *dataset.Schema
	workers   int
	cached    bool // run started with cached weights (learning skipped)
	ex        *distributed.Executor
	cancel    context.CancelFunc
	tuples    int
	batches   [][][]string // streamed rows, per Submit call (audit + replay)
	created   time.Time
	lastUsed  time.Time
	res       *distributed.Result
	runErr    error
	repairs   []Repair
	rolled    *dataset.Table // pre-repair table, non-nil once rolled back
	lostDone  int            // WorkersLost of a WAL-restored result (ex == nil)
	wal       *walStore      // nil when durability is off

	// Incremental serving state, live once the session is done and mutated.
	// mutLog is the durable mutation sequence (restored from the WAL);
	// store/delta/versions are volatile caches rebuilt from batches + mutLog
	// on first use — the engine replay is deterministic, so result versions
	// re-serve byte-identically after a restart.
	coreOpts core.Options       // solo pipeline options the delta engine runs under
	store    *tstore.Store      // indexed tuple store mirroring the current table
	delta    *core.DeltaCleaner // incremental re-cleaning engine
	mutLog   []recMutation
	versions []*versionEntry // entry i serves result version i+2
}

// SessionInfo is a session's externally visible status snapshot.
// WorkersLost counts executor workers declared dead and recovered from so
// far — a session survives worker deaths (the partition is re-dispatched
// and the run continues), and the counter updates live while the session
// cleans, so pollers can watch a degraded-but-recovering run.
type SessionInfo struct {
	ID string `json:"id"`
	// RunID is the correlation tag the session's executor run (and its log
	// lines) carry; stable across restarts of a durable server.
	RunID         string       `json:"run_id"`
	State         SessionState `json:"state"`
	RulesHash     string       `json:"rules_hash"`
	Workers       int          `json:"workers"`
	WorkersLost   int          `json:"workers_lost"`
	Tuples        int          `json:"tuples"`
	WeightsCached bool         `json:"weights_cached"`
	Repairs       int          `json:"repairs,omitempty"`
	RolledBack    bool         `json:"rolled_back,omitempty"`
	// Versions is the number of result versions the session serves: 1 for
	// the batch clean, plus one per applied tuple mutation. Zero until the
	// session is done.
	Versions int `json:"versions,omitempty"`
	// Plan lists the rule planner's per-rule scan choices (rendered
	// plan-dump lines) once the run completes; empty while cleaning.
	Plan       []string  `json:"plan,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	LastUsedAt time.Time `json:"last_used_at"`
	Error      string    `json:"error,omitempty"`
}

// Info snapshots the session's status.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	lost := s.lostDone
	if s.ex != nil {
		lost = s.ex.WorkersLost()
	}
	info := SessionInfo{
		ID:            s.ID,
		RunID:         s.runID,
		State:         s.state,
		RulesHash:     s.model.Hash,
		Workers:       s.workers,
		WorkersLost:   lost,
		Tuples:        s.tuples,
		WeightsCached: s.cached,
		Repairs:       len(s.repairs),
		RolledBack:    s.rolled != nil,
		CreatedAt:     s.created,
		LastUsedAt:    s.lastUsed,
	}
	if s.res != nil {
		info.Plan = s.res.Plan
	}
	if s.state == StateDone {
		info.Versions = 1 + len(s.mutLog)
	}
	if s.runErr != nil {
		info.Error = s.runErr.Error()
	}
	return info
}

// Submit appends one batch of rows to the session's executor. Only valid
// while the session is open.
func (s *Session) Submit(rows [][]string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateOpen {
		return fmt.Errorf("server: session %s is %s, not accepting tuples", s.ID, s.state)
	}
	batch := dataset.NewTable(s.schema)
	for i, row := range rows {
		if _, err := batch.Append(row...); err != nil {
			return fmt.Errorf("%w: batch row %d: %v", ErrBadInput, i, err)
		}
	}
	if err := s.ex.Submit(batch); err != nil {
		return err
	}
	// Copy the rows before logging/retaining: the client's decoder owns the
	// originals. One record per Submit keeps batch boundaries, which the
	// streaming partitioner's capacity growth is sensitive to — replay must
	// ship the executor the identical shipment sequence.
	kept := make([][]string, len(rows))
	for i, row := range rows {
		kept[i] = append([]string(nil), row...)
	}
	if err := s.wal.append(recBatch{ID: s.ID, Rows: kept}); err != nil {
		return fmt.Errorf("%w: session %s: %v", ErrDurability, s.ID, err)
	}
	s.batches = append(s.batches, kept)
	s.tuples += len(rows)
	s.lastUsed = time.Now()
	return nil
}

// Clean starts the cleaning run asynchronously; poll Info until the state
// leaves StateCleaning, then fetch Result.
func (s *Session) Clean(cache *ModelCache) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateOpen {
		return fmt.Errorf("server: session %s is %s, cannot clean", s.ID, s.state)
	}
	if s.tuples == 0 {
		return fmt.Errorf("server: session %s has no tuples", s.ID)
	}
	if err := s.wal.append(recCleanStart{ID: s.ID}); err != nil {
		return fmt.Errorf("%w: session %s: %v", ErrDurability, s.ID, err)
	}
	s.state = StateCleaning
	s.lastUsed = time.Now()
	mCleansStarted.Inc()
	slog.Info("server: clean started",
		"session", s.ID, "run", s.runID, "tuples", s.tuples, "workers", s.workers, "cached_weights", s.cached)
	go func() {
		t0 := time.Now()
		res, err := s.ex.Run()
		if err != nil {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.lastUsed = time.Now()
			s.state = StateFailed
			s.runErr = err
			mCleansFailed.Inc()
			slog.Warn("server: clean failed", "session", s.ID, "run", s.runID, "err", err)
			return
		}
		// Compute the audit trail and log the completion — result, repairs,
		// and (when this run learned) the weight vector — before the done
		// state becomes observable: a poller that saw "done" must find the
		// result after a crash.
		reps := computeRepairs(s.schema, s.batches, res.Repaired, s.model.Rules, res.MergedWeights)
		s.wal.append(resultRecord(s, res))
		s.wal.append(recRepairs{ID: s.ID, Repairs: reps})
		if !s.cached && len(res.MergedWeights) > 0 {
			s.wal.append(recWeights{
				RulesHash:   s.model.Hash,
				RulesText:   s.rulesText,
				Fingerprint: s.fp,
				Summaries:   index.CopySummaries(res.MergedWeights),
			})
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		s.lastUsed = time.Now()
		s.state = StateDone
		s.res = res
		s.repairs = reps
		if !s.cached {
			cache.StoreWeights(s.model, s.fp, res.MergedWeights)
		}
		mCleansDone.Inc()
		slog.Info("server: clean done",
			"session", s.ID, "run", s.runID, "rows", res.Clean.Len(), "repairs", len(reps),
			"workers_lost", res.WorkersLost, "wall", time.Since(t0).Round(time.Millisecond))
	}()
	return nil
}

// resultRecord denormalizes a completed run into its WAL record: exactly
// what the result endpoint serves.
func resultRecord(s *Session, res *distributed.Result) recCleanDone {
	rec := recCleanDone{
		ID:          s.ID,
		Attrs:       res.Clean.Schema.Attrs(),
		Rows:        make([][]string, res.Clean.Len()),
		IDs:         make([]int, res.Clean.Len()),
		Stats:       res.Stats,
		Workers:     res.Workers,
		WorkersLost: res.WorkersLost,
		WallMS:      res.WallTime.Milliseconds(),
		Cached:      s.cached,
		Plan:        res.Plan,
	}
	for i, t := range res.Clean.Tuples {
		rec.Rows[i] = append([]string(nil), t.Values...)
		rec.IDs[i] = t.ID
	}
	return rec
}

// Repairs returns the completed run's ordered audit trail and whether the
// session has been rolled back.
func (s *Session) Repairs() ([]Repair, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateDone {
		return nil, false, fmt.Errorf("server: session %s is %s, repairs not ready", s.ID, s.state)
	}
	s.lastUsed = time.Now()
	return s.repairs, s.rolled != nil, nil
}

// Rollback restores the pre-repair table from the session's logged batches:
// after it, Result serves the original streamed values (flagged rolled
// back). Idempotent; only valid on a done session.
func (s *Session) Rollback() (*dataset.Table, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateDone {
		return nil, 0, fmt.Errorf("server: session %s is %s, cannot roll back", s.ID, s.state)
	}
	if s.rolled != nil {
		return s.rolled, len(s.repairs), nil
	}
	if len(s.mutLog) > 0 {
		// The audit trail rollback restores predates the mutations; reverting
		// it under them would serve a table no version ever described.
		return nil, 0, fmt.Errorf("server: session %s has %d tuple mutations, cannot roll back", s.ID, len(s.mutLog))
	}
	tb, err := preRepairTable(s.schema, s.batches)
	if err != nil {
		return nil, 0, err
	}
	if err := s.wal.append(recRollback{ID: s.ID}); err != nil {
		return nil, 0, fmt.Errorf("%w: session %s: %v", ErrDurability, s.ID, err)
	}
	s.rolled = tb
	s.lastUsed = time.Now()
	return tb, len(s.repairs), nil
}

// Restored returns the pre-repair table when the session has been rolled
// back, else nil (serve the cleaned result).
func (s *Session) Restored() *dataset.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rolled
}

// Result returns the completed run, or an error describing the session's
// actual state.
func (s *Session) Result() (*distributed.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateDone:
		s.lastUsed = time.Now()
		return s.res, nil
	case StateFailed:
		return nil, s.runErr
	default:
		return nil, fmt.Errorf("server: session %s is %s, result not ready", s.ID, s.state)
	}
}

// close cancels the session's executor context; the executor's watcher tears
// the transport down and the worker goroutines drain out. Idempotent.
func (s *Session) close() {
	s.cancel()
}

// ManagerConfig bounds the session manager.
type ManagerConfig struct {
	// MaxSessions is the concurrent-session cap; Create returns ErrBusy at
	// the cap (backpressure). Default 16.
	MaxSessions int
	// IdleTimeout evicts sessions untouched for this long (cleaning
	// sessions are exempt while the run is in flight). Default 10m.
	IdleTimeout time.Duration
	// SweepInterval is how often the eviction sweep runs. Default
	// IdleTimeout/4, floored at 100ms.
	SweepInterval time.Duration
	// DefaultWorkers is the executor worker count when a session does not
	// choose one. Default 2.
	DefaultWorkers int
	// HeartbeatInterval/WorkerTimeout tune session executors' failure
	// detection (see distributed.Options); zero keeps the executor
	// defaults, negative disables the respective mechanism.
	HeartbeatInterval time.Duration
	WorkerTimeout     time.Duration
	// TransportFor resolves a session's transport name; nil uses
	// distributed.TransportByName. Tests swap in fault-injecting wrappers
	// to exercise sessions surviving worker deaths.
	TransportFor func(name string) (distributed.TransportFactory, error)
	// DataDir enables durability: every session mutation is written to a
	// write-ahead log under this directory before it is acknowledged, and a
	// restart on the same directory replays it — sessions rebuilt, model
	// cache warmed, completed results re-served byte-identically. Empty
	// (and WALFS nil) means in-memory only, the pre-durability behavior.
	DataDir string
	// WALFS overrides the log's filesystem (tests inject the fault-injecting
	// crash-simulating wal.MemFS). Takes precedence over DataDir.
	WALFS wal.FS
	// SnapshotEvery compacts the log into a snapshot every N records
	// (default 256). Smaller is tighter disk usage, larger is fewer
	// compaction pauses.
	SnapshotEvery int
	// WALSegmentSize overrides the log's segment rotation size (default 4
	// MiB); mainly for tests.
	WALSegmentSize int64
}

func (c ManagerConfig) withDefaults() ManagerConfig {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.IdleTimeout / 4
		if c.SweepInterval < 100*time.Millisecond {
			c.SweepInterval = 100 * time.Millisecond
		}
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 2
	}
	if c.TransportFor == nil {
		c.TransportFor = distributed.TransportByName
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 256
	}
	return c
}

// Manager owns the live sessions: bounded creation, lookup, idle eviction,
// and shutdown. All methods are safe for concurrent use.
type Manager struct {
	cfg   ManagerConfig
	cache *ModelCache
	wal   *walStore // nil when durability is off
	rec   *RecoverySummary

	mu       sync.Mutex
	sessions map[string]*Session
	seq      int
	closed   bool

	stopSweep chan struct{}
	sweepDone chan struct{}
}

// NewManager starts a session manager (and its eviction sweeper) over the
// given model cache. With durability configured (DataDir or WALFS) it first
// replays the write-ahead log: rebuilds logged sessions, warms the model
// cache with logged weight vectors, restarts interrupted cleans, and
// positions the log for appending.
func NewManager(cfg ManagerConfig, cache *ModelCache) (*Manager, error) {
	m := &Manager{
		cfg:       cfg.withDefaults(),
		cache:     cache,
		sessions:  make(map[string]*Session),
		stopSweep: make(chan struct{}),
		sweepDone: make(chan struct{}),
	}
	fs, err := openWAL(m.cfg)
	if err != nil {
		return nil, err
	}
	if fs != nil {
		if err := m.replay(fs); err != nil {
			return nil, err
		}
	}
	go m.sweep()
	return m, nil
}

// Recovery reports what the manager replayed at startup; nil when
// durability is off.
func (m *Manager) Recovery() *RecoverySummary { return m.rec }

// replay opens the log on fs, folds its surviving records, and rebuilds the
// live world. Sessions restore in creation order; restored sessions do not
// count against MaxSessions (they were admitted before the restart).
func (m *Manager) replay(fs wal.FS) error {
	lg, rec, err := wal.Open(fs, wal.Options{
		SegmentSize: m.cfg.WALSegmentSize,
		Validate: func(p []byte) error {
			_, err := decodeRecord(p)
			return err
		},
	})
	if err != nil {
		return err
	}
	st := newReplayState()
	if rec.Snapshot != nil {
		if st, err = decodeState(rec.Snapshot); err != nil {
			lg.Close()
			return err
		}
	}
	for _, p := range rec.Records {
		r, err := decodeRecord(p)
		if err != nil {
			continue // unreachable: the Validate hook truncated these
		}
		st.apply(r)
	}
	sum := &RecoverySummary{
		SessionsTombstoned: st.Tombstones,
		WeightVectors:      len(st.Weights),
		Records:            len(rec.Records),
		TruncatedBytes:     rec.TruncatedBytes,
	}
	// Warm the model cache: repeat workloads (and restarted cleans below)
	// start from the logged weight vectors and skip learning.
	for _, w := range st.Weights {
		if model, _, err := m.cache.Intern(w.RulesText); err == nil {
			m.cache.StoreWeights(model, w.Fingerprint, w.Summaries)
		}
	}
	m.seq = st.Seq
	var restart []*Session
	for _, id := range st.Order {
		s, err := m.restore(id, st.Sessions[id])
		if err != nil {
			sum.SessionsFailed++
			continue
		}
		m.sessions[id] = s
		sum.SessionsReplayed++
		if st.Sessions[id].Cleaning {
			restart = append(restart, s)
		}
	}
	m.wal = &walStore{log: lg, st: st, every: m.cfg.SnapshotEvery}
	m.rec = sum
	// Attach the log only now: the restores above must not re-log the
	// records they were built from.
	for _, s := range m.sessions {
		s.wal = m.wal
	}
	// Restart interrupted cleans from their logged batches. The re-logged
	// clean-start record is idempotent under replay.
	for _, s := range restart {
		if err := s.Clean(m.cache); err == nil {
			sum.CleansRestarted++
		}
	}
	return nil
}

// restore rebuilds one session from its folded log state. Open and
// mid-clean sessions get a fresh executor re-fed the logged batches
// (boundaries preserved); done sessions carry the logged result directly and
// need no executor.
func (m *Manager) restore(id string, snap *sessSnap) (*Session, error) {
	model, _, err := m.cache.Intern(snap.Req.Rules)
	if err != nil {
		return nil, err
	}
	schema, err := dataset.NewSchema(snap.Req.Attrs...)
	if err != nil {
		return nil, err
	}
	workers := snap.Req.Workers
	if workers <= 0 {
		workers = m.cfg.DefaultWorkers
	}
	now := time.Now()
	runID := snap.RunID
	if runID == "" {
		runID = obs.NewRunID() // pre-run-ID log: tag the restored session afresh
	}
	s := &Session{
		ID:        id,
		runID:     runID,
		model:     model,
		fp:        snap.Req.weightsFingerprint(workers),
		rulesText: snap.Req.Rules,
		schema:    schema,
		workers:   workers,
		batches:   snap.Batches,
		repairs:   snap.Repairs,
		created:   time.Unix(0, snap.Created),
		lastUsed:  now,
		coreOpts:  soloCoreOptions(snap.Req),
		mutLog:    snap.Mutations,
	}
	for _, b := range snap.Batches {
		s.tuples += len(b)
	}
	if snap.RolledBack {
		if s.rolled, err = preRepairTable(schema, snap.Batches); err != nil {
			return nil, err
		}
	}
	if done := snap.Done; done != nil {
		res, err := resultFromRecord(done)
		if err != nil {
			return nil, err
		}
		s.state = StateDone
		s.res = res
		s.cached = done.Cached
		s.lostDone = done.WorkersLost
		s.cancel = func() {}
		return s, nil
	}

	// Open (or interrupted mid-clean): rebuild the executor exactly like
	// Create, replaying the logged batches shipment by shipment.
	factory, err := m.cfg.TransportFor(snap.Req.Transport)
	if err != nil {
		return nil, err
	}
	var preset []index.PieceSummary
	if !snap.Req.FreshWeights {
		preset = m.cache.TakeWeights(model, s.fp)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ex, err := distributed.NewExecutorContext(ctx, schema, model.Rules, executorOptions(snap.Req, workers, factory, preset, model, m.cfg, runID))
	if err != nil {
		cancel()
		return nil, err
	}
	for bi, b := range snap.Batches {
		batch := dataset.NewTable(schema)
		for _, row := range b {
			if _, err := batch.Append(row...); err != nil {
				cancel()
				return nil, fmt.Errorf("server: replay session %s batch %d: %w", id, bi, err)
			}
		}
		if err := ex.Submit(batch); err != nil {
			cancel()
			return nil, fmt.Errorf("server: replay session %s batch %d: %w", id, bi, err)
		}
	}
	s.state = StateOpen
	s.cached = len(preset) > 0
	s.ex = ex
	s.cancel = cancel
	return s, nil
}

// resultFromRecord rebuilds a servable result from its log record.
func resultFromRecord(rec *recCleanDone) (*distributed.Result, error) {
	schema, err := dataset.NewSchema(rec.Attrs...)
	if err != nil {
		return nil, err
	}
	if len(rec.Rows) != len(rec.IDs) {
		return nil, fmt.Errorf("server: result record: %d rows, %d ids", len(rec.Rows), len(rec.IDs))
	}
	tb := dataset.NewTable(schema)
	for i, row := range rec.Rows {
		t, err := tb.Append(row...)
		if err != nil {
			return nil, err
		}
		t.ID = rec.IDs[i]
	}
	return &distributed.Result{
		Clean:       tb,
		Workers:     rec.Workers,
		WorkersLost: rec.WorkersLost,
		WallTime:    time.Duration(rec.WallMS) * time.Millisecond,
		Plan:        rec.Plan,
		Stats:       rec.Stats,
	}, nil
}

// executorOptions derives a session executor's options from its create
// request — shared by Create and WAL replay, which must configure the
// executor identically for the replayed run to be deterministic (runID is
// exempt: it only tags log lines, never the outcome).
func executorOptions(req CreateRequest, workers int, factory distributed.TransportFactory, preset []index.PieceSummary, model *Model, cfg ManagerConfig, runID string) distributed.Options {
	opts := distributed.Options{
		Workers:           workers,
		RunID:             runID,
		Seed:              req.Seed,
		Transport:         factory,
		BatchSize:         req.BatchSize,
		PresetWeights:     preset,
		HeartbeatInterval: cfg.HeartbeatInterval,
		WorkerTimeout:     cfg.WorkerTimeout,
		// Per-session dictionary over the model's frozen vocabulary: the
		// coordinator interns streamed tuples into it (partitioning + gather
		// FSCR); values already named by the model's rules or cached weight
		// vectors resolve to base IDs without per-session re-interning.
		Dict: intern.NewDictWithBase(model.Vocabulary()),
		Core: core.Options{
			Tau:            req.Tau,
			Metric:         metricFor(req.Metric),
			KeepDuplicates: req.KeepDuplicates,
		},
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return opts
}

// soloCoreOptions derives the options the session's delta engine cleans
// under: the request's pipeline knobs that shape outcomes (τ, metric,
// duplicate handling), without the transport-shaped ones. Result versions ≥2
// are defined as the single-node pipeline over the mutated table, so every
// transport serves the same bytes.
func soloCoreOptions(req CreateRequest) core.Options {
	return core.Options{
		Tau:            req.Tau,
		Metric:         metricFor(req.Metric),
		KeepDuplicates: req.KeepDuplicates,
	}
}

// Create opens a new session: interns the rule set, validates it against the
// schema, and starts an executor seeded with cached weights when the model
// has them. Returns ErrBusy at the session cap. With durability on, the
// session is acknowledged only after its create record is on disk.
func (m *Manager) Create(req CreateRequest) (*Session, error) {
	model, _, err := m.cache.Intern(req.Rules)
	if err != nil {
		return nil, err
	}
	schema, err := dataset.NewSchema(req.Attrs...)
	if err != nil {
		return nil, err
	}
	for _, r := range model.Rules {
		if err := r.Validate(schema); err != nil {
			return nil, err
		}
	}
	workers := req.Workers
	if workers <= 0 {
		workers = m.cfg.DefaultWorkers
	}
	factory, err := m.cfg.TransportFor(req.Transport)
	if err != nil {
		return nil, err
	}
	fp := req.weightsFingerprint(workers)
	var preset []index.PieceSummary
	if !req.FreshWeights {
		preset = m.cache.TakeWeights(model, fp)
	}
	runID := obs.NewRunID()
	opts := executorOptions(req, workers, factory, preset, model, m.cfg, runID)

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, fmt.Errorf("server: manager shut down")
	}
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.mu.Unlock()
		return nil, ErrBusy
	}
	m.seq++
	id := fmt.Sprintf("s-%06d", m.seq)
	// Reserve the slot before the (potentially slow) executor spin-up.
	m.sessions[id] = nil
	m.mu.Unlock()

	ctx, cancel := context.WithCancel(context.Background())
	ex, err := distributed.NewExecutorContext(ctx, schema, model.Rules, opts)
	if err != nil {
		cancel()
		m.mu.Lock()
		delete(m.sessions, id)
		m.mu.Unlock()
		return nil, err
	}
	now := time.Now()
	s := &Session{
		ID:        id,
		runID:     runID,
		state:     StateOpen,
		model:     model,
		fp:        fp,
		rulesText: req.Rules,
		schema:    schema,
		workers:   workers,
		cached:    len(preset) > 0,
		ex:        ex,
		cancel:    cancel,
		created:   now,
		lastUsed:  now,
		wal:       m.wal,
		coreOpts:  soloCoreOptions(req),
	}
	// Log the create before the session becomes reachable: an acknowledged
	// session id must survive a crash.
	if err := s.wal.append(recCreate{ID: id, Req: req, Created: now.UnixNano(), RunID: runID}); err != nil {
		cancel()
		m.mu.Lock()
		delete(m.sessions, id)
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %v", ErrDurability, err)
	}
	m.mu.Lock()
	if _, reserved := m.sessions[id]; !reserved || m.closed {
		// The reservation was swept away by Shutdown (or an explicit Close)
		// while the executor was spinning up. The create was already logged;
		// tombstone it (best-effort) so the unacknowledged session does not
		// resurrect on replay.
		m.mu.Unlock()
		cancel()
		s.wal.append(recTombstone{ID: id})
		return nil, fmt.Errorf("server: manager shut down")
	}
	m.sessions[id] = s
	m.mu.Unlock()
	mSessionsCreated.Inc()
	slog.Info("server: session created",
		"session", id, "run", runID, "rules_hash", model.Hash, "workers", workers, "cached_weights", s.cached)
	return s, nil
}

// Get looks a session up; ErrNotFound for unknown or evicted ids.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.sessions[id]
	if s == nil {
		return nil, ErrNotFound
	}
	return s, nil
}

// Close tears a session down and frees its slot. Closing twice (or closing
// an evicted session) returns ErrNotFound; the teardown itself is
// idempotent. The tombstone is logged before the session disappears, so an
// acknowledged close can never resurrect on replay.
func (m *Manager) Close(id string) error {
	m.mu.Lock()
	s := m.sessions[id]
	m.mu.Unlock()
	if s == nil {
		return ErrNotFound
	}
	if err := m.wal.append(recTombstone{ID: id}); err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	m.mu.Lock()
	s = m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if s == nil {
		// A concurrent Close won the race after both logged tombstones;
		// replayState.apply ignores the duplicate.
		return ErrNotFound
	}
	s.close()
	mSessionsClosed.Inc()
	slog.Debug("server: session closed", "session", id, "run", s.runID)
	return nil
}

// Len is the live session count.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// List snapshots every live session's status, for the stats endpoint.
func (m *Manager) List() []SessionInfo {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			ss = append(ss, s)
		}
	}
	m.mu.Unlock()
	out := make([]SessionInfo, len(ss))
	for i, s := range ss {
		out[i] = s.Info()
	}
	return out
}

// EvictIdle closes every session idle past the timeout as of now, returning
// how many were evicted. Sessions mid-clean are exempt — their lastUsed is
// refreshed when the run completes. Each eviction logs its tombstone before
// the session is removed, so an evicted session cannot resurrect on replay.
func (m *Manager) EvictIdle(now time.Time) int {
	m.mu.Lock()
	var candidates []*Session
	for _, s := range m.sessions {
		if s == nil {
			continue
		}
		info := s.Info()
		if info.State == StateCleaning {
			continue
		}
		if now.Sub(info.LastUsedAt) > m.cfg.IdleTimeout {
			candidates = append(candidates, s)
		}
	}
	m.mu.Unlock()
	evicted := 0
	for _, s := range candidates {
		if err := m.wal.append(recTombstone{ID: s.ID}); err != nil {
			// Durability broke (fail-stop): keep the session rather than
			// evict one whose tombstone is not on disk.
			continue
		}
		m.mu.Lock()
		_, live := m.sessions[s.ID]
		delete(m.sessions, s.ID)
		m.mu.Unlock()
		if live {
			s.close()
			evicted++
			mSessionsEvicted.Inc()
			slog.Info("server: session evicted idle", "session", s.ID, "run", s.runID)
		}
	}
	return evicted
}

func (m *Manager) sweep() {
	defer close(m.sweepDone)
	tick := time.NewTicker(m.cfg.SweepInterval)
	defer tick.Stop()
	for {
		select {
		case now := <-tick.C:
			m.EvictIdle(now)
		case <-m.stopSweep:
			return
		}
	}
}

// Shutdown stops the sweeper and closes every session. With durability on,
// the WAL is flushed, fsynced, and closed — no tombstones are written, so a
// restart on the same data directory resumes the sessions. Idempotent.
func (m *Manager) Shutdown() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	victims := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		if s != nil {
			victims = append(victims, s)
		}
	}
	m.sessions = make(map[string]*Session)
	m.mu.Unlock()
	close(m.stopSweep)
	<-m.sweepDone
	for _, s := range victims {
		s.close()
	}
	m.wal.close()
}

// metricFor resolves a metric name, defaulting like the CLI does.
func metricFor(name string) distance.Metric {
	if name == "" {
		name = "levenshtein"
	}
	return distance.ByName(name)
}

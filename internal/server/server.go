package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/obs"
)

// The session API, all JSON (full reference in API.md):
//
//	POST   /v1/sessions                     create a session (rules text + schema)
//	POST   /v1/sessions/{id}/tuples         stream one batch of rows
//	POST   /v1/sessions/{id}/clean          start the cleaning run (async, 202)
//	GET    /v1/sessions/{id}                poll session status
//	PUT    /v1/sessions/{id}/tuples/{row}   insert or replace one tuple (new version)
//	DELETE /v1/sessions/{id}/tuples/{row}   delete one tuple (new version)
//	GET    /v1/sessions/{id}/result         cleaned table + stats (?version=N)
//	GET    /v1/sessions/{id}/repairs        repair audit trail (?version=N&limit=&cursor=)
//	POST   /v1/sessions/{id}/rollback       restore pre-repair values
//	DELETE /v1/sessions/{id}                close the session (204; second call 404)
//	GET    /v1/stats                        sessions + model-cache counters
//	GET    /healthz                         liveness
//	GET    /metrics                         Prometheus text exposition
//
// Errors are a uniform envelope, {"error":{"code","message"}}: bad_request
// (400, undecodable body), not_found (404), conflict (409, wrong session
// state), invalid (422, well-formed but semantically bad input), busy (429,
// at the session cap, with Retry-After), durability/internal (500).
//
// Versioning: a done session's result is version 1; every acknowledged tuple
// mutation mints the next version. GET result/repairs serve the latest
// version by default and any older one via ?version=N — versions are
// immutable and re-serve byte-identically, including after a restart on the
// same data directory (the mutation log is replayed through the
// deterministic delta engine).
//
// Durability: with ManagerConfig.DataDir set, every mutation above is
// written to a write-ahead log before the 2xx goes out, and a restart on the
// same directory replays it — live sessions resume, completed results (and
// their audit trails) re-serve byte-identically, closed or evicted sessions
// stay gone.

// Server is the serving subsystem: a session manager plus a model cache
// behind an http.Handler.
type Server struct {
	mgr     *Manager
	cache   *ModelCache
	mux     *http.ServeMux
	started time.Time
}

// New builds a Server over a fresh manager and model cache, replaying the
// write-ahead log first when the config enables durability.
func New(cfg ManagerConfig) (*Server, error) {
	cache := NewModelCache()
	mgr, err := NewManager(cfg, cache)
	if err != nil {
		return nil, err
	}
	s := &Server{
		mgr:     mgr,
		cache:   cache,
		mux:     http.NewServeMux(),
		started: time.Now(),
	}
	// Every route registers through instrument, so each gets its own latency
	// histogram series plus the shared status-class counters.
	route := func(pattern, name string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, instrument(name, h))
	}
	route("POST /v1/sessions", "create", s.handleCreate)
	route("GET /v1/sessions/{id}", "status", s.handleStatus)
	route("POST /v1/sessions/{id}/tuples", "tuples", s.handleTuples)
	route("PUT /v1/sessions/{id}/tuples/{row}", "tuple-put", s.handleTuplePut)
	route("DELETE /v1/sessions/{id}/tuples/{row}", "tuple-delete", s.handleTupleDelete)
	route("POST /v1/sessions/{id}/clean", "clean", s.handleClean)
	route("GET /v1/sessions/{id}/result", "result", s.handleResult)
	route("GET /v1/sessions/{id}/repairs", "repairs", s.handleRepairs)
	route("POST /v1/sessions/{id}/rollback", "rollback", s.handleRollback)
	route("DELETE /v1/sessions/{id}", "delete", s.handleDelete)
	route("GET /v1/stats", "stats", s.handleStats)
	route("GET /healthz", "healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	// The exposition endpoint itself is not instrumented: a scrape should
	// not perturb the series it reads.
	s.mux.Handle("GET /metrics", obs.Default().Handler())
	bindGauges(s)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Manager exposes the session manager (for shutdown and tests).
func (s *Server) Manager() *Manager { return s.mgr }

// Cache exposes the model cache (for tests and stats).
func (s *Server) Cache() *ModelCache { return s.cache }

// Recovery reports what startup replayed from the data directory; nil when
// durability is off.
func (s *Server) Recovery() *RecoverySummary { return s.mgr.Recovery() }

// Shutdown closes every session and stops the eviction sweeper.
func (s *Server) Shutdown() { s.mgr.Shutdown() }

// Machine-readable error codes, one per failure family. Every non-2xx
// response is the same envelope: {"error":{"code":..., "message":...}}.
const (
	codeBadRequest = "bad_request" // 400: body could not be decoded
	codeNotFound   = "not_found"   // 404: no such session / row / version
	codeConflict   = "conflict"    // 409: wrong session state for the call
	codeInvalid    = "invalid"     // 422: well-formed but semantically bad input
	codeBusy       = "busy"        // 429: at the session cap, retry later
	codeDurability = "durability"  // 500: WAL rejected the record, not acknowledged
	codeInternal   = "internal"    // 500: anything else on the server's side
)

// errorDetail is the uniform error payload.
type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

type errorBody struct {
	Error errorDetail `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: err.Error()}})
}

// writeSessionError maps a session-layer error to its envelope: the sentinel
// wraps pick the family, anything else is a session-state conflict.
func writeSessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, codeNotFound, err)
	case errors.Is(err, ErrInvalid):
		writeError(w, http.StatusUnprocessableEntity, codeInvalid, err)
	case errors.Is(err, ErrBadInput):
		writeError(w, http.StatusBadRequest, codeBadRequest, err)
	case errors.Is(err, ErrDurability):
		writeError(w, http.StatusInternalServerError, codeDurability, err)
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, codeBusy, err)
	default:
		writeError(w, http.StatusConflict, codeConflict, err)
	}
}

// Request-body caps: rules/flags are small; tuple batches may be large but
// must still be bounded so a single request cannot exhaust memory.
const (
	maxCreateBody = 1 << 20  // 1 MiB
	maxTuplesBody = 64 << 20 // 64 MiB
)

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxCreateBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad create request: %w", err))
		return
	}
	sess, err := s.mgr.Create(req)
	if err != nil {
		if errors.Is(err, ErrBusy) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, codeBusy, err)
			return
		}
		if errors.Is(err, ErrDurability) {
			writeError(w, http.StatusInternalServerError, codeDurability, err)
			return
		}
		// Unparseable rules, a bad schema, an unknown transport: the request
		// was decodable but unusable.
		writeError(w, http.StatusUnprocessableEntity, codeInvalid, err)
		return
	}
	writeJSON(w, http.StatusCreated, sess.Info())
}

// session resolves the {id} path segment, writing the 404 itself on a miss.
func (s *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	sess, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, err)
		return nil
	}
	return sess
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.Info())
	}
}

// TuplesRequest is one streamed batch of rows in schema order.
type TuplesRequest struct {
	Rows [][]string `json:"rows"`
}

// TuplesResponse acknowledges a batch.
type TuplesResponse struct {
	Received int `json:"received"`
	Total    int `json:"total"`
}

func (s *Server) handleTuples(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	var req TuplesRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxTuplesBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad tuples request: %w", err))
		return
	}
	// Malformed rows are the client's fault (400); a durability failure is
	// ours (500, the batch is NOT stored); everything else is a session-state
	// conflict (409), worth retrying after a state change.
	if err := sess.Submit(req.Rows); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, TuplesResponse{Received: len(req.Rows), Total: sess.Info().Tuples})
}

func (s *Server) handleClean(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	if err := sess.Clean(s.cache); err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, sess.Info())
}

// ResultResponse is the cleaned table plus run metadata.
type ResultResponse struct {
	// Version identifies which result this is: 1 for the batch run, one more
	// per applied tuple mutation. A given version always serves the same
	// bytes, including after a restart.
	Version int        `json:"version"`
	Attrs   []string   `json:"attrs"`
	Rows    [][]string `json:"rows"`
	// IDs are the cleaned tuples' original table ids (gaps mark removed
	// duplicates).
	IDs   []int      `json:"ids"`
	Stats core.Stats `json:"stats"`
	// Workers is the run's worker count; WorkersLost how many of them died
	// and were recovered from mid-run (the result is unaffected — recovery
	// re-runs the lost partitions deterministically). Versions ≥ 2 are
	// computed by the in-process delta engine: one worker, nothing lost.
	Workers       int   `json:"workers"`
	WorkersLost   int   `json:"workers_lost"`
	WeightsCached bool  `json:"weights_cached"`
	WallMS        int64 `json:"wall_ms"`
	// RolledBack marks that the session's repairs were reverted: Rows/IDs
	// are the original streamed values, not the cleaned output.
	RolledBack bool `json:"rolled_back,omitempty"`
	// Plan lists the selectivity planner's per-rule scan choices as rendered
	// plan-dump lines (why each rule's evaluation was ordered the way it
	// was).
	Plan []string `json:"plan,omitempty"`
	// Delta reports how much of version N-1's work this version reused;
	// absent on version 1.
	Delta *DeltaSummary `json:"delta,omitempty"`
}

// DeltaSummary is the wire form of one incremental re-clean's accounting.
type DeltaSummary struct {
	DirtyBlocks   int `json:"dirty_blocks"`
	ReusedBlocks  int `json:"reused_blocks"`
	RefusedTuples int `json:"refused_tuples"`
	ReusedTuples  int `json:"reused_tuples"`
}

func deltaSummary(d core.DeltaStats) *DeltaSummary {
	return &DeltaSummary{
		DirtyBlocks:   d.DirtyBlocks,
		ReusedBlocks:  d.ReusedBlocks,
		RefusedTuples: d.RefusedTuples,
		ReusedTuples:  d.ReusedTuples,
	}
}

// version resolves the ?version query parameter against a session: absent
// means latest, 1 is the batch result, anything non-integer or < 1 is 422
// (the 404 for a too-new version comes later, from Versioned). Writes the
// error itself; ok reports whether to proceed.
func (s *Server) version(w http.ResponseWriter, r *http.Request, sess *Session) (int, bool) {
	q := r.URL.Query().Get("version")
	if q == "" {
		v := sess.LatestVersion()
		if v == 0 {
			v = 1 // not done yet: fall through to the legacy path's 409
		}
		return v, true
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 1 {
		writeError(w, http.StatusUnprocessableEntity, codeInvalid,
			fmt.Errorf("%w: version %q must be a positive integer", ErrInvalid, q))
		return 0, false
	}
	return v, true
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	v, ok := s.version(w, r, sess)
	if !ok {
		return
	}
	if v >= 2 {
		entry, err := sess.Versioned(v)
		if err != nil {
			writeSessionError(w, err)
			return
		}
		serve := entry.res.Clean
		resp := ResultResponse{
			Version: v,
			Attrs:   serve.Schema.Attrs(),
			Rows:    make([][]string, serve.Len()),
			IDs:     make([]int, serve.Len()),
			Stats:   entry.res.Stats,
			Workers: 1,
			Delta:   deltaSummary(entry.delta),
		}
		for i, t := range serve.Tuples {
			resp.Rows[i] = t.Values
			resp.IDs[i] = t.ID
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	res, err := sess.Result()
	if err != nil {
		writeSessionError(w, err)
		return
	}
	info := sess.Info()
	serve := res.Clean
	rolled := false
	if tb := sess.Restored(); tb != nil {
		serve, rolled = tb, true
	}
	resp := ResultResponse{
		Version:       1,
		Attrs:         serve.Schema.Attrs(),
		Rows:          make([][]string, serve.Len()),
		IDs:           make([]int, serve.Len()),
		Stats:         res.Stats,
		Workers:       res.Workers,
		WorkersLost:   res.WorkersLost,
		WeightsCached: info.WeightsCached,
		WallMS:        res.WallTime.Milliseconds(),
		RolledBack:    rolled,
		Plan:          res.Plan,
	}
	for i, t := range serve.Tuples {
		resp.Rows[i] = t.Values
		resp.IDs[i] = t.ID
	}
	writeJSON(w, http.StatusOK, resp)
}

// RepairsResponse is one page of the session's ordered repair audit trail.
type RepairsResponse struct {
	Session string `json:"session"`
	// Version is the result version this trail explains.
	Version int `json:"version"`
	// Total is the trail's full length; Repairs is the requested window of it
	// (the whole trail when the request did not paginate).
	Total   int      `json:"total"`
	Repairs []Repair `json:"repairs"`
	// NextCursor is the cursor of the page after this one; absent on the last
	// page and on unpaginated responses.
	NextCursor int  `json:"next_cursor,omitempty"`
	RolledBack bool `json:"rolled_back,omitempty"`
}

// pageParam parses a non-negative integer query parameter, writing the 422
// itself on garbage.
func pageParam(w http.ResponseWriter, r *http.Request, name string) (int, bool) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return 0, true
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 || (name == "limit" && n == 0) {
		writeError(w, http.StatusUnprocessableEntity, codeInvalid,
			fmt.Errorf("%w: %s %q must be a positive integer", ErrInvalid, name, q))
		return 0, false
	}
	return n, true
}

func (s *Server) handleRepairs(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	v, ok := s.version(w, r, sess)
	if !ok {
		return
	}
	limit, ok := pageParam(w, r, "limit")
	if !ok {
		return
	}
	cursor, ok := pageParam(w, r, "cursor")
	if !ok {
		return
	}
	var reps []Repair
	var rolled bool
	if v >= 2 {
		entry, err := sess.Versioned(v)
		if err != nil {
			writeSessionError(w, err)
			return
		}
		reps = entry.repairs
	} else {
		var err error
		reps, rolled, err = sess.Repairs()
		if err != nil {
			writeSessionError(w, err)
			return
		}
	}
	resp := RepairsResponse{Session: sess.ID, Version: v, Total: len(reps), RolledBack: rolled}
	// Window the trail: cursor past the end is an empty page, not an error
	// (the client walked off the tail); a full page that ends short of the
	// total links the next one.
	if cursor > len(reps) {
		cursor = len(reps)
	}
	end := len(reps)
	if limit > 0 && cursor+limit < end {
		end = cursor + limit
		resp.NextCursor = end
	}
	resp.Repairs = reps[cursor:end]
	if resp.Repairs == nil {
		resp.Repairs = []Repair{} // a clean table has an empty trail, not a null one
	}
	writeJSON(w, http.StatusOK, resp)
}

// MutateRequest is the body of PUT .../tuples/{row}.
type MutateRequest struct {
	// Values is the tuple's new values, in schema order.
	Values []string `json:"values"`
}

// MutateResponse acknowledges one tuple mutation and names the result
// version it minted.
type MutateResponse struct {
	Session string `json:"session"`
	Version int    `json:"version"`
	Op      string `json:"op"`
	Row     int    `json:"row"`
	// Tuples is the mutated input table's live row count.
	Tuples int `json:"tuples"`
	// Repairs is the new version's audit-trail length.
	Repairs int           `json:"repairs"`
	Delta   *DeltaSummary `json:"delta"`
	WallMS  int64         `json:"wall_ms"`
}

// tupleRow resolves the {row} path segment; non-integer rows are 422.
func tupleRow(w http.ResponseWriter, r *http.Request) (int, bool) {
	q := r.PathValue("row")
	row, err := strconv.Atoi(q)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, codeInvalid,
			fmt.Errorf("%w: row %q must be an integer", ErrInvalid, q))
		return 0, false
	}
	return row, true
}

func (s *Server) handleTuplePut(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	row, ok := tupleRow(w, r)
	if !ok {
		return
	}
	var req MutateRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxCreateBody)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("bad tuple request: %w", err))
		return
	}
	s.finishMutate(w, sess, mutPut, row, req.Values)
}

func (s *Server) handleTupleDelete(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	row, ok := tupleRow(w, r)
	if !ok {
		return
	}
	s.finishMutate(w, sess, mutDelete, row, nil)
}

func (s *Server) finishMutate(w http.ResponseWriter, sess *Session, op string, row int, values []string) {
	version, entry, err := sess.Mutate(op, row, values)
	if err != nil {
		writeSessionError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{
		Session: sess.ID,
		Version: version,
		Op:      op,
		Row:     row,
		Tuples:  entry.tuples,
		Repairs: len(entry.repairs),
		Delta:   deltaSummary(entry.delta),
		WallMS:  entry.delta.Wall.Milliseconds(),
	})
}

// RollbackResponse is the restored pre-repair table.
type RollbackResponse struct {
	Session string `json:"session"`
	// Reverted is the number of audited repairs undone.
	Reverted int        `json:"reverted"`
	Attrs    []string   `json:"attrs"`
	Rows     [][]string `json:"rows"`
	IDs      []int      `json:"ids"`
}

func (s *Server) handleRollback(w http.ResponseWriter, r *http.Request) {
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	tb, reverted, err := sess.Rollback()
	if err != nil {
		writeSessionError(w, err)
		return
	}
	resp := RollbackResponse{
		Session:  sess.ID,
		Reverted: reverted,
		Attrs:    tb.Schema.Attrs(),
		Rows:     make([][]string, tb.Len()),
		IDs:      make([]int, tb.Len()),
	}
	for i, t := range tb.Tuples {
		resp.Rows[i] = t.Values
		resp.IDs[i] = t.ID
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	// Idempotent close: the first DELETE gets 204, any repeat (or an unknown
	// id) gets 404 — never a 500 unless the WAL refused the tombstone, which
	// means the close was NOT acknowledged.
	if err := s.mgr.Close(r.PathValue("id")); err != nil {
		if errors.Is(err, ErrDurability) {
			writeError(w, http.StatusInternalServerError, codeDurability, err)
			return
		}
		writeError(w, http.StatusNotFound, codeNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// StatsResponse is the server-wide status snapshot.
type StatsResponse struct {
	Sessions    []SessionInfo `json:"sessions"`
	MaxSessions int           `json:"max_sessions"`
	Cache       CacheStats    `json:"cache"`
	// UptimeSeconds is the age of this server instance.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Build identifies the running binary.
	Build BuildInfo `json:"build"`
	// Recovery reports what startup replayed from the WAL; absent when
	// durability is off.
	Recovery *RecoverySummary `json:"recovery,omitempty"`
}

// BuildInfo is the binary's identity as recorded by the Go toolchain.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit the binary was built from; empty when the
	// build ran outside a checkout (or with -buildvcs=false).
	Revision string `json:"revision,omitempty"`
	// Modified marks a dirty working tree at build time.
	Modified bool `json:"modified,omitempty"`
}

// buildInfo reads the toolchain-embedded metadata once; `go test` binaries
// carry no VCS stamp, so every field but GoVersion may be empty.
var buildInfo = sync.OnceValue(func() BuildInfo {
	var b BuildInfo
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	b.GoVersion = info.GoVersion
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			b.Revision = kv.Value
		case "vcs.modified":
			b.Modified = kv.Value == "true"
		}
	}
	return b
})

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatsResponse{
		Sessions:      s.mgr.List(),
		MaxSessions:   s.mgr.cfg.MaxSessions,
		Cache:         s.cache.Stats(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		Build:         buildInfo(),
		Recovery:      s.mgr.Recovery(),
	})
}

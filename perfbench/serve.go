package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/eval"
	"mlnclean/internal/server"
)

// liveServer is an in-process server.New handler behind a loopback listener,
// with the server defaults a deployment runs: write-ahead log (fsync before
// every acknowledgement) in its own data directory, two workers per
// session, the in-process channel transport.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	dir  string
	base string
	done chan struct{}
}

func startServer(dir string) (*liveServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	srv, err := server.New(server.ManagerConfig{DataDir: dir})
	if err != nil {
		return nil, err
	}
	return listen(srv, srv, dir)
}

// listen serves h (srv's handler, or a test's wrapper around it) on a
// loopback port.
func listen(srv *server.Server, h http.Handler, dir string) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: h}, dir: dir,
		base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		ls.hs.Serve(ln)
	}()
	return ls, nil
}

// stop closes the listener and every connection, waits for the serving
// goroutine, shuts the sessions down and removes the data directory.
func (ls *liveServer) stop() error {
	err := ls.hs.Close()
	<-ls.done
	ls.srv.Shutdown()
	return errors.Join(err, os.RemoveAll(ls.dir))
}

// client is the workload's single closed-loop client: one connection, the
// next request only after the previous response was read in full.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. Any status other than
// want is an error.
func (c *client) do(method, path string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return b, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	return b, nil
}

// serveRound is one session's measurements.
type serveRound struct {
	cleanS      float64
	firstMS     float64
	mutateMS    [numOpKinds]samples // every mutation after the first, per kind
	resultMS    samples             // GET result of an earlier version
	repairsMS   samples             // GET one repairs page of an earlier version
	responseKiB samples
	heapKiB     float64 // GC-settled heap growth per minted version
	f1          float64 // version 1 against the generator's truth
	attempted   int
	failed      int
	repairsV1   int
	repairsPerV samples
	v1          *server.ResultResponse
}

// runRound drives one session on a freshly started server, so the weight
// cache starts cold as for a first session, then stops the server. The
// session is created, streamed in batches, cleaned and polled until done,
// then mutated op by op, each op followed by reads of earlier versions.
// Afterwards, untimed, sampled versions are checked against a from-scratch
// clean.
func runRound(in *roundInputs, ls *liveServer) (*serveRound, error) {
	c := newClient(ls.base)
	r := &serveRound{}
	r.drive(in, c, nil)
	c.close()
	return r, ls.stop()
}

// pollLimit bounds how long a session may stay cleaning before the round
// counts it failed.
const pollLimit = 60 * time.Second

// call runs one request as a counted op: a transport error or an
// unexpected status fails it.
func (r *serveRound) call(c *client, method, path string, body []byte, want int) ([]byte, bool) {
	r.attempted++
	b, err := c.do(method, path, body, want)
	if err != nil {
		r.failed++
		logf("%v", err)
		return nil, false
	}
	return b, true
}

// callJSON is call with the response decoded into v; a body that does not
// decode fails the op.
func (r *serveRound) callJSON(c *client, method, path string, body []byte, want int, v any) bool {
	b, ok := r.call(c, method, path, body, want)
	if !ok {
		return false
	}
	if err := json.Unmarshal(b, v); err != nil {
		r.failed++
		logf("%s %s: %v", method, path, err)
		return false
	}
	return true
}

// drive runs the round on c. A failed call is counted where it happens;
// when the session cannot go on without it, the round ends there.
func (r *serveRound) drive(in *roundInputs, c *client, tr *tracer) {
	runtime.GC() // start every round from the same settled heap
	var info server.SessionInfo
	if !r.callJSON(c, "POST", "/v1/sessions", in.createBody, http.StatusCreated, &info) {
		return
	}
	sess := "/v1/sessions/" + info.ID
	for _, body := range in.tupleBodies {
		if _, ok := r.call(c, "POST", sess+"/tuples", body, http.StatusOK); !ok {
			return
		}
	}

	sp := tr.start("serve.session_clean", false)
	t0 := time.Now()
	if _, ok := r.call(c, "POST", sess+"/clean", nil, http.StatusAccepted); !ok {
		return
	}
	for info.State != server.StateDone {
		if !r.callJSON(c, "GET", sess, nil, http.StatusOK, &info) {
			return
		}
		if info.State != server.StateDone && (info.State != server.StateCleaning || time.Since(t0) > pollLimit) {
			r.failed++
			logf("session %s is %s after %v: %s", info.ID, info.State, time.Since(t0), info.Error)
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	r.cleanS = time.Since(t0).Seconds()
	sp.end()

	// Version 1, the batch result: quality and audit-trail length.
	var v1 server.ResultResponse
	var reps server.RepairsResponse
	if !r.callJSON(c, "GET", sess+"/result?version=1", nil, http.StatusOK, &v1) ||
		!r.callJSON(c, "GET", sess+"/repairs?version=1", nil, http.StatusOK, &reps) {
		return
	}
	if len(v1.IDs) != len(v1.Rows) {
		r.failed++
		logf("version 1 has %d ids for %d rows", len(v1.IDs), len(v1.Rows))
		return
	}
	r.v1 = &v1
	r.f1 = eval.RepairQuality(in.serve.truth, in.serve.dirty, resultTable(in.serve.dirty.Schema, &v1)).F1
	r.repairsV1 = reps.Total

	var heap0 uint64
	for i, op := range in.ops {
		method, want := "PUT", i+2
		if op.kind == opDelete {
			method = "DELETE"
		}
		span := "serve.mutate_" + op.kind.String()
		if i == 0 {
			span = "serve.mutate_first"
		}
		sp := tr.start(span, false)
		t0 := time.Now()
		b, ok := r.call(c, method, fmt.Sprintf("%s/tuples/%d", sess, op.row), op.body, http.StatusOK)
		d := time.Since(t0)
		sp.end()
		if ok {
			var mr server.MutateResponse
			if err := json.Unmarshal(b, &mr); err != nil || mr.Version != want {
				r.failed++
				logf("mutation %d minted version %d, want %d (%v)", i, mr.Version, want, err)
			}
			r.repairsPerV.add(float64(mr.Repairs))
		}
		if i == 0 {
			r.firstMS = ms(d)
			heap0 = settledHeap()
		} else {
			r.mutateMS[op.kind].addDur(d, time.Millisecond)
		}

		r.read(c, tr, "server.read_result", &r.resultMS, op.resultVersion,
			fmt.Sprintf("%s/result?version=%d", sess, op.resultVersion))
		r.read(c, tr, "server.read_repairs", &r.repairsMS, op.repairsVersion,
			fmt.Sprintf("%s/repairs?version=%d&limit=%d&cursor=%d", sess, op.repairsVersion, repairsPage, op.repairsCursor))
	}
	if n := len(in.ops) - 1; n > 0 {
		r.heapKiB = (float64(settledHeap()) - float64(heap0)) / float64(n) / 1024
	}

	// Two versions per round against a from-scratch clean: the last, and
	// one drawn from the rest.
	last := len(in.ops) + 1
	for _, v := range []int{2 + in.rng.Intn(last-2), last} {
		if err := r.checkVersion(in, c, sess, v); err != nil {
			r.failed++
			logf("version %d: %v", v, err)
		}
	}
	r.call(c, "DELETE", sess, nil, http.StatusNoContent)
}

// read fetches one earlier version's route as a timed op and checks the
// response names the version asked for.
func (r *serveRound) read(c *client, tr *tracer, name string, into *samples, version int, path string) {
	sp := tr.start(name, false)
	t0 := time.Now()
	b, ok := r.call(c, "GET", path, nil, http.StatusOK)
	d := time.Since(t0)
	sp.end()
	into.addDur(d, time.Millisecond)
	if !ok {
		return
	}
	r.responseKiB.add(float64(len(b)) / 1024)
	var v struct {
		Version int `json:"version"`
	}
	if err := json.Unmarshal(b, &v); err != nil || v.Version != version {
		r.failed++
		logf("read of version %d served version %d (%v)", version, v.Version, err)
	}
}

// settledHeap is the live heap after a full collection.
func settledHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// checkVersion requires result version v to equal core.Clean of the table
// the first v-1 mutations produced — rows, tuple ids and statistics — and
// its audit trail to list exactly the cells that clean changed.
func (r *serveRound) checkVersion(in *roundInputs, c *client, sess string, v int) error {
	var got server.ResultResponse
	var reps server.RepairsResponse
	if !r.callJSON(c, "GET", fmt.Sprintf("%s/result?version=%d", sess, v), nil, http.StatusOK, &got) ||
		!r.callJSON(c, "GET", fmt.Sprintf("%s/repairs?version=%d", sess, v), nil, http.StatusOK, &reps) {
		return nil // already counted
	}
	input := in.tableAt(v - 1)
	want, err := core.Clean(input, in.rs, core.Options{Tau: in.w.tau})
	if err != nil {
		return err
	}
	if err := sameTable(&got, want.Clean); err != nil {
		return err
	}
	if got.Stats != want.Stats {
		return fmt.Errorf("stats %+v, want %+v", got.Stats, want.Stats)
	}
	if n := len(input.Diff(want.Repaired)); reps.Total != n || len(reps.Repairs) != n {
		return fmt.Errorf("repairs total %d (%d listed), want %d changed cells", reps.Total, len(reps.Repairs), n)
	}
	return nil
}

// resultTable rebuilds a served result (one id per row) as a table keyed
// by tuple id.
func resultTable(schema *dataset.Schema, res *server.ResultResponse) *dataset.Table {
	tb := dataset.NewTable(schema)
	for i, row := range res.Rows {
		tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: res.IDs[i], Values: row})
	}
	return tb
}

// sameTable requires a served result to hold exactly the table's rows, in
// order, under the same tuple ids.
func sameTable(got *server.ResultResponse, want *dataset.Table) error {
	if len(got.Rows) != want.Len() || len(got.IDs) != want.Len() {
		return fmt.Errorf("%d rows, want %d", len(got.Rows), want.Len())
	}
	for i, t := range want.Tuples {
		if got.IDs[i] != t.ID || !reflect.DeepEqual(got.Rows[i], t.Values) {
			return fmt.Errorf("row %d is id %d %v, want id %d %v", i, got.IDs[i], got.Rows[i], t.ID, t.Values)
		}
	}
	return nil
}

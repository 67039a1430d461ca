package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/distributed"
	"mlnclean/internal/intern"
	"mlnclean/internal/server"
	"mlnclean/internal/tstore"
	"mlnclean/internal/wal"
)

// layerRun holds what the traced twins of a session measure: the calls the
// server makes on a request's behalf, replayed directly on the session's
// inputs and op sequence so each layer's share of a request shows.
type layerRun struct {
	workerMaxMS       float64
	deltaStats        core.DeltaStats // summed over the op sequence
	attempted, failed int
}

// runLayerTwins replays the session workload layer by layer under spans. A
// call that fails counts as a failed op and ends the replay.
func runLayerTwins(in *roundInputs, ls *liveServer, v1 *server.ResultResponse, dir string, tr *tracer) *layerRun {
	out := &layerRun{}
	fail := func(what string, err error) *layerRun {
		out.attempted++
		out.failed++
		logf("%s: %v", what, err)
		return out
	}
	schema := in.serve.dirty.Schema
	base := in.serve.dirty
	opts := core.Options{Tau: in.w.tau}

	// The session's clean: distributed.CleanStream with the options a
	// session runs under (server defaults, fresh model cache).
	var csv bytes.Buffer
	if err := base.WriteCSV(&csv); err != nil {
		return fail("serialize session table", err)
	}
	model, _, err := server.NewModelCache().Intern(in.rulesText)
	if err != nil {
		return fail("intern rules", err)
	}
	factory, err := distributed.TransportByName("chan")
	if err != nil {
		return fail("transport", err)
	}
	stream, err := dataset.StreamCSV(&csv)
	if err != nil {
		return fail("stream session table", err)
	}
	sp := tr.start("distributed.clean", false)
	dres, err := distributed.CleanStream(context.Background(), stream, model.Rules, distributed.Options{
		Workers:   2,
		Seed:      1,
		Transport: factory,
		Dict:      intern.NewDictWithBase(model.Vocabulary()),
		Core:      opts,
	})
	sp.end()
	if err != nil {
		return fail("distributed clean", err)
	}
	for _, w := range dres.WorkerTimes {
		out.workerMaxMS = max(out.workerMaxMS, ms(w))
	}
	// Same stream, batch boundaries, seed and options as the session: the
	// served version 1 must be this result.
	out.attempted += 2
	if v1 == nil {
		out.failed++
	} else if err := sameTable(v1, dres.Clean); err != nil {
		out.failed++
		logf("session version 1 differs from distributed.CleanStream over the same rows: %v", err)
	}

	// The first mutation's cold path: the delta engine's full load...
	sp = tr.start("core.delta_load", false)
	eng, err := core.NewDeltaCleaner(schema, in.rs, opts)
	if err == nil {
		_, err = eng.Load(base)
	}
	sp.end()
	if err != nil {
		return fail("delta load", err)
	}
	// ...and the tuple store's seed.
	sp = tr.start("tstore.seed", false)
	store, _, err := tstore.Open(schema, nil, tstore.Options{})
	if err == nil {
		for _, t := range base.Tuples {
			if err = store.Put(t.ID, t.Values); err != nil {
				break
			}
		}
	}
	sp.end()
	if err != nil {
		return fail("tstore seed", err)
	}
	defer store.Close()

	// The write-ahead log, with a mutation-record-sized payload per op.
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail("wal directory", err)
	}
	defer os.RemoveAll(dir)
	fs, err := wal.DirFS(dir)
	if err != nil {
		return fail("wal filesystem", err)
	}
	log, _, err := wal.Open(fs, wal.Options{})
	if err != nil {
		return fail("wal open", err)
	}
	defer log.Close()

	// A twin session on the same server, mutated through Session.Mutate
	// without HTTP: e2e mutation latency minus this is the HTTP share.
	twin, err := twinSession(in, ls.srv)
	if err != nil {
		return fail("twin session", err)
	}

	for i, op := range in.ops {
		mut := core.Mutation{Op: core.DeltaPut, Row: op.row, Values: op.values}
		kind := "put"
		if op.kind == opDelete {
			mut = core.Mutation{Op: core.DeltaDelete, Row: op.row}
			kind = "delete"
		}
		out.attempted += 4

		sp = tr.start("core.delta_apply_"+op.kind.String(), false)
		_, ds, err := eng.Apply([]core.Mutation{mut})
		sp.end()
		if err != nil {
			out.failed++
			logf("delta apply %d: %v", i, err)
		} else {
			out.deltaStats.DirtyBlocks += ds.DirtyBlocks
			out.deltaStats.ReusedBlocks += ds.ReusedBlocks
			out.deltaStats.RefusedTuples += ds.RefusedTuples
			out.deltaStats.ReusedTuples += ds.ReusedTuples
		}

		sp = tr.start("tstore.put", false)
		if op.kind == opDelete {
			err = store.Delete(op.row)
		} else {
			err = store.Put(op.row, op.values)
		}
		sp.end()
		if err != nil {
			out.failed++
			logf("tstore %s %d: %v", kind, i, err)
		}

		payload, err := json.Marshal(struct {
			ID     string
			Op     string
			Row    int
			Values []string
		}{twin.ID, kind, op.row, op.values})
		if err != nil {
			return fail("mutation record", err)
		}
		// Append fsyncs before it returns (default options): the server's
		// acknowledgement point.
		sp = tr.start("wal.append_sync", false)
		err = log.Append(payload)
		sp.end()
		if err != nil {
			out.failed++
			logf("wal append %d: %v", i, err)
		}

		name := "server.session_mutate_" + op.kind.String()
		if i == 0 {
			name = "server.session_mutate_first"
		}
		sp = tr.start(name, false)
		v, _, err := twin.Mutate(kind, op.row, op.values)
		sp.end()
		if err != nil || v != i+2 {
			out.failed++
			logf("twin mutate %d: version %d: %v", i, v, err)
		}
	}
	return out
}

// twinSession creates, fills and cleans a second session directly through
// the manager, waiting until it is done.
func twinSession(in *roundInputs, srv *server.Server) (*server.Session, error) {
	var req server.CreateRequest
	if err := json.Unmarshal(in.createBody, &req); err != nil {
		return nil, err
	}
	s, err := srv.Manager().Create(req)
	if err != nil {
		return nil, err
	}
	for _, batch := range in.tupleBatches {
		if err := s.Submit(batch); err != nil {
			return nil, err
		}
	}
	if err := s.Clean(srv.Cache()); err != nil {
		return nil, err
	}
	for t0 := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		info := s.Info()
		if info.State == server.StateDone {
			return s, nil
		}
		if info.State != server.StateCleaning || time.Since(t0) > pollLimit {
			return nil, fmt.Errorf("twin session is %s after %v: %s", info.State, time.Since(t0), info.Error)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mlnclean/internal/server"
)

// The benchmark's self-test, at a scale that runs in seconds: every
// workload completes in both modes and emits exactly the metrics
// BENCHMARK.json declares, with their units, and the output checks catch a
// corrupted result.

// tiny shrinks a workload so a whole run takes seconds; its op sequence
// still holds two ops of every kind.
func tiny(name string) workload {
	w := workloads[name]
	w.batchRows = max(50, w.batchRows/20)
	w.serveRows = max(50, w.serveRows/20)
	w.mutations = 2 * int(numOpKinds)
	return w
}

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecNamesEveryWorkload(t *testing.T) {
	var names []string
	for _, w := range readSpec(t).Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for name := range workloads {
		have = append(have, name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, have)
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	s := readSpec(t)
	for _, w := range s.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			t.Run(w.Name+"/trace="+strconv.Itoa(trace), func(t *testing.T) {
				var out bytes.Buffer
				err := run(&config{workload: tiny(w.Name), seed: 3, seconds: 0.2, trace: trace == 1, workdir: t.TempDir()}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "hai", "--seed", "9", "--seconds", "2", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload.name != "hai" || cfg.seed != 9 || cfg.seconds != 2 || !cfg.trace {
		t.Fatalf("parsed %+v", cfg)
	}
	for _, args := range [][]string{{"--workload", "tpch"}, {"--workload", "car", "--trace", "2"}, {"--workload", "car", "--scale", "2"}} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%v parsed", args)
		}
	}
}

// Every kind of op comes equally often, and the first is always an update.
func TestOpMix(t *testing.T) {
	in, err := makeInputs(tiny("car"), 5)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		ri, err := makeRound(in, 5, round)
		if err != nil {
			t.Fatal(err)
		}
		if k := ri.ops[0].kind; k != opUpdate {
			t.Errorf("round %d starts with a %v", round, k)
		}
		var count [numOpKinds]int
		for _, op := range ri.ops {
			count[op.kind]++
		}
		for k, n := range count {
			if n != len(ri.ops)/int(numOpKinds) {
				t.Errorf("round %d has %d %v ops of %d", round, n, opKind(k), len(ri.ops))
			}
		}
	}
}

func TestFlippedBatchCellFails(t *testing.T) {
	in, err := makeInputs(tiny("car"), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newBatch(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cleanCSV(in.batchCSV, in.rs, b.opts)
	b.check(res, err)
	if b.failed != 0 {
		t.Fatalf("an untouched clean failed the check")
	}
	res.Clean.Tuples[0].Values[0] += "x"
	b.check(res, nil)
	if b.attempted != 2 || b.failed != 1 {
		t.Fatalf("a flipped cell gave attempted=%d failed=%d, want 2 and 1", b.attempted, b.failed)
	}
}

// corrupt wraps the server so GET result of a version ≥ 2 answers wrongly:
// "flip" alters one cell of the body, "stale" serves the previous version.
func corrupt(mode string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		v, _ := strconv.Atoi(r.URL.Query().Get("version"))
		if r.Method != "GET" || !strings.HasSuffix(r.URL.Path, "/result") || v < 2 {
			h.ServeHTTP(w, r)
			return
		}
		if mode == "stale" {
			q := r.URL.Query()
			q.Set("version", strconv.Itoa(v-1))
			r.URL.RawQuery = q.Encode()
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var res server.ResultResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || len(res.Rows) == 0 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		res.Rows[0][0] += "x"
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(res)
	})
}

func TestCorruptedVersionFails(t *testing.T) {
	in, err := makeInputs(tiny("car"), 5)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := makeRound(in, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"none", "flip", "stale"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := server.New(server.ManagerConfig{DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			var h http.Handler = srv
			if mode != "none" {
				h = corrupt(mode, srv)
			}
			ls, err := listen(srv, h, dir)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runRound(ri, ls)
			if err != nil {
				t.Fatal(err)
			}
			if mode == "none" && r.failed != 0 {
				t.Fatalf("an untouched round failed %d of %d ops", r.failed, r.attempted)
			}
			if mode != "none" && r.failed == 0 {
				t.Fatalf("a %s result version passed every check", mode)
			}
		})
	}
}

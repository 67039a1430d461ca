package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"mlnclean/internal/datagen"
	"mlnclean/internal/dataset"
	"mlnclean/internal/errgen"
	"mlnclean/internal/rules"
)

// Error model shared by every workload: 10% of the rule attributes' cells
// are corrupted, half by replacement with another domain value and half by
// a deleted letter (the paper's default mix, §7.1).
const (
	errorRate        = 0.10
	replacementRatio = 0.5
	// tupleBatch is the rows per POST /tuples body; it equals the executor's
	// default shipment size, so a session partitions its stream exactly as
	// distributed.CleanStream does.
	tupleBatch = 1024
)

// workload fixes the dataset and the sizes one benchmark run drives.
type workload struct {
	name string
	// gen builds a clean table of about rows tuples plus its rules.
	gen func(rows int, seed int64) (*dataset.Table, []*rules.Rule, error)
	// batchRows sizes the table the batch path cleans; serveRows the table a
	// session streams and then mutates.
	batchRows, serveRows int
	// tau is the AGP threshold used by both paths.
	tau int
	// mutations is the length of the op sequence every session round runs.
	mutations int
}

func genCAR(rows int, seed int64) (*dataset.Table, []*rules.Rule, error) {
	return datagen.CAR(datagen.CARConfig{Rows: rows, Seed: seed})
}

// haiMeasures is the measures per provider; rows/haiMeasures providers give
// the requested size.
const haiMeasures = 14

func genHAI(rows int, seed int64) (*dataset.Table, []*rules.Rule, error) {
	providers := (rows + haiMeasures - 1) / haiMeasures
	return datagen.HAI(datagen.HAIConfig{Providers: providers, Measures: haiMeasures, Rows: rows, Seed: seed})
}

// dirtyTable is one generated table with its injected errors.
type dirtyTable struct {
	truth, dirty *dataset.Table
}

func makeDirty(w workload, rows int, seed int64) (*dirtyTable, []*rules.Rule, error) {
	truth, rs, err := w.gen(rows, seed)
	if err != nil {
		return nil, nil, err
	}
	inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: errorRate, ReplacementRatio: replacementRatio, Seed: seed + 1})
	if err != nil {
		return nil, nil, err
	}
	return &dirtyTable{truth: truth, dirty: inj.Dirty}, rs, nil
}

// opKind is the kind of one tuple mutation.
type opKind int

const (
	// opUpdate changes one rule-attribute cell of a live row.
	opUpdate opKind = iota
	// opInsert PUTs a clean row at the next unused id.
	opInsert
	// opDelete removes a live row.
	opDelete
	// opRewrite PUTs a live row's current values back unchanged.
	opRewrite
	numOpKinds
)

var opKindNames = [numOpKinds]string{"update", "insert", "delete", "rewrite"}

func (k opKind) String() string { return opKindNames[k] }

// mutOp is one tuple mutation of a session round, followed by one read of
// an earlier version's result and one page of an earlier version's
// repairs. Bodies are serialized at set-up, outside every timing.
type mutOp struct {
	kind   opKind
	row    int
	values []string // new values (nil for a delete)
	body   []byte   // PUT body

	resultVersion  int
	repairsVersion int
	repairsCursor  int
}

// inputs is what the batch path is fed and what every session round shares,
// derived from the seed alone and made once per run.
type inputs struct {
	w         workload
	rs        []*rules.Rule
	rulesText string

	batch    *dirtyTable
	batchCSV []byte
}

// roundInputs is one session round's table, request bodies and mutation
// sequence.
type roundInputs struct {
	*inputs
	serve        *dirtyTable
	createBody   []byte
	tupleBatches [][][]string // the session's rows, one entry per POST
	tupleBodies  [][]byte     // the same batches as request bodies
	ops          []mutOp
	// rng draws the round's untimed checks.
	rng *rand.Rand
}

const repairsPage = 100

// subSeed derives the seed of one input stream of a run by splitmix64 over
// the run seed, the stream and the round, so no two streams draw from
// related seeds.
func subSeed(seed int64, stream, round int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(1+stream*4096+round)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z ^ z>>31)
}

// Input streams of a run.
const (
	streamBatch = iota
	streamServe
	streamOps
	streamChecks
)

// makeInputs generates the batch table and serializes it into the CSV
// bytes the batch path receives. The same seed always yields the same
// inputs.
func makeInputs(w workload, seed int64) (*inputs, error) {
	in := &inputs{w: w}
	var err error
	in.batch, in.rs, err = makeDirty(w, w.batchRows, subSeed(seed, streamBatch, 0))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := in.batch.dirty.WriteCSV(&buf); err != nil {
		return nil, err
	}
	in.batchCSV = buf.Bytes()
	lines := make([]string, len(in.rs))
	for i, r := range in.rs {
		lines[i] = r.Canonical()
	}
	in.rulesText = strings.Join(lines, "\n")
	return in, nil
}

// makeRound generates the given session round's table, serializes it into
// the HTTP bodies the program receives, and draws the round's mutation
// sequence. Every round mutates a table of its own, so a run's session
// figures average over several tables.
func makeRound(in *inputs, seed int64, round int) (*roundInputs, error) {
	w := in.w
	ri := &roundInputs{inputs: in, rng: rand.New(rand.NewSource(subSeed(seed, streamChecks, round)))}
	var err error
	ri.serve, _, err = makeDirty(w, w.serveRows, subSeed(seed, streamServe, round))
	if err != nil {
		return nil, err
	}
	ri.createBody, err = json.Marshal(map[string]any{
		"rules": in.rulesText,
		"attrs": ri.serve.dirty.Schema.Attrs(),
		"tau":   w.tau,
	})
	if err != nil {
		return nil, err
	}
	rows := ri.serve.dirty.Tuples
	for lo := 0; lo < len(rows); lo += tupleBatch {
		hi := min(lo+tupleBatch, len(rows))
		batch := make([][]string, 0, hi-lo)
		for _, t := range rows[lo:hi] {
			batch = append(batch, t.Values)
		}
		b, err := json.Marshal(map[string]any{"rows": batch})
		if err != nil {
			return nil, err
		}
		ri.tupleBatches = append(ri.tupleBatches, batch)
		ri.tupleBodies = append(ri.tupleBodies, b)
	}
	ri.ops, err = drawOps(ri.serve, in.rs, w.mutations, rand.New(rand.NewSource(subSeed(seed, streamOps, round))))
	return ri, err
}

// drawOps draws a mutation sequence against a mirror of the session table.
// Every kind of op comes equally often: single-cell updates of a rule
// attribute (to another value of its domain or to a one-letter typo; the
// attribute cycles through the rule attributes), inserts of a clean row at
// the next id, deletes of a live row, and no-op rewrites of a row's current
// values. No traffic mix is claimed; latencies are reported per kind, so
// the counts only set how many samples each kind gets. The first op is
// always an update, so the cold first mutation times the same work in
// every round; the rest come in a seeded order. Every op is valid where it
// lands, so none should fail.
func drawOps(t *dirtyTable, rs []*rules.Rule, n int, rng *rand.Rand) ([]mutOp, error) {
	kinds := make([]opKind, n)
	for i := range kinds {
		kinds[i] = opKind(i % int(numOpKinds)) // kinds[0] is opUpdate
	}
	rng.Shuffle(n-1, func(i, j int) { kinds[i+1], kinds[j+1] = kinds[j+1], kinds[i+1] })

	schema := t.dirty.Schema
	attrs := errgen.RuleAttrs(rs)
	mirror := map[int][]string{}
	var live []int
	for _, tp := range t.dirty.Tuples {
		mirror[tp.ID] = tp.Values
		live = append(live, tp.ID)
	}
	next := len(t.dirty.Tuples)
	updates := 0
	ops := make([]mutOp, 0, n)
	for i, kind := range kinds {
		op := mutOp{kind: kind}
		switch kind {
		case opUpdate:
			op.row = live[rng.Intn(len(live))]
			vals := append([]string(nil), mirror[op.row]...)
			c := schema.MustIndex(attrs[updates%len(attrs)])
			updates++
			if rng.Intn(2) == 0 {
				vals[c] = mirror[live[rng.Intn(len(live))]][c]
			} else if v := vals[c]; len(v) > 1 {
				k := rng.Intn(len(v))
				vals[c] = v[:k] + v[k+1:]
			}
			op.values = vals
		case opInsert:
			op.row = next
			next++
			op.values = append([]string(nil), t.truth.Tuples[rng.Intn(t.truth.Len())].Values...)
			live = append(live, op.row)
		case opDelete:
			k := rng.Intn(len(live))
			op.row = live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		case opRewrite:
			op.row = live[rng.Intn(len(live))]
			op.values = mirror[op.row]
		}
		if kind == opDelete {
			delete(mirror, op.row)
		} else {
			mirror[op.row] = op.values
			b, err := json.Marshal(map[string]any{"values": op.values})
			if err != nil {
				return nil, err
			}
			op.body = b
		}
		// This op mints version i+2; the reads go to earlier ones.
		op.resultVersion = 1 + rng.Intn(i+1)
		op.repairsVersion = 1 + rng.Intn(i+1)
		op.repairsCursor = repairsPage * rng.Intn(4)
		ops = append(ops, op)
	}
	if len(live) == 0 {
		return nil, fmt.Errorf("op sequence empties the table")
	}
	return ops, nil
}

// tableAt replays the first n ops onto the session's dirty table: the input
// result version n+1 is a clean of, in ascending-id order.
func (ri *roundInputs) tableAt(n int) *dataset.Table {
	mirror := map[int][]string{}
	maxID := 0
	for _, tp := range ri.serve.dirty.Tuples {
		mirror[tp.ID] = tp.Values
		maxID = max(maxID, tp.ID+1)
	}
	for _, op := range ri.ops[:n] {
		if op.kind == opDelete {
			delete(mirror, op.row)
		} else {
			mirror[op.row] = op.values
			maxID = max(maxID, op.row+1)
		}
	}
	tb := dataset.NewTable(ri.serve.dirty.Schema)
	for id := 0; id < maxID; id++ {
		if vals, ok := mirror[id]; ok {
			tb.Tuples = append(tb.Tuples, &dataset.Tuple{ID: id, Values: append([]string(nil), vals...)})
		}
	}
	return tb
}

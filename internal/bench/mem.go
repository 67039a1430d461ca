package bench

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/datagen"
	"mlnclean/internal/errgen"
)

// MemProfile records the heap footprint of one measured run.
type MemProfile struct {
	// PeakHeapBytes is the HeapAlloc high-water observed while the measured
	// function ran: the max of a 2ms ReadMemStats sampler and the
	// before/after readings. A sampled high-water can miss sub-millisecond
	// spikes between GC cycles, but tracks the sustained working set — the
	// quantity the streaming pipeline bounds — faithfully.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// TotalAllocBytes is the cumulative allocation the run performed
	// (TotalAlloc delta), independent of when the GC reclaimed it.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
}

// MeasureMem runs fn while sampling the heap, returning its memory profile
// alongside fn's error. The heap is GC-settled before the run so the
// high-water is read against a clean floor.
func MeasureMem(fn func() error) (MemProfile, error) {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	var peak atomic.Uint64
	peak.Store(before.HeapAlloc)
	observe := func(v uint64) {
		for {
			cur := peak.Load()
			if v <= cur || peak.CompareAndSwap(cur, v) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				observe(ms.HeapAlloc)
			}
		}
	}()
	err := fn()
	close(stop)
	<-done
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	observe(after.HeapAlloc)
	return MemProfile{
		PeakHeapBytes:   peak.Load(),
		TotalAllocBytes: after.TotalAlloc - before.TotalAlloc,
	}, err
}

// streamMemoryMults are the table-growth factors StreamMemory measures; the
// last one is the "≥10× the benchmark scale" point of the bounded-memory
// acceptance target.
var streamMemoryMults = []int{1, 4, 10}

// StreamMemory measures the peak heap and wall time of a full clean across
// growing CAR tables.
func StreamMemory(sc Scale) (*Report, error) {
	r := &Report{
		Name:    "stream-memory",
		Title:   "Streaming pipeline peak heap vs table size (CAR)",
		Columns: []string{"rows", "stream-peak", "stream-ms"},
		Notes: []string{
			"peak heap = ReadMemStats HeapAlloc high-water, 2ms sampler, GC-settled floor",
			"stream = the stage-I pipeline (block iterator, fused AGP/learn/RSC); the input table is resident",
		},
	}
	for _, mult := range streamMemoryMults {
		rows := sc.CARRows * mult
		truth, rs, err := datagen.CAR(datagen.CARConfig{Rows: rows, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		inj, err := errgen.Inject(truth, rs, errgen.Config{Rate: 0.05, ReplacementRatio: 0.5, Seed: sc.Seed})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		mp, err := MeasureMem(func() error {
			_, err := core.Clean(inj.Dirty, rs, core.Options{Tau: sc.CARTau})
			return err
		})
		if err != nil {
			return nil, err
		}
		r.AddRow(fmt.Sprintf("%d", rows),
			fmtBytes(mp.PeakHeapBytes), fmt.Sprintf("%d", time.Since(start).Milliseconds()))
	}
	return r, nil
}

// fmtBytes renders a byte count as MiB with one decimal.
func fmtBytes(b uint64) string {
	return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
}

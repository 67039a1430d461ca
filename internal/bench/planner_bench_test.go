package bench

// Planner benchmarks: the cost of planning itself (it must be negligible —
// the whole point of reusing the encode-time dictionary counters is that no
// stats-collection pass runs) and the planned stage I it schedules. Run with
//
//	go test -run '^$' -bench Planner -benchmem ./internal/bench
//
// The car dataset's multi-attribute FDs (Model, Type -> Make) and constant
// CFD (Make=acura, ...) are the shapes the planner rewrites; hai's
// single-attribute FDs are deliberate no-ops.

import (
	"context"
	"testing"

	"mlnclean/internal/core"
	"mlnclean/internal/dataset"
	"mlnclean/internal/index"
	"mlnclean/internal/intern"
	"mlnclean/internal/plan"
)

// BenchmarkPlannerPlan measures plan construction alone on an
// already-encoded dictionary — the marginal cost a planned build adds.
func BenchmarkPlannerPlan(b *testing.B) {
	for _, name := range []string{"hai", "car"} {
		b.Run(name, func(b *testing.B) {
			dirty, rs, _ := pipelineInput(b, name)
			d := intern.NewDict()
			dataset.Encode(dirty, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p := plan.New(rs, dirty.Schema, d); len(p.Rules) != len(rs) {
					b.Fatal("bad plan")
				}
			}
		})
	}
}

// BenchmarkPlannerStageI times the planned index build plus AGP, the
// phases whose scan order the planner controls.
func BenchmarkPlannerStageI(b *testing.B) {
	for _, name := range []string{"hai", "car"} {
		b.Run(name, func(b *testing.B) {
			dirty, rs, tau := pipelineInput(b, name)
			opts := benchOpts(tau)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix, err := index.BuildConfigured(dirty, rs, index.BuildConfig{})
				if err != nil {
					b.Fatal(err)
				}
				var st core.Stats
				if err := core.StageAGP(ctx, ix, opts, &st); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(dirty.Len())*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
		})
	}
}

package bench

import (
	"fmt"
	"sort"
)

// Experiment is a named, runnable paper experiment.
type Experiment struct {
	Name        string
	Description string
	Run         func(Scale) (*Report, error)
}

// Registry maps experiment names (the -exp flag of cmd/benchrunner) to
// their runners. Every table and figure of §7 is present.
var Registry = buildRegistry()

func buildRegistry() map[string]Experiment {
	reg := make(map[string]Experiment)
	add := func(name, desc string, run func(Scale) (*Report, error)) {
		reg[name] = Experiment{Name: name, Description: desc, Run: run}
	}
	perDataset := func(fig string, datasets []string, desc string,
		run func(Scale, string) (*Report, error)) {
		for _, ds := range datasets {
			ds := ds
			add(fig+"-"+ds, fmt.Sprintf("%s (%s)", desc, ds), func(sc Scale) (*Report, error) {
				return run(sc, ds)
			})
		}
	}
	carHai := []string{"car", "hai"}
	perDataset("fig6", carHai, "F1 + runtime vs error rate, MLNClean vs HoloClean", Fig6)
	perDataset("fig7", carHai, "F1 vs replacement-error ratio Rret", Fig7)
	perDataset("fig8", carHai, "AGP accuracy + #dag vs τ", Fig8)
	perDataset("fig9", carHai, "RSC accuracy vs τ", Fig9)
	perDataset("fig10", carHai, "FSCR accuracy vs τ", Fig10)
	perDataset("fig11", carHai, "MLNClean F1 + runtime vs τ", Fig11)
	perDataset("fig12", carHai, "AGP accuracy + #dag vs error rate", Fig12)
	perDataset("fig13", carHai, "RSC accuracy vs error rate", Fig13)
	perDataset("fig14", carHai, "FSCR accuracy vs error rate", Fig14)
	perDataset("fig15", []string{"hai", "tpch"}, "distributed F1 + cluster time vs error rate", Fig15)
	add("table5", "F1 under Levenshtein vs cosine distance", Table5)
	add("table6", "distributed runtime vs worker count (TPC-H)", Table6)
	add("ablation-minimality", "FSCR minimality/observation prior on vs off", AblationMinimality)
	add("ablation-mergecap", "AGP merge-distance cap vs unconditional merge", AblationMergeCap)
	add("ablation-weightmerge", "Eq. 6 weight merge on vs off (distributed)", AblationWeightMerge)
	add("ablation-agp", "AGP merge-target strategy: nearest vs support-biased", AblationAGPStrategy)
	add("stream-memory", "streaming pipeline peak heap across table growth", StreamMemory)
	add("incremental", "incremental delta re-clean vs full re-clean (CAR)", Incremental)
	return reg
}

// Names returns the registry keys in sorted order.
func Names() []string {
	out := make([]string, 0, len(Registry))
	for name := range Registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by name.
func Run(name string, sc Scale) (*Report, error) {
	exp, ok := Registry[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q; available: %v", name, Names())
	}
	return exp.Run(sc)
}

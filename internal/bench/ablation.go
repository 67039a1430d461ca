package bench

import (
	"time"

	"mlnclean/internal/core"
	"mlnclean/internal/distributed"
	"mlnclean/internal/eval"
)

// The ablation experiments quantify the documented interpretation choices
// this reproduction adds on top of the paper's letter (DESIGN.md §2):
// the FSCR minimality/observation prior, the AGP merge-distance cap, and
// the Eq. 6 weight merge (the last is the paper's own mechanism, ablated to
// show why it exists).

// AblationMinimality compares FSCR with and without the minimality /
// observation prior (ε = 0.05 vs disabled) on CAR and HAI at 5% errors.
func AblationMinimality(sc Scale) (*Report, error) {
	r := &Report{
		Name:    "ablation-minimality",
		Title:   "Ablation: FSCR minimality/observation prior (5% errors)",
		Columns: []string{"dataset", "F1 with prior", "F1 without prior"},
	}
	for _, dsName := range []string{"car", "hai"} {
		ds, err := sc.Generate(dsName)
		if err != nil {
			return nil, err
		}
		inj, err := injectFor(ds, sc, 0.05, 0.5)
		if err != nil {
			return nil, err
		}
		with, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau})
		if err != nil {
			return nil, err
		}
		without, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau, MinimalityPrior: 0, MinimalityPriorSet: true})
		if err != nil {
			return nil, err
		}
		qw := eval.RepairQuality(ds.Truth, inj.Dirty, with.Repaired)
		qo := eval.RepairQuality(ds.Truth, inj.Dirty, without.Repaired)
		r.AddRow(dsName, f3(qw.F1), f3(qo.F1))
	}
	r.Notes = append(r.Notes,
		"without the prior, Eq. 5 alone decides identity-steal conflicts near-randomly (DESIGN.md §2)")
	return r, nil
}

// AblationMergeCap compares AGP with the relative merge-distance cap (0.4)
// against the paper's unconditional merge (cap ≥ 1).
func AblationMergeCap(sc Scale) (*Report, error) {
	r := &Report{
		Name:    "ablation-mergecap",
		Title:   "Ablation: AGP merge-distance cap (5% errors)",
		Columns: []string{"dataset", "F1 cap=0.4", "F1 unconditional"},
	}
	for _, dsName := range []string{"car", "hai"} {
		ds, err := sc.Generate(dsName)
		if err != nil {
			return nil, err
		}
		inj, err := injectFor(ds, sc, 0.05, 0.5)
		if err != nil {
			return nil, err
		}
		capped, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau})
		if err != nil {
			return nil, err
		}
		uncond, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau, MergeCapRatio: 10})
		if err != nil {
			return nil, err
		}
		qc := eval.RepairQuality(ds.Truth, inj.Dirty, capped.Repaired)
		qu := eval.RepairQuality(ds.Truth, inj.Dirty, uncond.Repaired)
		r.AddRow(dsName, f3(qc.F1), f3(qu.F1))
	}
	r.Notes = append(r.Notes,
		"the cap matters most when groups fragment (distributed partitions); stand-alone deltas are small")
	return r, nil
}

// AblationWeightMerge compares distributed cleaning with and without the
// Eq. 6 cross-worker weight adjustment.
func AblationWeightMerge(sc Scale) (*Report, error) {
	ds, err := sc.Generate("hai")
	if err != nil {
		return nil, err
	}
	inj, err := injectFor(ds, sc, 0.05, 0.5)
	if err != nil {
		return nil, err
	}
	r := &Report{
		Name:    "ablation-weightmerge",
		Title:   "Ablation: Eq. 6 cross-worker weight merge (HAI, 5% errors)",
		Columns: []string{"variant", "F1", "cluster time"},
	}
	for _, skip := range []bool{false, true} {
		res, err := distributed.Clean(inj.Dirty, ds.Rules, distributed.Options{
			Workers:         sc.Workers,
			Seed:            sc.Seed,
			Core:            core.Options{Tau: ds.Tau},
			SkipWeightMerge: skip,
		})
		if err != nil {
			return nil, err
		}
		q := eval.RepairQuality(ds.Truth, inj.Dirty, res.Repaired)
		label := "with Eq. 6"
		if skip {
			label = "without Eq. 6"
		}
		r.AddRow(label, f3(q.F1), res.ClusterTime().Round(time.Millisecond).String())
	}
	r.Notes = append(r.Notes,
		"per-part weights are unreliable for fragmented groups (§6); Eq. 6 pools their support")
	return r, nil
}

// AblationAGPStrategy compares the paper's nearest-group AGP merge policy
// against the support-biased variant (the paper's §8 future-work
// direction) on CAR and HAI at 5% errors.
func AblationAGPStrategy(sc Scale) (*Report, error) {
	r := &Report{
		Name:    "ablation-agp",
		Title:   "Ablation: AGP merge-target strategy (5% errors)",
		Columns: []string{"dataset", "F1 nearest (paper)", "F1 support-biased"},
	}
	for _, dsName := range []string{"car", "hai"} {
		ds, err := sc.Generate(dsName)
		if err != nil {
			return nil, err
		}
		inj, err := injectFor(ds, sc, 0.05, 0.5)
		if err != nil {
			return nil, err
		}
		nearest, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau})
		if err != nil {
			return nil, err
		}
		biased, err := core.Clean(inj.Dirty, ds.Rules, core.Options{Tau: ds.Tau, AGPStrategy: core.AGPSupportBiased})
		if err != nil {
			return nil, err
		}
		qn := eval.RepairQuality(ds.Truth, inj.Dirty, nearest.Repaired)
		qb := eval.RepairQuality(ds.Truth, inj.Dirty, biased.Repaired)
		r.AddRow(dsName, f3(qn.F1), f3(qb.F1))
	}
	r.Notes = append(r.Notes,
		"support bias prefers well-supported merge targets among comparably close groups (§8 future work)")
	return r, nil
}

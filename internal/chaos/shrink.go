// Schedule shrinking: once a seed's schedule breaks an oracle, the harness
// reduces it to a minimal reproducing schedule before serializing it — the
// difference between "seed 7194 fails" and a two-line fault plan a human can
// reason about. Shrinking is greedy delta-debugging: drop whole events to a
// fixpoint, then narrow the survivors (smaller cut sets, shorter windows and
// outages, lower probabilities and slowdown factors). Every candidate re-runs
// the full oracle set and is accepted only if it still fails, so the result
// is 1-minimal with respect to these reductions within the run budget.
package chaos

import (
	"context"

	"iochar/internal/core"
	"iochar/internal/faults"
)

// shrinkBudget caps the candidate runs one shrink may spend.
const shrinkBudget = 32

func (h *Harness) shrink(ctx context.Context, w core.Workload, plan faults.Plan, g *golden) faults.Plan {
	budget := shrinkBudget
	fails := func(pl faults.Plan) bool {
		if budget <= 0 || ctx.Err() != nil {
			return false
		}
		budget--
		findings, _, _, err := h.check(ctx, w, pl, g)
		return err == nil && len(findings) > 0
	}

	// Phase 1: drop events until no single event can be removed.
	for i := 0; len(plan.Events) > 1 && i < len(plan.Events); i++ {
		if cand := without(plan, i); fails(cand) {
			plan = cand
			i = -1 // rescan the smaller plan from the start
		}
	}

	// Phase 2: narrow the surviving events' magnitudes.
	for changed := true; changed; {
		changed = false
		for i := range plan.Events {
			for _, cand := range narrowed(plan, i) {
				if fails(cand) {
					plan = cand
					changed = true
					break
				}
			}
		}
	}
	return plan
}

// without returns the plan minus event i.
func without(pl faults.Plan, i int) faults.Plan {
	ev := append([]faults.Event{}, pl.Events[:i]...)
	ev = append(ev, pl.Events[i+1:]...)
	return faults.Plan{Events: ev, Seed: pl.Seed}
}

// narrowed proposes gentler variants of event i (faults.Event.Narrowed),
// each as the whole plan with that one event replaced.
func narrowed(pl faults.Plan, i int) []faults.Plan {
	var cands []faults.Plan
	for _, e := range pl.Events[i].Narrowed() {
		evs := append([]faults.Event{}, pl.Events...)
		evs[i] = e
		cands = append(cands, faults.Plan{Events: evs, Seed: pl.Seed})
	}
	return cands
}

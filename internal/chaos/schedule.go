// Fault-schedule generation and serialization. A Schedule is the replayable
// unit: everything needed to rebuild the testbed and re-inject the exact
// fault sequence — workload, testbed shape, seeds, and the plan in the
// canonical internal/faults syntax. Shrunk schedules from failed seeds are
// written as JSON and checked into testdata as regressions.
package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/core"
	"iochar/internal/disk"
	"iochar/internal/faults"
)

// Schedule is one serialized chaos experiment.
type Schedule struct {
	Workload string `json:"workload"`
	// ChaosSeed is the seed the generator drew the plan from (0 for
	// hand-written or shrunk-then-edited schedules; replay never needs it).
	ChaosSeed int64 `json:"chaos_seed,omitempty"`
	// Plan is the fault schedule in internal/faults' plan syntax.
	Plan string `json:"plan"`
	// PlanSeed drives the drop-shuffle coin flips during injection.
	PlanSeed int64 `json:"plan_seed"`
	// Testbed shape: the run is only reproducible on the same cluster.
	Scale         int64 `json:"scale"`
	Slaves        int   `json:"slaves"`
	Seed          int64 `json:"seed"` // testbed seed (workload data, placement)
	MapTaskTarget int64 `json:"map_task_target,omitempty"`
	// Racks/UplinkBPS rebuild the network topology: rack-targeted faults
	// (partition rack=, slow-link rack=) only arm on a multi-rack fabric,
	// and placement differs across topologies (omitted = flat).
	Racks     int   `json:"racks,omitempty"`
	UplinkBPS int64 `json:"uplink_bps,omitempty"`
	// Tier is the device class backing the intermediate-data volumes
	// (omitted = hdd). Schedules that target flash devices — e.g. a
	// fail-slow on an mr volume — need it to rebuild the same fleet.
	Tier disk.Class `json:"tier,omitempty"`
	// MasterRecovery forces the journaled NameNode/JobTracker layers on for
	// the replayed run even when the plan carries no master fault (a plan
	// with restart-namenode/restart-jobtracker events implies them anyway).
	// Schedules probing slave faults *under* master recovery need it to
	// rebuild the same testbed.
	MasterRecovery bool `json:"master_recovery,omitempty"`
}

// Marshal renders the schedule as indented JSON, newline-terminated — the
// on-disk format of testdata/chaos regressions and `cmd/chaos -out` files.
func (s Schedule) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseSchedule decodes a schedule and validates its testbed and plan: a 0
// scale or slave count, or a negative size, would replay on another one, a
// plan target that testbed lacks would fail the replay.
func ParseSchedule(data []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(data, &s); err != nil {
		return Schedule{}, fmt.Errorf("bad schedule: %w", err)
	}
	if s.Scale <= 0 || s.Slaves <= 0 || s.MapTaskTarget < 0 || s.Racks < 0 || s.UplinkBPS < 0 {
		return Schedule{}, fmt.Errorf("bad schedule: scale %d and slaves %d must be positive, map_task_target %d, racks %d and uplink_bps %d not negative", s.Scale, s.Slaves, s.MapTaskTarget, s.Racks, s.UplinkBPS)
	}
	if _, err := core.ParseWorkload(s.Workload); err != nil {
		return Schedule{}, err
	}
	plan, err := faults.ParsePlan(s.Plan)
	if err == nil {
		err = plan.CheckTargets(s.Slaves, s.Racks, false)
	}
	if err != nil {
		return Schedule{}, err
	}
	return s, nil
}

// schedule captures a plan plus the harness's testbed shape.
func (h *Harness) schedule(w core.Workload, seed int64, plan faults.Plan) Schedule {
	return Schedule{
		Workload:       w.String(),
		ChaosSeed:      seed,
		Plan:           plan.String(),
		PlanSeed:       plan.Seed,
		Scale:          h.opts.Core.Scale,
		Slaves:         h.opts.Core.Slaves,
		Seed:           h.opts.Core.Seed,
		MapTaskTarget:  h.opts.Core.MapTaskTarget,
		Racks:          h.opts.Core.Racks,
		UplinkBPS:      h.opts.Core.UplinkBPS,
		Tier:           h.opts.Core.IntermediateTier,
		MasterRecovery: h.opts.Core.MasterRecovery,
	}
}

// testbed is the fault-free configuration the schedule was drawn on.
func (s Schedule) testbed() core.Options {
	return core.Options{
		Scale:            s.Scale,
		Slaves:           s.Slaves,
		Seed:             s.Seed,
		MapTaskTarget:    s.MapTaskTarget,
		Racks:            s.Racks,
		UplinkBPS:        s.UplinkBPS,
		IntermediateTier: s.Tier,
		MasterRecovery:   s.MasterRecovery,
	}
}

// Nodes returns the slave names of an n-slave testbed — the targets fault
// schedules draw from.
func Nodes(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = cluster.SlaveName(i)
	}
	return out
}

// GeneratePlan draws the seed's randomized fault schedule: 1..maxFaults
// events sampled over the golden run's duration against the given nodes.
// Deterministic: one seed, one schedule.
func GeneratePlan(seed int64, nodes []string, window time.Duration, maxFaults int) faults.Plan {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(maxFaults)
	return faults.RandomPlan(seed, nodes, window, n)
}

// Replay re-runs a serialized schedule under the full oracle set — how a
// shrunk schedule from a past failure becomes a regression test. The golden
// reference is rebuilt from the schedule's testbed shape, so a replay is
// self-contained.
func Replay(ctx context.Context, s Schedule) (*Verdict, error) {
	w, err := core.ParseWorkload(s.Workload)
	if err != nil {
		return nil, err
	}
	plan, err := faults.ParsePlan(s.Plan)
	if err != nil {
		return nil, err
	}
	plan.Seed = s.PlanSeed
	h := New(Options{Core: s.testbed()})
	g, err := h.goldenFor(ctx, w)
	if err != nil {
		return nil, err
	}
	findings, expected, rep, err := h.check(ctx, w, plan, g)
	if err != nil {
		return nil, err
	}
	v := &Verdict{Schedule: s, Survived: len(findings) == 0, Findings: findings, ExpectedLoss: expected}
	if rep != nil {
		v.Wall = rep.Wall
		v.Counters = sumCounters(rep)
	}
	return v, nil
}

// Package chaos is the randomized fault-injection harness over the
// characterization testbed: it draws deterministic fault schedules from a
// seed, runs each MapReduce workload under them, and checks correctness
// oracles against a fault-free golden run — output bytes survived, HDFS
// ended fully replicated with no orphaned replicas, the local filesystems
// leaked nothing, every dirty page was flushed, and the simulation kernel
// drained without deadlock. A schedule that breaks an oracle is shrunk
// greedily to a minimal reproducing schedule and serialized as JSON, so a
// regression test (or `cmd/chaos -replay`) can pin the fix.
//
// Everything is deterministic per seed: the same seed yields byte-identical
// schedules, counters, and verdicts, at any parallelism, which is what makes
// a seed number a sufficient bug report.
package chaos

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"iochar/internal/core"
	"iochar/internal/faults"
)

// Options configures the harness. Every run executes the paper's 1_8 /
// 16 GB / compression-on baseline cell, core.SlotsRuns[0]: a Schedule does
// not record its cell, so Replay runs the one that wrote it.
type Options struct {
	// Core is the fault-free testbed configuration every chaos run perturbs.
	// Faults, Audit, and Inspect must be left unset — the harness owns them.
	Core core.Options
	// MaxFaults caps the events per generated schedule (default 3).
	MaxFaults int
	// Parallelism bounds concurrent chaos runs (default 1). Verdicts are
	// identical at any value: every run owns its simulation kernel and RNG.
	Parallelism int
}

func (o Options) withDefaults() Options {
	// Mirror core's testbed defaults explicitly: schedules serialize these
	// values, so they must be pinned before any plan is generated.
	if o.Core.Scale <= 0 {
		o.Core.Scale = 1024
	}
	if o.Core.Slaves <= 0 {
		o.Core.Slaves = 10
	}
	if o.Core.Seed == 0 {
		o.Core.Seed = 1
	}
	if o.MaxFaults <= 0 {
		o.MaxFaults = 3
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	return o
}

// Harness runs seeded chaos experiments, lazily building one golden
// (fault-free) reference per workload and reusing it across seeds.
type Harness struct {
	opts Options

	mu      sync.Mutex
	goldens map[core.Workload]*golden
}

// New creates a harness. The zero Options value gives the paper's default
// testbed with at most 3 faults per schedule.
func New(opts Options) *Harness {
	return &Harness{opts: opts.withDefaults(), goldens: map[core.Workload]*golden{}}
}

// golden is the fault-free reference a workload's chaos runs are judged
// against: canonical output checksums, the raw bytes of the float-carrying
// outputs (compared numerically, not bit-exactly), and the run's wall time —
// the window fault schedules are sampled over.
type golden struct {
	wall time.Duration
	sums map[string]string
	raw  map[string][]byte
}

// goldenFor returns the workload's golden reference, running it on first
// use. Builds are serialized under the harness lock; concurrent seeds of the
// same workload wait for one build instead of racing duplicates.
func (h *Harness) goldenFor(ctx context.Context, w core.Workload) (*golden, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g, ok := h.goldens[w]; ok {
		return g, nil
	}
	opts := h.opts.Core
	opts.Audit = true
	opts.Integrity = true
	raw := map[string][]byte{}
	opts.Inspect = captureFloatOutputs(raw)
	rep, err := core.RunOneContext(ctx, w, core.SlotsRuns[0], opts)
	if err != nil {
		return nil, err
	}
	if !rep.Audit.Clean() {
		return nil, &GoldenError{Workload: w.String(), Violations: rep.Audit.Violations()}
	}
	g := &golden{wall: rep.Wall, sums: rep.Audit.OutputSums, raw: raw}
	h.goldens[w] = g
	return g, nil
}

// GoldenError means the fault-free reference run itself violated an
// invariant — the testbed is broken before any fault was injected.
type GoldenError struct {
	Workload   string
	Violations []string
}

func (e *GoldenError) Error() string {
	return "golden " + e.Workload + " run failed its own audit: " +
		joinMax(e.Violations, 3)
}

// RecoveryCounters is the fault-recovery work a run performed, aggregated
// over its jobs — part of the verdict so two runs of one seed can be
// compared field-for-field.
type RecoveryCounters struct {
	ReExecutedMaps      int64 `json:"re_executed_maps"`
	FetchRetries        int64 `json:"fetch_retries"`
	BlacklistedTrackers int64 `json:"blacklisted_trackers"`
	DoubleRegistrations int64 `json:"double_registrations"`
}

func sumCounters(rep *core.RunReport) RecoveryCounters {
	var c RecoveryCounters
	for _, j := range rep.Jobs {
		c.ReExecutedMaps += j.ReExecutedMaps
		c.FetchRetries += j.FetchRetries
		c.BlacklistedTrackers += j.BlacklistedTrackers
		c.DoubleRegistrations += j.DoubleRegistrations
	}
	return c
}

// Verdict is the outcome of one seeded chaos run.
type Verdict struct {
	Schedule Schedule `json:"schedule"`
	// Survived means every oracle passed: the job finished, its output
	// matched the golden run, and every invariant audit came back clean
	// (after expected-loss classification).
	Survived bool     `json:"survived"`
	Findings []string `json:"findings,omitempty"`
	// ExpectedLoss lists findings reclassified as physics rather than bugs:
	// data loss confined to replication-factor-1 files (TeraSort output)
	// whose only replica a fault destroyed post-commit. Nothing the system
	// promised was violated, so these do not fail the run.
	ExpectedLoss []string `json:"expected_loss,omitempty"`
	// Wall and Counters describe the faulted run (zero when the run failed
	// outright and produced no report).
	Wall     time.Duration    `json:"wall_ns"`
	Counters RecoveryCounters `json:"counters"`
	// Shrunk is the minimal reproducing schedule of a failed run.
	Shrunk *Schedule `json:"shrunk,omitempty"`
}

// RunSeed generates the seed's fault schedule for the workload, runs it, and
// judges it against the golden reference, shrinking on failure. The error
// return is infrastructural (cancellation, a golden run that cannot be
// built); oracle failures land in the verdict, not the error.
func (h *Harness) RunSeed(ctx context.Context, w core.Workload, seed int64) (*Verdict, error) {
	g, err := h.goldenFor(ctx, w)
	if err != nil {
		return nil, err
	}
	plan := GeneratePlan(seed, Nodes(h.opts.Core.Slaves), g.wall, h.opts.MaxFaults)
	v := &Verdict{Schedule: h.schedule(w, seed, plan)}
	findings, expected, rep, err := h.check(ctx, w, plan, g)
	if err != nil {
		return nil, err
	}
	v.Findings = findings
	v.ExpectedLoss = expected
	v.Survived = len(findings) == 0
	if rep != nil {
		v.Wall = rep.Wall
		v.Counters = sumCounters(rep)
	}
	if !v.Survived {
		s := h.schedule(w, seed, h.shrink(ctx, w, plan, g))
		v.Shrunk = &s
	}
	return v, nil
}

// check executes one faulted run and returns its oracle findings plus the
// findings reclassified as expected loss. A run error (failed job,
// simulation deadlock) is itself a finding — every schedule the generator
// produces leaves enough of the cluster alive that recovery is supposed to
// succeed.
func (h *Harness) check(ctx context.Context, w core.Workload, plan faults.Plan, g *golden) (findings, expected []string, rep *core.RunReport, err error) {
	raw := map[string][]byte{}
	rep, err = core.RunOneContext(ctx, w, core.SlotsRuns[0], h.checkOptions(plan, raw))
	if err != nil {
		if ctx.Err() != nil {
			return nil, nil, nil, ctx.Err()
		}
		return []string{"run failed: " + err.Error()}, nil, nil, nil
	}
	findings = rep.Audit.Violations()
	findings = append(findings, CompareOutputs(g.sums, rep.Audit.OutputSums, g.raw, raw)...)
	if c := sumCounters(rep); c.DoubleRegistrations != 0 {
		findings = append(findings, fmt.Sprintf("mapred: %d tracker rejoin(s) over-filled a node's slots", c.DoubleRegistrations))
	}
	findings, expected = classifyExpectedLoss(findings, rep.Audit)
	return findings, expected, rep, nil
}

// checkOptions is the testbed check runs plan on: audited, checksummed,
// with the float outputs captured into raw.
func (h *Harness) checkOptions(plan faults.Plan, raw map[string][]byte) core.Options {
	opts := h.opts.Core
	opts.Faults = plan
	opts.Audit = true
	opts.Integrity = true
	if slices.ContainsFunc(plan.Events, func(ev faults.Event) bool { return ev.Kind == faults.CorruptBlock }) {
		// Silent corruption in data the workload never re-reads is only
		// found by the scrubber; run it unthrottled so one pass fits the
		// post-run barrier regardless of data volume.
		opts.ScrubRate = -1
	}
	opts.Inspect = captureFloatOutputs(raw)
	return opts
}

// classifyExpectedLoss splits out findings that are physics rather than
// bugs: when every replica of a replication-factor-1 file is destroyed
// post-commit, HDFS never promised survival, so the data-loss record, the
// lost-block audit entries, and the missing-output comparison for that path
// are expected. Loss touching any replicated file stays a real finding.
func classifyExpectedLoss(findings []string, audit *core.AuditReport) (remaining, expected []string) {
	lossPaths := map[string]bool{}
	for _, d := range audit.DataLoss {
		if d.Want == 1 {
			lossPaths[d.Path] = true
		}
	}
	if len(lossPaths) == 0 {
		return findings, nil
	}
	isExpected := func(f string) bool {
		for p := range lossPaths {
			if f == "missing output "+p ||
				strings.HasPrefix(f, "data loss: "+p+":") ||
				strings.HasPrefix(f, "hdfs: lost "+p+" blk_") {
				return true
			}
		}
		return false
	}
	for _, f := range findings {
		if isExpected(f) {
			expected = append(expected, f)
		} else {
			remaining = append(remaining, f)
		}
	}
	return remaining, expected
}

// RunSeeds runs seeds [seed, seed+runs) for one workload across the
// harness's worker pool and returns the verdicts in seed order.
func (h *Harness) RunSeeds(ctx context.Context, w core.Workload, seed int64, runs int) ([]*Verdict, error) {
	verdicts := make([]*Verdict, runs)
	errs := make([]error, runs)
	sem := make(chan struct{}, h.opts.Parallelism)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			verdicts[i], errs[i] = h.RunSeed(ctx, w, seed+int64(i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return verdicts, nil
}

// Soak runs consecutive seeds (in batches of Parallelism) until the deadline
// passes or ctx is cancelled, calling onVerdict for each completed seed in
// order. It returns the number of seeds completed. A batch in flight when
// the deadline hits is finished, not abandoned.
func (h *Harness) Soak(ctx context.Context, w core.Workload, seed int64, deadline time.Time, onVerdict func(*Verdict)) (int, error) {
	runs := 0
	for time.Now().Before(deadline) && ctx.Err() == nil {
		batch, err := h.RunSeeds(ctx, w, seed+int64(runs), h.opts.Parallelism)
		if err != nil {
			return runs, err
		}
		for _, v := range batch {
			runs++
			if onVerdict != nil {
				onVerdict(v)
			}
		}
	}
	return runs, ctx.Err()
}

func joinMax(ss []string, n int) string {
	out := ""
	for i, s := range ss {
		if i == n {
			return out + ", ..."
		}
		if i > 0 {
			out += ", "
		}
		out += s
	}
	return out
}

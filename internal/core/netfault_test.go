package core

import (
	"fmt"
	"testing"

	"iochar/internal/faults"
)

// rackOpts is the two-rack testbed the network-fault tests run on — the
// same shape as the checked-in chaos regression schedules.
var rackOpts = Options{
	Scale:         262144,
	Slaves:        5,
	MapTaskTarget: 8,
	Seed:          1,
	Racks:         2,
}

// TestSlowLinkShuffleRetriesWithoutBlacklist: a degraded uplink plus a
// lossy NIC during the shuffle must surface as net-fetch stalls that are
// waited out with backoff — never as tracker blacklisting (the tracker is
// healthy; the path is not) and never as abandoned fetches.
func TestSlowLinkShuffleRetriesWithoutBlacklist(t *testing.T) {
	plan, err := faults.ParsePlan("slow-link@20ms:rack=2,factor=6;drop-link@30ms:node=slave-01,until=80ms,prob=0.9")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 202
	opts := rackOpts
	opts.Faults = plan
	rep, err := RunOne(KM, Factors{Slots: Slots1x8, MemoryGB: 32}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var stalls, blacklisted, failed, retries int64
	for _, j := range rep.Jobs {
		stalls += j.Counters.NetFetchStalls
		blacklisted += j.Counters.BlacklistedTrackers
		failed += j.Counters.FailedFetches
		retries += j.Counters.FetchRetries
	}
	if stalls == 0 {
		t.Error("no NetFetchStalls: the lossy link never perturbed the shuffle")
	}
	if retries == 0 {
		t.Error("no FetchRetries recorded alongside the net stalls")
	}
	if blacklisted != 0 {
		t.Errorf("BlacklistedTrackers = %d; transient network faults must not blacklist healthy trackers", blacklisted)
	}
	if failed != 0 {
		t.Errorf("FailedFetches = %d; stalls within the retry budget must not abandon outputs", failed)
	}
}

// TestFlatTopologyByteIdentical pins the zero-overhead contract of the
// rack work: an explicit Racks=1 (and 0, the unset default) is the flat
// network, and the whole report — counters, iostat, and the rendered
// figures behind them — is byte-identical to a run that never mentions
// racks. Combined with TestHealthyPathMatchesSeedGolden this anchors the
// healthy -all output to the pre-rack seed build.
func TestFlatTopologyByteIdentical(t *testing.T) {
	f := Factors{Slots: Slots1x8, MemoryGB: 16, Compress: true}
	base, err := RunOne(TS, f, fastOpts)
	if err != nil {
		t.Fatal(err)
	}
	explicit := fastOpts
	explicit.Racks = 1
	rep, err := RunOne(TS, f, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if reportJSON(t, rep) != reportJSON(t, base) {
		t.Error("explicit Racks=1 report differs from the default flat network")
	}
	if rep.Network == nil || rep.Network.Racks != 1 || len(rep.Network.Uplinks) != 0 {
		t.Errorf("flat network stats malformed: %+v", rep.Network)
	}
	if rep.Network.FailedTransfers != 0 || rep.Network.DroppedChunks != 0 {
		t.Errorf("healthy flat run recorded network faults: %+v", rep.Network)
	}
}

// TestRackTopologyDeterminism pins the cross-topology determinism
// contract: the same two-rack cell is byte-identical across two independent
// standalone runs and under a parallel sweep — at the NIC-rate uplink and at
// a 40 MB/s oversubscribed one, where ToR queueing and uplink sharing
// actually contend.
func TestRackTopologyDeterminism(t *testing.T) {
	oversubscribed := rackOpts
	oversubscribed.UplinkBPS = 40 << 20
	cells := []Cell{{TS, SlotsRuns[0]}, {KM, SlotsRuns[0]}, {AGG, SlotsRuns[0]}}
	for _, opts := range []Options{rackOpts, oversubscribed} {
		par := NewSuite(opts, WithParallelism(4))
		for _, c := range cells {
			name := fmt.Sprintf("%s uplink=%d", c.Factors.cacheKey(c.Workload), opts.UplinkBPS)
			seq, err := RunOne(c.Workload, c.Factors, opts)
			if err != nil {
				t.Fatal(err)
			}
			again, err := RunOne(c.Workload, c.Factors, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Run(c.Workload, c.Factors)
			if err != nil {
				t.Fatal(err)
			}
			want := reportJSON(t, seq)
			if reportJSON(t, again) != want {
				t.Errorf("%s: two independent racks=2 runs differ", name)
			}
			if reportJSON(t, got) != want {
				t.Errorf("%s: racks=2 parallel report differs from sequential", name)
			}
			if got.Network == nil || got.Network.Racks != 2 {
				t.Errorf("%s: report Network group missing or wrong rack count: %+v", name, got.Network)
			}
		}
	}
}

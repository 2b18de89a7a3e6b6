package faults_test

import (
	"reflect"
	"strings"
	"testing"

	"iochar/internal/bench"
	"iochar/internal/core"
	"iochar/internal/faults"
)

// allKindsPlan uses every fault kind once, inside the ~0.7 s virtual
// TeraSort at scale 65536, with each restart's rejoin, the partition's heal
// and the lossy link's clear landing before the run ends.
const allKindsPlan = "slow-disk@50ms:node=slave-03,disk=mr0,factor=4;" +
	"restart-namenode@80ms:down=40ms;" +
	"drop-shuffle@100ms:until=500ms,prob=0.2;" +
	"fail-disk@120ms:node=slave-04,disk=mr0;" +
	"corrupt-block@130ms:path=/bench/TS/in/part-00000;" +
	"restart-datanode@150ms:node=slave-02,down=50ms;" +
	"slow-link@180ms:rack=1,factor=3;" +
	"drop-link@200ms:node=slave-05,until=300ms,prob=0.3;" +
	"partition@250ms:rack=2,down=50ms;" +
	"kill-datanode@320ms:node=slave-01;" +
	"restart-node@350ms:node=slave-00,down=60ms;" +
	"restart-jobtracker@400ms:down=25ms;" +
	"kill-node@550ms:node=slave-03"

// TestAllKindsPinned pins what the injector does with every kind in one
// run: the fired log (each fault, rejoin, heal and clear, in firing order),
// the kernel's event count and the run's fingerprint. A change to how
// events are scheduled — their order at one instant included — moves one of
// the three.
func TestAllKindsPinned(t *testing.T) {
	plan, err := faults.ParsePlan(allKindsPlan)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[faults.Kind]bool{}
	for _, ev := range plan.Events {
		kinds[ev.Kind] = true
	}
	if len(kinds) != 13 {
		t.Fatalf("plan uses %d kinds, want all 13", len(kinds))
	}
	opts := core.NewOptions(core.WithScale(65536), core.WithSlaves(6), core.WithMapTaskTarget(64),
		core.WithSeed(1), core.WithRacks(2), core.WithUplink(40<<20), core.WithIntegrity(),
		core.WithFaults(plan))
	rep, err := core.RunOne(core.TS, core.Factors{Slots: core.Slots1x8, MemoryGB: 16, Compress: true}, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"t=50ms slow-disk@50ms:node=slave-03,disk=mr0,factor=4",
		"t=80ms restart-namenode@80ms:down=40ms",
		"t=100ms drop-shuffle@100ms:until=500ms,prob=0.2",
		"t=120ms fail-disk@120ms:node=slave-04,disk=mr0",
		"t=120ms rejoin namenode",
		"t=130ms corrupt-block@130ms:path=/bench/TS/in/part-00000 blk=10",
		"t=150ms restart-datanode@150ms:node=slave-02,down=50ms",
		"t=180ms slow-link@180ms:rack=1,factor=3",
		"t=200ms drop-link@200ms:node=slave-05,until=300ms,prob=0.3",
		"t=200ms rejoin slave-02",
		"t=250ms partition@250ms:rack=2,down=50ms",
		"t=300ms clear drop-link slave-05",
		"t=300ms heal slave-01+slave-03+slave-05",
		"t=320ms kill-datanode@320ms:node=slave-01",
		"t=350ms restart-node@350ms:node=slave-00,down=60ms",
		"t=400ms restart-jobtracker@400ms:down=25ms",
		"t=425ms rejoin jobtracker",
		"t=452.352422ms rejoin slave-00",
		"t=550ms kill-node@550ms:node=slave-03",
	}
	if !reflect.DeepEqual(rep.FaultsInjected, want) {
		t.Errorf("fired log:\n%s\nwant:\n%s", strings.Join(rep.FaultsInjected, "\n"), strings.Join(want, "\n"))
	}
	if got, want := rep.Events, uint64(35764); got != want {
		t.Errorf("events = %d, want %d", got, want)
	}
	if got, want := bench.Fingerprint(rep), "2358bbb9c49ef7af"; got != want {
		t.Errorf("fingerprint = %s, want %s", got, want)
	}
}

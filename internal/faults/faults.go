// Package faults injects failures into a running simulation — fail-stop and
// fail-slow disks, DataNode crashes, whole-node (TaskTracker) crashes, and
// transient shuffle-fetch drops — at deterministic virtual timestamps or
// sampled from a seeded RNG. The injector only *causes* failures; detection
// and repair live with the subsystems themselves (hdfs.EnableRecovery,
// mapred.EnableFaults), which the caller must switch on for the cluster to
// survive what is injected here.
//
// A fault plan is a semicolon-separated list of events:
//
//	kill-datanode@15s:node=slave-02
//	kill-node@20s:node=slave-01
//	fail-disk@10s:node=slave-03,disk=hdfs1
//	slow-disk@12s:node=slave-03,disk=mr0,factor=8
//	drop-shuffle@8s:until=30s,prob=0.3
//	partition@10s:nodes=slave-01+slave-02,down=20s
//	partition@10s:rack=2,down=20s
//	slow-link@5s:node=slave-03,factor=8
//	slow-link@5s:rack=1,factor=4
//	drop-link@8s:node=slave-04,until=30s,prob=0.3
//
// Each kind takes exactly the arguments below and rejects any other ("a|b"
// means exactly one of the two; [x] is optional), and its node= or nodes=
// may name only the nodes in the last column:
//
//	kill-datanode, kill-node              node                  a slave
//	fail-disk                             node disk             a slave
//	slow-disk                             [node] [disk] factor  a slave (both, against a cluster)
//	restart-datanode, restart-node        node down             a slave
//	restart-namenode, restart-jobtracker  down                  (the master is the target)
//	corrupt-block                         node and/or path      a slave
//	drop-shuffle                          until prob
//	partition                             nodes|rack down       any node
//	slow-link                             node|rack factor      any node
//	drop-link                             node until prob       any node
//
// with factor > 1, until later than the event's own time, prob in (0,1] and
// down > 0. Timestamps are virtual time from the start of the run, parsed by
// time.ParseDuration. Two runs with the same plan (and, for drop-shuffle,
// drop-link, and RandomPlan, the same seed) inject byte-identical fault
// sequences.
//
// The master runs only the NameNode and the JobTracker: it holds no
// DataNode, TaskTracker or data disk. ParsePlan checks each event alone and
// refuses a repeated one. Plan.Resolve checks every target against a
// testbed's shape, and refuses two events that hold one target in windows
// that overlap (back-to-back ones do not): restarts of one victim, drop-link
// windows on one node, partitions cutting one node off. Injector.Start
// resolves the same way and binds the targets to the built cluster.
package faults

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"iochar/internal/cluster"
	"iochar/internal/hdfs"
	"iochar/internal/localfs"
	"iochar/internal/mapred"
	"iochar/internal/netsim"
	"iochar/internal/sim"
)

// Kind identifies a fault class.
type Kind string

const (
	// KillDataNode fail-stops the DataNode process on a node: HDFS reads,
	// write-pipeline hops, and heartbeats stop, but the TaskTracker and NIC
	// survive. The NameNode notices after its dead timeout.
	KillDataNode Kind = "kill-datanode"
	// KillNode fail-stops the whole machine: NIC severed, DataNode and
	// TaskTracker dead, running task attempts written off.
	KillNode Kind = "kill-node"
	// FailDisk fail-stops one data volume. An HDFS volume's replicas enter
	// the repair queue immediately (the DataNode reports the bad dfs.data.dir);
	// an intermediate volume's map outputs are declared lost.
	FailDisk Kind = "fail-disk"
	// SlowDisk degrades one volume's disk by a service-time multiplier — the
	// classic fail-slow fault that speculation exists to mask.
	SlowDisk Kind = "slow-disk"
	// DropShuffle drops each shuffle fetch with probability Prob inside the
	// window [At, Until), forcing the reduce side into retry/backoff.
	DropShuffle Kind = "drop-shuffle"
	// RestartDataNode fail-stops the DataNode process at At and restarts it
	// Down later: on rejoin it sends a block report the NameNode reconciles
	// (re-adopting intact replicas, purging stale ones, cancelling repairs
	// that are no longer needed). The machine, its page cache, NIC, and
	// TaskTracker stay up throughout.
	RestartDataNode Kind = "restart-datanode"
	// RestartNode power-cycles the whole machine: at At it dies like
	// KillNode and every local volume crashes (dirty page cache lost, files
	// truncated to their flushed prefix); Down later the volumes remount by
	// replaying their metadata journals, the NIC returns, the DataNode
	// rejoins with a block report, and the TaskTracker re-registers with the
	// JobTracker so its slots rejoin scheduling.
	RestartNode Kind = "restart-node"
	// CorruptBlock silently flips bytes inside one stored HDFS replica on
	// the target node (optionally restricted to blocks of path=). Nothing
	// notices until a checksummed read or the scrubber trips over it.
	CorruptBlock Kind = "corrupt-block"
	// RestartNameNode fail-stops the NameNode at At and restarts it down=
	// later: clients stall on backoff while it is down, and the restart
	// replays checkpoint+journal off the master's metadata disk and holds
	// mutations in safe mode until block reports re-confirm enough replicas.
	// Requires master recovery to be modeled (core.WithMasterRecovery, or
	// implied by the plan). Takes no node=: the master is the target.
	RestartNameNode Kind = "restart-namenode"
	// RestartJobTracker fail-stops the JobTracker at At and restarts it
	// down= later: task grants stall on backoff, membership events queue
	// until restart, and the restart replays the job-state journal and
	// reconciles zombie attempts via incarnation counters.
	RestartJobTracker Kind = "restart-jobtracker"
	// Partition splits a node set (nodes=a+b+c) or a whole rack (rack=N,
	// 1-indexed) away from the rest of the cluster at At and heals the cut
	// Down later. Nodes inside the cut reach one another; every path across
	// it fails. Nothing reboots: processes, disks, and page caches are
	// untouched, so the heal is instant — clients that backed off across the
	// window resume, and a node the NameNode declared dead for missed
	// heartbeats re-registers from its own heartbeat loop.
	Partition Kind = "partition"
	// SlowLink degrades a node's NIC (node=) or a rack's ToR uplink (rack=N)
	// by a service-time multiplier — the network twin of SlowDisk. Fire-only,
	// like SlowDisk: the link stays slow for the rest of the run.
	SlowLink Kind = "slow-link"
	// DropLink makes every path touching node= lossy inside [At, Until):
	// each chunk drops (and retransmits) with probability Prob; a chunk that
	// drops too many times in a row fails the transfer with a transient
	// error the clients wait out.
	DropLink Kind = "drop-link"
)

// Event is one scheduled fault.
type Event struct {
	Kind   Kind
	At     time.Duration // virtual time the fault fires
	Node   string        // target node (all kinds except DropShuffle)
	Disk   string        // volume selector, e.g. "hdfs0", "mr2", "data1"
	Factor float64       // SlowDisk/SlowLink service-time multiplier (> 1)
	Until  time.Duration // DropShuffle/DropLink window end
	Prob   float64       // DropShuffle/DropLink drop probability
	Down   time.Duration // Restart*/Partition outage length; the rejoin/heal fires at At+Down
	Path   string        // CorruptBlock: restrict victims to this HDFS path
	Nodes  []string      // Partition: the node set split away (syntax nodes=a+b+c)
	Rack   int           // Partition/SlowLink rack target, 1-indexed; 0 = unset
}

// argNames lists the plan syntax's arguments in the order String renders
// them; the arg* bits below index it.
var argNames = [...]string{"node", "nodes", "rack", "disk", "factor", "until", "prob", "down", "path"}

// argSet is a set of arguments, one bit per argNames entry.
type argSet uint16

const (
	argNode argSet = 1 << iota
	argNodes
	argRack
	argDisk
	argFactor
	argUntil
	argProb
	argDown
	argPath
)

// kindArgs gives each kind the arguments it takes and the nodes they may
// name: need lists the arguments it cannot run without, may the optional
// ones. Anything else is rejected — an argument the kind ignores would still
// widen the event's outage window and the driver's settle time. node= and
// nodes= name a slave, or also the master where master is set: the master
// has a NIC but no DataNode, TaskTracker or data disk. slow-disk leaves
// node=/disk= optional because iosim applies it to its one standalone
// device; Resolve demands both against a testbed. The kinds whose target is
// one of two forms (corrupt-block, partition, slow-link) list both under may
// and validate checks the pairing.
var kindArgs = map[Kind]struct {
	need, may argSet
	master    bool
}{
	KillDataNode:      {need: argNode},
	KillNode:          {need: argNode},
	FailDisk:          {need: argNode | argDisk},
	SlowDisk:          {need: argFactor, may: argNode | argDisk},
	DropShuffle:       {need: argUntil | argProb},
	RestartDataNode:   {need: argNode | argDown},
	RestartNode:       {need: argNode | argDown},
	CorruptBlock:      {may: argNode | argPath},
	RestartNameNode:   {need: argDown},
	RestartJobTracker: {need: argDown},
	Partition:         {need: argDown, may: argNodes | argRack, master: true},
	SlowLink:          {need: argFactor, may: argNode | argRack, master: true},
	DropLink:          {need: argNode | argUntil | argProb, master: true},
}

// args renders the event's arguments in ParsePlan's syntax, parallel to
// argNames; an argument the event does not carry is "".
func (ev Event) args() [len(argNames)]string {
	dur := func(d time.Duration) string {
		if d == 0 {
			return ""
		}
		return d.String()
	}
	num := func(f float64) string {
		if f == 0 {
			return ""
		}
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	rack := ""
	if ev.Rack != 0 {
		rack = strconv.Itoa(ev.Rack)
	}
	return [...]string{ev.Node, strings.Join(ev.Nodes, "+"), rack, ev.Disk,
		num(ev.Factor), dur(ev.Until), num(ev.Prob), dur(ev.Down), ev.Path}
}

// String renders the event in ParsePlan's syntax.
func (ev Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%s", ev.Kind, ev.At)
	sep := ":"
	for i, v := range ev.args() {
		if v != "" {
			b.WriteString(sep + argNames[i] + "=" + v)
			sep = ","
		}
	}
	return b.String()
}

// Plan is a set of fault events plus the seed driving any randomized
// behaviour (drop-shuffle coin flips).
type Plan struct {
	Events []Event
	Seed   int64
}

// Empty reports whether the plan injects nothing.
func (pl Plan) Empty() bool { return len(pl.Events) == 0 }

// String renders the plan in ParsePlan's syntax.
func (pl Plan) String() string {
	parts := make([]string, len(pl.Events))
	for i, ev := range pl.Events {
		parts[i] = ev.String()
	}
	return strings.Join(parts, ";")
}

// ParsePlan parses the fault-plan syntax documented in the package comment.
// An empty string yields an empty plan. The plan's Seed is left zero — tie
// it to an experiment seed afterwards (core.Options does so automatically).
func ParsePlan(s string) (Plan, error) {
	var pl Plan
	s = strings.TrimSpace(s)
	if s == "" {
		return pl, nil
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ev, err := parseEvent(part)
		if err != nil {
			return Plan{}, err
		}
		key := ev.String()
		if seen[key] {
			return Plan{}, fmt.Errorf("faults: duplicate event %q", key)
		}
		seen[key] = true
		pl.Events = append(pl.Events, ev)
	}
	return pl, nil
}

func parseEvent(s string) (Event, error) {
	head, args, _ := strings.Cut(s, ":")
	kindStr, atStr, ok := strings.Cut(head, "@")
	if !ok {
		return Event{}, fmt.Errorf("faults: %q: want kind@time[:k=v,...]", s)
	}
	ev := Event{Kind: Kind(kindStr)}
	if _, ok := kindArgs[ev.Kind]; !ok {
		return Event{}, fmt.Errorf("faults: %q: unknown fault kind %q", s, kindStr)
	}
	at, err := time.ParseDuration(atStr)
	if err != nil || at <= 0 {
		return Event{}, fmt.Errorf("faults: %q: bad timestamp %q (want a positive duration)", s, atStr)
	}
	ev.At = at
	if args != "" {
		for _, kv := range strings.Split(args, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || v == "" {
				return Event{}, fmt.Errorf("faults: %q: bad argument %q", s, kv)
			}
			switch k {
			case "node":
				ev.Node = v
			case "nodes":
				ev.Nodes = strings.Split(v, "+")
			case "rack":
				ev.Rack, err = strconv.Atoi(v)
			case "disk":
				ev.Disk = v
			case "factor":
				ev.Factor, err = strconv.ParseFloat(v, 64)
			case "until":
				ev.Until, err = time.ParseDuration(v)
			case "prob":
				ev.Prob, err = strconv.ParseFloat(v, 64)
			case "down":
				ev.Down, err = time.ParseDuration(v)
			case "path":
				ev.Path = v
			default:
				return Event{}, fmt.Errorf("faults: %q: unknown argument %q", s, k)
			}
			if err != nil {
				return Event{}, fmt.Errorf("faults: %q: bad value %q for %q", s, v, k)
			}
		}
	}
	return ev, ev.validate()
}

// validate checks one event against its kind's argument set (kindArgs), the
// per-argument value rules, and the three either-or target rules.
func (ev Event) validate() error {
	spec, ok := kindArgs[ev.Kind]
	if !ok {
		return fmt.Errorf("faults: unknown fault kind %q", ev.Kind)
	}
	for i, v := range ev.args() {
		if v != "" && (spec.need|spec.may)&(1<<i) == 0 {
			return fmt.Errorf("faults: %s takes no %s=", ev.Kind, argNames[i])
		}
	}
	switch {
	case spec.need&argNode != 0 && ev.Node == "":
		return fmt.Errorf("faults: %s needs node=", ev.Kind)
	case spec.need&argDisk != 0 && ev.Disk == "":
		return fmt.Errorf("faults: %s needs disk=", ev.Kind)
	case spec.need&argFactor != 0 && !(ev.Factor > 1): // negated so NaN fails
		return fmt.Errorf("faults: %s needs factor > 1, got %g", ev.Kind, ev.Factor)
	case spec.need&argUntil != 0 && ev.Until <= ev.At:
		return fmt.Errorf("faults: %s needs until > the start time", ev.Kind)
	case spec.need&argProb != 0 && !(ev.Prob > 0 && ev.Prob <= 1):
		return fmt.Errorf("faults: %s needs prob in (0,1], got %g", ev.Kind, ev.Prob)
	case spec.need&argDown != 0 && ev.Down <= 0:
		return fmt.Errorf("faults: %s needs down > 0", ev.Kind)
	case ev.Rack < 0:
		return fmt.Errorf("faults: %s needs rack >= 1 (racks are 1-indexed), got %d", ev.Kind, ev.Rack)
	}
	switch ev.Kind {
	case CorruptBlock:
		if ev.Node == "" && ev.Path == "" {
			return fmt.Errorf("faults: %s needs node= or path=", ev.Kind)
		}
	case Partition:
		if (len(ev.Nodes) > 0) == (ev.Rack > 0) {
			return fmt.Errorf("faults: %s needs exactly one of nodes= or rack=", ev.Kind)
		}
		for _, n := range ev.Nodes {
			if n == "" {
				return fmt.Errorf("faults: %s has an empty entry in nodes=", ev.Kind)
			}
		}
	case SlowLink:
		if (ev.Node != "") == (ev.Rack > 0) {
			return fmt.Errorf("faults: %s needs exactly one of node= or rack=", ev.Kind)
		}
	}
	return nil
}

// Narrowed proposes gentler variants of the event for schedule shrinking,
// strongest reduction first: half the cut set, half the lossy window, half
// the drop probability, half the slowdown factor, half the outage. The rule
// is per argument, so every kind that takes one is covered; an event with
// nothing left to halve (a kill, a single-node cut at its floor) has none.
func (ev Event) Narrowed() []Event {
	var out []Event
	if n := len(ev.Nodes); n > 1 {
		e := ev
		e.Nodes = append([]string{}, ev.Nodes[:n/2]...)
		out = append(out, e)
	}
	if w := (ev.Until - ev.At) / 2; w > 0 {
		e := ev
		e.Until = ev.At + w
		out = append(out, e)
	}
	if p := ev.Prob / 2; p >= 0.05 {
		e := ev
		e.Prob = p
		out = append(out, e)
	}
	if f := ev.Factor / 2; f > 1 {
		e := ev
		e.Factor = f
		out = append(out, e)
	}
	if d := ev.Down / 2; d > 0 {
		e := ev
		e.Down = d
		out = append(out, e)
	}
	return out
}

// span is what an event holds from at until until: names in one set — the
// victims that restarts take down, the nodes drop-links make lossy, or the
// nodes partitions cut off. An event that holds nothing has no names.
type span struct {
	at, until time.Duration
	set       string
	names     []string
}

// meets returns a name two spans of one set hold at the same instant, or ""
// if there is none. Such spans undo each other: the first to end would
// rejoin a victim the other keeps down, clear the other's drop state, or
// reunite a node the other still cuts off.
func (s span) meets(o span) string {
	if s.set != o.set || s.at >= o.until || o.at >= s.until {
		return ""
	}
	for _, name := range s.names {
		if slices.Contains(o.names, name) {
			return name
		}
	}
	return ""
}

// holds returns what the event holds from At until end(): a restart's
// victim, a drop-link's node, or the nodes a partition cuts off, which the
// caller passes as cut. The three are separate sets: a lossy window or a
// cut over a restarting node is harmless, since its paths already fail.
func (ev Event) holds(cut []string) span {
	s := span{at: ev.At, until: ev.end()}
	switch ev.Kind {
	case RestartDataNode, RestartNode, RestartNameNode, RestartJobTracker:
		s.set, s.names = "down", []string{ev.victim()}
	case DropLink:
		s.set, s.names = "lossy", []string{ev.Node}
	case Partition:
		s.set, s.names = "cut", cut
	}
	return s
}

// end returns when the event is undone — a restart's rejoin, a partition's
// heal, a lossy link's clear — or, for a fault that stays, its own time.
func (ev Event) end() time.Duration {
	if ev.Kind == DropLink {
		return ev.Until
	}
	return ev.At + ev.Down
}

// victim names the entity an event takes down — the target node, or the
// master process for master faults.
func (ev Event) victim() string {
	switch ev.Kind {
	case RestartNameNode:
		return "namenode"
	case RestartJobTracker:
		return "jobtracker"
	}
	return ev.Node
}

// HasMasterFaults reports whether the plan restarts the NameNode or the
// JobTracker — such plans require the master-recovery machinery.
func (pl Plan) HasMasterFaults() bool {
	for _, ev := range pl.Events {
		if ev.Kind == RestartNameNode || ev.Kind == RestartJobTracker {
			return true
		}
	}
	return false
}

// RandomPlan samples n fault events uniformly over [0, window) against the
// given nodes, a testbed's slaves in order, deterministically for a seed.
// Disk faults always target index 0 of a random role (every node has at
// least one disk per role); kill-node and restart-node are excluded when
// nodes has a single entry, since losing the only slave cannot be survived
// (even briefly — a restart still loses the only copy of running attempts).
// Events are sorted by time, and the plan passes Resolve on that testbed.
func RandomPlan(seed int64, nodes []string, window time.Duration, n int) Plan {
	rng := rand.New(rand.NewSource(seed))
	kinds := []Kind{KillDataNode, FailDisk, SlowDisk, DropShuffle, RestartDataNode, CorruptBlock,
		RestartNameNode, RestartJobTracker, SlowLink, DropLink, KillNode, RestartNode, Partition}
	if len(nodes) <= 1 {
		// Master restarts and link faults cost no slave; whole-node loss
		// does, and a partition needs a remainder to be cut off from.
		kinds = kinds[:10]
	}
	pl := Plan{Seed: seed}
	killed := 0
	for i := 0; i < n; i++ {
		ev := Event{
			Kind: kinds[rng.Intn(len(kinds))],
			At:   time.Duration(rng.Int63n(int64(window))),
			Node: nodes[rng.Intn(len(nodes))],
		}
		if ev.At == 0 {
			ev.At = 1 // a zero timestamp fails plan validation
		}
		if ev.Kind == KillNode || ev.Kind == RestartNode {
			// At most half the cluster may be down at once, or quorum-less
			// recovery (fewer live nodes than the replication factor)
			// dominates. Restarting nodes count: they are dead while down.
			if killed+1 >= (len(nodes)+1)/2 {
				ev.Kind = KillDataNode
			} else {
				killed++
			}
		}
		switch ev.Kind {
		case FailDisk, SlowDisk:
			if rng.Intn(2) == 0 {
				ev.Disk = "hdfs0"
			} else {
				ev.Disk = "mr0"
			}
			// fail-disk draws a factor too and discards it: the draw is part
			// of every seed's schedule.
			if f := float64(2 + rng.Intn(15)); ev.Kind == SlowDisk {
				ev.Factor = f // 2..16
			}
		case DropShuffle:
			ev.Node = ""
			ev.Until = ev.At + time.Duration(rng.Int63n(int64(window)))
			ev.Prob = 0.1 + 0.4*rng.Float64()
		case RestartDataNode, RestartNode, RestartNameNode, RestartJobTracker:
			// Outages between an eighth and a third of the window: long
			// enough that the dead timeout can fire first, short enough that
			// the rejoin lands inside the run.
			ev.Down = window/8 + time.Duration(rng.Int63n(int64(window)/4+1))
			if ev.Kind == RestartNameNode || ev.Kind == RestartJobTracker {
				ev.Node = "" // the master is the target
			}
		case Partition:
			// Cut a minority subset away so writers always have a reachable
			// majority; the heal (same window shape as a restart outage)
			// reunites them well inside the clients' net-retry budgets.
			ev.Node = ""
			cut := 1 + rng.Intn(max(1, (len(nodes)-1)/2))
			perm := rng.Perm(len(nodes))[:cut]
			sort.Ints(perm)
			for _, idx := range perm {
				ev.Nodes = append(ev.Nodes, nodes[idx])
			}
			ev.Down = window/8 + time.Duration(rng.Int63n(int64(window)/4+1))
		case SlowLink:
			ev.Factor = float64(2 + rng.Intn(15)) // NIC target; rack= only via explicit plans
		case DropLink:
			// Lossy windows up to ~3/8 of the run on one node's paths.
			ev.Until = ev.At + window/8 + time.Duration(rng.Int63n(int64(window)/4+1))
			ev.Prob = 0.1 + 0.4*rng.Float64()
		}
		pl.Events = append(pl.Events, ev)
	}
	sort.SliceStable(pl.Events, func(i, j int) bool { return pl.Events[i].At < pl.Events[j].At })
	resolveConflicts(&pl)
	if _, err := pl.Resolve(len(nodes), 1, false); err != nil {
		panic("faults: RandomPlan generated an invalid plan: " + err.Error())
	}
	return pl
}

// resolveConflicts nudges randomly drawn events that break the plan's
// cross-event rules: an event whose hold opens inside, or at the end of, an
// earlier hold of the same name is pushed 1 ms past it, and an exact
// duplicate event is pushed 1 ms later. Every partition cuts off one shared
// name — random plans simply never overlap two cuts, which satisfies
// Resolve's rule without reasoning about membership — so each hold has one
// name. Deterministic, and convergent because every nudge moves an event
// strictly forward in time.
func resolveConflicts(pl *Plan) {
	oneCut := []string{"partition"}
	for pass := 0; pass < len(pl.Events)+1; pass++ {
		changed := false
		seen := make(map[string]bool, len(pl.Events))
		end := make(map[string]time.Duration)
		for i := range pl.Events {
			ev := &pl.Events[i]
			if s := ev.holds(oneCut); s.names != nil {
				name := s.set + " " + s.names[0]
				if e := end[name]; ev.At <= e {
					ev.shift(e + time.Millisecond - ev.At)
					changed = true
				}
				end[name] = max(end[name], ev.end())
			}
			for seen[ev.String()] {
				ev.shift(time.Millisecond)
				changed = true
			}
			seen[ev.String()] = true
		}
		if !changed {
			return
		}
		sort.SliceStable(pl.Events, func(i, j int) bool { return pl.Events[i].At < pl.Events[j].At })
	}
}

// shift moves the event later by d, dragging a window end (drop-shuffle,
// drop-link) along so the nudge cannot invert the window.
func (ev *Event) shift(d time.Duration) {
	ev.At += d
	if ev.Until != 0 {
		ev.Until += d
	}
}

// Target is one event's targets resolved against a testbed's shape (see
// Plan.Resolve): what Injector.Start binds to the cluster's objects.
type Target struct {
	node    int      // node=: the slave's index; -1 for the master or none
	members []string // nodes=, or rack='s nodes: what a partition cuts off
	rack    int      // rack=: the rack's index, from 0
	role    string   // disk=: "hdfs", "data" (the pooled HDFS list) or "mr"
	disk    int      // disk=: the volume's index within its role
}

// Resolve checks every event's targets against a testbed of slaves slaves
// on racks racks (0 or 1 is a flat network) whose data disks are pooled or
// not (cluster.Hardware.SharedDataDisks), and returns them resolved, in plan
// order. It returns the first error instead: a node the testbed lacks or
// the kind cannot target (kindArgs' master column), a rack or a volume it
// lacks, a disk kind without both node= and disk=, two events that hold one
// target at once (Event.holds: restart victims, drop-link nodes, and the
// nodes partitions cut off, racks' members included), or fail-disk on
// every volume of a node's HDFS or intermediate list: the node would have
// nowhere left to write, and kill-node is the fault that stops a machine
// whole.
func (pl Plan) Resolve(slaves, racks int, pooled bool) ([]Target, error) {
	out := make([]Target, len(pl.Events))
	failed := map[string][]int{} // failed volumes, by node and role list
	for i, ev := range pl.Events {
		t := &out[i]
		t.node, t.members = -1, ev.Nodes
		for j, name := range append([]string{ev.Node}, ev.Nodes...) {
			n, ok := cluster.SlaveIndex(name)
			switch {
			case name == "" || name == cluster.MasterName && kindArgs[ev.Kind].master:
				continue
			case name == cluster.MasterName:
				return nil, fmt.Errorf("faults: %s: the master runs no DataNode, TaskTracker or data disk (target a slave)", ev.Kind)
			case !ok || n >= slaves:
				return nil, fmt.Errorf("faults: %s: unknown node %q (the testbed has %s to %s)",
					ev.Kind, name, cluster.SlaveName(0), cluster.SlaveName(slaves-1))
			case j == 0:
				t.node = n
			}
		}
		var err error
		switch disk := ev.Kind == FailDisk || ev.Kind == SlowDisk; {
		case ev.Rack > 0 && racks <= 1:
			err = fmt.Errorf("faults: %s targets rack %d on a flat network (set racks > 1)", ev.Kind, ev.Rack)
		case ev.Rack > racks:
			err = fmt.Errorf("faults: %s: rack %d out of range (cluster has %d)", ev.Kind, ev.Rack, racks)
		case ev.Rack > 0:
			t.rack = ev.Rack - 1
			t.members = rackNodes(t.rack, slaves, racks)
		case disk && (ev.Node == "" || ev.Disk == ""):
			err = fmt.Errorf("faults: %s needs node= and disk= to target a cluster", ev.Kind)
		case disk:
			t.role, t.disk, err = parseDisk(ev.Disk, ev.Node, cluster.VolsPerRole(pooled))
		}
		if err != nil {
			return nil, err
		}
		s := ev.holds(t.members)
		for j, prev := range pl.Events[:i] {
			if name := s.meets(prev.holds(out[j].members)); name != "" {
				return nil, fmt.Errorf("faults: %s overlaps %s on %s", ev, prev, name)
			}
		}
		if ev.Kind == FailDisk {
			list := ev.Node // a pooled node's roles share one list
			if t.role == "mr" && !pooled {
				list += " mr"
			}
			if !slices.Contains(failed[list], t.disk) {
				failed[list] = append(failed[list], t.disk)
			}
			if len(failed[list]) == cluster.VolsPerRole(pooled) {
				return nil, fmt.Errorf("faults: %s fails the last %s volume of %s (kill-node stops a whole machine)", ev, t.role, ev.Node)
			}
		}
	}
	return out, nil
}

// rackNodes names rack r's nodes in the order cluster.New registers them
// with the network: the master, in rack 0, then every slave i with
// i%racks == r.
func rackNodes(r, slaves, racks int) []string {
	var out []string
	if r == 0 {
		out = append(out, cluster.MasterName)
	}
	for i := r; i < slaves; i += racks {
		out = append(out, cluster.SlaveName(i))
	}
	return out
}

// parseDisk splits a disk selector — "hdfs1", "mr0", or "data2" for pooled
// layouts, which name the HDFS volumes — into its role and index, checked
// against a node with vols volumes of each role.
func parseDisk(sel, node string, vols int) (role string, idx int, err error) {
	role = strings.TrimRight(sel, "0123456789")
	idx, err = strconv.Atoi(sel[len(role):])
	switch {
	case err != nil:
		err = fmt.Errorf("faults: bad disk selector %q (want e.g. hdfs0 or mr1)", sel)
	case role != "hdfs" && role != "data" && role != "mr":
		err = fmt.Errorf("faults: bad disk role %q in %q (want hdfs, mr, or data)", role, sel)
	case idx >= vols:
		err = fmt.Errorf("faults: node %s has no %s volume %d", node, role, idx)
	}
	return role, idx, err
}

// Injector arms a plan against a concrete cluster. Create with New, call
// Start before sim.Env.Run, and Stop once the workload (plus recovery) has
// drained, so that nothing still pending fires.
type Injector struct {
	env  *sim.Env
	cl   *cluster.Cluster
	net  *netsim.Network
	fs   *hdfs.FS
	rt   *mapred.Runtime
	plan Plan

	stopped bool     // Stop was called: pending callbacks do nothing
	fired   []string // log of injected events, in firing order

	// crashGen counts the death events fired at each victim. A restart's up
	// half runs only while the generation its down half created is current —
	// otherwise a reboot whose journal replay outlives the next power failure
	// would resurrect a node that is supposed to be down (or down for good).
	crashGen map[string]int
}

// New wires an injector to a built cluster and its HDFS and MapReduce
// instances.
func New(env *sim.Env, cl *cluster.Cluster, fs *hdfs.FS, rt *mapred.Runtime, plan Plan) *Injector {
	return &Injector{env: env, cl: cl, net: cl.Net, fs: fs, rt: rt, plan: plan, crashGen: map[string]int{}}
}

// Start resolves the plan against the cluster's shape (Plan.Resolve) and
// schedules it through one path: in plan order, each event's fault at its
// time and then, for a kind that is undone, its rejoin, heal or clear at
// its end; the drop-shuffle log lines come last. The kernel fires callbacks
// due at one instant in the order they were scheduled, so this order is
// part of every run's outcome. Shuffle-drop windows install a single seeded
// hook into the MapReduce runtime. A target the cluster lacks, two events
// that hold one target at once, or a master restart on a cluster whose
// master is not journaled makes Start return an error, and then nothing it
// scheduled fires.
func (in *Injector) Start() error {
	targets, err := in.plan.Resolve(len(in.cl.Slaves), in.net.Racks(), in.cl.Master.HW.SharedDataDisks)
	if err != nil {
		return err
	}
	var drops []Event
	for i, ev := range in.plan.Events {
		fire, heal, err := in.arm(i, ev, targets[i])
		if err != nil {
			in.Stop()
			return err
		}
		if ev.Kind == DropShuffle {
			drops = append(drops, ev)
			continue
		}
		in.at(ev.At, fire)
		if heal != nil {
			in.at(ev.end(), heal)
		}
	}
	if len(drops) == 0 {
		return nil
	}
	for _, d := range drops {
		// The hook below is passive; log each window when it opens so
		// reports still show that the run was perturbed.
		in.at(d.At, func() { in.logf("%s", d) })
	}
	rng := rand.New(rand.NewSource(in.plan.Seed))
	in.rt.SetFetchFault(func(now time.Duration) bool {
		for _, d := range drops {
			if now >= d.At && now < d.Until {
				// One deterministic draw per in-window fetch; windows
				// never stack (first match wins).
				return rng.Float64() < d.Prob
			}
		}
		return false
	})
	return nil
}

// at schedules fn to run t from now (Start runs at time zero, so at the
// plan's own timestamps) unless Stop has been called by then.
func (in *Injector) at(t time.Duration, fn func()) {
	in.env.After(t, func() {
		if !in.stopped {
			fn()
		}
	})
}

// arm binds one event's resolved targets to the cluster's objects and
// returns its two halves: fire injects the fault at ev.At, and heal, nil
// for a fault that stays, undoes it at ev.end(). Drop-shuffle binds
// nothing: Start installs its hook. i is the event's index in the plan,
// which keys its partition id and its rng. The one error is a master
// restart whose master is not journaled.
func (in *Injector) arm(i int, ev Event, t Target) (fire, heal func(), err error) {
	if k := ev.Kind; k == RestartNameNode && in.fs.Master() == nil ||
		k == RestartJobTracker && in.rt.Master() == nil {
		return nil, nil, fmt.Errorf("faults: %s needs master recovery enabled (core.WithMasterRecovery)", k)
	}
	switch ev.Kind {
	case RestartNameNode:
		fire, heal = in.restart(ev, in.fs.Master().Crash, in.fs.RestartNameNode)
	case RestartJobTracker:
		fire, heal = in.restart(ev, in.rt.Master().Crash, in.rt.RestartJobTracker)
	case KillDataNode, RestartDataNode:
		// Only the DataNode process dies: volumes, page cache, NIC and
		// TaskTracker stay up, and the restart sends a block report.
		fire, heal = in.restart(ev, func() { in.fs.CrashDataNode(ev.Node) },
			func(p *sim.Proc) { in.fs.RejoinDataNode(p, ev.Node) })
	case KillNode, RestartNode:
		// The reboot remounts every volume (a journal replay, in virtual
		// time), then the NIC returns, the DataNode rejoins with a block
		// report, and the TaskTracker re-registers so its slots rejoin
		// scheduling.
		node := in.cl.Slaves[t.node]
		var up []func(*sim.Proc)
		for _, vol := range node.Vols {
			up = append(up, vol.Remount)
		}
		up = append(up, func(p *sim.Proc) {
			node.SetDown(false)
			in.net.SetDown(node.Name, false)
			in.fs.RejoinDataNode(p, node.Name)
			in.rt.OnNodeRejoin(node.Name)
		})
		fire, heal = in.restart(ev, func() { in.nodeDown(node, ev.Kind == RestartNode) }, up...)
	case FailDisk, SlowDisk:
		node := in.cl.Slaves[t.node]
		vol := node.HDFSVols[t.disk]
		if t.role == "mr" {
			vol = node.MRVols[t.disk]
		}
		if ev.Kind == SlowDisk {
			fire = func() {
				vol.Disk().SetSlowFactor(ev.Factor)
				in.logf("%s", ev)
			}
		} else {
			fire = func() { in.failDisk(ev, node, vol) }
		}
	case CorruptBlock:
		rng := in.rng(i)
		// A target that stores nothing eligible (already died, or never
		// held the path) makes the event a logged no-op.
		fire = func() { in.logf("%s blk=%d", ev, in.fs.CorruptReplica(ev.Node, ev.Path, rng)) }
	case Partition:
		id := fmt.Sprintf("cut%d", i)
		fire = func() {
			in.net.Partition(id, t.members)
			in.logf("%s", ev)
		}
		heal = func() {
			in.net.Heal(id)
			in.logf("heal %s", strings.Join(t.members, "+"))
		}
	case SlowLink:
		fire = func() {
			if ev.Rack == 0 {
				in.net.SetNICSlow(ev.Node, ev.Factor)
			} else {
				in.net.SetUplinkSlow(t.rack, ev.Factor)
			}
			in.logf("%s", ev)
		}
	case DropLink:
		rng := in.rng(i)
		fire = func() {
			in.net.SetDrop(ev.Node, ev.Prob, rng)
			in.logf("%s", ev)
		}
		heal = func() {
			in.net.ClearDrop(ev.Node)
			in.logf("clear drop-link %s", ev.Node)
		}
	}
	return fire, heal, nil
}

// restart builds a death's two halves around the crash-generation guard.
// fire counts a death at ev's victim, runs down and logs ev. heal, nil for
// a kill (which has no down=), starts a process that runs the up steps in
// order and logs the rejoin — checking before each step, since a remount
// takes virtual time, that no later death has superseded this one. So a
// restart never resurrects a victim whose next outage has already begun.
func (in *Injector) restart(ev Event, down func(), up ...func(*sim.Proc)) (fire, heal func()) {
	v := ev.victim()
	var gen int
	fire = func() {
		in.crashGen[v]++
		gen = in.crashGen[v]
		down()
		in.logf("%s", ev)
	}
	if ev.Down == 0 {
		return fire, nil
	}
	heal = func() {
		in.env.Go(string(ev.Kind)+":"+v, func(p *sim.Proc) {
			for _, step := range up {
				if in.crashGen[v] != gen {
					return
				}
				step(p)
			}
			in.logf("rejoin %s", v)
		})
	}
	return fire, heal
}

// nodeDown fail-stops the whole machine, in the order the control planes
// would observe it: the machine stops (tasks abandon at their next chunk),
// the NIC goes dark (in-flight transfers collapse), the DataNode stops
// heartbeating, and the JobTracker writes off the node's attempts/outputs.
// A crash (restart-node's power failure) also crashes every local volume:
// dirty pages are lost and files truncated to their flushed prefix.
func (in *Injector) nodeDown(node *cluster.Node, crash bool) {
	node.SetDown(true)
	in.net.SetDown(node.Name, true)
	if crash {
		for _, vol := range node.Vols {
			vol.Crash()
		}
	}
	in.fs.CrashDataNode(node.Name)
	in.rt.OnNodeDown(node.Name)
}

// failDisk fail-stops one volume. HDFS volumes report straight to the
// NameNode's repair queue; intermediate volumes lose their map outputs.
func (in *Injector) failDisk(ev Event, node *cluster.Node, vol *localfs.FS) {
	if slices.Contains(node.HDFSVols, vol) {
		in.fs.FailVolume(ev.Node, vol) // calls vol.Fail and queues repairs
	} else {
		vol.Fail()
	}
	if slices.Contains(node.MRVols, vol) {
		in.rt.OnVolumeDown(vol)
	}
	in.logf("%s", ev)
}

// rng returns event i's own random source, derived from the plan seed and
// the event's position, so what it draws is deterministic and independent
// of sibling events.
func (in *Injector) rng(i int) *rand.Rand {
	return rand.New(rand.NewSource(in.plan.Seed ^ int64(i+1)*0x9E3779B97F4A7C))
}

// logf appends a line to the fired log, stamped with the current time.
func (in *Injector) logf(format string, args ...any) {
	in.fired = append(in.fired, fmt.Sprintf("t=%v ", in.env.Now())+fmt.Sprintf(format, args...))
}

// LastAt returns the latest time at which the plan changes cluster state —
// its last fault, rejoin, heal or clear. Drivers that audit invariants
// after a run use it to let late-scheduled faults fire (and be recovered
// from) before judging the cluster quiescent.
func (in *Injector) LastAt() time.Duration {
	var last time.Duration
	for _, ev := range in.plan.Events {
		last = max(last, ev.end())
	}
	return last
}

// Stop disarms the plan: a fault, rejoin, heal or clear that has not fired
// yet does nothing when its time comes. Call it once the run (and its
// recovery tail) is over, or when the workload fails, so no fault lands on
// a cluster that is being judged.
func (in *Injector) Stop() { in.stopped = true }

// Fired returns a human-readable log of the events injected so far.
func (in *Injector) Fired() []string { return append([]string(nil), in.fired...) }

package disk

import (
	"fmt"
	"math"
	"time"
)

// Class identifies a device technology, for per-class iostat grouping
// (hdd.* / ssd.* report groups) and storage-tier policy.
type Class uint8

// Device classes.
const (
	ClassHDD Class = iota // mechanical: seek + rotation + transfer
	ClassSSD              // flash: per-op latency + bandwidth, channel-parallel
)

func (c Class) String() string {
	if c == ClassSSD {
		return "ssd"
	}
	return "hdd"
}

// ParseClass is the inverse of Class.String.
func ParseClass(s string) (Class, error) {
	switch s {
	case "hdd":
		return ClassHDD, nil
	case "ssd":
		return ClassSSD, nil
	}
	return ClassHDD, fmt.Errorf("disk: unknown device class %q (want hdd or ssd)", s)
}

// MarshalText serializes the class as its name, so JSON (cache keys, chaos
// schedules, bench configs) reads "hdd"/"ssd" instead of a bare number.
func (c Class) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses a class name.
func (c *Class) UnmarshalText(b []byte) error {
	v, err := ParseClass(string(b))
	if err != nil {
		return err
	}
	*c = v
	return nil
}

// DeviceModel prices individual requests for one device technology. The
// queue, elevator, merging and diskstats accounting in Disk are shared
// across models; only the service-time physics and the device's internal
// parallelism vary per class.
type DeviceModel interface {
	// Service returns the raw device service time for one dispatched
	// request, given the head position at dispatch. Positional cost only
	// exists for mechanical models; flash models ignore head. Fault
	// degradation (SlowFactor) is applied by Disk outside the model, so
	// fail-slow injection works identically for every class.
	Service(op Op, sector, head int64, count int) time.Duration
	// Channels is how many requests the device services concurrently:
	// 1 for a mechanical drive (one head assembly), the internal flash
	// channel count for an SSD.
	Channels() int
	// Class identifies the device technology.
	Class() Class
}

// hddModel is the classic seek + rotation + transfer decomposition: a
// square-root seek curve between MinSeek and MaxSeek, average rotational
// latency for non-contiguous accesses, and linear transfer time.
// Contiguous accesses (sector == head) pay transfer only, modelling
// streaming.
type hddModel struct {
	p      Params
	avgRot time.Duration
}

func newHDDModel(p Params) hddModel {
	fullRot := time.Duration(60e9 / float64(p.RPM))
	return hddModel{p: p, avgRot: fullRot / 2}
}

func (m hddModel) Service(op Op, sector, head int64, count int) time.Duration {
	var t time.Duration
	if sector != head {
		dist := sector - head
		if dist < 0 {
			dist = -dist
		}
		frac := float64(dist) / float64(m.p.Sectors)
		t += m.p.MinSeek + time.Duration(float64(m.p.MaxSeek-m.p.MinSeek)*math.Sqrt(frac))
		t += m.avgRot
	}
	bytes := int64(count) * SectorSize
	t += time.Duration(float64(bytes) / float64(m.p.TransferBC) * 1e9)
	return t
}

func (m hddModel) Channels() int { return 1 }
func (m hddModel) Class() Class  { return ClassHDD }

// The flash drive DataCenterSSD describes: no positional cost, per-operation
// latency plus sustained bandwidth, with read/write asymmetry (program
// operations are slower than page reads), and ssdChannels independent flash
// channels servicing requests concurrently, which is why small random I/O
// does not collapse SSD throughput the way it does a spindle.
const (
	ssdReadLatency  = 50 * time.Microsecond // page read + controller
	ssdWriteLatency = 65 * time.Microsecond // program
	ssdReadBC       = 500 << 20             // sustained bandwidth, bytes/second
	ssdWriteBC      = 460 << 20
	ssdChannels     = 8
)

// ssdModel prices a request as per-op latency + size/bandwidth for the
// operation's direction. There is no seek or rotation term.
type ssdModel struct{}

func (ssdModel) Service(op Op, sector, head int64, count int) time.Duration {
	lat, bw := ssdReadLatency, ssdReadBC
	if op == Write {
		lat, bw = ssdWriteLatency, ssdWriteBC
	}
	bytes := int64(count) * SectorSize
	return lat + time.Duration(float64(bytes)/float64(bw)*1e9)
}

func (ssdModel) Channels() int { return ssdChannels }
func (ssdModel) Class() Class  { return ClassSSD }

// DataCenterSSD returns a datacenter SATA flash drive of the paper's era
// (2013-class, Intel DC S3700-like): 800 GB, ~50 µs reads, ~65 µs writes,
// 500/460 MB/s sustained, 8 internal channels. The request scheduler is
// FIFO — elevator sweeps buy nothing on a device with no head.
func DataCenterSSD() Params {
	return Params{
		Name:      "DC-S3700-800G",
		Sectors:   1_600_000_000, // ~800 GB
		Scheduler: SchedFIFO,
		Flash:     true,
	}
}

package disk

// MinSectors is the capacity floor Scaled will not shrink below: a device
// under 32 MiB cannot hold even one scaled HDFS block stripe and the
// simulation degenerates.
const MinSectors = 1 << 16

// Scaled returns a copy of p with capacity divided by factor, for
// proportionally scaled-down experiments. Timing parameters are unchanged:
// a smaller disk is not a faster disk. Capacity never drops below
// MinSectors; clamped reports that the floor was applied, past which every
// device scales to the same size regardless of its nominal capacity — a
// warning for a homogeneous fleet, an error for one that mixes capacities
// (cluster.newNode decides).
func (p Params) Scaled(factor int64) (scaled Params, clamped bool) {
	if factor > 1 {
		p.Sectors /= factor
		if clamped = p.Sectors < MinSectors; clamped {
			p.Sectors = MinSectors
		}
	}
	return p, clamped
}

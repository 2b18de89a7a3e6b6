// Crash–restart semantics for one volume: what survives a power loss, what
// does not, and what remount costs. The contract mirrors a journaling
// filesystem (ext4-style metadata journal, no data journal): metadata is
// always recoverable by replaying a small journal, file data survives only
// up to its flushed prefix — bytes whose pages were still dirty in the page
// cache at crash time are gone, and the file comes back truncated at the
// first unflushed page.
package localfs

import (
	"iochar/internal/disk"
	"iochar/internal/sim"
)

// journalRecSize is the modeled size of one metadata journal record.
const journalRecSize = 64

// maxJournalSectors caps the remount replay charge — real journals are
// checkpointed and bounded (128 MiB default in ext4; we model a small one).
const maxJournalSectors = 4096 // 2 MiB

// Crash models a power loss on this volume. Every resident page-cache page
// is dropped without writeback; each file is truncated to its flushed
// prefix (the bytes before its first dirty page — data past that point
// never reached the platter); whole-extent allocations past the truncated
// size are released, as a journal replay frees uncommitted allocations.
// The volume is left failed; Remount brings it back.
func (fs *FS) Crash() {
	for _, name := range fs.List() {
		fs.truncateToFlushed(fs.files[name])
	}
	fs.cache.DropAll()
	fs.failed = true
}

// truncateToFlushed cuts f at the byte offset of its first dirty page and
// frees the now-unneeded tail sectors.
func (fs *FS) truncateToFlushed(f *file) {
	if f.size == 0 {
		return
	}
	// Find the first dirty device sector across the file's extents, walking
	// them in file order so the earliest file offset wins.
	cut := f.size
	var walked int64 // bytes of file covered by prior extents
	for _, r := range f.sectorRanges(nil, 0, f.size) {
		if s := fs.cache.FirstDirtyInRange(r.sector, int(r.sectors)); s >= 0 {
			off := walked + (s-r.sector)*disk.SectorSize
			if off < cut {
				cut = off
			}
			break // extents are visited in file order; first hit is lowest
		}
		walked += r.sectors * disk.SectorSize
	}
	if cut >= f.size {
		return
	}
	f.truncate(cut)
	fs.shrinkAlloc(f, (cut+disk.SectorSize-1)/disk.SectorSize)
}

// truncate drops the contents from byte offset cut (below f.size) on: the
// segment holding the cut is re-sliced, later ones are let go.
func (f *file) truncate(cut int64) {
	i := f.segAt(cut)
	keep := i
	if s := &f.segs[i]; cut > s.off {
		s.n = cut - s.off
		if s.data != nil {
			s.data = s.data[:s.n:s.n]
		}
		keep++
	}
	clear(f.segs[keep:]) // let the dropped bytes go
	f.segs = f.segs[:keep]
	if f.gens != nil {
		clear((*f.gens)[keep:])
		*f.gens = (*f.gens)[:keep]
	}
	f.size = cut
}

// shrinkAlloc releases f's allocated sectors beyond keep, splitting the
// extent containing the cut point if needed.
func (fs *FS) shrinkAlloc(f *file, keep int64) {
	if f.alloced <= keep {
		return
	}
	var covered int64
	for i := 0; i < len(f.extents); i++ {
		e := f.extents[i]
		if covered >= keep {
			// Whole extent is past the cut: free it.
			fs.freeExtent(e)
			f.extents = append(f.extents[:i], f.extents[i+1:]...)
			i--
			continue
		}
		if covered+e.sectors > keep {
			// Split: keep the prefix, free the tail.
			keepHere := keep - covered
			fs.freeExtent(extent{sector: e.sector + keepHere, sectors: e.sectors - keepHere})
			f.extents[i].sectors = keepHere
			covered = keep
			continue
		}
		covered += e.sectors
	}
	f.alloced = keep
}

// Remount brings a crashed volume back: the metadata journal is replayed
// (charged as one sequential read sized by the journal's record count) and
// the volume rejoins service. Caller is the fault injector's rejoin path.
func (fs *FS) Remount(p *sim.Proc) {
	recs := fs.journalRecs
	nsect := (recs*journalRecSize + disk.SectorSize - 1) / disk.SectorSize
	if nsect > maxJournalSectors {
		nsect = maxJournalSectors
	}
	if nsect > 0 {
		req := fs.d.SubmitStaged(disk.Read, 0, int(nsect), disk.StageNone)
		fs.d.Wait(p, req)
	}
	fs.failed = false
}

// Corrupt flips (bit-inverts) n bytes of name starting at off — silent
// media corruption: no timing, no cache interaction, just wrong bytes the
// next reader will see. Each segment touched is replaced by a flipped copy:
// the stored bytes may be shared with other files (Install) and with views
// readers already hold, and neither may see this file's damage. A generated
// segment is split around the range, and only the range is made and
// flipped. A segment a ReadOnce let go is skipped: it has no next reader.
// Returns false if the file is absent or the range does not overlap it.
func (fs *FS) Corrupt(name string, off int64, n int) bool {
	f, ok := fs.files[name]
	if !ok || off < 0 || off >= f.size || n <= 0 {
		return false
	}
	end := min(off+int64(n), f.size)
	segs, gens := f.segs, []generated(nil)
	f.segs = make([]segment, 0, len(segs)+2)
	if f.gens != nil {
		gens = *f.gens
		*f.gens = make([]generated, 0, len(segs)+2)
	}
	keep := func(s segment, g generated) {
		f.segs = append(f.segs, s)
		if f.gens != nil {
			*f.gens = append(*f.gens, g)
		}
	}
	for i, s := range segs {
		lo, hi := max(off, s.off), min(end, s.end())
		var g generated
		if gens != nil {
			g = gens[i]
		}
		if lo >= hi || (s.data == nil && g.src == nil) {
			keep(s, g)
			continue
		}
		var flipped []byte
		if g.src == nil {
			flipped = append([]byte(nil), s.data...)
			lo, hi = s.off, s.end()
		} else {
			if lo > s.off {
				keep(segment{off: s.off, n: lo - s.off}, g)
			}
			flipped = g.src.AppendTo(nil, g.at+lo-s.off, g.at+hi-s.off)
		}
		for j := max(off, lo) - lo; j < min(end, hi)-lo; j++ {
			flipped[j] ^= 0xFF
		}
		keep(segment{off: lo, n: hi - lo, data: flipped}, generated{})
		if hi < s.end() {
			keep(segment{off: hi, n: s.end() - hi}, generated{src: g.src, at: g.at + hi - s.off})
		}
	}
	return true
}

// Peek returns name's raw contents with no timing charge — the verification
// backdoor used by audits and the datanode's remount block scan (real
// datanodes read their own local metadata cheaply at startup; modeling that
// traffic is out of scope, while scrub reads are charged for real). The
// result is read-only, like ReadAt's.
func (fs *FS) Peek(name string) []byte {
	f, ok := fs.files[name]
	if !ok {
		return nil
	}
	return f.bytes(0, f.size)
}

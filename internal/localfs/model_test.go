package localfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"iochar/internal/datagen"
	"iochar/internal/sim"
)

// modelFile is the reference the filesystem is diffed against: one flat
// []byte per name, plus the offsets at which the real file is expected to
// change segment (every Append, Install and InstallSource starts one, and a
// Corrupt splits a generated one around its range), so reads and
// corruptions can be aimed at the boundaries, which of those segments are
// generated, and which a ReadOnce has let go: the model keeps their bytes,
// nobody may read them.
type modelFile struct {
	data  []byte
	edges []int64
	gone  []bool // parallel to edges
	gen   []bool // parallel to edges
}

func (m *modelFile) grow(src []byte, gen bool) {
	m.edges = append(m.edges, int64(len(m.data)))
	m.gone = append(m.gone, false)
	m.gen = append(m.gen, gen)
	m.data = append(m.data, src...)
}

// corrupt flips [off, end) and splits every generated segment it touches
// at the range's ends: the touched middle is bytes now.
func (m *modelFile) corrupt(off, end int64) {
	for i := off; i < end; i++ {
		m.data[i] ^= 0xFF
	}
	var edges []int64
	var gone, gen []bool
	keep := func(e int64, g bool) {
		edges, gone, gen = append(edges, e), append(gone, false), append(gen, g)
	}
	for i, e := range m.edges {
		lo, hi := m.seg(i)
		a, b := max(lo, off), min(hi, end)
		if !m.gen[i] || m.gone[i] || a >= b {
			edges, gone, gen = append(edges, e), append(gone, m.gone[i]), append(gen, m.gen[i])
			continue
		}
		if lo < a {
			keep(lo, true)
		}
		keep(a, false)
		if b < hi {
			keep(b, true)
		}
	}
	m.edges, m.gone, m.gen = edges, gone, gen
}

// sources are the generated contents a run installs: readers of TeraGen
// parts' tables, each shared by every file given a range of it as a loaded
// file's replicas share theirs, beside the bytes Part makes.
type source struct {
	read *datagen.TeraReader
	part []byte
}

func newSources() []source {
	var out []source
	for i, size := range []int64{300_000, 40_000} {
		g := datagen.TeraGen{Seed: 11}
		out = append(out, source{g.Table(i, size).Reader(), g.Part(i, size)})
	}
	return out
}

// seg returns the byte range of the i-th segment.
func (m *modelFile) seg(i int) (lo, hi int64) {
	if i+1 < len(m.edges) {
		return m.edges[i], m.edges[i+1]
	}
	return m.edges[i], int64(len(m.data))
}

// touchesGone reports whether a read of [off, end) would need let-go bytes.
func (m *modelFile) touchesGone(off, end int64) bool {
	for i, gone := range m.gone {
		if lo, hi := m.seg(i); gone && max(lo, off) < min(hi, end) {
			return true
		}
	}
	return false
}

// heldView is a slice the filesystem handed out, or was handed by Append or
// Install, with a private copy of what it held at that moment. Neither kind
// may ever change afterwards, whatever happens to the file.
type heldView struct {
	what string
	view []byte
	want []byte
}

type diffRun struct {
	t       *testing.T
	rng     *rand.Rand
	fs      *FS
	sources []source
	files   map[string]*modelFile
	open    map[string]*File
	views   []heldView
	given   []heldView // slices handed to Append or Install, possibly to several files
}

func (r *diffRun) hold(what string, view []byte) {
	if cap(view) != len(view) {
		r.t.Fatalf("%s: cap %d != len %d: an append to the result could write into the file", what, cap(view), len(view))
	}
	r.views = append(r.views, heldView{what, view, append([]byte(nil), view...)})
	if len(r.views) > 64 {
		r.views = r.views[1:]
	}
}

// checkHeld verifies that every outstanding view, and every slice given to
// Append or Install, still holds the bytes it held when it was taken or given.
func (r *diffRun) checkHeld(after string) {
	for _, v := range r.views {
		if !bytes.Equal(v.view, v.want) {
			r.t.Fatalf("after %s: view from %s changed under its holder", after, v.what)
		}
	}
	for _, v := range r.given {
		if !bytes.Equal(v.view, v.want) {
			r.t.Fatalf("after %s: the slice passed to %s was written to", after, v.what)
		}
	}
}

// give makes the slice for an Append or Install — fresh, with spare capacity
// that stays the caller's, or one another file already holds — and checks
// afterwards that the file stored it rather than a copy.
func (r *diffRun) give(what, name string, m *modelFile, maxLen int, store func([]byte)) {
	var src []byte
	if len(r.given) > 0 && r.rng.Intn(3) == 0 {
		src = r.given[r.rng.Intn(len(r.given))].view
	} else {
		n := 1 + r.rng.Intn(maxLen)
		src = make([]byte, n, n+r.rng.Intn(3)*16)
		r.rng.Read(src)
		r.given = append(r.given, heldView{what, src, append([]byte(nil), src...)})
	}
	off := int64(len(m.data))
	m.grow(src, false)
	store(src)
	if view := r.fs.files[name].bytes(off, int64(len(src))); &view[0] != &src[0] {
		r.t.Fatalf("%s: the file holds a copy, not the slice it was given", what)
	}
	spare := src[len(src):cap(src)] // still the caller's to scribble on
	for i := range spare {
		spare[i] = 0xA5
	}
	r.checkHeld(what)
}

// installSource gives name a range of one of the run's sources, often one
// another file holds too, and checks that the file keeps the description
// and no bytes.
func (r *diffRun) installSource(name string, m *modelFile) {
	src := r.sources[r.rng.Intn(len(r.sources))]
	size := int64(len(src.part))
	at := r.rng.Int63n(size)
	if r.rng.Intn(2) == 0 {
		at = at / 1000 * 1000 // replicas of one block start at one offset
	}
	n := 1 + r.rng.Int63n(min(9000, size-at))
	m.grow(src.part[at:at+n], true)
	r.open[name].InstallSource(src.read, at, n)
	f := r.fs.files[name]
	last := len(f.segs) - 1
	if s, g := f.segs[last], f.source(last); s.data != nil || s.n != n || g == nil || g.src != src.read || g.at != at {
		r.t.Fatalf("InstallSource(%s, %d, %d) stored %d bytes, or another range", name, at, n, len(s.data))
	}
	r.checkHeld("InstallSource " + name)
}

// near picks an offset in [0, limit]: usually on or next to a segment edge.
func (r *diffRun) near(m *modelFile, limit int64) int64 {
	if limit <= 0 {
		return 0
	}
	if len(m.edges) > 0 && r.rng.Intn(4) != 0 {
		off := m.edges[r.rng.Intn(len(m.edges))] + int64(r.rng.Intn(3)-1)
		if off >= 0 && off <= limit {
			return off
		}
	}
	return r.rng.Int63n(limit + 1)
}

// mustPanic runs read, which needs let-go bytes.
func (r *diffRun) mustPanic(what string, read func()) {
	defer func() {
		if recover() == nil {
			r.t.Fatalf("%s touched bytes a ReadOnce let go and did not panic", what)
		}
	}()
	read()
}

// checkContents compares every byte of name the file still holds with the
// model: through Peek while that is all of them, segment by segment behind
// its back otherwise.
func (r *diffRun) checkContents(after, name string, m *modelFile) {
	if !m.touchesGone(0, int64(len(m.data))) {
		if got := r.fs.Peek(name); !bytes.Equal(got, m.data) {
			r.t.Fatalf("after %s: %s differs from the model (%d vs %d bytes)", after, name, len(got), len(m.data))
		}
		return
	}
	for i, gone := range m.gone {
		if lo, hi := m.seg(i); !gone && !bytes.Equal(r.fs.files[name].bytes(lo, hi-lo), m.data[lo:hi]) {
			r.t.Fatalf("after %s: %s differs from the model in [%d, %d)", after, name, lo, hi)
		}
	}
}

func (r *diffRun) pick() (string, *modelFile) {
	name := fmt.Sprintf("f%d", r.rng.Intn(4))
	return name, r.files[name]
}

func (r *diffRun) step(p *sim.Proc) {
	name, m := r.pick()
	op := r.rng.Intn(13)
	if m == nil {
		op = 0
	}
	switch op {
	case 0: // create (truncating an existing file)
		r.open[name] = r.fs.Create(name)
		r.files[name] = &modelFile{}
		r.checkHeld("Create " + name)
	case 1, 2:
		r.give("Append "+name, name, m, 6000, func(src []byte) { r.open[name].Append(p, src) })
	case 3:
		r.give("Install "+name, name, m, 9000, r.open[name].Install)
	case 11:
		r.installSource(name, m)
	case 4, 5, 10, 12: // read a range that starts, ends or straddles an edge; 10 reads it once, 12 appends it
		if m.touchesGone(0, int64(len(m.data))) && r.rng.Intn(2) == 0 {
			op = 4 // mostly read what is still there
		}
		size := int64(len(m.data))
		off := r.near(m, size)
		end := r.near(m, size+10) // may run past EOF: reads clamp
		if end < off {
			off, end = end, off
		}
		read, what := r.open[name].ReadAt, fmt.Sprintf("ReadAt(%s, %d, %d)", name, off, end-off)
		prefix := []byte(nil)
		if op == 12 {
			prefix = make([]byte, r.rng.Intn(40), 40+r.rng.Intn(2)*9000)
			r.rng.Read(prefix)
			read = func(p *sim.Proc, off, n int64) []byte {
				got := r.open[name].ReadAppend(p, prefix, off, n)
				if !bytes.Equal(got[:len(prefix)], prefix) {
					r.t.Fatalf("ReadAppend(%s, %d, %d) changed the bytes before it", name, off, n)
				}
				return got[len(prefix):]
			}
			what = fmt.Sprintf("ReadAppend(%s, %d, %d)", name, off, end-off)
		}
		if op == 10 {
			if n := len(m.edges); n > 0 && r.rng.Intn(2) == 0 {
				// Exactly one segment, as a fetcher reads its partition.
				off, end = m.seg(r.rng.Intn(n))
			}
			read, what = r.open[name].ReadOnce, fmt.Sprintf("ReadOnce(%s, %d, %d)", name, off, end-off)
		}
		if m.touchesGone(off, end) {
			r.mustPanic(what, func() { read(p, off, end-off) })
			break
		}
		extents := r.fs.ExtentCount(name)
		got := read(p, off, end-off)
		want := []byte(nil)
		if off < size {
			want = m.data[off:min(end, size)]
		}
		if !bytes.Equal(got, want) {
			r.t.Fatalf("%s: got %d bytes, want %d, or contents differ", what, len(got), len(want))
		}
		if op != 12 {
			r.hold(what, got)
		}
		if op == 10 {
			for i := range m.gone {
				if lo, hi := m.seg(i); off <= lo && hi <= end {
					m.gone[i] = true
				}
			}
			if r.fs.Size(name) != size || r.fs.ExtentCount(name) != extents || r.fs.LeakedExtents() != 0 {
				r.t.Fatalf("%s changed more than residency: %d bytes in %d extents, was %d in %d; %d sectors leaked",
					what, r.fs.Size(name), r.fs.ExtentCount(name), size, extents, r.fs.LeakedExtents())
			}
			r.checkHeld(what)
		}
	case 6: // peek
		if m.touchesGone(0, int64(len(m.data))) {
			r.mustPanic("Peek("+name+")", func() { r.fs.Peek(name) })
			break
		}
		got := r.fs.Peek(name)
		if !bytes.Equal(got, m.data) {
			r.t.Fatalf("Peek(%s) differs from the model (%d vs %d bytes)", name, len(got), len(m.data))
		}
		r.hold("Peek("+name+")", got)
	case 7: // corrupt a range, often across an edge
		size := int64(len(m.data))
		off := r.near(m, size) - int64(r.rng.Intn(3))
		n := 1 + r.rng.Intn(80)
		ok := r.fs.Corrupt(name, off, n)
		if want := off >= 0 && off < size; ok != want {
			r.t.Fatalf("Corrupt(%s, %d, %d) = %v on a %d-byte file", name, off, n, ok, size)
		}
		what := fmt.Sprintf("Corrupt(%s, %d, %d)", name, off, n)
		if ok {
			m.corrupt(off, min(off+int64(n), size))
			if f := r.fs.files[name]; len(f.segs) != len(m.edges) || f.gens != nil && len(*f.gens) != len(f.segs) {
				r.t.Fatalf("%s: %d segments, the model %d, or generated entries not beside them", what, len(f.segs), len(m.edges))
			}
		}
		for n, mf := range r.files { // the damage is this file's alone
			r.checkContents(what, n, mf)
		}
		for _, src := range r.sources {
			checkSource(r.t, what, src)
		}
		r.checkHeld(what)
	case 8: // power loss: every file keeps a prefix; all of it if nothing was dirty
		if r.rng.Intn(2) == 0 {
			// Sync waits out fills in flight under dirty pages: after it,
			// every file survives whole.
			r.fs.Cache().Sync(p)
			if d := r.fs.Cache().DirtyPages(); d != 0 {
				r.t.Fatalf("Sync left %d pages dirty", d)
			}
		}
		clean := r.fs.Cache().DirtyPages() == 0
		r.fs.Crash()
		r.fs.Remount(p)
		for n, mf := range r.files {
			size := r.fs.Size(n)
			if size < 0 || size > int64(len(mf.data)) || (clean && size != int64(len(mf.data))) {
				r.t.Fatalf("Crash (cache clean: %v): %s is %d bytes, was %d", clean, n, size, len(mf.data))
			}
			mf.data = mf.data[:size]
			for len(mf.edges) > 0 && mf.edges[len(mf.edges)-1] >= size {
				mf.edges = mf.edges[:len(mf.edges)-1]
			}
			mf.gone, mf.gen = mf.gone[:len(mf.edges)], mf.gen[:len(mf.edges)]
			if f := r.fs.files[n]; f.gens != nil && len(*f.gens) != len(f.segs) {
				r.t.Fatalf("Crash: %s has %d segments and %d generated entries", n, len(f.segs), len(*f.gens))
			}
			r.checkContents("Crash", n, mf)
		}
		if leaked := r.fs.LeakedExtents(); leaked != 0 {
			r.t.Fatalf("Crash: %d sectors leaked", leaked)
		}
		r.checkHeld("Crash")
	case 9: // delete
		if err := r.fs.Delete(name); err != nil {
			r.t.Fatal(err)
		}
		delete(r.files, name)
		delete(r.open, name)
		r.checkHeld("Delete " + name)
	}
}

// checkSource holds a source to the bytes Part made for it: no file's
// damage may reach a description files share.
func checkSource(t *testing.T, after string, src source) {
	t.Helper()
	if got := src.read.AppendTo(nil, 0, int64(len(src.part))); !bytes.Equal(got, src.part) {
		t.Fatalf("after %s: a shared source no longer makes Part's bytes", after)
	}
}

// TestDifferentialAgainstFlatModel drives random operation sequences
// through the filesystem and a flat []byte-per-name model side by side.
// Files hold given arrays and generated ranges of two shared TeraGen parts,
// which the model holds as Part's bytes.
func TestDifferentialAgainstFlatModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		env, _, fs := rig()
		r := &diffRun{
			t: t, rng: rand.New(rand.NewSource(seed)), fs: fs, sources: newSources(),
			files: map[string]*modelFile{}, open: map[string]*File{},
		}
		env.Go("ops", func(p *sim.Proc) {
			for i := 0; i < 400 && !t.Failed(); i++ {
				r.step(p)
			}
			for name, m := range r.files {
				r.checkContents("the last step", name, m)
				if err := fs.Delete(name); err != nil {
					t.Error(err)
				}
			}
			r.checkHeld("the final deletes")
		})
		env.Run(0)
		if leaked := fs.LeakedExtents(); leaked != 0 {
			t.Errorf("seed %d: %d sectors leaked", seed, leaked)
		}
	}
}

// TestInstalledReplicasShareButDoNotLeak: two files installed from one slice
// share its bytes; corrupting one must reach neither the other nor the
// caller's slice.
func TestInstalledReplicasShareButDoNotLeak(t *testing.T) {
	_, _, fs := rig()
	src := payload(10_000)
	a, b := fs.Create("a"), fs.Create("b")
	a.Install(src)
	b.Install(src)
	if &fs.Peek("a")[0] != &src[0] || &fs.Peek("b")[0] != &src[0] {
		t.Error("Install copied: replicas should share the caller's array")
	}
	if !fs.Corrupt("a", 4_000, 100) {
		t.Fatal("Corrupt refused an in-range strike")
	}
	want := payload(10_000)
	if !bytes.Equal(src, want) {
		t.Error("corrupting a wrote through to the slice passed to Install")
	}
	if !bytes.Equal(fs.Peek("b"), want) {
		t.Error("corrupting a reached b")
	}
	for i := 4_000; i < 4_100; i++ {
		want[i] ^= 0xFF
	}
	if !bytes.Equal(fs.Peek("a"), want) {
		t.Error("a does not hold the flipped range")
	}
}

// TestViewsOutliveCorruptAndDelete: a slice a reader already holds keeps the
// bytes it was given, and cannot be used to write past its end into the file.
func TestViewsOutliveCorruptAndDelete(t *testing.T) {
	env, _, fs := rig()
	env.Go("io", func(p *sim.Proc) {
		f := fs.Create("a")
		f.Append(p, payload(8_000))
		want := payload(8_000)

		head := f.ReadAt(p, 0, 100)
		if cap(head) != len(head) {
			t.Fatalf("view has cap %d, len %d", cap(head), len(head))
		}
		_ = append(head, 0xEE) // must reallocate, not overwrite byte 100
		if got := f.ReadAt(p, 100, 1); got[0] != want[100] {
			t.Error("append to a view wrote into the file")
		}

		whole := fs.Peek("a")
		fs.Corrupt("a", 0, 8_000)
		if !bytes.Equal(whole, want) || !bytes.Equal(head, want[:100]) {
			t.Error("Corrupt changed a view taken before it")
		}
		if err := fs.Delete("a"); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, want) {
			t.Error("Delete changed a view taken before it")
		}
	})
	env.Run(0)
}

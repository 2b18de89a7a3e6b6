package core

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"iochar/internal/runcache"
	"iochar/internal/workloads"
)

// SchemaVersion identifies the RunReport result schema and the simulation
// semantics behind it. Bump it whenever a change makes previously persisted
// reports stale — a new counter, a renamed field, a behavioural fix that
// shifts byte totals — so old cache entries degrade to misses instead of
// resurfacing outdated figures. A new or changed Options field needs no
// bump: the cache key is derived from Options itself (runKey).
const SchemaVersion = 14

// RunSource says where a resolved experiment cell came from.
type RunSource string

const (
	// SourceExecuted means the cell ran on a fresh simulated testbed.
	SourceExecuted RunSource = "executed"
	// SourceDisk means the cell was loaded from the persistent run cache.
	SourceDisk RunSource = "disk-cache"
)

// ProgressEvent reports one experiment cell resolving. Events fire for
// executions and disk-cache loads (not in-memory hits, which figures
// produce constantly and carry no cost). Done/Total track matrix progress:
// Total is the number of cells a Prewarm or RunAll sweep set out to
// resolve, or zero outside a sweep.
type ProgressEvent struct {
	Workload Workload
	Factors  Factors
	Source   RunSource
	Err      error // non-nil if the cell failed
	Done     int
	Total    int
}

// Cell is one (workload, factors) coordinate of the experiment matrix.
type Cell struct {
	Workload Workload
	Factors  Factors
}

// SuiteOption configures executor behaviour on NewSuite — parallelism,
// persistence, observability — without growing Options, which describes the
// simulated testbed itself.
type SuiteOption func(*Suite)

// WithParallelism bounds the suite's worker pool: at most n experiment
// cells simulate concurrently. n < 1 resets to the default, GOMAXPROCS.
// Parallel and sequential execution produce byte-identical results: every
// cell owns its simulation kernel and seeded RNG, so the schedule of cells
// across workers cannot leak into any cell's outcome.
func WithParallelism(n int) SuiteOption {
	return func(s *Suite) {
		if n < 1 {
			n = runtime.GOMAXPROCS(0)
		}
		s.parallelism = n
	}
}

// WithCacheDir enables the persistent run cache rooted at dir: resolved
// cells are stored as versioned JSON keyed by a hash of the full run
// configuration, and later suites (including other processes) reuse them.
// Runs with live hooks installed (Options.TraceAttach, Options.Inspect)
// bypass the cache, since the hooks' effects are not captured in the
// persisted report.
func WithCacheDir(dir string) SuiteOption {
	return func(s *Suite) { s.cacheDir = dir }
}

// WithProgress installs a callback invoked as cells resolve. The callback
// may fire concurrently from worker goroutines; it must be safe for that.
func WithProgress(fn func(ProgressEvent)) SuiteOption {
	return func(s *Suite) { s.progress = fn }
}

// Suite is the experiment executor: it resolves (workload, factors) cells
// against a three-level hierarchy — an in-memory result map, an optional
// persistent on-disk cache, and fresh execution on a bounded worker pool —
// deduplicating concurrent requests for the same cell so figures that share
// baseline runs never execute a cell twice. A Suite is safe for concurrent
// use by multiple goroutines.
type Suite struct {
	Opts Options

	parallelism int
	cacheDir    string
	progress    func(ProgressEvent)
	sem         chan struct{} // worker-pool tokens

	mu       sync.Mutex
	cache    map[string]*RunReport
	inflight map[string]*inflightCell
	inputs   map[Workload]*workloads.PartTable // shared by sweeps' cells of a workload
	pending  map[Workload]int                  // sweeps' cells of a workload not yet resolved
	store    *runcache.Store
	storeErr error
	opened   bool
	done     int // cells resolved by execution or disk load
	total    int // sweep size set by Prewarm/RunAll; 0 otherwise
}

// inflightCell is the singleflight slot for one executing cell: the first
// caller executes, later callers park on done and share the outcome.
type inflightCell struct {
	done chan struct{}
	rep  *RunReport
	err  error
}

// NewSuite creates an experiment suite over the given testbed options,
// executing sequentially with no persistent cache unless SuiteOptions say
// otherwise.
func NewSuite(opts Options, sopts ...SuiteOption) *Suite {
	s := &Suite{
		Opts:        opts.withDefaults(),
		parallelism: 1,
		cache:       map[string]*RunReport{},
		inflight:    map[string]*inflightCell{},
		inputs:      map[Workload]*workloads.PartTable{},
		pending:     map[Workload]int{},
	}
	for _, o := range sopts {
		o(s)
	}
	s.sem = make(chan struct{}, s.parallelism)
	return s
}

// Run returns the cached or freshly executed cell.
func (s *Suite) Run(w Workload, f Factors) (*RunReport, error) {
	return s.RunContext(context.Background(), w, f)
}

// RunContext resolves one cell, honouring ctx: a caller waiting on the
// worker pool or on another goroutine's in-flight execution of the same
// cell unblocks with ctx's error when cancelled, and a fresh execution is
// itself cancellable mid-simulation. If the goroutine that won the right to
// execute a cell is cancelled, waiters deduplicated onto it receive its
// cancellation error; the cell stays unresolved and can be retried.
func (s *Suite) RunContext(ctx context.Context, w Workload, f Factors) (*RunReport, error) {
	key := f.cacheKey(w)
	s.mu.Lock()
	if r, ok := s.cache[key]; ok {
		s.mu.Unlock()
		return r, nil
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		select {
		case <-c.done:
			return c.rep, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &inflightCell{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	c.rep, c.err = s.execute(ctx, w, f)

	s.mu.Lock()
	if c.err == nil {
		s.cache[key] = c.rep
	}
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)
	return c.rep, c.err
}

// execute resolves a cell the expensive way: disk cache, then simulation,
// bounded by the worker pool.
func (s *Suite) execute(ctx context.Context, w Workload, f Factors) (*RunReport, error) {
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()

	store, diskKey, err := s.diskStore(w, f)
	if err != nil {
		return nil, err
	}
	if store != nil {
		rep := &RunReport{}
		if store.Get(diskKey, rep) {
			s.emit(w, f, SourceDisk, nil)
			return rep, nil
		}
	}
	s.mu.Lock()
	in := s.inputs[w] // nil outside a sweep: the cell generates its own
	s.mu.Unlock()
	rep, err := runOne(ctx, w, f, s.Opts, in)
	if err != nil {
		if ctx.Err() == nil {
			s.emit(w, f, SourceExecuted, err)
		}
		return nil, err
	}
	if store != nil {
		// Best-effort persistence: a full disk or read-only cache directory
		// must not fail the experiment that just completed.
		_ = store.Put(diskKey, rep)
	}
	s.emit(w, f, SourceExecuted, nil)
	return rep, nil
}

// diskStore returns the persistent store and this cell's content address,
// or (nil, "") when the run is not cacheable or no cache is configured.
// The store opens lazily so a Suite that never resolves a cell never
// touches the filesystem; an unopenable cache directory is a configuration
// error and fails the run loudly rather than silently re-executing forever.
func (s *Suite) diskStore(w Workload, f Factors) (*runcache.Store, string, error) {
	if s.cacheDir == "" || !cacheable(s.Opts) {
		return nil, "", nil
	}
	s.mu.Lock()
	if !s.opened {
		s.opened = true
		s.store, s.storeErr = runcache.Open(s.cacheDir, SchemaVersion)
	}
	store, err := s.store, s.storeErr
	s.mu.Unlock()
	if err != nil {
		return nil, "", err
	}
	key, err := runcache.Key(keyMaterial(w, f, s.Opts))
	if err != nil {
		return nil, "", err
	}
	return store, key, nil
}

// cacheable reports whether runs under opts may be persisted: live hooks
// observe or mutate the testbed in ways the serialized report cannot carry.
// These are exactly the Options fields tagged `json:"-"`, which runKey
// therefore cannot see.
func cacheable(opts Options) bool {
	return opts.TraceAttach == nil && opts.Inspect == nil && opts.TuneMapred == nil
}

// runKey is everything that determines a cell's outcome: the result schema,
// the cell, and the whole testbed description. It is hashed (as canonical
// JSON) into the cell's content address, so any configuration drift lands in
// a different cache slot instead of colliding — and because Options is
// embedded as it is, a new Options field is part of the key the moment it
// exists. A new func-typed hook must be tagged `json:"-"` and refused by
// cacheable; without the tag json.Marshal fails the run loudly.
type runKey struct {
	Schema   int
	Workload string
	Factors  Factors
	Options  Options
}

func keyMaterial(w Workload, f Factors, opts Options) runKey {
	return runKey{Schema: SchemaVersion, Workload: w.String(), Factors: f, Options: opts}
}

// emit fires the progress callback (if any) and advances the done counter.
func (s *Suite) emit(w Workload, f Factors, src RunSource, err error) {
	s.mu.Lock()
	s.done++
	ev := ProgressEvent{Workload: w, Factors: f, Source: src, Err: err, Done: s.done, Total: s.total}
	fn := s.progress
	s.mu.Unlock()
	if fn != nil {
		fn(ev)
	}
}

// CachedRuns returns the number of cells resolved into memory.
func (s *Suite) CachedRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// MatrixCells returns every distinct cell of the paper's experiment matrix
// — the union of the three factor families across the four workloads, with
// cells shared between families (the baselines) listed once — in a stable
// order.
func MatrixCells() []Cell {
	var runs []Factors
	for _, f := range slices.Concat(SlotsRuns, MemoryRuns, CompressRuns) {
		if !slices.Contains(runs, f) {
			runs = append(runs, f)
		}
	}
	return workloadCells(runs)
}

// FigureCells returns the cells paper Figure n renders from.
func FigureCells(n int) ([]Cell, error) {
	spec, ok := figureSpecs[n]
	if !ok {
		return nil, fmt.Errorf("core: no figure %d (paper has 1-12)", n)
	}
	return workloadCells(spec.fam.runs), nil
}

// TableCells returns the cells paper Table n renders from.
func TableCells(n int) ([]Cell, error) {
	var runs []Factors
	switch n {
	case 5:
		runs = SlotsRuns
	case 6, 7:
		runs = SlotsRuns[:1]
	default:
		return nil, fmt.Errorf("core: no table %d (reproducible tables are 5, 6, 7)", n)
	}
	return workloadCells(runs), nil
}

// workloadCells returns runs for each workload in WorkloadOrder, grouped by
// workload.
func workloadCells(runs []Factors) []Cell {
	var cells []Cell
	for _, w := range WorkloadOrder {
		for _, f := range runs {
			cells = append(cells, Cell{Workload: w, Factors: f})
		}
	}
	return cells
}

// Prewarm resolves the given cells across the worker pool and blocks until
// all have finished (or ctx is cancelled), returning the first error. After
// a successful Prewarm every figure or table over those cells renders from
// memory without further execution.
//
// A workload's cells share one input table, dropped as the last of them
// resolves (executed, failed, cancelled or loaded from disk). Cells take
// workers in list order, each workload's together where its first one is
// listed, so at most the pool's size of workloads hold inputs at once.
func (s *Suite) Prewarm(ctx context.Context, cells []Cell) error {
	first := map[Workload]int{} // a workload's cells queue together at its first
	for i := len(cells) - 1; i >= 0; i-- {
		first[cells[i].Workload] = i
	}
	queue := slices.Clone(cells)
	slices.SortStableFunc(queue, func(a, b Cell) int { return first[a.Workload] - first[b.Workload] })
	work := make(chan Cell, len(cells))
	s.mu.Lock()
	s.total += len(cells)
	for _, c := range queue {
		if s.pending[c.Workload]++; s.inputs[c.Workload] == nil {
			s.inputs[c.Workload] = workloads.NewPartTable()
		}
		work <- c
	}
	s.mu.Unlock()
	close(work)
	var wg sync.WaitGroup
	var firstErr error // under s.mu
	for range min(s.parallelism, len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				_, err := s.RunContext(ctx, c.Workload, c.Factors)
				s.mu.Lock()
				if s.pending[c.Workload]--; s.pending[c.Workload] == 0 {
					delete(s.inputs, c.Workload)
				}
				firstErr = cmp.Or(firstErr, err)
				s.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// RunAll resolves the full experiment matrix — what `iochar -all` needs —
// across the worker pool.
func (s *Suite) RunAll(ctx context.Context) error {
	return s.Prewarm(ctx, MatrixCells())
}

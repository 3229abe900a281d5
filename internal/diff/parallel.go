package diff

import (
	"runtime"
	"sync"

	"ipdelta/internal/delta"
	"ipdelta/internal/obs"
)

// Parallel is the multi-core differencer. It keeps the Linear algorithm's
// structure — one Karp–Rabin fingerprint index over the reference, one
// left-to-right scan of the version — but spreads both phases across
// worker goroutines:
//
//   - the reference is split into shards that build the shared fingerprint
//     table concurrently, lock-free, with atomic min-offset-wins inserts
//     that converge on exactly the table the sequential build produces;
//   - the version is split into worker segments sized len(version)/w with
//     a floor (segmentFloor) that amortizes per-segment setup. Each
//     segment scans into its own command list, writing literal bytes
//     directly into its window of one shared arena. A segment's seed
//     windows may read past its end (the overlap window), but its
//     commands cover exactly its byte range, so the per-worker streams
//     concatenate into a well-formed delta;
//   - the stitch pass folds the streams at each seam (seamJoin): exact
//     continuations re-join, and copies clipped by a segment edge are
//     extended into the neighbouring literal run with the usual
//     match-extension primitives, reclaiming the bytes the clip dropped.
//     Output quality tracks the sequential baseline; only matches that
//     genuinely straddle a seam unaligned are lost.
//
// Working memory (table, shared arena, per-worker emitters) is pooled per
// instance, as in Linear; the detached Diff result costs the same three
// allocations. For the zero-allocation steady state, see ParallelDiffer.
type Parallel struct {
	l       *Linear // configuration, shared metrics, scan primitives
	workers int
	pmet    *parallelMetrics
	pool    sync.Pool // of *parallelState
}

// parallelMetrics holds the pre-resolved handles of an observed Parallel
// (DESIGN.md §10). Per-diff updates are atomic adds and value-type spans.
type parallelMetrics struct {
	seamMerges      *obs.Counter // commands rejoined across segment boundaries
	seamExtends     *obs.Counter // copies lengthened across a seam into literals
	seamExtendBytes *obs.Counter // literal bytes reclaimed into seam-extended copies
	segments        *obs.Counter // version segments scanned

	workerScan obs.Stage // one span per worker per diff
	stitch     obs.Stage // seam merge + command stream concatenation
}

func resolveParallelMetrics(r *obs.Registry) *parallelMetrics {
	return &parallelMetrics{
		seamMerges:      r.Counter("ipdelta_diff_seam_merges_total"),
		seamExtends:     r.Counter("ipdelta_diff_seam_extends_total"),
		seamExtendBytes: r.Counter("ipdelta_diff_seam_extend_bytes_total"),
		segments:        r.Counter("ipdelta_diff_segments_total"),
		workerScan:      r.Stage("ipdelta_diff_stage_worker_scan_nanos"),
		stitch:          r.Stage("ipdelta_diff_stage_stitch_nanos"),
	}
}

// segmentFloor is the smallest version segment worth a goroutine. Segment
// size is derived as len(version)/workers; the floor shrinks the worker
// count until each segment amortizes its fixed costs (dispatch, sharded
// table-build imbalance, seam handling — single-digit microseconds per
// segment against a scan that moves multiple bytes per nanosecond).
const segmentFloor = 16 << 10

// workersFor derives the worker count for one input: len(version)/workers
// per segment, floored at segmentFloor, never below one.
//
//ipvet:allocfree
func workersFor(versionLen, workers int) int {
	if most := versionLen / segmentFloor; workers > most {
		workers = most
	}
	if workers < 1 {
		return 1
	}
	return workers
}

// NewParallel returns a parallel differencer running the given number of
// workers (0 or negative means GOMAXPROCS). Options configure the
// underlying linear scan (seed length, table size, observer).
func NewParallel(workers int, opts ...LinearOption) *Parallel {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl := &Parallel{l: NewLinear(opts...), workers: workers}
	if pl.l.obs != nil {
		pl.pmet = resolveParallelMetrics(pl.l.obs)
	}
	return pl
}

// Name implements Algorithm.
func (pl *Parallel) Name() string { return "parallel" }

// Workers returns the configured worker count.
func (pl *Parallel) Workers() int { return pl.workers }

// Phases a segment worker executes.
const (
	jobBuild = iota // index the reference shard (atomic inserts)
	jobScan         // scan the version range into the segment emitter
)

// segment is one worker's slice of a parallel diff: a reference shard for
// the build phase, a version range for the scan phase, and the emitter
// that owns the worker's command arena. Fields are rewritten per diff;
// nothing is allocated in steady state.
type segment struct {
	table     *krTable
	e         emitter
	ref       []byte
	version   []byte
	p         int
	stride    int // reference anchor stride (shared with Linear's derivation)
	rlo, rhi  int // reference seed range to index
	vlo, vhi  int // version byte range to scan
	minCopy   int
	job       int
	wg        *sync.WaitGroup
	scanStage obs.Stage
}

// run executes the segment's current job and signals completion.
//
//ipvet:allocfree
func (sg *segment) run() {
	switch sg.job {
	case jobBuild:
		buildTable(sg.table, sg.ref, sg.p, sg.rlo, sg.rhi, sg.stride, true)
	case jobScan:
		span := sg.scanStage.Start()
		scanRange(sg.table, &sg.e, sg.ref, sg.version, sg.p, sg.vlo, sg.vhi, sg.minCopy)
		span.End()
	}
	sg.wg.Done()
}

// workerPool is a set of persistent goroutines fed segments over an
// unbuffered channel. Channel sends and WaitGroup operations allocate
// nothing, which is what lets a ParallelDiffer hold the steady state at
// zero allocations per diff — a `go` statement with arguments heap-
// allocates its argument frame on every spawn.
type workerPool struct {
	work chan *segment
	stop sync.Once
}

func newWorkerPool(n int) *workerPool {
	wp := &workerPool{work: make(chan *segment)}
	for i := 0; i < n; i++ {
		go wp.worker()
	}
	return wp
}

func (wp *workerPool) worker() {
	for sg := range wp.work {
		sg.run()
	}
}

// shutdown releases the pool's goroutines. Idempotent.
func (wp *workerPool) shutdown() {
	wp.stop.Do(func() { close(wp.work) })
}

// parallelState is one diff's working memory: the shared fingerprint
// table, the per-worker segments, and one shared literal arena. Pooled
// per Parallel instance.
//
// The arena replaces the old per-worker arenas + stitch-time copy:
// workers emit literals directly into disjoint windows of this single
// buffer, laid out at version offsets (segment i's window is
// arena[vlo:vhi] — a segment can never produce more literal bytes than
// its own length), so the stitch pass only rebases add offsets instead
// of copying every literal byte.
type parallelState struct {
	table krTable
	segs  []segment
	arena []byte
	cmds  []delta.Command // stitched stream scratch (detached Diff path)
	wg    sync.WaitGroup
}

// dispatch runs one phase over the first w segments: through the
// persistent pool when one is attached, otherwise on freshly spawned
// goroutines. It returns when every segment's job completed.
func (st *parallelState) dispatch(w, job int, wp *workerPool) {
	st.wg.Add(w)
	for i := 0; i < w; i++ {
		sg := &st.segs[i]
		sg.job = job
		if wp != nil {
			wp.work <- sg
		} else {
			go sg.run()
		}
	}
	st.wg.Wait()
}

// run executes the sharded build and segmented scan phases, leaving each
// segment's commands in its emitter. It returns the number of segments
// used (1 for inputs too small to split).
func (pl *Parallel) run(st *parallelState, ref, version []byte, wp *workerPool) int {
	p := pl.l.seedLen
	stride, bits, cut := tableParams(p, pl.l.tableBits, len(ref))
	st.table.prepare(bits, cut)

	w := workersFor(len(version), pl.workers)
	if cap(st.segs) < w {
		st.segs = make([]segment, w)
	}
	st.segs = st.segs[:w]
	if cap(st.arena) < len(version) {
		st.arena = make([]byte, len(version))
	}
	st.arena = st.arena[:len(version)]

	var scanStage obs.Stage
	if pl.pmet != nil {
		scanStage = pl.pmet.workerScan
	}
	nseeds := len(ref) - p + 1 // reference seed positions; may be <= 0
	for i := 0; i < w; i++ {
		sg := &st.segs[i]
		sg.table = &st.table
		sg.ref = ref
		sg.version = version
		sg.p = p
		sg.stride = stride
		sg.wg = &st.wg
		sg.scanStage = scanStage
		sg.minCopy = p
		if nseeds > 0 {
			sg.rlo = i * nseeds / w
			sg.rhi = (i + 1) * nseeds / w
		} else {
			sg.rlo, sg.rhi = 0, 0
		}
		sg.vlo = i * len(version) / w
		sg.vhi = (i + 1) * len(version) / w
		// The emitter writes at absolute version offsets and its literal
		// bytes go straight into the segment's arena window.
		sg.e.reset()
		sg.e.lits = st.arena[sg.vlo:sg.vlo:sg.vhi]
		sg.e.at = int64(sg.vlo)
	}

	var span obs.Span
	if pl.l.met != nil {
		span = pl.l.met.tableStage.Start()
		if stride > 1 {
			pl.l.met.strided.Inc()
		}
	}
	if w == 1 {
		buildTable(&st.table, ref, p, 0, nseeds, stride, false)
	} else {
		st.dispatch(w, jobBuild, wp)
	}
	if pl.l.met != nil {
		span.End()
		span = pl.l.met.emitStage.Start()
	}
	if w == 1 {
		sg := &st.segs[0]
		sp := sg.scanStage.Start()
		scanRange(sg.table, &sg.e, ref, version, p, 0, len(version), p)
		sp.End()
	} else {
		st.dispatch(w, jobScan, wp)
	}
	if pl.l.met != nil {
		span.End()
	}
	return w
}

// seamStats aggregates what the stitch pass did at segment boundaries.
type seamStats struct {
	merges      int // commands rejoined exactly across a seam
	extends     int // copies lengthened into a neighbouring literal run
	extendBytes int // literal bytes reclaimed into seam-extended copies
}

// seamJoin tries to fold c — the next command arriving at a segment seam
// — into the tail of cmds. Three folds apply, O(1) bookkeeping each plus
// byte comparisons bounded by the match actually recovered:
//
//   - exact continuation: a copy split in two by the seam, contiguous in
//     both reference and version, re-joins into one command;
//   - a literal run split across two arena windows re-joins (the right
//     half is relocated to sit flush against the left half — windows are
//     laid out at version offsets, so the gap it moves across is exactly
//     the left segment's unused window tail);
//   - a copy ending (or starting) at the seam extends forward (backward)
//     into the neighbouring segment's literal run, using matchForward /
//     matchBackward to reclaim the match bytes the segment clip dropped
//     — the re-scan of clipped boundaries the old stitch never did.
//
// It reports whether c was wholly consumed; a consumed literal run can
// expose the previous command to a further fold, hence the loop.
//
//ipvet:allocfree
func seamJoin(cmds []delta.Command, c *delta.Command, ref, version, arena []byte, stats *seamStats) ([]delta.Command, bool) {
	for len(cmds) > 0 {
		last := &cmds[len(cmds)-1]
		if last.To+last.Length != c.To {
			return cmds, false
		}
		switch {
		case last.Op == delta.OpCopy && c.Op == delta.OpCopy:
			if last.From+last.Length != c.From {
				return cmds, false // contiguous in version, not in reference
			}
			last.Length += c.Length
			stats.merges++
			return cmds, true
		case last.Op == delta.OpAdd && c.Op == delta.OpAdd:
			// Literal runs adjacent in the version: relocate the right
			// run against the left one so the merged add aliases one
			// contiguous arena range. copy is memmove-safe (dst <= src).
			end := last.From + last.Length
			if end != c.From {
				copy(arena[end:end+c.Length], arena[c.From:c.From+c.Length])
			}
			last.Length += c.Length
			stats.merges++
			return cmds, true
		case last.Op == delta.OpCopy && c.Op == delta.OpAdd:
			// The left copy's match may continue into the right segment's
			// leading literals (the clip dropped the residue).
			n := int64(matchForwardN(ref, version, int(last.From+last.Length), int(c.To), int(c.Length)))
			if n == 0 {
				return cmds, false
			}
			last.Length += n
			c.From += n
			c.To += n
			c.Length -= n
			stats.extends++
			stats.extendBytes += int(n)
			return cmds, c.Length == 0
		default: // add | copy
			// The right copy's backward extension was clipped at the
			// seam: pull it back through the left trailing literals.
			n := int64(matchBackward(ref, version, int(c.From), int(c.To), int(last.Length)))
			if n == 0 {
				return cmds, false
			}
			c.From -= n
			c.To -= n
			c.Length += n
			last.Length -= n
			stats.extends++
			stats.extendBytes += int(n)
			if last.Length > 0 {
				return cmds, false
			}
			cmds = cmds[:len(cmds)-1] // literal run wholly matched away
			// c may now continue the command before the dropped add.
		}
	}
	return cmds, false
}

// stitch concatenates the per-worker command streams into cmds. Literal
// bytes already sit in the shared arena (each segment's window starts at
// arena offset vlo), so no literal data is copied: add commands only get
// their window-local offsets rebased to absolute arena offsets, still
// carried in From until the caller resolves them. At each seam the
// streams are folded by seamJoin — an O(seams) pass plus the bytes any
// cross-seam match extension actually recovers.
//
//ipvet:allocfree
func stitch(segs []segment, cmds []delta.Command, ref, version, arena []byte) ([]delta.Command, seamStats) {
	var stats seamStats
	for i := range segs {
		sg := &segs[i]
		sg.e.flushAdd()
		base := int64(sg.vlo)
		atSeam := i > 0
		for k := range sg.e.cmds {
			c := sg.e.cmds[k]
			if c.Op == delta.OpAdd {
				c.From += base
			}
			if atSeam && len(cmds) > 0 {
				var consumed bool
				cmds, consumed = seamJoin(cmds, &c, ref, version, arena, &stats)
				if consumed {
					continue
				}
				atSeam = false
			}
			cmds = append(cmds, c)
		}
	}
	return cmds, stats
}

// recordStitch folds one stitch pass's seam statistics into the metrics.
//
//ipvet:allocfree
func (pl *Parallel) recordStitch(stats seamStats, w int) {
	pl.pmet.seamMerges.Add(int64(stats.merges))
	pl.pmet.seamExtends.Add(int64(stats.extends))
	pl.pmet.seamExtendBytes.Add(int64(stats.extendBytes))
	pl.pmet.segments.Add(int64(w))
}

// detachCommands copies the stitched command stream out of the pooled
// scratch: a fresh command slice and one compact literal arena holding
// exactly the surviving add bytes, with From offsets rewritten against
// it and resolved into sub-slices.
func detachCommands(cmds []delta.Command, scratch []byte) []delta.Command {
	out := make([]delta.Command, len(cmds))
	copy(out, cmds)
	var total int64
	for k := range out {
		if out[k].Op == delta.OpAdd {
			total += out[k].Length
		}
	}
	arena := make([]byte, 0, total)
	for k := range out {
		if out[k].Op != delta.OpAdd {
			continue
		}
		off := int64(len(arena))
		arena = append(arena, scratch[out[k].From:out[k].From+out[k].Length]...)
		out[k].From = off
	}
	resolveAdds(out, arena)
	return out
}

// Diff implements Algorithm. The result is detached: like (*Linear).Diff
// it costs three allocations (delta, command slice, one literal arena);
// the table, shared arena, and per-worker scratch come from the pool.
func (pl *Parallel) Diff(ref, version []byte) (*delta.Delta, error) {
	st, _ := pl.pool.Get().(*parallelState)
	if st == nil {
		st = &parallelState{}
	}
	w := pl.run(st, ref, version, nil)

	var span obs.Span
	if pl.pmet != nil {
		span = pl.pmet.stitch.Start()
	}
	ncmds := 0
	for i := 0; i < w; i++ {
		e := &st.segs[i].e
		e.flushAdd()
		ncmds += len(e.cmds)
	}
	if cap(st.cmds) < ncmds {
		st.cmds = make([]delta.Command, 0, ncmds)
	}
	cmds, stats := stitch(st.segs[:w], st.cmds[:0], ref, version, st.arena)
	st.cmds = cmds
	d := &delta.Delta{
		RefLen:     int64(len(ref)),
		VersionLen: int64(len(version)),
		Commands:   detachCommands(cmds, st.arena),
	}
	if pl.pmet != nil {
		span.End()
		pl.recordStitch(stats, w)
	}
	if cap(st.arena) <= maxPooledScratch {
		pl.pool.Put(st)
	}
	pl.l.record(ref, version, len(d.Commands))
	return d, nil
}

// ParallelDiffer is the reusable parallel differencer for steady-state
// pipelines: one instance owns the fingerprint table, the per-worker
// arenas, and the stitched output, so repeated Diff calls perform no heap
// allocations at all once warm. The returned delta is owned by the differ
// and valid only until its next call — the contract of (*Differ).Diff. A
// ParallelDiffer is not safe for concurrent use; (*Parallel).Diff pools
// its state internally and is.
type ParallelDiffer struct {
	pl   *Parallel
	wp   *workerPool
	st   parallelState
	cmds []delta.Command
	out  delta.Delta
}

// NewParallelDiffer returns a reusable parallel differencer (workers <= 0
// means GOMAXPROCS) with the given options applied. The differ owns a set
// of persistent worker goroutines; Close releases them early, and a
// garbage-collected differ releases them automatically.
func NewParallelDiffer(workers int, opts ...LinearOption) *ParallelDiffer {
	pd := &ParallelDiffer{pl: NewParallel(workers, opts...)}
	pd.wp = newWorkerPool(pd.pl.workers)
	// The cleanup must not capture pd (it would never become unreachable);
	// it references only the pool.
	runtime.AddCleanup(pd, func(wp *workerPool) { wp.shutdown() }, pd.wp)
	return pd
}

// Close releases the differ's worker goroutines. The differ must not be
// used afterwards. Optional: an unreachable differ is cleaned up by the
// garbage collector.
func (pd *ParallelDiffer) Close() { pd.wp.shutdown() }

// Name identifies the algorithm in reports.
func (pd *ParallelDiffer) Name() string { return pd.pl.Name() }

// Workers returns the configured worker count.
func (pd *ParallelDiffer) Workers() int { return pd.pl.workers }

// Diff computes the delta like (*Parallel).Diff, into differ-owned
// storage that is reused by — and valid only until — the next call.
func (pd *ParallelDiffer) Diff(ref, version []byte) (*delta.Delta, error) {
	w := pd.pl.run(&pd.st, ref, version, pd.wp)

	var span obs.Span
	if pd.pl.pmet != nil {
		span = pd.pl.pmet.stitch.Start()
	}
	var stats seamStats
	pd.cmds, stats = stitch(pd.st.segs[:w], pd.cmds[:0], ref, version, pd.st.arena)
	resolveAdds(pd.cmds, pd.st.arena)
	pd.out = delta.Delta{
		RefLen:     int64(len(ref)),
		VersionLen: int64(len(version)),
		Commands:   pd.cmds,
	}
	if pd.pl.pmet != nil {
		span.End()
		pd.pl.recordStitch(stats, w)
	}
	pd.pl.l.record(ref, version, len(pd.out.Commands))
	return &pd.out, nil
}

package colstore

import (
	"context"
	"sync"
	"time"

	"codecdb/internal/arena"
	"codecdb/internal/obs"
)

// PageFetcher is the one path page bytes take from the device to a scan
// of one part, and it holds one rule: a page that is neither staged nor
// cached when a consumer asks for it costs one coalesced read covering
// every page that consumer still needs from that chunk — never a
// single-page read (except on the typed-error fallback below).
//
// Bytes are staged in fetch units: pages of one (row group, column) chunk
// as a list of coalesced ReadAt runs (gap-tolerant up to Slop) into pooled
// buffers. A unit comes from one of two places:
//
//   - Scheduled units are handed over before the scan — the first planned
//     stage's surviving pages, which metadata predicts exactly — and up to
//     fetchDepth background goroutines walk them in morsel order, each
//     claiming the next pending unit, so the first stage's reads overlap
//     one another as well as decompression and scanning (lookahead).
//   - Demand units are built on a consumer's miss from the pages it
//     declared it will read (Chunk.Want, a gather's selection, a whole-
//     chunk decode) and read at once by that consumer: later filter
//     stages, sink gathers, and pages the shared page cache evicted
//     between scheduling and use.
//
// Workers consume pages through the chunk: a page whose unit is staged is
// served zero-copy (a prefetch hit); a unit the background walk has not
// reached yet, and every demand unit, is claimed and read synchronously —
// still coalesced — by the consumer (a miss), so workers never block
// behind the prefetch frontier.
//
// Memory is bounded by the bytes-in-flight budget: the background walk
// sleeps while staging the next unit would exceed fetchBudget, and every unit
// of a row group returns its buffers as soon as the morsel owning the
// group finishes (FinishGroup) or the fetcher closes. A unit whose read
// fails is marked failed and its consumers fall back to the synchronous
// per-page path, which surfaces the same typed errors (retry-exhausted
// read errors, *CorruptionError) the engine always had.
type PageFetcher struct {
	r *Reader

	mu       sync.Mutex
	cond     sync.Cond
	byRG     []*fetchUnit // per row group: the chain of its units
	order    []*fetchUnit // scheduled units, in walk order
	next     int          // background-walk frontier into order
	inflight int64
	closed   bool
	started  bool
	ctx      context.Context
	wg       sync.WaitGroup

	// free is the fetcher-local buffer freelist, capped at fetchBudget bytes.
	// Released run buffers recycle here instead of round-tripping through
	// the global pool: a long scan cycles the whole table's bytes through
	// its buffers, and parking them in a sync.Pool keeps them live until
	// the next GC — peak RSS then grows with the table instead of the
	// budget. The freelist pins at most fetchBudget extra bytes, so fetcher
	// memory stays ≤ 2×fetchBudget no matter how many row groups stream by.
	free      [][]byte
	freeBytes int64
}

// fetchBudget caps prefetched-but-unreleased bytes across all staged
// units; the background walk stalls rather than exceed it, so peak RSS
// tracks the budget, not the table size: 8 MiB keeps SF-10 scans in
// constant memory while covering several row groups of lookahead.
// fetchSlop is the widest byte gap between two selected pages that still
// merges them into one coalesced ReadAt; unselected bytes dragged in by a
// gap are read but never booked or served. 4 KiB merges across pruned
// pages smaller than one disk block, where a single larger read beats two
// seeks.
const (
	fetchBudget = 8 << 20
	fetchSlop   = 4 << 10
)

// fetchDepth caps the walk goroutines of one fetcher, so at most that many
// scheduled units are read at once: on a device that serves requests
// concurrently, overlapping reads turns per-request latency into
// throughput. Start launches no more walkers than the part has scheduled
// units, so a scan over many small parts (ingest shards) does not pay for
// walkers with nothing to read. DESIGN.md ("Beyond-RAM") gives the
// measurements behind the value.
const fetchDepth = 4

// fetchRun is one coalesced ReadAt: a contiguous extent covering `pages`
// wanted pages plus any tolerated gaps between them.
type fetchRun struct {
	off   int64
	size  int64
	pages int
}

type fetchUnit struct {
	rg, col int
	runs    []fetchRun
	size    int64 // total staged bytes across runs
	// demand units are built on a consumer's miss and recycled through
	// unitPool once their row group finishes; scheduled units live as long
	// as the fetcher (the background walk indexes them).
	demand bool
	link   *fetchUnit // next unit of the same row group

	state   unitState
	done    chan struct{} // set while the background walk fetches the unit
	bufs    [][]byte      // one pooled buffer per run, set in unitReady
	counted bool          // prefetch hit/miss already recorded
}

// unitPool recycles demand units with their run and buffer slices, so a
// scan's steady state builds them without allocating.
var unitPool = sync.Pool{New: func() any { return new(fetchUnit) }}

type unitState uint8

const (
	unitPending  unitState = iota
	unitFetching           // read in progress (background or consumer-claimed)
	unitReady              // bufs staged, servable
	unitFailed             // read failed; consumers use the sync path
	unitReleased           // row group finished or fetcher closed; bufs freed
)

// add appends one page to the unit, merging it into the last run when the
// gap between them is at most slop. Pages arrive in ascending order.
func (u *fetchUnit) add(pm *PageMeta, slop int64) {
	size := int64(pm.CompressedSize)
	if n := len(u.runs); n > 0 {
		cur := &u.runs[n-1]
		end := cur.off + cur.size
		if gap := pm.Offset - end; gap >= 0 && gap <= slop {
			cur.size = pm.Offset + size - cur.off
			cur.pages++
			u.size += pm.Offset + size - end
			return
		}
	}
	u.runs = append(u.runs, fetchRun{off: pm.Offset, size: size, pages: 1})
	u.size += size
}

// run returns the index of the run holding the whole page, or -1.
func (u *fetchUnit) run(pm *PageMeta) int {
	for i, run := range u.runs {
		if pm.Offset >= run.off && pm.Offset+int64(pm.CompressedSize) <= run.off+run.size {
			return i
		}
	}
	return -1
}

// NewPageFetcher creates a fetcher over r. Schedule every unit before
// calling Start; demand units need neither.
func NewPageFetcher(r *Reader) *PageFetcher {
	f := &PageFetcher{r: r, byRG: make([]*fetchUnit, r.NumRowGroups())}
	f.cond.L = &f.mu
	return f
}

// Schedule registers the surviving pages of (rg, col) — ascending page
// indexes, as the planner's metadata pass produces them — for the
// background walk, coalesced into runs. A unit whose every page the
// shared page cache already holds is not staged: the cache serves it,
// and a page evicted before its turn demand-reads the rest of the
// consumer's pages. Must be called before Start; scheduling the same
// unit twice keeps the first schedule.
func (f *PageFetcher) Schedule(rg, col int, pages []int) {
	if len(pages) == 0 || f.resident(rg, col, pages) {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.started || f.closed {
		return
	}
	for u := f.byRG[rg]; u != nil; u = u.link {
		if u.col == col {
			return
		}
	}
	pms := f.r.meta.RowGroups[rg].Chunks[col].Pages
	u := &fetchUnit{rg: rg, col: col}
	for _, p := range pages {
		u.add(&pms[p], fetchSlop)
	}
	f.linkLocked(u)
	f.order = append(f.order, u)
}

// resident reports whether the shared page cache holds every page.
func (f *PageFetcher) resident(rg, col int, pages []int) bool {
	if f.r.cache == nil {
		return false
	}
	for _, p := range pages {
		if !f.r.cache.Contains(f.r.id, rg, col, p) {
			return false
		}
	}
	return true
}

// linkLocked adds u to its row group's chain; caller holds f.mu.
func (f *PageFetcher) linkLocked(u *fetchUnit) {
	u.link = f.byRG[u.rg]
	f.byRG[u.rg] = u
}

// Start binds the scan's context — cancellation stops further reads — and
// launches min(fetchDepth, scheduled units) walk goroutines over the
// schedule. Close must still be called to release staged buffers.
func (f *PageFetcher) Start(ctx context.Context) {
	f.mu.Lock()
	if f.started || f.closed {
		f.mu.Unlock()
		return
	}
	f.started = true
	f.ctx = ctx
	walkers := min(fetchDepth, len(f.order))
	f.mu.Unlock()
	if walkers == 0 {
		return
	}
	// One method value serves every walker: `go f.loop()` would allocate
	// a closure per goroutine.
	loop := f.loop
	f.wg.Add(walkers)
	for range walkers {
		go loop()
	}
}

// loop is one walk goroutine: claim the next pending unit in schedule
// order, waiting out the budget when staging it would overshoot, read it
// outside the lock, publish or discard the result. The walkers share the
// frontier, so each unit is claimed once.
func (f *PageFetcher) loop() {
	defer f.wg.Done()
	for {
		f.mu.Lock()
		var u *fetchUnit
		for !f.closed && f.ctx.Err() == nil {
			for f.next < len(f.order) && f.order[f.next].state != unitPending {
				f.next++
			}
			if f.next >= len(f.order) {
				break
			}
			cand := f.order[f.next]
			if f.inflight > 0 && f.inflight+cand.size > fetchBudget {
				// Over budget with the walk ahead of consumption: sleep
				// until FinishGroup frees staged bytes. The inflight > 0
				// guard guarantees progress for a single unit larger than
				// the whole budget.
				f.cond.Wait()
				continue
			}
			u = cand
			u.state = unitFetching
			u.done = make(chan struct{})
			f.addInFlight(u.size)
			f.next++
			break
		}
		f.mu.Unlock()
		if u == nil {
			return
		}
		f.finishRead(u, f.readUnit(u))
	}
}

// readUnit performs the unit's coalesced reads into pooled buffers,
// appended to u.bufs. Called without the lock held, by the one goroutine
// that claimed the unit (nothing else touches bufs while it is fetching).
func (f *PageFetcher) readUnit(u *fetchUnit) error {
	var coalesced int64
	for _, run := range u.runs {
		if f.ctx != nil {
			if err := f.ctx.Err(); err != nil {
				return err
			}
		}
		buf := f.getBuf(int(run.size))
		u.bufs = append(u.bufs, buf)
		if err := f.r.readAtRaw(buf, run.off); err != nil {
			return err
		}
		coalesced += int64(run.pages - 1)
	}
	if coalesced > 0 {
		f.r.count(obs.PagesCoalesced, coalesced, nil)
	}
	return nil
}

// finishRead publishes a claimed unit's read, or — on error, or when the
// row group was released or the fetcher closed meanwhile — returns its
// buffers and in-flight bytes, then wakes whoever waits on the unit or the
// budget. It reports whether the unit is servable.
func (f *PageFetcher) finishRead(u *fetchUnit, err error) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	defer f.cond.Broadcast()
	if u.done != nil {
		close(u.done)
		u.done = nil
	}
	if err != nil || f.closed || u.state == unitReleased {
		f.dropBufsLocked(u)
		f.addInFlight(-u.size)
		if u.state != unitReleased {
			u.state = unitFailed
		}
		return false
	}
	u.state = unitReady
	return true
}

// getBuf takes a buffer of length n, preferring the fetcher's freelist
// over the global pool. Called without the lock held.
func (f *PageFetcher) getBuf(n int) []byte {
	f.mu.Lock()
	for i := len(f.free) - 1; i >= 0; i-- {
		if b := f.free[i]; cap(b) >= n {
			f.free[i] = f.free[len(f.free)-1]
			f.free = f.free[:len(f.free)-1]
			f.freeBytes -= int64(cap(b))
			f.mu.Unlock()
			return b[:n]
		}
	}
	f.mu.Unlock()
	return arena.GetBytes(n)
}

// dropBufsLocked recycles a unit's run buffers onto the freelist, or
// overflows them to the global pool once the freelist holds a budget's
// worth. Caller holds f.mu.
func (f *PageFetcher) dropBufsLocked(u *fetchUnit) {
	for i, b := range u.bufs {
		u.bufs[i] = nil
		if cap(b) == 0 {
			continue
		}
		if f.freeBytes+int64(cap(b)) <= fetchBudget {
			f.free = append(f.free, b)
			f.freeBytes += int64(cap(b))
			continue
		}
		arena.PutBytes(b)
	}
	u.bufs = u.bufs[:0]
}

// addInFlight moves the in-flight gauge; caller holds f.mu.
func (f *PageFetcher) addInFlight(d int64) {
	f.inflight += d
	f.r.count(obs.BytesInFlight, d, nil)
}

// coveringLocked returns the live unit of c's (row group, column) whose
// runs hold page pm, or nil. A failed unit still answers for its pages:
// they take the synchronous path rather than a second coalesced attempt.
// Caller holds f.mu.
func (f *PageFetcher) coveringLocked(c *Chunk, pm *PageMeta) *fetchUnit {
	for u := f.byRG[c.rg]; u != nil; u = u.link {
		if u.col == c.col && u.state != unitReleased && u.run(pm) >= 0 {
			return u
		}
	}
	return nil
}

// demandLocked builds the demand unit for a miss on page p: every page
// the chunk's caller declared it will read from p on, less those a live
// unit of the chunk already stages. nil when the caller declared nothing
// (the read stays a plain synchronous one). Caller holds f.mu.
func (f *PageFetcher) demandLocked(c *Chunk, p int) *fetchUnit {
	if c.nextWanted(p) != p {
		return nil
	}
	u := unitPool.Get().(*fetchUnit)
	u.rg, u.col, u.demand = c.rg, c.col, true
	pms := c.meta.Pages
	for q := p; q >= 0; q = c.nextWanted(q + 1) {
		if q == p || f.coveringLocked(c, &pms[q]) == nil {
			u.add(&pms[q], fetchSlop)
		}
	}
	f.linkLocked(u)
	return u
}

// page serves page p of chunk c through the fetcher; ok=false routes the
// caller to the plain synchronous read. It finds the unit staging the
// page — or, on a miss, builds the demand unit — and drives the unit's
// state machine from the consumer side: a pending unit is claimed and
// read synchronously (miss), an in-flight one is awaited (the stall lands
// in the stage's WaitNanos), a ready one serves zero-copy (hit). Bytes
// are booked here, per served page, exactly as the synchronous path books
// them per read.
func (f *PageFetcher) page(c *Chunk, p int) ([]byte, bool) {
	pm := &c.meta.Pages[p]
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, false
	}
	u := c.funit
	if u == nil || u.state == unitReleased || u.run(pm) < 0 {
		if u = f.coveringLocked(c, pm); u == nil {
			if u = f.demandLocked(c, p); u == nil {
				f.mu.Unlock()
				return nil, false
			}
		}
		c.funit = u
	}
	for {
		switch u.state {
		case unitPending:
			// Not staged yet: read it here, still coalesced, bypassing the
			// budget (the bytes are consumed now, not speculative
			// lookahead).
			u.state = unitFetching
			f.addInFlight(u.size)
			f.mu.Unlock()
			if !f.finishRead(u, f.readUnit(u)) {
				return nil, false
			}
			f.mu.Lock()
			f.recordUnit(u, c, false)

		case unitFetching:
			done := u.done
			if done == nil {
				// Claimed by another consumer of the same unit — cannot
				// happen within one worker's sequential stages, but stay
				// safe: fall back to the sync path.
				f.mu.Unlock()
				return nil, false
			}
			f.mu.Unlock()
			start := time.Now()
			<-done
			if c.tap != nil {
				c.tap.WaitNanos += time.Since(start).Nanoseconds()
			}
			f.mu.Lock()

		case unitReady:
			f.recordUnit(u, c, true)
			i := u.run(pm)
			run := u.runs[i]
			raw := u.bufs[i][pm.Offset-run.off : pm.Offset-run.off+int64(pm.CompressedSize)]
			f.mu.Unlock()
			f.r.count(obs.BytesRead, int64(len(raw)), c.tap)
			return raw, true

		default: // unitFailed, unitReleased
			f.mu.Unlock()
			return nil, false
		}
	}
}

// recordUnit books the hit/miss once per unit; caller holds f.mu.
func (f *PageFetcher) recordUnit(u *fetchUnit, c *Chunk, hit bool) {
	if u.counted {
		return
	}
	u.counted = true
	k := obs.PrefetchMisses
	if hit {
		k = obs.PrefetchHits
	}
	f.r.count(k, 1, c.tap)
}

// FinishGroup releases every unit of row group rg, freeing budget for the
// walk to advance; its demand units go back to the pool. Call it once no
// consumer of the group's chunks is left; it is safe for row groups with
// no units. Units mid-read are marked released and cleaned up by whoever
// completes the read.
func (f *PageFetcher) FinishGroup(rg int) {
	f.mu.Lock()
	var keep *fetchUnit
	for u := f.byRG[rg]; u != nil; {
		next := u.link
		if f.releaseLocked(u) && u.demand {
			*u = fetchUnit{runs: u.runs[:0], bufs: u.bufs[:0]}
			unitPool.Put(u)
		} else {
			u.link = keep
			keep = u
		}
		u = next
	}
	f.byRG[rg] = keep
	f.cond.Broadcast()
	f.mu.Unlock()
}

// releaseLocked moves one unit to unitReleased and reports whether it is
// idle — no read of it still in progress; caller holds f.mu.
func (f *PageFetcher) releaseLocked(u *fetchUnit) bool {
	switch u.state {
	case unitReady:
		f.dropBufsLocked(u)
		f.addInFlight(-u.size)
	case unitFetching:
		// The in-progress read's completion path sees unitReleased and
		// frees the buffers (and the in-flight bytes) itself.
		u.state = unitReleased
		return false
	}
	u.state = unitReleased
	return true
}

// Close stops the background walk, waits it out, and releases every
// staged buffer. After Close the fetcher serves nothing; BytesInFlight
// is back to zero. Close is idempotent.
func (f *PageFetcher) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		f.wg.Wait()
		return
	}
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
	f.wg.Wait()
	f.mu.Lock()
	for _, u := range f.byRG {
		for ; u != nil; u = u.link {
			f.releaseLocked(u)
		}
	}
	// Hand the freelist to the global pool: the next query's fetcher can
	// reuse the buffers, and nothing pins them past this query's lifetime.
	for _, b := range f.free {
		arena.PutBytes(b)
	}
	f.free = nil
	f.freeBytes = 0
	f.mu.Unlock()
}

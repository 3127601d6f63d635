package core

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
	"github.com/rvm-go/rvm/internal/pagevec"
	"github.com/rvm-go/rvm/internal/recovery"
	"github.com/rvm-go/rvm/internal/segment"
	"github.com/rvm-go/rvm/internal/wal"
)

// Flush blocks until all committed no-flush transactions have been forced
// to the log (paper §4.2 flush), on every shard.
func (e *Engine) Flush() error {
	if err := e.check(); err != nil {
		return err
	}
	for _, sh := range e.shards {
		if err := e.flushSpool(sh, false); err != nil {
			return e.maybePoison(err)
		}
	}
	return nil
}

// flushSpool drains one shard's spool into its log and forces it.
// claimed says whether the caller already holds the truncation slot: it
// decides how a full log is handled (an unclaimed caller claims the slot
// to truncate; a claimed caller truncates inline, since waiting for the
// slot it already owns would deadlock).  The force runs with no lock
// held.
func (e *Engine) flushSpool(sh *shard, claimed bool) error {
	t0 := time.Now()
	p := &sh.pipe
	var drained int64
	first := true
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		if first {
			drained = p.spoolBytes
			first = false
		}
		err := e.drainSpoolPipeLocked(sh)
		var need int64
		if err != nil && len(p.spool) > 0 {
			need = wal.EncodedLen(p.spool[0].ranges)
		}
		p.mu.Unlock()
		if err == nil {
			break
		}
		if !errors.Is(err, wal.ErrLogFull) {
			return err
		}
		if attempt >= 3 {
			// Giving up: even after inline truncations the record does not
			// fit.  Say why, so the caller can tell "log too small for this
			// record" from a log that is merely busy.
			return fmt.Errorf(
				"rvm: log full after %d inline truncations while flushing the spool (record needs %d bytes, log area %d bytes, %d live): %w",
				attempt, need, sh.log.AreaSize(), sh.log.Used(), err)
		}
		if mkErr := e.makeLogSpace(sh, need, claimed); mkErr != nil {
			return mkErr
		}
	}
	if err := e.retryIO(sh.log.Force); err != nil {
		return err
	}
	e.stats.flushes.Add(1)
	e.met.ObserveSpoolFlush(time.Since(t0).Nanoseconds())
	e.met.SetSpoolBytes(0)
	e.tr.SpanSince(obs.EvSpoolFlush, t0, 0, uint64(drained), 0)
	return nil
}

// makeLogSpace frees log space on one shard for a record of need bytes by
// running an epoch truncation of that shard.  An unclaimed caller first
// claims the truncation slot — which also waits out any truncation
// already in flight, after which the space it freed may already suffice.
func (e *Engine) makeLogSpace(sh *shard, need int64, claimed bool) error {
	if !claimed {
		if err := e.claimTruncation(); err != nil {
			return err
		}
		defer e.releaseTruncation()
		if sh.log.AreaSize()-sh.log.Used() >= need {
			return nil
		}
	}
	return e.inlineEpochTruncateShard(sh)
}

// Truncate blocks until all committed changes in the write-ahead logs
// have been reflected to the external data segments (paper §4.2
// truncate).  A full reflection is exactly an epoch truncation of every
// shard whose epoch is that shard's whole live log.
func (e *Engine) Truncate() error {
	return e.epochTruncate()
}

// epochTruncate runs one epoch truncation on every shard.  Each shard's
// epoch (its live log at collection time) is applied to the segments
// while forward processing continues; commits only stall on their own
// shard's pipeline lock during collection and completion (paper §5.1.2,
// Figure 6).  Callers must hold no engine lock.
func (e *Engine) epochTruncate() error {
	t0 := time.Now()
	e.met.OpEnter(obs.StallTruncation)
	defer e.met.OpExit(obs.StallTruncation)
	if err := e.claimTruncation(); err != nil {
		return err
	}
	var records uint64
	for _, sh := range e.shards {
		n, err := e.epochTruncateShard(sh)
		records += n
		if err != nil {
			e.releaseTruncation()
			return err
		}
	}
	e.tr.SpanSince(obs.EvTruncEpoch, t0, 0, records, 0)
	e.releaseTruncation()
	return nil
}

// epochTruncateShard runs one shard's epoch truncation under the caller's
// truncation claim, returning the number of records the epoch contained.
func (e *Engine) epochTruncateShard(sh *shard) (uint64, error) {
	pause := time.Now() // spool flush, collection and force: the epoch's setup
	fail := func(err error) (uint64, error) {
		err = e.maybePoison(err)
		e.clearEpochSeq(sh)
		return 0, err
	}
	// Spooled commits become log records now so the epoch covers them,
	// and the force inside guarantees nothing unforced is ever applied to
	// a segment (the no-undo/redo invariant).
	if err := e.flushSpool(sh, true); err != nil {
		return fail(err)
	}
	ep, err := e.collectEpochPipe(sh)
	if err != nil {
		return fail(err)
	}
	e.met.ObserveTruncPause(time.Since(pause).Nanoseconds())
	e.tr.SpanSince(obs.EvTruncPause, pause, 0, 0, 0)

	// Apply outside every lock: commits keep flowing into the current
	// epoch meanwhile.
	_, err = ep.Apply(e.lookupSegmentSync, e.retryIO)

	pause = time.Now()
	if err == nil {
		e.completeEpochPipe(sh, ep.EndSeq())
		e.stats.epochTruncs.Add(1)
	} else {
		// The head was not advanced, so the log still covers everything
		// the segments may have partially absorbed; recovery stays
		// correct.  The engine, however, can no longer trust the device.
		err = e.maybePoison(err)
		e.clearEpochSeq(sh)
	}
	e.met.ObserveTruncPause(time.Since(pause).Nanoseconds())
	e.tr.SpanSince(obs.EvTruncPause, pause, 0, 0, 0)
	return uint64(ep.Records()), err
}

// epochBoundPipeLocked computes the highest end sequence an epoch on this
// shard may use: the given log tail, lowered to a fixpoint so that no
// in-doubt prepare is separated from its commit mark.  An entry whose
// outcome is undecided (cmtSeq == 0), or decided at or beyond the
// current bound, forces the bound down to its prepare — and that move
// can expose another entry's mark, hence the fixpoint.  Without the
// bound, an epoch could contain P(T1) but not C(T1) (for example with
// another transaction's in-doubt prepare between them), and replaying or
// discarding P(T1) alone would corrupt an acknowledged commit.  Caller
// holds sh.pipe.mu.
func epochBoundPipeLocked(p *pipeline, tailSeq uint64) uint64 {
	end := tailSeq
	for changed := true; changed; {
		changed = false
		for _, d := range p.inDoubt {
			if (d.cmtSeq == 0 || d.cmtSeq >= end) && d.prepSeq < end {
				end = d.prepSeq
				changed = true
			}
		}
	}
	return end
}

// collectEpochPipe collects one shard's epoch: its live log up to the
// tail, bounded so no in-doubt cross-shard prepare is split from its
// commit mark.  Under the shard's pipeline lock it does four things only —
// snapshot the tail, compute the bound, fix the epoch end there (the
// bound never exceeds the tail), and publish it as epochEndSeq — so any
// commit appending after the snapshot sees epochEndSeq set and promotes
// re-modified pages to their new (surviving) log reference.  The scan of
// [head, end) and the tree build then run with no lock held: the records
// below the snapshot never change, and only this truncation-claim holder
// moves the head.  Records can append unforced between the spool flush
// and the snapshot, so the epoch's tail is forced before it may be
// applied.
func (e *Engine) collectEpochPipe(sh *shard) (*recovery.Epoch, error) {
	p := &sh.pipe
	p.mu.Lock()
	_, tailSeq := sh.log.Tail()
	end := epochBoundPipeLocked(p, tailSeq) // never past tailSeq
	p.epochEndSeq = end
	p.mu.Unlock()

	var ep *recovery.Epoch
	err := e.retryIO(func() error {
		var err error
		ep, err = recovery.CollectEpochBounded(sh.log, end, e.epochRecordHook)
		return err
	})
	if err == nil && ep.EndSeq() > 0 && sh.log.ForcedThrough() < ep.EndSeq()-1 {
		err = e.retryIO(sh.log.Force)
	}
	if err != nil {
		e.clearEpochSeq(sh)
		return nil, err
	}
	return ep, nil
}

// clearEpochSeq resets the in-flight epoch marker after a failed epoch.
func (e *Engine) clearEpochSeq(sh *shard) {
	sh.pipe.mu.Lock()
	sh.pipe.epochEndSeq = 0
	sh.pipe.mu.Unlock()
}

// completeEpochPipe drops queue descriptors the epoch made obsolete,
// clears dirty bits for pages whose committed changes are now fully in
// their segments, and retires in-doubt entries whose commit mark the
// epoch consumed.  Callers hold the truncation claim (so the regions
// slice and mapped-state are stable); the queue/spool/dirty
// reconciliation runs under the shard's pipeline lock so it cannot
// interleave with a commit's enqueue.
func (e *Engine) completeEpochPipe(sh *shard, endSeq uint64) {
	p := &sh.pipe
	p.mu.Lock()
	p.queue.DropOlderThan(endSeq)
	for tid, d := range p.inDoubt {
		// Both the prepare and its mark are behind the new head; the
		// entry no longer bounds anything.
		if d.cmtSeq != 0 && d.cmtSeq < endSeq {
			delete(p.inDoubt, tid)
		}
	}
	// Pages referenced by still-spooled transactions keep their dirty
	// bits: their changes are only in memory and in the spool.
	spoolPages := make(map[pagevec.PageID]bool)
	for _, sp := range p.spool {
		for _, id := range sp.pages {
			spoolPages[id] = true
		}
	}
	for _, r := range e.regions {
		if r == nil || r.sh != sh {
			// Another shard's epoch says nothing about this region's
			// pages; its own epochs reconcile them.
			continue
		}
		for pg := 0; pg < r.pvec.NumPages(); pg++ {
			id := pagevec.PageID{Region: r.idx, Page: int64(pg)}
			if r.pvec.IsDirty(pg) && !p.queue.Has(id) && !spoolPages[id] {
				r.pvec.ClearDirty(pg)
			}
		}
	}
	p.epochEndSeq = 0
	p.mu.Unlock()
}

// inlineEpochTruncate is epoch truncation of every shard for callers that
// already hold the truncation claim (Close).
func (e *Engine) inlineEpochTruncate() error {
	for _, sh := range e.shards {
		if err := e.inlineEpochTruncateShard(sh); err != nil {
			return err
		}
	}
	return nil
}

// inlineEpochTruncateShard is one shard's epoch truncation for callers
// that already hold the truncation claim (log-full recovery, Close).
// The spool is intentionally not drained — there may be no room for it;
// it stays in memory and flows into the next epoch.  The leading force
// makes every record the epoch will contain durable before any of it
// reaches a segment (no-undo/redo invariant).
func (e *Engine) inlineEpochTruncateShard(sh *shard) error {
	tt := time.Now()
	if err := e.retryIO(sh.log.Force); err != nil {
		return err
	}
	ep, err := e.collectEpochPipe(sh)
	if err != nil {
		return err
	}
	if _, err := ep.Apply(e.lookupSegmentSync, e.retryIO); err != nil {
		e.clearEpochSeq(sh)
		return err
	}
	e.completeEpochPipe(sh, ep.EndSeq())
	e.stats.epochTruncs.Add(1)
	e.met.ObserveTruncPause(time.Since(tt).Nanoseconds())
	e.tr.SpanSince(obs.EvTruncEpoch, tt, 0, uint64(ep.Records()), 0)
	return nil
}

// lookupSegmentSync is lookupSegment under the engine lock, for use from
// code running outside it.
func (e *Engine) lookupSegmentSync(id uint64) (*segment.Segment, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lookupSegment(id)
}

// incrementalSteps performs incremental truncation steps (paper Figure 7)
// on one shard until its live log shrinks to targetUsed bytes or the head
// of the shard's page queue is blocked by an uncommitted reference.  It
// reports whether the target was reached.  Caller holds the truncation
// claim and must have flushed the shard's spool.
//
// Each step holds the page's region lock across the write-out, the dirty
// clear, and the queue pop: the region lock excludes commits on that
// region, so no commit can re-enqueue (and dedup against) a descriptor in
// the middle of being retired.  Page write-outs are batched: pages are
// written without syncing, the touched segments are synced once with no
// lock held, and only then does the log head move — a single status write
// per batch instead of one per page, with the same guarantee (a page is
// durably in its segment before the head passes its first log reference).
//
// In-doubt prepares need no special casing here: a cross-shard
// transaction holds its pages' uncommitted reference counts until the
// commit completes, so the queue blocks on them exactly as it does for a
// single-shard commit in flight, and once the counts drop the pages are
// committed and safe to write.
func (e *Engine) incrementalSteps(sh *shard, targetUsed int64) (bool, error) {
	ps := int64(mapping.PageSize)
	p := &sh.pipe
	wrote := make(map[*segment.Segment]bool)
	var newPos int64
	var newSeq uint64
	moved := false
	// A page blocked by an uncommitted reference is usually mid-commit:
	// the committer holds the reference across its log force (no lock
	// held) and drops it within milliseconds.  Wait briefly for such
	// transient references to drain before declaring the queue blocked
	// and reverting to an epoch truncation.
	blockDeadline := time.Now().Add(50 * time.Millisecond)
	for sh.log.Used()-e.reclaimableTo(sh, newPos, moved) > targetUsed {
		p.mu.Lock()
		d, ok := p.queue.First()
		p.mu.Unlock()
		if !ok {
			// Every live record's pages have been written out: the whole
			// log is reflected; the head can move to the tail.
			newPos, newSeq = sh.log.Tail()
			moved = true
			break
		}
		r := e.regions[d.ID.Region] // stable under the truncation claim
		if r == nil {
			// Unmap removes descriptors, so this is unreachable; tolerate
			// a stale descriptor by skipping it.
			p.mu.Lock()
			p.queue.PopFirst()
			p.mu.Unlock()
			continue
		}
		r.mu.Lock()
		if !r.mapped {
			r.mu.Unlock()
			p.mu.Lock()
			p.queue.PopFirst()
			p.mu.Unlock()
			continue
		}
		blocked := r.pvec.Refs(int(d.ID.Page)) > 0
		spooled := false
		if !blocked {
			// A no-flush transaction committed after the caller's spool
			// flush may have re-dirtied this page: its bytes are committed
			// but not yet logged, so writing the page (and moving the head
			// past its log reference) would break atomicity on a crash.
			p.mu.Lock()
			spooled = spoolRefsPagePipeLocked(p, d.ID)
			p.mu.Unlock()
		}
		if blocked || spooled {
			// The first page in the queue has uncommitted or unlogged
			// changes and cannot be written without violating no-undo/redo;
			// the head cannot move past it (paper: truncation is blocked
			// until the count drops to zero).
			r.mu.Unlock()
			if !time.Now().Before(blockDeadline) {
				break
			}
			if spooled {
				// A spooled reference never drains on its own; turn the
				// spooled bytes into log records (legal: the caller holds
				// the truncation claim and no locks are held here) so the
				// page becomes writable and stepping continues.
				if err := e.flushSpool(sh, true); err != nil {
					return false, err
				}
			}
			// Pace the retry in both cases: a committer re-spooling the
			// page on every visit would otherwise turn this loop into a
			// flush spin that starves the very commits it is waiting on.
			time.Sleep(200 * time.Microsecond)
			continue
		}
		off := d.ID.Page * ps
		err := e.retryIO(func() error {
			return r.seg.WriteAt(r.data[off:off+ps], r.segOff+off)
		})
		if err != nil {
			r.mu.Unlock()
			return false, err
		}
		r.pvec.ClearDirty(int(d.ID.Page))
		p.mu.Lock()
		p.queue.PopFirst()
		if next, ok := p.queue.First(); ok {
			newPos, newSeq = next.Pos, next.Seq
		} else {
			newPos, newSeq = sh.log.Tail()
		}
		p.mu.Unlock()
		r.mu.Unlock()
		wrote[r.seg] = true
		e.stats.incrSteps.Add(1)
		e.stats.pagesWritten.Add(1)
		moved = true
	}
	for seg := range wrote {
		if err := e.retryIO(seg.Sync); err != nil {
			return false, err
		}
	}
	if moved {
		if hp, hs := sh.log.Head(); hp != newPos || hs != newSeq {
			err := e.retryIO(func() error {
				return sh.log.SetHead(newPos, newSeq)
			})
			if err != nil {
				return false, err
			}
		}
	}
	return sh.log.Used() <= targetUsed, nil
}

// reclaimableTo returns the bytes that a pending head move to pos would
// free on the shard (0 when no move is pending).  Used to decide when a
// batch has reclaimed enough.
func (e *Engine) reclaimableTo(sh *shard, pos int64, moved bool) int64 {
	if !moved {
		return 0
	}
	hp, _ := sh.log.Head()
	freed := pos - hp
	if freed < 0 {
		freed += sh.log.AreaSize()
	}
	return freed
}

// TruncateIncremental runs incremental truncation down to targetFraction
// of each shard's log size, reverting to an epoch truncation if any shard
// blocks while its log remains above the fraction.  Exposed for tests,
// tools, and benchmarks; background truncation uses the same path.
func (e *Engine) TruncateIncremental(targetFraction float64) error {
	// Like Commit, the operation span starts at the call so traces show
	// truncation overlapping the commits it contended with.
	t0 := time.Now()
	e.met.OpEnter(obs.StallTruncation)
	defer e.met.OpExit(obs.StallTruncation)
	if err := e.claimTruncation(); err != nil {
		return err
	}
	pause := time.Now()
	stepsBefore := e.stats.incrSteps.Load()
	done := true
	var err error
	for _, sh := range e.shards {
		// The spool flush runs even on a shard already below target:
		// truncation's contract includes making spooled no-flush commits
		// durable.
		if err = e.flushSpool(sh, true); err != nil {
			break
		}
		target := int64(targetFraction * float64(sh.log.AreaSize()))
		if sh.log.Used() <= target {
			continue
		}
		var shardDone bool
		shardDone, err = e.incrementalSteps(sh, target)
		if err != nil {
			break
		}
		done = done && shardDone
	}
	err = e.maybePoison(err)
	pages := e.stats.incrSteps.Load() - stepsBefore
	e.met.ObserveTruncPause(time.Since(pause).Nanoseconds())
	e.tr.SpanSince(obs.EvTruncPause, pause, 0, pages, 0)
	e.releaseTruncation()
	if err == nil && !done {
		// Blocked with a log still above target: revert to epoch
		// truncation (paper §5.1.2).
		err = e.epochTruncate()
	}
	// The operation span closes only now so it covers the epoch
	// fallback too: a fallback's apply phase is the longest part of the
	// call, and ending the span before it would leave the window where
	// truncation overlaps the most forward commits uncovered.
	e.tr.SpanSince(obs.EvTruncIncr, t0, 0, pages, 0)
	return err
}

// shouldAutoTruncate reports whether a commit should kick off a background
// truncation.  Lock-free: all inputs are atomics.
func (e *Engine) shouldAutoTruncate() bool {
	thr := math.Float64frombits(e.truncThreshold.Load())
	if thr <= 0 || e.truncating.Load() || e.closed.Load() {
		return false
	}
	for _, sh := range e.shards {
		if float64(sh.log.Used()) > thr*float64(sh.log.AreaSize()) {
			return true
		}
	}
	return false
}

// autoTruncate is the background truncation started after a commit crosses
// the threshold.
func (e *Engine) autoTruncate() {
	if e.truncating.Load() || !e.shouldAutoTruncate() {
		return
	}
	thr := math.Float64frombits(e.truncThreshold.Load())
	var err error
	if e.incremental.Load() {
		// Aim well below the trigger so truncations are not continuous.
		err = e.TruncateIncremental(thr / 2)
	} else {
		err = e.epochTruncate()
	}
	if err != nil && !errors.Is(err, ErrClosed) && !errors.Is(err, wal.ErrLogClosed) {
		// Poisoning (when warranted) already happened inside the truncation
		// path; here we make the failure observable.  The engine remains
		// correct either way — the log head did not advance, so recovery
		// still covers every acknowledged commit — but the log will keep
		// filling until the operator notices via Query/Stats.
		e.stats.truncFailures.Add(1)
		e.mu.Lock()
		e.truncErr = err
		e.mu.Unlock()
	}
}

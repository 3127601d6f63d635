package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"sync"
	"sync/atomic"
	"time"

	rvm "github.com/rvm-go/rvm"
)

// clients is the closed-loop client count: each client issues its next
// operation only after the previous one returned.
const clients = 2

// hashOps is how many leading operations of each client feed the op
// hash, so two runs of one seed can be compared for identical inputs.
const hashOps = 512

// opStats is what one client operation reports.  A latency of -1 means
// the op had no read (or no write) part.
type opStats struct {
	desc    uint64 // the op's generated inputs, folded for the op hash
	readNs  int64
	writeNs int64
	user    int64 // bytes of application data the op changed
	err     error
}

// opFunc runs client c's k-th operation.
type opFunc func(c, k int, ct *clientTrace) opStats

const (
	phWarm int32 = iota
	phMeasure
	phPost
)

// window is what a closed-loop run measured between its two boundaries.
type window struct {
	ops, failed   int64
	user          int64
	reads, writes [][]float64 // per slice, ns; a failed op adds inf to each
	secs          float64
	p0, p1        procSample
	s0, s1        rvm.Statistics
	m0, m1        *rvm.MetricsSnapshot
	peakRSS       int64
	cycles        []cycle // the whole truncation cycles in the window
	epochs        uint64
	opHash        string
}

// cycle is what one truncation cycle took: its ops, its wall time and
// the process CPU time spent in it.
type cycle struct {
	ops       int64
	secs, cpu float64
}

// sliceDur is the width of the slices a window's latencies are grouped
// into; each reported percentile is the fast quartile over slices of that
// percentile within a slice, so noise from a neighbour on a shared host
// moves some slices rather than the result.
const sliceDur = time.Second

// pollEvery is how often the loop looks for a completed truncation.
// Engine statistics take the log's lock, so the loop polls no more often
// than its cycle boundaries need: a block of at least blockDur is then
// off by under one percent.
const pollEvery = 5 * time.Millisecond

type clientLog struct {
	ops, failed, user int64
	reads, writes     [][]float64 // per slice, ns
}

func addSample(s [][]float64, i int, v float64) [][]float64 {
	for len(s) <= i {
		s = append(s, nil)
	}
	s[i] = append(s[i], v)
	return s
}

// opHasher hashes the first hashOps op descriptors of each client.
type opHasher struct {
	h [clients]hash.Hash64
}

func newOpHasher() *opHasher {
	o := &opHasher{}
	for c := range o.h {
		o.h[c] = fnv.New64a()
	}
	return o
}

// add folds client c's k-th op; clients call it only for their own c.
func (o *opHasher) add(c, k int, desc uint64) {
	if k < hashOps {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], desc)
		o.h[c].Write(b[:])
	}
}

func (o *opHasher) sum() string {
	h := fnv.New64a()
	for _, x := range o.h {
		h.Write(x.Sum(nil))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// runLoop drives op from the package's clients until a measurement window
// of at least seconds has passed, then postOps more ops per client.
//
// The window opens when a background epoch truncation completes and
// closes at the first completion after seconds have elapsed, so every
// run measures whole truncation cycles and throughput does not depend on
// where in a cycle the clock happened to start or stop.  If the engine
// truncates too rarely for that, the window opens after half of seconds
// of warm-up and closes after one and a half times seconds.
func runLoop(db *rvm.RVM, seconds float64, postOps int, tr *tracer, op opFunc) (*window, error) {
	var phase atomic.Int32
	var t0 atomic.Int64   // window start, unix ns
	var done atomic.Int64 // ops started in the window and completed
	logs := make([]*clientLog, clients)
	var wg sync.WaitGroup
	var errOnce sync.Once
	var firstErr error
	hasher := newOpHasher()
	for c := 0; c < clients; c++ {
		cl := &clientLog{}
		logs[c] = cl
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			post := 0
			for k := 0; ; k++ {
				ph := phase.Load()
				slice := 0
				if ph == phMeasure {
					slice = int(time.Duration(time.Now().UnixNano()-t0.Load()) / sliceDur)
				}
				if ph == phPost {
					if post >= postOps {
						break
					}
					post++
				}
				ct := tr.client(c)
				ct.beginOp(uint64(c)<<48 | uint64(k))
				r := op(c, k, ct)
				ct.endOp()
				hasher.add(c, k, r.desc)
				if r.err != nil {
					errOnce.Do(func() { firstErr = r.err })
				}
				if ph != phMeasure {
					continue
				}
				cl.ops++
				done.Add(1)
				if r.err != nil {
					cl.failed++
					cl.reads = addSample(cl.reads, slice, inf)
					cl.writes = addSample(cl.writes, slice, inf)
					continue
				}
				cl.user += r.user
				if r.readNs >= 0 {
					cl.reads = addSample(cl.reads, slice, float64(r.readNs))
				}
				if r.writeNs >= 0 {
					cl.writes = addSample(cl.writes, slice, float64(r.writeNs))
				}
			}
		}(c)
	}

	w := &window{}
	epochs := func() uint64 { return db.Stats().EpochTruncs }
	limit := time.Duration(seconds * float64(time.Second))
	// Warm-up: until a truncation completes.
	start := time.Now()
	e := epochs()
	for epochs() == e && time.Since(start) < limit/2 {
		time.Sleep(pollEvery)
	}
	w.p0, w.s0, w.m0 = sampleProc(), db.Stats(), engineMetrics(db)
	watch := watchRSS()
	tr.setOn(true)
	t0.Store(w.p0.at.UnixNano())
	phase.Store(phMeasure)
	e0 := epochs()
	var eAt uint64
	reached := false
	last, lastAt, lastDone, lastCPU := e0, w.p0.at, int64(0), w.p0.cpu
	for {
		time.Sleep(pollEvery)
		e := epochs()
		if e != last {
			now, n, cpu := time.Now(), done.Load(), cpuTime()
			w.cycles = append(w.cycles, cycle{ops: n - lastDone, secs: now.Sub(lastAt).Seconds(), cpu: (cpu - lastCPU).Seconds()})
			last, lastAt, lastDone, lastCPU = e, now, n, cpu
		}
		el := time.Since(w.p0.at)
		if !reached && el >= limit {
			reached, eAt = true, e
		}
		if reached && (e > eAt || el >= limit*3/2) {
			break
		}
	}
	phase.Store(phPost)
	tr.setOn(false)
	w.peakRSS = watch.stop()
	w.p1, w.s1, w.m1 = sampleProc(), db.Stats(), engineMetrics(db)
	w.secs = w.p1.at.Sub(w.p0.at).Seconds()
	w.epochs = w.s1.EpochTruncs - e0
	wg.Wait()

	for _, cl := range logs {
		w.ops += cl.ops
		w.failed += cl.failed
		w.user += cl.user
		for i, x := range cl.reads {
			w.reads = addSamples(w.reads, i, x)
		}
		for i, x := range cl.writes {
			w.writes = addSamples(w.writes, i, x)
		}
	}
	w.opHash = hasher.sum()
	if w.ops == 0 {
		return w, fmt.Errorf("no operation completed in the window")
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failed op: %v\n", firstErr)
	}
	return w, nil
}

func addSamples(s [][]float64, i int, v []float64) [][]float64 {
	for len(s) <= i {
		s = append(s, nil)
	}
	s[i] = append(s[i], v...)
	return s
}

// sliced returns the fast quartile over slices of each slice's
// q-quantile, in ns.  Slices without samples (a window's tail, or a
// workload without reads) are skipped.
func sliced(s [][]float64, q float64) float64 {
	var per []float64
	for _, x := range s {
		if len(x) > 0 {
			per = append(per, quantile(x, q))
		}
	}
	return fastest(per)
}

// inf stands for a failed op's latency: it misses every percentile.
var inf = 1e18

func engineMetrics(db *rvm.RVM) *rvm.MetricsSnapshot {
	sn, err := db.Snapshot()
	if err != nil {
		return nil
	}
	return sn.Metrics
}

// e2e fills the forward-processing end-to-end metrics from a window.
func (w *window) e2e(ms metrics) {
	ms.set("ops_per_s", "1/s", w.opsPerSec())
	ms.set("write_p50_us", "us", sliced(w.writes, 0.5)/1e3)
	ms.set("read_p50_us", "us", sliced(w.reads, 0.5)/1e3)
	ms.set("cpu_us_per_op", "us", w.cpuPerOp())
	ms.set("log_bytes_per_user_byte", "B/B", float64(w.s1.LogBytes-w.s0.LogBytes)/float64(w.user))
	ms.set("io_bytes_per_user_byte", "B/B", float64(w.p1.wchar-w.p0.wchar)/float64(w.user))
	ms.set("peak_rss_mb", "MB", float64(w.peakRSS)/(1<<20))
}

// blocks groups the window's consecutive truncation cycles into blocks
// of at least blockDur each, so that every block holds whole cycles and
// a short cycle weighs no more than a long one.  A window with fewer
// than minBlocks blocks is one block.
func (w *window) blocks() []cycle {
	var bs []cycle
	var b cycle
	for _, c := range w.cycles {
		b.ops, b.secs, b.cpu = b.ops+c.ops, b.secs+c.secs, b.cpu+c.cpu
		if b.secs >= blockDur.Seconds() && b.ops > 0 {
			bs = append(bs, b)
			b = cycle{}
		}
	}
	if len(bs) < minBlocks {
		return []cycle{{ops: w.ops, secs: w.secs, cpu: (w.p1.cpu - w.p0.cpu).Seconds()}}
	}
	return bs
}

const (
	blockDur  = time.Second
	minBlocks = 4
)

// opsPerSec is the fast quartile over the window's blocks of each
// block's throughput, so an episode of host noise shorter than the window
// moves some blocks rather than the result.
func (w *window) opsPerSec() float64 {
	var xs []float64
	for _, b := range w.blocks() {
		xs = append(xs, float64(b.ops)/b.secs)
	}
	return fastestRate(xs)
}

// cpuPerOp is the fast quartile over the window's blocks of each block's
// process CPU per op, in µs.
func (w *window) cpuPerOp() float64 {
	var xs []float64
	for _, b := range w.blocks() {
		xs = append(xs, b.cpu*1e6/float64(b.ops))
	}
	return fastest(xs)
}

// layers fills the per-layer metrics the engine's own counters and
// histograms give for a forward-processing window.
func (w *window) layers(ms metrics) {
	ops := float64(w.ops)
	d := func(a, b uint64) float64 { return float64(b - a) }
	ms.set("wal.forces_per_op", "1/op", d(w.s0.LogForces, w.s1.LogForces)/ops)
	ms.set("wal.log_bytes_per_op", "B/op", d(w.s0.LogBytes, w.s1.LogBytes)/ops)
	ms.set("wal.intra_saved_per_op", "B/op", d(w.s0.IntraSavedBytes, w.s1.IntraSavedBytes)/ops)
	ms.set("wal.inter_saved_per_op", "B/op", d(w.s0.InterSavedBytes, w.s1.InterSavedBytes)/ops)
	logMB := d(w.s0.LogBytes, w.s1.LogBytes) / (1 << 20)
	if logMB > 0 {
		ms.set("core.truncate.epochs_per_log_mb", "1/MB", float64(w.epochs)/logMB)
	} else {
		ms.set("core.truncate.epochs_per_log_mb", "1/MB", 0)
	}
	seg := float64(w.p1.wchar-w.p0.wchar) - d(w.s0.LogBytes, w.s1.LogBytes)
	ms.set("segment.write_bytes_per_op", "B/op", max(seg, 0)/ops)
	ms.set("proc.alloc_bytes_per_op", "B/op", float64(w.p1.alloc-w.p0.alloc)/ops)
	ms.set("proc.gc_per_kop", "1/kop", float64(w.p1.numGC-w.p0.numGC)/ops*1e3)
	m0, m1 := w.m0, w.m1
	if m0 == nil || m1 == nil {
		m0, m1 = &rvm.MetricsSnapshot{}, &rvm.MetricsSnapshot{}
	}
	ms.set("wal.force_p50_us", "us", float64(m1.ForceLatencyNs.P50)/1e3)
	ms.set("wal.force_batch_mean", "count", m1.ForceBatch.Mean)
	ms.set("core.commit.phase.lock_wait_p50_us", "us", float64(m1.PhaseLockWaitNs.P50)/1e3)
	ms.set("core.commit.phase.encode_p50_us", "us", float64(m1.PhaseEncodeNs.P50)/1e3)
	ms.set("core.commit.phase.pipe_wait_p50_us", "us", float64(m1.PhasePipeWaitNs.P50)/1e3)
	ms.set("core.commit.phase.append_p50_us", "us", float64(m1.PhaseAppendNs.P50)/1e3)
	ms.set("core.commit.phase.force_wait_p50_us", "us", float64(m1.PhaseForceWaitNs.P50)/1e3)
	ms.set("write_p99_us", "us", sliced(w.writes, 0.99)/1e3)
	ms.set("read_p99_us", "us", sliced(w.reads, 0.99)/1e3)
	ms.set("core.truncate.pause_ms_per_s", "ms/s", float64(m1.TruncPauseNs.Sum-m0.TruncPauseNs.Sum)/1e6/w.secs)
	ms.set("core.truncate.pause_p99_ms", "ms", float64(m1.TruncPauseNs.P99)/1e6)
}

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	rvm "github.com/rvm-go/rvm"
)

// fwdStore is a forward-processing workload's store, prepared by setup.
type fwdStore interface {
	// open reopens the store in dir and returns its engine.
	open(dir string, withMetrics bool) (*rvm.RVM, error)
	op(c, k int, ct *clientTrace) opStats
	// verify recovers the crash image in dir and checks it against what
	// the clients had acknowledged.  When traced it also reports the
	// recovery's per-layer metrics into ms.
	verify(dir string, traced bool, ms metrics) (lost int64, checks []check, err error)
	logName() string
}

// postOps is how many operations each client runs after the window
// closes, so the crash image always holds acknowledged records in its
// live log for the checker (and its negative test) to find.
const postOps = 1000

// forwardRun measures a forward-processing workload on the store that
// setup left in dir, takes a crash image, and checks it.  The traced run
// also replays the image through itree and repeats the window untraced
// on a fresh store to measure the tracing overhead.
func forwardRun(cfg config, dir string, st fwdStore, fresh func() (string, fwdStore, error)) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer(clients)
	}
	freshHeap()
	db, err := st.open(dir, cfg.trace)
	if err != nil {
		return nil, err
	}
	w, err := runLoop(db, cfg.seconds, postOps, tr, st.op)
	if err != nil {
		return nil, err
	}
	waitQuiet(db)
	img := dir + "-image"
	if err := crashImage(dir, img, st.logName()); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	o := &outcome{attempted: w.ops, failed: w.failed, opHash: w.opHash,
		window: map[string]float64{"seconds": w.secs, "epoch_truncations": float64(w.epochs), "slices": float64(len(w.writes)), "blocks": float64(len(w.blocks())),
			"write_p99_unsliced_us": quantile(flat(w.writes), 0.99) / 1e3, "read_p99_unsliced_us": quantile(flat(w.reads), 0.99) / 1e3}}
	if cfg.negative {
		n, err := cutLog(filepath.Join(img, st.logName()))
		if err != nil {
			return nil, err
		}
		o.checks = append(o.checks, check{Name: "negative.cut_records", OK: true, Detail: fmt.Sprint(n)})
	}
	ms := metrics{}
	var rp *itreeReplay
	if cfg.trace {
		if rp, err = replayITree(filepath.Join(img, st.logName()), cfg.work, runtime.GOMAXPROCS(0)); err != nil {
			return nil, err
		}
	}
	lost, checks, err := st.verify(img, cfg.trace, ms)
	if err != nil {
		return nil, err
	}
	o.lost, o.checks = lost, append(o.checks, checks...)
	os.RemoveAll(img)
	if !cfg.trace {
		w.e2e(ms)
		o.e2e = ms
		return o, nil
	}

	w.layers(ms)
	rp.report(ms)
	traceLayers(ms, tr)
	o.selfTime = tr.selfTime()
	o.traceFile = filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(o.traceFile); err != nil {
		return nil, err
	}
	// Untraced repeat for the overhead.
	dir2, st2, err := fresh()
	if err != nil {
		return nil, err
	}
	db2, err := st2.open(dir2, false)
	if err != nil {
		return nil, err
	}
	w2, err := runLoop(db2, cfg.seconds, 0, nil, st2.op)
	if err != nil {
		return nil, err
	}
	if err := db2.Close(); err != nil {
		return nil, err
	}
	traced, untraced := w.opsPerSec(), w2.opsPerSec()
	ms.set("trace.overhead_pct", "%", 100*(untraced-traced)/untraced)
	o.layers = ms
	return o, nil
}

func flat(s [][]float64) []float64 {
	var all []float64
	for _, x := range s {
		all = append(all, x...)
	}
	return all
}

// closeInto closes db and reports its error through *err unless an
// earlier error is already there.
func closeInto(db *rvm.RVM, err *error) {
	if cerr := db.Close(); *err == nil {
		*err = cerr
	}
}

// traceLayers fills the per-layer metrics the spans give.
func traceLayers(ms metrics, tr *tracer) {
	ms.set("core.commit.flush_p50_us", "us", tr.p(spCommitFlush, 0.5)/1e3)
	ms.set("core.commit.flush_p99_us", "us", tr.p(spCommitFlush, 0.99)/1e3)
	ms.set("core.commit.noflush_p50_ns", "ns", tr.p(spCommitNoFlush, 0.5))
	ms.set("core.flush_p50_us", "us", tr.p(spFlush, 0.5)/1e3)
	sr := append(tr.durations(spSetRange), tr.durations(spHeapSetRange)...)
	ms.set("core.setrange_p50_ns", "ns", quantile(sr, 0.5))
	ms.set("rbtree.get_p50_ns", "ns", tr.p(spTreeGet, 0.5))
	ms.set("rbtree.put_p50_ns", "ns", tr.p(spTreePut, 0.5))
	ms.set("rds.alloc_p50_ns", "ns", tr.p(spAlloc, 0.5))
	ms.set("rds.free_p50_ns", "ns", tr.p(spFree, 0.5))
	ms.set("rvmlock.acquire_p50_ns", "ns", tr.p(spAcquire, 0.5))
	var acq, op int64
	for _, c := range tr.clients {
		acq += c.total[spAcquire]
		op += c.total[spOp]
	}
	if op > 0 {
		ms.set("rvmlock.wait_share", "ratio", float64(acq)/float64(op))
	} else {
		ms.set("rvmlock.wait_share", "ratio", 0)
	}
	for _, r := range tr.selfTime() {
		if r.Layer != "bench" {
			ms.set(r.Layer+".self_share", "ratio", r.Share)
		}
	}
}

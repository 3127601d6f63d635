package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	rvm "github.com/rvm-go/rvm"
)

const (
	// restartLogLive is where the crash image stops: this much live log.
	// One restart of it takes under two seconds on a 2-vCPU host, so a
	// run holds a dozen samples for the quartile.
	restartLogLive = 4 << 20
	// restartLogSize leaves the default truncation threshold (half the
	// log) above restartLogLive, so no truncation runs while building.
	restartLogSize    = 32 << 20
	restartFlushEvery = 64
)

// restartImage is a crash image of the TPC-A store and the transactions
// it acknowledged.
type restartImage struct {
	dir      string
	acked    [][]bankTx
	txs      int64
	logBytes uint64
	opHash   string
}

// buildRestartImage runs NoRestore, NoFlush TPC-A transactions from both
// clients' streams in turn, flushing every restartFlushEvery commits,
// until the log holds restartLogLive bytes; then it flushes and copies
// the files as a crash would leave them, and abandons the engine.
func buildRestartImage(cfg config, dir string, ct *clientTrace) (*restartImage, error) {
	if err := setupBank(dir, restartLogSize); err != nil {
		return nil, err
	}
	db, reg, _, _, err := openBank(dir, false, nil)
	if err != nil {
		return nil, err
	}
	b := newBank(db, reg, cfg.seed)
	b.txMode, b.commit = rvm.NoRestore, rvm.NoFlush
	h := newOpHasher()
	for n := 0; ; n++ {
		c, k := n%clients, n/clients
		ct.beginOp(uint64(n))
		st := b.op(c, k, ct)
		flush := st.err == nil && (n+1)%restartFlushEvery == 0
		if flush {
			s := ct.now()
			st.err = db.Flush()
			ct.span(spFlush, s)
		}
		ct.endOp()
		if st.err != nil {
			return nil, st.err
		}
		h.add(c, k, st.desc)
		if flush {
			q, err := db.Query(nil)
			if err != nil {
				return nil, err
			}
			if q.LogUsed >= restartLogLive {
				break
			}
		}
	}
	img := &restartImage{dir: dir + "-image", acked: b.acked, opHash: h.sum(), logBytes: db.Stats().LogBytes}
	for _, a := range b.acked {
		img.txs += int64(len(a))
	}
	if err := crashImage(dir, img.dir, "bank.log"); err != nil {
		return nil, err
	}
	// Abandon the engine: nothing refers to it any more, and its files
	// close when the collector finalizes them.
	os.RemoveAll(dir)
	runtime.GC()
	return img, nil
}

// restartSample is one crash restart of the image.
type restartSample struct {
	open, mapd  time.Duration
	read, write time.Duration // from the start of Open
	cpu         time.Duration
	wchar       int64
	peakRSS     int64
	lost        int64
	checks      []check
}

// restartOnce recovers a fresh copy of the image with default options:
// Open plus Map until the data can be read, then one read and one
// Flush-mode commit, then the audit and sum checks.
func restartOnce(img *restartImage, run string, negative, traced bool, ct *clientTrace, ms metrics) (rs *restartSample, err error) {
	if err := crashImage(img.dir, run, "bank.log"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(run)
	if negative {
		if _, err := cutLog(filepath.Join(run, "bank.log")); err != nil {
			return nil, err
		}
	}
	freshHeap()
	rs = &restartSample{}
	watch := watchRSS()
	defer watch.stop()
	cpu0, w0 := cpuTime(), wchar()
	t0 := time.Now()
	db, reg, open, mapd, err := openBank(run, traced, ct)
	if err != nil {
		return nil, err
	}
	defer closeInto(db, &err)
	rs.open, rs.mapd = open, mapd
	if id := i64(reg.Data()[acctAt(accounts-1)+16:]); id != accounts-1 {
		return nil, fmt.Errorf("restart: last account record holds account %d", id)
	}
	rs.read = time.Since(t0)
	tx, err := db.Begin(rvm.Restore)
	if err != nil {
		return nil, err
	}
	if err := tx.SetRange(reg, restartWord, 8); err != nil {
		return nil, err
	}
	addI64(reg.Data()[restartWord:], 1)
	if err := tx.Commit(rvm.Flush); err != nil {
		return nil, err
	}
	rs.write = time.Since(t0)
	rs.cpu, rs.wchar = cpuTime()-cpu0, wchar()-w0
	rs.peakRSS = watch.stop()
	rs.lost, rs.checks = verifyBank(reg.Data(), img.acked)
	if traced {
		recoveryLayers(ms, db, float64(mapd.Nanoseconds()))
	}
	return rs, nil
}

func runRestart(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer(1)
	}
	var setups []float64
	var img *restartImage
	for i := 0; i < setupRounds; i++ {
		if img != nil {
			os.RemoveAll(img.dir)
		}
		last := i == setupRounds-1
		tr.setOn(last)
		freshHeap()
		t0 := time.Now()
		var err error
		img, err = buildRestartImage(cfg, filepath.Join(cfg.work, fmt.Sprintf("restart-%d", i)), tr.client(0))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	o := &outcome{opHash: img.opHash}
	ms := metrics{}
	var samples []*restartSample
	start := time.Now()
	limit := time.Duration(cfg.seconds * float64(time.Second))
	for len(samples) < 2 || time.Since(start) < limit {
		ct := tr.client(0)
		ct.beginOp(1<<40 | uint64(len(samples)))
		rs, err := restartOnce(img, filepath.Join(cfg.work, "restart-run"), cfg.negative, cfg.trace, ct, ms)
		if err != nil {
			return nil, err
		}
		ct.endOp()
		samples = append(samples, rs)
		o.attempted++
		o.lost += rs.lost
		o.checks = append(o.checks, rs.checks...)
		if cfg.negative {
			break
		}
	}
	var restart, reads, writes, cpu, wch, peak []float64
	timed := samples
	if len(timed) > 1 {
		// The process's first restart runs on cold code and a cold heap.
		timed = timed[1:]
	}
	for _, s := range timed {
		restart = append(restart, (s.open + s.mapd).Seconds())
		reads = append(reads, float64(s.read.Nanoseconds())/1e3)
		writes = append(writes, float64(s.write.Nanoseconds())/1e3)
		cpu = append(cpu, float64(s.cpu.Microseconds()))
		wch = append(wch, float64(s.wchar))
		peak = append(peak, float64(s.peakRSS))
	}
	user := float64(img.txs * bankUser)
	if !cfg.trace {
		ms.set("ops_per_s", "1/s", float64(img.txs)/fastest(restart))
		ms.set("write_p50_us", "us", fastest(writes))
		ms.set("read_p50_us", "us", fastest(reads))
		ms.set("cpu_us_per_op", "us", fastest(cpu)/float64(img.txs))
		ms.set("restart_s", "s", fastest(restart))
		ms.set("log_bytes_per_user_byte", "B/B", float64(img.logBytes)/user)
		ms.set("io_bytes_per_user_byte", "B/B", median(wch)/user)
		ms.set("peak_rss_mb", "MB", median(peak)/(1<<20))
		ms.set("setup_s", "s", median(setups))
		o.e2e = ms
		return o, nil
	}

	rp, err := replayITree(filepath.Join(img.dir, "bank.log"), cfg.work, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	rp.report(ms)
	traceLayers(ms, tr)
	ms.set("wal.log_bytes_per_op", "B/op", float64(img.logBytes)/float64(img.txs))
	ms.set("write_p99_us", "us", quantile(writes, 0.99))
	ms.set("read_p99_us", "us", quantile(reads, 0.99))
	// Untraced restart for the overhead.
	rs, err := restartOnce(img, filepath.Join(cfg.work, "restart-run"), false, false, nil, nil)
	if err != nil {
		return nil, err
	}
	traced := fastest(restart)
	untraced := (rs.open + rs.mapd).Seconds()
	ms.set("trace.overhead_pct", "%", 100*(traced-untraced)/untraced)
	o.selfTime = tr.selfTime()
	o.traceFile = filepath.Join(cfg.out, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(o.traceFile); err != nil {
		return nil, err
	}
	o.layers = ms
	return o, nil
}

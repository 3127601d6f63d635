package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	rvm "github.com/rvm-go/rvm"
	"github.com/rvm-go/rvm/internal/itree"
	"github.com/rvm-go/rvm/internal/wal"
)

// crashImage copies the store in src to dst as a crash would leave it:
// the log files (the log, its shard siblings and the segment dictionary)
// are copied before the segments, so a truncation racing the copy can
// only make the segments newer than the log, which redo tolerates.  The
// dictionary's absolute paths are rewritten to dst, so recovering the
// image replays into its own segments.
func crashImage(src, dst, logName string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	isLog := func(n string) bool { return strings.HasPrefix(n, logName) }
	sort.SliceStable(entries, func(i, j int) bool { return isLog(entries[i].Name()) && !isLog(entries[j].Name()) })
	for _, e := range entries {
		from, to := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if !strings.HasSuffix(e.Name(), ".segs") {
			if err := copyFile(from, to); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(from)
		if err != nil {
			return err
		}
		data = []byte(strings.ReplaceAll(string(data), src+string(filepath.Separator), dst+string(filepath.Separator)))
		if err := os.WriteFile(to, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	// Synced, so the copy's writeback is over before a timed restart of
	// it begins.
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// syncFiles syncs every file in dir, so the writeback a setup left
// behind is over before timed reopens of the store begin.
func syncFiles(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		f, err := os.OpenFile(filepath.Join(dir, e.Name()), os.O_RDWR, 0)
		if err != nil {
			return err
		}
		err = f.Sync()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// waitQuiet waits until no background truncation is running, so a crash
// image taken next has a settled log head.
func waitQuiet(db *rvm.RVM) {
	for i := 0; i < 30000; i++ {
		sn, err := db.Snapshot()
		if err != nil || !sn.Truncating {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// logAreaOffset is where a log file's record area starts: after the two
// status-block pages.
var logAreaOffset = 2 * int64(rvm.PageSize)

// cutLog zeroes the newest quarter of the live records of the log at
// path, as if the log had been cut short.  Recovery then stops before
// them, and a checker that works must report the acknowledged commits
// they held as lost.  It returns how many records it cut.
func cutLog(path string) (int, error) {
	l, err := wal.Open(path)
	if err != nil {
		return 0, err
	}
	type loc struct{ pos, n int64 }
	var recs []loc
	err = l.ScanForward(func(r *wal.Record) error {
		recs = append(recs, loc{r.Pos, r.Len})
		return nil
	})
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if len(recs) < 4 {
		return 0, fmt.Errorf("cut log: only %d live records", len(recs))
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return 0, err
	}
	cut := recs[len(recs)-len(recs)/4:]
	for _, r := range cut {
		if _, err := f.WriteAt(make([]byte, r.n), logAreaOffset+r.pos); err != nil {
			f.Close()
			return 0, err
		}
	}
	return len(cut), f.Close()
}

// itreeReplay is how the image's redo inserts behaved.
type itreeReplay struct {
	inserts   int
	ns        []float64
	intervals int
}

// stripeShift and stripeOf mirror crash recovery's page-stripe partition
// at GOMAXPROCS workers: records are split at 64 KiB stripe boundaries
// and each stripe goes to one worker's tree per segment.  Replaying
// through the same partition gives each tree the size, and so each
// insert the cost, that recovery's trees see.
const stripeShift = 16

func stripeOf(seg, off uint64, par int) int {
	h := seg*0x9e3779b97f4a7c15 + off>>stripeShift
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return int(h % uint64(par))
}

// replayITree copies the log at path and feeds its records newest-first
// through itree.Insert with the KeepExisting policy, timing every insert.
func replayITree(path, workDir string, par int) (*itreeReplay, error) {
	cp := filepath.Join(workDir, "itree-replay.log")
	if err := copyFile(path, cp); err != nil {
		return nil, err
	}
	defer os.Remove(cp)
	l, err := wal.Open(cp)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	type key struct {
		seg uint64
		w   int
	}
	trees := map[key]*itree.Tree{}
	rp := &itreeReplay{}
	err = l.ScanBackward(func(r *wal.Record) error {
		for _, rg := range r.Ranges {
			off, d := rg.Off, rg.Data
			for len(d) > 0 {
				n := uint64(len(d))
				if end := (off>>stripeShift + 1) << stripeShift; off+n > end {
					n = end - off
				}
				k := key{rg.Seg, stripeOf(rg.Seg, off, par)}
				t := trees[k]
				if t == nil {
					t = &itree.Tree{}
					trees[k] = t
				}
				t0 := time.Now()
				t.Insert(off, d[:n], itree.KeepExisting)
				rp.ns = append(rp.ns, float64(time.Since(t0).Nanoseconds()))
				rp.inserts++
				off += n
				d = d[n:]
			}
		}
		return nil
	})
	for _, t := range trees {
		rp.intervals += t.Len()
	}
	return rp, err
}

func (rp *itreeReplay) report(ms metrics) {
	if rp == nil || rp.inserts == 0 {
		ms.set("itree.insert_ns_per_op", "ns", 0)
		ms.set("itree.insert_p99_us", "us", 0)
		ms.set("itree.intervals_per_insert", "ratio", 0)
		return
	}
	var sum float64
	for _, v := range rp.ns {
		sum += v
	}
	ms.set("itree.insert_ns_per_op", "ns", sum/float64(rp.inserts))
	ms.set("itree.insert_p99_us", "us", quantile(rp.ns, 0.99)/1e3)
	ms.set("itree.intervals_per_insert", "ratio", float64(rp.intervals)/float64(rp.inserts))
}

// recoveryLayers reports what the engine's recovery histograms and
// counters say about one recovering Open.
func recoveryLayers(ms metrics, db *rvm.RVM, mapNs float64) {
	sn, err := db.Snapshot()
	m := sn.Metrics
	if err != nil || m == nil {
		m = &rvm.MetricsSnapshot{}
	}
	st := db.Stats()
	ms.set("recovery.scan_ms", "ms", float64(m.RecoveryScanNs.Sum)/1e6)
	ms.set("recovery.apply_ms", "ms", float64(m.RecoveryApplyNs.Sum)/1e6)
	ms.set("recovery.scanned_mb", "MB", float64(st.RecoveryScanned)/(1<<20))
	if st.RecoveryScanned > 0 {
		ms.set("recovery.applied_per_scanned", "ratio", float64(st.RecoveredBytes)/float64(st.RecoveryScanned))
	} else {
		ms.set("recovery.applied_per_scanned", "ratio", 0)
	}
	ms.set("core.map_ms", "ms", mapNs/1e6)
}

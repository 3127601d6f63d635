package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	rvm "github.com/rvm-go/rvm"
	"github.com/rvm-go/rvm/internal/wal"
)

// The recovery experiment is the regression gate for bounded restart:
// time-to-recover must shrink with RecoveryParallelism (parallel redo),
// and with periodic fuzzy checkpoints the log bytes a restart scans must
// be bounded by the checkpoint interval, independent of total log size.
//
// Each measured cell opens a fresh byte-for-byte copy of a crashed store,
// because recovery consumes its input: a successful replay empties the
// log, so the original crash image is only good for one Open.  Like the
// other real-engine experiments, every cell keeps the best of several
// trials (a slow CI disk can only hurt a trial, never help one).
const (
	recovPayload  = 8 << 10 // bytes modified per committed transaction
	recovTrials   = 3
	recovCkptMB   = 4 // checkpoint every this many MB of build traffic
	recovFlushTxs = 64
)

// recovCell is one (log size, parallelism) restart measurement.
type recovCell struct {
	LogMB       int     `json:"log_mb"`
	Parallelism int     `json:"parallelism"`
	RecoverNs   int64   `json:"recover_ns"`
	RecoveredMB float64 `json:"recovered_mb"`
	MBPerSec    float64 `json:"mb_per_sec"`
	NsPerMB     int64   `json:"ns_per_mb"`
}

// recovCkptCell is one checkpointed-store restart measurement.
type recovCkptCell struct {
	LogMB        int    `json:"log_mb"`
	LiveBytes    int64  `json:"live_bytes"`
	ScannedBytes uint64 `json:"scanned_bytes"`
	RecoverNs    int64  `json:"recover_ns"`
}

type recovReport struct {
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	NumCPU     int             `json:"num_cpu"`
	Timestamp  string          `json:"timestamp"`
	Cells      []recovCell     `json:"cells"`
	Checkpoint []recovCkptCell `json:"checkpoint"`
	Speedup    float64         `json:"speedup"` // parallel vs serial, largest log
	// SerialGrowth is serial ns/MB at the largest log over serial ns/MB
	// at the smallest: 1.0 for a redo linear in the log.
	SerialGrowth float64 `json:"serial_ns_per_mb_growth"`
}

// recoveryBench builds crashed stores at several log sizes, measures
// time-to-recover at parallelism 1 vs N, repeats on checkpointed stores,
// prints the cells, merges a "recovery" key into jsonPath, and enforces
// the thresholds gate.
func recoveryBench(jsonPath, thresholdsPath string, quick bool) error {
	par := 4
	var thr *concThresholds
	if thresholdsPath != "" {
		data, err := os.ReadFile(thresholdsPath)
		if err != nil {
			return err
		}
		thr = &concThresholds{}
		if err := json.Unmarshal(data, thr); err != nil {
			return fmt.Errorf("parse %s: %w", thresholdsPath, err)
		}
		if thr.Recovery.Parallelism == 0 {
			return fmt.Errorf("%s: missing recovery gate", thresholdsPath)
		}
		par = thr.Recovery.Parallelism
	}
	sizes := []int{16, 64}
	ckptSizes := []int{16, 64}
	if quick {
		sizes = []int{4, 16}
		ckptSizes = []int{4, 8}
	}
	report := recovReport{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}

	fmt.Printf("Recovery: parallel redo, best of %d trials\n", recovTrials)
	fmt.Printf("%7s %12s %12s %10s %10s\n", "log", "parallelism", "recover", "MB/s", "ns/MB")
	for _, mb := range sizes {
		dir, err := os.MkdirTemp("", "rvmbench-recov-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if err := recovBuild(dir, mb, 0); err != nil {
			return err
		}
		for _, p := range []int{1, par} {
			cell, err := recovMeasure(dir, mb, p)
			if err != nil {
				return err
			}
			report.Cells = append(report.Cells, cell)
			fmt.Printf("%5dMB %12d %12s %10.1f %10d\n", cell.LogMB, cell.Parallelism,
				time.Duration(cell.RecoverNs), cell.MBPerSec, cell.NsPerMB)
		}
		n := len(report.Cells)
		if serial := report.Cells[n-2].RecoverNs; serial > 0 && report.Cells[n-1].RecoverNs > 0 {
			report.Speedup = float64(serial) / float64(report.Cells[n-1].RecoverNs)
		}
	}
	fmt.Printf("speedup at parallelism %d (largest log): %.2fx\n", par, report.Speedup)
	first, last := report.Cells[0], report.Cells[len(report.Cells)-2]
	if first.NsPerMB > 0 {
		report.SerialGrowth = float64(last.NsPerMB) / float64(first.NsPerMB)
	}
	fmt.Printf("serial ns/MB growth %dMB -> %dMB: %.2fx\n", first.LogMB, last.LogMB, report.SerialGrowth)

	fmt.Printf("\nCheckpointed restart: fuzzy checkpoint every %dMB of commits\n", recovCkptMB)
	fmt.Printf("%7s %12s %14s %12s\n", "log", "live bytes", "scanned bytes", "recover")
	for _, mb := range ckptSizes {
		dir, err := os.MkdirTemp("", "rvmbench-ckpt-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if err := recovBuild(dir, mb, recovCkptMB); err != nil {
			return err
		}
		cell, err := recovMeasureCkpt(dir, mb, par)
		if err != nil {
			return err
		}
		report.Checkpoint = append(report.Checkpoint, cell)
		fmt.Printf("%5dMB %12d %14d %12s\n", cell.LogMB, cell.LiveBytes,
			cell.ScannedBytes, time.Duration(cell.RecoverNs))
	}

	if jsonPath != "" {
		if err := mergeJSONKey(jsonPath, "recovery", report); err != nil {
			return err
		}
		fmt.Printf("merged recovery results into %s\n", jsonPath)
	}
	if thr == nil {
		return nil
	}
	// Every gate is checked and reported, so one failure does not hide
	// the state of the others.
	r := thr.Recovery
	top := report.Cells[len(report.Cells)-1]
	big := report.Checkpoint[len(report.Checkpoint)-1]
	failed := 0
	gate := func(ok bool, format string, args ...any) {
		verdict := "ok"
		if !ok {
			verdict = "FAILED"
			failed++
		}
		fmt.Printf("recovery gate "+verdict+": "+format+"\n", args...)
	}
	gate(report.Speedup >= r.MinSpeedup,
		"parallelism %d recovered %.2fx faster than serial (threshold %.2fx)",
		par, report.Speedup, r.MinSpeedup)
	if r.MaxSerialNsPerMBGrowth > 0 {
		gate(report.SerialGrowth > 0 && report.SerialGrowth <= r.MaxSerialNsPerMBGrowth,
			"serial ns/MB grew %.2fx from the %dMB to the %dMB log (threshold %.2fx)",
			report.SerialGrowth, first.LogMB, last.LogMB, r.MaxSerialNsPerMBGrowth)
	}
	if r.MaxNsPerMB > 0 {
		gate(top.NsPerMB <= r.MaxNsPerMB,
			"%d ns/MB to recover the %dMB log at parallelism %d (threshold %d)",
			top.NsPerMB, top.LogMB, top.Parallelism, r.MaxNsPerMB)
	}
	if r.MaxCkptScanBytes > 0 {
		gate(big.ScannedBytes <= r.MaxCkptScanBytes,
			"checkpointed %dMB restart scanned %d log bytes (threshold %d)",
			big.LogMB, big.ScannedBytes, r.MaxCkptScanBytes)
	}
	if failed > 0 {
		return fmt.Errorf("recovery gate FAILED: %d of the recovery gates failed", failed)
	}
	return nil
}

// recovBuild creates a store in dir, commits about mb MB of modifications,
// and abandons it without Close — a crash image whose live log holds the
// full workload (truncation is disabled).  ckptEveryMB > 0 runs a fuzzy
// checkpoint every that many MB, so the crash image's restart is bounded
// by the suffix behind the last checkpoint instead of the whole log.
func recovBuild(dir string, mb, ckptEveryMB int) error {
	logPath := filepath.Join(dir, "r.log")
	segPath := filepath.Join(dir, "r.seg")
	segLen := int64(mb) << 20
	// Headers, wraps, and checkpoint records ride along with the payload;
	// double capacity keeps the build clear of log-full truncation stalls.
	if err := rvm.CreateLog(logPath, 2*segLen+(1<<20)); err != nil {
		return err
	}
	if err := rvm.CreateSegment(segPath, 1, segLen); err != nil {
		return err
	}
	db, err := rvm.Open(rvm.Options{
		LogPath:           logPath,
		TruncateThreshold: -1,
		SpoolLimit:        64 << 20,
	})
	if err != nil {
		return err
	}
	reg, err := db.Map(segPath, 0, segLen)
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{0xAB}, recovPayload)
	commits := int(segLen) / recovPayload
	ckptEvery := 0
	if ckptEveryMB > 0 {
		ckptEvery = (ckptEveryMB << 20) / recovPayload
	}
	for i := 0; i < commits; i++ {
		tx, err := db.Begin(rvm.NoRestore)
		if err != nil {
			return err
		}
		payload[0], payload[1] = byte(i), byte(i>>8) // distinct per commit
		if err := tx.Modify(reg, int64(i)*recovPayload, payload); err != nil {
			return err
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			return err
		}
		if (i+1)%recovFlushTxs == 0 {
			if err := db.Flush(); err != nil {
				return err
			}
		}
		// Offset the cadence by half an interval so a tail of commits
		// always follows the last checkpoint: the measured restart then
		// scans a realistic half-interval suffix rather than hitting a
		// checkpoint that landed exactly at the crash point.
		if ckptEvery > 0 && (i+1)%ckptEvery == ckptEvery/2 {
			if err := db.Checkpoint(); err != nil {
				return err
			}
		}
	}
	// Force the tail durable, then abandon the handles: no Close means no
	// final truncation, so the next Open replays the log like a restart
	// after a power failure.  The abandoned region stays mapped until the
	// process exits, which bounds the leak by the sum of the built sizes.
	return db.Flush()
}

// recovCopy clones the crash image into a fresh directory, rewriting the
// segment dictionary's paths (recovery must replay into the clone's
// segments, not the original's).  The clone is synced before it is
// returned, so a timed restart does not also pay for writing back the
// harness's own copy (its status-block and segment fsyncs would).
func recovCopy(srcDir string) (string, error) {
	dstDir, err := os.MkdirTemp("", "rvmbench-recov-run-*")
	if err != nil {
		return "", err
	}
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(srcDir, e.Name()))
		if err != nil {
			return "", err
		}
		if strings.HasSuffix(e.Name(), ".segs") {
			data = []byte(strings.ReplaceAll(string(data), srcDir, dstDir))
		}
		if err := writeSynced(filepath.Join(dstDir, e.Name()), data); err != nil {
			return "", err
		}
	}
	return dstDir, nil
}

// writeSynced writes data to a new file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recovOpen clones dir and times a recovering Open at the given
// parallelism (-1 = serial).  It returns the wall time and the engine's
// post-recovery statistics.
func recovOpen(dir string, parallelism int) (int64, rvm.Statistics, error) {
	run, err := recovCopy(dir)
	if err != nil {
		return 0, rvm.Statistics{}, err
	}
	defer os.RemoveAll(run)
	start := time.Now()
	db, err := rvm.Open(rvm.Options{
		LogPath:             filepath.Join(run, "r.log"),
		TruncateThreshold:   -1,
		RecoveryParallelism: parallelism,
	})
	if err != nil {
		return 0, rvm.Statistics{}, err
	}
	ns := time.Since(start).Nanoseconds()
	st := db.Stats()
	err = db.Close()
	return ns, st, err
}

// recovMeasure is the best-of-trials restart time at one parallelism.
func recovMeasure(dir string, mb, parallelism int) (recovCell, error) {
	p := parallelism
	if p <= 1 {
		p = -1 // engine: negative means serial; 0 would mean GOMAXPROCS
	}
	cell := recovCell{LogMB: mb, Parallelism: parallelism}
	for i := 0; i < recovTrials; i++ {
		ns, st, err := recovOpen(dir, p)
		if err != nil {
			return cell, err
		}
		if st.RecoveredBytes == 0 {
			return cell, fmt.Errorf("recovery at parallelism %d replayed nothing", parallelism)
		}
		if cell.RecoverNs == 0 || ns < cell.RecoverNs {
			cell.RecoverNs = ns
			cell.RecoveredMB = float64(st.RecoveredBytes) / (1 << 20)
		}
	}
	secs := float64(cell.RecoverNs) / 1e9
	if secs > 0 {
		cell.MBPerSec = cell.RecoveredMB / secs
	}
	if cell.RecoveredMB > 0 {
		cell.NsPerMB = int64(float64(cell.RecoverNs) / cell.RecoveredMB)
	}
	return cell, nil
}

// recovMeasureCkpt measures one checkpointed crash image: what matters is
// how much log the restart had to scan, which the checkpoint bounds.
func recovMeasureCkpt(dir string, mb, parallelism int) (recovCkptCell, error) {
	cell := recovCkptCell{LogMB: mb}
	for i := 0; i < recovTrials; i++ {
		ns, st, err := recovOpen(dir, parallelism)
		if err != nil {
			return cell, err
		}
		if cell.RecoverNs == 0 || ns < cell.RecoverNs {
			cell.RecoverNs = ns
			cell.ScannedBytes = st.RecoveryScanned
		}
	}
	qi, err := recovLiveBytes(dir)
	if err != nil {
		return cell, err
	}
	cell.LiveBytes = qi
	return cell, nil
}

// recovLiveBytes reports the crash image's live log bytes, read from a
// clone so the image itself stays replayable.
func recovLiveBytes(dir string) (int64, error) {
	run, err := recovCopy(dir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(run)
	l, err := wal.Open(filepath.Join(run, "r.log"))
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Used(), nil
}

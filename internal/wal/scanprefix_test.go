package wal

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// snapshotPrefix collects ScanPrefix's records as deep copies.
func snapshotPrefix(t *testing.T, l *Log, endSeq uint64, chunk int64) ([]*Record, int64, uint64) {
	t.Helper()
	var recs []*Record
	pos, seq, err := l.scanPrefix(endSeq, chunk, func(r *Record) error {
		cp := *r
		cp.Ranges = append([]Range(nil), r.Ranges...)
		for i := range cp.Ranges {
			cp.Ranges[i].Data = append([]byte(nil), r.Ranges[i].Data...)
		}
		recs = append(recs, &cp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, pos, seq
}

func sameRecords(t *testing.T, what string, got, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Pos != w.Pos || g.Len != w.Len || g.Seq != w.Seq || g.TID != w.TID ||
			g.Type != w.Type || g.Flags != w.Flags || g.CkptSeq != w.CkptSeq || len(g.Ranges) != len(w.Ranges) {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, g, w)
		}
		for j := range w.Ranges {
			if g.Ranges[j].Seg != w.Ranges[j].Seg || g.Ranges[j].Off != w.Ranges[j].Off ||
				!bytes.Equal(g.Ranges[j].Data, w.Ranges[j].Data) {
				t.Fatalf("%s: record %d range %d differs", what, i, j)
			}
		}
	}
}

// TestScanPrefixMatchesScanForward checks the chunked reader against the
// locked per-record scan on a log that has wrapped several times and holds
// checkpoint and cross-shard records, at chunk sizes smaller than a
// record, around a record, and larger than the log.
func TestScanPrefixMatchesScanForward(t *testing.T) {
	l, _ := newLog(t, 1<<14)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		var err error
		switch i % 17 {
		case 5:
			_, _, err = l.AppendCheckpoint(uint64(i))
		case 9:
			_, _, _, err = l.AppendPrepare(uint64(i), 0, []Range{mkRange(2, uint64(i), byte(i), 40)})
		case 10:
			_, _, _, err = l.AppendCommitMark(uint64(i - 1))
		default:
			_, _, _, err = l.Append(uint64(i), uint8(i), []Range{
				mkRange(1, uint64(rng.Intn(4096)), byte(i), 1+rng.Intn(600)),
				mkRange(3, uint64(rng.Intn(4096)), byte(i+1), rng.Intn(64)),
			})
		}
		if errors.Is(err, ErrLogFull) {
			// Free the older half of the live log and retry.
			recs := collectForward(t, l)
			mid := recs[len(recs)/2]
			if err := l.SetHead(mid.Pos, mid.Seq); err != nil {
				t.Fatal(err)
			}
			i--
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Wraps == 0 {
		t.Fatal("log never wrapped; the test does not cover the area end")
	}
	want := collectForward(t, l)
	tailPos, tailSeq := l.Tail()
	for _, chunk := range []int64{8, 200, 1 << 10, scanChunk} {
		got, pos, seq := snapshotPrefix(t, l, ^uint64(0), chunk)
		sameRecords(t, "whole log", got, want)
		if pos != tailPos || seq != tailSeq {
			t.Fatalf("chunk %d: stopped at (%d, %d), tail is (%d, %d)", chunk, pos, seq, tailPos, tailSeq)
		}
		// A bound inside the log stops at that record, which is where
		// a head advance past the prefix lands.
		mid := want[len(want)/2]
		got, pos, seq = snapshotPrefix(t, l, mid.Seq, chunk)
		var prefix []*Record
		for _, r := range want {
			if r.Seq < mid.Seq {
				prefix = append(prefix, r)
			}
		}
		sameRecords(t, "bounded prefix", got, prefix)
		if pos != mid.Pos || seq != mid.Seq {
			t.Fatalf("chunk %d: bounded scan stopped at (%d, %d), want (%d, %d)", chunk, pos, seq, mid.Pos, mid.Seq)
		}
	}
	// A bound below the head is an empty prefix ending at the head.
	headPos, headSeq := l.Head()
	got, pos, seq := snapshotPrefix(t, l, headSeq-1, scanChunk)
	if len(got) != 0 || pos != headPos || seq != headSeq {
		t.Fatalf("bound below head: %d records, stopped at (%d, %d), head (%d, %d)", len(got), pos, seq, headPos, headSeq)
	}
}

// TestScanPrefixUnderAppends runs the unlocked scan while another
// goroutine appends at the tail: the scan must deliver exactly
// the records live at its snapshot, intact.
func TestScanPrefixUnderAppends(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 0; i < 60; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*100, byte(i), 300)}); err != nil {
			t.Fatal(err)
		}
	}
	want := collectForward(t, l)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 60; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*100, byte(i), 300)})
			if errors.Is(err, ErrLogFull) {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	tailSeq := want[len(want)-1].Seq + 1
	for round := 0; round < 20; round++ {
		got, _, seq := snapshotPrefix(t, l, tailSeq, 512)
		if seq != tailSeq {
			t.Errorf("round %d: stopped at seq %d, want %d", round, seq, tailSeq)
		}
		sameRecords(t, "prefix under appends", got, want)
	}
	close(stop)
	wg.Wait()
}

// TestScanPrefixHoldsNoLock parks the scan inside its callback, with a
// record being delivered, and requires an Append plus Force on the same
// log to complete meanwhile: the scan holds the log mutex only while it
// snapshots, not across its reads or callbacks.
func TestScanPrefixHoldsNoLock(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 0; i < 20; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*100, byte(i), 300)}); err != nil {
			t.Fatal(err)
		}
	}
	_, tailSeq := l.Tail()
	done := make(chan error, 1)
	delivered := 0
	_, _, err := l.scanPrefix(tailSeq, 512, func(*Record) error {
		delivered++
		if delivered != 3 {
			return nil
		}
		go func() {
			_, _, _, err := l.Append(99, 0, []Range{mkRange(1, 0, 9, 300)})
			if err == nil {
				err = l.Force()
			}
			done <- err
		}()
		select {
		case err := <-done:
			return err
		case <-time.After(10 * time.Second):
			return errors.New("Append+Force blocked while the scan was parked in its callback")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if delivered != 20 {
		t.Fatalf("scan delivered %d records, want the 20 live at its snapshot", delivered)
	}
}

func TestScanPrefixClosedLog(t *testing.T) {
	l, _ := newLog(t, 1<<14)
	if _, _, _, err := l.Append(1, 0, []Range{mkRange(1, 0, 1, 8)}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, _, err := l.ScanPrefix(^uint64(0), func(*Record) error { return nil }); !errors.Is(err, ErrLogClosed) {
		t.Fatalf("ScanPrefix on a closed log: %v, want ErrLogClosed", err)
	}
}

// TestScanPrefixClosedMidScan closes the log while an unlocked scan is
// parked in its callback: the scan must end with ErrLogClosed, the
// logical condition the engine does not treat as a device fault.
func TestScanPrefixClosedMidScan(t *testing.T) {
	l, _ := newLog(t, 1<<16)
	for i := 0; i < 40; i++ {
		if _, _, _, err := l.Append(uint64(i), 0, []Range{mkRange(1, uint64(i)*100, byte(i), 300)}); err != nil {
			t.Fatal(err)
		}
	}
	closed := false
	_, _, err := l.scanPrefix(^uint64(0), 512, func(*Record) error {
		if !closed {
			closed = true
			l.Close()
		}
		return nil
	})
	if !errors.Is(err, ErrLogClosed) {
		t.Fatalf("scan across Close: %v, want ErrLogClosed", err)
	}
}

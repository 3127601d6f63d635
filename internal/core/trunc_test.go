package core

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

func TestEpochTruncateReflectsAndEmptiesLog(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	for i := 0; i < 20; i++ {
		v.commit1(r, int64(i*16), bytes.Repeat([]byte{byte(i + 1)}, 16))
	}
	qi, _ := v.eng.Query(nil)
	if qi.LogUsed == 0 {
		t.Fatal("log empty before truncation")
	}
	if err := v.eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	qi, _ = v.eng.Query(r)
	if qi.LogUsed != 0 {
		t.Fatalf("log not empty after truncate: %d", qi.LogUsed)
	}
	if qi.DirtyPages != 0 || qi.QueuedPages != 0 {
		t.Fatalf("pages not cleaned: %+v", qi)
	}
	if v.eng.Stats().EpochTruncs == 0 {
		t.Fatal("no epoch truncation counted")
	}
	// Data survives a crash with an empty log: it is in the segment now.
	v.reopen(Options{})
	r2 := v.mapWhole()
	for i := 0; i < 20; i++ {
		if r2.Data()[i*16] != byte(i+1) {
			t.Fatalf("byte %d lost after truncation+crash", i*16)
		}
	}
}

func TestIncrementalTruncation(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true})
	r := v.mapWhole()
	for i := 0; i < 10; i++ {
		v.commit1(r, int64(i*8), []byte{byte(i + 1)})
	}
	if err := v.eng.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	st := v.eng.Stats()
	if st.IncrSteps == 0 {
		t.Fatal("no incremental steps taken")
	}
	if st.EpochTruncs != 0 {
		t.Fatal("incremental truncation fell back to epoch unnecessarily")
	}
	qi, _ := v.eng.Query(r)
	if qi.LogUsed != 0 || qi.QueuedPages != 0 || qi.DirtyPages != 0 {
		t.Fatalf("state after incremental truncation: %+v", qi)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	for i := 0; i < 10; i++ {
		if r2.Data()[i*8] != byte(i+1) {
			t.Fatalf("data lost at %d", i*8)
		}
	}
}

func TestIncrementalBlockedByUncommittedRefFallsBackToEpoch(t *testing.T) {
	// An uncommitted set-range pins its page: the queue head cannot be
	// written out (no-undo/redo), so incremental truncation blocks and the
	// engine reverts to epoch truncation (paper §5.1.2).
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true})
	r := v.mapWhole()
	v.commit1(r, 0, []byte("committed")) // dirties page 0, queues it

	hold, _ := v.eng.Begin(Restore)
	if err := hold.SetRange(r, 4, 4); err != nil { // pins page 0
		t.Fatal(err)
	}
	if err := v.eng.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	st := v.eng.Stats()
	if st.EpochTruncs == 0 {
		t.Fatal("blocked incremental truncation did not revert to epoch")
	}
	qi, _ := v.eng.Query(nil)
	if qi.LogUsed != 0 {
		t.Fatalf("log not truncated: %d", qi.LogUsed)
	}
	if err := hold.Commit(Flush); err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:9], []byte("committed")) {
		t.Fatal("data lost through blocked truncation")
	}
}

func TestIncrementalPartialLeavesSuffixLive(t *testing.T) {
	// Truncating to a byte target reclaims only the head of the log; the
	// remaining records must still recover correctly.
	v := newEnv(t, 1<<18, pageBytes(2), Options{Incremental: true})
	r := v.mapWhole()
	// Ten commits to ten different pages... region has 2 pages, so spread
	// across the two pages alternately to create multiple queue entries.
	for i := 0; i < 10; i++ {
		off := int64(i%2)*pageBytes(1) + int64(i*32)
		v.commit1(r, off, bytes.Repeat([]byte{byte(i + 1)}, 8))
	}
	used, _ := v.eng.Query(nil)
	if err := v.eng.TruncateIncremental(float64(used.LogUsed/2) / float64(used.LogSize)); err != nil {
		t.Fatal(err)
	}
	after, _ := v.eng.Query(nil)
	if after.LogUsed >= used.LogUsed {
		t.Fatal("nothing reclaimed")
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	for i := 0; i < 10; i++ {
		off := int64(i%2)*pageBytes(1) + int64(i*32)
		if got := r2.Data()[off : off+8]; !bytes.Equal(got, bytes.Repeat([]byte{byte(i + 1)}, 8)) {
			t.Fatalf("commit %d lost after partial truncation: %v", i, got)
		}
	}
}

func TestLogFullTriggersInlineTruncation(t *testing.T) {
	// A log far smaller than the workload: commits must keep succeeding
	// via inline epoch truncations.
	v := newEnv(t, pageBytes(1), pageBytes(2), Options{})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{0xEE}, 700)
	for i := 0; i < 30; i++ {
		tx, _ := v.eng.Begin(Restore)
		payload[0] = byte(i)
		if err := tx.Modify(r, 0, payload); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(Flush); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	if v.eng.Stats().EpochTruncs == 0 {
		t.Fatal("no inline truncation happened")
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if r2.Data()[0] != 29 {
		t.Fatalf("final committed value lost: %d", r2.Data()[0])
	}
}

func TestAutoTruncation(t *testing.T) {
	v := newEnv(t, pageBytes(2), pageBytes(2), Options{TruncateThreshold: 0.3})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{1}, 400)
	for i := 0; i < 10; i++ {
		tx, _ := v.eng.Begin(Restore)
		tx.Modify(r, int64(i%4)*500, payload)
		if err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
	}
	// Background truncation should bring usage down eventually.
	deadline := time.Now().Add(5 * time.Second)
	for {
		qi, _ := v.eng.Query(nil)
		if float64(qi.LogUsed) <= 0.3*float64(qi.LogSize) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto truncation never caught up: used=%d", qi.LogUsed)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v.eng.Stats().EpochTruncs == 0 {
		t.Fatal("no truncation ran")
	}
}

func TestAutoTruncationIncremental(t *testing.T) {
	v := newEnv(t, pageBytes(2), pageBytes(2), Options{TruncateThreshold: 0.3, Incremental: true})
	r := v.mapWhole()
	payload := bytes.Repeat([]byte{1}, 400)
	for i := 0; i < 10; i++ {
		tx, _ := v.eng.Begin(Restore)
		tx.Modify(r, int64(i%4)*500, payload)
		if err := tx.Commit(Flush); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := v.eng.Stats()
		if st.IncrSteps > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no incremental steps ran in background")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTruncateWithSpooledTransactions(t *testing.T) {
	// Truncation must first flush the spool so committed no-flush changes
	// are not silently reflected-without-logging (or lost).
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	tx, _ := v.eng.Begin(Restore)
	tx.Modify(r, 0, []byte("spooled"))
	tx.Commit(NoFlush)
	if err := v.eng.Truncate(); err != nil {
		t.Fatal(err)
	}
	qi, _ := v.eng.Query(nil)
	if qi.SpoolBytes != 0 {
		t.Fatal("spool survived truncation")
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if !bytes.Equal(r2.Data()[:7], []byte("spooled")) {
		t.Fatal("spooled tx lost through truncation")
	}
}

func TestConcurrentCommitsDuringEpochApply(t *testing.T) {
	// Commits racing a truncation: everything must survive a crash.
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	for i := 0; i < 30; i++ {
		v.commit1(r, int64(i*8), []byte{byte(i + 1)})
	}
	done := make(chan error, 1)
	go func() { done <- v.eng.Truncate() }()
	for i := 30; i < 60; i++ {
		v.commit1(r, int64(i*8), []byte{byte(i + 1)})
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	for i := 0; i < 60; i++ {
		if r2.Data()[i*8] != byte(i+1) {
			t.Fatalf("commit %d lost around concurrent truncation", i)
		}
	}
}

func TestSetOptionsChangesTruncationBehaviour(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	v.eng.SetOptions(0.9, true)
	r := v.mapWhole()
	v.commit1(r, 0, []byte("x"))
	if err := v.eng.TruncateIncremental(0); err != nil {
		t.Fatal(err)
	}
	if v.eng.Stats().IncrSteps == 0 {
		t.Fatal("incremental truncation did not run after SetOptions")
	}
}

// TestEpochCollectHoldsNoPipelineLock pins the epoch's lock scope: once
// collectEpochPipe has published the epoch end and released the shard's
// pipeline lock, the scan and tree build hold nothing a commit needs, so
// a Flush commit on the same shard — re-modifying a page the epoch
// contains — completes while the scan is parked delivering a record.
// Both the epoch's bytes and the overlapping commit must then survive a
// crash.
func TestEpochCollectHoldsNoPipelineLock(t *testing.T) {
	v := newEnv(t, 1<<18, pageBytes(2), Options{})
	r := v.mapWhole()
	for i := 0; i < 20; i++ {
		v.commit1(r, int64(i*8), []byte{byte(i + 1)})
	}
	entered := make(chan struct{})
	release := make(chan struct{})
	var park sync.Once
	v.eng.epochRecordHook = func() {
		park.Do(func() {
			close(entered)
			<-release
		})
	}
	truncDone := make(chan error, 1)
	go func() { truncDone <- v.eng.Truncate() }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("epoch collection never reached the hook")
	}
	commitDone := make(chan error, 1)
	go func() {
		tx, err := v.eng.Begin(Restore)
		if err == nil {
			if err = tx.Modify(r, 0, []byte{0xAB}); err == nil {
				err = tx.Commit(Flush)
			}
		}
		commitDone <- err
	}()
	var commitErr error
	blocked := false
	select {
	case commitErr = <-commitDone:
	case <-time.After(10 * time.Second):
		blocked = true
	}
	close(release)
	if err := <-truncDone; err != nil {
		t.Fatal(err)
	}
	if blocked {
		<-commitDone
		t.Fatal("Commit(Flush) blocked while the epoch scan held no lock")
	}
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	v.reopen(Options{})
	r2 := v.mapWhole()
	if got := r2.Data()[0]; got != 0xAB {
		t.Fatalf("commit made during the epoch scan lost: byte 0 = %#x", got)
	}
	for i := 1; i < 20; i++ {
		if r2.Data()[i*8] != byte(i+1) {
			t.Fatalf("epoch byte %d lost", i*8)
		}
	}
}

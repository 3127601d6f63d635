package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	rvm "github.com/rvm-go/rvm"
	"github.com/rvm-go/rvm/rbtree"
	"github.com/rvm-go/rvm/rds"
	"github.com/rvm-go/rvm/rvmlock"
)

// The examples/kvstore stack: an rvmlock store lock over an rbtree index
// over an rds heap in one rvm segment.
const (
	kvKeys         = 20000
	kvValueSize    = 100
	kvBlockSize    = 4 + kvValueSize // length prefix, value
	kvHeapLen      = 64 << 20
	kvLogSize      = 16 << 20
	kvFlushEvery   = 64 // each client flushes after this many of its own Sets
	kvZipfS        = 1.1
	kvSetPercent   = 10
	kvPreloadBatch = 500
)

// kvStore is an open key-value store plus what its clients know is
// durable.
type kvStore struct {
	seed  int64
	db    *rvm.RVM
	heap  *rds.Heap
	tree  *rbtree.Tree
	locks *rvmlock.Manager
	keys  [][]byte
	cl    []*kvClient
}

type kvClient struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	sets    int
	pending []kvVersion
	durable []uint64 // per key: newest version covered by a completed Flush
}

type kvVersion struct {
	key int32
	ver uint64
}

func kvKey(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }

func kvPaths(dir string) (logPath, segPath string) {
	return filepath.Join(dir, "kv.log"), filepath.Join(dir, "kv.seg")
}

// kvValue fills b with key i's value at version ver: the version, the
// key, then filler derived from both, so a reader can tell a torn or
// misplaced value from a real one.
func kvValue(b []byte, i int, ver uint64) {
	binary.LittleEndian.PutUint32(b, kvValueSize)
	v := b[4:kvBlockSize]
	binary.LittleEndian.PutUint64(v, ver)
	binary.LittleEndian.PutUint64(v[8:], uint64(i))
	f := byte(uint64(i)*31 + ver)
	for j := 16; j < kvValueSize; j++ {
		v[j] = f + byte(j)
	}
}

// kvRead checks the block b holds a value of key i and returns its
// version.
func kvRead(b []byte, i int) (uint64, error) {
	if len(b) < kvBlockSize || binary.LittleEndian.Uint32(b) != kvValueSize {
		return 0, fmt.Errorf("key %d: bad value block", i)
	}
	v := b[4:kvBlockSize]
	ver := binary.LittleEndian.Uint64(v)
	f := byte(uint64(i)*31 + ver)
	if binary.LittleEndian.Uint64(v[8:]) != uint64(i) || v[16] != f+16 || v[kvValueSize-1] != f+kvValueSize-1 {
		return 0, fmt.Errorf("key %d: value belongs elsewhere", i)
	}
	return ver, nil
}

// openKV opens the store in dir with default options and attaches the
// heap and index; the duration is until the data can be read.
func openKV(dir string, withMetrics bool) (*kvStore, *rvm.Region, time.Duration, error) {
	lp, sp := kvPaths(dir)
	t0 := time.Now()
	db, err := rvm.Open(rvm.Options{LogPath: lp, Metrics: withMetrics})
	if err != nil {
		return nil, nil, 0, err
	}
	reg, err := db.Map(sp, 0, kvHeapLen)
	if err != nil {
		return nil, nil, 0, err
	}
	s := &kvStore{db: db, locks: rvmlock.NewManager()}
	if s.heap, err = rds.Attach(db, reg); err != nil {
		return nil, nil, 0, err
	}
	if s.tree, err = rbtree.Open(db, s.heap, s.heap.Root()); err != nil {
		return nil, nil, 0, err
	}
	return s, reg, time.Since(t0), nil
}

// setupKV creates the store, preloads every key at version 1, and closes
// it cleanly.
func setupKV(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lp, sp := kvPaths(dir)
	if err := rvm.CreateLog(lp, kvLogSize); err != nil {
		return err
	}
	if err := rvm.CreateSegment(sp, 1, kvHeapLen); err != nil {
		return err
	}
	db, err := rvm.Open(rvm.Options{LogPath: lp})
	if err != nil {
		return err
	}
	reg, err := db.Map(sp, 0, kvHeapLen)
	if err != nil {
		return err
	}
	s := &kvStore{db: db, locks: rvmlock.NewManager(), keys: kvKeyList()}
	if s.heap, err = rds.Format(db, reg); err != nil {
		return err
	}
	tx, err := db.Begin(rvm.Restore)
	if err != nil {
		return err
	}
	if s.tree, err = rbtree.Create(db, s.heap, tx); err != nil {
		return err
	}
	if err := s.heap.SetRoot(tx, s.tree.Anchor()); err != nil {
		return err
	}
	if err := tx.Commit(rvm.Flush); err != nil {
		return err
	}
	// Preload in large transactions: the index nodes a batch touches are
	// logged once per batch, not once per key.
	for lo := 0; lo < kvKeys; lo += kvPreloadBatch {
		tx, err := db.Begin(rvm.NoRestore)
		if err != nil {
			return err
		}
		for i := lo; i < min(lo+kvPreloadBatch, kvKeys); i++ {
			if _, err := s.write(tx, i, nil); err != nil {
				return err
			}
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			return err
		}
	}
	return db.Close()
}

// reopenKV times clean restarts of the store in dir: Open, Map and
// attaching the heap and index, then Close.
func reopenKV(dir string, n int) ([]float64, error) {
	if err := syncFiles(dir); err != nil {
		return nil, err
	}
	var ts []float64
	for i := 0; i < n; i++ {
		freshHeap()
		s, _, d, err := openKV(dir, false)
		if err != nil {
			return nil, err
		}
		ts = append(ts, d.Seconds())
		if err := s.db.Close(); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

func kvKeyList() [][]byte {
	keys := make([][]byte, kvKeys)
	for i := range keys {
		keys[i] = kvKey(i)
	}
	return keys
}

// put is the kvstore Set: under the exclusive store lock, one Restore
// transaction writes the new value (see write) and commits NoFlush.  It
// returns the version written.
func (s *kvStore) put(i int, ct *clientTrace) (uint64, error) {
	lk := s.locks.Begin()
	t := ct.now()
	err := lk.Acquire("store", rvmlock.Exclusive)
	ct.span(spAcquire, t)
	defer func() {
		t := ct.now()
		lk.Release()
		ct.span(spRelease, t)
	}()
	if err != nil {
		return 0, err
	}
	t = ct.now()
	tx, err := s.db.Begin(rvm.Restore)
	ct.span(spBegin, t)
	if err != nil {
		return 0, err
	}
	ver, err := s.write(tx, i, ct)
	if err != nil {
		tx.Abort()
		return 0, err
	}
	t = ct.now()
	err = tx.Commit(rvm.NoFlush)
	ct.span(spCommitNoFlush, t)
	return ver, err
}

// write frees key i's old value block, allocates and fills a new one at
// the next version, and points the index at it, all inside tx.
func (s *kvStore) write(tx *rvm.Tx, i int, ct *clientTrace) (uint64, error) {
	key := s.keys[i]
	ver := uint64(1)
	t := ct.now()
	old, ok, err := s.tree.Get(key)
	ct.span(spTreeGet, t)
	if err != nil {
		return 0, err
	}
	if ok {
		b, err := s.heap.Bytes(rds.Offset(old))
		if err != nil {
			return 0, err
		}
		v, err := kvRead(b, i)
		if err != nil {
			return 0, err
		}
		ver = v + 1
		t = ct.now()
		err = s.heap.Free(tx, rds.Offset(old))
		ct.span(spFree, t)
		if err != nil {
			return 0, err
		}
	}
	t = ct.now()
	blk, err := s.heap.Alloc(tx, kvBlockSize)
	ct.span(spAlloc, t)
	if err != nil {
		return 0, err
	}
	b, err := s.heap.Bytes(blk)
	if err != nil {
		return 0, err
	}
	t = ct.now()
	err = s.heap.SetRange(tx, blk, 0, kvBlockSize)
	ct.span(spHeapSetRange, t)
	if err != nil {
		return 0, err
	}
	kvValue(b, i, ver)
	t = ct.now()
	_, err = s.tree.Put(tx, key, uint64(blk))
	ct.span(spTreePut, t)
	return ver, err
}

// get is the kvstore Get under the shared store lock.
func (s *kvStore) get(i int, ct *clientTrace) error {
	lk := s.locks.Begin()
	t := ct.now()
	err := lk.Acquire("store", rvmlock.Shared)
	ct.span(spAcquire, t)
	defer func() {
		t := ct.now()
		lk.Release()
		ct.span(spRelease, t)
	}()
	if err != nil {
		return err
	}
	t = ct.now()
	off, ok, err := s.tree.Get(s.keys[i])
	ct.span(spTreeGet, t)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("key %d missing", i)
	}
	b, err := s.heap.Bytes(rds.Offset(off))
	if err != nil {
		return err
	}
	_, err = kvRead(b, i)
	return err
}

// op is one client operation: a Get, or with probability kvSetPercent a
// Set, on a Zipf-drawn key.  After every kvFlushEvery of its own Sets the
// client calls Flush, and that Set's latency includes it.
func (s *kvStore) op(c, k int, ct *clientTrace) opStats {
	cl := s.cl[c]
	i := int(cl.zipf.Uint64())
	isSet := cl.rng.Intn(100) < kvSetPercent
	st := opStats{readNs: -1, writeNs: -1}
	if isSet {
		st.desc = 1<<32 | uint64(i)
	} else {
		st.desc = uint64(i)
	}
	t0 := time.Now()
	if !isSet {
		st.err = s.get(i, ct)
		st.readNs = time.Since(t0).Nanoseconds()
		return st
	}
	ver, err := s.put(i, ct)
	if err == nil {
		cl.pending = append(cl.pending, kvVersion{int32(i), ver})
		if cl.sets++; cl.sets%kvFlushEvery == 0 {
			t := ct.now()
			err = s.db.Flush()
			ct.span(spFlush, t)
			if err == nil {
				for _, p := range cl.pending {
					cl.durable[p.key] = max(cl.durable[p.key], p.ver)
				}
				cl.pending = cl.pending[:0]
			}
		}
	}
	st.err = err
	st.writeNs = time.Since(t0).Nanoseconds()
	st.user = kvValueSize
	return st
}

// kvWorkload adapts the store to the forward-processing loop.
type kvWorkload struct{ *kvStore }

func (w *kvWorkload) logName() string { return "kv.log" }

func (w *kvWorkload) open(dir string, withMetrics bool) (*rvm.RVM, error) {
	s, _, _, err := openKV(dir, withMetrics)
	if err != nil {
		return nil, err
	}
	s.seed = w.seed
	s.keys = kvKeyList()
	for c := 0; c < clients; c++ {
		r := rand.New(rand.NewSource(w.seed*7919 + int64(c)))
		s.cl = append(s.cl, &kvClient{rng: r, zipf: rand.NewZipf(r, kvZipfS, 1, kvKeys-1), durable: make([]uint64, kvKeys)})
	}
	w.kvStore = s
	return s.db, nil
}

// verify recovers the image and checks the index and heap structures, and
// that every key holds at least the version its last completed Flush
// covered.  Each key below that is one lost acknowledged Set.
func (w *kvWorkload) verify(dir string, traced bool, ms metrics) (lost int64, checks []check, err error) {
	lp, sp := kvPaths(dir)
	db, err := rvm.Open(rvm.Options{LogPath: lp, Metrics: traced})
	if err != nil {
		return 0, nil, err
	}
	defer closeInto(db, &err)
	t0 := time.Now()
	reg, err := db.Map(sp, 0, kvHeapLen)
	if err != nil {
		return 0, nil, err
	}
	mapNs := float64(time.Since(t0).Nanoseconds())
	heap, err := rds.Attach(db, reg)
	if err != nil {
		return 0, nil, err
	}
	tree, err := rbtree.Open(db, heap, heap.Root())
	if err != nil {
		return 0, nil, err
	}
	ck := func(name string, err error) {
		c := check{Name: name, OK: err == nil}
		if err != nil {
			c.Detail = err.Error()
		}
		checks = append(checks, c)
	}
	ck("kv.rbtree_check", tree.Check())
	ck("kv.rds_check", heap.Check())
	var bad error
	for i, key := range kvKeyList() {
		var want uint64
		for _, cl := range w.cl {
			want = max(want, cl.durable[i])
		}
		off, ok, err := tree.Get(key)
		var ver uint64
		if err == nil && ok {
			var b []byte
			if b, err = heap.Bytes(rds.Offset(off)); err == nil {
				ver, err = kvRead(b, i)
			}
		}
		if err != nil || !ok || ver < max(want, 1) {
			lost++
			if bad == nil {
				bad = fmt.Errorf("key %d: version %d, flushed %d (%v)", i, ver, want, err)
			}
		}
	}
	c := check{Name: "kv.flushed_versions_present", OK: lost == 0, Detail: fmt.Sprintf("%d lost", lost)}
	if bad != nil {
		c.Detail += ", first: " + bad.Error()
	}
	checks = append(checks, c)
	if traced {
		recoveryLayers(ms, db, mapNs)
	}
	return lost, checks, nil
}

func runKV(cfg config) (*outcome, error) {
	var setups, restarts []float64
	var dir string
	for i := 0; i < setupRounds; i++ {
		dir = filepath.Join(cfg.work, fmt.Sprintf("kv-%d", i))
		freshHeap()
		t0 := time.Now()
		if err := setupKV(dir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r, err := reopenKV(dir, reopenRounds)
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, r...)
		if i < setupRounds-1 {
			os.RemoveAll(dir)
		}
	}
	fresh := func() (string, fwdStore, error) {
		d := filepath.Join(cfg.work, "kv-untraced")
		return d, &kvWorkload{&kvStore{seed: cfg.seed}}, setupKV(d)
	}
	o, err := forwardRun(cfg, dir, &kvWorkload{&kvStore{seed: cfg.seed}}, fresh)
	if err != nil {
		return nil, err
	}
	if o.e2e != nil {
		o.e2e.set("restart_s", "s", fastest(restarts))
		o.e2e.set("setup_s", "s", median(setups))
	}
	return o, nil
}

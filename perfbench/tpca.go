package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	rvm "github.com/rvm-go/rvm"
)

// The TPC-A store of the paper's §7.1.1: one segment holding the account
// array, the audit ring, and a page of per-client teller and branch
// records.
const (
	accounts    = 262144
	acctSize    = 128
	auditSize   = 64
	auditSlots  = 262144
	auditOff    = accounts * acctSize
	metaOff     = auditOff + auditSlots*auditSize
	bankSegLen  = metaOff + 4096
	tellerSize  = 16 // balance, committed transactions
	branchOff   = metaOff + 2048
	restartWord = metaOff + 4000 // written by the first commit after a restart
	acctStripes = 1024
	bankUser    = acctSize + 2*tellerSize + auditSize // bytes one transaction changes
	tpcaLogSize = 8 << 20
)

// bank is a mapped TPC-A store plus what its clients had acknowledged.
type bank struct {
	db     *rvm.RVM
	reg    *rvm.Region
	mu     [acctStripes]sync.Mutex // serializes transactions on one account
	rngs   []*rand.Rand
	acked  [][]bankTx // per client, in commit order
	txMode rvm.TxMode
	commit rvm.CommitMode
}

type bankTx struct {
	account int32
	delta   int32
}

func bankPaths(dir string) (logPath, segPath string) {
	return filepath.Join(dir, "bank.log"), filepath.Join(dir, "bank.seg")
}

// createBank makes the log and segment files.
func createBank(dir string, logSize int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lp, sp := bankPaths(dir)
	if err := rvm.CreateLog(lp, logSize); err != nil {
		return err
	}
	return rvm.CreateSegment(sp, 1, bankSegLen)
}

// openBank opens the store with default options (Metrics only when
// tracing) and maps the whole segment.  It returns how long Open and Map
// took; together they are the time until the data can be read.
func openBank(dir string, withMetrics bool, ct *clientTrace) (db *rvm.RVM, reg *rvm.Region, open, mapd time.Duration, err error) {
	lp, sp := bankPaths(dir)
	t0 := time.Now()
	s := ct.now()
	db, err = rvm.Open(rvm.Options{LogPath: lp, Metrics: withMetrics})
	ct.span(spOpen, s)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	t1 := time.Now()
	s = ct.now()
	reg, err = db.Map(sp, 0, bankSegLen)
	ct.span(spMap, s)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return db, reg, t1.Sub(t0), time.Since(t1), nil
}

func newBank(db *rvm.RVM, reg *rvm.Region, seed int64) *bank {
	b := &bank{db: db, reg: reg, acked: make([][]bankTx, clients), txMode: rvm.Restore, commit: rvm.Flush}
	for c := 0; c < clients; c++ {
		b.rngs = append(b.rngs, rand.New(rand.NewSource(seed*7919+int64(c))))
	}
	return b
}

func acctAt(a int) int64       { return int64(a) * acctSize }
func tellerAt(c int) int64     { return metaOff + int64(c)*tellerSize }
func branchAt(c int) int64     { return branchOff + int64(c)*tellerSize }
func auditAt(c, k int) int64   { return auditOff + int64((k*clients+c)%auditSlots)*auditSize }
func i64(b []byte) int64       { return int64(binary.LittleEndian.Uint64(b)) }
func putI64(b []byte, v int64) { binary.LittleEndian.PutUint64(b, uint64(v)) }
func addI64(b []byte, d int64) { putI64(b, i64(b)+d) }
func auditTag(c, k int) int64  { return int64(k+1)<<8 | int64(c) }
func descOf(a, d int) uint64   { return uint64(a)<<32 | uint64(uint32(d)) }
func (b *bank) data() []byte   { return b.reg.Data() }
func (b *bank) next(c int) (a, d int) {
	r := b.rngs[c]
	return r.Intn(accounts), r.Intn(1999) - 999
}

// op runs client c's k-th TPC-A transaction: update one account, the
// client's teller and branch, and append an audit record.  The read part
// is the account lookup: taking the account's lock and checking that the
// record found is the account asked for.
func (b *bank) op(c, k int, ct *clientTrace) opStats {
	a, d := b.next(c)
	st := opStats{desc: descOf(a, d), user: bankUser}
	m := &b.mu[a%acctStripes]
	t0 := time.Now()
	m.Lock()
	id := i64(b.data()[acctAt(a)+16:])
	t1 := time.Now()
	st.readNs = t1.Sub(t0).Nanoseconds()
	if id != int64(a) {
		st.err = fmt.Errorf("account %d: record holds account %d", a, id)
	} else {
		st.err = b.update(c, k, a, d, ct)
	}
	st.writeNs = time.Since(t1).Nanoseconds()
	m.Unlock()
	if st.err == nil {
		b.acked[c] = append(b.acked[c], bankTx{int32(a), int32(d)})
	}
	return st
}

// update is the transaction proper, Begin through Commit.
func (b *bank) update(c, k, a, d int, ct *clientTrace) error {
	s := ct.now()
	tx, err := b.db.Begin(b.txMode)
	ct.span(spBegin, s)
	if err != nil {
		return err
	}
	mem := b.data()
	ranges := [4][2]int64{{acctAt(a), acctSize}, {tellerAt(c), tellerSize}, {branchAt(c), tellerSize}, {auditAt(c, k), auditSize}}
	for _, r := range ranges {
		s = ct.now()
		err = tx.SetRange(b.reg, r[0], r[1])
		ct.span(spSetRange, s)
		if err != nil {
			if b.txMode == rvm.Restore {
				tx.Abort()
			}
			return err
		}
	}
	acct := mem[acctAt(a):]
	addI64(acct, int64(d))
	putI64(acct[8:], auditTag(c, k))
	addI64(mem[tellerAt(c):], int64(d))
	putI64(mem[tellerAt(c)+8:], int64(k+1))
	addI64(mem[branchAt(c):], int64(d))
	putI64(mem[branchAt(c)+8:], int64(k+1))
	au := mem[auditAt(c, k):]
	putI64(au, auditTag(c, k))
	putI64(au[8:], int64(a))
	putI64(au[16:], int64(d))
	kind := spCommitFlush
	if b.commit == rvm.NoFlush {
		kind = spCommitNoFlush
	}
	s = ct.now()
	err = tx.Commit(b.commit)
	ct.span(kind, s)
	return err
}

// verifyBank checks a recovered TPC-A image against what the clients had
// acknowledged: the account, teller, branch and audit sums agree, and
// every acknowledged transaction's audit record is present.  It returns
// the number of acknowledged transactions the image lost.
func verifyBank(mem []byte, acked [][]bankTx) (lost int64, checks []check) {
	var accts, tellers, branches, audits int64
	for a := 0; a < accounts; a++ {
		accts += i64(mem[acctAt(a):]) - initBalance
	}
	wrapped := false
	for c := range acked {
		tellers += i64(mem[tellerAt(c):])
		branches += i64(mem[branchAt(c):])
		n := int(i64(mem[tellerAt(c)+8:]))
		if n < len(acked[c]) {
			lost += int64(len(acked[c]) - n)
		}
		if n > auditSlots/clients {
			wrapped = true
		}
		for k := max(0, len(acked[c])-auditSlots/clients); k < len(acked[c]); k++ {
			au := mem[auditAt(c, k):]
			t := acked[c][k]
			if k < n && (i64(au) != auditTag(c, k) || i64(au[8:]) != int64(t.account) || i64(au[16:]) != int64(t.delta)) {
				lost++
			}
		}
		for k := 0; k < min(n, auditSlots/clients); k++ {
			audits += i64(mem[auditAt(c, k)+16:])
		}
	}
	sums := accts == tellers && tellers == branches && (wrapped || branches == audits)
	checks = append(checks, check{Name: "bank.sums", OK: sums,
		Detail: fmt.Sprintf("accounts %d tellers %d branches %d audit %d", accts, tellers, branches, audits)})
	checks = append(checks, check{Name: "bank.acked_audit_present", OK: lost == 0, Detail: fmt.Sprintf("%d lost", lost)})
	return lost, checks
}

// initBalance is every account's balance after population.
const initBalance = 1000

// setupBank creates a TPC-A store in dir, populates every account in
// large NoRestore transactions, and closes it cleanly.
func setupBank(dir string, logSize int64) error {
	if err := createBank(dir, logSize); err != nil {
		return err
	}
	db, reg, _, _, err := openBank(dir, false, nil)
	if err != nil {
		return err
	}
	const batch = 4096
	mem := reg.Data()
	for lo := 0; lo < accounts; lo += batch {
		tx, err := db.Begin(rvm.NoRestore)
		if err != nil {
			return err
		}
		if err := tx.SetRange(reg, acctAt(lo), batch*acctSize); err != nil {
			return err
		}
		for a := lo; a < lo+batch; a++ {
			putI64(mem[acctAt(a):], initBalance)
			putI64(mem[acctAt(a)+16:], int64(a))
		}
		if err := tx.Commit(rvm.NoFlush); err != nil {
			return err
		}
	}
	return db.Close()
}

// reopenBank times clean restarts of the store in dir: Open plus Map
// until the data can be read, then Close.
func reopenBank(dir string, n int) ([]float64, error) {
	if err := syncFiles(dir); err != nil {
		return nil, err
	}
	var ts []float64
	for i := 0; i < n; i++ {
		freshHeap()
		db, _, open, mapd, err := openBank(dir, false, nil)
		if err != nil {
			return nil, err
		}
		ts = append(ts, (open + mapd).Seconds())
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	return ts, nil
}

// bankStore adapts a TPC-A store to the forward-processing loop.
type bankStore struct {
	*bank
	seed int64
}

func (s *bankStore) logName() string { return "bank.log" }

func (s *bankStore) open(dir string, withMetrics bool) (*rvm.RVM, error) {
	db, reg, _, _, err := openBank(dir, withMetrics, nil)
	if err != nil {
		return nil, err
	}
	s.bank = newBank(db, reg, s.seed)
	return db, nil
}

func (s *bankStore) verify(dir string, traced bool, ms metrics) (lost int64, checks []check, err error) {
	db, reg, _, mapd, err := openBank(dir, traced, nil)
	if err != nil {
		return 0, nil, err
	}
	defer closeInto(db, &err)
	lost, checks = verifyBank(reg.Data(), s.acked)
	if traced {
		recoveryLayers(ms, db, float64(mapd.Nanoseconds()))
	}
	return lost, checks, nil
}

func runTPCA(cfg config) (*outcome, error) {
	var setups, restarts []float64
	var dir string
	for i := 0; i < setupRounds; i++ {
		dir = filepath.Join(cfg.work, fmt.Sprintf("tpca-%d", i))
		freshHeap()
		t0 := time.Now()
		if err := setupBank(dir, tpcaLogSize); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r, err := reopenBank(dir, reopenRounds)
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, r...)
		if i < setupRounds-1 {
			os.RemoveAll(dir)
		}
	}
	fresh := func() (string, fwdStore, error) {
		d := filepath.Join(cfg.work, "tpca-untraced")
		return d, &bankStore{seed: cfg.seed}, setupBank(d, tpcaLogSize)
	}
	o, err := forwardRun(cfg, dir, &bankStore{seed: cfg.seed}, fresh)
	if err != nil {
		return nil, err
	}
	if o.e2e != nil {
		o.e2e.set("restart_s", "s", fastest(restarts))
		o.e2e.set("setup_s", "s", median(setups))
	}
	return o, nil
}

// setupRounds is how many times a run sets its store up; setup_s is the
// median.  Each round also reopens the store reopenRounds times for the
// clean-restart time.
const (
	setupRounds  = 5
	reopenRounds = 6
)

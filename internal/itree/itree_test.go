package itree

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func fill(b byte, n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return d
}

func treeBytes(t *Tree, lo, hi uint64) []byte {
	out := make([]byte, hi-lo)
	for i := lo; i < hi; i++ {
		if b, ok := t.Get(i); ok {
			out[i-lo] = b
		} else {
			out[i-lo] = 0xEE // sentinel for "uncovered"
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	var tr Tree
	if tr.Len() != 0 || tr.Bytes() != 0 {
		t.Fatalf("empty tree reports Len=%d Bytes=%d", tr.Len(), tr.Bytes())
	}
	if _, ok := tr.Get(0); ok {
		t.Fatal("Get on empty tree succeeded")
	}
	if !tr.Covered(5, 0) {
		t.Fatal("zero-length range must be covered")
	}
	if tr.Covered(5, 1) {
		t.Fatal("empty tree claims coverage")
	}
}

func TestInsertDisjoint(t *testing.T) {
	var tr Tree
	tr.Insert(10, fill('a', 5), OverwriteExisting)
	tr.Insert(30, fill('b', 5), OverwriteExisting)
	tr.CheckInvariants()
	if tr.Len() != 2 || tr.Bytes() != 10 {
		t.Fatalf("got Len=%d Bytes=%d, want 2/10", tr.Len(), tr.Bytes())
	}
	if !tr.Covered(10, 5) || !tr.Covered(30, 5) || tr.Covered(10, 25) {
		t.Fatal("coverage wrong")
	}
}

func TestInsertAdjacentMerges(t *testing.T) {
	var tr Tree
	tr.Insert(10, fill('a', 5), OverwriteExisting)
	tr.Insert(15, fill('b', 5), OverwriteExisting)
	tr.Insert(5, fill('c', 5), OverwriteExisting)
	tr.CheckInvariants()
	if tr.Len() != 1 {
		t.Fatalf("adjacent intervals not merged: Len=%d", tr.Len())
	}
	want := append(append(fill('c', 5), fill('a', 5)...), fill('b', 5)...)
	if got := treeBytes(&tr, 5, 20); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestOverwritePolicy(t *testing.T) {
	var tr Tree
	tr.Insert(10, fill('a', 10), OverwriteExisting)
	tr.Insert(12, fill('b', 3), OverwriteExisting)
	tr.CheckInvariants()
	want := []byte("aabbbaaaaa")
	if got := treeBytes(&tr, 10, 20); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestKeepPolicy(t *testing.T) {
	var tr Tree
	tr.Insert(12, fill('b', 3), KeepExisting)
	tr.Insert(10, fill('a', 10), KeepExisting)
	tr.CheckInvariants()
	// The 'b' bytes were inserted first (they are "newer"), so they win.
	want := []byte("aabbbaaaaa")
	if got := treeBytes(&tr, 10, 20); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	if tr.Len() != 1 {
		t.Fatalf("expected one merged interval, got %d", tr.Len())
	}
}

func TestKeepPolicySpansMultipleIntervals(t *testing.T) {
	var tr Tree
	tr.Insert(0, fill('x', 2), KeepExisting)
	tr.Insert(4, fill('y', 2), KeepExisting)
	tr.Insert(8, fill('z', 2), KeepExisting)
	tr.Insert(0, fill('n', 12), KeepExisting)
	tr.CheckInvariants()
	want := []byte("xxnnyynnzznn")
	if got := treeBytes(&tr, 0, 12); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestOverwriteSpansMultipleIntervals(t *testing.T) {
	var tr Tree
	tr.Insert(0, fill('x', 4), OverwriteExisting)
	tr.Insert(8, fill('y', 4), OverwriteExisting)
	tr.Insert(2, fill('n', 8), OverwriteExisting)
	tr.CheckInvariants()
	want := []byte("xxnnnnnnnnyy")
	if got := treeBytes(&tr, 0, 12); !bytes.Equal(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
	if tr.Len() != 1 {
		t.Fatalf("expected full merge, got %d intervals", tr.Len())
	}
}

func TestInsertEmptyIsNoop(t *testing.T) {
	var tr Tree
	tr.Insert(10, nil, OverwriteExisting)
	tr.Insert(10, []byte{}, KeepExisting)
	if tr.Len() != 0 {
		t.Fatal("empty insert modified the tree")
	}
}

func TestInsertCopiesData(t *testing.T) {
	var tr Tree
	buf := fill('a', 4)
	tr.Insert(0, buf, OverwriteExisting)
	buf[0] = 'z'
	if b, _ := tr.Get(0); b != 'a' {
		t.Fatal("tree aliases caller buffer")
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	var tr Tree
	tr.Insert(20, fill('b', 2), OverwriteExisting)
	tr.Insert(0, fill('a', 2), OverwriteExisting)
	tr.Insert(40, fill('c', 2), OverwriteExisting)
	var offs []uint64
	err := tr.Walk(func(iv Interval) error {
		offs = append(offs, iv.Off)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offs) != 3 || offs[0] != 0 || offs[1] != 20 || offs[2] != 40 {
		t.Fatalf("walk order wrong: %v", offs)
	}
	sentinel := errSentinel{}
	n := 0
	err = tr.Walk(func(iv Interval) error { n++; return sentinel })
	if err != sentinel || n != 1 {
		t.Fatalf("early stop failed: err=%v n=%d", err, n)
	}
}

type errSentinel struct{}

func (errSentinel) Error() string { return "sentinel" }

func TestReset(t *testing.T) {
	var tr Tree
	tr.Insert(0, fill('a', 8), OverwriteExisting)
	tr.Reset()
	if tr.Len() != 0 || tr.Bytes() != 0 {
		t.Fatal("reset did not clear tree")
	}
}

// op is a single randomized insertion for model-based testing.
type op struct {
	Off  uint16
	Len  uint8
	Seed byte
}

// applyModel mirrors the tree semantics on a flat map.
func applyModel(model map[uint64]byte, o op, p Policy) {
	for i := 0; i < int(o.Len); i++ {
		off := uint64(o.Off) + uint64(i)
		_, exists := model[off]
		if p == OverwriteExisting || !exists {
			model[off] = o.Seed + byte(i)
		}
	}
}

func runModelTest(t *testing.T, p Policy) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		var tr Tree
		model := map[uint64]byte{}
		nops := rng.Intn(60)
		for k := 0; k < nops; k++ {
			o := op{Off: uint16(rng.Intn(1 << 10)), Len: uint8(rng.Intn(64)), Seed: byte(rng.Intn(256))}
			data := make([]byte, o.Len)
			for i := range data {
				data[i] = o.Seed + byte(i)
			}
			tr.Insert(uint64(o.Off), data, p)
			applyModel(model, o, p)
			tr.CheckInvariants()
		}
		if got, want := tr.Bytes(), uint64(len(model)); got != want {
			t.Fatalf("trial %d: Bytes=%d model=%d", trial, got, want)
		}
		for off, want := range model {
			got, ok := tr.Get(off)
			if !ok || got != want {
				t.Fatalf("trial %d: off %d got (%d,%v) want %d", trial, off, got, ok, want)
			}
		}
	}
}

func TestModelOverwrite(t *testing.T) { runModelTest(t, OverwriteExisting) }
func TestModelKeep(t *testing.T)      { runModelTest(t, KeepExisting) }

// TestNewestFirstEqualsOldestLast is the recovery-direction equivalence:
// inserting a sequence newest-first with KeepExisting must produce the same
// final bytes as inserting it oldest-first with OverwriteExisting.
func TestNewestFirstEqualsOldestLast(t *testing.T) {
	f := func(ops []op) bool {
		var fwd, rev Tree
		for _, o := range ops { // oldest first
			data := make([]byte, o.Len)
			for i := range data {
				data[i] = o.Seed + byte(i)
			}
			fwd.Insert(uint64(o.Off), data, OverwriteExisting)
		}
		for i := len(ops) - 1; i >= 0; i-- { // newest first
			o := ops[i]
			data := make([]byte, o.Len)
			for j := range data {
				data[j] = o.Seed + byte(j)
			}
			rev.Insert(uint64(o.Off), data, KeepExisting)
		}
		fwd.CheckInvariants()
		rev.CheckInvariants()
		if fwd.Bytes() != rev.Bytes() || fwd.Len() != rev.Len() {
			return false
		}
		return bytes.Equal(treeBytes(&fwd, 0, 1<<10+256), treeBytes(&rev, 0, 1<<10+256))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWalkReconstructs verifies Walk yields intervals whose concatenated
// bytes equal pointwise Gets.
func TestWalkReconstructs(t *testing.T) {
	f := func(ops []op) bool {
		var tr Tree
		for _, o := range ops {
			data := make([]byte, o.Len)
			for i := range data {
				data[i] = o.Seed
			}
			tr.Insert(uint64(o.Off), data, OverwriteExisting)
		}
		ok := true
		prevEnd := uint64(0)
		first := true
		tr.Walk(func(iv Interval) error {
			if !first && iv.Off <= prevEnd {
				ok = false
			}
			first = false
			prevEnd = iv.End()
			for i, b := range iv.Data {
				g, present := tr.Get(iv.Off + uint64(i))
				if !present || g != b {
					ok = false
				}
			}
			return nil
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCoveredPartial(t *testing.T) {
	var tr Tree
	tr.Insert(10, fill('a', 10), OverwriteExisting)
	cases := []struct {
		off, n uint64
		want   bool
	}{
		{10, 10, true}, {10, 1, true}, {19, 1, true},
		{9, 2, false}, {19, 2, false}, {0, 1, false}, {15, 0, true},
	}
	for _, c := range cases {
		if got := tr.Covered(c.off, c.n); got != c.want {
			t.Errorf("Covered(%d,%d)=%v want %v", c.off, c.n, got, c.want)
		}
	}
}

// TestModelMixed mixes both policies in one tree and interleaves queries
// with inserts, checking every step against a byte-map model.  The large
// variant resolves long runs of overlapping inserts between its sparse
// queries.
func TestModelMixed(t *testing.T) {
	for _, c := range []struct {
		name          string
		trials, ops   int
		space, maxLen int
		queryEvery    int
	}{
		{"small", 200, 80, 1 << 10, 64, 1},
		{"large", 4, 1500, 1 << 16, 4 << 10, 97},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for trial := 0; trial < c.trials; trial++ {
				var tr Tree
				model := make([]int, c.space+c.maxLen) // value+1; 0 = uncovered
				for k := 0; k < c.ops; k++ {
					off := rng.Intn(c.space)
					n := rng.Intn(c.maxLen)
					seed := byte(rng.Intn(256))
					p := Policy(rng.Intn(2))
					data := make([]byte, n)
					for i := range data {
						data[i] = seed + byte(i)
						if p == OverwriteExisting || model[off+i] == 0 {
							model[off+i] = int(data[i]) + 1
						}
					}
					tr.Insert(uint64(off), data, p)
					if k%c.queryEvery != 0 {
						continue
					}
					q := uint64(rng.Intn(len(model)))
					b, ok := tr.Get(q)
					if want := model[q]; ok != (want != 0) || (ok && int(b)+1 != want) {
						t.Fatalf("trial %d op %d: Get(%d) = (%d,%v), model %d", trial, k, q, b, ok, want)
					}
					qn := uint64(rng.Intn(16))
					covered := true
					for i := q; i < q+qn && i < uint64(len(model)); i++ {
						covered = covered && model[i] != 0
					}
					if q+qn > uint64(len(model)) {
						covered = false
					}
					if got := tr.Covered(q, qn); got != covered {
						t.Fatalf("trial %d op %d: Covered(%d,%d) = %v, model %v", trial, k, q, qn, got, covered)
					}
					if got, want := tr.Len(), modelRuns(model); got != want {
						t.Fatalf("trial %d op %d: Len = %d, model %d", trial, k, got, want)
					}
				}
				tr.CheckInvariants()
				var bytesWant uint64
				for _, v := range model {
					if v != 0 {
						bytesWant++
					}
				}
				if got := tr.Bytes(); got != bytesWant {
					t.Fatalf("trial %d: Bytes = %d, model %d", trial, got, bytesWant)
				}
				var seen uint64
				err := tr.Walk(func(iv Interval) error {
					for i, b := range iv.Data {
						if want := model[iv.Off+uint64(i)]; int(b)+1 != want {
							return fmt.Errorf("walk byte %d = %d, model %d", iv.Off+uint64(i), b, want)
						}
					}
					seen += uint64(len(iv.Data))
					return nil
				})
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if seen != bytesWant {
					t.Fatalf("trial %d: Walk covered %d bytes, model %d", trial, seen, bytesWant)
				}
			}
		})
	}
}

// modelRuns counts the maximal covered runs of a byte-map model.
func modelRuns(model []int) int {
	runs := 0
	for i, v := range model {
		if v != 0 && (i == 0 || model[i-1] == 0) {
			runs++
		}
	}
	return runs
}

// insertPattern feeds n inserts of one access pattern into tr.
func insertPattern(tr *Tree, pattern string, n int, p Policy, rng *rand.Rand, buf []byte) {
	for i := 0; i < n; i++ {
		switch pattern {
		case "adjacent": // a growing contiguous run, as a sequential log ring writes
			tr.Insert(uint64(i)*128, buf[:128], p)
		case "disjoint": // separated records in ascending order
			tr.Insert(uint64(i)*256, buf[:128], p)
		case "random": // overlapping records over a space a quarter the data
			tr.Insert(uint64(rng.Intn(n*32)), buf[:128], p)
		}
	}
}

// TestInsertComplexity pins the tree's growth rate deterministically, by
// bytes allocated rather than wall time: quadrupling the inserts may grow
// the bytes allocated per insert (inserts plus the final Walk) by at most
// 1.5x.  A tree that copies its intervals or a merged neighbour run on
// every insert grows about 4x here.
func TestInsertComplexity(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation sweep")
	}
	buf := fill('d', 128)
	perInsert := func(pattern string, p Policy, n int) float64 {
		var tr Tree
		rng := rand.New(rand.NewSource(1))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		insertPattern(&tr, pattern, n, p, rng, buf)
		tr.Walk(func(Interval) error { return nil })
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	for _, c := range []struct {
		pattern string
		p       Policy
	}{{"adjacent", KeepExisting}, {"random", OverwriteExisting}} {
		small := perInsert(c.pattern, c.p, 4096)
		large := perInsert(c.pattern, c.p, 16384)
		t.Logf("%s/%s: %.0f B/insert at 4096, %.0f at 16384 (%.2fx)", c.pattern, policyName(c.p), small, large, large/small)
		if large > 1.5*small {
			t.Errorf("%s: bytes allocated per insert grew %.2fx from n=4096 to n=16384 (limit 1.5x)", c.pattern, large/small)
		}
	}
}

// BenchmarkInsert sweeps pattern x policy x size; one op builds a tree of
// n inserts and walks it, and ns/insert is reported.
func BenchmarkInsert(b *testing.B) {
	buf := fill('d', 128)
	for _, pattern := range []string{"adjacent", "disjoint", "random"} {
		for _, p := range []Policy{KeepExisting, OverwriteExisting} {
			for _, n := range []int{1024, 16384} {
				name := fmt.Sprintf("%s/%s/n=%d", pattern, policyName(p), n)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					rng := rand.New(rand.NewSource(1))
					for i := 0; i < b.N; i++ {
						var tr Tree
						insertPattern(&tr, pattern, n, p, rng, buf)
						tr.Walk(func(Interval) error { return nil })
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/insert")
				})
			}
		}
	}
}

func policyName(p Policy) string {
	if p == KeepExisting {
		return "keep"
	}
	return "overwrite"
}

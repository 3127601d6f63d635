package core

import "testing"

// restoreTxAllocBudget is the measured allocation count of one
// Begin(Restore) + 4 disjoint SetRange + Commit(NoFlush) with the
// append-then-resolve old-value tree; the sorted-slice tree it replaced,
// which reallocated its interval slice on every insert, needed 42.
const restoreTxAllocBudget = 38

// TestRestoreTxAllocs pins the allocations of a small restore-mode
// transaction: each SetRange inserts the range's old values into the
// transaction's tree, whose storage must be sized from the bytes actually
// inserted — a fixed per-tree arena would cost every small transaction.
func TestRestoreTxAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	v := newEnv(t, 1<<20, pageBytes(2), Options{TruncateThreshold: -1})
	r := v.mapWhole()
	n := testing.AllocsPerRun(200, func() {
		tx, err := v.eng.Begin(Restore)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 4; i++ {
			if err := tx.SetRange(r, i*256, 64); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(NoFlush); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Begin(Restore) + 4 SetRange + Commit(NoFlush): %.0f allocs", n)
	if n > restoreTxAllocBudget {
		t.Fatalf("restore transaction allocated %.0f times, budget %d", n, restoreTxAllocBudget)
	}
}

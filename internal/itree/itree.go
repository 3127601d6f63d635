// Package itree implements an interval map over byte ranges.
//
// It is the data structure behind RVM's recovery trees: crash recovery scans
// the write-ahead log from tail to head (newest committed transaction first)
// and builds, for each external data segment, the set of latest committed
// bytes for every modified range.  Because the scan runs newest-first, an
// already-covered byte must never be overwritten by an older record; the
// KeepExisting policy encodes exactly that rule.  The OverwriteExisting
// policy supports the equivalent oldest-first replay (epoch truncation and
// restore-mode old values use it).  Both policies may be mixed in one tree:
// the result is always that of applying the inserts one by one.
//
// Inserts are appended, not placed: Insert copies the data into a chunked
// arena and records the piece with a priority that encodes its policy and
// insertion order, so a byte's final value is the covering piece of
// highest priority (the last OverwriteExisting insert, or else the first
// KeepExisting one).  The pending pieces are resolved lazily, by the first
// query after them, with a sort and a priority sweep, and the surviving
// bytes of touching pieces are coalesced into one buffer.  n inserts
// followed by Walk therefore cost O(n log n) time and memory linear in
// the inserted bytes; no insert copies the map or a neighbour's data.
//
// Resolved intervals are kept sorted, non-overlapping, and non-adjacent
// (adjacent ranges are merged), so iterating a finished tree yields the
// minimal set of writes to apply to a segment.
package itree

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Policy selects what happens when an inserted range overlaps bytes that are
// already present in the map.
type Policy int

const (
	// KeepExisting preserves bytes already in the map; the insertion only
	// fills gaps.  Use when inserting newest-first.
	KeepExisting Policy = iota
	// OverwriteExisting replaces overlapped bytes with the new data.  Use
	// when inserting oldest-first.
	OverwriteExisting
)

// Interval is a contiguous run of bytes at Off.  Data always has the exact
// length of the interval.
type Interval struct {
	Off  uint64
	Data []byte
}

// End returns the exclusive upper bound of the interval.
func (iv Interval) End() uint64 { return iv.Off + uint64(len(iv.Data)) }

// piece is one stored range: n bytes at off, held at chunks[chunk][at:].
// Pending pieces carry their insert's priority: OverwriteExisting inserts
// count up from +1 and KeepExisting inserts down from -1, so the covering
// piece with the highest priority holds a byte's value.  Resolved pieces
// have priority 0: every later overwrite beats them and every later keep
// loses to them.  Pieces hold no pointers, so sorting them needs no write
// barriers and the collector never scans them.
type piece struct {
	off   uint64
	prio  int64
	at, n int
	chunk int
}

func (p *piece) end() uint64 { return p.off + uint64(p.n) }

// maxChunk caps an arena chunk; larger inserts get a chunk of their own
// size.
const maxChunk = 1 << 20

// Tree is an ordered map from byte offsets to bytes.  The zero value is an
// empty tree ready for use.  Tree is not safe for concurrent use; its
// queries are not read-only either, since they resolve pending inserts.
type Tree struct {
	base    []piece // resolved: sorted by off, pairwise disjoint and non-adjacent
	pending []piece // inserted since the last resolve, in insertion order
	bytes   uint64  // bytes covered by base
	seq     int64   // insert counter behind the priorities

	chunks [][]byte // piece storage; inserts append to the last chunk
	spare  []piece  // reusable piece buffer for resolve
	heap   []int32  // reusable sweep heap
}

// data returns the bytes a piece holds.
func (t *Tree) data(p *piece) []byte {
	return t.chunks[p.chunk][p.at : p.at+p.n : p.at+p.n]
}

// Len returns the number of maximal intervals in the tree.
func (t *Tree) Len() int {
	t.resolve()
	return len(t.base)
}

// Bytes returns the total number of bytes covered by the tree.
func (t *Tree) Bytes() uint64 {
	t.resolve()
	return t.bytes
}

// search returns the index of the first resolved interval whose end
// exceeds off, i.e. the first one that could contain off.
func (t *Tree) search(off uint64) int {
	return sort.Search(len(t.base), func(i int) bool { return t.base[i].end() > off })
}

// Insert adds data at offset off under the given policy.  The data slice is
// copied; callers may reuse their buffer.  Inserting an empty range is a
// no-op.
func (t *Tree) Insert(off uint64, data []byte, p Policy) {
	if len(data) == 0 {
		return
	}
	if off+uint64(len(data)) < off {
		panic(fmt.Sprintf("itree: range [%d,+%d) overflows uint64", off, len(data)))
	}
	t.seq++
	prio := t.seq
	switch p {
	case OverwriteExisting:
	case KeepExisting:
		prio = -prio
	default:
		panic(fmt.Sprintf("itree: unknown policy %d", int(p)))
	}
	if t.pending == nil {
		t.pending = make([]piece, 0, 4)
	}
	chunk, at := t.store(data)
	t.pending = append(t.pending, piece{off: off, prio: prio, at: at, n: len(data), chunk: chunk})
}

// store copies data into the last chunk and returns where it went.
// Chunks double from twice the first insert up to maxChunk, so a small
// tree allocates in proportion to what it holds.
func (t *Tree) store(data []byte) (chunk, at int) {
	n := len(data)
	last := len(t.chunks) - 1
	if last < 0 || cap(t.chunks[last])-len(t.chunks[last]) < n {
		size := 2 * n
		if last >= 0 {
			size = max(size, 2*cap(t.chunks[last]))
		}
		size = max(min(max(size, 64), maxChunk), n)
		if t.chunks == nil {
			t.chunks = make([][]byte, 0, 4)
		}
		t.chunks = append(t.chunks, make([]byte, 0, size))
		last++
	}
	at = len(t.chunks[last])
	t.chunks[last] = append(t.chunks[last], data...)
	return last, at
}

// resolve brings the tree to its queryable form by folding the pending
// pieces into the resolved map: one sort, one merge with the (already
// sorted) map, and a priority sweep when pieces overlap.  When pieces
// overlap or touch, the surviving bytes are copied into one buffer,
// releasing the overwritten ones and coalescing the map into maximal
// intervals.
func (t *Tree) resolve() {
	if len(t.pending) == 0 {
		return
	}
	slices.SortFunc(t.pending, func(a, b piece) int { return cmp.Compare(a.off, b.off) })
	in := t.spare[:0]
	b, p := t.base, t.pending
	for len(b) > 0 && len(p) > 0 {
		if b[0].off <= p[0].off {
			in, b = append(in, b[0]), b[1:]
		} else {
			in, p = append(in, p[0]), p[1:]
		}
	}
	in = append(append(in, b...), p...)
	free := t.base // its pieces are all in `in` now
	t.pending = t.pending[:0]

	overlap, touch := false, false
	for i := 1; i < len(in); i++ {
		if in[i].off < in[i-1].end() {
			overlap = true
			break
		}
		touch = touch || in[i].off == in[i-1].end()
	}
	if overlap {
		out := t.sweep(in, free[:0])
		in, free = out, in
	}
	if overlap || touch {
		in = t.coalesce(in)
	}
	t.bytes = 0
	for i := range in {
		in[i].prio = 0
		t.bytes += uint64(in[i].n)
	}
	t.base, t.spare = in, free[:0]
}

// sweep resolves sorted, possibly overlapping pieces into disjoint ones,
// appending them to out: at every offset the covering piece of highest
// priority wins.  A max-heap holds the pieces covering the sweep position,
// with expired ones dropped lazily when they surface, so the sweep costs
// O(n log n) for n pieces and emits at most 2n.
func (t *Tree) sweep(in, out []piece) []piece {
	h := t.heap[:0]
	less := func(a, b int32) bool { return in[a].prio > in[b].prio }
	push := func(i int32) {
		h = append(h, i)
		for c := len(h) - 1; c > 0; {
			par := (c - 1) / 2
			if !less(h[c], h[par]) {
				break
			}
			h[c], h[par] = h[par], h[c]
			c = par
		}
	}
	pop := func() {
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for c := 0; ; {
			l, r, m := 2*c+1, 2*c+2, c
			if l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == c {
				break
			}
			h[c], h[m] = h[m], h[c]
			c = m
		}
	}
	var x uint64
	next, last := 0, int32(-1)
	for next < len(in) || len(h) > 0 {
		if len(h) == 0 {
			x = in[next].off
		}
		for next < len(in) && in[next].off <= x {
			push(int32(next))
			next++
		}
		for len(h) > 0 && in[h[0]].end() <= x {
			pop()
		}
		if len(h) == 0 {
			continue
		}
		top := h[0]
		src := &in[top]
		nx := src.end()
		if next < len(in) && in[next].off < nx {
			nx = in[next].off
		}
		if n := len(out); last == top && out[n-1].end() == x {
			out[n-1].n += int(nx - x)
		} else {
			out = append(out, piece{off: x, at: src.at + int(x-src.off), n: int(nx - x), chunk: src.chunk})
		}
		last, x = top, nx
	}
	t.heap = h[:0]
	return out
}

// coalesce copies the bytes of sorted, disjoint pieces into one fresh
// chunk, which replaces all others, and merges touching pieces, in place,
// into maximal intervals.
func (t *Tree) coalesce(pcs []piece) []piece {
	var total int
	for i := range pcs {
		total += pcs[i].n
	}
	buf := make([]byte, total)
	w, at := 0, 0
	for i := range pcs {
		p := pcs[i]
		copy(buf[at:], t.data(&p))
		if w > 0 && pcs[w-1].end() == p.off {
			pcs[w-1].n += p.n
		} else {
			pcs[w] = piece{off: p.off, at: at, n: p.n}
			w++
		}
		at += p.n
	}
	clear(t.chunks)
	t.chunks = append(t.chunks[:0], buf)
	return pcs[:w]
}

// Get reads the byte at off, reporting whether it is covered.
func (t *Tree) Get(off uint64) (byte, bool) {
	t.resolve()
	i := t.search(off)
	if i < len(t.base) && t.base[i].off <= off {
		return t.data(&t.base[i])[off-t.base[i].off], true
	}
	return 0, false
}

// Covered reports whether every byte of [off, off+n) is present.
func (t *Tree) Covered(off, n uint64) bool {
	if n == 0 {
		return true
	}
	t.resolve()
	i := t.search(off)
	return i < len(t.base) && t.base[i].off <= off && t.base[i].end() >= off+n
}

// Walk calls fn for each maximal interval in ascending offset order.  The
// callback must not retain or mutate the data slice, nor modify the tree.
// Walk stops early if fn returns a non-nil error and returns that error.
func (t *Tree) Walk(fn func(iv Interval) error) error {
	t.resolve()
	for i := range t.base {
		if err := fn(Interval{Off: t.base[i].off, Data: t.data(&t.base[i])}); err != nil {
			return err
		}
	}
	return nil
}

// Reset discards all intervals, retaining no storage.
func (t *Tree) Reset() { *t = Tree{} }

// checkInvariants resolves the tree and panics if its structural
// invariants are violated.  It is exported to the package's tests via
// export_test.go.
func (t *Tree) checkInvariants() {
	t.resolve()
	var n uint64
	for i := range t.base {
		iv := &t.base[i]
		if iv.n <= 0 {
			panic(fmt.Sprintf("itree: empty interval at index %d", i))
		}
		if i > 0 && t.base[i-1].end() >= iv.off {
			panic(fmt.Sprintf("itree: intervals %d and %d overlap or touch", i-1, i))
		}
		n += uint64(iv.n)
	}
	if n != t.bytes {
		panic(fmt.Sprintf("itree: byte count %d, intervals hold %d", t.bytes, n))
	}
}

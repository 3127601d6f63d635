package mapping

import "testing"

func TestRoundUp(t *testing.T) {
	ps := int64(PageSize)
	cases := []struct{ in, want int64 }{
		{0, 0}, {1, ps}, {ps, ps}, {ps + 1, 2 * ps}, {3*ps - 1, 3 * ps},
	}
	for _, c := range cases {
		if got := RoundUp(c.in); got != c.want {
			t.Errorf("RoundUp(%d)=%d want %d", c.in, got, c.want)
		}
	}
}

func TestIsAligned(t *testing.T) {
	if !IsAligned(0) || !IsAligned(int64(PageSize)) || IsAligned(int64(PageSize)+1) {
		t.Fatal("IsAligned wrong")
	}
}

func TestMmapBackend(t *testing.T) {
	size := int64(4 * PageSize)
	buf, err := New(size)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Free()
	if buf.Size() != size || int64(len(buf.Data())) != size {
		t.Fatalf("size mismatch: %d", buf.Size())
	}
	if !buf.Aligned() {
		t.Fatal("buffer not page aligned")
	}
	// Must be zeroed and writable end to end.
	d := buf.Data()
	for i, v := range d {
		if v != 0 {
			t.Fatalf("byte %d not zero", i)
		}
	}
	d[0], d[size-1] = 0xAA, 0xBB
	if d[0] != 0xAA || d[size-1] != 0xBB {
		t.Fatal("write-back failed")
	}
	if err := buf.Free(); err != nil {
		t.Fatal(err)
	}
	if err := buf.Free(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestNewRejectsBadSizes(t *testing.T) {
	for _, size := range []int64{0, -1, int64(PageSize) + 1} {
		if _, err := New(size); err == nil {
			t.Errorf("New(%d) succeeded, want error", size)
		}
	}
}

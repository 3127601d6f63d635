// Package mapping provides page-aligned memory buffers for RVM regions.
//
// The original RVM maps regions of external data segments directly into a
// Unix process's virtual address space.  Go's garbage-collected heap cannot
// host persistent C-style pointers, so a region here is a page-aligned
// []byte backed by an anonymous mmap (New) — or, for demand paging, a
// private file mapping (NewFileMapped).  Either way region memory lives
// outside the Go heap exactly like the original's mapped memory: the
// collector never scans it, and it does not count toward the heap goal,
// so a large region does not double the heap the runtime lets grow.
//
// Buffers satisfy RVM's mapping restrictions: region sizes are multiples
// of the page size and buffers are page-aligned, eliminating aliasing
// concerns (paper §4.1).
package mapping

import (
	"fmt"
	"os"
	"syscall"
	"unsafe"
)

// PageSize is the virtual-memory page granularity used for all region
// arithmetic.  It is the OS page size, queried once at startup.
var PageSize = os.Getpagesize()

// RoundUp rounds n up to the next multiple of the page size.
func RoundUp(n int64) int64 {
	ps := int64(PageSize)
	return (n + ps - 1) / ps * ps
}

// IsAligned reports whether n is a multiple of the page size.
func IsAligned(n int64) bool { return n%int64(PageSize) == 0 }

// Buffer is a page-aligned memory buffer backing a mapped region.
type Buffer struct {
	data []byte
}

// New returns a zeroed page-aligned anonymous mapping of exactly size
// bytes.  size must be a positive multiple of the page size.
func New(size int64) (*Buffer, error) {
	if size <= 0 || !IsAligned(size) {
		return nil, fmt.Errorf("mapping: size %d is not a positive multiple of the page size %d", size, PageSize)
	}
	data, err := syscall.Mmap(-1, 0, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping: mmap %d bytes: %w", size, err)
	}
	return &Buffer{data: data}, nil
}

// NewFileMapped returns a copy-on-write mapping of [fileOff, fileOff+size)
// of the file with descriptor fd.  This is the demand-paging variant the
// paper lists as future work ("an optional Mach external pager to copy
// data on demand", §4.1): pages are read from the external data segment
// lazily on first touch, eliminating the en-masse copy at map time, and
// because the mapping is private, application writes go to anonymous
// copy-on-write pages — the segment file is never modified through the
// mapping, preserving RVM's no-undo/redo invariant exactly as the
// anonymous mapping does.
//
// fileOff and size must be page multiples and the file must cover the
// range.
func NewFileMapped(fd uintptr, fileOff, size int64) (*Buffer, error) {
	if size <= 0 || !IsAligned(size) || !IsAligned(fileOff) {
		return nil, fmt.Errorf("mapping: file mapping [%d,+%d) not page aligned", fileOff, size)
	}
	data, err := syscall.Mmap(int(fd), fileOff, int(size),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping: mmap file [%d,+%d): %w", fileOff, size, err)
	}
	return &Buffer{data: data}, nil
}

// Data returns the buffer's bytes.  The slice is valid until Free.
func (b *Buffer) Data() []byte { return b.data }

// Size returns the buffer length in bytes.
func (b *Buffer) Size() int64 { return int64(len(b.data)) }

// Free releases the buffer.  After Free, Data must not be used.  Free is
// idempotent.
func (b *Buffer) Free() error {
	if b.data == nil {
		return nil
	}
	data := b.data
	b.data = nil
	return syscall.Munmap(data)
}

// Aligned reports whether the buffer start is page-aligned.  Mappings are
// aligned by construction; this is exposed for tests.
func (b *Buffer) Aligned() bool {
	if len(b.data) == 0 {
		return true
	}
	return uintptr(unsafe.Pointer(&b.data[0]))%uintptr(PageSize) == 0
}

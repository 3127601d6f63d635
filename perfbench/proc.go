package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// probeFsync times 4 KiB write+fsync pairs on a file in dir, the
// filesystem every store of the run lives on.
func probeFsync(dir string) float64 {
	f, err := os.Create(filepath.Join(dir, "fsync-probe"))
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 32; i++ {
		t0 := time.Now()
		if _, err := f.WriteAt(buf, int64(i%4)*4096); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(us)
}

// stealTicks reads the host's cumulative CPU time stolen from this
// machine by the hypervisor, and the total, from /proc/stat.
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// wchar is the process's cumulative bytes passed to write-type syscalls.
func wchar() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("wchar:")); ok {
			n, _ := strconv.ParseInt(string(bytes.TrimSpace(v)), 10, 64)
			return n
		}
	}
	return 0
}

// rss is the process's resident set size in bytes.
func rss() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseInt(f[1], 10, 64)
	return pages * int64(os.Getpagesize())
}

// rssWatch samples the resident set size every rssEvery until stopped.
type rssWatch struct {
	done chan struct{}
	peak chan int64
	once sync.Once
	p    int64
}

// rssEvery is the sampling period: often enough to follow the heap a
// truncation's garbage grows, rarely enough to take no measurable CPU
// from the work.
const rssEvery = 10 * time.Millisecond

// rssPeak is the quantile of the samples a watch reports as the peak:
// the size the process stayed under for all but 1 % of the time.  The
// single highest sample is one collector cycle's garbage at one instant,
// and whether a window happens to hold one is chance; reporting it made
// the peak jump between two levels 25 % apart from run to run.
const rssPeak = 0.99

func watchRSS() *rssWatch {
	w := &rssWatch{done: make(chan struct{}), peak: make(chan int64)}
	go func() {
		samples := []float64{float64(rss())}
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-w.done:
				w.peak <- int64(quantile(samples, rssPeak))
				return
			case <-t.C:
				samples = append(samples, float64(rss()))
			}
		}
	}()
	return w
}

// stop ends the sampling and returns the peak; it may be called again.
func (w *rssWatch) stop() int64 {
	w.once.Do(func() {
		close(w.done)
		w.p = <-w.peak
	})
	return w.p
}

// freshHeap collects garbage and returns the freed memory to the OS, so
// a timed restart maps its regions into memory it must fault in, as a
// restarted process would.
func freshHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// procSample is the process-wide counters at one instant.
type procSample struct {
	at    time.Time
	cpu   time.Duration
	wchar int64
	alloc uint64
	numGC uint32
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{at: time.Now(), cpu: cpuTime(), wchar: wchar(), alloc: m.TotalAlloc, numGC: m.NumGC}
}

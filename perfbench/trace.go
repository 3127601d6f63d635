package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names one public call the workload makes into a layer.
type spanKind uint8

const (
	spOp spanKind = iota // the client operation itself (benchmark code)
	spAcquire
	spRelease
	spTreeGet
	spTreePut
	spAlloc
	spFree
	spHeapSetRange
	spBegin
	spSetRange
	spCommitFlush
	spCommitNoFlush
	spFlush
	spOpen
	spMap
	numSpanKinds
)

var spanNames = [numSpanKinds]struct{ name, layer string }{
	spOp:            {"op", "bench"},
	spAcquire:       {"rvmlock.Acquire", "rvmlock"},
	spRelease:       {"rvmlock.Release", "rvmlock"},
	spTreeGet:       {"rbtree.Get", "rbtree"},
	spTreePut:       {"rbtree.Put", "rbtree"},
	spAlloc:         {"rds.Alloc", "rds"},
	spFree:          {"rds.Free", "rds"},
	spHeapSetRange:  {"rds.SetRange", "rds"},
	spBegin:         {"rvm.Begin", "core"},
	spSetRange:      {"rvm.SetRange", "core"},
	spCommitFlush:   {"rvm.Commit(Flush)", "core"},
	spCommitNoFlush: {"rvm.Commit(NoFlush)", "core"},
	spFlush:         {"rvm.Flush", "core"},
	spOpen:          {"rvm.Open", "core"},
	spMap:           {"rvm.Map", "core"},
}

var layerOrder = []string{"bench", "rvmlock", "rbtree", "rds", "core"}

// keepSpans bounds the spans retained for the trace file: the most recent
// ones are kept.  Durations of every span still feed the per-layer
// statistics.
const keepSpans = 1 << 16

type span struct {
	kind       spanKind
	op         uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer records spans around the benchmark's calls into each layer.
// Each client owns a clientTrace; only the owner touches it, so nothing
// is locked.  A nil *clientTrace records nothing and reads no clock.
type tracer struct {
	epoch   time.Time
	clients []*clientTrace
	on      atomic.Bool // false outside the measurement window
}

type clientTrace struct {
	t     *tracer
	tid   int
	keep  []span                 // ring of the most recent spans
	kept  int                    // spans ever recorded
	durs  [numSpanKinds][]uint32 // ns, saturating
	total [numSpanKinds]int64    // ns
	op    uint64                 // current op ID
	opT0  time.Time
}

func newTracer(n int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i < n; i++ {
		t.clients = append(t.clients, &clientTrace{t: t, tid: i})
	}
	return t
}

// client returns client i's recorder, or nil when tracing is off.
func (t *tracer) client(i int) *clientTrace {
	if t == nil {
		return nil
	}
	return t.clients[i]
}

// setOn switches recording for every client.
func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (c *clientTrace) recording() bool { return c != nil && c.t.on.Load() }

// now reads the clock only when tracing.
func (c *clientTrace) now() time.Time {
	if !c.recording() {
		return time.Time{}
	}
	return time.Now()
}

// beginOp starts a client operation; its spans share the op ID.
func (c *clientTrace) beginOp(id uint64) {
	if !c.recording() {
		return
	}
	c.op = id
	c.opT0 = time.Now()
}

func (c *clientTrace) endOp() {
	if !c.recording() {
		return
	}
	c.record(spOp, c.opT0, time.Now())
}

// span closes a call of kind k that started at t0.
func (c *clientTrace) span(k spanKind, t0 time.Time) {
	if !c.recording() {
		return
	}
	c.record(k, t0, time.Now())
}

func (c *clientTrace) record(k spanKind, t0, t1 time.Time) {
	if t0.IsZero() {
		return // started before recording was switched on
	}
	d := t1.Sub(t0).Nanoseconds()
	c.total[k] += d
	c.durs[k] = append(c.durs[k], uint32(min(d, 1<<32-1)))
	sp := span{kind: k, op: c.op, start: t0.Sub(c.t.epoch).Nanoseconds(), end: t1.Sub(c.t.epoch).Nanoseconds()}
	if n := keepSpans / len(c.t.clients); len(c.keep) < n {
		c.keep = append(c.keep, sp)
	} else {
		c.keep[c.kept%n] = sp
	}
	c.kept++
}

// durations merges every client's samples of kind k, in ns.
func (t *tracer) durations(k spanKind) []float64 {
	var xs []float64
	for _, c := range t.clients {
		for _, d := range c.durs[k] {
			xs = append(xs, float64(d))
		}
	}
	sort.Float64s(xs)
	return xs
}

// p returns the q-quantile of kind k's span durations in ns (0 if the
// workload never made that call).
func (t *tracer) p(k spanKind, q float64) float64 { return quantile(t.durations(k), q) }

// layerRow is one line of the self-time table.  Spans nest only under
// their op, so a layer's self time is the sum of its spans, and the op's
// own self time (the "bench" row) is what its child spans leave over.
type layerRow struct {
	Layer  string  `json:"layer"`
	Calls  int     `json:"calls"`
	SelfMs float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

func (t *tracer) selfTime() []layerRow {
	calls := map[string]int{}
	ns := map[string]int64{}
	var opNs int64
	for _, c := range t.clients {
		opNs += c.total[spOp]
		for k := spOp + 1; k < numSpanKinds; k++ {
			l := spanNames[k].layer
			calls[l] += len(c.durs[k])
			ns[l] += c.total[k]
		}
		calls["bench"] += len(c.durs[spOp])
	}
	var child int64
	for _, v := range ns {
		child += v
	}
	ns["bench"] = max(opNs-child, 0)
	var rows []layerRow
	for _, l := range layerOrder {
		r := layerRow{Layer: l, Calls: calls[l], SelfMs: float64(ns[l]) / 1e6}
		if opNs > 0 {
			r.Share = float64(ns[l]) / float64(opNs)
		}
		rows = append(rows, r)
	}
	return rows
}

// writeChrome writes the retained spans as Chrome trace_event JSON.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type ev struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]uint64 `json:"args"`
	}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	enc := json.NewEncoder(w)
	first := true
	for _, c := range t.clients {
		for _, s := range c.keep {
			if !first {
				fmt.Fprint(w, ",")
			}
			first = false
			e := ev{Name: spanNames[s.kind].name, Cat: spanNames[s.kind].layer, Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: c.tid,
				Args: map[string]uint64{"op": s.op}}
			if err := enc.Encode(e); err != nil {
				f.Close()
				return err
			}
		}
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

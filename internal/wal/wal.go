// Package wal implements RVM's write-ahead log.
//
// RVM uses a no-undo/redo value logging strategy (paper §5.1.1): because
// uncommitted changes are never reflected to an external data segment, only
// the new-value records of committed transactions are written to the log.
// One log record holds an entire committed transaction — its modification
// ranges followed by the commit trailer — so a record is the atomic unit of
// commitment.  As in the paper's Figure 5, every record carries both a
// forward displacement (totalLen in the header) and a reverse displacement
// (totalLen repeated in the trailer), allowing the log to be read in either
// direction; crash recovery walks it tail-to-head.
//
// On-disk layout:
//
//	offset 0:          status block, copy A (one page)
//	offset PageSize:   status block, copy B (one page)
//	offset 2*PageSize: record area (circular)
//
// The status block records the head of the live region and the sequence
// number expected there.  The tail is never persisted on the commit path:
// Open rediscovers it by scanning forward from the head while records carry
// consecutive sequence numbers and valid CRCs.  This keeps a committing
// transaction at a single fsync, matching the paper's single log force per
// commit (17.4 ms on their disks).
//
// Records never straddle the end of the record area.  When an append would
// cross it, a wrap record pads out the remaining gap; when a record would
// leave a gap too small to hold even a wrap record, the record absorbs the
// gap as padding.  Consequently every header and trailer is contiguous on
// disk, and the backward walk is a pair of contiguous reads per record.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"github.com/rvm-go/rvm/internal/iofault"
	"github.com/rvm-go/rvm/internal/mapping"
	"github.com/rvm-go/rvm/internal/obs"
)

const (
	// statusMagic identifies a log status block.
	statusMagic = 0x52564c53 // "RVLS"
	// recMagic identifies a log record header.
	recMagic = 0x52564c47 // "RVLG"
	// formatVersion is the on-disk format version.
	formatVersion = 1

	headerSize  = 32 // magic, totalLen, type, flags, nranges, seqno, tid
	trailerSize = 16 // seqno, totalLen (reverse displacement), crc
	// minRecordSize is the smallest encodable record (a wrap record).
	minRecordSize = headerSize + trailerSize
	// rangeHdrSize prefixes each modification range: segID, off, len.
	rangeHdrSize = 8 + 8 + 4

	statusSize = 4 + 4 + 8 + 8 + 8 + 8 + 4 // magic, ver, gen, areaSize, head, headSeq, crc
)

// Record types.
const (
	recTx   uint8 = 1 // a committed transaction's new-value records
	recWrap uint8 = 2 // padding to the end of the record area
	recCkpt uint8 = 3 // fuzzy checkpoint: stable LSN, no ranges
	recPrep uint8 = 4 // cross-shard prepare: one shard's ranges of a 2PC commit
	recCmt  uint8 = 5 // cross-shard commit mark: global commit-ID, no ranges
)

// Exported record types, as reported in Record.Type.
const (
	RecTx         = recTx
	RecWrap       = recWrap
	RecCheckpoint = recCkpt
	RecPrepare    = recPrep
	RecCommit     = recCmt
)

var (
	// ErrLogFull is returned by Append when the record does not fit in the
	// free space of the log; the caller should truncate and retry.
	ErrLogFull = errors.New("wal: log full")
	// ErrTooBig is returned when a record can never fit, even in an empty
	// log.
	ErrTooBig = errors.New("wal: record larger than log")
	// ErrNotLog is returned when a file lacks a valid status block.
	ErrNotLog = errors.New("wal: file is not an RVM log")
	// ErrLogClosed is returned by operations on a closed log — reachable
	// when a crash simulation or shutdown closes the device while a
	// background truncation still holds a reference to the log.
	ErrLogClosed = errors.New("wal: log closed")
)

// Device is the storage a Log runs on — the iofault seam shared with the
// segment layer.  *os.File satisfies it; tests inject fault devices that
// tear writes or fail operations to simulate failing disks.
type Device = iofault.Device

// Range is one modification range of a transaction: new values for
// Data bytes at Off within segment Seg.
type Range struct {
	Seg  uint64
	Off  uint64
	Data []byte
}

// Record is a decoded log record.  Checkpoint records carry the stable
// sequence number in CkptSeq and have nil Ranges; scans deliver them so
// tools can display them, but only transaction records modify segments.
type Record struct {
	Pos     int64 // record-area offset of the record's first byte
	Len     int64 // encoded size on disk, header through trailer
	Seq     uint64
	TID     uint64
	Type    uint8
	Flags   uint8
	CkptSeq uint64 // checkpoint records: the stable sequence number
	Ranges  []Range
}

// Stats counts log activity since Open.
type Stats struct {
	Appends       uint64 // transaction records appended
	BytesAppended uint64 // bytes of records appended (incl. wrap/padding)
	Forces        uint64 // fsyncs issued
	Wraps         uint64 // wrap records written
	Checkpoints   uint64 // checkpoint records appended
	Prepares      uint64 // cross-shard prepare records appended
	CommitMarks   uint64 // cross-shard commit marks appended
}

// Log is an open write-ahead log.  All methods are safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	dev      Device
	areaSize int64

	head      int64  // area offset of oldest live byte
	headSeq   uint64 // seqno expected at head
	used      int64  // live bytes (head..tail, circular)
	nextSeq   uint64 // seqno of the next record to append
	gen       uint64 // status block generation
	dirty     bool   // appended bytes not yet forced
	forcedSeq uint64 // highest seqno covered by a completed Force

	noSync      bool
	skippedSync bool // a Force skipped its fsync while noSync was set

	// Head-move claim: SetHead persists the status block with l.mu
	// released (fsync under the log mutex would stall the append path),
	// and the claim serializes concurrent head moves instead.
	headBusy bool
	headCond *sync.Cond // lazily created; signalled when a head move finishes

	stats Stats

	// Observability sinks (nil-safe).  Set once via SetObs before the log
	// is shared; emission happens outside l.mu (enforced by the rvmcheck
	// obsleak analyzer), so handles are snapshotted under the lock and
	// used after release.
	tr  *obs.Tracer
	met *obs.Metrics
}

// SetObs attaches a tracer and metrics registry to the log.  Call it
// before the log is shared between goroutines; nil disables a sink.
func (l *Log) SetObs(tr *obs.Tracer, m *obs.Metrics) {
	l.mu.Lock()
	l.tr, l.met = tr, m
	used := l.used
	l.mu.Unlock()
	m.SetLogLiveBytes(used)
}

// Tracer returns the tracer attached via SetObs (nil when tracing is
// off).  Recovery and truncation record their phase spans through it so
// their timelines land in the same ring as the log's own events.
func (l *Log) Tracer() *obs.Tracer {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tr
}

// Metrics returns the registry attached via SetObs (nil when metrics are
// off).  Recovery observes its phase durations through it.
func (l *Log) Metrics() *obs.Metrics {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.met
}

// align8 rounds n up to a multiple of 8.
func align8(n int64) int64 { return (n + 7) &^ 7 }

// EncodedLen returns the encoded log size of a transaction record carrying
// ranges, excluding any wrap record.  Exposed so the engine can report how
// large a record that will not fit actually is.
func EncodedLen(ranges []Range) int64 { return encodedLen(ranges) }

// encodedLen returns the unpadded encoded length of a transaction record.
func encodedLen(ranges []Range) int64 {
	n := int64(headerSize + trailerSize)
	for _, r := range ranges {
		n += rangeHdrSize + int64(len(r.Data))
	}
	return align8(n)
}

// Create initializes a new log file at path with a record area of at least
// areaSize bytes (rounded up to whole pages).  It fails if path exists.
func Create(path string, areaSize int64) error {
	if areaSize < int64(mapping.PageSize) {
		return fmt.Errorf("wal: area size %d smaller than one page", areaSize)
	}
	areaSize = mapping.RoundUp(areaSize)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create %s: %w", path, err)
	}
	defer f.Close()
	if err := f.Truncate(2*int64(mapping.PageSize) + areaSize); err != nil {
		os.Remove(path)
		return fmt.Errorf("wal: size log: %w", err)
	}
	st := statusBlock{gen: 1, areaSize: areaSize, head: 0, headSeq: 1}
	if err := writeStatus(f, 0, st); err != nil {
		os.Remove(path)
		return err
	}
	if err := writeStatus(f, 1, st); err != nil {
		os.Remove(path)
		return err
	}
	if err := f.Sync(); err != nil {
		os.Remove(path)
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

type statusBlock struct {
	gen      uint64
	areaSize int64
	head     int64
	headSeq  uint64
}

func writeStatus(dev Device, slot int, st statusBlock) error {
	b := make([]byte, statusSize)
	binary.BigEndian.PutUint32(b[0:], statusMagic)
	binary.BigEndian.PutUint32(b[4:], formatVersion)
	binary.BigEndian.PutUint64(b[8:], st.gen)
	binary.BigEndian.PutUint64(b[16:], uint64(st.areaSize))
	binary.BigEndian.PutUint64(b[24:], uint64(st.head))
	binary.BigEndian.PutUint64(b[32:], st.headSeq)
	binary.BigEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
	off := int64(slot) * int64(mapping.PageSize)
	if _, err := dev.WriteAt(b, off); err != nil {
		return fmt.Errorf("wal: write status slot %d: %w", slot, err)
	}
	return nil
}

func readStatus(dev Device, slot int) (statusBlock, bool) {
	b := make([]byte, statusSize)
	off := int64(slot) * int64(mapping.PageSize)
	if _, err := dev.ReadAt(b, off); err != nil {
		return statusBlock{}, false
	}
	if binary.BigEndian.Uint32(b[0:]) != statusMagic ||
		binary.BigEndian.Uint32(b[4:]) != formatVersion ||
		crc32.ChecksumIEEE(b[:40]) != binary.BigEndian.Uint32(b[40:]) {
		return statusBlock{}, false
	}
	return statusBlock{
		gen:      binary.BigEndian.Uint64(b[8:]),
		areaSize: int64(binary.BigEndian.Uint64(b[16:])),
		head:     int64(binary.BigEndian.Uint64(b[24:])),
		headSeq:  binary.BigEndian.Uint64(b[32:]),
	}, true
}

// Open opens the log at path, validating the status block and rediscovering
// the tail by a forward scan.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l, err := OpenDevice(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenDevice opens a log on an arbitrary device (used by tests to inject
// faults).
func OpenDevice(dev Device) (*Log, error) {
	a, okA := readStatus(dev, 0)
	b, okB := readStatus(dev, 1)
	var st statusBlock
	switch {
	case okA && okB:
		st = a
		if b.gen > a.gen {
			st = b
		}
	case okA:
		st = a
	case okB:
		st = b
	default:
		return nil, ErrNotLog
	}
	l := &Log{
		dev:      dev,
		areaSize: st.areaSize,
		head:     st.head,
		headSeq:  st.headSeq,
		gen:      st.gen,
	}
	if err := l.findTail(); err != nil {
		return nil, err
	}
	// Everything discovered in the log is already on the device, so the
	// forced-through sequence number starts at the last live record.
	l.forcedSeq = l.nextSeq - 1
	return l, nil
}

// areaOff converts a record-area offset into a device offset.
func areaOff(pos int64) int64 { return 2*int64(mapping.PageSize) + pos }

// readRecord reads the n-byte record at area offset pos with one
// positional read and validates it as record seq.  It returns nil when the
// bytes there are not that record.  It touches only the device (whose
// ReadAt is positional and concurrency-safe), so recovery workers call it
// concurrently without the log mutex.  The record's range data aliases a
// buffer of its own.
func readRecord(dev Device, pos, n int64, seq uint64) (*Record, error) {
	buf := make([]byte, n)
	if _, err := dev.ReadAt(buf, areaOff(pos)); err != nil {
		return nil, fmt.Errorf("wal: read record at %d: %w", pos, err)
	}
	rec := new(Record)
	if recordLen(buf, n) != n || !decodeRecord(rec, buf, pos, seq) {
		return nil, nil
	}
	return rec, nil
}

// recordLen checks the header at the start of hdr and returns the length
// of the record it announces, or 0 when the bytes are not a plausible
// record header fitting in room bytes.
func recordLen(hdr []byte, room int64) int64 {
	if binary.BigEndian.Uint32(hdr[0:]) != recMagic {
		return 0
	}
	totalLen := int64(binary.BigEndian.Uint32(hdr[4:]))
	if totalLen < minRecordSize || totalLen%8 != 0 || totalLen > room {
		return 0
	}
	return totalLen
}

// decodeRecord validates the record that exactly fills buf (read from area
// offset pos) and decodes it into rec, reusing rec's Ranges capacity.
// Range data aliases buf.  wantSeq 0 accepts any sequence number.  It
// reports false when the bytes are not a valid record.
func decodeRecord(rec *Record, buf []byte, pos int64, wantSeq uint64) bool {
	totalLen := int64(len(buf))
	if crc32.ChecksumIEEE(buf[:totalLen-4]) != binary.BigEndian.Uint32(buf[totalLen-4:]) {
		return false
	}
	seq := binary.BigEndian.Uint64(buf[16:])
	if seq != wantSeq && wantSeq != 0 {
		return false
	}
	if binary.BigEndian.Uint64(buf[totalLen-trailerSize:]) != seq {
		return false
	}
	if int64(binary.BigEndian.Uint32(buf[totalLen-8:])) != totalLen {
		return false
	}
	typ := buf[8]
	*rec = Record{
		Pos:    pos,
		Len:    totalLen,
		Seq:    seq,
		TID:    binary.BigEndian.Uint64(buf[24:]),
		Type:   typ,
		Flags:  buf[9],
		Ranges: rec.Ranges[:0],
	}
	nranges := binary.BigEndian.Uint32(buf[12:])
	switch typ {
	case recWrap, recCmt:
		// A wrap pads the area end; a commit mark's global commit-ID
		// rides in the TID slot — its presence is the commit point.
		return nranges == 0
	case recCkpt:
		// The stable sequence number rides in the TID header slot.
		rec.CkptSeq, rec.TID = rec.TID, 0
		return nranges == 0
	case recTx, recPrep:
	default:
		return false
	}
	p := int64(headerSize)
	if rec.Ranges == nil {
		rec.Ranges = make([]Range, 0, nranges)
	}
	for i := uint32(0); i < nranges; i++ {
		if p+rangeHdrSize > totalLen-trailerSize {
			return false
		}
		r := Range{
			Seg: binary.BigEndian.Uint64(buf[p:]),
			Off: binary.BigEndian.Uint64(buf[p+8:]),
		}
		n := int64(binary.BigEndian.Uint32(buf[p+16:]))
		p += rangeHdrSize
		if p+n > totalLen-trailerSize {
			return false
		}
		r.Data = buf[p : p+n : p+n]
		p += n
		rec.Ranges = append(rec.Ranges, r)
	}
	return true
}

// findTail scans forward from head to locate the end of the live region.
func (l *Log) findTail() error {
	sc := recordScanner{dev: l.dev, areaSize: l.areaSize, chunk: scanChunk}
	pos := l.head
	seq := l.headSeq
	var used int64
	for used < l.areaSize {
		rec, err := sc.next(pos, seq, l.areaSize-pos)
		if err != nil {
			return err
		}
		if rec == nil {
			break
		}
		used += rec.Len
		seq++
		pos += rec.Len
		if pos == l.areaSize {
			pos = 0
		}
	}
	l.used = used
	l.nextSeq = seq
	return nil
}

// recordScanner decodes consecutive records of the record area from large
// sequential reads: one pread per chunk instead of two per record.
type recordScanner struct {
	dev      Device
	areaSize int64
	chunk    int64
	buf      []byte
	bufPos   int64 // area offset of buf[0]
	rec      Record
}

// next decodes the record at area offset pos, expected to carry seq and to
// fit in the room bytes that follow pos.  It returns nil when the bytes
// there are not such a record (a torn write or stale data).  The record
// and its range data are reused by the following call.
func (s *recordScanner) next(pos int64, seq uint64, room int64) (*Record, error) {
	room = min(room, s.areaSize-pos)
	if room < minRecordSize {
		return nil, nil
	}
	if err := s.fill(pos, headerSize, room); err != nil {
		return nil, err
	}
	n := recordLen(s.buf[pos-s.bufPos:], room)
	if n == 0 {
		return nil, nil
	}
	if err := s.fill(pos, n, room); err != nil {
		return nil, err
	}
	if !decodeRecord(&s.rec, s.buf[pos-s.bufPos:pos-s.bufPos+n], pos, seq) {
		return nil, nil
	}
	return &s.rec, nil
}

// fill makes [pos, pos+n) readable from buf, reading at least a chunk but
// never more than room bytes.  A chunk cut short by the end of the device
// is fine as long as it holds the n bytes asked for.
func (s *recordScanner) fill(pos, n, room int64) error {
	if pos >= s.bufPos && pos+n <= s.bufPos+int64(len(s.buf)) {
		return nil
	}
	size := min(max(n, s.chunk), room)
	if int64(cap(s.buf)) < size {
		s.buf = make([]byte, size)
	}
	got, err := s.dev.ReadAt(s.buf[:size], areaOff(pos))
	if err != nil && !(errors.Is(err, io.EOF) && int64(got) >= n) {
		s.buf = s.buf[:0]
		if errors.Is(err, os.ErrClosed) {
			// Closed under an unlocked scan (ScanPrefix): the same
			// logical condition a locked scan reports up front.
			err = ErrLogClosed
		}
		return fmt.Errorf("wal: read at %d: %w", pos, err)
	}
	s.buf, s.bufPos = s.buf[:got], pos
	return nil
}

// tailPos returns the current append position.
func (l *Log) tailPos() int64 { return (l.head + l.used) % l.areaSize }

// Append writes one committed transaction's new-value records at the tail.
// The write reaches the OS but is not forced; call Force for durability.
// It returns the record's area position, its sequence number, and the total
// bytes consumed (including any wrap record).
func (l *Log) Append(tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	return l.appendTimed(recTx, tid, flags, ranges)
}

// AppendPrepare writes the prepare half of a cross-shard commit: this
// shard's modification ranges for transaction tid.  A prepare is inert
// until a commit mark carrying the same tid exists — recovery discards
// prepares whose tid is confirmed by no shard's commit mark.
func (l *Log) AppendPrepare(tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	return l.appendTimed(recPrep, tid, flags, ranges)
}

// AppendCommitMark writes the commit point of a cross-shard transaction:
// a record carrying the global commit-ID and no ranges.  The engine
// appends one to every participating shard after all prepares are
// durable, so any surviving prepare finds a commit mark in its own log
// or in a peer's.
func (l *Log) AppendCommitMark(tid uint64) (pos int64, seq uint64, nbytes int64, err error) {
	return l.appendTimed(recCmt, tid, 0, nil)
}

// appendTimed is the locked append shared by the commit-path record
// types, with lock-contention accounting.
func (l *Log) appendTimed(typ uint8, tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	// The pre-lock read of l.met is safe under the SetObs contract (set
	// once before the log is shared).  The uncontended path costs one
	// TryLock instead of one Lock; the contended path adds two clock reads.
	if m := l.met; m == nil {
		l.mu.Lock()
	} else if l.mu.TryLock() {
		m.LockAcquired(obs.LockWAL)
	} else {
		wt := time.Now()
		l.mu.Lock()
		m.LockContended(obs.LockWAL, time.Since(wt).Nanoseconds())
	}
	pos, seq, nbytes, err = l.appendLocked(typ, tid, flags, ranges)
	used := l.used
	tr, met := l.tr, l.met
	l.mu.Unlock()
	if err == nil {
		met.SetLogLiveBytes(used)
		tr.Record(obs.EvLogAppend, tid, uint64(nbytes), seq)
	}
	return pos, seq, nbytes, err
}

// AppendCheckpoint writes a checkpoint record carrying the stable sequence
// number: every record with Seq < stable is fully reflected in its segment,
// so a later recovery may end its backward scan once it passes stable.  The
// record is not forced; callers force it like any commit.  The pages it
// covers must be durable in their segments before this is called.
func (l *Log) AppendCheckpoint(stable uint64) (pos int64, seq uint64, err error) {
	l.mu.Lock()
	var nbytes int64
	pos, seq, nbytes, err = l.appendLocked(recCkpt, stable, 0, nil)
	used := l.used
	tr, met := l.tr, l.met
	l.mu.Unlock()
	if err == nil {
		met.SetLogLiveBytes(used)
		tr.Record(obs.EvLogAppend, 0, uint64(nbytes), seq)
	}
	return pos, seq, err
}

func (l *Log) appendLocked(typ uint8, tid uint64, flags uint8, ranges []Range) (pos int64, seq uint64, nbytes int64, err error) {
	if l.dev == nil {
		return 0, 0, 0, ErrLogClosed
	}

	need := encodedLen(ranges)
	if need > l.areaSize {
		return 0, 0, 0, fmt.Errorf("%w: need %d, area %d", ErrTooBig, need, l.areaSize)
	}

	total := need
	at := l.tailPos()
	gap := l.areaSize - at
	wrap := false
	if need > gap {
		wrap = true
		total += gap
	} else if rem := gap - need; rem > 0 && rem < minRecordSize {
		// Absorb a runt gap as padding so the area end stays walkable.
		need += rem
		total = need
	}
	if l.used+total > l.areaSize {
		return 0, 0, 0, fmt.Errorf("%w: need %d, free %d", ErrLogFull, total, l.areaSize-l.used)
	}

	if wrap {
		if err := l.writeRecord(at, recWrap, 0, 0, nil, gap); err != nil {
			return 0, 0, 0, err
		}
		l.used += gap
		l.stats.Wraps++
		l.stats.BytesAppended += uint64(gap)
		at = 0
	}
	if err := l.writeRecord(at, typ, tid, flags, ranges, need); err != nil {
		return 0, 0, 0, err
	}
	seq = l.nextSeq - 1
	l.used += need
	l.dirty = true
	switch typ {
	case recCkpt:
		l.stats.Checkpoints++
	case recPrep:
		l.stats.Prepares++
	case recCmt:
		l.stats.CommitMarks++
	default:
		l.stats.Appends++
	}
	l.stats.BytesAppended += uint64(need)
	return at, seq, total, nil
}

// encBuf is writeRecord's pooled encoding scratch: the record metadata
// (header, per-range headers, padding, trailer), the chunk list ordering
// metadata and caller range data for the device write, and the gather
// buffer for devices without a vectored-write path.
type encBuf struct {
	meta   []byte
	chunks [][]byte
	gather []byte
}

// encBufMaxRetain bounds the backing arrays a pooled encBuf may keep: a
// one-off giant record (or a huge wrap gap) should not pin megabytes in
// the pool forever.
const encBufMaxRetain = 1 << 20

var encPool = sync.Pool{New: func() any { return new(encBuf) }}

func (eb *encBuf) release() {
	for i := range eb.chunks {
		eb.chunks[i] = nil // do not pin caller range data across reuses
	}
	eb.chunks = eb.chunks[:0]
	if cap(eb.meta) > encBufMaxRetain {
		eb.meta = nil
	}
	if cap(eb.gather) > encBufMaxRetain {
		eb.gather = nil
	}
	encPool.Put(eb)
}

// writeRecord encodes and writes one record of totalLen bytes at area
// offset pos, consuming the next sequence number.  Encoding is zero-copy:
// the fixed parts are laid out in a pooled scratch buffer, the caller's
// range data is referenced in place (never copied into an intermediate
// record buffer), the CRC streams across the pieces, and the record
// reaches the device as one vectored write (pwritev on an *os.File) or
// one gathered WriteAt elsewhere.  Callers guarantee the range data is
// stable for the duration of the call — the engine holds the owning
// region locks across the append.
func (l *Log) writeRecord(pos int64, typ uint8, tid uint64, flags uint8, ranges []Range, totalLen int64) error {
	eb := encPool.Get().(*encBuf)
	defer eb.release()

	var dataLen int64
	for _, r := range ranges {
		dataLen += int64(len(r.Data))
	}
	metaLen := int(totalLen - dataLen) // header + range headers + padding + trailer
	if cap(eb.meta) < metaLen {
		eb.meta = make([]byte, metaLen)
	}
	meta := eb.meta[:metaLen]
	chunks := eb.chunks[:0]

	hdr := meta[:headerSize]
	binary.BigEndian.PutUint32(hdr[0:], recMagic)
	binary.BigEndian.PutUint32(hdr[4:], uint32(totalLen))
	hdr[8] = typ
	hdr[9] = flags
	hdr[10], hdr[11] = 0, 0
	binary.BigEndian.PutUint32(hdr[12:], uint32(len(ranges)))
	seq := l.nextSeq
	binary.BigEndian.PutUint64(hdr[16:], seq)
	binary.BigEndian.PutUint64(hdr[24:], tid)
	chunks = append(chunks, hdr)
	mp := headerSize
	for _, r := range ranges {
		rh := meta[mp : mp+rangeHdrSize]
		binary.BigEndian.PutUint64(rh[0:], r.Seg)
		binary.BigEndian.PutUint64(rh[8:], r.Off)
		binary.BigEndian.PutUint32(rh[16:], uint32(len(r.Data)))
		mp += rangeHdrSize
		chunks = append(chunks, rh, r.Data)
	}
	// Padding (runt-gap absorption, alignment, wrap gaps) plus trailer
	// fill the rest of the scratch buffer; pooled bytes are stale, so the
	// padding is re-zeroed each use to keep records byte-reproducible.
	tail := meta[mp:]
	pad := tail[:len(tail)-trailerSize]
	for i := range pad {
		pad[i] = 0
	}
	trailer := tail[len(tail)-trailerSize:]
	binary.BigEndian.PutUint64(trailer[0:], seq)
	binary.BigEndian.PutUint32(trailer[8:], uint32(totalLen))
	chunks = append(chunks, tail)
	eb.chunks = chunks

	// Streaming CRC over every byte that precedes the crc field itself.
	var crc uint32
	for _, c := range chunks[:len(chunks)-1] {
		crc = crc32.Update(crc, crc32.IEEETable, c)
	}
	crc = crc32.Update(crc, crc32.IEEETable, tail[:len(tail)-4])
	binary.BigEndian.PutUint32(trailer[trailerSize-4:], crc)

	if err := l.writeChunks(eb, chunks, areaOff(pos)); err != nil {
		return fmt.Errorf("wal: append at %d: %w", pos, err)
	}
	l.nextSeq = seq + 1
	l.dirty = true
	return nil
}

// writeChunks lands the record's chunks contiguously at the device offset.
// A plain *os.File takes the vectored path where the platform has one;
// wrapped devices (fault injectors, test doubles) get a single gathered
// WriteAt so their tear/fault semantics keep seeing whole records.
func (l *Log) writeChunks(eb *encBuf, chunks [][]byte, off int64) error {
	if f, ok := l.dev.(*os.File); ok && haveWritev {
		return writevAt(f, chunks, off)
	}
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	if cap(eb.gather) < n {
		eb.gather = make([]byte, 0, n)
	}
	g := eb.gather[:0]
	for _, c := range chunks {
		g = append(g, c...)
	}
	eb.gather = g
	_, err := l.dev.WriteAt(g, off)
	return err
}

// Force makes all appended records durable (fsync).  It is a no-op when
// nothing was appended since the last Force.
//
// The log mutex is NOT held across the fsync: the sequence number to cover
// is snapshotted under the lock, the device is synced unlocked, and the
// forced-through sequence number is advanced afterwards — only to the
// snapshot, never past it, so records appended while the fsync was in
// flight stay unforced (and the log stays dirty) until a later Force.
// This lets committers keep appending behind an in-flight group force.
// Concurrent Force calls are safe; each advances ForcedThrough to at least
// its own snapshot.
func (l *Log) Force() error {
	l.mu.Lock()
	if l.dev == nil {
		l.mu.Unlock()
		return ErrLogClosed
	}
	if !l.dirty {
		l.mu.Unlock()
		return nil
	}
	coverSeq := l.nextSeq - 1
	prevForced := l.forcedSeq
	dev := l.dev
	sync := !l.noSync
	if !sync {
		// The fsync is being skipped: remember that, so a later
		// SetNoSync(false) can re-dirty the log and the next Force issues
		// a real fsync covering these bytes.
		l.skippedSync = true
	}
	tr, met := l.tr, l.met
	l.mu.Unlock()
	start := tr.Now()
	t0 := time.Now()
	if sync {
		// Bracket the fsync with the force stall gate: a device that
		// wedges here is exactly what the engine's watchdog exists to
		// flag, and the hung goroutine cannot report itself.
		met.OpEnter(obs.StallForce)
		err := dev.Sync()
		met.OpExit(obs.StallForce)
		if err != nil {
			return fmt.Errorf("wal: force: %w", err)
		}
	}
	dur := time.Since(t0).Nanoseconds()
	l.mu.Lock()
	if coverSeq > l.forcedSeq {
		l.forcedSeq = coverSeq
	}
	if l.nextSeq-1 == coverSeq {
		// Nothing appended during the fsync window: the log is clean.
		l.dirty = false
	}
	l.stats.Forces++
	l.mu.Unlock()
	var batch uint64
	if coverSeq > prevForced {
		batch = coverSeq - prevForced
	}
	tr.Span(obs.EvLogForce, start, 0, batch, coverSeq)
	met.ObserveForce(dur, batch)
	return nil
}

// ForcedThrough returns the highest sequence number known durable: every
// record with Seq <= ForcedThrough() was covered by a completed Force.  A
// group-commit waiter whose record's sequence number is already covered can
// skip its own force.
func (l *Log) ForcedThrough() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forcedSeq
}

// LastSeq returns the sequence number of the most recent append (0 if the
// log has never held a record).  A group-commit leader polls it to detect
// committers still arriving for the batch.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// SetNoSync disables the physical fsyncs behind Force and SetHead.  All
// logging, optimization, and truncation logic is unaffected — only the
// permanence guarantee is forfeited.  Used by benchmark harnesses that
// measure log traffic, not durability.
//
// Re-enabling sync after forces were skipped marks the log dirty again, so
// the next Force issues a real fsync even if nothing new was appended:
// toggling NoSync around a commit can therefore never leave bytes that were
// reported forced without a physical sync ever covering them.
func (l *Log) SetNoSync(v bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !v && l.skippedSync {
		l.dirty = true
		l.skippedSync = false
	}
	l.noSync = v
}

// ScanForward visits live records oldest-first.  Wrap records are
// skipped; checkpoint records are delivered (with nil Ranges).  The log
// mutex is held throughout; ScanPrefix is the unlocked variant.  fn must
// not retain the record or its range data beyond the call: both are
// reused.
func (l *Log) ScanForward(fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return ErrLogClosed
	}
	sc := recordScanner{dev: l.dev, areaSize: l.areaSize, chunk: scanChunk}
	_, _, err := sc.scan(l.head, l.headSeq, l.used, l.nextSeq, fn)
	return err
}

// scanChunk is the read size of forward scans: large sequential reads in
// place of two small preads per record.
const scanChunk = 1 << 20

// ScanPrefix visits the live records with Seq < endSeq oldest-first, like
// ScanForward, but holds the log mutex only to snapshot the head and tail:
// the records are read in large sequential chunks with no lock held, so
// appends and forces proceed while it runs.  It returns the area position
// and sequence number at which the scan stopped — the record numbered
// endSeq, or the tail snapshot when endSeq lies beyond it — which is
// where a head advance past the scanned prefix lands.
//
// This is safe because a live record below the tail never changes: appends
// only write the free space past the tail, and only a head move can hand a
// live record's bytes back to them.  The caller must therefore be the only
// party able to move the head (the engine's truncation-claim holder, or
// sole ownership of the log).  fn must not retain the record or its range
// data beyond the call: both are reused.
func (l *Log) ScanPrefix(endSeq uint64, fn func(*Record) error) (pos int64, seq uint64, err error) {
	return l.scanPrefix(endSeq, scanChunk, fn)
}

func (l *Log) scanPrefix(endSeq uint64, chunk int64, fn func(*Record) error) (int64, uint64, error) {
	l.mu.Lock()
	sc := recordScanner{dev: l.dev, areaSize: l.areaSize, chunk: chunk}
	pos, seq, live := l.head, l.headSeq, l.used
	endSeq = min(endSeq, l.nextSeq)
	l.mu.Unlock()
	if sc.dev == nil {
		return 0, 0, ErrLogClosed
	}
	return sc.scan(pos, seq, live, endSeq, fn)
}

// scan delivers the records of a live region starting at (pos, seq) with
// live bytes, stopping before endSeq, and returns where it stopped.
func (s *recordScanner) scan(pos int64, seq uint64, live int64, endSeq uint64, fn func(*Record) error) (int64, uint64, error) {
	for ; seq < endSeq; seq++ {
		rec, err := s.next(pos, seq, live)
		if err != nil {
			return 0, 0, err
		}
		if rec == nil {
			return 0, 0, fmt.Errorf("wal: live region corrupt at %d (seq %d)", pos, seq)
		}
		if rec.Type != recWrap {
			if err := fn(rec); err != nil {
				return 0, 0, err
			}
		}
		live -= rec.Len
		if pos += rec.Len; pos == s.areaSize {
			pos = 0
		}
	}
	return pos, seq, nil
}

// ScanBackward visits live records newest-first, walking the reverse
// displacements from the tail — the direction crash recovery reads the log
// (paper §5.1.2).  Wrap records are skipped; checkpoint records are
// delivered (with nil Ranges).
func (l *Log) ScanBackward(fn func(*Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return ErrLogClosed
	}
	pos := l.tailPos()
	seq := l.nextSeq
	var seen int64
	for seen < l.used {
		if pos == 0 {
			pos = l.areaSize
		}
		trailer := make([]byte, trailerSize)
		if _, err := l.dev.ReadAt(trailer, areaOff(pos-trailerSize)); err != nil {
			return fmt.Errorf("wal: read trailer before %d: %w", pos, err)
		}
		totalLen := int64(binary.BigEndian.Uint32(trailer[8:]))
		if totalLen < minRecordSize || totalLen > pos {
			return fmt.Errorf("wal: bad reverse displacement %d at %d", totalLen, pos)
		}
		start := pos - totalLen
		seq--
		rec, err := readRecord(l.dev, start, totalLen, seq)
		if err != nil {
			return err
		}
		if rec == nil {
			return fmt.Errorf("wal: live region corrupt at %d (backward, seq %d)", start, seq)
		}
		if rec.Type != recWrap {
			if err := fn(rec); err != nil {
				return err
			}
		}
		seen += totalLen
		pos = start
	}
	return nil
}

// RecordRef locates one live record for later decoding by ReadRecord.
type RecordRef struct {
	Pos  int64  // area offset of the record's first byte
	Len  int64  // encoded size on disk
	Seq  uint64 // sequence number
	Type uint8  // record type (RecTx or RecPrepare from analysis)
	TID  uint64 // transaction / global commit ID from the header
}

// Analysis is the result of AnalyzeBackward: the records redo must
// consider, the commit marks seen, and the scan's bookkeeping.
type Analysis struct {
	// Refs are the transaction and prepare records, newest first.  A
	// prepare ref (Type == RecPrepare) must only be replayed when its
	// TID appears in some shard's Committed set.
	Refs []RecordRef
	// Committed holds the global commit-IDs of every commit mark in the
	// scanned suffix.  With sharded logs the caller unions the sets of
	// all shards before filtering prepares.
	Committed []uint64
	// Stable is the newest checkpoint's stable sequence number (0 when
	// no checkpoint bounds the scan).
	Stable uint64
	// Scanned is the log bytes visited by the walk.
	Scanned int64
}

// AnalyzeBackward is recovery's analysis pass: it walks the live region
// tail-to-head reading only each record's trailer and header, and collects
// references (newest first) to the transaction and prepare records redo
// must consider, plus the commit marks that decide the prepares' fate.
// The walk ends early at the newest checkpoint record's stable sequence
// number: every record with Seq < stable is already reflected in its
// segment.  The refs are decoded later — possibly concurrently — with
// ReadRecord; full CRC validation happens there, while this pass relies
// on the structural checks findTail already ran over the live region at
// Open.
func (l *Log) AnalyzeBackward() (Analysis, error) {
	var an Analysis
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return an, ErrLogClosed
	}
	pos := l.tailPos()
	seq := l.nextSeq
	var seen int64
	trailer := make([]byte, trailerSize)
	hdr := make([]byte, headerSize)
	for seen < l.used {
		if an.Stable != 0 && seq-1 < an.Stable {
			break // everything older is reflected in the segments
		}
		if pos == 0 {
			pos = l.areaSize
		}
		if _, err := l.dev.ReadAt(trailer, areaOff(pos-trailerSize)); err != nil {
			return an, fmt.Errorf("wal: read trailer before %d: %w", pos, err)
		}
		totalLen := int64(binary.BigEndian.Uint32(trailer[8:]))
		if totalLen < minRecordSize || totalLen > pos {
			return an, fmt.Errorf("wal: bad reverse displacement %d at %d", totalLen, pos)
		}
		start := pos - totalLen
		seq--
		if _, err := l.dev.ReadAt(hdr, areaOff(start)); err != nil {
			return an, fmt.Errorf("wal: read header at %d: %w", start, err)
		}
		if binary.BigEndian.Uint32(hdr[0:]) != recMagic ||
			int64(binary.BigEndian.Uint32(hdr[4:])) != totalLen ||
			binary.BigEndian.Uint64(hdr[16:]) != seq {
			return an, fmt.Errorf("wal: live region corrupt at %d (analysis, seq %d)", start, seq)
		}
		seen += totalLen
		an.Scanned += totalLen
		pos = start
		switch hdr[8] {
		case recTx, recPrep:
			an.Refs = append(an.Refs, RecordRef{
				Pos: start, Len: totalLen, Seq: seq,
				Type: hdr[8], TID: binary.BigEndian.Uint64(hdr[24:]),
			})
		case recCmt:
			an.Committed = append(an.Committed, binary.BigEndian.Uint64(hdr[24:]))
		case recCkpt:
			if an.Stable == 0 {
				// Newest checkpoint wins; older ones carry smaller
				// stable values and are subsumed.
				an.Stable = binary.BigEndian.Uint64(hdr[24:])
			}
		}
	}
	return an, nil
}

// ReadRecord decodes and fully validates the record a RecordRef points at.
// It is safe for concurrent use by recovery workers: the device handle is
// snapshotted under the lock and the record is read with one positional
// read.  The record's range data aliases a buffer of its own, which the
// caller may keep.
func (l *Log) ReadRecord(ref RecordRef) (*Record, error) {
	l.mu.Lock()
	dev, areaSize := l.dev, l.areaSize
	l.mu.Unlock()
	if dev == nil {
		return nil, ErrLogClosed
	}
	var rec *Record
	var err error
	if ref.Len >= minRecordSize && ref.Pos >= 0 && ref.Pos+ref.Len <= areaSize {
		rec, err = readRecord(dev, ref.Pos, ref.Len, ref.Seq)
	}
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("wal: record at %d (seq %d) failed validation", ref.Pos, ref.Seq)
	}
	return rec, nil
}

// SetHead advances the head of the live region to pos, expecting seq there,
// and persists the new status block.  pos must be the start of a live
// record or the tail.  Freed space becomes available to Append immediately.
//
// The status write and its fsync run with l.mu released: an fsync under
// the log mutex would stall every concurrent Append and Force for a full
// disk flush, re-serializing the commit path behind truncation.  A head
// claim (headBusy) keeps concurrent head moves serialized — status-block
// generations must advance one at a time — without a mutex held across
// the sync.  Appends that interleave with the unlocked window only grow
// the live region at the tail, which a head move never touches, so the
// freed byte count computed under the lock stays exact and is applied as
// a delta when the lock is retaken.
func (l *Log) SetHead(pos int64, seq uint64) error {
	l.mu.Lock()
	if l.headCond == nil {
		l.headCond = sync.NewCond(&l.mu)
	}
	for l.headBusy {
		l.headCond.Wait()
	}
	if l.dev == nil {
		l.mu.Unlock()
		return ErrLogClosed
	}
	freed, err := l.headFreedLocked(pos, seq)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	l.headBusy = true
	dev, noSync := l.dev, l.noSync
	gen := l.gen + 1
	st := statusBlock{gen: gen, areaSize: l.areaSize, head: pos, headSeq: seq}
	l.mu.Unlock()

	werr := writeStatus(dev, int(gen%2), st)
	if werr == nil && !noSync {
		if err := dev.Sync(); err != nil {
			werr = fmt.Errorf("wal: sync status: %w", err)
		}
	}

	l.mu.Lock()
	l.headBusy = false
	l.headCond.Broadcast()
	if werr != nil {
		l.mu.Unlock()
		return werr
	}
	if l.dev == nil {
		// Closed while the status write was in flight; the durable state
		// is fine (head moves are always safe to persist), but there is
		// no live log to apply it to.
		l.mu.Unlock()
		return ErrLogClosed
	}
	l.gen = gen
	l.stats.Forces++
	l.head, l.headSeq = pos, seq
	l.used -= freed
	used := l.used
	met := l.met
	l.mu.Unlock()
	met.SetLogLiveBytes(used)
	return nil
}

// headFreedLocked validates a head move to (pos, seq) and returns the
// byte count it frees.  Caller holds l.mu.
func (l *Log) headFreedLocked(pos int64, seq uint64) (int64, error) {
	freed := pos - l.head
	if freed < 0 {
		freed += l.areaSize
	}
	if freed == 0 && seq != l.headSeq {
		// pos == head is ambiguous when the log is completely full: the
		// sequence number distinguishes "free nothing" (seq == headSeq)
		// from "free everything" (seq == nextSeq, i.e. the tail).
		if seq == l.nextSeq && l.used == l.areaSize {
			freed = l.used
		} else {
			return 0, fmt.Errorf("wal: SetHead(%d, seq %d) does not match a live record", pos, seq)
		}
	}
	if freed > l.used {
		return 0, fmt.Errorf("wal: SetHead(%d) beyond tail", pos)
	}
	return freed, nil
}

// Head returns the area offset and expected sequence number of the oldest
// live record.
func (l *Log) Head() (int64, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.head, l.headSeq
}

// Tail returns the append position and the sequence number the next record
// will get.
func (l *Log) Tail() (int64, uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailPos(), l.nextSeq
}

// Used returns the number of live bytes in the record area.
func (l *Log) Used() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// AreaSize returns the record area capacity in bytes.
func (l *Log) AreaSize() int64 { return l.areaSize }

// Stats returns a snapshot of activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Close releases the underlying device without forcing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.dev == nil {
		return nil
	}
	err := l.dev.Close()
	l.dev = nil
	return err
}

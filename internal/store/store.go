// Package store is the crash-safe on-disk tier under the in-memory
// caches: an append-only log with an in-memory index, content-addressed
// by namespace + key (the callers' sha256 fingerprints and hashes).
//
// Layout: one file, store.log, holding CRC-framed records; a sidecar
// store.lock carries the advisory flock so the log file itself can be
// atomically replaced during compaction. Every record is
//
//	u32 crc | u8 version | u32 keyLen | u32 valLen | key | value
//
// with the crc (IEEE CRC-32) covering everything after itself. Writers
// append whole records under the exclusive lock, so a reader holding the
// shared lock never observes a partial record — except after a crash,
// which leaves a torn tail that Open (and the next writer) truncates at
// the first frame that fails to parse. A scan (Open, and the rescan of
// whatever other processes appended) reads the log sequentially through
// one fixed-size buffer; a lookup reads its indexed frame with a single
// read; both check the frame with the same parser. The last record for a
// key wins; compaction rewrites the live set into a temp file and renames
// it over the log once the dead-byte ratio passes a threshold, and other
// processes detect the swap by comparing inodes and reopen.
//
// Puts are write-behind: they enqueue onto a bounded channel drained by a
// single writer goroutine, so cache hit paths never block on disk; Flush
// drains the queue (tests, process exit) and surfaces the first background
// append failure since the previous barrier — a failed write-behind append
// is additionally counted (per store and per namespace), reported to
// stderr once, and visible in Stats, so silent persistence loss cannot
// hide. While a faultinject plan is armed, Put is a no-op — results
// computed under injection must never poison the store — unless the plan
// is store-scoped (Plan.ScopeStore): then the computation above the store
// is clean, the injected faults live in the store itself, and the write
// path must stay live so the store.write / store.flush / store.compact
// points (including process-kill Crash rules, the crash-recovery
// campaign's tool) can fire on real appends. Get stays active while armed
// either way, so the store.read Corrupt point can exercise the CRC check:
// a corrupted read is counted and served as a miss, never as data.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"lisa/internal/faultinject"
)

const (
	logName  = "store.log"
	lockName = "store.lock"

	recordVersion = 1
	headerSize    = 4 + 1 + 4 + 4 // crc + version + keyLen + valLen

	// maxKeyLen / maxValLen bound a single frame; anything larger in the
	// length fields is treated as a torn/corrupt tail, not an allocation.
	maxKeyLen = 1 << 12
	maxValLen = 1 << 26

	// nsSep joins namespace and key into the composite index key. Callers
	// use hex digests and dotted namespace constants, so NUL never collides.
	nsSep = "\x00"

	// compactMinDead is the floor of reclaimable bytes before compaction is
	// considered; past it, compaction runs when dead bytes exceed live.
	compactMinDead = 1 << 20

	// writeQueueCap bounds the write-behind queue. A full queue makes Put
	// block (backpressure) rather than drop, so a Flush sees everything.
	writeQueueCap = 1024

	// scanBufSize is the read buffer of a log scan (capped at the tail's
	// length). It is small on purpose: a short-lived process pays a page
	// fault for every fresh page of a new buffer, and a buffer holding the
	// whole log would grow with it.
	scanBufSize = 64 << 10
)

// Faultinject hook points in the store. Read is consulted on every lookup
// read, never during a scan; a Corrupt rule flips a byte in the frame
// before the CRC check, which must surface as a detected miss, never as
// data. Write fires per
// frame append (Corrupt: the frame lands on disk with a flipped byte;
// Budget: the append "fails" like a full disk and is counted as a write
// error; Crash: half the frame reaches the disk and the process dies —
// the torn tail the next Open must truncate). Flush fires before the
// batch fsync (Budget: the sync "fails", counted; Crash: the process dies
// with the batch written but not synced). Compact fires twice per
// compaction — on entry and again after the temp log is written, before
// the rename (Budget on entry aborts the compaction; Crash kills the
// process at whichever visit the rule's skip count selects, leaving
// either an untouched log or an orphaned store.log.tmp).
const (
	FaultPointRead    = "store.read"
	FaultPointWrite   = "store.write"
	FaultPointFlush   = "store.flush"
	FaultPointCompact = "store.compact"
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// indexEntry locates the live record for a composite key.
type indexEntry struct {
	off  int64 // frame start
	size int64 // whole frame length
}

// pendingPut is one queued write-behind entry.
type pendingPut struct {
	key   string // composite ns\x00key
	val   []byte
	flush chan error // non-nil: a Flush barrier, not a write
}

// Store is an on-disk content-addressed KV log shared by the snapshot,
// fingerprint, and solver caches, safe for concurrent use by multiple
// goroutines and multiple processes.
type Store struct {
	dir      string
	path     string
	lockFile *os.File

	mu      sync.Mutex
	f       *os.File
	ident   os.FileInfo // identity of the open log, to detect compaction swaps
	index   map[string]indexEntry
	scanned int64 // log offset up to which the index is current
	live    int64 // bytes held by live frames
	dead    int64 // bytes held by superseded frames

	// qmu guards queue sends against Close closing the channel: senders
	// hold it shared, Close exclusively.
	qmu    sync.RWMutex
	queue  chan pendingPut
	wg     sync.WaitGroup
	closed atomic.Bool

	// compactMin is the dead-byte floor before compaction; tests lower it.
	compactMin int64

	gets, hits, misses       atomic.Uint64
	puts, writes, armedSkips atomic.Uint64
	corruptions, recoveries  atomic.Uint64
	compactions, rescans     atomic.Uint64
	writeErrors              atomic.Uint64

	// errMu guards the per-namespace write-error ledger and the last error
	// text; errLogOnce limits the stderr report to the first failure.
	errMu      sync.Mutex
	nsErrs     map[string]uint64
	lastErr    string
	errLogOnce sync.Once
}

// Stats is a snapshot of one store's counters, exposed through /stats and
// lisabench.
type Stats struct {
	Records     int    `json:"records"`
	LiveBytes   int64  `json:"live_bytes"`
	DeadBytes   int64  `json:"dead_bytes"`
	Gets        uint64 `json:"gets"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Writes      uint64 `json:"writes"`
	ArmedSkips  uint64 `json:"armed_skips"`
	Corruptions uint64 `json:"corruptions"`
	Recoveries  uint64 `json:"recoveries"`
	Compactions uint64 `json:"compactions"`
	Rescans     uint64 `json:"rescans"`
	// WriteErrors counts puts whose background append failed — persistence
	// that was silently lost before this counter existed. LastWriteError
	// carries the most recent failure's text for /stats readers.
	WriteErrors    uint64 `json:"write_errors"`
	LastWriteError string `json:"last_write_error,omitempty"`
}

// Open opens (creating if needed) the store rooted at dir. A torn tail
// left by a crashed writer is truncated away before the index is built.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	lock, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// A writer that died mid-compaction leaves an orphaned temp log; it
	// was never renamed into place, so it holds nothing the real log does
	// not. Clear it away rather than let a later compaction inherit it.
	os.Remove(filepath.Join(dir, logName+".tmp"))
	s := &Store{
		dir:        dir,
		path:       filepath.Join(dir, logName),
		lockFile:   lock,
		index:      map[string]indexEntry{},
		queue:      make(chan pendingPut, writeQueueCap),
		compactMin: compactMinDead,
	}
	if err := s.openLogLocked(true); err != nil {
		lock.Close()
		return nil, err
	}
	s.wg.Add(1)
	go s.writer()
	return s, nil
}

// openLogLocked (re)opens the log file and rebuilds the index by scanning
// it. With repair set, a torn tail is truncated under the exclusive lock.
// Caller holds s.mu (or is the constructor).
func (s *Store) openLogLocked(repair bool) error {
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	ident, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.f = f
	s.ident = ident
	s.index = map[string]indexEntry{}
	s.scanned, s.live, s.dead = 0, 0, 0
	if err := s.scanTailLocked(); err != nil {
		return err
	}
	if repair {
		return s.repairTailLocked()
	}
	return nil
}

// scanTailLocked indexes frames from s.scanned to the end of the log,
// stopping at the first frame that fails a check (a torn or corrupt
// tail). The tail is read in one sequential pass through a buffer of at
// most scanBufSize bytes; a frame longer than the buffer is read whole into
// its own slice. Caller holds s.mu.
func (s *Store) scanTailLocked() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if s.scanned+headerSize > size {
		return nil
	}
	tail := size - s.scanned
	r := bufio.NewReaderSize(io.NewSectionReader(s.f, s.scanned, tail), int(min(tail, scanBufSize)))
	for s.scanned+headerSize <= size {
		hdr, err := r.Peek(headerSize)
		if err != nil {
			return fmt.Errorf("store: read: %w", err)
		}
		n, ok := frameLen(hdr)
		if !ok || s.scanned+n > size {
			break
		}
		var frame []byte
		if n <= int64(r.Size()) {
			frame, err = r.Peek(int(n))
			r.Discard(len(frame))
		} else {
			frame = make([]byte, n)
			_, err = io.ReadFull(r, frame)
		}
		if err != nil {
			return fmt.Errorf("store: read: %w", err)
		}
		key, _, ok := parseFrame(frame)
		if !ok {
			break
		}
		if prev, dup := s.index[string(key)]; dup {
			s.dead += prev.size
			s.live -= prev.size
		}
		s.index[string(key)] = indexEntry{off: s.scanned, size: n}
		s.live += n
		s.scanned += n
	}
	return nil
}

// repairTailLocked truncates a torn tail (scanned < size) at open, taking
// the exclusive lock only when the log runs past the scanned frames.
// Caller holds s.mu.
func (s *Store) repairTailLocked() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.scanned >= fi.Size() {
		return nil
	}
	if err := s.flock(syscall.LOCK_EX); err != nil {
		return err
	}
	defer s.funlock()
	// Another process may have repaired (or compacted) while we waited.
	return s.catchUpLocked()
}

// catchUpLocked brings the index level with the log under the exclusive
// file lock: it reopens the log if a compaction swapped it, scans what
// other writers appended, and truncates a torn tail, counting a recovery.
// Only a crashed writer leaves a torn tail, and live writers are excluded
// by the lock. Caller holds s.mu and the exclusive lock.
func (s *Store) catchUpLocked() error {
	if err := s.reopenIfSwappedLocked(); err != nil {
		return err
	}
	if err := s.scanTailLocked(); err != nil {
		return err
	}
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if s.scanned < fi.Size() {
		if err := s.f.Truncate(s.scanned); err != nil {
			return fmt.Errorf("store: truncate torn tail: %w", err)
		}
		s.recoveries.Add(1)
	}
	return nil
}

// frameLen checks a frame header — the version byte and the key and value
// length bounds — and returns the whole frame's length.
func frameLen(hdr []byte) (int64, bool) {
	keyLen := int64(binary.LittleEndian.Uint32(hdr[5:9]))
	valLen := int64(binary.LittleEndian.Uint32(hdr[9:13]))
	if hdr[4] != recordVersion || keyLen == 0 || keyLen > maxKeyLen || valLen > maxValLen {
		return 0, false
	}
	return headerSize + keyLen + valLen, true
}

// parseFrame checks one whole frame — its header, that the header's
// lengths span exactly b, and the CRC — and returns the composite key and
// the value, both aliasing b. ok=false means a torn or corrupt frame.
func parseFrame(b []byte) (key, val []byte, ok bool) {
	if len(b) < headerSize {
		return nil, nil, false
	}
	if n, ok := frameLen(b); !ok || n != int64(len(b)) {
		return nil, nil, false
	}
	if crc32.ChecksumIEEE(b[4:]) != binary.LittleEndian.Uint32(b[0:4]) {
		return nil, nil, false
	}
	keyEnd := headerSize + binary.LittleEndian.Uint32(b[5:9])
	return b[headerSize:keyEnd], b[keyEnd:], true
}

// readIndexed reads the frame ent locates with one ReadAt and returns its
// value; ok=false means the frame failed a check (disk corruption, or a
// Corrupt rule at the store.read fault point, which every lookup consults
// and no scan does). Caller holds s.mu.
func (s *Store) readIndexed(ent indexEntry) (val []byte, ok bool, err error) {
	buf := make([]byte, ent.size)
	if _, err := s.f.ReadAt(buf, ent.off); err != nil {
		return nil, false, fmt.Errorf("store: read: %w", err)
	}
	if faultinject.Armed() {
		if kind, hit := faultinject.At(FaultPointRead); hit && kind == faultinject.Corrupt {
			buf[len(buf)-1] ^= 0xff
		}
	}
	_, val, ok = parseFrame(buf)
	return val, ok, nil
}

// Get returns the stored value for (ns, key), or ok=false on a miss. A
// frame that fails its CRC (disk corruption or an injected store.read
// fault) counts as a corruption and is served as a miss — the caller
// recomputes. When the key is not in the index the log tail is re-scanned
// under the shared lock, so appends by other processes become visible.
func (s *Store) Get(ns, key string) ([]byte, bool) {
	if s.closed.Load() {
		return nil, false
	}
	s.gets.Add(1)
	ck := ns + nsSep + key
	s.mu.Lock()
	defer s.mu.Unlock()
	ent, ok := s.index[ck]
	if !ok {
		// Maybe another process appended (or compacted) since we scanned.
		if err := s.refreshLocked(); err != nil {
			s.misses.Add(1)
			return nil, false
		}
		if ent, ok = s.index[ck]; !ok {
			s.misses.Add(1)
			return nil, false
		}
	}
	val, frameOK, err := s.readIndexed(ent)
	if err != nil || !frameOK {
		if err == nil {
			s.corruptions.Add(1)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return val, true
}

// refreshLocked makes the index current with the on-disk log under the
// shared lock: it reopens after a compaction swap and scans any appended
// tail. Caller holds s.mu.
func (s *Store) refreshLocked() error {
	if err := s.flock(syscall.LOCK_SH); err != nil {
		return err
	}
	defer s.funlock()
	if err := s.reopenIfSwappedLocked(); err != nil {
		return err
	}
	s.rescans.Add(1)
	return s.scanTailLocked()
}

// reopenIfSwappedLocked reopens the log when the path no longer names the
// file we have open (another process compacted). Caller holds s.mu and
// the flock.
func (s *Store) reopenIfSwappedLocked() error {
	fi, err := os.Stat(s.path)
	if err != nil || !os.SameFile(fi, s.ident) {
		return s.openLogLocked(false)
	}
	return nil
}

// Put schedules (ns, key) → val for write-behind append. The value is
// copied. While a faultinject plan is armed the write is dropped — results
// computed under injection must never reach the disk tier — unless the
// plan is store-scoped (the chaos campaign injecting faults into the store
// itself, on cleanly computed values; see the package comment).
func (s *Store) Put(ns, key string, val []byte) {
	if s.closed.Load() {
		return
	}
	if faultinject.Armed() && !faultinject.StoreScoped() {
		s.armedSkips.Add(1)
		return
	}
	if len(ns)+len(key)+1 > maxKeyLen || len(val) > maxValLen {
		return
	}
	p := pendingPut{key: ns + nsSep + key, val: append([]byte(nil), val...)}
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed.Load() {
		return
	}
	s.puts.Add(1)
	s.queue <- p
}

// Flush blocks until every Put issued before the call has been appended
// and synced, and returns the first background append failure since the
// previous barrier (nil when everything landed). A failed write-behind
// append is thereby no longer silent: the caller that wants durability
// sees the error, and the counters (Stats.WriteErrors, per-namespace via
// NamespaceWriteErrors) record it either way.
func (s *Store) Flush() error {
	if s.closed.Load() {
		return ErrClosed
	}
	done := make(chan error, 1)
	s.qmu.RLock()
	if s.closed.Load() {
		s.qmu.RUnlock()
		return ErrClosed
	}
	s.queue <- pendingPut{flush: done}
	s.qmu.RUnlock()
	return <-done
}

// Close drains the write-behind queue and closes the store. Further
// operations return misses / ErrClosed.
func (s *Store) Close() error {
	s.qmu.Lock()
	if s.closed.Swap(true) {
		s.qmu.Unlock()
		return nil
	}
	close(s.queue)
	s.qmu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.f != nil {
		err = s.f.Close()
		s.f = nil
	}
	if s.lockFile != nil {
		s.lockFile.Close()
		s.lockFile = nil
	}
	return err
}

// Dir returns the directory the store lives in.
func (s *Store) Dir() string { return s.dir }

// writer is the single write-behind goroutine: it batches whatever is
// queued, appends the batch under one exclusive lock + sync, and acks
// flush barriers once the queue ahead of them has landed — carrying the
// first append failure since the previous barrier to whoever is waiting.
func (s *Store) writer() {
	defer s.wg.Done()
	var pendingErr error
	for p := range s.queue {
		batch := make([]pendingPut, 0, 16)
		var flushes []chan error
		if p.flush != nil {
			flushes = append(flushes, p.flush)
		} else {
			batch = append(batch, p)
		}
	drain:
		for {
			select {
			case q, ok := <-s.queue:
				if !ok {
					break drain
				}
				if q.flush != nil {
					flushes = append(flushes, q.flush)
				} else {
					batch = append(batch, q)
				}
			default:
				break drain
			}
		}
		if len(batch) > 0 {
			if err := s.appendBatch(batch); err != nil && pendingErr == nil {
				pendingErr = err
			}
		}
		for _, ch := range flushes {
			ch <- pendingErr
		}
		if len(flushes) > 0 {
			pendingErr = nil
		}
	}
}

// noteWriteError records one put whose background append failed: the
// store-wide and per-namespace counters grow, the error text is kept for
// Stats, and the first failure in the store's lifetime is reported to
// stderr (once — a dying disk would otherwise flood the log).
func (s *Store) noteWriteError(key string, err error) {
	s.writeErrors.Add(1)
	ns := key
	if i := strings.Index(key, nsSep); i >= 0 {
		ns = key[:i]
	}
	s.errMu.Lock()
	if s.nsErrs == nil {
		s.nsErrs = map[string]uint64{}
	}
	s.nsErrs[ns]++
	s.lastErr = err.Error()
	s.errMu.Unlock()
	s.errLogOnce.Do(func() {
		fmt.Fprintf(os.Stderr, "store: background append failed (further failures counted, not logged): %v\n", err)
	})
}

// NamespaceWriteErrors returns how many failed background appends hit the
// given namespaces — the per-cache slice of Stats.WriteErrors, surfaced
// through each cache's Tier row.
func (s *Store) NamespaceWriteErrors(namespaces ...string) uint64 {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	var n uint64
	for _, ns := range namespaces {
		n += s.nsErrs[ns]
	}
	return n
}

// appendBatch writes a batch of frames under one exclusive lock, syncs,
// and compacts if the dead ratio warrants it. Every put the batch loses —
// to a real I/O error or an injected store.write/store.flush fault — is
// counted via noteWriteError, and the first error is returned so the next
// Flush barrier can surface it.
func (s *Store) appendBatch(batch []pendingPut) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	fail := func(from int, err error) error {
		for _, p := range batch[from:] {
			s.noteWriteError(p.key, err)
		}
		return err
	}
	if s.f == nil {
		return fail(0, ErrClosed)
	}
	if err := s.flock(syscall.LOCK_EX); err != nil {
		return fail(0, err)
	}
	defer s.funlock()
	// A torn tail (crashed writer) must go before we append after it.
	if err := s.catchUpLocked(); err != nil {
		return fail(0, err)
	}
	var firstErr error
	for i, p := range batch {
		if prev, ok := s.index[p.key]; ok {
			if s.frameEqual(prev, p.val) {
				continue // identical live record already on disk
			}
		}
		frame := encodeFrame(p.key, p.val)
		if faultinject.Armed() {
			if kind, hit := faultinject.At(FaultPointWrite); hit {
				switch kind {
				case faultinject.Crash:
					// A writer dying mid-append: half the frame reaches
					// the disk, then the process is gone. The torn tail
					// is exactly what repairTailLocked exists for.
					s.f.WriteAt(frame[:len(frame)/2], s.scanned)
					s.f.Sync()
					faultinject.CrashNow(FaultPointWrite)
				case faultinject.Corrupt:
					// The frame lands whole but a bit rotted on the way:
					// its CRC no longer matches, so every future read
					// must detect it and serve a miss, never the data.
					frame[len(frame)-1] ^= 0xff
				case faultinject.Budget:
					// The append fails like a full disk: the put is lost
					// and must be counted, not silently dropped.
					err := fmt.Errorf("store: injected write failure at %s", FaultPointWrite)
					s.noteWriteError(p.key, err)
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
			}
		}
		if _, err := s.f.WriteAt(frame, s.scanned); err != nil {
			return fail(i, fmt.Errorf("store: append: %w", err))
		}
		if prev, ok := s.index[p.key]; ok {
			s.dead += prev.size
			s.live -= prev.size
		}
		s.index[p.key] = indexEntry{off: s.scanned, size: int64(len(frame))}
		s.live += int64(len(frame))
		s.scanned += int64(len(frame))
		s.writes.Add(1)
	}
	if faultinject.Armed() {
		if kind, hit := faultinject.At(FaultPointFlush); hit {
			switch kind {
			case faultinject.Crash:
				// The process dies with the batch written but not synced
				// — whatever the OS already persisted is what recovery
				// gets to work with.
				faultinject.CrashNow(FaultPointFlush)
			case faultinject.Budget:
				err := fmt.Errorf("store: injected sync failure at %s", FaultPointFlush)
				for _, p := range batch {
					s.noteWriteError(p.key, err)
				}
				if firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	if err := s.f.Sync(); err != nil {
		return fail(0, fmt.Errorf("store: sync: %w", err))
	}
	if s.dead > s.compactMin && s.dead > s.live {
		s.compactLocked()
	}
	return firstErr
}

// frameEqual reports whether the live frame at ent already stores val.
func (s *Store) frameEqual(ent indexEntry, val []byte) bool {
	cur, ok, err := s.readIndexed(ent)
	return err == nil && ok && bytes.Equal(cur, val)
}

// compactLocked rewrites the live record set into a temp file and renames
// it over the log. Caller holds s.mu and the exclusive flock; other
// processes notice the inode change on their next locked operation and
// reopen.
func (s *Store) compactLocked() {
	if faultinject.Armed() {
		if kind, hit := faultinject.At(FaultPointCompact); hit {
			switch kind {
			case faultinject.Crash:
				// Death before the rewrite starts (first firing visit) or
				// after the temp file is fully written (use SetAfter to
				// select the second visit): either way the original log is
				// still the one on disk, so recovery must serve it intact
				// and Open must sweep any orphan temp file.
				faultinject.CrashNow(FaultPointCompact)
			case faultinject.Budget:
				// Compaction aborted — e.g. no space for the temp file.
				// The log keeps its dead weight; correctness is unchanged.
				return
			}
		}
	}
	tmpPath := s.path + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	// Preserve log order of the live set so a rebuilt index is identical.
	type liveRec struct {
		key string
		ent indexEntry
	}
	recs := make([]liveRec, 0, len(s.index))
	for k, ent := range s.index {
		recs = append(recs, liveRec{k, ent})
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ent.off < recs[j].ent.off })
	var off int64
	newIndex := make(map[string]indexEntry, len(recs))
	for _, r := range recs {
		buf := make([]byte, r.ent.size)
		if _, err := s.f.ReadAt(buf, r.ent.off); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return
		}
		if _, err := tmp.Write(buf); err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return
		}
		newIndex[r.key] = indexEntry{off: off, size: r.ent.size}
		off += r.ent.size
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return
	}
	if faultinject.Armed() {
		// Second consult of the same point: a SetAfter(point, Crash, 1)
		// rule sails past the entry check above and dies here — temp file
		// complete and synced, rename not yet issued. Recovery must keep
		// serving the original log and remove the orphan.
		if kind, hit := faultinject.At(FaultPointCompact); hit && kind == faultinject.Crash {
			faultinject.CrashNow(FaultPointCompact)
		}
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		os.Remove(tmpPath)
		return
	}
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return
	}
	ident, err := f.Stat()
	if err != nil {
		f.Close()
		return
	}
	s.f.Close()
	s.f = f
	s.ident = ident
	s.index = newIndex
	s.scanned = off
	s.live = off
	s.dead = 0
	s.compactions.Add(1)
}

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	records := len(s.index)
	live, dead := s.live, s.dead
	s.mu.Unlock()
	s.errMu.Lock()
	lastErr := s.lastErr
	s.errMu.Unlock()
	return Stats{
		Records:     records,
		LiveBytes:   live,
		DeadBytes:   dead,
		Gets:        s.gets.Load(),
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Writes:      s.writes.Load(),
		ArmedSkips:  s.armedSkips.Load(),
		Corruptions: s.corruptions.Load(),
		Recoveries:  s.recoveries.Load(),
		Compactions: s.compactions.Load(),
		Rescans:     s.rescans.Load(),

		WriteErrors:    s.writeErrors.Load(),
		LastWriteError: lastErr,
	}
}

// flock takes the advisory lock on the sidecar lock file (LOCK_SH or
// LOCK_EX), retrying on EINTR.
func (s *Store) flock(how int) error {
	if s.lockFile == nil {
		return ErrClosed
	}
	for {
		err := syscall.Flock(int(s.lockFile.Fd()), how)
		if err != syscall.EINTR {
			if err != nil {
				return fmt.Errorf("store: flock: %w", err)
			}
			return nil
		}
	}
}

func (s *Store) funlock() {
	if s.lockFile != nil {
		syscall.Flock(int(s.lockFile.Fd()), syscall.LOCK_UN)
	}
}

// encodeFrame builds one on-disk frame for the composite key and value.
func encodeFrame(key string, val []byte) []byte {
	frame := make([]byte, headerSize+len(key)+len(val))
	frame[4] = recordVersion
	binary.LittleEndian.PutUint32(frame[5:9], uint32(len(key)))
	binary.LittleEndian.PutUint32(frame[9:13], uint32(len(val)))
	copy(frame[headerSize:], key)
	copy(frame[headerSize+len(key):], val)
	binary.LittleEndian.PutUint32(frame[0:4], crc32.ChecksumIEEE(frame[4:]))
	return frame
}

var _ io.Closer = (*Store)(nil)

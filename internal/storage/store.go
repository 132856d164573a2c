package storage

// Store is the managed crash-recovery layer: a directory of
// snapshot-<epoch>.gob checkpoints plus one checksummed, epoch-stamped
// write-ahead log (wal.log). The durability protocol:
//
//   - AppendVersionedAsync writes {epoch, seq, len, crc32c, payload} in
//     a single write followed by fsync (optionally batched across
//     concurrent appenders — group commit).
//   - CheckpointAt writes the snapshot to a temp file, fsyncs it,
//     renames it into place, fsyncs the directory, bumps the epoch, and
//     only then truncates (and fsyncs) the WAL. A crash anywhere in that
//     sequence leaves either the old snapshot + a replayable WAL, or
//     the new snapshot + stale-epoch WAL records that recovery skips —
//     never a double apply.
//   - OpenStore recovers: it loads the newest valid snapshot, then
//     scans the WAL, replaying only records stamped with the snapshot's
//     epoch; stale records are skipped, a torn tail is discarded, and a
//     checksum-failing record stops the scan instead of feeding garbage
//     to the parser.
//
// The WAL file opens with walFileMagic; every record payload is
// `version u64 | keys+script body` (see appendKeysScript). A store
// whose WAL lacks the magic, or whose newest snapshot lacks the
// checksum footer or predates snapshot version 3, was written before
// this layout: OpenStore refuses it with a *FormatError and changes no
// file.

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
	"strconv"
	"strings"
	"sync"
	"time"

	"ivm/internal/eval"
	"ivm/internal/metrics"
)

const (
	walFileName = "wal.log"
	snapPrefix  = "snapshot-"
	snapSuffix  = ".gob"

	// walHeaderSize is the fixed record header: epoch u64, seq u64,
	// len u32, crc32c u32 (all big-endian). The checksum covers the
	// first 20 header bytes plus the payload.
	walHeaderSize = 24
)

// walFileMagic opens every WAL file; records follow it.
var walFileMagic = [8]byte{'I', 'V', 'M', 'W', 'A', 'L', '0', '1'}

const walMagicSize = int64(len(walFileMagic))

// ErrStoreClosed is returned by operations on a closed Store.
var ErrStoreClosed = errors.New("storage: store is closed")

// WALRecord is one logical WAL entry: the delta script plus the
// idempotency keys of the Apply calls it covers (a coalesced batch logs
// one record carrying every caller's key). Keys ride in the record so
// the dedup window survives crash recovery: replay hands them back and
// the engine re-seeds key → result before serving any retry. Version
// is the snapshot version the record's apply published — the durable
// commit order replication and recovery align on; it is never zero.
type WALRecord struct {
	Script  string
	Keys    []string
	Version uint64
}

// appendKeysScript appends the keys+script body shared by WAL payloads
// and replication 'D' records: a u16 key count, each key as
// `len u16 | bytes`, then the script (all numbers big-endian).
func appendKeysScript(dst []byte, script string, keys []string) ([]byte, error) {
	if len(keys) > 0xffff {
		return nil, fmt.Errorf("storage: %d idempotency keys in one record (max %d)", len(keys), 0xffff)
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(keys)))
	for _, k := range keys {
		if len(k) > 0xffff {
			return nil, fmt.Errorf("storage: idempotency key of %d bytes (max %d)", len(k), 0xffff)
		}
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(k)))
		dst = append(dst, k...)
	}
	return append(dst, script...), nil
}

// decodeKeysScript parses a keys+script body. A framing error on a
// checksum-valid body means a writer bug, not disk damage, so it is
// surfaced loudly rather than repaired around.
func decodeKeysScript(b []byte) (script string, keys []string, err error) {
	if len(b) < 2 {
		return "", nil, fmt.Errorf("storage: record body truncated in key count")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	for i := 0; i < n; i++ {
		if len(b) < 2 {
			return "", nil, fmt.Errorf("storage: record body truncated in key %d length", i)
		}
		kl := int(binary.BigEndian.Uint16(b))
		if len(b)-2 < kl {
			return "", nil, fmt.Errorf("storage: record body truncated in key %d", i)
		}
		keys = append(keys, string(b[2:2+kl]))
		b = b[2+kl:]
	}
	return string(b), keys, nil
}

// encodeWALPayload renders a WAL record payload: `version u64` followed
// by the keys+script body.
func encodeWALPayload(version uint64, script string, keys []string) ([]byte, error) {
	if version == 0 {
		return nil, fmt.Errorf("storage: wal records need a nonzero version")
	}
	out := make([]byte, 8, 8+2+len(script))
	binary.BigEndian.PutUint64(out, version)
	return appendKeysScript(out, script, keys)
}

// decodeWALPayload parses a payload written by encodeWALPayload.
func decodeWALPayload(payload []byte) (WALRecord, error) {
	if len(payload) < 8 {
		return WALRecord{}, fmt.Errorf("storage: wal payload truncated in version")
	}
	version := binary.BigEndian.Uint64(payload)
	if version == 0 {
		return WALRecord{}, fmt.Errorf("storage: wal payload has version 0")
	}
	script, keys, err := decodeKeysScript(payload[8:])
	if err != nil {
		return WALRecord{}, err
	}
	return WALRecord{Script: script, Keys: keys, Version: version}, nil
}

// walEntry is one checksum-valid WAL record as scanWAL delivers it.
type walEntry struct {
	offset     int64
	epoch, seq uint64
	payload    []byte
}

// scanWAL reads the records in r — the WAL bytes from offset start up
// to size — and hands each checksum-valid one to fn, in order. It is
// the one record reader that recovery and TailRecords share.
//
// The scan stops at the first record it cannot accept. A record that
// reaches the end of the file cut short, or whose checksum fails, is a
// torn tail — a crash mid-append, never acknowledged — reported as
// torn with a nil error. A checksum failure with bytes behind it is
// in-place damage and returns a *CorruptWALError (Path left empty).
// Payload lengths are bounded by the bytes remaining, so a garbage
// header cannot force an allocation past the file size. end is the
// offset just past the last record delivered; an error from fn stops
// the scan and is returned as is.
func scanWAL(r io.Reader, start, size int64, fn func(walEntry) error) (end int64, torn bool, err error) {
	var hdr [walHeaderSize]byte
	off := start
	for off < size {
		if size-off < walHeaderSize {
			return off, true, nil
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return off, false, err
		}
		n := int64(binary.BigEndian.Uint32(hdr[16:20]))
		if n > size-off-walHeaderSize {
			return off, true, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return off, false, err
		}
		next := off + walHeaderSize + n
		want := binary.BigEndian.Uint32(hdr[20:24])
		crc := crc32.Update(crc32.Checksum(hdr[0:20], castagnoli), castagnoli, payload)
		if crc != want {
			if next == size {
				return off, true, nil
			}
			return off, false, &CorruptWALError{Offset: off, Reason: fmt.Sprintf("crc mismatch (stored %08x, computed %08x)", want, crc)}
		}
		e := walEntry{
			offset:  off,
			epoch:   binary.BigEndian.Uint64(hdr[0:8]),
			seq:     binary.BigEndian.Uint64(hdr[8:16]),
			payload: payload,
		}
		if err := fn(e); err != nil {
			return off, false, err
		}
		off = next
	}
	return off, false, nil
}

// encodeWALRecord renders one record; the CRC32C covers the header
// (minus the crc field itself) and the payload.
func encodeWALRecord(epoch, seq uint64, payload []byte) []byte {
	rec := make([]byte, walHeaderSize+len(payload))
	binary.BigEndian.PutUint64(rec[0:8], epoch)
	binary.BigEndian.PutUint64(rec[8:16], seq)
	binary.BigEndian.PutUint32(rec[16:20], uint32(len(payload)))
	copy(rec[walHeaderSize:], payload)
	crc := crc32.Checksum(rec[0:20], castagnoli)
	crc = crc32.Update(crc, castagnoli, rec[walHeaderSize:])
	binary.BigEndian.PutUint32(rec[20:24], crc)
	return rec
}

// StoreOptions tunes a Store.
type StoreOptions struct {
	// GroupCommit batches WAL fsyncs across concurrent appenders: each
	// Append still blocks until its record is durable, but one fsync can
	// cover many records. Recommended under concurrent writers; with a
	// single writer it adds one goroutine handoff per append.
	GroupCommit bool

	// RepairCorruptWAL lets recovery discard a mid-log corrupt record
	// and everything after it, keeping the valid prefix. Off by default:
	// the discarded suffix holds acknowledged (fsynced) appends, so
	// OpenStore instead fails with a *CorruptWALError and leaves the
	// file untouched for inspection. Torn tails — records a crash cut
	// short, never acknowledged — are always trimmed silently.
	RepairCorruptWAL bool
}

// CorruptWALError reports a WAL record damaged in place: its checksum
// fails even though further bytes follow, so the damage cannot be a
// torn tail. Recovery refuses to proceed past it (the records behind it
// were acknowledged) unless StoreOptions.RepairCorruptWAL opts in to
// discarding the suffix.
type CorruptWALError struct {
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptWALError) Error() string {
	return fmt.Sprintf("storage: corrupt wal record in %s at offset %d: %s (acknowledged records follow the damage; re-open with RepairCorruptWAL to keep the valid prefix and discard the rest)",
		e.Path, e.Offset, e.Reason)
}

// RecoveryInfo describes what OpenStore found on disk.
type RecoveryInfo struct {
	// Epoch of the snapshot recovery started from (0 when the store was
	// empty).
	Epoch uint64
	// Replayed counts WAL records from the current epoch handed to the
	// caller for replay.
	Replayed int
	// SkippedStale counts WAL records from older epochs — evidence of a
	// crash between a checkpoint rename and the WAL truncate.
	SkippedStale int
	// TornTail reports that an incomplete (or checksum-failing final)
	// record was discarded — a crash mid-append; the record was never
	// acknowledged.
	TornTail bool
	// CorruptRecords counts checksum failures with further data behind
	// them: in-place corruption, not a torn tail. Nonzero only under
	// StoreOptions.RepairCorruptWAL (ivm.WithWALRepair): the scan stops
	// at the first one and the tail after it is discarded; without the
	// opt-in, OpenStore fails with a *CorruptWALError instead.
	CorruptRecords int
	// BadSnapshots counts snapshot files that failed their checksum or
	// decoding and were set aside (renamed to .corrupt); recovery fell
	// back to an older epoch.
	BadSnapshots int
	// DiscardedBytes is the length of the WAL tail dropped by recovery
	// (torn or corrupt).
	DiscardedBytes int64
	// Initialized reports that the store was empty and the caller seeded
	// it (ivm.OpenStore's init, checkpointed as epoch 1).
	Initialized bool
}

func (ri RecoveryInfo) String() string {
	if ri.Initialized {
		return "initialized (epoch 1)"
	}
	s := fmt.Sprintf("epoch=%d replayed=%d", ri.Epoch, ri.Replayed)
	if ri.SkippedStale > 0 {
		s += fmt.Sprintf(" skipped_stale=%d", ri.SkippedStale)
	}
	if ri.TornTail {
		s += " torn_tail"
	}
	if ri.CorruptRecords > 0 {
		s += fmt.Sprintf(" corrupt_records=%d", ri.CorruptRecords)
	}
	if ri.BadSnapshots > 0 {
		s += fmt.Sprintf(" bad_snapshots=%d", ri.BadSnapshots)
	}
	return s
}

// Store owns a crash-recovery directory. AppendVersionedAsync and
// CheckpointAt are safe for concurrent appenders, but a checkpoint must
// not race an append for the same logical state (callers serialize
// state mutation + append under their own lock, as ivm.Views does).
type Store struct {
	dir  string
	opts StoreOptions

	mu     sync.Mutex // serializes WAL writes, checkpoint, close
	wal    *os.File
	epoch  uint64
	seq    uint64
	closed bool

	gc *groupCommitter

	info RecoveryInfo
	// recovered and records hold what recovery found until the caller
	// takes them (Snapshot, Records); guarded by mu.
	recovered *State
	records   []WALRecord

	// instruments; nil until AttachMetrics (nil instruments are no-ops).
	mAppends, mAppendBytes, mFsyncs, mCheckpoints *metrics.Counter
	hFsync, hCheckpoint                           *metrics.Histogram
	gEpoch                                        *metrics.Gauge
}

func snapName(epoch uint64) string {
	return fmt.Sprintf("%s%d%s", snapPrefix, epoch, snapSuffix)
}

// snapEpoch parses a snapshot filename, returning (epoch, true) on match.
func snapEpoch(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	mid := name[len(snapPrefix) : len(name)-len(snapSuffix)]
	e, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return e, true
}

// OpenStore opens (creating if needed) the store directory and runs
// recovery. Snapshot and Records hand over the recovered state and the
// WAL records to replay on top of it; Recovery reports what was found.
//
// Recovery first checks formats without writing anything: a snapshot
// or WAL from before the current layout fails with a *FormatError and
// leaves every file as it was. Only then does it tidy the directory —
// removing temp files of interrupted checkpoints, setting aside
// unreadable snapshots and trimming a torn WAL tail.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opts: opts}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	bad, err := s.recoverSnapshot(entries)
	if err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			// A checkpoint died before its rename; the WAL still has
			// everything the snapshot would have contained.
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
	for _, path := range bad {
		// Keep the evidence, but out of the next scan.
		os.Rename(path, path+".corrupt")
		s.info.BadSnapshots++
	}
	if err := s.recoverWAL(); err != nil {
		s.wal.Close()
		return nil, err
	}
	if opts.GroupCommit {
		s.gc = newGroupCommitter(s.wal)
		go s.gc.run()
	}
	return s, nil
}

// recoverSnapshot loads the newest readable snapshot. It only reads:
// the paths of unreadable (corrupt) snapshots passed over on the way
// are returned for the caller to set aside, and a snapshot in a
// pre-cutoff format stops recovery with its *FormatError.
func (s *Store) recoverSnapshot(entries []os.DirEntry) (bad []string, err error) {
	var epochs []uint64
	for _, e := range entries {
		if ep, ok := snapEpoch(e.Name()); ok {
			epochs = append(epochs, ep)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	for _, ep := range epochs {
		path := filepath.Join(s.dir, snapName(ep))
		st, err := LoadFileAt(path)
		var fe *FormatError
		if errors.As(err, &fe) {
			return nil, err
		}
		if err != nil {
			bad = append(bad, path)
			continue
		}
		s.recovered = st
		s.info.Epoch = ep
		s.epoch = ep
		break
	}
	return bad, nil
}

// openWAL opens wal.log and checks that it starts with walFileMagic. A
// WAL without it was written before the current record layout and is
// refused untouched. An empty WAL — a new store, or one a previous
// release shut down cleanly — or one holding only a torn prefix of the
// magic gets the magic written.
func (s *Store) openWAL() error {
	path := filepath.Join(s.dir, walFileName)
	wal, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	var head [walMagicSize]byte
	n, err := io.ReadFull(wal, head[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		wal.Close()
		return err
	}
	if !bytes.HasPrefix(walFileMagic[:], head[:n]) {
		wal.Close()
		return &FormatError{Path: path, Reason: "write-ahead log predates the current record layout"}
	}
	if n < len(head) {
		err := wal.Truncate(0)
		if err == nil {
			_, err = wal.Write(walFileMagic[:])
		}
		if err == nil {
			err = wal.Sync()
		}
		if err != nil {
			wal.Close()
			return err
		}
	}
	s.wal = wal
	return nil
}

// recoverWAL scans wal.log, collecting current-epoch records and
// truncating any torn or corrupt tail so appends resume after the last
// valid record.
func (s *Store) recoverWAL() error {
	path := filepath.Join(s.dir, walFileName)
	end, size, torn, err := s.scan(func(e walEntry) error {
		switch {
		case e.epoch == s.epoch:
			rec, err := decodeWALPayload(e.payload)
			if err != nil {
				return fmt.Errorf("storage: wal record at offset %d: %w", e.offset, err)
			}
			s.records = append(s.records, rec)
			s.info.Replayed++
		case e.epoch < s.epoch:
			// Written before the snapshot we recovered from — the crash
			// hit between a checkpoint rename and the WAL truncate.
			s.info.SkippedStale++
		default:
			// A record newer than every readable snapshot: the snapshot
			// covering the records truncated at that checkpoint is gone.
			// Replaying onto older state would silently lose data.
			return fmt.Errorf("storage: wal record at offset %d has epoch %d but newest readable snapshot is epoch %d; state is not recoverable from this directory", e.offset, e.epoch, s.epoch)
		}
		s.seq = max(s.seq, e.seq)
		return nil
	})
	var ce *CorruptWALError
	if errors.As(err, &ce) {
		ce.Path = path
		if !s.opts.RepairCorruptWAL {
			// Acknowledged records sit behind the damage; refuse to open
			// (and leave the file untouched) rather than silently
			// destroy them.
			return ce
		}
		s.info.CorruptRecords++
	} else if err != nil {
		return err
	}
	s.info.TornTail = torn
	if end < size {
		s.info.DiscardedBytes = size - end
		if err := s.wal.Truncate(end); err != nil {
			return err
		}
		if err := s.wal.Sync(); err != nil {
			return err
		}
	}
	// O_APPEND writes go to EOF regardless of the read offset.
	return nil
}

// scan runs scanWAL over the records of the whole WAL file, reporting
// the file size alongside the scan's outcome.
func (s *Store) scan(fn func(walEntry) error) (end, size int64, torn bool, err error) {
	st, err := s.wal.Stat()
	if err != nil {
		return 0, 0, false, err
	}
	size = st.Size()
	r := bufio.NewReader(io.NewSectionReader(s.wal, walMagicSize, size-walMagicSize))
	end, torn, err = scanWAL(r, walMagicSize, size, fn)
	return end, size, torn, err
}

// Recovery reports what OpenStore found.
func (s *Store) Recovery() RecoveryInfo { return s.info }

// Snapshot hands over the recovered snapshot state (nil when the store
// held none). The store drops its reference, so a second call returns
// nil: a process that recovered keeps no second copy of the state.
func (s *Store) Snapshot() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.recovered
	s.recovered = nil
	return st
}

// Records hands over the WAL records to replay on top of the snapshot,
// in append order, each with its version and idempotency keys. Like
// Snapshot it transfers ownership: a second call returns nil.
func (s *Store) Records() []WALRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.records
	s.records = nil
	return recs
}

// TailRecords re-reads the live WAL and returns every current-epoch
// record stamped with a version greater than fromExcl, in append order.
// Replication backfill uses this when a follower's resume point has
// fallen out of the in-memory window but is still newer than the last
// checkpoint. The scan runs under the store lock (appends are fully
// written before the lock is released, so the file never holds a torn
// record mid-stream); any decode or checksum error stops the scan and is
// returned — the caller falls back to a full snapshot reset rather than
// serve a gap.
func (s *Store) TailRecords(fromExcl uint64) ([]WALRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrStoreClosed
	}
	var out []WALRecord
	_, _, torn, err := s.scan(func(e walEntry) error {
		if e.epoch != s.epoch {
			return nil
		}
		rec, err := decodeWALPayload(e.payload)
		if err != nil {
			return err
		}
		if rec.Version > fromExcl {
			out = append(out, rec)
		}
		return nil
	})
	if err == nil && torn {
		err = fmt.Errorf("storage: wal tail scan: torn record")
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Closed reports whether Close has been called. Callers that mutate
// in-memory state before appending can pre-check so a closed store
// rejects the whole operation instead of leaving memory ahead of the
// log (a concurrent Close can still land between the check and the
// append; AppendVersionedAsync then fails with ErrStoreClosed after the fact).
func (s *Store) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Epoch returns the current checkpoint epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// AttachMetrics resolves the store's instruments against reg (nil-safe)
// and publishes the recovery counters.
func (s *Store) AttachMetrics(reg *metrics.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mAppends = reg.Counter("storage_wal_appends_total")
	s.mAppendBytes = reg.Counter("storage_wal_append_bytes_total")
	s.mFsyncs = reg.Counter("storage_wal_fsyncs_total")
	s.mCheckpoints = reg.Counter("storage_checkpoints_total")
	s.hFsync = reg.Histogram("storage_wal_fsync")
	s.hCheckpoint = reg.Histogram("storage_checkpoint")
	s.gEpoch = reg.Gauge("storage_epoch")
	reg.Counter("storage_recovery_replayed_total").Add(int64(s.info.Replayed))
	reg.Counter("storage_recovery_skipped_stale_total").Add(int64(s.info.SkippedStale))
	reg.Counter("storage_recovery_corrupt_records_total").Add(int64(s.info.CorruptRecords))
	s.gEpoch.Set(int64(s.epoch))
	if s.gc != nil {
		s.gc.setMetrics(s.mFsyncs, s.hFsync)
	}
}

// AppendVersionedAsync writes the record (establishing its position in
// the log) and returns a wait function that blocks until the record is
// durable. version, which must be nonzero, stamps the record with the
// snapshot version its apply publishes, so recovery and replication
// backfill can align on the durable commit order. keys are the
// idempotency keys the record's applies carried; recovery hands them
// back via Records so dedup survives replay. Callers that serialize appends under their own
// lock can write inside the critical section and wait outside it,
// letting group commit batch the fsyncs.
func (s *Store) AppendVersionedAsync(version uint64, script string, keys []string) (wait func() error, err error) {
	payload, err := encodeWALPayload(version, script, keys)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrStoreClosed
	}
	s.seq++
	seq := s.seq
	rec := encodeWALRecord(s.epoch, seq, payload)
	if _, err := s.wal.Write(rec); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.mAppends.Inc()
	s.mAppendBytes.Add(int64(len(rec)))
	if s.gc == nil {
		start := time.Now()
		err := s.wal.Sync()
		s.hFsync.Observe(time.Since(start))
		s.mFsyncs.Inc()
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return func() error { return nil }, nil
	}
	// Register with the committer before releasing the store lock: Close
	// marks the store closed under this same lock, so by the time it
	// asks the committer to drain, every record that passed the closed
	// check above has been noted and the final fsync covers it — a
	// record that was durably written can then never be reported back to
	// its appender as ErrStoreClosed.
	s.gc.noteAppended(seq)
	s.mu.Unlock()
	return func() error { return s.gc.waitSynced(seq) }, nil
}

// CheckpointAt writes a new snapshot epoch and truncates the WAL. The
// sequence — fsync temp snapshot, rename, fsync directory, bump epoch,
// truncate + fsync WAL — guarantees a crash at any point recovers to
// exactly the checkpointed state plus later appends. db holds the base
// relations to persist (see State); baseVersion records the snapshot
// version the checkpointed state was published as, so recovery restarts
// the version counter where the previous process left it.
func (s *Store) CheckpointAt(db *eval.DB, program string, hidden []string, baseVersion uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	start := time.Now()
	next := s.epoch + 1
	st := &State{Base: db, Program: program, Hidden: hidden, BaseVersion: baseVersion}
	if err := SaveFileAt(filepath.Join(s.dir, snapName(next)), st); err != nil {
		return err
	}
	s.epoch = next
	if err := s.wal.Truncate(walMagicSize); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.mCheckpoints.Inc()
	s.hCheckpoint.Observe(time.Since(start))
	s.gEpoch.Set(int64(s.epoch))
	s.pruneLocked()
	return nil
}

// pruneLocked removes snapshots older than the previous epoch (the
// previous one is kept as a fallback against a newest-snapshot decode
// failure). Best effort: pruning failures never fail a checkpoint.
func (s *Store) pruneLocked() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if ep, ok := snapEpoch(e.Name()); ok && ep+1 < s.epoch {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
}

// Close flushes and closes the WAL. Further operations fail with
// ErrStoreClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	if s.gc != nil {
		s.gc.close()
	}
	if err := s.wal.Sync(); err != nil {
		s.wal.Close()
		return err
	}
	return s.wal.Close()
}

// groupCommitter batches WAL fsyncs: appenders note their sequence
// number and wait; a dedicated goroutine fsyncs once per batch and
// releases every appender the sync covered.
type groupCommitter struct {
	f    *os.File
	mu   sync.Mutex
	cond *sync.Cond

	appended uint64
	synced   uint64
	err      error
	closed   bool
	drained  bool // the final fsync after close has run
	done     chan struct{}

	fsyncs *metrics.Counter
	hFsync *metrics.Histogram
}

func newGroupCommitter(f *os.File) *groupCommitter {
	g := &groupCommitter{f: f, done: make(chan struct{})}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *groupCommitter) setMetrics(fsyncs *metrics.Counter, h *metrics.Histogram) {
	g.mu.Lock()
	g.fsyncs, g.hFsync = fsyncs, h
	g.mu.Unlock()
}

func (g *groupCommitter) noteAppended(seq uint64) {
	g.mu.Lock()
	if seq > g.appended {
		g.appended = seq
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *groupCommitter) waitSynced(seq uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	// Wait out the final drain, not just the close: a record written
	// before Close is covered by the drain's fsync and must not be
	// reported as ErrStoreClosed.
	for g.err == nil && g.synced < seq && !g.drained {
		g.cond.Wait()
	}
	if g.err != nil {
		return g.err
	}
	if g.synced < seq {
		return ErrStoreClosed
	}
	return nil
}

func (g *groupCommitter) run() {
	g.mu.Lock()
	for {
		for !g.closed && g.appended == g.synced && g.err == nil {
			g.cond.Wait()
		}
		if g.closed {
			// Final drain: one last fsync covers everything written.
			target := g.appended
			g.mu.Unlock()
			err := g.f.Sync()
			g.mu.Lock()
			if err != nil {
				// Waiters must see the real sync failure, not a generic
				// ErrStoreClosed for a record that may not be durable.
				if g.err == nil {
					g.err = err
				}
			} else if g.err == nil {
				g.synced = target
			}
			g.drained = true
			g.cond.Broadcast()
			g.mu.Unlock()
			close(g.done)
			return
		}
		target := g.appended
		fsyncs, h := g.fsyncs, g.hFsync
		g.mu.Unlock()
		start := time.Now()
		err := g.f.Sync()
		h.Observe(time.Since(start))
		fsyncs.Inc()
		g.mu.Lock()
		if err != nil {
			g.err = err
		} else if target > g.synced {
			g.synced = target
		}
		g.cond.Broadcast()
	}
}

func (g *groupCommitter) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
	<-g.done
}

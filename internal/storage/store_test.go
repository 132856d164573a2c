package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ivm/internal/metrics"
	"ivm/internal/value"
)

func openTestStore(t *testing.T, dir string, opts StoreOptions) *Store {
	t.Helper()
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func walPath(dir string) string { return filepath.Join(dir, walFileName) }

// testVersion hands out the nonzero versions test appends are stamped
// with.
var testVersion atomic.Uint64

// appendScript durably appends one record stamped with a fresh version.
func appendScript(s *Store, script string, keys ...string) error {
	wait, err := s.AppendVersionedAsync(testVersion.Add(1), script, keys)
	if err != nil {
		return err
	}
	return wait()
}

// scripts takes the store's recovered records and returns their
// scripts.
func scripts(s *Store) []string {
	var out []string
	for _, r := range s.Records() {
		out = append(out, r.Script)
	}
	return out
}

func TestStoreEmptyOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	if s.Snapshot() != nil {
		t.Fatal("empty store must have no snapshot")
	}
	if got := scripts(s); len(got) != 0 || s.Epoch() != 0 {
		t.Fatalf("scripts=%v epoch=%d", got, s.Epoch())
	}
}

func TestStoreAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < 5; i++ {
		if err := appendScript(s, fmt.Sprintf("+p(%d).", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := scripts(s2); len(got) != 5 || got[0] != "+p(0)." || got[4] != "+p(4)." {
		t.Fatalf("scripts: %v", got)
	}
	info := s2.Recovery()
	if info.SkippedStale != 0 || info.TornTail || info.CorruptRecords != 0 {
		t.Fatalf("info: %v", info)
	}
}

func TestStoreCheckpointSupersedesWAL(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	if err := appendScript(s, "+p(1)."); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointAt(sampleDB(), "prog.", []string{"aux"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := appendScript(s, "+p(2)."); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	st := s2.Snapshot()
	if st == nil || st.Program != "prog." || len(st.Hidden) != 1 || st.Hidden[0] != "aux" || st.BaseVersion != 1 {
		t.Fatalf("snapshot: %+v", st)
	}
	if st.Base.Get("link").Count(value.T("b", "c")) != 3 {
		t.Fatal("snapshot db contents")
	}
	if got := scripts(s2); len(got) != 1 || got[0] != "+p(2)." {
		t.Fatalf("scripts: %v", got)
	}
	if s2.Epoch() != 1 {
		t.Fatalf("epoch: %d", s2.Epoch())
	}
}

func TestStoreSkipsStaleEpochRecords(t *testing.T) {
	// Simulate a crash between the checkpoint rename and the WAL
	// truncate: after Checkpoint, restore the pre-checkpoint WAL bytes.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < 3; i++ {
		if err := appendScript(s, fmt.Sprintf("+p(%d).", i)); err != nil {
			t.Fatal(err)
		}
	}
	pre, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointAt(sampleDB(), "prog.", nil, 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(walPath(dir), pre, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	info := s2.Recovery()
	if info.SkippedStale != 3 || info.Replayed != 0 {
		t.Fatalf("info: %v", info)
	}
	if got := scripts(s2); len(got) != 0 {
		t.Fatalf("stale records must not replay: %v", got)
	}
}

func TestStoreTornTail(t *testing.T) {
	for name, tail := range map[string][]byte{
		"torn header":  {1, 2, 3},
		"torn payload": encodeWALRecord(0, 99, []byte("+p(x)."))[:walHeaderSize+3],
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openTestStore(t, dir, StoreOptions{})
			if err := appendScript(s, "+p(1)."); err != nil {
				t.Fatal(err)
			}
			s.Close()
			f, err := os.OpenFile(walPath(dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(tail)
			f.Close()

			s2 := openTestStore(t, dir, StoreOptions{})
			defer s2.Close()
			info := s2.Recovery()
			if !info.TornTail || info.CorruptRecords != 0 {
				t.Fatalf("%s: info: %v", name, info)
			}
			if got := scripts(s2); len(got) != 1 || got[0] != "+p(1)." {
				t.Fatalf("%s: scripts: %v", name, got)
			}
			// The torn tail is truncated away, so appends resume cleanly.
			if err := appendScript(s2, "+p(2)."); err != nil {
				t.Fatal(err)
			}
			s2.Close()
			s3 := openTestStore(t, dir, StoreOptions{})
			defer s3.Close()
			if got := scripts(s3); len(got) != 2 || got[1] != "+p(2)." {
				t.Fatalf("%s: after tail truncation: %v", name, got)
			}
		})
	}
}

func TestStoreBitFlipRefusesWithoutRepairOptIn(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	for i := 0; i < 3; i++ {
		if err := appendScript(s, fmt.Sprintf("+p(%d).", i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload bit in the middle record: acknowledged records sit
	// behind the damage. Each record is header, version, key count and
	// script.
	second := walMagicSize + walHeaderSize + 8 + 2 + int64(len("+p(0)."))
	data[second+walHeaderSize] ^= 0x01
	if err := os.WriteFile(walPath(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Default recovery must fail loudly and leave the file untouched.
	_, err = OpenStore(dir, StoreOptions{})
	var ce *CorruptWALError
	if !errors.As(err, &ce) {
		t.Fatalf("want *CorruptWALError, got %v", err)
	}
	if ce.Offset != second {
		t.Fatalf("corrupt offset %d, want %d", ce.Offset, second)
	}
	after, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data) {
		t.Fatalf("refusing recovery must not truncate the WAL (%d -> %d bytes)", len(data), len(after))
	}

	// The repair opt-in keeps the valid prefix and discards the rest.
	s2 := openTestStore(t, dir, StoreOptions{RepairCorruptWAL: true})
	defer s2.Close()
	info := s2.Recovery()
	if info.CorruptRecords != 1 {
		t.Fatalf("info: %v", info)
	}
	if got := scripts(s2); len(got) != 1 || got[0] != "+p(0)." {
		t.Fatalf("only the valid prefix may replay: %v", got)
	}
	if info.DiscardedBytes == 0 {
		t.Fatal("discarded bytes must be reported")
	}
}

func TestStoreMissingSnapshotForNewerEpochFails(t *testing.T) {
	// WAL records stamped with an epoch newer than every readable
	// snapshot mean the covering snapshot is gone (e.g. its directory
	// entry was never synced); recovery must refuse rather than lose the
	// records truncated at that checkpoint.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	if err := s.CheckpointAt(sampleDB(), "prog.", nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := appendScript(s, "+p(1)."); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, snapName(1))); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenStore(dir, StoreOptions{}); err == nil {
		t.Fatal("recovery must fail when the snapshot covering the WAL epoch is missing")
	} else if !strings.Contains(err.Error(), "not recoverable") {
		t.Fatalf("error: %v", err)
	}
}

func TestStoreFallsBackToPreviousSnapshot(t *testing.T) {
	// A corrupt newest snapshot with a WAL that never reached its epoch:
	// recovery falls back to the previous snapshot and replays.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	if err := s.CheckpointAt(sampleDB(), "v1.", nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := appendScript(s, "+p(1)."); err != nil {
		t.Fatal(err)
	}
	pre, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CheckpointAt(sampleDB(), "v2.", nil, 1); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Corrupt snapshot-2 in place (its checksum no longer matches) and
	// restore the pre-checkpoint WAL (epoch-1 records), as if the second
	// checkpoint never became durable.
	snap2 := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snap2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath(dir), pre, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	info := s2.Recovery()
	if info.Epoch != 1 || info.BadSnapshots != 1 {
		t.Fatalf("info: %v", info)
	}
	if st := s2.Snapshot(); st == nil || st.Program != "v1." {
		t.Fatalf("must fall back to snapshot 1, got %+v", st)
	}
	if got := scripts(s2); len(got) != 1 || got[0] != "+p(1)." {
		t.Fatalf("scripts: %v", got)
	}
}

func TestStorePartialRenameLeftoverIgnored(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	if err := s.CheckpointAt(sampleDB(), "prog.", nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := appendScript(s, "+p(1)."); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// A checkpoint that died before its rename leaves only a temp file.
	tmp := filepath.Join(dir, snapName(2)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := scripts(s2); s2.Epoch() != 1 || len(got) != 1 {
		t.Fatalf("epoch=%d scripts=%v", s2.Epoch(), got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("temp leftovers must be removed")
	}
}

func TestStorePrunesOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.CheckpointAt(sampleDB(), "prog.", nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	for ep := uint64(1); ep <= 2; ep++ {
		if _, err := os.Stat(filepath.Join(dir, snapName(ep))); !os.IsNotExist(err) {
			t.Fatalf("snapshot %d must be pruned", ep)
		}
	}
	for ep := uint64(3); ep <= 4; ep++ {
		if _, err := os.Stat(filepath.Join(dir, snapName(ep))); err != nil {
			t.Fatalf("snapshot %d must be kept: %v", ep, err)
		}
	}
}

func TestStoreGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{GroupCommit: true})
	reg := metrics.NewRegistry()
	s.AttachMetrics(reg)
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := appendScript(s, fmt.Sprintf("+p(%d,%d).", w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counter("storage_wal_appends_total"); got != writers*perWriter {
		t.Fatalf("appends counter: %d", got)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	if got := len(scripts(s2)); got != writers*perWriter {
		t.Fatalf("recovered %d of %d records", got, writers*perWriter)
	}
}

func TestStoreGroupCommitCloseNeverFailsDurableAppends(t *testing.T) {
	// Race Close against concurrent AppendVersionedAsync callers: any append that
	// passes the closed check has its record written, so its wait() must
	// report success (the final drain's fsync covers it), and the record
	// must be there on recovery. Before the fix, Close could capture the
	// committer's high-water mark between an append's write and its
	// registration, and a durable record was reported as ErrStoreClosed.
	for round := 0; round < 25; round++ {
		dir := t.TempDir()
		s := openTestStore(t, dir, StoreOptions{GroupCommit: true})
		const writers = 8
		var acked atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				wait, err := s.AppendVersionedAsync(testVersion.Add(1), fmt.Sprintf("+p(%d).", w), nil)
				if err != nil {
					if err != ErrStoreClosed {
						t.Errorf("append: %v", err)
					}
					return
				}
				if werr := wait(); werr != nil {
					t.Errorf("a written record must not report failure on close: %v", werr)
					return
				}
				acked.Add(1)
			}(w)
		}
		close(start)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()

		s2 := openTestStore(t, dir, StoreOptions{})
		if got := int64(len(scripts(s2))); got != acked.Load() {
			t.Fatalf("round %d: recovered %d records, acknowledged %d", round, got, acked.Load())
		}
		s2.Close()
	}
}

func TestStoreAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	s.Close()
	if err := appendScript(s, "+p(1)."); err != ErrStoreClosed {
		t.Fatalf("err: %v", err)
	}
	if err := s.CheckpointAt(sampleDB(), "p.", nil, 1); err != ErrStoreClosed {
		t.Fatalf("err: %v", err)
	}
}

func TestWALPayloadRoundTrip(t *testing.T) {
	cases := []WALRecord{
		{Script: "+p(1).", Keys: nil, Version: 1},
		{Script: "+p(1).", Keys: []string{"k1"}, Version: 2},
		{Script: "+p(1). -q(2).", Keys: []string{"a", "b", "c"}, Version: 3},
		{Script: "", Keys: []string{"only-keys"}, Version: 4},
		{Script: "+p(1).", Keys: []string{""}, Version: 5},
		{Script: "+p(1).", Keys: []string{strings.Repeat("K", 300)}, Version: 6},
		{Script: "", Keys: nil, Version: 1<<64 - 1},
	}
	for _, want := range cases {
		payload, err := encodeWALPayload(want.Version, want.Script, want.Keys)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, err := decodeWALPayload(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if got.Script != want.Script || len(got.Keys) != len(want.Keys) || got.Version != want.Version {
			t.Fatalf("round trip %+v -> %+v", want, got)
		}
		for i := range want.Keys {
			if got.Keys[i] != want.Keys[i] {
				t.Fatalf("key %d: %q != %q", i, got.Keys[i], want.Keys[i])
			}
		}
	}
	// Every record is stamped: recovery and backfill align on versions.
	if _, err := encodeWALPayload(0, "+p(1).", nil); err == nil {
		t.Fatal("an unversioned record must be rejected")
	}
}

func TestWALPayloadDecodeMalformed(t *testing.T) {
	for name, payload := range map[string][]byte{
		"short version":   {0, 0, 0, 1},
		"zero version":    {0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated count": {0, 0, 0, 0, 0, 0, 0, 1, 0},
		"truncated klen":  {0, 0, 0, 0, 0, 0, 0, 1, 0, 2, 0, 1, 'a', 0},
		"truncated key":   {0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 9, 'a'},
	} {
		if _, err := decodeWALPayload(payload); err == nil {
			t.Errorf("%s: decode accepted malformed payload %v", name, payload)
		}
	}
}

func TestStoreKeyedRecordsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	appendRec := func(version uint64, script string, keys ...string) {
		t.Helper()
		wait, err := s.AppendVersionedAsync(version, script, keys)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	appendRec(7, "+p(1).", "key-1")
	appendRec(8, "+p(2).") // keyless, interleaved
	appendRec(9, "+p(3). +p(4).", "key-3a", "key-3b")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTestStore(t, dir, StoreOptions{})
	defer s2.Close()
	recs := s2.Records()
	if len(recs) != 3 {
		t.Fatalf("records: %+v", recs)
	}
	if recs[0].Script != "+p(1)." || len(recs[0].Keys) != 1 || recs[0].Keys[0] != "key-1" || recs[0].Version != 7 {
		t.Fatalf("record 0: %+v", recs[0])
	}
	if recs[1].Script != "+p(2)." || len(recs[1].Keys) != 0 || recs[1].Version != 8 {
		t.Fatalf("record 1: %+v", recs[1])
	}
	if recs[2].Script != "+p(3). +p(4)." || len(recs[2].Keys) != 2 || recs[2].Keys[1] != "key-3b" || recs[2].Version != 9 {
		t.Fatalf("record 2: %+v", recs[2])
	}
	// Records hands the records over: the store keeps no reference.
	if again := s2.Records(); again != nil {
		t.Fatalf("second Records call returned %d records, want none", len(again))
	}
}

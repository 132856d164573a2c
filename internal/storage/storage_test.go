package storage

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ivm/internal/eval"
	"ivm/internal/relation"
	"ivm/internal/value"
)

func sampleDB() *eval.DB {
	db := eval.NewDB()
	link := relation.New(2)
	link.Add(value.T("a", "b"), 1)
	link.Add(value.T("b", "c"), 3)
	db.Put("link", link)
	hop := relation.New(3)
	hop.Add(value.T("a", 2.5, int64(7)), 2)
	db.Put("hop", hop)
	db.Put("empty", relation.New(1))
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := sampleDB()
	var buf bytes.Buffer
	want := &State{
		Base:        db,
		Program:     "hop(X,Y) :- link(X,Z), link(Z,Y).",
		Hidden:      []string{"aux_1", "aux_2"},
		BaseVersion: 17,
		Strategy:    "dred",
		Semantics:   "duplicate",
	}
	if err := SaveAt(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAt(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Program != want.Program || got.BaseVersion != 17 || got.Strategy != "dred" || got.Semantics != "duplicate" {
		t.Fatalf("state: %+v", got)
	}
	if len(got.Hidden) != 2 || got.Hidden[0] != "aux_1" || got.Hidden[1] != "aux_2" {
		t.Fatalf("hidden: %v", got.Hidden)
	}
	for _, pred := range []string{"link", "hop"} {
		if !relation.Equal(db.Get(pred), got.Base.Get(pred)) {
			t.Fatalf("%s: %v vs %v", pred, db.Get(pred), got.Base.Get(pred))
		}
	}
	if got.Base.Get("empty") == nil || got.Base.Get("empty").Len() != 0 {
		t.Fatal("empty relation must survive")
	}
}

func TestSnapshotFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gob")
	if err := SaveFileAt(path, &State{Base: sampleDB(), Program: "p."}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file must be renamed away")
	}
	st, err := LoadFileAt(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Program != "p." || st.Base.Get("link").Count(value.T("b", "c")) != 3 {
		t.Fatal("file round trip")
	}
	if len(st.Hidden) != 0 {
		t.Fatalf("hidden: %v", st.Hidden)
	}
}

func TestSnapshotChecksumFooter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.gob")
	if err := SaveFileAt(path, &State{Base: sampleDB(), Program: "p."}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFileAt(path); err != nil {
		t.Fatalf("fresh snapshot must verify: %v", err)
	}
	// In-place corruption that gob decoding might survive must still be
	// caught by the whole-file checksum — as damage, not as an old
	// format.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := LoadFileAt(path); err == nil || errors.As(err, &fe) {
		t.Fatalf("bit-flipped snapshot must fail verification as damage, got %v", err)
	}
	// A snapshot without the footer predates the current format.
	var buf bytes.Buffer
	if err := SaveAt(&buf, &State{Base: sampleDB(), Program: "p."}); err != nil {
		t.Fatal(err)
	}
	footerless := filepath.Join(dir, "footerless.gob")
	if err := os.WriteFile(footerless, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFileAt(footerless); !errors.As(err, &fe) {
		t.Fatalf("footerless snapshot must fail with a *FormatError, got %v", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadAt(bytes.NewBufferString("not a gob stream")); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestLoadRefusesPreCutoffVersions(t *testing.T) {
	// Version-1 and version-2 snapshots predate the base-version stamp;
	// they are refused with the upgrade step rather than loaded.
	for _, version := range []int{1, 2} {
		var buf bytes.Buffer
		snap := snapshot{Version: version, Program: "p(X) :- q(X).", Relations: map[string][]row{
			"q": {{Tuple: []scalar{{Kind: 0, I: 7}}, Count: 1}},
		}}
		if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
			t.Fatal(err)
		}
		var fe *FormatError
		if _, err := LoadAt(&buf); !errors.As(err, &fe) {
			t.Fatalf("version %d: want *FormatError, got %v", version, err)
		}
	}
}

func TestLoadRejectsFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	snap := snapshot{Version: snapshotVersion + 1, Program: "p."}
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAt(&buf); err == nil {
		t.Fatal("future snapshot version must be rejected")
	}
}

// walRecords renders scripts as WAL records of epoch 1, exactly as
// AppendVersionedAsync writes them (versions 1, 2, ...).
func walRecords(t *testing.T, scripts ...string) []byte {
	t.Helper()
	var out []byte
	for i, s := range scripts {
		payload, err := encodeWALPayload(uint64(i+1), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, encodeWALRecord(1, uint64(i+1), payload)...)
	}
	return out
}

// scanAll runs the shared WAL scanner over record bytes.
func scanAll(t *testing.T, data []byte) (recs []WALRecord, end int64, torn bool, err error) {
	t.Helper()
	end, torn, err = scanWAL(bytes.NewReader(data), 0, int64(len(data)), func(e walEntry) error {
		rec, err := decodeWALPayload(e.payload)
		if err != nil {
			return err
		}
		recs = append(recs, rec)
		return nil
	})
	return recs, end, torn, err
}

func TestLogAppendReplay(t *testing.T) {
	// The scanner reads back exactly what the store appended.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	want := []WALRecord{
		{Script: "+link(a,b).", Keys: []string{"k1"}, Version: 2},
		{Script: "-link(a,b).", Version: 3},
		{Script: "+link(x,y). +link(y,z).", Keys: []string{"k2", "k3"}, Version: 4},
	}
	for _, r := range want {
		wait, err := s.AppendVersionedAsync(r.Version, r.Script, r.Keys)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, walFileMagic[:]) {
		t.Fatalf("wal must open with the file magic: %q", data[:min(len(data), 8)])
	}
	got, end, torn, err := scanAll(t, data[walMagicSize:])
	if err != nil || torn || end != int64(len(data))-walMagicSize {
		t.Fatalf("scan: end=%d torn=%v err=%v", end, torn, err)
	}
	if len(got) != len(want) {
		t.Fatalf("replay: %+v", got)
	}
	for i := range want {
		if got[i].Script != want[i].Script || got[i].Version != want[i].Version || len(got[i].Keys) != len(want[i].Keys) {
			t.Fatalf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestLogIgnoresTruncatedTail(t *testing.T) {
	// A crash mid-append: a header promising more bytes than exist.
	data := walRecords(t, "+p(a).")
	good := int64(len(data))
	data = append(data, encodeWALRecord(1, 2, make([]byte, 200))[:walHeaderSize+2]...)
	got, end, torn, err := scanAll(t, data)
	if err != nil || !torn || end != good {
		t.Fatalf("scan: end=%d torn=%v err=%v", end, torn, err)
	}
	if len(got) != 1 || got[0].Script != "+p(a)." {
		t.Fatalf("replay with torn tail: %+v", got)
	}
}

func TestReplayBoundsLengthHeader(t *testing.T) {
	// A garbage header claiming ~4 GiB must not allocate 4 GiB: the
	// length is bounded by the bytes actually present, and the tail is
	// treated as torn.
	data := walRecords(t, "+p(a).")
	junk := make([]byte, walHeaderSize+4)
	copy(junk[16:], []byte{0xff, 0xff, 0xff, 0xf0})
	data = append(data, junk...)
	got, _, torn, err := scanAll(t, data)
	if err != nil || !torn {
		t.Fatalf("scan: torn=%v err=%v", torn, err)
	}
	if len(got) != 1 || got[0].Script != "+p(a)." {
		t.Fatalf("replay: %+v", got)
	}
}

func TestReplayFailsLoudlyOnMidLogCorruption(t *testing.T) {
	// Flip a payload bit of the FIRST record: a later record exists, so
	// this cannot be a torn tail and the scan must fail loudly.
	data := walRecords(t, "+p(a).", "+p(b).")
	data[walHeaderSize] ^= 0x01
	got, _, _, err := scanAll(t, data)
	var ce *CorruptWALError
	if !errors.As(err, &ce) || ce.Offset != 0 {
		t.Fatalf("want CorruptWALError at offset 0, got %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("no record may be delivered before the damage: %+v", got)
	}
}

func TestReplayDropsCorruptFinalRecord(t *testing.T) {
	// A checksum failure on the very last record is indistinguishable
	// from a torn append; it is dropped without error.
	data := walRecords(t, "+p(a).", "+p(b).")
	data[len(data)-1] ^= 0x80
	got, _, torn, err := scanAll(t, data)
	if err != nil || !torn {
		t.Fatalf("scan: torn=%v err=%v", torn, err)
	}
	if len(got) != 1 || got[0].Script != "+p(a)." {
		t.Fatalf("replay: %+v", got)
	}
}

func TestReplayThenAppendContinues(t *testing.T) {
	// Appends after a recovery scan land behind the recovered records.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	if err := appendScript(s, "+a(1)."); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTestStore(t, dir, StoreOptions{})
	if err := appendScript(s2, "+b(2)."); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := openTestStore(t, dir, StoreOptions{})
	defer s3.Close()
	if got := scripts(s3); len(got) != 2 || got[0] != "+a(1)." || got[1] != "+b(2)." {
		t.Fatalf("replay: %v", got)
	}
}

func TestReplayEmptyLog(t *testing.T) {
	got, end, torn, err := scanAll(t, nil)
	if err != nil || torn || end != 0 || len(got) != 0 {
		t.Fatalf("empty scan: recs=%v end=%d torn=%v err=%v", got, end, torn, err)
	}
	// A fresh store's WAL holds only the file magic.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	s.Close()
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, walFileMagic[:]) {
		t.Fatalf("fresh wal: %q", data)
	}
}

func TestStoreRefusesPreCutoffWAL(t *testing.T) {
	// A WAL without the file magic was written in an earlier record
	// layout: recovery refuses it and leaves the file as it was.
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	s.Close()
	legacy := append([]byte{}, encodeWALRecord(0, 1, []byte("+p(1)."))...)
	if err := os.WriteFile(walPath(dir), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	var fe *FormatError
	if _, err := OpenStore(dir, StoreOptions{}); !errors.As(err, &fe) {
		t.Fatalf("want *FormatError, got %v", err)
	}
	after, err := os.ReadFile(walPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, legacy) {
		t.Fatal("refused recovery must leave the wal byte-identical")
	}
}

func TestTailRecordsSharesTheScanner(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir, StoreOptions{})
	defer s.Close()
	for v := uint64(1); v <= 4; v++ {
		wait, err := s.AppendVersionedAsync(v, "+p(1).", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := s.TailRecords(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Version != 3 || recs[1].Version != 4 {
		t.Fatalf("tail after 2: %+v", recs)
	}
	// Damage a record in place: the tail scan reports it instead of
	// serving a gap.
	f, err := os.OpenFile(walPath(dir), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte{0xff}, walMagicSize+walHeaderSize); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TailRecords(0); err == nil {
		t.Fatal("tail scan must fail on a damaged record")
	}
}

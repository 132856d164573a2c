package storage

// Fuzz target for the WAL record scanner recovery and TailRecords
// share. Recovery hands it raw file bytes that may have been torn by a
// crash or corrupted in place, so the scanner must never panic, never
// allocate past the file size, read a bad final record as a torn tail,
// report mid-file damage as a *CorruptWALError, and stay stable under
// re-encoding: the records it extracts, re-encoded, are byte-identical
// to the bytes they came from.

import (
	"bytes"
	"errors"
	"os"
	"testing"
)

// realWAL returns the record bytes (file magic stripped) a Store writes
// for a few keyed and keyless AppendVersionedAsync calls.
func realWAL(f *testing.F) []byte {
	dir := f.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for i, r := range []WALRecord{
		{Version: 2, Script: "+link(a,b).", Keys: []string{"k-1"}},
		{Version: 3, Script: "-link(a,b) * 2."},
		{Version: 4, Script: "+link(x,y). +link(y,z).", Keys: []string{"k-2", "k-3"}},
	} {
		wait, err := s.AppendVersionedAsync(r.Version, r.Script, r.Keys)
		if err == nil {
			err = wait()
		}
		if err != nil {
			f.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(walPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	return data[walMagicSize:]
}

func FuzzScanLog(f *testing.F) {
	valid := realWAL(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn final record
	f.Add(valid[:5])            // torn first header
	corrupt := append([]byte(nil), valid...)
	corrupt[walHeaderSize] ^= 0xff // flip a payload byte of record 1
	f.Add(corrupt)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, walHeaderSize)) // absurd length header
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		size := int64(len(data))
		var entries []walEntry
		end, torn, err := scanWAL(bytes.NewReader(data), 0, size, func(e walEntry) error {
			if int64(len(e.payload)) > size {
				t.Fatalf("payload of %d bytes from a %d-byte file", len(e.payload), size)
			}
			entries = append(entries, e)
			return nil
		})
		switch {
		case err != nil:
			// Mid-file damage must be the typed error, right behind the
			// last record delivered, so recovery can tell it from a torn
			// tail.
			var ce *CorruptWALError
			if !errors.As(err, &ce) {
				t.Fatalf("scan error is not a *CorruptWALError: %v", err)
			}
			if ce.Offset != end {
				t.Fatalf("corrupt record at %d, but the scan ended at %d", ce.Offset, end)
			}
		case torn:
			if end >= size {
				t.Fatalf("torn tail reported with nothing left after offset %d", end)
			}
		default:
			if end != size {
				t.Fatalf("clean scan ended at %d of %d bytes", end, size)
			}
		}

		// Decode/encode stability: the delivered records re-encode to
		// exactly the bytes they were read from, and so does every
		// payload that decodes.
		var canon []byte
		for _, e := range entries {
			canon = append(canon, encodeWALRecord(e.epoch, e.seq, e.payload)...)
			if rec, err := decodeWALPayload(e.payload); err == nil {
				again, err := encodeWALPayload(rec.Version, rec.Script, rec.Keys)
				if err != nil || !bytes.Equal(again, e.payload) {
					t.Fatalf("payload changed across decode/encode: %q -> %q (%v)", e.payload, again, err)
				}
			}
		}
		if !bytes.Equal(canon, data[:end]) {
			t.Fatalf("re-encoded records differ from the scanned bytes")
		}
		if len(entries) == 0 {
			return
		}

		// A bad final record reads as a torn tail.
		bad := append([]byte(nil), canon...)
		bad[len(bad)-1] ^= 0xff
		n, torn, err := countRecords(bad)
		if err != nil || !torn || n != len(entries)-1 {
			t.Fatalf("damaged final record: %d records, torn=%v, err=%v; want %d, torn", n, torn, err, len(entries)-1)
		}
		// A checksum failure with records behind it is corruption.
		if len(entries) >= 2 {
			bad = append(bad[:0], canon...)
			bad[20] ^= 0xff // the first record's stored crc
			var ce *CorruptWALError
			if _, _, err := countRecords(bad); !errors.As(err, &ce) || ce.Offset != 0 {
				t.Fatalf("mid-file crc failure: got %v, want *CorruptWALError at offset 0", err)
			}
		}
	})
}

// countRecords scans data and counts the records delivered.
func countRecords(data []byte) (n int, torn bool, err error) {
	_, torn, err = scanWAL(bytes.NewReader(data), 0, int64(len(data)), func(walEntry) error {
		n++
		return nil
	})
	return n, torn, err
}

// Package storage persists view state: one full-state codec (State,
// written by SaveAt and read by LoadAt) shared by store checkpoints,
// Views.Save and replication state records, and the managed Store — a
// directory of CRC-footed checkpoints plus one checksummed,
// epoch-stamped write-ahead log replayed on top of the newest one.
package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"ivm/internal/eval"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// castagnoli is the CRC32C table shared by snapshots, the WAL and the
// replication stream.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Platforms whose directory handles reject Sync (some network
// filesystems) report a benign error which callers may ignore; on a
// normal POSIX filesystem the sync is required for durability of the
// rename itself.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// upgradeStep is the remedy every pre-cutoff format error names.
const upgradeStep = "shut the store down cleanly with the previous release (leaving a checkpoint and an empty WAL), or re-save the file with it, then open it with this one"

// FormatError reports on-disk state written in a format this release no
// longer reads. Recovery refuses such a store and leaves every file
// untouched.
type FormatError struct {
	Path   string
	Reason string
}

func (e *FormatError) Error() string {
	return fmt.Sprintf("storage: %s: %s; %s", e.Path, e.Reason, upgradeStep)
}

// State is the full state of a views instance, and the one encoding of
// it: the stored base relations with their counts, the program text,
// the hidden-predicate set, the published version the state
// corresponds to, and the engine configuration names. Derived relations
// are not part of it — they are fixed by the base relations and the
// program, so every reader rematerializes them.
type State struct {
	// Base holds the stored base relations. A writer may pass a database
	// that also holds derived relations; they are persisted as given,
	// and readers discard them.
	Base        *eval.DB
	Program     string
	Hidden      []string
	BaseVersion uint64
	// Strategy and Semantics name the engine configuration a reader
	// must adopt for derived state to come out identical. Empty means
	// "not recorded": the reader keeps its own configuration.
	Strategy  string
	Semantics string
}

// scalar is the gob-encodable image of a value.Value.
type scalar struct {
	Kind uint8
	I    int64
	F    float64
	S    string
}

func toScalar(v value.Value) scalar {
	switch v.Kind() {
	case value.Int:
		return scalar{Kind: 0, I: v.Int()}
	case value.Float:
		return scalar{Kind: 1, F: v.Float()}
	default:
		return scalar{Kind: 2, S: v.Str()}
	}
}

func (s scalar) value() (value.Value, error) {
	switch s.Kind {
	case 0:
		return value.NewInt(s.I), nil
	case 1:
		return value.NewFloat(s.F), nil
	case 2:
		return value.NewString(s.S), nil
	default:
		return value.Value{}, fmt.Errorf("storage: unknown scalar kind %d", s.Kind)
	}
}

// row is the gob-encodable image of one counted tuple.
type row struct {
	Tuple []scalar
	Count int64
}

// snapshot is the gob image of a State.
type snapshot struct {
	Version     int
	Program     string
	Relations   map[string][]row
	Hidden      []string
	BaseVersion uint64
	Strategy    string
	Semantics   string
}

// snapshotVersion is the only snapshot version this release reads.
const snapshotVersion = 3

// SaveAt writes st to w.
func SaveAt(w io.Writer, st *State) error {
	snap := snapshot{
		Version:     snapshotVersion,
		Program:     st.Program,
		Relations:   make(map[string][]row),
		Hidden:      append([]string(nil), st.Hidden...),
		BaseVersion: st.BaseVersion,
		Strategy:    st.Strategy,
		Semantics:   st.Semantics,
	}
	for _, pred := range st.Base.Preds() {
		rel := st.Base.Get(pred)
		rows := make([]row, 0, rel.Len())
		for _, r := range rel.SortedRows() {
			t := make([]scalar, len(r.Tuple))
			for i, v := range r.Tuple {
				t[i] = toScalar(v)
			}
			rows = append(rows, row{Tuple: t, Count: r.Count})
		}
		snap.Relations[pred] = rows
	}
	return gob.NewEncoder(w).Encode(&snap)
}

// LoadAt reads a State written by SaveAt.
func LoadAt(r io.Reader) (*State, error) {
	var snap snapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("storage: decoding snapshot: %w", err)
	}
	if snap.Version < snapshotVersion {
		return nil, &FormatError{Path: "snapshot", Reason: fmt.Sprintf("snapshot version %d predates the supported version %d", snap.Version, snapshotVersion)}
	}
	if snap.Version > snapshotVersion {
		return nil, fmt.Errorf("storage: snapshot version %d was written by a newer release (this one reads version %d)", snap.Version, snapshotVersion)
	}
	db := eval.NewDB()
	for pred, rows := range snap.Relations {
		var rel *relation.Relation
		for _, rw := range rows {
			t := make(value.Tuple, len(rw.Tuple))
			for i, s := range rw.Tuple {
				v, err := s.value()
				if err != nil {
					return nil, err
				}
				t[i] = v
			}
			if rel == nil {
				rel = relation.New(len(t))
			}
			rel.Add(t, rw.Count)
		}
		if rel == nil {
			rel = relation.New(-1)
		}
		db.Put(pred, rel)
	}
	return &State{
		Base:        db,
		Program:     snap.Program,
		Hidden:      snap.Hidden,
		BaseVersion: snap.BaseVersion,
		Strategy:    snap.Strategy,
		Semantics:   snap.Semantics,
	}, nil
}

// snapFooterMagic opens the whole-file CRC32C footer every snapshot
// file ends with (`magic | crc32c(body)`).
var snapFooterMagic = [4]byte{'I', 'V', 'S', '1'}

const snapFooterSize = 8

// writeFileAtomic writes path atomically and durably: write fills a
// temp file, which is fsynced before the rename, and the parent
// directory is fsynced after it, so a crash at any point leaves either
// the old file or the complete new one — never a missing or torn one.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// SaveFileAt writes st to path atomically (see writeFileAtomic),
// followed by a checksum footer over the whole body so in-place
// corruption is detected at load time.
func SaveFileAt(path string, st *State) error {
	return writeFileAtomic(path, func(w io.Writer) error {
		h := crc32.New(castagnoli)
		if err := SaveAt(io.MultiWriter(w, h), st); err != nil {
			return err
		}
		var footer [snapFooterSize]byte
		copy(footer[:4], snapFooterMagic[:])
		binary.BigEndian.PutUint32(footer[4:], h.Sum32())
		_, err := w.Write(footer[:])
		return err
	})
}

// LoadFileAt reads a snapshot file written by SaveFileAt, checking its
// checksum footer before decoding: gob decoding alone misses in-place
// corruption that still parses, such as a flipped bit in a count. A
// file without the footer, or of an older snapshot version, predates
// the current format and fails with a *FormatError.
func LoadFileAt(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < snapFooterSize || !bytes.Equal(data[len(data)-snapFooterSize:len(data)-4], snapFooterMagic[:]) {
		return nil, &FormatError{Path: path, Reason: "snapshot has no checksum footer"}
	}
	body := data[:len(data)-snapFooterSize]
	want := binary.BigEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return nil, fmt.Errorf("storage: snapshot %s checksum mismatch (%08x != %08x)", path, got, want)
	}
	st, err := LoadAt(bytes.NewReader(body))
	if fe, ok := err.(*FormatError); ok {
		fe.Path = path
	}
	return st, err
}

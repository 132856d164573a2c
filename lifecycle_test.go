package ivm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestOnCommitObservesEveryBatch: commit handlers receive every
// committed batch's ChangeSet — stamped with its published version, in
// commit order, including batches with no visible delta.
func TestOnCommitObservesEveryBatch(t *testing.T) {
	db := NewDatabase()
	db.MustLoad(`link(a,b). link(b,c).`)
	v, err := db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seen []uint64
	v.OnCommit(func(cs *ChangeSet) {
		mu.Lock()
		seen = append(seen, cs.Version())
		mu.Unlock()
	})

	var want []uint64
	for i := 0; i < 5; i++ {
		cs, err := v.Apply(NewUpdate().
			Insert("link", fmt.Sprintf("s%d", i), fmt.Sprintf("m%d", i)).
			Insert("link", fmt.Sprintf("m%d", i), fmt.Sprintf("d%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, cs.Version())
	}
	// A no-visible-change batch still commits, publishes, and notifies.
	cs, err := v.Apply(NewUpdate().Insert("link", "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Empty() {
		t.Fatalf("re-inserting link(a,b) under set semantics should be invisible, got %v", cs)
	}
	want = append(want, cs.Version())

	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(want) {
		t.Fatalf("commit handler fired %d times, want %d", len(seen), len(want))
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("commit %d: version %d, want %d", i, seen[i], want[i])
		}
	}
}

// TestShutdownCheckpointsAndCloses: Shutdown drains, checkpoints, and
// closes the store; later writes fail with ErrStoreClosed, reads keep
// serving, recovery replays nothing, and a second Shutdown is a no-op.
func TestShutdownCheckpointsAndCloses(t *testing.T) {
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		db := NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(NewUpdate().Insert("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	v.Drain() // exercise Drain on an idle scheduler too
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v, want no-op", err)
	}
	if _, err := v.Apply(NewUpdate().Insert("link", "d", "e")); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("Apply after Shutdown: %v, want ErrStoreClosed", err)
	}
	if !v.Has("hop", "b", "d") {
		t.Fatal("reads must keep serving the final version after Shutdown")
	}

	v2, info, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if info.Replayed != 0 {
		t.Fatalf("recovery after clean Shutdown replayed %d records, want 0", info.Replayed)
	}
	if !v2.Has("hop", "b", "d") {
		t.Fatal("state lost across Shutdown + recovery")
	}
}

// TestOpenStoreReleasesRecoveredState: recovery hands the decoded
// snapshot and the replayed WAL records to the views once; the store
// keeps no reference to them, so a process that recovered from a long
// WAL does not hold every replayed script for its lifetime.
func TestOpenStoreReleasesRecoveredState(t *testing.T) {
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		db := NewDatabase()
		db.MustLoad(`link(a,b). link(b,c).`)
		return db.Materialize(`hop(X,Y) :- link(X,Z), link(Z,Y).`)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := v.Apply(NewUpdate().Insert("link", "c", fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}

	v2, info, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	if info.Replayed != 3 {
		t.Fatalf("replayed %d records, want 3", info.Replayed)
	}
	if st := v2.store.Snapshot(); st != nil {
		t.Fatal("the store still references the recovered snapshot")
	}
	if recs := v2.store.Records(); recs != nil {
		t.Fatalf("the store still references %d replayed records", len(recs))
	}
}

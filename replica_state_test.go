package ivm

import (
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ivm/internal/storage"
)

// Versions must survive a checkpoint + restart: the durable commit
// order is what replication aligns on across a primary crash.
func TestVersionsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	open := func() *Views {
		v, _, err := OpenStore(dir, func() (*Views, error) {
			d := NewDatabase()
			d.MustLoad("link(a,b).")
			return d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).")
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	v := open()
	if got := v.Snapshot().Version(); got != 1 {
		t.Fatalf("initial version = %d", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := v.Apply(NewUpdate().Insert("link", "b", i)); err != nil {
			t.Fatal(err)
		}
	}
	want := v.Snapshot().Version()
	if want != 4 {
		t.Fatalf("version after 3 applies = %d", want)
	}
	// Close without checkpointing: recovery must replay the WAL records
	// and republish their original versions.
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v = open()
	if got := v.Snapshot().Version(); got != want {
		t.Fatalf("version after WAL-replay recovery = %d, want %d", got, want)
	}

	// Checkpoint + clean shutdown: the snapshot's base version carries
	// the counter with no WAL left to replay.
	if _, err := v.Apply(NewUpdate().Insert("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	want = v.Snapshot().Version()
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	v = open()
	defer v.Shutdown()
	if got := v.Snapshot().Version(); got != want {
		t.Fatalf("version after checkpointed recovery = %d, want %d", got, want)
	}
	// And the next apply continues the sequence.
	cs, err := v.Apply(NewUpdate().Insert("link", "d", "e"))
	if err != nil {
		t.Fatal(err)
	}
	if cs.Version() != want+1 {
		t.Fatalf("post-recovery apply published %d, want %d", cs.Version(), want+1)
	}
}

// The commit-record stream must be gapless and version-ordered, carry
// scripts that reproduce each commit, and agree with the WAL tail.
func TestOnCommitRecordStream(t *testing.T) {
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		d := NewDatabase()
		d.MustLoad("link(a,b).")
		return d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Shutdown()

	var recs []CommitRecord
	v.OnCommitRecord(func(rec CommitRecord) { recs = append(recs, rec) })
	base := v.Snapshot().Version()

	if _, err := v.Apply(NewUpdate().Insert("link", "b", "c")); err != nil {
		t.Fatal(err)
	}
	// An empty net update still commits a version and a record, so the
	// version sequence followers see is gapless.
	if _, err := v.Apply(NewUpdate()); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(NewUpdate().Delete("link", "b", "c")); err != nil {
		t.Fatal(err)
	}

	if len(recs) != 3 {
		t.Fatalf("got %d commit records, want 3: %+v", len(recs), recs)
	}
	for i, rec := range recs {
		if rec.Version != base+uint64(i)+1 {
			t.Fatalf("record %d version = %d, want %d", i, rec.Version, base+uint64(i)+1)
		}
		if rec.Reset {
			t.Fatalf("record %d unexpectedly marked reset", i)
		}
		if rec.UnixNano == 0 {
			t.Fatalf("record %d has no timestamp", i)
		}
	}
	if recs[0].Script == "" || recs[1].Script != "" || recs[2].Script == "" {
		t.Fatalf("scripts: %q", []string{recs[0].Script, recs[1].Script, recs[2].Script})
	}

	// The WAL-backed backfill source returns the same records.
	tail, ok, err := v.CommittedRecordsAfter(base)
	if err != nil || !ok {
		t.Fatalf("CommittedRecordsAfter: ok=%v err=%v", ok, err)
	}
	if len(tail) != 3 {
		t.Fatalf("WAL tail has %d records, want 3", len(tail))
	}
	for i := range tail {
		if tail[i].Version != recs[i].Version || tail[i].Script != recs[i].Script {
			t.Fatalf("tail record %d = %+v, commit record = %+v", i, tail[i], recs[i])
		}
	}
	// A caught-up follower gets nothing.
	tail, _, err = v.CommittedRecordsAfter(base + 3)
	if err != nil || len(tail) != 0 {
		t.Fatalf("caught-up tail: %v, %v", tail, err)
	}
}

func TestWaitForVersion(t *testing.T) {
	d := NewDatabase()
	d.MustLoad("link(a,b).")
	v, err := d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).")
	if err != nil {
		t.Fatal(err)
	}
	cur := v.Snapshot().Version()
	if !v.WaitForVersion(cur, time.Second) {
		t.Fatal("WaitForVersion failed for the current version")
	}
	if v.WaitForVersion(cur+1, 20*time.Millisecond) {
		t.Fatal("WaitForVersion reached an unpublished version")
	}
	done := make(chan bool, 1)
	go func() { done <- v.WaitForVersion(cur+1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := v.Apply(NewUpdate().Insert("link", "b", "c")); err != nil {
		t.Fatal(err)
	}
	if !<-done {
		t.Fatal("WaitForVersion missed the publish")
	}
}

// TestReplicaStateRoundTrip drives the state codec through a
// follower's two uses of it — bootstrap and mid-stream reset — for each
// engine configuration, requiring bit-identical views every time.
func TestReplicaStateRoundTrip(t *testing.T) {
	cases := []struct {
		name    string
		build   func() (*Views, error)
		advance []*Update
	}{
		{
			name: "counting with counts",
			build: func() (*Views, error) {
				d := NewDatabase()
				d.MustLoad(`link(a,b). link(b,c). link(b,e) * 3. weight(a, 2).`)
				return d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).")
			},
			advance: []*Update{
				NewUpdate().Insert("link", "c", "d"),
				NewUpdate().Delete("link", "a", "b").Insert("link", "e", "f"),
			},
		},
		{
			name: "dred recursive with groupby",
			build: func() (*Views, error) {
				d := NewDatabase()
				d.MustLoad(`link(a,b). link(b,c). link(c,a). link(c,d).`)
				return d.Materialize(`
					reach(X,Y) :- link(X,Y).
					reach(X,Y) :- link(X,Z), reach(Z,Y).
					fanout(X,C) :- groupby(reach(X,Y), [X], C = count(Y)).
				`, WithStrategy(DRed))
			},
			advance: []*Update{
				NewUpdate().Insert("link", "d", "e"),
				NewUpdate().Delete("link", "c", "a").Insert("link", "e", "b"),
			},
		},
		{
			name: "sql with hidden predicates",
			build: func() (*Views, error) {
				return NewDatabase().MaterializeSQL(`
					CREATE TABLE link(s, d);
					INSERT INTO link VALUES ('a','b'), ('b','c'), ('a','c');
					CREATE VIEW deg(s, n) AS SELECT s, COUNT(*) AS n FROM link GROUP BY s;
				`)
			},
			advance: []*Update{
				NewUpdate().Insert("link", "b", "d"),
				NewUpdate().Delete("link", "a", "b").Insert("link", "c", "a"),
			},
		},
		{
			name: "duplicate semantics",
			build: func() (*Views, error) {
				d := NewDatabase()
				d.MustLoad(`link(a,b) * 2. link(b,c). link(b,d) * 3.`)
				return d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y).", WithSemantics(DuplicateSemantics))
			},
			advance: []*Update{
				NewUpdate().InsertTuple("link", T("c", "d"), 2),
				NewUpdate().Delete("link", "a", "b").Insert("link", "d", "a"),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			primary, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := primary.Apply(tc.advance[0]); err != nil {
				t.Fatal(err)
			}
			// Bootstrap, with a conflicting strategy among the follower's
			// own options: the state's configuration wins.
			snap := primary.Snapshot()
			data, err := snap.MarshalState()
			if err != nil {
				t.Fatal(err)
			}
			follower, err := ViewsFromState(data, WithStrategy(Recompute))
			if err != nil {
				t.Fatal(err)
			}
			if follower.Strategy() != primary.Strategy() || follower.Semantics() != primary.Semantics() {
				t.Fatalf("follower runs %v/%v, primary %v/%v",
					follower.Strategy(), follower.Semantics(), primary.Strategy(), primary.Semantics())
			}
			if fh, ph := follower.hiddenLocked(), primary.hiddenLocked(); strings.Join(fh, ",") != strings.Join(ph, ",") {
				t.Fatalf("hidden predicates: follower %v, primary %v", fh, ph)
			}
			assertViewsIdentical(t, snap, follower.Snapshot())

			// Mid-stream reset: advance the primary, reset the follower to
			// the new state.
			if _, err := primary.Apply(tc.advance[1]); err != nil {
				t.Fatal(err)
			}
			snap = primary.Snapshot()
			if data, err = snap.MarshalState(); err != nil {
				t.Fatal(err)
			}
			if err := follower.ResetToState(data); err != nil {
				t.Fatal(err)
			}
			assertViewsIdentical(t, snap, follower.Snapshot())

			// A reset under a different program must be refused.
			other, err := NewDatabase().Materialize("other(X,Y) :- link(X,Y).")
			if err != nil {
				t.Fatal(err)
			}
			if err := other.ResetToState(data); err == nil {
				t.Fatal("reset accepted a different program")
			}
		})
	}
}

// A checkpoint holds base relations only: derived ones are
// rematerialized on every load.
func TestCheckpointHoldsNoDerivedPredicates(t *testing.T) {
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		d := NewDatabase()
		d.MustLoad("link(a,b). link(b,c).")
		return d.Materialize("hop(X,Y) :- link(X,Z), link(Z,Y). tri(X,Y) :- hop(X,Z), link(Z,Y).")
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Apply(NewUpdate().Insert("link", "c", "d")); err != nil {
		t.Fatal(err)
	}
	if err := v.Shutdown(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "snapshot-*.gob"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no checkpoint written (%v)", err)
	}
	for _, path := range paths {
		st, err := storage.LoadFileAt(path)
		if err != nil {
			t.Fatal(err)
		}
		if preds := st.Base.Preds(); len(preds) != 1 || preds[0] != "link" {
			t.Fatalf("%s holds %v, want only the base relation link", filepath.Base(path), preds)
		}
	}
}

// assertViewsIdentical requires rows, counts, and version to agree
// between two snapshots across every predicate either side stores,
// hidden ones included.
func assertViewsIdentical(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if want.Version() != got.Version() {
		t.Fatalf("versions differ: %d != %d", want.Version(), got.Version())
	}
	storedPreds := func(s *Snapshot) []string {
		out := make([]string, 0, len(s.v.rels))
		for p := range s.v.rels {
			out = append(out, p)
		}
		sort.Strings(out)
		return out
	}
	wp, gp := storedPreds(want), storedPreds(got)
	if len(wp) != len(gp) {
		t.Fatalf("predicate sets differ: %v != %v", wp, gp)
	}
	for i, pred := range wp {
		if gp[i] != pred {
			t.Fatalf("predicate sets differ: %v != %v", wp, gp)
		}
		a, b := want.Rows(pred), got.Rows(pred)
		if len(a) != len(b) {
			t.Fatalf("%s: %d rows != %d rows", pred, len(a), len(b))
		}
		for j := range a {
			if !a[j].Tuple.Equal(b[j].Tuple) || a[j].Count != b[j].Count {
				t.Fatalf("%s row %d: %v*%d != %v*%d", pred, j, a[j].Tuple, a[j].Count, b[j].Tuple, b[j].Count)
			}
		}
	}
}

// Rule edits checkpoint with the about-to-publish version and announce
// a reset commit record.
func TestRuleEditVersionAndReset(t *testing.T) {
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		d := NewDatabase()
		d.MustLoad("link(a,b). link(b,c).")
		return d.Materialize("reach(X,Y) :- link(X,Y). reach(X,Y) :- link(X,Z), reach(Z,Y).",
			WithStrategy(DRed))
	}, WithStrategy(DRed))
	if err != nil {
		t.Fatal(err)
	}
	defer v.Shutdown()

	var resets []CommitRecord
	v.OnCommitRecord(func(rec CommitRecord) {
		if rec.Reset {
			resets = append(resets, rec)
		}
	})
	cs, err := v.AddRule("sym(X,Y) :- link(Y,X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(resets) != 1 || resets[0].Version != cs.Version() {
		t.Fatalf("reset records = %+v, want one at version %d", resets, cs.Version())
	}
	want := v.Snapshot().Version()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, _, err := OpenStore(dir, nil, WithStrategy(DRed))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Shutdown()
	if got := v2.Snapshot().Version(); got != want {
		t.Fatalf("version after rule-edit checkpoint recovery = %d, want %d", got, want)
	}
}

func TestSnapshotBaseVersionAccessor(t *testing.T) {
	// Sanity-check the storage plumbing end to end through Views.Sync.
	dir := t.TempDir()
	v, _, err := OpenStore(dir, func() (*Views, error) {
		d := NewDatabase()
		d.MustLoad("p(1).")
		return d.Materialize("q(X) :- p(X).")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Shutdown()
	for i := 0; i < 2; i++ {
		if _, err := v.Apply(NewUpdate().Insert("p", 10+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Sync(); err != nil {
		t.Fatal(err)
	}
	// The snapshot file on disk carries the published version.
	if _, err := filepath.Glob(filepath.Join(dir, "snapshot-*.gob")); err != nil {
		t.Fatal(err)
	}
	want := v.Snapshot().Version()
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	v2, _, err := OpenStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Shutdown()
	if got := v2.Snapshot().Version(); got != want {
		t.Fatalf("recovered version %d, want %d", got, want)
	}
}

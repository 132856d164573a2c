package ivm

// Full-state transfer. A Views travels between processes in one form,
// the state codec of internal/storage: the stored base relations with
// their counts, the program, the hidden set, the published version and
// the engine configuration. Store checkpoints, Views.Save and
// replication 'S' records all encode it, and every reader rebuilds its
// views from it through viewsFromSnapshot — derived relations are a
// function of the base relations and the program (Theorem 4.1), so they
// are never shipped.

import (
	"bytes"
	"fmt"
	"slices"

	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/storage"
)

// baseRelations returns the snapshot's stored base relations: every
// relation the program does not derive.
func (s *Snapshot) baseRelations() *eval.DB {
	derived := s.v.prog.DerivedPreds()
	db := eval.NewDB()
	for pred, vr := range s.v.rels {
		if !derived[pred] {
			db.Put(pred, vr.Flat())
		}
	}
	return db
}

// baseOnly returns the relations of db that prog does not derive.
func baseOnly(db *eval.DB, prog *datalog.Program) *eval.DB {
	derived := prog.DerivedPreds()
	out := eval.NewDB()
	for _, pred := range db.Preds() {
		if !derived[pred] {
			out.Put(pred, db.Get(pred))
		}
	}
	return out
}

// state captures the snapshot as the state codec's image.
func (s *Snapshot) state() *storage.State {
	return &storage.State{
		Base:        s.baseRelations(),
		Program:     s.v.programSrc,
		Hidden:      s.views.hiddenLocked(),
		BaseVersion: s.v.id,
		Strategy:    s.views.strategy.String(),
		Semantics:   s.views.cfg.semantics.String(),
	}
}

// MarshalState encodes the snapshot's full state with the state codec:
// the payload of a replication 'S' record, read back by ViewsFromState
// and ResetToState.
func (s *Snapshot) MarshalState() ([]byte, error) {
	var buf bytes.Buffer
	if err := storage.SaveAt(&buf, s.state()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ViewsFromState materializes fresh views from a state encoded by
// MarshalState, published at the state's version. extra options are
// applied first (parallelism, tracing, ...); the state's strategy and
// semantics are applied last, since derived state is bit-identical to
// the sender's only under the same engine configuration.
func ViewsFromState(data []byte, extra ...Option) (*Views, error) {
	st, err := storage.LoadAt(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return viewsFromSnapshot(st, extra)
}

// ResetToState replaces the views' stored base facts with those of a
// state encoded by MarshalState, wholesale, and republishes at the
// state's version — a follower's resynchronization path when it is too
// far behind to bridge with deltas. The replacement runs as one Apply
// (delete every stored base row, insert every transferred row,
// net-merged), so readers observe a single atomic step from the old
// state to the new one and the engine re-derives the views
// incrementally from the net difference. The program must be
// unchanged: a program edit changes the rule set the engine was
// compiled for, so the caller must rebuild with ViewsFromState instead.
func (v *Views) ResetToState(data []byte) error {
	st, err := storage.LoadAt(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if st.Program != v.ProgramSource() {
		return fmt.Errorf("ivm: state carries a different program; rebuild the views instead of resetting")
	}
	snap := v.Snapshot()
	u := NewUpdate()
	add := func(db *eval.DB, sign int64) {
		for _, pred := range db.Preds() {
			for _, row := range db.Get(pred).SortedRows() {
				u.InsertTuple(pred, row.Tuple, sign*row.Count)
			}
		}
	}
	add(snap.baseRelations(), -1)
	add(baseOnly(st.Base, snap.v.prog), 1)
	if _, err := v.Apply(u); err != nil {
		return fmt.Errorf("ivm: applying state reset: %w", err)
	}
	v.SeedVersion(st.BaseVersion)
	return nil
}

// viewsFromSnapshot rematerializes views from a decoded state — the one
// path recovery, LoadViews and replication followers share. The
// non-derived relations seed a fresh database, the program is
// materialized over them with opts followed by the state's recorded
// engine configuration, and the result is published at the state's
// version.
func viewsFromSnapshot(st *storage.State, opts []Option) (*Views, error) {
	cfgOpts, err := stateConfigOptions(st)
	if err != nil {
		return nil, err
	}
	res, err := parser.Parse(st.Program)
	if err != nil {
		return nil, err
	}
	d := &Database{base: baseOnly(st.Base, res.Program)}
	v, err := d.MaterializeProgram(res.Program, st.Program, append(append([]Option(nil), opts...), cfgOpts...)...)
	if err != nil {
		return nil, err
	}
	if len(st.Hidden) > 0 {
		v.hidden = make(map[string]bool, len(st.Hidden))
		for _, p := range st.Hidden {
			v.hidden[p] = true
		}
	}
	if st.BaseVersion > v.cur.Load().id {
		v.SeedVersion(st.BaseVersion)
	}
	return v, nil
}

// stateConfigOptions maps a state's recorded engine configuration names
// back to options. Empty names were not recorded and map to nothing.
func stateConfigOptions(st *storage.State) ([]Option, error) {
	var opts []Option
	if st.Strategy != "" {
		i := slices.IndexFunc(strategies, func(s Strategy) bool { return s.String() == st.Strategy })
		if i < 0 {
			return nil, fmt.Errorf("ivm: state names unknown strategy %q", st.Strategy)
		}
		opts = append(opts, WithStrategy(strategies[i]))
	}
	if st.Semantics != "" {
		i := slices.IndexFunc(semanticsAll, func(s Semantics) bool { return s.String() == st.Semantics })
		if i < 0 {
			return nil, fmt.Errorf("ivm: state names unknown semantics %q", st.Semantics)
		}
		opts = append(opts, WithSemantics(semanticsAll[i]))
	}
	return opts, nil
}

// strategies and semanticsAll list the configurations a state may name.
var (
	strategies   = []Strategy{Counting, DRed, Recompute, PF}
	semanticsAll = []Semantics{SetSemantics, DuplicateSemantics}
)

// CommittedRecordsAfter returns the WAL-backed commit records stamped
// with versions greater than fromExcl, in version order — the
// replication backfill source when a follower's resume point has aged
// out of the in-memory window. ok is false for views without a store
// (nothing durable to read). The caller must check the returned
// sequence is contiguous from its resume point and fall back to a full
// state transfer when it is not.
func (v *Views) CommittedRecordsAfter(fromExcl uint64) (recs []CommitRecord, ok bool, err error) {
	v.wmu.Lock()
	st := v.store
	v.wmu.Unlock()
	if st == nil {
		return nil, false, nil
	}
	wrecs, err := st.TailRecords(fromExcl)
	if err != nil {
		return nil, true, err
	}
	for _, r := range wrecs {
		recs = append(recs, CommitRecord{Version: r.Version, Script: r.Script, Keys: r.Keys})
	}
	return recs, true, nil
}

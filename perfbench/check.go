package main

import (
	"fmt"
	"sort"
	"time"

	"ivm"
	"ivm/internal/relation"
	"ivm/internal/value"
)

// finalBase is the edge set the acked applies imply: the initial edges,
// with every edge an apply connection changed set to its last acked
// state.
func finalBase(in *inputs, conns []*conn) map[string]value.Tuple {
	want := map[string]value.Tuple{}
	in.base.Each(func(r relation.Row) { want[edit{a: r.Tuple[0], b: r.Tuple[1]}.key()] = r.Tuple })
	for _, k := range conns {
		for key, last := range k.last {
			if last.ins {
				want[key] = last.tuple()
			} else {
				delete(want, key)
			}
		}
	}
	return want
}

func rowMap(rows []ivm.Row) map[string]int64 {
	m := make(map[string]int64, len(rows))
	for _, r := range rows {
		m[r.Tuple.String()] = r.Count
	}
	return m
}

func diffRows(what string, got, want []ivm.Row) error {
	g, w := rowMap(got), rowMap(want)
	var bad []string
	for k, c := range w {
		if g[k] != c {
			bad = append(bad, fmt.Sprintf("%s: got count %d, want %d", k, g[k], c))
		}
	}
	for k, c := range g {
		if _, ok := w[k]; !ok {
			bad = append(bad, fmt.Sprintf("%s: got count %d, want absent", k, c))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	if len(bad) > 3 {
		bad = append(bad[:3], fmt.Sprintf("and %d more", len(bad)-3))
	}
	return fmt.Errorf("%s differs: %v", what, bad)
}

// checkState is the correctness gate on the final state: the primary's
// base rows are the ones the acked applies imply, and every derived
// relation equals a fresh materialization of the program over them,
// rows and counts both. With a follower, the follower equals the
// primary at the same version, relation by relation.
func checkState(in *inputs, st *stack, conns []*conn) error {
	snap := st.views.Snapshot()
	want := finalBase(in, conns)
	db := ivm.NewDatabase()
	for _, t := range want {
		db.InsertTuple("edge", t, 1)
	}
	fresh, err := db.Materialize(in.spec.program, ivm.WithStrategy(in.spec.strategy))
	if err != nil {
		return fmt.Errorf("fresh materialization: %w", err)
	}
	defer fresh.Close()
	if err := diffRows("base edge", snap.Rows("edge"), fresh.Rows("edge")); err != nil {
		return err
	}
	for _, pred := range fresh.Snapshot().Preds() {
		if pred == "edge" {
			continue
		}
		if err := diffRows("derived "+pred, snap.Rows(pred), fresh.Rows(pred)); err != nil {
			return err
		}
	}
	if st.fviews == nil {
		return nil
	}
	if err := st.waitFollower(10 * time.Second); err != nil {
		return err
	}
	fsnap := st.fviews.Snapshot()
	if fsnap.Version() != snap.Version() {
		return fmt.Errorf("follower at version %d, primary at %d", fsnap.Version(), snap.Version())
	}
	for _, pred := range snap.Preds() {
		if err := diffRows("follower "+pred, fsnap.Rows(pred), snap.Rows(pred)); err != nil {
			return err
		}
	}
	return nil
}

// checkStream checks that the subscriber saw every acked version that
// changed a view exactly once, in order, and nothing else.
func checkStream(acks []timedApply, got []seen, streamErr error) error {
	if streamErr != nil {
		return fmt.Errorf("subscription ended: %w", streamErr)
	}
	want := map[uint64]bool{}
	for _, a := range acks {
		if a.visible {
			want[a.version] = true
		}
	}
	var last uint64
	for _, s := range got {
		if s.version <= last {
			return fmt.Errorf("subscriber saw version %d after %d", s.version, last)
		}
		last = s.version
		if !want[s.version] {
			return fmt.Errorf("subscriber saw version %d, which no acked apply that changed a view carried", s.version)
		}
		delete(want, s.version)
	}
	if len(want) > 0 {
		var missing []uint64
		for v := range want {
			missing = append(missing, v)
		}
		sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
		return fmt.Errorf("subscriber missed %d acked versions, first %d", len(missing), missing[0])
	}
	return nil
}

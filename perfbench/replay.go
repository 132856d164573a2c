package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"ivm"
	"ivm/internal/core/counting"
	"ivm/internal/core/dred"
	"ivm/internal/datalog"
	"ivm/internal/eval"
	"ivm/internal/parser"
	"ivm/internal/relation"
	"ivm/internal/storage"
	"ivm/internal/value"
)

// layerReplays replays the workload's delta stream through one layer's
// public functions at a time, each layer on its own.
func layerReplays(m map[string]metric, in *inputs, nproc int, dir string) error {
	prog, err := parser.ParseRules(in.spec.program)
	if err != nil {
		return err
	}
	replayParser(m, in)
	cdb, cview, cdeltas, err := replayCounting(m, in, prog)
	if err != nil {
		return err
	}
	ddb, dview, ddeltas, err := replayDRed(m, in, prog)
	if err != nil {
		return err
	}
	// The relation probes and the checkpoint use the engine the workload
	// runs on.
	db, view, deltas := cdb, cview, cdeltas
	if in.spec.strategy == ivm.DRed {
		db, view, deltas = ddb, dview, ddeltas
	}
	replayRelation(m, in, view, deltas)
	replayRepl(m, in)
	return errors.Join(replayStorage(m, in, filepath.Join(dir, "wal"), db), replayViews(m, in, nproc))
}

// timeLoop runs pass until it has run at least minRuns times and for
// at least minDur, and returns the mean time per op, where one pass
// performs ops ops, and the heap allocations per op.
func timeLoop(ops int, minRuns int, minDur time.Duration, pass func()) (nsPerOp, allocsPerOp float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	runs := 0
	for runs < minRuns || time.Since(start) < minDur {
		pass()
		runs++
	}
	el := time.Since(start)
	runtime.ReadMemStats(&m1)
	n := float64(runs * ops)
	return float64(el.Nanoseconds()) / n, float64(m1.Mallocs-m0.Mallocs) / n
}

func replayParser(m map[string]metric, in *inputs) {
	var ts []float64
	start := time.Now()
	for len(ts) < 5000 || time.Since(start) < 200*time.Millisecond {
		for _, o := range in.stream {
			s := o.script()
			t0 := time.Now()
			if _, err := ivm.ParseUpdate(s); err != nil {
				panic(err) // generated scripts always parse
			}
			ts = append(ts, us(time.Since(t0)))
		}
	}
	m["parser.update_us"] = metric{median(ts), "us"}
}

func baseDB(in *inputs) *eval.DB {
	db := eval.NewDB()
	db.Put("edge", in.base.Clone())
	return db
}

// engineReplay applies the stream through apply one op at a time and
// returns the per-apply times and allocations, and the committed delta
// of view after each apply.
func engineReplay(in *inputs, view string, apply func(map[string]*relation.Relation) error, committed func() map[string]*relation.Relation) (times []time.Duration, allocs float64, deltas []*relation.Relation, err error) {
	var a, b runtime.MemStats
	var mallocs uint64
	for _, o := range in.stream {
		d := o.delta()
		runtime.ReadMemStats(&a)
		t0 := time.Now()
		err := apply(d)
		dt := time.Since(t0)
		runtime.ReadMemStats(&b)
		if err != nil {
			return nil, 0, nil, err
		}
		times = append(times, dt)
		mallocs += b.Mallocs - a.Mallocs
		if c := committed()[view]; c != nil {
			deltas = append(deltas, c.Clone())
		}
	}
	return times, float64(mallocs) / float64(len(in.stream)), deltas, nil
}

// replayCounting runs counting.Engine.Apply over an eval.DB built like
// the workload. The recursive workload's program is counted with
// duplicate semantics, the regime in which counting admits recursion.
func replayCounting(m map[string]metric, in *inputs, prog *datalog.Program) (*eval.DB, *relation.Relation, []*relation.Relation, error) {
	cfg := counting.Config{Semantics: eval.Set}
	if in.spec.strategy == ivm.DRed {
		cfg = counting.Config{Semantics: eval.Duplicate, AllowRecursion: true}
	}
	eng, err := counting.NewWithConfig(prog, baseDB(in), cfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("counting replay: %w", err)
	}
	view := eng.Relation(in.spec.view).Clone()
	var tuples int
	times, allocs, deltas, err := engineReplay(in, in.spec.view, func(d map[string]*relation.Relation) error {
		_, err := eng.Apply(d)
		tuples += eng.Stats().DeltaTuples
		return err
	}, eng.CommittedDeltas)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("counting replay: %w", err)
	}
	var t []float64
	for _, d := range times {
		t = append(t, us(d))
	}
	m["counting.apply_p50_us"] = metric{median(t), "us"}
	m["counting.delta_tuples_per_apply"] = metric{float64(tuples) / float64(len(times)), "count"}
	m["counting.allocs_per_apply"] = metric{allocs, "count"}
	return eng.DB(), view, deltas, nil
}

// replayDRed runs dred.Engine.Apply over an eval.DB built like the
// workload.
func replayDRed(m map[string]metric, in *inputs, prog *datalog.Program) (*eval.DB, *relation.Relation, []*relation.Relation, error) {
	eng, err := dred.NewWithConfig(prog, baseDB(in), dred.Config{})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dred replay: %w", err)
	}
	view := eng.Relation(in.spec.view).Clone()
	var over, rounds, netDel int
	times, _, deltas, err := engineReplay(in, in.spec.view, func(d map[string]*relation.Relation) error {
		ch, err := eng.Apply(d)
		if err != nil {
			return err
		}
		st := eng.Stats()
		over += st.Overestimated
		rounds += st.FixpointRounds
		for _, r := range ch.Del {
			netDel += r.Len()
		}
		return nil
	}, eng.CommittedDeltas)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("dred replay: %w", err)
	}
	var t []float64
	for _, d := range times {
		t = append(t, ms(d))
	}
	n := float64(len(times))
	m["dred.apply_p50_ms"] = metric{quantile(t, 0.5), "ms"}
	m["dred.apply_p99_ms"] = metric{quantile(t, 0.99), "ms"}
	m["dred.overestimated_per_apply"] = metric{float64(over) / n, "count"}
	m["dred.rounds_per_apply"] = metric{float64(rounds) / n, "count"}
	m["dred.useful_ratio"] = metric{float64(netDel) / float64(max(over, 1)), "ratio"}
	return eng.DB(), view, deltas, nil
}

// replayRelation times relation.Relation.Add on the stream's base
// tuples, Count point lookups on the view, and Versioned.Push of the
// view's committed deltas.
func replayRelation(m map[string]metric, in *inputs, view *relation.Relation, deltas []*relation.Relation) {
	type change struct {
		t value.Tuple
		c int64
	}
	var changes []change
	for _, o := range in.stream {
		for _, e := range o.edits {
			changes = append(changes, change{e.tuple(), e.count()})
		}
	}
	// The stream, then its inverse in reverse order: each pass ends in
	// the state it started from.
	for i := len(changes) - 1; i >= 0; i-- {
		changes = append(changes, change{changes[i].t, -changes[i].c})
	}
	r := in.base.Clone()
	ns, allocs := timeLoop(len(changes), 3, 200*time.Millisecond, func() {
		for _, ch := range changes {
			r.Add(ch.t, ch.c)
		}
	})
	m["relation.add_ns"] = metric{ns, "ns"}
	m["relation.add_allocs"] = metric{allocs, "count"}

	rows := view.SortedRows()
	rng := rand.New(rand.NewSource(in.seed))
	probes := make([]value.Tuple, 1024)
	for i := range probes {
		probes[i] = rows[rng.Intn(len(rows))].Tuple
	}
	var sink int64
	ns, allocs = timeLoop(len(probes), 3, 200*time.Millisecond, func() {
		for _, t := range probes {
			sink += view.Count(t)
		}
	})
	if sink == 0 {
		panic("probes of stored rows found nothing")
	}
	m["relation.count_ns"] = metric{ns, "ns"}
	m["relation.count_allocs"] = metric{allocs, "count"}

	var pushes, flattens []float64
	v := relation.NewVersioned(view.Clone())
	for _, d := range deltas {
		if d.Empty() {
			continue
		}
		t0 := time.Now()
		nv := v.Push(d)
		dt := time.Since(t0)
		pushes = append(pushes, us(dt))
		if nv.Depth() == 0 {
			flattens = append(flattens, ms(dt))
		}
		v = nv
	}
	m["relation.push_p50_us"] = metric{median(pushes), "us"}
	m["relation.flatten_ms"] = metric{median(flattens), "ms"}
	m["relation.flattens_per_1k"] = metric{1000 * float64(len(flattens)) / float64(len(pushes)), "count"}
}

// idemKey is a key of the length the client's generated
// idempotency keys have.
func idemKey(i int) string { return fmt.Sprintf("%032x", i) }

// replayStorage times storage.Store appends with the group-commit wait
// on the stream's scripts, and checkpoints of the workload's database.
func replayStorage(m map[string]metric, in *inputs, dir string, db *eval.DB) error {
	s, err := storage.OpenStore(dir, storage.StoreOptions{GroupCommit: true})
	if err != nil {
		return err
	}
	var appends, waits []float64
	n := min(len(in.stream), 300)
	for i, o := range in.stream[:n] {
		script := o.script()
		t0 := time.Now()
		wait, err := s.AppendVersionedAsync(uint64(i+2), script, []string{idemKey(i)})
		t1 := time.Now()
		if err == nil {
			err = wait()
		}
		t2 := time.Now()
		if err != nil {
			s.Close()
			return fmt.Errorf("storage replay: %w", err)
		}
		appends = append(appends, us(t1.Sub(t0)))
		waits = append(waits, us(t2.Sub(t1)))
	}
	var cps []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := s.CheckpointAt(db, in.spec.program, nil, uint64(n+1)); err != nil {
			s.Close()
			return fmt.Errorf("storage replay: %w", err)
		}
		cps = append(cps, ms(time.Since(t0)))
	}
	if err := s.Close(); err != nil {
		return err
	}
	m["storage.append_us"] = metric{median(appends), "us"}
	m["storage.fsync_p50_us"] = metric{quantile(waits, 0.5), "us"}
	m["storage.fsync_p99_us"] = metric{quantile(waits, 0.99), "us"}
	m["storage.checkpoint_ms"] = metric{median(cps), "ms"}
	return nil
}

// replayRepl times the replication record codec on the stream.
func replayRepl(m map[string]metric, in *inputs) {
	recs := make([]storage.ReplRecord, len(in.stream))
	now := time.Now().UnixNano()
	for i, o := range in.stream {
		recs[i] = storage.ReplRecord{Kind: storage.ReplKindDelta, Epoch: 1, Version: uint64(i + 2), UnixNano: now, Script: o.script(), Keys: []string{idemKey(i)}}
	}
	var all []byte
	for _, r := range recs {
		var err error
		if all, err = storage.AppendReplRecord(all, r); err != nil {
			panic(err) // generated records always encode
		}
	}
	buf := make([]byte, 0, 256)
	ns, _ := timeLoop(len(recs), 3, 200*time.Millisecond, func() {
		for _, r := range recs {
			buf, _ = storage.AppendReplRecord(buf[:0], r)
		}
	})
	m["repl.encode_ns"] = metric{ns, "ns"}
	m["repl.bytes_per_record"] = metric{float64(len(all)) / float64(len(recs)), "B"}
	ns, _ = timeLoop(len(recs), 3, 200*time.Millisecond, func() {
		br := bufio.NewReader(bytes.NewReader(all))
		for range recs {
			if _, err := storage.ReadReplRecord(br); err != nil {
				panic(err)
			}
		}
	})
	m["repl.decode_ns"] = metric{ns, "ns"}
}

// replayViews times in-process Views.Apply (no store, no HTTP) on the
// stream: one caller for the per-apply latency, then nproc concurrent
// callers, each owning a disjoint set of edges, for the scheduler's
// coalescing and queue wait.
func replayViews(m map[string]metric, in *inputs, nproc int) error {
	v, err := in.database().Materialize(in.spec.program, ivm.WithStrategy(in.spec.strategy))
	if err != nil {
		return err
	}
	ups := make([]*ivm.Update, len(in.stream))
	for i, o := range in.stream {
		if ups[i], err = ivm.ParseUpdate(o.script()); err != nil {
			return err
		}
	}
	var lat []float64
	for _, u := range ups {
		t0 := time.Now()
		if _, err := v.Apply(u); err != nil {
			return fmt.Errorf("views replay: %w", err)
		}
		lat = append(lat, us(time.Since(t0)))
	}
	m["views.apply_p50_us"] = metric{quantile(lat, 0.5), "us"}
	m["views.apply_p99_us"] = metric{quantile(lat, 0.99), "us"}
	v.Close()

	tr := newPassTracker(newRecorder(), "replay")
	v, err = in.database().Materialize(in.spec.program, ivm.WithStrategy(in.spec.strategy), ivm.WithTracer(tr.tracer()))
	if err != nil {
		return err
	}
	defer v.Close()
	tr.reset()
	v.OnCommit(tr.onCommit)
	type submitted struct {
		at      time.Time
		version uint64
	}
	parts := partition(in.stream, nproc)
	subs := make([][]submitted, nproc)
	errs := make([]error, nproc)
	var wg sync.WaitGroup
	for g := range parts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, o := range parts[g] {
				u, err := ivm.ParseUpdate(o.script())
				if err != nil {
					errs[g] = err
					return
				}
				t0 := time.Now()
				cs, err := v.Apply(u)
				if err != nil {
					errs[g] = err
					return
				}
				subs[g] = append(subs[g], submitted{t0, cs.Version()})
			}
		}(g)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("scheduler replay: %w", err)
	}
	var waits []float64
	versions := map[uint64]bool{}
	n := 0
	tr.mu.Lock()
	for _, ss := range subs {
		for _, s := range ss {
			n++
			versions[s.version] = true
			if st, ok := tr.started[s.version]; ok {
				waits = append(waits, us(st.Sub(s.at)))
			}
		}
	}
	tr.mu.Unlock()
	m["sched.coalesce_ratio"] = metric{float64(n) / float64(len(versions)), "ratio"}
	m["sched.wait_p50_us"] = metric{median(waits), "us"}
	return nil
}

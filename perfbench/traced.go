package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"ivm"
)

// tracedRun reports the per-layer metrics: an untraced pass and a traced
// pass of the same workload and seed, half the run each (their apply
// p50s give the tracing overhead), the traced pass's spans and counter
// deltas, a replication replay, and the layer replays.
func tracedRun(o options, in *inputs, nproc int, dir string) (*result, error) {
	half := time.Duration(o.seconds) * time.Second / 2
	if half < time.Second {
		half = time.Second
	}
	m := map[string]metric{}

	st, err := startStack(filepath.Join(dir, "untraced"), in, nil)
	if err != nil {
		return nil, err
	}
	pu, err := measure(in, st, nil, half)
	if serr := st.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	rec := newRecorder()
	st, err = startStack(filepath.Join(dir, "traced"), in, rec)
	if err != nil {
		return nil, err
	}
	before := st.views.Metrics()
	pt, err := measure(in, st, rec, half)
	if err != nil {
		st.stop()
		return nil, err
	}
	after := st.views.Metrics()
	servedMetrics(m, pt, st, rec, before, after)
	untracedP50 := quantile(pu.applyLat(), 0.5)
	m["bench.trace_overhead_pct"] = metric{100 * (quantile(pt.applyLat(), 0.5) - untracedP50) / untracedP50, "pct"}
	m["bench.gen_late_p99_ms"] = metric{quantile(pu.l.late, 0.99), "ms"}

	replErr := replicationReplay(m, in, st, pt.l.applyConns)
	if serr := st.stop(); replErr == nil {
		replErr = serr
	}
	path := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", in.spec.name, in.seed))
	if werr := rec.write(path); werr != nil && replErr == nil {
		replErr = werr
	}
	replayErr := layerReplays(m, in, nproc, filepath.Join(dir, "replay"))

	res := &result{
		Correct:   pu.checkErr == nil && pt.checkErr == nil,
		Attempted: pu.l.attempted + pt.l.attempted,
		Failed:    pu.l.failed + pt.l.failed,
		Metrics:   m,
	}
	return res, errors.Join(replErr, replayErr)
}

// servedMetrics derives the per-layer metrics of the traced served
// pass: self times of the client spans, hub fan-out, the slow-apply
// attribution, and the engine and storage counters per apply.
func servedMetrics(m map[string]metric, p *passResult, st *stack, rec *recorder, before, after ivm.MetricsSnapshot) {
	spans := rec.link()
	children := map[uint64][]span{}
	var reads []float64
	for _, s := range spans {
		switch {
		case s.Name == "client.read":
			reads = append(reads, us(s.dur()))
		case s.Name == "primary.engine.batch" || s.Name == "primary.views.commit":
			children[s.Req] = append(children[s.Req], s)
		}
	}
	clientSpan := func(a timedApply) span {
		return span{Name: "client.apply", Start: a.start.Sub(rec.t0).Nanoseconds(), End: a.end.Sub(rec.t0).Nanoseconds(), Req: a.version}
	}
	var self []float64
	for _, a := range p.l.open {
		self = append(self, us(selfTime(clientSpan(a), children[a.version])))
	}
	m["server.apply_self_us"] = metric{median(self), "us"}
	m["server.read_self_us"] = metric{median(reads), "us"}

	// Fan-out: from the commit hook on the subscribed node to receipt.
	got, _ := p.l.sub.snapshot()
	var fan []float64
	for _, s := range got {
		if t, ok := st.readTracker().commitTime(s.version); ok {
			fan = append(fan, us(s.at.Sub(t)))
		}
	}
	m["hub.fanout_p50_us"] = metric{median(fan), "us"}

	// Attribution of the applies above the pass's apply p99: the share
	// whose largest part is the views.commit span (versioned push and
	// flatten, WAL append and fsync wait, publish), and the share whose
	// version falls in the most common residue mod 32, the chain depth
	// at which Versioned.Push flattens.
	lat := p.applyLat()
	p99 := quantile(append([]float64(nil), lat...), 0.99)
	var slow, commitLed int
	phase := map[uint64]int{}
	for _, a := range p.l.open {
		if ms(a.end.Sub(a.due)) <= p99 {
			continue
		}
		slow++
		phase[a.version%32]++
		best, bestDur := "client.self", selfTime(clientSpan(a), children[a.version])
		for _, c := range children[a.version] {
			if c.dur() > bestDur {
				best, bestDur = c.Name, c.dur()
			}
		}
		if strings.HasSuffix(best, "views.commit") {
			commitLed++
		}
	}
	modal := 0
	for _, n := range phase {
		modal = max(modal, n)
	}
	m["bench.slow_commit_share"] = metric{float64(commitLed) / float64(max(slow, 1)), "ratio"}
	m["bench.slow_phase32_share"] = metric{float64(modal) / float64(max(slow, 1)), "ratio"}

	delta := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	applies := delta("sched_batch_updates_total")
	m["eval.probes_per_apply"] = metric{delta("eval_join_probes_total") / applies, "count"}
	m["eval.scans_per_apply"] = metric{delta("eval_join_scans_total") / applies, "count"}
	hits, misses := delta("planner_hits_total"), delta("planner_misses_total")
	m["eval.plan_hit_rate"] = metric{hits / (hits + misses), "ratio"}
	m["storage.fsyncs_per_apply"] = metric{delta("storage_wal_fsyncs_total") / applies, "count"}
	m["storage.wal_bytes_per_apply"] = metric{delta("storage_wal_append_bytes_total") / applies, "B"}
}

// replicationReplay times the replication layer on the workload's
// stream: applies go to the primary in-process (no HTTP client), each
// once the follower has applied the one before, and each version is
// timed from the primary's commit hook to the follower's (lag) and from
// the start of the follower's maintenance pass to its commit hook
// (follower apply). Workloads without a follower get one for the
// replay.
func replicationReplay(m map[string]metric, in *inputs, st *stack, conns []*conn) error {
	if st.fsrv == nil {
		if err := st.startFollower(st.primary.rec); err != nil {
			return err
		}
	}
	const n = 200
	k := conns[0]
	var versions []uint64
	for i := 0; i < n; i++ {
		o := k.next()
		cs, err := st.views.ApplyScript(o.script())
		if err != nil {
			return fmt.Errorf("replication replay: %w", err)
		}
		k.acked(o)
		versions = append(versions, cs.Version())
		if err := st.waitFollower(10 * time.Second); err != nil {
			return err
		}
	}
	var lag, apply []float64
	for _, v := range versions {
		pt, ok1 := st.primary.commitTime(v)
		ft, ok2 := st.follower.commitTime(v)
		if !ok1 || !ok2 {
			continue
		}
		lag = append(lag, ms(ft.Sub(pt)))
		st.follower.mu.Lock()
		if s, ok := st.follower.started[v]; ok {
			apply = append(apply, us(ft.Sub(s)))
		}
		st.follower.mu.Unlock()
	}
	m["replica.lag_p50_ms"] = metric{quantile(lag, 0.5), "ms"}
	m["replica.lag_p99_ms"] = metric{quantile(lag, 0.99), "ms"}
	m["replica.apply_us"] = metric{median(apply), "us"}
	return checkState(in, st, conns)
}

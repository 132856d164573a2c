package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"ivm"
)

// span is one timed interval of the traced run. Req is the version an
// apply was acknowledged at, so server-side spans join the client span
// of the apply they served; Parent is resolved through it when the
// spans are written out.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of a traced run in memory.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name string, start, end time.Time, req uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Parent: -1, Req: req})
	return len(r.spans) - 1
}

func (r *recorder) setReq(i int, req uint64) {
	r.mu.Lock()
	r.spans[i].Req = req
	r.mu.Unlock()
}

func (r *recorder) setParent(i, parent int) {
	r.mu.Lock()
	r.spans[i].Parent = parent
	r.mu.Unlock()
}

// link sets the parent of each server-side span that has none to the
// client span with the same request id.
func (r *recorder) link() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	client := map[uint64]int{}
	for i, s := range r.spans {
		if s.Name == "client.apply" && s.Req != 0 {
			if _, ok := client[s.Req]; !ok {
				client[s.Req] = i
			}
		}
	}
	for i := range r.spans {
		s := &r.spans[i]
		if s.Parent >= 0 || s.Req == 0 || s.Name == "client.apply" || s.Name == "client.read" {
			continue
		}
		if p, ok := client[s.Req]; ok {
			s.Parent = p
		}
	}
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	spans := r.link()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pass is one engine maintenance pass seen through the tracer.
type pass struct {
	start, done time.Time
	spans       []int
}

// passTracker turns one Views' tracer callbacks and commit hook into
// spans: <node>.engine.batch and <node>.engine.stratum for the engine's
// maintenance pass, and <node>.views.commit from the end of the pass to
// the commit hook, which covers the versioned push of the committed
// deltas, the WAL append and group-commit wait, and the publish. Passes
// run one at a time on the maintainer goroutine and a batch's commit
// hooks fire in pass order after all its passes ran, so a FIFO pairs
// each pass with the version it committed.
type passTracker struct {
	rec  *recorder
	node string

	mu      sync.Mutex
	cur     pass
	pending []pass
	commit  map[uint64]time.Time // version → commit hook time
	started map[uint64]time.Time // version → start of its pass
}

func newPassTracker(rec *recorder, node string) *passTracker {
	return &passTracker{rec: rec, node: node, commit: map[uint64]time.Time{}, started: map[uint64]time.Time{}}
}

func (p *passTracker) tracer() ivm.Tracer {
	return &ivm.FuncTracer{
		OnBatchStart: func(string, int) {
			p.mu.Lock()
			p.cur = pass{start: time.Now()}
			p.mu.Unlock()
		},
		OnStratumDone: func(_ int, d time.Duration) {
			now := time.Now()
			i := p.rec.add(p.node+".engine.stratum", now.Add(-d), now, 0)
			p.mu.Lock()
			p.cur.spans = append(p.cur.spans, i)
			p.mu.Unlock()
		},
		OnBatchDone: func(time.Duration, int) {
			now := time.Now()
			p.mu.Lock()
			defer p.mu.Unlock()
			p.cur.done = now
			b := p.rec.add(p.node+".engine.batch", p.cur.start, now, 0)
			for _, i := range p.cur.spans {
				p.rec.setParent(i, b)
			}
			p.cur.spans = append(p.cur.spans, b)
			p.pending = append(p.pending, p.cur)
		},
	}
}

// reset drops passes that will never commit, such as the initial
// materialization.
func (p *passTracker) reset() {
	p.mu.Lock()
	p.pending = nil
	p.mu.Unlock()
}

func (p *passTracker) onCommit(cs *ivm.ChangeSet) {
	now := time.Now()
	v := cs.Version()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.commit[v] = now
	if len(p.pending) == 0 {
		return
	}
	ps := p.pending[0]
	p.pending = p.pending[1:]
	p.started[v] = ps.start
	for _, i := range ps.spans {
		p.rec.setReq(i, v)
	}
	p.rec.add(p.node+".views.commit", ps.done, now, v)
}

func (p *passTracker) commitTime(v uint64) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.commit[v]
	return t, ok
}

// selfTime returns parent's duration minus the part of it that its
// child spans cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), int64(-1<<62)
	for _, x := range ivs {
		if x.a > end {
			covered += x.b - x.a
			end = x.b
		} else if x.b > end {
			covered += x.b - end
			end = x.b
		}
	}
	return parent.dur() - time.Duration(covered)
}

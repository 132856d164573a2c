package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ivm/client"
)

// conn is one request connection: its own HTTP transport limited to a
// single TCP connection, and, for an apply connection, the cyclic op
// sequence over the edges it owns.
type conn struct {
	c   *client.Client
	tr  *http.Transport
	ops []op
	pos int
	// last holds, per owned edge this connection has changed, its last
	// acked edit.
	last map[string]edit
}

func newConn(base string, ops []op) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{c: client.New(base, &http.Client{Transport: tr}), tr: tr, ops: ops, last: map[string]edit{}}
}

func (k *conn) close() { k.tr.CloseIdleConnections() }

// next is the connection's next op.
func (k *conn) next() op { return k.ops[k.pos%len(k.ops)] }

// acked records that o, the connection's next op, was applied.
func (k *conn) acked(o op) {
	k.pos++
	for _, e := range o.edits {
		k.last[e.key()] = e
	}
}

// applyOne sends the connection's next op; on an ack it advances.
func (k *conn) applyOne(ctx context.Context) (*client.ApplyResult, error) {
	o := k.next()
	res, err := k.c.Apply(ctx, o.script())
	if err != nil {
		return nil, err
	}
	k.acked(o)
	return res, nil
}

// timedApply is one acked apply with its timing: due is when it was due
// to be sent (the send time in a closed loop).
type timedApply struct {
	due, start, end time.Time
	version         uint64
	visible         bool
}

// load is one measured pass over a running stack.
type load struct {
	in  *inputs
	st  *stack
	rec *recorder // nil when untraced

	applyConns []*conn
	readConn   *conn
	// lastAck is the highest version any apply was acknowledged at: the
	// min_version of read-your-writes reads on the follower.
	lastAck atomic.Uint64

	mu       sync.Mutex
	acks     []timedApply // every ack, warm-up included
	measured bool
	// Measured samples.
	open      []timedApply // open-loop (or fixed-order) applies
	readLat   []float64    // ms
	late      []float64    // ms the open-loop generator sent after due
	closedN   int
	closedDur time.Duration
	attempted int
	failed    int
	errs      []error

	sub *subscriber
}

func newLoad(in *inputs, st *stack, rec *recorder) *load {
	l := &load{in: in, st: st, rec: rec}
	for _, ops := range in.conns {
		l.applyConns = append(l.applyConns, newConn(st.srv.URL(), ops))
	}
	l.readConn = newConn(st.readURL(), nil)
	return l
}

func (l *load) close() {
	for _, k := range l.applyConns {
		k.close()
	}
	l.readConn.close()
}

func (l *load) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.measured {
		l.attempted++
		l.failed++
	}
	if len(l.errs) < 8 {
		l.errs = append(l.errs, err)
	}
}

// apply sends one op on connection k and records the ack.
func (l *load) apply(ctx context.Context, k *conn, due time.Time, open bool) {
	start := time.Now()
	if due.IsZero() {
		due = start
	}
	res, err := k.applyOne(ctx)
	end := time.Now()
	if err != nil {
		l.fail(fmt.Errorf("apply: %w", err))
		return
	}
	for {
		cur := l.lastAck.Load()
		if res.Version <= cur || l.lastAck.CompareAndSwap(cur, res.Version) {
			break
		}
	}
	ta := timedApply{due: due, start: start, end: end, version: res.Version, visible: len(res.Deltas) > 0}
	if l.rec != nil {
		l.rec.add("client.apply", start, end, res.Version)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.acks = append(l.acks, ta)
	if !l.measured {
		return
	}
	l.attempted++
	if open {
		l.open = append(l.open, ta)
	} else {
		l.closedN++
	}
}

// read sends goal i on the read connection.
func (l *load) read(ctx context.Context, i int, due time.Time) {
	g := l.in.goals[i%len(l.in.goals)]
	ro := client.ReadOptions{}
	if l.in.spec.follower {
		ro.MinVersion = l.lastAck.Load()
	}
	start := time.Now()
	var err error
	var ver uint64
	switch {
	case g.kind == "query":
		var r *client.QueryResponse
		if r, err = l.readConn.c.QueryOpts(ctx, g.text, ro); err == nil {
			ver = r.Version
		}
	case g.kind == "has" && ro.MinVersion == 0:
		_, err = l.readConn.c.Has(ctx, g.text)
	default:
		var r *client.CountResponse
		if r, err = l.readConn.c.CountOpts(ctx, g.text, ro); err == nil {
			ver = r.Version
		}
	}
	end := time.Now()
	if err != nil {
		l.fail(fmt.Errorf("read %s: %w", g.text, err))
		return
	}
	if l.rec != nil {
		l.rec.add("client.read", start, end, ver)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.measured {
		l.attempted++
		l.readLat = append(l.readLat, ms(end.Sub(due)))
	}
}

// openLoop calls do at rate per second for d, each call timed from when
// it was due. A call due while the previous one still runs is sent as
// soon as that one returns, and both the wait and how late it was sent
// are recorded.
func (l *load) openLoop(d time.Duration, rate float64, do func(i int, due time.Time)) {
	t0 := time.Now()
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if due.Sub(t0) >= d {
			return
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		if late := time.Since(due); l.measuring() {
			l.mu.Lock()
			l.late = append(l.late, ms(late))
			l.mu.Unlock()
		}
		do(i, due)
	}
}

// closedLoop calls do back to back until d has passed.
func closedLoop(d time.Duration, do func()) {
	end := time.Now().Add(d)
	for time.Now().Before(end) {
		do()
	}
}

func (l *load) measuring() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.measured
}

func (l *load) setMeasured(on bool) {
	l.mu.Lock()
	l.measured = on
	l.mu.Unlock()
}

// run drives the workload: a warm-up that lets plan caches, indexes and
// the first flattens settle, then the measured phases. With a
// closed-loop phase, the open-loop phase takes three quarters of total
// and the closed-loop phase the rest.
func (l *load) run(ctx context.Context, total time.Duration) error {
	sub, err := subscribe(ctx, l.st.readURL())
	if err != nil {
		return err
	}
	l.sub = sub
	sp := l.in.spec
	readLoop := func(d time.Duration) {
		l.openLoop(d, sp.readRate, func(i int, due time.Time) { l.read(ctx, i, due) })
	}
	both := func(d time.Duration, applies func(time.Duration)) {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); applies(d) }()
		go func() { defer wg.Done(); readLoop(d) }()
		wg.Wait()
	}
	openApplies := func(d time.Duration) {
		k := l.applyConns[0]
		l.openLoop(d, sp.applyRate, func(_ int, due time.Time) { l.apply(ctx, k, due, true) })
	}
	fixedOrder := func(d time.Duration) {
		k := l.applyConns[0]
		closedLoop(d, func() { l.apply(ctx, k, time.Time{}, true) })
	}
	closedPhase := func(d time.Duration) {
		var wg sync.WaitGroup
		for _, k := range l.applyConns[1:] {
			wg.Add(1)
			go func(k *conn) {
				defer wg.Done()
				closedLoop(d, func() { l.apply(ctx, k, time.Time{}, false) })
			}(k)
		}
		wg.Wait()
	}
	const warm = time.Second
	if sp.applyRate > 0 {
		both(warm, openApplies)
		closedPhase(warm / 2)
		l.setMeasured(true)
		both(total*3/4, openApplies)
		start := time.Now()
		closedPhase(total / 4)
		l.closedDur = time.Since(start)
	} else {
		both(warm, fixedOrder)
		l.setMeasured(true)
		start := time.Now()
		both(total, fixedOrder)
		l.closedDur = time.Since(start)
		l.mu.Lock()
		l.closedN = len(l.open)
		l.mu.Unlock()
	}
	l.setMeasured(false)
	return nil
}

// subscriber records when each committed version reached the stream.
type subscriber struct {
	sub *client.Subscription
	mu  sync.Mutex
	got []seen
	err error
	// done is closed when the stream ends.
	done chan struct{}
}

type seen struct {
	version uint64
	at      time.Time
}

func subscribe(ctx context.Context, url string) (*subscriber, error) {
	s, err := client.New(url, nil).Subscribe(ctx, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("subscribe: %w", err)
	}
	sb := &subscriber{sub: s, done: make(chan struct{})}
	go func() {
		defer close(sb.done)
		for ev := range s.Events() {
			now := time.Now()
			if ev.Hello {
				continue
			}
			sb.mu.Lock()
			sb.got = append(sb.got, seen{ev.Version, now})
			sb.mu.Unlock()
		}
		sb.mu.Lock()
		sb.err = s.Err()
		sb.mu.Unlock()
	}()
	return sb, nil
}

// waitFor waits until the stream has delivered version v.
func (sb *subscriber) waitFor(v uint64, timeout time.Duration) bool {
	end := time.Now().Add(timeout)
	for {
		sb.mu.Lock()
		ok := len(sb.got) > 0 && sb.got[len(sb.got)-1].version >= v
		sb.mu.Unlock()
		if ok {
			return true
		}
		if time.Now().After(end) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (sb *subscriber) close() {
	sb.sub.Close()
	<-sb.done
}

func (sb *subscriber) snapshot() ([]seen, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return append([]seen(nil), sb.got...), sb.err
}

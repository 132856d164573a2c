package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"ivm"
	"ivm/internal/replica"
	"ivm/internal/server"
)

// stack is the system under test, assembled in-process the way cmd/ivmd
// assembles it: ivm.OpenStore with group commit, then server.New with
// OwnViews and logging off, serving HTTP on loopback; on the replica
// workload also a follower (replica.Start plus server.New with
// LeaderURL).
type stack struct {
	dir    string
	views  *ivm.Views
	srv    *server.Server
	rep    *replica.Replica
	fviews *ivm.Views
	fsrv   *server.Server

	// primary and follower trace the two nodes' maintenance passes
	// (nil in untraced runs).
	primary, follower *passTracker
}

// startStack opens a fresh store in dir, materializes the initial views,
// writes the first checkpoint and starts serving; with a follower it
// returns once the follower has caught up. rec, when non-nil, traces
// both nodes.
func startStack(dir string, in *inputs, rec *recorder) (*stack, error) {
	st := &stack{dir: dir}
	opts := []ivm.Option{ivm.WithStrategy(in.spec.strategy), ivm.WithGroupCommit()}
	initOpts := opts
	if rec != nil {
		st.primary = newPassTracker(rec, "primary")
		initOpts = append(initOpts[:len(initOpts):len(initOpts)], ivm.WithTracer(st.primary.tracer()))
	}
	v, _, err := ivm.OpenStore(dir, func() (*ivm.Views, error) {
		return in.database().Materialize(in.spec.program, initOpts...)
	}, opts...)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	st.views = v
	if rec != nil {
		st.primary.reset()
		// Registered before server.New, so it runs before the hub fans
		// the commit out.
		v.OnCommit(st.primary.onCommit)
	}
	st.srv = server.New(v, server.Options{OwnViews: true})
	if err := st.srv.Start(); err != nil {
		v.Close()
		return nil, fmt.Errorf("start server: %w", err)
	}
	if in.spec.follower {
		if err := st.startFollower(rec); err != nil {
			st.stop()
			return nil, err
		}
	}
	return st, nil
}

// startFollower starts an in-process follower of the primary and waits
// until it has applied the primary's current version.
func (st *stack) startFollower(rec *recorder) error {
	var extra []ivm.Option
	if rec != nil {
		st.follower = newPassTracker(rec, "follower")
		extra = append(extra, ivm.WithTracer(st.follower.tracer()))
	}
	rep, err := replica.Start(st.srv.URL(), replica.Options{ExtraOptions: extra})
	if err != nil {
		return fmt.Errorf("start follower: %w", err)
	}
	st.rep = rep
	st.fviews = rep.Views()
	if rec != nil {
		st.follower.reset()
		st.fviews.OnCommit(st.follower.onCommit)
	}
	st.fsrv = server.New(st.fviews, server.Options{OwnViews: true, LeaderURL: st.srv.URL()})
	if err := st.fsrv.Start(); err != nil {
		return fmt.Errorf("start follower server: %w", err)
	}
	return st.waitFollower(10 * time.Second)
}

// waitFollower waits until the follower publishes the primary's
// current version.
func (st *stack) waitFollower(timeout time.Duration) error {
	want := st.views.Snapshot().Version()
	if !st.fviews.WaitForVersion(want, timeout) {
		return fmt.Errorf("follower at version %d did not reach the primary's %d within %s", st.fviews.Snapshot().Version(), want, timeout)
	}
	return nil
}

// readURL is where reads and the subscriber go.
func (st *stack) readURL() string {
	if st.fsrv != nil {
		return st.fsrv.URL()
	}
	return st.srv.URL()
}

// readTracker is the pass tracker of the node the subscriber reads.
func (st *stack) readTracker() *passTracker {
	if st.fsrv != nil {
		return st.follower
	}
	return st.primary
}

// stop shuts the follower and the primary down (each checkpointing and
// closing what it owns) and removes the store.
func (st *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if st.rep != nil {
		st.rep.Stop()
	}
	if st.fsrv != nil {
		keep(st.fsrv.Shutdown(ctx))
	} else if st.fviews != nil {
		keep(st.fviews.Close())
	}
	if st.srv != nil {
		keep(st.srv.Shutdown(ctx))
	}
	keep(os.RemoveAll(st.dir))
	return first
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json declares in section.
func declared(t *testing.T, section string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[section], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func checkMetrics(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	var got []string
	for name, m := range res.Metrics {
		got = append(got, name)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v, want a finite value", name, m.Value)
		}
		if m.Unit != want[name] {
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", name, m.Unit, want[name])
		}
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(got)
	sort.Strings(names)
	if strings.Join(got, " ") != strings.Join(names, " ") {
		t.Errorf("metrics\n%v\nwant\n%v", got, names)
	}
}

// TestShortRuns runs each workload briefly, untraced and traced, and
// checks that each emits exactly the declared metrics with their units
// and finite values, and passes the correctness gate.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	for name := range specs {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 2, trace: traced, workdir: t.TempDir()}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if traced {
				checkMetrics(t, res, layers)
			} else {
				checkMetrics(t, res, e2e)
			}
		}
	}
}

// TestGateRejectsCorruptState corrupts the final state behind the
// benchmark's back and expects the gate to refuse it.
func TestGateRejectsCorruptState(t *testing.T) {
	for _, name := range []string{"ingest", "recursive", "replica"} {
		in := generate(specs[name], 3, runtime.NumCPU())
		st, err := startStack(filepath.Join(t.TempDir(), "store"), in, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := newLoad(in, st, nil)
		if err := checkState(in, st, l.applyConns); err != nil {
			t.Fatalf("%s: clean state rejected: %v", name, err)
		}
		// An edge no connection inserted.
		if _, err := st.views.ApplyScript("+edge(stray,n1)."); err != nil {
			t.Fatal(err)
		}
		if err := checkState(in, st, l.applyConns); err == nil {
			t.Errorf("%s: corrupted state passed the gate", name)
		}
		l.close()
		if err := st.stop(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStreamCheck(t *testing.T) {
	acks := []timedApply{{version: 2, visible: true}, {version: 3}, {version: 4, visible: true}, {version: 4, visible: true}}
	ok := []seen{{version: 2}, {version: 4}}
	if err := checkStream(acks, ok, nil); err != nil {
		t.Fatalf("in-order stream rejected: %v", err)
	}
	for name, got := range map[string][]seen{
		"missing":   {{version: 2}},
		"duplicate": {{version: 2}, {version: 2}, {version: 4}},
		"reordered": {{version: 4}, {version: 2}},
		"unacked":   {{version: 2}, {version: 3}, {version: 4}},
	} {
		if err := checkStream(acks, got, nil); err == nil {
			t.Errorf("%s stream passed the check", name)
		}
	}
}

// TestGeneratorBehindIsFlagged asks the open-loop generator for a rate
// it cannot keep and expects its lateness to be reported.
func TestGeneratorBehindIsFlagged(t *testing.T) {
	l := &load{}
	l.setMeasured(true)
	l.openLoop(300*time.Millisecond, 1e8, func(int, time.Time) {})
	late := quantile(l.late, 0.99)
	if !behind(late) {
		t.Fatalf("generator p99 lateness %.3f ms not flagged", late)
	}
	l = &load{}
	l.setMeasured(true)
	l.openLoop(300*time.Millisecond, 100, func(int, time.Time) {})
	if late := quantile(l.late, 0.99); behind(late) {
		t.Fatalf("generator on schedule flagged: p99 lateness %.3f ms", late)
	}
}

func TestInputsAreSeeded(t *testing.T) {
	for name, sp := range specs {
		a, b, c := generate(sp, 5, 2), generate(sp, 5, 2), generate(sp, 6, 2)
		if a.stream[0].script() != b.stream[0].script() || a.base.String() != b.base.String() {
			t.Errorf("%s: same seed, different inputs", name)
		}
		if a.base.String() == c.base.String() {
			t.Errorf("%s: different seeds, same base", name)
		}
	}
}

// TestConnectionsOwnDisjointEdges checks the rule that keeps concurrent
// connections from racing on one edge.
func TestConnectionsOwnDisjointEdges(t *testing.T) {
	for name, sp := range specs {
		in := generate(sp, 9, 4)
		owner := map[string]int{}
		for k, ops := range in.conns {
			for _, o := range ops {
				for _, e := range o.edits {
					if prev, ok := owner[e.key()]; ok && prev != k {
						t.Fatalf("%s: edge %s used by connections %d and %d", name, e.key(), prev, k)
					}
					owner[e.key()] = k
				}
			}
		}
	}
}

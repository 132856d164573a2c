// Command perfbench is the repository's benchmark. It runs one named
// workload with one seed against the stack cmd/ivmd assembles, built
// in-process, prints every end-to-end metric by name with its unit, and
// fails the run when the outputs are wrong. With -trace 1 it instead
// runs the same workload and seed traced, and replays the workload's
// delta stream through each layer alone, and prints the per-layer
// metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header records where and how a run was made; it is the first line of
// standard output.
type header struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	Host       string  `json:"host"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	ApplyRate  float64 `json:"offered_applies_per_s"`
	ReadRate   float64 `json:"offered_reads_per_s"`
	Why        string  `json:"why"`
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: ingest, recursive or replica")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.IntVar(&o.seconds, "seconds", 45, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for stores and trace files")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o)
	if res != nil {
		for _, name := range sortedNames(res.Metrics) {
			if v := res.Metrics[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				// A metric with no samples: the run did not measure what
				// it claims to.
				err = errors.Join(err, fmt.Errorf("metric %s has no value", name))
				res.Metrics[name] = metric{0, res.Metrics[name].Unit}
				res.Correct = false
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if res == nil {
			os.Exit(2)
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if err != nil || !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation. A nil result means nothing was measured;
// a result with an error is printed and fails the run.
func run(o options) (*result, error) {
	sp, ok := specs[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be at least 1")
	}
	nproc := runtime.NumCPU()
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	host, _ := os.Hostname()
	h := header{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Host: host, NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		ApplyRate: sp.applyRate, ReadRate: sp.readRate, Why: sp.why,
	}
	hl, _ := json.Marshal(map[string]header{"header": h})
	fmt.Println(string(hl))

	in := generate(sp, o.seed, nproc)
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if o.trace {
		return tracedRun(o, in, nproc, dir)
	}
	return untracedRun(o, in, dir)
}

// setups is how many times a run sets the stack up; setup_s is their
// median.
const setups = 7

// untracedRun measures the end-to-end metrics.
func untracedRun(o options, in *inputs, dir string) (*result, error) {
	var times []float64
	var st *stack
	for i := 0; i < setups; i++ {
		if st != nil {
			if err := st.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		s, err := startStack(filepath.Join(dir, fmt.Sprintf("store%d", i)), in, nil)
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		st = s
	}
	p, err := measure(in, st, nil, time.Duration(o.seconds)*time.Second)
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	if serr := st.stop(); err == nil {
		err = serr
	}
	if p == nil {
		return nil, err
	}
	res := p.result()
	res.Metrics["setup_s"] = metric{median(times), "s"}
	res.Metrics["live_heap_mb"] = metric{float64(mem.HeapAlloc) / 1e6, "MB"}
	return res, err
}

// passResult is what one measured pass yields.
type passResult struct {
	l        *load
	fresh    []float64 // ms
	checkErr error
}

// measure runs the workload over st and then the correctness gate.
func measure(in *inputs, st *stack, rec *recorder, d time.Duration) (*passResult, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l := newLoad(in, st, rec)
	defer l.close()
	if err := l.run(ctx, d); err != nil {
		return nil, err
	}
	p := &passResult{l: l}
	// Let the stream deliver the last acked version before judging it.
	var lastVisible uint64
	for _, a := range l.acks {
		if a.visible && a.version > lastVisible {
			lastVisible = a.version
		}
	}
	l.sub.waitFor(lastVisible, 10*time.Second)
	got, serr := l.sub.snapshot()
	l.sub.close()
	p.checkErr = errors.Join(checkStream(l.acks, got, serr), checkState(in, st, l.applyConns))
	at := map[uint64]time.Time{}
	for _, s := range got {
		at[s.version] = s.at
	}
	for _, a := range l.open {
		if t, ok := at[a.version]; ok && a.visible {
			p.fresh = append(p.fresh, ms(t.Sub(a.due)))
		}
	}
	if len(l.errs) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: request errors:", errors.Join(l.errs...))
	}
	if p.checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: correctness check failed:", p.checkErr)
	}
	if late := quantile(append([]float64(nil), l.late...), 0.99); behind(late) {
		fmt.Fprintf(os.Stderr, "perfbench: open-loop generator fell behind: p99 %.2f ms late\n", late)
	}
	return p, nil
}

// lateLimitMs is how late (p99) the open-loop generator may send before
// a run is flagged as behind its schedule. Single stalls of the system,
// such as a flatten, delay the next requests by tens of milliseconds; a
// generator whose backlog keeps growing exceeds this.
const lateLimitMs = 100.0

// behind reports whether an open-loop generator with the given p99
// lateness fell behind its schedule.
func behind(lateP99 float64) bool { return lateP99 > lateLimitMs }

func (p *passResult) applyLat() []float64 {
	var out []float64
	for _, a := range p.l.open {
		out = append(out, ms(a.end.Sub(a.due)))
	}
	return out
}

// result turns a pass into the end-to-end metrics (setup and memory are
// added by the caller).
func (p *passResult) result() *result {
	l := p.l
	lat := p.applyLat()
	res := &result{Correct: p.checkErr == nil, Attempted: l.attempted, Failed: l.failed, Metrics: map[string]metric{}}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	okRate := math.NaN()
	if res.Attempted > 0 {
		okRate = 1 - float64(res.Failed)/float64(res.Attempted)
	}
	m := res.Metrics
	m["apply_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
	m["apply_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	m["apply_per_s"] = metric{float64(l.closedN) / l.closedDur.Seconds(), "1/s"}
	m["read_p50_ms"] = metric{quantile(l.readLat, 0.5), "ms"}
	m["read_p99_ms"] = metric{quantile(l.readLat, 0.99), "ms"}
	m["fresh_p50_ms"] = metric{quantile(p.fresh, 0.5), "ms"}
	m["fresh_p99_ms"] = metric{quantile(p.fresh, 0.99), "ms"}
	m["ok_rate"] = metric{okRate, "ratio"}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
		res.Correct = false
	}
	return res
}

// sortedNames lists a metric map's names in order.
func sortedNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

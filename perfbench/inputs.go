package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"ivm"
	"ivm/internal/relation"
	"ivm/internal/value"
	"ivm/internal/workload"
)

const (
	hopProgram   = `hop(X,Z) :- edge(X,Y), edge(Y,Z).`
	reachProgram = `reach(X,Y) :- edge(X,Y).
reach(X,Z) :- reach(X,Y), edge(Y,Z).
fanout(X,C) :- groupby(reach(X,Y), [X], C = count(Y)).`
)

// spec is one workload: the program, the engine, and the load shape.
type spec struct {
	name     string
	why      string
	program  string
	strategy ivm.Strategy
	// view is the derived relation the per-layer relation probes use.
	view string
	// applyRate is the open-loop apply rate of connection 0 (applies/s),
	// followed by a closed-loop phase in which connections 1..nproc
	// apply; 0 means connection 0 replays its stream closed-loop for the
	// whole run instead.
	applyRate float64
	// readRate is the open-loop read rate of the read connection.
	readRate float64
	// follower adds an in-process replica: reads and the subscriber go
	// to it.
	follower bool
}

var specs = map[string]spec{
	"ingest": {
		name:      "ingest",
		why:       "served counting on hop: HTTP, scheduler, WAL and publish dominate the apply, the engine is a small share",
		program:   hopProgram,
		strategy:  ivm.Counting,
		view:      "hop",
		applyRate: 50,
		readRate:  50,
	},
	"recursive": {
		name:      "recursive",
		why:       "DRed on transitive closure plus a groupby: the relation, eval and dred layers carry the work",
		program:   reachProgram,
		strategy:  ivm.DRed,
		view:      "reach",
		readRate:  50,
		applyRate: 0,
	},
	"replica": {
		name:      "replica",
		why:       "the ingest stream with a follower serving reads and the subscription: replication ship, re-parse and apply",
		program:   hopProgram,
		strategy:  ivm.Counting,
		view:      "hop",
		applyRate: 50,
		readRate:  50,
		follower:  true,
	},
}

// edit inserts or deletes one edge.
type edit struct {
	ins  bool
	a, b value.Value
}

func (e edit) tuple() value.Tuple { return value.Tuple{e.a, e.b} }

func (e edit) key() string { return e.a.String() + "," + e.b.String() }

func (e edit) count() int64 {
	if e.ins {
		return 1
	}
	return -1
}

func (e edit) inverse() edit { return edit{ins: !e.ins, a: e.a, b: e.b} }

// op is one apply: its edits and the group that owns them. Ops of one
// group must be applied in order; ops of different groups touch
// disjoint edges.
type op struct {
	edits []edit
	group string
}

func (o op) script() string {
	var b strings.Builder
	for i, e := range o.edits {
		if i > 0 {
			b.WriteByte(' ')
		}
		if e.ins {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
		b.WriteString("edge(" + e.a.String() + "," + e.b.String() + ").")
	}
	return b.String()
}

// inverse undoes o.
func (o op) inverse() op {
	inv := op{group: o.group}
	for i := len(o.edits) - 1; i >= 0; i-- {
		inv.edits = append(inv.edits, o.edits[i].inverse())
	}
	return inv
}

// delta is the op as an engine base delta.
func (o op) delta() map[string]*relation.Relation {
	r := relation.New(2)
	for _, e := range o.edits {
		r.Add(e.tuple(), e.count())
	}
	return map[string]*relation.Relation{"edge": r}
}

// goal is one read: kind is "count", "has" or "query".
type goal struct {
	kind string
	text string
}

// inputs are everything a run sends, generated from the seed before
// any timing starts.
type inputs struct {
	spec spec
	seed int64
	// base holds the initial edge facts.
	base *relation.Relation
	// conns holds one cyclic op sequence per apply connection. Each
	// connection owns a disjoint set of edges, so concurrent connections
	// never race on one edge. Connection 0 is the open-loop (or, on
	// recursive, the fixed-order) connection; 1..nproc run the
	// closed-loop phase.
	conns [][]op
	// stream is the delta stream the layer replays use: a valid op
	// sequence starting from base.
	stream []op
	goals  []goal
}

// generate builds a workload's inputs from the seed with the
// internal/workload generators.
func generate(sp spec, seed int64, nproc int) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{spec: sp, seed: seed}
	switch sp.program {
	case hopProgram:
		in.base = workload.RandomGraph(rng, 330, 2000)
		edges := tuples(in.base)
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		in.conns = make([][]op, 1+nproc)
		for i, t := range edges {
			k := i % len(in.conns)
			del := op{edits: []edit{{ins: false, a: t[0], b: t[1]}}, group: edit{a: t[0], b: t[1]}.key()}
			in.conns[k] = append(in.conns[k], del, del.inverse())
		}
		// Round-robin over the connections' sequences: valid because the
		// connections own disjoint edges.
		for i := 0; len(in.stream) < 2000; i++ {
			for _, c := range in.conns {
				in.stream = append(in.stream, c[i%len(c)])
			}
		}
		succ := map[string][]value.Value{}
		for _, t := range edges {
			succ[t[0].String()] = append(succ[t[0].String()], t[1])
		}
		for len(in.goals) < 512 {
			t := edges[rng.Intn(len(edges))]
			next := succ[t[1].String()]
			if len(next) == 0 {
				continue
			}
			c := next[rng.Intn(len(next))]
			switch len(in.goals) % 3 {
			case 0:
				in.goals = append(in.goals, goal{"count", fmt.Sprintf("hop(%s,%s)", t[0], c)})
			case 1:
				in.goals = append(in.goals, goal{"has", fmt.Sprintf("hop(%s,%s)", t[0], c)})
			default:
				in.goals = append(in.goals, goal{"query", fmt.Sprintf("hop(%s,Y)", t[0])})
			}
		}
	case reachProgram:
		// Several independent DAGs, so that the work per apply averages
		// over more structure than one seeded DAG has. Each apply moves
		// one edge within one DAG: it deletes a present edge and inserts
		// an absent one of the same DAG, so every apply does both halves
		// of DRed's work.
		const comps, layers, width = 4, 12, 8
		in.base = relation.New(2)
		pool := make([][]value.Tuple, comps)
		present := make([]*relation.Relation, comps)
		for c := 0; c < comps; c++ {
			present[c] = relation.New(2)
			for _, t := range tuples(workload.LayeredDAG(rng, layers, width, 3)) {
				in.base.Add(tagged(c, t), 1)
				present[c].Add(tagged(c, t), 1)
			}
			for _, t := range tuples(workload.LayeredDAG(rng, layers, width, 5)) {
				pool[c] = append(pool[c], tagged(c, t))
			}
		}
		var walk []op
		for len(walk) < 600 {
			c := rng.Intn(comps)
			d := tuples(workload.SampleDeletes(rng, present[c], 1))[0]
			t := pool[c][rng.Intn(len(pool[c]))]
			if present[c].Has(t) {
				continue
			}
			present[c].Add(d, -1)
			present[c].Add(t, 1)
			walk = append(walk, op{
				edits: []edit{{ins: false, a: d[0], b: d[1]}, {ins: true, a: t[0], b: t[1]}},
				group: fmt.Sprintf("c%d", c),
			})
		}
		// The walk followed by its inverse in reverse order returns to
		// the base state, so the sequence can repeat for as long as a
		// run lasts.
		cycle := append([]op(nil), walk...)
		for i := len(walk) - 1; i >= 0; i-- {
			cycle = append(cycle, walk[i].inverse())
		}
		in.conns = [][]op{cycle}
		in.stream = cycle[:300]
		for len(in.goals) < 128 {
			in.goals = append(in.goals, goal{"query", fmt.Sprintf("reach(c%dn%d,Y)", rng.Intn(comps), rng.Intn(6*width))})
		}
	default:
		panic("unknown program")
	}
	return in
}

// tagged renames the nodes of t into component c ("n5" becomes "c2n5").
func tagged(c int, t value.Tuple) value.Tuple {
	out := make(value.Tuple, len(t))
	for i, v := range t {
		out[i] = value.NewString(fmt.Sprintf("c%d%s", c, v))
	}
	return out
}

func tuples(r *relation.Relation) []value.Tuple {
	rows := r.SortedRows()
	out := make([]value.Tuple, len(rows))
	for i, row := range rows {
		out[i] = row.Tuple
	}
	return out
}

// partition splits ops into n sequences by group, keeping each group's
// ops in order, so the parts can be applied concurrently and still be
// valid whatever the interleaving.
func partition(ops []op, n int) [][]op {
	parts := make([][]op, n)
	for _, o := range ops {
		h := fnv.New32a()
		h.Write([]byte(o.group))
		k := int(h.Sum32() % uint32(n))
		parts[k] = append(parts[k], o)
	}
	return parts
}

// database returns the initial facts as a fresh ivm database.
func (in *inputs) database() *ivm.Database {
	db := ivm.NewDatabase()
	in.base.Each(func(r relation.Row) { db.InsertTuple("edge", r.Tuple, r.Count) })
	return db
}

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"netorient/internal/core"
	"netorient/internal/daemon"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/spantree"
	"netorient/internal/token"
)

// coldWorkload stabilizes one protocol stack from a seeded random
// configuration to legitimacy, trial after trial.
type coldWorkload struct {
	spec   func(seed int64, small bool) string
	serial bool // DFTNO over token.Circulator on System; else STNO over BFSTree on ParallelSystem
}

var coldWorkloads = map[string]coldWorkload{
	"cold-grid": {
		spec: func(_ int64, small bool) string {
			if small {
				return "grid:12x12"
			}
			return "grid:64x64"
		},
	},
	"cold-barabasi": {
		spec: func(seed int64, small bool) string {
			if small {
				return fmt.Sprintf("barabasi:200:3:%d", seed)
			}
			return fmt.Sprintf("barabasi:8192:3:%d", seed)
		},
	},
	"cold-serial": {
		spec: func(_ int64, small bool) string {
			if small {
				return "grid:12x12"
			}
			return "grid:96x96"
		},
		serial: true,
	},
}

// stepBudget bounds every run to legitimacy; missing it is a failure.
const stepBudget = 50_000_000

// engine is what the benchmark calls on System and ParallelSystem.
type engine interface {
	Step() (int, error)
	RunUntilLegitimate(maxSteps int64) (program.RunResult, error)
	Moves() int64
	Steps() int64
	Rounds() int64
	EnabledCount() int
}

// coldStack is one trial's system: graph, protocol stack and engine.
type coldStack struct {
	g     *graph.Graph
	bfs   *spantree.BFSTree
	stno  *core.STNO
	dftno *core.DFTNO
	proto program.Legitimacy
	ps    *program.ParallelSystem
	sys   *program.System
	eng   engine
}

// trialSeeds are the derived seeds of one trial.
type trialSeeds struct{ graph, randomize, engine int64 }

func seedsFor(seed int64, trial int) trialSeeds {
	return trialSeeds{
		graph:     derive(seed, "graph", trial),
		randomize: derive(seed, "randomize", trial),
		engine:    derive(seed, "engine", trial),
	}
}

// trialResult is what one trial measured.
type trialResult struct {
	stack     *coldStack
	setup     time.Duration
	stabilize time.Duration
	conv      program.RunResult
	layer     map[string]float64
}

// build constructs the trial's stack and engine from its seeds.
func (w coldWorkload) build(spec string, s trialSeeds, tr *tracer) (*coldStack, error) {
	st := &coldStack{}
	var err error
	sp := tr.begin("graph.build")
	st.g, err = graph.Named(spec)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.randomize))
	if w.serial {
		sp = tr.begin("token.new")
		circ, err := token.NewCirculator(st.g, 0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("core.new")
		st.dftno, err = core.NewDFTNO(st.g, circ, 0)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		st.proto = st.dftno
		sp = tr.begin("core.randomize")
		st.dftno.Randomize(rng)
		tr.end(sp)
		sp = tr.begin("program.new")
		st.sys = program.NewSystem(st.dftno, daemon.NewCentral(s.engine))
		tr.end(sp)
		st.eng = st.sys
		return st, nil
	}
	sp = tr.begin("spantree.new")
	st.bfs, err = spantree.NewBFSTree(st.g, 0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.new")
	st.stno, err = core.NewSTNO(st.g, st.bfs, 0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	st.proto = st.stno
	sp = tr.begin("core.randomize")
	st.stno.Randomize(rng)
	tr.end(sp)
	sp = tr.begin("program.new")
	st.ps = program.NewParallelSystem(st.stno, program.ParallelConfig{Workers: workers, Seed: s.engine})
	tr.end(sp)
	st.eng = st.ps
	return st, nil
}

// check verifies the stack's output: a valid chordal labeling plus
// true BFS distances (STNO) or the reference DFS naming (DFTNO).
func (st *coldStack) check() error {
	if st.stno != nil {
		return checkSTNO(st.g, st.stno, st.bfs)
	}
	return checkDFTNO(st.g, st.dftno)
}

// converge runs the engine to legitimacy. Untraced it is one
// RunUntilLegitimate call. Traced, the loop makes the same engine
// calls RunUntilLegitimate makes — Step, then the legitimacy
// predicate, stopping on a terminal configuration — with a span around
// each, so it ends on exactly the same moves, steps and rounds.
func (st *coldStack) converge(tr *tracer) (program.RunResult, error) {
	if tr == nil {
		return st.eng.RunUntilLegitimate(stepBudget)
	}
	m0, s0, r0 := st.eng.Moves(), st.eng.Steps(), st.eng.Rounds()
	res := func(conv bool) program.RunResult {
		return program.RunResult{Converged: conv, Moves: st.eng.Moves() - m0, Steps: st.eng.Steps() - s0, Rounds: st.eng.Rounds() - r0}
	}
	legit := st.proto.Legitimate
	if st.sys != nil {
		// RunUntilLegitimate(0) arms the O(1) witness and answers the
		// initial check, as the untraced call does before its first
		// step; the loop below then asks the armed witness.
		sp := tr.begin("program.legitimate")
		r, err := st.sys.RunUntilLegitimate(0)
		tr.end(sp)
		if err != nil || r.Converged {
			return res(r.Converged), err
		}
		legit = st.dftno.WitnessLegitimate
		return st.convergeAggregated(tr, legit, res)
	}
	sp := tr.begin("program.legitimate")
	ok := legit()
	tr.end(sp)
	if ok {
		return res(true), nil
	}
	for i := int64(0); i < stepBudget; i++ {
		name := "program.step"
		if i == 0 {
			name = "program.init_step"
		}
		sp := tr.begin(name)
		_, err := st.eng.Step()
		tr.end(sp)
		if err != nil {
			return res(false), err
		}
		sp = tr.begin("program.legitimate")
		ok := legit()
		tr.end(sp)
		if ok {
			return res(true), nil
		}
		if st.eng.EnabledCount() == 0 {
			return res(false), nil
		}
	}
	return res(false), nil
}

// convergeAggregated is the serial engine's traced loop: System steps
// take microseconds, so step and legitimacy time are summed per call
// and recorded as one aggregate span each.
func (st *coldStack) convergeAggregated(tr *tracer, legit func() bool, res func(bool) program.RunResult) (program.RunResult, error) {
	start := tr.now()
	var stepBusy, legitBusy time.Duration
	var steps, checks int64
	defer func() {
		tr.aggregate("program.step", start, stepBusy, steps)
		tr.aggregate("program.legitimate", start, legitBusy, checks)
	}()
	for i := int64(0); i < stepBudget; i++ {
		t0 := time.Now()
		n, err := st.sys.Step()
		t1 := time.Now()
		if i == 0 {
			tr.aggregate("program.init_step", start, t1.Sub(t0), 1)
		} else {
			stepBusy += t1.Sub(t0)
			steps++
		}
		if err != nil {
			return res(false), err
		}
		ok := legit()
		legitBusy += time.Since(t1)
		checks++
		if ok {
			return res(true), nil
		}
		if n == 0 {
			return res(false), nil
		}
	}
	return res(false), nil
}

// trial runs one cold start. tr is nil for the untraced run.
func (w coldWorkload) trial(spec string, s trialSeeds, tr *tracer) (*trialResult, error) {
	runtime.GC()
	out := &trialResult{layer: map[string]float64{}}
	t0 := time.Now()
	st, err := w.build(spec, s, tr)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(t0)
	out.stack = st

	var before runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&before)
	}
	t1 := time.Now()
	out.conv, err = st.converge(tr)
	out.stabilize = time.Since(t1)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		out.layer["program.alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
		if out.conv.Steps > 0 {
			out.layer["program.allocs_per_step"] = float64(after.Mallocs-before.Mallocs) / float64(out.conv.Steps)
		}
		w.stabilizeLayers(st, tr, out)
	}
	if !out.conv.Converged {
		return out, fmt.Errorf("%s: no legitimacy within %d steps", spec, int64(stepBudget))
	}
	if err := st.check(); err != nil {
		return out, fmt.Errorf("after stabilization: %w", err)
	}
	return out, nil
}

// stabilizeLayers reads the traced trial's per-layer figures from its
// spans and the engine's counters.
func (w coldWorkload) stabilizeLayers(st *coldStack, tr *tracer, out *trialResult) {
	l := out.layer
	for _, name := range []string{"graph.build", "spantree.new", "token.new", "core.new", "core.randomize", "program.new"} {
		d, _ := tr.busy(tr.trace, name)
		l[name+"_ms"] = ms(d)
	}
	initD, _ := tr.busy(tr.trace, "program.init_step")
	stepD, stepN := tr.busy(tr.trace, "program.step")
	legitD, legitN := tr.busy(tr.trace, "program.legitimate")
	l["program.init_ms"] = ms(initD)
	l["program.step_ms"] = ms(stepD)
	if stepN > 0 {
		l["program.step_ms_per_step"] = ms(stepD) / float64(stepN)
	}
	l["program.legit_ms"] = ms(legitD)
	l["program.legit_calls"] = float64(legitN)
	l["program.steps"] = float64(out.conv.Steps)
	l["program.rounds"] = float64(out.conv.Rounds)
	l["program.moves"] = float64(out.conv.Moves)
	if st.ps != nil {
		l["program.work_units"] = float64(st.ps.WorkUnits())
		l["program.span_units"] = float64(st.ps.SpanUnits())
		l["program.frontier"] = float64(st.ps.FrontierSize())
		if span := st.ps.SpanUnits(); span > 0 {
			l["program.boundary_share"] = float64(st.ps.BoundarySpanUnits()) / float64(span)
		}
		l["program.shard_imbalance"] = imbalance(st.ps.ShardWork(nil))
	}
}

// imbalance is max/mean of per-shard work (1 = perfectly balanced).
func imbalance(work []int64) float64 {
	var sum, max int64
	for _, x := range work {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum == 0 {
		return 1
	}
	return float64(max) * float64(len(work)) / float64(sum)
}

// run drives trials until the measurement time is used: one warm-up
// trial first, discarded, then measured trials. The traced run pairs
// every measured trial with an untraced one of the same seeds and
// requires both to end on the same moves, steps and rounds.
func (w coldWorkload) run(opt options, o *outcome) error {
	var (
		setup, stab, overhead samples
		layers                = map[string]samples{}
		last                  *trialResult
		nodes, edges          []int
	)
	tr := (*tracer)(nil)
	if opt.trace {
		tr = newTracer("cold", time.Now())
	}
	var start time.Time
	for trial := 0; ; trial++ {
		if trial == 1 {
			start = time.Now()
		}
		if trial >= 2 && time.Since(start).Seconds() >= opt.seconds {
			break
		}
		s := seedsFor(opt.seed, trial)
		spec := w.spec(s.graph, opt.small)
		o.attempted++
		plain, err := w.trial(spec, s, nil)
		if err != nil {
			o.checkFail("trial %d (%s): %v", trial, spec, err)
			continue
		}
		nodes = append(nodes, plain.stack.g.N())
		edges = append(edges, plain.stack.g.M())
		last = plain
		if opt.trace {
			tr.setTrace(trial)
			sp := tr.begin("trial")
			traced, err := w.trial(spec, s, tr)
			tr.end(sp)
			if err != nil {
				o.checkFail("traced trial %d (%s): %v", trial, spec, err)
				continue
			}
			if traced.conv != plain.conv {
				o.checkFail("trial %d: traced run diverged: %+v vs %+v", trial, traced.conv, plain.conv)
				continue
			}
			last = traced
			if trial > 0 {
				traced.layer["program.moves_per_s"] = float64(plain.conv.Moves) / plain.stabilize.Seconds()
				overhead = append(overhead, traced.stabilize.Seconds()/plain.stabilize.Seconds()-1)
				for k, v := range traced.layer {
					layers[k] = append(layers[k], v)
				}
			}
		}
		if trial == 0 {
			continue // warm-up
		}
		setup = append(setup, secs(plain.setup))
		stab = append(stab, secs(plain.stabilize))
	}
	o.meta["graph_n"] = nodes
	o.meta["graph_m"] = edges
	s1 := seedsFor(opt.seed, 1)
	o.meta["derived_seeds_trial1"] = map[string]int64{"graph": s1.graph, "randomize": s1.randomize, "engine": s1.engine}
	o.meta["warmup_trials"] = 1
	if last == nil {
		return fmt.Errorf("every trial failed")
	}
	o.set("setup_s", setup.median(), len(setup))
	o.set("stabilize_s", stab.median(), len(stab))
	o.set("live_heap_mb", heapMB(), 1)
	runtime.KeepAlive(last)
	if !opt.trace {
		return nil
	}
	for k, v := range layers {
		o.set(k, v.median(), len(v))
	}
	o.set("trace.overhead_frac", overhead.median(), len(overhead))
	o.self = selfTimes(tr)
	if opt.spansDir != "" {
		p, err := writeSpans(opt.spansDir, fmt.Sprintf("%s-%d.jsonl", opt.workload, opt.seed), tr)
		if err != nil {
			return err
		}
		o.spansPath = p
	}
	return nil
}

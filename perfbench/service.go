package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"netorient/internal/core"
	"netorient/internal/graph"
	"netorient/internal/orientd"
	"netorient/internal/program"
	"netorient/internal/spantree"
)

// The service-faults workload boots an in-process orientd server
// (stack stno, failover-wrapped, on the parallel stepper with two
// workers) several times, then drives the last boot over loopback TCP
// with two closed-loop connections and no think time: a fault driver
// and a query client.
const (
	serviceBoots    = 9  // the first is a discarded warm-up
	faultBatch      = 32 // episodes per batch mean, as many flaps as a cold trial has
	recoveryTimeout = 60 * time.Second
)

func serviceSpec(small bool) string {
	if small {
		return "grid:8x8"
	}
	return "grid:64x64"
}

// client wraps an orientd admin connection with a span per verb.
type client struct {
	c  *orientd.Client
	tr *tracer
}

func (c *client) do(op string, req orientd.Request, data any) (time.Duration, error) {
	req.Op = op
	sp := c.tr.begin("orientd." + op)
	t0 := time.Now()
	err := c.c.Do(req, data)
	d := time.Since(t0)
	c.tr.end(sp)
	return d, err
}

// service is one booted orientd instance and its two connections.
type service struct {
	srv    *orientd.Server
	cancel context.CancelFunc
	done   chan error
	drv    *client // fault driver
	qry    *client // query client
}

// boot constructs a server and its connections (setup), starts it and
// polls status until the first legitimate answer (stabilize).
func boot(cfg orientd.Config) (svc *service, setup, stabilize time.Duration, err error) {
	runtime.GC()
	t0 := time.Now()
	srv, err := orientd.New(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	svc = &service{srv: srv, done: make(chan error, 1)}
	for _, c := range []**client{&svc.drv, &svc.qry} {
		cc, err := orientd.Dial("tcp", srv.Addr().String())
		if err != nil {
			srv.Close()
			if svc.drv != nil {
				svc.drv.c.Close()
			}
			return nil, 0, 0, err
		}
		*c = &client{c: cc}
	}
	setup = time.Since(t0)
	ctx, cancel := context.WithCancel(context.Background())
	svc.cancel = cancel
	t1 := time.Now()
	go func() { svc.done <- srv.Serve(ctx) }()
	if _, _, err := svc.drv.awaitLegit(); err != nil {
		svc.close()
		return nil, 0, 0, fmt.Errorf("boot: %w", err)
	}
	return svc, setup, time.Since(t1), nil
}

// close shuts the connections and the server down and waits for Serve
// to return.
func (s *service) close() error {
	s.drv.c.Close()
	s.qry.c.Close()
	s.cancel()
	if err := <-s.done; err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// awaitLegit polls status back to back until it reports legitimate and
// returns the number of polls and that status.
func (c *client) awaitLegit() (int, orientd.Status, error) {
	deadline := time.Now().Add(recoveryTimeout)
	for polls := 1; ; polls++ {
		var st orientd.Status
		if _, err := c.do("status", orientd.Request{}, &st); err != nil {
			return polls, st, err
		}
		if st.Legitimate {
			return polls, st, nil
		}
		if time.Now().After(deadline) {
			return polls, st, fmt.Errorf("not legitimate after %v", recoveryTimeout)
		}
	}
}

// queryStats is what the query client measured.
type queryStats struct {
	all, status, legit, orient samples
	orientBytes                int
	attempted, failed          int
}

// queryLoop cycles status, legitimacy and orientation until stop is
// closed.
func (c *client) queryLoop(stop <-chan struct{}, out *queryStats) {
	ops := []string{"status", "legitimacy", "orientation"}
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		op := ops[i%len(ops)]
		var raw json.RawMessage
		d, err := c.do(op, orientd.Request{}, &raw)
		out.attempted++
		if err != nil {
			out.failed++
			continue
		}
		v := ms(d)
		out.all = append(out.all, v)
		switch op {
		case "status":
			out.status = append(out.status, v)
		case "legitimacy":
			out.legit = append(out.legit, v)
		case "orientation":
			out.orient = append(out.orient, v)
			out.orientBytes = len(raw)
		}
	}
}

// faultStats is what the fault driver measured.
type faultStats struct {
	corrupt, flap, rejoin, isolate     samples
	corruptAck, flapAck, cutAck, heal  samples
	polls                              samples
	movesCorrupt, movesFlap, movesJoin samples
	leaderFlaps                        samples
	rebuilds, skips                    samples
	recoverMS, recoverSteps            float64
	tracedCorrupt, plainCorrupt        samples
	attempted, failed                  int
}

// driver injects faults into one booted service and mirrors every
// topology change on its own copy of the graph.
type driver struct {
	c      *client
	tr     *tracer // nil on untraced episodes
	mirror *graph.Graph
	rng    *rand.Rand
	fs     *faultStats
}

// episode sends one fault verb, polls until legitimate and records the
// recovery. kind is "corrupt" or "flap".
func (d *driver) episode(kind string, traced bool) error {
	c := &client{c: d.c.c}
	if traced {
		c.tr = d.tr
	}
	var before orientd.Status
	var pm0 orientd.Metrics
	if traced {
		if _, err := c.do("status", orientd.Request{}, &before); err != nil {
			return err
		}
		if _, err := c.do("metrics", orientd.Request{}, &pm0); err != nil {
			return err
		}
	}
	n := d.mirror.N()
	var req orientd.Request
	v := graph.NodeID(d.rng.Intn(n))
	if kind == "corrupt" {
		req.Node = int(v)
	} else {
		nb := d.mirror.Neighbors(v)
		u := nb[d.rng.Intn(len(nb))]
		req.U, req.V = int(u), int(v)
	}
	t0 := time.Now()
	ack, err := c.do(kind, req, nil)
	if err != nil {
		return err
	}
	if kind == "flap" {
		if err := flapMirror(d.mirror, graph.NodeID(req.U), graph.NodeID(req.V)); err != nil {
			return err
		}
	}
	polls, after, err := c.awaitLegit()
	rec := time.Since(t0)
	if err != nil {
		return fmt.Errorf("%s recovery: %w", kind, err)
	}
	fs := d.fs
	if kind == "corrupt" {
		fs.corrupt = append(fs.corrupt, ms(rec))
		fs.corruptAck = append(fs.corruptAck, ms(ack))
		if traced {
			fs.tracedCorrupt = append(fs.tracedCorrupt, ms(rec))
		} else {
			fs.plainCorrupt = append(fs.plainCorrupt, ms(rec))
		}
	} else {
		fs.flap = append(fs.flap, ms(rec))
		fs.flapAck = append(fs.flapAck, ms(ack))
	}
	fs.polls = append(fs.polls, float64(polls))
	if traced {
		var pm1 orientd.Metrics
		if _, err := c.do("metrics", orientd.Request{}, &pm1); err != nil {
			return err
		}
		moves := float64(after.Moves - before.Moves)
		if kind == "corrupt" {
			fs.movesCorrupt = append(fs.movesCorrupt, moves)
		} else {
			fs.movesFlap = append(fs.movesFlap, moves)
			fs.rebuilds = append(fs.rebuilds, float64(pm1.Parallel.FrontierRebuilds-pm0.Parallel.FrontierRebuilds))
			fs.skips = append(fs.skips, float64(pm1.Parallel.ReclassSkips-pm0.Parallel.ReclassSkips))
		}
		fs.recoverMS += ms(rec)
		fs.recoverSteps += float64(pm1.Parallel.Steps - pm0.Parallel.Steps)
	}
	return nil
}

// isolate cuts every edge of one non-root node, waits for legitimacy,
// heals the edges in the same order and times the rejoin.
func (d *driver) isolate() error {
	c := &client{c: d.c.c, tr: d.tr}
	v := graph.NodeID(1 + d.rng.Intn(d.mirror.N()-1))
	nbrs := d.mirror.NeighborsCopy(v)
	for _, u := range nbrs {
		ack, err := c.do("cut", orientd.Request{U: int(v), V: int(u)}, nil)
		if err != nil {
			return err
		}
		d.fs.cutAck = append(d.fs.cutAck, ms(ack))
		if _, err := d.mirror.RemoveEdge(v, u); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if _, _, err := c.awaitLegit(); err != nil {
		return fmt.Errorf("isolate %d: %w", v, err)
	}
	d.fs.isolate = append(d.fs.isolate, ms(time.Since(t0)))
	var lg0 orientd.Legitimacy
	var st0 orientd.Status
	if d.tr != nil {
		if _, err := c.do("legitimacy", orientd.Request{}, &lg0); err != nil {
			return err
		}
		if _, err := c.do("status", orientd.Request{}, &st0); err != nil {
			return err
		}
	}
	t1 := time.Now()
	for _, u := range nbrs {
		ack, err := c.do("heal", orientd.Request{U: int(v), V: int(u)}, nil)
		if err != nil {
			return err
		}
		d.fs.heal = append(d.fs.heal, ms(ack))
		if _, err := d.mirror.AddEdge(v, u); err != nil {
			return err
		}
	}
	_, st1, err := c.awaitLegit()
	if err != nil {
		return fmt.Errorf("rejoin %d: %w", v, err)
	}
	d.fs.rejoin = append(d.fs.rejoin, ms(time.Since(t1)))
	if d.tr != nil {
		var lg1 orientd.Legitimacy
		if _, err := c.do("legitimacy", orientd.Request{}, &lg1); err != nil {
			return err
		}
		d.fs.leaderFlaps = append(d.fs.leaderFlaps, float64(lg1.LeaderFlaps-lg0.LeaderFlaps))
		d.fs.movesJoin = append(d.fs.movesJoin, float64(st1.Moves-st0.Moves))
	}
	return nil
}

// flapMirror applies the service's flap — remove, then re-add — to the
// benchmark's copy of the graph, so port orders stay identical.
func flapMirror(g *graph.Graph, u, v graph.NodeID) error {
	if _, err := g.RemoveEdge(u, v); err != nil {
		return err
	}
	_, err := g.AddEdge(u, v)
	return err
}

// runService is the service-faults workload.
func runService(opt options, o *outcome) error {
	spec := serviceSpec(opt.small)
	cfg := orientd.Config{GraphSpec: spec, Stack: "stno", Workers: workers}
	faultSeed := derive(opt.seed, "faults", 0)
	bootSeeds := make([]int64, serviceBoots)
	for b := range bootSeeds {
		bootSeeds[b] = derive(opt.seed, "service", b)
	}
	o.meta["derived_seeds"] = map[string]any{"boots": bootSeeds, "faults": faultSeed}
	o.meta["graph"] = spec
	o.meta["warmup_boots"] = 1

	var setup, stab samples
	var svc *service
	var start time.Time
	for b := 0; b < serviceBoots; b++ {
		if b == 1 {
			start = time.Now()
		}
		if svc != nil {
			if err := svc.close(); err != nil {
				return err
			}
		}
		o.attempted++
		var su, sb time.Duration
		var err error
		// Each boot runs its own engine seed: the parallel engine
		// re-seeds its RNGs from the configured seed on every
		// re-initialization, so one seed would repeat one schedule.
		cfg.Seed = bootSeeds[b]
		svc, su, sb, err = boot(cfg)
		if err != nil {
			return err
		}
		if b > 0 {
			setup = append(setup, secs(su))
			stab = append(stab, secs(sb))
		}
	}
	o.set("setup_s", setup.median(), len(setup))
	o.set("stabilize_s", stab.median(), len(stab))
	err := faultPhase(opt, o, svc, spec, faultSeed, start)
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	return err
}

// faultPhase drives the fault schedule and the query client against
// svc until the run's measurement time, counted from start, is used,
// then checks the final orientation.
func faultPhase(opt options, o *outcome, svc *service, spec string, faultSeed int64, start time.Time) error {
	mirror, err := graph.Named(spec)
	if err != nil {
		return err
	}
	o.meta["graph_n"] = mirror.N()
	o.meta["graph_m"] = mirror.M()
	base := time.Now()
	var dtr, qtr *tracer
	if opt.trace {
		dtr, qtr = newTracer("faults", base), newTracer("queries", base)
		svc.qry.tr = qtr
	}
	fs := &faultStats{}
	d := &driver{c: svc.drv, tr: dtr, mirror: mirror, rng: rand.New(rand.NewSource(faultSeed)), fs: fs}

	var qs queryStats
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		svc.qry.queryLoop(stop, &qs)
	}()

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var pm0 orientd.Metrics
	var st0 orientd.Status
	if _, err = svc.drv.do("metrics", orientd.Request{}, &pm0); err == nil {
		_, err = svc.drv.do("status", orientd.Request{}, &st0)
	}
	// One isolate cycle half way through the measurement time and one
	// at four fifths, which ends the run on a heal; corrupt and flap
	// episodes fill the rest.
	isolateAt := []float64{0.5, 0.8}
	for ep := 0; err == nil; ep++ {
		dtr.setTrace(ep)
		fs.attempted++
		if time.Since(start).Seconds() >= isolateAt[0]*opt.seconds {
			if err = d.isolate(); err != nil {
				fs.failed++
				break
			}
			if isolateAt = isolateAt[1:]; len(isolateAt) == 0 {
				break
			}
			continue
		}
		kind := "corrupt"
		if d.rng.Intn(2) == 1 {
			kind = "flap"
		}
		if err = d.episode(kind, opt.trace && ep%2 == 0); err != nil {
			fs.failed++
		}
	}
	close(stop)
	wg.Wait()
	o.attempted += fs.attempted + qs.attempted
	o.failed += fs.failed + qs.failed
	if err != nil {
		o.checkErrs = append(o.checkErrs, "fault driver: "+err.Error())
		return nil
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	var pm1 orientd.Metrics
	if _, err := svc.drv.do("metrics", orientd.Request{}, &pm1); err != nil {
		return err
	}
	if err := checkService(svc.drv, mirror, derive(opt.seed, "reference", 0)); err != nil {
		o.checkFail("final orientation: %v", err)
	}

	o.set("recover_corrupt_ms", fs.corrupt.median(), len(fs.corrupt))
	o.set("recover_corrupt_ms_p90", fs.corrupt.quantile(0.9), len(fs.corrupt))
	o.set("recover_flap_ms", fs.flap.median(), len(fs.flap))
	o.set("orientd.rejoin_ms", fs.rejoin.median(), len(fs.rejoin))
	o.set("orientd.query_ms", qs.all.median(), len(qs.all))
	o.set("orientd.query_ms_p99", qs.all.quantile(0.99), len(qs.all))
	o.set("live_heap_mb", heapMB(), 1)
	if !opt.trace {
		return nil
	}
	set := func(name string, s samples) { o.set(name, s.median(), len(s)) }
	set("orientd.corrupt_ack_ms", fs.corruptAck)
	set("orientd.flap_ack_ms", fs.flapAck)
	set("orientd.cut_ack_ms", fs.cutAck)
	set("orientd.heal_ack_ms", fs.heal)
	set("failover.isolate_ms", fs.isolate)
	set("failover.leader_flaps_per_rejoin", fs.leaderFlaps)
	set("program.moves_per_rejoin", fs.movesJoin)
	set("program.moves_per_corrupt", fs.movesCorrupt)
	set("program.moves_per_flap", fs.movesFlap)
	set("program.frontier_rebuilds", fs.rebuilds)
	set("program.reclass_skips", fs.skips)
	set("orientd.polls_per_recovery", fs.polls)
	set("orientd.status_ms", qs.status)
	set("orientd.legitimacy_ms", qs.legit)
	set("orientd.orientation_ms", qs.orient)
	o.set("orientd.orientation_bytes", float64(qs.orientBytes), 1)
	if fs.recoverSteps > 0 {
		o.set("program.step_ms_per_step", fs.recoverMS/fs.recoverSteps, len(fs.movesCorrupt)+len(fs.movesFlap))
	}
	var st1 orientd.Status
	if _, err := svc.drv.do("status", orientd.Request{}, &st1); err != nil {
		return err
	}
	p0, p1 := pm0.Parallel, pm1.Parallel
	steps := p1.Steps - p0.Steps
	o.set("program.steps", float64(steps), 1)
	o.set("program.moves", float64(st1.Moves-st0.Moves), 1)
	o.set("program.rounds", float64(p1.Rounds-p0.Rounds), 1)
	o.set("program.work_units", float64(p1.WorkUnits-p0.WorkUnits), 1)
	o.set("program.span_units", float64(p1.SpanUnits-p0.SpanUnits), 1)
	o.set("program.frontier", float64(p1.Frontier), 1)
	if span := p1.SpanUnits - p0.SpanUnits; span > 0 {
		o.set("program.boundary_share", float64(p1.BoundarySpan-p0.BoundarySpan)/float64(span), 1)
	}
	o.set("program.shard_imbalance", imbalance(p1.ShardWork), 1)
	o.set("program.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), 1)
	if steps > 0 {
		o.set("program.allocs_per_step", float64(m1.Mallocs-m0.Mallocs)/float64(steps), 1)
	}
	if len(fs.tracedCorrupt) > 0 && len(fs.plainCorrupt) > 0 {
		o.set("trace.overhead_frac", fs.tracedCorrupt.median()/fs.plainCorrupt.median()-1,
			len(fs.tracedCorrupt)+len(fs.plainCorrupt))
	}
	o.self = selfTimes(dtr, qtr)
	if opt.spansDir != "" {
		p, err := writeSpans(opt.spansDir, fmt.Sprintf("%s-%d.jsonl", opt.workload, opt.seed), dtr, qtr)
		if err != nil {
			return err
		}
		o.spansPath = p
	}
	return nil
}

// checkService verifies the service's final state against the
// benchmark's own copy of the graph: status reports one legitimate
// component of the right size; the orientation's names are a
// permutation of 0..n−1 and equal the names an independently
// stabilized STNO over BFSTree reaches on the mirrored graph, whose
// BFS tree is itself checked against graph.BFSFrom. (The stno
// orientation payload carries names only, no parents.)
func checkService(c *client, mirror *graph.Graph, seed int64) error {
	_, st, err := c.awaitLegit()
	if err != nil {
		return err
	}
	if st.Nodes != mirror.N() || st.Edges != mirror.M() || st.Components != 1 {
		return fmt.Errorf("status reports n=%d m=%d components=%d, mirror has n=%d m=%d",
			st.Nodes, st.Edges, st.Components, mirror.N(), mirror.M())
	}
	var or orientd.Orientation
	if _, err := c.do("orientation", orientd.Request{}, &or); err != nil {
		return err
	}
	ref, err := referenceNames(mirror, seed)
	if err != nil {
		return err
	}
	return checkOrientation(or, ref)
}

// checkOrientation verifies an orientation payload against reference
// names.
func checkOrientation(or orientd.Orientation, ref []int) error {
	if !or.Legitimate {
		return fmt.Errorf("orientation payload not legitimate")
	}
	if err := checkPermutation(or.Names, len(ref)); err != nil {
		return err
	}
	return sameNames(or.Names, ref)
}

// referenceNames stabilizes a fresh STNO over BFSTree on g (which it
// does not modify) and returns its names after checking its labeling
// and BFS distances.
func referenceNames(g *graph.Graph, seed int64) ([]int, error) {
	bfs, err := spantree.NewBFSTree(g, 0)
	if err != nil {
		return nil, err
	}
	s, err := core.NewSTNO(g, bfs, 0)
	if err != nil {
		return nil, err
	}
	ps := program.NewParallelSystem(s, program.ParallelConfig{Workers: workers, Seed: seed})
	res, err := ps.RunUntilLegitimate(stepBudget)
	if err != nil {
		return nil, err
	}
	if !res.Converged {
		return nil, fmt.Errorf("reference STNO did not stabilize")
	}
	if err := checkSTNO(g, s, bfs); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return s.Names(), nil
}

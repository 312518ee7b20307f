package core

import (
	"math/rand"
	"slices"
	"testing"

	"netorient/internal/daemon"
	"netorient/internal/failover"
	"netorient/internal/graph"
	"netorient/internal/program"
	"netorient/internal/sod"
	"netorient/internal/spantree"
)

// The reference below states STNO's three guards the way the paper
// writes them, one clause per pass: CalcWeight against the children's
// weights, NameAndDistribute against the name the parent allocates
// (looked up with PortOf) and the Distribute target, and EdgeLabel
// against SP2. The fused one-pass guard must agree with it verbatim.

// refWeightInvalid is Weight_v ≠ 1 + Σ_{q∈D_v} Weight_q.
func refWeightInvalid(s *STNO, v graph.NodeID) bool {
	w := 1
	for _, q := range s.g.Neighbors(v) {
		if q != graph.None && s.sub.Parent(q) == v {
			w += s.weight[q]
		}
	}
	return s.weight[v] != w
}

// refExpectedEta returns Start_{A_v}[v] (0 at a root); ok is false
// when v is not a root and has no parent it shares an edge with.
func refExpectedEta(s *STNO, v graph.NodeID) (int, bool) {
	if s.isRoot(v) {
		return 0, true
	}
	p := s.sub.Parent(v)
	if p == graph.None {
		return 0, false
	}
	port, ok := s.g.PortOf(p, v)
	if !ok {
		return 0, false
	}
	return s.start[p][port], true
}

// refNameInvalid is InvalidNodelabel ∨ a stale Start array.
func refNameInvalid(s *STNO, v graph.NodeID) bool {
	if want, ok := refExpectedEta(s, v); ok && s.eta[v] != want {
		return true
	}
	given := s.eta[v]
	for port, q := range s.g.Neighbors(v) {
		want := 0
		if q != graph.None && s.sub.Parent(q) == v {
			want = given + 1
			given += s.weight[q]
		}
		if s.start[v][port] != want {
			return true
		}
	}
	return false
}

// refEdgeInvalid is InvalidEdgelabel(v); holes are skipped.
func refEdgeInvalid(s *STNO, v graph.NodeID) bool {
	for port, q := range s.g.Neighbors(v) {
		if q != graph.None && s.pi[v][port] != sod.ChordalLabel(s.eta[v], s.eta[q], s.modulus) {
			return true
		}
	}
	return false
}

// refEnabled is Enabled built from the per-clause reference.
func refEnabled(s *STNO, v graph.NodeID, buf []program.ActionID) []program.ActionID {
	buf = s.sub.Enabled(v, buf)
	if refWeightInvalid(s, v) {
		buf = append(buf, ActWeight)
	}
	if refNameInvalid(s, v) {
		buf = append(buf, ActName)
	}
	if refEdgeInvalid(s, v) {
		buf = append(buf, ActSTNOEdge)
	}
	return buf
}

// checkGuardsMatchReference compares, at every node, the fused guard's
// action list, witness clause and Execute verdicts (with the state each
// move writes) against the reference.
func checkGuardsMatchReference(t *testing.T, s *STNO, what string) {
	t.Helper()
	var got, want []program.ActionID
	for v := 0; v < s.g.N(); v++ {
		id := graph.NodeID(v)
		got = s.Enabled(id, got[:0])
		want = refEnabled(s, id, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("%s: node %d: Enabled = %v, reference %v", what, v, got, want)
		}
		refViolates := s.g.Alive(id) && (refWeightInvalid(s, id) || refNameInvalid(s, id) || refEdgeInvalid(s, id))
		if s.stnoViolates(id) != refViolates {
			t.Fatalf("%s: node %d: witness clause %v, reference %v", what, v, !refViolates, refViolates)
		}
		// Execute re-checks its guard: it must refuse exactly the moves
		// the reference calls disabled, and NameAndDistribute must
		// take the name the reference's parent lookup finds.
		for _, a := range []program.ActionID{ActWeight, ActName, ActSTNOEdge} {
			enabled := slices.Contains(want, a)
			wantEta, etaOK := refExpectedEta(s, id)
			snap := s.Snapshot()
			if s.Execute(id, a) != enabled {
				t.Fatalf("%s: node %d: Execute(%s) = %v, reference enabled %v", what, v, s.ActionName(a), !enabled, enabled)
			}
			if a == ActName && enabled && etaOK && s.eta[v] != wantEta {
				t.Fatalf("%s: node %d: NameAndDistribute wrote η=%d, reference %d", what, v, s.eta[v], wantEta)
			}
			if err := s.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSTNOFusedGuardMatchesReference drives STNO through random
// (Randomize), partially corrupted (CorruptNode) and partially
// stabilized configurations on a grid, a barabási graph, a graph with
// port holes and a dead node, under a DFS-tree substrate (whose Parent
// reads one hop around the node), and under a bound failover root
// authority, and checks the fused guard against the reference at
// every node of every configuration.
func TestSTNOFusedGuardMatchesReference(t *testing.T) {
	t.Parallel()
	holed := graph.Grid(5, 5)
	for _, e := range [][2]graph.NodeID{{0, 1}, {6, 11}, {12, 13}} {
		if _, err := holed.RemoveEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := holed.RemoveNode(18); err != nil {
		t.Fatal(err)
	}
	barabasi, err := graph.Barabasi(120, 3, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	bfs := func(t *testing.T, g *graph.Graph) (*STNO, program.Protocol) {
		s := newSTNOBFS(t, g, 0)
		return s, s
	}
	cases := []struct {
		name  string
		g     *graph.Graph
		build func(*testing.T, *graph.Graph) (*STNO, program.Protocol)
	}{
		{"grid", graph.Grid(6, 6), bfs},
		{"barabasi", barabasi, bfs},
		{"holed", holed, bfs},
		{"dfstree", graph.Grid(4, 4), func(t *testing.T, g *graph.Graph) (*STNO, program.Protocol) {
			sub, err := spantree.NewDFSTree(g, 0)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSTNO(g, sub, 0)
			if err != nil {
				t.Fatal(err)
			}
			return s, s
		}},
		{"failover", graph.Lollipop(5, 6), func(t *testing.T, g *graph.Graph) (*STNO, program.Protocol) {
			s := newSTNOBFS(t, g, 0)
			return s, failover.New(g, s, 0)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			s, top := c.build(t, c.g)
			rz := top.(program.Randomizer)
			nc := top.(program.NodeCorruptor)
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				rz.Randomize(rng)
				checkGuardsMatchReference(t, s, "randomized")
				sys := program.NewSystem(top, daemon.NewDistributed(seed, 0.5))
				for step := 0; step < 40; step++ {
					if _, err := sys.Step(); err != nil {
						t.Fatal(err)
					}
					if step%8 == 7 {
						checkGuardsMatchReference(t, s, "mid-run")
					}
				}
				for k := 0; k < 3; k++ {
					nc.CorruptNode(graph.NodeID(rng.Intn(c.g.N())), rng)
				}
				checkGuardsMatchReference(t, s, "corrupted")
			}
		})
	}
}
